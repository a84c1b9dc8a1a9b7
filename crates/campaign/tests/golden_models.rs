//! Golden models: the state count and [`model_digest`] of each model the
//! paper experiments learn, pinned as constants.  Every other determinism
//! test compares one engine shape against another; these compare against
//! fixed ground truth, so any simulator, adapter, transport or learner
//! change that alters a learned model fails here, whatever engine shape it
//! runs on.
//!
//! Pinned:
//! - E1: the TCP model `learn_model` learns at `LearnConfig::default()`;
//! - E3: the in-process google and quiche QUIC models, at the E3
//!   experiment's configuration (`exp_quic_learning`);
//! - google-QUIC over a jittery simulated link on 1 worker × 16 in-flight
//!   sessions (the learning benchmark's `quic-jitter-16x` shape), which
//!   must reproduce the in-process google model exactly.
//!
//! mvfst is left out: its answers depend on the query's position in the
//! run (Issue 2's nondeterminism), so it has no single golden model.

use prognosis_campaign::model_digest;
use prognosis_core::net_transport::{LinkConfig, NetworkedSessionFactory};
use prognosis_core::pipeline::{learn_model, learn_model_parallel, LearnConfig};
use prognosis_core::session::SimDuration;
use prognosis_core::{quic_alphabet, tcp_alphabet, QuicSul, QuicSulFactory, TcpSul};
use prognosis_quic_sim::profile::ImplementationProfile;

/// The E1 TCP model: (states, digest).
const TCP: (usize, u64) = (5, 0x6571_6c5e_064c_eea0);
/// The E3 google-QUIC model.
const GOOGLE: (usize, u64) = (7, 0x7ec0_48b7_dba6_69e8);
/// The E3 quiche-QUIC model.
const QUICHE: (usize, u64) = (5, 0x0afe_c01d_b8c3_2a8f);

/// Seed of the simulated QUIC servers in E3.
const QUIC_SUL_SEED: u64 = 3;

/// The E3 learn configuration.
fn e3_config() -> LearnConfig {
    LearnConfig {
        seed: 7,
        random_tests: 3_000,
        min_word_len: 2,
        max_word_len: 12,
        ..LearnConfig::default()
    }
}

fn in_process_quic(profile: ImplementationProfile) -> (usize, u64) {
    let mut sul = QuicSul::new(profile, QUIC_SUL_SEED);
    let learned = learn_model(&mut sul, &quic_alphabet(), e3_config());
    (learned.model.num_states(), model_digest(&learned.model))
}

#[test]
fn e1_tcp_model_is_golden() {
    let learned = learn_model(
        &mut TcpSul::with_defaults(),
        &tcp_alphabet(),
        LearnConfig::default(),
    );
    let got = (learned.model.num_states(), model_digest(&learned.model));
    assert_eq!(got, TCP, "the E1 TCP model changed");
}

#[test]
fn e3_google_model_is_golden() {
    let got = in_process_quic(ImplementationProfile::google());
    assert_eq!(got, GOOGLE, "the E3 google-QUIC model changed");
}

#[test]
fn e3_quiche_model_is_golden() {
    let got = in_process_quic(ImplementationProfile::quiche());
    assert_eq!(got, QUICHE, "the E3 quiche-QUIC model changed");
}

#[test]
fn google_over_a_jittery_link_on_16_sessions_is_golden() {
    let link = LinkConfig::with_latency(SimDuration::from_micros(100))
        .jitter(SimDuration::from_micros(100));
    let factory = NetworkedSessionFactory::new(
        QuicSulFactory::new(ImplementationProfile::google(), QUIC_SUL_SEED),
        link,
    );
    let outcome = learn_model_parallel(
        &factory,
        &quic_alphabet(),
        e3_config().with_workers(1).with_max_inflight(16),
    )
    .expect("networked learning succeeds");
    let model = &outcome.learned.model;
    assert_eq!(
        (model.num_states(), model_digest(model)),
        GOOGLE,
        "google over the jittery link diverged from the in-process model"
    );
}

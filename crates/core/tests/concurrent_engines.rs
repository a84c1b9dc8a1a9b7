//! Concurrent learns, the substrate the campaign orchestrator builds its
//! matrix cells on: a TCP learn and a QUIC learn running *at the same
//! time* through the campaign's seeded entry point must produce exactly
//! the models and query-cost statistics of their solo runs, and that entry
//! point must agree with the plain parallel one on everything it reports.
//! Each engine owns its helper threads, so concurrent learns share no
//! engine state.

use prognosis_automata::alphabet::Alphabet;
use prognosis_core::net_transport::{LinkConfig, NetworkedSessionFactory};
use prognosis_core::pipeline::{
    learn_model_parallel, learn_model_parallel_seeded_with_events,
    learn_model_parallel_with_events, LearnConfig, LearnedModel,
};
use prognosis_core::quic_adapter::{quic_alphabet, QuicSulFactory};
use prognosis_core::session::{SessionSulFactory, SimDuration};
use prognosis_core::tcp_adapter::{tcp_alphabet, TcpSulFactory};
use prognosis_events::{Event, EventSink, MemorySink};
use prognosis_learner::trie::PrefixTrie;
use prognosis_quic_sim::profile::ImplementationProfile;
use std::sync::Arc;

fn config() -> LearnConfig {
    LearnConfig {
        random_tests: 200,
        max_word_len: 6,
        eq_batch_size: 64,
        workers: 2,
        ..LearnConfig::default()
    }
}

/// A cold learn through the campaign's seeded entry point.
fn seeded<F>(factory: &F, alphabet: &Alphabet) -> LearnedModel
where
    F: SessionSulFactory,
    F::Session: Send + 'static,
{
    learn_model_parallel_seeded_with_events(
        factory,
        alphabet,
        &config(),
        PrefixTrie::new(),
        &[],
        None,
    )
    .expect("seeded learn succeeds")
    .outcome
    .learned
}

#[test]
fn concurrent_heterogeneous_learns_match_solo_runs() {
    let google = QuicSulFactory::new(ImplementationProfile::google(), 11);
    let tcp_reference = learn_model_parallel(&TcpSulFactory::default(), &tcp_alphabet(), config())
        .expect("solo TCP learn succeeds")
        .learned;
    let quic_reference = learn_model_parallel(&google, &quic_alphabet(), config())
        .expect("solo QUIC learn succeeds")
        .learned;

    // Two 2-worker engines learning two protocols at once, each with one
    // helper thread of its own.
    let (tcp_concurrent, quic_concurrent) = std::thread::scope(|scope| {
        let tcp = scope.spawn(|| seeded(&TcpSulFactory::default(), &tcp_alphabet()));
        let quic = scope.spawn(|| seeded(&google, &quic_alphabet()));
        (
            tcp.join().expect("tcp thread"),
            quic.join().expect("quic thread"),
        )
    });

    assert_eq!(tcp_concurrent.model, tcp_reference.model);
    assert_eq!(
        tcp_concurrent.stats.membership_queries,
        tcp_reference.stats.membership_queries
    );
    assert_eq!(
        tcp_concurrent.stats.equivalence_tests,
        tcp_reference.stats.equivalence_tests
    );
    assert_eq!(quic_concurrent.model, quic_reference.model);
    assert_eq!(
        quic_concurrent.stats.membership_queries,
        quic_reference.stats.membership_queries
    );
    assert_eq!(
        quic_concurrent.stats.equivalence_tests,
        quic_reference.stats.equivalence_tests
    );
}

/// Keeps only the deterministic stream: diagnostics carry wall-clock
/// scheduling and thread interleavings, which legitimately differ.
#[derive(Default)]
struct DeterministicOnly(MemorySink);

impl EventSink for DeterministicOnly {
    fn emit(&self, event: &Event) {
        if !event.is_diagnostic() {
            self.0.emit(event);
        }
    }
}

/// Learns twice — through the campaign's seeded entry point, then through
/// [`learn_model_parallel_with_events`] — and asserts the runs agree on
/// everything: model, learner statistics, every engine counter (virtual
/// time, clock advances, busy time, replies, per-phase books) and the
/// deterministic event stream, byte for byte.
fn assert_seeded_matches_plain<F>(factory: &F, alphabet: &Alphabet, config: LearnConfig)
where
    F: SessionSulFactory,
    F::Session: Send + 'static,
{
    let seeded_log = Arc::new(DeterministicOnly::default());
    let seeded = learn_model_parallel_seeded_with_events(
        factory,
        alphabet,
        &config,
        PrefixTrie::new(),
        &[],
        Some(Arc::clone(&seeded_log) as Arc<dyn EventSink>),
    )
    .expect("seeded learn succeeds")
    .outcome;
    let plain_log = Arc::new(DeterministicOnly::default());
    let plain = learn_model_parallel_with_events(
        factory,
        alphabet,
        config,
        Arc::clone(&plain_log) as Arc<dyn EventSink>,
        true,
    )
    .expect("plain learn succeeds");

    assert_eq!(plain.learned.model, seeded.learned.model);
    assert_eq!(plain.learned.stats, seeded.learned.stats);
    assert_eq!(plain.sul_stats, seeded.sul_stats);
    assert_eq!(plain.engine, seeded.engine);
    let (plain_log, seeded_log) = (plain_log.0.contents(), seeded_log.0.contents());
    assert!(plain_log.contains("\"name\":\"session:done\""));
    assert!(
        plain_log == seeded_log,
        "the deterministic event stream differs ({} vs {} bytes)",
        plain_log.len(),
        seeded_log.len()
    );
}

#[test]
fn seeded_learns_match_the_plain_parallel_entry_point() {
    let two_by_one = config().with_workers(2).with_max_inflight(1);
    assert_seeded_matches_plain(&TcpSulFactory::default(), &tcp_alphabet(), two_by_one);

    let link = LinkConfig::with_latency(SimDuration::from_micros(100))
        .jitter(SimDuration::from_micros(100));
    let google = NetworkedSessionFactory::new(
        QuicSulFactory::new(ImplementationProfile::google(), 11),
        link,
    );
    let two_by_eight = config().with_workers(2).with_max_inflight(8);
    assert_seeded_matches_plain(&google, &quic_alphabet(), two_by_eight);
}

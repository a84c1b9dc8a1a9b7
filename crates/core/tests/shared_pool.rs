//! Heterogeneous learning runs leasing one [`EnginePool`]: a TCP learn and
//! a QUIC learn executing *concurrently* on the same engine threads must
//! produce exactly the models and query-cost statistics of their private
//! (`spawn_with`) runs — the pool moves scheduling, never results.  This is
//! the substrate the campaign orchestrator builds its matrix cells on.
//! Worker 0 runs on the learner's thread either way; a lease only decides
//! where the helper workers run.

use prognosis_automata::alphabet::Alphabet;
use prognosis_core::engine::EnginePool;
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

/// A cold learn whose workers lease slots from `pool`.
fn learn_on<F>(pool: &EnginePool, factory: &F, alphabet: &Alphabet) -> LearnedModel
where
    F: SessionSulFactory,
    F::Session: Send + 'static,
{
    learn_model_parallel_seeded_with_events(
        pool,
        factory,
        alphabet,
        &config(),
        PrefixTrie::new(),
        &[],
        None,
    )
    .expect("shared-pool learn succeeds")
    .outcome
    .learned
}

fn private_tcp() -> LearnedModel {
    learn_model_parallel(&TcpSulFactory::default(), &tcp_alphabet(), config())
        .expect("private TCP learn succeeds")
        .learned
}

fn private_quic() -> LearnedModel {
    let factory = QuicSulFactory::new(ImplementationProfile::google(), 11);
    learn_model_parallel(&factory, &quic_alphabet(), config())
        .expect("private QUIC learn succeeds")
        .learned
}

#[test]
fn concurrent_heterogeneous_leases_match_private_runs() {
    let tcp_reference = private_tcp();
    let quic_reference = private_quic();

    // 4 slots, two concurrent 2-worker engines (one helper slot each): both
    // protocols run at once on the same engine threads, interleaving
    // heterogeneous session types.
    let pool = EnginePool::new(4);
    let (tcp_shared, quic_shared) = std::thread::scope(|scope| {
        let tcp = scope.spawn(|| learn_on(&pool, &TcpSulFactory::default(), &tcp_alphabet()));
        let quic = scope.spawn(|| {
            let factory = QuicSulFactory::new(ImplementationProfile::google(), 11);
            learn_on(&pool, &factory, &quic_alphabet())
        });
        (
            tcp.join().expect("tcp thread"),
            quic.join().expect("quic thread"),
        )
    });

    assert_eq!(tcp_shared.model, tcp_reference.model);
    assert_eq!(
        tcp_shared.stats.membership_queries,
        tcp_reference.stats.membership_queries
    );
    assert_eq!(
        tcp_shared.stats.equivalence_tests,
        tcp_reference.stats.equivalence_tests
    );
    assert_eq!(quic_shared.model, quic_reference.model);
    assert_eq!(
        quic_shared.stats.membership_queries,
        quic_reference.stats.membership_queries
    );
    assert_eq!(
        quic_shared.stats.equivalence_tests,
        quic_reference.stats.equivalence_tests
    );

    // Every leased slot was returned: the pool is reusable afterwards.
    assert_eq!(pool.free_slots(), pool.total_slots());
}

#[test]
fn an_undersized_pool_serializes_leases_without_changing_results() {
    let tcp_reference = private_tcp();

    // 1 slot but two 2-worker runs, each leasing one helper slot: the
    // second lease must wait for the first to finish — all-or-nothing
    // acquisition, no deadlock, and the results stay identical.
    let pool = EnginePool::new(1);
    let (first, second) = std::thread::scope(|scope| {
        let a = scope.spawn(|| learn_on(&pool, &TcpSulFactory::default(), &tcp_alphabet()));
        let b = scope.spawn(|| learn_on(&pool, &TcpSulFactory::default(), &tcp_alphabet()));
        (
            a.join().expect("first thread"),
            b.join().expect("second thread"),
        )
    });

    assert_eq!(first.model, tcp_reference.model);
    assert_eq!(second.model, tcp_reference.model);
    assert_eq!(pool.free_slots(), pool.total_slots());
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

/// Learns with two workers twice — helper leased from a one-slot shared
/// pool, then on a private engine — and asserts the runs agree on
/// everything: model, learner statistics, every engine counter (virtual
/// time, clock advances, busy time, replies, per-phase books) and the
/// deterministic event stream, byte for byte.
fn assert_private_matches_leased<F>(factory: &F, alphabet: &Alphabet, config: LearnConfig)
where
    F: SessionSulFactory,
    F::Session: Send + 'static,
{
    let pool = EnginePool::new(1);
    let leased_log = Arc::new(DeterministicOnly::default());
    let leased = learn_model_parallel_seeded_with_events(
        &pool,
        factory,
        alphabet,
        &config,
        PrefixTrie::new(),
        &[],
        Some(Arc::clone(&leased_log) as Arc<dyn EventSink>),
    )
    .expect("leased learn succeeds")
    .outcome;
    let private_log = Arc::new(DeterministicOnly::default());
    let private = learn_model_parallel_with_events(
        factory,
        alphabet,
        config,
        Arc::clone(&private_log) as Arc<dyn EventSink>,
        true,
    )
    .expect("private learn succeeds");

    assert_eq!(private.learned.model, leased.learned.model);
    assert_eq!(private.learned.stats, leased.learned.stats);
    assert_eq!(private.sul_stats, leased.sul_stats);
    assert_eq!(private.engine, leased.engine);
    let (private_log, leased_log) = (private_log.0.contents(), leased_log.0.contents());
    assert!(private_log.contains("\"name\":\"session:done\""));
    assert!(
        private_log == leased_log,
        "the deterministic event stream differs ({} vs {} bytes)",
        private_log.len(),
        leased_log.len()
    );
}

#[test]
fn private_engines_match_shared_pool_leases() {
    let two_by_one = config().with_workers(2).with_max_inflight(1);
    assert_private_matches_leased(&TcpSulFactory::default(), &tcp_alphabet(), two_by_one);

    let link = LinkConfig::with_latency(SimDuration::from_micros(100))
        .jitter(SimDuration::from_micros(100));
    let google = NetworkedSessionFactory::new(
        QuicSulFactory::new(ImplementationProfile::google(), 11),
        link,
    );
    let two_by_eight = config().with_workers(2).with_max_inflight(8);
    assert_private_matches_leased(&google, &quic_alphabet(), two_by_eight);
}

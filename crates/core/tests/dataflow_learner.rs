//! Dataflow-vs-serial learner equivalence over the engine grid: for any
//! `(workers, max_inflight, impairment)` the continuation-driven dataflow
//! learner — async sift probes, interleaved phases, speculative equivalence
//! streaming — must build a **bit-identical** discrimination tree and model
//! to serial sifting, with `membership_queries` no greater than serial and
//! exact speculation-word accounting, including warm starts against a
//! persisted observation journal.

use prognosis_automata::alphabet::Alphabet;
use prognosis_automata::mealy::MealyMachine;
use prognosis_core::net_transport::{LinkConfig, NetworkedSessionFactory};
use prognosis_core::parallel::ParallelSulOracle;
use prognosis_core::pipeline::{learn_model, learn_model_parallel, LearnConfig, LearnedModel};
use prognosis_core::session::{SessionSulFactory, SimDuration};
use prognosis_core::tcp_adapter::{tcp_alphabet, TcpSulFactory};
use prognosis_learner::dtree::{SiftStrategy, SpeculationStats};
use prognosis_learner::stats::LearningStats;
use prognosis_learner::{CacheOracle, DTreeLearner, Learner, RandomWordOracle};
use proptest::prelude::*;
use std::sync::OnceLock;

/// One learner-level run on a fresh parallel engine: returns the model,
/// the learner stats, the discrimination tree's canonical signature, the
/// fresh-symbol cost, and the speculation counters.
fn learn_direct<F>(
    factory: &F,
    alphabet: &Alphabet,
    strategy: SiftStrategy,
    workers: usize,
    max_inflight: usize,
    random_tests: usize,
) -> (
    MealyMachine,
    LearningStats,
    Vec<String>,
    u64,
    SpeculationStats,
)
where
    F: SessionSulFactory,
    F::Session: Send + 'static,
{
    let oracle = ParallelSulOracle::spawn_with(factory, workers, max_inflight);
    let mut membership = CacheOracle::new(oracle);
    let mut learner = DTreeLearner::with_strategy(alphabet.clone(), strategy);
    let mut equivalence = RandomWordOracle::new(7, random_tests, 2, 6).with_batch_size(128);
    let result = learner.learn(&mut membership, &mut equivalence);
    let fresh = membership.fresh_symbols();
    (
        result.model,
        result.stats,
        learner.tree_signature(),
        fresh,
        learner.speculation(),
    )
}

fn compare_strategies<F>(
    factory: &F,
    alphabet: &Alphabet,
    workers: usize,
    max_inflight: usize,
    random_tests: usize,
    label: &str,
) where
    F: SessionSulFactory,
    F::Session: Send + 'static,
{
    let (serial_model, serial_stats, serial_tree, serial_fresh, _) = learn_direct(
        factory,
        alphabet,
        SiftStrategy::Serial,
        workers,
        max_inflight,
        random_tests,
    );
    let (flow_model, flow_stats, flow_tree, flow_fresh, spec) = learn_direct(
        factory,
        alphabet,
        SiftStrategy::Dataflow,
        workers,
        max_inflight,
        random_tests,
    );
    prop_assert_eq!(
        &flow_model,
        &serial_model,
        "{}: models diverged (not merely inequivalent — state numbering counts)",
        label
    );
    prop_assert_eq!(
        &flow_tree,
        &serial_tree,
        "{}: discrimination trees diverged",
        label
    );
    prop_assert!(
        flow_stats.membership_queries <= serial_stats.membership_queries,
        "{}: dataflow asked more queries ({} > {})",
        label,
        flow_stats.membership_queries,
        serial_stats.membership_queries
    );
    prop_assert!(
        flow_fresh <= serial_fresh,
        "{}: dataflow executed more fresh symbols ({} > {})",
        label,
        flow_fresh,
        serial_fresh
    );
    prop_assert_eq!(flow_stats.counterexamples, serial_stats.counterexamples);
    prop_assert_eq!(flow_stats.learning_rounds, serial_stats.learning_rounds);
    // Chunk-commit identity: the dataflow path must count exactly the
    // equivalence tests the serial chunk-at-a-time runner would execute.
    prop_assert_eq!(flow_stats.equivalence_tests, serial_stats.equivalence_tests);
    prop_assert_eq!(
        spec.words_used + spec.words_discarded + spec.words_unsent,
        spec.words_submitted,
        "{}: every speculative word must be committed, discarded, or unsent",
        label
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // The dataflow learner is the same algorithm as serial sifting at every
    // point of the (workers, max_inflight, impairment) grid — including
    // over a 10%-loss impaired network, where answers depend on the
    // (rewound, pure) noise streams.
    #[test]
    fn dataflow_matches_serial_over_the_engine_grid(
        workers in 1usize..4,
        inflight_exp in 0u32..7,
        lossy in any::<bool>(),
    ) {
        let max_inflight = 1usize << inflight_exp; // 1..=64
        let label = format!(
            "(workers, max_inflight, lossy) = ({workers}, {max_inflight}, {lossy})"
        );
        if lossy {
            let alphabet =
                Alphabet::from_symbols(["SYN(?,?,0)", "ACK(?,?,0)", "FIN+ACK(?,?,0)"]);
            let factory = NetworkedSessionFactory::new(
                TcpSulFactory::default(),
                LinkConfig::with_latency(SimDuration::from_micros(100)).loss(0.1),
            )
            .with_noise_seed(23);
            compare_strategies(&factory, &alphabet, workers, max_inflight, 150, &label);
        } else {
            compare_strategies(
                &TcpSulFactory::default(),
                &tcp_alphabet(),
                workers,
                max_inflight,
                250,
                &label,
            );
        }
    }
}

// A counterexample landing while speculative equivalence words are still in
// flight must roll the speculation back — cancelled sessions discarded, the
// counterexample's chunk committed — without perturbing the learned model
// or the serial equivalence-test count.
#[test]
fn speculation_rollback_discards_inflight_words_without_divergence() {
    let (serial_model, serial_stats, _, _, _) = learn_direct(
        &TcpSulFactory::default(),
        &tcp_alphabet(),
        SiftStrategy::Serial,
        2,
        8,
        400,
    );
    let (flow_model, flow_stats, _, _, spec) = learn_direct(
        &TcpSulFactory::default(),
        &tcp_alphabet(),
        SiftStrategy::Dataflow,
        2,
        8,
        400,
    );
    assert_eq!(flow_model, serial_model);
    assert_eq!(flow_stats.equivalence_tests, serial_stats.equivalence_tests);
    assert!(
        serial_stats.counterexamples >= 1,
        "TCP learning must need at least one refinement round for this test"
    );
    assert!(
        spec.suites >= 2,
        "each learning round streams its own speculative suite"
    );
    assert!(
        spec.rollbacks >= 1,
        "a counterexample must cut the speculative suite short"
    );
    assert!(
        spec.words_discarded + spec.words_unsent > 0,
        "rolled-back suites must leave uncommitted words behind"
    );
    assert_eq!(
        spec.words_used + spec.words_discarded + spec.words_unsent,
        spec.words_submitted
    );
}

mod warm_start_grid {
    use super::*;

    fn cache_path() -> String {
        std::env::temp_dir()
            .join(format!(
                "prognosis-dataflow-learner-warm-{}.journal",
                std::process::id()
            ))
            .to_string_lossy()
            .into_owned()
    }

    fn engine_config() -> LearnConfig {
        LearnConfig {
            random_tests: 250,
            max_word_len: 7,
            eq_batch_size: 128,
            ..LearnConfig::default()
        }
    }

    /// Seeds the PR-2 cache file once (serial, sequential pipeline) and
    /// returns the cold model every warm grid point must reproduce.
    fn cold_seeded() -> &'static LearnedModel {
        static COLD: OnceLock<LearnedModel> = OnceLock::new();
        COLD.get_or_init(|| {
            let path = cache_path();
            let _ = std::fs::remove_file(&path);
            let mut sul = prognosis_core::tcp_adapter::TcpSul::with_defaults();
            learn_model(
                &mut sul,
                &tcp_alphabet(),
                engine_config()
                    .with_cache_path(path)
                    .with_sift(SiftStrategy::Serial),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        // Warm starts against a persisted cache are engine-shape-independent
        // for the dataflow learner too: zero fresh SUL symbols and a
        // bit-identical model at any grid point, with the speculative suite
        // answered entirely from the staged trie.
        #[test]
        fn warm_start_covers_speculation_from_cache(
            workers in 1usize..4,
            inflight_exp in 0u32..7,
        ) {
            let max_inflight = 1usize << inflight_exp;
            let cold = cold_seeded();
            let outcome = learn_model_parallel(
                &TcpSulFactory::default(),
                &tcp_alphabet(),
                engine_config()
                    .with_cache_path(cache_path())
                    .with_workers(workers)
                    .with_max_inflight(max_inflight)
                    .with_sift(SiftStrategy::Dataflow),
            )
            .expect("parallel learning succeeds");
            prop_assert_eq!(
                &outcome.learned.model,
                &cold.model,
                "warm dataflow model at (workers, max_inflight) = ({}, {}) \
                 must be bit-identical to the cold model",
                workers, max_inflight
            );
            prop_assert_eq!(
                outcome.learned.stats.fresh_symbols, 0,
                "a covering cache must answer everything from disk"
            );
            // Unlike the blocking strategies, warm dataflow runs may still
            // touch the SUL: speculative suite words beyond a rollback's
            // committed chunk were never executed cold, so they miss the
            // cache, run, and are then discarded (never entering the trie).
            // That waste is bounded by the discarded-word count.
            let spec = outcome.learned.speculation;
            prop_assert!(
                outcome.sul_stats.symbols_sent
                    <= spec.words_discarded * engine_config().max_word_len as u64,
                "fresh SUL work ({} symbols) must be discarded speculation only \
                 ({} words discarded)",
                outcome.sul_stats.symbols_sent,
                spec.words_discarded
            );
            prop_assert_eq!(
                outcome.learned.stats.equivalence_tests,
                cold.stats.equivalence_tests,
                "chunk-commit identity must hold against a warm cache"
            );
        }
    }
}

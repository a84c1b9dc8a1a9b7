//! Wavefront-vs-serial sift equivalence over the engine grid: for any
//! `(workers, max_inflight, impairment)` the breadth-wise sift wavefront
//! must build a **bit-identical** discrimination tree and model to serial
//! sifting, with `membership_queries` / `fresh_symbols` no greater than
//! serial (batch dedup may make them smaller — the direction is asserted),
//! including warm starts against a persisted observation journal.

use prognosis_automata::alphabet::Alphabet;
use prognosis_automata::mealy::MealyMachine;
use prognosis_core::net_transport::{LinkConfig, NetworkedSessionFactory};
use prognosis_core::parallel::ParallelSulOracle;
use prognosis_core::pipeline::{learn_model, learn_model_parallel, LearnConfig, LearnedModel};
use prognosis_core::session::{SessionSulFactory, SimDuration};
use prognosis_core::tcp_adapter::{tcp_alphabet, TcpSulFactory};
use prognosis_learner::dtree::SiftStrategy;
use prognosis_learner::stats::LearningStats;
use prognosis_learner::{CacheOracle, DTreeLearner, Learner, RandomWordOracle};
use proptest::prelude::*;
use std::sync::OnceLock;

/// One learner-level run on a fresh parallel engine: returns the model,
/// the learner stats, the discrimination tree's canonical signature and
/// the fresh-symbol cost.
fn learn_direct<F>(
    factory: &F,
    alphabet: &Alphabet,
    strategy: SiftStrategy,
    workers: usize,
    max_inflight: usize,
    random_tests: usize,
) -> (MealyMachine, LearningStats, Vec<String>, u64)
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
    (result.model, result.stats, learner.tree_signature(), fresh)
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
    let (serial_model, serial_stats, serial_tree, serial_fresh) = learn_direct(
        factory,
        alphabet,
        SiftStrategy::Serial,
        workers,
        max_inflight,
        random_tests,
    );
    let (wave_model, wave_stats, wave_tree, wave_fresh) = learn_direct(
        factory,
        alphabet,
        SiftStrategy::Wavefront,
        workers,
        max_inflight,
        random_tests,
    );
    prop_assert_eq!(
        &wave_model,
        &serial_model,
        "{}: models diverged (not merely inequivalent — state numbering counts)",
        label
    );
    prop_assert_eq!(
        &wave_tree,
        &serial_tree,
        "{}: discrimination trees diverged",
        label
    );
    prop_assert!(
        wave_stats.membership_queries <= serial_stats.membership_queries,
        "{}: wavefront asked more queries ({} > {})",
        label,
        wave_stats.membership_queries,
        serial_stats.membership_queries
    );
    prop_assert!(
        wave_fresh <= serial_fresh,
        "{}: wavefront executed more fresh symbols ({} > {})",
        label,
        wave_fresh,
        serial_fresh
    );
    prop_assert_eq!(wave_stats.counterexamples, serial_stats.counterexamples);
    prop_assert_eq!(wave_stats.learning_rounds, serial_stats.learning_rounds);
    prop_assert_eq!(wave_stats.equivalence_tests, serial_stats.equivalence_tests);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // The wavefront is the same algorithm as serial sifting at every
    // point of the (workers, max_inflight, impairment) grid — including
    // over a 10%-loss impaired network, where answers depend on the
    // (rewound, pure) noise streams.
    #[test]
    fn wavefront_matches_serial_over_the_engine_grid(
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

mod warm_start_grid {
    use super::*;

    fn cache_path() -> String {
        std::env::temp_dir()
            .join(format!(
                "prognosis-sift-wavefront-warm-{}.journal",
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

    /// Seeds the PR-2 cache file once (wavefront, sequential pipeline) and
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
                engine_config().with_cache_path(path),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        // Warm starts against a persisted cache are strategy- and
        // engine-shape-independent: zero fresh SUL symbols and a
        // bit-identical model for either sift strategy at any grid point.
        #[test]
        fn warm_start_is_sift_strategy_independent(
            workers in 1usize..4,
            inflight_exp in 0u32..7,
            serial in any::<bool>(),
        ) {
            let max_inflight = 1usize << inflight_exp;
            let strategy = if serial {
                SiftStrategy::Serial
            } else {
                SiftStrategy::Wavefront
            };
            let cold = cold_seeded();
            let outcome = learn_model_parallel(
                &TcpSulFactory::default(),
                &tcp_alphabet(),
                engine_config()
                    .with_cache_path(cache_path())
                    .with_workers(workers)
                    .with_max_inflight(max_inflight)
                    .with_sift(strategy),
            )
            .expect("parallel learning succeeds");
            prop_assert_eq!(
                &outcome.learned.model,
                &cold.model,
                "warm {:?} model at (workers, max_inflight) = ({}, {}) \
                 must be bit-identical to the cold model",
                strategy, workers, max_inflight
            );
            prop_assert_eq!(
                outcome.learned.stats.fresh_symbols, 0,
                "a covering cache must answer everything from disk"
            );
            prop_assert_eq!(outcome.sul_stats.symbols_sent, 0);
            if strategy == SiftStrategy::Wavefront {
                // Same strategy as the cold seed run: identical counting.
                prop_assert_eq!(
                    outcome.learned.stats.membership_queries,
                    cold.stats.membership_queries
                );
            } else {
                // Serial counts duplicate probes the wavefront dedups.
                prop_assert!(
                    outcome.learned.stats.membership_queries
                        >= cold.stats.membership_queries
                );
            }
        }
    }
}

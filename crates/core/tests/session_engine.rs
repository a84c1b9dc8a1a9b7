//! Determinism of the event-driven session engine: for any
//! `(workers, max_inflight)` the multiplexed engine must learn a
//! bit-identical model with identical query-cost statistics
//! (`fresh_symbols`, `equivalence_tests`, `membership_queries`) — and a
//! warm start against a persisted observation cache must answer everything
//! from disk regardless of the engine shape.

use prognosis_core::latency::LatencySulFactory;
use prognosis_core::pipeline::{learn_model, learn_model_parallel, LearnConfig, LearnedModel};
use prognosis_core::session::SimDuration;
use prognosis_core::tcp_adapter::{tcp_alphabet, TcpSul, TcpSulFactory};
use proptest::prelude::*;
use std::sync::OnceLock;

fn engine_config() -> LearnConfig {
    LearnConfig {
        random_tests: 250,
        max_word_len: 7,
        eq_batch_size: 128,
        ..LearnConfig::default()
    }
}

/// The sequential reference run every engine shape must reproduce.
fn sequential_baseline() -> &'static LearnedModel {
    static BASELINE: OnceLock<LearnedModel> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let mut sul = TcpSul::with_defaults();
        learn_model(&mut sul, &tcp_alphabet(), engine_config())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // The learned model and every query-cost statistic are invariant
    // under the engine shape — workers, in-flight sessions, and whether
    // the round trips are latency-modelled.
    #[test]
    fn engine_shape_never_changes_the_model_or_the_query_costs(
        workers in 1usize..4,
        inflight_exp in 0u32..7,
        with_latency in any::<bool>(),
    ) {
        let max_inflight = 1usize << inflight_exp; // 1..=64
        let baseline = sequential_baseline();
        let config = engine_config()
            .with_workers(workers)
            .with_max_inflight(max_inflight);
        let outcome = if with_latency {
            let factory = LatencySulFactory::new(
                TcpSulFactory::default(),
                SimDuration::from_micros(50),
                SimDuration::from_micros(100),
            );
            let outcome = learn_model_parallel(&factory, &tcp_alphabet(), config)
                .expect("parallel learning succeeds");
            prop_assert!(
                outcome.engine.virtual_elapsed_micros > 0,
                "latency-modelled runs take virtual time"
            );
            outcome.learned
        } else {
            learn_model_parallel(&TcpSulFactory::default(), &tcp_alphabet(), config)
                .expect("parallel learning succeeds")
                .learned
        };
        prop_assert_eq!(
            &outcome.model,
            &baseline.model,
            "(workers, max_inflight, latency) = ({}, {}, {}) changed the model",
            workers, max_inflight, with_latency
        );
        prop_assert_eq!(outcome.stats.fresh_symbols, baseline.stats.fresh_symbols);
        prop_assert_eq!(outcome.stats.equivalence_tests, baseline.stats.equivalence_tests);
        prop_assert_eq!(outcome.stats.membership_queries, baseline.stats.membership_queries);
        prop_assert_eq!(outcome.stats.counterexamples, baseline.stats.counterexamples);
    }
}

mod warm_start_grid {
    use super::*;

    fn cache_path() -> String {
        std::env::temp_dir()
            .join(format!(
                "prognosis-session-engine-warm-{}.journal",
                std::process::id()
            ))
            .to_string_lossy()
            .into_owned()
    }

    /// Seeds the observation journal exactly once and returns the cold
    /// model every warm shape must reproduce.
    fn cold_seeded() -> &'static LearnedModel {
        static COLD: OnceLock<LearnedModel> = OnceLock::new();
        COLD.get_or_init(|| {
            let path = cache_path();
            let _ = std::fs::remove_file(&path);
            let mut sul = TcpSul::with_defaults();
            learn_model(
                &mut sul,
                &tcp_alphabet(),
                engine_config().with_cache_path(path),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        // A warm start against a persisted cache issues zero fresh SUL
        // symbols and learns a bit-identical model for every engine shape.
        #[test]
        fn warm_start_is_engine_shape_independent(
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
                    .with_max_inflight(max_inflight),
            )
            .expect("parallel learning succeeds");
            prop_assert_eq!(
                &outcome.learned.model,
                &cold.model,
                "warm model with (workers, max_inflight) = ({}, {}) \
                 must be bit-identical to the cold model",
                workers, max_inflight
            );
            prop_assert_eq!(
                outcome.learned.stats.fresh_symbols, 0,
                "a covering cache must answer everything from disk"
            );
            prop_assert_eq!(outcome.sul_stats.symbols_sent, 0);
            prop_assert_eq!(
                outcome.learned.stats.membership_queries,
                cold.stats.membership_queries
            );
        }
    }
}

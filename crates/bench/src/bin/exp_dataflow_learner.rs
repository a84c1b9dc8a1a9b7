//! E20: dataflow learner — overlapped sift continuations, interleaved
//! phases, and speculative equivalence streaming.
//!
//! Runs the latency-modelled TCP scenario at 1 worker × 64 in-flight
//! sessions with the dataflow, wavefront and serial sift strategies
//! (`--quick` trims the random-word budget for the CI smoke step; the pool
//! shape stays at 64).  While it grinds, a one-line status repaints per
//! strategy, driven by `bench:stage` events through the shared event sink
//! (TTY only).  The library asserts the headline claims — bit-identical
//! models, `membership_queries` ≤ serial, identical `fresh_symbols` and
//! equivalence-test counts, exact speculation-word accounting, pool-window
//! occupancy ≥ 0.9 through hypothesis construction, and an end-to-end
//! virtual-time win over the phase-barriered wavefront — so this binary
//! doubles as the CI smoke test.  Appends the stamped `dataflow_learner`
//! scenario (per-strategy runs, speculation waste, occupancy, speedups) to
//! `BENCH_learning.json` in the current directory; a `--quick` run prints
//! its row and leaves the file alone.
use prognosis_campaign::{Progress, ProgressSink};
use prognosis_events::EventSink;
use std::sync::Arc;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let progress = Arc::new(ProgressSink::stages(Progress::stdout()));
    let (report, scenario) = prognosis_bench::exp_dataflow_learner_with_events(
        quick,
        Some(Arc::clone(&progress) as Arc<dyn EventSink>),
    );
    progress.finish();
    println!("{report}");
    prognosis_bench::record_scenario("dataflow_learner", scenario, quick);
}

//! E22: the journaled observation store at campaign scale.
//!
//! Persists a synthetic trie of ≥100k completed queries through the
//! journal, times the save and warm-load halves, and asserts the load
//! replays a bit-identical trie from a journal of the exact expected size.
//! A churned second store demonstrates that compaction reclaims
//! superseded records without changing the replay, again at exact byte
//! and frame counts.  While it grinds, a one-line status repaints per
//! stage, driven by `bench:stage` events through the shared event sink
//! (TTY only).  Appends the `store_format` scenario to
//! `BENCH_learning.json` (in the current directory), stamped with host
//! parallelism and source revision.  Pass `--quick` for the reduced CI
//! smoke configuration (20k observations, its own exact sizes), which
//! prints its report and row but leaves `BENCH_learning.json` alone, so a
//! smoke run never replaces the full-size row.
use prognosis_campaign::{Progress, ProgressSink};
use prognosis_events::EventSink;
use std::sync::Arc;

fn main() {
    let quick = std::env::args().any(|arg| arg == "--quick");
    let progress = Arc::new(ProgressSink::stages(Progress::stdout()));
    let (report, scenario) = prognosis_bench::exp_store_format_with_events(
        quick,
        Some(Arc::clone(&progress) as Arc<dyn EventSink>),
    );
    progress.finish();
    println!("{report}");
    prognosis_bench::record_scenario("store_format", scenario, quick);
}

//! E21: DAG-scheduled differential-learning campaign over the shared
//! engine pool and versioned observation cache.
//!
//! Runs the 6-cell {TCP, QUIC} × {profile, version, impairment} matrix as
//! one campaign — cross-version priming google-v1 → google-v2, impaired
//! points learned through `netsim` links, diffs and property checks fanning
//! out as learns complete — then re-runs it on a differently shaped runner
//! (engine threads, task workers, schedule seed all changed) and asserts
//! the canonical reports are byte-identical.  Appends the stamped
//! `campaign` scenario to `BENCH_learning.json` (in the current
//! directory), creating the file when E15 has not run yet.  A live
//! one-line progress indicator paints on interactive terminals only.  Pass
//! `--quick` for the reduced equivalence-testing CI smoke configuration,
//! which prints its row and leaves `BENCH_learning.json` alone.
fn main() {
    let quick = std::env::args().any(|arg| arg == "--quick");
    let (report, scenario) = prognosis_bench::exp_campaign(quick);
    println!("{report}");
    prognosis_bench::record_scenario("campaign", scenario, quick);
}

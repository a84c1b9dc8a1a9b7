//! E19: sift-wavefront batching vs serial sifting.
//!
//! Runs the latency-modelled TCP scenario at 1 worker × 64 in-flight
//! sessions (16 with `--quick`, the CI smoke configuration) with both sift
//! strategies.  The library asserts the headline claims — bit-identical
//! models, `membership_queries` ≤ serial, hypothesis-construction
//! occupancy > 0.5 and ≥ 4× construction-phase virtual-time speedup — so
//! this binary doubles as the CI smoke test.  Appends the stamped
//! `sift_wavefront` scenario (per-phase occupancy and batch-size
//! histograms) to `BENCH_learning.json` in the current directory; a
//! `--quick` run prints its row and leaves the file alone.
fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (report, scenario) = prognosis_bench::exp_sift_wavefront(quick);
    println!("{report}");
    prognosis_bench::record_scenario("sift_wavefront", scenario, quick);
}

//! E18: loss/jitter sweep under multiplexing, through the impaired-network
//! session transport.
//!
//! Learns a small TCP model over a `netsim` link at each sweep point with
//! 1 worker × 16 in-flight sessions sharing one network, asserts every
//! point is engine-shape independent (a 2 × 8 run reproduces the model and
//! query costs bit for bit), reproduces the ~80/20 answer split of a
//! 10%-loss link via `check_multiplexed`, and appends the stamped
//! `noise_sweep` scenario to `BENCH_learning.json` (in the current
//! directory), creating the file when E15 has not run yet.  Pass `--quick`
//! for the two-point CI smoke configuration, which prints its row and
//! leaves `BENCH_learning.json` alone.
fn main() {
    let quick = std::env::args().any(|arg| arg == "--quick");
    let (report, scenario) = prognosis_bench::exp_noise_sweep(quick);
    println!("{report}");
    prognosis_bench::record_scenario("noise_sweep", scenario, quick);
}

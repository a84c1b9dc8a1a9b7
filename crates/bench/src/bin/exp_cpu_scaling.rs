//! E24: CPU-bound worker-count scaling of the interned, reply-batched
//! engine.
//!
//! Learns the raw (no modelled RTT) TCP and google-QUIC simulators
//! sequentially and at 1/2/4 workers, asserts bit-identical models and the
//! host-adaptive scaling gate (>= 2x at 4 workers on a >= 4-thread host,
//! no-collapse floor on smaller hosts), prints the comparison report, and
//! merges the stamped `cpu_scaling` scenario into `BENCH_learning.json`
//! (in the current directory), creating the file when E15 has not run
//! yet.  Pass `--quick` to shrink the equivalence-testing volume for CI
//! smoke runs; such a run prints its row and leaves the file alone.
fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (report, scenario) = prognosis_bench::exp_cpu_scaling(quick);
    println!("{report}");
    prognosis_bench::record_scenario("cpu_scaling", scenario, quick);
}

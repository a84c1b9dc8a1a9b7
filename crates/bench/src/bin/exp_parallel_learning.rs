//! E15: sequential vs batched-parallel learning throughput.
//!
//! Prints the comparison report and merges its three stamped scenarios
//! (`tcp`, `quic_google`, `tcp_warm_start`) into `BENCH_learning.json` in
//! the current directory, keeping every other experiment's row.  The
//! optional argument is the worker count (default 4).
fn main() {
    let workers = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(4);
    let (report, scenarios) = prognosis_bench::exp_parallel_learning(workers);
    println!("{report}");
    for (name, scenario) in scenarios {
        prognosis_bench::record_scenario(&name, scenario, false);
    }
}

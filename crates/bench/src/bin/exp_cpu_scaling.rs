//! E24: CPU-bound worker-count scaling of the engine
//! ([`prognosis_bench::exp_cpu_scaling`]).  Merges the stamped
//! `cpu_scaling` row into `BENCH_learning.json` in the current directory;
//! `--quick`, the CI smoke size, only prints it.
fn main() {
    let quick = std::env::args().any(|arg| arg == "--quick");
    prognosis_bench::bench_main("cpu_scaling", quick, |_| {
        prognosis_bench::exp_cpu_scaling(quick)
    });
}

//! E18: loss/jitter sweep under multiplexing
//! ([`prognosis_bench::exp_noise_sweep`]), with a one-line status per
//! sweep point on interactive terminals.  Merges the stamped `noise_sweep`
//! row into `BENCH_learning.json` in the current directory; `--quick`, the
//! three-point CI smoke size, only prints it.
fn main() {
    let quick = std::env::args().any(|arg| arg == "--quick");
    prognosis_bench::bench_main("noise_sweep", quick, |events| {
        prognosis_bench::exp_noise_sweep(quick, events)
    });
}

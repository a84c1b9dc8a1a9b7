//! E19: sift-wavefront batching vs serial sifting
//! ([`prognosis_bench::exp_sift_wavefront`]).  Merges the stamped
//! `sift_wavefront` row into `BENCH_learning.json` in the current
//! directory; `--quick`, the CI smoke size, only prints it.
fn main() {
    let quick = std::env::args().any(|arg| arg == "--quick");
    prognosis_bench::bench_main("sift_wavefront", quick, |_| {
        prognosis_bench::exp_sift_wavefront(quick)
    });
}

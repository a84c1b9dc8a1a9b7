//! E22: the journaled observation store at campaign scale
//! ([`prognosis_bench::exp_store_format`]), with a one-line status per
//! stage on interactive terminals.  Merges the stamped `store_format` row
//! into `BENCH_learning.json` in the current directory; `--quick` (20k
//! observations, its own exact sizes), the CI smoke size, only prints it.
fn main() {
    let quick = std::env::args().any(|arg| arg == "--quick");
    prognosis_bench::bench_main("store_format", quick, |events| {
        prognosis_bench::exp_store_format(quick, events)
    });
}

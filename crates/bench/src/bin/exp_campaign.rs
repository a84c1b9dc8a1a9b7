//! E21: DAG-scheduled differential-learning campaign over the shared
//! versioned observation cache
//! ([`prognosis_bench::exp_campaign`]); its live progress line paints on
//! interactive terminals only.  Merges the stamped `campaign` row into
//! `BENCH_learning.json` in the current directory; `--quick`, the reduced
//! equivalence-testing CI smoke size, only prints it.
fn main() {
    let quick = std::env::args().any(|arg| arg == "--quick");
    prognosis_bench::bench_main("campaign", quick, |_| prognosis_bench::exp_campaign(quick));
}

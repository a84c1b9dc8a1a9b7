//! E16: cold vs warm-start learning with the persistent observation cache.
//!
//! Doubles as the CI smoke test: the experiment asserts internally that the
//! warm run issues zero fresh SUL symbols and reproduces the cold model
//! bit-identically (for 1 and 4 workers), so a non-zero exit fails CI.
fn main() {
    let (report, _) = prognosis_bench::exp_warm_start();
    println!("{report}");
}

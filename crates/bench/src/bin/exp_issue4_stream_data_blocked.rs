//! E8 / Issue 4: STREAM_DATA_BLOCKED carries the constant 0 in Google QUIC.
//!
//! Exits nonzero unless google's observed Maximum Stream Data values are
//! exactly `[0]`, so CI catches a lost Issue-4 signal.
fn main() {
    let (report, observed) = prognosis_bench::exp_issue4();
    println!("{report}");
    let google = observed
        .iter()
        .find(|(name, _)| name == "google")
        .map(|(_, values)| values.as_slice());
    if google != Some(&[0][..]) {
        eprintln!("E8: google's observed Maximum Stream Data values are {google:?}, expected [0]");
        std::process::exit(1);
    }
}

//! E23: event-log sink overhead on the E17 session-engine scenario
//! ([`prognosis_bench::exp_event_log`]).  Leaves the instrumented run's
//! log at `event_log.jsonl` in the current directory for the
//! `prognosis-events` analyzer (CI runs `verify` and `timeline` on it) and
//! merges the stamped `event_log` row into `BENCH_learning.json` there;
//! `--quick`, the CI smoke size (one round, no overhead floor), only
//! prints the row.
fn main() {
    let quick = std::env::args().any(|arg| arg == "--quick");
    let log_path = std::path::Path::new("event_log.jsonl");
    prognosis_bench::bench_main("event_log", quick, |_| {
        prognosis_bench::exp_event_log(quick, log_path)
    });
    println!("event log written to {}", log_path.display());
}

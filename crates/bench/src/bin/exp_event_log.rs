//! E23: event-log sink overhead on the E17 session-engine scenario.
//!
//! Learns the latency-modelled TCP scenario (1 worker × 64 in-flight
//! wavefront sessions) with and without the rotating JSONL event sink
//! attached, asserts the learned model is bit-identical and — in the full
//! configuration — that the sink costs < 5% wall time, and leaves the
//! instrumented run's log at `event_log.jsonl` in the current directory
//! for the `prognosis-events` analyzer (CI runs `verify` and `timeline`
//! on it).  Appends the `event_log` scenario to `BENCH_learning.json` (in
//! the current directory), stamped with host parallelism and source
//! revision.  Pass `--quick` for the reduced CI smoke configuration (one
//! round, no overhead floor), which prints its report and row but leaves
//! `BENCH_learning.json` alone, so a smoke run never replaces the
//! full-size row.
fn main() {
    let quick = std::env::args().any(|arg| arg == "--quick");
    let log_path = std::path::Path::new("event_log.jsonl");
    let (report, scenario) = prognosis_bench::exp_event_log(quick, log_path);
    println!("{report}");
    prognosis_bench::record_scenario("event_log", scenario, quick);
    println!("event log written to {}", log_path.display());
}

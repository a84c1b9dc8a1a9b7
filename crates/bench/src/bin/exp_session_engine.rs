//! E17: in-flight-session scaling of the event-driven session engine.
//!
//! Runs the simulated-RTT TCP scenario across engine shapes (1 blocking
//! worker, 4 blocking workers, 1 worker × {16, 64} in-flight sessions),
//! prints the comparison report — including scheduler occupancy — and
//! merges the stamped `session_engine` scenario into
//! `BENCH_learning.json` (in the current directory), creating the file
//! when E15 has not run yet.  While it grinds, a one-line status repaints
//! per engine shape, driven by `bench:stage` events through the shared
//! event sink (TTY only).  The
//! library asserts the headline numbers (64 in-flight ≥ 40× one blocking
//! worker, and faster than 4 blocking workers), so this binary doubles as
//! the CI smoke test for the session engine.
use prognosis_campaign::{Progress, ProgressSink};
use prognosis_events::EventSink;
use std::sync::Arc;

fn main() {
    let progress = Arc::new(ProgressSink::stages(Progress::stdout()));
    let (report, scenario) = prognosis_bench::exp_session_engine_with_events(Some(Arc::clone(
        &progress,
    )
        as Arc<dyn EventSink>));
    progress.finish();
    println!("{report}");
    prognosis_bench::record_scenario("session_engine", scenario, false);
}

//! E17: in-flight-session scaling of the session engine
//! ([`prognosis_bench::exp_session_engine`]), with a one-line status per
//! engine shape on interactive terminals.  The library asserts the
//! headline numbers, so this binary doubles as the CI smoke test.  It
//! always merges the stamped `session_engine` row into
//! `BENCH_learning.json` in the current directory.
fn main() {
    prognosis_bench::bench_main("session_engine", false, prognosis_bench::exp_session_engine);
}

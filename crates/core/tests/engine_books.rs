//! The engine keeps one set of books: its per-phase busy and worker
//! micros are the sums of the per-dispatch deltas its diagnostic
//! `occupancy` events carry, so the log a run leaves reproduces the
//! engine's per-phase statistics exactly — in memory and through the
//! `prognosis-events` analyzer's fold of a log file.

use prognosis_core::latency::LatencySulFactory;
use prognosis_core::pipeline::{learn_model_parallel_with_events, LearnConfig};
use prognosis_core::session::{EngineStats, SimDuration, ALL_PHASES};
use prognosis_core::tcp_adapter::{tcp_alphabet, TcpSulFactory};
use prognosis_events::analyze::{phase_occupancy, scan_log};
use prognosis_events::json::{self, Value};
use prognosis_events::{EventLog, EventLogConfig, EventSink, MemorySink};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The engine shapes checked: one worker with many slots, and several
/// workers sharing each batch.
const SHAPES: [(usize, usize); 2] = [(1, 16), (2, 8)];

/// Learns the E19 latency-modelled TCP scenario at the given shape with
/// diagnostics into `sink`, returning the engine statistics.
fn learn_into(sink: Arc<dyn EventSink>, workers: usize, max_inflight: usize) -> EngineStats {
    let factory = LatencySulFactory::new(
        TcpSulFactory::default(),
        SimDuration::from_micros(50),
        SimDuration::from_micros(100),
    );
    let config = LearnConfig {
        seed: 7,
        random_tests: 600,
        min_word_len: 2,
        max_word_len: 10,
        eq_batch_size: 512,
        ..LearnConfig::default()
    }
    .with_workers(workers)
    .with_max_inflight(max_inflight);
    learn_model_parallel_with_events(&factory, &tcp_alphabet(), config, sink, true)
        .expect("parallel learning succeeds")
        .engine
}

#[test]
fn phase_stats_are_the_sums_of_the_occupancy_events() {
    for (workers, max_inflight) in SHAPES {
        let sink = Arc::new(MemorySink::new());
        let engine = learn_into(Arc::clone(&sink) as _, workers, max_inflight);
        // phase → [Σbusy, Σworker, events]
        let mut sums: BTreeMap<String, [u64; 3]> = BTreeMap::new();
        for line in sink.contents().lines() {
            let event = json::parse(line).expect("the sink writes JSON lines");
            if event.get("name").and_then(Value::as_str) != Some("occupancy") {
                continue;
            }
            let data = event.get("data").expect("occupancy carries data");
            let field = |key: &str| data.get(key).and_then(Value::as_u64).expect(key);
            let phase = data.get("phase").and_then(Value::as_str).expect("phase");
            let sum = sums.entry(phase.to_string()).or_default();
            sum[0] += field("busy");
            sum[1] += field("worker");
            sum[2] += 1;
        }
        for phase in ALL_PHASES {
            let stats = engine.phase(phase);
            let [busy, worker, events] = sums.get(phase.name()).copied().unwrap_or_default();
            let at = format!("{} at ({workers}, {max_inflight})", phase.name());
            assert_eq!(stats.busy_micros, busy, "{at}: busy");
            assert_eq!(
                stats.worker_micros * max_inflight as u64,
                worker,
                "{at}: worker"
            );
            assert_eq!(stats.batches, events, "{at}: one event per dispatch");
        }
        let construction = engine.phase(ALL_PHASES[0]);
        assert!(
            construction.busy_micros > 0 && construction.worker_micros > 0,
            "latency-modelled construction takes virtual time"
        );
    }
}

#[test]
fn the_analyzer_fold_reproduces_the_engine_phase_occupancy() {
    for (workers, max_inflight) in SHAPES {
        let path = std::env::temp_dir().join(format!(
            "prognosis-engine-books-{workers}x{max_inflight}-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let log = Arc::new(EventLog::open(EventLogConfig::new(&path)).expect("open log"));
        let engine = learn_into(Arc::clone(&log) as _, workers, max_inflight);
        log.flush();
        assert_eq!(log.io_errors(), 0);
        let books = phase_occupancy(&scan_log(&path).expect("the log scans as sound"));
        for phase in ALL_PHASES {
            let stats = engine.phase(phase);
            let folded = books.get(phase.name()).cloned().unwrap_or_default();
            let at = format!("{} at ({workers}, {max_inflight})", phase.name());
            assert_eq!(folded.busy, stats.busy_micros, "{at}: busy");
            let occupancy = stats.occupancy(max_inflight as u64);
            assert_eq!(folded.occupancy(), occupancy, "{at}: occupancy");
        }
        let _ = std::fs::remove_file(&path);
    }
}

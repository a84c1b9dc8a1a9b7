//! The experiment runner: one tiny scenario learned sequentially, at
//! 1 × 4 and at 2 × 2 writes three rows with exactly the fixed schema, and
//! the columns no engine shape may move agree across all three.

use prognosis_bench::{noise_sweep_scenario, ROW_KEYS};
use prognosis_core::latency::LatencySulFactory;
use prognosis_core::session::SimDuration;
use prognosis_core::tcp_adapter::TcpSulFactory;
use prognosis_events::json::Value;

/// The first `n` columns of a row, in schema order.
fn columns(row: &Value, n: usize) -> Vec<Option<&Value>> {
    ROW_KEYS[..n].iter().map(|key| row.get(key)).collect()
}

#[test]
fn every_shape_writes_the_fixed_schema_and_the_same_model() {
    let factory = LatencySulFactory::new(
        TcpSulFactory::default(),
        SimDuration::from_micros(50),
        SimDuration::from_micros(100),
    );
    let sequential = noise_sweep_scenario(factory).repeats(2);
    let inflight = sequential.clone().engine(1, 4);
    let workers = sequential.clone().engine(2, 2);
    let rows: Vec<Value> = [&sequential, &inflight, &workers]
        .iter()
        .map(|scenario| scenario.run().row())
        .collect();
    for row in &rows {
        let Value::Map(fields) = row else {
            panic!("a row is an object: {row:?}")
        };
        let keys: Vec<&str> = fields.iter().map(|(key, _)| key.as_str()).collect();
        assert_eq!(keys, ROW_KEYS);
        assert_eq!(row.get("repeats"), Some(&Value::U64(2)));
        assert!(matches!(row.get("cpu_s_p50"), Some(Value::F64(s)) if *s > 0.0));
        // The model and its query cost (digest .. SUL symbols) are
        // shape-independent.
        assert_eq!(columns(row, 5), columns(&rows[0], 5));
    }
    // A blocking run has a virtual clock (the latency model) but no engine.
    assert!(matches!(
        rows[0].get("virtual_seconds"),
        Some(Value::F64(_))
    ));
    assert_eq!(rows[0].get("clock_advances"), Some(&Value::Null));
    assert_eq!(rows[0].get("occupancy"), Some(&Value::Null));
    // One worker's virtual clock is deterministic too: a re-run repeats
    // all eight deterministic columns.
    assert!(matches!(rows[1].get("clock_advances"), Some(Value::U64(_))));
    assert_eq!(columns(&rows[1], 8), columns(&inflight.run().row(), 8));
}

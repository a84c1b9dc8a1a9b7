//! The `BENCH_learning.json` merger: the committed file renders back byte
//! for byte through the JSON writer, and [`merge_scenario`] replaces rows
//! in place, maintains the regression flags and refuses a corrupt
//! document instead of starting over.

use prognosis_bench::merge_scenario;
use prognosis_events::json::{self, Value};

fn committed() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_learning.json");
    std::fs::read_to_string(path).expect("read the committed BENCH_learning.json")
}

/// The rows of a merged document, in order.
fn scenarios(document: &str) -> Vec<(String, Value)> {
    let document = json::parse(document).expect("merged document parses");
    match document.get("scenarios") {
        Some(Value::Map(rows)) => rows.clone(),
        other => panic!("scenarios is not an object: {other:?}"),
    }
}

#[test]
fn the_committed_file_renders_back_byte_identical() {
    let text = committed();
    let document = json::parse(&text).expect("the committed file parses");
    assert_eq!(json::render_pretty(&document), text);
}

#[test]
fn a_corrupt_document_is_an_error() {
    let text = committed();
    let row = Value::Map(vec![("seconds".to_string(), Value::F64(1.0))]);
    for corrupt in [&text[..text.len() / 2], "", "[]"] {
        assert!(merge_scenario(Some(corrupt), "x", row.clone()).is_err());
    }
}

#[test]
fn a_remerged_row_replaces_the_old_one_in_place() {
    let text = committed();
    let before = scenarios(&text);
    assert!(before.len() > 2);
    let (name, old_row) = before[1].clone();
    // Re-merging a row unchanged leaves the file byte-identical.
    assert_eq!(merge_scenario(Some(&text), &name, old_row).unwrap(), text);
    let new_row = Value::Map(vec![("seconds".to_string(), Value::F64(2.5))]);
    let after = scenarios(&merge_scenario(Some(&text), &name, new_row.clone()).unwrap());
    assert_eq!(after.len(), before.len());
    for (i, ((old_name, old), (new_name, new))) in before.iter().zip(&after).enumerate() {
        assert_eq!(old_name, new_name);
        assert_eq!(new, if i == 1 { &new_row } else { old });
    }
}

#[test]
fn regression_flags_follow_the_speedups() {
    let slow = Value::Map(vec![("speedup".to_string(), Value::F64(0.5))]);
    let flagged = merge_scenario(None, "a", slow).unwrap();
    let rows = scenarios(&flagged);
    assert_eq!(rows[0].1.get("regression"), Some(&Value::Bool(true)));
    // The number recovers (an edited file); the next merge of any row
    // drops the stale flag.
    let recovered = flagged.replace("0.5", "1.25");
    let empty = Value::Map(Vec::new());
    let rows = scenarios(&merge_scenario(Some(&recovered), "b", empty).unwrap());
    assert_eq!(rows[0].1.get("speedup"), Some(&Value::F64(1.25)));
    assert_eq!(rows[0].1.get("regression"), None);
    assert_eq!(rows[1].0, "b");
}

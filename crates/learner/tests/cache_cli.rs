//! Drives the `prognosis-cache` binary over a journal the test writes:
//! `stats` reports the entry's node count and the record tail, `compact`
//! folds the tail into checkpoints, `verify` judges the result clean, and
//! a malformed command line fails with the usage line.

use prognosis_automata::alphabet::Alphabet;
use prognosis_automata::word::{InputWord, OutputWord};
use prognosis_learner::cache::StoreKey;
use prognosis_learner::journal::{JournalStore, RetainPolicy};
use prognosis_learner::trie::PrefixTrie;
use std::path::Path;
use std::process::{Command, Output};

fn cache(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_prognosis-cache"))
        .args(args)
        .output()
        .expect("prognosis-cache runs")
}

fn stdout(output: &Output) -> String {
    String::from_utf8(output.stdout.clone()).expect("UTF-8 output")
}

/// The value printed after `label` on its own line of `text`.
fn field<'a>(text: &'a str, label: &str) -> &'a str {
    text.lines()
        .find_map(|line| line.strip_prefix(label))
        .unwrap_or_else(|| panic!("no {label:?} line in:\n{text}"))
        .trim()
}

fn insert(trie: &mut PrefixTrie, input: &[&str], output: &[&str]) {
    let input: InputWord = input.iter().copied().collect();
    let output: OutputWord = output.iter().copied().collect();
    trie.insert(&input, &output);
    trie.mark_terminal(&input);
}

/// Writes a journal whose one entry is checkpointed and then grown by an
/// appended record, and returns the entry's final trie.
fn write_journal(path: &Path) -> PrefixTrie {
    let key = StoreKey::new("sul-cli", "v1", &Alphabet::from_symbols(["a", "b"]));
    let mut trie = PrefixTrie::new();
    for (input, output) in [
        (&["a", "b", "a"][..], &["x", "y", "x"][..]),
        (&["b", "b"][..], &["y", "z"][..]),
        (&["a", "a"][..], &["x", "x"][..]),
    ] {
        insert(&mut trie, input, output);
    }
    let store = JournalStore::open_or_empty(path);
    store.save_merged(&key, &trie, RetainPolicy::All).unwrap();
    insert(&mut trie, &["b", "a"], &["y", "x"]);
    store.save_merged(&key, &trie, RetainPolicy::All).unwrap();
    trie
}

#[test]
fn stats_compact_and_verify_report_the_journal() {
    let path = std::env::temp_dir().join(format!("prognosis-cache-cli-{}", std::process::id()));
    let trie = write_journal(&path);
    let path_arg = path.to_str().unwrap();

    let before = cache(&["stats", path_arg]);
    assert!(before.status.success());
    let before = stdout(&before);
    assert_eq!(field(&before, "format:"), "journal");
    assert_eq!(field(&before, "entries:"), "1");
    assert_eq!(field(&before, "tail records:"), "1");
    let nodes = format!("{} nodes", trie.num_nodes());
    assert!(before.contains(&nodes), "no {nodes:?} in:\n{before}");

    let compact = cache(&["compact", path_arg]);
    assert!(compact.status.success());
    assert_eq!(field(&stdout(&compact), "tail records:"), "1 -> 0");

    let after = stdout(&cache(&["stats", path_arg]));
    assert_eq!(field(&after, "tail records:"), "0");
    assert_eq!(field(&after, "tail bytes:"), "0");
    assert!(after.contains(&nodes), "no {nodes:?} in:\n{after}");

    let verify = cache(&["verify", path_arg]);
    assert_eq!(verify.status.code(), Some(0));
    let verify = stdout(&verify);
    assert_eq!(field(&verify, "verdict:"), "clean");
    assert_eq!(field(&verify, "torn bytes:"), "0");
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_bad_command_line_fails_with_the_usage_line() {
    for args in [
        &[][..],
        &["stats"],
        &["frobnicate", "store"],
        &["stats", "a", "b"],
    ] {
        let output = cache(args);
        assert!(!output.status.success(), "{args:?} succeeded");
        let stderr = String::from_utf8(output.stderr).unwrap();
        assert!(
            stderr.starts_with("usage: prognosis-cache <stats|verify|compact> <store-path>"),
            "{args:?} printed {stderr:?}"
        );
    }
}

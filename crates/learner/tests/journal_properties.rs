//! Property and stress tests for the journaled observation store: the
//! binary record codec round-trips arbitrary consistent path sets, a
//! journal truncated mid-record (a crash's torn tail) replays to exactly
//! the records before the tear, and many threads appending through
//! separate handles to one shared store lose no observations and produce
//! bit-identical warm tries.

use prognosis_automata::alphabet::Alphabet;
use prognosis_automata::word::{InputWord, OutputWord};
use prognosis_learner::cache::StoreKey;
use prognosis_learner::journal::{JournalStore, RetainPolicy, JOURNAL_MAGIC};
use prognosis_learner::trie::PrefixTrie;
use proptest::prelude::*;

fn tmp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "prognosis-journal-prop-{}-{name}",
        std::process::id()
    ))
}

const SYMBOLS: [&str; 4] = ["a", "b", "c", "δ"];

/// Deterministic output for a given input prefix, so any set of words is
/// mutually consistent (the SUL-determinism precondition every real trie
/// satisfies).
fn output_for(prefix: &[usize]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &i in prefix {
        hash ^= i as u64 + 1;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("out-{}", hash % 16)
}

/// Builds a trie from index-words, deriving prefix-consistent outputs.
fn trie_from_words(words: &[Vec<usize>]) -> PrefixTrie {
    let mut trie = PrefixTrie::new();
    for word in words {
        if word.is_empty() {
            continue;
        }
        let input: InputWord = word.iter().map(|&i| SYMBOLS[i % SYMBOLS.len()]).collect();
        let output: OutputWord = (1..=word.len()).map(|n| output_for(&word[..n])).collect();
        trie.insert(&input, &output);
        trie.mark_terminal(&input);
    }
    trie
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Codec round-trip: an arbitrary consistent path set, written as
    // segment bytes and replayed, reproduces the exact paths (inputs,
    // outputs, terminal markers — including multi-byte UTF-8 symbols).
    #[test]
    fn record_codec_round_trips_arbitrary_paths(
        words in prop::collection::vec(prop::collection::vec(0usize..4, 1..12), 1..40),
        case in 0u64..u64::MAX,
    ) {
        let path = tmp_path(&format!("codec-{case}"));
        std::fs::remove_file(&path).ok();
        let alphabet = Alphabet::from_symbols(SYMBOLS);
        let key = StoreKey::new("sul-prop", "v1", &alphabet);
        let trie = trie_from_words(&words);
        JournalStore::save_merged_at(&path, &key, &trie, RetainPolicy::All).unwrap();
        let reloaded = JournalStore::load_matching(&path, &key).unwrap();
        prop_assert_eq!(reloaded.paths(), trie.paths());
        prop_assert!(JournalStore::verify(&path).unwrap().is_clean());
        std::fs::remove_file(&path).ok();
    }

    // Crash recovery: truncating the journal at an arbitrary byte offset
    // replays to exactly the observations of some append prefix — the
    // torn final record is skipped, nothing before it is lost, and the
    // next write heals the file.
    #[test]
    fn truncated_tails_recover_to_a_clean_append_prefix(
        words in prop::collection::vec(prop::collection::vec(0usize..4, 1..8), 2..12),
        cut in 0u64..10_000,
    ) {
        let path = tmp_path(&format!("torn-{cut}"));
        std::fs::remove_file(&path).ok();
        let alphabet = Alphabet::from_symbols(SYMBOLS);
        let key = StoreKey::new("sul-prop", "v1", &alphabet);
        // Append word by word, recording the file length and the expected
        // replay after each append.
        let store = JournalStore::open_or_empty(&path);
        let mut cumulative: Vec<Vec<usize>> = Vec::new();
        let mut checkpoints: Vec<(u64, PrefixTrie)> = vec![(0, PrefixTrie::new())];
        for word in &words {
            cumulative.push(word.clone());
            let trie = trie_from_words(&cumulative);
            store.save_merged(&key, &trie, RetainPolicy::All).unwrap();
            checkpoints.push((std::fs::metadata(&path).unwrap().len(), trie));
        }
        let full_len = checkpoints.last().unwrap().0;
        let cut_len = cut * full_len / 10_000;
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..cut_len as usize]).unwrap();
        // The replayed store equals the latest checkpoint at or below the
        // cut: every fully present record survives, the torn one is
        // skipped.
        let expected = checkpoints
            .iter()
            .rev()
            .find(|(len, _)| *len <= cut_len)
            .map(|(_, trie)| trie)
            .unwrap();
        let replayed = JournalStore::load_matching(&path, &key)
            .unwrap_or_default();
        prop_assert_eq!(replayed.paths(), expected.paths());
        // A fresh write truncates the torn tail and leaves a clean store
        // holding the union.
        let full = trie_from_words(&words);
        JournalStore::save_merged_at(&path, &key, &full, RetainPolicy::All).unwrap();
        prop_assert!(JournalStore::verify(&path).unwrap().is_clean());
        let mut healed_expected = full.clone();
        healed_expected.merge_from(expected);
        let healed = JournalStore::load_matching(&path, &key).unwrap();
        prop_assert_eq!(healed.paths(), healed_expected.paths());
        std::fs::remove_file(&path).ok();
    }
}

/// 8 threads, each with its *own* handle on one shared store, appending
/// interleaved deltas — half of them under one shared key, half under
/// per-thread keys.  No observation may be lost, and the replayed warm
/// tries must be bit-identical to the expected merges.
#[test]
fn eight_thread_shared_store_loses_nothing() {
    let path = tmp_path("stress");
    std::fs::remove_file(&path).ok();
    let alphabet = Alphabet::from_symbols(SYMBOLS);
    let threads = 8;
    let rounds = 6;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let path = &path;
            let alphabet = &alphabet;
            scope.spawn(move || {
                // Even threads share one key (their words must merge);
                // odd threads get private keys (their entries must all
                // survive side by side).
                let key = if t % 2 == 0 {
                    StoreKey::new("sul-shared", "v-shared", alphabet)
                } else {
                    StoreKey::new("sul-shared", format!("v{t}"), alphabet)
                };
                let store = JournalStore::open_or_empty(path);
                let mut words: Vec<Vec<usize>> = Vec::new();
                for r in 0..rounds {
                    words.push(vec![t % 4, (t + r) % 4, r % 4]);
                    let trie = trie_from_words(&words);
                    store
                        .save_merged(&key, &trie, RetainPolicy::All)
                        .expect("concurrent append succeeds");
                }
            });
        }
    });

    // Expected: the shared key holds the union of all even threads'
    // words; each odd thread's key holds exactly its own.
    let store = JournalStore::open(&path).unwrap();
    let shared_key = StoreKey::new("sul-shared", "v-shared", &alphabet);
    let mut shared_words: Vec<Vec<usize>> = Vec::new();
    for t in (0..threads).step_by(2) {
        for r in 0..rounds {
            shared_words.push(vec![t % 4, (t + r) % 4, r % 4]);
        }
    }
    let shared = store
        .snapshot(&shared_key)
        .expect("the shared entry survived");
    assert_eq!(
        shared.paths(),
        trie_from_words(&shared_words).paths(),
        "every even thread's observations merged bit-identically"
    );
    for t in (1..threads).step_by(2) {
        let key = StoreKey::new("sul-shared", format!("v{t}"), &alphabet);
        let words: Vec<Vec<usize>> = (0..rounds)
            .map(|r| vec![t % 4, (t + r) % 4, r % 4])
            .collect();
        let entry = store
            .snapshot(&key)
            .unwrap_or_else(|| panic!("thread {t}'s entry was clobbered"));
        assert_eq!(
            entry.paths(),
            trie_from_words(&words).paths(),
            "thread {t}'s warm trie must be bit-identical to what it wrote"
        );
    }
    assert!(JournalStore::verify(&path).unwrap().is_clean());
    std::fs::remove_file(&path).ok();
}

/// Inserts index-words into `trie` with prefix-consistent outputs, marking
/// each as a full query — a learning run growing its cache.
fn grow(trie: &mut PrefixTrie, words: &[Vec<usize>]) {
    for word in words.iter().filter(|w| !w.is_empty()) {
        let input: InputWord = word.iter().map(|&i| SYMBOLS[i % SYMBOLS.len()]).collect();
        let output: OutputWord = (1..=word.len()).map(|n| output_for(&word[..n])).collect();
        trie.insert(&input, &output);
        trie.mark_terminal(&input);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // The replay decoder is total: a journal magic followed by arbitrary
    // bytes opens (to its sound prefix) and verifies without panicking.
    // Without the magic the file opens as an empty store and verify
    // rejects it.
    #[test]
    fn arbitrary_bytes_after_the_magic_never_panic(
        tail in prop::collection::vec(any::<u8>(), 0..512),
        magic in any::<bool>(),
        case in 0u64..u64::MAX,
    ) {
        let path = tmp_path(&format!("total-{case}"));
        let mut bytes = if magic { JOURNAL_MAGIC.to_vec() } else { Vec::new() };
        bytes.extend_from_slice(&tail);
        std::fs::write(&path, &bytes).unwrap();
        let store = JournalStore::open(&path).unwrap();
        if bytes.starts_with(JOURNAL_MAGIC) {
            let report = JournalStore::verify(&path).unwrap();
            prop_assert_eq!(
                report.sound_bytes + report.torn_bytes,
                bytes.len() as u64,
                "verify accounts for every byte"
            );
        } else {
            prop_assert!(store.snapshot_entries().is_empty());
            prop_assert!(JournalStore::verify(&path).is_err());
        }
        std::fs::remove_file(&path).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // A checked-out trie grown by a run commits exactly the bytes
    // `save_merged` appends to a copy of the same journal: same records,
    // same order, same segment header decision — whether the run added
    // paths, only terminal markers, or nothing, and whether another key's
    // segment was written last.
    #[test]
    fn commit_appends_the_bytes_save_merged_appends(
        base in prop::collection::vec(prop::collection::vec(0usize..4, 1..7), 0..10),
        extra in prop::collection::vec(prop::collection::vec(0usize..4, 1..7), 0..6),
        other_key_last in any::<bool>(),
        retain_all in any::<bool>(),
        case in 0u64..u64::MAX,
    ) {
        let path = tmp_path(&format!("commit-{case}"));
        let copy = tmp_path(&format!("commit-copy-{case}"));
        std::fs::remove_file(&path).ok();
        let alphabet = Alphabet::from_symbols(SYMBOLS);
        let key = StoreKey::new("sul-prop", "v1", &alphabet);
        let other = StoreKey::new("sul-prop", "v0", &alphabet);
        let retain = if retain_all { RetainPolicy::All } else { RetainPolicy::OnlyThisKey };
        JournalStore::save_merged_at(&path, &key, &trie_from_words(&base), retain).unwrap();
        if other_key_last {
            JournalStore::save_merged_at(&path, &other, &trie_from_words(&extra), RetainPolicy::All)
                .unwrap();
        }
        std::fs::copy(&path, &copy).unwrap();

        let (mut trie, checkout) = JournalStore::open(&path).unwrap().checkout(key.clone(), true);
        // Re-asking a base word prefix only adds a terminal marker.
        let prefixes: Vec<Vec<usize>> = base.iter().map(|w| w[..w.len().div_ceil(2)].to_vec()).collect();
        grow(&mut trie, &prefixes[..prefixes.len().min(2)]);
        grow(&mut trie, &extra);
        let live = trie.clone();
        checkout.commit(trie, retain).unwrap();
        JournalStore::save_merged_at(&copy, &key, &live, retain).unwrap();

        prop_assert!(std::fs::read(&path).unwrap() == std::fs::read(&copy).unwrap());
        prop_assert!(JournalStore::verify(&path).unwrap().is_clean());
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&copy).ok();
    }
}

/// Another handle appends between a checkout and its commit: the commit
/// notices the file moved, merges instead of appending its lineage delta,
/// and the file ends up holding both runs' observations, cleanly.
#[test]
fn commit_after_a_concurrent_append_merges_both_runs() {
    let path = tmp_path("checkout-race");
    std::fs::remove_file(&path).ok();
    let alphabet = Alphabet::from_symbols(SYMBOLS);
    let key = StoreKey::new("sul-race", "v1", &alphabet);
    let base = vec![vec![0, 1], vec![2]];
    JournalStore::save_merged_at(&path, &key, &trie_from_words(&base), RetainPolicy::All).unwrap();

    let (mut trie, checkout) = JournalStore::open(&path)
        .unwrap()
        .checkout(key.clone(), true);
    let theirs = vec![vec![3, 3, 1]];
    let mut their_trie = trie_from_words(&base);
    grow(&mut their_trie, &theirs);
    JournalStore::save_merged_at(&path, &key, &their_trie, RetainPolicy::All).unwrap();
    let ours = vec![vec![1, 0, 2], vec![0]];
    grow(&mut trie, &ours);
    checkout.commit(trie, RetainPolicy::All).unwrap();

    let all: Vec<Vec<usize>> = [base, theirs, ours].concat();
    let replayed = JournalStore::load_matching(&path, &key).unwrap();
    assert_eq!(replayed.paths(), trie_from_words(&all).paths());
    assert!(JournalStore::verify(&path).unwrap().is_clean());
    std::fs::remove_file(&path).ok();
}

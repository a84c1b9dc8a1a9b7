//! Property and stress tests for the journaled observation store: the
//! binary record codec round-trips arbitrary consistent path sets, a
//! journal truncated mid-record (a crash's torn tail) replays to exactly
//! the records before the tear, many threads appending through separate
//! handles to one shared store lose no observations and produce
//! bit-identical warm tries, a handle whose file another handle rewrote
//! re-reads it, and the checkpoint decoder is total: no payload panics
//! it or makes it allocate by a count the payload claims, each kind of
//! malformed checkpoint ends the replay at its frame, and a replay's live
//! heap stays linear in its payload.

use prognosis_automata::alphabet::Alphabet;
use prognosis_automata::word::{InputWord, OutputWord};
use prognosis_learner::cache::StoreKey;
use prognosis_learner::journal::{JournalStore, RetainPolicy, JOURNAL_MAGIC};
use prognosis_learner::trie::PrefixTrie;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

/// Tracks, per thread, the largest single allocation and the live heap
/// with its peak, then defers to the system allocator.
struct TrackPerThread;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    /// Bytes this thread allocated minus bytes it freed, and the most
    /// that difference reached, since the last reset.
    static LIVE: Cell<(isize, isize)> = const { Cell::new((0, 0)) };
}

/// Notes an allocation of `size` bytes that replaces `freed` bytes.
fn note_allocation(size: usize, freed: usize) {
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
    note_live(size as isize - freed as isize);
}

fn note_live(delta: isize) {
    let _ = LIVE.try_with(|live| {
        let (now, peak) = live.get();
        live.set((now + delta, peak.max(now + delta)));
    });
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// bookkeeping touches only const-initialised thread-local `Cell`s, which
// never allocate.
unsafe impl GlobalAlloc for TrackPerThread {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation(layout.size(), 0);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_live(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation(new_size, layout.size());
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: TrackPerThread = TrackPerThread;

/// The largest single allocation `f` makes on this thread.
fn largest_allocation<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LARGEST.with(|largest| largest.set(0));
    let result = f();
    (result, LARGEST.with(Cell::get))
}

/// The most heap `f` held live at once on this thread, past what was live
/// when it started.
fn peak_live_heap<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LIVE.with(|live| live.set((0, 0)));
    let result = f();
    (result, LIVE.with(Cell::get).1 as usize)
}

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
    // next write heals the file.  A save that rewrote the store replaced
    // the file, so only the saves since the last rewrite are prefixes of
    // it, and a cut inside the rewrite's checkpoint tears the whole entry.
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
        // replay after each append since the last rewrite.
        let store = JournalStore::open_or_empty(&path);
        let mut cumulative: Vec<Vec<usize>> = Vec::new();
        let mut saves: Vec<(u64, PrefixTrie)> = vec![(0, PrefixTrie::new())];
        for word in &words {
            cumulative.push(word.clone());
            let trie = trie_from_words(&cumulative);
            store.save_merged(&key, &trie, RetainPolicy::All).unwrap();
            if store.stats().tail_records == 0 {
                saves.truncate(1);
            }
            saves.push((std::fs::metadata(&path).unwrap().len(), trie));
        }
        let full_len = saves.last().unwrap().0;
        let cut_len = cut * full_len / 10_000;
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..cut_len as usize]).unwrap();
        // The replayed store equals the latest save at or below the cut:
        // every fully present record survives, the torn one is skipped.
        let expected = saves
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

/// Another handle rewrites the file to a *longer* one between two saves
/// through a handle: the stale handle must re-read the whole file rather
/// than tail-replay the rewrite from its old, now misaligned offset (and
/// then truncate the file back to it).
#[test]
fn a_save_after_another_handle_rewrote_the_file_keeps_both() {
    let path = tmp_path("stale-resync");
    std::fs::remove_file(&path).ok();
    let alphabet = Alphabet::from_symbols(SYMBOLS);
    let key = StoreKey::new("sul-stale", "v1", &alphabet);
    // "δ" sorts after every other symbol, so the rewrite does not open
    // with the record the stale handle synced past.
    let base = vec![vec![3, 3]];
    JournalStore::save_merged_at(&path, &key, &trie_from_words(&base), RetainPolicy::All).unwrap();
    let stale = JournalStore::open(&path).unwrap();
    let synced = std::fs::metadata(&path).unwrap().len();

    let theirs: Vec<Vec<usize>> = (0..256)
        .map(|i| vec![i % 4, i / 4 % 4, i / 16 % 4, i / 64 % 4])
        .collect();
    let other = JournalStore::open(&path).unwrap();
    other
        .save_merged(
            &key,
            &trie_from_words(&[base.clone(), theirs.clone()].concat()),
            RetainPolicy::All,
        )
        .unwrap();
    other.compact().unwrap();
    assert!(std::fs::metadata(&path).unwrap().len() > synced);

    let ours = vec![vec![1, 1, 1, 1, 1]];
    stale
        .save_merged(
            &key,
            &trie_from_words(&[base.clone(), ours.clone()].concat()),
            RetainPolicy::All,
        )
        .unwrap();
    let all = [base, theirs, ours].concat();
    let replayed = JournalStore::load_matching(&path, &key).unwrap();
    assert_eq!(replayed.paths(), trie_from_words(&all).paths());
    assert!(JournalStore::verify(&path).unwrap().is_clean());
    std::fs::remove_file(&path).ok();
}

/// Another handle replaces a checked-out entry with a contradicting one of
/// the same size, so the file keeps its length: the commit must still see
/// that the file changed, and replace the contradicting entry wholesale
/// instead of appending its delta to it.
#[test]
fn a_commit_after_a_same_length_rewrite_does_not_append_in_place() {
    let path = tmp_path("stale-commit");
    std::fs::remove_file(&path).ok();
    let alphabet = Alphabet::from_symbols(["a", "b"]);
    let key = StoreKey::new("sul-stale", "v1", &alphabet);
    let answer = |input: &str, output: &str| {
        let mut trie = PrefixTrie::new();
        trie.insert(
            &InputWord::from_symbols([input]),
            &OutputWord::from_symbols([output]),
        );
        trie.mark_terminal(&InputWord::from_symbols([input]));
        trie
    };
    JournalStore::save_merged_at(&path, &key, &answer("a", "1"), RetainPolicy::All).unwrap();
    let synced = std::fs::metadata(&path).unwrap().len();
    let (mut trie, checkout) = JournalStore::open(&path)
        .unwrap()
        .checkout(key.clone(), true);

    JournalStore::save_merged_at(&path, &key, &answer("a", "2"), RetainPolicy::All).unwrap();
    assert_eq!(std::fs::metadata(&path).unwrap().len(), synced);

    trie.insert(
        &InputWord::from_symbols(["b"]),
        &OutputWord::from_symbols(["3"]),
    );
    trie.mark_terminal(&InputWord::from_symbols(["b"]));
    let ours = trie.clone();
    checkout.commit(trie, RetainPolicy::All).unwrap();
    let replayed = JournalStore::load_matching(&path, &key).unwrap();
    assert_eq!(replayed.paths(), ours.paths());
    assert!(JournalStore::verify(&path).unwrap().is_clean());
    std::fs::remove_file(&path).ok();
}

fn push_varint(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    push_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Appends a frame: tag, varint payload length, payload, and the low 32
/// bits of FNV-1a-64 over the payload.
fn push_frame(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in payload {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    out.push(tag);
    push_varint(out, payload.len() as u64);
    out.extend_from_slice(payload);
    out.extend_from_slice(&(hash as u32).to_le_bytes());
}

/// A checkpoint node as the format spells it: input index, output index,
/// terminal flag and child count (the root's indices are not written).
type NodeSpec = (u64, u64, bool, u64);

/// A checkpoint payload spelled out from the documented layout: both
/// symbol lists (each preceded by `*_count`), the node count, then the
/// nodes.
fn checkpoint_payload(
    (input_count, inputs): (u64, &[String]),
    (output_count, outputs): (u64, &[String]),
    node_count: u64,
    nodes: &[NodeSpec],
) -> Vec<u8> {
    let mut payload = Vec::new();
    for (count, symbols) in [(input_count, inputs), (output_count, outputs)] {
        push_varint(&mut payload, count);
        for symbol in symbols {
            push_str(&mut payload, symbol);
        }
    }
    push_varint(&mut payload, node_count);
    for (index, &(input, output, terminal, children)) in nodes.iter().enumerate() {
        if index > 0 {
            push_varint(&mut payload, input);
            push_varint(&mut payload, output);
        }
        push_varint(&mut payload, children << 1 | u64::from(terminal));
    }
    payload
}

/// A journal holding `key`'s segment header, a checkpoint frame with
/// `payload`, and one record frame after it; also returns the offset the
/// checkpoint frame starts at.
fn journal_with_checkpoint(key: &StoreKey, payload: &[u8]) -> (Vec<u8>, u64) {
    let mut header = Vec::new();
    push_str(&mut header, key.sul_id());
    push_str(&mut header, key.impl_version());
    header.extend_from_slice(&key.alphabet_hash().to_le_bytes());
    push_varint(&mut header, key.alphabet().len() as u64);
    for symbol in key.alphabet() {
        push_str(&mut header, symbol);
    }
    let mut file = JOURNAL_MAGIC.to_vec();
    push_frame(&mut file, 0x04, &1u64.to_le_bytes());
    push_frame(&mut file, 0x01, &header);
    let start = file.len() as u64;
    push_frame(&mut file, 0x03, payload);
    let mut record = vec![1];
    push_varint(&mut record, 1);
    push_str(&mut record, SYMBOLS[0]);
    push_str(&mut record, &output_for(&[0]));
    push_frame(&mut file, 0x02, &record);
    (file, start)
}

/// One trie node as the test spells tries: its output, terminal flag and
/// children by input symbol (a `BTreeMap`, so in string order).
#[derive(Default)]
struct Node {
    output: String,
    terminal: bool,
    children: BTreeMap<String, Node>,
}

/// The checkpoint of `trie_from_words(words)`, built independently of the
/// store: its sorted symbol lists, and its nodes in preorder.
fn checkpoint_of(words: &[Vec<usize>]) -> (Vec<String>, Vec<String>, Vec<NodeSpec>) {
    let mut root = Node::default();
    for word in words.iter().filter(|w| !w.is_empty()) {
        let mut node = &mut root;
        for n in 1..=word.len() {
            let symbol = SYMBOLS[word[n - 1] % SYMBOLS.len()].to_string();
            node = node.children.entry(symbol).or_default();
            node.output = output_for(&word[..n]);
        }
        node.terminal = true;
    }
    fn symbols(node: &Node, inputs: &mut Vec<String>, outputs: &mut Vec<String>) {
        for (input, child) in &node.children {
            inputs.push(input.clone());
            outputs.push(child.output.clone());
            symbols(child, inputs, outputs);
        }
    }
    let (mut inputs, mut outputs) = (Vec::new(), Vec::new());
    symbols(&root, &mut inputs, &mut outputs);
    for list in [&mut inputs, &mut outputs] {
        list.sort();
        list.dedup();
    }
    fn preorder(
        node: &Node,
        edge: (u64, u64),
        lists: (&[String], &[String]),
        out: &mut Vec<NodeSpec>,
    ) {
        out.push((edge.0, edge.1, node.terminal, node.children.len() as u64));
        for (input, child) in &node.children {
            let index = |list: &[String], s: &str| list.iter().position(|x| x == s).unwrap() as u64;
            let edge = (index(lists.0, input), index(lists.1, &child.output));
            preorder(child, edge, lists, out);
        }
    }
    let mut nodes = Vec::new();
    preorder(&root, (0, 0), (&inputs, &outputs), &mut nodes);
    (inputs, outputs, nodes)
}

/// A count a payload may claim: small, or far past anything the payload
/// could hold, so allocating by it would dwarf the replay's read window.
fn claimed_count() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..8, (1u64 << 21)..u64::MAX]
}

/// The replay's read window, the largest buffer a replay of a small file
/// needs.
const REPLAY_WINDOW: usize = 1 << 20;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // Any checkpoint payload under a valid checksum — raw bytes, or the
    // documented layout with arbitrary lists, indices and counts, claimed
    // counts included — replays without panicking and without allocating
    // past the read window: it either loads, or ends the replay at its
    // own frame, which `verify` accounts as the torn tail.
    #[test]
    fn arbitrary_checkpoint_payloads_never_panic_or_allocate_by_a_claimed_count(
        raw in (any::<bool>(), prop::collection::vec(any::<u8>(), 0..256)),
        inputs in prop::collection::vec(0usize..5, 0..5),
        outputs in prop::collection::vec(0usize..5, 0..5),
        claimed in ((any::<bool>(), claimed_count()), (any::<bool>(), claimed_count())),
        node_count in (any::<bool>(), claimed_count()),
        nodes in prop::collection::vec((0u64..6, 0u64..6, any::<bool>(), claimed_count()), 0..12),
        case in 0u64..u64::MAX,
    ) {
        // Each `(bool, count)` pair claims its count when the flag is set
        // and the true one otherwise.
        let claim = |(lie, count): (bool, u64), truth: usize| if lie { count } else { truth as u64 };
        let path = tmp_path(&format!("checkpoint-total-{case}"));
        let alphabet = Alphabet::from_symbols(SYMBOLS);
        let key = StoreKey::new("sul-prop", "v1", &alphabet);
        let spell = |picks: &[usize]| -> Vec<String> {
            picks.iter().map(|&i| format!("s{i}")).collect()
        };
        let (inputs, outputs) = (spell(&inputs), spell(&outputs));
        let payload = match raw {
            (true, raw) => raw,
            (false, _) => checkpoint_payload(
                (claim(claimed.0, inputs.len()), &inputs),
                (claim(claimed.1, outputs.len()), &outputs),
                claim(node_count, nodes.len()),
                &nodes,
            ),
        };
        let (bytes, start) = journal_with_checkpoint(&key, &payload);
        std::fs::write(&path, &bytes).unwrap();
        let (loaded, largest) = largest_allocation(|| JournalStore::load_matching(&path, &key));
        prop_assert!(largest <= REPLAY_WINDOW, "a replay allocated {} bytes", largest);
        let report = JournalStore::verify(&path).unwrap();
        prop_assert_eq!(report.sound_bytes + report.torn_bytes, bytes.len() as u64);
        if loaded.is_some() {
            prop_assert_eq!(report.sound_bytes, bytes.len() as u64);
        } else {
            prop_assert_eq!(report.sound_bytes, start);
        }
        std::fs::remove_file(&path).ok();
    }

    // A well-formed checkpoint written from the documented layout loads
    // the trie it spells, and each kind of defect in it — an index out of
    // its symbol list, two siblings on one input, a symbol listed twice,
    // a child count past the payload, a child count that leaves nodes
    // over, a node count off by one either way, symbols out of string
    // order, siblings out of order — ends the replay at that frame, losing
    // the entry as a torn tail would.
    #[test]
    fn each_checkpoint_defect_ends_the_replay_at_its_frame(
        words in prop::collection::vec(prop::collection::vec(0usize..4, 1..6), 0..10),
        defect in 0usize..11,
        case in 0u64..u64::MAX,
    ) {
        let path = tmp_path(&format!("checkpoint-defect-{case}"));
        let alphabet = Alphabet::from_symbols(SYMBOLS);
        let key = StoreKey::new("sul-prop", "v1", &alphabet);
        // Two single-symbol words give the root two children.
        let words = [vec![vec![0], vec![1]], words].concat();
        let (mut inputs, outputs, mut nodes) = checkpoint_of(&words);
        let mut count = nodes.len() as u64;
        let last = nodes.len() - 1;
        // The root's second child follows the first child's subtree.
        let (mut second, mut pending) = (1, 1);
        while pending > 0 {
            pending = pending + nodes[second].3 - 1;
            second += 1;
        }
        match defect {
            0 => {}
            1 => nodes[last].0 = inputs.len() as u64,
            2 => nodes[last].1 = outputs.len() as u64,
            3 => nodes[second].0 = nodes[1].0,
            4 => inputs.push(inputs[0].clone()),
            5 => nodes[0].3 += 1,
            6 => nodes[0].3 -= 1,
            7 => count += 1,
            8 => count -= 1,
            // The root's children are on `a` and `b`, so both lists hold
            // at least two symbols.
            9 => inputs.swap(0, 1),
            _ => (nodes[1].0, nodes[second].0) = (nodes[second].0, nodes[1].0),
        }
        let payload = checkpoint_payload(
            (inputs.len() as u64, &inputs),
            (outputs.len() as u64, &outputs),
            count,
            &nodes,
        );
        let (bytes, start) = journal_with_checkpoint(&key, &payload);
        std::fs::write(&path, &bytes).unwrap();
        let loaded = JournalStore::load_matching(&path, &key);
        let report = JournalStore::verify(&path).unwrap();
        if defect == 0 {
            prop_assert_eq!(loaded.unwrap().paths(), trie_from_words(&words).paths());
            prop_assert!(report.is_clean());
        } else {
            prop_assert!(loaded.is_none());
            prop_assert_eq!(report.sound_bytes, start);
        }
        std::fs::remove_file(&path).ok();
    }
}

/// The checkpoint of a chain of `n` nodes below the root, each on its own
/// input symbol: the shape that makes a per-node child table indexed by
/// input id cost `O(n²)` bytes.
fn chain_checkpoint(n: u64) -> Vec<u8> {
    let inputs: Vec<String> = (0..n).map(|i| format!("s{i:06}")).collect();
    let outputs = [output_for(&[0])];
    let nodes: Vec<NodeSpec> = (0..=n)
        .map(|i| (i.saturating_sub(1), 0, i == n, u64::from(i < n)))
        .collect();
    checkpoint_payload((n, &inputs), (1, &outputs), nodes.len() as u64, &nodes)
}

// A replay holds at most its read window plus a small multiple of the
// checkpoint payload live at once, whatever the trie's shape: a chain over
// as many inputs as nodes replays in memory linear in its payload.  The
// multiple is about what a symbol costs: a spelling of a few payload bytes
// takes some 200 heap bytes across the replay's spelling table, the
// symbol list and the trie's interner.
#[test]
fn a_checkpoint_replay_holds_heap_linear_in_its_payload() {
    let alphabet = Alphabet::from_symbols(SYMBOLS);
    let key = StoreKey::new("sul-prop", "v1", &alphabet);
    for n in [1_000, 4_000] {
        let path = tmp_path(&format!("checkpoint-chain-{n}"));
        let payload = chain_checkpoint(n);
        let (bytes, _) = journal_with_checkpoint(&key, &payload);
        std::fs::write(&path, &bytes).unwrap();
        let (loaded, peak) = peak_live_heap(|| JournalStore::load_matching(&path, &key));
        // The chain, and the record after it: one more leaf on `a`.
        let loaded = loaded.expect("the chain checkpoint loads");
        assert_eq!(loaded.num_nodes() as u64, n + 2);
        assert_eq!(loaded.terminal_words(), 2);
        eprintln!(
            "{n}-node chain: {} payload bytes, {peak} live bytes",
            payload.len()
        );
        let bound = REPLAY_WINDOW + 32 * payload.len();
        assert!(
            peak <= bound,
            "a {n}-node chain ({} payload bytes) held {peak} live bytes, bound {bound}",
            payload.len()
        );
        std::fs::remove_file(&path).ok();
    }
}

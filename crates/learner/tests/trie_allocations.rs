//! Allocation guards for the observation trie: a warm checkout allocates
//! by the journal's symbols, not by its trie's nodes, growing a warmed
//! trie allocates only when its node arena doubles, and a cache hit
//! allocates only its answer.  A counting global allocator tallies each
//! thread's allocations, so the parallel test harness does not disturb the
//! counts.

use prognosis_automata::alphabet::Alphabet;
use prognosis_automata::interner::SymbolId;
use prognosis_automata::word::{InputWord, OutputWord};
use prognosis_learner::cache::StoreKey;
use prognosis_learner::journal::{JournalStore, RetainPolicy};
use prognosis_learner::oracle::{CacheOracle, MembershipOracle};
use prognosis_learner::trie::{PathCoverage, PrefixTrie};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the allocations (and reallocations) each thread makes, then
/// defers to the system allocator.
struct CountPerThread;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn note_allocation() {
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// bookkeeping touches only a const-initialised thread-local `Cell`, which
// never allocates.
unsafe impl GlobalAlloc for CountPerThread {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountPerThread = CountPerThread;

/// The allocations `f` makes on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (result, ALLOCATIONS.with(Cell::get) - before)
}

const INPUTS: [&str; 4] = ["ack", "fin", "rst", "syn"];

/// A deterministic SUL: the output after a prefix depends on its last two
/// inputs, so every trie the tests build is consistent and uses the same
/// 16 output symbols once it holds a few dozen words.
fn output_word(input: &[usize]) -> OutputWord {
    (0..input.len())
        .map(|n| {
            let previous = if n == 0 { 0 } else { input[n - 1] };
            format!("o{}{}", previous, input[n])
        })
        .collect()
}

/// The `index`-th word of a fixed pseudo-random sequence: `len` inputs.
fn word(index: u64, len: usize) -> Vec<usize> {
    let mut state = index.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % INPUTS.len() as u64) as usize
        })
        .collect()
}

fn input_word(word: &[usize]) -> InputWord {
    word.iter().map(|&i| INPUTS[i]).collect()
}

/// A trie of at least `nodes` nodes, every word asked as a full query.
fn trie_with(nodes: usize) -> PrefixTrie {
    let mut trie = PrefixTrie::new();
    let mut index = 0;
    while trie.num_nodes() < nodes {
        let w = word(index, 10);
        trie.insert(&input_word(&w), &output_word(&w));
        trie.mark_terminal(&input_word(&w));
        index += 1;
    }
    trie
}

fn tmp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "prognosis-trie-allocs-{}-{name}",
        std::process::id()
    ))
}

/// The allocations of opening a compacted journal holding `trie` and
/// checking its entry out warm.
fn warm_checkout_allocations(trie: &PrefixTrie, name: &str) -> usize {
    let path = tmp_path(name);
    let key = StoreKey::new("sul-allocs", "v1", &Alphabet::from_symbols(INPUTS));
    let store = JournalStore::open_or_empty(&path);
    store.save_merged(&key, trie, RetainPolicy::All).unwrap();
    store.compact().unwrap();
    drop(store);
    let ((warm, checkout), count) = allocations(|| {
        JournalStore::open(&path)
            .unwrap()
            .checkout(key.clone(), true)
    });
    assert_eq!(warm.num_nodes(), trie.num_nodes());
    drop((warm, checkout));
    std::fs::remove_file(&path).ok();
    count
}

#[test]
fn a_warm_checkout_allocates_by_symbols_not_by_nodes() {
    let small = trie_with(5_000);
    let large = trie_with(20_000);
    assert!(4 * small.num_nodes() <= large.num_nodes());
    let small_count = warm_checkout_allocations(&small, "small");
    let large_count = warm_checkout_allocations(&large, "large");
    eprintln!(
        "warm checkout: {small_count} allocations at {} nodes, {large_count} at {} nodes",
        small.num_nodes(),
        large.num_nodes()
    );
    assert!(
        large_count.abs_diff(small_count) <= 8,
        "{small_count} allocations at {} nodes, {large_count} at {} nodes",
        small.num_nodes(),
        large.num_nodes()
    );
}

#[test]
fn growing_a_warmed_trie_allocates_only_as_its_arena_doubles() {
    let mut trie = trie_with(5_000);
    // Encode the fresh words up front: what is measured is the trie's own
    // work per fresh symbol, on the miss path — one walk that inserts each
    // answer and marks it asked, resumed along the previous walk.
    let fresh: Vec<(Vec<SymbolId>, Vec<SymbolId>)> = (1_000_000..1_002_000)
        .map(|index| {
            let w = word(index, 16);
            let input = input_word(&w)
                .iter()
                .map(|s| trie.intern_input(s))
                .collect();
            let output = output_word(&w)
                .iter()
                .map(|s| trie.intern_output(s))
                .collect();
            (input, output)
        })
        .collect();
    let mut path = Vec::with_capacity(16);
    let (created, count) = allocations(|| {
        let mut created = 0;
        for (input, output) in &fresh {
            created += match trie.apply_path_ids_along(input, output, true, &mut path) {
                Ok((PathCoverage::Contradicts, _)) | Err(_) => panic!("a consistent answer"),
                Ok((_, nodes)) => nodes,
            };
        }
        created
    });
    let per_symbol = count as f64 / created as f64;
    eprintln!("{created} fresh symbols: {count} allocations, {per_symbol:.4} per symbol");
    assert!(created > 10_000, "only {created} fresh symbols");
    assert!(
        per_symbol < 0.01,
        "{count} allocations for {created} fresh symbols"
    );
}

/// The SUL of [`output_word`] as a membership oracle.
struct Answers;

impl MembershipOracle for Answers {
    fn query(&mut self, input: &InputWord) -> OutputWord {
        let word: Vec<usize> = input
            .iter()
            .map(|symbol| INPUTS.iter().position(|i| *i == symbol.as_str()).unwrap())
            .collect();
        output_word(&word)
    }
}

#[test]
fn a_cache_hit_allocates_only_its_answer() {
    let words: Vec<InputWord> = (0..2_000)
        .map(|index| input_word(&word(index, 1 + index as usize % 12)))
        .collect();
    let mut cache = CacheOracle::new(Answers);
    let cold = cache.query_batch(&words);
    let misses = cache.misses();
    let (batch, batch_count) = allocations(|| cache.query_batch(&words));
    let (single, single_count) =
        allocations(|| words.iter().map(|w| cache.query(w)).collect::<Vec<_>>());
    assert_eq!(batch, cold);
    assert_eq!(single, cold);
    assert_eq!(cache.misses(), misses, "every second-round query hits");
    let hits = words.len();
    eprintln!(
        "{hits} hits: {batch_count} allocations in one batch, {single_count} one query at a time"
    );
    // One answer per hit, plus the batch's own vectors (and the one
    // vector `collect` builds above).
    for count in [batch_count, single_count] {
        assert!(count <= hits + 8, "{count} allocations for {hits} hits");
    }
}

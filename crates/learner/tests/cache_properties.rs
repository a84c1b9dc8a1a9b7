//! Property-based tests for the prefix-trie membership cache: a cached word
//! answers all of its prefixes without new SUL queries, batched answers are
//! identical to sequential ones, and the trie agrees with a naive
//! `HashMap`-based reference cache (the seed implementation) on arbitrary
//! query sequences while never asking the SUL more.  A trie persisted
//! through the journal and read back answers exactly as before, so a
//! warm-started oracle needs no SUL traffic.

use prognosis_automata::known::random_machine;
use prognosis_automata::mealy::MealyMachine;
use prognosis_automata::word::{InputWord, OutputWord};
use prognosis_learner::cache::StoreKey;
use prognosis_learner::journal::{JournalStore, RetainPolicy};
use prognosis_learner::oracle::{CacheOracle, MachineOracle, MembershipOracle};
use prognosis_learner::trie::PrefixTrie;
use proptest::prelude::*;
use std::collections::HashMap;

/// The seed's flat-map cache, kept as the reference semantics: memoizes
/// full queries and serves prefixes of longer cached entries by linear
/// scan.
struct NaiveCacheOracle {
    inner: MachineOracle,
    cache: HashMap<InputWord, OutputWord>,
}

impl NaiveCacheOracle {
    fn new(inner: MachineOracle) -> Self {
        NaiveCacheOracle {
            inner,
            cache: HashMap::new(),
        }
    }
}

impl MembershipOracle for NaiveCacheOracle {
    fn query(&mut self, input: &InputWord) -> OutputWord {
        if let Some(out) = self.cache.get(input) {
            return out.clone();
        }
        let prefix_answer = self
            .cache
            .iter()
            .find(|(k, _)| {
                k.len() > input.len() && k.as_slice()[..input.len()] == *input.as_slice()
            })
            .map(|(_, v)| v.prefix(input.len()));
        if let Some(out) = prefix_answer {
            self.cache.insert(input.clone(), out.clone());
            return out;
        }
        let out = self.inner.query(input);
        self.cache.insert(input.clone(), out.clone());
        out
    }

    fn queries_answered(&self) -> u64 {
        self.inner.queries_answered()
    }
}

fn machine_params() -> impl Strategy<Value = (usize, usize, usize, u64)> {
    (1usize..10, 1usize..5, 1usize..4, any::<u64>())
}

fn query_sequences() -> impl Strategy<Value = Vec<Vec<usize>>> {
    prop::collection::vec(prop::collection::vec(0usize..7, 0..10), 1..30)
}

/// Persists `trie` to a fresh journal with `save_merged_at` and reads it
/// back with `load_matching` under the same key.
fn journal_round_trip(machine: &MealyMachine, trie: &PrefixTrie) -> PrefixTrie {
    static CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let case = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!(
        "prognosis-cache-prop-{}-{case}.journal",
        std::process::id()
    ));
    std::fs::remove_file(&path).ok();
    let key = StoreKey::new("cache-prop", "", machine.input_alphabet());
    JournalStore::save_merged_at(&path, &key, trie, RetainPolicy::OnlyThisKey).unwrap();
    let back = JournalStore::load_matching(&path, &key).unwrap_or_default();
    std::fs::remove_file(&path).ok();
    back
}

fn to_words(machine: &MealyMachine, raw: &[Vec<usize>]) -> Vec<InputWord> {
    let alphabet = machine.input_alphabet();
    raw.iter()
        .map(|indices| {
            indices
                .iter()
                .map(|i| alphabet.get(i % alphabet.len()).unwrap().clone())
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cached_words_answer_all_prefixes_without_new_sul_queries(
        (states, inputs, outputs, seed) in machine_params(),
        word_indices in prop::collection::vec(0usize..7, 1..12),
    ) {
        let machine = random_machine(states, inputs, outputs, seed);
        let word = to_words(&machine, &[word_indices]).pop().unwrap();
        let mut cache = CacheOracle::new(MachineOracle::new(machine.clone()));
        let full = cache.query(&word);
        let after_full = cache.queries_answered();
        prop_assert_eq!(after_full, 1);
        for n in 0..=word.len() {
            let prefix = word.prefix(n);
            let out = cache.query(&prefix);
            prop_assert_eq!(&out, &full.prefix(n), "prefix of length {} answered wrongly", n);
            prop_assert_eq!(
                cache.queries_answered(),
                after_full,
                "prefix query of length {} reached the SUL", n
            );
        }
    }

    #[test]
    fn trie_and_naive_cache_agree_on_random_query_sequences(
        (states, inputs, outputs, seed) in machine_params(),
        raw_queries in query_sequences(),
    ) {
        let machine = random_machine(states, inputs, outputs, seed);
        let words = to_words(&machine, &raw_queries);
        let mut trie = CacheOracle::new(MachineOracle::new(machine.clone()));
        let mut naive = NaiveCacheOracle::new(MachineOracle::new(machine));
        for word in &words {
            prop_assert_eq!(trie.query(word), naive.query(word));
        }
        prop_assert!(
            trie.queries_answered() <= naive.queries_answered(),
            "the trie cache asked the SUL {} times, the naive cache only {}",
            trie.queries_answered(),
            naive.queries_answered()
        );
    }

    #[test]
    fn batched_queries_match_sequential_queries(
        (states, inputs, outputs, seed) in machine_params(),
        raw_queries in query_sequences(),
    ) {
        let machine = random_machine(states, inputs, outputs, seed);
        let words = to_words(&machine, &raw_queries);
        let mut batched = CacheOracle::new(MachineOracle::new(machine.clone()));
        let mut sequential = CacheOracle::new(MachineOracle::new(machine));
        let batch_outs = batched.query_batch(&words);
        let seq_outs: Vec<OutputWord> = words.iter().map(|w| sequential.query(w)).collect();
        prop_assert_eq!(batch_outs, seq_outs);
        // Batching may only reduce SUL traffic (dedup + prefix subsumption),
        // never increase it.
        prop_assert!(batched.queries_answered() <= sequential.queries_answered());
        // Both modes record the same distinct-query set.
        prop_assert_eq!(batched.len(), sequential.len());
    }

    #[test]
    fn batch_and_sequential_fresh_symbol_counts_agree(
        (states, inputs, outputs, seed) in machine_params(),
        raw_queries in query_sequences(),
    ) {
        // Regression for the batched double-count: fresh symbols are the
        // trie nodes created, which is independent of batching, ordering,
        // deduplication and prefix subsumption.
        let machine = random_machine(states, inputs, outputs, seed);
        let words = to_words(&machine, &raw_queries);
        let mut batched = CacheOracle::new(MachineOracle::new(machine.clone()));
        let mut sequential = CacheOracle::new(MachineOracle::new(machine));
        batched.query_batch(&words);
        for word in &words {
            sequential.query(word);
        }
        prop_assert_eq!(batched.fresh_symbols(), sequential.fresh_symbols());
        // Both equal the node count of the union trie (root excluded).
        prop_assert_eq!(
            batched.fresh_symbols() as usize,
            batched.trie().num_nodes() - 1
        );
    }

    #[test]
    fn journal_round_trip_preserves_lookups_terminals_and_entries(
        (states, inputs, outputs, seed) in machine_params(),
        raw_queries in query_sequences(),
    ) {
        let machine = random_machine(states, inputs, outputs, seed);
        let words = to_words(&machine, &raw_queries);
        let mut cache = CacheOracle::new(MachineOracle::new(machine.clone()));
        cache.query_batch(&words);
        let trie = cache.trie();
        let back = journal_round_trip(&machine, trie);
        prop_assert_eq!(back.terminal_words(), trie.terminal_words());
        prop_assert_eq!(back.num_nodes(), trie.num_nodes());
        // Lookups agree on every queried word and on every prefix of it.
        for word in &words {
            for n in 0..=word.len() {
                let prefix = word.prefix(n);
                prop_assert_eq!(back.lookup(&prefix), trie.lookup(&prefix));
            }
        }
        // Entries agree as sets (both listings are depth-first sorted, so
        // set equality here is order-insensitive by construction).
        let a: std::collections::BTreeSet<_> = trie.entries().into_iter().collect();
        let b: std::collections::BTreeSet<_> = back.entries().into_iter().collect();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn warmed_cache_oracle_answers_repeat_runs_without_sul_traffic(
        (states, inputs, outputs, seed) in machine_params(),
        raw_queries in query_sequences(),
    ) {
        let machine = random_machine(states, inputs, outputs, seed);
        let words = to_words(&machine, &raw_queries);
        let mut cold = CacheOracle::new(MachineOracle::new(machine.clone()));
        let cold_outs = cold.query_batch(&words);
        // Persist, reload, and warm-start a fresh oracle from the trie.
        let trie = journal_round_trip(&machine, cold.trie());
        let mut warm = CacheOracle::with_trie(MachineOracle::new(machine), trie);
        let warm_outs = warm.query_batch(&words);
        prop_assert_eq!(warm_outs, cold_outs);
        prop_assert_eq!(warm.fresh_symbols(), 0);
        prop_assert_eq!(warm.inner().queries_answered(), 0);
    }

    #[test]
    fn distinct_query_count_matches_the_set_of_words_asked(
        (states, inputs, outputs, seed) in machine_params(),
        raw_queries in query_sequences(),
    ) {
        let machine = random_machine(states, inputs, outputs, seed);
        let words = to_words(&machine, &raw_queries);
        let mut cache = CacheOracle::new(MachineOracle::new(machine));
        for word in &words {
            cache.query(word);
        }
        let distinct: std::collections::BTreeSet<&InputWord> = words.iter().collect();
        prop_assert_eq!(cache.len(), distinct.len());
        let entries: Vec<(InputWord, OutputWord)> = cache.entries().collect();
        prop_assert_eq!(entries.len(), distinct.len());
        for (input, output) in entries {
            prop_assert!(distinct.contains(&input));
            prop_assert_eq!(input.len(), output.len());
        }
    }
}

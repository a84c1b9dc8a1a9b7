//! Oracle traits and generic oracle combinators.
//!
//! A [`MembershipOracle`] answers the question *"If I send this input
//! sequence, what will the implementation return?"* (§4.1).  In Prognosis
//! the real oracle is the SUL adapter; in tests it is a known Mealy machine
//! ([`MachineOracle`]).  Queries flow through the stack in *batches*
//! ([`MembershipOracle::query_batch`]) so that oracle implementations
//! backed by several independent SUL instances can answer them in parallel.
//! [`CacheOracle`] memoizes answers in a prefix trie
//! ([`crate::trie::PrefixTrie`]) that exploits prefix-closedness: a cached
//! word answers all of its prefixes, and within a batch any word that is a
//! prefix of another is answered by forwarding only the longer word — the
//! same role the Oracle Table's cache plays in the paper, without the
//! seed's linear scans.

use crate::trie::PrefixTrie;
use prognosis_automata::interner::{IWord, SymbolId};
use prognosis_automata::mealy::MealyMachine;
use prognosis_automata::word::{InputWord, IoTrace, OutputWord};

/// Which learning phase the membership queries currently in flight belong
/// to.  Learners announce the phase through
/// [`MembershipOracle::note_phase`] so instrumented oracle stacks (e.g.
/// `prognosis-core`'s `ParallelSulOracle`) can attribute scheduler
/// occupancy and batch sizes per phase — the sift wavefront's whole point
/// is raising the *construction*-phase batch size from 1 to
/// `O(states × |Σ|)`, and per-phase accounting is what makes that visible.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum QueryPhase {
    /// Hypothesis construction: transition-row outputs and sift queries.
    #[default]
    Construction,
    /// Counterexample decomposition probes.
    Counterexample,
    /// Equivalence-oracle suite testing.
    Equivalence,
}

impl QueryPhase {
    /// Stable lowercase name (JSON/report key).
    pub fn name(self) -> &'static str {
        match self {
            QueryPhase::Construction => "construction",
            QueryPhase::Counterexample => "counterexample",
            QueryPhase::Equivalence => "equivalence",
        }
    }
}

/// One membership query submitted through
/// [`MembershipOracle::submit_queries`].  The ticket-based entry points
/// are kept for external oracle stacks that forward them; every oracle in
/// this workspace answers them with the blocking defaults, and the
/// learners only ever issue blocking batches.
#[derive(Clone, Debug)]
pub struct AsyncQuery {
    /// Caller-assigned correlation id.
    pub ticket: u64,
    /// The input word to execute.
    pub input: InputWord,
    /// Learning phase the query belongs to.
    pub phase: QueryPhase,
    /// Whether the caller may still cancel the query.
    pub speculative: bool,
}

/// One answered asynchronous query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AsyncAnswer {
    /// The ticket of the [`AsyncQuery`] this answers.
    pub ticket: u64,
    /// The SUL's output word.
    pub output: OutputWord,
}

/// What happened to the tickets passed to
/// [`MembershipOracle::cancel_queries`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CancelOutcome {
    /// Queries cancelled before any SUL work started.
    pub unsent: u64,
    /// Queries whose SUL work had already started (or finished); the work
    /// is wasted and the answer is dropped.
    pub discarded: u64,
}

/// Answers membership queries.
pub trait MembershipOracle {
    /// The output word the SUL produces for `input` (same length as `input`).
    fn query(&mut self, input: &InputWord) -> OutputWord;

    /// Answers a batch of membership queries, one output word per input
    /// word, in order.
    ///
    /// The default implementation is a sequential loop; oracles that own
    /// several SUL instances (e.g. `prognosis-core`'s `ParallelSulOracle`)
    /// override it to fan the batch out across workers.  Implementations
    /// must answer each word exactly as a sequence of [`Self::query`] calls
    /// would, so batching never changes learning results.
    fn query_batch(&mut self, inputs: &[InputWord]) -> Vec<OutputWord> {
        inputs.iter().map(|input| self.query(input)).collect()
    }

    /// Like [`Self::query_batch`], but the inputs arrive as shared handles.
    /// Oracles that move words across threads (e.g. `prognosis-core`'s
    /// `ParallelSulOracle`) override this to enqueue the `Arc`s directly —
    /// no per-query word clone crosses the work queue.  The default
    /// implementation dereferences and delegates, so the two entry points
    /// are always answer-identical.
    fn query_batch_shared(&mut self, inputs: &[std::sync::Arc<InputWord>]) -> Vec<OutputWord> {
        let words: Vec<InputWord> = inputs.iter().map(|w| (**w).clone()).collect();
        self.query_batch(&words)
    }

    /// Number of membership queries issued so far (for statistics).
    fn queries_answered(&self) -> u64 {
        0
    }

    /// Announces which learning phase subsequent queries belong to.  A
    /// no-op by default; instrumented oracles use it to attribute batch
    /// sizes and occupancy per phase.  Wrappers (e.g. [`CacheOracle`]) must
    /// forward it to their inner oracle.
    fn note_phase(&mut self, _phase: QueryPhase) {}

    /// Submits queries and returns the answers available now.  The default
    /// answers every query inline through [`Self::query`].
    fn submit_queries(&mut self, queries: Vec<AsyncQuery>) -> Vec<AsyncAnswer> {
        queries
            .into_iter()
            .map(|q| AsyncAnswer {
                ticket: q.ticket,
                output: self.query(&q.input),
            })
            .collect()
    }

    /// Collects answers for previously submitted queries (none by
    /// default: [`Self::submit_queries`] already answered them).
    fn poll_answers(&mut self, _wait: bool) -> Vec<AsyncAnswer> {
        Vec::new()
    }

    /// Cancels outstanding queries (nothing is outstanding by default).
    fn cancel_queries(&mut self, _tickets: &[u64]) -> CancelOutcome {
        CancelOutcome::default()
    }

    /// Confirms submitted tickets (a no-op by default).
    fn commit_queries(&mut self, _tickets: &[u64]) {}

    /// Number of submitted queries not yet answered (0 by default).
    fn outstanding_queries(&self) -> u64 {
        0
    }
}

/// Answers equivalence queries with a counterexample trace, or `None` when
/// no difference between the hypothesis and the SUL could be found.
pub trait EquivalenceOracle {
    /// Searches for an input word on which `hypothesis` and the SUL differ.
    /// The returned trace carries the *SUL's* outputs.
    fn find_counterexample(
        &mut self,
        hypothesis: &MealyMachine,
        membership: &mut dyn MembershipOracle,
    ) -> Option<IoTrace>;

    /// Number of equivalence queries issued so far.
    fn equivalence_queries(&self) -> u64 {
        0
    }

    /// Total suite test words executed across all equivalence queries
    /// (0 for oracles that do not test word-by-word).
    fn tests_executed(&self) -> u64 {
        0
    }
}

/// A membership oracle backed by a known Mealy machine.  Used in unit tests
/// and benchmarks where the "implementation" is itself a model.
#[derive(Clone, Debug)]
pub struct MachineOracle {
    machine: MealyMachine,
    queries: u64,
    symbols: u64,
}

impl MachineOracle {
    /// Wraps a machine as a membership oracle.
    pub fn new(machine: MealyMachine) -> Self {
        MachineOracle {
            machine,
            queries: 0,
            symbols: 0,
        }
    }

    /// The wrapped machine.
    pub fn machine(&self) -> &MealyMachine {
        &self.machine
    }

    /// Total input symbols sent across all queries.
    pub fn symbols_sent(&self) -> u64 {
        self.symbols
    }
}

impl MembershipOracle for MachineOracle {
    fn query(&mut self, input: &InputWord) -> OutputWord {
        self.queries += 1;
        self.symbols += input.len() as u64;
        self.machine
            .run(input)
            .expect("query over the machine's alphabet")
    }

    fn queries_answered(&self) -> u64 {
        self.queries
    }
}

/// A caching membership oracle backed by a prefix trie.
///
/// Besides memoizing full queries, the cache answers any query that is a
/// *prefix* of an already-answered query without consulting the inner
/// oracle, mirroring the paper's observation that learning asks many
/// redundant prefix queries against an expensive network SUL.  Batches are
/// deduplicated and prefix-subsumed before being forwarded, so the inner
/// oracle only ever sees the maximal fresh words of a batch.
pub struct CacheOracle<O> {
    inner: O,
    trie: PrefixTrie,
    hits: u64,
    misses: u64,
    /// Input symbols beyond the longest cached prefix, summed over all
    /// forwarded queries — the genuinely *fresh* work the SUL performed.
    fresh_symbols: u64,
}

impl<O: MembershipOracle> CacheOracle<O> {
    /// Wraps `inner` with a cache.
    pub fn new(inner: O) -> Self {
        CacheOracle::with_trie(inner, PrefixTrie::new())
    }

    /// Wraps `inner` with a pre-populated cache — the warm-start path: a
    /// trie persisted by an earlier run (see
    /// [`crate::journal::JournalStore::checkout`]) answers its queries
    /// without any fresh SUL work.  Hit/miss/fresh
    /// counters start at zero; only *this* run's traffic is accounted.
    pub fn with_trie(inner: O, trie: PrefixTrie) -> Self {
        CacheOracle {
            inner,
            trie,
            hits: 0,
            misses: 0,
            fresh_symbols: 0,
        }
    }

    /// Cache hits so far (queries answered without touching the inner
    /// oracle, including prefix and within-batch subsumption hits).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses (queries forwarded to the inner oracle) so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Input symbols that were not already covered by a cached prefix when
    /// their query was forwarded.
    pub fn fresh_symbols(&self) -> u64 {
        self.fresh_symbols
    }

    /// Number of distinct input words queried through this oracle.
    pub fn len(&self) -> usize {
        self.trie.terminal_words()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The inner oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// The backing prefix trie (e.g. to persist it across runs).
    pub fn trie(&self) -> &PrefixTrie {
        &self.trie
    }

    /// Consumes the cache, returning the inner oracle.
    pub fn into_inner(self) -> O {
        self.inner
    }

    /// Consumes the cache, returning the inner oracle and the trie.
    pub fn into_parts(self) -> (O, PrefixTrie) {
        (self.inner, self.trie)
    }

    /// All distinct (input, output) query pairs — the raw material for the
    /// Oracle Table used by the synthesis module.
    pub fn entries(&self) -> impl Iterator<Item = (InputWord, OutputWord)> {
        self.trie.entries().into_iter()
    }

    /// Records a forwarded answer and accounts its fresh symbols: exactly
    /// the trie nodes this answer created.  Counting at insertion time (not
    /// against a pre-batch snapshot of the trie) makes the total immune to
    /// batching — two batch words sharing an uncached prefix pay for that
    /// prefix once, the same as sequential queries would.
    fn record_answer(&mut self, input: &InputWord, output: &OutputWord) {
        assert_eq!(
            output.len(),
            input.len(),
            "membership oracle must return one output symbol per input symbol"
        );
        self.fresh_symbols += self.trie.insert(input, output) as u64;
        self.trie.mark_terminal(input);
    }

    /// Id-word form of [`CacheOracle::record_answer`] for the batch path:
    /// the input is already encoded, so the insert hashes no strings.
    fn record_answer_ids(&mut self, input_ids: &[SymbolId], output: &OutputWord) {
        assert_eq!(
            output.len(),
            input_ids.len(),
            "membership oracle must return one output symbol per input symbol"
        );
        let created = self
            .trie
            .try_insert_ids(input_ids, output)
            .unwrap_or_else(|e| panic!("{e}"));
        self.fresh_symbols += created as u64;
        self.trie.mark_terminal_ids(input_ids);
    }
}

impl<O: MembershipOracle> MembershipOracle for CacheOracle<O> {
    fn query(&mut self, input: &InputWord) -> OutputWord {
        if let Some(out) = self.trie.lookup(input) {
            self.hits += 1;
            self.trie.mark_terminal(input);
            return out;
        }
        self.misses += 1;
        let out = self.inner.query(input);
        self.record_answer(input, &out);
        out
    }

    fn query_batch(&mut self, inputs: &[InputWord]) -> Vec<OutputWord> {
        // First pass: encode each word once against the trie's interner,
        // then answer what the trie already knows.  Everything after this
        // loop — dedup, subsumption, insertion — runs on integer ids; the
        // strings are only touched again at the forwarding boundary.
        let mut results: Vec<Option<OutputWord>> = Vec::with_capacity(inputs.len());
        let mut encoded: Vec<Option<IWord>> = Vec::with_capacity(inputs.len());
        let mut missing: Vec<usize> = Vec::new();
        let mut missing_occurrences: u64 = 0;
        for (index, input) in inputs.iter().enumerate() {
            let ids = self.trie.encode_input(input);
            match self.trie.lookup_ids(ids.as_slice()) {
                Some(out) => {
                    self.hits += 1;
                    self.trie.mark_terminal_ids(ids.as_slice());
                    results.push(Some(out));
                    encoded.push(None);
                }
                None => {
                    missing_occurrences += 1;
                    missing.push(index);
                    results.push(None);
                    encoded.push(Some(ids));
                }
            }
        }
        // Sort the missing words into string order via the interner's rank
        // table (identical to the old `BTreeSet<InputWord>` iteration order,
        // so the forwarded stream — observable in the event log — is
        // unchanged), then drop duplicates by id equality.
        let ids_of = |i: usize| encoded[i].as_deref().expect("missing word was encoded");
        missing.sort_by(|&a, &b| self.trie.compare_id_words(ids_of(a), ids_of(b)));
        missing.dedup_by(|a, b| ids_of(*a) == ids_of(*b));
        // Prefix subsumption: in sorted order, every proper prefix is
        // immediately followed by one of its extensions, so one forward
        // look suffices to drop it — the longer word answers it for free.
        let forward: Vec<usize> = missing
            .iter()
            .enumerate()
            .filter(|&(i, &index)| match missing.get(i + 1) {
                Some(&next) => {
                    let word = ids_of(index);
                    let longer = ids_of(next);
                    !(longer.len() > word.len() && &longer[..word.len()] == word)
                }
                None => true,
            })
            .map(|(_, &index)| index)
            .collect();
        // Every missing occurrence that did not itself reach the inner
        // oracle (duplicates and prefix-subsumed words) is a hit: it was
        // answered on the back of a forwarded word.
        self.misses += forward.len() as u64;
        self.hits += missing_occurrences - forward.len() as u64;
        let shared: Vec<std::sync::Arc<InputWord>> = forward
            .iter()
            .map(|&index| std::sync::Arc::new(inputs[index].clone()))
            .collect();
        let answers = self.inner.query_batch_shared(&shared);
        assert_eq!(
            answers.len(),
            forward.len(),
            "inner oracle must answer the whole batch"
        );
        for (&index, out) in forward.iter().zip(&answers) {
            let ids = encoded[index].take().expect("forwarded word was encoded");
            self.record_answer_ids(ids.as_slice(), out);
            results[index] = Some(out.clone());
        }
        // Second pass: everything is cached now.
        results
            .into_iter()
            .zip(encoded)
            .map(|(cached, ids)| match cached {
                Some(out) => out,
                None => {
                    let ids = ids.expect("missing word was encoded");
                    let out = self
                        .trie
                        .lookup_ids(ids.as_slice())
                        .expect("batch member cached after forwarding its superword");
                    self.trie.mark_terminal_ids(ids.as_slice());
                    out
                }
            })
            .collect()
    }

    fn queries_answered(&self) -> u64 {
        self.inner.queries_answered()
    }

    fn note_phase(&mut self, phase: QueryPhase) {
        self.inner.note_phase(phase);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prognosis_automata::known;

    #[test]
    fn machine_oracle_answers_and_counts() {
        let mut o = MachineOracle::new(known::toggle());
        let out = o.query(&InputWord::from_symbols(["press", "press"]));
        assert_eq!(out, OutputWord::from_symbols(["on", "off"]));
        assert_eq!(o.queries_answered(), 1);
        assert_eq!(o.symbols_sent(), 2);
        assert_eq!(o.machine().num_states(), 2);
    }

    #[test]
    fn cache_avoids_duplicate_queries() {
        let mut o = CacheOracle::new(MachineOracle::new(known::counter(3)));
        let w = InputWord::from_symbols(["inc", "inc"]);
        let a = o.query(&w);
        let b = o.query(&w);
        assert_eq!(a, b);
        assert_eq!(o.misses(), 1);
        assert_eq!(o.hits(), 1);
        assert_eq!(o.queries_answered(), 1);
        assert_eq!(o.len(), 1);
        assert!(!o.is_empty());
    }

    #[test]
    fn cache_answers_prefix_queries_from_longer_entries() {
        let mut o = CacheOracle::new(MachineOracle::new(known::counter(4)));
        let long = InputWord::from_symbols(["inc", "inc", "inc", "reset"]);
        let short = InputWord::from_symbols(["inc", "inc"]);
        let long_out = o.query(&long);
        let short_out = o.query(&short);
        assert_eq!(short_out, long_out.prefix(2));
        assert_eq!(o.misses(), 1, "prefix query must be served from cache");
        assert_eq!(o.hits(), 1);
    }

    #[test]
    fn cache_entries_expose_oracle_table_material() {
        let mut o = CacheOracle::new(MachineOracle::new(known::toggle()));
        o.query(&InputWord::from_symbols(["press"]));
        o.query(&InputWord::from_symbols(["press", "press"]));
        assert_eq!(o.entries().count(), 2);
        let inner = o.into_inner();
        assert_eq!(inner.queries_answered(), 2);
    }

    #[test]
    fn batches_are_deduplicated_and_prefix_subsumed() {
        let mut o = CacheOracle::new(MachineOracle::new(known::counter(4)));
        let batch = vec![
            InputWord::from_symbols(["inc"]),
            InputWord::from_symbols(["inc", "inc", "inc"]),
            InputWord::from_symbols(["inc", "inc"]),
            InputWord::from_symbols(["inc", "inc", "inc"]),
            InputWord::from_symbols(["reset"]),
        ];
        let outs = o.query_batch(&batch);
        assert_eq!(outs.len(), batch.len());
        // Accounting reconciles: every batch member is either a forwarded
        // miss or a hit (duplicates and subsumed prefixes count as hits).
        assert_eq!(o.hits() + o.misses(), batch.len() as u64);
        assert_eq!(o.misses(), 2);
        for (input, out) in batch.iter().zip(&outs) {
            assert_eq!(out.len(), input.len());
            assert_eq!(
                out,
                &o.query(input),
                "batch answers match single-query answers"
            );
        }
        // Only the two maximal words reached the machine.
        assert_eq!(o.queries_answered(), 2);
        assert_eq!(o.misses(), 2);
        // Duplicates within the batch collapse; all five batch members plus
        // the five repeat queries were answered.
        assert_eq!(o.len(), 4, "four distinct words were queried");
    }

    #[test]
    fn batch_answers_agree_with_sequential_baseline() {
        let machine = known::counter(5);
        let mut batched = CacheOracle::new(MachineOracle::new(machine.clone()));
        let mut sequential = MachineOracle::new(machine);
        let words: Vec<InputWord> = vec![
            InputWord::from_symbols(["inc", "inc"]),
            InputWord::from_symbols(["inc", "reset", "inc"]),
            InputWord::from_symbols(["reset"]),
            InputWord::from_symbols(["inc", "inc"]),
        ];
        let batch_outs = batched.query_batch(&words);
        let seq_outs: Vec<OutputWord> = words.iter().map(|w| sequential.query(w)).collect();
        assert_eq!(batch_outs, seq_outs);
    }

    #[test]
    fn batch_fresh_symbols_match_sequential_for_shared_prefixes() {
        // Regression: the batched path used to charge a shared uncached
        // prefix once per batch word because fresh symbols were computed
        // against the trie before any of the batch was inserted.
        let machine = known::counter(5);
        let batch = vec![
            InputWord::from_symbols(["inc", "inc", "reset"]),
            InputWord::from_symbols(["inc", "inc", "inc"]),
            InputWord::from_symbols(["inc", "reset"]),
        ];
        let mut batched = CacheOracle::new(MachineOracle::new(machine.clone()));
        let mut sequential = CacheOracle::new(MachineOracle::new(machine));
        batched.query_batch(&batch);
        for word in &batch {
            sequential.query(word);
        }
        // The shared prefix `inc · inc` (and `inc`) is fresh exactly once:
        // 3 + 1 + 1 symbols, not the 3 + 3 + 2 the buggy pre-batch
        // accounting reported.
        assert_eq!(batched.fresh_symbols(), 5);
        assert_eq!(batched.fresh_symbols(), sequential.fresh_symbols());
    }

    #[test]
    fn preloaded_trie_answers_without_fresh_symbols() {
        let machine = known::counter(4);
        let mut cold = CacheOracle::new(MachineOracle::new(machine.clone()));
        let words = vec![
            InputWord::from_symbols(["inc", "inc", "inc"]),
            InputWord::from_symbols(["inc", "reset"]),
        ];
        let cold_outs = cold.query_batch(&words);
        assert!(cold.fresh_symbols() > 0);
        let (_, trie) = cold.into_parts();
        let mut warm = CacheOracle::with_trie(MachineOracle::new(machine), trie);
        let warm_outs = warm.query_batch(&words);
        assert_eq!(warm_outs, cold_outs);
        assert_eq!(warm.fresh_symbols(), 0, "warm start must not touch the SUL");
        assert_eq!(warm.misses(), 0);
        assert_eq!(warm.inner().queries_answered(), 0);
    }

    #[test]
    fn fresh_symbols_count_only_uncached_suffixes() {
        let mut o = CacheOracle::new(MachineOracle::new(known::counter(4)));
        o.query(&InputWord::from_symbols(["inc", "inc"]));
        assert_eq!(o.fresh_symbols(), 2);
        // Two cached symbols, one fresh.
        o.query(&InputWord::from_symbols(["inc", "inc", "inc"]));
        assert_eq!(o.fresh_symbols(), 3);
    }
}

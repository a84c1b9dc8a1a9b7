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

use crate::stats::LearningStats;
use crate::trie::PrefixTrie;
use prognosis_automata::alphabet::Alphabet;
use prognosis_automata::interner::{IWord, SymbolId};
use prognosis_automata::mealy::MealyMachine;
use prognosis_automata::word::{InputWord, IoTrace, OutputWord};
use std::collections::BTreeMap;

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

/// One asynchronously submitted membership query.  The `ticket` is
/// caller-assigned and scopes the query through
/// [`MembershipOracle::poll_answers`], [`MembershipOracle::cancel_queries`]
/// and [`MembershipOracle::commit_queries`]; tickets must be unique among
/// the caller's outstanding queries.
#[derive(Clone, Debug)]
pub struct AsyncQuery {
    /// Caller-assigned correlation id.
    pub ticket: u64,
    /// The input word to execute.
    pub input: InputWord,
    /// Learning phase the query belongs to, carried with the dispatch so
    /// engine statistics stay correct when phases overlap in flight.
    pub phase: QueryPhase,
    /// Speculative queries run at lower priority and their side effects
    /// (cache insertion, terminal marks) are *staged* until
    /// [`MembershipOracle::commit_queries`] confirms them — or rolled back
    /// by [`MembershipOracle::cancel_queries`].
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

    /// Submits queries for asynchronous execution and returns whatever
    /// answers are immediately available (for a synchronous oracle: all of
    /// them, computed inline — which keeps the dataflow learner correct on
    /// any oracle stack).  Remaining answers arrive via
    /// [`MembershipOracle::poll_answers`].  Answers are pure, so execution
    /// order never affects their values — only scheduling.
    fn submit_queries(&mut self, queries: Vec<AsyncQuery>) -> Vec<AsyncAnswer> {
        queries
            .into_iter()
            .map(|q| AsyncAnswer {
                ticket: q.ticket,
                output: self.query(&q.input),
            })
            .collect()
    }

    /// Collects answers for previously submitted queries.  With `wait`
    /// set, blocks for at least one answer — but only while queries are
    /// actually outstanding; otherwise returns whatever is ready (possibly
    /// nothing).
    fn poll_answers(&mut self, _wait: bool) -> Vec<AsyncAnswer> {
        Vec::new()
    }

    /// Cancels outstanding queries (rollback of speculative work).
    /// Queries still queued are dropped before execution; queries already
    /// executing finish but their answers are discarded, and staged side
    /// effects of answered-but-uncommitted tickets are thrown away.
    fn cancel_queries(&mut self, _tickets: &[u64]) -> CancelOutcome {
        CancelOutcome::default()
    }

    /// Confirms speculative tickets: staged side effects (cache insertion,
    /// terminal marks) are applied as if the queries had run
    /// non-speculatively.  A no-op for tickets that carried no staged
    /// state and for oracles without caches.
    fn commit_queries(&mut self, _tickets: &[u64]) {}

    /// Number of submitted-but-undelivered async answers (outstanding
    /// executions plus buffered answers not yet returned by a poll).
    fn outstanding_queries(&self) -> u64 {
        0
    }
}

/// A complete, pre-drawn equivalence-test suite, handed to a dataflow
/// learner so the suite words can stream *speculatively* through the
/// membership oracle while construction queries are still in flight.
#[derive(Clone, Debug)]
pub struct PresampledSuite {
    /// Test words in suite order — the first mismatch in this order is the
    /// counterexample, exactly as the blocking suite runner would report.
    pub words: Vec<InputWord>,
    /// How many words the blocking runner would dispatch per membership
    /// batch; the speculative commit/rollback boundary is this chunk size.
    pub batch_size: usize,
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

    /// Pre-draws the complete suite for the *next* equivalence query, for
    /// oracles whose test words depend only on the input alphabet (not on
    /// the hypothesis' structure).  Advances internal RNG state exactly as
    /// the blocking query would, and counts as one equivalence query; the
    /// caller **must** follow up with
    /// [`EquivalenceOracle::note_speculative_result`] once the suite has
    /// been resolved.  `None` (the default) means the oracle cannot
    /// presample and the learner falls back to
    /// [`EquivalenceOracle::find_counterexample`].
    fn presample_suite(&mut self, _alphabet: &Alphabet) -> Option<PresampledSuite> {
        None
    }

    /// Reports how many presampled suite words the learner executed —
    /// counted exactly as the blocking runner counts `tests_executed`
    /// (words up to and including the first mismatch).
    fn note_speculative_result(&mut self, _tests_executed: u64) {}
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
    /// Bookkeeping for the asynchronous continuation path (dataflow
    /// learner): outstanding tickets, in-flight forwarded words and staged
    /// speculative answers awaiting commit.
    async_state: AsyncCacheState,
}

/// Bookkeeping of one outstanding or staged async ticket.
struct TicketState {
    word: InputWord,
    speculative: bool,
    answered: bool,
    /// Whether answering required SUL work (false = served from the trie).
    executed: bool,
}

/// One word forwarded to the inner oracle on behalf of async tickets whose
/// words are this word or prefixes of it.
struct InflightWord {
    inner_ticket: u64,
    requesters: Vec<u64>,
}

/// An answered all-speculative word whose inner-oracle ticket still awaits
/// its fate: the inner oracle holds resources (most importantly the
/// query's staged event scope) until it hears a commit or cancel, so the
/// cache forwards the **first** requester commit as the inner commit and,
/// when every requester resolves without one, a cancel.
struct StagedInner {
    inner_ticket: u64,
    /// Speculative requesters of this word not yet committed or cancelled.
    live: Vec<u64>,
    /// Whether a requester commit was already forwarded.
    committed: bool,
}

#[derive(Default)]
struct AsyncCacheState {
    next_inner: u64,
    tickets: BTreeMap<u64, TicketState>,
    inflight: BTreeMap<InputWord, InflightWord>,
    inner_words: BTreeMap<u64, InputWord>,
    /// Full answers of forwarded words whose requesters were all
    /// speculative: kept **out of the trie** until a commit confirms them,
    /// so a rolled-back speculation leaves the cache — and therefore
    /// `fresh_symbols` and every warm-start run — bit-identical to a
    /// serial execution that never issued the speculative words.
    staged: BTreeMap<InputWord, OutputWord>,
    /// Inner tickets of answered all-speculative words, keyed by word,
    /// awaiting the learner's commit/cancel of their requesters.
    staged_inner: BTreeMap<InputWord, StagedInner>,
    ready: Vec<AsyncAnswer>,
}

/// Whether `longer` answers `shorter` by prefix (or equality).
fn covers(longer: &InputWord, shorter: &InputWord) -> bool {
    longer.len() >= shorter.len() && &longer.as_slice()[..shorter.len()] == shorter.as_slice()
}

impl AsyncCacheState {
    /// The staged answer covering `word`, truncated to its length.
    fn staged_lookup(&self, word: &InputWord) -> Option<OutputWord> {
        self.staged
            .iter()
            .find(|(k, _)| covers(k, word))
            .map(|(_, out)| out.prefix(word.len()))
    }

    /// Drops staged entries no longer needed by any live ticket.
    fn prune_staged(&mut self) {
        let tickets = &self.tickets;
        self.staged
            .retain(|word, _| tickets.values().any(|st| covers(word, &st.word)));
    }

    /// Resolves `ticket`'s stake in an answered all-speculative word.
    /// Returns the word's inner ticket exactly when this resolution
    /// settles the inner oracle's scope: the first commit among the
    /// word's requesters (`commit`), or the last cancel of a word no
    /// requester committed (`!commit`).
    fn resolve_staged_inner(&mut self, ticket: u64, commit: bool) -> Option<u64> {
        let word = self
            .staged_inner
            .iter()
            .find_map(|(w, e)| e.live.contains(&ticket).then(|| w.clone()))?;
        let entry = self.staged_inner.get_mut(&word).expect("entry just found");
        entry.live.retain(|&t| t != ticket);
        let settle = if commit {
            (!entry.committed).then(|| {
                entry.committed = true;
                entry.inner_ticket
            })
        } else {
            (entry.live.is_empty() && !entry.committed).then_some(entry.inner_ticket)
        };
        if entry.live.is_empty() {
            self.staged_inner.remove(&word);
        }
        settle
    }
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
            async_state: AsyncCacheState::default(),
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

    /// Folds inner async answers back into cache state: resolves every
    /// requester of the answered word, inserts the longest
    /// **non-speculative** requester's prefix into the trie immediately
    /// (a committed query — exactly what a serial run would have cached)
    /// and stages the full answer for speculative requesters until their
    /// commit.
    fn process_inner_answers(&mut self, answers: Vec<AsyncAnswer>) {
        for answer in answers {
            let word = self
                .async_state
                .inner_words
                .remove(&answer.ticket)
                .expect("answer for an unknown inner ticket");
            let entry = self
                .async_state
                .inflight
                .remove(&word)
                .expect("answered word was in flight");
            debug_assert_eq!(answer.output.len(), word.len());
            let mut requesters = entry.requesters;
            // Longest words first, so the first non-speculative requester
            // inserts its whole prefix and the rest are plain hits.
            requesters.sort_by_key(|t| std::cmp::Reverse(self.async_state.tickets[t].word.len()));
            let any_speculative = requesters
                .iter()
                .any(|t| self.async_state.tickets[t].speculative);
            if any_speculative {
                self.async_state
                    .staged
                    .insert(word.clone(), answer.output.clone());
            }
            if requesters
                .iter()
                .all(|t| self.async_state.tickets[t].speculative)
            {
                // The forwarded query was speculative end to end: the inner
                // oracle keeps its scope staged until the learner's verdict
                // on these requesters is relayed down.
                self.async_state.staged_inner.insert(
                    word.clone(),
                    StagedInner {
                        inner_ticket: answer.ticket,
                        live: requesters.clone(),
                        committed: false,
                    },
                );
            }
            let mut inserted = false;
            for ticket in requesters {
                let state = &self.async_state.tickets[&ticket];
                let out = answer.output.prefix(state.word.len());
                if state.speculative {
                    let state = self.async_state.tickets.get_mut(&ticket).expect("live");
                    state.answered = true;
                } else {
                    let ticket_word = state.word.clone();
                    if inserted {
                        self.hits += 1;
                        self.trie.mark_terminal(&ticket_word);
                    } else {
                        self.record_answer(&ticket_word, &out);
                        self.misses += 1;
                        inserted = true;
                    }
                    self.async_state.tickets.remove(&ticket);
                }
                self.async_state.ready.push(AsyncAnswer {
                    ticket,
                    output: out,
                });
            }
        }
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

    fn submit_queries(&mut self, queries: Vec<AsyncQuery>) -> Vec<AsyncAnswer> {
        // Words that need the inner oracle this call, with their tickets.
        let mut pending_forward: BTreeMap<InputWord, Vec<u64>> = BTreeMap::new();
        let mut forward_phase: BTreeMap<InputWord, QueryPhase> = BTreeMap::new();
        for q in queries {
            if let Some(out) = self.trie.lookup(&q.input) {
                if q.speculative {
                    // Defer the terminal mark (and hit accounting) until
                    // commit: a rolled-back speculation must leave the
                    // trie untouched.
                    self.async_state.tickets.insert(
                        q.ticket,
                        TicketState {
                            word: q.input,
                            speculative: true,
                            answered: true,
                            executed: false,
                        },
                    );
                } else {
                    self.hits += 1;
                    self.trie.mark_terminal(&q.input);
                }
                self.async_state.ready.push(AsyncAnswer {
                    ticket: q.ticket,
                    output: out,
                });
                continue;
            }
            if let Some(out) = self.async_state.staged_lookup(&q.input) {
                if q.speculative {
                    self.async_state.tickets.insert(
                        q.ticket,
                        TicketState {
                            word: q.input,
                            speculative: true,
                            answered: true,
                            executed: true,
                        },
                    );
                } else {
                    // A committed query covered by a staged speculative
                    // answer: a serial run would have executed it, so it
                    // enters the trie now.
                    self.record_answer(&q.input, &out);
                    self.misses += 1;
                }
                self.async_state.ready.push(AsyncAnswer {
                    ticket: q.ticket,
                    output: out,
                });
                continue;
            }
            // Piggyback on a word already in flight that covers this one.
            let carrier = self
                .async_state
                .inflight
                .keys()
                .find(|k| covers(k, &q.input))
                .cloned();
            self.async_state.tickets.insert(
                q.ticket,
                TicketState {
                    word: q.input.clone(),
                    speculative: q.speculative,
                    answered: false,
                    executed: true,
                },
            );
            if let Some(carrier) = carrier {
                self.async_state
                    .inflight
                    .get_mut(&carrier)
                    .expect("carrier in flight")
                    .requesters
                    .push(q.ticket);
                continue;
            }
            forward_phase.entry(q.input.clone()).or_insert(q.phase);
            pending_forward.entry(q.input).or_default().push(q.ticket);
        }
        // Within-call prefix subsumption: in the sorted key list every
        // proper prefix is adjacent to an extension, so chase carriers from
        // the back (mirrors the blocking batch path).
        let words: Vec<InputWord> = pending_forward.keys().cloned().collect();
        let mut carrier_of: Vec<usize> = (0..words.len()).collect();
        for i in (0..words.len().saturating_sub(1)).rev() {
            if words[i + 1].len() > words[i].len() && covers(&words[i + 1], &words[i]) {
                carrier_of[i] = carrier_of[i + 1];
            }
        }
        let mut groups: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
        for (i, word) in words.iter().enumerate() {
            groups
                .entry(carrier_of[i])
                .or_default()
                .extend(pending_forward.remove(word).expect("pending word"));
        }
        let mut forwards = Vec::with_capacity(groups.len());
        for (carrier_idx, requesters) in groups {
            let word = words[carrier_idx].clone();
            let speculative = requesters
                .iter()
                .all(|t| self.async_state.tickets[t].speculative);
            let inner_ticket = self.async_state.next_inner;
            self.async_state.next_inner += 1;
            self.async_state
                .inner_words
                .insert(inner_ticket, word.clone());
            self.async_state.inflight.insert(
                word.clone(),
                InflightWord {
                    inner_ticket,
                    requesters,
                },
            );
            forwards.push(AsyncQuery {
                ticket: inner_ticket,
                phase: forward_phase[&word],
                input: word,
                speculative,
            });
        }
        let immediate = self.inner.submit_queries(forwards);
        self.process_inner_answers(immediate);
        std::mem::take(&mut self.async_state.ready)
    }

    fn poll_answers(&mut self, wait: bool) -> Vec<AsyncAnswer> {
        loop {
            let block =
                wait && self.async_state.ready.is_empty() && !self.async_state.inflight.is_empty();
            let answers = self.inner.poll_answers(block);
            let got = !answers.is_empty();
            self.process_inner_answers(answers);
            if !wait || !self.async_state.ready.is_empty() || self.async_state.inflight.is_empty() {
                break;
            }
            assert!(
                got || self.inner.outstanding_queries() > 0,
                "async cache poll stalled: words in flight but nothing outstanding below"
            );
        }
        std::mem::take(&mut self.async_state.ready)
    }

    fn cancel_queries(&mut self, tickets: &[u64]) -> CancelOutcome {
        let mut outcome = CancelOutcome::default();
        let mut inner_cancel: Vec<u64> = Vec::new();
        let mut drop_words: Vec<InputWord> = Vec::new();
        for &ticket in tickets {
            let Some(state) = self.async_state.tickets.remove(&ticket) else {
                continue;
            };
            if let Some(pos) = self
                .async_state
                .ready
                .iter()
                .position(|a| a.ticket == ticket)
            {
                self.async_state.ready.remove(pos);
            }
            if state.answered {
                if state.executed {
                    outcome.discarded += 1;
                    // The last cancel of a never-committed word releases
                    // the inner oracle's staged scope.
                    if let Some(inner) = self.async_state.resolve_staged_inner(ticket, false) {
                        inner_cancel.push(inner);
                    }
                } else {
                    outcome.unsent += 1; // Trie hit: no SUL work to waste.
                }
                continue;
            }
            let mut shared = false;
            for (word, entry) in self.async_state.inflight.iter_mut() {
                if let Some(pos) = entry.requesters.iter().position(|&r| r == ticket) {
                    entry.requesters.remove(pos);
                    if entry.requesters.is_empty() {
                        inner_cancel.push(entry.inner_ticket);
                        drop_words.push(word.clone());
                    } else {
                        shared = true;
                    }
                    break;
                }
            }
            if shared {
                // The word keeps executing for surviving requesters; this
                // ticket's share of the work is not extra waste.
                outcome.unsent += 1;
            }
        }
        for word in drop_words {
            let entry = self
                .async_state
                .inflight
                .remove(&word)
                .expect("word pending removal");
            self.async_state.inner_words.remove(&entry.inner_ticket);
        }
        let inner_outcome = self.inner.cancel_queries(&inner_cancel);
        outcome.unsent += inner_outcome.unsent;
        outcome.discarded += inner_outcome.discarded;
        self.async_state.prune_staged();
        outcome
    }

    fn commit_queries(&mut self, tickets: &[u64]) {
        let mut inner_commit: Vec<u64> = Vec::new();
        for &ticket in tickets {
            let Some(state) = self.async_state.tickets.remove(&ticket) else {
                continue;
            };
            debug_assert!(
                state.speculative && state.answered,
                "commit of a pending or non-speculative ticket"
            );
            if self.trie.lookup(&state.word).is_some() {
                self.hits += 1;
                self.trie.mark_terminal(&state.word);
            } else if let Some(out) = self.async_state.staged_lookup(&state.word) {
                self.record_answer(&state.word, &out);
                self.misses += 1;
            } else {
                panic!("commit of a ticket with no staged answer");
            }
            // The first requester commit confirms the inner oracle's
            // speculative work — relay it so the inner scope can flush.
            if let Some(inner) = self.async_state.resolve_staged_inner(ticket, true) {
                inner_commit.push(inner);
            }
        }
        if !inner_commit.is_empty() {
            self.inner.commit_queries(&inner_commit);
        }
        self.async_state.prune_staged();
    }

    fn outstanding_queries(&self) -> u64 {
        let pending = self
            .async_state
            .tickets
            .values()
            .filter(|t| !t.answered)
            .count();
        (pending + self.async_state.ready.len()) as u64
    }
}

/// Snapshot query accounting from an oracle pair into a [`LearningStats`].
pub fn snapshot_stats(
    membership: &dyn MembershipOracle,
    equivalence: &dyn EquivalenceOracle,
    rounds: u64,
) -> LearningStats {
    LearningStats {
        membership_queries: membership.queries_answered(),
        equivalence_queries: equivalence.equivalence_queries(),
        equivalence_tests: equivalence.tests_executed(),
        learning_rounds: rounds,
        ..LearningStats::default()
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

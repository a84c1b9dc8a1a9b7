//! End-to-end orchestration: learn a Mealy model of a SUL.
//!
//! The pipeline wires the pieces together the way the paper's experiments
//! do: the SUL (implementation + adapter) is exposed as a membership oracle
//! behind a prefix-trie cache, a discrimination-tree learner builds the
//! hypothesis, and a random-word equivalence oracle plays the role of the
//! heuristic equivalence oracle of §4.1.  Queries flow through the stack in
//! batches; with [`LearnConfig::workers`] > 1 the batches fan out across
//! independent SUL instances ([`crate::parallel::ParallelSulOracle`])
//! minted by a [`SulFactory`](crate::sul::SulFactory).  Results are
//! deterministic and identical to the sequential path for any worker
//! count: the equivalence oracle's word stream depends only on the seed,
//! and each SUL instance answers each word the same way (§3.2 property 3).

use crate::oracle_table::{HasOracleTable, OracleTable};
use crate::parallel::{EngineShutdown, ParallelSulOracle};
use crate::session::{EngineStats, QueryPhase, SessionSul, SessionSulFactory};
use crate::sul::{Sul, SulMembershipOracle, SulStats};
use prognosis_automata::alphabet::Alphabet;
use prognosis_automata::mealy::MealyMachine;
use prognosis_automata::word::InputWord;
use prognosis_events::EventSink;
use prognosis_learner::cache::StoreKey;
use prognosis_learner::eq_oracles::{RandomWordOracle, DEFAULT_EQ_BATCH_SIZE};
use prognosis_learner::journal::{Checkout, JournalStore, RetainPolicy};
use prognosis_learner::oracle::{CacheOracle, MembershipOracle};
use prognosis_learner::stats::LearningStats;
use prognosis_learner::trie::PrefixTrie;
use prognosis_learner::{DTreeLearner, Learner};
use std::panic::AssertUnwindSafe;
use std::sync::Arc;

pub use prognosis_learner::dtree::SiftStrategy;

/// The session-SUL type a [`SessionSulFactory`] ultimately hands back —
/// what [`ParallelLearnOutcome::suls`] contains.
pub type FactorySul<F> = <<F as SessionSulFactory>::Session as SessionSul>::Sul;

/// Errors of the parallel learning engine.  A panicking worker SUL (or a
/// panic anywhere in the learning loop) surfaces as a value instead of
/// poisoning the pipeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LearnError {
    /// A session worker thread panicked while answering queries.
    WorkerPanicked {
        /// Index of the worker that died.
        worker: usize,
        /// The panic payload, rendered.
        message: String,
    },
    /// The learning loop itself panicked (learner invariant violation,
    /// dispatcher failure, ...).
    EnginePanicked {
        /// The panic payload, rendered.
        message: String,
    },
}

impl std::fmt::Display for LearnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LearnError::WorkerPanicked { worker, message } => {
                write!(f, "session worker {worker} panicked: {message}")
            }
            LearnError::EnginePanicked { message } => {
                write!(f, "learning engine panicked: {message}")
            }
        }
    }
}

impl std::error::Error for LearnError {}

/// Configuration of a learning run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LearnConfig {
    /// RNG seed for the equivalence oracle.
    pub seed: u64,
    /// Number of random test words per equivalence query.
    pub random_tests: usize,
    /// Minimum random test-word length.
    pub min_word_len: usize,
    /// Maximum random test-word length.
    pub max_word_len: usize,
    /// Number of parallel SUL workers ([`learn_model_parallel`] only; the
    /// borrowed-SUL path of [`learn_model`] is inherently single-instance).
    pub workers: usize,
    /// Concurrent query sessions each worker multiplexes on its virtual
    /// clock ([`learn_model_parallel`] only).  1 = the blocking model (one
    /// query at a time per worker); raise it to overlap simulated round
    /// trips — under RTT-dominated workloads throughput scales roughly
    /// linearly up to the membership batch size.  Answers and all query
    /// statistics are identical for every value.
    pub max_inflight: usize,
    /// Number of equivalence-test words dispatched per membership batch.
    pub eq_batch_size: usize,
    /// Where to persist the observation cache across runs (`None` disables
    /// persistence).  The file is keyed by the SUL's
    /// [`Sul::cache_key`] and the alphabet, so one path can safely be
    /// shared between different SULs and alphabets — mismatched entries are
    /// replaced, matching entries are merged.
    pub cache_path: Option<String>,
    /// Whether to pre-load the cache file before learning (warm start).
    /// With a fully matching cache a warm run issues zero fresh SUL
    /// symbols yet learns a bit-identical model, because the cache answers
    /// queries exactly as the (deterministic) SUL would.  When `false` the
    /// run learns cold but still persists its observations afterwards.
    pub warm_start: bool,
    /// How the learner drives sift queries: [`SiftStrategy::Wavefront`]
    /// (default) advances every pending word one discrimination-tree level
    /// per membership batch, so the session engine sees batches of
    /// `O(states × |Σ|)` during hypothesis construction;
    /// [`SiftStrategy::Serial`] is the one-query-at-a-time reference path.
    /// Results are bit-identical either way; the wavefront reports
    /// `membership_queries` ≤ serial.
    pub sift: SiftStrategy,
}

impl Default for LearnConfig {
    fn default() -> Self {
        LearnConfig {
            seed: 7,
            random_tests: 2_000,
            min_word_len: 2,
            max_word_len: 10,
            workers: 1,
            max_inflight: 1,
            eq_batch_size: DEFAULT_EQ_BATCH_SIZE,
            cache_path: None,
            warm_start: true,
            sift: SiftStrategy::default(),
        }
    }
}

impl LearnConfig {
    /// Returns the configuration with the given worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers >= 1, "learning needs at least one worker");
        self.workers = workers;
        self
    }

    /// Returns the configuration with the given per-worker in-flight
    /// session count.
    pub fn with_max_inflight(mut self, max_inflight: usize) -> Self {
        assert!(max_inflight >= 1, "each worker needs at least one session");
        self.max_inflight = max_inflight;
        self
    }

    /// Returns the configuration persisting (and, unless disabled via
    /// [`LearnConfig::warm_start`], consuming) the observation cache at
    /// `path`.
    pub fn with_cache_path(mut self, path: impl Into<String>) -> Self {
        self.cache_path = Some(path.into());
        self
    }

    /// Returns the configuration with the given sift strategy.
    pub fn with_sift(mut self, sift: SiftStrategy) -> Self {
        self.sift = sift;
        self
    }
}

/// The result of a learning run.
#[derive(Clone, Debug)]
pub struct LearnedModel {
    /// The learned Mealy machine.
    pub model: MealyMachine,
    /// Learner-side statistics (membership/equivalence queries, model size).
    pub stats: LearningStats,
    /// Cache statistics: distinct queries the SUL actually answered in
    /// *this* run (cache misses — every forwarded word is distinct, since
    /// an answered word is cached and never forwarded again).  A fully
    /// warm-started run reports 0.
    pub distinct_queries: usize,
}

/// The result of a parallel learning run, including the session SULs
/// (whose Oracle Tables feed the synthesis stage).
pub struct ParallelLearnOutcome<S> {
    /// The learned model and query statistics.
    pub learned: LearnedModel,
    /// The session SULs, reset so their adapter-side state (Oracle Tables)
    /// is fully flushed.  Worker-major: worker `i`'s `max_inflight`
    /// sessions occupy indices `i·max_inflight ..`; with `max_inflight` = 1
    /// this is exactly one SUL per worker.
    pub suls: Vec<S>,
    /// Aggregated SUL interaction counters across all sessions.
    pub sul_stats: SulStats,
    /// Session-engine statistics: virtual makespan, scheduler occupancy,
    /// clock advances.  `engine.virtual_elapsed()` is the denominator of
    /// virtual-time throughput in the benchmarks.
    pub engine: EngineStats,
}

impl<S: HasOracleTable> ParallelLearnOutcome<S> {
    /// The worker SULs' Oracle Tables combined in worker order — the
    /// default synthesis input for parallel learning runs, so the
    /// synthesis stage sees every concrete trace any worker collected.
    pub fn merged_oracle_table(&self) -> OracleTable {
        let mut merged = OracleTable::new();
        for sul in &self.suls {
            merged.merge_from(sul.oracle_table().clone());
        }
        merged
    }
}

fn equivalence_oracle(config: &LearnConfig) -> RandomWordOracle {
    RandomWordOracle::new(
        config.seed,
        config.random_tests,
        config.min_word_len,
        config.max_word_len,
    )
    .with_batch_size(config.eq_batch_size)
}

/// Opens the journaled observation store once and checks this (SUL,
/// alphabet) pair's entry out for the run: with warm start the stored trie
/// seeds the cache, otherwise the run starts from an empty trie.  Returns
/// no checkout when persistence is off or the SUL is uncacheable.
fn checkout_store(
    config: &LearnConfig,
    cache_key: Option<&str>,
    alphabet: &Alphabet,
) -> (PrefixTrie, Option<Checkout>) {
    match (&config.cache_path, cache_key) {
        (Some(path), Some(key)) => {
            let key = StoreKey::new(key, "", alphabet);
            let (trie, checkout) =
                JournalStore::open_or_empty(path).checkout(key, config.warm_start);
            (trie, Some(checkout))
        }
        _ => (PrefixTrie::new(), None),
    }
}

/// Commits the run's observation trie through its checkout: only the
/// paths the file does not already cover are appended (a fully warm run
/// writes zero bytes), and a differently-keyed file is replaced — a cache
/// file follows its run's key.  Persistence failures are reported but
/// never fail the learning run itself.
fn commit_store(checkout: Option<Checkout>, trie: PrefixTrie) {
    if let Some(checkout) = checkout {
        let path = checkout.path().to_path_buf();
        if let Err(e) = checkout.commit(trie, RetainPolicy::OnlyThisKey) {
            eprintln!(
                "warning: failed to persist observation cache to {}: {e}",
                path.display()
            );
        }
    }
}

fn run_learner<M: MembershipOracle>(
    alphabet: &Alphabet,
    config: &LearnConfig,
    mut membership: CacheOracle<M>,
    prime: &[InputWord],
) -> (LearnedModel, M, PrefixTrie, u64) {
    // Cross-version cache priming: replay the seed words (typically the
    // terminal words of a sibling implementation version's cache entry) as
    // one batch before the learner starts.  The answers come from *this*
    // SUL, so soundness is untouched; the learner's subsequent queries hit
    // the primed trie, and the batch saturates the session engine.  Because
    // the cache answers exactly as the deterministic SUL would, priming
    // never changes the learned model.
    let prime_misses = if prime.is_empty() {
        0
    } else {
        membership.note_phase(QueryPhase::Construction);
        let _ = membership.query_batch(prime);
        membership.misses()
    };
    let mut learner = DTreeLearner::with_strategy(alphabet.clone(), config.sift);
    let mut equivalence = equivalence_oracle(config);
    let result = learner.learn(&mut membership, &mut equivalence);
    let mut stats = result.stats;
    stats.fresh_symbols = membership.fresh_symbols();
    stats.equivalence_tests = equivalence.tests_executed();
    let learned = LearnedModel {
        model: result.model,
        stats,
        distinct_queries: membership.misses() as usize,
    };
    let (inner, trie) = membership.into_parts();
    (learned, inner, trie, prime_misses)
}

/// Learns a Mealy model of `sul` over `alphabet`, sequentially.
///
/// The SUL is borrowed mutably so the caller keeps access to its Oracle
/// Table (and any implementation-specific state) afterwards.
///
/// With [`LearnConfig::cache_path`] set and a SUL that reports a
/// [`Sul::cache_key`], observations persist across runs: a repeat run
/// answers every already-seen membership query from disk
/// (`stats.fresh_symbols == 0` when the cache covers the whole run) while
/// learning a bit-identical model.
pub fn learn_model<S: Sul>(sul: &mut S, alphabet: &Alphabet, config: LearnConfig) -> LearnedModel {
    let cache_key = sul.cache_key();
    let (warm, checkout) = checkout_store(&config, cache_key.as_deref(), alphabet);
    let membership = CacheOracle::with_trie(SulMembershipOracle::new(sul), warm);
    let (learned, _oracle, trie, _) = run_learner(alphabet, &config, membership, &[]);
    commit_store(checkout, trie);
    learned
}

/// Learns a Mealy model over `alphabet` with `config.workers` parallel
/// session workers, each multiplexing `config.max_inflight` concurrent
/// query sessions minted by `factory` on a virtual clock.
///
/// With a fixed seed the learned model — and every query-cost statistic
/// (`fresh_symbols`, `equivalence_tests`, `membership_queries`) — is
/// identical to [`learn_model`]'s on a SUL from the same factory, for any
/// `(workers, max_inflight)`: membership answers are pure and equivalence
/// oracles resolve the first mismatch in suite order, so scheduling moves
/// only virtual time.  The observation cache (see [`learn_model`]) is
/// likewise configuration-independent.
///
/// A panicking worker (or learner) surfaces as a [`LearnError`] instead of
/// poisoning the calling thread.
pub fn learn_model_parallel<F>(
    factory: &F,
    alphabet: &Alphabet,
    config: LearnConfig,
) -> Result<ParallelLearnOutcome<FactorySul<F>>, LearnError>
where
    F: SessionSulFactory,
    F::Session: Send + 'static,
{
    let parallel =
        ParallelSulOracle::spawn_with(factory, config.workers.max(1), config.max_inflight.max(1));
    learn_on_oracle(parallel, factory, alphabet, &config)
}

/// [`learn_model_parallel`] with a structured event sink attached: wire,
/// session and phase events flow into `sink` as the run
/// executes (see [`prognosis_events`]).  With `diagnostics` false the sink
/// receives only the deterministic stream, which is byte-identical across
/// `(workers, max_inflight)` configurations for a fixed scenario.
pub fn learn_model_parallel_with_events<F>(
    factory: &F,
    alphabet: &Alphabet,
    config: LearnConfig,
    sink: Arc<dyn EventSink>,
    diagnostics: bool,
) -> Result<ParallelLearnOutcome<FactorySul<F>>, LearnError>
where
    F: SessionSulFactory,
    F::Session: Send + 'static,
{
    let parallel = ParallelSulOracle::spawn_with_events(
        factory,
        config.workers.max(1),
        config.max_inflight.max(1),
        Some(sink),
        diagnostics,
    );
    learn_on_oracle(parallel, factory, alphabet, &config)
}

fn learn_on_oracle<F>(
    parallel: ParallelSulOracle<F::Session>,
    factory: &F,
    alphabet: &Alphabet,
    config: &LearnConfig,
) -> Result<ParallelLearnOutcome<FactorySul<F>>, LearnError>
where
    F: SessionSulFactory,
    F::Session: Send + 'static,
{
    // A throwaway session reports the cache key; every session from the
    // same factory shares it (the determinism property of §3.2).
    let cache_key = factory.create_session().cache_key();
    let (warm, checkout) = checkout_store(config, cache_key.as_deref(), alphabet);
    let (outcome, trie, _) = learn_and_shut_down(parallel, alphabet, config, warm, &[])?;
    commit_store(checkout, trie);
    Ok(outcome)
}

/// Learns over `parallel` behind a cache holding `warm`, priming it with
/// `prime` first, then shuts the engine down.  Returns the outcome, the
/// final trie and the SUL answers priming cost.  A panic in the learning
/// loop (including a relayed worker death) becomes a [`LearnError`].
fn learn_and_shut_down<Sn: SessionSul + Send + 'static>(
    parallel: ParallelSulOracle<Sn>,
    alphabet: &Alphabet,
    config: &LearnConfig,
    warm: PrefixTrie,
    prime: &[InputWord],
) -> Result<(ParallelLearnOutcome<Sn::Sul>, PrefixTrie, u64), LearnError> {
    let membership = CacheOracle::with_trie(parallel, warm);
    let (learned, parallel, trie, prime_misses) =
        match std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_learner(alphabet, config, membership, prime)
        })) {
            Ok(parts) => parts,
            Err(payload) => return Err(learn_error_from_panic(payload)),
        };
    let sul_stats = parallel.stats();
    let EngineShutdown { suls, engine } = parallel.shutdown()?;
    let outcome = ParallelLearnOutcome {
        learned,
        suls,
        sul_stats,
        engine,
    };
    Ok((outcome, trie, prime_misses))
}

/// The result of a seeded learning run
/// ([`learn_model_parallel_seeded_with_events`]): the regular parallel
/// outcome plus the final observation trie and the cache-priming
/// accounting the campaign's versioned store needs.
pub struct SeededLearnOutcome<S> {
    /// The regular parallel learning outcome.
    pub outcome: ParallelLearnOutcome<S>,
    /// The full observation trie at the end of the run (warm seed ∪ primed
    /// answers ∪ the learner's own queries) — what the caller persists into
    /// its shared store.
    pub trie: PrefixTrie,
    /// Number of seed words replayed before learning started.
    pub primed_words: u64,
    /// Distinct queries the SUL answered *during priming* (0 when the warm
    /// trie already covered every seed word).
    pub prime_misses: u64,
    /// Distinct queries the SUL answered *after* priming — the learner
    /// queries the primed cache did not cover.  `1 − learn_misses /
    /// distinct_queries` is the cross-version cache hit rate.
    pub learn_misses: u64,
}

/// Campaign-shape learning: runs with a caller-supplied warm trie and an
/// explicit set of *priming* words, and hands the final trie back instead
/// of persisting it — the caller (the campaign runner's versioned shared
/// cache) owns persistence.
///
/// `warm` must answer queries exactly as this factory's SULs would (same
/// cache key — the usual warm-start soundness rule).  `prime` may be any
/// word list; the words are replayed against this run's own SULs as one
/// batch before the learner starts, so a *sibling version's* query set can
/// seed this version's cache soundly: shared behaviour becomes warm
/// entries, divergent behaviour shows up as differing answers the caller
/// diffs into regression findings.
///
/// With `sink` set, engine traffic (diagnostics enabled) flows into it:
/// the campaign runner threads its shared sink through here so every
/// cell's engine traffic lands in one log.
pub fn learn_model_parallel_seeded_with_events<F>(
    factory: &F,
    alphabet: &Alphabet,
    config: &LearnConfig,
    warm: PrefixTrie,
    prime: &[InputWord],
    sink: Option<Arc<dyn EventSink>>,
) -> Result<SeededLearnOutcome<FactorySul<F>>, LearnError>
where
    F: SessionSulFactory,
    F::Session: Send + 'static,
{
    let parallel = ParallelSulOracle::spawn_with_events(
        factory,
        config.workers.max(1),
        config.max_inflight.max(1),
        sink,
        true,
    );
    let (outcome, trie, prime_misses) =
        learn_and_shut_down(parallel, alphabet, config, warm, prime)?;
    let learn_misses = (outcome.learned.distinct_queries as u64).saturating_sub(prime_misses);
    Ok(SeededLearnOutcome {
        outcome,
        trie,
        primed_words: prime.len() as u64,
        prime_misses,
        learn_misses,
    })
}

/// Renders a panic payload for error reporting: string payloads verbatim,
/// relayed [`LearnError`]s via their `Display`, anything else generically.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(e) = payload.downcast_ref::<LearnError>() {
        e.to_string()
    } else {
        "panicked with a non-string payload".to_string()
    }
}

fn learn_error_from_panic(payload: Box<dyn std::any::Any + Send>) -> LearnError {
    match payload.downcast::<LearnError>() {
        Ok(error) => *error,
        Err(payload) => LearnError::EnginePanicked {
            message: panic_message(payload.as_ref()),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quic_adapter::{quic_data_alphabet, QuicSul, QuicSulFactory};
    use crate::tcp_adapter::{tcp_alphabet, TcpSul, TcpSulFactory};
    use prognosis_automata::equivalence::machines_equivalent;
    use prognosis_quic_sim::profile::ImplementationProfile;

    #[test]
    fn learns_a_tcp_model_with_a_handful_of_states() {
        let mut sul = TcpSul::with_defaults();
        let config = LearnConfig {
            random_tests: 300,
            max_word_len: 8,
            ..LearnConfig::default()
        };
        let learned = learn_model(&mut sul, &tcp_alphabet(), config);
        // The paper's TCP model has 6 states and 42 transitions; our
        // userspace stack is in the same range (and total over 7 symbols).
        assert!(
            (4..=8).contains(&learned.model.num_states()),
            "unexpected TCP model size: {} states",
            learned.model.num_states()
        );
        assert_eq!(
            learned.model.num_transitions(),
            learned.model.num_states() * 7
        );
        assert!(learned.stats.membership_queries > 0);
        assert!(learned.distinct_queries > 0);
        // The Oracle Table filled up as a side effect of learning.
        sul.reset();
        assert!(!sul.oracle_table().is_empty());
    }

    #[test]
    fn learns_a_quic_model_on_the_reduced_alphabet() {
        let mut sul = QuicSul::new(ImplementationProfile::google(), 3);
        let config = LearnConfig {
            random_tests: 200,
            max_word_len: 8,
            ..LearnConfig::default()
        };
        let learned = learn_model(&mut sul, &quic_data_alphabet(), config);
        assert!(
            learned.model.num_states() >= 3,
            "google data-path model has several states"
        );
        // The initial state ignores everything except INITIAL[CRYPTO].
        let initial_outputs: Vec<String> = quic_data_alphabet()
            .iter()
            .map(|s| {
                learned
                    .model
                    .output(learned.model.initial_state(), s)
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert!(
            initial_outputs
                .iter()
                .filter(|o| o.as_str() == "{}")
                .count()
                >= 2
        );
    }

    #[test]
    fn parallel_tcp_learning_matches_sequential() {
        let config = LearnConfig {
            random_tests: 300,
            max_word_len: 8,
            ..LearnConfig::default()
        };
        let mut sul = TcpSul::with_defaults();
        let sequential = learn_model(&mut sul, &tcp_alphabet(), config.clone());
        let outcome = learn_model_parallel(
            &TcpSulFactory::default(),
            &tcp_alphabet(),
            config.with_workers(4),
        )
        .expect("parallel learning succeeds");
        assert!(
            machines_equivalent(&sequential.model, &outcome.learned.model),
            "4-worker parallel learning must produce a model equivalent to sequential"
        );
        assert_eq!(
            sequential.model.num_states(),
            outcome.learned.model.num_states()
        );
        assert_eq!(
            sequential.stats.membership_queries, outcome.learned.stats.membership_queries,
            "the learner must see the identical query stream in both modes"
        );
        assert_eq!(outcome.suls.len(), 4);
        assert!(outcome.sul_stats.symbols_sent > 0);
        // The workers' Oracle Tables merge into one synthesis input.
        let merged = outcome.merged_oracle_table();
        assert!(!merged.is_empty());
        assert_eq!(
            merged.len(),
            outcome
                .suls
                .iter()
                .map(|s| s.oracle_table().len())
                .sum::<usize>()
        );
    }

    #[test]
    fn parallel_quic_learning_matches_sequential() {
        let config = LearnConfig {
            random_tests: 200,
            max_word_len: 8,
            ..LearnConfig::default()
        };
        let mut sul = QuicSul::new(ImplementationProfile::google(), 3);
        let sequential = learn_model(&mut sul, &quic_data_alphabet(), config.clone());
        let outcome = learn_model_parallel(
            &QuicSulFactory::new(ImplementationProfile::google(), 3),
            &quic_data_alphabet(),
            config.with_workers(4),
        )
        .expect("parallel learning succeeds");
        assert!(
            machines_equivalent(&sequential.model, &outcome.learned.model),
            "4-worker parallel QUIC learning must match sequential"
        );
    }

    #[test]
    fn worker_count_does_not_change_the_model() {
        let config = LearnConfig {
            random_tests: 200,
            max_word_len: 6,
            ..LearnConfig::default()
        };
        let factory = TcpSulFactory::default();
        let baseline =
            learn_model_parallel(&factory, &tcp_alphabet(), config.clone().with_workers(1))
                .expect("parallel learning succeeds");
        for (workers, inflight) in [(2, 1), (3, 1), (1, 4), (2, 8)] {
            let outcome = learn_model_parallel(
                &factory,
                &tcp_alphabet(),
                config
                    .clone()
                    .with_workers(workers)
                    .with_max_inflight(inflight),
            )
            .expect("parallel learning succeeds");
            assert!(
                machines_equivalent(&baseline.learned.model, &outcome.learned.model),
                "(workers, max_inflight) = ({workers}, {inflight}) changed the learned model"
            );
            assert_eq!(
                baseline.learned.stats.fresh_symbols, outcome.learned.stats.fresh_symbols,
                "(workers, max_inflight) = ({workers}, {inflight}) changed the fresh-symbol cost"
            );
            assert_eq!(outcome.suls.len(), workers * inflight);
        }
    }

    #[test]
    fn panicking_suls_surface_as_learn_errors() {
        use crate::session::BlockingSessionFactory;
        use crate::sul::SulFactory;
        use prognosis_automata::alphabet::Symbol;

        struct ExplodingSul;
        impl Sul for ExplodingSul {
            fn step(&mut self, _input: &Symbol) -> Symbol {
                panic!("the wire caught fire");
            }
            fn reset(&mut self) {}
        }
        struct ExplodingFactory;
        impl SulFactory for ExplodingFactory {
            type Sul = ExplodingSul;
            fn create(&self) -> ExplodingSul {
                ExplodingSul
            }
        }

        let config = LearnConfig {
            random_tests: 10,
            max_word_len: 4,
            ..LearnConfig::default()
        };
        let error = match learn_model_parallel(
            &BlockingSessionFactory(ExplodingFactory),
            &tcp_alphabet(),
            config.with_workers(2),
        ) {
            Err(error) => error,
            Ok(_) => panic!("a panicking SUL must produce an error, not a poisoned pipeline"),
        };
        match &error {
            LearnError::WorkerPanicked { message, .. } => {
                assert!(message.contains("the wire caught fire"), "{message}");
            }
            other => panic!("unexpected error variant: {other}"),
        }
    }
}

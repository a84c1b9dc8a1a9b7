//! The campaign executor: one shared engine pool, one shared versioned
//! observation cache, and a pool of task workers draining the DAG's ready
//! set.
//!
//! Learn tasks lease session-worker slots from the shared
//! [`EnginePool`] (several cells learn concurrently on one set of engine
//! threads); diff and property-check tasks fan out the moment their
//! upstream learns complete — there is no global barrier between "all
//! learns" and "all diffs".  Determinism: every task's *inputs* are fixed
//! by the spec (a cell's warm observations come from a snapshot of the
//! shared store taken at campaign start plus its declared baseline's
//! finished trie — never from whichever unrelated cell happened to finish
//! first), every task's *outputs* are schedule-independent (the learning
//! pipeline's worker-count invariance), and the report is assembled in
//! spec order.  Re-running the same spec at any engine size, task-worker
//! count or schedule seed yields byte-identical models, diffs and stats.

use crate::progress::{Progress, ProgressSink};
use crate::report::{model_digest, CampaignReport, CellReport, CheckReport};
use crate::spec::{CampaignSpec, CellSpec, Protocol, SpecError, TaskKind};
use prognosis_analysis::model_diff::{diff_models, ModelDiff};
use prognosis_analysis::properties::check_property;
use prognosis_automata::mealy::MealyMachine;
use prognosis_automata::word::InputWord;
use prognosis_core::engine::EnginePool;
use prognosis_core::net_transport::{LinkConfig, NetworkedSessionFactory};
use prognosis_core::pipeline::{
    learn_model_parallel_seeded_with_events, LearnConfig, LearnError, SeededLearnOutcome,
};
use prognosis_core::quic_adapter::{QuicSul, QuicSulFactory};
use prognosis_core::session::{SessionSulFactory, SimDuration};
use prognosis_core::sul::Sul;
use prognosis_core::tcp_adapter::{TcpSul, TcpSulFactory};
use prognosis_events::{Event, EventSink, Tee};
use prognosis_learner::cache::StoreKey;
use prognosis_learner::journal::{JournalStore, RetainPolicy};
use prognosis_learner::trie::PrefixTrie;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;
use std::sync::{Condvar, Mutex};

/// How the campaign executes (orthogonal to *what* it computes: none of
/// these knobs may change the report).
#[derive(Clone)]
pub struct RunnerConfig {
    /// Threads in the shared engine pool, which hosts the learn tasks'
    /// helper workers (worker 0 of each learn runs on its task's thread).
    /// Clamped up to the per-cell `learn.workers − 1`, so a single learn
    /// task can always assemble a lease, and to at least one.
    pub engine_threads: usize,
    /// Concurrent campaign tasks (each learn task additionally leases
    /// `learn.workers − 1` engine slots while it runs).
    pub task_workers: usize,
    /// Seed permuting which ready task a free worker picks next — the
    /// schedule-independence proptest varies this to shake out ordering
    /// dependencies.
    pub schedule_seed: u64,
    /// Whether to drive the live progress line (still suppressed when
    /// stdout is not a TTY).
    pub progress: bool,
    /// Structured event sink for the whole campaign: task lifecycle and
    /// engine-lease diagnostics plus every learn task's full event
    /// stream (sessions, phases, wire fates).  Concurrent cells share
    /// the sink; each learn's engine emits its queries' events in its own
    /// batch-index order.
    pub events: Option<Arc<dyn EventSink>>,
}

impl fmt::Debug for RunnerConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunnerConfig")
            .field("engine_threads", &self.engine_threads)
            .field("task_workers", &self.task_workers)
            .field("schedule_seed", &self.schedule_seed)
            .field("progress", &self.progress)
            .field("events", &self.events.is_some())
            .finish()
    }
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            engine_threads: 4,
            task_workers: 2,
            schedule_seed: 0,
            progress: true,
            events: None,
        }
    }
}

/// Why a campaign run failed.
#[derive(Clone, Debug)]
pub enum CampaignError {
    /// The spec did not validate.
    Spec(SpecError),
    /// A learn task failed.
    Learn {
        /// The failing task id (`learn:<cell>`).
        task: String,
        /// The underlying engine error.
        error: LearnError,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Spec(e) => write!(f, "invalid campaign spec: {e}"),
            CampaignError::Learn { task, error } => write!(f, "task {task} failed: {error}"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<SpecError> for CampaignError {
    fn from(e: SpecError) -> Self {
        CampaignError::Spec(e)
    }
}

/// sebastiano vigna's splitmix64 — the schedule permutation source.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A finished cell: its report row plus the artifacts downstream tasks
/// read (the model for diffs/checks, the trie for cross-version priming).
struct CellDone {
    report: CellReport,
    model: MealyMachine,
    trie: PrefixTrie,
}

/// The monomorphization boundary: everything the runner needs out of a
/// [`SeededLearnOutcome`], with the session-SUL type erased.
struct LearnBits {
    model: MealyMachine,
    membership_queries: u64,
    equivalence_tests: u64,
    fresh_symbols: u64,
    distinct_queries: u64,
    virtual_elapsed_micros: u64,
    trie: PrefixTrie,
    primed_words: u64,
    prime_misses: u64,
    learn_misses: u64,
}

fn extract_bits<S>(outcome: SeededLearnOutcome<S>) -> LearnBits {
    let learned = &outcome.outcome.learned;
    LearnBits {
        model: learned.model.clone(),
        membership_queries: learned.stats.membership_queries,
        equivalence_tests: learned.stats.equivalence_tests,
        fresh_symbols: learned.stats.fresh_symbols,
        distinct_queries: learned.distinct_queries as u64,
        virtual_elapsed_micros: outcome.outcome.engine.virtual_elapsed_micros,
        trie: outcome.trie,
        primed_words: outcome.primed_words,
        prime_misses: outcome.prime_misses,
        learn_misses: outcome.learn_misses,
    }
}

/// The cell's shared-cache identity: the SUL's own cache key, or `None`
/// for uncacheable cells (impaired links, probabilistic profiles) which
/// learn cold and stay out of the store.
fn cell_cache_key(cell: &CellSpec) -> Option<String> {
    if cell.impairment.is_some() {
        return None;
    }
    match cell.protocol {
        Protocol::Tcp => TcpSul::with_defaults().cache_key(),
        Protocol::Quic => {
            let profile = cell
                .profile
                .clone()
                .expect("validated: QUIC cell has profile");
            let mut sul = QuicSul::new(profile, cell.seed);
            if cell.buggy_retry_client {
                sul = sul.with_buggy_retry_client();
            }
            sul.cache_key()
        }
    }
}

fn link_config(imp: &crate::spec::Impairment) -> LinkConfig {
    LinkConfig::with_latency(SimDuration::from_micros(imp.latency_us))
        .jitter(SimDuration::from_micros(imp.jitter_us))
        .loss(imp.loss)
}

/// Dispatches one cell's learn to the right monomorphized pipeline call.
fn learn_cell(
    pool: &EnginePool,
    learn: &LearnConfig,
    cell: &CellSpec,
    warm: PrefixTrie,
    prime: &[InputWord],
    events: Option<Arc<dyn EventSink>>,
) -> Result<LearnBits, LearnError> {
    let alphabet = cell.effective_alphabet();
    fn go<F>(
        pool: &EnginePool,
        factory: &F,
        alphabet: &prognosis_automata::alphabet::Alphabet,
        learn: &LearnConfig,
        warm: PrefixTrie,
        prime: &[InputWord],
        events: Option<Arc<dyn EventSink>>,
    ) -> Result<LearnBits, LearnError>
    where
        F: SessionSulFactory,
        F::Session: Send + 'static,
    {
        learn_model_parallel_seeded_with_events(pool, factory, alphabet, learn, warm, prime, events)
            .map(extract_bits)
    }
    match (cell.protocol, &cell.impairment) {
        (Protocol::Tcp, None) => go(
            pool,
            &TcpSulFactory::default(),
            &alphabet,
            learn,
            warm,
            prime,
            events,
        ),
        (Protocol::Tcp, Some(imp)) => {
            let factory = NetworkedSessionFactory::new(TcpSulFactory::default(), link_config(imp))
                .with_noise_seed(imp.noise_seed);
            go(pool, &factory, &alphabet, learn, warm, prime, events)
        }
        (Protocol::Quic, impairment) => {
            let profile = cell
                .profile
                .clone()
                .expect("validated: QUIC cell has profile");
            let mut factory = QuicSulFactory::new(profile, cell.seed);
            if cell.buggy_retry_client {
                factory = factory.with_buggy_retry_client();
            }
            match impairment {
                None => go(pool, &factory, &alphabet, learn, warm, prime, events),
                Some(imp) => {
                    let factory = NetworkedSessionFactory::new(factory, link_config(imp))
                        .with_noise_seed(imp.noise_seed);
                    go(pool, &factory, &alphabet, learn, warm, prime, events)
                }
            }
        }
    }
}

/// The baseline's terminal query words, in a deterministic replay order
/// (shortest first, then lexicographic).
fn prime_words(baseline_trie: &PrefixTrie) -> Vec<InputWord> {
    let mut words: Vec<InputWord> = baseline_trie
        .paths()
        .into_iter()
        .filter_map(|(input, _, terminal)| terminal.then_some(input))
        .collect();
    words.sort_by_key(|w| (w.len(), w.to_string()));
    words
}

/// Scheduler state shared by the task workers.
struct Sched {
    ready: Vec<usize>,
    remaining_deps: Vec<usize>,
    in_flight: usize,
    completed: usize,
    failed: Option<CampaignError>,
    picks: u64,
}

/// Runs a validated campaign spec to completion over one shared engine
/// pool and one shared versioned observation cache, returning the
/// spec-ordered report.
pub fn run_campaign(
    spec: &CampaignSpec,
    runner: &RunnerConfig,
) -> Result<CampaignReport, CampaignError> {
    spec.validate()?;
    let graph = spec.build_graph();
    let edges = graph.validate().expect("spec validation covered the graph");
    let total = graph.len();

    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); total];
    let mut remaining_deps = vec![0usize; total];
    for &(task, needed) in &edges {
        remaining_deps[task] += 1;
        dependents[needed].push(task);
    }
    let ready: Vec<usize> = (0..total).filter(|&i| remaining_deps[i] == 0).collect();

    // Every learn task leases `learn.workers − 1` helper slots at once; the
    // pool must be at least that deep or the first lease would wait
    // forever.
    let helpers = spec.learn.workers.saturating_sub(1);
    let pool = EnginePool::new(runner.engine_threads.max(helpers).max(1));

    // Observability spine: the caller's sink (if any) and the live
    // progress line both consume one event stream.  The progress line is
    // itself just another sink — the runner no longer paints directly.
    let progress = Arc::new(ProgressSink::new(
        Progress::forced(runner.progress && Progress::stdout().enabled()),
        total,
        pool.total_slots(),
    ));
    let events: Option<Arc<dyn EventSink>> = {
        let mut sinks: Vec<Arc<dyn EventSink>> = Vec::new();
        if let Some(sink) = &runner.events {
            sinks.push(Arc::clone(sink));
        }
        if progress.enabled() {
            sinks.push(Arc::clone(&progress) as Arc<dyn EventSink>);
        }
        match sinks.len() {
            0 => None,
            1 => sinks.pop(),
            _ => Some(Arc::new(Tee::new(sinks))),
        }
    };
    if let Some(sink) = &events {
        pool.set_event_sink(Arc::clone(sink));
    }

    // The shared journaled store and its warm-start snapshot: cells read
    // the *snapshot* taken here, never the live store, so what a cell
    // learns cannot depend on which unrelated cell finished first.
    // Cross-cell reuse within a run flows only along declared baseline
    // edges.  Finished cells append their observation deltas through the
    // shared handle.
    let store = spec.cache_path.as_ref().map(JournalStore::open_or_empty);
    let initial_entries: BTreeMap<StoreKey, Arc<PrefixTrie>> = store
        .as_ref()
        .map(|s| s.snapshot_entries())
        .unwrap_or_default();

    let state = Mutex::new(Sched {
        ready,
        remaining_deps,
        in_flight: 0,
        completed: 0,
        failed: None,
        picks: 0,
    });
    let ready_cv = Condvar::new();
    let cells_done: Mutex<HashMap<usize, CellDone>> = Mutex::new(HashMap::new());
    let diffs_done: Mutex<Vec<Option<ModelDiff>>> = Mutex::new(vec![None; spec.diffs.len()]);
    let checks_done: Mutex<Vec<Option<CheckReport>>> = Mutex::new(vec![None; spec.checks.len()]);
    let final_report: Mutex<Option<CampaignReport>> = Mutex::new(None);

    let execute = |task: usize| -> Result<(), CampaignError> {
        match graph.nodes()[task].payload {
            TaskKind::Learn(i) => {
                let cell = &spec.cells[i];
                let key = cell_cache_key(cell);
                let alphabet = cell.effective_alphabet();
                // One fully resolved store key per cell: the alphabet is
                // hashed here, once, and threaded through both the warm
                // lookup and the save below.
                let store_key = key
                    .as_deref()
                    .map(|k| StoreKey::new(k, &cell.version, &alphabet));
                let warm = store_key
                    .as_ref()
                    .and_then(|k| initial_entries.get(k))
                    .map(|trie| (**trie).clone())
                    .unwrap_or_default();
                let (prime, baseline_trie) = match &cell.baseline {
                    Some(baseline) => {
                        let b = spec
                            .cells
                            .iter()
                            .position(|c| &c.id == baseline)
                            .expect("validated: baseline exists");
                        let done = cells_done.lock().expect("cell results poisoned");
                        let trie = done
                            .get(&b)
                            .expect("DAG: baseline learn completed first")
                            .trie
                            .clone();
                        (prime_words(&trie), Some(trie))
                    }
                    None => (Vec::new(), None),
                };
                let bits = learn_cell(&pool, &spec.learn, cell, warm, &prime, events.clone())
                    .map_err(|error| CampaignError::Learn {
                        task: graph.nodes()[task].id.clone(),
                        error,
                    })?;
                // Divergent cached answers between the baseline's trie and
                // this cell's own answers are the cross-version regression
                // findings (left = baseline, right = this cell).
                let divergences = match &baseline_trie {
                    Some(b) => b.divergences(&bits.trie, 0),
                    None => Vec::new(),
                };
                if let (Some(store), Some(k)) = (&store, &store_key) {
                    if let Err(e) = store.save_merged(k, &bits.trie, RetainPolicy::All) {
                        eprintln!(
                            "warning: failed to persist shared cache to {}: {e}",
                            store.path().display()
                        );
                    }
                }
                let report = CellReport {
                    id: cell.id.clone(),
                    protocol: cell.protocol.to_string(),
                    profile: cell
                        .profile
                        .as_ref()
                        .map(|p| p.name.clone())
                        .unwrap_or_default(),
                    version: cell.version.clone(),
                    impairment: cell
                        .impairment
                        .as_ref()
                        .map(|i| i.label())
                        .unwrap_or_default(),
                    states: bits.model.num_states(),
                    transitions: bits.model.num_transitions(),
                    model_digest: model_digest(&bits.model),
                    membership_queries: bits.membership_queries,
                    equivalence_tests: bits.equivalence_tests,
                    fresh_symbols: bits.fresh_symbols,
                    distinct_queries: bits.distinct_queries,
                    primed_words: bits.primed_words,
                    prime_misses: bits.prime_misses,
                    learn_misses: bits.learn_misses,
                    cache_hit_rate: if bits.distinct_queries == 0 {
                        1.0
                    } else {
                        1.0 - bits.learn_misses as f64 / bits.distinct_queries as f64
                    },
                    virtual_elapsed_micros: bits.virtual_elapsed_micros,
                    cacheable: key.is_some(),
                    divergences,
                };
                cells_done.lock().expect("cell results poisoned").insert(
                    i,
                    CellDone {
                        report,
                        model: bits.model,
                        trie: bits.trie,
                    },
                );
                Ok(())
            }
            TaskKind::Diff(i) => {
                let diff = &spec.diffs[i];
                let (l, r) = (
                    spec.cells.iter().position(|c| c.id == diff.left).unwrap(),
                    spec.cells.iter().position(|c| c.id == diff.right).unwrap(),
                );
                let (left_model, right_model) = {
                    let done = cells_done.lock().expect("cell results poisoned");
                    (
                        done.get(&l).expect("DAG: left learn done").model.clone(),
                        done.get(&r).expect("DAG: right learn done").model.clone(),
                    )
                };
                let result = diff_models(
                    diff.left.clone(),
                    &left_model,
                    diff.right.clone(),
                    &right_model,
                    spec.max_diffs,
                );
                diffs_done.lock().expect("diff results poisoned")[i] = Some(result);
                Ok(())
            }
            TaskKind::Check(i) => {
                let check = &spec.checks[i];
                let c = spec.cells.iter().position(|x| x.id == check.cell).unwrap();
                let model = {
                    let done = cells_done.lock().expect("cell results poisoned");
                    done.get(&c).expect("DAG: learn done").model.clone()
                };
                let result = check_property(&model, &check.property);
                checks_done.lock().expect("check results poisoned")[i] = Some(CheckReport {
                    cell: check.cell.clone(),
                    check: result,
                });
                Ok(())
            }
            TaskKind::Report => {
                let cells = {
                    let done = cells_done.lock().expect("cell results poisoned");
                    (0..spec.cells.len())
                        .map(|i| done.get(&i).expect("DAG: all learns done").report.clone())
                        .collect()
                };
                let diffs = diffs_done
                    .lock()
                    .expect("diff results poisoned")
                    .iter()
                    .map(|d| d.clone().expect("DAG: all diffs done"))
                    .collect();
                let checks = checks_done
                    .lock()
                    .expect("check results poisoned")
                    .iter()
                    .map(|c| c.clone().expect("DAG: all checks done"))
                    .collect();
                *final_report.lock().expect("report poisoned") = Some(CampaignReport {
                    name: spec.name.clone(),
                    cells,
                    diffs,
                    checks,
                });
                Ok(())
            }
        }
    };

    std::thread::scope(|scope| {
        for _ in 0..runner.task_workers.max(1).min(total) {
            scope.spawn(|| loop {
                let task = {
                    let mut s = state.lock().expect("scheduler poisoned");
                    loop {
                        if s.failed.is_some() || s.completed == total {
                            return;
                        }
                        if !s.ready.is_empty() {
                            let idx = (splitmix64(runner.schedule_seed ^ s.picks) as usize)
                                % s.ready.len();
                            s.picks += 1;
                            let task = s.ready.remove(idx);
                            s.in_flight += 1;
                            break task;
                        }
                        s = ready_cv.wait(s).expect("scheduler poisoned");
                    }
                };
                if let Some(sink) = &events {
                    sink.emit(&Event::TaskStart {
                        id: graph.nodes()[task].id.clone(),
                    });
                }
                let result = execute(task);
                if let Some(sink) = &events {
                    sink.emit(&Event::TaskDone {
                        id: graph.nodes()[task].id.clone(),
                        ok: result.is_ok(),
                    });
                }
                let mut s = state.lock().expect("scheduler poisoned");
                s.in_flight -= 1;
                match result {
                    Ok(()) => {
                        s.completed += 1;
                        for &dep in &dependents[task] {
                            s.remaining_deps[dep] -= 1;
                            if s.remaining_deps[dep] == 0 {
                                s.ready.push(dep);
                            }
                        }
                    }
                    Err(e) => s.failed = Some(e),
                }
                drop(s);
                ready_cv.notify_all();
            });
        }
    });
    if let Some(sink) = &events {
        sink.flush();
    }
    progress.finish();

    let mut s = state.into_inner().expect("scheduler poisoned");
    if let Some(error) = s.failed.take() {
        return Err(error);
    }
    Ok(final_report
        .into_inner()
        .expect("report poisoned")
        .expect("the report task runs last and always"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CellSpec, Impairment};
    use prognosis_analysis::properties::SafetyProperty;

    /// A 3-symbol TCP alphabet keeps unit-test campaigns fast.
    fn small_tcp_cell(id: &str, version: &str) -> CellSpec {
        CellSpec::tcp(id, version).with_alphabet(["SYN(?,?,0)", "ACK(?,?,0)", "FIN+ACK(?,?,0)"])
    }

    fn small_learn() -> LearnConfig {
        LearnConfig {
            random_tests: 150,
            min_word_len: 2,
            max_word_len: 6,
            eq_batch_size: 64,
            ..LearnConfig::default()
        }
    }

    #[test]
    fn a_small_campaign_runs_and_reports_in_spec_order() {
        let spec = CampaignSpec::new("unit")
            .cell(small_tcp_cell("a", "v1"))
            .cell(small_tcp_cell("b", "v1").with_baseline("a"))
            .cell(
                small_tcp_cell("c", "v1").with_impairment(Impairment::latency(100).with_loss(0.02)),
            )
            .diff("a", "b")
            .check("a", SafetyProperty::never_output("NEVER-EMITTED"))
            .with_learn(small_learn());
        let report = run_campaign(
            &spec,
            &RunnerConfig {
                engine_threads: 2,
                task_workers: 2,
                schedule_seed: 1,
                progress: false,
                events: None,
            },
        )
        .expect("campaign succeeds");
        assert_eq!(
            report
                .cells
                .iter()
                .map(|c| c.id.as_str())
                .collect::<Vec<_>>(),
            vec!["a", "b", "c"],
            "spec order, not completion order"
        );
        // Same SUL behind both versions: b is fully primed by a and
        // diverges nowhere.
        let b = &report.cells[1];
        assert!(b.primed_words > 0);
        assert_eq!(b.learn_misses, 0, "a's observations cover b entirely");
        assert!(b.divergences.is_empty());
        assert!((b.cache_hit_rate - 1.0).abs() < 1e-12);
        assert_eq!(report.diffs.len(), 1);
        assert!(report.diffs[0].equivalent, "same SUL ⇒ equivalent models");
        assert!(report.checks[0].check.holds);
        // The impaired cell is uncacheable but still learned.
        let c = &report.cells[2];
        assert!(!c.cacheable);
        assert!(c.states >= 2);
        // Canonical JSON renders.
        assert!(report.canonical_json().contains("\"campaign\""));
    }

    #[test]
    fn learn_failures_surface_as_campaign_errors() {
        // An impaired QUIC mvfst cell is fine, but an invalid spec fails
        // fast: here, a diff across protocols.
        let spec = CampaignSpec::new("bad")
            .cell(small_tcp_cell("a", "v1"))
            .diff("a", "ghost");
        match run_campaign(&spec, &RunnerConfig::default()) {
            Err(CampaignError::Spec(_)) => {}
            other => panic!("expected a spec error, got {other:?}"),
        }
    }
}

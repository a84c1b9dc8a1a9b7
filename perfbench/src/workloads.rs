//! The three workloads: what each learns, on which path, and how its
//! models are checked.

use prognosis_automata::alphabet::Alphabet;
use prognosis_automata::mealy::MealyMachine;
use prognosis_core::net_transport::{LinkConfig, NetworkedSessionFactory};
use prognosis_core::pipeline::{learn_model_parallel_with_events, LearnConfig, LearnedModel};
use prognosis_core::session::SimDuration;
use prognosis_core::{learn_model, learn_model_parallel, quic_alphabet, tcp_alphabet};
use prognosis_core::{QuicSul, QuicSulFactory, TcpSul, TcpSulFactory};
use prognosis_events::rotate::{EventLog, EventLogConfig};
use prognosis_learner::stats::LearningStats;
use prognosis_quic_sim::profile::ImplementationProfile;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Seed of the simulated QUIC server and reference client.
const QUIC_SUL_SEED: u64 = 1;
/// One-way latency and jitter of the `quic-jitter-16x` link.
const JITTER_LINK_MICROS: u64 = 100;
/// Sessions the single `quic-jitter-16x` worker keeps in flight.
pub const JITTER_INFLIGHT: usize = 16;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    TcpCold1w,
    TcpWarmJournal,
    QuicJitter16x,
}

/// What a learn produced.
pub struct Outcome {
    pub model: MealyMachine,
    pub stats: LearningStats,
    /// Virtual makespan of the session engine (threaded workloads only).
    pub virtual_micros: u64,
    /// Bytes the event log received (`quic-jitter-16x` only).
    pub event_bytes: u64,
}

impl From<LearnedModel> for Outcome {
    fn from(learned: LearnedModel) -> Self {
        Outcome {
            model: learned.model,
            stats: learned.stats,
            virtual_micros: 0,
            event_bytes: 0,
        }
    }
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::TcpCold1w,
        Workload::TcpWarmJournal,
        Workload::QuicJitter16x,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TcpCold1w => "tcp-cold-1w",
            Workload::TcpWarmJournal => "tcp-warm-journal",
            Workload::QuicJitter16x => "quic-jitter-16x",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the learn runs the session engine on its own thread, so
    /// the ledger is kept in CPU time rather than wall time.
    pub fn threaded(self) -> bool {
        self != Workload::TcpWarmJournal
    }

    pub fn alphabet(self) -> Alphabet {
        match self {
            Workload::QuicJitter16x => quic_alphabet(),
            Workload::TcpCold1w | Workload::TcpWarmJournal => tcp_alphabet(),
        }
    }

    /// Distinct equivalence-oracle seeds a run cycles through.  Each one
    /// costs a reference learn in set-up (and, on `tcp-warm-journal`, a
    /// journal-filling learn), and their number sets how much the
    /// seed-dependent query counts average out within one run.
    fn pool_size(self) -> usize {
        match self {
            Workload::TcpCold1w => 64,
            // The journal holds every seed's observations, so the pool sets
            // the journal each warm learn loads and saves: 60 seeds is the
            // warm case profiled on the repository (a 60-seed journal,
            // where load and save take most of a warm learn).
            Workload::TcpWarmJournal => 60,
            Workload::QuicJitter16x => 192,
        }
    }

    /// The run's equivalence-oracle seeds, derived from the workload seed.
    pub fn seeds(self, seed: u64) -> Vec<u64> {
        let mut state = seed ^ 0x5EED_BE7C_4000_0000 ^ ((self as u64) << 56);
        (0..self.pool_size())
            .map(|_| splitmix64(&mut state))
            .collect()
    }

    /// The learn configuration for one equivalence-oracle seed.
    pub fn config(self, eq_seed: u64) -> LearnConfig {
        match self {
            // `LearnConfig::default()` (2000 tests of length <= 10), what a
            // `learn_model` user gets: with 60 seeds it fills a 15.5 MB
            // journal.
            Workload::TcpWarmJournal => LearnConfig {
                seed: eq_seed,
                ..LearnConfig::default()
            },
            // 600 tests of length <= 10: the repository's E15
            // latency-modelled rows (`exp_parallel_learning`), which learn
            // the same TCP and google-QUIC models.
            Workload::TcpCold1w | Workload::QuicJitter16x => LearnConfig {
                seed: eq_seed,
                random_tests: 600,
                max_word_len: 10,
                ..LearnConfig::default()
            },
        }
    }
}

/// The google-profile QUIC SUL `quic-jitter-16x` learns.
pub fn google_sul() -> QuicSul {
    QuicSul::new(ImplementationProfile::google(), QUIC_SUL_SEED)
}

pub fn google_factory() -> QuicSulFactory {
    QuicSulFactory::new(ImplementationProfile::google(), QUIC_SUL_SEED)
}

/// The `quic-jitter-16x` link: latency and jitter, no loss.
pub fn jitter_link() -> LinkConfig {
    LinkConfig::with_latency(SimDuration::from_micros(JITTER_LINK_MICROS))
        .jitter(SimDuration::from_micros(JITTER_LINK_MICROS))
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `f`, turning a panic into an error message.
pub fn guarded<R>(f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => Err(payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panicked".to_string())),
    }
}

/// The files one run works in, all under its own directory.
pub struct WorkDir {
    root: PathBuf,
}

impl WorkDir {
    pub fn create(root: PathBuf) -> std::io::Result<WorkDir> {
        std::fs::create_dir_all(&root)?;
        Ok(WorkDir { root })
    }

    pub fn journal(&self) -> PathBuf {
        self.root.join("journal.bin")
    }

    pub fn event_log(&self) -> PathBuf {
        self.root.join("events.jsonl")
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        if let Some(parent) = self.root.parent() {
            // Succeeds only once no other run is using the directory.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The plain in-process sequential learn every timed learn is checked
/// against.
pub fn reference(workload: Workload, eq_seed: u64) -> Result<Outcome, String> {
    guarded(|| {
        let config = workload.config(eq_seed);
        Ok(match workload {
            Workload::QuicJitter16x => learn_model(&mut google_sul(), &quic_alphabet(), config),
            Workload::TcpCold1w | Workload::TcpWarmJournal => {
                learn_model(&mut TcpSul::with_defaults(), &tcp_alphabet(), config)
            }
        }
        .into())
    })
}

/// Fills the journal with one cold learn per seed (`tcp-warm-journal`).
/// Each fill is a cold sequential `learn_model` on a fresh `TcpSul` that
/// only persists what it learned, so its outcome is the seed's reference.
pub fn fill_journal(
    workload: Workload,
    seeds: &[u64],
    journal: &Path,
) -> Result<Vec<Outcome>, String> {
    let _ = std::fs::remove_file(journal);
    seeds
        .iter()
        .map(|&eq_seed| {
            guarded(|| {
                let config = LearnConfig {
                    warm_start: false,
                    ..workload.config(eq_seed).with_cache_path(path_str(journal)?)
                };
                Ok(learn_model(&mut TcpSul::with_defaults(), &tcp_alphabet(), config).into())
            })
        })
        .collect()
}

pub fn path_str(path: &Path) -> Result<String, String> {
    path.to_str()
        .map(str::to_string)
        .ok_or_else(|| format!("work path {} is not UTF-8", path.display()))
}

/// Opens a fresh event log at `path` for one learn, capped high enough
/// that it never rotates within the learn.
pub fn fresh_event_log(path: &Path) -> Result<EventLog, String> {
    let _ = std::fs::remove_file(path);
    EventLog::open(
        EventLogConfig::new(path)
            .with_max_file_bytes(1 << 32)
            .with_max_total_bytes(1 << 32),
    )
    .map_err(|e| format!("cannot open event log {}: {e}", path.display()))
}

/// The size of the event log at `path`, removing it.
pub fn close_event_log(log: Arc<EventLog>, path: &Path) -> Result<u64, String> {
    if Arc::strong_count(&log) != 1 {
        return Err("event log still shared after the learn".to_string());
    }
    let io_errors = log.io_errors();
    drop(log);
    if io_errors > 0 {
        return Err(format!("event log lost {io_errors} writes"));
    }
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    let _ = std::fs::remove_file(path);
    Ok(bytes)
}

/// One untraced learn, exactly as a user of the pipeline runs it.
pub fn learn(workload: Workload, eq_seed: u64, work: &WorkDir) -> Result<Outcome, String> {
    let config = workload.config(eq_seed);
    guarded(|| match workload {
        Workload::TcpWarmJournal => {
            let config = config.with_cache_path(path_str(&work.journal())?);
            Ok(learn_model(&mut TcpSul::with_defaults(), &tcp_alphabet(), config).into())
        }
        Workload::TcpCold1w => {
            let outcome = learn_model_parallel(
                &TcpSulFactory::default(),
                &tcp_alphabet(),
                config.with_workers(1).with_max_inflight(1),
            )
            .map_err(|e| e.to_string())?;
            Ok(Outcome {
                virtual_micros: outcome.engine.virtual_elapsed_micros,
                ..outcome.learned.into()
            })
        }
        Workload::QuicJitter16x => {
            let path = work.event_log();
            let log = Arc::new(fresh_event_log(&path)?);
            let factory = NetworkedSessionFactory::new(google_factory(), jitter_link());
            let result = learn_model_parallel_with_events(
                &factory,
                &quic_alphabet(),
                config.with_workers(1).with_max_inflight(JITTER_INFLIGHT),
                log.clone(),
                true,
            );
            let event_bytes = close_event_log(log, &path)?;
            let outcome = result.map_err(|e| e.to_string())?;
            Ok(Outcome {
                virtual_micros: outcome.engine.virtual_elapsed_micros,
                event_bytes,
                ..outcome.learned.into()
            })
        }
    })
}

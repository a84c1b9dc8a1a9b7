//! The one experiment runner behind every engine bench.
//!
//! A [`Scenario`] names what to learn (factory, alphabet, [`LearnConfig`]),
//! on which [`Shape`] and how many times; [`Scenario::run`] times each
//! learn on the wall and process-CPU clocks and returns a [`Run`], whose
//! [`Run::row`] is the fixed-schema row the experiments record in
//! `BENCH_learning.json`.

use prognosis_automata::alphabet::Alphabet;
use prognosis_campaign::model_digest;
use prognosis_core::latency::LatencySulFactory;
use prognosis_core::net_transport::NetworkedSessionFactory;
use prognosis_core::pipeline::{learn_model, learn_model_parallel, LearnConfig, LearnedModel};
use prognosis_core::quic_adapter::QuicSulFactory;
use prognosis_core::session::{EngineStats, SessionSulFactory};
use prognosis_core::sul::{Sul, SulFactory};
use prognosis_core::tcp_adapter::TcpSulFactory;
use prognosis_events::json::Value;

/// The keys of every [`Run::row`], in order.  The first eight are
/// deterministic for a fixed scenario (the last three of them are `null`
/// when the run has no engine or no virtual clock), the next four are
/// timed over the repeats.
pub const ROW_KEYS: [&str; 13] = [
    "digest",
    "states",
    "membership_queries",
    "fresh_symbols",
    "sul_symbols",
    "virtual_seconds",
    "clock_advances",
    "occupancy",
    "wall_s_p50",
    "wall_s_iqr",
    "cpu_s_p50",
    "cpu_s_iqr",
    "repeats",
];

/// How a scenario dispatches its membership queries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// [`learn_model`] on one blocking SUL, with no engine.
    Sequential,
    /// [`learn_model_parallel`] on `workers` × `max_inflight` session slots.
    Engine {
        /// Scheduler workers.
        workers: usize,
        /// Session slots per worker.
        max_inflight: usize,
    },
}

/// One learning scenario: what to learn, on which shape, how many times.
#[derive(Clone, Debug)]
pub struct Scenario<F> {
    /// Mints the SULs (or engine sessions) the scenario learns.
    pub factory: F,
    /// The input alphabet.
    pub alphabet: Alphabet,
    /// The learning configuration; the shape overrides its `workers` and
    /// `max_inflight`.
    pub config: LearnConfig,
    /// Sequential or engine-shaped dispatch.
    pub shape: Shape,
    /// Timed learns per run.
    pub repeats: usize,
}

impl<F> Scenario<F> {
    /// A sequential, one-repeat scenario.
    pub fn new(factory: F, alphabet: Alphabet, config: LearnConfig) -> Self {
        Scenario {
            factory,
            alphabet,
            config,
            shape: Shape::Sequential,
            repeats: 1,
        }
    }

    /// The same scenario on `workers` × `max_inflight` engine slots.
    pub fn engine(self, workers: usize, max_inflight: usize) -> Self {
        let shape = Shape::Engine {
            workers,
            max_inflight,
        };
        Scenario { shape, ..self }
    }

    /// The same scenario timed over `repeats` learns.
    pub fn repeats(self, repeats: usize) -> Self {
        Scenario { repeats, ..self }
    }

    /// The configuration a learn of this scenario runs with.
    pub fn shaped_config(&self) -> LearnConfig {
        match self.shape {
            Shape::Sequential => self.config.clone(),
            Shape::Engine {
                workers,
                max_inflight,
            } => self
                .config
                .clone()
                .with_workers(workers)
                .with_max_inflight(max_inflight),
        }
    }
}

impl<F: ScenarioFactory> Scenario<F>
where
    F::Session: Send + 'static,
{
    /// Learns the scenario `repeats` times, timing each learn.  Every
    /// repeat must learn the same model at the same query cost, in the
    /// same virtual seconds and with the same engine books; the run keeps
    /// the first repeat's outcome and every repeat's timings.
    ///
    /// # Panics
    ///
    /// When a repeat learns differently, when learning fails, or when a
    /// sequential scenario's factory makes engine sessions only.
    pub fn run(&self) -> Run {
        let mut first: Option<Run> = None;
        let (mut wall, mut cpu) = (Vec::new(), Vec::new());
        for _ in 0..self.repeats.max(1) {
            let start = (std::time::Instant::now(), process_cpu_seconds());
            let run = self.learn();
            wall.push(start.0.elapsed().as_secs_f64());
            cpu.push(process_cpu_seconds() - start.1);
            match &first {
                None => first = Some(run),
                Some(first) => {
                    assert!(
                        first.learned.model == run.learned.model
                            && first.learned.stats == run.learned.stats
                            && first.sul_symbols == run.sul_symbols,
                        "a repeat of the {:?} scenario learned a different model or query cost",
                        self.shape
                    );
                    assert!(
                        first.virtual_seconds == run.virtual_seconds && first.engine == run.engine,
                        "a repeat of the {:?} scenario changed its virtual seconds or engine books",
                        self.shape
                    );
                }
            }
        }
        Run {
            wall,
            cpu,
            ..first.expect("at least one repeat")
        }
    }

    fn learn(&self) -> Run {
        let config = self.shaped_config();
        match self.shape {
            Shape::Sequential => self
                .factory
                .learn_blocking(&self.alphabet, config)
                .expect("this factory makes engine sessions only"),
            Shape::Engine { .. } => {
                let outcome = learn_model_parallel(&self.factory, &self.alphabet, config)
                    .expect("parallel learning succeeds");
                Run::untimed(
                    outcome.learned,
                    outcome.sul_stats.symbols_sent,
                    Some(outcome.engine.virtual_elapsed_micros as f64 / 1e6),
                    Some(outcome.engine),
                )
            }
        }
    }
}

/// A factory the runner can learn from.  Every factory runs on the
/// session engine; one that can also make a blocking SUL learns
/// sequentially too.
pub trait ScenarioFactory: SessionSulFactory {
    /// One untimed [`learn_model`] on a fresh blocking SUL from this
    /// factory, or `None` when the factory makes engine sessions only.
    fn learn_blocking(&self, _alphabet: &Alphabet, _config: LearnConfig) -> Option<Run> {
        None
    }
}

/// [`learn_model`] on `sul`, with the virtual seconds `clock` reads off the
/// SUL afterwards.
fn learn_on<S: Sul>(
    mut sul: S,
    alphabet: &Alphabet,
    config: LearnConfig,
    clock: impl Fn(&S) -> Option<f64>,
) -> Option<Run> {
    let learned = learn_model(&mut sul, alphabet, config);
    let symbols = sul.stats().symbols_sent;
    Some(Run::untimed(learned, symbols, clock(&sul), None))
}

impl ScenarioFactory for TcpSulFactory {
    fn learn_blocking(&self, alphabet: &Alphabet, config: LearnConfig) -> Option<Run> {
        learn_on(self.create(), alphabet, config, |_| None)
    }
}

impl ScenarioFactory for QuicSulFactory {
    fn learn_blocking(&self, alphabet: &Alphabet, config: LearnConfig) -> Option<Run> {
        learn_on(self.create(), alphabet, config, |_| None)
    }
}

impl<F: SulFactory> ScenarioFactory for LatencySulFactory<F> {
    fn learn_blocking(&self, alphabet: &Alphabet, config: LearnConfig) -> Option<Run> {
        // The blocking path pays every simulated round trip serially.
        learn_on(self.create(), alphabet, config, |sul| {
            Some(sul.virtual_elapsed().as_micros() as f64 / 1e6)
        })
    }
}

impl<F> ScenarioFactory for NetworkedSessionFactory<F> where Self: SessionSulFactory {}

/// The outcome of [`Scenario::run`]: the first repeat's learn plus every
/// repeat's timings.
#[derive(Clone, Debug)]
pub struct Run {
    /// The learned model and learner statistics.
    pub learned: LearnedModel,
    /// Abstract input symbols the SULs executed.
    pub sul_symbols: u64,
    /// Virtual seconds of the run: the engine's makespan, or a blocking
    /// latency-modelled SUL's serial round trips; `None` without a
    /// virtual clock.
    pub virtual_seconds: Option<f64>,
    /// Session-engine statistics; `None` for a sequential run.
    pub engine: Option<EngineStats>,
    /// Wall-clock seconds of each repeat.
    pub wall: Vec<f64>,
    /// Process-CPU seconds (all threads) of each repeat.
    pub cpu: Vec<f64>,
}

impl Run {
    fn untimed(
        learned: LearnedModel,
        sul_symbols: u64,
        virtual_seconds: Option<f64>,
        engine: Option<EngineStats>,
    ) -> Run {
        Run {
            learned,
            sul_symbols,
            virtual_seconds,
            engine,
            wall: Vec::new(),
            cpu: Vec::new(),
        }
    }

    /// The fastest repeat's wall-clock seconds.
    pub fn best_wall(&self) -> f64 {
        self.wall.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// SUL symbols per virtual second.
    ///
    /// # Panics
    ///
    /// When the run has no virtual clock.
    pub fn virtual_throughput(&self) -> f64 {
        let seconds = self.virtual_seconds.expect("the run has a virtual clock");
        self.sul_symbols as f64 / seconds.max(1e-9)
    }

    /// The fixed-schema row: the [`ROW_KEYS`] in order.
    pub fn row(&self) -> Value {
        let (wall_p50, wall_iqr) = p50_iqr(&self.wall);
        let (cpu_p50, cpu_iqr) = p50_iqr(&self.cpu);
        let engine = self.engine.as_ref();
        let values = [
            Value::Str(format!("{:#018x}", model_digest(&self.learned.model))),
            Value::U64(self.learned.model.num_states() as u64),
            Value::U64(self.learned.stats.membership_queries),
            Value::U64(self.learned.stats.fresh_symbols),
            Value::U64(self.sul_symbols),
            self.virtual_seconds.map_or(Value::Null, Value::F64),
            engine.map_or(Value::Null, |e| Value::U64(e.clock_advances)),
            engine.map_or(Value::Null, |e| Value::F64(e.occupancy())),
            Value::F64(wall_p50),
            Value::F64(wall_iqr),
            Value::F64(cpu_p50),
            Value::F64(cpu_iqr),
            Value::U64(self.wall.len() as u64),
        ];
        Value::Map(ROW_KEYS.iter().map(|k| k.to_string()).zip(values).collect())
    }

    /// A one-line report rendering of the row.
    pub fn summary(&self) -> String {
        let mut line = format!(
            "{} states, {} queries, {} fresh / {} SUL symbols, {:.4} s wall p50",
            self.learned.model.num_states(),
            self.learned.stats.membership_queries,
            self.learned.stats.fresh_symbols,
            self.sul_symbols,
            p50_iqr(&self.wall).0
        );
        if let Some(seconds) = self.virtual_seconds {
            line += &format!(", {seconds:.4} virtual s");
        }
        if let Some(engine) = &self.engine {
            line += &format!(", occupancy {:.2}", engine.occupancy());
        }
        line
    }
}

/// The median and interquartile range of `samples` (linear interpolation
/// between order statistics).
fn p50_iqr(samples: &[f64]) -> (f64, f64) {
    if samples.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quantile = |q: f64| {
        let position = q * sorted.len().saturating_sub(1) as f64;
        let (lo, hi) = (position.floor() as usize, position.ceil() as usize);
        sorted[lo] + (sorted[hi] - sorted[lo]) * (position - lo as f64)
    };
    (quantile(0.5), quantile(0.75) - quantile(0.25))
}

/// Process CPU time (all threads) in seconds.  Host preemption inflates
/// wall time by tens of percent on a busy host but never touches this
/// clock, and on an idle host the two agree.
#[allow(unsafe_code)]
pub(crate) fn process_cpu_seconds() -> f64 {
    #[cfg(target_os = "linux")]
    {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clk: i32, tp: *mut Timespec) -> i32;
        }
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } == 0 {
            return ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9;
        }
    }
    // Non-Linux fallback: wall clock (monotonic since an arbitrary epoch,
    // which is all the deltas need).
    use std::sync::OnceLock;
    static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();
    EPOCH
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_secs_f64()
}

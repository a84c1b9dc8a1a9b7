//! The event-driven session layer: non-blocking SULs on virtual time.
//!
//! Prognosis's learning wall-clock is dominated by membership-query round
//! trips (§4.1), and a blocking `Sul::step` pins a whole worker thread to a
//! single in-flight query for the duration of every round trip.  This
//! module replaces that execution model with *sessions*: a [`SessionSul`]
//! is a query-in-progress state machine that is **started** and then
//! **polled** against a virtual clock — it either has an output symbol
//! [`SessionPoll::Ready`] or names the deadline at which it next wants
//! attention ([`SessionPoll::Pending`]).  Nothing ever sleeps: the
//! [`SessionScheduler`] polls a pending session again only once its clock
//! has reached the deadline it named, and when no in-flight session is due
//! it advances that clock straight to the earliest deadline.  The
//! scheduler owns its worker's virtual time: sessions, and the network
//! they may share, only ever see the `now` it hands them.  One worker thread can therefore keep `max_inflight`
//! simulated round trips in the air at once, which is where throughput
//! under latency comes from — more in-flight requests, not more threads.
//!
//! Determinism is preserved by construction: membership answers are pure
//! (§3.2 property 3) and each query runs on its own session, so *when* a
//! session is polled never changes *what* it answers — only the virtual
//! timestamps move.  Polls a session skips before its deadline would have
//! reported the same deadline (the [`SessionPoll::Pending`] contract).

use crate::sul::{Sul, SulFactory, SulStats};
use prognosis_automata::alphabet::Symbol;
use prognosis_automata::word::{InputWord, OutputWord};
use prognosis_events::{Event, ScopedSink, CLOCK_SAMPLE_EVERY};
use std::ops::Range;
use std::sync::Arc;

pub use prognosis_learner::oracle::QueryPhase;
pub use prognosis_netsim::time::{SimDuration, SimTime};

/// The result of polling an in-flight session step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionPoll {
    /// The step completed with this output symbol.
    Ready(Symbol),
    /// The step is still in flight; there is no point polling again before
    /// `wake_at` on the scheduler's clock.
    ///
    /// This is a contract, not a hint: the [`SessionScheduler`] does not
    /// poll the session again before `wake_at`, so until then the session
    /// must not change its answer or its wake instant — short of being
    /// started or reset — whatever else happens on a shared substrate in
    /// the meantime.
    Pending {
        /// The earliest virtual instant at which the step can complete.
        wake_at: SimTime,
    },
}

/// A non-blocking system under learning: a query session driven by
/// start/poll pairs on a virtual clock instead of blocking `step` calls.
///
/// The protocol is strict: `start_reset` begins a query (and returns when
/// the session is ready for its first symbol), then for each input symbol
/// `start_step` is called exactly once followed by `poll_step` until it
/// returns [`SessionPoll::Ready`].  A session serves one query at a time;
/// concurrency comes from a scheduler multiplexing *many sessions*.
pub trait SessionSul {
    /// The blocking SUL type handed back when the session is torn down
    /// (so adapter-side state such as the Oracle Table survives).
    type Sul: Sul;

    /// Begins a reset at virtual time `now`; returns the instant the
    /// session is ready for the next query's first symbol.
    fn start_reset(&mut self, now: SimTime) -> SimTime;

    /// Begins one abstract input symbol step at virtual time `now`.
    fn start_step(&mut self, input: &Symbol, now: SimTime);

    /// Polls the in-flight step at virtual time `now`.
    ///
    /// After a [`SessionPoll::Pending`] the scheduler polls again no earlier
    /// than the `wake_at` it named, so any poll before that instant must
    /// return the same `Pending` (the contract on [`SessionPoll::Pending`]).
    fn poll_step(&mut self, now: SimTime) -> SessionPoll;

    /// Interaction counters of the underlying SUL.
    fn stats(&self) -> SulStats;

    /// The underlying SUL's cross-run cache key (see [`Sul::cache_key`]).
    fn cache_key(&self) -> Option<String>;

    /// Announces that the query begun by the next
    /// [`SessionSul::start_reset`] records its events.  A no-op by
    /// default; sessions that own instrumentable substrate (e.g. a
    /// simulated network) record its events until
    /// [`SessionSul::end_event_scope`].
    fn begin_event_scope(&mut self) {}

    /// Ends the current query's event scope, appending the events it
    /// recorded to `events`.  A no-op by default.
    fn end_event_scope(&mut self, _events: &mut Vec<Event>) {}

    /// Tears the session down, returning the underlying SUL.  Callers
    /// should [`SessionSul::start_reset`] first so any pending adapter-side
    /// state (e.g. the last query's Oracle-Table entry) is flushed.
    fn into_sul(self) -> Self::Sul;
}

/// A blocking SUL whose adapter also exposes a deadline-based step path on
/// the virtual clock: the step's answer is computed eagerly (answers are
/// pure) but only becomes *visible* at the returned deadline, which is what
/// an event-driven scheduler needs to overlap many round trips.
pub trait TimedSul: Sul {
    /// Performs one step as of virtual time `now`, returning the output
    /// and the instant it is available.
    fn step_at(&mut self, input: &Symbol, now: SimTime) -> (Symbol, SimTime);

    /// Performs a reset as of `now`, returning the instant the SUL is
    /// ready again.
    fn reset_at(&mut self, now: SimTime) -> SimTime;
}

/// The blanket adapter that lifts any blocking [`Sul`] into the session
/// protocol: steps compute synchronously and are ready immediately (an
/// in-process simulator answers in microseconds of real time and zero
/// virtual time).
pub struct BlockingSession<S> {
    inner: S,
    pending: Option<Symbol>,
}

impl<S: Sul> BlockingSession<S> {
    /// Wraps a blocking SUL.
    pub fn new(inner: S) -> Self {
        BlockingSession {
            inner,
            pending: None,
        }
    }
}

impl<S: Sul> SessionSul for BlockingSession<S> {
    type Sul = S;

    fn start_reset(&mut self, now: SimTime) -> SimTime {
        self.inner.reset();
        now
    }

    fn start_step(&mut self, input: &Symbol, _now: SimTime) {
        debug_assert!(self.pending.is_none(), "step started twice");
        self.pending = Some(self.inner.step(input));
    }

    fn poll_step(&mut self, _now: SimTime) -> SessionPoll {
        SessionPoll::Ready(self.pending.take().expect("poll_step without start_step"))
    }

    fn stats(&self) -> SulStats {
        self.inner.stats()
    }

    fn cache_key(&self) -> Option<String> {
        self.inner.cache_key()
    }

    fn into_sul(self) -> S {
        self.inner
    }
}

/// The session adapter for [`TimedSul`]s: a deadline-based state machine.
/// `start_step` computes the answer and records its availability deadline;
/// `poll_step` surrenders it once the clock has reached the deadline and
/// otherwise reports exactly when to come back.
pub struct TimedSession<S> {
    inner: S,
    pending: Option<(Symbol, SimTime)>,
}

impl<S: TimedSul> TimedSession<S> {
    /// Wraps a timed SUL.
    pub fn new(inner: S) -> Self {
        TimedSession {
            inner,
            pending: None,
        }
    }
}

impl<S: TimedSul> SessionSul for TimedSession<S> {
    type Sul = S;

    fn start_reset(&mut self, now: SimTime) -> SimTime {
        self.inner.reset_at(now)
    }

    fn start_step(&mut self, input: &Symbol, now: SimTime) {
        debug_assert!(self.pending.is_none(), "step started twice");
        self.pending = Some(self.inner.step_at(input, now));
    }

    fn poll_step(&mut self, now: SimTime) -> SessionPoll {
        let (_, ready_at) = *self.pending.as_ref().expect("poll_step without start_step");
        if now >= ready_at {
            let (output, _) = self.pending.take().expect("checked above");
            SessionPoll::Ready(output)
        } else {
            SessionPoll::Pending { wake_at: ready_at }
        }
    }

    fn stats(&self) -> SulStats {
        self.inner.stats()
    }

    fn cache_key(&self) -> Option<String> {
        self.inner.cache_key()
    }

    fn into_sul(self) -> S {
        self.inner
    }
}

/// Mints independent query sessions.  The session-engine analogue of
/// [`SulFactory`]: each session owns an independent SUL instance, so a
/// scheduler with `max_inflight` sessions holds `max_inflight` SULs.
pub trait SessionSulFactory {
    /// The session type this factory creates.
    type Session: SessionSul;

    /// Creates a fresh, independent session in its initial state.
    fn create_session(&self) -> Self::Session;

    /// Mints the whole session group one scheduler worker multiplexes.
    /// The default mints `count` independent sessions; transports whose
    /// sessions share per-worker substrate — one `netsim` network per
    /// worker ([`crate::net_transport::NetworkedSessionFactory`]) —
    /// override this so the group lives on one substrate, driven by the
    /// `now` its [`SessionScheduler`] hands every session call.
    fn create_worker_sessions(&self, count: usize) -> Vec<Self::Session> {
        (0..count).map(|_| self.create_session()).collect()
    }
}

impl<F: SessionSulFactory + ?Sized> SessionSulFactory for &F {
    type Session = F::Session;

    fn create_session(&self) -> Self::Session {
        (**self).create_session()
    }

    fn create_worker_sessions(&self, count: usize) -> Vec<Self::Session> {
        (**self).create_worker_sessions(count)
    }
}

/// Lifts any [`SulFactory`] into a [`SessionSulFactory`] via the blocking
/// adapter.  Factories whose SULs have a genuinely timed step path
/// (`TcpSulFactory`, `QuicSulFactory`, `LatencySulFactory`) provide their
/// own deadline-based impls instead.
#[derive(Clone, Debug, Default)]
pub struct BlockingSessionFactory<F>(pub F);

impl<F: SulFactory> SessionSulFactory for BlockingSessionFactory<F> {
    type Session = BlockingSession<F::Sul>;

    fn create_session(&self) -> Self::Session {
        BlockingSession::new(self.0.create())
    }
}

/// Occupancy and progress counters of one [`SessionScheduler`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Queries completed by this scheduler.
    pub queries_completed: u64,
    /// Times the scheduler jumped its clock to the next deadline (one
    /// "timer fire" of the event loop).
    pub clock_advances: u64,
    /// Integral of in-flight sessions over the virtual waits, in
    /// session-microseconds: how much simulated round-trip time was kept
    /// in flight (the quantity multiplexing exists to maximize).
    pub busy_session_micros: u64,
    /// Peak number of concurrently in-flight sessions.
    pub peak_inflight: u64,
    /// Virtual time elapsed on this scheduler's clock since construction
    /// (it starts at [`SimTime::ZERO`]).
    pub virtual_elapsed_micros: u64,
}

/// The three learning phases, in a fixed order for iteration.
pub const ALL_PHASES: [QueryPhase; 3] = [
    QueryPhase::Construction,
    QueryPhase::Counterexample,
    QueryPhase::Equivalence,
];

/// The phase's stable name in the structured event stream.
pub fn phase_name(phase: QueryPhase) -> &'static str {
    match phase {
        QueryPhase::Construction => "construction",
        QueryPhase::Counterexample => "counterexample",
        QueryPhase::Equivalence => "equivalence",
    }
}

/// Per-learning-phase slice of the engine's dispatch accounting: how many
/// batches/queries the phase issued and how much session time it kept in
/// flight.  This is what makes the sift wavefront measurable — before it,
/// the construction phase dispatched batches of 1 and its occupancy sat
/// at ~`1/max_inflight`.
///
/// Every field is a sum over the phase's dispatches.  A dispatch blocks
/// until its whole batch is answered and a worker's clock moves only while
/// it has queries in flight, so a dispatch's busy/virtual deltas are
/// exactly its own queries' share — the same deltas each `occupancy` event
/// carries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Membership batches dispatched during this phase.
    pub batches: u64,
    /// Queries dispatched during this phase.
    pub queries: u64,
    /// In-flight session-microseconds accrued by this phase's queries.
    pub busy_micros: u64,
    /// Summed worker virtual-time advance while this phase's batches ran
    /// (the phase's occupancy denominator before multiplying by
    /// `max_inflight`; for a single-worker engine this is the phase's
    /// virtual elapsed time).
    pub worker_micros: u64,
}

impl PhaseStats {
    /// Mean slot occupancy of this phase's queries during its active
    /// windows, for the given slot cap.
    pub fn occupancy(&self, max_inflight: u64) -> f64 {
        let capacity = self.worker_micros.saturating_mul(max_inflight.max(1));
        if capacity == 0 {
            0.0
        } else {
            self.busy_micros as f64 / capacity as f64
        }
    }

    /// Mean dispatched batch size during this phase.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.queries as f64 / self.batches as f64
        }
    }
}

/// Aggregated engine statistics across all workers of a parallel oracle.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EngineStats {
    /// Worker threads (schedulers).
    pub workers: u64,
    /// Session slots per worker.
    pub max_inflight: u64,
    /// Queries completed across all workers.
    pub queries_completed: u64,
    /// Clock advances (event-loop timer fires) across all workers.
    pub clock_advances: u64,
    /// Total in-flight session-microseconds across all workers.
    pub busy_session_micros: u64,
    /// Peak concurrently in-flight sessions on any single worker.
    pub peak_inflight: u64,
    /// Virtual elapsed time of the slowest worker — the run's virtual
    /// makespan, the denominator of virtual-time throughput.
    pub virtual_elapsed_micros: u64,
    /// Sum of all workers' virtual elapsed times (occupancy denominator).
    pub worker_virtual_micros: u64,
    /// Worker replies the dispatcher took in: one per worker with a
    /// non-empty share of a batch, worker 0's run on the learner's thread
    /// included, so `queries_completed / reply_messages` is the answers
    /// each reply carried.  A one-worker engine counts one reply per
    /// batch.
    pub reply_messages: u64,
    /// Dispatch accounting for hypothesis-construction queries.
    pub construction: PhaseStats,
    /// Dispatch accounting for counterexample-decomposition probes.
    pub counterexample: PhaseStats,
    /// Dispatch accounting for equivalence-suite queries.
    pub equivalence: PhaseStats,
}

impl EngineStats {
    /// Folds one worker's scheduler counters into the aggregate.
    pub fn absorb(&mut self, s: &SchedulerStats) {
        self.queries_completed += s.queries_completed;
        self.clock_advances += s.clock_advances;
        self.busy_session_micros += s.busy_session_micros;
        self.peak_inflight = self.peak_inflight.max(s.peak_inflight);
        self.virtual_elapsed_micros = self.virtual_elapsed_micros.max(s.virtual_elapsed_micros);
        self.worker_virtual_micros += s.virtual_elapsed_micros;
    }

    /// Records one dispatched batch: its size and busy/worker deltas into
    /// the phase's [`PhaseStats`].
    pub fn record_dispatch(
        &mut self,
        phase: QueryPhase,
        batch_size: u64,
        busy_micros: u64,
        worker_micros: u64,
    ) {
        let stats = self.phase_mut(phase);
        stats.batches += 1;
        stats.queries += batch_size;
        stats.busy_micros += busy_micros;
        stats.worker_micros += worker_micros;
    }

    /// Batches dispatched, across all phases.
    pub fn batches(&self) -> u64 {
        ALL_PHASES.iter().map(|&p| self.phase(p).batches).sum()
    }

    /// The dispatch accounting of one learning phase.
    pub fn phase(&self, phase: QueryPhase) -> &PhaseStats {
        match phase {
            QueryPhase::Construction => &self.construction,
            QueryPhase::Counterexample => &self.counterexample,
            QueryPhase::Equivalence => &self.equivalence,
        }
    }

    fn phase_mut(&mut self, phase: QueryPhase) -> &mut PhaseStats {
        match phase {
            QueryPhase::Construction => &mut self.construction,
            QueryPhase::Counterexample => &mut self.counterexample,
            QueryPhase::Equivalence => &mut self.equivalence,
        }
    }

    /// The virtual makespan of the run.
    pub fn virtual_elapsed(&self) -> SimDuration {
        SimDuration::from_micros(self.virtual_elapsed_micros)
    }

    /// Mean fraction of session slots that were kept in flight while the
    /// engine waited on virtual round trips (1.0 = every slot of every
    /// worker busy for the whole run).
    pub fn occupancy(&self) -> f64 {
        let capacity = self
            .worker_virtual_micros
            .saturating_mul(self.max_inflight.max(1));
        if capacity == 0 {
            0.0
        } else {
            self.busy_session_micros as f64 / capacity as f64
        }
    }
}

/// One query being executed by a session slot.  The input arrives as a
/// shared handle: the same allocation travels from the learner through the
/// work queue to the slot without a per-query word clone.
struct ActiveJob {
    index: usize,
    input: Arc<InputWord>,
    position: usize,
    output: OutputWord,
    /// Learning phase the query was dispatched under, named in its
    /// session events.
    phase: QueryPhase,
    /// The query's reset instant, so `session:done` can carry a
    /// query-relative timestamp.
    begun_at: SimTime,
}

enum SlotState {
    Idle,
    /// Waiting for the reset to complete at `ready_at`.
    Resetting {
        ready_at: SimTime,
    },
    /// A step has been started and awaits `poll_step`; `wake_at` is the
    /// instant its last [`SessionPoll::Pending`] named (`None` until the
    /// step's first poll).
    Stepping {
        wake_at: Option<SimTime>,
    },
}

/// A session slot's scheduling state; its session lives apart, in
/// [`SessionScheduler::sessions`].
struct Slot {
    state: SlotState,
    job: Option<ActiveJob>,
}

/// A single-threaded event loop multiplexing up to `max_inflight`
/// concurrent query sessions on one virtual clock, which it alone owns.
///
/// The scheduler never sleeps: [`SessionScheduler::drive`] polls each
/// in-flight session that is due — one whose last `wake_at` has arrived,
/// or whose reset or step has just begun — and, if none can make progress
/// at the current instant, jumps the clock to the earliest `wake_at`
/// deadline.  A pending session that is not yet due is not polled at all
/// (see [`SessionPoll::Pending`]), so a pass costs the due sessions, not
/// every in-flight one.  With pure membership answers the completed
/// outputs are bit-identical to running the same queries sequentially —
/// multiplexing moves only virtual time.
pub struct SessionScheduler<Sn> {
    slots: Vec<Slot>,
    /// The slots' sessions, by slot index.  They are kept apart from the
    /// compact slot states, so a pass that skips every session not due
    /// reads a few cache lines, however large a session is.
    sessions: Vec<Sn>,
    /// Slots executing a query (not [`SlotState::Idle`]).
    inflight: usize,
    /// The worker's virtual instant, from [`SimTime::ZERO`]; only
    /// [`SessionScheduler::drive_gated`] moves it.
    now: SimTime,
    stats: SchedulerStats,
    sink: Option<Arc<ScopedSink>>,
    /// Events of the queries completed since the last
    /// [`SessionScheduler::take_events`], each query's as one contiguous
    /// run (empty without a sink).
    events: Vec<Event>,
}

impl<Sn: SessionSul> SessionScheduler<Sn> {
    /// A scheduler over the given sessions, its clock at
    /// [`SimTime::ZERO`].
    ///
    /// # Panics
    /// Panics when `sessions` is empty.
    pub fn new(sessions: Vec<Sn>) -> Self {
        assert!(
            !sessions.is_empty(),
            "a scheduler needs at least one session"
        );
        SessionScheduler {
            slots: sessions
                .iter()
                .map(|_| Slot {
                    state: SlotState::Idle,
                    job: None,
                })
                .collect(),
            sessions,
            inflight: 0,
            now: SimTime::ZERO,
            stats: SchedulerStats::default(),
            sink: None,
            events: Vec::new(),
        }
    }

    /// Attaches an event sink: scheduler diagnostics are emitted into it
    /// immediately, and every completed query's deterministic events —
    /// `session:start`, whatever its session recorded between
    /// [`SessionSul::begin_event_scope`] and
    /// [`SessionSul::end_event_scope`], `session:done` — are kept for
    /// [`SessionScheduler::take_events`].
    pub fn with_event_sink(mut self, sink: Arc<ScopedSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Number of sessions currently executing a query.
    pub fn in_flight(&self) -> usize {
        self.inflight
    }

    /// Free session slots.
    pub fn capacity(&self) -> usize {
        self.slots.len() - self.in_flight()
    }

    /// Whether at least one slot is free.
    pub fn has_capacity(&self) -> bool {
        self.capacity() > 0
    }

    /// Whether no query is in flight.
    pub fn is_idle(&self) -> bool {
        self.in_flight() == 0
    }

    /// Progress counters.
    pub fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            virtual_elapsed_micros: self.now.as_micros(),
            ..self.stats
        }
    }

    /// Aggregated SUL interaction counters across all sessions.
    pub fn sul_stats(&self) -> SulStats {
        self.sessions
            .iter()
            .map(SessionSul::stats)
            .fold(SulStats::default(), add_stats)
    }

    /// Starts executing `input` as query number `index` on a free slot,
    /// attributing its virtual waits to `phase`.  The input is accepted as
    /// a plain word or a shared `Arc` handle (the parallel engine hands the
    /// queue's `Arc` straight through, clone-free).
    ///
    /// # Panics
    /// Panics when no slot is free ([`SessionScheduler::has_capacity`]).
    pub fn submit(&mut self, index: usize, input: impl Into<Arc<InputWord>>, phase: QueryPhase) {
        let input = input.into();
        let now = self.now;
        let at = self
            .slots
            .iter()
            .position(|s| matches!(s.state, SlotState::Idle))
            .expect("submit on a scheduler without capacity");
        let (slot, session) = (&mut self.slots[at], &mut self.sessions[at]);
        if self.sink.is_some() {
            session.begin_event_scope();
        }
        let ready_at = session.start_reset(now);
        slot.state = SlotState::Resetting { ready_at };
        slot.job = Some(ActiveJob {
            index,
            input,
            position: 0,
            output: OutputWord::empty(),
            phase,
            begun_at: now,
        });
        self.inflight += 1;
        self.stats.peak_inflight = self.stats.peak_inflight.max(self.inflight as u64);
    }

    /// Makes one pass of progress: polls every in-flight session that is
    /// due at the current instant (pending sessions whose `wake_at` lies
    /// ahead are skipped), returning the queries that completed (as
    /// `(submit index, output)` pairs).  If nothing could progress, jumps
    /// the clock to the earliest deadline so the next pass will.
    pub fn drive(&mut self) -> Vec<(usize, OutputWord)> {
        self.drive_gated(true)
            .into_iter()
            .map(|(index, output, _)| (index, output))
            .collect()
    }

    /// [`SessionScheduler::drive`] with the clock advance made optional:
    /// with `advance` false the pass only harvests progress possible at
    /// the current instant.  The parallel engine passes false while more
    /// queued work could still join this virtual instant, so those
    /// queries overlap the ones already in flight instead of starting one
    /// round-trip behind them.  Each completed query also reports the
    /// range of its events in the buffer [`SessionScheduler::take_events`]
    /// returns (empty without an event sink).
    pub fn drive_gated(&mut self, advance: bool) -> Vec<(usize, OutputWord, Range<usize>)> {
        let now = self.now;
        let mut completed = Vec::new();
        let mut progressed = false;
        let mut min_wake: Option<SimTime> = None;
        for (slot, session) in self.slots.iter_mut().zip(&mut self.sessions) {
            loop {
                match slot.state {
                    SlotState::Idle => break,
                    SlotState::Resetting { ready_at } => {
                        if ready_at > now {
                            min_wake = Some(min_wake.map_or(ready_at, |w| w.min(ready_at)));
                            break;
                        }
                        progressed = true;
                        let job = slot.job.as_ref().expect("active slot has a job");
                        if job.input.is_empty() {
                            finish(
                                slot,
                                session,
                                &mut completed,
                                &mut self.stats,
                                &self.sink,
                                &mut self.events,
                                now,
                            );
                            break;
                        }
                        let symbol = job.input.as_slice()[0].clone();
                        session.start_step(&symbol, now);
                        slot.state = SlotState::Stepping { wake_at: None };
                    }
                    SlotState::Stepping {
                        wake_at: Some(wake_at),
                    } if wake_at > now => {
                        // The session is not due: by the wake contract a
                        // poll before `wake_at` would report the same.
                        min_wake = Some(min_wake.map_or(wake_at, |w| w.min(wake_at)));
                        break;
                    }
                    SlotState::Stepping { .. } => match session.poll_step(now) {
                        SessionPoll::Pending { wake_at } => {
                            slot.state = SlotState::Stepping {
                                wake_at: Some(wake_at),
                            };
                            min_wake = Some(min_wake.map_or(wake_at, |w| w.min(wake_at)));
                            break;
                        }
                        SessionPoll::Ready(output) => {
                            progressed = true;
                            let job = slot.job.as_mut().expect("active slot has a job");
                            job.output.push(output);
                            job.position += 1;
                            if job.position == job.input.len() {
                                finish(
                                    slot,
                                    session,
                                    &mut completed,
                                    &mut self.stats,
                                    &self.sink,
                                    &mut self.events,
                                    now,
                                );
                                break;
                            }
                            let symbol = job.input.as_slice()[job.position].clone();
                            session.start_step(&symbol, now);
                            slot.state = SlotState::Stepping { wake_at: None };
                        }
                    },
                }
            }
        }
        self.inflight -= completed.len();
        if !progressed && advance {
            if let Some(wake) = min_wake {
                // Event-driven wait: every in-flight session pays this
                // virtual wait concurrently — that is the multiplexing win.
                let delta = wake.since(now).as_micros();
                self.stats.busy_session_micros += self.inflight as u64 * delta;
                self.stats.clock_advances += 1;
                if let Some(sink) = &self.sink {
                    if self.stats.clock_advances % CLOCK_SAMPLE_EVERY == 1 {
                        sink.diagnostic(Event::ClockAdvance {
                            time: wake.as_micros(),
                            advances: self.stats.clock_advances,
                        });
                    }
                }
                self.now = self.now.max(wake);
            }
        }
        completed
    }

    /// Hands over the events of every query completed since the last call;
    /// the ranges [`SessionScheduler::drive_gated`] reported index into it.
    pub fn take_events(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.events)
    }

    /// Drives until every submitted query has completed; convenience for
    /// tests and single-threaded batch execution.
    pub fn run_to_idle(&mut self) -> Vec<(usize, OutputWord)> {
        let mut completed = Vec::new();
        while !self.is_idle() {
            completed.extend(self.drive());
        }
        completed
    }

    /// Tears the scheduler down, returning its sessions.
    pub fn into_sessions(self) -> Vec<Sn> {
        self.sessions
    }
}

/// Retires a slot's finished query.  With a sink attached, the query's
/// events go to `events` as one run: `session:start` (nothing of the
/// query can precede it, so it is written here, with the rest), the
/// session's own events in the order they happened, then `session:done`.
fn finish<Sn: SessionSul>(
    slot: &mut Slot,
    session: &mut Sn,
    completed: &mut Vec<(usize, OutputWord, Range<usize>)>,
    stats: &mut SchedulerStats,
    sink: &Option<Arc<ScopedSink>>,
    events: &mut Vec<Event>,
    now: SimTime,
) {
    let job = slot.job.take().expect("finishing slot has a job");
    let start = events.len();
    if sink.is_some() {
        let phase = phase_name(job.phase);
        let symbols = job.input.len() as u64;
        events.push(Event::SessionStart { phase, symbols });
        session.end_event_scope(events);
        events.push(Event::SessionDone {
            phase,
            symbols,
            rel: now.since(job.begun_at).as_micros(),
        });
    }
    completed.push((job.index, job.output, start..events.len()));
    slot.state = SlotState::Idle;
    stats.queries_completed += 1;
}

pub(crate) fn add_stats(acc: SulStats, s: SulStats) -> SulStats {
    SulStats {
        symbols_sent: acc.symbols_sent + s.symbols_sent,
        resets: acc.resets + s.resets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencySul;
    use crate::sul::replay_query;
    use crate::tcp_adapter::{TcpSul, TcpSulFactory};
    use prognosis_automata::word::InputWord;

    fn words() -> Vec<InputWord> {
        vec![
            InputWord::from_symbols(["SYN(?,?,0)", "ACK(?,?,0)", "ACK+PSH(?,?,1)"]),
            InputWord::from_symbols(["ACK(?,?,0)"]),
            InputWord::from_symbols(["SYN(?,?,0)", "FIN+ACK(?,?,0)"]),
            InputWord::from_symbols(["RST(?,?,0)", "SYN(?,?,0)"]),
            InputWord::from_symbols(["SYN(?,?,0)", "ACK(?,?,0)", "FIN+ACK(?,?,0)", "ACK(?,?,0)"]),
        ]
    }

    fn expected() -> Vec<OutputWord> {
        words()
            .iter()
            .map(|w| replay_query(&mut TcpSul::with_defaults(), w))
            .collect()
    }

    #[test]
    fn blocking_sessions_complete_in_zero_virtual_time() {
        let sessions: Vec<_> = (0..2)
            .map(|_| BlockingSession::new(TcpSul::with_defaults()))
            .collect();
        let mut scheduler = SessionScheduler::new(sessions);
        for (i, w) in words().into_iter().take(2).enumerate() {
            scheduler.submit(i, w, QueryPhase::Construction);
        }
        let mut done = scheduler.run_to_idle();
        done.sort_by_key(|(i, _)| *i);
        let exp = expected();
        assert_eq!(done[0].1, exp[0]);
        assert_eq!(done[1].1, exp[1]);
        assert_eq!(scheduler.stats().virtual_elapsed_micros, 0);
        assert_eq!(scheduler.stats().queries_completed, 2);
    }

    #[test]
    fn multiplexed_latency_sessions_overlap_their_round_trips() {
        let step = SimDuration::from_micros(50);
        let reset = SimDuration::from_micros(100);
        let make = || TimedSession::new(LatencySul::new(TcpSul::with_defaults(), step, reset));

        // Serial: one session, five queries one after another.
        let mut serial = SessionScheduler::new(vec![make()]);
        let mut serial_done = Vec::new();
        for (i, w) in words().into_iter().enumerate() {
            serial.submit(i, w, QueryPhase::Construction);
            serial_done.extend(serial.run_to_idle());
        }
        let serial_elapsed = serial.stats().virtual_elapsed_micros;
        // One session at a time pays what a blocking `LatencySul` pays for
        // the same words — the time unit E15's sequential rows share with
        // the engine rows.
        let mut blocking = LatencySul::new(TcpSul::with_defaults(), step, reset);
        for w in words() {
            replay_query(&mut blocking, &w);
        }
        assert_eq!(serial_elapsed, blocking.virtual_elapsed().as_micros());

        // Multiplexed: five sessions, all queries in flight at once.
        let sessions: Vec<_> = (0..5).map(|_| make()).collect();
        let mut multi = SessionScheduler::new(sessions);
        for (i, w) in words().into_iter().enumerate() {
            multi.submit(i, w, QueryPhase::Construction);
        }
        let mut multi_done = multi.run_to_idle();

        serial_done.sort_by_key(|(i, _)| *i);
        multi_done.sort_by_key(|(i, _)| *i);
        assert_eq!(
            serial_done, multi_done,
            "scheduling must not change answers"
        );
        let exp = expected();
        for (i, (_, out)) in multi_done.iter().enumerate() {
            assert_eq!(out, &exp[i]);
        }

        // Serial pays the sum of per-query round trips; multiplexed pays
        // roughly the longest single query.
        let multi_elapsed = multi.stats().virtual_elapsed_micros;
        assert!(
            multi_elapsed * 3 < serial_elapsed,
            "five overlapped queries must be far faster than serial \
             (serial {serial_elapsed}µs, multiplexed {multi_elapsed}µs)"
        );
        assert_eq!(multi.stats().peak_inflight, 5);
        assert!(multi.stats().clock_advances > 0);
        assert!(multi.stats().busy_session_micros > multi_elapsed);
    }

    #[test]
    fn scheduler_pulls_new_work_as_sessions_free_up() {
        let step = SimDuration::from_micros(10);
        let make = || {
            TimedSession::new(LatencySul::new(
                TcpSul::with_defaults(),
                step,
                SimDuration::ZERO,
            ))
        };
        let mut scheduler = SessionScheduler::new(vec![make(), make()]);
        let batch = words();
        let mut pending: std::collections::VecDeque<(usize, InputWord)> =
            batch.iter().cloned().enumerate().collect();
        let mut done = Vec::new();
        while done.len() < batch.len() {
            while scheduler.has_capacity() {
                match pending.pop_front() {
                    Some((i, w)) => scheduler.submit(i, w, QueryPhase::Construction),
                    None => break,
                }
            }
            done.extend(scheduler.drive());
        }
        done.sort_by_key(|(i, _)| *i);
        let exp = expected();
        for (i, (_, out)) in done.iter().enumerate() {
            assert_eq!(out, &exp[i]);
        }
        assert_eq!(scheduler.stats().queries_completed, 5);
        assert_eq!(scheduler.stats().peak_inflight, 2);
    }

    /// Counts the polls of a wrapped session that come before the
    /// `wake_at` it last reported.
    struct WakeAudit<Sn> {
        inner: Sn,
        wake_at: Option<SimTime>,
        polls: u64,
        early_polls: u64,
    }

    impl<Sn: SessionSul> SessionSul for WakeAudit<Sn> {
        type Sul = Sn::Sul;

        fn start_reset(&mut self, now: SimTime) -> SimTime {
            self.wake_at = None;
            self.inner.start_reset(now)
        }

        fn start_step(&mut self, input: &Symbol, now: SimTime) {
            self.wake_at = None;
            self.inner.start_step(input, now);
        }

        fn poll_step(&mut self, now: SimTime) -> SessionPoll {
            self.polls += 1;
            if self.wake_at.is_some_and(|w| now < w) {
                self.early_polls += 1;
            }
            let poll = self.inner.poll_step(now);
            self.wake_at = match poll {
                SessionPoll::Pending { wake_at } => Some(wake_at),
                SessionPoll::Ready(_) => None,
            };
            poll
        }

        fn stats(&self) -> SulStats {
            self.inner.stats()
        }

        fn cache_key(&self) -> Option<String> {
            self.inner.cache_key()
        }

        fn into_sul(self) -> Self::Sul {
            self.inner.into_sul()
        }
    }

    /// Runs the test words twice over through `sessions`, submitting as
    /// slots free up, and returns the answers in submit order.
    fn run_pulled<Sn: SessionSul>(sessions: Vec<Sn>) -> (Vec<OutputWord>, Vec<Sn>) {
        let mut scheduler = SessionScheduler::new(sessions);
        let mut pending: std::collections::VecDeque<(usize, InputWord)> =
            words().into_iter().chain(words()).enumerate().collect();
        let total = pending.len();
        let mut done = Vec::new();
        while done.len() < total {
            while scheduler.has_capacity() {
                match pending.pop_front() {
                    Some((i, w)) => scheduler.submit(i, w, QueryPhase::Construction),
                    None => break,
                }
            }
            done.extend(scheduler.drive());
        }
        done.sort_by_key(|(i, _)| *i);
        let outputs = done.into_iter().map(|(_, out)| out).collect();
        (outputs, scheduler.into_sessions())
    }

    #[test]
    fn pending_sessions_are_not_polled_before_their_wake_instant() {
        // Staggered latencies, so sessions fall due at different instants.
        let make = |i: u64| {
            TimedSession::new(LatencySul::new(
                TcpSul::with_defaults(),
                SimDuration::from_micros(10 + 25 * i),
                SimDuration::from_micros(5 * i),
            ))
        };
        let (plain, _) = run_pulled((0..4).map(make).collect());
        let audited: Vec<_> = (0..4)
            .map(|i| WakeAudit {
                inner: make(i),
                wake_at: None,
                polls: 0,
                early_polls: 0,
            })
            .collect();
        let (outputs, sessions) = run_pulled(audited);

        assert_eq!(outputs, plain, "auditing must not change answers");
        let exp = expected();
        assert_eq!(outputs, [exp.clone(), exp].concat());
        assert!(sessions.iter().map(|s| s.polls).sum::<u64>() > 0);
        let early: Vec<u64> = sessions.iter().map(|s| s.early_polls).collect();
        assert_eq!(
            early, [0; 4],
            "sessions were polled before the wake instant they reported"
        );
    }

    #[test]
    fn engine_stats_aggregate_and_report_occupancy() {
        let mut engine = EngineStats {
            workers: 2,
            max_inflight: 4,
            ..EngineStats::default()
        };
        engine.absorb(&SchedulerStats {
            queries_completed: 10,
            clock_advances: 3,
            busy_session_micros: 4_000,
            peak_inflight: 4,
            virtual_elapsed_micros: 1_000,
        });
        engine.absorb(&SchedulerStats {
            queries_completed: 6,
            clock_advances: 2,
            busy_session_micros: 1_000,
            peak_inflight: 2,
            virtual_elapsed_micros: 500,
        });
        assert_eq!(engine.queries_completed, 16);
        assert_eq!(engine.virtual_elapsed_micros, 1_000, "makespan is the max");
        assert_eq!(engine.worker_virtual_micros, 1_500);
        assert_eq!(engine.peak_inflight, 4);
        // 5_000 busy session-µs over 1_500 worker-µs × 4 slots.
        assert!((engine.occupancy() - 5_000.0 / 6_000.0).abs() < 1e-9);
        assert_eq!(engine.virtual_elapsed().as_micros(), 1_000);
    }

    #[test]
    fn engine_stats_record_dispatch_into_phases() {
        let mut engine = EngineStats {
            max_inflight: 8,
            ..EngineStats::default()
        };
        engine.record_dispatch(QueryPhase::Construction, 1, 100, 200);
        engine.record_dispatch(QueryPhase::Construction, 42, 1_500, 200);
        engine.record_dispatch(QueryPhase::Equivalence, 512, 4_000, 500);
        let construction = engine.phase(QueryPhase::Construction);
        assert_eq!(construction.batches, 2);
        assert_eq!(construction.queries, 43);
        assert!((construction.mean_batch_size() - 21.5).abs() < 1e-9);
        assert_eq!(engine.phase(QueryPhase::Equivalence).queries, 512);
        assert_eq!(engine.phase(QueryPhase::Counterexample).batches, 0);
        // Busy/worker phase aggregates are the sums of the dispatch deltas.
        assert_eq!(construction.busy_micros, 1_600);
        assert_eq!(construction.worker_micros, 400);
        // 1_600 busy µs over 400 worker-µs × 8 slots.
        assert!((construction.occupancy(8) - 0.5).abs() < 1e-9);
        let equivalence = engine.phase(QueryPhase::Equivalence);
        assert_eq!(
            (equivalence.busy_micros, equivalence.worker_micros),
            (4_000, 500)
        );
        // Absorbing scheduler counters leaves the phase books alone.
        engine.absorb(&SchedulerStats {
            busy_session_micros: 5_600,
            virtual_elapsed_micros: 900,
            ..SchedulerStats::default()
        });
        assert_eq!(engine.phase(QueryPhase::Construction).busy_micros, 1_600);
    }

    #[test]
    fn blocking_session_factory_lifts_plain_factories() {
        let factory = BlockingSessionFactory(TcpSulFactory::default());
        let mut session = factory.create_session();
        assert_eq!(session.cache_key(), TcpSul::with_defaults().cache_key());
        let at = session.start_reset(SimTime::ZERO);
        assert_eq!(at, SimTime::ZERO);
        session.start_step(&Symbol::new("SYN(?,?,0)"), SimTime::ZERO);
        match session.poll_step(SimTime::ZERO) {
            SessionPoll::Ready(out) => assert_eq!(out.as_str(), "ACK+SYN(?,?,0)"),
            SessionPoll::Pending { .. } => panic!("blocking sessions are always ready"),
        }
        let sul = session.into_sul();
        assert_eq!(sul.stats().symbols_sent, 1);
    }
}

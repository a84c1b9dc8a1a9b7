//! Parallel, multiplexed membership-query execution across session workers.
//!
//! Learning wall-clock time is dominated by membership queries replayed
//! symbol-by-symbol against the SUL (§4.1).  Queries within a batch are
//! independent — each starts from a reset — and each answer is a pure
//! function of its word (§3.2 property 3), so a batch can be split across
//! *separate* SUL instances by a fixed rule, with no balancing at run
//! time.  [`ParallelSulOracle`] runs `N` workers, each a
//! [`SessionScheduler`] that multiplexes up to `max_inflight` concurrent
//! query sessions on its own virtual clock.  Query `k` of the engine's
//! dispatch stream goes to worker `k mod N` (the count carries across
//! batches).  A dispatch is a fork-join: each helper worker `1..N`, on
//! its own thread, gets its share over its own mailbox, worker 0
//! runs its share on the learner's thread (a dispatch blocks the learner
//! anyway), and the dispatcher then takes one reply per helper and merges
//! the answers back in query order.  Every worker sees the same queries
//! in the same order on every run, so its virtual time is as
//! deterministic as its answers; and the merged answers — hence the
//! learned model and every query-cost statistic — are bit-identical to a
//! sequential run for any `(workers, max_inflight)`.

use crate::pipeline::{panic_message, LearnError};
use crate::session::{
    add_stats, EngineStats, QueryPhase, SchedulerStats, SessionScheduler, SessionSul,
    SessionSulFactory, SimTime, ALL_PHASES,
};
use crate::sul::SulStats;
use prognosis_automata::word::{InputWord, OutputWord};
use prognosis_events::{Event, EventSink, ScopedSink};
use prognosis_learner::oracle::MembershipOracle;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// One query of a worker's share of the batch being dispatched.
struct Job {
    /// Index of the query in its batch.
    index: usize,
    /// Shared handle to the input word: the learner's allocation travels
    /// to a session slot without a per-query deep clone.
    input: Arc<InputWord>,
    /// Learning phase the query belongs to.
    phase: QueryPhase,
}

/// One answered query: its batch index, its output word and the range of
/// its events in the reply's event buffer.
type Answer = (usize, OutputWord, Range<usize>);

/// A helper worker's message to the dispatcher.
enum Reply {
    /// The helper's share of one batch, answered: the answers, the events
    /// those queries recorded (empty without an event sink) and the
    /// helper's cumulative counters.
    Answers {
        answers: Vec<Answer>,
        events: Vec<Event>,
        snapshot: WorkerSnapshot,
    },
    /// A session of the helper panicked (the message is the panic
    /// payload); the helper has exited.
    Dead(String),
}

/// A helper's sessions and final counters, returned by its thread once
/// its mailbox closes; `None` when it exited early (a session panicked,
/// or the dispatcher stopped listening).
type Finished<Sn> = Option<(Vec<Sn>, SchedulerStats)>;

/// The dispatcher's ends of one helper worker: its channels and its
/// thread.  Dropping the mailbox tells the helper to finish.
struct Helper<Sn> {
    mailbox: Sender<VecDeque<Job>>,
    replies: Receiver<Reply>,
    thread: JoinHandle<Finished<Sn>>,
}

/// Cumulative counters of one worker as of its last answered share.
#[derive(Clone, Copy, Default)]
struct WorkerSnapshot {
    sul: SulStats,
    scheduler: SchedulerStats,
}

impl WorkerSnapshot {
    fn of<Sn: SessionSul>(scheduler: &SessionScheduler<Sn>) -> Self {
        WorkerSnapshot {
            sul: scheduler.sul_stats(),
            scheduler: scheduler.stats(),
        }
    }
}

/// A membership oracle that fans query batches out to session workers,
/// each multiplexing `max_inflight` concurrent SUL sessions on virtual
/// time.
///
/// Worker 0 always runs on the calling thread.  Workers `1..N` are helper
/// threads the oracle spawns for itself and joins on shutdown or drop, so
/// concurrent learns (a campaign's cells) share no engine state.  Where
/// the workers run never affects answers or statistics — everything
/// observable runs on virtual time.
pub struct ParallelSulOracle<Sn: SessionSul> {
    /// Worker 0's scheduler, driven on the calling thread; `None` once
    /// the engine has shut down.
    local: Option<SessionScheduler<Sn>>,
    /// Workers `1..N`, in order.
    helpers: Vec<Helper<Sn>>,
    /// The worker the next dispatched query goes to.
    next_worker: usize,
    /// The worker whose session panicked, once one has: the engine's
    /// sessions are then in an unknown state and it answers nothing more.
    failed: Option<usize>,
    /// Counters of each worker as of its last answered share.  Reading
    /// stats is a plain field access on the dispatcher thread — no
    /// cross-thread lock on any stats path.
    snapshots: Vec<WorkerSnapshot>,
    max_inflight: usize,
    /// Phase the learner last announced via
    /// [`MembershipOracle::note_phase`]; dispatches are attributed to it.
    current_phase: QueryPhase,
    /// The dispatcher's books (engine shape, reply count, per-phase
    /// stats); [`ParallelSulOracle::engine_stats`] adds the workers'
    /// scheduler counters to them.
    telemetry: EngineStats,
    /// Queries whose events have been emitted so far — the logical clock
    /// [`Event::PhaseEnter`] stamps, a pure function of the stream itself.
    flushed_queries: u64,
    /// The event sink.  Workers return each query's events with its
    /// answer, and the dispatcher emits them in batch-index order, which
    /// is what makes the deterministic stream byte-identical across engine
    /// shapes.
    events: Option<Arc<ScopedSink>>,
}

/// The result of shutting the engine down: the session SULs (adapter-side
/// state flushed) plus the aggregated engine statistics.
pub struct EngineShutdown<S> {
    /// All session SULs, worker-major (worker 0's sessions first).  With
    /// `max_inflight` = 1 this is exactly one SUL per worker.
    pub suls: Vec<S>,
    /// Aggregated scheduler statistics across all workers.
    pub engine: EngineStats,
}

/// A worker's scheduler over its sessions, attached to the engine's sink.
fn scheduler_for<Sn: SessionSul>(
    sessions: Vec<Sn>,
    events: Option<Arc<ScopedSink>>,
) -> SessionScheduler<Sn> {
    let scheduler = SessionScheduler::new(sessions);
    match events {
        Some(sink) => scheduler.with_event_sink(sink),
        None => scheduler,
    }
}

impl<Sn: SessionSul + Send + 'static> ParallelSulOracle<Sn> {
    /// Builds an engine of `workers` workers, each multiplexing
    /// `max_inflight` sessions minted by `factory` over its own virtual
    /// clock.  Worker 0 runs on the calling thread; the other
    /// `workers − 1` run on helper threads of their own.
    ///
    /// # Panics
    /// Panics when `workers` or `max_inflight` is zero.
    pub fn spawn_with<F>(factory: &F, workers: usize, max_inflight: usize) -> Self
    where
        F: SessionSulFactory<Session = Sn>,
    {
        Self::spawn_with_events(factory, workers, max_inflight, None, false)
    }

    /// [`ParallelSulOracle::spawn_with`] plus an event sink: the engine's
    /// telemetry flows into `sink` ([`prognosis_events`]), with diagnostic
    /// events gated by `diagnostics`.
    ///
    /// # Panics
    /// Panics when `workers` or `max_inflight` is zero.
    pub fn spawn_with_events<F>(
        factory: &F,
        workers: usize,
        max_inflight: usize,
        sink: Option<Arc<dyn EventSink>>,
        diagnostics: bool,
    ) -> Self
    where
        F: SessionSulFactory<Session = Sn>,
    {
        assert!(workers >= 1, "a parallel oracle needs at least one worker");
        assert!(max_inflight >= 1, "each worker needs at least one session");
        let events = sink.map(|sink| ScopedSink::new(sink, diagnostics));
        // One session group (and, for networked transports, one netsim
        // network) per worker.
        let mut schedulers = (0..workers)
            .map(|_| scheduler_for(factory.create_worker_sessions(max_inflight), events.clone()));
        let local = schedulers.next();
        let helpers = schedulers.map(spawn_helper).collect();
        ParallelSulOracle {
            local,
            helpers,
            next_worker: 0,
            failed: None,
            snapshots: vec![WorkerSnapshot::default(); workers],
            max_inflight,
            current_phase: QueryPhase::default(),
            telemetry: EngineStats {
                workers: workers as u64,
                max_inflight: max_inflight as u64,
                ..EngineStats::default()
            },
            flushed_queries: 0,
            events,
        }
    }

    /// Number of workers.
    pub fn num_workers(&self) -> usize {
        self.snapshots.len()
    }

    /// Session slots per worker.
    pub fn max_inflight(&self) -> usize {
        self.max_inflight
    }

    /// Aggregated interaction counters across all worker sessions, as of
    /// the most recently answered batch.
    pub fn stats(&self) -> SulStats {
        self.snapshots
            .iter()
            .map(|s| s.sul)
            .fold(SulStats::default(), add_stats)
    }

    /// Aggregated engine statistics, as of the most recently answered
    /// batch (final numbers come from [`ParallelSulOracle::shutdown`]).
    pub fn engine_stats(&self) -> EngineStats {
        let mut engine = self.telemetry.clone();
        for snapshot in &self.snapshots {
            engine.absorb(&snapshot.scheduler);
        }
        engine
    }

    /// Summed (busy session-µs, worker virtual-µs) across the workers'
    /// snapshots — the delta basis for per-dispatch attribution.
    fn busy_virtual_snapshot(&self) -> (u64, u64) {
        self.snapshots
            .iter()
            .map(|s| {
                (
                    s.scheduler.busy_session_micros,
                    s.scheduler.virtual_elapsed_micros,
                )
            })
            .fold((0, 0), |(b, v), (sb, sv)| (b + sb, v + sv))
    }

    /// Shuts the workers down, flushes every session (a final reset pushes
    /// the last query into adapter-side state such as the Oracle Table) and
    /// returns the session SULs plus final engine statistics.  A worker
    /// that panicked surfaces as [`LearnError::WorkerPanicked`] instead of
    /// poisoning the caller.
    pub fn shutdown(mut self) -> Result<EngineShutdown<Sn::Sul>, LearnError> {
        if let Some(worker) = self.failed {
            return Err(worker_dead(worker));
        }
        let local = self.local.take().expect("a live engine has worker 0");
        let stats = local.stats();
        let mut finished = vec![(local.into_sessions(), stats)];
        for (helper, parts) in join_helpers(&mut self.helpers).into_iter().enumerate() {
            match parts {
                Ok(Some(parts)) => finished.push(parts),
                _ => {
                    return Err(LearnError::EnginePanicked {
                        message: format!(
                            "session worker {} vanished without reporting",
                            helper + 1
                        ),
                    })
                }
            }
        }
        let mut engine = self.telemetry.clone();
        let mut suls = Vec::with_capacity(finished.len() * self.max_inflight);
        for (sessions, stats) in finished {
            engine.absorb(&stats);
            for mut session in sessions {
                session.start_reset(SimTime::ZERO);
                suls.push(session.into_sul());
            }
        }
        // Dropping `self` flushes the event sink.
        Ok(EngineShutdown { suls, engine })
    }

    fn dispatch(&mut self, inputs: &[Arc<InputWord>]) -> Vec<OutputWord> {
        if let Some(worker) = self.failed {
            std::panic::panic_any(worker_dead(worker));
        }
        let (busy_before, virtual_before) = self.busy_virtual_snapshot();
        let phase = self.current_phase;
        let workers = self.num_workers();
        let mut shares: Vec<VecDeque<Job>> = (0..workers).map(|_| VecDeque::new()).collect();
        for (index, input) in inputs.iter().enumerate() {
            shares[(self.next_worker + index) % workers].push_back(Job {
                index,
                input: Arc::clone(input),
                phase,
            });
        }
        self.next_worker = (self.next_worker + inputs.len()) % workers;
        // Fork: every helper with work starts on its share before worker 0
        // runs its own on this thread.
        let mut shares = shares.into_iter();
        let local_share = shares.next().expect("worker 0 has a share");
        let mut forked = Vec::with_capacity(self.helpers.len());
        for (worker, (helper, share)) in (1..).zip(self.helpers.iter().zip(shares)) {
            if !share.is_empty() {
                if helper.mailbox.send(share).is_err() {
                    self.failed = Some(worker);
                    std::panic::panic_any(helper_vanished(worker));
                }
                forked.push(worker);
            }
        }
        // Every reply of this batch: its answers, and the event buffer
        // their ranges index into.
        let mut replies: Vec<(Vec<Answer>, Vec<Event>)> = Vec::with_capacity(workers);
        if !local_share.is_empty() {
            let scheduler = self.local.as_mut().expect("a live engine has worker 0");
            match run_share(scheduler, local_share) {
                Ok(answers) => {
                    self.snapshots[0] = WorkerSnapshot::of(scheduler);
                    replies.push((answers, scheduler.take_events()));
                }
                Err(message) => {
                    // Relay the death up through the learning loop, as a
                    // helper's would be; the sessions are retired.
                    self.failed = Some(0);
                    std::panic::panic_any(LearnError::WorkerPanicked { worker: 0, message });
                }
            }
        }
        // Join: one reply per forked helper.
        for worker in forked {
            match self.helpers[worker - 1].replies.recv() {
                Ok(Reply::Answers {
                    answers,
                    events,
                    snapshot,
                }) => {
                    self.snapshots[worker] = snapshot;
                    replies.push((answers, events));
                }
                Ok(Reply::Dead(message)) => {
                    // `learn_model_parallel` converts the relayed death
                    // into a `LearnError`.
                    self.failed = Some(worker);
                    std::panic::panic_any(LearnError::WorkerPanicked { worker, message });
                }
                Err(_) => {
                    self.failed = Some(worker);
                    std::panic::panic_any(helper_vanished(worker));
                }
            }
        }
        self.telemetry.reply_messages += replies.len() as u64;
        let mut results: Vec<Option<OutputWord>> = vec![None; inputs.len()];
        // Per query: which reply's event buffer holds its events, and where.
        let mut scopes: Vec<(usize, Range<usize>)> = vec![(0, 0..0); inputs.len()];
        for (buffer, (answers, _)) in replies.iter_mut().enumerate() {
            for (index, output, range) in answers.drain(..) {
                debug_assert!(results[index].is_none(), "query answered twice");
                results[index] = Some(output);
                scopes[index] = (buffer, range);
            }
        }
        if let Some(events) = &self.events {
            // Batch-index order, whichever worker answered each query.
            let mut batch = Vec::with_capacity(replies.iter().map(|(_, e)| e.len()).sum());
            for (buffer, range) in scopes {
                batch.extend_from_slice(&replies[buffer].1[range]);
            }
            events.emit_batch(&batch);
            self.flushed_queries += inputs.len() as u64;
        }
        // Every query of this batch has answered, and a worker's clock
        // moves only while it has queries in flight, so the snapshot
        // deltas are exactly this batch's share: the phase books are their
        // sum, and the `occupancy` event carries the same numbers.
        let (busy_after, virtual_after) = self.busy_virtual_snapshot();
        let busy = busy_after.saturating_sub(busy_before);
        let elapsed = virtual_after.saturating_sub(virtual_before);
        self.telemetry
            .record_dispatch(phase, inputs.len() as u64, busy, elapsed);
        if let Some(events) = &self.events {
            events.diagnostic(Event::Occupancy {
                time: virtual_after,
                phase: phase.name(),
                batch: inputs.len() as u64,
                busy,
                worker: elapsed.saturating_mul(self.max_inflight as u64),
            });
        }
        results
            .into_iter()
            .map(|out| out.expect("every query index answered"))
            .collect()
    }
}

/// The error a dead engine reports from then on.
fn worker_dead(worker: usize) -> LearnError {
    LearnError::WorkerPanicked {
        worker,
        message: "the session worker panicked in an earlier batch".to_string(),
    }
}

/// The error for a helper that left without a reply.
fn helper_vanished(worker: usize) -> LearnError {
    LearnError::EnginePanicked {
        message: format!("session worker {worker} exited mid-batch"),
    }
}

/// Closes every helper's mailbox — each finishes its current share, if
/// any, and then exits — and joins them all, in order.
fn join_helpers<Sn>(helpers: &mut Vec<Helper<Sn>>) -> Vec<std::thread::Result<Finished<Sn>>> {
    let threads: Vec<_> = std::mem::take(helpers)
        .into_iter()
        .map(|helper| helper.thread)
        .collect();
    threads.into_iter().map(JoinHandle::join).collect()
}

/// Starts a helper worker over `scheduler` on a thread of its own: it runs
/// each share its mailbox delivers and replies once per share, until the
/// mailbox closes or a session panics.
fn spawn_helper<Sn: SessionSul + Send + 'static>(
    mut scheduler: SessionScheduler<Sn>,
) -> Helper<Sn> {
    let (mailbox, shares) = channel::<VecDeque<Job>>();
    let (reply_tx, replies) = channel::<Reply>();
    let thread = std::thread::spawn(move || {
        for share in shares {
            let reply = match run_share(&mut scheduler, share) {
                Ok(answers) => Reply::Answers {
                    answers,
                    events: scheduler.take_events(),
                    snapshot: WorkerSnapshot::of(&scheduler),
                },
                Err(message) => {
                    // Reported, not re-raised: the dispatcher turns it
                    // into a `LearnError`.
                    let _ = reply_tx.send(Reply::Dead(message));
                    return None;
                }
            };
            reply_tx.send(reply).ok()?;
        }
        let stats = scheduler.stats();
        Some((scheduler.into_sessions(), stats))
    });
    Helper {
        mailbox,
        replies,
        thread,
    }
}

impl<Sn: SessionSul> Drop for ParallelSulOracle<Sn> {
    fn drop(&mut self) {
        // A dropped oracle (e.g. during a panic unwind) must not leak
        // running helpers: join each, and drop the sessions it returns.
        drop(join_helpers(&mut self.helpers));
        if let Some(events) = &self.events {
            events.flush();
        }
    }
}

/// One pass of a worker's event loop, and its one gating rule: feed free
/// slots from `backlog`, then drive the scheduler, advancing its clock
/// only if nothing was pulled.  Work taken at this virtual instant means
/// more of the share may still join it, so the pass harvests instant
/// progress instead of stepping time under a part-filled pool; with no
/// work taken (slots full, or nothing left to submit) advancing is the
/// only way forward.
fn step<Sn: SessionSul>(
    scheduler: &mut SessionScheduler<Sn>,
    backlog: &mut VecDeque<Job>,
) -> Vec<Answer> {
    let pulled = scheduler.has_capacity() && !backlog.is_empty();
    while scheduler.has_capacity() {
        let Some(job) = backlog.pop_front() else {
            break;
        };
        scheduler.submit(job.index, job.input, job.phase);
    }
    if scheduler.is_idle() {
        return Vec::new();
    }
    scheduler.drive_gated(!pulled)
}

/// Runs one worker's whole share of a batch on the calling thread.
/// Returns every answer (with event ranges into the scheduler's event
/// buffer), or the message of a session panic.
fn run_share<Sn: SessionSul>(
    scheduler: &mut SessionScheduler<Sn>,
    mut backlog: VecDeque<Job>,
) -> Result<Vec<Answer>, String> {
    let total = backlog.len();
    std::panic::catch_unwind(AssertUnwindSafe(|| {
        let mut answers = Vec::with_capacity(total);
        while answers.len() < total {
            answers.extend(step(scheduler, &mut backlog));
        }
        answers
    }))
    .map_err(|payload| panic_message(payload.as_ref()))
}

impl<Sn: SessionSul + Send + 'static> MembershipOracle for ParallelSulOracle<Sn> {
    fn query(&mut self, input: &InputWord) -> OutputWord {
        self.dispatch(&[Arc::new(input.clone())])
            .pop()
            .expect("single-query dispatch yields one answer")
    }

    fn query_batch(&mut self, inputs: &[InputWord]) -> Vec<OutputWord> {
        if inputs.is_empty() {
            return Vec::new();
        }
        let shared: Vec<Arc<InputWord>> = inputs.iter().map(|w| Arc::new(w.clone())).collect();
        self.dispatch(&shared)
    }

    fn query_batch_shared(&mut self, inputs: &[Arc<InputWord>]) -> Vec<OutputWord> {
        if inputs.is_empty() {
            return Vec::new();
        }
        self.dispatch(inputs)
    }

    fn queries_answered(&self) -> u64 {
        ALL_PHASES
            .iter()
            .map(|&p| self.telemetry.phase(p).queries)
            .sum()
    }

    fn note_phase(&mut self, phase: QueryPhase) {
        if phase != self.current_phase {
            if let Some(events) = &self.events {
                events.deterministic(Event::PhaseEnter {
                    phase: phase.name(),
                    seq: self.flushed_queries,
                });
            }
        }
        self.current_phase = phase;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{learn_model_parallel, LearnConfig};
    use crate::session::BlockingSessionFactory;
    use crate::sul::{Sul, SulFactory, SulMembershipOracle};
    use prognosis_automata::alphabet::{Alphabet, Symbol};
    use prognosis_automata::known;
    use prognosis_automata::mealy::{MealyMachine, StateId};
    use prognosis_learner::oracle::{AsyncQuery, CancelOutcome};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A factory-friendly SUL backed by a Mealy machine.
    #[derive(Clone)]
    struct MachineSul {
        machine: MealyMachine,
        state: StateId,
        stats: SulStats,
    }

    impl Sul for MachineSul {
        fn step(&mut self, input: &Symbol) -> Symbol {
            self.stats.symbols_sent += 1;
            let (next, out) = self
                .machine
                .step(self.state, input)
                .expect("symbol in alphabet");
            self.state = next;
            out
        }

        fn reset(&mut self) {
            self.stats.resets += 1;
            self.state = self.machine.initial_state();
        }

        fn stats(&self) -> SulStats {
            self.stats
        }
    }

    struct MachineSulFactory(MealyMachine);

    impl SulFactory for MachineSulFactory {
        type Sul = MachineSul;

        fn create(&self) -> MachineSul {
            MachineSul {
                machine: self.0.clone(),
                state: self.0.initial_state(),
                stats: SulStats::default(),
            }
        }
    }

    fn session_factory(machine: MealyMachine) -> BlockingSessionFactory<MachineSulFactory> {
        BlockingSessionFactory(MachineSulFactory(machine))
    }

    fn words(machine: &MealyMachine, count: usize) -> Vec<InputWord> {
        let alphabet = machine.input_alphabet().clone();
        (0..count)
            .map(|i| {
                (0..=(i % 5))
                    .map(|j| alphabet.get((i + j) % alphabet.len()).unwrap().clone())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn parallel_answers_match_sequential_for_any_worker_and_inflight_count() {
        let machine = known::counter(5);
        let factory = session_factory(machine.clone());
        let batch = words(&machine, 23);
        let mut sequential = SulMembershipOracle::new(MachineSulFactory(machine.clone()).create());
        let expected = sequential.query_batch(&batch);
        for (workers, inflight) in [(1, 1), (2, 1), (4, 3), (7, 1), (1, 8)] {
            let mut parallel = ParallelSulOracle::spawn_with(&factory, workers, inflight);
            assert_eq!(parallel.num_workers(), workers);
            assert_eq!(parallel.max_inflight(), inflight);
            let got = parallel.query_batch(&batch);
            assert_eq!(
                got, expected,
                "(workers, inflight) = ({workers}, {inflight}) changed batch answers"
            );
            assert_eq!(parallel.queries_answered(), batch.len() as u64);
        }
    }

    #[test]
    fn single_queries_and_stats_flow_through() {
        let factory = session_factory(known::toggle());
        let mut parallel = ParallelSulOracle::spawn_with(&factory, 2, 1);
        let word = InputWord::from_symbols(["press", "press", "press"]);
        let out = parallel.query(&word);
        assert_eq!(out, known::toggle().run(&word).unwrap());
        assert_eq!(parallel.stats().symbols_sent, 3);
        assert_eq!(parallel.stats().resets, 1);
        assert_eq!(parallel.engine_stats().batches(), 1);
        let suls = parallel.shutdown().expect("clean shutdown").suls;
        assert_eq!(suls.len(), 2);
        assert_eq!(suls.iter().map(|s| s.stats().symbols_sent).sum::<u64>(), 3);
    }

    #[test]
    fn queries_are_dealt_round_robin_across_batches() {
        let factory = session_factory(known::toggle());
        let mut parallel = ParallelSulOracle::spawn_with(&factory, 3, 1);
        let press = vec![InputWord::from_symbols(["press"]); 2];
        // The second batch starts at the worker the first one stopped at.
        parallel.query_batch(&press);
        parallel.query_batch(&press);
        // One reply per worker with a non-empty share: {0, 1}, then {2, 0}.
        assert_eq!(parallel.engine_stats().reply_messages, 4);
        let suls = parallel.shutdown().expect("clean shutdown").suls;
        let per_worker: Vec<u64> = suls.iter().map(|s| s.stats().symbols_sent).collect();
        assert_eq!(per_worker, vec![2, 1, 1]);
    }

    #[test]
    fn empty_batches_are_answered_without_dispatch() {
        let factory = session_factory(known::toggle());
        let mut parallel = ParallelSulOracle::spawn_with(&factory, 3, 1);
        assert!(parallel.query_batch(&[]).is_empty());
        assert_eq!(parallel.engine_stats().batches(), 0);
    }

    #[test]
    fn dispatches_are_attributed_to_the_announced_phase() {
        let machine = known::counter(4);
        let factory = session_factory(machine.clone());
        let mut parallel = ParallelSulOracle::spawn_with(&factory, 1, 4);
        let batch = words(&machine, 8);
        parallel.note_phase(QueryPhase::Construction);
        parallel.query_batch(&batch[..5]);
        parallel.note_phase(QueryPhase::Equivalence);
        parallel.query_batch(&batch[5..]);
        let engine = parallel.engine_stats();
        assert_eq!(engine.construction.batches, 1);
        assert_eq!(engine.construction.queries, 5);
        assert_eq!(engine.equivalence.batches, 1);
        assert_eq!(engine.equivalence.queries, 3);
        assert_eq!(engine.counterexample.batches, 0);
        assert_eq!(engine.batches(), 2);
        assert_eq!(parallel.queries_answered(), 8);
        // Blocking sessions answer in zero virtual time: no phase accrues
        // busy or worker time.
        for phase in ALL_PHASES {
            assert_eq!(engine.phase(phase).busy_micros, 0);
            assert_eq!(engine.phase(phase).worker_micros, 0);
        }
        let shutdown = parallel.shutdown().expect("clean shutdown");
        assert_eq!(shutdown.engine.construction.queries, 5);
        assert_eq!(shutdown.engine.queries_completed, 8);
    }

    #[test]
    fn async_submissions_fall_back_to_blocking_answers() {
        let machine = known::counter(5);
        let factory = session_factory(machine.clone());
        let batch = words(&machine, 17);
        let mut sequential = SulMembershipOracle::new(MachineSulFactory(machine.clone()).create());
        let expected = sequential.query_batch(&batch);
        let mut parallel = ParallelSulOracle::spawn_with(&factory, 2, 4);
        let queries: Vec<AsyncQuery> = batch
            .iter()
            .enumerate()
            .map(|(i, input)| AsyncQuery {
                ticket: i as u64,
                input: input.clone(),
                phase: QueryPhase::Construction,
                speculative: i % 3 == 0,
            })
            .collect();
        // The engine keeps the trait's blocking defaults: every ticket is
        // answered by the submit call itself, in submission order.
        let answers = parallel.submit_queries(queries);
        let tickets: Vec<u64> = answers.iter().map(|a| a.ticket).collect();
        assert_eq!(tickets, (0..batch.len() as u64).collect::<Vec<_>>());
        let got: Vec<OutputWord> = answers.into_iter().map(|a| a.output).collect();
        assert_eq!(got, expected);
        assert!(parallel.poll_answers(true).is_empty());
        assert_eq!(parallel.cancel_queries(&[0, 1]), CancelOutcome::default());
        assert_eq!(parallel.outstanding_queries(), 0);
        assert_eq!(parallel.queries_answered(), batch.len() as u64);
    }

    #[test]
    fn shutdown_reports_engine_statistics() {
        let machine = known::counter(4);
        let factory = session_factory(machine.clone());
        let mut parallel = ParallelSulOracle::spawn_with(&factory, 2, 3);
        parallel.query_batch(&words(&machine, 12));
        let shutdown = parallel.shutdown().expect("clean shutdown");
        assert_eq!(shutdown.suls.len(), 6, "2 workers × 3 sessions");
        assert_eq!(shutdown.engine.workers, 2);
        assert_eq!(shutdown.engine.max_inflight, 3);
        assert_eq!(shutdown.engine.queries_completed, 12);
    }

    /// A SUL that panics on a poisoned symbol, for the error-path tests.
    /// It counts the live instances of its factory.
    struct PanickySul(Arc<AtomicUsize>);

    impl Sul for PanickySul {
        fn step(&mut self, input: &Symbol) -> Symbol {
            assert!(input.as_str() != "poison", "poisoned symbol");
            Symbol::new("ok")
        }

        fn reset(&mut self) {}
    }

    impl Drop for PanickySul {
        fn drop(&mut self) {
            // Slow off the test's (named) thread, so a drop that leaves a
            // helper to finish on its own loses the race to the count.
            if std::thread::current().name().is_none() {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Mints [`PanickySul`]s; its counter is their live count.
    #[derive(Default)]
    struct PanickySulFactory(Arc<AtomicUsize>);

    impl SulFactory for PanickySulFactory {
        type Sul = PanickySul;

        fn create(&self) -> PanickySul {
            self.0.fetch_add(1, Ordering::SeqCst);
            PanickySul(Arc::clone(&self.0))
        }
    }

    /// Counts the flushes it receives.
    #[derive(Default)]
    struct FlushCounter(std::sync::atomic::AtomicUsize);

    impl EventSink for FlushCounter {
        fn emit(&self, _event: &Event) {}

        fn flush(&self) {
            self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }
    }

    #[test]
    fn panicking_workers_surface_as_learn_errors_not_hangs() {
        // Query k goes to worker k mod N: worker 0 runs on this thread,
        // worker 1 of a (2, _) engine on a helper thread.  The poisoned
        // word's batch index picks the worker that dies.
        for (workers, inflight, poisoned_at) in [(1, 1, 1), (1, 4, 1), (2, 1, 1), (2, 1, 0)] {
            let factory = BlockingSessionFactory(PanickySulFactory::default());
            let sink = Arc::new(FlushCounter::default());
            let mut parallel = ParallelSulOracle::spawn_with_events(
                &factory,
                workers,
                inflight,
                Some(Arc::clone(&sink) as Arc<dyn EventSink>),
                false,
            );
            let mut poisoned = vec![InputWord::from_symbols(["fine"]); 2];
            poisoned[poisoned_at] = InputWord::from_symbols(["poison"]);
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                parallel.query_batch(&poisoned);
            }));
            let payload = outcome.expect_err("the dispatcher must observe the worker death");
            let error = payload
                .downcast_ref::<LearnError>()
                .expect("worker death is relayed as a LearnError");
            let LearnError::WorkerPanicked { worker, message } = error else {
                panic!("({workers}, {inflight}, {poisoned_at}): unexpected error variant: {error}");
            };
            assert_eq!(*worker, poisoned_at % workers);
            assert!(message.contains("poisoned symbol"), "{message}");
            drop(parallel); // must not hang or double-panic
            assert_eq!(
                sink.0.load(std::sync::atomic::Ordering::SeqCst),
                1,
                "({workers}, {inflight}, {poisoned_at}): dropping the oracle flushes the sink"
            );
        }
    }

    #[test]
    fn a_dead_inline_worker_fails_later_batches_and_shutdown() {
        let factory = BlockingSessionFactory(PanickySulFactory::default());
        let mut parallel = ParallelSulOracle::spawn_with(&factory, 1, 1);
        let poisoned = vec![InputWord::from_symbols(["poison"])];
        let first = std::panic::catch_unwind(AssertUnwindSafe(|| {
            parallel.query_batch(&poisoned);
        }));
        assert!(first.is_err());
        let fine = vec![InputWord::from_symbols(["fine"])];
        let second = std::panic::catch_unwind(AssertUnwindSafe(|| {
            parallel.query_batch(&fine);
        }))
        .expect_err("a dead engine answers nothing");
        assert!(matches!(
            second.downcast_ref::<LearnError>(),
            Some(LearnError::WorkerPanicked { worker: 0, .. })
        ));
        assert!(matches!(
            parallel.shutdown(),
            Err(LearnError::WorkerPanicked { worker: 0, .. })
        ));
    }

    #[test]
    fn dropping_an_engine_joins_its_helpers_and_drops_every_session() {
        let factory = BlockingSessionFactory(PanickySulFactory::default());
        let live = Arc::clone(&factory.0 .0);
        let mut parallel = ParallelSulOracle::spawn_with(&factory, 3, 4);
        assert_eq!(live.load(Ordering::SeqCst), 3 * 4);
        parallel.query_batch(&vec![InputWord::from_symbols(["fine"]); 7]);
        drop(parallel); // no shutdown()
        assert_eq!(live.load(Ordering::SeqCst), 0, "a helper outlived drop");

        // A session panics mid-batch: by the time the learn returns its
        // error, the engine and every session of every worker are gone.
        let alphabet = Alphabet::from_symbols(["fine", "poison"]);
        let config = LearnConfig::default().with_workers(3).with_max_inflight(4);
        let error = learn_model_parallel(&factory, &alphabet, config)
            .err()
            .expect("the poisoned SUL fails the learn");
        assert!(
            matches!(error, LearnError::WorkerPanicked { .. }),
            "{error}"
        );
        assert_eq!(
            live.load(Ordering::SeqCst),
            0,
            "a helper outlived the error"
        );
    }
}

//! Parallel, multiplexed membership-query execution across session workers.
//!
//! Learning wall-clock time is dominated by membership queries replayed
//! symbol-by-symbol against the SUL (§4.1).  Queries within a batch are
//! independent — each starts from a reset — so they can run concurrently on
//! *separate* SUL instances.  [`ParallelSulOracle`] runs `N` workers, each
//! a [`SessionScheduler`] that multiplexes up to `max_inflight` concurrent
//! query sessions on a virtual clock.  A one-worker engine runs its
//! scheduler inline, on the learner's own thread: a dispatch blocks the
//! learner anyway, so a worker thread would only add hand-offs.  Larger
//! engines run one worker thread each; a batch is published to a shared
//! work queue and workers **pull** queries dynamically as their sessions
//! free up (replacing the old static `index % N` sharding), so a slow query
//! never idles the rest of the fleet.  Answers are merged back in query
//! order.  Because every session's SUL is deterministic per query (§3.2
//! property 3) and answers are pure, the merged answers — and therefore
//! the learned model and all query-cost statistics — are bit-identical to
//! a sequential run, regardless of `(workers, max_inflight)`, of which
//! worker happens to grab which query, or of whether the worker is a
//! thread.

use crate::engine::EnginePool;
use crate::pipeline::{panic_message, LearnError};
use crate::session::{
    add_stats, phase_name, EngineStats, QueryPhase, SchedulerStats, SessionScheduler, SessionSul,
    SessionSulFactory, SharedClock, SimTime, ALL_PHASES,
};
use crate::sul::SulStats;
use prognosis_automata::word::{InputWord, OutputWord};
use prognosis_events::{Event, EventSink, ScopedSink};
use prognosis_learner::oracle::MembershipOracle;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc::{channel, Receiver, RecvError, Sender};
use std::sync::{Arc, Condvar, Mutex};

/// One queued query of the batch being dispatched.
struct Job {
    /// Index of the query in its batch.
    index: usize,
    /// Shared handle to the input word: the learner's allocation travels
    /// through the queue to a session slot without a per-query deep clone.
    input: Arc<InputWord>,
    /// Learning phase the query belongs to.
    phase: QueryPhase,
}

/// One answered query: its batch index, its output word and the range of
/// its events in the reply's event buffer.
type Answer = (usize, OutputWord, Range<usize>);

enum Reply {
    /// One worker harvest: every query that completed in one drive cycle,
    /// the events those queries recorded (empty without an event sink),
    /// plus the worker's cumulative counters as of that harvest.  Batching
    /// the returns means one channel send — and one snapshot publication —
    /// per drive cycle instead of per answer, and the dispatcher never
    /// locks a worker-side mutex to read stats.
    Answers {
        worker: usize,
        answers: Vec<Answer>,
        events: Vec<Event>,
        snapshot: WorkerSnapshot,
    },
    /// A worker's session panicked; the message is the panic payload.
    Dead { worker: usize, message: String },
}

struct QueueState {
    /// The current batch's queries not yet pulled by a worker.
    jobs: VecDeque<Job>,
    /// Whether the dispatcher is blocked waiting for a reply.  A busy
    /// worker advances its virtual clock only while this is set: workers
    /// clear it before sending answers and the dispatcher sets it again
    /// before its next blocking receive, so while the dispatcher takes in
    /// a reply the workers hold still and idle peers get to pull their
    /// share of the queued batch.  Without this pacing, on a small host
    /// the first worker to wake can run through most of a batch alone,
    /// which stretches the virtual makespan of multi-worker engines.
    learner_waiting: bool,
    shutdown: bool,
}

impl Shared {
    /// Wakes enough workers for `jobs` newly queued queries.  Construction
    /// phases enqueue mostly single queries; waking the whole pool for one
    /// job costs `workers - 1` futile wake-ups per query (painful on small
    /// hosts, where every wake-up is a context switch off the one busy
    /// core), so the wake fans out no wider than the work.
    fn notify_work(&self, jobs: usize) {
        if jobs >= self.workers {
            self.available.notify_all();
        } else {
            for _ in 0..jobs {
                self.available.notify_one();
            }
        }
    }
}

/// Upper bound on the jobs a worker prefetches beyond its free session
/// capacity in one queue lock, and the flush threshold for answers banked
/// between queue visits.  The prefetched tail lands in a worker-local
/// backlog that feeds slots as they free up, so a chunk of queries costs
/// one lock acquisition and one learner wake-up instead of one of each per
/// query.  Fair-share bounded in [`Shared::next_jobs`] so a chunk never
/// starves peer workers of queued work.
const PULL_AHEAD: usize = 64;

/// The shared dispatcher ⇄ worker state: a work queue plus its condvar.
struct Shared {
    queue: Mutex<QueueState>,
    available: Condvar,
    /// Worker count, fixed at spawn: the fair-share divisor for chunked
    /// pulls (see [`Shared::next_jobs`]).
    workers: usize,
}

impl Shared {
    /// What a worker should do next given its free capacity and whether it
    /// still has queries in flight.  An empty job list tells the worker to
    /// drive its virtual clock instead; that is only allowed once nothing
    /// more could join the current virtual instant — the pool is full, the
    /// learner is blocked waiting for answers, or the engine is shutting
    /// down (see [`QueueState::learner_waiting`]).  Otherwise the worker
    /// sleeps on the queue (in real time; the virtual clock holds still).
    fn next_jobs(&self, capacity: usize, idle: bool) -> Option<WorkerCommand> {
        let mut q = self.queue.lock().expect("work queue poisoned");
        if capacity > 0 && !q.jobs.is_empty() {
            // Chunked pull: take the free-capacity fill plus a
            // fair-share prefetch for the worker-local backlog.  One
            // lock acquisition moves a whole chunk of queries; the
            // fair-share bound (an equal split of what is queued right
            // now) keeps one worker from walking off with work its
            // peers could be running.
            let queued = q.jobs.len();
            let fair_share = queued.div_ceil(self.workers.max(1));
            let want = (capacity + fair_share.min(PULL_AHEAD)).min(queued);
            return Some(WorkerCommand::Jobs(q.jobs.drain(..want).collect()));
        }
        if q.shutdown {
            if idle {
                return Some(WorkerCommand::Exit);
            }
            return Some(WorkerCommand::Jobs(Vec::new()));
        }
        if !idle && q.learner_waiting {
            // The learner has quiesced (blocked on an answer), so
            // advancing the clock is the only way forward.
            return Some(WorkerCommand::Jobs(Vec::new()));
        }
        None
    }

    /// Parks the worker on the queue condvar until something that could
    /// change [`Shared::next_jobs`]'s answer arrives.  Re-checks the
    /// predicate under the lock (the wake condition may have landed between
    /// an unlocked poll and this call), waits at most one condvar round,
    /// and lets the caller re-poll — spurious wake-ups are handled by the
    /// poll loop, not here.
    fn wait_for_work(&self, capacity: usize, idle: bool) {
        let q = self.queue.lock().expect("work queue poisoned");
        let ready = |q: &QueueState| {
            (capacity > 0 && !q.jobs.is_empty()) || q.shutdown || (!idle && q.learner_waiting)
        };
        if !ready(&q) {
            let _unused = self.available.wait(q).expect("work queue poisoned");
        }
    }

    /// Blocks the dispatcher for the next worker reply, with the
    /// quiescence gate raised: the learner announces it is out of work to
    /// submit *before* parking, which is what licenses the workers to
    /// advance their virtual clocks.  The flag is lowered again on wake
    /// (the worker also lowers it before sending, but this learner-side
    /// clear closes the race where the answer is consumed before the
    /// worker's clear lands).
    fn recv_reply(&self, replies: &Receiver<Reply>) -> Result<Reply, RecvError> {
        self.queue
            .lock()
            .expect("work queue poisoned")
            .learner_waiting = true;
        self.available.notify_all();
        let reply = replies.recv();
        self.queue
            .lock()
            .expect("work queue poisoned")
            .learner_waiting = false;
        reply
    }
}

enum WorkerCommand {
    Jobs(Vec<Job>),
    Exit,
}

/// Cumulative counters one worker ships with each answer harvest.
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

/// What a finished worker loop reports back: its sessions and final stats,
/// or the panic payload that killed it.
type WorkerResult<Sn> = std::thread::Result<(Vec<Sn>, SchedulerStats)>;

struct Worker<Sn> {
    result_rx: Receiver<WorkerResult<Sn>>,
}

/// Where an engine's workers run.
enum Executor<Sn> {
    /// A one-worker engine: the scheduler runs on the learner's thread, and
    /// a dispatch is a plain loop over [`step`].
    Inline(SessionScheduler<Sn>),
    /// Worker loops on [`EnginePool`] threads, fed through a shared queue
    /// and answering over a reply channel.
    Pool {
        shared: Arc<Shared>,
        reply_rx: Receiver<Reply>,
        workers: Vec<Worker<Sn>>,
        /// The pool a multi-worker `spawn_with` built for itself; `None`
        /// when the workers are leased from a caller-owned shared pool.
        /// Dropped (joining its threads) after the workers have been
        /// drained.
        _owned_pool: Option<EnginePool>,
    },
}

/// A membership oracle that fans query batches out to session workers,
/// each multiplexing `max_inflight` concurrent SUL sessions on virtual
/// time.
///
/// A one-worker engine from [`ParallelSulOracle::spawn_with`] runs its
/// worker inline, on the calling thread.  Otherwise the workers run on an
/// [`EnginePool`]: either a private pool this oracle constructed for itself
/// ([`ParallelSulOracle::spawn_with`] with two or more workers) or a shared
/// pool several concurrent learn tasks lease slots from
/// ([`ParallelSulOracle::spawn_on_pool_with_events`], the campaign shape).
/// Where the workers run never affects answers or statistics — everything
/// observable runs on virtual time.
pub struct ParallelSulOracle<Sn: SessionSul> {
    /// `None` once the inline worker has panicked (its sessions are in an
    /// unknown state) or the engine has been shut down.
    executor: Option<Executor<Sn>>,
    /// Most recent counters shipped by each worker (with its last answer
    /// harvest).  Reading stats is a plain field access on the dispatcher
    /// thread — no cross-thread lock on any stats path.
    snapshots: Vec<WorkerSnapshot>,
    max_inflight: usize,
    /// Phase the learner last announced via
    /// [`MembershipOracle::note_phase`]; dispatches are attributed to it.
    current_phase: QueryPhase,
    /// The dispatcher's books (engine shape, reply count, batch-size
    /// histogram, per-phase stats); [`ParallelSulOracle::engine_stats`]
    /// adds the workers' scheduler counters to them.
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
    clock: SharedClock,
    events: Option<Arc<ScopedSink>>,
) -> SessionScheduler<Sn> {
    let scheduler = SessionScheduler::with_clock(sessions, clock);
    match events {
        Some(sink) => scheduler.with_event_sink(sink),
        None => scheduler,
    }
}

impl<Sn: SessionSul + Send + 'static> ParallelSulOracle<Sn> {
    /// Builds an engine of `workers` workers, each multiplexing
    /// `max_inflight` sessions minted by `factory` over one shared virtual
    /// clock.  One worker runs inline on the calling thread; more run on a
    /// private [`EnginePool`] sized to exactly these workers.  Use
    /// [`ParallelSulOracle::spawn_on_pool_with_events`] to lease slots
    /// from a shared pool instead.
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
        let executor = if workers == 1 {
            let (sessions, clock) = factory.create_worker_sessions(max_inflight);
            Executor::Inline(scheduler_for(sessions, clock, events.clone()))
        } else {
            let pool = EnginePool::new(workers);
            let (shared, reply_rx, leased) =
                lease_workers(&pool, factory, workers, max_inflight, &events);
            Executor::Pool {
                shared,
                reply_rx,
                workers: leased,
                _owned_pool: Some(pool),
            }
        };
        Self::with_executor(executor, workers, max_inflight, events)
    }

    /// Spawns the oracle's `workers` worker loops on slots leased from
    /// `pool`, blocking until that many slots are free.  This is how
    /// several concurrent learn tasks — possibly with different SUL types —
    /// share one engine: each task's oracle holds its lease for the
    /// oracle's lifetime and the slots return to the pool on shutdown (or
    /// drop), so the pool caps how many workers all tasks run at once.
    /// The workers are threads even when `workers` is one.  Engine
    /// telemetry flows into `sink` when one is given (see
    /// [`ParallelSulOracle::spawn_with_events`]).
    ///
    /// # Panics
    /// Panics when `workers` or `max_inflight` is zero, or when `workers`
    /// exceeds the pool size.
    pub fn spawn_on_pool_with_events<F>(
        pool: &EnginePool,
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
        let (shared, reply_rx, leased) =
            lease_workers(pool, factory, workers, max_inflight, &events);
        let executor = Executor::Pool {
            shared,
            reply_rx,
            workers: leased,
            _owned_pool: None,
        };
        Self::with_executor(executor, workers, max_inflight, events)
    }

    fn with_executor(
        executor: Executor<Sn>,
        workers: usize,
        max_inflight: usize,
        events: Option<Arc<ScopedSink>>,
    ) -> Self {
        ParallelSulOracle {
            executor: Some(executor),
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

    /// Number of batches dispatched so far.
    pub fn batches_dispatched(&self) -> u64 {
        self.telemetry.batches()
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
    /// shipped snapshots — the delta basis for per-dispatch attribution.
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
        let finished: Vec<(Vec<Sn>, SchedulerStats)> = match self.executor.take() {
            Some(Executor::Inline(scheduler)) => {
                let stats = scheduler.stats();
                vec![(scheduler.into_sessions(), stats)]
            }
            Some(Executor::Pool {
                shared, workers, ..
            }) => {
                {
                    let mut q = shared.queue.lock().expect("work queue poisoned");
                    q.shutdown = true;
                }
                shared.available.notify_all();
                let mut finished = Vec::with_capacity(workers.len());
                for (worker_id, worker) in workers.into_iter().enumerate() {
                    let result = worker
                        .result_rx
                        .recv()
                        .map_err(|_| LearnError::EnginePanicked {
                            message: format!(
                                "session worker {worker_id} vanished without reporting"
                            ),
                        })?
                        .map_err(|payload| LearnError::WorkerPanicked {
                            worker: worker_id,
                            message: panic_message(payload.as_ref()),
                        })?;
                    finished.push(result);
                }
                finished
            }
            None => return Err(inline_worker_dead()),
        };
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

    /// Shuts down and returns just the session SULs (see
    /// [`ParallelSulOracle::shutdown`]).
    pub fn into_suls(self) -> Result<Vec<Sn::Sul>, LearnError> {
        self.shutdown().map(|s| s.suls)
    }

    fn dispatch(&mut self, inputs: &[Arc<InputWord>]) -> Vec<OutputWord> {
        let (busy_before, virtual_before) = self.busy_virtual_snapshot();
        let phase = self.current_phase;
        let jobs: VecDeque<Job> = inputs
            .iter()
            .cloned()
            .enumerate()
            .map(|(index, input)| Job {
                index,
                input,
                phase,
            })
            .collect();
        // Every reply of this batch: its answers, and the event buffer
        // their ranges index into.
        let mut replies: Vec<(Vec<Answer>, Vec<Event>)> = match &mut self.executor {
            Some(Executor::Inline(scheduler)) => match run_inline(scheduler, jobs) {
                Ok(answers) => {
                    self.snapshots[0] = WorkerSnapshot::of(scheduler);
                    vec![(answers, scheduler.take_events())]
                }
                Err(message) => {
                    // Relay the death up through the learning loop, as a
                    // pool worker's would be; the sessions are retired.
                    self.executor = None;
                    std::panic::panic_any(LearnError::WorkerPanicked { worker: 0, message });
                }
            },
            Some(Executor::Pool {
                shared, reply_rx, ..
            }) => run_pooled(shared, reply_rx, jobs, &mut self.snapshots),
            None => std::panic::panic_any(inline_worker_dead()),
        };
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
            // Batch-index order, whatever order the workers finished in.
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
                phase: phase_name(phase),
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

/// The error a dead inline worker reports from then on.
fn inline_worker_dead() -> LearnError {
    LearnError::WorkerPanicked {
        worker: 0,
        message: "the session worker panicked in an earlier batch".to_string(),
    }
}

/// Spawns `workers` worker loops on slots leased from `pool`, each over
/// `max_inflight` fresh sessions, returning their queue, the reply channel
/// and one result handle per worker.
fn lease_workers<Sn, F>(
    pool: &EnginePool,
    factory: &F,
    workers: usize,
    max_inflight: usize,
    events: &Option<Arc<ScopedSink>>,
) -> (Arc<Shared>, Receiver<Reply>, Vec<Worker<Sn>>)
where
    Sn: SessionSul + Send + 'static,
    F: SessionSulFactory<Session = Sn>,
{
    let shared = Arc::new(Shared {
        queue: Mutex::new(QueueState {
            jobs: VecDeque::new(),
            learner_waiting: false,
            shutdown: false,
        }),
        available: Condvar::new(),
        workers,
    });
    let (reply_tx, reply_rx) = channel::<Reply>();
    let mut lease = pool.lease(workers);
    let workers = (0..workers)
        .map(|worker_id| {
            // One session group (and, for networked transports, one
            // shared netsim network attached to this clock) per worker.
            let (sessions, clock) = factory.create_worker_sessions(max_inflight);
            let shared = Arc::clone(&shared);
            let reply_tx = reply_tx.clone();
            let worker_events = events.clone();
            let (result_tx, result_rx) = channel::<WorkerResult<Sn>>();
            lease.submit_worker_releasing(move |slot| {
                let mut scheduler = scheduler_for(sessions, clock, worker_events);
                let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    worker_loop(&shared, &mut scheduler, &reply_tx, worker_id);
                }));
                let result = match outcome {
                    Ok(()) => {
                        let stats = scheduler.stats();
                        Ok((scheduler.into_sessions(), stats))
                    }
                    Err(payload) => {
                        // Report the death both on the reply path (so a
                        // dispatcher blocked mid-batch wakes up) and as
                        // this worker's final result.  The panic is NOT
                        // re-raised: the hosting pool thread survives to
                        // serve later leases.
                        let _ = reply_tx.send(Reply::Dead {
                            worker: worker_id,
                            message: panic_message(payload.as_ref()),
                        });
                        Err(payload)
                    }
                };
                // Slot back first, report second: `shutdown()` returns
                // only after receiving every report, so callers that
                // joined a run observe its slots as already free.
                drop(slot);
                let _ = result_tx.send(result);
            });
            Worker { result_rx }
        })
        .collect();
    (shared, reply_rx, workers)
}

impl<Sn: SessionSul> Drop for ParallelSulOracle<Sn> {
    fn drop(&mut self) {
        // A dropped oracle (e.g. during a panic unwind) must not leak
        // blocked — or still-running — worker loops: their leased slots
        // only return to the pool once the loops finish, so wait for each
        // worker's final report before releasing the lease (and, for owned
        // pools, before the pool's own Drop joins its threads).
        if let Some(Executor::Pool {
            shared, workers, ..
        }) = &mut self.executor
        {
            if let Ok(mut q) = shared.queue.lock() {
                q.shutdown = true;
                q.jobs.clear();
            }
            shared.available.notify_all();
            for worker in workers.drain(..) {
                let _ = worker.result_rx.recv();
            }
        }
        if let Some(events) = &self.events {
            events.flush();
        }
    }
}

/// One pass of a worker's event loop, and the one gating rule that keeps
/// virtual time the same whether the worker runs inline or on a thread:
/// feed free slots from `backlog`, then drive the scheduler, advancing its
/// clock only if nothing was pulled.  Work taken at this virtual instant
/// means more queued work may still join it, so the pass harvests instant
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

/// Runs one whole batch on the calling thread: the inline executor's
/// dispatch.  Returns every answer (with event ranges into the scheduler's
/// event buffer), or the message of a session panic.
fn run_inline<Sn: SessionSul>(
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

/// Runs one whole batch on the worker threads: publishes `jobs` to the
/// shared queue and collects replies until every query has answered,
/// keeping each worker's latest counters in `snapshots`.  Returns every
/// reply's answers with the event buffer their ranges index into.  A
/// worker death is relayed as a [`LearnError`] panic.
fn run_pooled(
    shared: &Shared,
    reply_rx: &Receiver<Reply>,
    jobs: VecDeque<Job>,
    snapshots: &mut [WorkerSnapshot],
) -> Vec<(Vec<Answer>, Vec<Event>)> {
    let total = jobs.len();
    {
        let mut q = shared.queue.lock().expect("work queue poisoned");
        q.jobs.extend(jobs);
    }
    shared.notify_work(total);
    let mut replies = Vec::new();
    let mut received = 0;
    while received < total {
        match shared.recv_reply(reply_rx) {
            Ok(Reply::Answers {
                worker,
                answers,
                events,
                snapshot,
            }) => {
                snapshots[worker] = snapshot;
                received += answers.len();
                replies.push((answers, events));
            }
            Ok(Reply::Dead { worker, message }) => {
                // Relay the worker's death up through the learning loop;
                // `learn_model_parallel` converts it into a `LearnError`.
                std::panic::panic_any(LearnError::WorkerPanicked { worker, message });
            }
            Err(_) => {
                std::panic::panic_any(LearnError::EnginePanicked {
                    message: "all session workers exited mid-batch".to_string(),
                });
            }
        }
    }
    replies
}

/// Delivers every banked answer in one [`Reply::Answers`] message together
/// with their events and the worker's current counters.  The learner is about to receive
/// them and react — from here on it counts as active again, so the
/// quiescence gate is cleared *before* the send (clearing after could race
/// a learner that already consumed an answer and re-entered its wait).
/// Returns `false` when the dispatcher is gone.
fn flush_answers<Sn: SessionSul>(
    shared: &Shared,
    scheduler: &mut SessionScheduler<Sn>,
    reply_tx: &Sender<Reply>,
    worker_id: usize,
    banked: &mut Vec<Answer>,
) -> bool {
    {
        let mut q = shared.queue.lock().expect("work queue poisoned");
        q.learner_waiting = false;
    }
    let reply = Reply::Answers {
        worker: worker_id,
        answers: std::mem::take(banked),
        events: scheduler.take_events(),
        snapshot: WorkerSnapshot::of(scheduler),
    };
    reply_tx.send(reply).is_ok()
}

fn worker_loop<Sn: SessionSul>(
    shared: &Shared,
    scheduler: &mut SessionScheduler<Sn>,
    reply_tx: &Sender<Reply>,
    worker_id: usize,
) {
    // Jobs pulled ahead of free session slots, and answers banked between
    // queue visits: both amortise the shared-queue lock and the learner
    // wake-up over whole chunks instead of paying one of each per query —
    // with `max_inflight = 1` that is the difference between a lock convoy
    // and a tight local loop.
    let mut backlog: VecDeque<Job> = VecDeque::new();
    let mut banked: Vec<Answer> = Vec::new();
    loop {
        // Free slots with a local backlog are fed without touching the
        // shared queue.  Otherwise consult it, without flushing eagerly:
        // with a chunk still in the backlog this path runs once per clock
        // advance, and flushing here would deliver every answer
        // individually — the exact per-query wake-up convoy the bank
        // exists to avoid.  Only an actual condvar park demands a flush
        // first (the learner must never sleep on answers a sleeping worker
        // is sitting on); `next_jobs` returning `None` is that signal, and
        // re-polling after the wait keeps the wake-condition check under
        // the queue lock.  An empty job list is the license to advance the
        // clock, which `step` then takes because nothing was pulled.
        if backlog.is_empty() || !scheduler.has_capacity() {
            let idle = scheduler.is_idle();
            let command = loop {
                match shared.next_jobs(scheduler.capacity(), idle) {
                    Some(command) => break command,
                    None => {
                        if !banked.is_empty()
                            && !flush_answers(shared, scheduler, reply_tx, worker_id, &mut banked)
                        {
                            return;
                        }
                        shared.wait_for_work(scheduler.capacity(), idle);
                    }
                }
            };
            match command {
                WorkerCommand::Exit => {
                    if !banked.is_empty() {
                        flush_answers(shared, scheduler, reply_tx, worker_id, &mut banked);
                    }
                    return;
                }
                WorkerCommand::Jobs(jobs) => backlog.extend(jobs),
            }
        }
        let completed = step(scheduler, &mut backlog);
        if completed.is_empty() {
            continue;
        }
        banked.extend(completed);
        // Deliver once the local chunk is exhausted (the learner gets the
        // whole chunk in one wake-up); long backlogs also flush at the
        // chunk size so the learner is never starved behind a full
        // prefetch window.
        if (backlog.is_empty() || banked.len() >= PULL_AHEAD)
            && !flush_answers(shared, scheduler, reply_tx, worker_id, &mut banked)
        {
            return;
        }
    }
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
                    phase: phase_name(phase),
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
    use crate::session::BlockingSessionFactory;
    use crate::sul::{Sul, SulFactory, SulMembershipOracle};
    use prognosis_automata::alphabet::Symbol;
    use prognosis_automata::known;
    use prognosis_automata::mealy::{MealyMachine, StateId};
    use prognosis_learner::oracle::{AsyncQuery, CancelOutcome};

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
        assert_eq!(parallel.batches_dispatched(), 1);
        let suls = parallel.into_suls().expect("clean shutdown");
        assert_eq!(suls.len(), 2);
        assert_eq!(suls.iter().map(|s| s.stats().symbols_sent).sum::<u64>(), 3);
    }

    #[test]
    fn empty_batches_are_answered_without_dispatch() {
        let factory = session_factory(known::toggle());
        let mut parallel = ParallelSulOracle::spawn_with(&factory, 3, 1);
        assert!(parallel.query_batch(&[]).is_empty());
        assert_eq!(parallel.batches_dispatched(), 0);
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
        // Bucket 2 holds sizes 4..=7, bucket 1 sizes 2..=3.
        assert_eq!(engine.batch_size_histogram[2], 1);
        assert_eq!(engine.batch_size_histogram[1], 1);
        assert_eq!(parallel.batches_dispatched(), 2);
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

    /// A SUL that panics on a poisoned symbol, for the error-path test.
    struct PanickySul;

    impl Sul for PanickySul {
        fn step(&mut self, input: &Symbol) -> Symbol {
            assert!(input.as_str() != "poison", "poisoned symbol");
            Symbol::new("ok")
        }

        fn reset(&mut self) {}
    }

    struct PanickySulFactory;

    impl SulFactory for PanickySulFactory {
        type Sul = PanickySul;

        fn create(&self) -> PanickySul {
            PanickySul
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
        // (1, _) runs its worker inline on this thread; (2, 1) on threads.
        for (workers, inflight) in [(1, 1), (1, 4), (2, 1)] {
            let factory = BlockingSessionFactory(PanickySulFactory);
            let sink = Arc::new(FlushCounter::default());
            let mut parallel = ParallelSulOracle::spawn_with_events(
                &factory,
                workers,
                inflight,
                Some(Arc::clone(&sink) as Arc<dyn EventSink>),
                false,
            );
            let poisoned = vec![
                InputWord::from_symbols(["fine"]),
                InputWord::from_symbols(["poison"]),
            ];
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                parallel.query_batch(&poisoned);
            }));
            let payload = outcome.expect_err("the dispatcher must observe the worker death");
            let error = payload
                .downcast_ref::<LearnError>()
                .expect("worker death is relayed as a LearnError");
            let LearnError::WorkerPanicked { worker, message } = error else {
                panic!("({workers}, {inflight}): unexpected error variant: {error}");
            };
            assert!(*worker < workers);
            if workers == 1 {
                assert_eq!(*worker, 0, "the inline worker is worker 0");
            }
            assert!(message.contains("poisoned symbol"), "{message}");
            drop(parallel); // must not hang or double-panic
            assert_eq!(
                sink.0.load(std::sync::atomic::Ordering::SeqCst),
                1,
                "({workers}, {inflight}): dropping the oracle flushes the sink"
            );
        }
    }

    #[test]
    fn a_dead_inline_worker_fails_later_batches_and_shutdown() {
        let factory = BlockingSessionFactory(PanickySulFactory);
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
}

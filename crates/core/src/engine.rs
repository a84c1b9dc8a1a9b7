//! The shared engine pool: a standalone, reusable home for session workers.
//!
//! Before the campaign orchestrator existed, the worker pool was
//! constructed inside — and owned by — a single
//! [`crate::parallel::ParallelSulOracle`]: one oracle, one set of threads,
//! one SUL type, torn down when that oracle shut down.  Fleet campaigns
//! need the opposite shape: **one** pool of engine threads serving many
//! concurrent learn tasks, each with its own SUL type, session scheduler
//! and per-worker `netsim` network.  [`EnginePool`] is that split: it owns
//! plain executor threads and a slot ledger; a learn task *leases* slots
//! ([`EnginePool::lease`], blocking until enough are free), installs its
//! typed helper workers on the leased threads (worker 0 of every engine
//! runs on the learn task's own thread), and returns the slots when its
//! oracle shuts down.  Because every worker runs entirely on virtual time,
//! *which* thread hosts a given worker never affects learned models or
//! statistics — leasing moves only wall-clock scheduling.
//!
//! The pool is deliberately untyped (it executes boxed closures), which is
//! what lets a TCP learn task and a QUIC learn task share one pool at the
//! same time.

use prognosis_events::{Event, EventSink};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type PoolJob = Box<dyn FnOnce() + Send + 'static>;

struct JobQueue {
    pending: VecDeque<PoolJob>,
    shutdown: bool,
}

struct SlotLedger {
    free: usize,
    total: usize,
}

struct PoolShared {
    jobs: Mutex<JobQueue>,
    jobs_ready: Condvar,
    slots: Mutex<SlotLedger>,
    slots_ready: Condvar,
    /// Diagnostic sink for lease traffic (`lease:acquire` /
    /// `lease:release`); lives here because slot returns happen on pool
    /// threads, not through the [`EnginePool`] handle.
    events: Mutex<Option<Arc<dyn EventSink>>>,
}

/// A pool of engine threads that helper workers run on.  Each thread hosts
/// at most one leased helper at a time (a slot *is* a thread), so a leased
/// helper gets a dedicated OS thread for its scheduler's lifetime, and
/// concurrent learn tasks with different SUL types share one set of
/// threads.
pub struct EnginePool {
    shared: Arc<PoolShared>,
    threads: Vec<JoinHandle<()>>,
}

impl EnginePool {
    /// Spawns a pool of `threads` engine threads (= `threads` leasable
    /// worker slots).
    ///
    /// # Panics
    /// Panics when `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "an engine pool needs at least one thread");
        let shared = Arc::new(PoolShared {
            jobs: Mutex::new(JobQueue {
                pending: VecDeque::new(),
                shutdown: false,
            }),
            jobs_ready: Condvar::new(),
            slots: Mutex::new(SlotLedger {
                free: threads,
                total: threads,
            }),
            slots_ready: Condvar::new(),
            events: Mutex::new(None),
        });
        let threads = (0..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || loop {
                    let job = {
                        let mut q = shared.jobs.lock().expect("engine pool queue poisoned");
                        loop {
                            if let Some(job) = q.pending.pop_front() {
                                break job;
                            }
                            if q.shutdown {
                                return;
                            }
                            q = shared
                                .jobs_ready
                                .wait(q)
                                .expect("engine pool queue poisoned");
                        }
                    };
                    // Worker loops guard themselves with `catch_unwind` and
                    // report panics through their own channels, so a dying
                    // worker never takes the pool thread down with it.
                    job();
                })
            })
            .collect();
        EnginePool { shared, threads }
    }

    /// Attaches a sink for the pool's diagnostic lease events
    /// (`lease:acquire` on grant, `lease:release` per returned slot).
    /// Replaces any previous sink.
    pub fn set_event_sink(&self, sink: Arc<dyn EventSink>) {
        *self.shared.events.lock().expect("pool sink poisoned") = Some(sink);
    }

    /// Total worker slots (= pool threads).
    pub fn total_slots(&self) -> usize {
        self.shared
            .slots
            .lock()
            .expect("slot ledger poisoned")
            .total
    }

    /// Slots currently free to lease.  Advisory (another task may lease
    /// between the read and any decision based on it) — use for progress
    /// reporting, not for coordination.
    pub fn free_slots(&self) -> usize {
        self.shared.slots.lock().expect("slot ledger poisoned").free
    }

    /// Leases `workers` slots, blocking until that many are free at once.
    /// The lease is all-or-nothing (no partial acquisition), so two tasks
    /// each waiting for `k` slots can never deadlock each other — whichever
    /// sees `k` free first takes them atomically.
    ///
    /// # Panics
    /// Panics when `workers` is zero or exceeds the pool size (such a lease
    /// could never be satisfied).
    pub fn lease(&self, workers: usize) -> EngineLease {
        assert!(workers >= 1, "a lease needs at least one worker slot");
        let mut slots = self.shared.slots.lock().expect("slot ledger poisoned");
        assert!(
            workers <= slots.total,
            "cannot lease {workers} slots from a {}-thread pool",
            slots.total
        );
        while slots.free < workers {
            slots = self
                .shared
                .slots_ready
                .wait(slots)
                .expect("slot ledger poisoned");
        }
        slots.free -= workers;
        let free = slots.free;
        drop(slots);
        emit_pool_event(
            &self.shared,
            Event::LeaseAcquire {
                slots: workers as u64,
                free: free as u64,
            },
        );
        EngineLease {
            shared: Arc::clone(&self.shared),
            unspent: workers,
        }
    }

    /// Submits one worker-loop closure to run on a pool thread.  Callers go
    /// through [`EngineLease::submit_worker_releasing`], which ties the
    /// submission to a reserved slot.
    fn submit(shared: &PoolShared, job: PoolJob) {
        let mut q = shared.jobs.lock().expect("engine pool queue poisoned");
        assert!(!q.shutdown, "submitting work to a shut-down engine pool");
        q.pending.push_back(job);
        drop(q);
        shared.jobs_ready.notify_one();
    }
}

impl Drop for EnginePool {
    fn drop(&mut self) {
        {
            let mut q = self.shared.jobs.lock().expect("engine pool queue poisoned");
            q.shutdown = true;
        }
        self.shared.jobs_ready.notify_all();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A reservation of worker slots in an [`EnginePool`].  Each call to
/// [`EngineLease::submit_worker_releasing`] spends one reserved slot; the
/// slot returns to the pool when the job drops its [`SlotHandle`], and at
/// the latest when that job finishes (normally or by panic).  Dropping a
/// lease returns any unspent slots.
pub struct EngineLease {
    shared: Arc<PoolShared>,
    unspent: usize,
}

impl EngineLease {
    /// Slots reserved but not yet spent on a worker.
    pub fn remaining(&self) -> usize {
        self.unspent
    }

    /// Runs `job` on a pool thread, spending one reserved slot, and hands
    /// the job its slot's return guard so it can release the slot *before*
    /// its final effects (dropping the handle mid-job returns the slot
    /// immediately).  Helper workers use this to return the slot before
    /// sending their shutdown report, so a learn task that has joined its
    /// helpers observes the pool as already reusable — without the early
    /// release, the ledger update would race every observer of the
    /// finished run.  A job that never drops the handle returns the slot
    /// when the closure finishes, normally or by unwind.
    ///
    /// # Panics
    /// Panics when the lease has no slots left.
    pub fn submit_worker_releasing<J>(&mut self, job: J)
    where
        J: FnOnce(SlotHandle) + Send + 'static,
    {
        assert!(self.unspent > 0, "lease has no reserved slots left");
        self.unspent -= 1;
        let shared = Arc::clone(&self.shared);
        EnginePool::submit(
            &self.shared,
            Box::new(move || {
                // The handle releases the slot no matter how the job ends;
                // a panic that escapes the job must not leak the slot (the
                // guard's Drop runs during unwind).
                job(SlotHandle {
                    _guard: SlotReturn { shared, count: 1 },
                });
            }),
        );
    }
}

/// A leased slot's return guard, handed to jobs submitted through
/// [`EngineLease::submit_worker_releasing`].  Dropping it returns the slot
/// to the pool; holding it to the end of the job reproduces the default
/// release-on-finish behaviour.
pub struct SlotHandle {
    _guard: SlotReturn,
}

impl Drop for EngineLease {
    fn drop(&mut self) {
        if self.unspent > 0 {
            release_slots(&self.shared, self.unspent);
        }
    }
}

fn release_slots(shared: &PoolShared, count: usize) {
    let mut slots = shared.slots.lock().expect("slot ledger poisoned");
    slots.free += count;
    let free = slots.free;
    debug_assert!(slots.free <= slots.total, "slot over-release");
    drop(slots);
    emit_pool_event(shared, Event::LeaseRelease { free: free as u64 });
    shared.slots_ready.notify_all();
}

fn emit_pool_event(shared: &PoolShared, event: Event) {
    if let Some(sink) = &*shared.events.lock().expect("pool sink poisoned") {
        sink.emit(&event);
    }
}

/// Returns `count` slots to the pool on drop.
struct SlotReturn {
    shared: Arc<PoolShared>,
    count: usize,
}

impl Drop for SlotReturn {
    fn drop(&mut self) {
        release_slots(&self.shared, self.count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::channel;

    #[test]
    fn leased_workers_run_and_slots_return() {
        let pool = EnginePool::new(3);
        assert_eq!(pool.total_slots(), 3);
        assert_eq!(pool.free_slots(), 3);
        let (tx, rx) = channel();
        let mut lease = pool.lease(2);
        assert_eq!(pool.free_slots(), 1);
        for i in 0..2 {
            let tx = tx.clone();
            lease.submit_worker_releasing(move |_slot| tx.send(i).unwrap());
        }
        let mut got: Vec<usize> = (0..2).map(|_| rx.recv().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1]);
        // The workers finished, so their slots drain back to the pool.
        while pool.free_slots() < 3 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn dropping_an_unspent_lease_returns_slots() {
        let pool = EnginePool::new(2);
        let lease = pool.lease(2);
        assert_eq!(pool.free_slots(), 0);
        drop(lease);
        assert_eq!(pool.free_slots(), 2);
    }

    #[test]
    fn leases_block_until_slots_free() {
        let pool = Arc::new(EnginePool::new(1));
        let (release_tx, release_rx) = channel::<()>();
        let mut first = pool.lease(1);
        first.submit_worker_releasing(move |_slot| {
            release_rx.recv().unwrap();
        });
        let order = Arc::new(AtomicUsize::new(0));
        let waiter = {
            let pool = Arc::clone(&pool);
            let order = Arc::clone(&order);
            std::thread::spawn(move || {
                let _lease = pool.lease(1); // blocks until the first worker ends
                order.fetch_add(1, Ordering::SeqCst);
            })
        };
        assert_eq!(order.load(Ordering::SeqCst), 0);
        release_tx.send(()).unwrap();
        waiter.join().unwrap();
        assert_eq!(order.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_panicking_worker_returns_its_slot_and_keeps_the_thread() {
        let pool = EnginePool::new(1);
        let mut lease = pool.lease(1);
        lease.submit_worker_releasing(|_slot| {
            let _ = std::panic::catch_unwind(|| panic!("worker died"));
        });
        // The slot comes back and the single pool thread still executes
        // later leases.
        let (tx, rx) = channel();
        let mut second = pool.lease(1);
        second.submit_worker_releasing(move |_slot| tx.send(42).unwrap());
        assert_eq!(rx.recv().unwrap(), 42);
    }
}

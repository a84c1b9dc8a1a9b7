//! Outside-in layer accounting for the traced run.
//!
//! Nothing here reaches into the program: the shims in [`crate::shims`]
//! wrap each layer's public entry points in a [`span`], and a span charges
//! its *self* time (elapsed minus the spans nested inside it on the same
//! thread) and self allocations to one [`Layer`].  Allocations come from
//! the counting global allocator below, which only counts while
//! [`set_counting`] is on, so untraced learns pay one relaxed load per
//! allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// The layers the ledger attributes time to, named after the modules
/// whose public entry points the shims wrap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `DTreeLearner::learn` and the equivalence oracle it drives.
    Learner,
    /// `CacheOracle` (the prefix-trie cache), minus its inner oracle.
    Trie,
    /// `JournalStore::load_matching`.
    JournalLoad,
    /// `JournalStore::save_merged_at`.
    JournalSave,
    /// `ParallelSulOracle` as seen from the learner thread.
    Engine,
    /// The adapter's client half: `wire_request`, `absorb_wire`,
    /// `finish_step`.
    Adapter,
    /// `Sul::reset` on the adapter (client and server reset together).
    AdapterReset,
    /// The simulated implementation: `WireSul::handle_wire`.
    Server,
    /// `EventSink::emit` on the event log.
    Sink,
}

const LAYERS: usize = 9;

impl Layer {
    fn index(self) -> usize {
        self as usize
    }
}

/// Per-layer totals, split by whether the span ran on the learner thread
/// (the thread that called [`mark_learner_thread`]) or any other thread.
struct Totals {
    ns: [AtomicU64; LAYERS],
    allocs: [AtomicU64; LAYERS],
    calls: [AtomicU64; LAYERS],
}

impl Totals {
    const fn new() -> Self {
        Totals {
            ns: [const { AtomicU64::new(0) }; LAYERS],
            allocs: [const { AtomicU64::new(0) }; LAYERS],
            calls: [const { AtomicU64::new(0) }; LAYERS],
        }
    }
}

static LEARNER_THREAD: Totals = Totals::new();
static OTHER_THREADS: Totals = Totals::new();
/// Learner-thread CPU time inside [`Layer::Engine`] spans, minus nested
/// spans: the dispatch side of the engine, without its blocking waits.
static ENGINE_CPU_NS: AtomicU64 = AtomicU64::new(0);

/// A snapshot of one layer's totals.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTotals {
    pub learner_thread_ns: u64,
    pub other_threads_ns: u64,
    pub allocs: u64,
    pub calls: u64,
}

impl LayerTotals {
    pub fn ns(&self) -> u64 {
        self.learner_thread_ns + self.other_threads_ns
    }
}

/// The totals of `layer` accumulated since the last [`reset`].
pub fn totals(layer: Layer) -> LayerTotals {
    let i = layer.index();
    LayerTotals {
        learner_thread_ns: LEARNER_THREAD.ns[i].load(Ordering::Relaxed),
        other_threads_ns: OTHER_THREADS.ns[i].load(Ordering::Relaxed),
        allocs: LEARNER_THREAD.allocs[i].load(Ordering::Relaxed)
            + OTHER_THREADS.allocs[i].load(Ordering::Relaxed),
        calls: LEARNER_THREAD.calls[i].load(Ordering::Relaxed)
            + OTHER_THREADS.calls[i].load(Ordering::Relaxed),
    }
}

/// Learner-thread CPU seconds spent dispatching in the engine.
pub fn engine_dispatch_cpu_ns() -> u64 {
    ENGINE_CPU_NS.load(Ordering::Relaxed)
}

/// Zeroes every accumulator.
pub fn reset() {
    for totals in [&LEARNER_THREAD, &OTHER_THREADS] {
        for i in 0..LAYERS {
            totals.ns[i].store(0, Ordering::Relaxed);
            totals.allocs[i].store(0, Ordering::Relaxed);
            totals.calls[i].store(0, Ordering::Relaxed);
        }
    }
    ENGINE_CPU_NS.store(0, Ordering::Relaxed);
}

thread_local! {
    static IS_LEARNER_THREAD: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Open spans on this thread: (nested elapsed ns, nested allocs).
    static STACK: [Cell<(u64, u64)>; MAX_DEPTH] = const { [const { Cell::new((0, 0)) }; MAX_DEPTH] };
    static DEPTH: Cell<usize> = const { Cell::new(0) };
}

const MAX_DEPTH: usize = 16;

/// Declares the calling thread the learner thread.
pub fn mark_learner_thread() {
    IS_LEARNER_THREAD.with(|flag| flag.set(true));
}

fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Runs `f` as a span of `layer`.
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    span_inner(layer, false, f)
}

/// Like [`span`], but also charges the thread's CPU time (minus nested
/// spans) to the engine's dispatch-side CPU total.
pub fn engine_span<R>(f: impl FnOnce() -> R) -> R {
    span_inner(Layer::Engine, true, f)
}

fn span_inner<R>(layer: Layer, cpu: bool, f: impl FnOnce() -> R) -> R {
    let depth = DEPTH.with(Cell::get);
    assert!(depth < MAX_DEPTH, "spans nest deeper than {MAX_DEPTH}");
    set_frame(depth, (0, 0));
    DEPTH.with(|d| d.set(depth + 1));
    let cpu_start = if cpu { thread_cpu_ns() } else { 0 };
    let allocs_start = thread_allocs();
    let start = Instant::now();
    let result = f();
    let elapsed = start.elapsed().as_nanos() as u64;
    let allocs = thread_allocs() - allocs_start;
    let cpu_elapsed = if cpu {
        thread_cpu_ns().saturating_sub(cpu_start)
    } else {
        0
    };
    DEPTH.with(|d| d.set(depth));
    let (nested_ns, nested_allocs) = frame(depth);
    let i = layer.index();
    let totals = if IS_LEARNER_THREAD.with(Cell::get) {
        &LEARNER_THREAD
    } else {
        &OTHER_THREADS
    };
    totals.ns[i].fetch_add(elapsed.saturating_sub(nested_ns), Ordering::Relaxed);
    totals.allocs[i].fetch_add(allocs.saturating_sub(nested_allocs), Ordering::Relaxed);
    totals.calls[i].fetch_add(1, Ordering::Relaxed);
    if cpu {
        ENGINE_CPU_NS.fetch_add(cpu_elapsed.saturating_sub(nested_ns), Ordering::Relaxed);
    }
    if depth > 0 {
        let (parent_ns, parent_allocs) = frame(depth - 1);
        set_frame(depth - 1, (parent_ns + elapsed, parent_allocs + allocs));
    }
    result
}

fn frame(depth: usize) -> (u64, u64) {
    STACK.with(|stack| stack[depth].get())
}

fn set_frame(depth: usize, value: (u64, u64)) {
    STACK.with(|stack| stack[depth].set(value));
}

static COUNTING: AtomicBool = AtomicBool::new(false);

/// Turns allocation counting on or off for every thread.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::SeqCst);
}

/// The system allocator, counting allocations per thread while
/// [`set_counting`] is on.  Reallocations count as allocations: a growing
/// `Vec` or `String` is the adapter cost the counts are meant to pin.
pub struct CountingAllocator;

fn count_one() {
    if COUNTING.load(Ordering::Relaxed) {
        // `try_with`: a thread that is tearing down its thread-locals may
        // still free and allocate; such allocations go uncounted.
        let _ = ALLOCS.try_with(|count| count.set(count.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter touches only
// a const-initialized `Cell<u64>` thread-local, which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded verbatim; `ptr` came from this allocator,
        // which is `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock id is a constant Linux defines.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// User+system CPU time of the whole process, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// User+system CPU time of the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Restarts the peak resident set size from the current one, so
/// [`peak_rss_mb`] covers only what runs afterwards.  Returns whether the
/// kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

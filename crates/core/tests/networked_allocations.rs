//! Allocation guard for the networked session path.  A warmed google
//! [`NetworkedSessionFactory`] group — one worker's 16 sessions sharing one
//! netsim network over a 100 µs latency + jitter link — answers a fixed
//! query set through a [`SessionScheduler`].  Past the adapter's own wire
//! boundary (the request [`bytes::Bytes`], each response flight and the
//! flight's list, see `quic_wire_allocations.rs`) and the scheduler's
//! per-query output word, the per-datagram path allocates nothing: packet
//! fates are inline, netsim's lookups index per-endpoint slots, a poll
//! pops its inboxes one datagram at a time and sends due flights from a
//! reused outbox, and a query's `wire:*` events reuse the buffer of a
//! closed scope.
//!
//! This binary holds a single test: its counting allocator sees every
//! allocation of the process.

use prognosis_automata::alphabet::Symbol;
use prognosis_automata::word::InputWord;
use prognosis_core::net_transport::{LinkConfig, NetworkedSession, NetworkedSessionFactory};
use prognosis_core::quic_adapter::quic_alphabet;
use prognosis_core::session::{QueryPhase, SessionScheduler, SessionSulFactory, SimDuration};
use prognosis_core::{QuicSul, QuicSulFactory};
use prognosis_events::{NullSink, ScopedSink};
use prognosis_quic_sim::profile::ImplementationProfile;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counts every allocation and reallocation, then defers to the system
/// allocator.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The bound, with and without an event sink: allocations per symbol,
/// resets included.  Both read 3.07 (≈ 25% headroom); before the path
/// went allocation-free they read 9.93 and 10.78.
const MAX_ALLOCATIONS_PER_SYMBOL: f64 = 3.85;

/// Every three-symbol word of the QUIC alphabet, alone and after the
/// handshake, so the steps cover the idle, established, blocked and closed
/// states of the google model.
fn queries() -> Vec<Arc<InputWord>> {
    let alphabet: Vec<Symbol> = quic_alphabet().iter().cloned().collect();
    let handshake = [
        Symbol::new("INITIAL(?,?)[CRYPTO]"),
        Symbol::new("HANDSHAKE(?,?)[ACK,CRYPTO]"),
    ];
    let mut queries = Vec::new();
    for a in &alphabet {
        for b in &alphabet {
            for c in &alphabet {
                let word = [a.clone(), b.clone(), c.clone()];
                queries.push(Arc::new(InputWord::from_symbols(word.clone())));
                queries.push(Arc::new(InputWord::from_symbols(
                    handshake.iter().chain(&word).cloned(),
                )));
            }
        }
    }
    queries
}

/// Answers every query on the scheduler the way an engine worker does:
/// fill free slots, then drive, advancing the clock only when nothing was
/// submitted.  Returns the number of symbols stepped.
fn run(
    scheduler: &mut SessionScheduler<NetworkedSession<QuicSul>>,
    queries: &[Arc<InputWord>],
) -> u64 {
    let mut backlog: VecDeque<(usize, &Arc<InputWord>)> = queries.iter().enumerate().collect();
    let mut answered = 0;
    while answered < queries.len() {
        let pulled = scheduler.has_capacity() && !backlog.is_empty();
        while scheduler.has_capacity() {
            let Some((index, word)) = backlog.pop_front() else {
                break;
            };
            scheduler.submit(index, Arc::clone(word), QueryPhase::Construction);
        }
        answered += scheduler.drive_gated(!pulled).len();
    }
    drop(scheduler.take_events());
    queries.iter().map(|word| word.len() as u64).sum()
}

/// Allocations per symbol of a warmed 1 × 16 group answering `queries`.
fn allocations_per_symbol(traced: bool, queries: &[Arc<InputWord>]) -> f64 {
    let link = LinkConfig::with_latency(SimDuration::from_micros(100))
        .jitter(SimDuration::from_micros(100));
    let factory = NetworkedSessionFactory::new(
        QuicSulFactory::new(ImplementationProfile::google(), 1),
        link,
    );
    let mut scheduler = SessionScheduler::new(factory.create_worker_sessions(16));
    if traced {
        scheduler = scheduler.with_event_sink(ScopedSink::new(Arc::new(NullSink), false));
    }
    run(&mut scheduler, queries);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let symbols = run(&mut scheduler, queries);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let per_symbol = allocations as f64 / symbols as f64;
    println!(
        "traced {traced}: {allocations} allocations over {symbols} symbols: \
         {per_symbol:.2} per symbol"
    );
    per_symbol
}

#[test]
fn a_warmed_networked_group_allocates_only_at_the_wire_boundary() {
    let queries = queries();
    let plain = allocations_per_symbol(false, &queries);
    let traced = allocations_per_symbol(true, &queries);
    assert!(
        plain < MAX_ALLOCATIONS_PER_SYMBOL,
        "{plain:.2} allocations per symbol without an event sink"
    );
    assert!(
        traced < MAX_ALLOCATIONS_PER_SYMBOL,
        "{traced:.2} allocations per symbol with an event sink"
    );
}

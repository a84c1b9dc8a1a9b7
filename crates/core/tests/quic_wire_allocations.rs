//! Allocation guard for the QUIC wire round trip.  A warmed-up google
//! [`QuicSul`] driven through its networked steps (`wire_request` →
//! `handle_wire` → `absorb_wire` → `finish_step`) allocates only where a
//! datagram becomes [`bytes::Bytes`] for the simulated network — the
//! request, each response flight and the flight's list — plus the Oracle
//! Table's amortised growth.  Packet encoding and decoding, connection
//! IDs, frame payloads and server resets allocate nothing.
//!
//! This binary holds a single test: its counting allocator sees every
//! allocation of the process.

use prognosis_automata::alphabet::Symbol;
use prognosis_core::net_transport::{WireRequest, WireSul};
use prognosis_core::quic_adapter::quic_alphabet;
use prognosis_core::session::SimTime;
use prognosis_core::sul::Sul;
use prognosis_core::QuicSul;
use prognosis_quic_sim::profile::ImplementationProfile;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

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

/// The bound: allocations per symbol, resets included.
const MAX_ALLOCATIONS_PER_SYMBOL: f64 = 5.0;

/// Every three-symbol word of the QUIC alphabet, alone and after the
/// handshake, so the steps cover the idle, established, blocked and closed
/// states of the google model.
fn queries() -> Vec<Vec<Symbol>> {
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
                queries.push(word.to_vec());
                queries.push(handshake.iter().chain(&word).cloned().collect());
            }
        }
    }
    queries
}

/// Runs every query through the networked steps; returns the number of
/// symbols stepped.
fn run(sul: &mut QuicSul, queries: &[Vec<Symbol>]) -> u64 {
    let mut symbols = 0;
    for query in queries {
        sul.reset();
        for input in query {
            symbols += 1;
            if let WireRequest::Datagram(request) = sul.wire_request(input) {
                let source = sul.wire_source_port(40_000);
                let (responses, _) = sul.handle_wire(&request, source, SimTime::ZERO);
                for response in &responses {
                    sul.absorb_wire(response);
                }
                sul.finish_step();
            }
        }
    }
    symbols
}

#[test]
fn a_warmed_quic_sul_allocates_only_at_the_wire_boundary() {
    let queries = queries();
    let mut sul = QuicSul::new(ImplementationProfile::google(), 7);
    run(&mut sul, &queries);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let symbols = run(&mut sul, &queries);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let per_symbol = allocations as f64 / symbols as f64;
    assert!(
        per_symbol < MAX_ALLOCATIONS_PER_SYMBOL,
        "{allocations} allocations over {symbols} symbols: {per_symbol:.2} per symbol"
    );
    println!("{allocations} allocations over {symbols} symbols: {per_symbol:.2} per symbol");
}

//! Allocation guard for the in-process TCP membership round trip.  A cold
//! 1 × 1 [`learn_model_parallel`] TCP learn — the random-word equivalence
//! oracle, the observation cache, one engine worker with one
//! `TimedSession<TcpSul>` and the simulated server — at the `tcp-cold-1w`
//! benchmark configuration (600 tests of length ≤ 10), over fixed seeds.
//! Segments carry owned payloads, so a reply and a zero-length request
//! allocate nothing; output words are allocated once at their final
//! length; the cache moves each forwarded answer into its result; and the
//! equivalence check walks the hypothesis without building its output
//! word.  What is left per symbol is mostly the learner's own books and
//! the Oracle Table's growth.
//!
//! This binary holds a single test: its counting allocator sees every
//! allocation of the process.

use prognosis_core::pipeline::LearnConfig;
use prognosis_core::{learn_model_parallel, tcp_alphabet, TcpSulFactory};
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

/// The bound on allocations per SUL symbol over the whole learn, set-up
/// and engine included.  It reads 1.55 (≈ 25% headroom); while segments
/// carried `Bytes` payloads, output words grew by doubling, the cache
/// cloned forwarded answers and the equivalence check ran the hypothesis
/// into an output word, it read 3.80.
const MAX_ALLOCATIONS_PER_SYMBOL: f64 = 1.95;

#[test]
fn a_cold_tcp_learn_allocates_little_per_symbol() {
    let factory = TcpSulFactory::default();
    let alphabet = tcp_alphabet();
    let (mut allocations, mut symbols) = (0, 0);
    for seed in 1..=8 {
        let config = LearnConfig {
            seed,
            random_tests: 600,
            max_word_len: 10,
            ..LearnConfig::default()
        }
        .with_workers(1)
        .with_max_inflight(1);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let outcome = learn_model_parallel(&factory, &alphabet, config).expect("TCP learn");
        allocations += ALLOCATIONS.load(Ordering::Relaxed) - before;
        symbols += outcome.sul_stats.symbols_sent;
        assert_eq!(outcome.learned.model.num_states(), 5, "seed {seed}");
    }
    let per_symbol = allocations as f64 / symbols as f64;
    println!("{allocations} allocations over {symbols} SUL symbols: {per_symbol:.2} per symbol");
    assert!(
        per_symbol < MAX_ALLOCATIONS_PER_SYMBOL,
        "{per_symbol:.2} allocations per SUL symbol"
    );
}

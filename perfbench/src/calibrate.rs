//! Host-speed calibration for the end-to-end timings.
//!
//! The benchmark runs on shared hosts whose speed drifts by up to 2x for
//! stretches of seconds to minutes as other tenants load the machine, and
//! a whole run can fall inside a slow stretch.  So the timed
//! phase interleaves short runs of a fixed kernel with the learns, and
//! scales each learn's time by how fast the kernel ran around it:
//!
//! ```text
//! scaled seconds = measured seconds * kernel rate / REFERENCE_RATE
//! ```
//!
//! that is, the time the learn would have taken on a host running the
//! kernel at [`REFERENCE_RATE`] units per second.  The kernel is this
//! file's own code and calls nothing in the repository, so a change to the
//! repository cannot move it.  It also allocates nothing after its first
//! use: a kernel that allocates runs at the speed of the program's heap
//! (fresh pages after a trim, free lists after a large free), which a
//! change to the repository does move.  Each unit is a dependent walk
//! through a 4 MiB random cycle, latency-bound in the shared last-level
//! cache the way the learner's pointer-heavy tries are, plus an
//! arithmetic loop for core speed.  Raw figures are printed on the run
//! stamp line next to the scaled ones.

use std::hint::black_box;
use std::sync::LazyLock;
use std::time::Instant;

/// Kernel units per second of the reference host; about the rate of an
/// undisturbed 2-vCPU host of the kind the benchmark was written on.
pub const REFERENCE_RATE: f64 = 250.0;
/// Units per measurement, about 16 ms at the reference rate.
const UNITS: u64 = 4;
/// Entries of the walked cycle: 4 MiB of `u32`, resident for the whole
/// run (it shows in `peak_rss_mb` as a constant).
const CYCLE_LEN: usize = 1 << 20;
/// Steps of the walk and rounds of the arithmetic loop per unit.
const WALK_STEPS: usize = 40_000;
const MIX_ROUNDS: u64 = 300_000;

/// One random cycle through all of `0..CYCLE_LEN` (Sattolo's algorithm),
/// so the walk visits the whole buffer in an order no prefetcher follows.
static CYCLE: LazyLock<Vec<u32>> = LazyLock::new(|| {
    let mut next: Vec<u32> = (0..CYCLE_LEN as u32).collect();
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    for i in (1..CYCLE_LEN).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        next.swap(i, (state % i as u64) as usize);
    }
    next
});

/// One unit of the kernel, continuing the walk from `at`.
fn unit(cycle: &[u32], mut at: u32) -> u32 {
    for _ in 0..WALK_STEPS {
        at = cycle[at as usize];
    }
    let mut x = u64::from(at) | 1;
    for _ in 0..MIX_ROUNDS {
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ 0x1234;
    }
    at ^ (black_box(x) as u32 & 1)
}

/// Builds the kernel's buffer, so that no measurement pays for it.
pub fn prepare() {
    LazyLock::force(&CYCLE);
}

/// Runs the kernel once and returns its rate in units per second.
pub fn measure() -> f64 {
    let cycle = CYCLE.as_slice();
    let start = Instant::now();
    let mut at = 0;
    for _ in 0..UNITS {
        at = unit(cycle, black_box(at));
    }
    black_box(at);
    UNITS as f64 / start.elapsed().as_secs_f64()
}

/// Calibrations on each side of a segment whose median scales it: the
/// median damps the noise of single measurements and still follows
/// changes of host speed that last a few segments.
const WINDOW: usize = 3;

/// The factors that scale the times measured in each segment to the
/// reference host, where segment `k` ran between the measurements
/// `rates[k]` and `rates[k + 1]`.
pub fn factors(rates: &[f64]) -> Vec<f64> {
    (0..rates.len().saturating_sub(1))
        .map(|k| {
            let low = (k + 1).saturating_sub(WINDOW);
            let high = (k + WINDOW).min(rates.len() - 1);
            crate::quantile(&mut rates[low..=high].to_vec(), 0.5) / REFERENCE_RATE
        })
        .collect()
}

//! Virtual time.
//!
//! All simulation timestamps are microseconds since the start of the
//! simulation.  Virtual time only advances when the [`crate::Network`] is
//! stepped, which makes every experiment deterministic and independent of
//! wall-clock scheduling — the property the paper's Docker testbed lacks and
//! compensates for with repeated queries.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An instant in virtual time (microseconds since simulation start).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(u64);

/// A span of virtual time (microseconds).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation start instant.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant from microseconds since start.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Microseconds since simulation start.
    pub fn as_micros(&self) -> u64 {
        self.0
    }

    /// Milliseconds since simulation start (truncated).
    pub fn as_millis(&self) -> u64 {
        self.0 / 1_000
    }

    /// Duration elapsed since `earlier`; saturates at zero when `earlier`
    /// is in the future.
    pub fn since(&self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Whether the duration is zero.
    pub fn is_zero(&self) -> bool {
        self.0 == 0
    }

    /// The duration in microseconds.
    pub fn as_micros(&self) -> u64 {
        self.0
    }

    /// The duration in milliseconds (truncated).
    pub fn as_millis(&self) -> u64 {
        self.0 / 1_000
    }

    /// Scales the duration by an integer factor.
    pub fn saturating_mul(&self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

/// A cloneable, thread-safe handle to a monotonically advancing virtual
/// clock.
///
/// All clones observe the same instant, which is what lets many concurrent
/// entities — the in-flight query sessions of one scheduler worker, or a
/// [`crate::Network`] publishing its delivery time — share a single notion
/// of "now" without any of them sleeping: whoever runs out of work advances
/// the clock to the next deadline and every other holder of the handle sees
/// the jump.  The clock never moves backwards ([`SharedClock::advance_to`]
/// is a max, not a store).
#[derive(Clone, Debug, Default)]
pub struct SharedClock {
    micros: Arc<AtomicU64>,
}

impl SharedClock {
    /// A fresh clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        SharedClock::default()
    }

    /// A fresh clock starting at the given instant.
    pub fn starting_at(at: SimTime) -> Self {
        let clock = SharedClock::new();
        clock.advance_to(at);
        clock
    }

    /// The current virtual instant.
    pub fn now(&self) -> SimTime {
        SimTime(self.micros.load(Ordering::Acquire))
    }

    /// Advances the clock to `at` (a no-op when `at` is in the past —
    /// virtual time is monotonic).  Returns the clock's time afterwards.
    pub fn advance_to(&self, at: SimTime) -> SimTime {
        let prev = self.micros.fetch_max(at.0, Ordering::AcqRel);
        SimTime(prev.max(at.0))
    }

    /// Advances the clock by `delta`, returning the new instant.
    pub fn advance_by(&self, delta: SimDuration) -> SimTime {
        let mut current = self.micros.load(Ordering::Acquire);
        loop {
            let next = current.saturating_add(delta.0);
            match self.micros.compare_exchange_weak(
                current,
                next,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return SimTime(next),
                Err(actual) => current = actual,
            }
        }
    }

    /// Virtual time elapsed since the simulation start.
    pub fn elapsed(&self) -> SimDuration {
        self.now().since(SimTime::ZERO)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{:03}ms", self.0 / 1_000, self.0 % 1_000)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}µs", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_conversion() {
        let t = SimTime::from_micros(2_500);
        assert_eq!(t.as_micros(), 2_500);
        assert_eq!(t.as_millis(), 2);
        assert_eq!(SimTime::ZERO.as_micros(), 0);
        let d = SimDuration::from_millis(3);
        assert_eq!(d.as_micros(), 3_000);
        assert_eq!(d.as_millis(), 3);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_micros(100);
        let d = SimDuration::from_micros(50);
        assert_eq!((t + d).as_micros(), 150);
        let mut t2 = t;
        t2 += d;
        assert_eq!(t2.as_micros(), 150);
        assert_eq!((t2 - t).as_micros(), 50);
        assert_eq!((t - t2).as_micros(), 0, "subtraction saturates");
        assert_eq!(t2.since(t).as_micros(), 50);
        assert_eq!(t.since(t2).as_micros(), 0);
        assert_eq!((d + d).as_micros(), 100);
        assert_eq!(d.saturating_mul(4).as_micros(), 200);
    }

    #[test]
    fn ordering_and_display() {
        assert!(SimTime::from_micros(1) < SimTime::from_micros(2));
        assert_eq!(SimTime::from_micros(1_234).to_string(), "1.234ms");
        assert_eq!(SimDuration::from_micros(7).to_string(), "7µs");
    }

    #[test]
    fn shared_clock_is_monotonic_and_shared_between_clones() {
        let clock = SharedClock::new();
        let handle = clock.clone();
        assert_eq!(clock.now(), SimTime::ZERO);
        clock.advance_to(SimTime::from_micros(100));
        assert_eq!(handle.now().as_micros(), 100, "clones see the same time");
        // Advancing into the past is a no-op.
        assert_eq!(handle.advance_to(SimTime::from_micros(40)).as_micros(), 100);
        assert_eq!(clock.now().as_micros(), 100);
        assert_eq!(
            clock.advance_by(SimDuration::from_micros(25)).as_micros(),
            125
        );
        assert_eq!(handle.elapsed().as_micros(), 125);
        let fresh = SharedClock::starting_at(SimTime::from_micros(7));
        assert_eq!(fresh.now().as_micros(), 7);
    }

    #[test]
    fn shared_clock_advances_concurrently_without_losing_monotonicity() {
        let clock = SharedClock::new();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let clock = clock.clone();
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        clock.advance_by(SimDuration::from_micros(1));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(clock.now().as_micros(), 4_000);
    }

    #[test]
    fn saturating_behaviour_at_extremes() {
        let big = SimTime::from_micros(u64::MAX);
        assert_eq!((big + SimDuration::from_micros(10)).as_micros(), u64::MAX);
        assert_eq!(
            SimDuration::from_micros(u64::MAX)
                .saturating_mul(2)
                .as_micros(),
            u64::MAX
        );
    }
}

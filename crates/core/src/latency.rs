//! A SUL wrapper that models network round-trip latency on virtual time.
//!
//! Prognosis-style closed-box learning talks to the implementation over a
//! real network: every abstract symbol costs at least one packet round
//! trip, and §4.1's wall-clock numbers are dominated by that latency, not
//! by CPU.  The in-process simulated SULs in this workspace answer in
//! microseconds, which hides exactly the cost the session engine exists to
//! amortize.  [`LatencySul`] restores the deployment-shaped cost model —
//! but on **virtual time** instead of `thread::sleep`: each blocking step
//! and reset adds the configured round-trip time to the wrapper's elapsed
//! virtual time, so benchmarks compare sequential and multiplexed learning
//! in deterministic virtual seconds while running at CPU speed.  Through
//! [`TimedSul`], a latency-wrapped SUL becomes a deadline-based session
//! ([`TimedSession`]) on its scheduler's clock: one scheduler thread keeps
//! many such round trips in flight concurrently, which is precisely how
//! event-driven trace collection scales in practice.

use crate::oracle_table::{HasOracleTable, OracleTable};
use crate::session::{SessionSulFactory, SimDuration, SimTime, TimedSession, TimedSul};
use crate::sul::{Sul, SulFactory, SulStats};
use prognosis_automata::alphabet::Symbol;

/// Wraps a SUL, charging fixed virtual-time latency to every step and
/// reset.
pub struct LatencySul<S> {
    inner: S,
    step_latency: SimDuration,
    reset_latency: SimDuration,
    /// Virtual time the blocking path has spent on the wire.
    elapsed: SimDuration,
}

impl<S: Sul> LatencySul<S> {
    /// Wraps `inner`, charging `step_latency` of virtual time per symbol
    /// and `reset_latency` per reset.
    pub fn new(inner: S, step_latency: SimDuration, reset_latency: SimDuration) -> Self {
        LatencySul {
            inner,
            step_latency,
            reset_latency,
            elapsed: SimDuration::ZERO,
        }
    }

    /// The wrapped SUL.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Consumes the wrapper, returning the inner SUL.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Virtual time the blocking path has spent "on the wire" since this
    /// wrapper was created — the denominator of virtual-time throughput in
    /// the benchmarks.  The deadline path ([`TimedSul`]) charges its
    /// scheduler's clock instead.
    pub fn virtual_elapsed(&self) -> SimDuration {
        self.elapsed
    }
}

impl<S: Sul> Sul for LatencySul<S> {
    fn step(&mut self, input: &Symbol) -> Symbol {
        // The blocking path models a worker thread that cannot do anything
        // else while the packet is in flight: the whole round trip adds to
        // `elapsed`.
        self.elapsed = self.elapsed + self.step_latency;
        self.inner.step(input)
    }

    fn reset(&mut self) {
        self.elapsed = self.elapsed + self.reset_latency;
        self.inner.reset()
    }

    fn stats(&self) -> SulStats {
        self.inner.stats()
    }

    fn cache_key(&self) -> Option<String> {
        // Latency changes virtual time only, never answers, so the wrapped
        // SUL shares its cache identity with the bare one.
        self.inner.cache_key()
    }
}

impl<S: Sul> TimedSul for LatencySul<S> {
    fn step_at(&mut self, input: &Symbol, now: SimTime) -> (Symbol, SimTime) {
        // Deadline-based path: the answer is computed eagerly (answers are
        // pure) but is only visible one round trip later; the scheduler
        // waits for the deadline, so concurrent sessions overlap their
        // waits instead of summing them.
        (self.inner.step(input), now + self.step_latency)
    }

    fn reset_at(&mut self, now: SimTime) -> SimTime {
        self.inner.reset();
        now + self.reset_latency
    }
}

impl<S: HasOracleTable> HasOracleTable for LatencySul<S> {
    fn oracle_table(&self) -> &OracleTable {
        self.inner.oracle_table()
    }
}

/// Mints latency-wrapped SUL instances from an inner factory.
#[derive(Clone, Debug)]
pub struct LatencySulFactory<F> {
    inner: F,
    step_latency: SimDuration,
    reset_latency: SimDuration,
}

impl<F: SulFactory> LatencySulFactory<F> {
    /// Wraps every SUL minted by `inner` with the given virtual latencies.
    pub fn new(inner: F, step_latency: SimDuration, reset_latency: SimDuration) -> Self {
        LatencySulFactory {
            inner,
            step_latency,
            reset_latency,
        }
    }

    /// Creates a fresh latency-wrapped SUL (the blocking path; the session
    /// engine mints deadline-based sessions via [`SessionSulFactory`]).
    pub fn create(&self) -> LatencySul<F::Sul> {
        LatencySul::new(self.inner.create(), self.step_latency, self.reset_latency)
    }
}

impl<F: SulFactory> SessionSulFactory for LatencySulFactory<F> {
    type Session = TimedSession<LatencySul<F::Sul>>;

    fn create_session(&self) -> Self::Session {
        TimedSession::new(self.create())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{SessionPoll, SessionSul};
    use crate::sul::replay_query;
    use crate::tcp_adapter::{TcpSul, TcpSulFactory};
    use prognosis_automata::word::InputWord;

    #[test]
    fn latency_wrapper_is_behaviourally_transparent() {
        let factory = LatencySulFactory::new(
            TcpSulFactory::default(),
            SimDuration::from_micros(50),
            SimDuration::from_micros(50),
        );
        let mut wrapped = factory.create();
        let mut plain = TcpSul::with_defaults();
        let word = InputWord::from_symbols(["SYN(?,?,0)", "ACK(?,?,0)", "ACK+PSH(?,?,1)"]);
        assert_eq!(
            replay_query(&mut wrapped, &word),
            replay_query(&mut plain, &word)
        );
        assert_eq!(wrapped.stats().symbols_sent, 3);
        assert_eq!(wrapped.inner().stats().symbols_sent, 3);
        assert_eq!(wrapped.into_inner().stats().resets, 1);
    }

    #[test]
    fn latency_is_paid_in_virtual_time_not_wall_clock() {
        let mut sul = LatencySul::new(
            TcpSul::with_defaults(),
            SimDuration::from_millis(2),
            SimDuration::from_millis(2),
        );
        let word = InputWord::from_symbols(["SYN(?,?,0)", "ACK(?,?,0)"]);
        let start = std::time::Instant::now();
        replay_query(&mut sul, &word);
        assert_eq!(
            sul.virtual_elapsed().as_micros(),
            6_000,
            "reset + 2 steps = 6ms of virtual time"
        );
        assert!(
            start.elapsed() < std::time::Duration::from_millis(2),
            "no real sleeping anywhere in-process"
        );
    }

    #[test]
    fn timed_sessions_use_deadlines_on_the_shared_clock() {
        let factory = LatencySulFactory::new(
            TcpSulFactory::default(),
            SimDuration::from_micros(50),
            SimDuration::from_micros(100),
        );
        let mut session = factory.create_session();
        let ready = session.start_reset(SimTime::ZERO);
        assert_eq!(ready.as_micros(), 100);
        session.start_step(&Symbol::new("SYN(?,?,0)"), ready);
        match session.poll_step(ready) {
            SessionPoll::Pending { wake_at } => assert_eq!(wake_at.as_micros(), 150),
            SessionPoll::Ready(_) => panic!("a 50µs round trip is not ready immediately"),
        }
        match session.poll_step(SimTime::from_micros(150)) {
            SessionPoll::Ready(out) => assert_eq!(out.as_str(), "ACK+SYN(?,?,0)"),
            SessionPoll::Pending { .. } => panic!("deadline reached"),
        }
        // Tearing down hands back the latency wrapper (oracle-table access
        // flows through it).
        let sul = session.into_sul();
        assert_eq!(sul.stats().symbols_sent, 1);
        // The deadline path charges the scheduler's clock, not the
        // blocking path's books.
        assert_eq!(sul.virtual_elapsed(), SimDuration::ZERO);
    }
}

//! The System Under Learning abstraction.
//!
//! A [`Sul`] is anything that can be driven one abstract input symbol at a
//! time and reset to its initial state between queries — exactly the
//! interface the learning module needs (§3).  The adapters in this crate
//! implement it on top of the instrumented reference implementations;
//! [`SulMembershipOracle`] closes the loop by exposing any `Sul` as a
//! [`MembershipOracle`] for the learners in `prognosis-learner`.

use prognosis_automata::access::w_method_suite_stream;
use prognosis_automata::alphabet::Symbol;
use prognosis_automata::mealy::MealyMachine;
use prognosis_automata::word::{InputWord, OutputWord};
use prognosis_learner::oracle::MembershipOracle;

/// A system that can be learned: stepped with abstract symbols, reset
/// between queries.
pub trait Sul {
    /// Sends one abstract input symbol and returns the abstract output
    /// observed in response.
    fn step(&mut self, input: &Symbol) -> Symbol;

    /// Returns the system (implementation *and* reference/adapter state) to
    /// its initial state, ready for an independent query (§3.2 property 3).
    fn reset(&mut self);

    /// Counters describing the interaction so far.
    fn stats(&self) -> SulStats {
        SulStats::default()
    }

    /// A stable identifier of this SUL's configuration, used to key the
    /// cross-run observation cache: two SULs with the same cache key must
    /// answer every query identically (the §3.2 determinism property lifted
    /// across process boundaries).  `None` — the default — opts the SUL out
    /// of persistent caching; the pipeline then learns cold even when a
    /// cache path is configured.
    fn cache_key(&self) -> Option<String> {
        None
    }
}

impl<T: Sul + ?Sized> Sul for &mut T {
    fn step(&mut self, input: &Symbol) -> Symbol {
        (**self).step(input)
    }

    fn reset(&mut self) {
        (**self).reset()
    }

    fn stats(&self) -> SulStats {
        (**self).stats()
    }

    fn cache_key(&self) -> Option<String> {
        (**self).cache_key()
    }
}

/// Mints independent SUL instances.
///
/// Every instance must behave identically on identical queries (the §3.2
/// determinism property), so a factory is what lets the framework fan
/// membership-query batches out across several SUL copies — each worker of
/// a [`crate::parallel::ParallelSulOracle`] owns one instance, the same
/// engineering split real QUIC trace-collection tooling uses to scale.
pub trait SulFactory {
    /// The SUL type this factory creates.
    type Sul: Sul;

    /// Creates a fresh, independent SUL instance in its initial state.
    fn create(&self) -> Self::Sul;
}

impl<F: SulFactory + ?Sized> SulFactory for &F {
    type Sul = F::Sul;

    fn create(&self) -> Self::Sul {
        (**self).create()
    }
}

/// Replays one membership query against a SUL: reset, then step through the
/// word, collecting one output symbol per input symbol.
pub fn replay_query<S: Sul + ?Sized>(sul: &mut S, input: &InputWord) -> OutputWord {
    sul.reset();
    let mut out = OutputWord::empty();
    for symbol in input.iter() {
        out.push(sul.step(symbol));
    }
    out
}

/// Interaction counters for a SUL.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SulStats {
    /// Abstract input symbols sent.
    pub symbols_sent: u64,
    /// Resets performed.
    pub resets: u64,
}

/// Exposes a [`Sul`] as a membership oracle: each query resets the SUL and
/// replays the input word symbol by symbol.
pub struct SulMembershipOracle<S> {
    sul: S,
    queries: u64,
}

impl<S: Sul> SulMembershipOracle<S> {
    /// Wraps a SUL.
    pub fn new(sul: S) -> Self {
        SulMembershipOracle { sul, queries: 0 }
    }

    /// Immutable access to the wrapped SUL (e.g. to read its Oracle Table
    /// after learning).
    pub fn sul(&self) -> &S {
        &self.sul
    }

    /// Mutable access to the wrapped SUL.
    pub fn sul_mut(&mut self) -> &mut S {
        &mut self.sul
    }

    /// Consumes the oracle, returning the SUL.
    pub fn into_inner(self) -> S {
        self.sul
    }
}

impl<S: Sul> MembershipOracle for SulMembershipOracle<S> {
    fn query(&mut self, input: &InputWord) -> OutputWord {
        self.queries += 1;
        replay_query(&mut self.sul, input)
    }

    fn queries_answered(&self) -> u64 {
        self.queries
    }
}

/// Certifies `model` against ground truth: runs the W-method suite for
/// `model` at `extra_states` extra states against `sul` (pass a fresh
/// SUL, so no cached learning-time answer stands in for the system) and
/// returns (words run, words the SUL answers differently).  Zero failures
/// means the SUL's model equals `model` unless the SUL has more than
/// `extra_states` states beyond it.
pub fn w_method_failures(
    model: &MealyMachine,
    sul: impl Sul,
    extra_states: usize,
) -> (usize, usize) {
    let mut oracle = SulMembershipOracle::new(sul);
    let (mut words, mut failures) = (0, 0);
    for word in w_method_suite_stream(model, extra_states) {
        words += 1;
        if model.run(&word).ok() != Some(oracle.query(&word)) {
            failures += 1;
        }
    }
    (words, failures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prognosis_automata::known;
    use prognosis_automata::mealy::{MealyMachine, StateId};

    /// A SUL backed by a Mealy machine, for unit-testing the bridge.
    struct MachineSul {
        machine: MealyMachine,
        state: StateId,
        stats: SulStats,
    }

    impl MachineSul {
        fn new(machine: MealyMachine) -> Self {
            let state = machine.initial_state();
            MachineSul {
                machine,
                state,
                stats: SulStats::default(),
            }
        }
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

    #[test]
    fn membership_oracle_replays_queries_from_the_initial_state() {
        let machine = known::toggle();
        let mut oracle = SulMembershipOracle::new(MachineSul::new(machine.clone()));
        let word = InputWord::from_symbols(["press", "press", "press"]);
        let out1 = oracle.query(&word);
        let out2 = oracle.query(&word);
        assert_eq!(out1, out2, "each query starts from a reset state");
        assert_eq!(out1, machine.run(&word).unwrap());
        assert_eq!(oracle.queries_answered(), 2);
        assert_eq!(oracle.sul().stats().resets, 2);
        assert_eq!(oracle.sul().stats().symbols_sent, 6);
        assert_eq!(oracle.into_inner().stats.resets, 2);
    }

    #[test]
    fn learning_through_the_sul_bridge_recovers_the_machine() {
        use prognosis_learner::eq_oracles::RandomWordOracle;
        use prognosis_learner::{DTreeLearner, Learner};
        let target = known::counter(4);
        let mut learner = DTreeLearner::new(target.input_alphabet().clone());
        let mut membership = SulMembershipOracle::new(MachineSul::new(target.clone()));
        let mut equivalence = RandomWordOracle::new(5, 2000, 1, 12);
        let result = learner.learn(&mut membership, &mut equivalence);
        assert!(prognosis_automata::equivalence::machines_equivalent(
            &result.model,
            &target
        ));
    }
}

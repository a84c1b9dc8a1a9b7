//! Equivalence oracles.
//!
//! In practice there is no omniscient equivalence oracle (§4.1): Prognosis
//! uses heuristic oracles whose counterexamples are always genuine but whose
//! "no counterexample" answer is only probabilistic.  Three oracles are
//! provided:
//!
//! * [`SimulatorOracle`] — exact comparison against a known target machine
//!   (tests and benchmarks only);
//! * [`RandomWordOracle`] — random-word testing with configurable length
//!   distribution, the workhorse for learning real SULs;
//! * [`WMethodOracle`] — Chow's W-method conformance suite, which is exact
//!   under an assumed bound on the number of extra states in the SUL.

use crate::oracle::{EquivalenceOracle, MembershipOracle};
use prognosis_automata::access::w_method_suite_stream;
use prognosis_automata::alphabet::Alphabet;
use prognosis_automata::equivalence::find_counterexample;
use prognosis_automata::mealy::MealyMachine;
use prognosis_automata::word::{InputWord, IoTrace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Exact equivalence oracle against a known target machine.
#[derive(Clone, Debug)]
pub struct SimulatorOracle {
    target: MealyMachine,
    queries: u64,
}

impl SimulatorOracle {
    /// Creates an oracle comparing hypotheses against `target`.
    pub fn new(target: MealyMachine) -> Self {
        SimulatorOracle { target, queries: 0 }
    }
}

impl EquivalenceOracle for SimulatorOracle {
    fn find_counterexample(
        &mut self,
        hypothesis: &MealyMachine,
        _membership: &mut dyn MembershipOracle,
    ) -> Option<IoTrace> {
        self.queries += 1;
        find_counterexample(hypothesis, &self.target).map(|ce| {
            // Return the *target's* (i.e. the SUL's) trace.
            ce.right
        })
    }

    fn equivalence_queries(&self) -> u64 {
        self.queries
    }
}

/// Default number of test words dispatched per membership batch by the
/// suite-based equivalence oracles.
pub const DEFAULT_EQ_BATCH_SIZE: usize = 64;

/// Runs a *streamed* test suite against the SUL in batches, returning the
/// first (in suite order) counterexample trace.  The suite is generated one
/// `batch_size` chunk at a time, on demand: nothing past the first
/// counterexample is ever materialized, and a W-method suite for a large
/// hypothesis — itself expensive to build and hold — never exists in memory
/// as a whole.  Deterministic: the result depends only on the stream order,
/// never on how the membership oracle schedules a batch internally.
///
/// `tests_executed` counts only the words up to and including the first
/// mismatch, exactly as the word-at-a-time sequential strategy would —
/// words after the counterexample in the same chunk were dispatched
/// speculatively and are not part of the equivalence test count.
/// `batch_size` must be ≥ 1; the oracle constructors validate it
/// ([`RandomWordOracle::with_batch_size`] / [`WMethodOracle::with_batch_size`]).
fn run_suite_streamed(
    mut suite: impl Iterator<Item = InputWord>,
    batch_size: usize,
    hypothesis: &MealyMachine,
    membership: &mut dyn MembershipOracle,
    tests_executed: &mut u64,
) -> Option<IoTrace> {
    let mut chunk: Vec<InputWord> = Vec::with_capacity(batch_size);
    loop {
        chunk.clear();
        while chunk.len() < batch_size {
            match suite.next() {
                Some(word) => chunk.push(word),
                None => break,
            }
        }
        if chunk.is_empty() {
            return None;
        }
        let sul_outs = membership.query_batch(&chunk);
        for (word, sul_out) in chunk.iter().zip(sul_outs) {
            *tests_executed += 1;
            let agrees = hypothesis
                .produces(word, &sul_out)
                .expect("suite word over hypothesis alphabet");
            if !agrees {
                return Some(IoTrace::new(word.clone(), sul_out));
            }
        }
    }
}

/// Random-word equivalence testing.
///
/// Each equivalence query draws up to `max_tests` random input words with
/// lengths uniform in `[min_len, max_len]`, generating them **on demand**
/// one membership batch at a time, so a parallel oracle can fan the words
/// out across SUL sessions while the suite never exists in memory as a
/// whole.  The first mismatching word in generation order is returned, so
/// results are identical to the sequential word-at-a-time strategy of the
/// seed.  The paper's framework uses the same strategy ("random
/// equivalence testing") both for Mealy learning and for validating
/// synthesized register machines.
#[derive(Clone, Debug)]
pub struct RandomWordOracle {
    rng: StdRng,
    max_tests: usize,
    min_len: usize,
    max_len: usize,
    batch_size: usize,
    queries: u64,
    tests_executed: u64,
}

impl RandomWordOracle {
    /// Creates an oracle with the given seed and word-length distribution.
    pub fn new(seed: u64, max_tests: usize, min_len: usize, max_len: usize) -> Self {
        assert!(
            min_len >= 1 && max_len >= min_len,
            "word lengths must satisfy 1 ≤ min ≤ max"
        );
        RandomWordOracle {
            rng: StdRng::seed_from_u64(seed),
            max_tests,
            min_len,
            max_len,
            batch_size: DEFAULT_EQ_BATCH_SIZE,
            queries: 0,
            tests_executed: 0,
        }
    }

    /// Sets how many test words are dispatched per membership batch.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        assert!(batch_size >= 1, "batch size must be at least 1");
        self.batch_size = batch_size;
        self
    }

    /// Total random test words executed across all equivalence queries.
    pub fn tests_executed(&self) -> u64 {
        self.tests_executed
    }
}

fn random_word(rng: &mut StdRng, min_len: usize, max_len: usize, alphabet: &Alphabet) -> InputWord {
    let len = rng.gen_range(min_len..=max_len);
    (0..len)
        .map(|_| {
            alphabet
                .get(rng.gen_range(0..alphabet.len()))
                .unwrap()
                .clone()
        })
        .collect::<Vec<_>>()
        .into_iter()
        .collect()
}

impl EquivalenceOracle for RandomWordOracle {
    fn find_counterexample(
        &mut self,
        hypothesis: &MealyMachine,
        membership: &mut dyn MembershipOracle,
    ) -> Option<IoTrace> {
        self.queries += 1;
        let (min_len, max_len, batch_size) = (self.min_len, self.max_len, self.batch_size);
        let max_tests = self.max_tests;
        let rng = &mut self.rng;
        let mut executed = 0;
        let mut drawn = 0usize;
        // Words are drawn from the RNG in exactly the order the materialized
        // suite used to be generated in, so results are bit-identical — only
        // the memory profile changes (one batch at a time, stopping at the
        // first counterexample).
        let result = {
            let suite = std::iter::from_fn(|| {
                if drawn == max_tests {
                    return None;
                }
                drawn += 1;
                Some(random_word(
                    rng,
                    min_len,
                    max_len,
                    hypothesis.input_alphabet(),
                ))
            });
            run_suite_streamed(suite, batch_size, hypothesis, membership, &mut executed)
        };
        // Fast-forward the RNG past the words a counterexample made
        // unnecessary, so the RNG state after every equivalence query — and
        // therefore every *subsequent* suite — is a function of the seed
        // alone, exactly as when the whole suite was generated up front.
        let alphabet_len = hypothesis.input_alphabet().len();
        for _ in drawn..max_tests {
            let len = rng.gen_range(min_len..=max_len);
            for _ in 0..len {
                let _ = rng.gen_range(0..alphabet_len);
            }
        }
        self.tests_executed += executed;
        result
    }

    fn equivalence_queries(&self) -> u64 {
        self.queries
    }

    fn tests_executed(&self) -> u64 {
        self.tests_executed
    }
}

/// W-method conformance-testing oracle.
///
/// Exhaustively runs the suite `P · Σ^{≤k} · W` where `P` is the transition
/// cover of the hypothesis, `W` its characterizing set and `k` the assumed
/// bound on extra states in the SUL.  The suite is **streamed**
/// ([`w_method_suite_stream`]) one membership batch at a time — only the
/// small `P` and `W` sets are materialized, never the
/// `|P|·|Σ|^{≤k}·|W|`-word product, whose size is exactly what makes the
/// W-method expensive on large hypotheses.  The first mismatch in stream
/// order wins; the generator suppresses repeated `p · m` prefixes, so only
/// the rare cross-`s` collision can repeat a word — which the prefix-trie
/// membership cache answers for free.  Exact (guaranteed to find a
/// counterexample if
/// one exists) whenever the SUL has at most
/// `hypothesis.num_states() + extra_states` states.
#[derive(Clone, Debug)]
pub struct WMethodOracle {
    extra_states: usize,
    batch_size: usize,
    queries: u64,
    tests_executed: u64,
}

impl WMethodOracle {
    /// Creates a W-method oracle assuming at most `extra_states` additional
    /// states in the SUL beyond the hypothesis.
    pub fn new(extra_states: usize) -> Self {
        WMethodOracle {
            extra_states,
            batch_size: DEFAULT_EQ_BATCH_SIZE,
            queries: 0,
            tests_executed: 0,
        }
    }

    /// Sets how many suite words are dispatched per membership batch.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        assert!(batch_size >= 1, "batch size must be at least 1");
        self.batch_size = batch_size;
        self
    }

    /// Total suite words executed across all equivalence queries.
    pub fn tests_executed(&self) -> u64 {
        self.tests_executed
    }
}

impl EquivalenceOracle for WMethodOracle {
    fn find_counterexample(
        &mut self,
        hypothesis: &MealyMachine,
        membership: &mut dyn MembershipOracle,
    ) -> Option<IoTrace> {
        self.queries += 1;
        let suite =
            w_method_suite_stream(hypothesis, self.extra_states).filter(|word| !word.is_empty());
        run_suite_streamed(
            suite,
            self.batch_size,
            hypothesis,
            membership,
            &mut self.tests_executed,
        )
    }

    fn equivalence_queries(&self) -> u64 {
        self.queries
    }

    fn tests_executed(&self) -> u64 {
        self.tests_executed
    }
}

/// An oracle that chains two oracles: ask `first`, and only if it finds
/// nothing, ask `second`.  Used to combine a cheap random pass with a more
/// expensive conformance pass.
pub struct ChainedOracle<A, B> {
    first: A,
    second: B,
}

impl<A, B> ChainedOracle<A, B> {
    /// Chains two equivalence oracles.
    pub fn new(first: A, second: B) -> Self {
        ChainedOracle { first, second }
    }
}

impl<A: EquivalenceOracle, B: EquivalenceOracle> EquivalenceOracle for ChainedOracle<A, B> {
    fn find_counterexample(
        &mut self,
        hypothesis: &MealyMachine,
        membership: &mut dyn MembershipOracle,
    ) -> Option<IoTrace> {
        self.first
            .find_counterexample(hypothesis, membership)
            .or_else(|| self.second.find_counterexample(hypothesis, membership))
    }

    fn equivalence_queries(&self) -> u64 {
        self.first.equivalence_queries() + self.second.equivalence_queries()
    }

    fn tests_executed(&self) -> u64 {
        self.first.tests_executed() + self.second.tests_executed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::MachineOracle;
    use prognosis_automata::known;

    #[test]
    fn simulator_oracle_finds_genuine_counterexamples() {
        let target = known::counter(3);
        let wrong_hypothesis = known::counter(2);
        let mut membership = MachineOracle::new(target.clone());
        let mut oracle = SimulatorOracle::new(target.clone());
        let ce = oracle
            .find_counterexample(&wrong_hypothesis, &mut membership)
            .expect("different counters must be distinguished");
        assert_eq!(target.run(&ce.input).unwrap(), ce.output);
        assert_ne!(wrong_hypothesis.run(&ce.input).unwrap(), ce.output);
        assert!(oracle
            .find_counterexample(&target, &mut membership)
            .is_none());
        assert_eq!(oracle.equivalence_queries(), 2);
    }

    #[test]
    fn random_word_oracle_finds_shallow_differences() {
        let target = known::counter(4);
        let wrong = known::counter(3);
        let mut membership = MachineOracle::new(target.clone());
        let mut oracle = RandomWordOracle::new(11, 500, 1, 12);
        let ce = oracle.find_counterexample(&wrong, &mut membership);
        assert!(
            ce.is_some(),
            "500 random words of length ≤12 must expose a 4-vs-3 counter"
        );
        let ce = ce.unwrap();
        assert_eq!(target.run(&ce.input).unwrap(), ce.output);
        assert!(oracle.tests_executed() >= 1);
    }

    #[test]
    fn random_word_oracle_accepts_equivalent_hypotheses() {
        let target = known::toggle();
        let mut membership = MachineOracle::new(target.clone());
        let mut oracle = RandomWordOracle::new(3, 100, 1, 6);
        assert!(oracle
            .find_counterexample(&target, &mut membership)
            .is_none());
        assert_eq!(oracle.tests_executed(), 100);
    }

    #[test]
    #[should_panic(expected = "word lengths")]
    fn random_word_oracle_rejects_bad_lengths() {
        let _ = RandomWordOracle::new(0, 10, 5, 2);
    }

    #[test]
    fn w_method_oracle_is_exact_within_extra_state_bound() {
        let target = known::counter(4);
        // Hypothesis has 3 states; the SUL has one extra state.
        let wrong = known::counter(3);
        let mut membership = MachineOracle::new(target.clone());
        let mut oracle = WMethodOracle::new(1);
        let ce = oracle.find_counterexample(&wrong, &mut membership);
        assert!(
            ce.is_some(),
            "W-method with k=1 must catch a one-extra-state difference"
        );
        assert!(oracle
            .find_counterexample(&target, &mut membership)
            .is_none());
        assert!(oracle.tests_executed() > 0);
    }

    #[test]
    fn tests_executed_stops_at_the_counterexample_in_any_batch_size() {
        // Regression: the batched runner used to add the whole chunk to
        // `tests_executed` even when the counterexample sat mid-chunk,
        // overstating the count vs the sequential strategy.
        let target = known::counter(4);
        let wrong = known::counter(3);
        let mut baseline = None;
        for batch_size in [1usize, 7, 64, 1024] {
            let mut membership = MachineOracle::new(target.clone());
            let mut oracle = RandomWordOracle::new(11, 500, 1, 12).with_batch_size(batch_size);
            let ce = oracle
                .find_counterexample(&wrong, &mut membership)
                .expect("4-vs-3 counter must be distinguished");
            match &baseline {
                None => baseline = Some((ce, oracle.tests_executed())),
                Some((expected_ce, expected_count)) => {
                    assert_eq!(&ce, expected_ce, "batch size {batch_size} changed the ce");
                    assert_eq!(
                        oracle.tests_executed(),
                        *expected_count,
                        "batch size {batch_size} changed the tests-executed count"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn random_word_oracle_rejects_zero_batch_size() {
        let _ = RandomWordOracle::new(0, 10, 1, 2).with_batch_size(0);
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn w_method_oracle_rejects_zero_batch_size() {
        let _ = WMethodOracle::new(1).with_batch_size(0);
    }

    #[test]
    fn chained_oracle_falls_through_to_second() {
        let target = known::counter(5);
        let wrong = known::counter(4);
        let mut membership = MachineOracle::new(target.clone());
        // First oracle too weak to find the difference (length-1 words only),
        // second exact.
        let weak = RandomWordOracle::new(1, 5, 1, 1);
        let exact = SimulatorOracle::new(target.clone());
        let mut chained = ChainedOracle::new(weak, exact);
        assert!(chained
            .find_counterexample(&wrong, &mut membership)
            .is_some());
        assert!(chained.equivalence_queries() >= 2);
    }
}

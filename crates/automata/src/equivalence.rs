//! Equivalence checking between Mealy machines.
//!
//! The analysis module compares the models learned for two implementations
//! of the same protocol (§5, "Learned Model Analysis").  Two machines are
//! equivalent when they produce the same output word for every input word;
//! for deterministic machines this is decidable in time `O(|S₁|·|S₂|·|Σ̂|)`
//! by a breadth-first search of the product machine, which also yields a
//! *shortest* distinguishing input word when they differ.

use crate::mealy::MealyMachine;
use crate::walk::{product_transitions, AlphabetMismatch};
use crate::word::{InputWord, IoTrace};

/// The result of comparing two machines.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EquivalenceResult {
    /// The machines produce identical outputs on all input words over the
    /// shared alphabet.
    Equivalent,
    /// The machines differ; the contained counterexample is a shortest
    /// distinguishing input word together with both machines' outputs.
    Inequivalent(Counterexample),
    /// The machines cannot be compared because their input alphabets differ.
    AlphabetMismatch {
        /// Symbols present only in the left machine's alphabet.
        only_left: Vec<String>,
        /// Symbols present only in the right machine's alphabet.
        only_right: Vec<String>,
    },
}

/// A distinguishing input word, with the output each machine produces.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counterexample {
    /// The distinguishing input word.
    pub input: InputWord,
    /// Left machine's trace on that word.
    pub left: IoTrace,
    /// Right machine's trace on that word.
    pub right: IoTrace,
}

impl Counterexample {
    /// Index of the first step at which the two outputs differ.
    pub fn first_divergence(&self) -> usize {
        self.left
            .output
            .iter()
            .zip(self.right.output.iter())
            .position(|(a, b)| a != b)
            .unwrap_or(self.left.len())
    }
}

/// Compares two machines whose input alphabets hold the same symbols (in
/// any order); a counterexample is the length-lexicographically first
/// shortest distinguishing word, symbols ordered as in `left`'s alphabet.
pub fn compare(left: &MealyMachine, right: &MealyMachine) -> EquivalenceResult {
    let start = (left.initial_state(), right.initial_state());
    let mut product = match product_transitions(left, right, start) {
        Ok(product) => product,
        Err(AlphabetMismatch {
            only_left,
            only_right,
        }) => {
            return EquivalenceResult::AlphabetMismatch {
                only_left,
                only_right,
            }
        }
    };
    match product.find(|step| step.output.0 != step.output.1) {
        Some(step) => EquivalenceResult::Inequivalent(Counterexample {
            left: left.trace(&step.word).expect("word over shared alphabet"),
            right: right.trace(&step.word).expect("word over shared alphabet"),
            input: step.word,
        }),
        None => EquivalenceResult::Equivalent,
    }
}

/// Whether two machines are equivalent.
pub fn machines_equivalent(left: &MealyMachine, right: &MealyMachine) -> bool {
    matches!(compare(left, right), EquivalenceResult::Equivalent)
}

/// Finds a shortest distinguishing input word, if any.
pub fn find_counterexample(left: &MealyMachine, right: &MealyMachine) -> Option<Counterexample> {
    match compare(left, right) {
        EquivalenceResult::Inequivalent(ce) => Some(ce),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::known;
    use crate::mealy::MealyBuilder;
    use crate::minimize::minimize;

    #[test]
    fn machine_is_equivalent_to_itself_and_its_minimization() {
        let m = known::redundant_pair();
        assert!(machines_equivalent(&m, &m));
        assert!(machines_equivalent(&m, &minimize(&m)));
    }

    #[test]
    fn detects_difference_with_shortest_word() {
        let m1 = known::counter(3);
        let m2 = known::counter(4);
        let ce = find_counterexample(&m1, &m2).expect("counters of different size differ");
        // Shortest distinguishing word: three increments (m1 wraps, m2 ticks).
        assert_eq!(ce.input.len(), 3);
        assert!(ce.input.iter().all(|s| s.as_str() == "inc"));
        assert_ne!(ce.left.output, ce.right.output);
        assert_eq!(ce.first_divergence(), 2);
    }

    #[test]
    fn alphabet_mismatch_is_reported() {
        let m1 = known::toggle();
        let inputs = Alphabet::from_symbols(["press", "hold"]);
        let mut b = MealyBuilder::new(inputs);
        let s0 = b.add_state();
        b.add_transition(s0, "press", "on", s0).unwrap();
        b.add_transition(s0, "hold", "off", s0).unwrap();
        let m2 = b.build().unwrap();
        match compare(&m1, &m2) {
            EquivalenceResult::AlphabetMismatch {
                only_left,
                only_right,
            } => {
                assert!(only_left.is_empty());
                assert_eq!(only_right, vec!["hold".to_string()]);
            }
            other => panic!("expected alphabet mismatch, got {other:?}"),
        }
    }

    #[test]
    fn equivalent_machines_with_different_state_counts() {
        let m = known::redundant_pair();
        let min = minimize(&m);
        assert_ne!(m.num_states(), min.num_states());
        assert!(machines_equivalent(&m, &min));
        assert!(find_counterexample(&m, &min).is_none());
    }

    #[test]
    fn output_difference_at_depth_one_is_found_immediately() {
        let inputs = Alphabet::from_symbols(["a"]);
        let mk = |out: &str| {
            let mut b = MealyBuilder::new(inputs.clone());
            let s0 = b.add_state();
            b.add_transition(s0, "a", out, s0).unwrap();
            b.build().unwrap()
        };
        let ce = find_counterexample(&mk("x"), &mk("y")).unwrap();
        assert_eq!(ce.input.len(), 1);
        assert_eq!(ce.first_divergence(), 0);
    }

    #[test]
    fn random_machines_equal_seeds_are_equivalent() {
        let a = known::random_machine(6, 3, 3, 7);
        let b = known::random_machine(6, 3, 3, 7);
        assert!(machines_equivalent(&a, &b));
    }
}

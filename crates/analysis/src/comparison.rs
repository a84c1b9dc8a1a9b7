//! Cross-implementation model comparison.
//!
//! §5's "Learned Model Analysis": Prognosis can check whether the models
//! learned for two implementations of the same protocol are equivalent and,
//! when they are not, produce concrete traces that exhibit the difference —
//! the evidence handed to developers for Issues 1 and 3.

use prognosis_automata::equivalence::{compare, EquivalenceResult};
use prognosis_automata::mealy::MealyMachine;
use prognosis_automata::minimize::minimize;
use prognosis_automata::word::InputWord;
use std::collections::{HashSet, VecDeque};

/// Outcome of comparing the learned models of two implementations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModelComparison {
    /// Number of states of the (minimized) left model.
    pub left_states: usize,
    /// Number of states of the (minimized) right model.
    pub right_states: usize,
    /// Whether the two models accept exactly the same I/O traces.
    pub equivalent: bool,
    /// A shortest distinguishing input word, with both models' outputs,
    /// when the models differ.
    pub counterexample: Option<DiffEntry>,
}

/// One behavioural difference between two models.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiffEntry {
    /// The distinguishing input word.
    pub input: InputWord,
    /// Output of the left model.
    pub left_output: Vec<String>,
    /// Output of the right model.
    pub right_output: Vec<String>,
}

impl DiffEntry {
    /// Index of the first step at which the outputs differ.
    pub fn divergence_index(&self) -> usize {
        self.left_output
            .iter()
            .zip(self.right_output.iter())
            .position(|(a, b)| a != b)
            .unwrap_or(0)
    }
}

/// Compares two learned models (after minimization, so that incidental
/// state-count differences do not mask behavioural equivalence).
pub fn compare_models(left: &MealyMachine, right: &MealyMachine) -> ModelComparison {
    let left_min = minimize(left);
    let right_min = minimize(right);
    let (equivalent, counterexample) = match compare(&left_min, &right_min) {
        EquivalenceResult::Equivalent => (true, None),
        EquivalenceResult::Inequivalent(ce) => (
            false,
            Some(DiffEntry {
                input: ce.input.clone(),
                left_output: ce.left.output.iter().map(|s| s.to_string()).collect(),
                right_output: ce.right.output.iter().map(|s| s.to_string()).collect(),
            }),
        ),
        EquivalenceResult::AlphabetMismatch { .. } => (false, None),
    };
    ModelComparison {
        left_states: left_min.num_states(),
        right_states: right_min.num_states(),
        equivalent,
        counterexample,
    }
}

/// Enumerates up to `max_diffs` behavioural differences between two models
/// by breadth-first exploration of the product machine (shortest
/// differences first).  Each returned entry is a concrete input word on
/// which the two implementations answer differently — the "concrete example
/// traces that show the difference between the behaviors" of §5.
pub fn behavioural_diff(
    left: &MealyMachine,
    right: &MealyMachine,
    max_diffs: usize,
) -> Vec<DiffEntry> {
    let mut diffs = Vec::new();
    if left.input_alphabet() != right.input_alphabet() {
        return diffs;
    }
    let mut visited: HashSet<(usize, usize)> = HashSet::new();
    let mut queue: VecDeque<(usize, usize, InputWord)> = VecDeque::new();
    visited.insert((left.initial_state(), right.initial_state()));
    queue.push_back((
        left.initial_state(),
        right.initial_state(),
        InputWord::empty(),
    ));
    while let Some((ql, qr, word)) = queue.pop_front() {
        if diffs.len() >= max_diffs {
            break;
        }
        for symbol in left.input_alphabet().iter() {
            let (nl, ol) = left.step(ql, symbol).expect("total machine");
            let (nr, or) = right.step(qr, symbol).expect("total machine");
            let next_word = word.append(symbol.clone());
            if ol != or && diffs.len() < max_diffs {
                diffs.push(DiffEntry {
                    input: next_word.clone(),
                    left_output: left
                        .run(&next_word)
                        .expect("shared alphabet")
                        .iter()
                        .map(|s| s.to_string())
                        .collect(),
                    right_output: right
                        .run(&next_word)
                        .expect("shared alphabet")
                        .iter()
                        .map(|s| s.to_string())
                        .collect(),
                });
            }
            if visited.insert((nl, nr)) {
                queue.push_back((nl, nr, next_word));
            }
        }
    }
    diffs
}

#[cfg(test)]
mod tests {
    use super::*;
    use prognosis_automata::known;

    #[test]
    fn equivalent_models_compare_equal_after_minimization() {
        let m = known::redundant_pair();
        let cmp = compare_models(&m, &prognosis_automata::minimize::minimize(&m));
        assert!(cmp.equivalent);
        assert_eq!(cmp.left_states, cmp.right_states);
        assert!(cmp.counterexample.is_none());
        assert!(behavioural_diff(&m, &m, 5).is_empty());
    }

    #[test]
    fn different_models_yield_a_shortest_counterexample() {
        let a = known::counter(3);
        let b = known::counter(5);
        let cmp = compare_models(&a, &b);
        assert!(!cmp.equivalent);
        assert_eq!(cmp.left_states, 3);
        assert_eq!(cmp.right_states, 5);
        let ce = cmp.counterexample.unwrap();
        assert_eq!(ce.input.len(), 3, "shortest difference is the third `inc`");
        assert_ne!(ce.left_output, ce.right_output);
        assert_eq!(ce.divergence_index(), 2);
    }

    #[test]
    fn behavioural_diff_lists_multiple_concrete_differences() {
        let a = known::counter(2);
        let b = known::counter(4);
        let diffs = behavioural_diff(&a, &b, 10);
        assert!(!diffs.is_empty());
        assert!(diffs.len() <= 10);
        for d in &diffs {
            assert_eq!(
                a.run(&d.input)
                    .unwrap()
                    .iter()
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>(),
                d.left_output
            );
            assert_ne!(d.left_output, d.right_output);
        }
        // Shortest differences come first.
        assert!(diffs
            .windows(2)
            .all(|w| w[0].input.len() <= w[1].input.len()));
    }

    #[test]
    fn mismatched_alphabets_are_handled_gracefully() {
        let a = known::toggle();
        let b = known::counter(2);
        assert!(behavioural_diff(&a, &b, 5).is_empty());
        let cmp = compare_models(&a, &b);
        assert!(!cmp.equivalent);
        assert!(cmp.counterexample.is_none());
    }
}

//! Labelled model diffing — the shared library behind every "learn two
//! things and compare them" analysis.
//!
//! §5's "Learned Model Analysis": Prognosis checks whether the models
//! learned for two implementations of the same protocol are equivalent and,
//! when they are not, produces concrete traces that exhibit the difference —
//! the evidence handed to developers for Issues 1 and 3.  [`diff_models`]
//! packages the minimized equivalence check and a breadth-first behavioural
//! diff into a single [`ModelDiff`] value that carries the labels of the
//! two models, their minimized sizes, the verdict and shortest
//! distinguishing traces (at most one per differing product transition).  The experiments, the examples and the campaign
//! runner's `Diff` tasks all produce exactly this value, so a diff renders
//! identically no matter which front end asked for it.

use prognosis_automata::equivalence::machines_equivalent;
use prognosis_automata::mealy::MealyMachine;
use prognosis_automata::minimize::minimize;
use prognosis_automata::word::InputWord;
use std::collections::{HashSet, VecDeque};
use std::fmt;

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

/// The outcome of diffing two labelled learned models.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModelDiff {
    /// Human-readable name of the left model (e.g. "google").
    pub left_label: String,
    /// Human-readable name of the right model (e.g. "quiche").
    pub right_label: String,
    /// States of the minimized left model.
    pub left_states: usize,
    /// States of the minimized right model.
    pub right_states: usize,
    /// Whether the two models accept exactly the same I/O traces.
    pub equivalent: bool,
    /// Concrete distinguishing traces, shortest first: at most one per
    /// product-machine transition on which the outputs differ — the
    /// shortest word reaching it — and at most `max_diffs` in all (empty
    /// when equivalent, and also when the alphabets mismatch).
    pub diffs: Vec<DiffEntry>,
}

impl ModelDiff {
    /// The shortest distinguishing trace, if the models differ.
    pub fn shortest(&self) -> Option<&DiffEntry> {
        self.diffs.first()
    }

    /// One-line verdict, e.g. `google (6 states) vs quiche (5 states): 3
    /// distinguishing trace(s)`.
    pub fn verdict(&self) -> String {
        if self.equivalent {
            format!(
                "{} ({} states) vs {} ({} states): equivalent",
                self.left_label, self.left_states, self.right_label, self.right_states
            )
        } else {
            format!(
                "{} ({} states) vs {} ({} states): {} distinguishing trace(s)",
                self.left_label,
                self.left_states,
                self.right_label,
                self.right_states,
                self.diffs.len()
            )
        }
    }
}

impl fmt::Display for ModelDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.verdict())?;
        for diff in &self.diffs {
            writeln!(f, "  input : {}", diff.input)?;
            writeln!(f, "  {:<6}: {:?}", self.left_label, diff.left_output)?;
            writeln!(f, "  {:<6}: {:?}", self.right_label, diff.right_output)?;
        }
        Ok(())
    }
}

/// Diffs two learned models: an equivalence check after minimization (so
/// that incidental state-count differences do not mask behavioural
/// equivalence) plus concrete distinguishing traces, shortest first: one
/// shortest witness per differing product transition, at most `max_diffs`
/// in all.  Mismatched alphabets yield `equivalent: false` with no
/// traces.
pub fn diff_models(
    left_label: impl Into<String>,
    left: &MealyMachine,
    right_label: impl Into<String>,
    right: &MealyMachine,
    max_diffs: usize,
) -> ModelDiff {
    let left_min = minimize(left);
    let right_min = minimize(right);
    let equivalent = machines_equivalent(&left_min, &right_min);
    let diffs = if equivalent {
        Vec::new()
    } else {
        behavioural_diff(left, right, max_diffs)
    };
    ModelDiff {
        left_label: left_label.into(),
        right_label: right_label.into(),
        left_states: left_min.num_states(),
        right_states: right_min.num_states(),
        equivalent,
        diffs,
    }
}

/// Enumerates behavioural differences between two models by breadth-first
/// exploration of the product machine, which visits each product state
/// once: every transition whose outputs differ yields one entry, the
/// shortest word that takes it, in order of length, until `max_diffs`.
/// Each entry is a concrete input word on which the two implementations
/// answer differently — the "concrete example traces that show the
/// difference between the behaviors" of §5.
fn behavioural_diff(left: &MealyMachine, right: &MealyMachine, max_diffs: usize) -> Vec<DiffEntry> {
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

    fn rendered(machine: &MealyMachine, input: &InputWord) -> Vec<String> {
        machine
            .run(input)
            .unwrap()
            .iter()
            .map(|s| s.to_string())
            .collect()
    }

    #[test]
    fn equivalent_models_diff_to_an_empty_trace_list() {
        let m = known::redundant_pair();
        let diff = diff_models("orig", &m, "minimized", &minimize(&m), 5);
        assert!(diff.equivalent);
        assert!(diff.diffs.is_empty());
        assert!(diff.shortest().is_none());
        assert!(diff.verdict().contains("equivalent"));
    }

    #[test]
    fn equivalent_models_compare_equal_after_minimization() {
        let m = known::redundant_pair();
        let diff = diff_models("left", &m, "right", &m, 5);
        assert!(diff.equivalent);
        assert_eq!(diff.left_states, diff.right_states);
        assert_eq!(diff.left_states, minimize(&m).num_states());
        assert!(behavioural_diff(&m, &m, 5).is_empty());
    }

    #[test]
    fn different_models_carry_shortest_first_traces_and_labels() {
        let diff = diff_models("three", &known::counter(3), "five", &known::counter(5), 4);
        assert!(!diff.equivalent);
        assert!(!diff.diffs.is_empty() && diff.diffs.len() <= 4);
        assert!(diff
            .diffs
            .windows(2)
            .all(|w| w[0].input.len() <= w[1].input.len()));
        let rendered = diff.to_string();
        assert!(rendered.contains("three") && rendered.contains("five"));
    }

    #[test]
    fn different_models_yield_a_shortest_counterexample() {
        let diff = diff_models("three", &known::counter(3), "five", &known::counter(5), 1);
        assert!(!diff.equivalent);
        assert_eq!((diff.left_states, diff.right_states), (3, 5));
        let ce = diff.shortest().unwrap();
        assert_eq!(ce.input.len(), 3, "shortest difference is the third `inc`");
        assert_ne!(ce.left_output, ce.right_output);
        assert_eq!(ce.divergence_index(), 2);
    }

    #[test]
    fn behavioural_diff_lists_multiple_concrete_differences() {
        let (a, b) = (known::counter(2), known::counter(4));
        let diff = diff_models("two", &a, "four", &b, 10);
        assert!(!diff.diffs.is_empty() && diff.diffs.len() <= 10);
        for d in &diff.diffs {
            assert_eq!(rendered(&a, &d.input), d.left_output);
            assert_eq!(rendered(&b, &d.input), d.right_output);
            assert_ne!(d.left_output, d.right_output);
        }
    }

    #[test]
    fn mismatched_alphabets_yield_inequivalent_with_no_traces() {
        let diff = diff_models("a", &known::toggle(), "b", &known::counter(2), 5);
        assert!(!diff.equivalent);
        assert!(diff.diffs.is_empty());
    }

    #[test]
    fn mismatched_alphabets_are_handled_gracefully() {
        // The behavioural diff refuses to walk a product whose alphabets
        // differ, in either argument order, instead of stepping a symbol
        // one machine lacks.
        let (a, b) = (known::toggle(), known::counter(2));
        assert!(behavioural_diff(&a, &b, 5).is_empty());
        assert!(behavioural_diff(&b, &a, 5).is_empty());
    }
}

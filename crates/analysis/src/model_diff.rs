//! Labelled model diffing — the shared library behind every "learn two
//! things and compare them" analysis.
//!
//! [`comparison`](crate::comparison) provides the raw primitives
//! (minimized equivalence checking, breadth-first behavioural diff); this
//! module packages them into a single [`ModelDiff`] value that carries the
//! labels of the two models, their minimized sizes, the verdict and the
//! shortest distinguishing traces.  The cross-implementation example, the
//! bug-hunt example and the campaign runner's `Diff` tasks all produce
//! exactly this value, so a diff renders identically no matter which
//! front end asked for it.

use crate::comparison::{behavioural_diff, compare_models, DiffEntry};
use prognosis_automata::mealy::MealyMachine;
use std::fmt;

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
    /// Up to `max_diffs` concrete distinguishing traces, shortest first
    /// (empty when equivalent, and also when the alphabets mismatch).
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

/// Diffs two learned models: minimized equivalence check plus up to
/// `max_diffs` concrete distinguishing traces (shortest first).  Mismatched
/// alphabets yield `equivalent: false` with no traces, mirroring
/// [`compare_models`].
pub fn diff_models(
    left_label: impl Into<String>,
    left: &MealyMachine,
    right_label: impl Into<String>,
    right: &MealyMachine,
    max_diffs: usize,
) -> ModelDiff {
    let cmp = compare_models(left, right);
    let diffs = if cmp.equivalent {
        Vec::new()
    } else {
        behavioural_diff(left, right, max_diffs)
    };
    ModelDiff {
        left_label: left_label.into(),
        right_label: right_label.into(),
        left_states: cmp.left_states,
        right_states: cmp.right_states,
        equivalent: cmp.equivalent,
        diffs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prognosis_automata::known;

    #[test]
    fn equivalent_models_diff_to_an_empty_trace_list() {
        let m = known::redundant_pair();
        let diff = diff_models(
            "orig",
            &m,
            "minimized",
            &prognosis_automata::minimize::minimize(&m),
            5,
        );
        assert!(diff.equivalent);
        assert!(diff.diffs.is_empty());
        assert!(diff.shortest().is_none());
        assert!(diff.verdict().contains("equivalent"));
    }

    #[test]
    fn different_models_carry_shortest_first_traces_and_labels() {
        let diff = diff_models("three", &known::counter(3), "five", &known::counter(5), 4);
        assert!(!diff.equivalent);
        assert_eq!((diff.left_states, diff.right_states), (3, 5));
        assert!(!diff.diffs.is_empty() && diff.diffs.len() <= 4);
        assert!(diff
            .diffs
            .windows(2)
            .all(|w| w[0].input.len() <= w[1].input.len()));
        assert_eq!(diff.shortest().unwrap().input.len(), 3);
        let rendered = diff.to_string();
        assert!(rendered.contains("three") && rendered.contains("five"));
    }

    #[test]
    fn mismatched_alphabets_yield_inequivalent_with_no_traces() {
        let diff = diff_models("a", &known::toggle(), "b", &known::counter(2), 5);
        assert!(!diff.equivalent);
        assert!(diff.diffs.is_empty());
    }
}

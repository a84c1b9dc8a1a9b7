//! Concrete traces for synthesis.
//!
//! A concrete trace is an abstract I/O trace (the same object the learner
//! manipulates) enriched, per step, with the numeric fields of the concrete
//! packets that were exchanged — exactly the pairing the Oracle Table stores
//! (§3.2, property 4).  The example of §4.3 is the trace
//! `[(ACK(0,3,0)/NIL), (SYN(2,5,0)/ACK(4,5,0))]`: each input symbol carries
//! the numeric fields `(0,3)`/`(2,5)` and each output symbol carries `()`
//! (for `NIL`) or `(4,5)`.

use prognosis_automata::word::IoTrace;

/// Numeric fields observed for one step of a concrete trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConcreteStep {
    /// Numeric fields of the concrete input packet (e.g. `[seq, ack]`).
    pub input_fields: Vec<i64>,
    /// Numeric fields of the concrete output packet (empty when the output
    /// carries no numeric payload, e.g. `NIL`).
    pub output_fields: Vec<i64>,
}

impl ConcreteStep {
    /// Creates a step from input and output field vectors.
    pub fn new(input_fields: Vec<i64>, output_fields: Vec<i64>) -> Self {
        ConcreteStep {
            input_fields,
            output_fields,
        }
    }
}

/// An abstract trace paired with per-step concrete numeric fields.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConcreteTrace {
    /// The abstract I/O trace (what the learner saw).
    pub abstract_trace: IoTrace,
    /// One concrete step per abstract step.
    pub steps: Vec<ConcreteStep>,
}

impl ConcreteTrace {
    /// Pairs an abstract trace with its concrete steps.
    ///
    /// # Panics
    /// Panics when the number of steps differs from the trace length.
    pub fn new(abstract_trace: IoTrace, steps: Vec<ConcreteStep>) -> Self {
        assert_eq!(
            abstract_trace.len(),
            steps.len(),
            "a concrete trace needs exactly one concrete step per abstract step"
        );
        ConcreteTrace {
            abstract_trace,
            steps,
        }
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Maximum number of input fields appearing in any step.
    pub fn max_input_fields(&self) -> usize {
        self.steps
            .iter()
            .map(|s| s.input_fields.len())
            .max()
            .unwrap_or(0)
    }

    /// Maximum number of output fields appearing in any step.
    pub fn max_output_fields(&self) -> usize {
        self.steps
            .iter()
            .map(|s| s.output_fields.len())
            .max()
            .unwrap_or(0)
    }

    /// All constants appearing in the trace's fields (useful for seeding the
    /// constant pool of a [`crate::term::TermDomain`]).
    pub fn observed_constants(&self) -> Vec<i64> {
        let mut v: Vec<i64> = self
            .steps
            .iter()
            .flat_map(|s| s.input_fields.iter().chain(s.output_fields.iter()).copied())
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prognosis_automata::word::{InputWord, OutputWord};

    fn paper_trace() -> ConcreteTrace {
        // [(ACK(0,3,0)/NIL), (SYN(2,5,0)/ACK(4,5,0))]
        let abstract_trace = IoTrace::new(
            InputWord::from_symbols(["ACK(sn,an,0)", "SYN(sn,an,0)"]),
            OutputWord::from_symbols(["NIL", "ACK(o1,o2,0)"]),
        );
        ConcreteTrace::new(
            abstract_trace,
            vec![
                ConcreteStep::new(vec![0, 3], vec![]),
                ConcreteStep::new(vec![2, 5], vec![4, 5]),
            ],
        )
    }

    #[test]
    fn construction_and_accessors() {
        let t = paper_trace();
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.max_input_fields(), 2);
        assert_eq!(t.max_output_fields(), 2);
        assert_eq!(t.observed_constants(), vec![0, 2, 3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "one concrete step per abstract step")]
    fn rejects_step_count_mismatch() {
        let abstract_trace = IoTrace::new(
            InputWord::from_symbols(["a"]),
            OutputWord::from_symbols(["x"]),
        );
        let _ = ConcreteTrace::new(abstract_trace, vec![]);
    }
}

//! The Oracle Table (§3.2 property 4).
//!
//! Every learner query exchanged with the SUL is recorded twice: once at the
//! abstract level (what the learner saw) and once at the concrete level (the
//! numeric fields of the packets that actually crossed the wire).  The
//! synthesis module of §4.3 later mines these pairs to recover register
//! behaviour such as sequence-number arithmetic or the Issue-4 constant-0
//! flow-control field.
//!
//! The table is flat, so recording a step allocates nothing once its
//! buffers have grown.  Each step is one record of its input and output
//! [`Symbol`] (refcount clones of the adapter's memoised symbols) plus two
//! end offsets into one shared `Vec<i64>` of fields: a step's input fields
//! run from the previous step's output end to its `input_end`, its output
//! fields from there to its `output_end`.  A query is the run of steps up to
//! one end index in `query_ends`.  Steps pushed since the last
//! [`OracleTable::end_query`] belong to the query in progress and are not
//! yet an entry.  [`OracleTable::entries`] rebuilds owned [`OracleEntry`]s
//! on demand.

use prognosis_automata::alphabet::Symbol;
use prognosis_automata::word::{InputWord, IoTrace, OutputWord};
use prognosis_synth::trace::{ConcreteStep, ConcreteTrace};
use std::ops::Range;

/// One recorded query: the abstract trace plus per-step concrete fields.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OracleEntry {
    /// The abstract I/O trace.
    pub abstract_trace: IoTrace,
    /// Concrete numeric fields per step.
    pub steps: Vec<ConcreteStep>,
}

/// One recorded step: its symbols and the end offsets of its input and
/// output fields in the table's shared field buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
struct StepRecord {
    input: Symbol,
    output: Symbol,
    input_end: usize,
    output_end: usize,
}

/// The Oracle Table: an append-only record of (abstract, concrete) trace pairs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OracleTable {
    steps: Vec<StepRecord>,
    fields: Vec<i64>,
    /// One past the last step of each recorded query.
    query_ends: Vec<usize>,
}

impl OracleTable {
    /// An empty table.
    pub fn new() -> Self {
        OracleTable::default()
    }

    /// Records a completed query.
    ///
    /// # Panics
    /// Panics when the abstract trace and concrete steps disagree in length.
    pub fn record(&mut self, abstract_trace: IoTrace, steps: Vec<ConcreteStep>) {
        assert_eq!(
            abstract_trace.len(),
            steps.len(),
            "one concrete step per abstract step"
        );
        for ((input, output), step) in abstract_trace.steps().zip(&steps) {
            self.push_step(input, &step.input_fields, output, &step.output_fields);
        }
        self.query_ends.push(self.steps.len());
    }

    /// Appends one step to the query in progress.
    pub fn push_step(
        &mut self,
        input: &Symbol,
        input_fields: &[i64],
        output: &Symbol,
        output_fields: &[i64],
    ) {
        self.fields.extend_from_slice(input_fields);
        let input_end = self.fields.len();
        self.fields.extend_from_slice(output_fields);
        self.steps.push(StepRecord {
            input: input.clone(),
            output: output.clone(),
            input_end,
            output_end: self.fields.len(),
        });
    }

    /// Closes the query in progress, making it an entry; does nothing when
    /// no step was pushed since the last call.
    pub fn end_query(&mut self) {
        if self.steps.len() > self.completed_steps() {
            self.query_ends.push(self.steps.len());
        }
    }

    /// Number of steps that belong to recorded queries.
    fn completed_steps(&self) -> usize {
        self.query_ends.last().copied().unwrap_or(0)
    }

    /// Number of recorded queries.
    pub fn len(&self) -> usize {
        self.query_ends.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.query_ends.is_empty()
    }

    /// The step ranges of the recorded queries, in recording order.
    fn queries(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        let starts = std::iter::once(0).chain(self.query_ends.iter().copied());
        starts
            .zip(self.query_ends.iter().copied())
            .map(|(s, e)| s..e)
    }

    /// The owned entry of the query spanning `steps`.
    fn entry(&self, steps: Range<usize>) -> OracleEntry {
        let mut start = match steps.start {
            0 => 0,
            s => self.steps[s - 1].output_end,
        };
        let records = &self.steps[steps];
        let mut concrete = Vec::with_capacity(records.len());
        for r in records {
            concrete.push(ConcreteStep::new(
                self.fields[start..r.input_end].to_vec(),
                self.fields[r.input_end..r.output_end].to_vec(),
            ));
            start = r.output_end;
        }
        let input: InputWord = records.iter().map(|r| r.input.clone()).collect();
        let output: OutputWord = records.iter().map(|r| r.output.clone()).collect();
        OracleEntry {
            abstract_trace: IoTrace::new(input, output),
            steps: concrete,
        }
    }

    /// Iterates over the entries in recording order, building each one.
    pub fn entries(&self) -> impl Iterator<Item = OracleEntry> + '_ {
        self.queries().map(|steps| self.entry(steps))
    }

    /// Converts the table into synthesis input ([`ConcreteTrace`]s), keeping
    /// only traces whose abstract outputs the given predicate accepts
    /// (usually "traces consistent with the learned skeleton").
    pub fn to_concrete_traces(&self, mut keep: impl FnMut(&IoTrace) -> bool) -> Vec<ConcreteTrace> {
        self.entries()
            .filter(|e| keep(&e.abstract_trace))
            .map(|e| ConcreteTrace::new(e.abstract_trace, e.steps))
            .collect()
    }

    /// All concrete traces, unfiltered.
    pub fn all_concrete_traces(&self) -> Vec<ConcreteTrace> {
        self.to_concrete_traces(|_| true)
    }

    /// Clears the table.
    pub fn clear(&mut self) {
        self.steps.clear();
        self.fields.clear();
        self.query_ends.clear();
    }

    /// Appends all of `other`'s recorded queries, preserving their order —
    /// used to combine the tables accumulated by parallel SUL workers into
    /// one synthesis input.  A query still in progress in `other` is left
    /// out.
    ///
    /// # Panics
    /// Panics when `self` has a query in progress.
    pub fn merge_from(&mut self, other: OracleTable) {
        assert_eq!(
            self.steps.len(),
            self.completed_steps(),
            "merge_from needs every query of the target table ended"
        );
        let step_base = self.steps.len();
        let field_base = self.fields.len();
        let completed = other.completed_steps();
        let field_end = completed
            .checked_sub(1)
            .map_or(0, |last| other.steps[last].output_end);
        self.fields.extend_from_slice(&other.fields[..field_end]);
        self.steps
            .extend(other.steps.into_iter().take(completed).map(|r| StepRecord {
                input_end: r.input_end + field_base,
                output_end: r.output_end + field_base,
                ..r
            }));
        self.query_ends
            .extend(other.query_ends.iter().map(|e| e + step_base));
    }
}

/// Implemented by SULs whose adapter accumulates an [`OracleTable`] (§3.2
/// property 4).  Lets generic pipeline code — notably
/// [`crate::pipeline::ParallelLearnOutcome::merged_oracle_table`] — collect
/// the synthesis input without knowing the concrete adapter type.
pub trait HasOracleTable {
    /// The Oracle Table accumulated so far.
    fn oracle_table(&self) -> &OracleTable;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(s: &str) -> Symbol {
        Symbol::new(s)
    }

    #[test]
    fn record_and_convert() {
        let mut table = OracleTable::new();
        assert!(table.is_empty());
        table.push_step(
            &sym("SYN(?,?,0)"),
            &[100, 0],
            &sym("ACK+SYN(?,?,0)"),
            &[10_000, 101],
        );
        table.push_step(&sym("ACK(?,?,0)"), &[101, 10_001], &sym("NIL"), &[]);
        table.end_query();
        assert_eq!(table.len(), 1);
        let traces = table.all_concrete_traces();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].steps[0].output_fields, vec![10_000, 101]);
        let filtered = table.to_concrete_traces(|t| t.input[0].as_str() == "FIN(?,?,0)");
        assert!(filtered.is_empty());
        table.clear();
        assert!(table.is_empty());
    }

    #[test]
    #[should_panic(expected = "one concrete step per abstract step")]
    fn rejects_mismatched_lengths() {
        let mut table = OracleTable::new();
        table.record(
            IoTrace::new(
                InputWord::from_symbols(["a"]),
                OutputWord::from_symbols(["b"]),
            ),
            vec![],
        );
    }

    #[test]
    fn entries_iterate_in_order() {
        let mut table = OracleTable::new();
        for i in 0..3 {
            table.push_step(
                &sym(&format!("in{i}")),
                &[i],
                &sym(&format!("out{i}")),
                &[i * 10],
            );
            table.end_query();
        }
        let firsts: Vec<String> = table
            .entries()
            .map(|e| e.abstract_trace.input[0].to_string())
            .collect();
        assert_eq!(firsts, vec!["in0", "in1", "in2"]);
    }

    #[test]
    fn steps_in_progress_are_not_entries() {
        let mut table = OracleTable::new();
        table.end_query();
        assert!(table.is_empty(), "an empty query is not recorded");
        table.push_step(&sym("a"), &[1, 2], &sym("b"), &[3]);
        assert!(table.is_empty());
        table.end_query();
        table.end_query();
        assert_eq!(table.len(), 1);
        table.push_step(&sym("c"), &[], &sym("d"), &[4]);
        let entries: Vec<OracleEntry> = table.entries().collect();
        assert_eq!(entries.len(), 1);
        assert_eq!(
            entries[0].steps,
            vec![ConcreteStep::new(vec![1, 2], vec![3])]
        );
    }

    #[test]
    fn record_matches_push_step_and_keeps_empty_queries() {
        let trace = IoTrace::new(
            InputWord::from_symbols(["a", "c"]),
            OutputWord::from_symbols(["b", "d"]),
        );
        let steps = vec![
            ConcreteStep::new(vec![1], vec![2, 3]),
            ConcreteStep::new(vec![], vec![4]),
        ];
        let mut recorded = OracleTable::new();
        recorded.record(trace.clone(), steps.clone());
        let mut pushed = OracleTable::new();
        pushed.push_step(&sym("a"), &[1], &sym("b"), &[2, 3]);
        pushed.push_step(&sym("c"), &[], &sym("d"), &[4]);
        pushed.end_query();
        assert_eq!(recorded, pushed);
        recorded.record(IoTrace::empty(), vec![]);
        assert_eq!(recorded.len(), 2, "record keeps an empty query");
        let entries: Vec<OracleEntry> = recorded.entries().collect();
        assert_eq!(
            entries[0],
            OracleEntry {
                abstract_trace: trace,
                steps
            }
        );
        assert!(entries[1].abstract_trace.is_empty());
    }

    #[test]
    fn merge_appends_recorded_queries_only() {
        let mut a = OracleTable::new();
        a.push_step(&sym("a"), &[1], &sym("b"), &[2]);
        a.end_query();
        let mut b = OracleTable::new();
        b.push_step(&sym("c"), &[3], &sym("d"), &[]);
        b.push_step(&sym("e"), &[], &sym("f"), &[4, 5]);
        b.end_query();
        b.push_step(&sym("pending"), &[6], &sym("x"), &[7]);
        let mut expected: Vec<OracleEntry> = a.entries().collect();
        expected.extend(b.entries());
        a.merge_from(b);
        assert_eq!(a.entries().collect::<Vec<_>>(), expected);
        assert_eq!(a.len(), 2);
        a.push_step(&sym("g"), &[8], &sym("h"), &[9]);
        a.end_query();
        let last = a.entries().last().unwrap();
        assert_eq!(last.steps, vec![ConcreteStep::new(vec![8], vec![9])]);
    }
}

//! Query accounting for learning runs.
//!
//! The paper's evaluation reports learning effort in terms of membership
//! queries (4,726 for the TCP stack, 24,301 and 12,301 for the two QUIC
//! implementations) and model sizes.  [`LearningStats`] carries those
//! numbers through the pipeline and into the experiment harness.

use prognosis_automata::word::InputWord;
use std::collections::BTreeSet;
use std::fmt;
use std::ops::Add;

/// Counters describing one learning run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LearningStats {
    /// Membership queries issued to the SUL (after caching).
    pub membership_queries: u64,
    /// Input symbols sent across all membership queries.
    pub input_symbols: u64,
    /// Input symbols genuinely executed by the SUL — symbols not already
    /// covered by a cached (possibly persisted, cross-run) prefix.  This is
    /// the paper's cost metric: a warm-started run that answers everything
    /// from the cache reports zero.
    pub fresh_symbols: u64,
    /// Equivalence queries issued.
    pub equivalence_queries: u64,
    /// Equivalence-suite test words executed (counted up to and including
    /// the first mismatch of each query, exactly as a word-at-a-time
    /// strategy would — independent of batching and scheduling).
    pub equivalence_tests: u64,
    /// Counterexamples processed (= refinement rounds triggered).
    pub counterexamples: u64,
    /// Hypothesis construction rounds.
    pub learning_rounds: u64,
    /// Number of states of the final model.
    pub model_states: u64,
    /// Number of transitions of the final model.
    pub model_transitions: u64,
}

impl LearningStats {
    /// A zeroed statistics record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the final model dimensions.
    pub fn record_model(&mut self, states: usize, transitions: usize) {
        self.model_states = states as u64;
        self.model_transitions = transitions as u64;
    }

    /// Accounts one membership batch, counting **deduplicated** batch
    /// entries: a word occurring twice in the same batch is one query (the
    /// oracle stack answers it once and fans the answer out), so both the
    /// L* and discrimination-tree paths charge identical costs for
    /// identical batches.  Single queries (`MembershipOracle::query`) are
    /// still counted per call — dedup applies within one batch only.
    pub fn record_batch(&mut self, inputs: &[InputWord]) {
        let distinct: BTreeSet<&InputWord> = inputs.iter().collect();
        self.membership_queries += distinct.len() as u64;
        self.input_symbols += distinct.iter().map(|i| i.len() as u64).sum::<u64>();
    }

    /// Average input symbols per membership query.
    pub fn avg_query_length(&self) -> f64 {
        if self.membership_queries == 0 {
            0.0
        } else {
            self.input_symbols as f64 / self.membership_queries as f64
        }
    }
}

impl Add for LearningStats {
    type Output = LearningStats;

    fn add(self, rhs: LearningStats) -> LearningStats {
        LearningStats {
            membership_queries: self.membership_queries + rhs.membership_queries,
            input_symbols: self.input_symbols + rhs.input_symbols,
            fresh_symbols: self.fresh_symbols + rhs.fresh_symbols,
            equivalence_queries: self.equivalence_queries + rhs.equivalence_queries,
            equivalence_tests: self.equivalence_tests + rhs.equivalence_tests,
            counterexamples: self.counterexamples + rhs.counterexamples,
            learning_rounds: self.learning_rounds + rhs.learning_rounds,
            model_states: self.model_states.max(rhs.model_states),
            model_transitions: self.model_transitions.max(rhs.model_transitions),
        }
    }
}

impl fmt::Display for LearningStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} states, {} transitions, {} membership queries, {} equivalence queries, {} counterexamples",
            self.model_states,
            self.model_transitions,
            self.membership_queries,
            self.equivalence_queries,
            self.counterexamples
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_display() {
        let mut s = LearningStats::new();
        s.membership_queries = 4726;
        s.record_model(6, 42);
        let text = s.to_string();
        assert!(text.contains("6 states"));
        assert!(text.contains("42 transitions"));
        assert!(text.contains("4726 membership queries"));
    }

    #[test]
    fn addition_accumulates_counters() {
        let a = LearningStats {
            membership_queries: 10,
            input_symbols: 30,
            ..Default::default()
        };
        let b = LearningStats {
            membership_queries: 5,
            input_symbols: 20,
            model_states: 8,
            ..Default::default()
        };
        let c = a + b;
        assert_eq!(c.membership_queries, 15);
        assert_eq!(c.input_symbols, 50);
        assert_eq!(c.model_states, 8);
    }

    #[test]
    fn average_query_length() {
        let s = LearningStats {
            membership_queries: 4,
            input_symbols: 10,
            ..Default::default()
        };
        assert!((s.avg_query_length() - 2.5).abs() < 1e-9);
        assert_eq!(LearningStats::default().avg_query_length(), 0.0);
    }

    #[test]
    fn record_batch_counts_deduplicated_entries() {
        let mut s = LearningStats::new();
        let w1 = InputWord::from_symbols(["a", "b"]);
        let w2 = InputWord::from_symbols(["a"]);
        s.record_batch(&[w1.clone(), w2.clone(), w1.clone()]);
        assert_eq!(s.membership_queries, 2, "duplicate batch entries collapse");
        assert_eq!(s.input_symbols, 3);
        // A second batch repeating an earlier word is still charged: dedup
        // is within one batch, not across batches.
        s.record_batch(&[w2]);
        assert_eq!(s.membership_queries, 3);
        assert_eq!(s.input_symbols, 4);
    }
}

//! Angluin-style L* for Mealy machines.
//!
//! The observation table holds a set `S` of representative prefixes
//! (prefix-closed, with pairwise-distinct rows) and a set `E` of
//! distinguishing suffixes.  A cell `(s, e)` records the output suffix the
//! SUL produces for the last `|e|` symbols of the query `s·e`.
//! Counterexamples are handled in the Maler–Pnueli style (all suffixes of
//! the counterexample are added to `E`), which keeps the table consistent by
//! construction and therefore needs no explicit consistency check.
//!
//! L* is quadratic in the number of states in membership queries and serves
//! as the reference learner; the discrimination-tree learner in
//! [`crate::dtree`] is the one used by the experiment harness (it is the
//! family TTT belongs to and asks far fewer queries).

use crate::oracle::{EquivalenceOracle, MembershipOracle, QueryPhase};
use crate::stats::LearningStats;
use crate::{Learner, LearningResult};
use prognosis_automata::alphabet::{Alphabet, Symbol};
use prognosis_automata::mealy::{MealyBuilder, MealyMachine};
use prognosis_automata::word::{InputWord, OutputWord};
use std::collections::{BTreeMap, BTreeSet};

/// The L* learner.
pub struct LStarLearner {
    alphabet: Alphabet,
    /// Representative prefixes with pairwise-distinct rows (prefix-closed).
    prefixes: Vec<InputWord>,
    /// Distinguishing suffixes (columns).
    suffixes: Vec<InputWord>,
    /// Cache of cells: (prefix, suffix index) → output suffix.
    cells: BTreeMap<(InputWord, usize), OutputWord>,
    stats: LearningStats,
}

impl LStarLearner {
    /// Creates a learner over the given abstract input alphabet.
    pub fn new(alphabet: Alphabet) -> Self {
        assert!(
            !alphabet.is_empty(),
            "learning needs a non-empty input alphabet"
        );
        let suffixes = alphabet
            .iter()
            .map(|s| InputWord::from_symbols([s.clone()]))
            .collect();
        LStarLearner {
            alphabet,
            prefixes: vec![InputWord::empty()],
            suffixes,
            cells: BTreeMap::new(),
            stats: LearningStats::new(),
        }
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> LearningStats {
        self.stats
    }

    fn cell(
        &mut self,
        membership: &mut dyn MembershipOracle,
        prefix: &InputWord,
        suffix_idx: usize,
    ) -> OutputWord {
        if let Some(v) = self.cells.get(&(prefix.clone(), suffix_idx)) {
            return v.clone();
        }
        let suffix = &self.suffixes[suffix_idx];
        let query = prefix.concat(suffix);
        let out = membership.query(&query);
        self.stats.membership_queries += 1;
        self.stats.input_symbols += query.len() as u64;
        let cell = out.suffix_from(prefix.len());
        self.cells
            .insert((prefix.clone(), suffix_idx), cell.clone());
        cell
    }

    /// Fills every uncached cell of the given prefixes' rows in **one**
    /// deduplicated membership batch — the L* counterpart of the
    /// discrimination-tree sift wavefront: the oracle stack sees one batch
    /// of `O(|prefixes| × |E|)` instead of one batch per row.  Queries are
    /// accounted per deduplicated batch entry
    /// ([`LearningStats::record_batch`]); two cells whose full query words
    /// coincide are charged once, exactly as the dtree path charges them.
    fn fill_rows(&mut self, membership: &mut dyn MembershipOracle, prefixes: &[InputWord]) {
        let mut seen: BTreeSet<(InputWord, usize)> = BTreeSet::new();
        let mut missing: Vec<(InputWord, usize)> = Vec::new();
        for prefix in prefixes {
            for i in 0..self.suffixes.len() {
                let key = (prefix.clone(), i);
                if self.cells.contains_key(&key) || !seen.insert(key.clone()) {
                    continue;
                }
                missing.push(key);
            }
        }
        if missing.is_empty() {
            return;
        }
        let queries: Vec<InputWord> = missing
            .iter()
            .map(|(prefix, i)| prefix.concat(&self.suffixes[*i]))
            .collect();
        self.stats.record_batch(&queries);
        let outs = membership.query_batch(&queries);
        assert_eq!(
            outs.len(),
            queries.len(),
            "oracle must answer the whole batch"
        );
        for (((prefix, i), query), out) in missing.into_iter().zip(queries).zip(outs) {
            assert_eq!(
                out.len(),
                query.len(),
                "oracle must answer symbol-per-symbol"
            );
            let cell = out.suffix_from(prefix.len());
            self.cells.insert((prefix, i), cell);
        }
    }

    /// Fills (and returns) a whole table row; uncached cells are fetched
    /// through [`LStarLearner::fill_rows`].
    fn row(
        &mut self,
        membership: &mut dyn MembershipOracle,
        prefix: &InputWord,
    ) -> Vec<OutputWord> {
        self.fill_rows(membership, std::slice::from_ref(prefix));
        (0..self.suffixes.len())
            .map(|i| self.cells[&(prefix.clone(), i)].clone())
            .collect()
    }

    /// Ensures the table is closed: every one-symbol extension of a prefix in
    /// `S` has a row already represented in `S`; otherwise the extension is
    /// promoted into `S`.
    ///
    /// Each closure pass batches every missing cell of `S ∪ S·Σ` up front
    /// (they are all needed by the time the hypothesis is built, so this
    /// costs no extra distinct queries), then decides the promotion from
    /// cached cells — the same first-unclosed-extension-in-scan-order
    /// choice the row-at-a-time implementation made.
    fn close(&mut self, membership: &mut dyn MembershipOracle) {
        membership.note_phase(QueryPhase::Construction);
        loop {
            let mut scan: Vec<InputWord> = self.prefixes.clone();
            for p in self.prefixes.clone() {
                for a in self.alphabet.clone().iter() {
                    let ext = p.append(a.clone());
                    if !self.prefixes.contains(&ext) {
                        scan.push(ext);
                    }
                }
            }
            self.fill_rows(membership, &scan);
            let mut known_rows: Vec<Vec<OutputWord>> = Vec::new();
            for p in self.prefixes.clone() {
                known_rows.push(self.row(membership, &p));
            }
            let mut promoted = None;
            'outer: for p in self.prefixes.clone() {
                for a in self.alphabet.clone().iter() {
                    let ext = p.append(a.clone());
                    if self.prefixes.contains(&ext) {
                        continue;
                    }
                    let r = self.row(membership, &ext);
                    if !known_rows.contains(&r) {
                        promoted = Some((ext, r));
                        break 'outer;
                    }
                }
            }
            match promoted {
                Some((ext, row)) => {
                    self.prefixes.push(ext);
                    known_rows.push(row);
                }
                None => return,
            }
        }
    }

    fn build_hypothesis(&mut self, membership: &mut dyn MembershipOracle) -> MealyMachine {
        self.stats.learning_rounds += 1;
        membership.note_phase(QueryPhase::Construction);
        let rows: Vec<Vec<OutputWord>> = self
            .prefixes
            .clone()
            .iter()
            .map(|p| self.row(membership, p))
            .collect();
        let state_of_row = |row: &Vec<OutputWord>| -> usize {
            rows.iter()
                .position(|r| r == row)
                .expect("closed table: every extension row is represented")
        };
        let mut builder = MealyBuilder::new(self.alphabet.clone());
        builder.add_states(self.prefixes.len());
        let initial_row = rows[self
            .prefixes
            .iter()
            .position(|p| p.is_empty())
            .expect("ε is always in S")]
        .clone();
        builder.set_initial(state_of_row(&initial_row));
        for (state, prefix) in self.prefixes.clone().iter().enumerate() {
            for (sym_idx, a) in self.alphabet.clone().iter().enumerate() {
                let ext = prefix.append(a.clone());
                let target_row = self.row(membership, &ext);
                let target = state_of_row(&target_row);
                // E contains every single-symbol suffix in alphabet order, so
                // the output on `a` is exactly the cell (prefix, sym_idx).
                let out_word = self.cell(membership, prefix, sym_idx);
                let output: Symbol = out_word
                    .last()
                    .expect("single-symbol suffix yields one output symbol")
                    .clone();
                builder
                    .add_transition(state, a.clone(), output, target)
                    .expect("states pre-added");
            }
        }
        builder
            .build()
            .expect("closed table yields a total machine")
    }

    fn process_counterexample(&mut self, ce_input: &InputWord) {
        self.stats.counterexamples += 1;
        // Maler–Pnueli: add every suffix of the counterexample as a column.
        for start in 0..ce_input.len() {
            let suffix = ce_input.suffix_from(start);
            if !suffix.is_empty() && !self.suffixes.contains(&suffix) {
                self.suffixes.push(suffix);
            }
        }
    }
}

impl Learner for LStarLearner {
    fn learn(
        &mut self,
        membership: &mut dyn MembershipOracle,
        equivalence: &mut dyn EquivalenceOracle,
    ) -> LearningResult {
        loop {
            self.close(membership);
            let hypothesis = self.build_hypothesis(membership);
            self.stats.equivalence_queries += 1;
            membership.note_phase(QueryPhase::Equivalence);
            match equivalence.find_counterexample(&hypothesis, membership) {
                None => {
                    self.stats
                        .record_model(hypothesis.num_states(), hypothesis.num_transitions());
                    return LearningResult {
                        model: hypothesis,
                        stats: self.stats,
                    };
                }
                Some(ce) => {
                    assert_ne!(
                        hypothesis.run(&ce.input).ok(),
                        Some(ce.output.clone()),
                        "equivalence oracle returned a spurious counterexample"
                    );
                    self.process_counterexample(&ce.input);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eq_oracles::SimulatorOracle;
    use crate::oracle::MachineOracle;
    use prognosis_automata::equivalence::machines_equivalent;
    use prognosis_automata::known;

    fn learn_machine(target: MealyMachine) -> LearningResult {
        let mut learner = LStarLearner::new(target.input_alphabet().clone());
        let mut membership = MachineOracle::new(target.clone());
        let mut equivalence = SimulatorOracle::new(target);
        learner.learn(&mut membership, &mut equivalence)
    }

    #[test]
    fn learns_the_toggle_machine() {
        let target = known::toggle();
        let result = learn_machine(target.clone());
        assert!(machines_equivalent(&result.model, &target));
        assert_eq!(result.model.num_states(), 2);
        assert!(result.stats.membership_queries > 0);
    }

    #[test]
    fn learns_the_handshake_fragment() {
        let target = known::tcp_handshake_fragment();
        let result = learn_machine(target.clone());
        assert!(machines_equivalent(&result.model, &target));
        // The learned model is minimal: the fragment's two NIL-sink states
        // collapse into one.
        assert_eq!(result.model.num_states(), 2);
    }

    #[test]
    fn learns_counters_of_increasing_size() {
        for n in 1..=6 {
            let target = known::counter(n);
            let result = learn_machine(target.clone());
            assert!(
                machines_equivalent(&result.model, &target),
                "counter({n}) not learned correctly"
            );
            assert_eq!(result.model.num_states(), n);
        }
    }

    #[test]
    fn query_counts_are_recorded() {
        let result = learn_machine(known::counter(4));
        assert_eq!(result.stats.model_states, 4);
        assert_eq!(result.stats.model_transitions, 8);
        assert!(result.stats.membership_queries >= 8);
        assert!(result.stats.equivalence_queries >= 1);
        assert!(result.stats.learning_rounds >= 1);
        assert!(result.stats.avg_query_length() > 0.0);
    }

    #[test]
    #[should_panic(expected = "non-empty input alphabet")]
    fn rejects_empty_alphabet() {
        let _ = LStarLearner::new(Alphabet::new());
    }

    /// Regression (wavefront dedup audit): a batch whose cells collapse to
    /// the same full query word must be charged once, and the number of
    /// membership queries must equal the number of *distinct* words the
    /// learner put on the wire — the same rule the dtree path applies, so
    /// the two learners' costs stay comparable.
    #[test]
    fn membership_queries_count_deduplicated_batch_entries() {
        use crate::oracle::CacheOracle;

        let target = known::counter(3);
        let mut learner = LStarLearner::new(target.input_alphabet().clone());
        // Force colliding cells: with suffixes [inc] and [inc, inc], the
        // cells (ε·"inc·inc") and ("inc"·"inc") both reduce to prefixes of
        // the same concatenations once prefixes grow.
        learner
            .suffixes
            .push(InputWord::from_symbols(["inc", "inc"]));
        let mut membership = CacheOracle::new(MachineOracle::new(target.clone()));
        let mut equivalence = SimulatorOracle::new(target);
        let result = learner.learn(&mut membership, &mut equivalence);
        // Every distinct word was forwarded at most once (the cache dedups
        // too), so dedup-counted queries can never undercut the distinct
        // words actually asked — and duplicates are never double-charged:
        // each learner-side query is either a distinct word or a within-
        // batch duplicate that record_batch collapsed.
        assert!(
            result.stats.membership_queries >= membership.misses(),
            "counted {} queries but the oracle saw {} distinct fresh words",
            result.stats.membership_queries,
            membership.misses()
        );
        assert!(
            result.stats.membership_queries <= (membership.hits() + membership.misses()),
            "dedup counting must never exceed the words handed to the cache"
        );
    }
}

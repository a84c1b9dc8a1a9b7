//! Access sequences, characterizing sets and covers.
//!
//! These are the ingredients of conformance-testing-based equivalence
//! oracles (W-method, Wp-method) used by the learning module when no
//! omniscient equivalence oracle exists (§4.1): a counterexample found by
//! such an oracle is guaranteed valid, while its absence gives probabilistic
//! rather than absolute guarantees.

use crate::alphabet::Symbol;
use crate::mealy::{MealyMachine, StateId};
use crate::walk::{product_transitions, transitions};
use crate::word::InputWord;
use std::collections::{BTreeMap, HashSet};

/// Shortest access sequence for every reachable state (BFS order).
///
/// The initial state maps to the empty word.
pub fn access_sequences(machine: &MealyMachine) -> BTreeMap<StateId, InputWord> {
    let mut out = BTreeMap::from([(machine.initial_state(), InputWord::empty())]);
    for step in transitions(machine, machine.initial_state()) {
        out.entry(step.target).or_insert(step.word);
    }
    out
}

/// The state cover: the set of access sequences (including ε).
pub fn state_cover(machine: &MealyMachine) -> Vec<InputWord> {
    let mut v: Vec<InputWord> = access_sequences(machine).into_values().collect();
    v.sort();
    v.dedup();
    v
}

/// The transition cover: every access sequence extended by every input symbol,
/// plus the state cover itself: ε and the walk's word for every reachable
/// transition (its source's access sequence extended by its input).
pub fn transition_cover(machine: &MealyMachine) -> Vec<InputWord> {
    let mut cover: Vec<InputWord> = transitions(machine, machine.initial_state())
        .map(|step| step.word)
        .collect();
    cover.push(InputWord::empty());
    cover.sort();
    cover
}

/// A characterizing set W: a set of input words such that any two distinct
/// states of the (minimal) machine produce different outputs on at least one
/// word in the set.
///
/// Computed by pairwise distinguishing-word search (BFS on the state-pair
/// graph), which is quadratic in the number of states — plenty fast for the
/// model sizes Prognosis learns (≤ a few dozen states).
pub fn characterizing_set(machine: &MealyMachine) -> Vec<InputWord> {
    let states: Vec<StateId> = machine.states().collect();
    let mut w: Vec<InputWord> = Vec::new();
    for (i, &a) in states.iter().enumerate() {
        for &b in states.iter().skip(i + 1) {
            if w.iter().any(|word| distinguishes(machine, a, b, word)) {
                continue;
            }
            if let Some(word) = distinguishing_word(machine, a, b) {
                w.push(word);
            }
        }
    }
    if w.is_empty() {
        // A single-state machine (or one whose states are indistinguishable)
        // still needs a non-empty W for the W-method to exercise outputs.
        if let Some(sym) = machine.input_alphabet().iter().next() {
            w.push(InputWord::from_symbols([sym.clone()]));
        }
    }
    w.sort();
    w.dedup();
    w
}

/// Whether `word` produces different outputs from states `a` and `b`.
pub fn distinguishes(machine: &MealyMachine, a: StateId, b: StateId, word: &InputWord) -> bool {
    let (_, oa) = machine.run_from(a, word).expect("total machine");
    let (_, ob) = machine.run_from(b, word).expect("total machine");
    oa != ob
}

/// Shortest input word distinguishing states `a` and `b`, if any.
pub fn distinguishing_word(machine: &MealyMachine, a: StateId, b: StateId) -> Option<InputWord> {
    product_transitions(machine, machine, (a, b))
        .expect("a machine shares its own alphabet")
        .find(|step| step.output.0 != step.output.1)
        .map(|step| step.word)
}

/// All input words of length exactly `len` over the machine's alphabet.
pub fn words_of_length(machine: &MealyMachine, len: usize) -> Vec<InputWord> {
    let mut words = vec![InputWord::empty()];
    for _ in 0..len {
        let mut next = Vec::with_capacity(words.len() * machine.input_alphabet().len());
        for w in &words {
            for sym in machine.input_alphabet().iter() {
                next.push(w.append(sym.clone()));
            }
        }
        words = next;
    }
    words
}

/// The W-method test suite for conformance testing against `machine`,
/// assuming the SUL has at most `machine.num_states() + extra_states` states:
/// `transition_cover · Σ^{≤extra} · W`.
pub fn w_method_suite(machine: &MealyMachine, extra_states: usize) -> Vec<InputWord> {
    let cover = transition_cover(machine);
    let w = characterizing_set(machine);
    let mut middles: Vec<InputWord> = Vec::new();
    for len in 0..=extra_states {
        middles.extend(words_of_length(machine, len));
    }
    let mut suite = Vec::with_capacity(cover.len() * middles.len() * w.len());
    for p in &cover {
        for m in &middles {
            for s in &w {
                suite.push(p.concat(m).concat(s));
            }
        }
    }
    suite.sort();
    suite.dedup();
    suite
}

/// Streaming generator of the W-method suite `P · Σ^{≤extra} · W`.
///
/// Yields one suite word at a time without ever materializing the product:
/// only the (small) transition cover `P` and characterizing set `W` are
/// held in memory, while the middle words `Σ^{≤extra}` are enumerated by an
/// odometer — the `|P|·|Σ|^{extra}·|W|`-word product is exactly what makes
/// the W-method suite for a large hypothesis expensive to build and hold.
///
/// Order: for each `p ∈ P` (sorted), middles by length then
/// lexicographically by symbol index, then each `s ∈ W` (sorted).  Repeated
/// `p · m` prefixes (e.g. `p="a", m="b"` vs `p="ab", m=ε`) are emitted only
/// once, so the stream matches [`w_method_suite`] as a *set* (see the
/// property test) up to the rare residual duplicate where triples with
/// *different* `p · m` but different `s` concatenate identically; unlike
/// the materialized suite the stream is not globally sorted.
pub struct WMethodSuite {
    cover: Vec<InputWord>,
    w: Vec<InputWord>,
    alphabet: Vec<Symbol>,
    extra: usize,
    p_idx: usize,
    m_len: usize,
    m_digits: Vec<usize>,
    s_idx: usize,
    /// `p · m` prefixes already emitted, so a prefix reachable through
    /// several `(p, m)` factorizations (e.g. `p="a", m="b"` and
    /// `p="ab", m=ε`) contributes its `· W` block only once — the same
    /// duplicates [`w_method_suite`]'s sort+dedup removes, caught with
    /// `|W|`-times less memory than materializing the product.
    seen_prefixes: HashSet<InputWord>,
    /// The current block's `p · m` concatenation, cached across its `s`s.
    current_prefix: Option<InputWord>,
    done: bool,
}

/// Creates the streaming W-method suite generator for conformance testing
/// against `machine`, assuming the SUL has at most
/// `machine.num_states() + extra_states` states.
pub fn w_method_suite_stream(machine: &MealyMachine, extra_states: usize) -> WMethodSuite {
    let cover = transition_cover(machine);
    let w = characterizing_set(machine);
    let alphabet: Vec<Symbol> = machine.input_alphabet().iter().cloned().collect();
    let done = cover.is_empty() || w.is_empty();
    WMethodSuite {
        cover,
        w,
        alphabet,
        extra: extra_states,
        p_idx: 0,
        m_len: 0,
        m_digits: Vec::new(),
        s_idx: 0,
        seen_prefixes: HashSet::new(),
        current_prefix: None,
        done,
    }
}

impl WMethodSuite {
    /// Advances the `(p, m, s)` odometer; sets `done` past the last triple.
    fn advance(&mut self) {
        self.s_idx += 1;
        if self.s_idx < self.w.len() {
            return;
        }
        self.s_idx = 0;
        // Increment the middle word (rightmost digit fastest).
        for digit in self.m_digits.iter_mut().rev() {
            *digit += 1;
            if *digit < self.alphabet.len() {
                return;
            }
            *digit = 0;
        }
        // All digits wrapped: next middle length (or next cover prefix).
        self.m_len += 1;
        if self.m_len <= self.extra && !self.alphabet.is_empty() {
            self.m_digits = vec![0; self.m_len];
            return;
        }
        self.m_len = 0;
        self.m_digits.clear();
        self.p_idx += 1;
        if self.p_idx >= self.cover.len() {
            self.done = true;
        }
    }
}

impl Iterator for WMethodSuite {
    type Item = InputWord;

    fn next(&mut self) -> Option<InputWord> {
        loop {
            if self.done {
                return None;
            }
            if self.s_idx == 0 {
                // Entering a new `(p, m)` block: build its prefix once and
                // skip the whole block if an equal prefix was already
                // emitted (its `· W` words would all be duplicates).
                let middle: InputWord = self
                    .m_digits
                    .iter()
                    .map(|&d| self.alphabet[d].clone())
                    .collect::<Vec<_>>()
                    .into_iter()
                    .collect();
                let prefix = self.cover[self.p_idx].concat(&middle);
                if !self.seen_prefixes.insert(prefix.clone()) {
                    self.s_idx = self.w.len() - 1;
                    self.advance();
                    continue;
                }
                self.current_prefix = Some(prefix);
            }
            let prefix = self.current_prefix.as_ref().expect("block prefix built");
            let word = prefix.concat(&self.w[self.s_idx]);
            self.advance();
            return Some(word);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::known;

    #[test]
    fn access_sequences_reach_their_states() {
        let m = known::counter(4);
        let access = access_sequences(&m);
        assert_eq!(access.len(), 4);
        for (&state, word) in &access {
            assert_eq!(m.state_after(word).unwrap(), state);
        }
        assert!(access[&m.initial_state()].is_empty());
    }

    #[test]
    fn state_cover_and_transition_cover_sizes() {
        let m = known::counter(3);
        let sc = state_cover(&m);
        let tc = transition_cover(&m);
        assert_eq!(sc.len(), 3);
        // Transition cover contains the state cover plus every one-symbol
        // extension: ε and one word per transition.
        assert_eq!(tc.len(), 1 + m.num_transitions());
        for w in &sc {
            assert!(tc.contains(w));
        }
    }

    #[test]
    fn characterizing_set_distinguishes_all_state_pairs() {
        let m = known::counter(5);
        let w = characterizing_set(&m);
        assert!(!w.is_empty());
        let states: Vec<_> = m.states().collect();
        for (i, &a) in states.iter().enumerate() {
            for &b in states.iter().skip(i + 1) {
                assert!(
                    w.iter().any(|word| distinguishes(&m, a, b, word)),
                    "states {a} and {b} not distinguished"
                );
            }
        }
    }

    #[test]
    fn distinguishing_word_is_none_for_equivalent_states() {
        let m = known::redundant_pair();
        // states 1 and 2 are behaviourally identical in this machine.
        assert_eq!(distinguishing_word(&m, 1, 2), None);
        assert!(distinguishing_word(&m, 0, 1).is_some());
        assert_eq!(distinguishing_word(&m, 0, 0), None);
    }

    #[test]
    fn w_method_suite_detects_a_mutated_machine() {
        use crate::mealy::MealyBuilder;
        let m = known::counter(3);
        // Build a mutant that differs on a deep transition: wrap goes to
        // state 1 instead of state 0.
        let mut b = MealyBuilder::new(m.input_alphabet().clone());
        b.add_states(3);
        for (from, input, output, to) in m.transitions() {
            let target = if output.as_str() == "wrap" { 1 } else { to };
            b.add_transition(from, input, output, target).unwrap();
        }
        let mutant = b.build().unwrap();
        let suite = w_method_suite(&m, 0);
        let caught = suite
            .iter()
            .any(|w| m.run(w).unwrap() != mutant.run(w).unwrap());
        assert!(caught, "W-method suite must catch the transition mutation");
    }

    #[test]
    fn streamed_suite_covers_exactly_the_materialized_suite() {
        for extra in 0..=2 {
            for machine in [known::counter(4), known::toggle(), known::counter(2)] {
                let materialized = w_method_suite(&machine, extra);
                let mut streamed: Vec<InputWord> = w_method_suite_stream(&machine, extra).collect();
                streamed.sort();
                streamed.dedup();
                assert_eq!(
                    streamed, materialized,
                    "stream must cover the same word set (extra = {extra})"
                );
            }
        }
    }

    #[test]
    fn streamed_suite_is_lazy_and_deterministic() {
        let m = known::counter(6);
        let first: Vec<InputWord> = w_method_suite_stream(&m, 2).take(10).collect();
        let again: Vec<InputWord> = w_method_suite_stream(&m, 2).take(10).collect();
        assert_eq!(first, again);
        assert_eq!(first.len(), 10, "a large suite streams without building");
    }

    #[test]
    fn words_of_length_counts() {
        let m = known::toggle();
        assert_eq!(words_of_length(&m, 0).len(), 1);
        assert_eq!(words_of_length(&m, 3).len(), 1); // single-symbol alphabet
        let m2 = known::counter(2);
        assert_eq!(words_of_length(&m2, 3).len(), 8);
    }
}

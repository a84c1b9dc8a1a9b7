//! The breadth-first transition walk behind every shortest witness.
//!
//! Distinguishing words, access sequences, model diffs and property
//! witnesses all ask for "the shortest input word that …", and all of them
//! walk the same way: breadth first from a start state, expanding each
//! reached state once, its transitions in input-alphabet order.  The walk
//! therefore meets every reachable transition exactly once, through the
//! length-lexicographically first shortest word ending on it (symbols
//! ordered by alphabet index), and meets the transitions in that order of
//! their words — so the first transition a search accepts carries the
//! length-lexicographically first shortest word with that property.

use crate::alphabet::{Alphabet, Symbol};
use crate::mealy::{MealyMachine, StateId};
use crate::word::InputWord;
use std::collections::{HashSet, VecDeque};
use std::hash::Hash;

/// One reachable transition, met through the shortest input word that
/// ends on it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Step<Q, O> {
    /// The walk's word for this transition: its last symbol takes the
    /// transition.
    pub word: InputWord,
    /// The transition's output.
    pub output: O,
    /// The transition's target state.
    pub target: Q,
}

/// A step of a product walk: a pair of states, a pair of outputs.
pub type ProductStep<'a> = Step<(StateId, StateId), (&'a Symbol, &'a Symbol)>;

/// Two machines whose input alphabets hold different symbols, which no
/// product walk can compare.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AlphabetMismatch {
    /// Symbols only the left machine's alphabet holds, in its order.
    pub only_left: Vec<String>,
    /// Symbols only the right machine's alphabet holds, in its order.
    pub only_right: Vec<String>,
}

/// Walks the transitions of `machine` reachable from `start`.
pub fn transitions(
    machine: &MealyMachine,
    start: StateId,
) -> impl Iterator<Item = Step<StateId, &Symbol>> {
    breadth_first(machine.input_alphabet(), start, move |state, index| {
        let (target, output) = machine.edge(state, index);
        (*target, output)
    })
}

/// Walks the transitions of the product of `left` and `right` reachable
/// from the state pair `start`, each step's output being the pair of the
/// two machines' outputs.  The alphabets must hold the same symbols, in
/// any order; the walk follows `left`'s order.
pub fn product_transitions<'a>(
    left: &'a MealyMachine,
    right: &'a MealyMachine,
    start: (StateId, StateId),
) -> Result<impl Iterator<Item = ProductStep<'a>>, AlphabetMismatch> {
    let (ours, theirs) = (left.input_alphabet(), right.input_alphabet());
    let only = |a: &Alphabet, b: &Alphabet| -> Vec<String> {
        a.iter()
            .filter(|s| !b.contains(s))
            .map(|s| s.to_string())
            .collect()
    };
    let (only_left, only_right) = (only(ours, theirs), only(theirs, ours));
    if !only_left.is_empty() || !only_right.is_empty() {
        return Err(AlphabetMismatch {
            only_left,
            only_right,
        });
    }
    let right_index: Vec<usize> = ours
        .iter()
        .map(|s| theirs.index_of(s).expect("alphabets hold the same symbols"))
        .collect();
    Ok(breadth_first(ours, start, move |(l, r), index| {
        let (left_target, left_output) = left.edge(l, index);
        let (right_target, right_output) = right.edge(r, right_index[index]);
        ((*left_target, *right_target), (left_output, right_output))
    }))
}

/// The walk itself: `step(state, index)` is the transition out of `state`
/// on the `index`-th symbol of `alphabet`.
fn breadth_first<'a, Q: Copy + Eq + Hash + 'a, O>(
    alphabet: &'a Alphabet,
    start: Q,
    step: impl Fn(Q, usize) -> (Q, O) + 'a,
) -> impl Iterator<Item = Step<Q, O>> + 'a {
    let mut visited = HashSet::from([start]);
    let mut queue = VecDeque::from([(start, InputWord::empty())]);
    let mut expanding: Option<(Q, InputWord)> = None;
    let mut next = 0;
    std::iter::from_fn(move || loop {
        if let (Some((source, prefix)), Some(symbol)) = (&expanding, alphabet.get(next)) {
            let (target, output) = step(*source, next);
            next += 1;
            let word = prefix.append(symbol.clone());
            if visited.insert(target) {
                queue.push_back((target, word.clone()));
            }
            return Some(Step {
                word,
                output,
                target,
            });
        }
        expanding = Some(queue.pop_front()?);
        next = 0;
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::known;

    #[test]
    fn walk_meets_each_reachable_transition_once_shortest_first() {
        let m = known::counter(3);
        let steps: Vec<_> = transitions(&m, 0).collect();
        assert_eq!(steps.len(), m.num_transitions());
        assert!(steps.windows(2).all(|w| w[0].word.len() <= w[1].word.len()));
        for step in &steps {
            let (state, output) = m.run_from(0, &step.word).unwrap();
            assert_eq!(state, step.target);
            assert_eq!(output.last(), Some(step.output));
        }
    }
}

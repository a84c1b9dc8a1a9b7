//! Safety-property checking over learned models.
//!
//! §5 lets the user state temporal properties ("packet numbers are always
//! increasing", "an endpoint must not send data on a stream beyond the
//! final size") and checks them against the learned model.  For Mealy
//! machines the check reduces to reachability over the finite model, which
//! is decidable; for extended machines Prognosis falls back to randomized
//! testing.  This module implements the Mealy-machine case for the two
//! property shapes the QUIC experiments need, each with witness traces:
//!
//! * [`SafetyProperty::never_output`] — "no reachable transition ever
//!   produces an output matching *forbidden*";
//! * [`SafetyProperty::never_after`] — "once an output matching *trigger*
//!   has been produced, no later transition produces an output matching
//!   *forbidden*" (e.g. no STREAM data after a CONNECTION_CLOSE).

use prognosis_automata::mealy::{MealyMachine, StateId};
use prognosis_automata::word::InputWord;
use std::collections::{HashSet, VecDeque};

/// A safety property over abstract output symbols.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SafetyProperty {
    /// No reachable transition produces an output containing `forbidden`.
    NeverOutput {
        /// Substring identifying the forbidden output.
        forbidden: String,
    },
    /// After any transition whose output contains `trigger`, no subsequent
    /// transition produces an output containing `forbidden`.
    NeverAfter {
        /// Substring identifying the triggering output.
        trigger: String,
        /// Substring identifying the forbidden output.
        forbidden: String,
    },
}

impl SafetyProperty {
    /// Convenience constructor for [`SafetyProperty::NeverOutput`].
    pub fn never_output(forbidden: impl Into<String>) -> Self {
        SafetyProperty::NeverOutput {
            forbidden: forbidden.into(),
        }
    }

    /// Convenience constructor for [`SafetyProperty::NeverAfter`].
    pub fn never_after(trigger: impl Into<String>, forbidden: impl Into<String>) -> Self {
        SafetyProperty::NeverAfter {
            trigger: trigger.into(),
            forbidden: forbidden.into(),
        }
    }
}

/// The result of checking one property against one model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PropertyCheck {
    /// The property that was checked.
    pub property: SafetyProperty,
    /// Whether the model satisfies it.
    pub holds: bool,
    /// A shortest input word witnessing a violation, when one exists.
    pub witness: Option<InputWord>,
}

/// Shortest input word reaching, from `start`, a transition whose output
/// contains `needle`.  Returns `None` when no such transition is reachable.
fn shortest_word_to_output(
    machine: &MealyMachine,
    start: StateId,
    needle: &str,
) -> Option<InputWord> {
    let mut visited: HashSet<StateId> = HashSet::new();
    let mut queue: VecDeque<(StateId, InputWord)> = VecDeque::new();
    visited.insert(start);
    queue.push_back((start, InputWord::empty()));
    while let Some((q, word)) = queue.pop_front() {
        for symbol in machine.input_alphabet().iter() {
            let (next, out) = machine.step(q, symbol).expect("total machine");
            let next_word = word.append(symbol.clone());
            if out.as_str().contains(needle) {
                return Some(next_word);
            }
            if visited.insert(next) {
                queue.push_back((next, next_word));
            }
        }
    }
    None
}

/// Checks a safety property against a learned model, producing a witness
/// input word for violations.
pub fn check_property(machine: &MealyMachine, property: &SafetyProperty) -> PropertyCheck {
    match property {
        SafetyProperty::NeverOutput { forbidden } => {
            let witness = shortest_word_to_output(machine, machine.initial_state(), forbidden);
            PropertyCheck {
                property: property.clone(),
                holds: witness.is_none(),
                witness,
            }
        }
        SafetyProperty::NeverAfter { trigger, forbidden } => {
            // For every reachable transition producing the trigger, look for
            // a forbidden output reachable from its target state.
            let mut best: Option<InputWord> = None;
            let mut visited: HashSet<StateId> = HashSet::new();
            let mut queue: VecDeque<(StateId, InputWord)> = VecDeque::new();
            visited.insert(machine.initial_state());
            queue.push_back((machine.initial_state(), InputWord::empty()));
            while let Some((q, word)) = queue.pop_front() {
                for symbol in machine.input_alphabet().iter() {
                    let (next, out) = machine.step(q, symbol).expect("total machine");
                    let next_word = word.append(symbol.clone());
                    if out.as_str().contains(trigger) {
                        if let Some(tail) = shortest_word_to_output(machine, next, forbidden) {
                            let witness = next_word.concat(&tail);
                            if best.as_ref().is_none_or(|b| witness.len() < b.len()) {
                                best = Some(witness);
                            }
                        }
                    }
                    if visited.insert(next) {
                        queue.push_back((next, next_word));
                    }
                }
            }
            PropertyCheck {
                property: property.clone(),
                holds: best.is_none(),
                witness: best,
            }
        }
    }
}

/// Checks a list of properties, returning one result per property.
pub fn check_properties(
    machine: &MealyMachine,
    properties: &[SafetyProperty],
) -> Vec<PropertyCheck> {
    properties
        .iter()
        .map(|p| check_property(machine, p))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use prognosis_automata::alphabet::Alphabet;
    use prognosis_automata::mealy::MealyBuilder;

    /// A toy "connection" model: open → established → closed; the buggy
    /// variant keeps serving STREAM data after the close.
    fn connection_model(buggy: bool) -> MealyMachine {
        let inputs = Alphabet::from_symbols(["open", "data", "close"]);
        let mut b = MealyBuilder::new(inputs);
        let idle = b.add_state();
        let established = b.add_state();
        let closed = b.add_state();
        b.add_transition(idle, "open", "ACCEPT", established)
            .unwrap();
        b.add_transition(idle, "data", "{}", idle).unwrap();
        b.add_transition(idle, "close", "{}", idle).unwrap();
        b.add_transition(established, "data", "STREAM", established)
            .unwrap();
        b.add_transition(established, "open", "{}", established)
            .unwrap();
        b.add_transition(established, "close", "CONNECTION_CLOSE", closed)
            .unwrap();
        let after_close_output = if buggy { "STREAM" } else { "{}" };
        b.add_transition(closed, "data", after_close_output, closed)
            .unwrap();
        b.add_transition(closed, "open", "{}", closed).unwrap();
        b.add_transition(closed, "close", "{}", closed).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn never_output_holds_and_fails_appropriately() {
        let m = connection_model(false);
        let ok = check_property(&m, &SafetyProperty::never_output("RESET"));
        assert!(ok.holds);
        assert!(ok.witness.is_none());
        let violated = check_property(&m, &SafetyProperty::never_output("STREAM"));
        assert!(!violated.holds);
        let witness = violated.witness.unwrap();
        // Shortest witness: open, data.
        assert_eq!(witness.len(), 2);
        assert!(m
            .run(&witness)
            .unwrap()
            .iter()
            .any(|o| o.as_str().contains("STREAM")));
    }

    #[test]
    fn never_after_detects_data_after_close() {
        let good = connection_model(false);
        let buggy = connection_model(true);
        let property = SafetyProperty::never_after("CONNECTION_CLOSE", "STREAM");
        assert!(check_property(&good, &property).holds);
        let check = check_property(&buggy, &property);
        assert!(!check.holds);
        let witness = check.witness.unwrap();
        // open, close, data — trigger then forbidden.
        assert_eq!(witness.len(), 3);
        let outputs = buggy.run(&witness).unwrap();
        assert!(outputs
            .iter()
            .any(|o| o.as_str().contains("CONNECTION_CLOSE")));
        assert!(outputs.last().unwrap().as_str().contains("STREAM"));
    }

    #[test]
    fn check_properties_returns_one_result_per_property() {
        let m = connection_model(true);
        let results = check_properties(
            &m,
            &[
                SafetyProperty::never_output("RESET"),
                SafetyProperty::never_after("CONNECTION_CLOSE", "STREAM"),
            ],
        );
        assert_eq!(results.len(), 2);
        assert!(results[0].holds);
        assert!(!results[1].holds);
    }

    #[test]
    fn constructors() {
        assert_eq!(
            SafetyProperty::never_output("X"),
            SafetyProperty::NeverOutput {
                forbidden: "X".to_string()
            }
        );
        assert_eq!(
            SafetyProperty::never_after("A", "B"),
            SafetyProperty::NeverAfter {
                trigger: "A".to_string(),
                forbidden: "B".to_string()
            }
        );
    }
}

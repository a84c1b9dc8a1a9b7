//! Property-based tests for the automata crate: minimization preserves
//! behaviour, equivalence is reflexive/symmetric, characterizing sets really
//! characterize, and DOT export is well-formed for arbitrary machines.

use prognosis_automata::access::{characterizing_set, distinguishes};
use prognosis_automata::dot::to_dot_default;
use prognosis_automata::equivalence::{compare, EquivalenceResult};
use prognosis_automata::known::random_machine;
use prognosis_automata::minimize::minimize;
use prognosis_automata::word::InputWord;
use prognosis_automata::{machines_equivalent, Symbol};
use proptest::prelude::*;

fn machine_params() -> impl Strategy<Value = (usize, usize, usize, u64)> {
    (1usize..12, 1usize..5, 1usize..4, any::<u64>())
}

/// The first word of length 1..=`max_len`, shortest first and then in
/// alphabet-index order, on which `a` and `b` answer differently: the
/// brute-force reference for `compare`'s witness.
fn first_diverging_word(
    a: &prognosis_automata::MealyMachine,
    b: &prognosis_automata::MealyMachine,
    max_len: usize,
) -> Option<InputWord> {
    let symbols = a.input_alphabet().as_slice();
    (1..=max_len)
        .flat_map(|len| {
            (0..symbols.len().pow(len as u32)).map(move |n| {
                (0..len)
                    .rev()
                    .map(|digit| {
                        symbols[n / symbols.len().pow(digit as u32) % symbols.len()].clone()
                    })
                    .collect::<InputWord>()
            })
        })
        .find(|word| a.run(word).unwrap() != b.run(word).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn minimization_preserves_behaviour((states, inputs, outputs, seed) in machine_params(),
                                        word_indices in prop::collection::vec(0usize..5, 0..12)) {
        let m = random_machine(states, inputs, outputs, seed);
        let min = minimize(&m);
        prop_assert!(min.num_states() <= m.num_states());
        prop_assert!(machines_equivalent(&m, &min));
        // Spot-check a concrete word as well (helps when equivalence itself
        // would be the broken piece).
        let word: InputWord = word_indices
            .iter()
            .map(|i| m.input_alphabet().get(i % m.input_alphabet().len()).unwrap().clone())
            .collect::<Vec<Symbol>>()
            .into_iter()
            .collect();
        prop_assert_eq!(m.run(&word).unwrap(), min.run(&word).unwrap());
    }

    #[test]
    fn minimization_is_idempotent((states, inputs, outputs, seed) in machine_params()) {
        let m = random_machine(states, inputs, outputs, seed);
        let once = minimize(&m);
        let twice = minimize(&once);
        prop_assert_eq!(once.num_states(), twice.num_states());
        prop_assert!(machines_equivalent(&once, &twice));
    }

    #[test]
    fn equivalence_is_reflexive_and_symmetric((states, inputs, outputs, seed) in machine_params(),
                                              seed2 in any::<u64>()) {
        let a = random_machine(states, inputs, outputs, seed);
        let b = random_machine(states, inputs, outputs, seed2);
        prop_assert!(machines_equivalent(&a, &a));
        prop_assert_eq!(machines_equivalent(&a, &b), machines_equivalent(&b, &a));
    }

    #[test]
    fn counterexamples_are_genuine((states, inputs, outputs, seed) in machine_params(),
                                   seed2 in any::<u64>()) {
        let a = random_machine(states, inputs, outputs, seed);
        let b = random_machine(states, inputs, outputs, seed2);
        if let EquivalenceResult::Inequivalent(ce) = compare(&a, &b) {
            let oa = a.run(&ce.input).unwrap();
            let ob = b.run(&ce.input).unwrap();
            prop_assert_ne!(oa.clone(), ob.clone());
            prop_assert_eq!(oa, ce.left.output);
            prop_assert_eq!(ob, ce.right.output);
        }
    }

    #[test]
    fn counterexample_is_the_first_diverging_word_in_length_lex_order(
        (left_states, right_states) in (1usize..5, 1usize..5),
        (inputs, outputs) in (1usize..4, 1usize..4),
        (seed, seed2) in (any::<u64>(), any::<u64>()),
    ) {
        let a = random_machine(left_states, inputs, outputs, seed);
        let b = random_machine(right_states, inputs, outputs, seed2);
        match compare(&a, &b) {
            EquivalenceResult::Inequivalent(ce) => {
                prop_assert_eq!(first_diverging_word(&a, &b, ce.input.len()), Some(ce.input));
            }
            EquivalenceResult::Equivalent => {
                // Partition refinement of the two machines' disjoint union
                // settles within n - 1 rounds, so states that differ at all
                // differ on a word of at most n - 1 symbols.
                let bound = left_states + right_states - 1;
                prop_assert_eq!(first_diverging_word(&a, &b, bound), None);
            }
            other => prop_assert!(false, "same alphabets, got {:?}", other),
        }
    }

    #[test]
    fn characterizing_set_separates_minimal_states((states, inputs, outputs, seed) in machine_params()) {
        let m = minimize(&random_machine(states, inputs, outputs, seed));
        let w = characterizing_set(&m);
        prop_assert!(!w.is_empty());
        let ids: Vec<_> = m.states().collect();
        for (i, &a) in ids.iter().enumerate() {
            for &b in ids.iter().skip(i + 1) {
                prop_assert!(w.iter().any(|word| distinguishes(&m, a, b, word)),
                             "minimal machine states {} and {} not distinguished", a, b);
            }
        }
    }

    #[test]
    fn dot_export_is_well_formed((states, inputs, outputs, seed) in machine_params()) {
        let m = random_machine(states, inputs, outputs, seed);
        let dot = to_dot_default(&m);
        prop_assert!(dot.starts_with("digraph"));
        let closed = dot.trim_end().ends_with('}');
        prop_assert!(closed, "DOT output must end with a closing brace");
        prop_assert_eq!(dot.matches("__start ->").count(), 1);
    }

    #[test]
    fn trace_enumeration_agrees_with_run((states, inputs, outputs, seed) in machine_params()) {
        let m = random_machine(states.min(4), inputs.min(3), outputs, seed);
        for t in m.traces_up_to_length(3) {
            prop_assert!(m.accepts_trace(&t));
            prop_assert_eq!(m.run(&t.input).unwrap(), t.output);
        }
    }
}

//! Trace-space reduction statistics (E4, §6.2.2).
//!
//! The paper motivates model learning with a counting argument: the
//! seven-symbol QUIC alphabet admits 329,554,456 input traces of length up
//! to 10, but the traces of the *learned model* that actually need to be
//! inspected number only 1,210 and 715 for the two implementations.  This
//! module reproduces both numbers: the combinatorial trace-space size and
//! the count of behaviourally-informative model traces.

use prognosis_automata::alphabet::{Alphabet, Symbol};
use prognosis_automata::mealy::MealyMachine;

/// The trace-space-reduction summary for one learned model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceReduction {
    /// Trace length bound.
    pub max_length: u32,
    /// Number of input words of length ≤ `max_length` over the alphabet.
    pub alphabet_traces: u128,
    /// Number of behaviourally-informative traces of the learned model
    /// (every step either changes state or produces a non-silent output).
    pub model_traces: u64,
}

impl TraceReduction {
    /// Reduction factor (alphabet traces / model traces).
    pub fn factor(&self) -> f64 {
        if self.model_traces == 0 {
            f64::INFINITY
        } else {
            self.alphabet_traces as f64 / self.model_traces as f64
        }
    }
}

/// Computes the reduction summary for a learned model, treating `silent` as
/// the "nothing happened" output (the `{}` of the QUIC models, `NIL` for TCP).
pub fn trace_reduction(
    alphabet: &Alphabet,
    model: &MealyMachine,
    silent: &Symbol,
    max_length: u32,
) -> TraceReduction {
    TraceReduction {
        max_length,
        alphabet_traces: alphabet.words_up_to_length(max_length),
        model_traces: model.count_behaviour_traces(max_length as usize, silent),
    }
}

/// Counts the model traces in which *every* step is informative — it moves
/// the model to a different state — up to `max_length` steps.  These are the
/// traces a human or a checker actually needs to look at (the paper reports
/// 1,210 and 715 such model traces against the 329M-word trace space):
/// padding a trace with steps that leave the model where it is adds nothing
/// to the behaviours covered.
pub fn informative_paths(model: &MealyMachine, silent: &Symbol, max_length: usize) -> u64 {
    // Memoized on (state, remaining): the count below a state depends only on
    // the state and the residual depth, so the whole computation is
    // O(states × depth × |Σ̂|) regardless of how large the raw trace space is.
    fn go(
        model: &MealyMachine,
        state: usize,
        remaining: usize,
        memo: &mut Vec<Vec<Option<u64>>>,
    ) -> u64 {
        if remaining == 0 {
            return 0;
        }
        if let Some(v) = memo[state][remaining] {
            return v;
        }
        let mut count = 0;
        for symbol in model.input_alphabet().iter() {
            let (next, _) = model.step(state, symbol).expect("total machine");
            // A step is informative when it changes the model's state
            // (whether or not it also produced a visible output).
            if next != state {
                count += 1 + go(model, next, remaining - 1, memo);
            }
        }
        memo[state][remaining] = Some(count);
        count
    }
    // `silent` identifies the output that makes a step uninformative in the
    // trace-space comparison; the path count itself only needs the state
    // graph, so it is unused here but kept for signature symmetry.
    let _ = silent;
    let mut memo = vec![vec![None; max_length + 1]; model.num_states()];
    go(model, model.initial_state(), max_length, &mut memo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prognosis_automata::known;

    #[test]
    fn informative_paths_are_a_small_fraction_of_the_trace_space() {
        let model = known::tcp_handshake_fragment();
        let silent = Symbol::new("NIL");
        let informative = informative_paths(&model, &silent, 10);
        let all = model.input_alphabet().words_up_to_length(10);
        assert!(informative > 0);
        assert!((informative as u128) < all / 10, "{informative} vs {all}");
    }

    #[test]
    fn paper_alphabet_count_is_reproduced() {
        let alphabet: Alphabet = (0..7).map(|i| format!("s{i}")).collect();
        assert_eq!(alphabet.words_up_to_length(10), 329_554_456);
    }

    #[test]
    fn model_traces_are_far_fewer_than_alphabet_traces() {
        let model = known::tcp_handshake_fragment();
        let reduction = trace_reduction(model.input_alphabet(), &model, &Symbol::new("NIL"), 10);
        assert_eq!(reduction.alphabet_traces, 2_046); // 2^1 + ... + 2^10
        assert!(reduction.model_traces < 100);
        assert!(reduction.factor() > 20.0);
        assert_eq!(reduction.max_length, 10);
    }

    #[test]
    fn empty_model_traces_give_infinite_factor() {
        let r = TraceReduction {
            max_length: 5,
            alphabet_traces: 100,
            model_traces: 0,
        };
        assert!(r.factor().is_infinite());
    }
}

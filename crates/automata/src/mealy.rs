//! Mealy machines — the models Prognosis learns (§4.2, Definition 4.1).
//!
//! A Mealy machine is a tuple (S, s₀, Σ̂, Γ̂, T, G) with a finite state set,
//! an initial state, abstract input/output alphabets, a transition function
//! `T : S × Σ̂ → S` and an output function `G : S × Σ̂ → Γ̂`.  Machines built
//! through [`MealyBuilder`] are *total*: every state has a transition for
//! every input symbol, matching the "deterministic and total" models the
//! paper's learner produces.

use crate::alphabet::{Alphabet, Symbol};
use crate::word::{InputWord, IoTrace, OutputWord};
use std::collections::BTreeMap;
use std::fmt;

/// A dense state identifier. State 0 is always the initial state after
/// construction through the builder unless overridden.
pub type StateId = usize;

/// A deterministic, total Mealy machine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MealyMachine {
    input_alphabet: Alphabet,
    output_alphabet: Alphabet,
    initial: StateId,
    num_states: usize,
    /// transitions[state][input index] = (successor, output)
    transitions: Vec<Vec<(StateId, Symbol)>>,
    /// Optional human-readable state names (e.g. access sequences).
    state_names: Vec<String>,
}

/// Errors produced when constructing or querying a Mealy machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MealyError {
    /// A symbol was used that is not part of the input alphabet.
    UnknownInput(Symbol),
    /// A state id outside `0..num_states` was referenced.
    UnknownState(StateId),
    /// The machine is not total: a (state, input) pair has no transition.
    MissingTransition(StateId, Symbol),
    /// The machine has no states.
    Empty,
}

impl fmt::Display for MealyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MealyError::UnknownInput(s) => write!(f, "unknown input symbol {s}"),
            MealyError::UnknownState(q) => write!(f, "unknown state {q}"),
            MealyError::MissingTransition(q, s) => {
                write!(f, "missing transition from state {q} on input {s}")
            }
            MealyError::Empty => write!(f, "machine has no states"),
        }
    }
}

impl std::error::Error for MealyError {}

impl MealyMachine {
    /// The input alphabet Σ̂.
    pub fn input_alphabet(&self) -> &Alphabet {
        &self.input_alphabet
    }

    /// The output alphabet Γ̂ (all outputs that appear on transitions).
    pub fn output_alphabet(&self) -> &Alphabet {
        &self.output_alphabet
    }

    /// The initial state s₀.
    pub fn initial_state(&self) -> StateId {
        self.initial
    }

    /// Number of states |S|.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Number of transitions (|S| × |Σ̂| for a total machine).
    pub fn num_transitions(&self) -> usize {
        self.num_states * self.input_alphabet.len()
    }

    /// Iterates over all state ids.
    pub fn states(&self) -> impl Iterator<Item = StateId> {
        0..self.num_states
    }

    /// The human-readable name of a state (defaults to `s{id}`).
    pub fn state_name(&self, state: StateId) -> &str {
        &self.state_names[state]
    }

    /// Successor state and output for `(state, input)`.
    pub fn step(&self, state: StateId, input: &Symbol) -> Result<(StateId, Symbol), MealyError> {
        if state >= self.num_states {
            return Err(MealyError::UnknownState(state));
        }
        let idx = self
            .input_alphabet
            .index_of(input)
            .ok_or_else(|| MealyError::UnknownInput(input.clone()))?;
        Ok(self.transitions[state][idx].clone())
    }

    /// Successor state for `(state, input)`.
    pub fn successor(&self, state: StateId, input: &Symbol) -> Result<StateId, MealyError> {
        self.step(state, input).map(|(q, _)| q)
    }

    /// Output symbol for `(state, input)`.
    pub fn output(&self, state: StateId, input: &Symbol) -> Result<Symbol, MealyError> {
        self.step(state, input).map(|(_, o)| o)
    }

    /// Runs the machine on an input word from the initial state, returning
    /// the produced output word.
    pub fn run(&self, input: &InputWord) -> Result<OutputWord, MealyError> {
        self.run_from(self.initial, input).map(|(_, o)| o)
    }

    /// Runs the machine from an arbitrary state, returning the reached state
    /// and the produced output word.
    pub fn run_from(
        &self,
        start: StateId,
        input: &InputWord,
    ) -> Result<(StateId, OutputWord), MealyError> {
        let mut state = start;
        let mut out = OutputWord::empty();
        for sym in input.iter() {
            let (next, o) = self.step(state, sym)?;
            out.push(o);
            state = next;
        }
        Ok((state, out))
    }

    /// State reached from the initial state on the given input word.
    pub fn state_after(&self, input: &InputWord) -> Result<StateId, MealyError> {
        self.run_from(self.initial, input).map(|(q, _)| q)
    }

    /// Runs the machine and packages the result as an [`IoTrace`].
    pub fn trace(&self, input: &InputWord) -> Result<IoTrace, MealyError> {
        let output = self.run(input)?;
        Ok(IoTrace::new(input.clone(), output))
    }

    /// Whether this machine produces the given trace.
    pub fn accepts_trace(&self, trace: &IoTrace) -> bool {
        match self.run(&trace.input) {
            Ok(out) => out == trace.output,
            Err(_) => false,
        }
    }

    /// All transitions as `(source, input, output, target)` tuples, ordered
    /// by source state then input index (deterministic iteration order).
    pub fn transitions(&self) -> Vec<(StateId, Symbol, Symbol, StateId)> {
        let mut out = Vec::with_capacity(self.num_transitions());
        for q in self.states() {
            for (idx, sym) in self.input_alphabet.iter().enumerate() {
                let (next, o) = &self.transitions[q][idx];
                out.push((q, sym.clone(), o.clone(), *next));
            }
        }
        out
    }

    /// States reachable from the initial state (always all states for
    /// machines produced by [`MealyMachine::trim`], possibly fewer otherwise).
    pub fn reachable_states(&self) -> Vec<StateId> {
        let mut visited = vec![false; self.num_states];
        let mut stack = vec![self.initial];
        visited[self.initial] = true;
        let mut order = Vec::new();
        while let Some(q) = stack.pop() {
            order.push(q);
            for idx in 0..self.input_alphabet.len() {
                let (next, _) = self.transitions[q][idx];
                if !visited[next] {
                    visited[next] = true;
                    stack.push(next);
                }
            }
        }
        order.sort_unstable();
        order
    }

    /// Returns an equivalent machine containing only reachable states,
    /// renumbered densely (initial state becomes 0).
    pub fn trim(&self) -> MealyMachine {
        let reachable = self.reachable_states();
        let mut remap: BTreeMap<StateId, StateId> = BTreeMap::new();
        // Keep the initial state first so the invariant "initial = 0" holds.
        remap.insert(self.initial, 0);
        let mut next_id = 1;
        for &q in &reachable {
            remap.entry(q).or_insert_with(|| {
                let id = next_id;
                next_id += 1;
                id
            });
        }
        let mut transitions = vec![Vec::new(); remap.len()];
        let mut state_names = vec![String::new(); remap.len()];
        for (&old, &new) in &remap {
            state_names[new] = self.state_names[old].clone();
            transitions[new] = self.transitions[old]
                .iter()
                .map(|(succ, out)| (remap[succ], out.clone()))
                .collect();
        }
        MealyMachine {
            input_alphabet: self.input_alphabet.clone(),
            output_alphabet: self.output_alphabet.clone(),
            initial: 0,
            num_states: remap.len(),
            transitions,
            state_names,
        }
    }

    /// Enumerates all I/O traces of the machine with input length at most
    /// `max_len`, starting from the initial state.
    ///
    /// The number of such traces is exactly the number of input words of
    /// length ≤ `max_len` restricted to the machine's behaviour; the paper
    /// (E4) uses this to contrast the learned-model trace count with the
    /// full trace space of the alphabet.
    pub fn traces_up_to_length(&self, max_len: usize) -> Vec<IoTrace> {
        let mut out = Vec::new();
        let mut frontier: Vec<(StateId, IoTrace)> = vec![(self.initial, IoTrace::empty())];
        for _ in 0..max_len {
            let mut next_frontier = Vec::new();
            for (state, trace) in &frontier {
                for sym in self.input_alphabet.iter() {
                    let (succ, o) = self.step(*state, sym).expect("total machine");
                    let t = IoTrace::new(trace.input.append(sym.clone()), trace.output.append(o));
                    out.push(t.clone());
                    next_frontier.push((succ, t));
                }
            }
            frontier = next_frontier;
        }
        out
    }

    /// Counts distinct *output-labelled* traces of input length ≤ `max_len`
    /// without materializing them.
    ///
    /// For a deterministic machine each input word yields exactly one trace,
    /// so this equals `|Σ̂|^1 + … + |Σ̂|^max_len`; the interesting quantity for
    /// E4 is the number of *distinct observable behaviours*, i.e. traces that
    /// reach distinct states or produce distinct outputs, which the analysis
    /// crate computes via [`MealyMachine::count_behaviour_traces`].
    pub fn count_traces_up_to_length(&self, max_len: u32) -> u128 {
        self.input_alphabet.words_up_to_length(max_len)
    }

    /// Counts traces of input length ≤ `max_len` that are *behaviourally
    /// informative*: traces in which every step either changes state or
    /// produces a non-empty output.  This mirrors the paper's count of model
    /// traces that actually need to be checked (1,210 and 715 for the two
    /// QUIC models) as opposed to the full 329M-trace space.
    pub fn count_behaviour_traces(&self, max_len: usize, silent: &Symbol) -> u64 {
        // Depth-limited DFS over (state, depth); a trace is counted when it
        // ends, and extension is pruned once the machine enters a state from
        // which every input loops back with the silent output (a "sink").
        let sink = self.sink_states(silent);
        let mut count = 0u64;
        let mut stack: Vec<(StateId, usize)> = vec![(self.initial, 0)];
        while let Some((state, depth)) = stack.pop() {
            if depth == max_len {
                continue;
            }
            for sym in self.input_alphabet.iter() {
                let (succ, out) = self.step(state, sym).expect("total machine");
                let informative = succ != state || out != *silent;
                if informative {
                    count += 1;
                }
                if !sink[succ] || informative {
                    stack.push((succ, depth + 1));
                }
            }
        }
        count
    }

    fn sink_states(&self, silent: &Symbol) -> Vec<bool> {
        (0..self.num_states)
            .map(|q| {
                self.input_alphabet.iter().all(|sym| {
                    let (succ, out) = self.step(q, sym).expect("total machine");
                    succ == q && out == *silent
                })
            })
            .collect()
    }
}

/// Incremental builder for [`MealyMachine`].
///
/// States are added explicitly; transitions may be added in any order.  The
/// builder checks totality on [`MealyBuilder::build`].
#[derive(Clone, Debug)]
pub struct MealyBuilder {
    input_alphabet: Alphabet,
    transitions: Vec<BTreeMap<usize, (StateId, Symbol)>>,
    state_names: Vec<String>,
    initial: StateId,
}

impl MealyBuilder {
    /// Creates a builder over the given input alphabet.
    pub fn new(input_alphabet: Alphabet) -> Self {
        MealyBuilder {
            input_alphabet,
            transitions: Vec::new(),
            state_names: Vec::new(),
            initial: 0,
        }
    }

    /// Adds a state with a default name, returning its id.
    pub fn add_state(&mut self) -> StateId {
        let id = self.transitions.len();
        self.transitions.push(BTreeMap::new());
        self.state_names.push(format!("s{id}"));
        id
    }

    /// Adds a state with an explicit name, returning its id.
    pub fn add_named_state(&mut self, name: impl Into<String>) -> StateId {
        let id = self.add_state();
        self.state_names[id] = name.into();
        id
    }

    /// Adds `n` states, returning their ids.
    pub fn add_states(&mut self, n: usize) -> Vec<StateId> {
        (0..n).map(|_| self.add_state()).collect()
    }

    /// Sets the initial state (defaults to 0).
    pub fn set_initial(&mut self, state: StateId) -> &mut Self {
        self.initial = state;
        self
    }

    /// Number of states added so far.
    pub fn num_states(&self) -> usize {
        self.transitions.len()
    }

    /// Adds (or overwrites) the transition `(from, input) → (to, output)`.
    pub fn add_transition(
        &mut self,
        from: StateId,
        input: impl Into<Symbol>,
        output: impl Into<Symbol>,
        to: StateId,
    ) -> Result<&mut Self, MealyError> {
        let input = input.into();
        if from >= self.transitions.len() {
            return Err(MealyError::UnknownState(from));
        }
        if to >= self.transitions.len() {
            return Err(MealyError::UnknownState(to));
        }
        let idx = self
            .input_alphabet
            .index_of(&input)
            .ok_or(MealyError::UnknownInput(input))?;
        self.transitions[from].insert(idx, (to, output.into()));
        Ok(self)
    }

    /// Adds a self-loop with the given output for every input symbol that
    /// does not yet have a transition out of `state`.  Convenient for the
    /// "every other input is ignored" pattern in the appendix models.
    pub fn complete_with_self_loops(&mut self, state: StateId, output: impl Into<Symbol>) {
        let output = output.into();
        for idx in 0..self.input_alphabet.len() {
            self.transitions[state]
                .entry(idx)
                .or_insert((state, output.clone()));
        }
    }

    /// Finalizes the machine, verifying determinism and totality.
    pub fn build(self) -> Result<MealyMachine, MealyError> {
        if self.transitions.is_empty() {
            return Err(MealyError::Empty);
        }
        if self.initial >= self.transitions.len() {
            return Err(MealyError::UnknownState(self.initial));
        }
        let mut dense = Vec::with_capacity(self.transitions.len());
        let mut outputs = Alphabet::new();
        for (state, row) in self.transitions.iter().enumerate() {
            let mut dense_row = Vec::with_capacity(self.input_alphabet.len());
            for (idx, sym) in self.input_alphabet.iter().enumerate() {
                match row.get(&idx) {
                    Some((to, out)) => {
                        outputs.insert(out.clone());
                        dense_row.push((*to, out.clone()));
                    }
                    None => return Err(MealyError::MissingTransition(state, sym.clone())),
                }
            }
            dense.push(dense_row);
        }
        Ok(MealyMachine {
            input_alphabet: self.input_alphabet,
            output_alphabet: outputs,
            initial: self.initial,
            num_states: dense.len(),
            transitions: dense,
            state_names: self.state_names,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The TCP 3-way handshake fragment from Fig. 3(b).
    pub(crate) fn handshake_machine() -> MealyMachine {
        let inputs = Alphabet::from_symbols(["SYN(?,?,0)", "ACK(?,?,0)"]);
        let mut b = MealyBuilder::new(inputs);
        let s0 = b.add_state();
        let s1 = b.add_state();
        let s2 = b.add_state();
        b.add_transition(s0, "SYN(?,?,0)", "ACK+SYN(?,?,0)", s1)
            .unwrap();
        b.add_transition(s0, "ACK(?,?,0)", "RST(?,?,0)", s0)
            .unwrap();
        b.add_transition(s1, "ACK(?,?,0)", "NIL", s2).unwrap();
        b.add_transition(s1, "SYN(?,?,0)", "NIL", s1).unwrap();
        b.complete_with_self_loops(s2, "NIL");
        b.build().unwrap()
    }

    #[test]
    fn builder_produces_total_machine() {
        let m = handshake_machine();
        assert_eq!(m.num_states(), 3);
        assert_eq!(m.num_transitions(), 6);
        assert_eq!(m.initial_state(), 0);
        assert_eq!(m.input_alphabet().len(), 2);
        assert!(m.output_alphabet().contains(&Symbol::new("NIL")));
    }

    #[test]
    fn builder_rejects_partial_machine() {
        let inputs = Alphabet::from_symbols(["a", "b"]);
        let mut b = MealyBuilder::new(inputs);
        let s0 = b.add_state();
        b.add_transition(s0, "a", "x", s0).unwrap();
        let err = b.build().unwrap_err();
        assert!(matches!(err, MealyError::MissingTransition(0, _)));
    }

    #[test]
    fn builder_rejects_unknown_symbols_and_states() {
        let inputs = Alphabet::from_symbols(["a"]);
        let mut b = MealyBuilder::new(inputs);
        let s0 = b.add_state();
        assert!(matches!(
            b.add_transition(s0, "zz", "x", s0),
            Err(MealyError::UnknownInput(_))
        ));
        assert!(matches!(
            b.add_transition(s0, "a", "x", 7),
            Err(MealyError::UnknownState(7))
        ));
        assert!(matches!(
            b.add_transition(9, "a", "x", s0),
            Err(MealyError::UnknownState(9))
        ));
        let empty = MealyBuilder::new(Alphabet::from_symbols(["a"]));
        assert!(matches!(empty.build(), Err(MealyError::Empty)));
    }

    #[test]
    fn run_reproduces_handshake_trace() {
        let m = handshake_machine();
        let input = InputWord::from_symbols(["SYN(?,?,0)", "ACK(?,?,0)"]);
        let out = m.run(&input).unwrap();
        assert_eq!(out, OutputWord::from_symbols(["ACK+SYN(?,?,0)", "NIL"]));
        assert_eq!(m.state_after(&input).unwrap(), 2);
    }

    #[test]
    fn run_from_intermediate_state() {
        let m = handshake_machine();
        let (q, out) = m
            .run_from(1, &InputWord::from_symbols(["ACK(?,?,0)"]))
            .unwrap();
        assert_eq!(q, 2);
        assert_eq!(out, OutputWord::from_symbols(["NIL"]));
    }

    #[test]
    fn step_errors_on_bad_arguments() {
        let m = handshake_machine();
        assert!(matches!(
            m.step(99, &Symbol::new("SYN(?,?,0)")),
            Err(MealyError::UnknownState(99))
        ));
        assert!(matches!(
            m.step(0, &Symbol::new("FIN")),
            Err(MealyError::UnknownInput(_))
        ));
    }

    #[test]
    fn accepts_trace_checks_output_word() {
        let m = handshake_machine();
        let good = IoTrace::new(
            InputWord::from_symbols(["SYN(?,?,0)"]),
            OutputWord::from_symbols(["ACK+SYN(?,?,0)"]),
        );
        let bad = IoTrace::new(
            InputWord::from_symbols(["SYN(?,?,0)"]),
            OutputWord::from_symbols(["NIL"]),
        );
        assert!(m.accepts_trace(&good));
        assert!(!m.accepts_trace(&bad));
    }

    #[test]
    fn trim_removes_unreachable_states() {
        let inputs = Alphabet::from_symbols(["a"]);
        let mut b = MealyBuilder::new(inputs);
        let s0 = b.add_state();
        let s1 = b.add_state();
        let s2 = b.add_state(); // unreachable
        b.add_transition(s0, "a", "x", s1).unwrap();
        b.add_transition(s1, "a", "y", s0).unwrap();
        b.add_transition(s2, "a", "z", s2).unwrap();
        let m = b.build().unwrap();
        assert_eq!(m.num_states(), 3);
        let t = m.trim();
        assert_eq!(t.num_states(), 2);
        assert_eq!(t.initial_state(), 0);
        assert_eq!(
            t.run(&InputWord::from_symbols(["a", "a", "a"])).unwrap(),
            OutputWord::from_symbols(["x", "y", "x"])
        );
    }

    #[test]
    fn traces_up_to_length_enumerates_all_words() {
        let m = handshake_machine();
        let traces = m.traces_up_to_length(2);
        // 2 symbols: 2 traces of length 1 + 4 traces of length 2.
        assert_eq!(traces.len(), 6);
        assert!(traces.iter().all(|t| m.accepts_trace(t)));
        assert_eq!(m.count_traces_up_to_length(2), 6);
    }

    #[test]
    fn behaviour_trace_count_prunes_silent_sinks() {
        let m = handshake_machine();
        let silent = Symbol::new("NIL");
        let n = m.count_behaviour_traces(4, &silent);
        // Far fewer informative traces than the 2^1+..+2^4 = 30 total words.
        assert!(n > 0 && n < 30, "informative traces = {n}");
    }

    #[test]
    fn transitions_listing_is_deterministic() {
        let m = handshake_machine();
        let t1 = m.transitions();
        let t2 = m.transitions();
        assert_eq!(t1, t2);
        assert_eq!(t1.len(), 6);
        assert_eq!(t1[0].0, 0);
    }

    #[test]
    fn state_names_default_and_custom() {
        let inputs = Alphabet::from_symbols(["a"]);
        let mut b = MealyBuilder::new(inputs);
        let s0 = b.add_named_state("closed");
        let s1 = b.add_state();
        b.add_transition(s0, "a", "x", s1).unwrap();
        b.add_transition(s1, "a", "x", s1).unwrap();
        let m = b.build().unwrap();
        assert_eq!(m.state_name(0), "closed");
        assert_eq!(m.state_name(1), "s1");
    }
}

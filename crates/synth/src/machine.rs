//! Extended Mealy machines: Mealy machines with integer registers.
//!
//! A transition of an extended machine (§4.3) reads an abstract symbol with
//! numeric parameters, updates each register with a [`Term`] over the old
//! registers and the input fields, and emits an abstract output symbol whose
//! numeric parameters are themselves terms over the *new* register values is
//! the convention used in the paper's constraint encoding (the output
//! constraints refer to `r[i]` *after* the update); we follow the same
//! convention here.

use crate::term::Term;
use crate::trace::ConcreteTrace;
use prognosis_automata::alphabet::Symbol;
use prognosis_automata::mealy::{MealyMachine, StateId};
use std::fmt;

/// Register updates and output-field terms attached to one transition.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExtendedTransition {
    /// One update term per register; register `j` becomes
    /// `updates[j]` evaluated over the *old* registers and the input fields.
    pub updates: Vec<Term>,
    /// One term per numeric output field, evaluated over the *new* registers
    /// and the input fields.
    pub outputs: Vec<Term>,
}

/// Errors raised when simulating an extended machine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExtendedMachineError {
    /// The underlying Mealy skeleton rejected the input symbol or state.
    Skeleton(String),
    /// A term referenced a register or input field that does not exist.
    BadTerm {
        /// State at which the bad term was evaluated.
        state: StateId,
        /// Input symbol of the offending transition.
        input: Symbol,
        /// The term that failed to evaluate.
        term: Term,
    },
}

impl fmt::Display for ExtendedMachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtendedMachineError::Skeleton(msg) => write!(f, "skeleton error: {msg}"),
            ExtendedMachineError::BadTerm { state, input, term } => {
                write!(
                    f,
                    "term {term} not evaluable at state {state} on input {input}"
                )
            }
        }
    }
}

impl std::error::Error for ExtendedMachineError {}

/// One step of a concrete run of an extended machine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConcreteOutput {
    /// The abstract output symbol.
    pub symbol: Symbol,
    /// The numeric output fields.
    pub fields: Vec<i64>,
    /// Register values after the step.
    pub registers: Vec<i64>,
    /// State reached after the step.
    pub state: StateId,
}

/// A Mealy machine extended with integer registers and numeric I/O fields.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExtendedMealyMachine {
    skeleton: MealyMachine,
    register_names: Vec<String>,
    field_names: Vec<String>,
    initial_registers: Vec<i64>,
    /// `transitions[state][input index]`.
    transitions: Vec<Vec<ExtendedTransition>>,
}

impl ExtendedMealyMachine {
    /// Assembles an extended machine from its parts.
    ///
    /// # Panics
    /// Panics if the transition table shape does not match the skeleton or
    /// if the number of initial register values differs from the number of
    /// register names.
    pub fn new(
        skeleton: MealyMachine,
        register_names: Vec<String>,
        field_names: Vec<String>,
        initial_registers: Vec<i64>,
        transitions: Vec<Vec<ExtendedTransition>>,
    ) -> Self {
        assert_eq!(register_names.len(), initial_registers.len());
        assert_eq!(transitions.len(), skeleton.num_states());
        for row in &transitions {
            assert_eq!(row.len(), skeleton.input_alphabet().len());
            for t in row {
                assert_eq!(t.updates.len(), register_names.len());
            }
        }
        ExtendedMealyMachine {
            skeleton,
            register_names,
            field_names,
            initial_registers,
            transitions,
        }
    }

    /// The underlying Mealy skeleton.
    pub fn skeleton(&self) -> &MealyMachine {
        &self.skeleton
    }

    /// Number of registers.
    pub fn num_registers(&self) -> usize {
        self.register_names.len()
    }

    /// Register names (used for rendering).
    pub fn register_names(&self) -> &[String] {
        &self.register_names
    }

    /// Input-field names (used for rendering).
    pub fn field_names(&self) -> &[String] {
        &self.field_names
    }

    /// Initial register values.
    pub fn initial_registers(&self) -> &[i64] {
        &self.initial_registers
    }

    /// The extended transition annotation for `(state, input)`.
    pub fn transition(&self, state: StateId, input: &Symbol) -> Option<&ExtendedTransition> {
        let idx = self.skeleton.input_alphabet().index_of(input)?;
        self.transitions.get(state)?.get(idx)
    }

    /// Runs the machine on a sequence of `(input symbol, input fields)`
    /// pairs, producing one [`ConcreteOutput`] per step.
    pub fn run_concrete(
        &self,
        inputs: &[(Symbol, Vec<i64>)],
    ) -> Result<Vec<ConcreteOutput>, ExtendedMachineError> {
        let mut state = self.skeleton.initial_state();
        let mut registers = self.initial_registers.clone();
        let mut outputs = Vec::with_capacity(inputs.len());
        for (symbol, fields) in inputs {
            let (next_state, out_symbol) = self
                .skeleton
                .step(state, symbol)
                .map_err(|e| ExtendedMachineError::Skeleton(e.to_string()))?;
            let idx = self
                .skeleton
                .input_alphabet()
                .index_of(symbol)
                .expect("step above validated the symbol");
            let ext = &self.transitions[state][idx];
            // Registers update first (over old registers + input fields)...
            let mut new_registers = Vec::with_capacity(registers.len());
            for term in &ext.updates {
                let v = term
                    .eval(&registers, fields)
                    .ok_or(ExtendedMachineError::BadTerm {
                        state,
                        input: symbol.clone(),
                        term: *term,
                    })?;
                new_registers.push(v);
            }
            // ...then output fields are computed over the *new* registers.
            let mut out_fields = Vec::with_capacity(ext.outputs.len());
            for term in &ext.outputs {
                let v = term
                    .eval(&new_registers, fields)
                    .ok_or(ExtendedMachineError::BadTerm {
                        state,
                        input: symbol.clone(),
                        term: *term,
                    })?;
                out_fields.push(v);
            }
            registers = new_registers;
            state = next_state;
            outputs.push(ConcreteOutput {
                symbol: out_symbol,
                fields: out_fields,
                registers: registers.clone(),
                state,
            });
        }
        Ok(outputs)
    }

    /// Whether the machine reproduces a concrete trace exactly: same abstract
    /// outputs and same numeric output fields at every step.
    ///
    /// Steps whose observed output fields are shorter than the machine's
    /// output arity are compared on the observed prefix only (the Oracle
    /// Table does not always capture every field of every packet).
    pub fn reproduces(&self, trace: &ConcreteTrace) -> bool {
        let inputs: Vec<(Symbol, Vec<i64>)> = trace
            .abstract_trace
            .input
            .iter()
            .cloned()
            .zip(trace.steps.iter().map(|s| s.input_fields.clone()))
            .collect();
        let run = match self.run_concrete(&inputs) {
            Ok(r) => r,
            Err(_) => return false,
        };
        for (i, out) in run.iter().enumerate() {
            if out.symbol != trace.abstract_trace.output[i] {
                return false;
            }
            let expected = &trace.steps[i].output_fields;
            let n = expected.len().min(out.fields.len());
            if out.fields[..n] != expected[..n] {
                return false;
            }
        }
        true
    }

    /// Renders all transitions in the paper's notation, one per line, e.g.
    /// `s0 --SYN(sn,an,0)/ACK(pr,pr+1,0) [r:=pr, pr:=pr, pi:=pi]--> s1`.
    pub fn render(&self) -> String {
        let mut lines = Vec::new();
        for (from, input, output, to) in self.skeleton.transitions() {
            let idx = self.skeleton.input_alphabet().index_of(&input).unwrap();
            let ext = &self.transitions[from][idx];
            let updates: Vec<String> = ext
                .updates
                .iter()
                .enumerate()
                .map(|(j, t)| {
                    format!(
                        "{}:={}",
                        self.register_names
                            .get(j)
                            .cloned()
                            .unwrap_or_else(|| format!("r{j}")),
                        t.render(&self.register_names, &self.field_names)
                    )
                })
                .collect();
            let outs: Vec<String> = ext
                .outputs
                .iter()
                .map(|t| t.render(&self.register_names, &self.field_names))
                .collect();
            lines.push(format!(
                "s{from} --{input}/{output}({}) [{}]--> s{to}",
                outs.join(","),
                updates.join(", ")
            ));
        }
        lines.join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ConcreteStep;
    use prognosis_automata::alphabet::Alphabet;
    use prognosis_automata::mealy::MealyBuilder;
    use prognosis_automata::word::{InputWord, IoTrace, OutputWord};

    /// A tiny "TCP-like" extended machine: on SYN it latches the client
    /// sequence number into register `peer` and answers with (srv, peer+1);
    /// on ACK it leaves registers untouched and outputs nothing.
    fn syn_ack_machine() -> ExtendedMealyMachine {
        let inputs = Alphabet::from_symbols(["SYN", "ACK"]);
        let mut b = MealyBuilder::new(inputs);
        let s0 = b.add_state();
        let s1 = b.add_state();
        b.add_transition(s0, "SYN", "SYN+ACK", s1).unwrap();
        b.add_transition(s0, "ACK", "RST", s0).unwrap();
        b.add_transition(s1, "ACK", "NIL", s1).unwrap();
        b.add_transition(s1, "SYN", "NIL", s1).unwrap();
        let skeleton = b.build().unwrap();
        // registers: [srv, peer]; input fields: [seq, ack]
        let latch = ExtendedTransition {
            updates: vec![Term::Register(0), Term::InputField(0)],
            outputs: vec![Term::Register(0), Term::RegisterPlusOne(1)],
        };
        let keep_silent = ExtendedTransition {
            updates: vec![Term::Register(0), Term::Register(1)],
            outputs: vec![],
        };
        let rst = ExtendedTransition {
            updates: vec![Term::Register(0), Term::Register(1)],
            outputs: vec![Term::Const(0), Term::InputFieldPlusOne(0)],
        };
        ExtendedMealyMachine::new(
            skeleton,
            vec!["srv".to_string(), "peer".to_string()],
            vec!["seq".to_string(), "ack".to_string()],
            vec![1000, 0],
            vec![vec![latch, rst], vec![keep_silent.clone(), keep_silent]],
        )
    }

    #[test]
    fn run_concrete_simulates_registers_and_outputs() {
        let m = syn_ack_machine();
        let run = m
            .run_concrete(&[
                (Symbol::new("SYN"), vec![42, 0]),
                (Symbol::new("ACK"), vec![43, 1001]),
            ])
            .unwrap();
        assert_eq!(run[0].symbol.as_str(), "SYN+ACK");
        assert_eq!(run[0].fields, vec![1000, 43]); // (srv, peer+1)
        assert_eq!(run[0].registers, vec![1000, 42]);
        assert_eq!(run[0].state, 1);
        assert_eq!(run[1].symbol.as_str(), "NIL");
        assert!(run[1].fields.is_empty());
        assert_eq!(run[1].registers, vec![1000, 42]);
    }

    #[test]
    fn reproduces_checks_fields_and_symbols() {
        let m = syn_ack_machine();
        let good = ConcreteTrace::new(
            IoTrace::new(
                InputWord::from_symbols(["SYN", "ACK"]),
                OutputWord::from_symbols(["SYN+ACK", "NIL"]),
            ),
            vec![
                ConcreteStep::new(vec![42, 0], vec![1000, 43]),
                ConcreteStep::new(vec![43, 1001], vec![]),
            ],
        );
        assert!(m.reproduces(&good));

        let wrong_fields = ConcreteTrace::new(
            good.abstract_trace.clone(),
            vec![
                ConcreteStep::new(vec![42, 0], vec![1000, 999]),
                ConcreteStep::new(vec![43, 1001], vec![]),
            ],
        );
        assert!(!m.reproduces(&wrong_fields));

        let wrong_symbol = ConcreteTrace::new(
            IoTrace::new(
                InputWord::from_symbols(["SYN", "ACK"]),
                OutputWord::from_symbols(["RST", "NIL"]),
            ),
            good.steps.clone(),
        );
        assert!(!m.reproduces(&wrong_symbol));
    }

    #[test]
    fn unknown_symbol_fails_gracefully() {
        let m = syn_ack_machine();
        let err = m.run_concrete(&[(Symbol::new("FIN"), vec![])]).unwrap_err();
        assert!(matches!(err, ExtendedMachineError::Skeleton(_)));
        assert!(err.to_string().contains("skeleton"));
    }

    #[test]
    fn bad_term_is_reported() {
        let inputs = Alphabet::from_symbols(["a"]);
        let mut b = MealyBuilder::new(inputs);
        let s0 = b.add_state();
        b.add_transition(s0, "a", "x", s0).unwrap();
        let skeleton = b.build().unwrap();
        let t = ExtendedTransition {
            updates: vec![Term::InputField(3)], // field 3 never provided
            outputs: vec![],
        };
        let m = ExtendedMealyMachine::new(
            skeleton,
            vec!["r".to_string()],
            vec![],
            vec![0],
            vec![vec![t]],
        );
        let err = m.run_concrete(&[(Symbol::new("a"), vec![1])]).unwrap_err();
        assert!(matches!(err, ExtendedMachineError::BadTerm { .. }));
    }

    #[test]
    fn render_lists_updates_and_outputs() {
        let m = syn_ack_machine();
        let rendered = m.render();
        assert!(rendered.contains("peer:=seq"));
        assert!(rendered.contains("SYN+ACK(srv,peer+1)"));
        assert!(rendered.lines().count() == 4);
    }

    #[test]
    fn accessors() {
        let m = syn_ack_machine();
        assert_eq!(m.num_registers(), 2);
        assert_eq!(m.register_names(), &["srv".to_string(), "peer".to_string()]);
        assert_eq!(m.field_names(), &["seq".to_string(), "ack".to_string()]);
        assert_eq!(m.initial_registers(), &[1000, 0]);
        assert!(m.transition(0, &Symbol::new("SYN")).is_some());
        assert!(m.transition(0, &Symbol::new("nope")).is_none());
        assert_eq!(m.skeleton().num_states(), 2);
    }
}

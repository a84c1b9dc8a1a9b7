//! The outer synthesis loop.
//!
//! [`Synthesizer`] takes a learned Mealy skeleton, a term domain and the
//! Oracle-Table traces, runs the constraint solver and assembles a complete
//! [`ExtendedMealyMachine`]:
//!
//! * transitions exercised by at least one trace receive the solved update
//!   terms and the first surviving output candidate per field;
//! * transitions never exercised default to the identity update (`rⱼ := rⱼ`)
//!   and are flagged in the [`SynthesisReport`] so the user knows the model
//!   is silent about them (the paper re-queries the SUL for more traces in
//!   that case — [`Synthesizer::synthesize_with_refinement`] implements that
//!   loop given a trace provider).
//!
//! The report also exposes the *surviving candidate sets* per output field,
//! which is how the Issue-4 analysis concludes that Google QUIC's
//! `Maximum Stream Data` field "always has the value 0 and is never updated".

use crate::machine::{ExtendedMealyMachine, ExtendedTransition};
use crate::solver::{Solution, Solver, SolverConfig, SolverError, TransitionKey};
use crate::term::{Term, TermDomain};
use crate::trace::ConcreteTrace;
use prognosis_automata::mealy::MealyMachine;
use std::collections::BTreeMap;

/// Per-transition synthesis findings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransitionFinding {
    /// Source state and input-symbol index.
    pub key: TransitionKey,
    /// Whether any trace exercised this transition.
    pub exercised: bool,
    /// Update terms chosen (identity defaults when not exercised).
    pub updates: Vec<Term>,
    /// Representative output terms (empty when not exercised or the
    /// transition produces no numeric fields).
    pub outputs: Vec<Term>,
    /// Surviving candidate set per output field.
    pub output_candidates: Vec<Vec<Term>>,
}

impl TransitionFinding {
    /// Output fields that can only be explained by constants — the Issue-4
    /// signature.  Returns `(field index, constant value)` pairs.
    pub fn constant_only_fields(&self) -> Vec<(usize, i64)> {
        self.output_candidates
            .iter()
            .enumerate()
            .filter_map(|(i, set)| {
                if set.is_empty() || !set.iter().all(|t| t.is_constant()) {
                    return None;
                }
                match set[0] {
                    Term::Const(c) => Some((i, c)),
                    _ => None,
                }
            })
            .collect()
    }
}

/// Summary of a synthesis run.
#[derive(Clone, Debug, Default)]
pub struct SynthesisReport {
    /// Findings per transition of the skeleton (in transition order).
    pub findings: Vec<TransitionFinding>,
    /// Number of traces used.
    pub traces_used: usize,
    /// Number of negative traces used.
    pub negative_traces_used: usize,
    /// DFS nodes the solver explored.
    pub solver_nodes: u64,
    /// Refinement rounds performed (0 when the first solve validated).
    pub refinement_rounds: usize,
}

impl SynthesisReport {
    /// Transitions that no trace exercised.
    pub fn unexercised(&self) -> Vec<TransitionKey> {
        self.findings
            .iter()
            .filter(|f| !f.exercised)
            .map(|f| f.key)
            .collect()
    }

    /// All `(transition, field, constant)` triples where a numeric output
    /// field can only be explained by a constant.
    pub fn constant_only_outputs(&self) -> Vec<(TransitionKey, usize, i64)> {
        self.findings
            .iter()
            .flat_map(|f| {
                f.constant_only_fields()
                    .into_iter()
                    .map(move |(idx, c)| (f.key, idx, c))
            })
            .collect()
    }
}

/// The result of a synthesis run: the machine plus its report.
#[derive(Clone, Debug)]
pub struct SynthesisOutcome {
    /// The synthesized extended Mealy machine.
    pub machine: ExtendedMealyMachine,
    /// Findings and statistics.
    pub report: SynthesisReport,
}

/// Configures and runs extended-machine synthesis.
#[derive(Clone, Debug)]
pub struct Synthesizer {
    domain: TermDomain,
    register_names: Vec<String>,
    field_names: Vec<String>,
    initial_registers: Vec<i64>,
}

impl Synthesizer {
    /// Creates a synthesizer.
    ///
    /// # Panics
    /// Panics when the register-name count does not match the domain or the
    /// initial valuation.
    pub fn new(
        domain: TermDomain,
        register_names: Vec<String>,
        field_names: Vec<String>,
        initial_registers: Vec<i64>,
    ) -> Self {
        assert_eq!(domain.num_registers, register_names.len());
        assert_eq!(domain.num_registers, initial_registers.len());
        Synthesizer {
            domain,
            register_names,
            field_names,
            initial_registers,
        }
    }

    /// Runs synthesis once over the given positive/negative traces.
    pub fn synthesize(
        &self,
        skeleton: &MealyMachine,
        positives: &[ConcreteTrace],
        negatives: &[ConcreteTrace],
    ) -> Result<SynthesisOutcome, SolverError> {
        let solver = Solver::new(
            skeleton,
            &self.domain,
            self.initial_registers.clone(),
            SolverConfig::default(),
        );
        let solution = solver.solve(positives, negatives)?;
        Ok(self.assemble(skeleton, &solution, positives.len(), negatives.len(), 0))
    }

    /// The refinement loop of §4.3: synthesize, validate against traces from
    /// `provider`, and if validation fails add the failing traces (as new
    /// positives) and retry, up to `max_rounds` times.
    ///
    /// `provider(round)` returns additional concrete traces obtained from the
    /// SUL (e.g. by random walks through the Adapter).
    pub fn synthesize_with_refinement(
        &self,
        skeleton: &MealyMachine,
        mut positives: Vec<ConcreteTrace>,
        mut provider: impl FnMut(usize) -> Vec<ConcreteTrace>,
        max_rounds: usize,
    ) -> Result<SynthesisOutcome, SolverError> {
        let mut rounds = 0;
        loop {
            let solver = Solver::new(
                skeleton,
                &self.domain,
                self.initial_registers.clone(),
                SolverConfig::default(),
            );
            let solution = solver.solve(&positives, &[])?;
            let outcome = self.assemble(skeleton, &solution, positives.len(), 0, rounds);
            if rounds >= max_rounds {
                return Ok(outcome);
            }
            let fresh = provider(rounds);
            let failing: Vec<ConcreteTrace> = fresh
                .into_iter()
                .filter(|t| !outcome.machine.reproduces(t))
                .collect();
            if failing.is_empty() {
                return Ok(outcome);
            }
            positives.extend(failing);
            rounds += 1;
        }
    }

    fn assemble(
        &self,
        skeleton: &MealyMachine,
        solution: &Solution,
        traces_used: usize,
        negative_traces_used: usize,
        refinement_rounds: usize,
    ) -> SynthesisOutcome {
        let identity_updates: Vec<Term> =
            (0..self.domain.num_registers).map(Term::Register).collect();
        let mut table: Vec<Vec<ExtendedTransition>> = Vec::with_capacity(skeleton.num_states());
        let mut findings = Vec::new();
        for state in skeleton.states() {
            let mut row = Vec::with_capacity(skeleton.input_alphabet().len());
            for (in_idx, _sym) in skeleton.input_alphabet().iter().enumerate() {
                let key = (state, in_idx);
                let exercised = solution.updates.contains_key(&key)
                    || solution.output_candidates.contains_key(&key);
                let updates = solution
                    .updates
                    .get(&key)
                    .cloned()
                    .unwrap_or_else(|| identity_updates.clone());
                let output_candidates: Vec<Vec<Term>> = solution
                    .output_candidates
                    .get(&key)
                    .cloned()
                    .unwrap_or_default();
                let outputs: Vec<Term> = output_candidates
                    .iter()
                    .map(|set| {
                        *set.first()
                            .expect("solver never leaves an empty candidate set")
                    })
                    .collect();
                findings.push(TransitionFinding {
                    key,
                    exercised,
                    updates: updates.clone(),
                    outputs: outputs.clone(),
                    output_candidates,
                });
                row.push(ExtendedTransition { updates, outputs });
            }
            table.push(row);
        }
        let machine = ExtendedMealyMachine::new(
            skeleton.clone(),
            self.register_names.clone(),
            self.field_names.clone(),
            self.initial_registers.clone(),
            table,
        );
        SynthesisOutcome {
            machine,
            report: SynthesisReport {
                findings,
                traces_used,
                negative_traces_used,
                solver_nodes: solution.nodes_explored,
                refinement_rounds,
            },
        }
    }
}

/// Convenience: derive per-transition output-candidate table grouped by the
/// abstract input symbol name, used by reports and experiments.
pub fn candidates_by_symbol(
    skeleton: &MealyMachine,
    report: &SynthesisReport,
) -> BTreeMap<String, Vec<Vec<Term>>> {
    let mut out = BTreeMap::new();
    for finding in &report.findings {
        if !finding.exercised || finding.output_candidates.is_empty() {
            continue;
        }
        let symbol = skeleton
            .input_alphabet()
            .get(finding.key.1)
            .map(|s| s.to_string())
            .unwrap_or_default();
        out.entry(symbol)
            .or_insert_with(|| finding.output_candidates.clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ConcreteStep;
    use prognosis_automata::alphabet::{Alphabet, Symbol};
    use prognosis_automata::mealy::MealyBuilder;
    use prognosis_automata::word::{InputWord, IoTrace, OutputWord};

    fn latch_skeleton() -> MealyMachine {
        let inputs = Alphabet::from_symbols(["put", "get"]);
        let mut b = MealyBuilder::new(inputs);
        let s0 = b.add_state();
        b.add_transition(s0, "put", "ok", s0).unwrap();
        b.add_transition(s0, "get", "val", s0).unwrap();
        b.build().unwrap()
    }

    fn trace(steps: Vec<(&str, Vec<i64>, &str, Vec<i64>)>) -> ConcreteTrace {
        let input = InputWord::from_symbols(steps.iter().map(|(i, _, _, _)| *i));
        let output = OutputWord::from_symbols(steps.iter().map(|(_, _, o, _)| *o));
        let concrete = steps
            .into_iter()
            .map(|(_, i, _, o)| ConcreteStep::new(i, o))
            .collect();
        ConcreteTrace::new(IoTrace::new(input, output), concrete)
    }

    fn latch_traces() -> Vec<ConcreteTrace> {
        vec![
            trace(vec![
                ("put", vec![41], "ok", vec![]),
                ("get", vec![0], "val", vec![41]),
            ]),
            trace(vec![
                ("put", vec![7], "ok", vec![]),
                ("get", vec![0], "val", vec![7]),
                ("get", vec![0], "val", vec![7]),
            ]),
        ]
    }

    fn synthesizer() -> Synthesizer {
        Synthesizer::new(
            TermDomain::new(1, 1),
            vec!["r0".to_string()],
            vec!["v".to_string()],
            vec![0],
        )
    }

    #[test]
    fn synthesizes_a_latch_register_machine() {
        let skeleton = latch_skeleton();
        let outcome = synthesizer()
            .synthesize(&skeleton, &latch_traces(), &[])
            .unwrap();
        // The machine must reproduce a fresh latch trace with new values.
        let fresh = trace(vec![
            ("put", vec![123], "ok", vec![]),
            ("get", vec![0], "val", vec![123]),
        ]);
        assert!(outcome.machine.reproduces(&fresh));
        assert_eq!(outcome.report.traces_used, 2);
        assert!(outcome.report.solver_nodes > 0);
        assert!(outcome.report.unexercised().is_empty());
        let rendered = outcome.machine.render();
        assert!(
            rendered.contains("r0:=v"),
            "expected latch update in: {rendered}"
        );
    }

    #[test]
    fn unexercised_transitions_are_reported() {
        let skeleton = latch_skeleton();
        let only_put = vec![trace(vec![("put", vec![3], "ok", vec![])])];
        let outcome = synthesizer().synthesize(&skeleton, &only_put, &[]).unwrap();
        let unexercised = outcome.report.unexercised();
        assert_eq!(unexercised, vec![(0, 1)]); // the `get` transition
                                               // Unexercised transitions default to identity updates.
        let finding = outcome
            .report
            .findings
            .iter()
            .find(|f| f.key == (0, 1))
            .unwrap();
        assert_eq!(finding.updates, vec![Term::Register(0)]);
        assert!(finding.outputs.is_empty());
    }

    #[test]
    fn constant_only_outputs_detection() {
        let inputs = Alphabet::from_symbols(["STREAM"]);
        let mut b = MealyBuilder::new(inputs);
        let s0 = b.add_state();
        b.add_transition(s0, "STREAM", "BLOCKED", s0).unwrap();
        let skeleton = b.build().unwrap();
        let synth = Synthesizer::new(
            TermDomain::new(1, 1),
            vec!["max_stream_data".to_string()],
            vec!["offset".to_string()],
            vec![500],
        );
        let traces = vec![trace(vec![
            ("STREAM", vec![100], "BLOCKED", vec![0]),
            ("STREAM", vec![200], "BLOCKED", vec![0]),
        ])];
        let outcome = synth.synthesize(&skeleton, &traces, &[]).unwrap();
        let constants = outcome.report.constant_only_outputs();
        assert_eq!(constants, vec![((0, 0), 0, 0)]);
        let by_symbol = candidates_by_symbol(&skeleton, &outcome.report);
        assert!(by_symbol.contains_key("STREAM"));
    }

    #[test]
    fn refinement_adds_traces_until_validation_passes() {
        let skeleton = latch_skeleton();
        // Start with an ambiguous single trace (input value equals the
        // initial register value), then let the provider supply a
        // disambiguating trace in round 0.
        let ambiguous = vec![trace(vec![
            ("put", vec![0], "ok", vec![]),
            ("get", vec![0], "val", vec![0]),
        ])];
        let disambiguating = trace(vec![
            ("put", vec![55], "ok", vec![]),
            ("get", vec![0], "val", vec![55]),
        ]);
        let provider_trace = disambiguating.clone();
        let outcome = synthesizer()
            .synthesize_with_refinement(
                &skeleton,
                ambiguous,
                move |_round| vec![provider_trace.clone()],
                3,
            )
            .unwrap();
        assert!(outcome.machine.reproduces(&disambiguating));
        assert!(outcome.report.refinement_rounds <= 3);
    }

    #[test]
    fn synthesized_machine_runs_concretely() {
        let skeleton = latch_skeleton();
        let outcome = synthesizer()
            .synthesize(&skeleton, &latch_traces(), &[])
            .unwrap();
        let run = outcome
            .machine
            .run_concrete(&[(Symbol::new("put"), vec![9]), (Symbol::new("get"), vec![0])])
            .unwrap();
        assert_eq!(run[1].fields, vec![9]);
    }

    #[test]
    #[should_panic]
    fn synthesizer_rejects_mismatched_register_names() {
        let _ = Synthesizer::new(
            TermDomain::new(2, 1),
            vec!["only_one".to_string()],
            vec![],
            vec![0, 0],
        );
    }
}

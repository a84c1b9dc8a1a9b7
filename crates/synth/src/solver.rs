//! The finite-domain constraint solver (the Z3 substitute).
//!
//! The synthesis problem of §4.3 asks for one update term per
//! (transition, register) pair and one output term per
//! (transition, output field) pair such that replaying every Oracle-Table
//! trace through the Mealy skeleton with those terms reproduces the observed
//! numeric fields.  The paper encodes the problem as SMT constraints with an
//! integer choice variable per unknown and hands it to Z3.
//!
//! Because each unknown ranges over a small finite candidate list and every
//! constraint is an equality over values that become concrete once the
//! update terms of *earlier* steps are fixed, the problem is solvable by
//! depth-first search over update-term choices with forward propagation for
//! the output unknowns:
//!
//! * **update unknowns** determine future register values, so the solver
//!   branches over their candidates (in domain order) and backtracks on the
//!   first trace step that cannot be explained;
//! * **output unknowns** never influence future steps, so instead of
//!   branching the solver keeps, per unknown, the *set* of candidates
//!   consistent with every observation so far and fails when a set empties.
//!
//! The surviving candidate sets are part of the result: the Issue-4 analysis
//! ("Maximum Stream Data is always the constant 0") is precisely the
//! observation that a field's surviving candidates contain only constants.

use crate::term::{Term, TermDomain};
use crate::trace::ConcreteTrace;
use prognosis_automata::mealy::{MealyMachine, StateId};
use std::collections::BTreeMap;
use std::fmt;

/// Identifies a transition of the skeleton: (source state, input-symbol index).
pub type TransitionKey = (StateId, usize);

/// Configuration for the solver.
#[derive(Clone, Copy, Debug)]
pub struct SolverConfig {
    /// Upper bound on DFS nodes explored before giving up.
    pub max_nodes: u64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            max_nodes: 2_000_000,
        }
    }
}

/// Errors produced by the solver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolverError {
    /// No assignment of terms explains the provided traces.
    NoSolution,
    /// The search budget was exhausted before a solution was found.
    BudgetExhausted,
    /// A trace is inconsistent with the Mealy skeleton (wrong abstract
    /// output), so it cannot constrain the numeric terms.
    InconsistentTrace(String),
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::NoSolution => write!(f, "no term assignment explains the traces"),
            SolverError::BudgetExhausted => write!(f, "solver budget exhausted"),
            SolverError::InconsistentTrace(msg) => {
                write!(f, "trace inconsistent with the Mealy skeleton: {msg}")
            }
        }
    }
}

impl std::error::Error for SolverError {}

/// A satisfying assignment.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Solution {
    /// Update terms per exercised transition (one term per register).
    pub updates: BTreeMap<TransitionKey, Vec<Term>>,
    /// Surviving output-term candidates per exercised transition and output
    /// field index, in domain preference order.
    pub output_candidates: BTreeMap<TransitionKey, Vec<Vec<Term>>>,
    /// DFS nodes explored (for statistics / benchmarks).
    pub nodes_explored: u64,
}

impl Solution {
    /// The representative output terms for a transition: the first surviving
    /// candidate of each field.
    pub fn representative_outputs(&self, key: &TransitionKey) -> Option<Vec<Term>> {
        self.output_candidates.get(key).map(|fields| {
            fields
                .iter()
                .map(|c| *c.first().expect("non-empty candidate set"))
                .collect()
        })
    }
}

/// One pre-processed step of a positive trace.
#[derive(Clone, Debug)]
struct Step {
    key: TransitionKey,
    input_fields: Vec<i64>,
    output_fields: Vec<i64>,
    /// Whether this is the first step of its trace (registers reset here).
    first: bool,
}

/// The constraint solver.
pub struct Solver<'a> {
    skeleton: &'a MealyMachine,
    domain: &'a TermDomain,
    initial_registers: Vec<i64>,
    config: SolverConfig,
}

impl<'a> Solver<'a> {
    /// Creates a solver for the given skeleton, term domain and initial
    /// register valuation.
    pub fn new(
        skeleton: &'a MealyMachine,
        domain: &'a TermDomain,
        initial_registers: Vec<i64>,
        config: SolverConfig,
    ) -> Self {
        assert_eq!(
            initial_registers.len(),
            domain.num_registers,
            "initial register valuation must match the domain's register count"
        );
        Solver {
            skeleton,
            domain,
            initial_registers,
            config,
        }
    }

    /// Flattens the positive traces into a step list, validating each trace
    /// against the skeleton's abstract behaviour.
    fn preprocess(&self, positives: &[ConcreteTrace]) -> Result<Vec<Step>, SolverError> {
        let mut steps = Vec::new();
        for (t_idx, trace) in positives.iter().enumerate() {
            let mut state = self.skeleton.initial_state();
            for (i, ((input, output), concrete)) in trace
                .abstract_trace
                .steps()
                .zip(trace.steps.iter())
                .enumerate()
            {
                let (next, expected_out) = self.skeleton.step(state, input).map_err(|e| {
                    SolverError::InconsistentTrace(format!("trace {t_idx} step {i}: {e}"))
                })?;
                if expected_out != *output {
                    return Err(SolverError::InconsistentTrace(format!(
                        "trace {t_idx} step {i}: skeleton outputs {expected_out}, trace says {output}"
                    )));
                }
                let in_idx = self
                    .skeleton
                    .input_alphabet()
                    .index_of(input)
                    .expect("step above validated the symbol");
                steps.push(Step {
                    key: (state, in_idx),
                    input_fields: concrete.input_fields.clone(),
                    output_fields: concrete.output_fields.clone(),
                    first: i == 0,
                });
                state = next;
            }
        }
        Ok(steps)
    }

    /// Solves for the positive traces; `negatives` are traces the resulting
    /// term assignment must *not* reproduce exactly (used by the refinement
    /// loop when random testing finds a behaviour the synthesized machine
    /// wrongly exhibits).
    pub fn solve(
        &self,
        positives: &[ConcreteTrace],
        negatives: &[ConcreteTrace],
    ) -> Result<Solution, SolverError> {
        let steps = self.preprocess(positives)?;
        let candidates = self.domain.candidates();
        let mut search = Search {
            solver: self,
            steps: &steps,
            candidates: &candidates,
            updates: BTreeMap::new(),
            output_candidates: BTreeMap::new(),
            nodes: 0,
            budget_hit: false,
        };
        let found = search.run(negatives, positives);
        if found {
            Ok(Solution {
                updates: search.updates,
                output_candidates: search.output_candidates,
                nodes_explored: search.nodes,
            })
        } else if search.budget_hit {
            Err(SolverError::BudgetExhausted)
        } else {
            Err(SolverError::NoSolution)
        }
    }

    /// Builds the candidate output sets for negatives checking and the final
    /// machine assembly in [`crate::synthesis`].
    pub(crate) fn initial_registers(&self) -> &[i64] {
        &self.initial_registers
    }
}

struct Search<'s, 'a> {
    solver: &'s Solver<'a>,
    steps: &'s [Step],
    candidates: &'s [Term],
    updates: BTreeMap<TransitionKey, Vec<Term>>,
    output_candidates: BTreeMap<TransitionKey, Vec<Vec<Term>>>,
    nodes: u64,
    budget_hit: bool,
}

/// The next move of the depth-first search.
enum Action {
    /// Visit step `pos` with the registers left by the previous step: one
    /// search node.
    Visit { pos: usize, registers: Vec<i64> },
    /// Extend the update terms `chosen` so far for step `pos`'s transition
    /// by one register, or try them once every register has a term.
    Choose {
        pos: usize,
        registers: Vec<i64>,
        chosen: Vec<Term>,
    },
    /// Hand the outcome of the move above to the frame on top of the stack.
    Return(bool),
}

/// A move waiting on the outcome of the move it started.
enum Frame {
    /// A choice of update term for one register: on failure, try the
    /// candidates from index `next` on.
    Branch {
        pos: usize,
        registers: Vec<i64>,
        chosen: Vec<Term>,
        next: usize,
    },
    /// On failure, forget the update terms fixed for a transition.
    UndoUpdate(TransitionKey),
    /// On failure, restore a transition's output candidate sets.
    UndoOutputs {
        key: TransitionKey,
        previous: Option<Vec<Vec<Term>>>,
    },
}

impl<'s, 'a> Search<'s, 'a> {
    /// Depth-first search over steps.  Returns `true` when all steps (and
    /// the negative-trace check) are satisfied.
    ///
    /// The search keeps its frames on an explicit stack, so its depth —
    /// one frame per step of *all* positive traces, plus one per register
    /// being branched on — is bounded by memory, not by the thread's stack.
    fn run(&mut self, negatives: &[ConcreteTrace], positives: &[ConcreteTrace]) -> bool {
        let mut stack = Vec::new();
        let mut action = Action::Visit {
            pos: 0,
            registers: self.solver.initial_registers.clone(),
        };
        loop {
            action = match action {
                Action::Visit { pos, registers } => {
                    self.visit(pos, registers, &mut stack, negatives, positives)
                }
                Action::Choose {
                    pos,
                    registers,
                    chosen,
                } => self.choose(pos, registers, chosen, &mut stack),
                Action::Return(found) => match stack.pop() {
                    None => return found,
                    Some(Frame::Branch {
                        pos,
                        registers,
                        chosen,
                        next,
                    }) => {
                        if found || self.budget_hit {
                            Action::Return(found)
                        } else {
                            self.next_candidate(pos, registers, chosen, next, &mut stack)
                        }
                    }
                    Some(Frame::UndoUpdate(key)) => {
                        if !found {
                            self.updates.remove(&key);
                        }
                        Action::Return(found)
                    }
                    Some(Frame::UndoOutputs { key, previous }) => {
                        if !found {
                            match previous {
                                Some(p) => {
                                    self.output_candidates.insert(key, p);
                                }
                                None => {
                                    self.output_candidates.remove(&key);
                                }
                            }
                        }
                        Action::Return(found)
                    }
                },
            };
        }
    }

    fn visit(
        &mut self,
        pos: usize,
        registers: Vec<i64>,
        stack: &mut Vec<Frame>,
        negatives: &[ConcreteTrace],
        positives: &[ConcreteTrace],
    ) -> Action {
        self.nodes += 1;
        if self.nodes > self.solver.config.max_nodes {
            self.budget_hit = true;
            return Action::Return(false);
        }
        if pos == self.steps.len() {
            return Action::Return(self.negatives_ok(negatives, positives));
        }
        let step = &self.steps[pos];
        let registers = if step.first {
            self.solver.initial_registers().to_vec()
        } else {
            registers
        };
        let fixed = self
            .updates
            .get(&step.key)
            .map(|terms| self.apply_updates(terms, &registers, &step.input_fields));
        match fixed {
            // Updates already fixed for this transition: propagate.
            Some(Some(new_regs)) => self.check_outputs(pos, new_regs, stack),
            Some(None) => Action::Return(false),
            // Branch over update-term vectors, one register at a time.
            None => Action::Choose {
                pos,
                registers,
                chosen: Vec::new(),
            },
        }
    }

    fn choose(
        &mut self,
        pos: usize,
        registers: Vec<i64>,
        chosen: Vec<Term>,
        stack: &mut Vec<Frame>,
    ) -> Action {
        if chosen.len() < self.solver.domain.num_registers {
            return self.next_candidate(pos, registers, chosen, 0, stack);
        }
        let step = &self.steps[pos];
        match self.apply_updates(&chosen, &registers, &step.input_fields) {
            Some(new_regs) => {
                self.updates.insert(step.key, chosen);
                stack.push(Frame::UndoUpdate(step.key));
                self.check_outputs(pos, new_regs, stack)
            }
            None => Action::Return(false),
        }
    }

    /// Tries the candidate terms from index `from` on for the next register
    /// of `chosen`; fails once they are exhausted.
    fn next_candidate(
        &mut self,
        pos: usize,
        registers: Vec<i64>,
        chosen: Vec<Term>,
        from: usize,
        stack: &mut Vec<Frame>,
    ) -> Action {
        let step = &self.steps[pos];
        for (i, &term) in self.candidates.iter().enumerate().skip(from) {
            // Skip terms that cannot evaluate in this context at all.
            if term.eval(&registers, &step.input_fields).is_none() {
                continue;
            }
            let mut next = chosen.clone();
            next.push(term);
            let child_registers = registers.clone();
            stack.push(Frame::Branch {
                pos,
                registers,
                chosen,
                next: i + 1,
            });
            return Action::Choose {
                pos,
                registers: child_registers,
                chosen: next,
            };
        }
        Action::Return(false)
    }

    fn apply_updates(
        &self,
        terms: &[Term],
        registers: &[i64],
        input_fields: &[i64],
    ) -> Option<Vec<i64>> {
        terms
            .iter()
            .map(|t| t.eval(registers, input_fields))
            .collect()
    }

    /// Narrows the step's output candidate sets by its observations, then
    /// moves on to the next step; fails when a set empties.
    fn check_outputs(
        &mut self,
        pos: usize,
        new_registers: Vec<i64>,
        stack: &mut Vec<Frame>,
    ) -> Action {
        let step = &self.steps[pos];
        let arity = step.output_fields.len();
        let previous = self.output_candidates.get(&step.key).cloned();
        let mut sets = previous.clone().unwrap_or_default();
        if sets.len() < arity {
            sets.resize(arity, self.candidates.to_vec());
        }
        for (field_idx, &observed) in step.output_fields.iter().enumerate() {
            sets[field_idx]
                .retain(|t| t.eval(&new_registers, &step.input_fields) == Some(observed));
            if sets[field_idx].is_empty() {
                return Action::Return(false);
            }
        }
        self.output_candidates.insert(step.key, sets);
        // Remember the previous sets for backtracking.
        stack.push(Frame::UndoOutputs {
            key: step.key,
            previous,
        });
        Action::Visit {
            pos: pos + 1,
            registers: new_registers,
        }
    }

    /// Checks that the chosen update terms (with representative outputs) do
    /// not reproduce any negative trace.
    fn negatives_ok(&self, negatives: &[ConcreteTrace], _positives: &[ConcreteTrace]) -> bool {
        if negatives.is_empty() {
            return true;
        }
        'neg: for trace in negatives {
            let mut state = self.solver.skeleton.initial_state();
            let mut registers = self.solver.initial_registers().to_vec();
            for ((input, output), concrete) in trace.abstract_trace.steps().zip(trace.steps.iter())
            {
                let Ok((next, out_sym)) = self.solver.skeleton.step(state, input) else {
                    continue 'neg; // not reproducible at the abstract level
                };
                if out_sym != *output {
                    continue 'neg;
                }
                let in_idx = self
                    .solver
                    .skeleton
                    .input_alphabet()
                    .index_of(input)
                    .unwrap();
                let key = (state, in_idx);
                let Some(update_terms) = self.updates.get(&key) else {
                    continue 'neg; // unconstrained transition: treat as not reproduced
                };
                let Some(new_regs) = update_terms
                    .iter()
                    .map(|t| t.eval(&registers, &concrete.input_fields))
                    .collect::<Option<Vec<i64>>>()
                else {
                    continue 'neg;
                };
                if let Some(sets) = self.output_candidates.get(&key) {
                    for (field_idx, &observed) in concrete.output_fields.iter().enumerate() {
                        let Some(set) = sets.get(field_idx) else {
                            continue;
                        };
                        let Some(representative) = set.first() else {
                            continue;
                        };
                        if representative.eval(&new_regs, &concrete.input_fields) != Some(observed)
                        {
                            continue 'neg;
                        }
                    }
                }
                registers = new_regs;
                state = next;
            }
            // Every step of the negative trace was reproduced: reject.
            return false;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ConcreteStep;
    use prognosis_automata::alphabet::Alphabet;
    use prognosis_automata::mealy::MealyBuilder;
    use prognosis_automata::word::{InputWord, IoTrace, OutputWord};

    /// Skeleton of Fig. 4: two states, inputs {ACK, SYN}; ACK loops on s0
    /// with NIL, SYN moves to s1 with ACK output, SYN on s1 loops with NIL.
    fn fig4_skeleton() -> MealyMachine {
        let inputs = Alphabet::from_symbols(["ACK(sn,an,0)", "SYN(sn,an,0)"]);
        let mut b = MealyBuilder::new(inputs);
        let s0 = b.add_state();
        let s1 = b.add_state();
        b.add_transition(s0, "ACK(sn,an,0)", "NIL", s0).unwrap();
        b.add_transition(s0, "SYN(sn,an,0)", "ACK(o1,o2,0)", s1)
            .unwrap();
        b.add_transition(s1, "SYN(sn,an,0)", "NIL", s1).unwrap();
        b.add_transition(s1, "ACK(sn,an,0)", "NIL", s1).unwrap();
        b.build().unwrap()
    }

    type MealyMachine = prognosis_automata::mealy::MealyMachine;

    fn trace(steps: Vec<(&str, Vec<i64>, &str, Vec<i64>)>) -> ConcreteTrace {
        let input = InputWord::from_symbols(steps.iter().map(|(i, _, _, _)| *i));
        let output = OutputWord::from_symbols(steps.iter().map(|(_, _, o, _)| *o));
        let concrete = steps
            .into_iter()
            .map(|(_, i, _, o)| ConcreteStep::new(i, o))
            .collect();
        ConcreteTrace::new(IoTrace::new(input, output), concrete)
    }

    #[test]
    fn synthesizes_the_paper_example() {
        // The §4.3 example trace: [(ACK(0,3,0)/NIL), (SYN(2,5,0)/ACK(4,5,0))]
        // with a second trace [(SYN(2,3,0)/ACK(4,5,0)) ...] to pin down the
        // solution.  Registers: r, pr, pi with initial values (0, 4, 7).
        let skeleton = fig4_skeleton();
        let domain = TermDomain {
            num_registers: 3,
            num_input_fields: 2,
            constants: vec![],
            allow_increment: true,
        };
        let solver = Solver::new(&skeleton, &domain, vec![0, 4, 7], SolverConfig::default());
        let t1 = trace(vec![
            ("ACK(sn,an,0)", vec![0, 3], "NIL", vec![]),
            ("SYN(sn,an,0)", vec![2, 5], "ACK(o1,o2,0)", vec![4, 5]),
        ]);
        let t2 = trace(vec![
            ("SYN(sn,an,0)", vec![2, 3], "ACK(o1,o2,0)", vec![4, 5]),
            ("SYN(sn,an,0)", vec![2, 3], "NIL", vec![]),
        ]);
        let solution = solver.solve(&[t1.clone(), t2.clone()], &[]).unwrap();
        assert!(solution.nodes_explored > 0);
        // The SYN transition out of s0 must explain o1=4, o2=5 in both
        // traces.  Several term assignments are valid (the paper's E_u1=1,
        // E_o2=3 solution among them); we check that the solver found *some*
        // register-consistent explanation with non-empty candidate sets and
        // update terms for every exercised transition.
        let syn_key = (0, 1);
        let outputs = solution
            .output_candidates
            .get(&syn_key)
            .expect("SYN transition exercised");
        assert_eq!(outputs.len(), 2);
        assert!(!outputs[0].is_empty());
        assert!(!outputs[1].is_empty());
        assert!(
            solution.updates.contains_key(&(0, 0)),
            "ACK transition must have update terms"
        );
        assert!(
            solution.updates.contains_key(&syn_key),
            "SYN transition must have update terms"
        );
        assert!(solution.representative_outputs(&syn_key).is_some());
    }

    #[test]
    fn detects_constant_only_output_fields() {
        // A field that is always 0 regardless of growing inputs can only be
        // explained by the constant 0 — the Issue-4 signature.
        let inputs = Alphabet::from_symbols(["STREAM"]);
        let mut b = MealyBuilder::new(inputs);
        let s0 = b.add_state();
        b.add_transition(s0, "STREAM", "BLOCKED", s0).unwrap();
        let skeleton = b.build().unwrap();
        let domain = TermDomain::new(1, 1); // constants = [0]
        let solver = Solver::new(&skeleton, &domain, vec![100], SolverConfig::default());
        let t = trace(vec![
            ("STREAM", vec![10], "BLOCKED", vec![0]),
            ("STREAM", vec![20], "BLOCKED", vec![0]),
            ("STREAM", vec![30], "BLOCKED", vec![0]),
        ]);
        let solution = solver.solve(&[t], &[]).unwrap();
        let candidates = &solution.output_candidates[&(0, 0)][0];
        assert!(
            candidates.iter().all(|t| t.is_constant()),
            "only constants can explain the field: {candidates:?}"
        );
        assert_eq!(
            solution.representative_outputs(&(0, 0)).unwrap(),
            vec![Term::Const(0)]
        );
    }

    #[test]
    fn no_solution_when_field_is_unexplainable() {
        let inputs = Alphabet::from_symbols(["a"]);
        let mut b = MealyBuilder::new(inputs);
        let s0 = b.add_state();
        b.add_transition(s0, "a", "x", s0).unwrap();
        let skeleton = b.build().unwrap();
        // No constants except 0, no input fields, one register stuck at 0:
        // an output field of 7 cannot be produced.
        let domain = TermDomain {
            num_registers: 1,
            num_input_fields: 0,
            constants: vec![0],
            allow_increment: false,
        };
        let solver = Solver::new(&skeleton, &domain, vec![0], SolverConfig::default());
        let t = trace(vec![("a", vec![], "x", vec![7])]);
        assert_eq!(
            solver.solve(&[t], &[]).unwrap_err(),
            SolverError::NoSolution
        );
    }

    #[test]
    fn inconsistent_trace_is_rejected() {
        let skeleton = fig4_skeleton();
        let domain = TermDomain::new(1, 2);
        let solver = Solver::new(&skeleton, &domain, vec![0], SolverConfig::default());
        // Claims the ACK input produces an ACK output, but the skeleton says NIL.
        let t = trace(vec![(
            "ACK(sn,an,0)",
            vec![0, 3],
            "ACK(o1,o2,0)",
            vec![1, 2],
        )]);
        assert!(matches!(
            solver.solve(&[t], &[]).unwrap_err(),
            SolverError::InconsistentTrace(_)
        ));
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let skeleton = fig4_skeleton();
        let domain = TermDomain::new(3, 2);
        let solver = Solver::new(
            &skeleton,
            &domain,
            vec![0, 0, 0],
            SolverConfig { max_nodes: 1 },
        );
        let t = trace(vec![(
            "SYN(sn,an,0)",
            vec![2, 3],
            "ACK(o1,o2,0)",
            vec![995, 996],
        )]);
        let err = solver.solve(&[t], &[]).unwrap_err();
        assert!(matches!(
            err,
            SolverError::BudgetExhausted | SolverError::NoSolution
        ));
    }

    #[test]
    fn register_chaining_across_steps_is_learned() {
        // Register must latch the input field on step 1 and emit it on step 2:
        // only solvable if the solver threads register values across steps.
        let inputs = Alphabet::from_symbols(["put", "get"]);
        let mut b = MealyBuilder::new(inputs);
        let s0 = b.add_state();
        let s1 = b.add_state();
        b.add_transition(s0, "put", "ok", s1).unwrap();
        b.add_transition(s0, "get", "val", s0).unwrap();
        b.add_transition(s1, "get", "val", s1).unwrap();
        b.add_transition(s1, "put", "ok", s1).unwrap();
        let skeleton = b.build().unwrap();
        let domain = TermDomain::new(1, 1);
        let solver = Solver::new(&skeleton, &domain, vec![0], SolverConfig::default());
        let t1 = trace(vec![
            ("put", vec![41], "ok", vec![]),
            ("get", vec![0], "val", vec![41]),
        ]);
        let t2 = trace(vec![
            ("put", vec![7], "ok", vec![]),
            ("get", vec![0], "val", vec![7]),
            ("get", vec![0], "val", vec![7]),
        ]);
        let solution = solver.solve(&[t1, t2], &[]).unwrap();
        // The put transition must latch in0 into r0.
        assert_eq!(solution.updates[&(0, 0)], vec![Term::InputField(0)]);
        // The get transition must keep the register and output it.
        assert_eq!(solution.updates[&(1, 1)], vec![Term::Register(0)]);
        let get_out = &solution.output_candidates[&(1, 1)][0];
        assert!(get_out.contains(&Term::Register(0)));
    }

    #[test]
    fn long_traces_do_not_grow_the_thread_stack() {
        // 50k steps of one positive trace: a search that recursed once per
        // step would overflow a 1 MiB stack long before the end.
        const STEPS: i64 = 50_000;
        let handle = std::thread::Builder::new()
            .stack_size(1 << 20)
            .spawn(|| {
                let inputs = Alphabet::from_symbols(["put"]);
                let mut b = MealyBuilder::new(inputs);
                let s0 = b.add_state();
                b.add_transition(s0, "put", "echo", s0).unwrap();
                let skeleton = b.build().unwrap();
                let domain = TermDomain::new(1, 1);
                let solver = Solver::new(&skeleton, &domain, vec![0], SolverConfig::default());
                let steps = (0..STEPS)
                    .map(|i| ("put", vec![i], "echo", vec![i]))
                    .collect();
                solver.solve(&[trace(steps)], &[])
            })
            .unwrap();
        let solution = handle.join().expect("the solver thread must not overflow");
        let solution = solution.expect("latching the input explains every step");
        assert_eq!(solution.updates[&(0, 0)], vec![Term::Register(0)]);
        assert!(solution.output_candidates[&(0, 0)][0].contains(&Term::InputField(0)));
        assert!(solution.nodes_explored > STEPS as u64);
    }

    #[test]
    fn negative_traces_exclude_otherwise_valid_solutions() {
        // Positive trace is explainable by either "latch input" or "keep 5"
        // (register starts at 5 and the input is also 5).  The negative trace
        // says the machine must NOT output 5 after putting 9 — forcing the
        // latch interpretation.
        let inputs = Alphabet::from_symbols(["put", "get"]);
        let mut b = MealyBuilder::new(inputs);
        let s0 = b.add_state();
        b.add_transition(s0, "put", "ok", s0).unwrap();
        b.add_transition(s0, "get", "val", s0).unwrap();
        let skeleton = b.build().unwrap();
        let domain = TermDomain::new(1, 1).with_constant(5);
        let solver = Solver::new(&skeleton, &domain, vec![5], SolverConfig::default());
        let positive = trace(vec![
            ("put", vec![5], "ok", vec![]),
            ("get", vec![0], "val", vec![5]),
        ]);
        let negative = trace(vec![
            ("put", vec![9], "ok", vec![]),
            ("get", vec![0], "val", vec![5]),
        ]);
        let solution = solver.solve(&[positive], &[negative]).unwrap();
        // With the negative trace, "keep the old register value" (which stays
        // 5 forever) is excluded; the update must track the input field.
        assert_eq!(solution.updates[&(0, 0)], vec![Term::InputField(0)]);
    }
}

//! Discrimination-tree learner with Rivest–Schapire counterexample
//! decomposition.
//!
//! This is the learner used by the Prognosis pipeline.  It belongs to the
//! same algorithmic family as the TTT algorithm the paper uses through
//! LearnLib: states are the leaves of a binary-branching *discrimination
//! tree* whose inner nodes are distinguishing suffixes; new states are
//! discovered by *sifting* access sequences through the tree, and each
//! counterexample is decomposed (Rivest–Schapire) into a single new
//! discriminator that splits exactly one leaf.  Compared with the full TTT
//! algorithm we omit the discriminator-finalization pass — the learned
//! models are identical; only the length of some discriminators (and hence a
//! constant factor in query length) differs.
//!
//! Membership-query complexity is `O(|Σ̂|·n² + n·log m)` for an `n`-state
//! machine and counterexamples of length `m`, which is what makes learning
//! QUIC-sized models with tens of thousands of queries feasible (§6.2.2).
//!
//! ## Wavefront sifting
//!
//! The serial sift path walks the tree one membership query at a time,
//! which collapses a multiplexed session engine to one in-flight query
//! during hypothesis construction.  [`SiftStrategy::Wavefront`] (the
//! default) instead sifts **all** pending words breadth-wise: every word
//! advances one tree level per iteration and each level is issued as a
//! single [`MembershipOracle::query_batch`], so the engine sees batches of
//! `O(states × |Σ̂|)`.  The wavefront is engineered to be *bit-identical*
//! to serial sifting: queries are collected by a non-mutating probe pass
//! (a freshly created child is always a leaf, so a probe that stops at a
//! missing child asks exactly the queries the serial descent would), and
//! the tree is then mutated by a serial replay over the probe's answers —
//! same leaf-creation order, same node indices, same state numbering.
//! Membership queries are counted per *deduplicated* batch entry
//! ([`LearningStats::record_batch`]), so the wavefront never reports more
//! queries than serial sifting — coinciding level queries make it report
//! fewer.

use crate::oracle::{EquivalenceOracle, MembershipOracle, QueryPhase};
use crate::stats::LearningStats;
use crate::{Learner, LearningResult};
use prognosis_automata::alphabet::Alphabet;
use prognosis_automata::mealy::{MealyBuilder, MealyMachine, StateId};
use prognosis_automata::word::{InputWord, OutputWord};
use std::collections::{BTreeMap, BTreeSet};

/// How the learner drives membership queries during sifting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SiftStrategy {
    /// One query at a time per word, fully descending each word before the
    /// next — the reference implementation (PR-4 behaviour).
    Serial,
    /// Breadth-wise batching: all pending words advance one tree level per
    /// iteration, one `query_batch` per level.  Bit-identical results to
    /// [`SiftStrategy::Serial`] with `membership_queries` ≤ serial.
    #[default]
    Wavefront,
}

/// A node of the discrimination tree.
#[derive(Clone, Debug)]
enum Node {
    /// An inner node labelled with a distinguishing suffix; children are
    /// indexed by the output word the SUL produces for that suffix.
    Inner {
        discriminator: InputWord,
        children: BTreeMap<OutputWord, usize>,
    },
    /// A leaf corresponding to a hypothesis state, labelled with its access
    /// sequence.
    Leaf { access: InputWord },
}

/// The discrimination-tree learner.
pub struct DTreeLearner {
    alphabet: Alphabet,
    nodes: Vec<Node>,
    root: usize,
    /// Leaf node index per discovered state, in discovery order.
    leaves: Vec<usize>,
    strategy: SiftStrategy,
    stats: LearningStats,
}

impl DTreeLearner {
    /// Creates a learner over the given abstract input alphabet, using the
    /// default [`SiftStrategy::Wavefront`].
    pub fn new(alphabet: Alphabet) -> Self {
        DTreeLearner::with_strategy(alphabet, SiftStrategy::default())
    }

    /// Creates a learner with an explicit sift strategy.
    pub fn with_strategy(alphabet: Alphabet, strategy: SiftStrategy) -> Self {
        assert!(
            !alphabet.is_empty(),
            "learning needs a non-empty input alphabet"
        );
        let root_leaf = Node::Leaf {
            access: InputWord::empty(),
        };
        DTreeLearner {
            alphabet,
            nodes: vec![root_leaf],
            root: 0,
            leaves: vec![0],
            strategy,
            stats: LearningStats::new(),
        }
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> LearningStats {
        self.stats
    }

    /// Number of states discovered so far.
    pub fn num_states(&self) -> usize {
        self.leaves.len()
    }

    /// The sift strategy this learner runs with.
    pub fn strategy(&self) -> SiftStrategy {
        self.strategy
    }

    /// A canonical rendering of the discrimination tree (every node with
    /// its children, plus the leaf-per-state registry).  Two learners with
    /// equal signatures built bit-identical trees — node indices, child
    /// labels and state numbering included.  Used to pin the
    /// wavefront-equals-serial property.
    pub fn tree_signature(&self) -> Vec<String> {
        let mut sig: Vec<String> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, node)| match node {
                Node::Leaf { access } => format!("{i}:leaf:[{access}]"),
                Node::Inner {
                    discriminator,
                    children,
                } => {
                    let kids: Vec<String> = children
                        .iter()
                        .map(|(label, child)| format!("[{label}]->{child}"))
                        .collect();
                    format!("{i}:inner:[{discriminator}]:{}", kids.join(","))
                }
            })
            .collect();
        sig.push(format!("leaves:{:?}", self.leaves));
        sig
    }

    fn query(&mut self, membership: &mut dyn MembershipOracle, input: &InputWord) -> OutputWord {
        self.stats.membership_queries += 1;
        self.stats.input_symbols += input.len() as u64;
        let out = membership.query(input);
        assert_eq!(
            out.len(),
            input.len(),
            "oracle must answer symbol-per-symbol"
        );
        out
    }

    fn query_batch(
        &mut self,
        membership: &mut dyn MembershipOracle,
        inputs: &[InputWord],
    ) -> Vec<OutputWord> {
        self.stats.record_batch(inputs);
        let outs = membership.query_batch(inputs);
        assert_eq!(
            outs.len(),
            inputs.len(),
            "oracle must answer the whole batch"
        );
        for (input, out) in inputs.iter().zip(&outs) {
            assert_eq!(
                out.len(),
                input.len(),
                "oracle must answer symbol-per-symbol"
            );
        }
        outs
    }

    fn leaf_access(&self, leaf: usize) -> &InputWord {
        match &self.nodes[leaf] {
            Node::Leaf { access } => access,
            Node::Inner { .. } => unreachable!("leaf index points at an inner node"),
        }
    }

    fn state_of_leaf(&self, leaf: usize) -> StateId {
        self.leaves
            .iter()
            .position(|&l| l == leaf)
            .expect("every leaf is registered as a state")
    }

    /// Sifts a word through the tree, returning the leaf (state) it lands in.
    /// If the word's responses do not match any existing child, a fresh leaf
    /// (new hypothesis state) is created.
    fn sift(&mut self, membership: &mut dyn MembershipOracle, word: &InputWord) -> usize {
        let mut node = self.root;
        loop {
            match &self.nodes[node] {
                Node::Leaf { .. } => return node,
                Node::Inner { discriminator, .. } => {
                    let discriminator = discriminator.clone();
                    let full = word.concat(&discriminator);
                    let out = self.query(membership, &full);
                    let label = out.suffix_from(word.len());
                    let next = match &mut self.nodes[node] {
                        Node::Inner { children, .. } => children.get(&label).copied(),
                        Node::Leaf { .. } => unreachable!(),
                    };
                    match next {
                        Some(child) => node = child,
                        None => {
                            let leaf = self.nodes.len();
                            self.nodes.push(Node::Leaf {
                                access: word.clone(),
                            });
                            self.leaves.push(leaf);
                            match &mut self.nodes[node] {
                                Node::Inner { children, .. } => {
                                    children.insert(label, leaf);
                                }
                                Node::Leaf { .. } => unreachable!(),
                            }
                            return leaf;
                        }
                    }
                }
            }
        }
    }

    /// Sifts many words, advancing **all** of them one tree level per
    /// iteration and issuing each level as a single membership batch.
    /// Returns each word's own output word (the transition-row material)
    /// alongside the leaf it sifts into: the row-output queries ride in
    /// the first level's batch — every word is a prefix of its own level-0
    /// sift query, so the prefix-subsuming cache executes them for free on
    /// the back of the sift words.
    ///
    /// Two passes keep the result bit-identical to sifting each word
    /// serially in order:
    ///
    /// 1. **Probe** — descend every word through the *current* tree without
    ///    mutating it, batching one level at a time.  A serial sift only
    ///    ever adds leaves, and a word reaching a freshly created leaf
    ///    stops there without querying, so a probe that stops at a missing
    ///    child has asked exactly the queries the serial descent would.
    /// 2. **Replay** — re-run the serial sift per word, in word order,
    ///    answering every query from the probe's answer map.  Leaf creation
    ///    order, node indices and state numbering match serial exactly.
    ///
    /// Queries are counted per deduplicated level batch, so the total is
    /// never above (and with coinciding level queries, below) serial's.
    fn sift_batch(
        &mut self,
        membership: &mut dyn MembershipOracle,
        words: &[InputWord],
    ) -> (Vec<OutputWord>, Vec<usize>) {
        let mut answers: BTreeMap<InputWord, OutputWord> = BTreeMap::new();
        // cursor[i]: the node word i has reached; None once its descent is
        // over (a leaf, or a missing child the replay will materialize).
        let mut cursors: Vec<Option<usize>> = words.iter().map(|_| Some(self.root)).collect();
        let mut first = true;
        loop {
            // This level's full queries: word · discriminator for every
            // word currently at an inner node.
            let mut level: Vec<(usize, InputWord)> = Vec::new();
            for (i, cursor) in cursors.iter_mut().enumerate() {
                let Some(node) = *cursor else { continue };
                match &self.nodes[node] {
                    Node::Leaf { .. } => *cursor = None,
                    Node::Inner { discriminator, .. } => {
                        level.push((i, words[i].concat(discriminator)));
                    }
                }
            }
            let mut fresh: BTreeSet<InputWord> = level
                .iter()
                .map(|(_, full)| full)
                .filter(|full| !answers.contains_key(*full))
                .cloned()
                .collect();
            if first {
                // Fold the row-output queries into the first batch.
                fresh.extend(words.iter().cloned());
                first = false;
            }
            let fresh: Vec<InputWord> = fresh.into_iter().collect();
            if !fresh.is_empty() {
                let outs = self.query_batch(membership, &fresh);
                for (full, out) in fresh.into_iter().zip(outs) {
                    answers.insert(full, out);
                }
            }
            if level.is_empty() {
                break;
            }
            for (i, full) in level {
                let node = cursors[i].expect("levelled word has a cursor");
                let label = answers[&full].suffix_from(words[i].len());
                let next = match &self.nodes[node] {
                    Node::Inner { children, .. } => children.get(&label).copied(),
                    Node::Leaf { .. } => unreachable!("levelled word sits at an inner node"),
                };
                // A missing child ends the descent: the serial replay will
                // either create the leaf here or land in one an earlier
                // word created — no further queries either way.
                cursors[i] = next;
            }
        }
        let outputs = words.iter().map(|word| answers[word].clone()).collect();
        let leaves = words
            .iter()
            .map(|word| self.sift_replay(word, &answers))
            .collect();
        (outputs, leaves)
    }

    /// The mutating half of [`DTreeLearner::sift_batch`]: identical to
    /// [`DTreeLearner::sift`], but answering from the probe's answer map.
    fn sift_replay(
        &mut self,
        word: &InputWord,
        answers: &BTreeMap<InputWord, OutputWord>,
    ) -> usize {
        let mut node = self.root;
        loop {
            match &self.nodes[node] {
                Node::Leaf { .. } => return node,
                Node::Inner { discriminator, .. } => {
                    let full = word.concat(discriminator);
                    let out = answers
                        .get(&full)
                        .expect("probe pass covered every replay query");
                    let label = out.suffix_from(word.len());
                    let next = match &mut self.nodes[node] {
                        Node::Inner { children, .. } => children.get(&label).copied(),
                        Node::Leaf { .. } => unreachable!(),
                    };
                    match next {
                        Some(child) => node = child,
                        None => {
                            let leaf = self.nodes.len();
                            self.nodes.push(Node::Leaf {
                                access: word.clone(),
                            });
                            self.leaves.push(leaf);
                            match &mut self.nodes[node] {
                                Node::Inner { children, .. } => {
                                    children.insert(label, leaf);
                                }
                                Node::Leaf { .. } => unreachable!(),
                            }
                            return leaf;
                        }
                    }
                }
            }
        }
    }

    /// Builds the hypothesis by sifting every transition of every known
    /// state.  Sifting may discover new states; iterate until stable.
    ///
    /// With [`SiftStrategy::Wavefront`], each round collects the transition
    /// extensions of **every** pending state — `O(states × |Σ̂|)` words —
    /// batches their row outputs in one membership batch, and wavefront-
    /// sifts them all together; states discovered during the round form
    /// the next round.  With [`SiftStrategy::Serial`], rows are built one
    /// state at a time and each extension sifts serially (the reference
    /// behaviour the wavefront is asserted bit-identical to).
    fn build_hypothesis(&mut self, membership: &mut dyn MembershipOracle) -> MealyMachine {
        self.stats.learning_rounds += 1;
        membership.note_phase(QueryPhase::Construction);
        // transitions[state][symbol index] = (target state, output symbol)
        let mut transitions: Vec<Vec<(StateId, prognosis_automata::alphabet::Symbol)>> = Vec::new();
        match self.strategy {
            SiftStrategy::Serial => {
                let mut state = 0;
                while state < self.leaves.len() {
                    let access = self.leaf_access(self.leaves[state]).clone();
                    // One batch per state row: the |Σ̂| one-symbol
                    // extensions are independent, so they can fan out
                    // across parallel SUL workers.
                    let extensions: Vec<InputWord> = self
                        .alphabet
                        .clone()
                        .iter()
                        .map(|sym| access.append(sym.clone()))
                        .collect();
                    let out_words = self.query_batch(membership, &extensions);
                    let mut row = Vec::with_capacity(self.alphabet.len());
                    for (ext, out_word) in extensions.iter().zip(out_words) {
                        let output = out_word.last().expect("non-empty query").clone();
                        let leaf = self.sift(membership, ext);
                        row.push((self.state_of_leaf(leaf), output));
                    }
                    transitions.push(row);
                    state += 1;
                }
            }
            SiftStrategy::Wavefront => {
                let alphabet = self.alphabet.clone();
                let mut next_state = 0;
                while next_state < self.leaves.len() {
                    let round_states: Vec<usize> = (next_state..self.leaves.len()).collect();
                    next_state = self.leaves.len();
                    // Every pending state's row extensions, state-major and
                    // symbol-major — the serial processing order.
                    let mut extensions: Vec<InputWord> =
                        Vec::with_capacity(round_states.len() * alphabet.len());
                    for &s in &round_states {
                        let access = self.leaf_access(self.leaves[s]);
                        for sym in alphabet.iter() {
                            extensions.push(access.append(sym.clone()));
                        }
                    }
                    let (out_words, leaves) = self.sift_batch(membership, &extensions);
                    for (outs, row_leaves) in out_words
                        .chunks(self.alphabet.len())
                        .zip(leaves.chunks(self.alphabet.len()))
                    {
                        let row = outs
                            .iter()
                            .zip(row_leaves)
                            .map(|(out_word, &leaf)| {
                                (
                                    self.state_of_leaf(leaf),
                                    out_word.last().expect("non-empty query").clone(),
                                )
                            })
                            .collect();
                        transitions.push(row);
                    }
                }
            }
        }
        // New states may have been discovered while filling earlier rows;
        // the loops above already cover them because `self.leaves` grows.
        let mut builder = MealyBuilder::new(self.alphabet.clone());
        builder.add_states(self.leaves.len());
        builder.set_initial(0);
        for (q, row) in transitions.iter().enumerate() {
            for (idx, sym) in self.alphabet.clone().iter().enumerate() {
                let (target, output) = &row[idx];
                builder
                    .add_transition(q, sym.clone(), output.clone(), *target)
                    .expect("states pre-added");
            }
        }
        // States discovered after their row was required: fill their rows too.
        // (Handled by the while-loop above; `transitions.len() == leaves.len()`.)
        debug_assert_eq!(transitions.len(), self.leaves.len());
        builder.build().expect("every state row was filled")
    }

    /// Rivest–Schapire decomposition of a counterexample: finds the single
    /// transition whose target state is wrong and splits the corresponding
    /// leaf with a new discriminator.
    ///
    /// The `z(i)` decomposition probes are mutually independent, so with
    /// [`SiftStrategy::Wavefront`] all of them go out as **one** membership
    /// batch (deduplicated) instead of one serial round trip per
    /// counterexample position.
    fn process_counterexample(
        &mut self,
        membership: &mut dyn MembershipOracle,
        hypothesis: &MealyMachine,
        ce_input: &InputWord,
    ) {
        self.stats.counterexamples += 1;
        membership.note_phase(QueryPhase::Counterexample);
        let len = ce_input.len();
        // z(i) = SUL output on suffix w[i..] after being driven along the
        // access sequence of the hypothesis state reached by w[..i].
        let mut z: Vec<OutputWord> = Vec::with_capacity(len + 1);
        let mut hyp_states: Vec<StateId> = Vec::with_capacity(len + 1);
        let mut q = hypothesis.initial_state();
        hyp_states.push(q);
        for i in 0..len {
            q = hypothesis
                .successor(q, &ce_input[i])
                .expect("CE over alphabet");
            hyp_states.push(q);
        }
        // (access length, full probe word) per position; empty suffixes
        // contribute an empty z without a query.
        let probes: Vec<Option<(usize, InputWord)>> = hyp_states
            .iter()
            .enumerate()
            .map(|(i, &hyp_state)| {
                let suffix = ce_input.suffix_from(i);
                if suffix.is_empty() {
                    return None;
                }
                let access = self.access_of_state(hyp_state);
                Some((access.len(), access.concat(&suffix)))
            })
            .collect();
        match self.strategy {
            SiftStrategy::Serial => {
                for probe in &probes {
                    match probe {
                        None => z.push(OutputWord::empty()),
                        Some((access_len, full)) => {
                            let out = self.query(membership, full);
                            z.push(out.suffix_from(*access_len));
                        }
                    }
                }
            }
            SiftStrategy::Wavefront => {
                let batch: Vec<InputWord> = probes
                    .iter()
                    .flatten()
                    .map(|(_, full)| full.clone())
                    .collect();
                let outs = self.query_batch(membership, &batch);
                let mut answers: BTreeMap<&InputWord, &OutputWord> = BTreeMap::new();
                for (full, out) in batch.iter().zip(&outs) {
                    answers.insert(full, out);
                }
                for probe in &probes {
                    match probe {
                        None => z.push(OutputWord::empty()),
                        Some((access_len, full)) => {
                            let out = answers[full];
                            z.push(out.suffix_from(*access_len));
                        }
                    }
                }
            }
        }
        // Find i with tail(z[i]) != z[i+1]; such an i exists for any genuine
        // counterexample (see module docs).
        let split_index = z
            .windows(2)
            .position(|pair| pair[0].suffix_from(1) != pair[1]);
        let i = split_index.expect("genuine counterexample admits an RS split point");
        let discriminator = ce_input.suffix_from(i + 1);
        debug_assert!(!discriminator.is_empty());
        let old_state = hyp_states[i + 1];
        let old_leaf = self.leaves[old_state];
        let old_access = self.access_of_state(old_state);
        let new_access = self
            .access_of_state(hyp_states[i])
            .append(ce_input[i].clone());

        // Labels for the two children of the new inner node — one batch of
        // two independent queries on the wavefront path.
        let (old_out, new_out) = {
            let old_q = old_access.concat(&discriminator);
            let new_q = new_access.concat(&discriminator);
            match self.strategy {
                SiftStrategy::Serial => {
                    let o = self.query(membership, &old_q);
                    let n = self.query(membership, &new_q);
                    (
                        o.suffix_from(old_access.len()),
                        n.suffix_from(new_access.len()),
                    )
                }
                SiftStrategy::Wavefront => {
                    let outs = self.query_batch(membership, &[old_q, new_q]);
                    (
                        outs[0].suffix_from(old_access.len()),
                        outs[1].suffix_from(new_access.len()),
                    )
                }
            }
        };
        assert_ne!(
            old_out, new_out,
            "RS decomposition must yield a discriminator separating the two access sequences"
        );

        // Replace the old leaf node in place with an inner node, and add two
        // fresh leaves beneath it.  Replacing in place keeps all parent
        // pointers valid without an explicit parent map.
        let old_leaf_clone = self.nodes[old_leaf].clone();
        let relocated_old = self.nodes.len();
        self.nodes.push(old_leaf_clone);
        let new_leaf = self.nodes.len();
        self.nodes.push(Node::Leaf { access: new_access });
        let mut children = BTreeMap::new();
        children.insert(old_out, relocated_old);
        children.insert(new_out, new_leaf);
        self.nodes[old_leaf] = Node::Inner {
            discriminator,
            children,
        };
        // The old state now lives at `relocated_old`; the new state is appended.
        self.leaves[old_state] = relocated_old;
        self.leaves.push(new_leaf);
    }

    fn access_of_state(&self, state: StateId) -> InputWord {
        self.leaf_access(self.leaves[state]).clone()
    }
}

impl Learner for DTreeLearner {
    fn learn(
        &mut self,
        membership: &mut dyn MembershipOracle,
        equivalence: &mut dyn EquivalenceOracle,
    ) -> LearningResult {
        loop {
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
                    let hyp_out = hypothesis.run(&ce.input).ok();
                    assert_ne!(
                        hyp_out,
                        Some(ce.output.clone()),
                        "equivalence oracle returned a spurious counterexample"
                    );
                    self.process_counterexample(membership, &hypothesis, &ce.input);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eq_oracles::{RandomWordOracle, SimulatorOracle};
    use crate::oracle::{CacheOracle, MachineOracle};
    use prognosis_automata::equivalence::machines_equivalent;
    use prognosis_automata::known;

    fn learn_machine(target: MealyMachine) -> LearningResult {
        let mut learner = DTreeLearner::new(target.input_alphabet().clone());
        let mut membership = CacheOracle::new(MachineOracle::new(target.clone()));
        let mut equivalence = SimulatorOracle::new(target);
        learner.learn(&mut membership, &mut equivalence)
    }

    #[test]
    fn learns_toggle_and_handshake() {
        for target in [known::toggle(), known::tcp_handshake_fragment()] {
            let result = learn_machine(target.clone());
            assert!(machines_equivalent(&result.model, &target));
        }
    }

    #[test]
    fn learns_counters_exactly() {
        for n in 1..=8 {
            let target = known::counter(n);
            let result = learn_machine(target.clone());
            assert!(machines_equivalent(&result.model, &target), "counter({n})");
            assert_eq!(
                result.model.num_states(),
                n,
                "counter({n}) must be learned minimally"
            );
        }
    }

    #[test]
    fn learns_random_machines_with_random_word_oracle() {
        for seed in 0..5u64 {
            let target =
                prognosis_automata::minimize::minimize(&known::random_machine(6, 3, 3, seed));
            let mut learner = DTreeLearner::new(target.input_alphabet().clone());
            let mut membership = CacheOracle::new(MachineOracle::new(target.clone()));
            let mut equivalence = RandomWordOracle::new(seed, 4000, 1, 20);
            let result = learner.learn(&mut membership, &mut equivalence);
            // A random-word oracle is heuristic, but with 4000 tests on a
            // 6-state machine it is overwhelmingly likely to be exact.
            assert!(
                machines_equivalent(&result.model, &target),
                "random machine seed {seed} not learned"
            );
        }
    }

    #[test]
    fn uses_fewer_queries_than_lstar_on_larger_machines() {
        let target = known::counter(10);
        let dtree = learn_machine(target.clone());
        let mut lstar = crate::lstar::LStarLearner::new(target.input_alphabet().clone());
        let mut membership = MachineOracle::new(target.clone());
        let mut equivalence = SimulatorOracle::new(target);
        let lstar_result = lstar.learn(&mut membership, &mut equivalence);
        assert!(machines_equivalent(&dtree.model, &lstar_result.model));
        assert!(
            dtree.stats.membership_queries <= lstar_result.stats.membership_queries,
            "discrimination tree ({}) should not ask more queries than L* ({})",
            dtree.stats.membership_queries,
            lstar_result.stats.membership_queries
        );
    }

    #[test]
    fn stats_reflect_final_model() {
        let result = learn_machine(known::counter(5));
        assert_eq!(result.stats.model_states, 5);
        assert_eq!(result.stats.model_transitions, 10);
        assert!(result.stats.counterexamples >= 1);
    }

    #[test]
    #[should_panic(expected = "non-empty input alphabet")]
    fn rejects_empty_alphabet() {
        let _ = DTreeLearner::new(Alphabet::new());
    }

    fn learn_with_strategy(
        target: &MealyMachine,
        strategy: SiftStrategy,
        seed: u64,
    ) -> (LearningResult, Vec<String>, u64) {
        let mut learner = DTreeLearner::with_strategy(target.input_alphabet().clone(), strategy);
        let mut membership = CacheOracle::new(MachineOracle::new(target.clone()));
        let mut equivalence = RandomWordOracle::new(seed, 2_000, 1, 12);
        let result = learner.learn(&mut membership, &mut equivalence);
        let fresh = membership.fresh_symbols();
        (result, learner.tree_signature(), fresh)
    }

    #[test]
    fn wavefront_sifting_is_bit_identical_to_serial() {
        for seed in 0..6u64 {
            let target =
                prognosis_automata::minimize::minimize(&known::random_machine(7, 3, 3, seed));
            let (serial, serial_tree, serial_fresh) =
                learn_with_strategy(&target, SiftStrategy::Serial, seed);
            let (wave, wave_tree, wave_fresh) =
                learn_with_strategy(&target, SiftStrategy::Wavefront, seed);
            // Not just equivalent: the same machine, state numbering
            // included, from the same discrimination tree.
            assert_eq!(serial.model, wave.model, "seed {seed}: models diverged");
            assert_eq!(serial_tree, wave_tree, "seed {seed}: trees diverged");
            assert!(
                wave.stats.membership_queries <= serial.stats.membership_queries,
                "seed {seed}: wavefront must not ask more queries \
                 ({} > {})",
                wave.stats.membership_queries,
                serial.stats.membership_queries
            );
            assert!(
                wave_fresh <= serial_fresh,
                "seed {seed}: wavefront must not execute more fresh symbols"
            );
            assert_eq!(serial.stats.counterexamples, wave.stats.counterexamples);
            assert_eq!(serial.stats.learning_rounds, wave.stats.learning_rounds);
            assert_eq!(serial.stats.model_states, wave.stats.model_states);
        }
    }

    #[test]
    fn wavefront_batches_whole_rounds() {
        /// Counts the largest batch the learner hands the oracle stack.
        struct BatchSpy {
            inner: MachineOracle,
            max_batch: usize,
        }
        impl MembershipOracle for BatchSpy {
            fn query(&mut self, input: &InputWord) -> OutputWord {
                self.max_batch = self.max_batch.max(1);
                self.inner.query(input)
            }
            fn query_batch(&mut self, inputs: &[InputWord]) -> Vec<OutputWord> {
                self.max_batch = self.max_batch.max(inputs.len());
                self.inner.query_batch(inputs)
            }
        }
        let target = known::counter(6);
        let alphabet_len = target.input_alphabet().len();
        let mut learner = DTreeLearner::new(target.input_alphabet().clone());
        let mut membership = BatchSpy {
            inner: MachineOracle::new(target.clone()),
            max_batch: 0,
        };
        let mut equivalence = SimulatorOracle::new(target.clone());
        let result = learner.learn(&mut membership, &mut equivalence);
        assert!(machines_equivalent(&result.model, &target));
        // The serial path never hands the oracle more than one state row
        // (|Σ| words) at a time during construction; a wavefront round
        // covers several states at once.  SimulatorOracle issues no
        // membership traffic, so everything the spy saw came from the
        // learner itself.
        assert!(
            membership.max_batch >= 2 * alphabet_len,
            "wavefront rounds must batch several state rows at once \
             (saw a largest batch of {})",
            membership.max_batch
        );
    }
}

//! A prefix trie over input symbols, storing the output symbol observed at
//! every step.
//!
//! Membership queries against a reset-based SUL are *prefix-closed*: the
//! answer to an input word also answers every prefix of it (the SUL emits
//! one output symbol per input symbol, starting from the reset state).  The
//! trie exploits this directly — a cached word answers all of its prefixes
//! in `O(len)` without scanning the cache, and a cached prefix of a new
//! query tells the caller how many symbols are genuinely *fresh*, which is
//! the number the paper's query accounting cares about.  This replaces the
//! seed's flat `HashMap` cache, whose prefix lookups were linear scans over
//! every cached word.
//!
//! Internally the trie is fully *interned*: every node holds a dense
//! `SymbolId`-indexed child table instead of a `HashMap<Symbol, _>`, so an
//! insert or lookup on the hot path performs zero string hashing — symbols
//! are resolved to ids once per query (or arrive pre-encoded as
//! [`IWord`]s from the batch dedup layer) and to strings only at
//! serialization boundaries.  Sorted iteration (entries, paths,
//! divergences) walks children in the interner's lexicographic *rank*
//! order, which reproduces string order exactly regardless of the order in
//! which symbols were first interned (e.g. during a warm-start journal
//! replay).
//!
//! The trie is also the unit of *cross-run persistence*: the journal
//! ([`crate::journal::JournalStore`]) stores it as `(input, output,
//! terminal)` maximal-path records (see [`PrefixTrie::for_each_path`])
//! rather than its arena representation, so the on-disk format is stable
//! under node reordering and survives refactors of the in-memory layout.

use prognosis_automata::alphabet::Symbol;
use prognosis_automata::interner::{IWord, Interner, SymbolId};
use prognosis_automata::word::{InputWord, OutputWord};

/// Sentinel for "no child" / "no output" (the root) in dense tables.
const NO_ID: u32 = u32::MAX;

/// One trie node: the outputs observed after some input prefix.
#[derive(Clone, Debug, Default)]
struct TrieNode {
    /// Child node per next input symbol, indexed by input `SymbolId`.
    /// `NO_ID` marks an absent edge; the table may be shorter than the
    /// interner when trailing ids have no edge here.
    children: Vec<u32>,
    /// Output symbol id (into the output interner) the SUL produced on the
    /// edge *into* this node (`NO_ID` only for the root).
    output: u32,
    /// Whether a query ended exactly here (used by [`PrefixTrie::entries`]
    /// and the distinct-query count).
    terminal: bool,
}

impl TrieNode {
    fn root() -> Self {
        TrieNode {
            children: Vec::new(),
            output: NO_ID,
            terminal: false,
        }
    }

    #[inline]
    fn child(&self, id: SymbolId) -> Option<usize> {
        match self.children.get(id.index()) {
            Some(&c) if c != NO_ID => Some(c as usize),
            _ => None,
        }
    }

    fn set_child(&mut self, id: SymbolId, child: usize) {
        if self.children.len() <= id.index() {
            self.children.resize(id.index() + 1, NO_ID);
        }
        self.children[id.index()] = child as u32;
    }

    fn has_children(&self) -> bool {
        self.children.iter().any(|&c| c != NO_ID)
    }
}

/// A prefix-closed cache of membership-query answers.
#[derive(Clone, Debug)]
pub struct PrefixTrie {
    nodes: Vec<TrieNode>,
    inputs: Interner,
    outputs: Interner,
    terminal_words: usize,
}

/// How a `(input, output, terminal)` path relates to the answers a trie
/// already holds (see [`PrefixTrie::coverage`]) — the decision the
/// journaled observation store makes per path when computing the delta an
/// append must write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PathCoverage {
    /// Every step of the path is cached with the same outputs, and the
    /// terminal marker (if requested) is already set: appending this path
    /// would add nothing.
    Covered,
    /// The path is consistent with the cached answers but extends them
    /// (fresh suffix symbols and/or a new terminal marker).
    Fresh,
    /// A cached step answers differently: the trie and the path describe
    /// different SUL behaviour.
    Contradicts,
}

/// A point in a trie's append-only history, taken by
/// [`PrefixTrie::mark`]: the node count, the terminal count, and which of
/// the marked nodes were terminal.  A trie only ever appends nodes and
/// sets terminal markers, so for the marked trie and every *descendant* of
/// it (the same trie after further inserts) the mark tells what is new in
/// constant space per node: nodes at an index past the marked count, and
/// marked nodes that are terminal now but were not then.  The journal
/// store keeps one per checked-out entry to find the delta a commit must
/// append.
#[derive(Clone, Debug)]
pub struct TrieMark {
    nodes: usize,
    terminal_words: usize,
    /// Terminal bitset over the marked nodes.
    terminals: Vec<u64>,
}

impl TrieMark {
    /// Whether marked node `node` was terminal at the mark.
    fn was_terminal(&self, node: usize) -> bool {
        self.terminals
            .get(node / 64)
            .is_some_and(|word| word & (1 << (node % 64)) != 0)
    }
}

/// One shortest conflicting prefix between two tries' cached answers (see
/// [`PrefixTrie::divergences`]): both tries answered `input`, with
/// different final output symbols.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrieDivergence {
    /// The shortest input word on which the cached answers disagree.
    pub input: InputWord,
    /// Final output symbol recorded by the left (`self`) trie.
    pub left_output: Symbol,
    /// Final output symbol recorded by the right (`other`) trie.
    pub right_output: Symbol,
}

impl Default for PrefixTrie {
    fn default() -> Self {
        PrefixTrie::new()
    }
}

impl PrefixTrie {
    /// An empty trie.
    pub fn new() -> Self {
        PrefixTrie {
            nodes: vec![TrieNode::root()],
            inputs: Interner::new(),
            outputs: Interner::new(),
            terminal_words: 0,
        }
    }

    /// Number of distinct words recorded as full queries.
    pub fn terminal_words(&self) -> usize {
        self.terminal_words
    }

    /// Number of trie nodes (≈ distinct symbols stored + root).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Encodes an input word against this trie's interner, minting ids for
    /// fresh symbols.  The returned [`IWord`] can be used with the `_ids`
    /// entry points for string-free lookups and inserts.
    pub fn encode_input(&mut self, input: &InputWord) -> IWord {
        self.inputs.encode(input)
    }

    /// Compares two encoded words by the string order of their symbols —
    /// identical to comparing the decoded `InputWord`s.  This is the order
    /// the batch-dedup layer forwards deduplicated queries in.
    pub fn compare_id_words(&self, a: &[SymbolId], b: &[SymbolId]) -> std::cmp::Ordering {
        self.inputs.compare_words(a, b)
    }

    /// Length of the longest prefix of `input` whose outputs are all known.
    pub fn known_prefix_len(&self, input: &InputWord) -> usize {
        let mut node = 0;
        for (depth, symbol) in input.iter().enumerate() {
            match self
                .inputs
                .lookup(symbol)
                .and_then(|id| self.nodes[node].child(id))
            {
                Some(child) => node = child,
                None => return depth,
            }
        }
        input.len()
    }

    /// Looks up the full answer for `input`, if every step is cached.
    pub fn lookup(&self, input: &InputWord) -> Option<OutputWord> {
        let mut node = 0;
        let mut out = OutputWord::empty();
        for symbol in input.iter() {
            let id = self.inputs.lookup(symbol)?;
            node = self.nodes[node].child(id)?;
            out.push(self.outputs.resolve(self.nodes[node].output).clone());
        }
        Some(out)
    }

    /// Id-word form of [`PrefixTrie::lookup`]: no string hashing per step.
    pub fn lookup_ids(&self, input: &[SymbolId]) -> Option<OutputWord> {
        let mut node = 0;
        let mut out = OutputWord::empty();
        for &id in input {
            node = self.nodes[node].child(id)?;
            out.push(self.outputs.resolve(self.nodes[node].output).clone());
        }
        Some(out)
    }

    /// Marks `input` as having been asked as a full query.  Returns `true`
    /// when this is the first time (the word is new to the distinct count).
    ///
    /// # Panics
    /// Panics when `input` is not fully present in the trie.
    pub fn mark_terminal(&mut self, input: &InputWord) -> bool {
        let mut node = 0;
        for symbol in input.iter() {
            node = self
                .inputs
                .lookup(symbol)
                .and_then(|id| self.nodes[node].child(id))
                .expect("mark_terminal requires a fully cached word");
        }
        self.mark_terminal_node(node)
    }

    /// Id-word form of [`PrefixTrie::mark_terminal`].
    ///
    /// # Panics
    /// Panics when `input` is not fully present in the trie.
    pub fn mark_terminal_ids(&mut self, input: &[SymbolId]) -> bool {
        let mut node = 0;
        for &id in input {
            node = self.nodes[node]
                .child(id)
                .expect("mark_terminal requires a fully cached word");
        }
        self.mark_terminal_node(node)
    }

    fn mark_terminal_node(&mut self, node: usize) -> bool {
        if self.nodes[node].terminal {
            false
        } else {
            self.nodes[node].terminal = true;
            self.terminal_words += 1;
            true
        }
    }

    /// Inserts a full (input, output) answer, extending the cached paths.
    /// Returns the number of newly created nodes — the symbols of `input`
    /// that were *not* already covered by a cached prefix, i.e. the fresh
    /// work the SUL performed for this answer.
    ///
    /// # Panics
    /// Panics when `output` is shorter than `input`, or when a step
    /// contradicts an already-cached output (the SUL must be deterministic;
    /// nondeterminism is detected by `prognosis-core`'s checker, not here).
    pub fn insert(&mut self, input: &InputWord, output: &OutputWord) -> usize {
        self.try_insert(input, output)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`PrefixTrie::insert`], but reports length mismatches and
    /// contradictory outputs as errors instead of panicking.  Used when
    /// rebuilding a trie from untrusted (on-disk) data.
    ///
    /// On error the input's consistent prefix may already have been
    /// inserted; callers rebuilding from disk discard the whole trie.
    pub fn try_insert(&mut self, input: &InputWord, output: &OutputWord) -> Result<usize, String> {
        let ids = self.inputs.encode(input);
        self.try_insert_ids(ids.as_slice(), output)
    }

    /// Id-word form of [`PrefixTrie::try_insert`]: the input arrives
    /// pre-encoded (no string hashing), only output symbols are interned.
    pub fn try_insert_ids(
        &mut self,
        input: &[SymbolId],
        output: &OutputWord,
    ) -> Result<usize, String> {
        if input.len() != output.len() {
            return Err("one output symbol per input symbol".to_string());
        }
        let mut node = 0;
        let mut created = 0;
        for (&id, out) in input.iter().zip(output.iter()) {
            match self.nodes[node].child(id) {
                Some(child) => {
                    node = child;
                    if self.outputs.resolve(self.nodes[node].output) != out {
                        return Err("prefix trie: SUL answered a cached prefix differently \
                             (nondeterministic SUL?)"
                            .to_string());
                    }
                }
                None => {
                    let out_id = self.outputs.intern(out);
                    let child = self.nodes.len();
                    self.nodes.push(TrieNode {
                        children: Vec::new(),
                        output: out_id.raw(),
                        terminal: false,
                    });
                    self.nodes[node].set_child(id, child);
                    node = child;
                    created += 1;
                }
            }
        }
        Ok(created)
    }

    /// The id of input symbol `symbol`, minting one on first sight — the
    /// per-symbol form of [`PrefixTrie::encode_input`].
    pub fn intern_input(&mut self, symbol: &Symbol) -> SymbolId {
        self.inputs.intern(symbol)
    }

    /// The id of output symbol `symbol` in this trie's output interner,
    /// minting one on first sight.  [`PrefixTrie::apply_path_ids`] takes
    /// output words in these ids.
    pub fn intern_output(&mut self, symbol: &Symbol) -> SymbolId {
        self.outputs.intern(symbol)
    }

    /// Applies one `(input, output, terminal)` path in a single walk:
    /// classifies it like [`PrefixTrie::coverage`], and when it is
    /// [`PathCoverage::Fresh`] also inserts the fresh suffix and sets the
    /// terminal marker before returning.  A contradicting path leaves the
    /// trie's answers untouched (its symbols may have been interned).
    ///
    /// Errors only on a length mismatch (corrupt record).
    pub fn apply_path(
        &mut self,
        input: &[Symbol],
        output: &[Symbol],
        terminal: bool,
    ) -> Result<PathCoverage, String> {
        if input.len() != output.len() {
            return Err("one output symbol per input symbol".to_string());
        }
        let input: Vec<SymbolId> = input.iter().map(|s| self.inputs.intern(s)).collect();
        let output: Vec<SymbolId> = output.iter().map(|s| self.outputs.intern(s)).collect();
        self.apply_path_ids(&input, &output, terminal)
    }

    /// Id-word form of [`PrefixTrie::apply_path`] — the journal-replay
    /// fast path: one trie walk per record, outputs compared as `u32`s, no
    /// string hashing.  `input` holds ids of this trie's input interner
    /// ([`PrefixTrie::intern_input`]), `output` ids of its output interner
    /// ([`PrefixTrie::intern_output`]).
    ///
    /// Errors on a length mismatch or on an id neither interner minted.
    pub fn apply_path_ids(
        &mut self,
        input: &[SymbolId],
        output: &[SymbolId],
        terminal: bool,
    ) -> Result<PathCoverage, String> {
        if input.len() != output.len() {
            return Err("one output symbol per input symbol".to_string());
        }
        let mut node = 0;
        let mut depth = 0;
        // Walk the cached prefix, checking outputs.  No mutation can have
        // happened yet when a contradiction is found, so a contradicting
        // path leaves the trie untouched.
        while depth < input.len() {
            match self.nodes[node].child(input[depth]) {
                Some(child) => {
                    if self.nodes[child].output != output[depth].raw() {
                        return Ok(PathCoverage::Contradicts);
                    }
                    node = child;
                    depth += 1;
                }
                None => break,
            }
        }
        if input[depth..]
            .iter()
            .zip(&output[depth..])
            .any(|(i, o)| i.index() >= self.inputs.len() || o.index() >= self.outputs.len())
        {
            return Err("symbol id not minted by this trie".to_string());
        }
        let mut fresh = depth < input.len();
        // Create the fresh suffix (nothing cached below a missing edge).
        while depth < input.len() {
            let child = self.nodes.len();
            self.nodes.push(TrieNode {
                children: Vec::new(),
                output: output[depth].raw(),
                terminal: false,
            });
            self.nodes[node].set_child(input[depth], child);
            node = child;
            depth += 1;
        }
        if terminal && !self.nodes[node].terminal {
            self.nodes[node].terminal = true;
            self.terminal_words += 1;
            fresh = true;
        }
        Ok(if fresh {
            PathCoverage::Fresh
        } else {
            PathCoverage::Covered
        })
    }

    /// All words recorded as full queries, with their answers, in
    /// depth-first order.
    pub fn entries(&self) -> Vec<(InputWord, OutputWord)> {
        let mut result = Vec::new();
        let mut input = Vec::new();
        let mut output = Vec::new();
        self.collect(0, &mut input, &mut output, &mut result);
        result
    }

    fn collect(
        &self,
        node: usize,
        input: &mut Vec<Symbol>,
        output: &mut Vec<Symbol>,
        result: &mut Vec<(InputWord, OutputWord)>,
    ) {
        if self.nodes[node].terminal {
            result.push((
                input.iter().cloned().collect(),
                output.iter().cloned().collect(),
            ));
        }
        // Rank order = string order: deterministic listings with no per-node
        // sort allocation.
        for &id in self.inputs.ids_in_order() {
            if let Some(child) = self.nodes[node].child(id) {
                input.push(self.inputs.resolve(id).clone());
                output.push(self.outputs.resolve(self.nodes[child].output).clone());
                self.collect(child, input, output, result);
                input.pop();
                output.pop();
            }
        }
    }

    /// Compares two tries' cached answers and returns every *shortest
    /// conflicting prefix*: an input word both tries have an answer for,
    /// whose final output symbols disagree.  Exploration stops at the first
    /// divergence on each branch (everything below it differs trivially),
    /// and words are returned in breadth-first order — shortest first, ties
    /// broken by input-symbol order — so the listing is deterministic and
    /// leads with the most actionable regressions.  `limit` caps the count
    /// (0 = unlimited).
    ///
    /// Words are materialized only for actual divergences: the frontier
    /// carries back-pointers into an edge arena instead of cloning a word
    /// per visited edge.
    ///
    /// This is the regression-detection mode of the versioned observation
    /// cache: diffing the cache entries of two *versions* of the same
    /// implementation surfaces exactly the queries on which the new version
    /// changed behaviour, without re-learning either model.
    pub fn divergences(&self, other: &PrefixTrie, limit: usize) -> Vec<TrieDivergence> {
        const ROOT_TRAIL: usize = usize::MAX;
        let mut found = Vec::new();
        // (parent trail index, symbol of the edge) — reconstructed lazily.
        let mut trails: Vec<(usize, Symbol)> = Vec::new();
        let mut queue: std::collections::VecDeque<(usize, usize, usize)> =
            std::collections::VecDeque::new();
        queue.push_back((0, 0, ROOT_TRAIL));
        while let Some((left, right, trail)) = queue.pop_front() {
            if limit > 0 && found.len() >= limit {
                break;
            }
            // Left children in rank (string) order; the two tries intern
            // independently, so edges are matched by symbol, not id.
            for &lid in self.inputs.ids_in_order() {
                let Some(lc) = self.nodes[left].child(lid) else {
                    continue;
                };
                let symbol = self.inputs.resolve(lid);
                let Some(rc) = other
                    .inputs
                    .lookup(symbol)
                    .and_then(|rid| other.nodes[right].child(rid))
                else {
                    continue;
                };
                let lo = self.outputs.resolve(self.nodes[lc].output);
                let ro = other.outputs.resolve(other.nodes[rc].output);
                if lo != ro {
                    if limit == 0 || found.len() < limit {
                        let mut word = vec![symbol.clone()];
                        let mut cursor = trail;
                        while cursor != ROOT_TRAIL {
                            word.push(trails[cursor].1.clone());
                            cursor = trails[cursor].0;
                        }
                        word.reverse();
                        found.push(TrieDivergence {
                            input: word.into_iter().collect(),
                            left_output: lo.clone(),
                            right_output: ro.clone(),
                        });
                    }
                } else {
                    trails.push((trail, symbol.clone()));
                    queue.push_back((lc, rc, trails.len() - 1));
                }
            }
        }
        found
    }

    /// A lossless, layout-independent dump of the trie: every terminal node
    /// and every leaf, as `(input path, output path, is_terminal)` triples
    /// in depth-first order.  Rebuilding via [`PrefixTrie::from_paths`]
    /// reproduces the exact node set and terminal markers, because every
    /// node lies on the path to some leaf and every terminal is flagged.
    pub fn paths(&self) -> Vec<(InputWord, OutputWord, bool)> {
        let mut result = Vec::new();
        self.for_each_path(|input, output, terminal| {
            result.push((
                input.iter().cloned().collect(),
                output.iter().cloned().collect(),
                terminal,
            ));
        });
        result
    }

    /// Streaming form of [`PrefixTrie::paths`]: visits every maximal path
    /// as borrowed symbol slices, in the same deterministic depth-first
    /// order, without materializing the path list.  The journaled
    /// observation store encodes records straight out of this visitor, so
    /// serializing a million-entry trie allocates no intermediate words.
    pub fn for_each_path<F: FnMut(&[Symbol], &[Symbol], bool)>(&self, mut f: F) {
        let mut input = Vec::new();
        let mut output = Vec::new();
        self.visit_paths(0, &mut input, &mut output, &|_| true, &mut f);
    }

    /// Records this trie's place in its append-only history (see
    /// [`TrieMark`]).  Costs one pass over the nodes.
    pub fn mark(&self) -> TrieMark {
        let mut terminals = vec![0u64; self.nodes.len().div_ceil(64)];
        for (index, node) in self.nodes.iter().enumerate() {
            if node.terminal {
                terminals[index / 64] |= 1 << (index % 64);
            }
        }
        TrieMark {
            nodes: self.nodes.len(),
            terminal_words: self.terminal_words,
            terminals,
        }
    }

    /// Whether this trie holds nothing beyond `mark`, in `O(1)`: no node
    /// was added and no terminal marker set since.  `self` must be the
    /// marked trie or a descendant of it (see [`TrieMark`]).
    pub fn unchanged_since(&self, mark: &TrieMark) -> bool {
        self.nodes.len() == mark.nodes && self.terminal_words == mark.terminal_words
    }

    /// [`PrefixTrie::for_each_path`] restricted to the paths that are
    /// fresh against `mark`: those whose end node was created or first
    /// marked terminal since.  These are exactly the paths
    /// [`PrefixTrie::coverage`] classifies as [`PathCoverage::Fresh`]
    /// against the marked trie, visited in the same order — the delta a
    /// journal append writes, found without a second trie.  `self` must be
    /// the marked trie or a descendant of it (see [`TrieMark`]).
    pub fn for_each_path_since<F: FnMut(&[Symbol], &[Symbol], bool)>(
        &self,
        mark: &TrieMark,
        mut f: F,
    ) {
        let fresh = |node: usize| {
            node >= mark.nodes || (self.nodes[node].terminal && !mark.was_terminal(node))
        };
        let mut input = Vec::new();
        let mut output = Vec::new();
        self.visit_paths(0, &mut input, &mut output, &fresh, &mut f);
    }

    /// Visits the maximal paths below `node` whose end node passes `keep`
    /// (a non-terminal leaf is kept only when `keep` accepts it too).
    fn visit_paths<F: FnMut(&[Symbol], &[Symbol], bool), K: Fn(usize) -> bool>(
        &self,
        node: usize,
        input: &mut Vec<Symbol>,
        output: &mut Vec<Symbol>,
        keep: &K,
        f: &mut F,
    ) {
        let is_leaf = !self.nodes[node].has_children();
        // The root is emitted only when marked terminal (an ε query was
        // asked); an empty trie dumps to an empty list.
        if (self.nodes[node].terminal || (is_leaf && node != 0)) && keep(node) {
            f(input, output, self.nodes[node].terminal);
        }
        for &id in self.inputs.ids_in_order() {
            if let Some(child) = self.nodes[node].child(id) {
                input.push(self.inputs.resolve(id).clone());
                output.push(self.outputs.resolve(self.nodes[child].output).clone());
                self.visit_paths(child, input, output, keep, f);
                input.pop();
                output.pop();
            }
        }
    }

    /// Number of maximal paths [`PrefixTrie::for_each_path`] would visit —
    /// the live-record count of a fully compacted journal segment holding
    /// this trie.  Counts terminal nodes plus non-terminal leaves.
    pub fn path_count(&self) -> usize {
        let mut terminals_or_leaves = 0;
        for (index, node) in self.nodes.iter().enumerate() {
            if node.terminal || (!node.has_children() && index != 0) {
                terminals_or_leaves += 1;
            }
        }
        terminals_or_leaves
    }

    /// Whether `input` is fully cached *and* marked as a full query.
    pub fn is_terminal(&self, input: &InputWord) -> bool {
        let mut node = 0;
        for symbol in input.iter() {
            match self
                .inputs
                .lookup(symbol)
                .and_then(|id| self.nodes[node].child(id))
            {
                Some(child) => node = child,
                None => return false,
            }
        }
        self.nodes[node].terminal
    }

    /// Classifies a `(input, output, terminal)` path against this trie's
    /// cached answers without mutating anything: [`PathCoverage::Covered`]
    /// when appending it would change nothing, [`PathCoverage::Fresh`] when
    /// it extends the cache consistently, [`PathCoverage::Contradicts`]
    /// when a cached step answers differently.  This is the per-path
    /// decision procedure of the journal store's delta appends.
    pub fn coverage(&self, input: &[Symbol], output: &[Symbol], terminal: bool) -> PathCoverage {
        debug_assert_eq!(input.len(), output.len());
        let mut node = 0;
        for (symbol, out) in input.iter().zip(output.iter()) {
            match self
                .inputs
                .lookup(symbol)
                .and_then(|id| self.nodes[node].child(id))
            {
                Some(child) => {
                    if self.outputs.resolve(self.nodes[child].output) != out {
                        return PathCoverage::Contradicts;
                    }
                    node = child;
                }
                None => return PathCoverage::Fresh,
            }
        }
        if terminal && !self.nodes[node].terminal {
            PathCoverage::Fresh
        } else {
            PathCoverage::Covered
        }
    }

    /// Rebuilds a trie from a [`PrefixTrie::paths`] dump.  Fails when a
    /// triple pairs words of different lengths or contradicts another
    /// triple's outputs (corrupt or hand-edited cache data).
    pub fn from_paths(paths: &[(InputWord, OutputWord, bool)]) -> Result<Self, String> {
        let mut trie = PrefixTrie::new();
        for (input, output, terminal) in paths {
            trie.try_insert(input, output)?;
            if *terminal {
                trie.mark_terminal(input);
            }
        }
        Ok(trie)
    }

    /// Inserts every path of `other` into `self`, unioning the two caches.
    /// Terminal markers are preserved.  Used when persisting: a freshly
    /// learned trie is merged over whatever an earlier run left on disk.
    ///
    /// # Panics
    /// Panics when the tries contradict each other (they must describe the
    /// same deterministic SUL).  Use [`PrefixTrie::try_merge_from`] when
    /// `other` comes from untrusted (on-disk) data.
    pub fn merge_from(&mut self, other: &PrefixTrie) {
        self.try_merge_from(other).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`PrefixTrie::merge_from`], but reports contradictions between
    /// the two tries as an error instead of panicking.  On error `self` may
    /// hold a partial merge; callers discard it (the caches disagree, so
    /// one of them must win wholesale).
    pub fn try_merge_from(&mut self, other: &PrefixTrie) -> Result<(), String> {
        let mut failure = None;
        other.for_each_path(|input, output, terminal| {
            if failure.is_some() {
                return;
            }
            match self.apply_path(input, output, terminal) {
                Ok(PathCoverage::Contradicts) => {
                    failure = Some(
                        "prefix trie: SUL answered a cached prefix differently \
                             (nondeterministic SUL?)"
                            .to_string(),
                    );
                }
                Ok(_) => {}
                Err(e) => failure = Some(e),
            }
        });
        match failure {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(symbols: &[&str]) -> InputWord {
        InputWord::from_symbols(symbols.iter().copied())
    }

    fn o(symbols: &[&str]) -> OutputWord {
        OutputWord::from_symbols(symbols.iter().copied())
    }

    #[test]
    fn cached_word_answers_all_prefixes() {
        let mut trie = PrefixTrie::new();
        trie.insert(&w(&["a", "b", "c"]), &o(&["1", "2", "3"]));
        assert_eq!(trie.lookup(&w(&["a", "b", "c"])), Some(o(&["1", "2", "3"])));
        assert_eq!(trie.lookup(&w(&["a", "b"])), Some(o(&["1", "2"])));
        assert_eq!(trie.lookup(&w(&["a"])), Some(o(&["1"])));
        assert_eq!(trie.lookup(&InputWord::empty()), Some(OutputWord::empty()));
        assert_eq!(trie.lookup(&w(&["b"])), None);
        assert_eq!(trie.lookup(&w(&["a", "b", "c", "d"])), None);
    }

    #[test]
    fn known_prefix_len_reports_partial_coverage() {
        let mut trie = PrefixTrie::new();
        trie.insert(&w(&["a", "b"]), &o(&["1", "2"]));
        assert_eq!(trie.known_prefix_len(&w(&["a", "b", "c"])), 2);
        assert_eq!(trie.known_prefix_len(&w(&["a", "x"])), 1);
        assert_eq!(trie.known_prefix_len(&w(&["x"])), 0);
    }

    #[test]
    fn terminal_marks_count_distinct_queries() {
        let mut trie = PrefixTrie::new();
        trie.insert(&w(&["a", "b"]), &o(&["1", "2"]));
        assert!(trie.mark_terminal(&w(&["a", "b"])));
        assert!(!trie.mark_terminal(&w(&["a", "b"])));
        assert!(trie.mark_terminal(&w(&["a"])));
        assert_eq!(trie.terminal_words(), 2);
        let entries = trie.entries();
        assert_eq!(entries.len(), 2);
        assert!(entries.contains(&(w(&["a"]), o(&["1"]))));
        assert!(entries.contains(&(w(&["a", "b"]), o(&["1", "2"]))));
    }

    #[test]
    #[should_panic(expected = "nondeterministic")]
    fn contradictory_outputs_are_rejected() {
        let mut trie = PrefixTrie::new();
        trie.insert(&w(&["a"]), &o(&["1"]));
        trie.insert(&w(&["a"]), &o(&["2"]));
    }

    #[test]
    fn insert_counts_newly_created_nodes() {
        let mut trie = PrefixTrie::new();
        assert_eq!(trie.insert(&w(&["a", "b"]), &o(&["1", "2"])), 2);
        // Re-inserting is free; extending pays only for the fresh suffix.
        assert_eq!(trie.insert(&w(&["a", "b"]), &o(&["1", "2"])), 0);
        assert_eq!(trie.insert(&w(&["a", "b", "c"]), &o(&["1", "2", "3"])), 1);
        assert_eq!(trie.insert(&w(&["a", "x"]), &o(&["1", "9"])), 1);
    }

    #[test]
    fn id_entry_points_match_string_api() {
        let mut trie = PrefixTrie::new();
        let word = w(&["a", "b"]);
        let ids = trie.encode_input(&word);
        assert_eq!(trie.lookup_ids(ids.as_slice()), None);
        assert_eq!(trie.try_insert_ids(ids.as_slice(), &o(&["1", "2"])), Ok(2));
        assert_eq!(trie.lookup_ids(ids.as_slice()), Some(o(&["1", "2"])));
        assert_eq!(trie.lookup(&word), Some(o(&["1", "2"])));
        assert!(trie.mark_terminal_ids(ids.as_slice()));
        assert!(!trie.mark_terminal(&word));
        assert!(trie.is_terminal(&word));
        // Encoding is stable: re-encoding yields the same ids.
        assert_eq!(trie.encode_input(&word), ids);
        // Contradiction through the id path reports the same error.
        let err = trie
            .try_insert_ids(ids.as_slice(), &o(&["1", "9"]))
            .unwrap_err();
        assert!(err.contains("nondeterministic"));
    }

    #[test]
    fn compare_id_words_matches_string_order() {
        let mut trie = PrefixTrie::new();
        // Intern out of lexicographic order.
        let wb = trie.encode_input(&w(&["b"]));
        let wab = trie.encode_input(&w(&["a", "b"]));
        let wa = trie.encode_input(&w(&["a"]));
        assert_eq!(
            trie.compare_id_words(wa.as_slice(), wab.as_slice()),
            std::cmp::Ordering::Less
        );
        assert_eq!(
            trie.compare_id_words(wab.as_slice(), wb.as_slice()),
            std::cmp::Ordering::Less
        );
        assert_eq!(
            trie.compare_id_words(wb.as_slice(), wb.as_slice()),
            std::cmp::Ordering::Equal
        );
    }

    #[test]
    fn apply_path_single_pass_matches_coverage_then_insert() {
        let mut trie = PrefixTrie::new();
        assert_eq!(
            trie.apply_path(w(&["a", "b"]).as_slice(), o(&["1", "2"]).as_slice(), true),
            Ok(PathCoverage::Fresh)
        );
        assert_eq!(trie.terminal_words(), 1);
        // Covered: nothing changes.
        assert_eq!(
            trie.apply_path(w(&["a", "b"]).as_slice(), o(&["1", "2"]).as_slice(), true),
            Ok(PathCoverage::Covered)
        );
        assert_eq!(trie.num_nodes(), 3);
        // A new terminal marker alone is fresh.
        assert_eq!(
            trie.apply_path(w(&["a"]).as_slice(), o(&["1"]).as_slice(), true),
            Ok(PathCoverage::Fresh)
        );
        assert_eq!(trie.terminal_words(), 2);
        // Contradiction mutates nothing.
        let before = trie.paths();
        assert_eq!(
            trie.apply_path(
                w(&["a", "b", "c"]).as_slice(),
                o(&["1", "9", "3"]).as_slice(),
                true
            ),
            Ok(PathCoverage::Contradicts)
        );
        assert_eq!(trie.paths(), before);
        // Length mismatch errors.
        assert!(trie
            .apply_path(w(&["a", "b"]).as_slice(), o(&["1"]).as_slice(), false)
            .is_err());
    }

    #[test]
    fn paths_since_a_mark_are_the_fresh_paths_against_it() {
        let mut trie = PrefixTrie::new();
        trie.insert(&w(&["a", "b"]), &o(&["1", "2"]));
        trie.mark_terminal(&w(&["a", "b"]));
        trie.insert(&w(&["c"]), &o(&["3"]));
        let marked = trie.clone();
        let mark = trie.mark();
        assert!(trie.unchanged_since(&mark));
        // Re-asking cached words adds nothing.
        trie.insert(&w(&["a", "b"]), &o(&["1", "2"]));
        trie.mark_terminal(&w(&["a", "b"]));
        assert!(trie.unchanged_since(&mark));
        // A new terminal on an old node, a new branch, an extended leaf.
        trie.mark_terminal(&w(&["a"]));
        trie.insert(&w(&["a", "x"]), &o(&["1", "9"]));
        trie.insert(&w(&["c", "d"]), &o(&["3", "4"]));
        assert!(!trie.unchanged_since(&mark));
        let mut since = Vec::new();
        trie.for_each_path_since(&mark, |input, output, terminal| {
            since.push((input.to_vec(), output.to_vec(), terminal));
        });
        let mut fresh = Vec::new();
        trie.for_each_path(|input, output, terminal| {
            if marked.coverage(input, output, terminal) == PathCoverage::Fresh {
                fresh.push((input.to_vec(), output.to_vec(), terminal));
            }
        });
        assert_eq!(since, fresh);
        assert_eq!(since.len(), 3);
    }

    #[test]
    fn paths_round_trip_preserves_lookups_and_terminals() {
        let mut trie = PrefixTrie::new();
        trie.insert(&w(&["a", "b", "c"]), &o(&["1", "2", "3"]));
        trie.mark_terminal(&w(&["a", "b", "c"]));
        trie.mark_terminal(&w(&["a"]));
        trie.insert(&w(&["a", "x"]), &o(&["1", "9"]));
        let rebuilt = PrefixTrie::from_paths(&trie.paths()).unwrap();
        assert_eq!(rebuilt.num_nodes(), trie.num_nodes());
        assert_eq!(rebuilt.terminal_words(), trie.terminal_words());
        for word in [
            w(&["a"]),
            w(&["a", "b"]),
            w(&["a", "b", "c"]),
            w(&["a", "x"]),
        ] {
            assert_eq!(rebuilt.lookup(&word), trie.lookup(&word));
        }
        assert_eq!(rebuilt.entries(), trie.entries());
        // The non-terminal leaf `a·x` survives even though `entries` (which
        // lists only full queries) does not mention it.
        assert_eq!(rebuilt.lookup(&w(&["a", "x"])), Some(o(&["1", "9"])));
    }

    #[test]
    fn sorted_iteration_is_stable_under_intern_order() {
        // Two tries with the same content but different first-intern
        // orders must produce identical path listings (string order).
        let mut forward = PrefixTrie::new();
        forward.insert(&w(&["a"]), &o(&["1"]));
        forward.insert(&w(&["b"]), &o(&["2"]));
        forward.insert(&w(&["c"]), &o(&["3"]));
        let mut reverse = PrefixTrie::new();
        reverse.insert(&w(&["c"]), &o(&["3"]));
        reverse.insert(&w(&["b"]), &o(&["2"]));
        reverse.insert(&w(&["a"]), &o(&["1"]));
        assert_eq!(forward.paths(), reverse.paths());
        assert_eq!(forward.entries(), reverse.entries());
    }

    #[test]
    fn root_terminal_survives_the_round_trip() {
        let mut trie = PrefixTrie::new();
        trie.mark_terminal(&InputWord::empty());
        let rebuilt = PrefixTrie::from_paths(&trie.paths()).unwrap();
        assert_eq!(rebuilt.terminal_words(), 1);
        assert_eq!(rebuilt.entries(), trie.entries());
    }

    #[test]
    fn from_paths_rejects_contradictions_without_panicking() {
        let paths = vec![(w(&["a"]), o(&["1"]), true), (w(&["a"]), o(&["2"]), true)];
        assert!(PrefixTrie::from_paths(&paths).is_err());
        let bad_len = vec![(w(&["a", "b"]), o(&["1"]), true)];
        assert!(PrefixTrie::from_paths(&bad_len).is_err());
    }

    #[test]
    fn merge_from_unions_two_tries() {
        let mut a = PrefixTrie::new();
        a.insert(&w(&["a", "b"]), &o(&["1", "2"]));
        a.mark_terminal(&w(&["a", "b"]));
        let mut b = PrefixTrie::new();
        b.insert(&w(&["a", "c"]), &o(&["1", "3"]));
        b.mark_terminal(&w(&["a", "c"]));
        a.merge_from(&b);
        assert_eq!(a.terminal_words(), 2);
        assert_eq!(a.lookup(&w(&["a", "c"])), Some(o(&["1", "3"])));
        assert_eq!(a.lookup(&w(&["a", "b"])), Some(o(&["1", "2"])));
    }

    #[test]
    fn try_merge_from_reports_contradictions() {
        let mut a = PrefixTrie::new();
        a.insert(&w(&["a"]), &o(&["1"]));
        let mut b = PrefixTrie::new();
        b.insert(&w(&["a"]), &o(&["2"]));
        let err = a.try_merge_from(&b).unwrap_err();
        assert!(err.contains("nondeterministic"));
    }

    #[test]
    fn divergences_report_shortest_conflicting_prefixes_only() {
        // Version A answers a·b → 1·2 and c → 5; version B changed the
        // output after a·b and also everything under c.
        let mut a = PrefixTrie::new();
        a.insert(&w(&["a", "b", "x"]), &o(&["1", "2", "7"]));
        a.insert(&w(&["c", "d"]), &o(&["5", "6"]));
        let mut b = PrefixTrie::new();
        b.insert(&w(&["a", "b", "x"]), &o(&["1", "9", "7"]));
        b.insert(&w(&["c", "d"]), &o(&["8", "6"]));
        let diffs = a.divergences(&b, 0);
        // c (length 1) precedes a·b (length 2); the conflicts *below* each
        // divergence (x after a·b, d after c) are suppressed.
        assert_eq!(diffs.len(), 2);
        assert_eq!(diffs[0].input, w(&["c"]));
        assert_eq!(diffs[0].left_output.as_str(), "5");
        assert_eq!(diffs[0].right_output.as_str(), "8");
        assert_eq!(diffs[1].input, w(&["a", "b"]));
        assert_eq!(diffs[1].left_output.as_str(), "2");
        assert_eq!(diffs[1].right_output.as_str(), "9");
        // Identical tries (or disjoint word sets) report nothing.
        assert!(a.divergences(&a.clone(), 0).is_empty());
        let mut disjoint = PrefixTrie::new();
        disjoint.insert(&w(&["z"]), &o(&["0"]));
        assert!(a.divergences(&disjoint, 0).is_empty());
        // The limit caps the listing.
        assert_eq!(a.divergences(&b, 1).len(), 1);
    }

    #[test]
    fn divergences_match_symbols_across_independent_interners() {
        // The shared symbol is interned at different ids in the two tries;
        // matching must go through the strings.
        let mut a = PrefixTrie::new();
        a.insert(&w(&["x"]), &o(&["0"]));
        a.insert(&w(&["s"]), &o(&["1"]));
        let mut b = PrefixTrie::new();
        b.insert(&w(&["s"]), &o(&["9"]));
        let diffs = a.divergences(&b, 0);
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].input, w(&["s"]));
        assert_eq!(diffs[0].left_output.as_str(), "1");
        assert_eq!(diffs[0].right_output.as_str(), "9");
    }
}

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
//! Internally the trie is fully *interned*: every node holds its input
//! and output as `SymbolId`s instead of strings, so an insert or lookup on
//! the hot path performs zero string hashing — symbols are resolved to ids
//! once per query (or arrive pre-encoded from the batch dedup layer) and to strings only at serialization boundaries.
//!
//! All nodes live in one arena `Vec` and link to each other by index: a
//! node names its first child and its next sibling, so a node costs 16
//! bytes and no heap block of its own, and the trie takes `O(nodes)` memory
//! whatever the alphabet size.  Each sibling list is kept in string order
//! of its inputs (a new child is linked in at its interner *rank*, and
//! interning a new symbol shifts ranks without reordering them), so the
//! sorted walks (entries, paths, divergences, the preorder stream) follow
//! the lists and reproduce string order exactly, regardless of the order
//! in which symbols were first interned (e.g. during a warm-start journal
//! replay).  A trie loaded from a checkpoint holds each sibling list in
//! consecutive arena slots (see `PreorderFill`), so a lookup reads one or
//! two cache lines per level; a child added later sits at the arena's end
//! and is linked into its list.
//!
//! The trie is also the unit of *cross-run persistence*: the journal
//! ([`crate::journal::JournalStore`]) checkpoints it as its preorder node
//! stream over string-ordered symbols (`PrefixTrie::for_each_node_preorder`,
//! rebuilt by `PreorderFill`) and appends later growth as `(input, output, terminal)` maximal-path
//! records ([`PrefixTrie::for_each_path`]).  Neither spells arena indices
//! or symbol ids, so the on-disk format is stable under node reordering
//! and survives refactors of the in-memory layout.

use prognosis_automata::alphabet::Symbol;
use prognosis_automata::interner::{Interner, SymbolId};
use prognosis_automata::word::{InputWord, OutputWord};

/// Sentinel for "no node" in the arena links.
const NO_ID: u32 = u32::MAX;

/// The bit of [`TrieNode::output`] that marks the node terminal.
const TERMINAL: u32 = 1 << 31;

/// One trie node: the edge into it and its links in the arena.
#[derive(Clone, Copy, Debug)]
struct TrieNode {
    /// Arena index of the node's first child in string order of the
    /// children's inputs, or `NO_ID` for a leaf.
    first_child: u32,
    /// Arena index of the parent's next child in that order, or `NO_ID`.
    next_sibling: u32,
    /// Input symbol id of the edge into this node (0 for the root).
    input: u32,
    /// Output symbol id (into the output interner) the SUL produced on the
    /// edge into this node (0 for the root), with [`TERMINAL`] set when a
    /// query ended exactly here (used by [`PrefixTrie::entries`] and the
    /// distinct-query count).
    output: u32,
}

const _: () = assert!(std::mem::size_of::<TrieNode>() == 16);

impl TrieNode {
    /// A childless, non-terminal node reached on `input` / `output`.
    fn leaf(input: u32, output: u32) -> Self {
        assert!(output < TERMINAL, "output symbol id overflow");
        TrieNode {
            first_child: NO_ID,
            next_sibling: NO_ID,
            input,
            output,
        }
    }

    #[inline]
    fn output(&self) -> u32 {
        self.output & !TERMINAL
    }

    #[inline]
    fn terminal(&self) -> bool {
        self.output & TERMINAL != 0
    }

    /// Marks the node terminal; `false` when it already was.
    fn set_terminal(&mut self) -> bool {
        let fresh = !self.terminal();
        self.output |= TERMINAL;
        fresh
    }
}

/// The arena indices of a sibling list, from `next` on.
struct Siblings<'a> {
    nodes: &'a [TrieNode],
    next: u32,
}

impl Iterator for Siblings<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        let node = self.next as usize;
        self.next = self.nodes.get(node)?.next_sibling;
        Some(node)
    }
}

/// A prefix-closed cache of membership-query answers.
#[derive(Clone, Debug)]
pub struct PrefixTrie {
    nodes: Vec<TrieNode>,
    inputs: Interner,
    outputs: Interner,
    terminal_words: usize,
    log: MarkLog,
}

/// The changes since the latest [`PrefixTrie::mark`] that touched nodes
/// existing at it — the part of a delta node indices cannot tell, since
/// every later node has a larger index.  Nothing is logged before the
/// first mark, so a trie that is never marked (or gains only nodes of its
/// own) logs nothing.
#[derive(Clone, Debug, Default)]
struct MarkLog {
    /// The node count at the latest mark: a change to a node below it is
    /// logged.
    watched: usize,
    /// Per change, the path from the root (excluded) to the node that
    /// turned terminal or gained a child, one path after another.
    touched: Vec<u32>,
    /// The logged nodes that turned terminal.
    terminals: Vec<u32>,
}

/// How a `(input, output, terminal)` path relates to the answers a trie
/// already holds, as [`PrefixTrie::apply_path_ids_along`] classifies it —
/// the decision the journaled observation store makes per path when
/// computing the delta an append must write.
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
/// [`PrefixTrie::mark`]: four counts, no per-node state.  A trie only ever
/// appends nodes and sets terminal markers, so for the marked trie and
/// every *descendant* of it (the same trie after further inserts) the mark
/// tells what is new: nodes at an index past the marked node count, and
/// the marked nodes the trie logged turning terminal since (it logs a
/// change to a marked node from the mark on, with the path leading to
/// it).  The journal store keeps one per checked-out entry to find the
/// delta a commit must append.
#[derive(Clone, Debug)]
pub struct TrieMark {
    nodes: usize,
    terminal_words: usize,
    /// The lengths of the trie's [`MarkLog`] lists at the mark.
    touched: usize,
    terminals: usize,
}

/// One node of a trie's preorder stream (see
/// [`PrefixTrie::for_each_node_preorder`] and [`PreorderFill`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct PreorderNode {
    /// The edge into the node as `(input, output)` indices into the
    /// stream's input and output symbol lists; `None` for the root.
    pub(crate) edge: Option<(u32, u32)>,
    /// Whether a query ended exactly here.
    pub(crate) terminal: bool,
    /// How many children follow the node in the stream, each with its
    /// subtree.
    pub(crate) children: usize,
}

/// Rebuilds a [`PrefixTrie`] from a preorder node stream in one bulk arena
/// fill, with no path walk and no coverage check.  A node that announces
/// `k` children gets the next `k` arena slots as its children's block, and
/// each child takes its slot as it arrives, so a loaded trie keeps every
/// sibling list side by side in the arena: a lookup scans one or two
/// cache lines per level instead of hopping across subtrees.  The stream
/// is untrusted (it comes off disk), so every node is validated as it
/// arrives — the root first and only first, symbol indices in range, no
/// more children than distinct inputs, each node's children strictly
/// ascending in input, no block past the fill's node bound — and
/// [`PreorderFill::finish`] fails unless the child counts were met
/// exactly.  Every check is `O(1)` per node, and the arena never holds
/// more than the node bound.
pub(crate) struct PreorderFill {
    trie: PrefixTrie,
    /// `(first, next, end)` of each children block still filling,
    /// innermost last: the block is arena slots `first..end`, and the next
    /// child to arrive takes slot `next`.
    open: Vec<(u32, u32, u32)>,
    /// The most nodes the arena may hold.
    max_nodes: usize,
    root_seen: bool,
}

impl PreorderFill {
    /// A fill of at most `max_nodes` nodes over the given symbol lists,
    /// each already interned: stream index `i` is symbol id `i`.  Each list
    /// must have been interned in strictly ascending string order, as
    /// [`PrefixTrie::input_symbols`] and [`PrefixTrie::output_symbols`] list
    /// them, so id `i` is also rank `i`.  The arena reserves the power of
    /// two that growing it node by node would reach: room for inserts after
    /// the fill, and the few block sizes an allocator reuses from one load
    /// to the next.
    pub(crate) fn new(
        inputs: Interner,
        outputs: Interner,
        max_nodes: usize,
    ) -> Result<Self, &'static str> {
        for interner in [&inputs, &outputs] {
            let in_order = interner.ids_in_order().iter().enumerate();
            if in_order.into_iter().any(|(rank, id)| id.index() != rank) {
                return Err("symbols out of string order");
            }
        }
        let mut trie = PrefixTrie {
            inputs,
            outputs,
            ..PrefixTrie::new()
        };
        trie.nodes.reserve(max_nodes.next_power_of_two());
        Ok(PreorderFill {
            trie,
            open: Vec::new(),
            max_nodes,
            root_seen: false,
        })
    }

    /// Places the next node of the stream.
    #[inline]
    pub(crate) fn push(&mut self, node: PreorderNode) -> Result<(), &'static str> {
        if node.children > self.trie.inputs.len() {
            return Err("more children than distinct inputs");
        }
        let index = match (node.edge, self.root_seen) {
            (Some((input, output)), true) => self.push_child(input, output)?,
            (None, false) => {
                self.root_seen = true;
                0
            }
            (None, true) => return Err("a second root"),
            (Some(_), false) => return Err("the stream must open with the root"),
        };
        if node.terminal {
            self.trie.nodes[index].set_terminal();
            self.trie.terminal_words += 1;
        }
        if node.children > 0 {
            let first = self.trie.nodes.len();
            let end = first + node.children;
            if end > self.max_nodes {
                return Err("more nodes than the fill holds");
            }
            self.trie.nodes.resize(end, TrieNode::leaf(0, 0));
            self.trie.nodes[index].first_child = first as u32;
            self.open.push((first as u32, first as u32, end as u32));
        }
        Ok(())
    }

    /// Places a child of the innermost open node in the next slot of its
    /// block, returning its index.
    #[inline]
    fn push_child(&mut self, input: u32, output: u32) -> Result<usize, &'static str> {
        let Some((first, next, end)) = self.open.last_mut() else {
            return Err("more nodes than the child counts hold");
        };
        if input as usize >= self.trie.inputs.len() || output as usize >= self.trie.outputs.len() {
            return Err("symbol index out of range");
        }
        let slot = *next as usize;
        if *next > *first && self.trie.nodes[slot - 1].input >= input {
            return Err("siblings out of order");
        }
        let mut leaf = TrieNode::leaf(input, output);
        *next += 1;
        if *next < *end {
            leaf.next_sibling = *next;
        } else {
            self.open.pop();
        }
        self.trie.nodes[slot] = leaf;
        Ok(slot)
    }

    /// The filled trie, once every announced child has arrived.
    pub(crate) fn finish(self) -> Result<PrefixTrie, &'static str> {
        if !self.root_seen || !self.open.is_empty() {
            return Err("fewer nodes than the child counts announce");
        }
        Ok(self.trie)
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

/// The error of a path whose words differ in length.
const LENGTH_MISMATCH: &str = "one output symbol per input symbol";

/// The panic of a path that answers a cached step differently.
pub(crate) const CONTRADICTION: &str =
    "prefix trie: SUL answered a cached prefix differently (nondeterministic SUL?)";

/// The node a walk's `path` ends at: the root for an empty walk.
fn end(path: &[u32]) -> usize {
    path.last().map_or(0, |&node| node as usize)
}

impl PrefixTrie {
    /// An empty trie.
    pub fn new() -> Self {
        PrefixTrie {
            nodes: vec![TrieNode::leaf(0, 0)],
            inputs: Interner::new(),
            outputs: Interner::new(),
            terminal_words: 0,
            log: MarkLog::default(),
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

    /// The child of `node` on input `id`.
    #[inline]
    fn child(&self, node: usize, id: SymbolId) -> Option<usize> {
        self.children(node)
            .find(|&child| self.nodes[child].input == id.raw())
    }

    /// The children of `node`, in string order of their inputs.
    fn children(&self, node: usize) -> Siblings<'_> {
        Siblings {
            nodes: &self.nodes,
            next: self.nodes[node].first_child,
        }
    }

    /// Follows `input` down from the root as far as it is cached and
    /// returns how many steps that is, leaving the nodes walked in `path`
    /// (node `d` is reached after `d + 1` steps).  A `None` step, a symbol
    /// this trie never interned, is not cached.  `path` may hold an
    /// earlier walk on this trie: as long as `input` follows it, a step is
    /// one comparison instead of a sibling-list search.  Every lookup and
    /// every mutation of the trie starts with this walk.
    #[inline]
    fn descend<I>(&self, input: I, path: &mut Vec<u32>) -> usize
    where
        I: IntoIterator<Item = Option<SymbolId>>,
    {
        let (mut node, mut depth) = (0, 0);
        for id in input.into_iter().map_while(|id| id) {
            // `path[..depth]` is this walk so far, so `path[depth]`, a child
            // of `node`, is the child on `id` if its input matches.
            match path.get(depth) {
                Some(&next) if self.nodes[next as usize].input == id.raw() => node = next as usize,
                _ => {
                    path.truncate(depth);
                    let Some(child) = self.child(node, id) else {
                        break;
                    };
                    path.push(child as u32);
                    node = child;
                }
            }
            depth += 1;
        }
        path.truncate(depth);
        depth
    }

    /// The nodes `input` walks through, when every step is cached.
    fn path_of(&self, input: &InputWord) -> Option<Vec<u32>> {
        let mut path = Vec::with_capacity(input.len());
        let ids = input.iter().map(|symbol| self.inputs.lookup(symbol));
        (self.descend(ids, &mut path) == input.len()).then_some(path)
    }

    /// The outputs on the edges into `path`'s nodes.
    fn outputs_along(&self, path: &[u32]) -> OutputWord {
        let output = |node: &u32| self.nodes[*node as usize].output();
        path.iter()
            .map(|node| self.outputs.resolve(output(node)).clone())
            .collect()
    }

    /// Whether a change to `node` must be logged for the latest mark.
    #[inline]
    fn watched(&self, node: usize) -> bool {
        node < self.log.watched
    }

    /// Logs a change to the watched node a walk's `path` ends at: the path
    /// to it, and the node itself when it turned terminal.  Runs once per
    /// change to a node the latest mark saw, never per query.
    #[cold]
    fn log_change(&mut self, path: &[u32], terminal: bool) {
        self.log.touched.extend_from_slice(path);
        if terminal {
            self.log.terminals.push(end(path) as u32);
        }
    }

    /// Appends a leaf under `parent` on `input`, answering `output`, and
    /// links it into `parent`'s children at its input's rank.  `parent`
    /// must have no child on `input` yet, and a watched `parent` must have
    /// been logged.  Returns the leaf's index.
    fn push_child(&mut self, parent: usize, input: SymbolId, output: u32) -> usize {
        let index = self.nodes.len() as u32;
        let rank = self.inputs.rank_of(input);
        let (mut prev, mut next) = (NO_ID, self.nodes[parent].first_child);
        while next != NO_ID && self.inputs.rank_of(self.nodes[next as usize].input) < rank {
            prev = next;
            next = self.nodes[next as usize].next_sibling;
        }
        let mut leaf = TrieNode::leaf(input.raw(), output);
        leaf.next_sibling = next;
        self.nodes.push(leaf);
        match prev {
            NO_ID => self.nodes[parent].first_child = index,
            prev => self.nodes[prev as usize].next_sibling = index,
        }
        index as usize
    }

    /// Compares two encoded words by the string order of their symbols —
    /// identical to comparing the decoded `InputWord`s.  This is the order
    /// the batch-dedup layer forwards deduplicated queries in.
    pub fn compare_id_words(&self, a: &[SymbolId], b: &[SymbolId]) -> std::cmp::Ordering {
        self.inputs.compare_words(a, b)
    }

    /// Looks up the full answer for `input`, if every step is cached.
    pub fn lookup(&self, input: &InputWord) -> Option<OutputWord> {
        self.path_of(input).map(|path| self.outputs_along(&path))
    }

    /// [`PrefixTrie::lookup`] by input ids and, on a hit,
    /// [`PrefixTrie::mark_terminal`], in one walk: the cache-hit path.  The
    /// walk keeps its nodes in `path`, reused scratch space from earlier
    /// walks on this trie, so the answer is built at its exact length once
    /// the word is known to be cached; a miss leaves the trie untouched and
    /// allocates nothing.
    pub(crate) fn answer_ids(
        &mut self,
        input: &[SymbolId],
        path: &mut Vec<u32>,
    ) -> Option<OutputWord> {
        if self.descend(input.iter().copied().map(Some), path) < input.len() {
            return None;
        }
        let answer = self.outputs_along(path);
        self.mark_terminal_node(path);
        Some(answer)
    }

    /// Encodes `output`, the answer to `input`, into `ids` for
    /// [`PrefixTrie::apply_path_ids_along`], leaving `input`'s cached walk
    /// in `path`: a step cached with the same output symbol takes its
    /// node's id, so only the symbols of fresh or contradicting steps are
    /// hashed.
    pub(crate) fn encode_answer(
        &mut self,
        input: &[SymbolId],
        output: &[Symbol],
        path: &mut Vec<u32>,
        ids: &mut Vec<SymbolId>,
    ) {
        self.descend(input.iter().copied().map(Some), path);
        ids.clear();
        let nodes = &self.nodes;
        for (depth, symbol) in output.iter().enumerate() {
            let cached = path.get(depth).map(|&node| nodes[node as usize].output());
            ids.push(match cached {
                Some(id) if self.outputs.resolve(id) == symbol => SymbolId::from(id),
                _ => self.outputs.intern(symbol),
            });
        }
    }

    /// Marks `input` as having been asked as a full query.  Returns `true`
    /// when this is the first time (the word is new to the distinct count).
    ///
    /// # Panics
    /// Panics when `input` is not fully present in the trie.
    pub fn mark_terminal(&mut self, input: &InputWord) -> bool {
        let path = self
            .path_of(input)
            .expect("mark_terminal requires a fully cached word");
        self.mark_terminal_node(&path)
    }

    /// Marks the node a walk's `path` ends at terminal.
    fn mark_terminal_node(&mut self, path: &[u32]) -> bool {
        let node = end(path);
        let fresh = self.nodes[node].set_terminal();
        if fresh {
            self.terminal_words += 1;
            if self.watched(node) {
                self.log_change(path, true);
            }
        }
        fresh
    }

    /// Inserts a full (input, output) answer, extending the cached paths.
    /// Returns the number of newly created nodes — the symbols of `input`
    /// that were *not* already covered by a cached prefix, i.e. the fresh
    /// work the SUL performed for this answer.
    ///
    /// # Panics
    /// Panics when the words differ in length, or when a step contradicts
    /// an already-cached output (the SUL must be deterministic;
    /// nondeterminism is detected by `prognosis-core`'s checker, not here).
    pub fn insert(&mut self, input: &InputWord, output: &OutputWord) -> usize {
        let nodes = self.nodes.len();
        match self.apply_path(input.as_slice(), output.as_slice(), false) {
            Ok(PathCoverage::Contradicts) => panic!("{CONTRADICTION}"),
            Ok(_) => self.nodes.len() - nodes,
            Err(e) => panic!("{e}"),
        }
    }

    /// The id of input symbol `symbol`, minting one on first sight.
    /// [`PrefixTrie::apply_path_ids_along`] takes input words in these ids.
    pub fn intern_input(&mut self, symbol: &Symbol) -> SymbolId {
        self.inputs.intern(symbol)
    }

    /// The id of output symbol `symbol` in this trie's output interner,
    /// minting one on first sight.  [`PrefixTrie::apply_path_ids_along`]
    /// takes output words in these ids.
    pub fn intern_output(&mut self, symbol: &Symbol) -> SymbolId {
        self.outputs.intern(symbol)
    }

    /// [`PrefixTrie::apply_path_ids_along`] for a path spelled in symbols,
    /// from the root: classifies it, and when it is [`PathCoverage::Fresh`]
    /// also inserts the fresh suffix and sets the terminal marker.  A
    /// contradicting path leaves the trie's answers untouched (its symbols
    /// may have been interned).
    ///
    /// Errors only on a length mismatch (corrupt record).
    pub fn apply_path(
        &mut self,
        input: &[Symbol],
        output: &[Symbol],
        terminal: bool,
    ) -> Result<PathCoverage, String> {
        if input.len() != output.len() {
            return Err(LENGTH_MISMATCH.to_string());
        }
        let input: Vec<SymbolId> = input.iter().map(|s| self.inputs.intern(s)).collect();
        let output: Vec<SymbolId> = output.iter().map(|s| self.outputs.intern(s)).collect();
        let applied = self.apply_path_ids_along(&input, &output, terminal, &mut Vec::new());
        applied.map(|(class, _)| class)
    }

    /// Applies one `(input, output, terminal)` path in a single walk — the
    /// trie's one mutation.  Returns how the path relates to the cached
    /// answers (see [`PathCoverage`]) and how many nodes it created: a
    /// [`PathCoverage::Fresh`] path gets its fresh suffix and its terminal
    /// marker before returning, while a covered or contradicting one, or an
    /// error, leaves the trie untouched.  `input` holds ids of this trie's
    /// input interner ([`PrefixTrie::intern_input`]), `output` ids of its
    /// output interner ([`PrefixTrie::intern_output`]), so outputs compare
    /// as `u32`s and no string is hashed.
    ///
    /// `path` holds the nodes an earlier walk on this trie went through
    /// (or starts empty); as long as the inputs follow it each step is one
    /// comparison instead of a sibling-list search.  On return it holds the
    /// nodes this call walked.
    ///
    /// Errors on a length mismatch or on an id neither interner minted.
    pub fn apply_path_ids_along(
        &mut self,
        input: &[SymbolId],
        output: &[SymbolId],
        terminal: bool,
        path: &mut Vec<u32>,
    ) -> Result<(PathCoverage, usize), String> {
        if input.len() != output.len() {
            return Err(LENGTH_MISMATCH.to_string());
        }
        let depth = self.descend(input.iter().copied().map(Some), path);
        let nodes = &self.nodes;
        let mut cached = path.iter().zip(output);
        if cached.any(|(&node, out)| nodes[node as usize].output() != out.raw()) {
            return Ok((PathCoverage::Contradicts, 0));
        }
        let fresh = input[depth..].iter().zip(&output[depth..]);
        let (inputs, outputs) = (self.inputs.len(), self.outputs.len());
        if (fresh.clone()).any(|(i, o)| i.index() >= inputs || o.index() >= outputs) {
            return Err("symbol id not minted by this trie".to_string());
        }
        let mut node = end(path);
        if depth < input.len() && self.watched(node) {
            self.log_change(path, false);
        }
        // Create the fresh suffix (nothing cached below a missing edge).
        for (&id, out) in fresh {
            node = self.push_child(node, id, out.raw());
            path.push(node as u32);
        }
        let created = input.len() - depth;
        let class = if (terminal && self.mark_terminal_node(path)) || created > 0 {
            PathCoverage::Fresh
        } else {
            PathCoverage::Covered
        };
        Ok((class, created))
    }

    /// All words recorded as full queries, with their answers, in
    /// depth-first order.
    pub fn entries(&self) -> Vec<(InputWord, OutputWord)> {
        let mut result = Vec::new();
        let terminal = |node: usize| self.nodes[node].terminal();
        self.visit_paths(
            0,
            &mut Vec::new(),
            &mut Vec::new(),
            &terminal,
            &|_| true,
            &mut |input, output, _| {
                result.push((
                    input.iter().cloned().collect(),
                    output.iter().cloned().collect(),
                ));
            },
        );
        result
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
            // Left children in string order; the two tries intern
            // independently, so edges are matched by symbol, not id.
            for lc in self.children(left) {
                let symbol = self.inputs.resolve(self.nodes[lc].input);
                let Some(rc) = other
                    .inputs
                    .lookup(symbol)
                    .and_then(|rid| other.child(right, rid))
                else {
                    continue;
                };
                let lo = self.outputs.resolve(self.nodes[lc].output());
                let ro = other.outputs.resolve(other.nodes[rc].output());
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
    /// in depth-first order.  Applying them to an empty trie
    /// ([`PrefixTrie::merge_from`]) reproduces the exact node set and
    /// terminal markers, because every node lies on the path to some leaf
    /// and every terminal is flagged.
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
        let all = |_| true;
        self.visit_paths(0, &mut input, &mut output, &all, &all, &mut f);
    }

    /// Records this trie's place in its append-only history (see
    /// [`TrieMark`]) in `O(1)`, and from now on logs each change to a node
    /// that exists now: the node turning terminal or gaining a child, with
    /// the path to it.  The log costs nothing until such a change, then
    /// one entry per node on its path.
    pub fn mark(&mut self) -> TrieMark {
        self.log.watched = self.nodes.len();
        TrieMark {
            nodes: self.nodes.len(),
            terminal_words: self.terminal_words,
            touched: self.log.touched.len(),
            terminals: self.log.terminals.len(),
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
    /// [`PrefixTrie::apply_path`] classifies as [`PathCoverage::Fresh`]
    /// against the marked trie, visited in the same order — the delta a
    /// journal append writes, found without a second trie.  `self` must be
    /// the marked trie or a descendant of it (see [`TrieMark`]).
    ///
    /// The walk enters only new nodes and the marked nodes on a logged
    /// path, so it costs `O(new nodes + logged nodes)` sibling hops, not a
    /// pass over the trie.
    pub fn for_each_path_since<F: FnMut(&[Symbol], &[Symbol], bool)>(
        &self,
        mark: &TrieMark,
        mut f: F,
    ) {
        // The marked nodes a list logged since the mark, sorted.
        let since = |log: &[u32], from: usize| {
            let mut nodes: Vec<u32> = log.get(from..).unwrap_or_default().to_vec();
            nodes.retain(|&node| (node as usize) < mark.nodes);
            nodes.sort_unstable();
            nodes.dedup();
            nodes
        };
        let touched = since(&self.log.touched, mark.touched);
        let terminals = since(&self.log.terminals, mark.terminals);
        let logged = |nodes: &[u32], node: usize| nodes.binary_search(&(node as u32)).is_ok();
        let keep = |node: usize| node >= mark.nodes || logged(&terminals, node);
        let enter = |node: usize| node >= mark.nodes || logged(&touched, node);
        let mut input = Vec::new();
        let mut output = Vec::new();
        self.visit_paths(0, &mut input, &mut output, &keep, &enter, &mut f);
    }

    /// Visits the maximal paths below `node` whose end node passes `keep`
    /// (a non-terminal leaf is kept only when `keep` accepts it too),
    /// entering only the children that pass `enter`.
    fn visit_paths<F, K, E>(
        &self,
        node: usize,
        input: &mut Vec<Symbol>,
        output: &mut Vec<Symbol>,
        keep: &K,
        enter: &E,
        f: &mut F,
    ) where
        F: FnMut(&[Symbol], &[Symbol], bool),
        K: Fn(usize) -> bool,
        E: Fn(usize) -> bool,
    {
        let this = self.nodes[node];
        // The root is emitted only when marked terminal (an ε query was
        // asked); an empty trie dumps to an empty list.
        if (this.terminal() || (this.first_child == NO_ID && node != 0)) && keep(node) {
            f(input, output, this.terminal());
        }
        for child in self.children(node).filter(|&child| enter(child)) {
            input.push(self.inputs.resolve(self.nodes[child].input).clone());
            output.push(self.outputs.resolve(self.nodes[child].output()).clone());
            self.visit_paths(child, input, output, keep, enter, f);
            input.pop();
            output.pop();
        }
    }

    /// Number of maximal paths [`PrefixTrie::for_each_path`] would visit —
    /// the live-record count of a fully compacted journal segment holding
    /// this trie.  Counts terminal nodes plus non-terminal leaves.
    pub fn path_count(&self) -> usize {
        let mut terminals_or_leaves = 0;
        for (index, node) in self.nodes.iter().enumerate() {
            if node.terminal() || (node.first_child == NO_ID && index != 0) {
                terminals_or_leaves += 1;
            }
        }
        terminals_or_leaves
    }

    /// Whether `input` is fully cached *and* marked as a full query.
    pub fn is_terminal(&self, input: &InputWord) -> bool {
        self.path_of(input)
            .is_some_and(|path| self.nodes[end(&path)].terminal())
    }

    /// The input symbols in string order: the list the edges of
    /// [`PrefixTrie::for_each_node_preorder`] index into.
    pub(crate) fn input_symbols(&self) -> impl ExactSizeIterator<Item = &Symbol> {
        let inputs = &self.inputs;
        inputs.ids_in_order().iter().map(|&id| inputs.resolve(id))
    }

    /// The output symbols in string order: the list the edges of
    /// [`PrefixTrie::for_each_node_preorder`] index into.
    pub(crate) fn output_symbols(&self) -> impl ExactSizeIterator<Item = &Symbol> {
        let outputs = &self.outputs;
        outputs.ids_in_order().iter().map(|&id| outputs.resolve(id))
    }

    /// Visits every node in preorder, the root first and each node's
    /// children in string order of their inputs.  Edges index the string
    /// ordered [`PrefixTrie::input_symbols`] and
    /// [`PrefixTrie::output_symbols`], so the stream depends only on the
    /// cached answers and the interned symbol sets, never on arena layout
    /// or intern order.  [`PreorderFill`] rebuilds the trie from it; the
    /// journal checkpoints each entry this way.
    pub(crate) fn for_each_node_preorder<F: FnMut(PreorderNode)>(&self, mut f: F) {
        // A node's next sibling waits on the stack while its subtree is
        // streamed, so nodes pop in preorder.
        let mut stack = vec![0];
        while let Some(node) = stack.pop() {
            let this = self.nodes[node];
            if node != 0 && this.next_sibling != NO_ID {
                stack.push(this.next_sibling as usize);
            }
            f(PreorderNode {
                edge: (node != 0).then(|| {
                    (
                        self.inputs.rank_of(this.input),
                        self.outputs.rank_of(this.output()),
                    )
                }),
                terminal: this.terminal(),
                children: self.children(node).count(),
            });
            if this.first_child != NO_ID {
                stack.push(this.first_child as usize);
            }
        }
    }

    /// Applies every path of `other` to `self`, unioning the two caches.
    /// Terminal markers are preserved.
    ///
    /// # Panics
    /// Panics when the tries contradict each other (they must describe the
    /// same deterministic SUL).
    pub fn merge_from(&mut self, other: &PrefixTrie) {
        self.apply_paths_of(other, |_, _, _, class| {
            assert!(class != PathCoverage::Contradicts, "{CONTRADICTION}");
            true
        });
    }

    /// Applies `other`'s paths to `self` in [`PrefixTrie::for_each_path`]
    /// order, one walk each resumed along the previous one, and hands each
    /// path with its class to `f` until `f` returns `false`.
    pub(crate) fn apply_paths_of<F>(&mut self, other: &PrefixTrie, mut f: F)
    where
        F: FnMut(&[Symbol], &[Symbol], bool, PathCoverage) -> bool,
    {
        let (mut inputs, mut outputs, mut path) = (Vec::new(), Vec::new(), Vec::new());
        let mut going = true;
        other.for_each_path(|input, output, terminal| {
            if !going {
                return;
            }
            // Paths come in depth-first order: a step spelled like the
            // previous path's step at its depth keeps that step's id.
            let kept = (inputs.iter().zip(input))
                .take_while(|&(&id, symbol)| self.inputs.resolve(id) == symbol)
                .count();
            inputs.truncate(kept);
            inputs.extend(input[kept..].iter().map(|s| self.inputs.intern(s)));
            self.encode_answer(&inputs, output, &mut path, &mut outputs);
            let (class, _) = self
                .apply_path_ids_along(&inputs, &outputs, terminal, &mut path)
                .expect("a trie's paths pair one output per input");
            going = f(input, output, terminal, class);
        });
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

    /// `trie` rebuilt by applying its path dump to an empty trie.
    fn remerged(trie: &PrefixTrie) -> PrefixTrie {
        let mut rebuilt = PrefixTrie::new();
        rebuilt.merge_from(trie);
        rebuilt
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
        let ids: Vec<SymbolId> = word.iter().map(|s| trie.intern_input(s)).collect();
        let outs: Vec<SymbolId> = (o(&["1", "2"]).iter())
            .map(|s| trie.intern_output(s))
            .collect();
        let mut path = Vec::new();
        assert_eq!(trie.answer_ids(&ids, &mut path), None);
        assert_eq!(
            trie.apply_path_ids_along(&ids, &outs, false, &mut path),
            Ok((PathCoverage::Fresh, 2))
        );
        assert_eq!(trie.lookup(&word), Some(o(&["1", "2"])));
        assert!(!trie.is_terminal(&word));
        // A hit marks the word asked.
        assert_eq!(trie.answer_ids(&ids, &mut path), Some(o(&["1", "2"])));
        assert!(!trie.mark_terminal(&word));
        assert!(trie.is_terminal(&word));
        // Interning is stable: re-interning yields the same ids.
        assert_eq!(trie.intern_input(&Symbol::new("b")), ids[1]);
        // A contradiction through the id path is classified, not applied.
        let nine = trie.intern_output(&Symbol::new("9"));
        assert_eq!(
            trie.apply_path_ids_along(&ids, &[outs[0], nine], true, &mut path),
            Ok((PathCoverage::Contradicts, 0))
        );
        // An id the interner never minted is refused, not linked, also
        // after a known symbol with no cached path.
        let unminted = SymbolId::from(7u32);
        assert!(trie
            .apply_path_ids_along(&[unminted], &outs[..1], false, &mut path)
            .is_err());
        assert!(trie
            .apply_path_ids_along(&[ids[1], unminted], &outs, false, &mut path)
            .is_err());
        assert_eq!(trie.num_nodes(), 3);
        assert_eq!(trie.terminal_words(), 1);
    }

    #[test]
    fn compare_id_words_matches_string_order() {
        let mut trie = PrefixTrie::new();
        // Intern out of lexicographic order.
        let mut encode = |word: &InputWord| -> Vec<SymbolId> {
            word.iter().map(|s| trie.intern_input(s)).collect()
        };
        let wb = encode(&w(&["b"]));
        let wab = encode(&w(&["a", "b"]));
        let wa = encode(&w(&["a"]));
        assert_eq!(trie.compare_id_words(&wa, &wab), std::cmp::Ordering::Less);
        assert_eq!(trie.compare_id_words(&wab, &wb), std::cmp::Ordering::Less);
        assert_eq!(trie.compare_id_words(&wb, &wb), std::cmp::Ordering::Equal);
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
            if marked.clone().apply_path(input, output, terminal) == Ok(PathCoverage::Fresh) {
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
        let rebuilt = remerged(&trie);
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
    fn entries_are_the_terminal_paths_in_path_order() {
        let mut trie = PrefixTrie::new();
        trie.mark_terminal(&InputWord::empty());
        trie.insert(&w(&["b", "a"]), &o(&["1", "2"]));
        trie.insert(&w(&["a", "c", "d"]), &o(&["3", "4", "5"]));
        for word in [w(&["b"]), w(&["a", "c", "d"]), w(&["a", "c"])] {
            trie.mark_terminal(&word);
        }
        let terminal_paths: Vec<(InputWord, OutputWord)> = (trie.paths().into_iter())
            .filter(|&(_, _, terminal)| terminal)
            .map(|(input, output, _)| (input, output))
            .collect();
        assert_eq!(trie.entries(), terminal_paths);
        assert_eq!(trie.entries().len(), trie.terminal_words());
        assert_eq!(trie.entries()[0], (InputWord::empty(), OutputWord::empty()));
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

    /// An interner holding `symbols` in list order.
    fn interned<'a>(symbols: impl IntoIterator<Item = &'a Symbol>) -> Interner {
        let mut interner = Interner::new();
        for symbol in symbols {
            interner.intern(symbol);
        }
        interner
    }

    /// Fills `trie`'s preorder stream back into a trie.
    fn refill(trie: &PrefixTrie) -> Result<PrefixTrie, &'static str> {
        let inputs = interned(trie.input_symbols());
        let outputs = interned(trie.output_symbols());
        let mut fill = PreorderFill::new(inputs, outputs, trie.num_nodes())?;
        let mut result = Ok(());
        trie.for_each_node_preorder(|node| {
            if result.is_ok() {
                result = fill.push(node);
            }
        });
        result?;
        fill.finish()
    }

    #[test]
    fn preorder_fill_rebuilds_the_trie_from_its_node_stream() {
        let mut trie = PrefixTrie::new();
        trie.mark_terminal(&InputWord::empty());
        trie.insert(&w(&["b", "a", "c"]), &o(&["1", "2", "3"]));
        trie.mark_terminal(&w(&["b", "a", "c"]));
        trie.mark_terminal(&w(&["b"]));
        trie.insert(&w(&["a", "x"]), &o(&["1", "9"]));
        let rebuilt = refill(&trie).unwrap();
        assert_eq!(rebuilt.paths(), trie.paths());
        assert_eq!(rebuilt.num_nodes(), trie.num_nodes());
        assert_eq!(rebuilt.terminal_words(), trie.terminal_words());
        // The stream follows string order, not arena or intern order.
        let mut streams = Vec::new();
        for t in [&trie, &rebuilt, &remerged(&trie)] {
            let mut stream = Vec::new();
            t.for_each_node_preorder(|node| stream.push(node));
            streams.push(stream);
        }
        assert_eq!(streams[0], streams[1]);
        assert_eq!(streams[0], streams[2]);
        assert_eq!(refill(&PrefixTrie::new()).unwrap().num_nodes(), 1);
    }

    #[test]
    fn preorder_fill_rejects_malformed_streams() {
        let symbols = [Symbol::new("a"), Symbol::new("b")];
        let node = |edge, children| PreorderNode {
            edge,
            terminal: false,
            children,
        };
        let fill = |nodes: &[PreorderNode]| {
            let mut fill = PreorderFill::new(interned(&symbols), interned(&symbols[..1]), 4)?;
            for &n in nodes {
                fill.push(n)?;
            }
            fill.finish()
        };
        assert!(fill(&[node(None, 1), node(Some((1, 0)), 0)]).is_ok());
        assert!(fill(&[node(None, 2), node(Some((0, 0)), 0), node(Some((1, 0)), 0)]).is_ok());
        // Index out of range, duplicate or descending siblings, missing and
        // extra nodes, a second root, more children than inputs.
        assert!(fill(&[node(None, 1), node(Some((2, 0)), 0)]).is_err());
        assert!(fill(&[node(None, 1), node(Some((0, 1)), 0)]).is_err());
        assert!(fill(&[node(None, 2), node(Some((0, 0)), 0), node(Some((0, 0)), 0)]).is_err());
        assert!(fill(&[node(None, 2), node(Some((1, 0)), 0), node(Some((0, 0)), 0)]).is_err());
        assert!(fill(&[node(None, 2), node(Some((0, 0)), 0)]).is_err());
        assert!(fill(&[node(None, 0), node(Some((0, 0)), 0)]).is_err());
        assert!(fill(&[node(None, 1), node(None, 0)]).is_err());
        assert!(fill(&[node(None, 3)]).is_err());
        assert!(fill(&[]).is_err());
        // Symbols interned out of string order.
        let descending = || interned([&symbols[1], &symbols[0]]);
        assert!(PreorderFill::new(descending(), Interner::new(), 0).is_err());
        assert!(PreorderFill::new(Interner::new(), descending(), 0).is_err());
    }

    #[test]
    fn preorder_fill_keeps_each_sibling_list_side_by_side() {
        let mut trie = PrefixTrie::new();
        for word in [["c", "a"], ["a", "b"], ["b", "c"], ["a", "a"], ["c", "c"]] {
            trie.insert(&w(&word), &o(&["1", "2"]));
        }
        let rebuilt = refill(&trie).unwrap();
        assert_eq!(rebuilt.paths(), trie.paths());
        for node in 0..rebuilt.num_nodes() {
            let children: Vec<usize> = rebuilt.children(node).collect();
            let first = children.first().copied().unwrap_or(0);
            assert_eq!(
                children,
                (first..first + children.len()).collect::<Vec<_>>()
            );
        }
        // A block past the node bound fails the fill before it allocates.
        let symbols = [Symbol::new("a"), Symbol::new("b")];
        let mut fill = PreorderFill::new(interned(&symbols), interned(&symbols[..1]), 2).unwrap();
        let root = PreorderNode {
            edge: None,
            terminal: false,
            children: 2,
        };
        assert!(fill.push(root).is_err());
    }

    #[test]
    fn applying_along_a_remembered_path_matches_a_walk_from_the_root() {
        let words: [(&[&str], &[&str], bool); 7] = [
            (&["a", "b", "c"], &["1", "2", "3"], true),
            (&["a", "b", "d"], &["1", "2", "4"], false),
            (&["a", "c"], &["1", "9"], true),
            (&["a", "b"], &["1", "2"], true),
            (&["a", "b", "c"], &["1", "5", "3"], true), // contradicts at "b"
            (&["a", "b", "d", "e"], &["1", "2", "4", "5"], true),
            (&["b"], &["7"], false),
        ];
        let (mut plain, mut along) = (PrefixTrie::new(), PrefixTrie::new());
        let mut path = Vec::new();
        for (input, output, terminal) in words {
            let apply = |trie: &mut PrefixTrie, path: Option<&mut Vec<u32>>| {
                let input: Vec<SymbolId> = input
                    .iter()
                    .map(|s| trie.intern_input(&Symbol::new(s)))
                    .collect();
                let output: Vec<SymbolId> = output
                    .iter()
                    .map(|s| trie.intern_output(&Symbol::new(s)))
                    .collect();
                match path {
                    Some(path) => trie.apply_path_ids_along(&input, &output, terminal, path),
                    None => trie.apply_path_ids_along(&input, &output, terminal, &mut Vec::new()),
                }
            };
            assert_eq!(apply(&mut along, Some(&mut path)), apply(&mut plain, None));
            // The remembered path is the walk from the root.
            let mut node = 0;
            for (depth, &next) in path.iter().enumerate() {
                let id = along.inputs.lookup(&Symbol::new(input[depth])).unwrap();
                node = along.child(node, id).unwrap();
                assert_eq!(next as usize, node);
            }
        }
        assert_eq!(along.paths(), plain.paths());
        assert_eq!(along.num_nodes(), plain.num_nodes());
        assert_eq!(along.terminal_words(), plain.terminal_words());
    }

    #[test]
    fn root_terminal_survives_the_round_trip() {
        let mut trie = PrefixTrie::new();
        trie.mark_terminal(&InputWord::empty());
        let rebuilt = remerged(&trie);
        assert_eq!(rebuilt.terminal_words(), 1);
        assert_eq!(rebuilt.entries(), trie.entries());
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
    #[should_panic(expected = "nondeterministic")]
    fn merge_from_panics_on_contradictions() {
        let mut a = PrefixTrie::new();
        a.insert(&w(&["a"]), &o(&["1"]));
        let mut b = PrefixTrie::new();
        b.insert(&w(&["a"]), &o(&["2"]));
        a.merge_from(&b);
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

    /// A change the mark proptest makes to a trie: words are indices into
    /// [`MARK_INPUTS`], each answered by [`mark_outputs`].
    #[derive(Clone, Debug)]
    enum MarkOp {
        /// `insert`, then `mark_terminal` when the flag is set.
        Insert(Vec<usize>, bool),
        /// `mark_terminal` of a cached word (skipped when it is not).
        Terminal(Vec<usize>),
        /// The cache-hit path, `answer_ids` (a miss changes nothing).
        Answer(Vec<usize>),
        /// `apply_path_ids_along`, as a merge or replay applies a path.
        Apply(Vec<usize>, bool),
        /// Takes a further mark.
        Mark,
    }

    const MARK_INPUTS: [&str; 4] = ["a", "b", "c", "d"];

    /// A deterministic answer: each output names its input and the one
    /// before it.
    fn mark_outputs(word: &[usize]) -> Vec<Symbol> {
        (0..word.len())
            .map(|n| {
                let previous = if n == 0 { 4 } else { word[n - 1] };
                Symbol::new(format!("o{previous}{}", word[n]))
            })
            .collect()
    }

    fn mark_ids(trie: &mut PrefixTrie, word: &[usize]) -> (Vec<SymbolId>, Vec<SymbolId>) {
        let inputs = (word.iter())
            .map(|&i| trie.intern_input(&Symbol::new(MARK_INPUTS[i])))
            .collect();
        let outputs = (mark_outputs(word).iter())
            .map(|o| trie.intern_output(o))
            .collect();
        (inputs, outputs)
    }

    fn mark_word(word: &[usize]) -> InputWord {
        word.iter().map(|&i| MARK_INPUTS[i]).collect()
    }

    /// The node `input` leads to.
    fn node_of(trie: &PrefixTrie, input: &[Symbol]) -> usize {
        input.iter().fold(0, |node, symbol| {
            let id = trie.inputs.lookup(symbol).unwrap();
            trie.child(node, id).unwrap()
        })
    }

    /// A mark with the reference's view of it: the node count and every
    /// node's terminal flag at the mark.
    struct Snapshot {
        mark: TrieMark,
        terminal: Vec<bool>,
    }

    impl Snapshot {
        fn take(trie: &mut PrefixTrie) -> Self {
            let terminal = trie.nodes.iter().map(TrieNode::terminal).collect();
            Snapshot {
                mark: trie.mark(),
                terminal,
            }
        }

        /// Whether `trie` differs from the snapshot anywhere.
        fn changed(&self, trie: &PrefixTrie) -> bool {
            let now = trie.nodes.iter().map(TrieNode::terminal);
            trie.num_nodes() != self.terminal.len() || now.ne(self.terminal.iter().copied())
        }

        /// The maximal paths whose end node is new or newly terminal, in
        /// [`PrefixTrie::for_each_path`] order.
        fn fresh_paths(&self, trie: &PrefixTrie) -> Vec<(Vec<Symbol>, Vec<Symbol>, bool)> {
            let mut fresh = Vec::new();
            trie.for_each_path(|input, output, terminal| {
                let node = node_of(trie, input);
                let new = node >= self.terminal.len();
                if new || (trie.nodes[node].terminal() && !self.terminal[node]) {
                    fresh.push((input.to_vec(), output.to_vec(), terminal));
                }
            });
            fresh
        }
    }

    fn mark_word_strategy() -> impl Strategy<Value = Vec<usize>> {
        prop::collection::vec(0usize..4, 0..6)
    }

    fn mark_op_strategy() -> impl Strategy<Value = MarkOp> {
        prop_oneof![
            (mark_word_strategy(), any::<bool>()).prop_map(|(w, t)| MarkOp::Insert(w, t)),
            mark_word_strategy().prop_map(MarkOp::Terminal),
            mark_word_strategy().prop_map(MarkOp::Answer),
            (mark_word_strategy(), any::<bool>()).prop_map(|(w, t)| MarkOp::Apply(w, t)),
            Just(MarkOp::Mark),
        ]
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // `unchanged_since` and `for_each_path_since` agree, for every mark
        // taken, with a reference that snapshots each node's terminal flag
        // at the mark: after runtime inserts, terminal markers on marked
        // and on new nodes, cache hits and applied paths, and on a trie
        // loaded through `PreorderFill` and a record tail as well as on
        // one built by inserts.
        #[test]
        fn marks_see_exactly_the_changes_a_terminal_snapshot_sees(
            base in prop::collection::vec((mark_word_strategy(), any::<bool>()), 0..12),
            tail in prop::collection::vec((mark_word_strategy(), any::<bool>()), 0..6),
            load in any::<bool>(),
            ops in prop::collection::vec(mark_op_strategy(), 0..16),
        ) {
            let mut trie = PrefixTrie::new();
            for (word, terminal) in &base {
                let (inputs, outputs) = mark_ids(&mut trie, word);
                trie.apply_path_ids_along(&inputs, &outputs, *terminal, &mut Vec::new())
                    .unwrap();
            }
            if load {
                trie = refill(&trie).unwrap();
                let mut path = Vec::new();
                for (word, terminal) in &tail {
                    let (inputs, outputs) = mark_ids(&mut trie, word);
                    trie.apply_path_ids_along(&inputs, &outputs, *terminal, &mut path)
                        .unwrap();
                }
            }
            let mut snapshots = vec![Snapshot::take(&mut trie)];
            let mut scratch = Vec::new();
            for op in &ops {
                match op {
                    MarkOp::Insert(word, terminal) => {
                        let output: OutputWord = mark_outputs(word).into();
                        trie.insert(&mark_word(word), &output);
                        if *terminal {
                            trie.mark_terminal(&mark_word(word));
                        }
                    }
                    MarkOp::Terminal(word) => {
                        if trie.lookup(&mark_word(word)).is_some() {
                            trie.mark_terminal(&mark_word(word));
                        }
                    }
                    MarkOp::Answer(word) => {
                        let (inputs, _) = mark_ids(&mut trie, word);
                        let expected = trie.lookup(&mark_word(word));
                        prop_assert_eq!(trie.answer_ids(&inputs, &mut scratch), expected);
                    }
                    MarkOp::Apply(word, terminal) => {
                        let (inputs, outputs) = mark_ids(&mut trie, word);
                        trie.apply_path_ids_along(&inputs, &outputs, *terminal, &mut scratch)
                            .unwrap();
                    }
                    MarkOp::Mark => snapshots.push(Snapshot::take(&mut trie)),
                }
                for snapshot in &snapshots {
                    prop_assert_eq!(
                        trie.unchanged_since(&snapshot.mark),
                        !snapshot.changed(&trie)
                    );
                    let mut since = Vec::new();
                    trie.for_each_path_since(&snapshot.mark, |input, output, terminal| {
                        since.push((input.to_vec(), output.to_vec(), terminal));
                    });
                    prop_assert_eq!(since, snapshot.fresh_paths(&trie));
                }
            }
        }
    }
}

//! Per-run symbol interning: dense integer ids for hot-path words.
//!
//! [`Symbol`] stays the public currency of the crate — an `Arc<str>` that is
//! cheap to clone and compares by its textual representation.  But the
//! innermost learning loops (prefix-trie walks, batch dedup, the parallel
//! work queue) spend most of their time hashing and comparing those strings.
//! An [`Interner`] assigns each distinct symbol a dense [`SymbolId`] (`u32`)
//! so that hot paths can hash, compare and index by integer, resolving back
//! to strings only at serialization boundaries.
//!
//! Ids are allocated in first-intern order, which is *not* lexicographic.
//! Determinism contracts elsewhere in the workspace (deduplicated batch
//! forwarding order, sorted trie iteration) are expressed in terms of the
//! symbols' *string* order, so the interner also maintains an incremental
//! lexicographic rank table: [`Interner::rank_of`] maps an id to its rank
//! among all interned symbols, and sorting ids by rank reproduces string
//! order exactly — regardless of the order in which symbols were first
//! interned (e.g. during a warm-start journal replay).

use crate::alphabet::{Alphabet, Symbol};
use crate::word::InputWord;
use std::collections::HashMap;
use std::fmt;

/// A dense integer handle for an interned [`Symbol`].
///
/// Ids are only meaningful relative to the [`Interner`] that produced them;
/// they are never serialized.  Public APIs that take `impl Into<SymbolId>`
/// accept a raw `u32` or `usize` index interchangeably.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SymbolId(u32);

impl SymbolId {
    /// The id as a dense table index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw `u32` value.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl From<u32> for SymbolId {
    #[inline]
    fn from(raw: u32) -> Self {
        SymbolId(raw)
    }
}

impl From<usize> for SymbolId {
    #[inline]
    fn from(index: usize) -> Self {
        debug_assert!(index <= u32::MAX as usize, "symbol id overflow");
        SymbolId(index as u32)
    }
}

impl fmt::Debug for SymbolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A word of interned symbol ids — the dense counterpart of
/// [`InputWord`] used on hot paths.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IWord(Vec<SymbolId>);

impl IWord {
    /// The empty word.
    pub fn empty() -> Self {
        IWord(Vec::new())
    }

    /// Creates a word from a vector of ids.
    pub fn from_ids(ids: Vec<SymbolId>) -> Self {
        IWord(ids)
    }

    /// Number of symbols in the word.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the word is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Appends an id.
    pub fn push(&mut self, id: impl Into<SymbolId>) {
        self.0.push(id.into());
    }

    /// The ids as a slice.
    pub fn as_slice(&self) -> &[SymbolId] {
        &self.0
    }

    /// Iterates over the ids.
    pub fn iter(&self) -> impl Iterator<Item = SymbolId> + '_ {
        self.0.iter().copied()
    }
}

impl From<Vec<SymbolId>> for IWord {
    fn from(ids: Vec<SymbolId>) -> Self {
        IWord(ids)
    }
}

impl std::ops::Deref for IWord {
    type Target = [SymbolId];

    fn deref(&self) -> &[SymbolId] {
        &self.0
    }
}

/// A bidirectional [`Symbol`] ⇄ [`SymbolId`] map with an incremental
/// lexicographic rank table.
///
/// Interning is append-only: a symbol keeps its id for the lifetime of the
/// interner.  Minting a fresh id is `O(n)` in the number of interned symbols
/// (the rank table shifts), which is irrelevant in practice — alphabets hold
/// tens of symbols while queries number in the millions.
#[derive(Clone, Debug, Default)]
pub struct Interner {
    /// id → symbol.
    symbols: Vec<Symbol>,
    /// symbol → id.
    ids: HashMap<Symbol, SymbolId>,
    /// id → lexicographic rank among all interned symbols.
    rank: Vec<u32>,
    /// rank → id (i.e. ids sorted by symbol string).
    sorted: Vec<SymbolId>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Creates an interner pre-seeded with an alphabet's symbols in
    /// insertion order, so `SymbolId(i)` is the symbol at alphabet index
    /// `i`.
    pub fn from_alphabet(alphabet: &Alphabet) -> Self {
        let mut interner = Interner::new();
        for symbol in alphabet.iter() {
            interner.intern(symbol);
        }
        interner
    }

    /// Returns the id for `symbol`, minting a fresh one if it has not been
    /// seen before.
    pub fn intern(&mut self, symbol: &Symbol) -> SymbolId {
        if let Some(&id) = self.ids.get(symbol) {
            return id;
        }
        let id = SymbolId(self.symbols.len() as u32);
        self.symbols.push(symbol.clone());
        self.ids.insert(symbol.clone(), id);
        // Splice the new id into string order and renumber the shifted tail.
        let pos = self
            .sorted
            .partition_point(|&other| self.symbols[other.index()].as_str() < symbol.as_str());
        self.sorted.insert(pos, id);
        self.rank.push(0);
        for (r, &shifted) in self.sorted.iter().enumerate().skip(pos) {
            self.rank[shifted.index()] = r as u32;
        }
        id
    }

    /// The id for `symbol`, if it has been interned.
    #[inline]
    pub fn lookup(&self, symbol: &Symbol) -> Option<SymbolId> {
        self.ids.get(symbol).copied()
    }

    /// The symbol behind an id.
    ///
    /// # Panics
    /// Panics if the id was not minted by this interner.
    #[inline]
    pub fn resolve(&self, id: impl Into<SymbolId>) -> &Symbol {
        &self.symbols[id.into().index()]
    }

    /// The symbol behind an id, if valid for this interner.
    #[inline]
    pub fn get(&self, id: impl Into<SymbolId>) -> Option<&Symbol> {
        self.symbols.get(id.into().index())
    }

    /// Lexicographic rank of an id among all interned symbols: sorting ids
    /// by rank reproduces the symbols' string order exactly.
    #[inline]
    pub fn rank_of(&self, id: impl Into<SymbolId>) -> u32 {
        self.rank[id.into().index()]
    }

    /// Ids in lexicographic (string) order of their symbols.
    pub fn ids_in_order(&self) -> &[SymbolId] {
        &self.sorted
    }

    /// Compares two id words by the string order of their symbols —
    /// identical to comparing the resolved `InputWord`s, without touching a
    /// single string.
    pub fn compare_words(&self, a: &[SymbolId], b: &[SymbolId]) -> std::cmp::Ordering {
        let key = |id: &SymbolId| self.rank[id.index()];
        a.iter().map(key).cmp(b.iter().map(key))
    }

    /// Encodes a string word, interning any fresh symbols.
    pub fn encode(&mut self, word: &InputWord) -> IWord {
        IWord(word.iter().map(|s| self.intern(s)).collect())
    }

    /// Encodes a string word without interning; `None` if any symbol is
    /// unknown.
    pub fn try_encode(&self, word: &InputWord) -> Option<IWord> {
        word.iter()
            .map(|s| self.lookup(s))
            .collect::<Option<Vec<_>>>()
            .map(IWord)
    }

    /// Decodes an id word back to symbols.
    ///
    /// # Panics
    /// Panics if any id was not minted by this interner.
    pub fn decode(&self, word: &IWord) -> InputWord {
        word.iter().map(|id| self.resolve(id).clone()).collect()
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// Whether no symbols have been interned.
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// Iterates over `(id, symbol)` pairs in id (first-intern) order.
    pub fn iter(&self) -> impl Iterator<Item = (SymbolId, &Symbol)> {
        self.symbols
            .iter()
            .enumerate()
            .map(|(i, s)| (SymbolId(i as u32), s))
    }
}

impl Alphabet {
    /// The id of a symbol under the canonical alphabet interning, where
    /// `SymbolId(i)` is the symbol at alphabet index `i`.
    pub fn id_of(&self, symbol: &Symbol) -> Option<SymbolId> {
        self.index_of(symbol).map(SymbolId::from)
    }

    /// The symbol at an id under the canonical alphabet interning.
    pub fn symbol_of(&self, id: impl Into<SymbolId>) -> Option<&Symbol> {
        self.get(id.into().index())
    }

    /// Encodes a word against this alphabet; `None` if any symbol is not in
    /// the alphabet.
    pub fn encode(&self, word: &InputWord) -> Option<IWord> {
        word.iter()
            .map(|s| self.id_of(s))
            .collect::<Option<Vec<_>>>()
            .map(IWord::from_ids)
    }

    /// Decodes an id word against this alphabet; `None` if any id is out of
    /// range.
    pub fn decode(&self, word: &IWord) -> Option<InputWord> {
        word.iter()
            .map(|id| self.symbol_of(id).cloned())
            .collect::<Option<Vec<_>>>()
            .map(InputWord::from_symbols)
    }

    /// An [`Interner`] pre-seeded with this alphabet's symbols in insertion
    /// order.
    pub fn interner(&self) -> Interner {
        Interner::from_alphabet(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut i = Interner::new();
        let a = i.intern(&Symbol::new("a"));
        let b = i.intern(&Symbol::new("b"));
        assert_eq!(i.intern(&Symbol::new("a")), a);
        assert_ne!(a, b);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(i.len(), 2);
        assert_eq!(i.resolve(a).as_str(), "a");
        assert_eq!(i.lookup(&Symbol::new("b")), Some(b));
        assert_eq!(i.lookup(&Symbol::new("c")), None);
    }

    #[test]
    fn rank_table_tracks_string_order_regardless_of_intern_order() {
        // Intern out of lexicographic order, as a warm-start journal replay
        // would.
        let mut i = Interner::new();
        let c = i.intern(&Symbol::new("c"));
        let a = i.intern(&Symbol::new("a"));
        let b = i.intern(&Symbol::new("b"));
        assert_eq!(i.rank_of(a), 0);
        assert_eq!(i.rank_of(b), 1);
        assert_eq!(i.rank_of(c), 2);
        assert_eq!(i.ids_in_order(), &[a, b, c]);

        // Later interns keep earlier ranks consistent.
        let aa = i.intern(&Symbol::new("aa"));
        assert_eq!(i.rank_of(a), 0);
        assert_eq!(i.rank_of(aa), 1);
        assert_eq!(i.rank_of(b), 2);
        assert_eq!(i.rank_of(c), 3);
    }

    #[test]
    fn compare_words_matches_string_word_order() {
        let mut i = Interner::new();
        let words = [
            vec!["b"],
            vec!["a", "b"],
            vec!["a"],
            vec!["b", "a"],
            vec!["a", "a", "a"],
        ];
        let encoded: Vec<(InputWord, IWord)> = words
            .iter()
            .map(|w| {
                let word: InputWord = w.iter().map(Symbol::new).collect();
                let ids = i.encode(&word);
                (word, ids)
            })
            .collect();
        for (wa, ia) in &encoded {
            for (wb, ib) in &encoded {
                assert_eq!(
                    i.compare_words(ia.as_slice(), ib.as_slice()),
                    wa.cmp(wb),
                    "{wa} vs {wb}"
                );
            }
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut i = Interner::new();
        let word: InputWord = ["x", "y", "x"].into_iter().map(Symbol::new).collect();
        let ids = i.encode(&word);
        assert_eq!(ids.len(), 3);
        assert_eq!(ids.as_slice()[0], ids.as_slice()[2]);
        assert_eq!(i.decode(&ids), word);
        assert_eq!(i.try_encode(&word), Some(ids));
        let unknown: InputWord = ["z"].into_iter().map(Symbol::new).collect();
        assert_eq!(i.try_encode(&unknown), None);
    }

    #[test]
    fn alphabet_id_mapping_matches_insertion_order() {
        let alphabet = Alphabet::from_symbols(["b", "a", "c"]);
        assert_eq!(
            alphabet.id_of(&Symbol::new("b")),
            Some(SymbolId::from(0u32))
        );
        assert_eq!(
            alphabet.id_of(&Symbol::new("c")),
            Some(SymbolId::from(2u32))
        );
        assert_eq!(alphabet.symbol_of(1u32).unwrap().as_str(), "a");

        let word: InputWord = ["c", "a"].into_iter().map(Symbol::new).collect();
        let encoded = alphabet.encode(&word).unwrap();
        assert_eq!(alphabet.decode(&encoded).unwrap(), word);
        let unknown: InputWord = ["z"].into_iter().map(Symbol::new).collect();
        assert_eq!(alphabet.encode(&unknown), None);

        let interner = alphabet.interner();
        assert_eq!(interner.len(), 3);
        assert_eq!(interner.resolve(0u32).as_str(), "b");
        // Rank order is string order, not insertion order.
        assert_eq!(interner.rank_of(0u32), 1);
        assert_eq!(interner.rank_of(1u32), 0);
    }
}

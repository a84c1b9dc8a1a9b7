//! Abstract symbols and alphabets.
//!
//! A [`Symbol`] is an interned abstract token such as `SYN(?,?,0)` or
//! `INITIAL(?,?)[CRYPTO]`.  The learner only ever manipulates symbols; the
//! adapter is responsible for mapping them to and from concrete packets.
//!
//! Symbols are cheap to clone and compare: they wrap an `Arc<str>`, so an
//! alphabet of a few dozen symbols costs a handful of allocations for the
//! whole learning run even though millions of queries are issued.

use std::borrow::Borrow;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// An interned abstract symbol.
///
/// Symbols compare by their textual representation.  Ordering is
/// lexicographic, which makes alphabets and learned machines deterministic
/// across runs — an important property when diffing models of two
/// implementations.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(Arc<str>);

impl Symbol {
    /// Creates a symbol from any string-like value.
    pub fn new(name: impl AsRef<str>) -> Self {
        Symbol(Arc::from(name.as_ref()))
    }

    /// The textual representation of the symbol.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Length of the textual representation in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the textual representation is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        Symbol::new(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Self {
        Symbol::new(s)
    }
}

impl Borrow<str> for Symbol {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Symbol {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

/// An ordered, duplicate-free set of symbols.
///
/// The order of an alphabet is significant for reproducibility: learners
/// iterate over it when filling observation tables, so two runs with the
/// same alphabet order produce the same intermediate hypotheses.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Alphabet {
    symbols: Vec<Symbol>,
}

impl Alphabet {
    /// Creates an empty alphabet.
    pub fn new() -> Self {
        Alphabet {
            symbols: Vec::new(),
        }
    }

    /// Creates an alphabet from an iterator of symbols, removing duplicates
    /// while preserving first-occurrence order.
    pub fn from_symbols<I, S>(symbols: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<Symbol>,
    {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for s in symbols {
            let s = s.into();
            if seen.insert(s.clone()) {
                out.push(s);
            }
        }
        Alphabet { symbols: out }
    }

    /// Adds a symbol if it is not already present. Returns `true` if added.
    pub fn insert(&mut self, symbol: impl Into<Symbol>) -> bool {
        let symbol = symbol.into();
        if self.symbols.contains(&symbol) {
            false
        } else {
            self.symbols.push(symbol);
            true
        }
    }

    /// Whether the alphabet contains the given symbol.
    pub fn contains(&self, symbol: &Symbol) -> bool {
        self.symbols.contains(symbol)
    }

    /// Number of symbols.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// Whether the alphabet is empty.
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// Iterates over the symbols in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Symbol> {
        self.symbols.iter()
    }

    /// The symbols as a slice.
    pub fn as_slice(&self) -> &[Symbol] {
        &self.symbols
    }

    /// Index of a symbol, if present.
    pub fn index_of(&self, symbol: &Symbol) -> Option<usize> {
        self.symbols.iter().position(|s| s == symbol)
    }

    /// Symbol at the given index.
    pub fn get(&self, index: usize) -> Option<&Symbol> {
        self.symbols.get(index)
    }

    /// Number of words of length exactly `len` over this alphabet.
    ///
    /// Used by the trace-space-reduction experiment (E4): the paper reports
    /// 329,554,456 traces of length up to 10 for a 7-symbol alphabet.
    pub fn words_of_length(&self, len: u32) -> u128 {
        (self.symbols.len() as u128).pow(len)
    }

    /// Number of non-empty words of length at most `len` over this alphabet.
    pub fn words_up_to_length(&self, len: u32) -> u128 {
        (1..=len).map(|l| self.words_of_length(l)).sum()
    }
}

impl<S: Into<Symbol>> FromIterator<S> for Alphabet {
    fn from_iter<I: IntoIterator<Item = S>>(iter: I) -> Self {
        Alphabet::from_symbols(iter)
    }
}

impl IntoIterator for Alphabet {
    type Item = Symbol;
    type IntoIter = std::vec::IntoIter<Symbol>;

    fn into_iter(self) -> Self::IntoIter {
        self.symbols.into_iter()
    }
}

impl<'a> IntoIterator for &'a Alphabet {
    type Item = &'a Symbol;
    type IntoIter = std::slice::Iter<'a, Symbol>;

    fn into_iter(self) -> Self::IntoIter {
        self.symbols.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbol_interning_and_equality() {
        let a = Symbol::new("SYN(?,?,0)");
        let b = Symbol::from("SYN(?,?,0)");
        let c = Symbol::from("ACK(?,?,0)".to_string());
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "SYN(?,?,0)");
        assert!(!a.is_empty());
        assert_eq!(a.len(), "SYN(?,?,0)".len());
    }

    #[test]
    fn symbol_display_and_debug_match() {
        let s = Symbol::new("INITIAL(?,?)[CRYPTO]");
        assert_eq!(format!("{s}"), "INITIAL(?,?)[CRYPTO]");
        assert_eq!(format!("{s:?}"), "INITIAL(?,?)[CRYPTO]");
    }

    #[test]
    fn alphabet_deduplicates_preserving_order() {
        let a = Alphabet::from_symbols(["a", "b", "a", "c", "b"]);
        assert_eq!(a.len(), 3);
        let names: Vec<&str> = a.iter().map(|s| s.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn alphabet_insert_and_lookup() {
        let mut a = Alphabet::new();
        assert!(a.is_empty());
        assert!(a.insert("x"));
        assert!(!a.insert("x"));
        assert!(a.insert("y"));
        assert_eq!(a.len(), 2);
        assert!(a.contains(&Symbol::new("x")));
        assert!(!a.contains(&Symbol::new("z")));
        assert_eq!(a.index_of(&Symbol::new("y")), Some(1));
        assert_eq!(a.get(0).unwrap().as_str(), "x");
        assert_eq!(a.get(5), None);
    }

    #[test]
    fn word_counting_matches_paper_figure() {
        // The QUIC abstract alphabet has 7 symbols; the paper counts
        // 329,554,456 traces of length up to 10 (sum of 7^1 .. 7^10).
        let a: Alphabet = (0..7).map(|i| format!("s{i}")).collect();
        assert_eq!(a.words_up_to_length(10), 329_554_456);
        assert_eq!(a.words_of_length(0), 1);
        assert_eq!(a.words_of_length(2), 49);
    }
}

//! Input/output words and input/output traces.
//!
//! A *word* is a finite sequence of symbols.  Learners manipulate input
//! words (queries) and output words (responses); the pair of the two is an
//! [`IoTrace`], the unit stored in the Oracle Table.

use crate::alphabet::Symbol;
use std::fmt;
use std::ops::Index;

/// A finite sequence of input symbols.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InputWord(Vec<Symbol>);

/// A finite sequence of output symbols.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OutputWord(Vec<Symbol>);

macro_rules! word_impl {
    ($name:ident) => {
        impl $name {
            /// The empty word ε.
            pub fn empty() -> Self {
                $name(Vec::new())
            }

            /// The empty word, with room for `capacity` symbols: a word
            /// built to a known length allocates once.
            pub fn with_capacity(capacity: usize) -> Self {
                $name(Vec::with_capacity(capacity))
            }

            /// Creates a word from an iterator of symbols.
            pub fn from_symbols<I, S>(symbols: I) -> Self
            where
                I: IntoIterator<Item = S>,
                S: Into<Symbol>,
            {
                $name(symbols.into_iter().map(Into::into).collect())
            }

            /// Word length.
            pub fn len(&self) -> usize {
                self.0.len()
            }

            /// Whether this is the empty word.
            pub fn is_empty(&self) -> bool {
                self.0.is_empty()
            }

            /// Iterates over the symbols.
            pub fn iter(&self) -> impl Iterator<Item = &Symbol> {
                self.0.iter()
            }

            /// The symbols as a slice.
            pub fn as_slice(&self) -> &[Symbol] {
                &self.0
            }

            /// Appends a symbol, returning a new word.
            pub fn append(&self, symbol: impl Into<Symbol>) -> Self {
                let mut v = self.0.clone();
                v.push(symbol.into());
                $name(v)
            }

            /// Appends a symbol in place.
            pub fn push(&mut self, symbol: impl Into<Symbol>) {
                self.0.push(symbol.into());
            }

            /// Concatenates two words, returning a new word.
            pub fn concat(&self, other: &Self) -> Self {
                let mut v = self.0.clone();
                v.extend_from_slice(&other.0);
                $name(v)
            }

            /// The prefix of the first `n` symbols (or the whole word if shorter).
            pub fn prefix(&self, n: usize) -> Self {
                $name(self.0.iter().take(n).cloned().collect())
            }

            /// The suffix starting at position `n` (empty if `n >= len`).
            pub fn suffix_from(&self, n: usize) -> Self {
                $name(self.0.iter().skip(n).cloned().collect())
            }

            /// The last symbol, if any.
            pub fn last(&self) -> Option<&Symbol> {
                self.0.last()
            }
        }

        impl<S: Into<Symbol>> FromIterator<S> for $name {
            fn from_iter<I: IntoIterator<Item = S>>(iter: I) -> Self {
                $name::from_symbols(iter)
            }
        }

        impl Index<usize> for $name {
            type Output = Symbol;
            fn index(&self, i: usize) -> &Symbol {
                &self.0[i]
            }
        }

        impl IntoIterator for $name {
            type Item = Symbol;
            type IntoIter = std::vec::IntoIter<Symbol>;
            fn into_iter(self) -> Self::IntoIter {
                self.0.into_iter()
            }
        }

        impl<'a> IntoIterator for &'a $name {
            type Item = &'a Symbol;
            type IntoIter = std::slice::Iter<'a, Symbol>;
            fn into_iter(self) -> Self::IntoIter {
                self.0.iter()
            }
        }

        impl From<Vec<Symbol>> for $name {
            fn from(v: Vec<Symbol>) -> Self {
                $name(v)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if self.0.is_empty() {
                    return write!(f, "ε");
                }
                let parts: Vec<&str> = self.0.iter().map(|s| s.as_str()).collect();
                write!(f, "{}", parts.join(" · "))
            }
        }
    };
}

word_impl!(InputWord);
word_impl!(OutputWord);

/// A pair of an input word and the output word the system produced for it.
///
/// Invariant: learners only construct traces where both words have equal
/// length (one output symbol per input symbol); this is checked by
/// [`IoTrace::new`].
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IoTrace {
    /// The input word sent to the system.
    pub input: InputWord,
    /// The output word observed in response (aligned with `input`).
    pub output: OutputWord,
}

impl IoTrace {
    /// Creates a trace, panicking if the two words differ in length.
    ///
    /// # Panics
    /// Panics when `input.len() != output.len()`.
    pub fn new(input: InputWord, output: OutputWord) -> Self {
        assert_eq!(
            input.len(),
            output.len(),
            "an I/O trace must pair each input symbol with exactly one output symbol"
        );
        IoTrace { input, output }
    }

    /// The empty trace.
    pub fn empty() -> Self {
        IoTrace {
            input: InputWord::empty(),
            output: OutputWord::empty(),
        }
    }

    /// Length of the trace (number of I/O steps).
    pub fn len(&self) -> usize {
        self.input.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.input.is_empty()
    }

    /// Iterates over `(input, output)` symbol pairs.
    pub fn steps(&self) -> impl Iterator<Item = (&Symbol, &Symbol)> {
        self.input.iter().zip(self.output.iter())
    }

    /// Prefix of the first `n` steps.
    pub fn prefix(&self, n: usize) -> Self {
        IoTrace {
            input: self.input.prefix(n),
            output: self.output.prefix(n),
        }
    }
}

impl fmt::Display for IoTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "ε/ε");
        }
        let parts: Vec<String> = self.steps().map(|(i, o)| format!("{i}/{o}")).collect();
        write!(f, "{}", parts.join(" · "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_word_properties() {
        let w = InputWord::empty();
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
        assert_eq!(format!("{w}"), "ε");
        assert_eq!(w.last(), None);
    }

    #[test]
    fn append_and_concat() {
        let w = InputWord::from_symbols(["a", "b"]);
        let w2 = w.append("c");
        assert_eq!(w.len(), 2);
        assert_eq!(w2.len(), 3);
        assert_eq!(w2[2].as_str(), "c");
        let cat = w.concat(&w2);
        assert_eq!(cat.len(), 5);
        assert_eq!(cat.last().unwrap().as_str(), "c");
    }

    #[test]
    fn prefix_and_suffix() {
        let w = OutputWord::from_symbols(["x", "y", "z"]);
        assert_eq!(w.prefix(2).len(), 2);
        assert_eq!(w.prefix(10).len(), 3);
        assert_eq!(w.suffix_from(1).as_slice()[0].as_str(), "y");
        assert_eq!(w.suffix_from(3).len(), 0);
        assert_eq!(w.suffix_from(17).len(), 0);
    }

    #[test]
    fn display_joins_symbols() {
        let w = InputWord::from_symbols(["SYN", "ACK"]);
        assert_eq!(format!("{w}"), "SYN · ACK");
    }

    #[test]
    fn trace_pairs_inputs_with_outputs() {
        let t = IoTrace::new(
            InputWord::from_symbols(["SYN", "ACK"]),
            OutputWord::from_symbols(["SYN+ACK", "NIL"]),
        );
        assert_eq!(t.len(), 2);
        let steps: Vec<(String, String)> = t
            .steps()
            .map(|(i, o)| (i.to_string(), o.to_string()))
            .collect();
        assert_eq!(steps[0], ("SYN".into(), "SYN+ACK".into()));
        assert_eq!(format!("{t}"), "SYN/SYN+ACK · ACK/NIL");
        assert_eq!(t.prefix(1).len(), 1);
    }

    #[test]
    #[should_panic(expected = "must pair each input symbol")]
    fn trace_rejects_mismatched_lengths() {
        let _ = IoTrace::new(
            InputWord::from_symbols(["a"]),
            OutputWord::from_symbols(["x", "y"]),
        );
    }

    #[test]
    fn words_are_ordered_for_determinism() {
        let a = InputWord::from_symbols(["a"]);
        let b = InputWord::from_symbols(["b"]);
        let ab = InputWord::from_symbols(["a", "b"]);
        assert!(a < b);
        assert!(a < ab);
    }
}

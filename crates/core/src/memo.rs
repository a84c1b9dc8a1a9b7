//! The adapters' memo tables.
//!
//! A protocol adapter sees few distinct values: one parsed form per input
//! symbol of the alphabet, one output symbol per distinct reply.  [`Memo`]
//! keeps them in insertion order and looks them up by a linear scan, which
//! beats hashing at these sizes; for an interned [`Symbol`] key a hit is a
//! pointer compare.
//!
//! [`Symbol`]: prognosis_automata::alphabet::Symbol

use std::borrow::Borrow;
use std::ops::Index;

/// An insertion-ordered map with linear lookup, for a handful of entries.
#[derive(Debug)]
pub(crate) struct Memo<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Memo {
            entries: Vec::new(),
        }
    }
}

impl<K, V> Memo<K, V> {
    /// The index of `key`'s entry, inserting `make()` (and an owned copy of
    /// the key) first when the key is new.  Indices are stable.
    pub(crate) fn slot<Q>(&mut self, key: &Q, make: impl FnOnce() -> V) -> usize
    where
        K: Borrow<Q>,
        Q: PartialEq + ToOwned<Owned = K> + ?Sized,
    {
        match self.entries.iter().position(|(k, _)| k.borrow() == key) {
            Some(i) => i,
            None => {
                self.entries.push((key.to_owned(), make()));
                self.entries.len() - 1
            }
        }
    }

    /// The value for `key`, computed by `make` the first time.
    pub(crate) fn get_or_insert_with<Q>(&mut self, key: &Q, make: impl FnOnce() -> V) -> &V
    where
        K: Borrow<Q>,
        Q: PartialEq + ToOwned<Owned = K> + ?Sized,
    {
        let i = self.slot(key, make);
        &self.entries[i].1
    }
}

impl<K, V> Index<usize> for Memo<K, V> {
    type Output = V;

    fn index(&self, slot: usize) -> &V {
        &self.entries[slot].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn computes_each_value_once_and_keeps_slots_stable() {
        let mut memo: Memo<Vec<usize>, String> = Memo::default();
        let mut calls = 0;
        let a = memo.slot(&[1, 2][..], || {
            calls += 1;
            "a".to_string()
        });
        let b = memo.slot(&[3][..], || {
            calls += 1;
            "b".to_string()
        });
        let again = memo.get_or_insert_with(&[1, 2][..], || unreachable!("memoised"));
        assert_eq!(again, "a");
        assert_eq!((a, b, calls), (0, 1, 2));
        assert_eq!(memo[b], "b");
    }
}

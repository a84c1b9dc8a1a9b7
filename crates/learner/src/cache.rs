//! Store keys and durable writes for the persisted observation store.
//!
//! The paper's central cost metric is the number of concrete queries sent
//! to the implementation under test, and its workflow re-learns the same
//! closed-box SUL repeatedly (alphabet tweaks, synthesis validation,
//! regression checks across implementation versions).  The journal
//! ([`crate::journal::JournalStore`]) makes the prefix-trie cache durable
//! under a [`StoreKey`] — the SUL identity, the implementation version and
//! a hash of the learning alphabet — so a later run against the same SUL
//! answers its warm-up membership queries from disk with zero fresh SUL
//! symbols, while a run against a different SUL configuration or alphabet
//! misses and starts cold: a stale cache can never corrupt learning.
//!
//! This module holds the pieces every persistence path shares: the key,
//! its stable alphabet hash, the per-path writer locks and the
//! crash-durable atomic file replacement.

use prognosis_automata::alphabet::Alphabet;
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Serializes same-path store writes within this process.  Campaign tasks
/// share one store path; without a writer guard two concurrent
/// resync-merge-append sequences interleave and the slower writer silently
/// drops the faster one's observations.  The registry hands out one mutex
/// per (absolutized) path; every [`crate::journal::JournalStore`] mutation
/// holds it across its whole critical section.
pub(crate) fn path_write_lock(path: &Path) -> Arc<Mutex<()>> {
    static LOCKS: OnceLock<Mutex<HashMap<PathBuf, Arc<Mutex<()>>>>> = OnceLock::new();
    let key = std::path::absolute(path).unwrap_or_else(|_| path.to_path_buf());
    let mut registry = LOCKS
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .expect("cache path-lock registry poisoned");
    Arc::clone(registry.entry(key).or_default())
}

/// Acquires the per-path writer guard, riding out a poisoned mutex (a
/// panicking writer leaves no partial state behind thanks to the atomic
/// temp-file rename, so the lock itself is safe to reuse).
pub(crate) fn hold_path_lock(lock: &Mutex<()>) -> MutexGuard<'_, ()> {
    lock.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Crash-durable atomic file replacement: writes `bytes` to a sibling temp
/// file (named uniquely per process *and* thread, so two same-process
/// savers can't collide mid-rename), fsyncs it, renames it over `path`,
/// then fsyncs the parent directory so the rename itself survives a power
/// loss.  Creates parent directories as needed.  Every full rewrite of a
/// journal (first write, replacement, compaction) funnels through here.
pub(crate) fn atomic_write_durable(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => {
            std::fs::create_dir_all(p)?;
            Some(p)
        }
        _ => None,
    };
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".tmp.{}.{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let tmp = PathBuf::from(tmp);
    let write_and_sync = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if let Err(e) = write_and_sync {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    if let Some(parent) = parent {
        // Directory fsync persists the rename's directory entry.  Some
        // filesystems refuse to open a directory for writing; a failure
        // here only weakens durability, never correctness, so ignore it.
        if let Ok(dir) = std::fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// A fully resolved observation-store key: the `(SUL id, implementation
/// version, alphabet)` triple with its alphabet hash computed once.
/// Campaign runners build one per cell and thread it through every
/// lookup/upsert instead of re-hashing the alphabet on each call; the
/// journal store uses it directly as its entry key.  Ordering is the
/// deterministic `(sul_id, impl_version, alphabet)` order a compacted
/// journal writes its segments in.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StoreKey {
    sul_id: String,
    impl_version: String,
    alphabet: Vec<String>,
    alphabet_hash: u64,
}

impl StoreKey {
    /// Builds a key, hashing the alphabet exactly once.
    pub fn new(
        sul_id: impl Into<String>,
        impl_version: impl Into<String>,
        alphabet: &Alphabet,
    ) -> Self {
        StoreKey {
            sul_id: sul_id.into(),
            impl_version: impl_version.into(),
            alphabet: alphabet.iter().map(|s| s.to_string()).collect(),
            alphabet_hash: alphabet_hash(alphabet),
        }
    }

    /// Rehydrates a key from its stored parts, trusting `alphabet_hash`
    /// (used when replaying a journal segment header; the verify path
    /// recomputes and checks).
    pub(crate) fn from_parts(
        sul_id: String,
        impl_version: String,
        alphabet: Vec<String>,
        alphabet_hash: u64,
    ) -> Self {
        StoreKey {
            sul_id,
            impl_version,
            alphabet,
            alphabet_hash,
        }
    }

    /// The SUL identifier axis.
    pub fn sul_id(&self) -> &str {
        &self.sul_id
    }

    /// The implementation-version axis ("" = unversioned).
    pub fn impl_version(&self) -> &str {
        &self.impl_version
    }

    /// The spelled-out alphabet symbols.
    pub fn alphabet(&self) -> &[String] {
        &self.alphabet
    }

    /// The precomputed FNV-1a alphabet hash.
    pub fn alphabet_hash(&self) -> u64 {
        self.alphabet_hash
    }

    /// Whether the stored hash matches a fresh hash of the spelled-out
    /// symbols — false only for a corrupt or hand-edited store.
    pub fn hash_consistent(&self) -> bool {
        symbols_hash(self.alphabet.iter().map(String::as_str)) == self.alphabet_hash
    }
}

/// FNV-1a over the alphabet's symbols (length-prefixed, so `["ab","c"]`
/// and `["a","bc"]` hash differently).  Stable across runs and platforms —
/// unlike `std`'s randomized hashers — which is what an on-disk key needs.
pub fn alphabet_hash(alphabet: &Alphabet) -> u64 {
    symbols_hash(alphabet.iter().map(|symbol| symbol.as_str()))
}

fn symbols_hash<'a>(symbols: impl Iterator<Item = &'a str>) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
    };
    for symbol in symbols {
        eat(&(symbol.len() as u64).to_le_bytes());
        eat(symbol.as_bytes());
    }
    hash
}

/// Errors reading or writing a persisted store.
#[derive(Debug)]
pub enum CacheError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The file is not a store this build can check (no journal magic).
    Format(String),
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::Io(e) => write!(f, "cache i/o error: {e}"),
            CacheError::Format(msg) => write!(f, "invalid cache file: {msg}"),
        }
    }
}

impl std::error::Error for CacheError {}

impl From<std::io::Error> for CacheError {
    fn from(e: std::io::Error) -> Self {
        CacheError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alphabet_hash_is_order_and_boundary_sensitive() {
        let a = Alphabet::from_symbols(["ab", "c"]);
        let b = Alphabet::from_symbols(["a", "bc"]);
        let c = Alphabet::from_symbols(["c", "ab"]);
        assert_ne!(alphabet_hash(&a), alphabet_hash(&b));
        assert_ne!(alphabet_hash(&a), alphabet_hash(&c));
        assert_eq!(
            alphabet_hash(&a),
            alphabet_hash(&Alphabet::from_symbols(["ab", "c"]))
        );
    }
}

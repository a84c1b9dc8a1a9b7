//! Connection IDs (draft-29 §5.1): opaque identifiers of 0–20 bytes chosen
//! by each endpoint.  The simulated key schedule derives keys from the
//! client's destination connection ID, mirroring how real QUIC derives
//! Initial secrets.
//!
//! A [`ConnectionId`] is stored inline (a 20-byte array and a length), so
//! it is `Copy` and parsing or building a header never allocates for it.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Maximum connection-ID length allowed by draft-29.
pub const MAX_CID_LEN: usize = 20;

/// An opaque connection identifier.  Equality, ordering and hashing are
/// those of its bytes ([`ConnectionId::as_bytes`]).
#[derive(Clone, Copy, Default)]
pub struct ConnectionId {
    len: u8,
    bytes: [u8; MAX_CID_LEN],
}

impl ConnectionId {
    /// Creates a connection ID from raw bytes.
    ///
    /// # Panics
    /// Panics when the length exceeds [`MAX_CID_LEN`].
    pub fn new(bytes: impl AsRef<[u8]>) -> Self {
        let bytes = bytes.as_ref();
        assert!(
            bytes.len() <= MAX_CID_LEN,
            "connection IDs are at most 20 bytes"
        );
        let mut cid = ConnectionId {
            len: bytes.len() as u8,
            bytes: [0; MAX_CID_LEN],
        };
        cid.bytes[..bytes.len()].copy_from_slice(bytes);
        cid
    }

    /// The zero-length connection ID.
    pub fn empty() -> Self {
        ConnectionId::default()
    }

    /// Derives an 8-byte connection ID deterministically from a seed —
    /// used by the simulated endpoints so experiments are reproducible.
    pub fn from_seed(seed: u64) -> Self {
        let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut bytes = [0u8; 8];
        for b in &mut bytes {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *b = (x & 0xFF) as u8;
        }
        ConnectionId::new(bytes)
    }

    /// The raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..usize::from(self.len)]
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// Whether this is the zero-length connection ID.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Folds the ID into a `u64`, used as key material by the simulated
    /// key schedule.
    pub fn key_material(&self) -> u64 {
        self.as_bytes()
            .iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |acc, &b| {
                (acc ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            })
    }
}

impl PartialEq for ConnectionId {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for ConnectionId {}

impl PartialOrd for ConnectionId {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ConnectionId {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Hash for ConnectionId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

impl fmt::Debug for ConnectionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ConnectionId")
            .field("bytes", &self.as_bytes())
            .finish()
    }
}

impl fmt::Display for ConnectionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.as_bytes() {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl From<&[u8]> for ConnectionId {
    fn from(bytes: &[u8]) -> Self {
        ConnectionId::new(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let cid = ConnectionId::new(vec![1, 2, 3]);
        assert_eq!(cid.len(), 3);
        assert!(!cid.is_empty());
        assert_eq!(cid.as_bytes(), &[1, 2, 3]);
        assert_eq!(cid.to_string(), "010203");
        assert!(ConnectionId::empty().is_empty());
        let from_slice: ConnectionId = (&[9u8, 8][..]).into();
        assert_eq!(from_slice.len(), 2);
    }

    #[test]
    fn equality_order_and_hash_follow_the_bytes() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |cid: &ConnectionId| {
            let mut h = DefaultHasher::new();
            cid.hash(&mut h);
            h.finish()
        };
        let short = ConnectionId::new([1, 2]);
        let long = ConnectionId::new([1, 2, 0]);
        assert_ne!(short, long, "a trailing zero byte is part of the ID");
        assert!(short < long && long < ConnectionId::new([1, 3]));
        assert!(ConnectionId::empty() < short);
        assert_eq!(hash(&short), hash(&ConnectionId::new(vec![1, 2])));
        assert_eq!(format!("{short:?}"), "ConnectionId { bytes: [1, 2] }");
    }

    #[test]
    #[should_panic(expected = "at most 20 bytes")]
    fn rejects_oversized_ids() {
        let _ = ConnectionId::new(vec![0; 21]);
    }

    #[test]
    fn seeded_ids_are_deterministic_and_distinct() {
        let a = ConnectionId::from_seed(1);
        let b = ConnectionId::from_seed(1);
        let c = ConnectionId::from_seed(2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 8);
    }

    #[test]
    fn key_material_differs_between_ids() {
        let a = ConnectionId::from_seed(10).key_material();
        let b = ConnectionId::from_seed(11).key_material();
        assert_ne!(a, b);
        assert_ne!(ConnectionId::empty().key_material(), 0);
    }
}

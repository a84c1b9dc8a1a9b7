//! Connection IDs (draft-29 §5.1): opaque identifiers of 0–20 bytes chosen
//! by each endpoint.  The simulated key schedule derives keys from the
//! client's destination connection ID, mirroring how real QUIC derives
//! Initial secrets.

use std::fmt;

/// Maximum connection-ID length allowed by draft-29.
pub const MAX_CID_LEN: usize = 20;

/// An opaque connection identifier.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConnectionId {
    bytes: Vec<u8>,
}

impl ConnectionId {
    /// Creates a connection ID from raw bytes.
    ///
    /// # Panics
    /// Panics when the length exceeds [`MAX_CID_LEN`].
    pub fn new(bytes: impl Into<Vec<u8>>) -> Self {
        let bytes = bytes.into();
        assert!(
            bytes.len() <= MAX_CID_LEN,
            "connection IDs are at most 20 bytes"
        );
        ConnectionId { bytes }
    }

    /// The zero-length connection ID.
    pub fn empty() -> Self {
        ConnectionId { bytes: Vec::new() }
    }

    /// Derives an 8-byte connection ID deterministically from a seed —
    /// used by the simulated endpoints so experiments are reproducible.
    pub fn from_seed(seed: u64) -> Self {
        let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut bytes = Vec::with_capacity(8);
        for _ in 0..8 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            bytes.push((x & 0xFF) as u8);
        }
        ConnectionId { bytes }
    }

    /// The raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether this is the zero-length connection ID.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Folds the ID into a `u64`, used as key material by the simulated
    /// key schedule.
    pub fn key_material(&self) -> u64 {
        self.bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |acc, &b| {
            (acc ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
    }
}

impl fmt::Display for ConnectionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.bytes {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl From<&[u8]> for ConnectionId {
    fn from(bytes: &[u8]) -> Self {
        ConnectionId::new(bytes.to_vec())
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

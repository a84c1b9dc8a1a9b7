//! Simulated packet protection.
//!
//! Real QUIC derives per-level secrets from the TLS 1.3 handshake and
//! protects payloads with an AEAD plus header protection.  The Prognosis
//! learner treats all of that as opaque: what matters to the observable
//! state machine is only *which encryption levels each endpoint has keys
//! for*, because that determines which packets it can process (an endpoint
//! ignores packets it cannot open, which is exactly the `{}` rows in the
//! appendix models).
//!
//! [`Keys`] therefore implements a deterministic keyed keystream: `seal`
//! XORs the payload with a keystream derived from (secret, level, packet
//! number) and appends a 4-byte integrity tag; `open` recomputes and checks
//! the tag, failing exactly when the wrong secret or level is used — the
//! same external behaviour as a real AEAD, with none of the cryptography.
//! The packet codec uses the in-place forms, [`Keys::seal_in_place`] and
//! [`Keys::open_in_place`], so protecting or opening a packet copies no
//! payload.

use std::fmt;

/// QUIC encryption levels / packet-number spaces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EncryptionLevel {
    /// Initial keys, derived from the client's destination connection ID.
    Initial,
    /// Handshake keys, available once the TLS handshake is underway.
    Handshake,
    /// 1-RTT (application) keys, available once the handshake completes.
    OneRtt,
}

impl EncryptionLevel {
    /// All levels, in handshake order.
    pub const ALL: [EncryptionLevel; 3] = [
        EncryptionLevel::Initial,
        EncryptionLevel::Handshake,
        EncryptionLevel::OneRtt,
    ];

    fn domain_separator(self) -> u64 {
        match self {
            EncryptionLevel::Initial => 0x1111_1111_1111_1111,
            EncryptionLevel::Handshake => 0x2222_2222_2222_2222,
            EncryptionLevel::OneRtt => 0x3333_3333_3333_3333,
        }
    }
}

impl fmt::Display for EncryptionLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncryptionLevel::Initial => write!(f, "Initial"),
            EncryptionLevel::Handshake => write!(f, "Handshake"),
            EncryptionLevel::OneRtt => write!(f, "1-RTT"),
        }
    }
}

/// Errors raised when opening protected payloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CryptoError {
    /// The integrity tag did not verify (wrong keys, wrong level or corrupted
    /// payload).
    TagMismatch,
    /// The payload is shorter than the integrity tag.
    Truncated,
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoError::TagMismatch => write!(f, "integrity tag mismatch"),
            CryptoError::Truncated => write!(f, "protected payload shorter than the tag"),
        }
    }
}

impl std::error::Error for CryptoError {}

/// Length of the simulated integrity tag.
pub const TAG_LEN: usize = 4;

/// Packet-protection keys for one encryption level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Keys {
    secret: u64,
    level: EncryptionLevel,
}

impl Keys {
    /// Derives keys for `level` from connection key material (in real QUIC,
    /// the Initial secret comes from the client's destination connection ID
    /// and later secrets from the TLS key schedule).
    pub fn derive(key_material: u64, level: EncryptionLevel) -> Self {
        let secret = splitmix(key_material ^ level.domain_separator());
        Keys { secret, level }
    }

    /// The encryption level these keys belong to.
    pub fn level(&self) -> EncryptionLevel {
        self.level
    }

    /// XORs `data` in place with the keystream of `packet_number`: byte
    /// `i` takes byte `i % 8` of keystream word `i / 8`, so each word is
    /// computed once per 8-byte chunk.
    fn apply_keystream(&self, packet_number: u64, data: &mut [u8]) {
        let base = self.secret ^ packet_number.wrapping_mul(0x9E37_79B9);
        for (word_index, chunk) in data.chunks_mut(8).enumerate() {
            let word = splitmix(base ^ word_index as u64).to_le_bytes();
            for (b, k) in chunk.iter_mut().zip(word) {
                *b ^= k;
            }
        }
    }

    fn tag(&self, packet_number: u64, plaintext: &[u8]) -> [u8; TAG_LEN] {
        let mut acc = self.secret ^ packet_number;
        for (i, &b) in plaintext.iter().enumerate() {
            acc = splitmix(acc ^ u64::from(b) ^ (i as u64));
        }
        (acc as u32).to_be_bytes()
    }

    /// Protects `buf[payload_start..]` in place: XORs it with the keystream
    /// and appends the integrity tag, so a packet's header and sealed
    /// payload share one buffer.
    ///
    /// # Panics
    /// Panics when `payload_start` is past the end of `buf`.
    pub fn seal_in_place(&self, packet_number: u64, buf: &mut Vec<u8>, payload_start: usize) {
        let tag = self.tag(packet_number, &buf[payload_start..]);
        self.apply_keystream(packet_number, &mut buf[payload_start..]);
        buf.extend_from_slice(&tag);
    }

    /// Removes protection in place: `buf` holds a sealed payload (keystream
    /// XOR plus tag) and, on success, is left holding the plaintext.  On
    /// failure its contents are unspecified.
    pub fn open_in_place(&self, packet_number: u64, buf: &mut Vec<u8>) -> Result<(), CryptoError> {
        let body_len = buf
            .len()
            .checked_sub(TAG_LEN)
            .ok_or(CryptoError::Truncated)?;
        let mut tag = [0; TAG_LEN];
        tag.copy_from_slice(&buf[body_len..]);
        buf.truncate(body_len);
        self.apply_keystream(packet_number, buf);
        if self.tag(packet_number, buf) != tag {
            return Err(CryptoError::TagMismatch);
        }
        Ok(())
    }

    /// Protects a payload: XOR keystream plus appended integrity tag.
    pub fn seal(&self, packet_number: u64, plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
        out.extend_from_slice(plaintext);
        self.seal_in_place(packet_number, &mut out, 0);
        out
    }

    /// Removes protection, verifying the integrity tag.
    pub fn open(&self, packet_number: u64, ciphertext: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let mut plaintext = ciphertext.to_vec();
        self.open_in_place(packet_number, &mut plaintext)?;
        Ok(plaintext)
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_open_round_trip_per_level() {
        for level in EncryptionLevel::ALL {
            let keys = Keys::derive(42, level);
            assert_eq!(keys.level(), level);
            let plaintext = b"prognosis closed-box analysis";
            let sealed = keys.seal(7, plaintext);
            assert_eq!(sealed.len(), plaintext.len() + TAG_LEN);
            assert_ne!(
                &sealed[..plaintext.len()],
                plaintext,
                "payload must be transformed"
            );
            assert_eq!(keys.open(7, &sealed).unwrap(), plaintext);
        }
    }

    #[test]
    fn sealed_bytes_are_pinned() {
        // A 29-byte payload covers three full keystream words and a partial
        // fourth; the expected bytes pin the keystream and tag per level.
        let payload: Vec<u8> = (0u8..29).collect();
        let expected: [[u8; 33]; 3] = [
            [
                135, 65, 196, 46, 250, 217, 228, 224, 89, 215, 219, 21, 192, 155, 164, 91, 162,
                251, 127, 87, 205, 212, 148, 86, 247, 117, 156, 54, 106, 38, 196, 136, 3,
            ],
            [
                207, 47, 22, 54, 95, 224, 8, 231, 93, 21, 148, 174, 225, 135, 21, 212, 9, 209, 83,
                32, 171, 181, 25, 73, 121, 98, 91, 120, 162, 120, 95, 112, 161,
            ],
            [
                88, 75, 215, 224, 54, 232, 10, 65, 192, 168, 227, 147, 126, 70, 33, 2, 134, 174,
                130, 94, 185, 168, 84, 156, 167, 229, 16, 99, 241, 233, 69, 60, 75,
            ],
        ];
        for (level, expected) in EncryptionLevel::ALL.into_iter().zip(expected) {
            let keys = Keys::derive(0x5EED_0FC0_FFEE, level);
            let sealed = keys.seal(0x1234, &payload);
            assert_eq!(sealed, expected, "{level}");
            assert_eq!(keys.open(0x1234, &sealed).unwrap(), payload);
        }
    }

    #[test]
    fn wrong_level_or_secret_fails_to_open() {
        let initial = Keys::derive(42, EncryptionLevel::Initial);
        let handshake = Keys::derive(42, EncryptionLevel::Handshake);
        let other_conn = Keys::derive(43, EncryptionLevel::Initial);
        let sealed = initial.seal(0, b"client hello");
        assert_eq!(
            handshake.open(0, &sealed).unwrap_err(),
            CryptoError::TagMismatch
        );
        assert_eq!(
            other_conn.open(0, &sealed).unwrap_err(),
            CryptoError::TagMismatch
        );
        assert_eq!(
            initial.open(1, &sealed).unwrap_err(),
            CryptoError::TagMismatch
        );
        assert_eq!(initial.open(0, &sealed).unwrap(), b"client hello");
    }

    #[test]
    fn corruption_is_detected() {
        let keys = Keys::derive(1, EncryptionLevel::OneRtt);
        let mut sealed = keys.seal(3, b"data");
        sealed[0] ^= 0xFF;
        assert_eq!(keys.open(3, &sealed).unwrap_err(), CryptoError::TagMismatch);
        assert_eq!(keys.open(3, &[1, 2]).unwrap_err(), CryptoError::Truncated);
    }

    #[test]
    fn in_place_forms_match_the_copying_ones() {
        let keys = Keys::derive(77, EncryptionLevel::OneRtt);
        let mut buf = b"header".to_vec();
        buf.extend_from_slice(b"payload bytes");
        keys.seal_in_place(4, &mut buf, 6);
        assert_eq!(&buf[..6], b"header", "the header stays in the clear");
        assert_eq!(&buf[6..], &keys.seal(4, b"payload bytes")[..]);
        let mut sealed = buf[6..].to_vec();
        keys.open_in_place(4, &mut sealed).unwrap();
        assert_eq!(sealed, b"payload bytes");
        let mut short = vec![1, 2, 3];
        assert_eq!(
            keys.open_in_place(4, &mut short),
            Err(CryptoError::Truncated)
        );
    }

    #[test]
    fn empty_payloads_are_supported() {
        let keys = Keys::derive(5, EncryptionLevel::Handshake);
        let sealed = keys.seal(9, b"");
        assert_eq!(sealed.len(), TAG_LEN);
        assert_eq!(keys.open(9, &sealed).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn display_names() {
        assert_eq!(EncryptionLevel::Initial.to_string(), "Initial");
        assert_eq!(EncryptionLevel::OneRtt.to_string(), "1-RTT");
        assert!(CryptoError::TagMismatch.to_string().contains("tag"));
    }
}

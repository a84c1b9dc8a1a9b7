//! QUIC variable-length integers (draft-29 §16 / RFC 9000 §16).
//!
//! The two most significant bits of the first byte select the encoding
//! length (1, 2, 4 or 8 bytes); the remaining bits carry the value in
//! network byte order.  The largest representable value is 2⁶²−1.
//!
//! Decoders read from a `&mut &[u8]` cursor, which they advance past what
//! they consumed; encoders append to a `Vec<u8>`.

use std::fmt;

/// Maximum value representable as a QUIC varint (2⁶² − 1).
pub const MAX_VARINT: u64 = (1 << 62) - 1;

/// Errors raised by varint decoding/encoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VarIntError {
    /// The value does not fit in 62 bits.
    TooLarge(u64),
    /// The buffer ended in the middle of a varint.
    Truncated,
}

impl fmt::Display for VarIntError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VarIntError::TooLarge(v) => write!(f, "{v} exceeds the 62-bit varint range"),
            VarIntError::Truncated => write!(f, "buffer truncated inside a varint"),
        }
    }
}

impl std::error::Error for VarIntError {}

/// Number of bytes needed to encode `value`.
pub fn varint_len(value: u64) -> Result<usize, VarIntError> {
    match value {
        v if v < 1 << 6 => Ok(1),
        v if v < 1 << 14 => Ok(2),
        v if v < 1 << 30 => Ok(4),
        v if v <= MAX_VARINT => Ok(8),
        v => Err(VarIntError::TooLarge(v)),
    }
}

/// Appends `value` to `buf` in varint encoding.
pub fn write_varint(buf: &mut Vec<u8>, value: u64) -> Result<(), VarIntError> {
    match varint_len(value)? {
        1 => buf.push(value as u8),
        2 => buf.extend_from_slice(&((value as u16) | 0x4000).to_be_bytes()),
        4 => buf.extend_from_slice(&((value as u32) | 0x8000_0000).to_be_bytes()),
        _ => buf.extend_from_slice(&(value | 0xC000_0000_0000_0000).to_be_bytes()),
    }
    Ok(())
}

/// Reads a varint from the front of `buf`, advancing it.
pub fn read_varint(buf: &mut &[u8]) -> Result<u64, VarIntError> {
    let first = *buf.first().ok_or(VarIntError::Truncated)?;
    let len = 1usize << (first >> 6);
    let bytes = take(buf, len).ok_or(VarIntError::Truncated)?;
    let value = bytes[1..]
        .iter()
        .fold(u64::from(first & 0x3F), |acc, &b| acc << 8 | u64::from(b));
    Ok(value)
}

/// Splits the first `len` bytes off `buf`, or `None` when it is shorter.
pub(crate) fn take<'a>(buf: &mut &'a [u8], len: usize) -> Option<&'a [u8]> {
    let (head, rest) = buf.split_at_checked(len)?;
    *buf = rest;
    Some(head)
}

/// Reads a fixed-size big-endian field from the front of `buf`.
pub(crate) fn take_array<const N: usize>(buf: &mut &[u8]) -> Option<[u8; N]> {
    let (head, rest) = buf.split_first_chunk::<N>()?;
    *buf = rest;
    Some(*head)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(value: u64) -> (usize, u64) {
        let mut buf = Vec::new();
        write_varint(&mut buf, value).unwrap();
        let len = buf.len();
        (len, read_varint(&mut &buf[..]).unwrap())
    }

    #[test]
    fn rfc_9000_appendix_a_examples() {
        // The canonical examples from RFC 9000 Appendix A.1.
        let mut b: &[u8] = &[0xc2, 0x19, 0x7c, 0x5e, 0xff, 0x14, 0xe8, 0x8c];
        assert_eq!(read_varint(&mut b).unwrap(), 151_288_809_941_952_652);
        assert!(b.is_empty(), "the cursor advances past the varint");
        let mut b: &[u8] = &[0x9d, 0x7f, 0x3e, 0x7d];
        assert_eq!(read_varint(&mut b).unwrap(), 494_878_333);
        let mut b: &[u8] = &[0x7b, 0xbd];
        assert_eq!(read_varint(&mut b).unwrap(), 15_293);
        let mut b: &[u8] = &[0x25];
        assert_eq!(read_varint(&mut b).unwrap(), 37);
    }

    #[test]
    fn encoding_lengths_follow_thresholds() {
        assert_eq!(round_trip(0), (1, 0));
        assert_eq!(round_trip(63), (1, 63));
        assert_eq!(round_trip(64), (2, 64));
        assert_eq!(round_trip(16_383), (2, 16_383));
        assert_eq!(round_trip(16_384), (4, 16_384));
        assert_eq!(round_trip((1 << 30) - 1), (4, (1 << 30) - 1));
        assert_eq!(round_trip(1 << 30), (8, 1 << 30));
        assert_eq!(round_trip(MAX_VARINT), (8, MAX_VARINT));
    }

    #[test]
    fn errors() {
        let mut buf = Vec::new();
        assert_eq!(
            write_varint(&mut buf, MAX_VARINT + 1),
            Err(VarIntError::TooLarge(MAX_VARINT + 1))
        );
        assert_eq!(
            varint_len(u64::MAX).unwrap_err(),
            VarIntError::TooLarge(u64::MAX)
        );
        let mut empty: &[u8] = &[];
        assert_eq!(read_varint(&mut empty), Err(VarIntError::Truncated));
        let mut short: &[u8] = &[0xc0, 0x01];
        assert_eq!(read_varint(&mut short), Err(VarIntError::Truncated));
        assert!(VarIntError::Truncated.to_string().contains("truncated"));
    }

    #[test]
    fn exhaustive_round_trip_near_boundaries() {
        for base in [
            0u64,
            63,
            64,
            16_383,
            16_384,
            (1 << 30) - 1,
            1 << 30,
            MAX_VARINT - 1,
        ] {
            for delta in 0..2 {
                let v = base.saturating_add(delta).min(MAX_VARINT);
                assert_eq!(round_trip(v).1, v);
            }
        }
    }
}

//! TCP segments and their wire codec.
//!
//! The concrete alphabet of the TCP case study (§3.1, Example 3.2) is a
//! structured view of a TCP segment: ports, sequence and acknowledgement
//! numbers, flags, window and payload.  [`TcpSegment`] is that structure;
//! [`TcpSegment::encode`]/[`TcpSegment::decode`] are the native-alphabet
//! codec (the role Scapy plays in the paper), and
//! [`TcpSegment::abstract_name`] is the abstraction the learner sees
//! (`"SYN"`, `"ACK+PSH"`, ...).
//!
//! A segment owns its payload as a plain `Vec<u8>`, so a segment without
//! payload — every server reply and most requests — allocates nothing.
//! The codec works on borrowed bytes: `encode` appends to the caller's
//! buffer and `decode` parses a `&[u8]`, leaving the choice of wire buffer
//! to whoever puts the segment on a wire.

use std::fmt;

/// TCP header flags (subset relevant to the case study).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct TcpFlags {
    /// Synchronize sequence numbers.
    pub syn: bool,
    /// Acknowledgement field significant.
    pub ack: bool,
    /// No more data from sender.
    pub fin: bool,
    /// Reset the connection.
    pub rst: bool,
    /// Push function.
    pub psh: bool,
}

impl TcpFlags {
    /// SYN only.
    pub const SYN: TcpFlags = TcpFlags {
        syn: true,
        ack: false,
        fin: false,
        rst: false,
        psh: false,
    };
    /// ACK only.
    pub const ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: false,
        rst: false,
        psh: false,
    };
    /// SYN+ACK.
    pub const SYN_ACK: TcpFlags = TcpFlags {
        syn: true,
        ack: true,
        fin: false,
        rst: false,
        psh: false,
    };
    /// FIN+ACK.
    pub const FIN_ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: true,
        rst: false,
        psh: false,
    };
    /// RST only.
    pub const RST: TcpFlags = TcpFlags {
        syn: false,
        ack: false,
        fin: false,
        rst: true,
        psh: false,
    };
    /// RST+ACK.
    pub const RST_ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: false,
        rst: true,
        psh: false,
    };
    /// PSH+ACK.
    pub const PSH_ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: false,
        rst: false,
        psh: true,
    };

    /// Packs the flags into the low bits of a byte
    /// (FIN=0x01, SYN=0x02, RST=0x04, PSH=0x08, ACK=0x10 as in the TCP header).
    pub fn to_byte(&self) -> u8 {
        (self.fin as u8)
            | ((self.syn as u8) << 1)
            | ((self.rst as u8) << 2)
            | ((self.psh as u8) << 3)
            | ((self.ack as u8) << 4)
    }

    /// Unpacks flags from a byte.
    pub fn from_byte(b: u8) -> Self {
        TcpFlags {
            fin: b & 0x01 != 0,
            syn: b & 0x02 != 0,
            rst: b & 0x04 != 0,
            psh: b & 0x08 != 0,
            ack: b & 0x10 != 0,
        }
    }

    /// The paper's flag notation: flags joined with `+` in the order
    /// ACK, SYN, FIN, RST, PSH (e.g. `ACK+SYN`, `FIN+ACK` is rendered
    /// `ACK+FIN`), or `NONE` when no flag is set.
    pub fn label(&self) -> String {
        let mut parts = Vec::new();
        if self.ack {
            parts.push("ACK");
        }
        if self.syn {
            parts.push("SYN");
        }
        if self.fin {
            parts.push("FIN");
        }
        if self.rst {
            parts.push("RST");
        }
        if self.psh {
            parts.push("PSH");
        }
        if parts.is_empty() {
            "NONE".to_string()
        } else {
            parts.join("+")
        }
    }
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// A TCP segment (the concrete alphabet of the TCP case study).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TcpSegment {
    /// Source port.
    pub source_port: u16,
    /// Destination port.
    pub destination_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgement number.
    pub ack: u32,
    /// Header flags.
    pub flags: TcpFlags,
    /// Receive window.
    pub window: u16,
    /// Payload bytes; at most [`MAX_PAYLOAD`] of them, as many as the
    /// wire format's 16-bit length field can declare.
    pub payload: Vec<u8>,
}

/// Errors produced while decoding a segment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SegmentError {
    /// The buffer is shorter than the fixed header.
    Truncated,
    /// The payload length field exceeds the remaining bytes.
    BadPayloadLength {
        /// Payload length declared in the header.
        declared: usize,
        /// Bytes actually available after the header.
        available: usize,
    },
}

impl fmt::Display for SegmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentError::Truncated => write!(f, "segment truncated"),
            SegmentError::BadPayloadLength {
                declared,
                available,
            } => {
                write!(
                    f,
                    "payload length {declared} exceeds available {available} bytes"
                )
            }
        }
    }
}

impl std::error::Error for SegmentError {}

/// Fixed header length of the simulator's wire format.
const HEADER_LEN: usize = 2 + 2 + 4 + 4 + 1 + 2 + 2;

/// The longest payload the wire format's 16-bit length field can declare.
pub const MAX_PAYLOAD: usize = u16::MAX as usize;

impl TcpSegment {
    /// Creates a segment with an empty payload.
    pub fn new(flags: TcpFlags, seq: u32, ack: u32) -> Self {
        TcpSegment {
            flags,
            seq,
            ack,
            window: 8192,
            ..TcpSegment::default()
        }
    }

    /// Sets the payload.
    pub fn with_payload(mut self, payload: impl Into<Vec<u8>>) -> Self {
        self.payload = payload.into();
        self
    }

    /// Sets the ports.
    pub fn with_ports(mut self, source: u16, destination: u16) -> Self {
        self.source_port = source;
        self.destination_port = destination;
        self
    }

    /// Payload length in bytes.
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }

    /// The amount of sequence space the segment consumes
    /// (payload bytes, plus one for SYN and one for FIN).
    pub fn sequence_space(&self) -> u32 {
        self.payload.len() as u32 + self.flags.syn as u32 + self.flags.fin as u32
    }

    /// The abstract symbol for this segment in the paper's notation,
    /// e.g. `ACK+PSH(?,?,1)` — flags plus the payload length, with sequence
    /// and acknowledgement numbers abstracted away.
    pub fn abstract_name(&self) -> String {
        format!("{}(?,?,{})", self.flags.label(), self.payload.len())
    }

    /// Appends the segment in the simulator's wire format to `out`.
    ///
    /// # Panics
    /// Panics when the payload is longer than [`MAX_PAYLOAD`]: its length
    /// would not fit the header, and the wire would carry a different
    /// segment than the one handed in.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let payload_len =
            u16::try_from(self.payload.len()).expect("a TCP payload fits the 16-bit length field");
        out.reserve(HEADER_LEN + self.payload.len());
        out.extend_from_slice(&self.source_port.to_be_bytes());
        out.extend_from_slice(&self.destination_port.to_be_bytes());
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&self.ack.to_be_bytes());
        out.push(self.flags.to_byte());
        out.extend_from_slice(&self.window.to_be_bytes());
        out.extend_from_slice(&payload_len.to_be_bytes());
        out.extend_from_slice(&self.payload);
    }

    /// Decodes a segment from the simulator's wire format.  Bytes past the
    /// declared payload are ignored.
    pub fn decode(data: &[u8]) -> Result<Self, SegmentError> {
        let Some((header, rest)) = data.split_first_chunk::<HEADER_LEN>() else {
            return Err(SegmentError::Truncated);
        };
        let u16_at = |at: usize| u16::from_be_bytes([header[at], header[at + 1]]);
        let u32_at = |at: usize| {
            u32::from_be_bytes([header[at], header[at + 1], header[at + 2], header[at + 3]])
        };
        let payload_len = usize::from(u16_at(15));
        let Some(payload) = rest.get(..payload_len) else {
            return Err(SegmentError::BadPayloadLength {
                declared: payload_len,
                available: rest.len(),
            });
        };
        Ok(TcpSegment {
            source_port: u16_at(0),
            destination_port: u16_at(2),
            seq: u32_at(4),
            ack: u32_at(8),
            flags: TcpFlags::from_byte(header[12]),
            window: u16_at(13),
            payload: payload.to_vec(),
        })
    }
}

impl fmt::Display for TcpSegment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}(seq={}, ack={}, len={})",
            self.flags.label(),
            self.seq,
            self.ack,
            self.payload.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_byte_round_trip() {
        for byte in 0..32u8 {
            let flags = TcpFlags::from_byte(byte);
            assert_eq!(flags.to_byte(), byte);
        }
    }

    #[test]
    fn flag_labels_match_paper_notation() {
        assert_eq!(TcpFlags::SYN.label(), "SYN");
        assert_eq!(TcpFlags::SYN_ACK.label(), "ACK+SYN");
        assert_eq!(TcpFlags::FIN_ACK.label(), "ACK+FIN");
        assert_eq!(TcpFlags::PSH_ACK.label(), "ACK+PSH");
        assert_eq!(TcpFlags::RST_ACK.label(), "ACK+RST");
        assert_eq!(TcpFlags::default().label(), "NONE");
        assert_eq!(TcpFlags::RST.to_string(), "RST");
    }

    fn encoded(segment: &TcpSegment) -> Vec<u8> {
        let mut out = Vec::new();
        segment.encode(&mut out);
        out
    }

    #[test]
    fn segment_codec_round_trip() {
        let seg = TcpSegment::new(TcpFlags::PSH_ACK, 1000, 2000)
            .with_ports(40965, 44344)
            .with_payload(*b"hello tcp");
        let decoded = TcpSegment::decode(&encoded(&seg)).unwrap();
        assert_eq!(decoded, seg);
        assert_eq!(decoded.payload_len(), 9);
    }

    #[test]
    fn encode_appends_to_the_callers_buffer() {
        let seg = TcpSegment::new(TcpFlags::SYN, 1, 0);
        let mut out = b"xy".to_vec();
        seg.encode(&mut out);
        assert_eq!(&out[..2], b"xy");
        assert_eq!(out[2..], encoded(&seg)[..]);
        assert_eq!(out.len(), 2 + HEADER_LEN);
    }

    #[test]
    #[should_panic(expected = "16-bit length field")]
    fn encode_refuses_a_payload_its_length_field_cannot_declare() {
        let seg = TcpSegment::new(TcpFlags::PSH_ACK, 0, 0).with_payload(vec![0; MAX_PAYLOAD + 1]);
        encoded(&seg);
    }

    #[test]
    fn the_longest_payload_round_trips() {
        let seg = TcpSegment::new(TcpFlags::PSH_ACK, 0, 0).with_payload(vec![7; MAX_PAYLOAD]);
        assert_eq!(TcpSegment::decode(&encoded(&seg)), Ok(seg));
    }

    #[test]
    fn decode_errors() {
        assert_eq!(TcpSegment::decode(b"xx"), Err(SegmentError::Truncated));
        // Declare a payload longer than what follows.
        let seg = TcpSegment::new(TcpFlags::ACK, 0, 0);
        let mut bad = encoded(&seg);
        let len_off = HEADER_LEN - 2;
        bad[len_off] = 0xFF;
        bad[len_off + 1] = 0xFF;
        let err = TcpSegment::decode(&bad).unwrap_err();
        assert!(matches!(err, SegmentError::BadPayloadLength { .. }));
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn sequence_space_accounts_for_syn_fin_and_payload() {
        assert_eq!(TcpSegment::new(TcpFlags::SYN, 0, 0).sequence_space(), 1);
        assert_eq!(TcpSegment::new(TcpFlags::ACK, 0, 0).sequence_space(), 0);
        assert_eq!(TcpSegment::new(TcpFlags::FIN_ACK, 0, 0).sequence_space(), 1);
        assert_eq!(
            TcpSegment::new(TcpFlags::PSH_ACK, 0, 0)
                .with_payload(*b"abc")
                .sequence_space(),
            3
        );
    }

    #[test]
    fn abstract_names_match_the_learning_alphabet() {
        assert_eq!(
            TcpSegment::new(TcpFlags::SYN, 5, 0).abstract_name(),
            "SYN(?,?,0)"
        );
        assert_eq!(
            TcpSegment::new(TcpFlags::PSH_ACK, 5, 9)
                .with_payload(*b"x")
                .abstract_name(),
            "ACK+PSH(?,?,1)"
        );
    }

    #[test]
    fn display_is_informative() {
        let seg = TcpSegment::new(TcpFlags::SYN_ACK, 7, 8);
        assert_eq!(seg.to_string(), "ACK+SYN(seq=7, ack=8, len=0)");
    }

    #[test]
    fn segments_are_cloneable_and_comparable() {
        let seg = TcpSegment::new(TcpFlags::SYN, 1, 2).with_payload(*b"p");
        let copy = seg.clone();
        assert_eq!(copy, seg);
        assert_ne!(seg, TcpSegment::new(TcpFlags::SYN, 1, 3));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1024))]

        // The segment parser is total: arbitrary bytes give a segment or
        // a typed error, never a panic, and whatever decodes survives
        // re-encoding unchanged.
        #[test]
        fn arbitrary_bytes_never_panic_the_segment_parser(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..512),
        ) {
            if let Ok(segment) = TcpSegment::decode(&bytes) {
                proptest::prop_assert_eq!(TcpSegment::decode(&encoded(&segment)), Ok(segment));
            }
        }
    }
}

//! TCP segments and their wire codec.
//!
//! The concrete alphabet of the TCP case study (§3.1, Example 3.2) is a
//! structured view of a TCP segment: ports, sequence and acknowledgement
//! numbers, flags, window and payload.  [`TcpSegment`] is that structure;
//! [`TcpSegment::encode`]/[`TcpSegment::decode`] are the native-alphabet
//! codec (the role Scapy plays in the paper), and
//! [`TcpSegment::abstract_name`] is the abstraction the learner sees
//! (`"SYN"`, `"ACK+PSH"`, ...).

use bytes::{Buf, BufMut, Bytes, BytesMut};
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
    /// Payload bytes.
    pub payload: Bytes,
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
    pub fn with_payload(mut self, payload: impl Into<Bytes>) -> Self {
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

    /// Encodes the segment into the simulator's wire format.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(HEADER_LEN + self.payload.len());
        buf.put_u16(self.source_port);
        buf.put_u16(self.destination_port);
        buf.put_u32(self.seq);
        buf.put_u32(self.ack);
        buf.put_u8(self.flags.to_byte());
        buf.put_u16(self.window);
        buf.put_u16(self.payload.len() as u16);
        buf.put_slice(&self.payload);
        buf.freeze()
    }

    /// Decodes a segment from the simulator's wire format.
    pub fn decode(mut data: Bytes) -> Result<Self, SegmentError> {
        if data.len() < HEADER_LEN {
            return Err(SegmentError::Truncated);
        }
        let source_port = data.get_u16();
        let destination_port = data.get_u16();
        let seq = data.get_u32();
        let ack = data.get_u32();
        let flags = TcpFlags::from_byte(data.get_u8());
        let window = data.get_u16();
        let payload_len = data.get_u16() as usize;
        if payload_len > data.len() {
            return Err(SegmentError::BadPayloadLength {
                declared: payload_len,
                available: data.len(),
            });
        }
        let payload = data.slice(..payload_len);
        Ok(TcpSegment {
            source_port,
            destination_port,
            seq,
            ack,
            flags,
            window,
            payload,
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

    #[test]
    fn segment_codec_round_trip() {
        let seg = TcpSegment::new(TcpFlags::PSH_ACK, 1000, 2000)
            .with_ports(40965, 44344)
            .with_payload(Bytes::from_static(b"hello tcp"));
        let decoded = TcpSegment::decode(seg.encode()).unwrap();
        assert_eq!(decoded, seg);
        assert_eq!(decoded.payload_len(), 9);
    }

    #[test]
    fn decode_errors() {
        assert_eq!(
            TcpSegment::decode(Bytes::from_static(b"xx")),
            Err(SegmentError::Truncated)
        );
        // Declare a payload longer than what follows.
        let seg = TcpSegment::new(TcpFlags::ACK, 0, 0);
        let mut bad = BytesMut::from(&seg.encode()[..]);
        let len_off = HEADER_LEN - 2;
        bad[len_off] = 0xFF;
        bad[len_off + 1] = 0xFF;
        let err = TcpSegment::decode(bad.freeze()).unwrap_err();
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
                .with_payload(Bytes::from_static(b"abc"))
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
                .with_payload(Bytes::from_static(b"x"))
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
        let seg = TcpSegment::new(TcpFlags::SYN, 1, 2).with_payload(Bytes::from_static(b"p"));
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
            if let Ok(segment) = TcpSegment::decode(Bytes::from(bytes)) {
                proptest::prop_assert_eq!(TcpSegment::decode(segment.encode()), Ok(segment));
            }
        }
    }
}

//! QUIC packets (draft-29 §17): the seven packet types, header codec and
//! payload protection.
//!
//! The abstraction the learner sees is [`Packet::abstract_name`]:
//! `TYPE(?,?)[FRAME,FRAME,...]` — packet type plus the names of the carried
//! frames, with version and packet number abstracted to `?` exactly as in
//! the paper's QUIC alphabet (§6.2.2).

use crate::connection_id::ConnectionId;
use crate::crypto::{CryptoError, Keys};
use crate::frame::{Frame, FrameError};
use crate::varint::{read_varint, write_varint, VarIntError};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

/// The QUIC version this crate speaks (draft-29).
pub const QUIC_VERSION_DRAFT29: u32 = 0xFF00_001D;

/// The seven packet types of the paper's QUIC background section.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PacketType {
    /// Initial packets carry the first CRYPTO flights and tokens.
    Initial,
    /// 0-RTT packets carry early application data.
    ZeroRtt,
    /// Handshake packets complete the TLS handshake.
    Handshake,
    /// Retry packets perform address validation.
    Retry,
    /// Version negotiation packets list supported versions.
    VersionNegotiation,
    /// Short-header (1-RTT) packets carry application data.
    Short,
    /// Stateless reset datagrams (last-resort connection teardown).
    StatelessReset,
}

impl PacketType {
    /// The paper's notation for the type.
    pub fn name(&self) -> &'static str {
        match self {
            PacketType::Initial => "INITIAL",
            PacketType::ZeroRtt => "0RTT",
            PacketType::Handshake => "HANDSHAKE",
            PacketType::Retry => "RETRY",
            PacketType::VersionNegotiation => "VERSION_NEGOTIATION",
            PacketType::Short => "SHORT",
            PacketType::StatelessReset => "RESET",
        }
    }

    /// All seven packet types.
    pub const ALL: [PacketType; 7] = [
        PacketType::Initial,
        PacketType::ZeroRtt,
        PacketType::Handshake,
        PacketType::Retry,
        PacketType::VersionNegotiation,
        PacketType::Short,
        PacketType::StatelessReset,
    ];

    fn long_header_bits(&self) -> Option<u8> {
        match self {
            PacketType::Initial => Some(0b00),
            PacketType::ZeroRtt => Some(0b01),
            PacketType::Handshake => Some(0b10),
            PacketType::Retry => Some(0b11),
            _ => None,
        }
    }
}

impl fmt::Display for PacketType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// A decoded packet header.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PacketHeader {
    /// Packet type.
    pub packet_type: PacketType,
    /// Protocol version (long headers only; 0 for short headers).
    pub version: u32,
    /// Destination connection ID.
    pub destination_cid: ConnectionId,
    /// Source connection ID (long headers only; empty for short headers).
    pub source_cid: ConnectionId,
    /// Address-validation token (Initial and Retry packets).
    pub token: Bytes,
    /// Full (un-truncated) packet number.  Zero for Retry/VN/reset.
    pub packet_number: u64,
}

impl PacketHeader {
    /// A long header of the given type.
    pub fn long(
        packet_type: PacketType,
        destination_cid: ConnectionId,
        source_cid: ConnectionId,
        packet_number: u64,
    ) -> Self {
        PacketHeader {
            packet_type,
            version: QUIC_VERSION_DRAFT29,
            destination_cid,
            source_cid,
            token: Bytes::new(),
            packet_number,
        }
    }

    /// A short (1-RTT) header.
    pub fn short(destination_cid: ConnectionId, packet_number: u64) -> Self {
        PacketHeader {
            packet_type: PacketType::Short,
            version: 0,
            destination_cid,
            source_cid: ConnectionId::empty(),
            token: Bytes::new(),
            packet_number,
        }
    }

    /// Attaches an address-validation token (Initial/Retry).
    pub fn with_token(mut self, token: impl Into<Bytes>) -> Self {
        self.token = token.into();
        self
    }
}

/// A QUIC packet: header plus frames.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Packet {
    /// The packet header.
    pub header: PacketHeader,
    /// The frames carried in the payload (empty for Retry/VN/reset).
    pub frames: Vec<Frame>,
}

/// Errors raised by the packet codec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PacketError {
    /// The datagram is shorter than a minimal header.
    Truncated,
    /// A varint field was malformed.
    VarInt(VarIntError),
    /// A frame failed to decode.
    Frame(FrameError),
    /// Payload protection could not be removed (wrong keys / corrupted).
    Crypto(CryptoError),
    /// The first byte does not describe a known packet type.
    BadFirstByte(u8),
}

impl From<VarIntError> for PacketError {
    fn from(e: VarIntError) -> Self {
        PacketError::VarInt(e)
    }
}

impl From<FrameError> for PacketError {
    fn from(e: FrameError) -> Self {
        PacketError::Frame(e)
    }
}

impl From<CryptoError> for PacketError {
    fn from(e: CryptoError) -> Self {
        PacketError::Crypto(e)
    }
}

impl fmt::Display for PacketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PacketError::Truncated => write!(f, "packet truncated"),
            PacketError::VarInt(e) => write!(f, "varint error: {e}"),
            PacketError::Frame(e) => write!(f, "frame error: {e}"),
            PacketError::Crypto(e) => write!(f, "protection error: {e}"),
            PacketError::BadFirstByte(b) => write!(f, "unrecognised first byte 0x{b:02x}"),
        }
    }
}

impl std::error::Error for PacketError {}

/// Marker byte used for stateless-reset datagrams in this simulator.
const STATELESS_RESET_MARKER: u8 = 0x7F;

impl Packet {
    /// Creates a packet.
    pub fn new(header: PacketHeader, frames: Vec<Frame>) -> Self {
        Packet { header, frames }
    }

    /// The packet's abstract symbol in the paper's notation, e.g.
    /// `INITIAL(?,?)[ACK,CRYPTO]` or `SHORT(?,?)[ACK,STREAM]`.
    /// Frame names are listed in the order they appear, PADDING omitted,
    /// duplicates collapsed.
    pub fn abstract_name(&self) -> String {
        let mut names: Vec<&str> = Vec::new();
        for frame in &self.frames {
            let name = frame.frame_type().name();
            if name == "PADDING" || names.contains(&name) {
                continue;
            }
            names.push(name);
        }
        names.sort_unstable();
        format!(
            "{}(?,?)[{}]",
            self.header.packet_type.name(),
            names.join(",")
        )
    }

    /// Encodes and protects the packet with `keys` (ignored for Retry,
    /// Version Negotiation and stateless reset, which are not protected).
    pub fn encode(&self, keys: &Keys) -> Bytes {
        let mut buf = BytesMut::new();
        match self.header.packet_type {
            PacketType::Short => {
                buf.put_u8(0x40);
                buf.put_u8(self.header.destination_cid.len() as u8);
                buf.put_slice(self.header.destination_cid.as_bytes());
                buf.put_u32(self.header.packet_number as u32);
                let sealed = keys.seal(self.header.packet_number, &Frame::encode_all(&self.frames));
                buf.put_slice(&sealed);
            }
            PacketType::StatelessReset => {
                buf.put_u8(STATELESS_RESET_MARKER);
                buf.put_u8(self.header.destination_cid.len() as u8);
                buf.put_slice(self.header.destination_cid.as_bytes());
                // 16-byte stateless reset token derived from the CID.
                let token = self.header.destination_cid.key_material().to_be_bytes();
                buf.put_slice(&token);
                buf.put_slice(&token);
            }
            PacketType::VersionNegotiation => {
                buf.put_u8(0x80);
                buf.put_u32(0); // version 0 identifies VN
                put_cid(&mut buf, &self.header.destination_cid);
                put_cid(&mut buf, &self.header.source_cid);
                buf.put_u32(QUIC_VERSION_DRAFT29);
            }
            PacketType::Retry => {
                let bits = PacketType::Retry.long_header_bits().unwrap();
                buf.put_u8(0xC0 | (bits << 4));
                buf.put_u32(self.header.version);
                put_cid(&mut buf, &self.header.destination_cid);
                put_cid(&mut buf, &self.header.source_cid);
                write_varint(&mut buf, self.header.token.len() as u64).unwrap();
                buf.put_slice(&self.header.token);
            }
            PacketType::Initial | PacketType::Handshake | PacketType::ZeroRtt => {
                let bits = self.header.packet_type.long_header_bits().unwrap();
                buf.put_u8(0xC0 | (bits << 4));
                buf.put_u32(self.header.version);
                put_cid(&mut buf, &self.header.destination_cid);
                put_cid(&mut buf, &self.header.source_cid);
                if self.header.packet_type == PacketType::Initial {
                    write_varint(&mut buf, self.header.token.len() as u64).unwrap();
                    buf.put_slice(&self.header.token);
                }
                let sealed = keys.seal(self.header.packet_number, &Frame::encode_all(&self.frames));
                write_varint(&mut buf, (sealed.len() + 4) as u64).unwrap();
                buf.put_u32(self.header.packet_number as u32);
                buf.put_slice(&sealed);
            }
        }
        buf.freeze()
    }

    /// Decodes only the header portion of a datagram, without removing
    /// protection.  This is what an endpoint does first to decide which keys
    /// to use (or that it has none and must ignore the packet).
    pub fn decode_header(datagram: &Bytes) -> Result<(PacketHeader, Bytes), PacketError> {
        let mut buf = datagram.clone();
        if !buf.has_remaining() {
            return Err(PacketError::Truncated);
        }
        let first = buf.get_u8();
        if first == STATELESS_RESET_MARKER {
            let dcid = get_cid_u8len(&mut buf)?;
            let header = PacketHeader {
                packet_type: PacketType::StatelessReset,
                version: 0,
                destination_cid: dcid,
                source_cid: ConnectionId::empty(),
                token: Bytes::new(),
                packet_number: 0,
            };
            return Ok((header, Bytes::new()));
        }
        if first & 0x80 == 0 {
            // Short header.
            let dcid = get_cid_u8len(&mut buf)?;
            if buf.remaining() < 4 {
                return Err(PacketError::Truncated);
            }
            let pn = u64::from(buf.get_u32());
            let header = PacketHeader::short(dcid, pn);
            return Ok((header, buf));
        }
        // Long header.
        if buf.remaining() < 4 {
            return Err(PacketError::Truncated);
        }
        let version = buf.get_u32();
        let dcid = get_cid(&mut buf)?;
        let scid = get_cid(&mut buf)?;
        if version == 0 {
            // Version negotiation.
            let header = PacketHeader {
                packet_type: PacketType::VersionNegotiation,
                version,
                destination_cid: dcid,
                source_cid: scid,
                token: Bytes::new(),
                packet_number: 0,
            };
            return Ok((header, buf));
        }
        let type_bits = (first >> 4) & 0b11;
        let packet_type = match type_bits {
            0b00 => PacketType::Initial,
            0b01 => PacketType::ZeroRtt,
            0b10 => PacketType::Handshake,
            _ => PacketType::Retry,
        };
        if packet_type == PacketType::Retry {
            let token_len = read_varint(&mut buf)? as usize;
            if buf.remaining() < token_len {
                return Err(PacketError::Truncated);
            }
            let token = buf.split_to(token_len);
            let header = PacketHeader {
                packet_type,
                version,
                destination_cid: dcid,
                source_cid: scid,
                token,
                packet_number: 0,
            };
            return Ok((header, Bytes::new()));
        }
        let token = if packet_type == PacketType::Initial {
            let token_len = read_varint(&mut buf)? as usize;
            if buf.remaining() < token_len {
                return Err(PacketError::Truncated);
            }
            buf.split_to(token_len)
        } else {
            Bytes::new()
        };
        let length = read_varint(&mut buf)? as usize;
        if buf.remaining() < length || length < 4 {
            return Err(PacketError::Truncated);
        }
        let mut body = buf.split_to(length);
        let pn = u64::from(body.get_u32());
        let header = PacketHeader {
            packet_type,
            version,
            destination_cid: dcid,
            source_cid: scid,
            token,
            packet_number: pn,
        };
        Ok((header, body))
    }

    /// Decodes a full packet, removing protection with `keys`.
    pub fn decode(datagram: &Bytes, keys: &Keys) -> Result<Packet, PacketError> {
        let (header, protected) = Packet::decode_header(datagram)?;
        match header.packet_type {
            PacketType::Retry | PacketType::VersionNegotiation | PacketType::StatelessReset => {
                Ok(Packet {
                    header,
                    frames: Vec::new(),
                })
            }
            _ => {
                let plaintext = keys.open(header.packet_number, &protected)?;
                let frames = Frame::decode_all(Bytes::from(plaintext))?;
                Ok(Packet { header, frames })
            }
        }
    }
}

fn put_cid(buf: &mut BytesMut, cid: &ConnectionId) {
    buf.put_u8(cid.len() as u8);
    buf.put_slice(cid.as_bytes());
}

fn get_cid(buf: &mut Bytes) -> Result<ConnectionId, PacketError> {
    get_cid_u8len(buf)
}

fn get_cid_u8len(buf: &mut Bytes) -> Result<ConnectionId, PacketError> {
    if !buf.has_remaining() {
        return Err(PacketError::Truncated);
    }
    let len = buf.get_u8() as usize;
    if buf.remaining() < len || len > 20 {
        return Err(PacketError::Truncated);
    }
    Ok(ConnectionId::new(buf.split_to(len).to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto::EncryptionLevel;

    fn keys(level: EncryptionLevel) -> Keys {
        Keys::derive(ConnectionId::from_seed(1).key_material(), level)
    }

    fn initial_packet() -> Packet {
        Packet::new(
            PacketHeader::long(
                PacketType::Initial,
                ConnectionId::from_seed(1),
                ConnectionId::from_seed(2),
                0,
            ),
            vec![Frame::Crypto {
                offset: 0,
                data: Bytes::from_static(b"client hello"),
            }],
        )
    }

    #[test]
    fn initial_packet_round_trip() {
        let k = keys(EncryptionLevel::Initial);
        let p = initial_packet();
        let wire = p.encode(&k);
        let decoded = Packet::decode(&wire, &k).unwrap();
        assert_eq!(decoded, p);
        assert_eq!(decoded.abstract_name(), "INITIAL(?,?)[CRYPTO]");
    }

    #[test]
    fn short_packet_round_trip_and_abstraction() {
        let k = keys(EncryptionLevel::OneRtt);
        let p = Packet::new(
            PacketHeader::short(ConnectionId::from_seed(1), 42),
            vec![
                Frame::Ack {
                    largest_acknowledged: 3,
                    ack_delay: 0,
                    first_ack_range: 0,
                },
                Frame::Stream {
                    stream_id: 0,
                    offset: 0,
                    fin: false,
                    data: Bytes::from_static(b"x"),
                },
                Frame::Padding,
            ],
        );
        let decoded = Packet::decode(&p.encode(&k), &k).unwrap();
        assert_eq!(decoded.header.packet_number, 42);
        assert_eq!(decoded.abstract_name(), "SHORT(?,?)[ACK,STREAM]");
    }

    #[test]
    fn wrong_keys_fail_to_decode() {
        let p = initial_packet();
        let wire = p.encode(&keys(EncryptionLevel::Initial));
        let err = Packet::decode(&wire, &keys(EncryptionLevel::Handshake)).unwrap_err();
        assert!(matches!(err, PacketError::Crypto(_)));
        // Header decoding still works without keys.
        let (header, _) = Packet::decode_header(&wire).unwrap();
        assert_eq!(header.packet_type, PacketType::Initial);
        assert_eq!(header.destination_cid, ConnectionId::from_seed(1));
    }

    #[test]
    fn retry_packet_carries_token_without_protection() {
        let p = Packet::new(
            PacketHeader::long(
                PacketType::Retry,
                ConnectionId::from_seed(3),
                ConnectionId::from_seed(4),
                0,
            )
            .with_token(Bytes::from_static(b"retry-token")),
            vec![],
        );
        let k = keys(EncryptionLevel::Initial);
        let decoded = Packet::decode(&p.encode(&k), &k).unwrap();
        assert_eq!(decoded.header.packet_type, PacketType::Retry);
        assert_eq!(&decoded.header.token[..], b"retry-token");
        assert_eq!(decoded.abstract_name(), "RETRY(?,?)[]");
    }

    #[test]
    fn initial_token_round_trips() {
        let k = keys(EncryptionLevel::Initial);
        let p = Packet::new(
            PacketHeader::long(
                PacketType::Initial,
                ConnectionId::from_seed(1),
                ConnectionId::from_seed(2),
                1,
            )
            .with_token(Bytes::from_static(b"tok123")),
            vec![Frame::Crypto {
                offset: 0,
                data: Bytes::from_static(b"ch"),
            }],
        );
        let decoded = Packet::decode(&p.encode(&k), &k).unwrap();
        assert_eq!(&decoded.header.token[..], b"tok123");
    }

    #[test]
    fn stateless_reset_and_version_negotiation() {
        let k = keys(EncryptionLevel::OneRtt);
        let reset = Packet::new(
            PacketHeader {
                packet_type: PacketType::StatelessReset,
                version: 0,
                destination_cid: ConnectionId::from_seed(9),
                source_cid: ConnectionId::empty(),
                token: Bytes::new(),
                packet_number: 0,
            },
            vec![],
        );
        let decoded = Packet::decode(&reset.encode(&k), &k).unwrap();
        assert_eq!(decoded.header.packet_type, PacketType::StatelessReset);
        assert_eq!(decoded.abstract_name(), "RESET(?,?)[]");

        let vn = Packet::new(
            PacketHeader {
                packet_type: PacketType::VersionNegotiation,
                version: 0,
                destination_cid: ConnectionId::from_seed(1),
                source_cid: ConnectionId::from_seed(2),
                token: Bytes::new(),
                packet_number: 0,
            },
            vec![],
        );
        let decoded = Packet::decode(&vn.encode(&k), &k).unwrap();
        assert_eq!(decoded.header.packet_type, PacketType::VersionNegotiation);
    }

    #[test]
    fn handshake_packet_round_trip() {
        let k = keys(EncryptionLevel::Handshake);
        let p = Packet::new(
            PacketHeader::long(
                PacketType::Handshake,
                ConnectionId::from_seed(1),
                ConnectionId::from_seed(2),
                5,
            ),
            vec![
                Frame::Ack {
                    largest_acknowledged: 1,
                    ack_delay: 0,
                    first_ack_range: 0,
                },
                Frame::Crypto {
                    offset: 0,
                    data: Bytes::from_static(b"finished"),
                },
            ],
        );
        let decoded = Packet::decode(&p.encode(&k), &k).unwrap();
        assert_eq!(decoded, p);
        assert_eq!(decoded.abstract_name(), "HANDSHAKE(?,?)[ACK,CRYPTO]");
    }

    #[test]
    fn malformed_datagrams_are_rejected() {
        let k = keys(EncryptionLevel::Initial);
        assert!(matches!(
            Packet::decode(&Bytes::new(), &k),
            Err(PacketError::Truncated)
        ));
        assert!(matches!(
            Packet::decode(&Bytes::from_static(&[0xC0, 0x00]), &k),
            Err(PacketError::Truncated)
        ));
        let garbage = Bytes::from_static(&[0x40, 0xFF, 0x01, 0x02]);
        assert!(Packet::decode(&garbage, &k).is_err());
    }

    #[test]
    fn packet_type_names_and_display() {
        assert_eq!(PacketType::ALL.len(), 7);
        assert_eq!(PacketType::Initial.to_string(), "INITIAL");
        assert_eq!(PacketType::Short.name(), "SHORT");
        assert_eq!(PacketType::StatelessReset.name(), "RESET");
    }
}

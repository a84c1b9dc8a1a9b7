//! QUIC packets (draft-29 §17): the seven packet types, header codec and
//! payload protection.
//!
//! The abstraction the learner sees is [`Packet::abstract_name`]:
//! `TYPE(?,?)[FRAME,FRAME,...]` — packet type plus the names of the carried
//! frames, with version and packet number abstracted to `?` exactly as in
//! the paper's QUIC alphabet (§6.2.2).

use crate::connection_id::{ConnectionId, MAX_CID_LEN};
use crate::crypto::{CryptoError, Keys};
use crate::frame::{Frame, FrameError};
use crate::varint::{read_varint, take, take_array, write_varint, VarIntError};
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

/// A packet header.  Its token borrows from the datagram it was decoded
/// from, or from whatever the sender builds it over.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PacketHeader<'a> {
    /// Packet type.
    pub packet_type: PacketType,
    /// Protocol version (long headers only; 0 for short headers).
    pub version: u32,
    /// Destination connection ID.
    pub destination_cid: ConnectionId,
    /// Source connection ID (long headers only; empty for short headers).
    pub source_cid: ConnectionId,
    /// Address-validation token (Initial and Retry packets).
    pub token: &'a [u8],
    /// Full (un-truncated) packet number.  Zero for Retry/VN/reset.
    pub packet_number: u64,
}

impl<'a> PacketHeader<'a> {
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
            token: &[],
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
            token: &[],
            packet_number,
        }
    }

    /// Attaches an address-validation token (Initial/Retry).
    pub fn with_token(mut self, token: &'a [u8]) -> Self {
        self.token = token;
        self
    }

    /// Whether the packet carries a protected payload of frames (Retry,
    /// Version Negotiation and stateless resets do not).
    fn is_protected(&self) -> bool {
        matches!(
            self.packet_type,
            PacketType::Initial | PacketType::ZeroRtt | PacketType::Handshake | PacketType::Short
        )
    }
}

/// A QUIC packet: header plus frames.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Packet<'a> {
    /// The packet header.
    pub header: PacketHeader<'a>,
    /// The frames carried in the payload (empty for Retry/VN/reset).
    pub frames: Vec<Frame<'a>>,
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

impl<'a> Packet<'a> {
    /// Creates a packet.
    pub fn new(header: PacketHeader<'a>, frames: Vec<Frame<'a>>) -> Self {
        Packet { header, frames }
    }

    /// The packet's abstract symbol in the paper's notation, e.g.
    /// `INITIAL(?,?)[ACK,CRYPTO]` or `SHORT(?,?)[ACK,STREAM]`.
    /// Frame names are sorted, PADDING omitted, duplicates collapsed, so
    /// the name depends only on the packet type and the set of frame
    /// types it carries, not on their order.
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
    /// Version Negotiation and stateless reset, which are not protected),
    /// returning the datagram.  [`Packet::encode_into`] appends to a
    /// buffer the caller reuses instead.
    pub fn encode(&self, keys: &Keys) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(keys, &mut out);
        out
    }

    /// Appends the packet's datagram to `out`: header and frames are
    /// written straight into it and the payload is sealed in place.
    pub fn encode_into(&self, keys: &Keys, out: &mut Vec<u8>) {
        Packet::encode_frames_into(&self.header, &self.frames, keys, out);
    }

    /// [`Packet::encode_into`] for a header and frames that are not held
    /// in a [`Packet`], so a sender can encode frames from a stack array.
    pub fn encode_frames_into(
        header: &PacketHeader<'_>,
        frames: &[Frame<'_>],
        keys: &Keys,
        out: &mut Vec<u8>,
    ) {
        let pn = header.packet_number;
        match header.packet_type {
            PacketType::Short => {
                out.push(0x40);
                put_cid(out, &header.destination_cid);
                out.extend_from_slice(&(pn as u32).to_be_bytes());
                let payload_start = out.len();
                put_frames(out, frames);
                keys.seal_in_place(pn, out, payload_start);
            }
            PacketType::StatelessReset => {
                out.push(STATELESS_RESET_MARKER);
                put_cid(out, &header.destination_cid);
                // 16-byte stateless reset token derived from the CID.
                let token = header.destination_cid.key_material().to_be_bytes();
                out.extend_from_slice(&token);
                out.extend_from_slice(&token);
            }
            PacketType::VersionNegotiation => {
                out.push(0x80);
                out.extend_from_slice(&0u32.to_be_bytes()); // version 0 identifies VN
                put_cid(out, &header.destination_cid);
                put_cid(out, &header.source_cid);
                out.extend_from_slice(&QUIC_VERSION_DRAFT29.to_be_bytes());
            }
            PacketType::Retry => {
                put_long_prefix(out, header);
                put_token(out, header.token);
            }
            PacketType::Initial | PacketType::Handshake | PacketType::ZeroRtt => {
                put_long_prefix(out, header);
                if header.packet_type == PacketType::Initial {
                    put_token(out, header.token);
                }
                // The Length field (a minimal varint) precedes the packet
                // number and covers it and the sealed payload, so the
                // payload is sealed first and the two fields are rotated
                // in front of it.
                let length_at = out.len();
                put_frames(out, frames);
                keys.seal_in_place(pn, out, length_at);
                let sealed_len = out.len() - length_at;
                write_varint(out, (sealed_len + 4) as u64).expect("datagram-sized length");
                out.extend_from_slice(&(pn as u32).to_be_bytes());
                let fields_len = out.len() - length_at - sealed_len;
                out[length_at..].rotate_right(fields_len);
            }
        }
    }

    /// Decodes the header of a datagram, without removing protection, and
    /// returns it with the protected payload that follows it (empty for
    /// Retry, Version Negotiation and stateless resets).  This is what an
    /// endpoint does first to decide which keys to use (or that it has
    /// none and must ignore the packet); it parses the header once and
    /// copies nothing.
    pub fn decode_header(datagram: &'a [u8]) -> Result<(PacketHeader<'a>, &'a [u8]), PacketError> {
        let mut buf = datagram;
        let [first] = take_array(&mut buf).ok_or(PacketError::Truncated)?;
        if first == STATELESS_RESET_MARKER {
            let header = PacketHeader {
                packet_type: PacketType::StatelessReset,
                version: 0,
                destination_cid: get_cid(&mut buf)?,
                source_cid: ConnectionId::empty(),
                token: &[],
                packet_number: 0,
            };
            return Ok((header, &[]));
        }
        if first & 0x80 == 0 {
            // Short header.
            let dcid = get_cid(&mut buf)?;
            let pn = take_array(&mut buf).ok_or(PacketError::Truncated)?;
            let header = PacketHeader::short(dcid, u64::from(u32::from_be_bytes(pn)));
            return Ok((header, buf));
        }
        // Long header.
        let version = take_array(&mut buf).ok_or(PacketError::Truncated)?;
        let version = u32::from_be_bytes(version);
        let dcid = get_cid(&mut buf)?;
        let scid = get_cid(&mut buf)?;
        let mut header = PacketHeader {
            packet_type: PacketType::VersionNegotiation,
            version,
            destination_cid: dcid,
            source_cid: scid,
            token: &[],
            packet_number: 0,
        };
        if version == 0 {
            return Ok((header, buf));
        }
        header.packet_type = match (first >> 4) & 0b11 {
            0b00 => PacketType::Initial,
            0b01 => PacketType::ZeroRtt,
            0b10 => PacketType::Handshake,
            _ => PacketType::Retry,
        };
        if matches!(header.packet_type, PacketType::Initial | PacketType::Retry) {
            let token_len = read_varint(&mut buf)?;
            header.token = take(&mut buf, token_len as usize).ok_or(PacketError::Truncated)?;
        }
        if header.packet_type == PacketType::Retry {
            return Ok((header, &[]));
        }
        let length = read_varint(&mut buf)? as usize;
        let mut body = take(&mut buf, length).ok_or(PacketError::Truncated)?;
        let pn = take_array(&mut body).ok_or(PacketError::Truncated)?;
        header.packet_number = u64::from(u32::from_be_bytes(pn));
        Ok((header, body))
    }

    /// Opens a packet whose header [`Packet::decode_header`] parsed: copies
    /// `protected` into `payload`, removes protection there in place and
    /// decodes the frames, which borrow `payload`, into `frames` (cleared
    /// first, so its allocation is reused).  Unprotected packets get no
    /// frames.
    pub fn open(
        header: PacketHeader<'a>,
        protected: &[u8],
        keys: &Keys,
        payload: &'a mut Vec<u8>,
        mut frames: Vec<Frame<'a>>,
    ) -> Result<Packet<'a>, PacketError> {
        frames.clear();
        if header.is_protected() {
            payload.clear();
            payload.extend_from_slice(protected);
            keys.open_in_place(header.packet_number, payload)?;
            Frame::decode_into(payload, &mut frames)?;
        }
        Ok(Packet { header, frames })
    }

    /// Decodes a full packet, removing protection with `keys` in
    /// `payload`, which the frames borrow.
    pub fn decode(
        datagram: &'a [u8],
        keys: &Keys,
        payload: &'a mut Vec<u8>,
    ) -> Result<Packet<'a>, PacketError> {
        let (header, protected) = Packet::decode_header(datagram)?;
        Packet::open(header, protected, keys, payload, Vec::new())
    }
}

/// The buffers a receiver reuses from packet to packet: the payload it
/// opens in place and its frame list.  With them, receiving a packet
/// allocates nothing once the buffers have grown to the largest packet.
#[derive(Debug, Default)]
pub struct RxBuffers {
    payload: Vec<u8>,
    frames: Vec<Frame<'static>>,
}

impl RxBuffers {
    /// Opens the packet whose header [`Packet::decode_header`] parsed (see
    /// [`Packet::open`]) and hands it to `visit`.  The packet borrows the
    /// buffers, so it lives only for the call.
    pub fn open<R>(
        &mut self,
        header: PacketHeader<'_>,
        protected: &[u8],
        keys: &Keys,
        visit: impl FnOnce(&Packet<'_>) -> R,
    ) -> Result<R, PacketError> {
        let frames = std::mem::take(&mut self.frames);
        let packet = Packet::open(header, protected, keys, &mut self.payload, frames)?;
        let seen = visit(&packet);
        // Collecting the emptied list's `vec::IntoIter` back into a `Vec`
        // keeps its allocation (std's in-place collect) and frees it of
        // the packet's borrows; the closure never runs.
        let mut frames = packet.frames;
        frames.clear();
        self.frames = frames.into_iter().map(|_| Frame::Padding).collect();
        Ok(seen)
    }
}

fn put_frames(out: &mut Vec<u8>, frames: &[Frame<'_>]) {
    for frame in frames {
        frame.encode(out);
    }
}

/// First byte, version and both connection IDs of a long header.
fn put_long_prefix(out: &mut Vec<u8>, header: &PacketHeader<'_>) {
    let bits = header
        .packet_type
        .long_header_bits()
        .expect("a long-header packet type");
    out.push(0xC0 | (bits << 4));
    out.extend_from_slice(&header.version.to_be_bytes());
    put_cid(out, &header.destination_cid);
    put_cid(out, &header.source_cid);
}

fn put_token(out: &mut Vec<u8>, token: &[u8]) {
    write_varint(out, token.len() as u64).expect("datagram-sized token");
    out.extend_from_slice(token);
}

fn put_cid(out: &mut Vec<u8>, cid: &ConnectionId) {
    out.push(cid.len() as u8);
    out.extend_from_slice(cid.as_bytes());
}

fn get_cid(buf: &mut &[u8]) -> Result<ConnectionId, PacketError> {
    let [len] = take_array(buf).ok_or(PacketError::Truncated)?;
    let len = usize::from(len);
    if len > MAX_CID_LEN {
        return Err(PacketError::Truncated);
    }
    take(buf, len)
        .map(ConnectionId::new)
        .ok_or(PacketError::Truncated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto::{EncryptionLevel, TAG_LEN};
    use std::borrow::Cow;

    fn keys(level: EncryptionLevel) -> Keys {
        Keys::derive(ConnectionId::from_seed(1).key_material(), level)
    }

    fn initial_packet() -> Packet<'static> {
        Packet::new(
            PacketHeader::long(
                PacketType::Initial,
                ConnectionId::from_seed(1),
                ConnectionId::from_seed(2),
                0,
            ),
            vec![Frame::Crypto {
                offset: 0,
                data: Cow::Borrowed(b"client hello"),
            }],
        )
    }

    #[test]
    fn initial_packet_round_trip() {
        let k = keys(EncryptionLevel::Initial);
        let p = initial_packet();
        let wire = p.encode(&k);
        let mut payload = Vec::new();
        let decoded = Packet::decode(&wire, &k, &mut payload).unwrap();
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
                    data: Cow::Borrowed(b"x"),
                },
                Frame::Padding,
            ],
        );
        let wire = p.encode(&k);
        let mut payload = Vec::new();
        let decoded = Packet::decode(&wire, &k, &mut payload).unwrap();
        assert_eq!(decoded.header.packet_number, 42);
        assert_eq!(decoded.abstract_name(), "SHORT(?,?)[ACK,STREAM]");
    }

    #[test]
    fn wrong_keys_fail_to_decode() {
        let p = initial_packet();
        let wire = p.encode(&keys(EncryptionLevel::Initial));
        let err =
            Packet::decode(&wire, &keys(EncryptionLevel::Handshake), &mut Vec::new()).unwrap_err();
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
            .with_token(b"retry-token"),
            vec![],
        );
        let k = keys(EncryptionLevel::Initial);
        let wire = p.encode(&k);
        let mut payload = Vec::new();
        let decoded = Packet::decode(&wire, &k, &mut payload).unwrap();
        assert_eq!(decoded.header.packet_type, PacketType::Retry);
        assert_eq!(decoded.header.token, b"retry-token");
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
            .with_token(b"tok123"),
            vec![Frame::Crypto {
                offset: 0,
                data: Cow::Borrowed(b"ch"),
            }],
        );
        let wire = p.encode(&k);
        let mut payload = Vec::new();
        let decoded = Packet::decode(&wire, &k, &mut payload).unwrap();
        assert_eq!(decoded.header.token, b"tok123");
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
                token: &[],
                packet_number: 0,
            },
            vec![],
        );
        let wire = reset.encode(&k);
        let mut payload = Vec::new();
        let decoded = Packet::decode(&wire, &k, &mut payload).unwrap();
        assert_eq!(decoded.header.packet_type, PacketType::StatelessReset);
        assert_eq!(decoded.abstract_name(), "RESET(?,?)[]");

        let vn = Packet::new(
            PacketHeader {
                packet_type: PacketType::VersionNegotiation,
                version: 0,
                destination_cid: ConnectionId::from_seed(1),
                source_cid: ConnectionId::from_seed(2),
                token: &[],
                packet_number: 0,
            },
            vec![],
        );
        let wire = vn.encode(&k);
        let mut payload = Vec::new();
        let decoded = Packet::decode(&wire, &k, &mut payload).unwrap();
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
                    data: Cow::Borrowed(b"finished"),
                },
            ],
        );
        let wire = p.encode(&k);
        let mut payload = Vec::new();
        let decoded = Packet::decode(&wire, &k, &mut payload).unwrap();
        assert_eq!(decoded, p);
        assert_eq!(decoded.abstract_name(), "HANDSHAKE(?,?)[ACK,CRYPTO]");
    }

    #[test]
    fn malformed_datagrams_are_rejected() {
        let k = keys(EncryptionLevel::Initial);
        let mut payload = Vec::new();
        assert!(matches!(
            Packet::decode(&[], &k, &mut payload),
            Err(PacketError::Truncated)
        ));
        assert!(matches!(
            Packet::decode(&[0xC0, 0x00], &k, &mut payload),
            Err(PacketError::Truncated)
        ));
        let garbage = [0x40, 0xFF, 0x01, 0x02];
        assert!(Packet::decode(&garbage, &k, &mut payload).is_err());
    }

    #[test]
    fn long_header_length_varint_stays_minimal() {
        // A Length of 63 (sealed payload plus packet number) fits the
        // one-byte varint; one more byte needs the two-byte form.
        let k = keys(EncryptionLevel::Handshake);
        for (data_len, length_bytes) in [(52, 1), (53, 2)] {
            let data = vec![7u8; data_len];
            let p = Packet::new(
                PacketHeader::long(
                    PacketType::Handshake,
                    ConnectionId::from_seed(1),
                    ConnectionId::from_seed(2),
                    9,
                ),
                vec![Frame::Crypto {
                    offset: 0,
                    data: Cow::Borrowed(&data),
                }],
            );
            let mut wire = b"prefix".to_vec();
            p.encode_into(&k, &mut wire);
            assert_eq!(&wire[..6], b"prefix", "encode_into appends");
            let wire = &wire[6..];
            // first byte, version, two 1+8-byte CIDs, then the Length.
            let length_at = 1 + 4 + 9 + 9;
            let length = 3 + data_len + TAG_LEN + 4;
            assert_eq!(wire.len(), length_at + length_bytes + length);
            assert_eq!(wire[length_at] >> 6, (length_bytes as u8) / 2);
            let mut payload = Vec::new();
            assert_eq!(Packet::decode(wire, &k, &mut payload).unwrap(), p);
        }
    }

    #[test]
    fn rx_buffers_decode_borrowed_frames_and_keep_their_allocations() {
        let k = keys(EncryptionLevel::Initial);
        let wire = initial_packet().encode(&k);
        let mut rx = RxBuffers::default();
        for _ in 0..2 {
            let (header, protected) = Packet::decode_header(&wire).unwrap();
            let seen = rx
                .open(header, protected, &k, |packet| {
                    assert_eq!(*packet, initial_packet());
                    matches!(
                        &packet.frames[0],
                        Frame::Crypto {
                            data: Cow::Borrowed(_),
                            ..
                        }
                    )
                })
                .unwrap();
            assert!(seen, "decoded frames borrow the opened payload");
            assert!(rx.frames.is_empty() && rx.frames.capacity() >= 1);
        }
        let (header, protected) = Packet::decode_header(&wire).unwrap();
        let wrong = keys(EncryptionLevel::Handshake);
        assert!(matches!(
            rx.open(header, protected, &wrong, |_| ()),
            Err(PacketError::Crypto(CryptoError::TagMismatch))
        ));
    }

    #[test]
    fn packet_type_names_and_display() {
        assert_eq!(PacketType::ALL.len(), 7);
        assert_eq!(PacketType::Initial.to_string(), "INITIAL");
        assert_eq!(PacketType::Short.name(), "SHORT");
        assert_eq!(PacketType::StatelessReset.name(), "RESET");
    }
}

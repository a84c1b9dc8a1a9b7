//! The reference QUIC client (the QUIC-Tracker analogue).
//!
//! §3.2's instrumentation turns an existing client implementation into the
//! Adapter's concretization oracle (`γ`): given an abstract request such as
//! `SHORT(?,?)[ACK,STREAM]`, the client builds a concrete packet whose
//! connection IDs, packet numbers, ACK ranges, stream offsets and
//! flow-control limits are valid *in the current connection state*, and it
//! abstracts (`α`) every server response back into the same notation.
//!
//! The client also carries the reference-implementation defect of Issue 3:
//! when [`ReferenceQuicClient::rebind_on_retry`] is set (as it is for the
//! faithful QUIC-Tracker profile), the post-Retry Initial is sent from a
//! freshly-bound ephemeral UDP port, so the server's address validation
//! fails and the handshake can never complete.
//!
//! The client reuses its buffers: a request's frames (built over static
//! payloads) and its datagram, and the buffers it opens responses in, so a
//! warmed-up client allocates nothing per packet.

use prognosis_quic_wire::connection_id::ConnectionId;
use prognosis_quic_wire::crypto::{EncryptionLevel, Keys};
use prognosis_quic_wire::frame::{Frame, FrameType};
use prognosis_quic_wire::packet::{Packet, PacketHeader, PacketType, RxBuffers};
use std::borrow::Cow;

/// Errors raised while concretizing an abstract QUIC symbol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QuicConcretizeError {
    /// The abstract symbol could not be parsed.
    BadSymbol(String),
    /// The symbol names a frame this client cannot construct.
    UnsupportedFrame(String),
}

impl std::fmt::Display for QuicConcretizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuicConcretizeError::BadSymbol(s) => write!(f, "unparseable abstract QUIC symbol: {s}"),
            QuicConcretizeError::UnsupportedFrame(s) => {
                write!(f, "unsupported frame in symbol: {s}")
            }
        }
    }
}

impl std::error::Error for QuicConcretizeError {}

/// The reference client.
pub struct ReferenceQuicClient {
    seed: u64,
    connection_counter: u64,
    /// Client-chosen source connection ID.
    scid: ConnectionId,
    /// Initial destination connection ID (determines the Initial secret).
    initial_dcid: ConnectionId,
    key_material: u64,
    tx_pn: [u64; 3],
    largest_rx: [Option<u64>; 3],
    /// Offset of the next STREAM bytes we send on our request stream.
    stream_offset: u64,
    /// Flow-control credit we grant the server, raised by each MAX_STREAM_DATA.
    granted_stream_data: u64,
    /// Base UDP port and the port currently in use (changes on rebind).
    base_port: u16,
    current_port: u16,
    next_ephemeral: u16,
    /// Retry token received from the server, echoed in subsequent
    /// Initials (empty before any Retry, which encodes the same as none).
    retry_token: Vec<u8>,
    /// Issue-3 defect: rebind to a fresh port when answering a Retry.
    pub rebind_on_retry: bool,
    /// Whether the server's HANDSHAKE_DONE has been observed.
    handshake_complete: bool,
    /// The last request's frames and datagram.
    request_frames: Vec<Frame<'static>>,
    request_datagram: Vec<u8>,
    /// Receive buffers, reused from datagram to datagram.
    rx: RxBuffers,
}

/// Payload carried in client STREAM frames (per request).
const CLIENT_STREAM_CHUNK: usize = 50;
/// The client's request stream.
const CLIENT_STREAM_ID: u64 = 0;
/// The server's response stream (the one we grant credit on).
const SERVER_STREAM_ID: u64 = 1;
/// The bytes of every client STREAM frame.
static CLIENT_STREAM_DATA: [u8; CLIENT_STREAM_CHUNK] = [b'q'; CLIENT_STREAM_CHUNK];

impl ReferenceQuicClient {
    /// Creates a client bound to `port`, with deterministic connection IDs
    /// derived from `seed`.
    pub fn new(seed: u64, port: u16) -> Self {
        let initial_dcid = ConnectionId::from_seed(seed);
        ReferenceQuicClient {
            seed,
            connection_counter: 0,
            scid: ConnectionId::from_seed(seed ^ 0x00C1_1E17),
            key_material: initial_dcid.key_material(),
            initial_dcid,
            tx_pn: [0; 3],
            largest_rx: [None; 3],
            stream_offset: 0,
            granted_stream_data: 200,
            base_port: port,
            current_port: port,
            next_ephemeral: 50_000,
            retry_token: Vec::new(),
            rebind_on_retry: false,
            handshake_complete: false,
            request_frames: Vec::new(),
            request_datagram: Vec::new(),
            rx: RxBuffers::default(),
        }
    }

    /// The UDP source port the client currently sends from.
    pub fn source_port(&self) -> u16 {
        self.current_port
    }

    /// Whether the client is currently sending from a rebound (post-Retry)
    /// port rather than its base port — the observable of the Issue-3
    /// defect, which the networked transport maps onto a spoofed wire
    /// source port.
    pub fn rebound(&self) -> bool {
        self.current_port != self.base_port
    }

    /// Whether the server has signalled handshake completion.
    pub fn handshake_complete(&self) -> bool {
        self.handshake_complete
    }

    /// Starts a fresh connection: new connection IDs, packet numbers and
    /// offsets, original port (property (3) of §3.2).
    pub fn reset(&mut self) {
        self.connection_counter += 1;
        let seed = self
            .seed
            .wrapping_add(self.connection_counter.wrapping_mul(0x9E37));
        self.initial_dcid = ConnectionId::from_seed(seed);
        self.scid = ConnectionId::from_seed(seed ^ 0x00C1_1E17);
        self.key_material = self.initial_dcid.key_material();
        self.tx_pn = [0; 3];
        self.largest_rx = [None; 3];
        self.stream_offset = 0;
        self.granted_stream_data = 200;
        self.current_port = self.base_port;
        self.retry_token.clear();
        self.handshake_complete = false;
    }

    fn space(level: EncryptionLevel) -> usize {
        match level {
            EncryptionLevel::Initial => 0,
            EncryptionLevel::Handshake => 1,
            EncryptionLevel::OneRtt => 2,
        }
    }

    fn keys(&self, level: EncryptionLevel) -> Keys {
        Keys::derive(self.key_material, level)
    }

    /// Parses an abstract symbol `TYPE(?,?)[F1,F2,...]` into its packet type
    /// and frame-type list.
    pub fn parse_abstract(
        symbol: &str,
    ) -> Result<(PacketType, Vec<FrameType>), QuicConcretizeError> {
        let (type_part, rest) = symbol
            .split_once('(')
            .ok_or_else(|| QuicConcretizeError::BadSymbol(symbol.to_string()))?;
        let packet_type = PacketType::ALL
            .into_iter()
            .find(|t| t.name() == type_part.trim())
            .ok_or_else(|| QuicConcretizeError::BadSymbol(symbol.to_string()))?;
        let frames_part = rest
            .split_once('[')
            .and_then(|(_, f)| f.strip_suffix(']'))
            .ok_or_else(|| QuicConcretizeError::BadSymbol(symbol.to_string()))?;
        let mut frames = Vec::new();
        for name in frames_part
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
        {
            let ft = FrameType::from_name(name)
                .ok_or_else(|| QuicConcretizeError::UnsupportedFrame(name.to_string()))?;
            frames.push(ft);
        }
        Ok((packet_type, frames))
    }

    fn build_frame(
        &mut self,
        frame_type: FrameType,
        packet_type: PacketType,
    ) -> Result<Frame<'static>, QuicConcretizeError> {
        let frame = match frame_type {
            FrameType::Crypto => {
                let data: &'static [u8] = match packet_type {
                    PacketType::Initial => b"client-hello",
                    _ => b"client-finished",
                };
                Frame::Crypto {
                    offset: 0,
                    data: Cow::Borrowed(data),
                }
            }
            FrameType::Ack => {
                let level = match packet_type {
                    PacketType::Initial => EncryptionLevel::Initial,
                    PacketType::Handshake => EncryptionLevel::Handshake,
                    _ => EncryptionLevel::OneRtt,
                };
                Frame::Ack {
                    largest_acknowledged: self.largest_rx[Self::space(level)].unwrap_or(0),
                    ack_delay: 0,
                    first_ack_range: 0,
                }
            }
            FrameType::HandshakeDone => Frame::HandshakeDone,
            FrameType::Stream => {
                let f = Frame::Stream {
                    stream_id: CLIENT_STREAM_ID,
                    offset: self.stream_offset,
                    fin: false,
                    data: Cow::Borrowed(&CLIENT_STREAM_DATA),
                };
                self.stream_offset += CLIENT_STREAM_CHUNK as u64;
                f
            }
            FrameType::MaxData => Frame::MaxData {
                maximum: self.granted_stream_data * 4,
            },
            FrameType::MaxStreamData => {
                self.granted_stream_data += 100;
                Frame::MaxStreamData {
                    stream_id: SERVER_STREAM_ID,
                    maximum: self.granted_stream_data,
                }
            }
            FrameType::Ping => Frame::Ping,
            FrameType::Padding => Frame::Padding,
            FrameType::ConnectionClose => Frame::ConnectionClose {
                error_code: 0,
                frame_type: 0,
                reason: Cow::Borrowed("client close"),
                application: true,
            },
            other => {
                return Err(QuicConcretizeError::UnsupportedFrame(
                    other.name().to_string(),
                ))
            }
        };
        Ok(frame)
    }

    /// Concretizes an abstract request (`γ`): builds and encodes a packet
    /// that is valid in the current connection state.  The request's frames
    /// (for the Oracle Table) and its wire bytes are then
    /// [`ReferenceQuicClient::request_frames`] and
    /// [`ReferenceQuicClient::request_datagram`].
    pub fn concretize(&mut self, symbol: &str) -> Result<(), QuicConcretizeError> {
        let (packet_type, frame_types) = Self::parse_abstract(symbol)?;
        self.concretize_parsed(packet_type, &frame_types)
    }

    /// [`ReferenceQuicClient::concretize`] for an already parsed symbol: an
    /// adapter parses each symbol once and replays the parsed form.
    pub fn concretize_parsed(
        &mut self,
        packet_type: PacketType,
        frame_types: &[FrameType],
    ) -> Result<(), QuicConcretizeError> {
        let level = match packet_type {
            PacketType::Initial | PacketType::ZeroRtt => EncryptionLevel::Initial,
            PacketType::Handshake => EncryptionLevel::Handshake,
            _ => EncryptionLevel::OneRtt,
        };
        self.request_frames.clear();
        for &ft in frame_types {
            let frame = self.build_frame(ft, packet_type)?;
            self.request_frames.push(frame);
        }
        let space = Self::space(level);
        let pn = self.tx_pn[space];
        self.tx_pn[space] += 1;
        let keys = self.keys(level);
        let header = match packet_type {
            PacketType::Short => PacketHeader::short(self.initial_dcid, pn),
            PacketType::Initial => {
                PacketHeader::long(PacketType::Initial, self.initial_dcid, self.scid, pn)
                    .with_token(&self.retry_token)
            }
            other => PacketHeader::long(other, self.initial_dcid, self.scid, pn),
        };
        self.request_datagram.clear();
        Packet::encode_frames_into(
            &header,
            &self.request_frames,
            &keys,
            &mut self.request_datagram,
        );
        Ok(())
    }

    /// The frames of the last concretized request.
    pub fn request_frames(&self) -> &[Frame<'static>] {
        &self.request_frames
    }

    /// The datagram of the last concretized request.
    pub fn request_datagram(&self) -> &[u8] {
        &self.request_datagram
    }

    /// Absorbs a server datagram (`α` direction): updates acknowledgement
    /// bookkeeping, stores Retry tokens (rebinding the port if the Issue-3
    /// defect is enabled) and hands the decoded packet to `visit`, whose
    /// result it returns; `None` when the datagram cannot be decoded.  The
    /// header is parsed once and the payload opened in the client's reused
    /// buffers, which the packet borrows for the call.
    pub fn absorb<R>(
        &mut self,
        datagram: &[u8],
        visit: impl FnOnce(&Packet<'_>) -> R,
    ) -> Option<R> {
        let (header, protected) = Packet::decode_header(datagram).ok()?;
        let level = match header.packet_type {
            PacketType::Initial | PacketType::ZeroRtt => EncryptionLevel::Initial,
            PacketType::Handshake => EncryptionLevel::Handshake,
            PacketType::Short => EncryptionLevel::OneRtt,
            PacketType::Retry => {
                self.retry_token.clear();
                self.retry_token.extend_from_slice(header.token);
                if self.rebind_on_retry {
                    // The Issue-3 defect: the token will be echoed from a
                    // different UDP port, so address validation fails.
                    self.current_port = self.next_ephemeral;
                    self.next_ephemeral += 1;
                }
                return Some(visit(&Packet::new(header, Vec::new())));
            }
            PacketType::VersionNegotiation | PacketType::StatelessReset => {
                return Some(visit(&Packet::new(header, Vec::new())));
            }
        };
        let keys = self.keys(level);
        let largest_rx = &mut self.largest_rx[Self::space(level)];
        let handshake_complete = &mut self.handshake_complete;
        self.rx
            .open(header, protected, &keys, |packet| {
                let pn = packet.header.packet_number;
                *largest_rx = Some(largest_rx.map_or(pn, |l| l.max(pn)));
                if packet
                    .frames
                    .iter()
                    .any(|f| f.frame_type() == FrameType::HandshakeDone)
                {
                    *handshake_complete = true;
                }
                visit(packet)
            })
            .ok()
    }

    /// Abstracts a packet back into the paper's notation (`α`).
    pub fn abstract_packet(packet: &Packet<'_>) -> String {
        packet.abstract_name()
    }
}

/// Extracts the numeric fields of interest from a packet's frames, in frame
/// order — the concrete values stored in the Oracle Table and consumed by
/// the synthesis module.  For each frame: STREAM → offset,
/// STREAM_DATA_BLOCKED → maximum stream data (the Issue-4 field), MAX_DATA
/// / MAX_STREAM_DATA → the limit, ACK → largest acknowledged, CRYPTO →
/// offset.
pub fn numeric_fields(frames: &[Frame<'_>]) -> Vec<i64> {
    let mut fields = Vec::new();
    numeric_fields_into(frames, &mut fields);
    fields
}

/// [`numeric_fields`], appended to `fields` so a caller can reuse one
/// buffer across packets.
pub fn numeric_fields_into(frames: &[Frame<'_>], fields: &mut Vec<i64>) {
    for frame in frames {
        match frame {
            Frame::Stream { offset, .. } => fields.push(*offset as i64),
            Frame::StreamDataBlocked {
                maximum_stream_data,
                ..
            } => fields.push(*maximum_stream_data as i64),
            Frame::MaxData { maximum } => fields.push(*maximum as i64),
            Frame::MaxStreamData { maximum, .. } => fields.push(*maximum as i64),
            Frame::Ack {
                largest_acknowledged,
                ..
            } => fields.push(*largest_acknowledged as i64),
            Frame::Crypto { offset, .. } => fields.push(*offset as i64),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ImplementationProfile;
    use crate::server::{QuicServer, ServerPhase};

    /// Drives a full query (list of abstract inputs) against a server,
    /// returning the abstract outputs per step.
    fn run_query(
        server: &mut QuicServer,
        client: &mut ReferenceQuicClient,
        inputs: &[&str],
    ) -> Vec<String> {
        let mut outputs = Vec::new();
        for symbol in inputs {
            client.concretize(symbol).unwrap();
            let responses = server.handle_datagram(client.request_datagram(), client.source_port());
            let mut names: Vec<String> = responses
                .iter()
                .filter_map(|d| client.absorb(d, ReferenceQuicClient::abstract_packet))
                .collect();
            names.sort();
            outputs.push(format!("{{{}}}", names.join(",")));
        }
        outputs
    }

    #[test]
    fn parse_abstract_symbols() {
        let (t, f) = ReferenceQuicClient::parse_abstract("INITIAL(?,?)[CRYPTO]").unwrap();
        assert_eq!(t, PacketType::Initial);
        assert_eq!(f, vec![FrameType::Crypto]);
        let (t, f) =
            ReferenceQuicClient::parse_abstract("SHORT(?,?)[ACK,MAX_DATA,MAX_STREAM_DATA]")
                .unwrap();
        assert_eq!(t, PacketType::Short);
        assert_eq!(f.len(), 3);
        assert!(ReferenceQuicClient::parse_abstract("garbage").is_err());
        assert!(ReferenceQuicClient::parse_abstract("INITIAL(?,?)[NOPE]").is_err());
    }

    #[test]
    fn google_handshake_completes_and_serves_data() {
        let mut server = QuicServer::new(ImplementationProfile::google(), 1);
        let mut client = ReferenceQuicClient::new(7, 40_000);
        let out = run_query(
            &mut server,
            &mut client,
            &[
                "INITIAL(?,?)[CRYPTO]",
                "HANDSHAKE(?,?)[ACK,CRYPTO]",
                "SHORT(?,?)[ACK,STREAM]",
            ],
        );
        assert!(
            out[0].contains("INITIAL(?,?)[ACK,CRYPTO]"),
            "first flight: {}",
            out[0]
        );
        assert!(out[0].contains("HANDSHAKE(?,?)[CRYPTO]"));
        assert!(
            out[0].contains("SHORT(?,?)[STREAM]"),
            "google sends early data: {}",
            out[0]
        );
        assert!(
            out[1].contains("SHORT(?,?)[HANDSHAKE_DONE]"),
            "handshake done: {}",
            out[1]
        );
        assert_eq!(server.phase(), ServerPhase::Established);
        assert!(client.handshake_complete());
        assert!(
            out[2].contains("STREAM"),
            "server responds with stream data: {}",
            out[2]
        );
    }

    #[test]
    fn quiche_handshake_has_the_smaller_shape() {
        let mut server = QuicServer::new(ImplementationProfile::quiche(), 1);
        let mut client = ReferenceQuicClient::new(8, 40_001);
        let out = run_query(
            &mut server,
            &mut client,
            &["INITIAL(?,?)[CRYPTO]", "HANDSHAKE(?,?)[ACK,CRYPTO]"],
        );
        assert!(
            !out[0].contains("SHORT"),
            "quiche sends no early 1-RTT data: {}",
            out[0]
        );
        assert!(out[1].contains("HANDSHAKE_DONE"), "{}", out[1]);
        assert_eq!(server.phase(), ServerPhase::Established);
    }

    #[test]
    fn client_handshake_done_is_a_protocol_violation() {
        for profile in [
            ImplementationProfile::google(),
            ImplementationProfile::quiche(),
        ] {
            let mut server = QuicServer::new(profile, 1);
            let mut client = ReferenceQuicClient::new(9, 40_002);
            let out = run_query(
                &mut server,
                &mut client,
                &["INITIAL(?,?)[CRYPTO]", "HANDSHAKE(?,?)[ACK,HANDSHAKE_DONE]"],
            );
            assert!(
                out[1].contains("CONNECTION_CLOSE"),
                "violation must close: {}",
                out[1]
            );
            assert_eq!(server.phase(), ServerPhase::Closed);
        }
    }

    #[test]
    fn packets_before_the_handshake_are_ignored() {
        let mut server = QuicServer::new(ImplementationProfile::google(), 1);
        let mut client = ReferenceQuicClient::new(10, 40_003);
        let out = run_query(
            &mut server,
            &mut client,
            &["SHORT(?,?)[ACK,STREAM]", "HANDSHAKE(?,?)[ACK,CRYPTO]"],
        );
        assert_eq!(out, vec!["{}".to_string(), "{}".to_string()]);
        assert_eq!(server.phase(), ServerPhase::Idle);
    }

    #[test]
    fn google_blocks_and_advertises_constant_zero() {
        let mut server = QuicServer::new(ImplementationProfile::google(), 1);
        let mut client = ReferenceQuicClient::new(11, 40_004);
        // Handshake, then keep asking for data until the server exhausts the
        // 200-byte credit (100 bytes per response) and reports itself blocked.
        run_query(
            &mut server,
            &mut client,
            &["INITIAL(?,?)[CRYPTO]", "HANDSHAKE(?,?)[ACK,CRYPTO]"],
        );
        let mut saw_blocked_zero = false;
        for _ in 0..4 {
            client.concretize("SHORT(?,?)[ACK,STREAM]").unwrap();
            let responses = server.handle_datagram(client.request_datagram(), client.source_port());
            for d in responses.iter() {
                client.absorb(d, |p| {
                    for f in &p.frames {
                        if let Frame::StreamDataBlocked {
                            maximum_stream_data,
                            ..
                        } = f
                        {
                            saw_blocked_zero = true;
                            assert_eq!(
                                *maximum_stream_data, 0,
                                "Issue 4: the field is the constant 0"
                            );
                        }
                    }
                });
            }
        }
        assert!(
            saw_blocked_zero,
            "the Google profile must eventually report STREAM_DATA_BLOCKED"
        );
    }

    #[test]
    fn quiche_advertises_the_real_limit_when_blocked() {
        // Force blocking on the quiche profile by shrinking the credit.
        let mut profile = ImplementationProfile::quiche();
        profile.initial_peer_max_stream_data = 150;
        let mut server = QuicServer::new(profile, 1);
        let mut client = ReferenceQuicClient::new(12, 40_005);
        run_query(
            &mut server,
            &mut client,
            &["INITIAL(?,?)[CRYPTO]", "HANDSHAKE(?,?)[ACK,CRYPTO]"],
        );
        let mut blocked_values = Vec::new();
        for _ in 0..4 {
            client.concretize("SHORT(?,?)[ACK,STREAM]").unwrap();
            let responses = server.handle_datagram(client.request_datagram(), client.source_port());
            for d in responses.iter() {
                client.absorb(d, |p| {
                    for f in &p.frames {
                        if let Frame::StreamDataBlocked {
                            maximum_stream_data,
                            ..
                        } = f
                        {
                            blocked_values.push(*maximum_stream_data);
                        }
                    }
                });
            }
        }
        assert!(!blocked_values.is_empty());
        assert!(
            blocked_values.iter().all(|&v| v == 150),
            "correct implementations advertise the limit: {blocked_values:?}"
        );
    }

    #[test]
    fn mvfst_resets_nondeterministically_after_close() {
        let mut server = QuicServer::new(ImplementationProfile::mvfst(), 42);
        let mut client = ReferenceQuicClient::new(13, 40_006);
        run_query(
            &mut server,
            &mut client,
            &["INITIAL(?,?)[CRYPTO]", "HANDSHAKE(?,?)[ACK,HANDSHAKE_DONE]"],
        );
        assert_eq!(server.phase(), ServerPhase::Closed);
        let mut resets = 0;
        let mut silences = 0;
        for _ in 0..400 {
            client.concretize("SHORT(?,?)[ACK,STREAM]").unwrap();
            let responses = server.handle_datagram(client.request_datagram(), client.source_port());
            if responses.is_empty() {
                silences += 1;
            } else {
                resets += 1;
            }
        }
        assert!(
            resets > 0 && silences > 0,
            "Issue 2: the response must be nondeterministic"
        );
        let ratio = resets as f64 / 400.0;
        assert!(
            (0.70..0.92).contains(&ratio),
            "reset ratio {ratio} should be near 0.82"
        );
    }

    #[test]
    fn quiche_answers_deterministically_after_close() {
        let mut server = QuicServer::new(ImplementationProfile::quiche(), 5);
        let mut client = ReferenceQuicClient::new(14, 40_007);
        run_query(
            &mut server,
            &mut client,
            &["INITIAL(?,?)[CRYPTO]", "HANDSHAKE(?,?)[ACK,HANDSHAKE_DONE]"],
        );
        assert_eq!(server.phase(), ServerPhase::Closed);
        for _ in 0..20 {
            client.concretize("SHORT(?,?)[ACK,STREAM]").unwrap();
            let responses = server.handle_datagram(client.request_datagram(), client.source_port());
            assert_eq!(
                responses.len(),
                1,
                "correct implementations answer deterministically"
            );
        }
    }

    #[test]
    fn tracker_retry_with_rebinding_breaks_the_handshake() {
        // The server requires address validation; the buggy client answers
        // the Retry from a fresh ephemeral port, so validation fails and the
        // handshake cannot complete (Issue 3).
        let mut server = QuicServer::new(ImplementationProfile::quiche().with_retry(), 1);
        let mut client = ReferenceQuicClient::new(15, 40_008);
        client.rebind_on_retry = true;
        let original_port = client.source_port();
        client.concretize("INITIAL(?,?)[CRYPTO]").unwrap();
        let responses = server.handle_datagram(client.request_datagram(), client.source_port());
        assert_eq!(responses.len(), 1);
        let retry = client.absorb(&responses[0], |p| p.header.packet_type);
        assert_eq!(retry, Some(PacketType::Retry));
        assert_ne!(
            client.source_port(),
            original_port,
            "the defect rebinds the port"
        );
        client.concretize("INITIAL(?,?)[CRYPTO]").unwrap();
        let responses = server.handle_datagram(client.request_datagram(), client.source_port());
        assert!(responses.is_empty(), "validation fails: handshake is stuck");
        assert_eq!(server.phase(), ServerPhase::Idle);
    }

    #[test]
    fn retry_with_correct_port_completes_the_handshake() {
        let mut server = QuicServer::new(ImplementationProfile::quiche().with_retry(), 1);
        let mut client = ReferenceQuicClient::new(16, 40_009);
        client.rebind_on_retry = false;
        client.concretize("INITIAL(?,?)[CRYPTO]").unwrap();
        let responses = server.handle_datagram(client.request_datagram(), client.source_port());
        client.absorb(&responses[0], |_| ());
        client.concretize("INITIAL(?,?)[CRYPTO]").unwrap();
        let responses = server.handle_datagram(client.request_datagram(), client.source_port());
        assert!(!responses.is_empty(), "validated handshake proceeds");
        for d in responses.iter() {
            client.absorb(d, |_| ());
        }
        client.concretize("HANDSHAKE(?,?)[ACK,CRYPTO]").unwrap();
        let responses = server.handle_datagram(client.request_datagram(), client.source_port());
        assert!(!responses.is_empty());
        assert_eq!(server.phase(), ServerPhase::Established);
    }

    #[test]
    fn reset_starts_a_fresh_connection() {
        let mut server = QuicServer::new(ImplementationProfile::google(), 1);
        let mut client = ReferenceQuicClient::new(17, 40_010);
        run_query(&mut server, &mut client, &["INITIAL(?,?)[CRYPTO]"]);
        assert_eq!(server.phase(), ServerPhase::HandshakeStarted);
        server.reset();
        client.reset();
        assert_eq!(server.phase(), ServerPhase::Idle);
        assert_eq!(server.datagrams_processed(), 0);
        let out = run_query(
            &mut server,
            &mut client,
            &["INITIAL(?,?)[CRYPTO]", "HANDSHAKE(?,?)[ACK,CRYPTO]"],
        );
        assert!(
            out[1].contains("HANDSHAKE_DONE"),
            "fresh connection works after reset: {}",
            out[1]
        );
    }

    #[test]
    fn queries_are_deterministic_across_resets() {
        // The same abstract query must yield the same abstract response after
        // a reset — the property the learner depends on (Remark 3.1).
        let mut server = QuicServer::new(ImplementationProfile::google(), 3);
        let mut client = ReferenceQuicClient::new(18, 40_011);
        let inputs = [
            "INITIAL(?,?)[CRYPTO]",
            "HANDSHAKE(?,?)[ACK,CRYPTO]",
            "SHORT(?,?)[ACK,STREAM]",
        ];
        let first = run_query(&mut server, &mut client, &inputs);
        server.reset();
        client.reset();
        let second = run_query(&mut server, &mut client, &inputs);
        assert_eq!(first, second);
    }

    #[test]
    fn numeric_fields_extracts_synthesis_material() {
        let p = Packet::new(
            PacketHeader::short(ConnectionId::from_seed(1), 3),
            vec![
                Frame::Ack {
                    largest_acknowledged: 9,
                    ack_delay: 0,
                    first_ack_range: 0,
                },
                Frame::Stream {
                    stream_id: 1,
                    offset: 200,
                    fin: false,
                    data: Cow::Borrowed(b"x"),
                },
                Frame::StreamDataBlocked {
                    stream_id: 1,
                    maximum_stream_data: 0,
                },
            ],
        );
        assert_eq!(numeric_fields(&p.frames), vec![9, 200, 0]);
    }
}

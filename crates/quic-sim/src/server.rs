//! The simulated QUIC server engine.
//!
//! One engine, parameterized by an [`ImplementationProfile`], plays the role
//! of every server implementation the paper analyzed.  The engine is a real
//! packet processor: it decodes datagrams with the keys it currently has,
//! ignores what it cannot decrypt or is not yet prepared to process (the
//! `{}` rows of the appendix models), walks the handshake, serves stream
//! data under the flow-control limits granted by the client, closes the
//! connection on protocol violations (a client-sent `HANDSHAKE_DONE`), and
//! applies the profile's defects where the paper found them.
//!
//! A datagram's header is parsed once, its payload is opened in place in a
//! buffer the server reuses, and the response [`Flight`] is encoded into
//! another reused buffer, so a warmed-up server allocates nothing per
//! datagram.

use crate::profile::{HandshakeStyle, ImplementationProfile};
use prognosis_netsim::time::{SimDuration, SimTime};
use prognosis_quic_wire::connection_id::ConnectionId;
use prognosis_quic_wire::crypto::{EncryptionLevel, Keys};
use prognosis_quic_wire::frame::{Frame, FrameType};
use prognosis_quic_wire::packet::{Packet, PacketHeader, PacketType, RxBuffers};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::ops::{Index, Range};

/// Connection phase of the server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServerPhase {
    /// No connection yet: only Initial packets are processed.
    Idle,
    /// ClientHello received, server flights sent, waiting for the client's
    /// Handshake CRYPTO (Finished).
    HandshakeStarted,
    /// Handshake complete; 1-RTT packets are processed.
    Established,
    /// Connection closed after a protocol violation or reset.
    Closed,
}

/// The datagrams the server sends in response to one datagram, back to
/// back in one buffer the server reuses.
#[derive(Debug, Default)]
pub struct Flight {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl Flight {
    /// Number of datagrams.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the server sent nothing.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Every datagram, back to back.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Each datagram's range in [`Flight::as_bytes`], in sending order.
    pub fn ranges(&self) -> impl ExactSizeIterator<Item = Range<usize>> + '_ {
        (0..self.ends.len()).map(|i| self.range(i))
    }

    /// The datagrams, in sending order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[u8]> + '_ {
        self.ranges().map(|range| &self.bytes[range])
    }

    fn range(&self, i: usize) -> Range<usize> {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        start..self.ends[i]
    }

    fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
    }

    fn push(&mut self, header: &PacketHeader<'_>, frames: &[Frame<'_>], keys: &Keys) {
        Packet::encode_frames_into(header, frames, keys, &mut self.bytes);
        self.ends.push(self.bytes.len());
    }
}

impl Index<usize> for Flight {
    type Output = [u8];

    fn index(&self, i: usize) -> &[u8] {
        &self.bytes[self.range(i)]
    }
}

/// The simulated QUIC server.
pub struct QuicServer {
    profile: ImplementationProfile,
    rng: StdRng,
    phase: ServerPhase,
    /// Server-chosen connection ID.
    scid: ConnectionId,
    /// The client's source connection ID (destination of our responses).
    client_cid: ConnectionId,
    /// Key material shared with the client (derived from the client's
    /// initial destination connection ID, as real Initial secrets are).
    key_material: Option<u64>,
    /// Next packet number to send, per encryption level.
    tx_pn: [u64; 3],
    /// Largest packet number received, per encryption level.
    largest_rx: [Option<u64>; 3],
    /// Whether 1-RTT keys were ever available (gates post-close decryption).
    one_rtt_available: bool,
    /// Flow-control limit the client granted us on our response stream.
    peer_max_stream_data: u64,
    /// How much response-stream data we have sent so far.
    sent_stream_offset: u64,
    /// Response data we wanted to send but could not because of the limit.
    blocked_bytes: u64,
    /// Retry state; `expected_token` is meaningful once `retry_sent`.
    retry_sent: bool,
    expected_token: Vec<u8>,
    validated_port: Option<u16>,
    /// Largest Initial packet number seen before a Retry, for the Issue-1
    /// packet-number-space-reset check.
    pre_retry_initial_pn: Option<u64>,
    /// Number of datagrams processed since the last reset (statistics).
    datagrams_processed: u64,
    /// Receive buffers, reused from datagram to datagram.
    rx: RxBuffers,
    /// The response flight to the datagram handled last.
    flight: Flight,
}

const STREAM_RESPONSE_ID: u64 = 1;

/// Seed for the server's connection ID (fixed so experiments are reproducible).
const SERVER_CID_SEED: u64 = 0x5EED_5EED_5EED_5EED;

/// `len` bytes of response-stream data (`b'r'`), borrowed from a static run
/// when it is long enough.
fn response_data(len: u64) -> Cow<'static, [u8]> {
    static RUN: [u8; 1024] = [b'r'; 1024];
    match RUN.get(..len as usize) {
        Some(run) => Cow::Borrowed(run),
        None => Cow::Owned(vec![b'r'; len as usize]),
    }
}

impl QuicServer {
    /// Creates a server with the given profile and RNG seed (the seed only
    /// matters for profiles with probabilistic behaviour, i.e. mvfst).
    pub fn new(profile: ImplementationProfile, seed: u64) -> Self {
        let peer_limit = profile.initial_peer_max_stream_data;
        QuicServer {
            profile,
            rng: StdRng::seed_from_u64(seed),
            phase: ServerPhase::Idle,
            scid: ConnectionId::from_seed(SERVER_CID_SEED),
            client_cid: ConnectionId::empty(),
            key_material: None,
            tx_pn: [0; 3],
            largest_rx: [None; 3],
            one_rtt_available: false,
            peer_max_stream_data: peer_limit,
            sent_stream_offset: 0,
            blocked_bytes: 0,
            retry_sent: false,
            expected_token: Vec::new(),
            validated_port: None,
            pre_retry_initial_pn: None,
            datagrams_processed: 0,
            rx: RxBuffers::default(),
            flight: Flight::default(),
        }
    }

    /// The server's implementation profile.
    pub fn profile(&self) -> &ImplementationProfile {
        &self.profile
    }

    /// Current connection phase.
    pub fn phase(&self) -> ServerPhase {
        self.phase
    }

    /// Datagrams processed since the last reset.
    pub fn datagrams_processed(&self) -> u64 {
        self.datagrams_processed
    }

    /// Drops all connection state, returning the server to `Idle`
    /// (property (3) of §3.2: the SUL must be resettable between queries).
    /// The state is reset in place — every field is named, so a new one
    /// cannot be missed — and the RNG is reseeded from its own next draw,
    /// exactly as a server built anew with that seed would be.
    pub fn reset(&mut self) {
        let QuicServer {
            profile,
            rng,
            phase,
            scid: _,
            client_cid,
            key_material,
            tx_pn,
            largest_rx,
            one_rtt_available,
            peer_max_stream_data,
            sent_stream_offset,
            blocked_bytes,
            retry_sent,
            expected_token,
            validated_port,
            pre_retry_initial_pn,
            datagrams_processed,
            rx: _,
            flight,
        } = self;
        *rng = StdRng::seed_from_u64(rng.gen::<u64>());
        *phase = ServerPhase::Idle;
        *client_cid = ConnectionId::empty();
        *key_material = None;
        *tx_pn = [0; 3];
        *largest_rx = [None; 3];
        *one_rtt_available = false;
        *peer_max_stream_data = profile.initial_peer_max_stream_data;
        *sent_stream_offset = 0;
        *blocked_bytes = 0;
        *retry_sent = false;
        expected_token.clear();
        *validated_port = None;
        *pre_retry_initial_pn = None;
        *datagrams_processed = 0;
        flight.clear();
    }

    fn level_for(packet_type: PacketType) -> Option<EncryptionLevel> {
        match packet_type {
            PacketType::Initial | PacketType::ZeroRtt => Some(EncryptionLevel::Initial),
            PacketType::Handshake => Some(EncryptionLevel::Handshake),
            PacketType::Short => Some(EncryptionLevel::OneRtt),
            _ => None,
        }
    }

    fn space(level: EncryptionLevel) -> usize {
        match level {
            EncryptionLevel::Initial => 0,
            EncryptionLevel::Handshake => 1,
            EncryptionLevel::OneRtt => 2,
        }
    }

    fn keys(&self, level: EncryptionLevel) -> Option<Keys> {
        self.key_material.map(|m| Keys::derive(m, level))
    }

    /// Encodes a packet of `packet_type` carrying `frames` onto the flight.
    fn send(&mut self, packet_type: PacketType, frames: &[Frame<'_>]) {
        let level = Self::level_for(packet_type).unwrap_or(EncryptionLevel::Initial);
        let space = Self::space(level);
        let pn = self.tx_pn[space];
        self.tx_pn[space] += 1;
        let header = match packet_type {
            PacketType::Short => PacketHeader::short(self.client_cid, pn),
            _ => PacketHeader::long(packet_type, self.client_cid, self.scid, pn),
        };
        let keys = self.keys(level).unwrap_or_else(|| Keys::derive(0, level));
        self.flight.push(&header, frames, &keys);
    }

    fn ack_frame(&self, level: EncryptionLevel) -> Frame<'static> {
        let largest = self.largest_rx[Self::space(level)].unwrap_or(0);
        Frame::Ack {
            largest_acknowledged: largest,
            ack_delay: 0,
            first_ack_range: 0,
        }
    }

    fn stateless_reset(&mut self) {
        let header = PacketHeader {
            packet_type: PacketType::StatelessReset,
            version: 0,
            destination_cid: self.client_cid,
            source_cid: ConnectionId::empty(),
            token: &[],
            packet_number: 0,
        };
        self.flight
            .push(&header, &[], &Keys::derive(0, EncryptionLevel::OneRtt));
    }

    /// Modeled per-datagram processing time of the server on the virtual
    /// clock (decrypt + frame processing + response flight build).
    pub const SERVICE_DELAY: SimDuration = SimDuration::from_micros(5);

    /// The non-blocking step path: handles `datagram` as of virtual time
    /// `now` and returns the response flight together with the virtual
    /// instant it is ready to leave the server (`now + SERVICE_DELAY`).
    /// Nothing blocks; an event-driven session records the deadline and a
    /// shared clock jumps to the earliest one across all in-flight
    /// exchanges.  State transitions are identical to
    /// [`QuicServer::handle_datagram`].
    pub fn handle_datagram_at(
        &mut self,
        datagram: &[u8],
        source_port: u16,
        now: SimTime,
    ) -> (&Flight, SimTime) {
        (
            self.handle_datagram(datagram, source_port),
            now + Self::SERVICE_DELAY,
        )
    }

    /// Handles a datagram arriving from `source_port`, returning the
    /// datagrams the server sends in response (possibly none).  The flight
    /// is valid until the next call.
    pub fn handle_datagram(&mut self, datagram: &[u8], source_port: u16) -> &Flight {
        self.flight.clear();
        self.datagrams_processed += 1;
        self.receive(datagram, source_port);
        &self.flight
    }

    fn receive(&mut self, datagram: &[u8], source_port: u16) {
        let Ok((header, protected)) = Packet::decode_header(datagram) else {
            return;
        };
        let Some(level) = Self::level_for(header.packet_type) else {
            // Clients do not legitimately send Retry / VN / stateless resets.
            return;
        };

        // Once closed, the connection no longer tries to decrypt anything:
        // whatever arrives is handled by the post-close policy (a stateless
        // reset is precisely the mechanism for packets that can no longer be
        // associated with a connection).
        if self.phase == ServerPhase::Closed {
            return self.after_close_response();
        }

        // Key / phase gating: which packets can we even look at?
        let can_process = match level {
            EncryptionLevel::Initial => true,
            EncryptionLevel::Handshake => !matches!(self.phase, ServerPhase::Idle),
            EncryptionLevel::OneRtt => self.one_rtt_available,
        };
        if !can_process {
            return;
        }

        // Derive key material from the client's chosen destination CID on
        // first contact, exactly as Initial secrets are derived.
        if self.key_material.is_none() {
            if header.packet_type != PacketType::Initial {
                return;
            }
            self.key_material = Some(header.destination_cid.key_material());
        }
        let keys = self.keys(level).expect("key material set above");
        // A packet that does not open or decode is ignored.
        let mut rx = std::mem::take(&mut self.rx);
        let _ = rx.open(header, protected, &keys, |packet| {
            self.on_packet(packet, level, source_port)
        });
        self.rx = rx;
    }

    fn on_packet(&mut self, packet: &Packet<'_>, level: EncryptionLevel, source_port: u16) {
        let space = Self::space(level);
        self.largest_rx[space] = Some(
            self.largest_rx[space].map_or(packet.header.packet_number, |l| {
                l.max(packet.header.packet_number)
            }),
        );

        // A client must never send HANDSHAKE_DONE (§6.2.4): protocol violation.
        if packet
            .frames
            .iter()
            .any(|f| f.frame_type() == FrameType::HandshakeDone)
        {
            return self.close_on_violation(packet.header.packet_type);
        }

        match (self.phase, packet.header.packet_type) {
            (ServerPhase::Idle, PacketType::Initial) => self.on_client_initial(packet, source_port),
            (ServerPhase::HandshakeStarted, PacketType::Handshake) => {
                self.on_client_handshake(packet)
            }
            (ServerPhase::Established, PacketType::Short) => self.on_one_rtt(packet),
            // A duplicate / reordered Initial is acknowledged implicitly,
            // nothing more; everything else is ignored.
            _ => {}
        }
    }

    fn on_client_initial(&mut self, packet: &Packet<'_>, source_port: u16) {
        let has_crypto = packet
            .frames
            .iter()
            .any(|f| f.frame_type() == FrameType::Crypto);
        if !has_crypto {
            return;
        }
        self.client_cid = packet.header.source_cid;

        if self.profile.supports_retry {
            if !self.retry_sent {
                // First flight: validate the address with a Retry.
                self.retry_sent = true;
                self.pre_retry_initial_pn = Some(packet.header.packet_number);
                self.expected_token = format!("token-{}-{}", source_port, self.scid).into_bytes();
                self.validated_port = Some(source_port);
                // Key material resets with the new connection attempt.
                self.key_material = None;
                let header = PacketHeader::long(PacketType::Retry, self.client_cid, self.scid, 0)
                    .with_token(&self.expected_token);
                self.flight
                    .push(&header, &[], &Keys::derive(0, EncryptionLevel::Initial));
                return;
            }
            // Post-Retry Initial: the token must match and must arrive from
            // the validated address/port (Issue 3: the tracker client fails
            // this by re-binding to a fresh port).
            let token_ok = self.expected_token == packet.header.token;
            let port_ok = self.validated_port == Some(source_port);
            if !token_ok || !port_ok {
                return;
            }
            // Issue 1: implementations disagree on what to do when the
            // client resets its packet-number space after Retry.
            if self.profile.abort_on_pn_reset_after_retry {
                if let Some(pre) = self.pre_retry_initial_pn {
                    if packet.header.packet_number <= pre && pre > 0 {
                        return self.close_on_violation(PacketType::Initial);
                    }
                }
            }
        }

        self.phase = ServerPhase::HandshakeStarted;
        self.send(
            PacketType::Initial,
            &[
                self.ack_frame(EncryptionLevel::Initial),
                Frame::Crypto {
                    offset: 0,
                    data: Cow::Borrowed(b"server-hello"),
                },
            ],
        );
        self.send(
            PacketType::Handshake,
            &[Frame::Crypto {
                offset: 0,
                data: Cow::Borrowed(b"encrypted-extensions"),
            }],
        );
        self.send(
            PacketType::Handshake,
            &[Frame::Crypto {
                offset: 20,
                data: Cow::Borrowed(b"certificate-finished"),
            }],
        );
        if self.profile.handshake_style == HandshakeStyle::Google {
            // Google's first flight already carries early application data.
            self.one_rtt_available = true;
            self.send(
                PacketType::Short,
                &[Frame::Stream {
                    stream_id: STREAM_RESPONSE_ID,
                    offset: 0,
                    fin: false,
                    data: Cow::Borrowed(b"early-data"),
                }],
            );
        }
    }

    fn on_client_handshake(&mut self, packet: &Packet<'_>) {
        let has_crypto = packet
            .frames
            .iter()
            .any(|f| f.frame_type() == FrameType::Crypto);
        if !has_crypto {
            return;
        }
        self.phase = ServerPhase::Established;
        self.one_rtt_available = true;
        let session_ticket = Frame::Crypto {
            offset: 0,
            data: Cow::Borrowed(b"session-ticket"),
        };
        match self.profile.handshake_style {
            HandshakeStyle::Google => {
                self.send(PacketType::Short, &[session_ticket]);
                self.send(PacketType::Short, &[Frame::HandshakeDone]);
            }
            HandshakeStyle::Quiche => {
                self.send(
                    PacketType::Handshake,
                    &[self.ack_frame(EncryptionLevel::Handshake)],
                );
                self.send(
                    PacketType::Short,
                    &[
                        session_ticket,
                        Frame::HandshakeDone,
                        Frame::Stream {
                            stream_id: STREAM_RESPONSE_ID,
                            offset: 0,
                            fin: false,
                            data: Cow::Borrowed(b"welcome"),
                        },
                    ],
                );
            }
        }
    }

    fn on_one_rtt(&mut self, packet: &Packet<'_>) {
        let mut has_stream = false;
        let mut has_flow_update = false;
        for frame in &packet.frames {
            match frame {
                Frame::Stream { .. } => has_stream = true,
                // Connection-level credit (MAX_DATA) is tracked implicitly
                // through the stream-level limit in this simulator.
                Frame::MaxData { .. } => has_flow_update = true,
                Frame::MaxStreamData { maximum, .. } => {
                    self.peer_max_stream_data = self.peer_max_stream_data.max(*maximum);
                    has_flow_update = true;
                }
                _ => {}
            }
        }
        // Nothing but ACKs, PADDING or frames the server does not act on:
        // no response.
        if !has_stream && !has_flow_update {
            return;
        }

        // ACK, then STREAM data and STREAM_DATA_BLOCKED when they apply.
        let mut frames = [
            self.ack_frame(EncryptionLevel::OneRtt),
            Frame::Padding,
            Frame::Padding,
        ];
        let mut len = 1;
        if has_stream {
            // The client sent request data; we owe it `response_chunk` bytes
            // of response on our stream, subject to its flow-control limit.
            self.blocked_bytes += self.profile.response_chunk;
        }
        let budget = self
            .peer_max_stream_data
            .saturating_sub(self.sent_stream_offset);
        let to_send = self.blocked_bytes.min(budget);
        if to_send > 0 {
            frames[len] = Frame::Stream {
                stream_id: STREAM_RESPONSE_ID,
                offset: self.sent_stream_offset,
                fin: false,
                data: response_data(to_send),
            };
            len += 1;
            self.sent_stream_offset += to_send;
            self.blocked_bytes -= to_send;
        }
        if self.blocked_bytes > 0 {
            // We are blocked: advertise it.  The Google profile ships the
            // Issue-4 defect here — the field is a leftover placeholder 0.
            let advertised = if self.profile.stream_data_blocked_constant_zero {
                0
            } else {
                self.peer_max_stream_data
            };
            frames[len] = Frame::StreamDataBlocked {
                stream_id: STREAM_RESPONSE_ID,
                maximum_stream_data: advertised,
            };
            len += 1;
        }
        self.send(PacketType::Short, &frames[..len]);
    }

    fn close_on_violation(&mut self, trigger: PacketType) {
        let close = Frame::ConnectionClose {
            error_code: 0x0A, // PROTOCOL_VIOLATION
            frame_type: 0x1E, // HANDSHAKE_DONE
            reason: Cow::Borrowed("client sent HANDSHAKE_DONE"),
            application: false,
        };
        match (self.phase, trigger) {
            (ServerPhase::Idle, _) | (ServerPhase::HandshakeStarted, PacketType::Initial) => {
                self.send(
                    PacketType::Initial,
                    &[self.ack_frame(EncryptionLevel::Initial), close.clone()],
                );
                if self.phase != ServerPhase::Idle {
                    self.send(PacketType::Handshake, &[close]);
                }
            }
            (ServerPhase::HandshakeStarted, _) => {
                self.send(
                    PacketType::Handshake,
                    &[self.ack_frame(EncryptionLevel::Handshake), close.clone()],
                );
                if self.profile.handshake_style == HandshakeStyle::Google && self.one_rtt_available
                {
                    self.send(
                        PacketType::Short,
                        &[
                            close,
                            Frame::Stream {
                                stream_id: STREAM_RESPONSE_ID,
                                offset: self.sent_stream_offset,
                                fin: true,
                                data: Cow::Borrowed(&[]),
                            },
                        ],
                    );
                }
            }
            (ServerPhase::Established, _) => {
                self.send(
                    PacketType::Short,
                    &[self.ack_frame(EncryptionLevel::OneRtt), close],
                );
            }
            (ServerPhase::Closed, _) => {}
        }
        self.phase = ServerPhase::Closed;
    }

    /// What the server does with packets that arrive after the connection
    /// was closed.  Correct implementations answer deterministically; the
    /// mvfst profile answers with a stateless reset only ≈82% of the time
    /// (Issue 2) and stays silent otherwise, with no back-off.
    fn after_close_response(&mut self) {
        let p = self.profile.reset_probability_after_close;
        if p >= 1.0 {
            // Deterministic: retransmit the connection close.
            let close = Frame::ConnectionClose {
                error_code: 0x0A,
                frame_type: 0x1E,
                reason: Cow::Borrowed("closed"),
                application: false,
            };
            let packet_type = if self.one_rtt_available {
                PacketType::Short
            } else {
                PacketType::Initial
            };
            self.send(packet_type, &[close]);
        } else if self.rng.gen_bool(p) {
            self.stateless_reset();
        }
    }
}

#[cfg(test)]
mod tests {
    // The server is exercised end-to-end (through real packet exchanges) in
    // `client.rs` and in the crate-level tests in `tests/conversations.rs`,
    // where a reference client is available to drive it.  Here we only pin
    // the deadline arithmetic of the non-blocking step path.
    use super::*;

    #[test]
    fn timed_datagram_path_reports_the_service_deadline() {
        let mut server = QuicServer::new(ImplementationProfile::google(), 1);
        let now = SimTime::from_micros(250);
        let (responses, ready_at) = server.handle_datagram_at(b"not-a-quic-packet", 40_000, now);
        assert!(responses.is_empty(), "garbage datagrams are ignored");
        assert_eq!(ready_at, now + QuicServer::SERVICE_DELAY);
        assert_eq!(server.datagrams_processed(), 1);
    }
}

//! The TCP server — the system under learning of §6.1.
//!
//! A deliberately self-contained RFC-793-style server:
//! passive open, three-way handshake, in-order data transfer with
//! acknowledgements, passive close (FIN is acknowledged and combined with
//! the server's own FIN, matching the `FIN+ACK / ACK+FIN` transition in the
//! Appendix A.1 model), and the usual RST policy (RST in response to
//! unexpected segments, silence in response to RSTs).
//!
//! The server is driven one segment at a time through
//! [`TcpServer::handle_segment`] and reset between learner queries through
//! [`TcpServer::reset`] (property (3) of §3.2).

use crate::segment::{TcpFlags, TcpSegment};
use bytes::Bytes;
use prognosis_netsim::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How the server picks its initial sequence number on each new connection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IsnPolicy {
    /// Always the same ISN — what the learning experiments use, so that the
    /// abstract model is deterministic (Remark 3.1).
    Fixed(u32),
    /// A fresh pseudo-random ISN per connection, seeded for reproducibility —
    /// what a real stack does, and what makes sequence numbers unusable in
    /// the abstract alphabet.
    Random {
        /// RNG seed.
        seed: u64,
    },
}

impl Default for IsnPolicy {
    fn default() -> Self {
        IsnPolicy::Fixed(10_000)
    }
}

/// Server configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TcpServerConfig {
    /// Port the server listens on.
    pub port: u16,
    /// ISN selection policy.
    pub isn: IsnPolicy,
    /// Receive window advertised in every segment.
    pub window: u16,
}

impl Default for TcpServerConfig {
    fn default() -> Self {
        TcpServerConfig {
            port: 44_344,
            isn: IsnPolicy::default(),
            window: 8_192,
        }
    }
}

/// Connection states (RFC 793 nomenclature, server-relevant subset).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TcpState {
    /// Waiting for a connection request.
    Listen,
    /// SYN received, SYN+ACK sent, waiting for the final ACK.
    SynReceived,
    /// Connection established.
    Established,
    /// Peer's FIN received and acknowledged together with our FIN; waiting
    /// for the final ACK.
    LastAck,
    /// Connection closed or aborted; only a new `reset` returns to Listen.
    Closed,
}

/// The simulated TCP server.
#[derive(Clone, Debug)]
pub struct TcpServer {
    config: TcpServerConfig,
    state: TcpState,
    /// Our initial send sequence number for the current connection.
    iss: u32,
    /// Next sequence number we will send.
    snd_nxt: u32,
    /// Next sequence number we expect from the peer.
    rcv_nxt: u32,
    /// Bytes of application payload received in order.
    bytes_received: u64,
    /// Segments handled since the last reset.
    segments_handled: u64,
    rng: StdRng,
}

impl TcpServer {
    /// Creates a server in the `Listen` state.
    pub fn new(config: TcpServerConfig) -> Self {
        let seed = match config.isn {
            IsnPolicy::Random { seed } => seed,
            IsnPolicy::Fixed(_) => 0,
        };
        let mut server = TcpServer {
            config,
            state: TcpState::Listen,
            iss: 0,
            snd_nxt: 0,
            rcv_nxt: 0,
            bytes_received: 0,
            segments_handled: 0,
            rng: StdRng::seed_from_u64(seed),
        };
        server.pick_isn();
        server
    }

    /// Creates a server with the default configuration.
    pub fn with_defaults() -> Self {
        TcpServer::new(TcpServerConfig::default())
    }

    fn pick_isn(&mut self) {
        self.iss = match self.config.isn {
            IsnPolicy::Fixed(isn) => isn,
            IsnPolicy::Random { .. } => self.rng.gen(),
        };
        self.snd_nxt = self.iss;
    }

    /// Current connection state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// The server's listening port.
    pub fn port(&self) -> u16 {
        self.config.port
    }

    /// Application payload bytes received in order on the current connection.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received
    }

    /// Segments handled since the last reset.
    pub fn segments_handled(&self) -> u64 {
        self.segments_handled
    }

    /// Returns the server to `Listen` with a fresh ISN, dropping all
    /// connection state (property (3) of §3.2).
    pub fn reset(&mut self) {
        self.state = TcpState::Listen;
        self.rcv_nxt = 0;
        self.bytes_received = 0;
        self.segments_handled = 0;
        self.pick_isn();
    }

    fn reply(&self, flags: TcpFlags, seq: u32, ack: u32) -> TcpSegment {
        TcpSegment {
            source_port: self.config.port,
            destination_port: 0, // filled by the caller / network layer
            seq,
            ack,
            flags,
            window: self.config.window,
            payload: Bytes::new(),
        }
    }

    /// Handles one incoming segment and returns the server's response, if
    /// any (`None` models silence, i.e. the abstract output `NIL`).
    pub fn handle_segment(&mut self, segment: &TcpSegment) -> Option<TcpSegment> {
        self.segments_handled += 1;
        let mut response = match self.state {
            TcpState::Listen => self.in_listen(segment),
            TcpState::SynReceived => self.in_syn_received(segment),
            TcpState::Established => self.in_established(segment),
            TcpState::LastAck => self.in_last_ack(segment),
            TcpState::Closed => self.in_closed(segment),
        };
        if let Some(r) = response.as_mut() {
            r.destination_port = segment.source_port;
        }
        response
    }

    /// Modeled per-segment processing time of the server on the virtual
    /// clock (segment parse + state-machine transition + response build).
    pub const SERVICE_DELAY: SimDuration = SimDuration::from_micros(2);

    /// The non-blocking step path: handles `segment` as of virtual time
    /// `now` and returns the response together with the virtual instant it
    /// is ready to leave the server (`now + SERVICE_DELAY`).  The caller —
    /// an event-driven session — must not observe the response before that
    /// deadline; nothing here blocks, so one thread can keep many such
    /// exchanges in flight and let a shared clock jump to the earliest
    /// deadline.  State transitions are identical to
    /// [`TcpServer::handle_segment`] (the deadline delays *visibility*, not
    /// computation).
    pub fn handle_segment_at(
        &mut self,
        segment: &TcpSegment,
        now: SimTime,
    ) -> (Option<TcpSegment>, SimTime) {
        let response = self.handle_segment(segment);
        (response, now + Self::SERVICE_DELAY)
    }

    fn in_listen(&mut self, seg: &TcpSegment) -> Option<TcpSegment> {
        let f = seg.flags;
        if f.rst {
            return None;
        }
        if f.syn && !f.ack {
            // Passive open: record the peer's ISN, answer SYN+ACK.
            self.rcv_nxt = seg.seq.wrapping_add(1);
            let reply = self.reply(TcpFlags::SYN_ACK, self.iss, self.rcv_nxt);
            self.snd_nxt = self.iss.wrapping_add(1);
            self.state = TcpState::SynReceived;
            return Some(reply);
        }
        // Anything else directed at a listening socket is answered with RST.
        let rst_seq = if f.ack { seg.ack } else { 0 };
        Some(self.reply(
            TcpFlags::RST,
            rst_seq,
            seg.seq.wrapping_add(seg.sequence_space()),
        ))
    }

    fn in_syn_received(&mut self, seg: &TcpSegment) -> Option<TcpSegment> {
        let f = seg.flags;
        if f.rst {
            // Connection request aborted.
            self.state = TcpState::Closed;
            return None;
        }
        if f.syn && !f.ack {
            // SYN retransmission or a new SYN with a different ISN: abort.
            self.state = TcpState::Closed;
            return Some(self.reply(TcpFlags::RST_ACK, 0, seg.seq.wrapping_add(1)));
        }
        if f.syn && f.ack {
            // Simultaneous-open style nonsense from a client: reset.
            self.state = TcpState::Closed;
            return Some(self.reply(TcpFlags::RST, seg.ack, 0));
        }
        if f.ack && seg.ack != self.snd_nxt {
            // Unacceptable ACK: reset per RFC 793.
            self.state = TcpState::Closed;
            return Some(self.reply(TcpFlags::RST, seg.ack, 0));
        }
        if f.fin && f.ack {
            // Handshake completed and immediately closed by the peer.
            self.rcv_nxt = self.rcv_nxt.wrapping_add(1);
            let reply = self.reply(TcpFlags::FIN_ACK, self.snd_nxt, self.rcv_nxt);
            self.snd_nxt = self.snd_nxt.wrapping_add(1);
            self.state = TcpState::LastAck;
            return Some(reply);
        }
        if f.ack {
            // Handshake completes.
            self.state = TcpState::Established;
            if !seg.payload.is_empty() {
                self.rcv_nxt = self.rcv_nxt.wrapping_add(seg.payload.len() as u32);
                self.bytes_received += seg.payload.len() as u64;
                return Some(self.reply(TcpFlags::ACK, self.snd_nxt, self.rcv_nxt));
            }
            return None;
        }
        None
    }

    fn in_established(&mut self, seg: &TcpSegment) -> Option<TcpSegment> {
        let f = seg.flags;
        if f.rst {
            self.state = TcpState::Closed;
            return None;
        }
        if f.syn {
            // A SYN on an established connection gets a challenge ACK.
            return Some(self.reply(TcpFlags::ACK, self.snd_nxt, self.rcv_nxt));
        }
        if f.fin && f.ack {
            // Passive close: acknowledge the FIN and send ours in the same
            // segment (ACK+FIN), as the Appendix A.1 model shows.
            self.rcv_nxt = self
                .rcv_nxt
                .wrapping_add(seg.payload.len() as u32)
                .wrapping_add(1);
            let reply = self.reply(TcpFlags::FIN_ACK, self.snd_nxt, self.rcv_nxt);
            self.snd_nxt = self.snd_nxt.wrapping_add(1);
            self.state = TcpState::LastAck;
            return Some(reply);
        }
        if f.ack && !seg.payload.is_empty() {
            // In-order data is acknowledged; out-of-order data is dropped and
            // re-acknowledged at the expected sequence number.
            if seg.seq == self.rcv_nxt {
                self.rcv_nxt = self.rcv_nxt.wrapping_add(seg.payload.len() as u32);
                self.bytes_received += seg.payload.len() as u64;
            }
            return Some(self.reply(TcpFlags::ACK, self.snd_nxt, self.rcv_nxt));
        }
        // A bare ACK carries no obligation to respond.
        None
    }

    fn in_last_ack(&mut self, seg: &TcpSegment) -> Option<TcpSegment> {
        let f = seg.flags;
        if f.rst {
            self.state = TcpState::Closed;
            return None;
        }
        if f.ack && seg.ack == self.snd_nxt && !f.fin && !f.syn {
            self.state = TcpState::Closed;
            return None;
        }
        if f.fin && f.ack {
            // FIN retransmission: re-acknowledge.
            return Some(self.reply(TcpFlags::ACK, self.snd_nxt, self.rcv_nxt));
        }
        None
    }

    fn in_closed(&mut self, seg: &TcpSegment) -> Option<TcpSegment> {
        let f = seg.flags;
        if f.rst {
            return None;
        }
        // A closed endpoint answers everything else with RST (RFC 793 §3.4).
        let (seq, ack) = if f.ack {
            (seg.ack, 0)
        } else {
            (0, seg.seq.wrapping_add(seg.sequence_space()))
        };
        let flags = if f.ack {
            TcpFlags::RST
        } else {
            TcpFlags::RST_ACK
        };
        Some(self.reply(flags, seq, ack))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syn(seq: u32) -> TcpSegment {
        TcpSegment::new(TcpFlags::SYN, seq, 0).with_ports(40_965, 44_344)
    }

    fn ack(seq: u32, ack_no: u32) -> TcpSegment {
        TcpSegment::new(TcpFlags::ACK, seq, ack_no).with_ports(40_965, 44_344)
    }

    #[test]
    fn timed_step_path_matches_the_blocking_path_and_sets_deadlines() {
        let mut blocking = TcpServer::with_defaults();
        let mut timed = TcpServer::with_defaults();
        let now = SimTime::from_micros(1_000);
        let (response, ready_at) = timed.handle_segment_at(&syn(48_108), now);
        assert_eq!(response, blocking.handle_segment(&syn(48_108)));
        assert_eq!(ready_at, now + TcpServer::SERVICE_DELAY);
        assert_eq!(timed.state(), blocking.state());
    }

    #[test]
    fn three_way_handshake() {
        let mut server = TcpServer::with_defaults();
        assert_eq!(server.state(), TcpState::Listen);
        let synack = server
            .handle_segment(&syn(100))
            .expect("SYN must be answered");
        assert_eq!(synack.flags, TcpFlags::SYN_ACK);
        assert_eq!(synack.ack, 101);
        assert_eq!(synack.seq, 10_000);
        assert_eq!(synack.destination_port, 40_965);
        assert_eq!(server.state(), TcpState::SynReceived);
        let none = server.handle_segment(&ack(101, synack.seq + 1));
        assert!(none.is_none());
        assert_eq!(server.state(), TcpState::Established);
    }

    #[test]
    fn data_transfer_is_acknowledged() {
        let mut server = TcpServer::with_defaults();
        let synack = server.handle_segment(&syn(100)).unwrap();
        server.handle_segment(&ack(101, synack.seq + 1));
        let data = TcpSegment::new(TcpFlags::PSH_ACK, 101, synack.seq + 1)
            .with_ports(40_965, 44_344)
            .with_payload(Bytes::from_static(b"hello"));
        let reply = server.handle_segment(&data).expect("data must be ACKed");
        assert_eq!(reply.flags, TcpFlags::ACK);
        assert_eq!(reply.ack, 106);
        assert_eq!(server.bytes_received(), 5);
        // Out-of-order data re-acknowledges rcv_nxt without advancing.
        let ooo = TcpSegment::new(TcpFlags::PSH_ACK, 999, synack.seq + 1)
            .with_ports(40_965, 44_344)
            .with_payload(Bytes::from_static(b"zz"));
        let reply = server.handle_segment(&ooo).unwrap();
        assert_eq!(reply.ack, 106);
        assert_eq!(server.bytes_received(), 5);
    }

    #[test]
    fn passive_close_combines_fin_and_ack() {
        let mut server = TcpServer::with_defaults();
        let synack = server.handle_segment(&syn(100)).unwrap();
        server.handle_segment(&ack(101, synack.seq + 1));
        let fin = TcpSegment::new(TcpFlags::FIN_ACK, 101, synack.seq + 1).with_ports(1, 2);
        let reply = server.handle_segment(&fin).expect("FIN must be answered");
        assert_eq!(reply.flags, TcpFlags::FIN_ACK);
        assert_eq!(reply.ack, 102);
        assert_eq!(server.state(), TcpState::LastAck);
        let last = ack(102, reply.seq + 1);
        assert!(server.handle_segment(&last).is_none());
        assert_eq!(server.state(), TcpState::Closed);
    }

    #[test]
    fn listen_answers_stray_segments_with_rst() {
        let mut server = TcpServer::with_defaults();
        let r = server
            .handle_segment(&ack(5, 77))
            .expect("stray ACK gets RST");
        assert!(r.flags.rst);
        assert_eq!(r.seq, 77);
        assert_eq!(server.state(), TcpState::Listen);
        // RSTs to a listening socket are ignored.
        assert!(server
            .handle_segment(&TcpSegment::new(TcpFlags::RST, 0, 0))
            .is_none());
    }

    #[test]
    fn rst_aborts_connections_silently() {
        let mut server = TcpServer::with_defaults();
        server.handle_segment(&syn(100)).unwrap();
        assert!(server
            .handle_segment(&TcpSegment::new(TcpFlags::RST, 101, 0))
            .is_none());
        assert_eq!(server.state(), TcpState::Closed);
        // Once closed, a SYN is met with RST+ACK, not SYN+ACK.
        let r = server.handle_segment(&syn(200)).unwrap();
        assert!(r.flags.rst);
    }

    #[test]
    fn unacceptable_ack_in_syn_received_resets() {
        let mut server = TcpServer::with_defaults();
        server.handle_segment(&syn(100)).unwrap();
        let bad = ack(101, 1); // acks a sequence number we never sent
        let r = server.handle_segment(&bad).expect("bad ACK gets RST");
        assert!(r.flags.rst);
        assert_eq!(server.state(), TcpState::Closed);
    }

    #[test]
    fn syn_on_established_connection_gets_challenge_ack() {
        let mut server = TcpServer::with_defaults();
        let synack = server.handle_segment(&syn(100)).unwrap();
        server.handle_segment(&ack(101, synack.seq + 1));
        let r = server.handle_segment(&syn(300)).expect("challenge ACK");
        assert_eq!(r.flags, TcpFlags::ACK);
        assert_eq!(server.state(), TcpState::Established);
    }

    #[test]
    fn reset_returns_to_listen_with_policy_isn() {
        let mut server = TcpServer::with_defaults();
        server.handle_segment(&syn(100)).unwrap();
        server.reset();
        assert_eq!(server.state(), TcpState::Listen);
        assert_eq!(server.segments_handled(), 0);
        let synack = server.handle_segment(&syn(7)).unwrap();
        assert_eq!(synack.seq, 10_000, "fixed ISN policy reuses the same ISN");
    }

    #[test]
    fn random_isn_policy_varies_between_connections() {
        let mut server = TcpServer::new(TcpServerConfig {
            isn: IsnPolicy::Random { seed: 99 },
            ..TcpServerConfig::default()
        });
        let first = server.handle_segment(&syn(1)).unwrap().seq;
        server.reset();
        let second = server.handle_segment(&syn(1)).unwrap().seq;
        assert_ne!(
            first, second,
            "random ISNs should differ across connections"
        );
        assert_eq!(server.port(), 44_344);
    }

    #[test]
    fn fin_retransmission_in_last_ack_is_reacknowledged() {
        let mut server = TcpServer::with_defaults();
        let synack = server.handle_segment(&syn(100)).unwrap();
        server.handle_segment(&ack(101, synack.seq + 1));
        let fin = TcpSegment::new(TcpFlags::FIN_ACK, 101, synack.seq + 1);
        let first = server.handle_segment(&fin).unwrap();
        let retrans = server
            .handle_segment(&fin)
            .expect("retransmitted FIN re-ACKed");
        assert_eq!(retrans.flags, TcpFlags::ACK);
        assert_eq!(retrans.ack, first.ack);
        assert_eq!(server.state(), TcpState::LastAck);
    }
}

//! The reference TCP client the Adapter instruments.
//!
//! §3.2's key idea is "reference implementation as a concretization oracle":
//! instead of hand-writing the mapping from abstract symbols such as
//! `ACK+PSH(?,?,1)` to concrete segments with valid sequence numbers, the
//! Adapter reuses an existing client implementation and instruments it.
//! [`ReferenceTcpClient`] is that client: it owns the sequence/
//! acknowledgement bookkeeping of an active-open TCP endpoint, can build a
//! concrete segment matching any abstract request from its current state
//! (`γ`), and abstracts server responses back to flag-level symbols (`α`).

use crate::segment::{TcpFlags, TcpSegment, MAX_PAYLOAD};

/// The output symbol used when the server stays silent.
pub const NIL: &str = "NIL";

/// Errors raised while concretizing an abstract request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConcretizeError {
    /// The abstract symbol could not be parsed.
    BadSymbol(String),
}

impl std::fmt::Display for ConcretizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConcretizeError::BadSymbol(s) => write!(f, "unparseable abstract TCP symbol: {s}"),
        }
    }
}

impl std::error::Error for ConcretizeError {}

/// The reference client: protocol logic for the TCP adapter.
#[derive(Clone, Debug)]
pub struct ReferenceTcpClient {
    port: u16,
    server_port: u16,
    /// Our initial sequence number for the current connection.
    iss: u32,
    /// Next sequence number we will use.
    snd_nxt: u32,
    /// Next sequence number we expect from the server (0 until its SYN).
    rcv_nxt: u32,
    /// Whether we have seen the server's SYN (so ACK numbers are meaningful).
    synchronized: bool,
}

impl ReferenceTcpClient {
    /// Creates a client talking from `port` to `server_port` with a fixed
    /// initial sequence number (fresh connections restart from it).
    pub fn new(port: u16, server_port: u16, iss: u32) -> Self {
        ReferenceTcpClient {
            port,
            server_port,
            iss,
            snd_nxt: iss,
            rcv_nxt: 0,
            synchronized: false,
        }
    }

    /// The client's port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Next sequence number the client will use.
    pub fn snd_nxt(&self) -> u32 {
        self.snd_nxt
    }

    /// Next sequence number expected from the server.
    pub fn rcv_nxt(&self) -> u32 {
        self.rcv_nxt
    }

    /// Resets the connection state for a fresh learner query
    /// (property (3) of §3.2).
    pub fn reset(&mut self) {
        self.snd_nxt = self.iss;
        self.rcv_nxt = 0;
        self.synchronized = false;
    }

    /// Parses an abstract symbol of the form `FLAGS(?,?,len)` into its flag
    /// set and payload length, e.g. `ACK+PSH(?,?,1)` → (`ACK+PSH`, 1).
    /// A length above [`MAX_PAYLOAD`] does not parse: no segment of the
    /// wire format can carry it.
    pub fn parse_abstract(symbol: &str) -> Result<(TcpFlags, usize), ConcretizeError> {
        let (flag_part, rest) = symbol
            .split_once('(')
            .ok_or_else(|| ConcretizeError::BadSymbol(symbol.to_string()))?;
        let args = rest
            .strip_suffix(')')
            .ok_or_else(|| ConcretizeError::BadSymbol(symbol.to_string()))?;
        let payload_len: usize = args
            .rsplit(',')
            .next()
            .and_then(|s| s.trim().parse().ok())
            .filter(|&len| len <= MAX_PAYLOAD)
            .ok_or_else(|| ConcretizeError::BadSymbol(symbol.to_string()))?;
        let mut flags = TcpFlags::default();
        for part in flag_part.split('+') {
            match part.trim() {
                "SYN" => flags.syn = true,
                "ACK" => flags.ack = true,
                "FIN" => flags.fin = true,
                "RST" => flags.rst = true,
                "PSH" => flags.psh = true,
                other => {
                    return Err(ConcretizeError::BadSymbol(format!(
                        "unknown flag {other} in {symbol}"
                    )))
                }
            }
        }
        Ok((flags, payload_len))
    }

    /// Concretizes an abstract request (`γ`): builds a segment whose
    /// sequence and acknowledgement numbers are valid in the client's
    /// current connection state, and advances the client's send state by the
    /// sequence space the segment consumes.
    pub fn concretize(&mut self, symbol: &str) -> Result<TcpSegment, ConcretizeError> {
        let (flags, payload_len) = Self::parse_abstract(symbol)?;
        Ok(self.concretize_parsed(flags, payload_len))
    }

    /// [`ReferenceTcpClient::concretize`] for an already parsed symbol: an
    /// adapter parses each symbol once and replays the parsed form.
    pub fn concretize_parsed(&mut self, flags: TcpFlags, payload_len: usize) -> TcpSegment {
        let ack = if flags.ack { self.rcv_nxt } else { 0 };
        let payload = vec![b'a'; payload_len];
        let segment = TcpSegment {
            source_port: self.port,
            destination_port: self.server_port,
            seq: self.snd_nxt,
            ack,
            flags,
            window: 8_192,
            payload,
        };
        self.snd_nxt = self.snd_nxt.wrapping_add(segment.sequence_space());
        segment
    }

    /// Absorbs a server response, updating the acknowledgement bookkeeping
    /// so that subsequent concretizations remain valid.
    pub fn absorb(&mut self, response: &TcpSegment) {
        if response.flags.rst {
            // A reset invalidates the connection; keep counters as-is so a
            // learner can still observe post-reset behaviour deterministically.
            return;
        }
        if response.flags.syn && !self.synchronized {
            self.rcv_nxt = response.seq.wrapping_add(1);
            self.synchronized = true;
            return;
        }
        if self.synchronized {
            let advance = response.payload.len() as u32 + response.flags.fin as u32;
            if response.seq == self.rcv_nxt {
                self.rcv_nxt = self.rcv_nxt.wrapping_add(advance);
            }
        }
    }

    /// Abstracts a server response (`α`): flags plus payload length, or
    /// [`NIL`] when the server stayed silent.
    pub fn abstract_response(response: Option<&TcpSegment>) -> String {
        match response {
            None => NIL.to_string(),
            Some(seg) => seg.abstract_name(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{TcpServer, TcpState};

    #[test]
    fn parse_abstract_symbols() {
        assert_eq!(
            ReferenceTcpClient::parse_abstract("SYN(?,?,0)").unwrap(),
            (TcpFlags::SYN, 0)
        );
        assert_eq!(
            ReferenceTcpClient::parse_abstract("ACK+PSH(?,?,1)").unwrap(),
            (TcpFlags::PSH_ACK, 1)
        );
        assert_eq!(
            ReferenceTcpClient::parse_abstract("FIN+ACK(?,?,0)").unwrap(),
            (TcpFlags::FIN_ACK, 0)
        );
        assert!(ReferenceTcpClient::parse_abstract("garbage").is_err());
        assert!(ReferenceTcpClient::parse_abstract("FOO(?,?,0)").is_err());
        assert!(ReferenceTcpClient::parse_abstract("SYN(?,?,x)").is_err());
    }

    #[test]
    fn payload_lengths_past_the_length_field_do_not_parse() {
        assert_eq!(
            ReferenceTcpClient::parse_abstract("ACK+PSH(?,?,65535)").unwrap(),
            (TcpFlags::PSH_ACK, MAX_PAYLOAD)
        );
        for symbol in [
            "ACK+PSH(?,?,65536)",
            "ACK+PSH(?,?,70000)",
            "ACK+PSH(?,?,1000000000000)",
            "ACK+PSH(?,?,18446744073709551615)",
            "ACK+PSH(?,?,18446744073709551616)",
        ] {
            assert!(
                ReferenceTcpClient::parse_abstract(symbol).is_err(),
                "{symbol}"
            );
        }
    }

    #[test]
    fn concretize_parsed_matches_concretize() {
        let mut by_text = ReferenceTcpClient::new(1, 2, 500);
        let mut by_parsed = by_text.clone();
        for symbol in [
            "SYN(?,?,0)",
            "ACK+PSH(?,?,1)",
            "ACK+PSH(?,?,64)",
            "ACK+PSH(?,?,65)",
        ] {
            let (flags, len) = ReferenceTcpClient::parse_abstract(symbol).unwrap();
            let expected = by_text.concretize(symbol).unwrap();
            assert_eq!(by_parsed.concretize_parsed(flags, len), expected);
            assert_eq!(&expected.payload[..], &vec![b'a'; len][..]);
        }
        assert_eq!(by_parsed.snd_nxt(), by_text.snd_nxt());
    }

    #[test]
    fn concretize_produces_valid_handshake_numbers() {
        let mut client = ReferenceTcpClient::new(40_965, 44_344, 48_108);
        let syn = client.concretize("SYN(?,?,0)").unwrap();
        assert_eq!(syn.seq, 48_108);
        assert_eq!(syn.ack, 0);
        assert!(syn.flags.syn);
        assert_eq!(client.snd_nxt(), 48_109);

        // Server's SYN+ACK is absorbed, making the final ACK valid.
        let synack = TcpSegment::new(TcpFlags::SYN_ACK, 10_000, 48_109);
        client.absorb(&synack);
        assert_eq!(client.rcv_nxt(), 10_001);
        let ack = client.concretize("ACK(?,?,0)").unwrap();
        assert_eq!(ack.seq, 48_109);
        assert_eq!(ack.ack, 10_001);
    }

    #[test]
    fn full_handshake_and_close_against_the_server() {
        let mut client = ReferenceTcpClient::new(40_965, 44_344, 1_000);
        let mut server = TcpServer::with_defaults();
        // SYN →
        let syn = client.concretize("SYN(?,?,0)").unwrap();
        let synack = server.handle_segment(&syn).unwrap();
        client.absorb(&synack);
        assert_eq!(
            ReferenceTcpClient::abstract_response(Some(&synack)),
            "ACK+SYN(?,?,0)"
        );
        // ACK →
        let ack = client.concretize("ACK(?,?,0)").unwrap();
        let r = server.handle_segment(&ack);
        assert_eq!(ReferenceTcpClient::abstract_response(r.as_ref()), "NIL");
        assert_eq!(server.state(), TcpState::Established);
        // data →
        let data = client.concretize("ACK+PSH(?,?,1)").unwrap();
        let r = server.handle_segment(&data).unwrap();
        client.absorb(&r);
        assert_eq!(r.ack, data.seq + 1);
        // FIN →
        let fin = client.concretize("FIN+ACK(?,?,0)").unwrap();
        let finack = server.handle_segment(&fin).unwrap();
        client.absorb(&finack);
        assert_eq!(
            ReferenceTcpClient::abstract_response(Some(&finack)),
            "ACK+FIN(?,?,0)"
        );
        // final ACK →
        let last = client.concretize("ACK(?,?,0)").unwrap();
        assert!(server.handle_segment(&last).is_none());
        assert_eq!(server.state(), TcpState::Closed);
    }

    #[test]
    fn reset_restores_initial_numbers() {
        let mut client = ReferenceTcpClient::new(1, 2, 500);
        client.concretize("SYN(?,?,0)").unwrap();
        client.absorb(&TcpSegment::new(TcpFlags::SYN_ACK, 9, 501));
        client.reset();
        assert_eq!(client.snd_nxt(), 500);
        assert_eq!(client.rcv_nxt(), 0);
        assert_eq!(client.port(), 1);
    }

    #[test]
    fn rst_responses_do_not_advance_state() {
        let mut client = ReferenceTcpClient::new(1, 2, 500);
        client.concretize("SYN(?,?,0)").unwrap();
        let before = client.rcv_nxt();
        client.absorb(&TcpSegment::new(TcpFlags::RST, 0, 0));
        assert_eq!(client.rcv_nxt(), before);
    }

    #[test]
    fn duplicate_server_segments_do_not_double_advance() {
        let mut client = ReferenceTcpClient::new(1, 2, 500);
        client.concretize("SYN(?,?,0)").unwrap();
        let synack = TcpSegment::new(TcpFlags::SYN_ACK, 10, 501);
        client.absorb(&synack);
        let fin = TcpSegment::new(TcpFlags::FIN_ACK, 11, 501);
        client.absorb(&fin);
        let rcv_after_first = client.rcv_nxt();
        client.absorb(&fin); // retransmission: seq no longer matches rcv_nxt
        assert_eq!(client.rcv_nxt(), rcv_after_first);
    }
}

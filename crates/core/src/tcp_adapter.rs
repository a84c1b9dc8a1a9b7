//! The TCP adapter: the protocol binding of §6.1.
//!
//! The adapter pairs the TCP implementation under learning
//! ([`prognosis_tcp::TcpServer`]) with the instrumented reference client
//! ([`prognosis_tcp::ReferenceTcpClient`]), enforcing the §3.2 properties:
//! packets are only sent when the learner requests them (1), the concrete
//! segment always matches the requested abstract symbol (2), both sides are
//! reset between queries (3), every exchange is recorded in the Oracle Table
//! together with its concrete sequence/acknowledgement numbers (4), and
//! responses are abstracted back to the learner's alphabet (5).
//!
//! Property (4) holds for every SUL: the table is always on.  A repeated
//! step allocates nothing in the adapter: each [`TcpSul`] memoises the
//! parsed form of every input symbol and the output symbol of every
//! (flags, payload length) reply it has seen, so a repeated symbol is a
//! memo hit and a repeated output an `Arc` clone.  The memos belong to one
//! SUL and live as long as it.  In process, segments never leave their
//! structured form, whose payload is an owned `Vec<u8>`: a reply or a
//! request without payload allocates nothing.  Wire bytes exist only at
//! the [`WireSul`] boundary, where a segment is encoded into a reused
//! buffer and copied into the one `Bytes` the network carries.

use crate::memo::Memo;
use crate::net_transport::{WireRequest, WireSul};
use crate::oracle_table::{HasOracleTable, OracleTable};
use crate::session::{SessionSulFactory, SimTime, TimedSession, TimedSul};
use crate::sul::{Sul, SulFactory, SulStats};
use bytes::Bytes;
use prognosis_automata::alphabet::{Alphabet, Symbol};
use prognosis_tcp::client::{ReferenceTcpClient, NIL};
use prognosis_tcp::segment::{TcpFlags, TcpSegment};
use prognosis_tcp::server::{TcpServer, TcpServerConfig};

/// The abstract TCP alphabet used in §6.1 (the same alphabet as prior work):
/// packet flags with the payload length, sequence/acknowledgement numbers
/// left unspecified.
pub fn tcp_alphabet() -> Alphabet {
    Alphabet::from_symbols([
        "SYN(?,?,0)",
        "SYN+ACK(?,?,0)",
        "ACK(?,?,0)",
        "ACK+PSH(?,?,1)",
        "FIN+ACK(?,?,0)",
        "RST(?,?,0)",
        "ACK+RST(?,?,0)",
    ])
}

/// Mints independent [`TcpSul`] instances from one server configuration,
/// so membership-query batches can fan out across parallel workers.
#[derive(Clone, Debug, Default)]
pub struct TcpSulFactory {
    config: TcpServerConfig,
}

impl TcpSulFactory {
    /// A factory using the given server configuration.
    pub fn new(config: TcpServerConfig) -> Self {
        TcpSulFactory { config }
    }
}

impl SulFactory for TcpSulFactory {
    type Sul = TcpSul;

    fn create(&self) -> TcpSul {
        TcpSul::new(self.config.clone())
    }
}

impl SessionSulFactory for TcpSulFactory {
    type Session = TimedSession<TcpSul>;

    fn create_session(&self) -> Self::Session {
        TimedSession::new(self.create())
    }
}

/// The concrete fields the Oracle Table records per segment: `[seq, ack]`.
type Fields = [i64; 2];

/// The TCP system under learning: implementation + adapter.
pub struct TcpSul {
    server: TcpServer,
    client: ReferenceTcpClient,
    /// The server configuration, kept so the SUL can report a stable
    /// cross-run cache key (the config fully determines query answers:
    /// the reference client's ports and ISN are fixed constants).
    config: TcpServerConfig,
    oracle: OracleTable,
    stats: SulStats,
    /// Input symbol → parsed (flags, payload length); `None` when the
    /// symbol does not parse.
    inputs: Memo<Symbol, Option<(TcpFlags, usize)>>,
    /// (flags byte, payload length) of a reply → its output symbol.
    outputs: Memo<(u8, usize), Symbol>,
    /// The silence symbol.
    nil: Symbol,
    /// The in-flight networked step (see [`WireSul`]): the input with its
    /// fields, then the first response absorbed from the wire.
    wire_input: Option<(Symbol, Fields)>,
    wire_response: Option<(Symbol, Fields)>,
    /// Reused encoding buffer of the wire boundary.
    wire: Vec<u8>,
}

impl TcpSul {
    /// Creates the SUL with the given server configuration.
    pub fn new(config: TcpServerConfig) -> Self {
        let server_port = config.port;
        TcpSul {
            server: TcpServer::new(config.clone()),
            client: ReferenceTcpClient::new(40_965, server_port, 48_108),
            config,
            oracle: OracleTable::new(),
            stats: SulStats::default(),
            inputs: Memo::default(),
            outputs: Memo::default(),
            nil: Symbol::new(NIL),
            wire_input: None,
            wire_response: None,
            wire: Vec::new(),
        }
    }

    /// Creates the SUL with the default (fixed-ISN) configuration used by
    /// the learning experiments.
    pub fn with_defaults() -> Self {
        TcpSul::new(TcpServerConfig::default())
    }

    /// The Oracle Table accumulated so far.
    pub fn oracle_table(&self) -> &OracleTable {
        &self.oracle
    }

    /// The current state of the server (for white-box assertions in tests).
    pub fn server(&self) -> &TcpServer {
        &self.server
    }

    fn fields(segment: &TcpSegment) -> Fields {
        [i64::from(segment.seq), i64::from(segment.ack)]
    }

    /// The wire bytes of `segment`, encoded through the reused buffer.
    fn encode(&mut self, segment: &TcpSegment) -> Bytes {
        self.wire.clear();
        segment.encode(&mut self.wire);
        Bytes::copy_from_slice(&self.wire)
    }

    /// Builds the segment for `input` from its memoised parsed form, or
    /// `None` when the symbol does not parse.
    fn concretize(&mut self, input: &Symbol) -> Option<TcpSegment> {
        let parsed = *self.inputs.get_or_insert_with(input, || {
            ReferenceTcpClient::parse_abstract(input.as_str()).ok()
        });
        let (flags, payload_len) = parsed?;
        Some(self.client.concretize_parsed(flags, payload_len))
    }

    /// Absorbs a server response: the client's bookkeeping advances, and
    /// the response is abstracted through the output memo.
    fn absorb(&mut self, segment: &TcpSegment) -> (Symbol, Fields) {
        self.client.absorb(segment);
        let key = (segment.flags.to_byte(), segment.payload.len());
        let output = self
            .outputs
            .get_or_insert_with(&key, || Symbol::new(segment.abstract_name()));
        (output.clone(), Self::fields(segment))
    }

    /// Records one step in the Oracle Table and returns its output: the
    /// response, or silence.
    fn record(
        &mut self,
        input: &Symbol,
        input_fields: &[i64],
        response: Option<(Symbol, Fields)>,
    ) -> Symbol {
        let (output, output_fields) = match &response {
            Some((symbol, fields)) => (symbol, &fields[..]),
            None => (&self.nil, &[][..]),
        };
        self.oracle
            .push_step(input, input_fields, output, output_fields);
        output.clone()
    }

    /// One step on the virtual clock: the abstract output plus the instant
    /// the server's response is ready (`now` when no packet was exchanged).
    /// Both [`Sul::step`] and [`TimedSul::step_at`] funnel through here, so
    /// the two paths answer identically by construction.
    fn step_timed(&mut self, input: &Symbol, now: SimTime) -> (Symbol, SimTime) {
        self.stats.symbols_sent += 1;
        let Some(segment) = self.concretize(input) else {
            // Unknown symbols are answered with silence so a bad alphabet
            // cannot wedge the learner.
            return (self.record(input, &[], None), now);
        };
        let (response, ready_at) = self.server.handle_segment_at(&segment, now);
        let response = response.map(|seg| self.absorb(&seg));
        let output = self.record(input, &Self::fields(&segment), response);
        (output, ready_at)
    }
}

impl Sul for TcpSul {
    fn step(&mut self, input: &Symbol) -> Symbol {
        self.step_timed(input, SimTime::ZERO).0
    }

    fn reset(&mut self) {
        self.stats.resets += 1;
        self.wire_input = None;
        self.wire_response = None;
        self.oracle.end_query();
        self.server.reset();
        self.client.reset();
    }

    fn stats(&self) -> SulStats {
        self.stats
    }

    fn cache_key(&self) -> Option<String> {
        Some(format!("tcp:{:?}", self.config))
    }
}

impl WireSul for TcpSul {
    fn wire_request(&mut self, input: &Symbol) -> WireRequest {
        self.stats.symbols_sent += 1;
        self.wire_response = None;
        match self.concretize(input) {
            // Unknown symbols exchange no packet: answered with silence
            // immediately, exactly as the in-process path does.
            None => WireRequest::Immediate(self.record(input, &[], None)),
            Some(segment) => {
                self.wire_input = Some((input.clone(), Self::fields(&segment)));
                WireRequest::Datagram(self.encode(&segment))
            }
        }
    }

    fn handle_wire(
        &mut self,
        datagram: &Bytes,
        _source_port: u16,
        now: SimTime,
    ) -> (Vec<Bytes>, SimTime) {
        match TcpSegment::decode(datagram) {
            Ok(segment) => {
                let (response, ready_at) = self.server.handle_segment_at(&segment, now);
                let responses = response.map(|seg| self.encode(&seg)).into_iter().collect();
                (responses, ready_at)
            }
            // A mangled segment is dropped by the server's input stage.
            Err(_) => (Vec::new(), now),
        }
    }

    fn absorb_wire(&mut self, datagram: &Bytes) {
        if let Ok(segment) = TcpSegment::decode(datagram) {
            let response = self.absorb(&segment);
            // TCP answers a request with at most one segment; a duplicated
            // delivery repeats the identical segment, so the first absorbed
            // response is the step's output.
            self.wire_response.get_or_insert(response);
        }
    }

    fn finish_step(&mut self) -> Symbol {
        // Nothing absorbed means silence on the wire — the adapter's
        // timeout symbol.
        let (input, input_fields) = self
            .wire_input
            .take()
            .expect("finish_step follows a wire_request that sent a segment");
        let response = self.wire_response.take();
        self.record(&input, &input_fields, response)
    }
}

impl TimedSul for TcpSul {
    fn step_at(&mut self, input: &Symbol, now: SimTime) -> (Symbol, SimTime) {
        self.step_timed(input, now)
    }

    fn reset_at(&mut self, now: SimTime) -> SimTime {
        self.reset();
        now
    }
}

impl HasOracleTable for TcpSul {
    fn oracle_table(&self) -> &OracleTable {
        &self.oracle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prognosis_automata::word::InputWord;
    use prognosis_learner::oracle::MembershipOracle;

    #[test]
    fn cache_keys_distinguish_server_configurations() {
        let a = TcpSul::with_defaults();
        let b = TcpSul::with_defaults();
        assert_eq!(a.cache_key(), b.cache_key(), "same config, same key");
        let other = TcpSul::new(TcpServerConfig {
            window: 1_024,
            ..TcpServerConfig::default()
        });
        assert_ne!(a.cache_key(), other.cache_key());
    }

    #[test]
    fn alphabet_has_the_seven_symbols_of_the_paper() {
        let a = tcp_alphabet();
        assert_eq!(a.len(), 7);
        assert!(a.contains(&Symbol::new("ACK+PSH(?,?,1)")));
    }

    #[test]
    fn handshake_query_produces_the_expected_abstract_trace() {
        let mut sul = TcpSul::with_defaults();
        sul.reset();
        let out1 = sul.step(&Symbol::new("SYN(?,?,0)"));
        let out2 = sul.step(&Symbol::new("ACK(?,?,0)"));
        let out3 = sul.step(&Symbol::new("ACK+PSH(?,?,1)"));
        assert_eq!(out1.as_str(), "ACK+SYN(?,?,0)");
        assert_eq!(out2.as_str(), "NIL");
        assert_eq!(out3.as_str(), "ACK(?,?,0)");
        assert_eq!(sul.stats().symbols_sent, 3);
    }

    #[test]
    fn queries_are_deterministic_across_resets() {
        let mut sul = TcpSul::with_defaults();
        let mut oracle = crate::sul::SulMembershipOracle::new(&mut sul);
        let word =
            InputWord::from_symbols(["SYN(?,?,0)", "ACK(?,?,0)", "FIN+ACK(?,?,0)", "ACK(?,?,0)"]);
        let a = oracle.query(&word);
        let b = oracle.query(&word);
        assert_eq!(a, b);
    }

    #[test]
    fn oracle_table_records_concrete_sequence_numbers() {
        let mut sul = TcpSul::with_defaults();
        sul.reset();
        sul.step(&Symbol::new("SYN(?,?,0)"));
        sul.step(&Symbol::new("ACK(?,?,0)"));
        sul.reset(); // flushes the query into the table
        assert_eq!(sul.oracle_table().len(), 1);
        let entry = sul.oracle_table().entries().next().unwrap();
        // The SYN carries the client ISN; the SYN+ACK response acknowledges ISN+1.
        assert_eq!(entry.steps[0].input_fields, vec![48_108, 0]);
        assert_eq!(entry.steps[0].output_fields, vec![10_000, 48_109]);
    }

    #[test]
    fn unknown_abstract_symbols_are_answered_with_nil() {
        let mut sul = TcpSul::with_defaults();
        sul.reset();
        assert_eq!(sul.step(&Symbol::new("NOT_A_SYMBOL")).as_str(), "NIL");
    }

    #[test]
    fn stray_segments_in_listen_get_rst() {
        let mut sul = TcpSul::with_defaults();
        sul.reset();
        let out = sul.step(&Symbol::new("ACK(?,?,0)"));
        assert_eq!(out.as_str(), "RST(?,?,0)");
        let out = sul.step(&Symbol::new("FIN+ACK(?,?,0)"));
        assert!(out.as_str().contains("RST"));
    }
}

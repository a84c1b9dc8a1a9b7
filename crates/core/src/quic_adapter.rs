//! The QUIC adapter: the protocol binding of §6.2.
//!
//! The adapter pairs a simulated QUIC server (any implementation profile)
//! with the instrumented QUIC-Tracker-style reference client.  Abstract
//! input symbols name a packet type plus the frames it must carry; the
//! reference client fills in connection IDs, packet numbers, ACK ranges,
//! stream offsets and flow-control limits that are valid in the current
//! connection state (the "never roll your own protocol logic" idea of §3.2).
//! Responses are abstracted back into the set notation of the appendix
//! models, e.g. `{HANDSHAKE(?,?)[CRYPTO],INITIAL(?,?)[ACK,CRYPTO]}`, and the
//! concrete numeric fields of every exchanged packet are recorded in the
//! Oracle Table for synthesis.
//!
//! Property (4) holds for every SUL: the table is always on.  The adapter
//! memoises per [`QuicSul`]: the parsed form of every input symbol, the
//! abstract name of every reply packet kind (packet type plus the set of
//! frame types other than PADDING), and the output symbol of every sorted
//! list of reply kinds.  A repeated step therefore renders no string: it
//! reuses the parsed request, looks each reply's name up, and clones the
//! output symbol's `Arc`.  The memos belong to one SUL and live as long as
//! it.

use crate::memo::Memo;
use crate::net_transport::{WireRequest, WireSul};
use crate::oracle_table::{HasOracleTable, OracleTable};
use crate::session::{SessionSulFactory, SimTime, TimedSession, TimedSul};
use crate::sul::{Sul, SulFactory, SulStats};
use bytes::Bytes;
use prognosis_automata::alphabet::{Alphabet, Symbol};
use prognosis_quic_sim::client::{numeric_fields_into, ReferenceQuicClient};
use prognosis_quic_sim::profile::ImplementationProfile;
use prognosis_quic_sim::server::QuicServer;
use prognosis_quic_sim::wire::frame::FrameType;
use prognosis_quic_sim::wire::packet::{Packet, PacketType};
use std::ops::Range;

/// The abstract QUIC input alphabet of §6.2.2: seven symbols covering
/// connection establishment, the handshake, data transmission and flow
/// control (out of the >30,000 symbols a naïve alphabet would have).
pub fn quic_alphabet() -> Alphabet {
    Alphabet::from_symbols([
        "INITIAL(?,?)[CRYPTO]",
        "INITIAL(?,?)[ACK,HANDSHAKE_DONE]",
        "HANDSHAKE(?,?)[ACK,CRYPTO]",
        "HANDSHAKE(?,?)[ACK,HANDSHAKE_DONE]",
        "SHORT(?,?)[ACK,MAX_DATA,MAX_STREAM_DATA]",
        "SHORT(?,?)[ACK,STREAM]",
        "SHORT(?,?)[ACK,HANDSHAKE_DONE]",
    ])
}

/// A reduced alphabet focused on the data-transfer path, used by the
/// extended-model synthesis experiment of Appendix B.1 (Issue 4): it keeps
/// learning fast while still exercising the `STREAM_DATA_BLOCKED` behaviour.
pub fn quic_data_alphabet() -> Alphabet {
    Alphabet::from_symbols([
        "INITIAL(?,?)[CRYPTO]",
        "HANDSHAKE(?,?)[ACK,CRYPTO]",
        "SHORT(?,?)[ACK,STREAM]",
        "SHORT(?,?)[ACK,MAX_DATA,MAX_STREAM_DATA]",
    ])
}

/// Mints independent [`QuicSul`] instances (same profile, same seed), so
/// membership-query batches can fan out across parallel workers.
#[derive(Clone, Debug)]
pub struct QuicSulFactory {
    profile: ImplementationProfile,
    seed: u64,
    buggy_retry_client: bool,
}

impl QuicSulFactory {
    /// A factory for the given implementation profile and seed.
    pub fn new(profile: ImplementationProfile, seed: u64) -> Self {
        QuicSulFactory {
            profile,
            seed,
            buggy_retry_client: false,
        }
    }

    /// Enables the Issue-3 reference-client defect on every minted SUL.
    pub fn with_buggy_retry_client(mut self) -> Self {
        self.buggy_retry_client = true;
        self
    }
}

impl SulFactory for QuicSulFactory {
    type Sul = QuicSul;

    fn create(&self) -> QuicSul {
        let sul = QuicSul::new(self.profile.clone(), self.seed);
        if self.buggy_retry_client {
            sul.with_buggy_retry_client()
        } else {
            sul
        }
    }
}

impl SessionSulFactory for QuicSulFactory {
    type Session = TimedSession<QuicSul>;

    fn create_session(&self) -> Self::Session {
        TimedSession::new(self.create())
    }
}

/// A reply packet's abstraction key: its type plus the bitset of the frame
/// types it carries, PADDING left out — exactly what its abstract name
/// spells.
type PacketKind = (PacketType, u32);

fn packet_kind(packet: &Packet<'_>) -> PacketKind {
    let frames = packet
        .frames
        .iter()
        .map(|f| f.frame_type())
        .filter(|&t| t != FrameType::Padding)
        .fold(0, |set, t| set | 1 << t as u32);
    (packet.header.packet_type, frames)
}

/// The QUIC system under learning: one implementation profile + the adapter.
pub struct QuicSul {
    server: QuicServer,
    adapter: Adapter,
    /// Rendering of the profile + seed this SUL was built from, kept for
    /// the cross-run cache key (the pair fully determines query answers;
    /// the reference-client defect flag is folded in at key time because
    /// it can be toggled after construction).
    identity: String,
    /// Whether the profile answers every query deterministically.  A
    /// probabilistic profile (mvfst's 0.82 post-close RESET ratio) draws
    /// from RNG state that advances per reset, so its answers depend on
    /// query position — such SULs must opt out of the persistent cache.
    deterministic: bool,
}

/// The adapter half of a [`QuicSul`]: the reference client, the memos, the
/// Oracle Table and the step in progress.  It is apart from the server so
/// a step can absorb the server's flight while the flight borrows the
/// server.
struct Adapter {
    client: ReferenceQuicClient,
    oracle: OracleTable,
    stats: SulStats,
    /// Input symbol → parsed (packet type, frame types); `None` when the
    /// symbol does not parse.
    inputs: Memo<Symbol, Option<(PacketType, Vec<FrameType>)>>,
    /// Reply packet kind → its abstract name; the slot is the kind's id.
    kinds: Memo<PacketKind, String>,
    /// Sorted kind ids of a step's replies → the step's output symbol.
    outputs: Memo<Vec<usize>, Symbol>,
    /// The empty flight's symbol, `{}`.
    silence: Symbol,
    /// The step in progress: the input of a networked step (see
    /// [`WireSul`]), the request's fields, and each absorbed reply's kind
    /// id with the range of its fields in `reply_fields`.
    wire_input: Option<Symbol>,
    input_fields: Vec<i64>,
    replies: Vec<(usize, Range<usize>)>,
    reply_fields: Vec<i64>,
    /// Scratch for [`Adapter::record`]: the sorted kind ids and fields.
    output_kinds: Vec<usize>,
    output_fields: Vec<i64>,
}

impl QuicSul {
    /// Creates the SUL for the given implementation profile.
    pub fn new(profile: ImplementationProfile, seed: u64) -> Self {
        let identity = format!("quic:{profile:?}:seed={seed}");
        let deterministic = profile.reset_probability_after_close == 0.0
            || profile.reset_probability_after_close == 1.0;
        QuicSul {
            server: QuicServer::new(profile, seed),
            deterministic,
            adapter: Adapter {
                client: ReferenceQuicClient::new(seed ^ 0xADA9, 40_000),
                oracle: OracleTable::new(),
                stats: SulStats::default(),
                inputs: Memo::default(),
                kinds: Memo::default(),
                outputs: Memo::default(),
                silence: Symbol::new("{}"),
                wire_input: None,
                input_fields: Vec::new(),
                replies: Vec::new(),
                reply_fields: Vec::new(),
                output_kinds: Vec::new(),
                output_fields: Vec::new(),
            },
            identity,
        }
    }

    /// Enables the Issue-3 reference-implementation defect (the post-Retry
    /// Initial is sent from a fresh ephemeral port).
    pub fn with_buggy_retry_client(mut self) -> Self {
        self.adapter.client.rebind_on_retry = true;
        self
    }

    /// The Oracle Table accumulated so far.
    pub fn oracle_table(&self) -> &OracleTable {
        &self.adapter.oracle
    }

    /// The server (for white-box assertions in tests and experiments).
    pub fn server(&self) -> &QuicServer {
        &self.server
    }

    /// One step on the virtual clock: the abstract output plus the instant
    /// the server's response flight is ready (`now` when nothing was sent).
    /// Both [`Sul::step`] and [`TimedSul::step_at`] funnel through here, so
    /// the two paths answer identically by construction.  The request and
    /// the replies go from buffer to buffer without a copy.
    fn step_timed(&mut self, input: &Symbol, now: SimTime) -> (Symbol, SimTime) {
        let adapter = &mut self.adapter;
        adapter.stats.symbols_sent += 1;
        // Building a request never rebinds the client's port.
        let port = adapter.client.source_port();
        let Some(request) = adapter.concretize(input) else {
            return (adapter.record_silence(input), now);
        };
        let (flight, ready_at) = self.server.handle_datagram_at(request, port, now);
        for datagram in flight.iter() {
            adapter.absorb(datagram);
        }
        (adapter.record(input), ready_at)
    }
}

impl Adapter {
    /// Starts a step: builds the request for `input` from its memoised
    /// parsed form, keeps its fields and returns its datagram, or returns
    /// `None` when the symbol does not parse or names a frame the client
    /// cannot build.
    fn concretize(&mut self, input: &Symbol) -> Option<&[u8]> {
        self.input_fields.clear();
        self.replies.clear();
        self.reply_fields.clear();
        let parsed = self.inputs.get_or_insert_with(input, || {
            ReferenceQuicClient::parse_abstract(input.as_str()).ok()
        });
        let (packet_type, frames) = parsed.as_ref()?;
        self.client.concretize_parsed(*packet_type, frames).ok()?;
        numeric_fields_into(self.client.request_frames(), &mut self.input_fields);
        Some(self.client.request_datagram())
    }

    /// Absorbs one reply datagram into the step in progress.
    fn absorb(&mut self, datagram: &[u8]) {
        let (kinds, replies, fields) = (&mut self.kinds, &mut self.replies, &mut self.reply_fields);
        self.client.absorb(datagram, |packet| {
            let kind = kinds.slot(&packet_kind(packet), || packet.abstract_name());
            let start = fields.len();
            numeric_fields_into(&packet.frames, fields);
            replies.push((kind, start..fields.len()));
        });
    }

    /// Ends the step in progress: abstracts the absorbed replies into one
    /// output symbol, records the step in the Oracle Table and returns the
    /// output.  Replies are ordered by (name, fields), so the output symbol
    /// and the recorded fields stay aligned and deterministic; an empty
    /// flight — server silence or every datagram lost — abstracts to `{}`,
    /// the adapter's timeout symbol.
    fn record(&mut self, input: &Symbol) -> Symbol {
        let (kinds, fields) = (&self.kinds, &self.reply_fields);
        self.replies.sort_unstable_by(|(a, ra), (b, rb)| {
            (kinds[*a].as_str(), &fields[ra.clone()])
                .cmp(&(kinds[*b].as_str(), &fields[rb.clone()]))
        });
        self.output_kinds.clear();
        self.output_fields.clear();
        for (kind, range) in &self.replies {
            self.output_kinds.push(*kind);
            self.output_fields.extend_from_slice(&fields[range.clone()]);
        }
        let output = self.outputs.get_or_insert_with(&self.output_kinds[..], || {
            let names: Vec<&str> = self
                .output_kinds
                .iter()
                .map(|&k| kinds[k].as_str())
                .collect();
            Symbol::new(format!("{{{}}}", names.join(",")))
        });
        self.oracle
            .push_step(input, &self.input_fields, output, &self.output_fields);
        output.clone()
    }

    /// Records a step that sent nothing: an unknown symbol, answered `{}`.
    fn record_silence(&mut self, input: &Symbol) -> Symbol {
        self.oracle.push_step(input, &[], &self.silence, &[]);
        self.silence.clone()
    }
}

impl Sul for QuicSul {
    fn step(&mut self, input: &Symbol) -> Symbol {
        self.step_timed(input, SimTime::ZERO).0
    }

    fn reset(&mut self) {
        let adapter = &mut self.adapter;
        adapter.stats.resets += 1;
        adapter.wire_input = None;
        adapter.oracle.end_query();
        adapter.client.reset();
        self.server.reset();
    }

    fn stats(&self) -> SulStats {
        self.adapter.stats
    }

    fn cache_key(&self) -> Option<String> {
        // Probabilistic profiles violate the cache-key contract (identical
        // keys ⇒ identical answers): their answers depend on RNG state
        // advanced per reset, so they learn cold every time.
        self.deterministic.then(|| {
            format!(
                "{}:rebind_on_retry={}",
                self.identity, self.adapter.client.rebind_on_retry
            )
        })
    }
}

impl TimedSul for QuicSul {
    fn step_at(&mut self, input: &Symbol, now: SimTime) -> (Symbol, SimTime) {
        self.step_timed(input, now)
    }

    fn reset_at(&mut self, now: SimTime) -> SimTime {
        self.reset();
        now
    }
}

/// The networked steps.  Datagrams become [`Bytes`] only here, where they
/// leave for the simulated network: the request once, and each response
/// flight once, as one buffer its datagrams share.
impl WireSul for QuicSul {
    fn wire_request(&mut self, input: &Symbol) -> WireRequest {
        let adapter = &mut self.adapter;
        adapter.stats.symbols_sent += 1;
        match adapter.concretize(input) {
            None => WireRequest::Immediate(adapter.record_silence(input)),
            Some(request) => {
                let request = Bytes::copy_from_slice(request);
                adapter.wire_input = Some(input.clone());
                WireRequest::Datagram(request)
            }
        }
    }

    fn wire_source_port(&self, bound: u16) -> u16 {
        let client = &self.adapter.client;
        if client.rebound() {
            // The Issue-3 defect on the netsim wire: the post-Retry
            // Initial leaves from a fresh port, distinct per rebind and
            // kept below the ephemeral range so it can never collide with
            // another session's bound endpoint.
            1_024 + client.source_port() % 16_384
        } else {
            bound
        }
    }

    fn handle_wire(
        &mut self,
        datagram: &Bytes,
        source_port: u16,
        now: SimTime,
    ) -> (Vec<Bytes>, SimTime) {
        let (flight, ready_at) = self.server.handle_datagram_at(datagram, source_port, now);
        if flight.is_empty() {
            return (Vec::new(), ready_at);
        }
        let shared = Bytes::copy_from_slice(flight.as_bytes());
        let datagrams = flight.ranges().map(|range| shared.slice(range)).collect();
        (datagrams, ready_at)
    }

    fn absorb_wire(&mut self, datagram: &Bytes) {
        self.adapter.absorb(datagram);
    }

    fn finish_step(&mut self) -> Symbol {
        let input = self
            .adapter
            .wire_input
            .take()
            .expect("finish_step follows a wire_request that sent a datagram");
        self.adapter.record(&input)
    }
}

impl HasOracleTable for QuicSul {
    fn oracle_table(&self) -> &OracleTable {
        &self.adapter.oracle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prognosis_automata::word::InputWord;
    use prognosis_learner::oracle::MembershipOracle;

    #[test]
    fn cache_keys_distinguish_profiles_seeds_and_client_defects() {
        let a = QuicSul::new(ImplementationProfile::google(), 3);
        let same = QuicSul::new(ImplementationProfile::google(), 3);
        assert_eq!(a.cache_key(), same.cache_key());
        let other_seed = QuicSul::new(ImplementationProfile::google(), 4);
        assert_ne!(a.cache_key(), other_seed.cache_key());
        let other_profile = QuicSul::new(ImplementationProfile::quiche(), 3);
        assert_ne!(a.cache_key(), other_profile.cache_key());
        let buggy = QuicSul::new(ImplementationProfile::google(), 3).with_buggy_retry_client();
        assert_ne!(a.cache_key(), buggy.cache_key());
    }

    #[test]
    fn probabilistic_profiles_opt_out_of_the_persistent_cache() {
        // mvfst answers post-close packets with a stateless reset only
        // ≈82% of the time (Issue 2): its answers depend on RNG position,
        // so caching them across runs would poison warm starts.
        let mvfst = QuicSul::new(ImplementationProfile::mvfst(), 3);
        assert_eq!(mvfst.cache_key(), None);
        assert!(QuicSul::new(ImplementationProfile::google(), 3)
            .cache_key()
            .is_some());
    }

    #[test]
    fn alphabets_match_the_paper() {
        assert_eq!(quic_alphabet().len(), 7);
        assert_eq!(quic_data_alphabet().len(), 4);
        assert!(quic_alphabet().contains(&Symbol::new("SHORT(?,?)[ACK,HANDSHAKE_DONE]")));
    }

    #[test]
    fn google_handshake_through_the_adapter() {
        let mut sul = QuicSul::new(ImplementationProfile::google(), 1);
        sul.reset();
        let out1 = sul.step(&Symbol::new("INITIAL(?,?)[CRYPTO]"));
        assert!(out1.as_str().contains("INITIAL(?,?)[ACK,CRYPTO]"), "{out1}");
        assert!(out1.as_str().contains("SHORT(?,?)[STREAM]"), "{out1}");
        let out2 = sul.step(&Symbol::new("HANDSHAKE(?,?)[ACK,CRYPTO]"));
        assert!(out2.as_str().contains("HANDSHAKE_DONE"), "{out2}");
        let out3 = sul.step(&Symbol::new("SHORT(?,?)[ACK,STREAM]"));
        assert!(out3.as_str().contains("STREAM"), "{out3}");
    }

    #[test]
    fn packets_before_connection_establishment_yield_empty_outputs() {
        let mut sul = QuicSul::new(ImplementationProfile::quiche(), 1);
        sul.reset();
        for symbol in [
            "HANDSHAKE(?,?)[ACK,CRYPTO]",
            "SHORT(?,?)[ACK,STREAM]",
            "SHORT(?,?)[ACK,HANDSHAKE_DONE]",
        ] {
            assert_eq!(sul.step(&Symbol::new(symbol)).as_str(), "{}");
        }
    }

    #[test]
    fn queries_are_deterministic_across_resets() {
        let mut sul = QuicSul::new(ImplementationProfile::google(), 9);
        let word = InputWord::from_symbols([
            "INITIAL(?,?)[CRYPTO]",
            "HANDSHAKE(?,?)[ACK,CRYPTO]",
            "SHORT(?,?)[ACK,STREAM]",
            "SHORT(?,?)[ACK,MAX_DATA,MAX_STREAM_DATA]",
        ]);
        let mut oracle = crate::sul::SulMembershipOracle::new(&mut sul);
        let a = oracle.query(&word);
        let b = oracle.query(&word);
        assert_eq!(a, b);
    }

    #[test]
    fn oracle_table_captures_the_stream_data_blocked_field() {
        let mut sul = QuicSul::new(ImplementationProfile::google(), 1);
        sul.reset();
        sul.step(&Symbol::new("INITIAL(?,?)[CRYPTO]"));
        sul.step(&Symbol::new("HANDSHAKE(?,?)[ACK,CRYPTO]"));
        // Exhaust the 200-byte credit so the server reports itself blocked.
        for _ in 0..4 {
            sul.step(&Symbol::new("SHORT(?,?)[ACK,STREAM]"));
        }
        sul.reset();
        let table = sul.oracle_table();
        assert_eq!(table.len(), 1);
        let entry = table.entries().next().unwrap();
        let blocked_step = entry
            .abstract_trace
            .output
            .iter()
            .position(|o| o.as_str().contains("STREAM_DATA_BLOCKED"))
            .expect("the google profile must block within four requests");
        // The Issue-4 constant 0 is visible in the recorded concrete fields.
        assert!(entry.steps[blocked_step].output_fields.contains(&0));
    }

    #[test]
    fn violation_closes_and_stays_closed() {
        let mut sul = QuicSul::new(ImplementationProfile::quiche(), 1);
        sul.reset();
        sul.step(&Symbol::new("INITIAL(?,?)[CRYPTO]"));
        let close = sul.step(&Symbol::new("HANDSHAKE(?,?)[ACK,HANDSHAKE_DONE]"));
        assert!(close.as_str().contains("CONNECTION_CLOSE"), "{close}");
        let after = sul.step(&Symbol::new("SHORT(?,?)[ACK,STREAM]"));
        assert!(
            after.as_str().contains("CONNECTION_CLOSE") || after.as_str() == "{}",
            "{after}"
        );
    }
}

//! The impaired-network session transport: concrete packets of multiplexed
//! query sessions routed through a shared `netsim` [`Network`] per worker.
//!
//! The PR-3 session engine multiplexes in-flight queries on bare deadline
//! state machines, so link impairments — loss, jitter, reordering,
//! duplication ([`LinkConfig`]) — never touched an in-flight learning
//! query.  This module closes that gap: a [`NetworkedSession`] puts every
//! concrete TCP segment / QUIC datagram of its query on a real simulated
//! wire.  All sessions of one scheduler worker share **one** [`Network`]
//! (driven to the worker scheduler's `now` through
//! [`Network::advance_to`] before every send and every pump), each
//! session owning a pair of ephemeral ports: requests leave the client
//! endpoint, the implementation under learning answers from the server
//! endpoint, and both directions cross the impaired link.  A step whose packet is lost resolves to the
//! adapter's timeout symbol at the step deadline instead of hanging.
//!
//! Determinism is engineered, not accidental: every endpoint draws its
//! packet fates from a private noise stream ([`Network::set_noise_seed`])
//! that is **rewound at query boundaries**, and [`LinkConfig::fate`] makes
//! each impairment a pure function of `(stream seed, packet index)`.  With
//! every session of a learning run sharing one stream seed, a membership
//! query's answer is a pure function of the query itself — the same
//! weather hits packet *k* of a query no matter which session, worker or
//! virtual instant executes it — so the learned model and all query-cost
//! statistics are bit-identical across `(workers, max_inflight)` grids
//! even on a lossy, jittery link.  The nondeterminism checker's
//! multiplexed path instead gives each repetition its own stream
//! ([`NetworkedSessionFactory::repetition_sessions`]), which is what makes
//! answer *frequencies* under noise observable (§5, the mvfst 82% finding).

use crate::session::{SessionPoll, SessionSul, SessionSulFactory, SimDuration, SimTime};
use crate::sul::{Sul, SulFactory, SulStats};
use bytes::Bytes;
use prognosis_automata::alphabet::Symbol;
use std::sync::{Arc, Mutex};

pub use prognosis_netsim::{LinkConfig, Network};

/// Decorrelates a session's server-direction noise stream from its
/// client-direction one.
const SERVER_NOISE_SALT: u64 = 0x5EED_0000_A110_CA7E;

/// What one abstract input symbol turns into at the wire boundary.
pub enum WireRequest {
    /// A concrete request datagram to put on the wire.
    Datagram(Bytes),
    /// The symbol produced no packet (e.g. it could not be concretized);
    /// the step completes immediately with this output.
    Immediate(Symbol),
}

/// A SUL whose query exchange decomposes into concrete datagrams a network
/// can carry: the client side concretizes abstract symbols into wire bytes
/// and abstracts responses back, the server side is driven one datagram at
/// a time.  [`crate::TcpSul`] and [`crate::QuicSul`] implement it; the
/// in-process [`Sul::step`] path and this wire path answer identically on
/// an ideal link by construction (same client, same server, same records).
pub trait WireSul: Sul {
    /// Begins one abstract step: concretize `input` into the request
    /// datagram (recording the concrete input fields for the Oracle
    /// Table), or complete immediately when no packet is exchanged.
    fn wire_request(&mut self, input: &Symbol) -> WireRequest;

    /// The source port the request should claim on the wire, given the
    /// session's bound client port.  The default is the bound port; the
    /// QUIC adapter maps the Issue-3 defect (post-Retry rebinding) to a
    /// fresh spoofed port here.
    fn wire_source_port(&self, bound: u16) -> u16 {
        bound
    }

    /// Server side: handles one request datagram arriving from
    /// `source_port` as of virtual time `now`, returning the response
    /// datagrams plus the instant they are ready to leave the server.
    fn handle_wire(
        &mut self,
        datagram: &Bytes,
        source_port: u16,
        now: SimTime,
    ) -> (Vec<Bytes>, SimTime);

    /// Client side: absorbs one response datagram delivered by the
    /// network (connection bookkeeping plus Oracle-Table material).
    fn absorb_wire(&mut self, datagram: &Bytes);

    /// Completes the step: abstracts everything absorbed since
    /// [`WireSul::wire_request`] into the output symbol (the adapter's
    /// timeout/silence symbol when nothing arrived) and records it.
    fn finish_step(&mut self) -> Symbol;
}

enum StepState {
    Idle,
    /// No packet was exchanged; the output is available immediately.
    Immediate(Symbol),
    /// The request is on the wire (or being serviced).
    Awaiting {
        /// The step's hard deadline: with nothing received by then, the
        /// step resolves to the adapter's timeout symbol.
        deadline: SimTime,
    },
}

/// One query session whose concrete packets cross a shared simulated
/// network.  Implements [`SessionSul`], so a
/// [`crate::session::SessionScheduler`] can multiplex many of these per
/// worker: the scheduler wakes on the earliest of session deadlines and
/// network delivery times, and deliveries are drained between polls.
///
/// The session keeps the [`SessionPoll::Pending`] contract although its
/// network is shared: the `wake_at` it reports is the earliest of its step
/// deadline, its server's outbox and the next delivery to either of its
/// own two ports (`start_step` names the first: the instant its request
/// lands, or its deadline if that comes first), and only this session
/// ever puts packets on the wire addressed to those ports.  Another
/// session's polls may advance the network and move this session's
/// datagrams into its endpoints' inboxes, but none arrives before
/// `wake_at`, so nothing this session would see changes until then.  A
/// spoofed source port (the Issue-3 defect) lies below
/// [`prognosis_netsim::network::EPHEMERAL_PORT_MIN`], so a reply to it can
/// never reach another session's ephemeral ports.
pub struct NetworkedSession<S: WireSul> {
    sul: S,
    net: Arc<Mutex<Network>>,
    client: prognosis_netsim::EndpointId,
    client_port: u16,
    server: prognosis_netsim::EndpointId,
    server_port: u16,
    timeout: SimDuration,
    impaired: bool,
    state: StepState,
    /// Response flights the server handled in the current step but that
    /// are not yet ready to leave it: `(ready_at, reply-to port, wire
    /// bytes)`.  Empty between steps; kept on the session so every step
    /// reuses one buffer.
    outbox: Vec<(SimTime, u16, Bytes)>,
    /// Whether the next query records its wire events (see
    /// [`SessionSul::begin_event_scope`]); consumed by `start_reset`,
    /// which opens a wire scope on this session's endpoint pair.
    pending_scope: bool,
}

impl<S: WireSul> NetworkedSession<S> {
    /// The session's client-side ephemeral port on the shared network.
    pub fn client_port(&self) -> u16 {
        self.client_port
    }

    /// The session's server-side ephemeral port on the shared network.
    pub fn server_port(&self) -> u16 {
        self.server_port
    }

    /// The shared network this session's packets cross.
    pub fn network(&self) -> &Arc<Mutex<Network>> {
        &self.net
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Network> {
        self.net.lock().expect("session network poisoned")
    }
}

impl<S: WireSul> SessionSul for NetworkedSession<S> {
    type Sul = S;

    fn start_reset(&mut self, now: SimTime) -> SimTime {
        self.sul.reset();
        self.state = StepState::Idle;
        self.outbox.clear();
        let pending_scope = std::mem::take(&mut self.pending_scope);
        let mut net = self.lock();
        net.advance_to(now);
        // One query's stragglers — late jittered deliveries, duplicates in
        // flight — must never leak into the next query, and the next query
        // must meet the same network weather as every run of it.
        net.drop_in_flight_to(&[self.client_port, self.server_port]);
        net.endpoint_mut(self.client)
            .expect("client endpoint bound")
            .clear();
        net.endpoint_mut(self.server)
            .expect("server endpoint bound")
            .clear();
        net.rewind_noise(self.client)
            .expect("client endpoint bound");
        net.rewind_noise(self.server)
            .expect("server endpoint bound");
        if pending_scope {
            // The network just advanced to `now`, so wire events of
            // this query get timestamps relative to its reset instant.
            net.begin_wire_scope(self.client, self.server);
        }
        now
    }

    fn start_step(&mut self, input: &Symbol, now: SimTime) -> SimTime {
        debug_assert!(matches!(self.state, StepState::Idle), "step started twice");
        match self.sul.wire_request(input) {
            WireRequest::Immediate(symbol) => {
                self.state = StepState::Immediate(symbol);
                now
            }
            WireRequest::Datagram(wire) => {
                let source = self.sul.wire_source_port(self.client_port);
                let mut net = self.lock();
                net.advance_to(now);
                // Nothing addressed to this session is on the wire between
                // steps, so until the request lands (at once when it is
                // lost) a poll would only report that instant.
                let lands_at = net
                    .send_from_port(self.client, source, self.server_port, wire)
                    .expect("session server port is bound");
                drop(net);
                let deadline = now + self.timeout;
                self.state = StepState::Awaiting { deadline };
                lands_at.min(deadline)
            }
        }
    }

    fn poll_step(&mut self, now: SimTime) -> SessionPoll {
        let deadline = match std::mem::replace(&mut self.state, StepState::Idle) {
            StepState::Idle => panic!("poll_step without start_step"),
            StepState::Immediate(symbol) => return SessionPoll::Ready(symbol),
            StepState::Awaiting { deadline } => deadline,
        };
        let mut net = self.net.lock().expect("session network poisoned");
        // Pump the wire until this instant is quiescent: release response
        // flights whose service deadline has passed, feed delivered
        // requests to the server, absorb delivered responses at the
        // client.  Every send can enable another delivery at the same
        // instant (zero-latency links), hence the loop; only a send, or a
        // flight ready by now, can.  Nothing here allocates: due flights
        // leave the outbox in order, and inbox datagrams are popped one at
        // a time (`handle_wire` and `absorb_wire` never touch the network,
        // so popping as we go sees exactly the datagrams a drain would
        // have).
        loop {
            // The scheduler owns virtual time; the network follows the
            // instant it hands the session.
            net.advance_to(now);
            let mut sent = false;
            for (_, reply_port, wire) in self
                .outbox
                .extract_if(.., |(ready_at, _, _)| *ready_at <= now)
            {
                // Replying to a spoofed source port (the Issue-3 defect)
                // has no route, so the reply is discarded.
                let _ = net.send_from_port(self.server, self.server_port, reply_port, wire);
                sent = true;
            }
            while let Some(datagram) = net
                .endpoint_mut(self.server)
                .expect("server endpoint bound")
                .receive()
            {
                let (responses, ready_at) =
                    self.sul
                        .handle_wire(&datagram.payload, datagram.source_port, now);
                self.outbox.extend(
                    responses
                        .into_iter()
                        .map(|response| (ready_at, datagram.source_port, response)),
                );
            }
            while let Some(datagram) = net
                .endpoint_mut(self.client)
                .expect("client endpoint bound")
                .receive()
            {
                self.sul.absorb_wire(&datagram.payload);
            }
            if !sent && self.outbox.iter().all(|(ready_at, _, _)| *ready_at > now) {
                break;
            }
        }
        // The step is over at its deadline, or as soon as nothing
        // addressed to this session is on the wire any more (a lost
        // request quiesces immediately — the timeout symbol needs no
        // virtual waiting, its fate is already decided).  One pass over
        // the wire answers both that and the wake-up.
        let ports = [self.client_port, self.server_port];
        let next_delivery = net.next_delivery_to(&ports);
        let quiescent = self.outbox.is_empty() && next_delivery.is_none();
        if now >= deadline || quiescent {
            if !quiescent {
                // The step gave up with packets still on the wire (timeout
                // below the worst-case round trip): discard everything
                // addressed to this session so a late response can never
                // be attributed to a later step.
                net.drop_in_flight_to(&ports);
                self.outbox.clear();
            }
            drop(net);
            return SessionPoll::Ready(self.sul.finish_step());
        }
        drop(net);
        let wake_at = self
            .outbox
            .iter()
            .map(|(ready_at, _, _)| *ready_at)
            .chain(next_delivery)
            .fold(deadline, SimTime::min);
        self.state = StepState::Awaiting { deadline };
        SessionPoll::Pending { wake_at }
    }

    fn stats(&self) -> SulStats {
        self.sul.stats()
    }

    fn cache_key(&self) -> Option<String> {
        // On an impaired link answers depend on the noise stream, not only
        // on the SUL configuration — such sessions must never share a
        // persistent cache with clean runs.  An unimpaired wire (latency
        // included) answers exactly as the in-process SUL does.
        if self.impaired {
            None
        } else {
            self.sul.cache_key()
        }
    }

    fn begin_event_scope(&mut self) {
        self.pending_scope = true;
    }

    fn end_event_scope(&mut self, events: &mut Vec<prognosis_events::Event>) {
        self.lock().end_wire_scope(self.client, events);
    }

    fn into_sul(self) -> S {
        self.sul
    }
}

/// Mints [`NetworkedSession`]s.  One scheduler worker's whole session group
/// shares a single [`Network`]
/// ([`SessionSulFactory::create_worker_sessions`]), which its sessions
/// drive to the worker scheduler's instant; every
/// session gets its own pair of ephemeral ports and its own rewindable
/// noise streams.
#[derive(Clone, Debug)]
pub struct NetworkedSessionFactory<F> {
    inner: F,
    link: LinkConfig,
    /// Direction-specific server→client link; `None` means symmetric
    /// (the forward config applies both ways).
    reverse: Option<LinkConfig>,
    timeout: SimDuration,
    /// Whether `timeout` was set explicitly via
    /// [`NetworkedSessionFactory::with_timeout`] (an explicit override is
    /// never replaced by the derived default, in any builder order).
    timeout_overridden: bool,
    noise_seed: u64,
}

fn worst_one_way(link: &LinkConfig) -> SimDuration {
    link.latency + link.jitter + link.reorder_delay
}

impl<F> NetworkedSessionFactory<F>
where
    F: SulFactory,
    F::Sul: WireSul,
{
    /// A factory routing `inner`'s sessions over `link` in both directions,
    /// with a step timeout generous enough for one maximally-delayed round
    /// trip.
    pub fn new(inner: F, link: LinkConfig) -> Self {
        let one_way = worst_one_way(&link);
        NetworkedSessionFactory {
            inner,
            link,
            reverse: None,
            timeout: one_way + one_way + SimDuration::from_millis(1),
            timeout_overridden: false,
            noise_seed: 0,
        }
    }

    /// Makes the link asymmetric: requests (client→server) keep crossing
    /// the forward config, responses (server→client) cross `reverse` —
    /// via per-direction `Network::set_link` entries on each session's
    /// endpoint pair.  Real access networks are asymmetric (uplink loss ≠
    /// downlink loss); this is what lets E18 sweep the two directions
    /// independently.  The derived step timeout is re-computed to cover
    /// one maximally-delayed round trip across both directions; a timeout
    /// set explicitly via [`NetworkedSessionFactory::with_timeout`] is
    /// kept, whatever the builder-call order.
    pub fn with_reverse_link(mut self, reverse: LinkConfig) -> Self {
        if !self.timeout_overridden {
            self.timeout =
                worst_one_way(&self.link) + worst_one_way(&reverse) + SimDuration::from_millis(1);
        }
        self.reverse = Some(reverse);
        self
    }

    /// Overrides the per-step timeout (the instant at which a step whose
    /// packets were lost resolves to the adapter's timeout symbol).
    ///
    /// # Panics
    /// Panics when the timeout is zero.
    pub fn with_timeout(mut self, timeout: SimDuration) -> Self {
        assert!(
            !timeout.is_zero(),
            "a zero step timeout cannot make progress"
        );
        self.timeout = timeout;
        self.timeout_overridden = true;
        self
    }

    /// Sets the base noise seed: learning sessions all share this stream
    /// (answers stay a pure function of the query), repetition sessions
    /// derive per-repetition streams from it.
    pub fn with_noise_seed(mut self, seed: u64) -> Self {
        self.noise_seed = seed;
        self
    }

    /// The forward (client→server) link configuration.
    pub fn link(&self) -> LinkConfig {
        self.link
    }

    /// The reverse (server→client) link configuration.
    pub fn reverse_link(&self) -> LinkConfig {
        self.reverse.unwrap_or(self.link)
    }

    /// The per-step timeout.
    pub fn timeout(&self) -> SimDuration {
        self.timeout
    }

    fn spawn_group(&self, seeds: &[u64]) -> Vec<NetworkedSession<F::Sul>> {
        let net = Arc::new(Mutex::new(Network::with_default_link(
            self.noise_seed,
            self.link,
        )));
        seeds
            .iter()
            .map(|&seed| {
                let mut guard = net.lock().expect("session network poisoned");
                let (client, client_port) = guard
                    .bind_ephemeral()
                    .expect("ephemeral ports available for the session group");
                let (server, server_port) = guard
                    .bind_ephemeral()
                    .expect("ephemeral ports available for the session group");
                guard.set_noise_seed(client, seed).expect("just bound");
                guard
                    .set_noise_seed(server, seed ^ SERVER_NOISE_SALT)
                    .expect("just bound");
                if let Some(reverse) = self.reverse {
                    // Direction-specific links on this session's endpoint
                    // pair; the network default (the forward config) keeps
                    // covering spoofed-source sends.
                    guard
                        .set_link(client, server, self.link)
                        .expect("just bound");
                    guard.set_link(server, client, reverse).expect("just bound");
                }
                drop(guard);
                NetworkedSession {
                    sul: self.inner.create(),
                    net: Arc::clone(&net),
                    client,
                    client_port,
                    server,
                    server_port,
                    timeout: self.timeout,
                    impaired: self.link.is_impaired() || self.reverse_link().is_impaired(),
                    state: StepState::Idle,
                    outbox: Vec::new(),
                    pending_scope: false,
                }
            })
            .collect()
    }

    /// The noise-stream seed of repetition `rep`: a splitmix64-finalized
    /// mix, so repetition seeds carry no linear structure a downstream
    /// `LinkConfig::fate` sub-stream (which XORs in `index × constant`)
    /// could cancel against — repetition *r*'s packet *p* and repetition
    /// *r'*'s packet *p'* draw genuinely unrelated fates.
    fn repetition_seed(&self, rep: u64) -> u64 {
        let mut z = self
            .noise_seed
            .wrapping_add((rep + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Sessions for repetitions `start .. start + count` of one query on a
    /// fresh shared network: repetition *r* draws its packet fates from its
    /// own noise stream, so concurrent repetitions of the same query see
    /// independent network weather — the sampling substrate of
    /// [`crate::nondeterminism::check_multiplexed`].
    pub fn repetition_sessions(&self, start: u64, count: usize) -> Vec<NetworkedSession<F::Sul>> {
        let seeds: Vec<u64> = (0..count as u64)
            .map(|i| self.repetition_seed(start + i))
            .collect();
        self.spawn_group(&seeds)
    }
}

impl<F> SessionSulFactory for NetworkedSessionFactory<F>
where
    F: SulFactory,
    F::Sul: WireSul,
{
    type Session = NetworkedSession<F::Sul>;

    fn create_session(&self) -> Self::Session {
        self.spawn_group(&[self.noise_seed])
            .pop()
            .expect("one session spawned")
    }

    fn create_worker_sessions(&self, count: usize) -> Vec<Self::Session> {
        self.spawn_group(&vec![self.noise_seed; count])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quic_adapter::{QuicSul, QuicSulFactory};
    use crate::session::{QueryPhase, SessionScheduler};
    use crate::sul::replay_query;
    use crate::tcp_adapter::{TcpSul, TcpSulFactory};
    use prognosis_automata::word::{InputWord, OutputWord};
    use prognosis_quic_sim::profile::ImplementationProfile;

    fn words() -> Vec<InputWord> {
        vec![
            InputWord::from_symbols(["SYN(?,?,0)", "ACK(?,?,0)", "ACK+PSH(?,?,1)"]),
            InputWord::from_symbols(["ACK(?,?,0)"]),
            InputWord::from_symbols(["SYN(?,?,0)", "FIN+ACK(?,?,0)"]),
            InputWord::from_symbols(["RST(?,?,0)", "SYN(?,?,0)", "NOT_A_SYMBOL"]),
            InputWord::from_symbols(["SYN(?,?,0)", "ACK(?,?,0)", "FIN+ACK(?,?,0)", "ACK(?,?,0)"]),
        ]
    }

    fn run_multiplexed(
        factory: &NetworkedSessionFactory<TcpSulFactory>,
        batch: &[InputWord],
    ) -> Vec<OutputWord> {
        let sessions = factory.create_worker_sessions(batch.len());
        let mut scheduler = SessionScheduler::new(sessions);
        for (i, word) in batch.iter().enumerate() {
            scheduler.submit(i, word.clone(), QueryPhase::Construction);
        }
        let mut done = scheduler.run_to_idle();
        done.sort_by_key(|(i, _)| *i);
        done.into_iter().map(|(_, out)| out).collect()
    }

    #[test]
    fn ideal_wire_answers_exactly_as_the_in_process_path() {
        let factory = NetworkedSessionFactory::new(TcpSulFactory::default(), LinkConfig::ideal());
        let batch = words();
        let got = run_multiplexed(&factory, &batch);
        for (word, out) in batch.iter().zip(&got) {
            assert_eq!(
                out,
                &replay_query(&mut TcpSul::with_defaults(), word),
                "wire transport diverged on {word:?}"
            );
        }
    }

    #[test]
    fn latency_and_jitter_cost_virtual_time_but_never_change_answers() {
        let link = LinkConfig::with_latency(SimDuration::from_micros(300))
            .jitter(SimDuration::from_micros(150));
        let factory =
            NetworkedSessionFactory::new(TcpSulFactory::default(), link).with_noise_seed(5);
        let batch = words();
        let sessions = factory.create_worker_sessions(batch.len());
        let mut scheduler = SessionScheduler::new(sessions);
        for (i, word) in batch.iter().enumerate() {
            scheduler.submit(i, word.clone(), QueryPhase::Construction);
        }
        let mut done = scheduler.run_to_idle();
        done.sort_by_key(|(i, _)| *i);
        for (word, (_, out)) in batch.iter().zip(&done) {
            assert_eq!(out, &replay_query(&mut TcpSul::with_defaults(), word));
        }
        assert!(
            scheduler.stats().virtual_elapsed_micros >= 600,
            "at least one full round trip of virtual time"
        );
        assert!(scheduler.stats().clock_advances > 0);
    }

    #[test]
    fn lost_packets_resolve_to_the_timeout_symbol_at_the_deadline() {
        // Loss 1.0: every request is dropped on the wire, so every step of
        // every query must resolve to NIL instead of hanging the scheduler.
        let factory = NetworkedSessionFactory::new(
            TcpSulFactory::default(),
            LinkConfig::with_latency(SimDuration::from_micros(100)).loss(1.0),
        );
        let batch = words();
        let got = run_multiplexed(&factory, &batch);
        for (word, out) in batch.iter().zip(&got) {
            let expected: OutputWord = word.iter().map(|_| Symbol::new("NIL")).collect();
            assert_eq!(out, &expected, "lossy wire must time out, not hang");
        }
    }

    #[test]
    fn impaired_answers_are_a_pure_function_of_the_query() {
        // The determinism keystone: on a heavily impaired link, re-running
        // the same batch — in a different session order, on a different
        // group size — yields identical answers, because fates depend only
        // on (noise seed, per-query packet index).
        let link = LinkConfig::with_latency(SimDuration::from_micros(200))
            .jitter(SimDuration::from_micros(300))
            .loss(0.3)
            .reorder(0.3)
            .duplicate(0.2);
        let factory =
            NetworkedSessionFactory::new(TcpSulFactory::default(), link).with_noise_seed(11);
        let batch = words();
        let first = run_multiplexed(&factory, &batch);
        let second = run_multiplexed(&factory, &batch);
        assert_eq!(first, second, "same group size must reproduce");
        // One session executing the batch serially sees the same answers.
        let sessions = factory.create_worker_sessions(1);
        let mut serial = SessionScheduler::new(sessions);
        let mut serial_out = Vec::new();
        for (i, word) in batch.iter().enumerate() {
            serial.submit(i, word.clone(), QueryPhase::Construction);
            serial_out.extend(serial.run_to_idle().into_iter().map(|(_, o)| o));
        }
        assert_eq!(first, serial_out, "group size must not change answers");
        // And the noise seed genuinely matters (the link is really lossy).
        let reseeded =
            NetworkedSessionFactory::new(TcpSulFactory::default(), link).with_noise_seed(12);
        let third = run_multiplexed(&reseeded, &batch);
        assert_ne!(first, third, "a different seed meets different weather");
    }

    #[test]
    fn networked_quic_handshake_completes_on_an_ideal_wire() {
        let factory = NetworkedSessionFactory::new(
            QuicSulFactory::new(ImplementationProfile::google(), 1),
            LinkConfig::ideal(),
        );
        let word = InputWord::from_symbols([
            "INITIAL(?,?)[CRYPTO]",
            "HANDSHAKE(?,?)[ACK,CRYPTO]",
            "SHORT(?,?)[ACK,STREAM]",
        ]);
        let sessions = factory.create_worker_sessions(1);
        let mut scheduler = SessionScheduler::new(sessions);
        scheduler.submit(0, word.clone(), QueryPhase::Construction);
        let done = scheduler.run_to_idle();
        let expected = replay_query(&mut QuicSul::new(ImplementationProfile::google(), 1), &word);
        assert_eq!(done[0].1, expected);
        // The Oracle Table flows back out through the session teardown.
        let mut sessions = scheduler.into_sessions();
        let mut session = sessions.pop().unwrap();
        session.start_reset(SimTime::ZERO);
        let sul = session.into_sul();
        assert!(!sul.oracle_table().is_empty());
    }

    #[test]
    fn buggy_retry_client_still_cannot_complete_the_handshake_over_the_wire() {
        // Issue 3 over netsim: the post-Retry Initial leaves from a spoofed
        // source port, so server-side address validation fails and the
        // handshake stays stuck — same observable as the in-process path.
        let word = InputWord::from_symbols(["INITIAL(?,?)[CRYPTO]", "INITIAL(?,?)[CRYPTO]"]);
        let profile = ImplementationProfile::quiche().with_retry();
        for buggy in [false, true] {
            let mut inner = QuicSulFactory::new(profile.clone(), 1);
            if buggy {
                inner = inner.with_buggy_retry_client();
            }
            let factory = NetworkedSessionFactory::new(inner, LinkConfig::ideal());
            let sessions = factory.create_worker_sessions(1);
            let mut scheduler = SessionScheduler::new(sessions);
            scheduler.submit(0, word.clone(), QueryPhase::Construction);
            let done = scheduler.run_to_idle();
            let second_step = done[0].1.as_slice()[1].to_string();
            if buggy {
                assert_eq!(second_step, "{}", "validation must fail: {second_step}");
            } else {
                assert_ne!(second_step, "{}", "validated handshake proceeds");
            }
        }
    }

    #[test]
    fn repetition_streams_share_no_diagonal_fates() {
        // Regression: repetition seeds used the same multiplier as
        // LinkConfig's per-knob sub-streams, so repetition r's packet
        // r + 1 collapsed to one shared fate across every repetition.
        // With finalized seeds, the diagonal fates must genuinely vary.
        let link = LinkConfig::ideal().loss(0.5);
        let factory = NetworkedSessionFactory::new(TcpSulFactory::default(), link);
        let diagonal: Vec<bool> = (0..32u64)
            .map(|rep| link.fate(factory.repetition_seed(rep), rep + 1).is_none())
            .collect();
        assert!(
            diagonal.iter().any(|&lost| lost) && diagonal.iter().any(|&lost| !lost),
            "diagonal packet fates must not collapse to one value: {diagonal:?}"
        );
        let mut seeds: Vec<u64> = (0..1_000).map(|rep| factory.repetition_seed(rep)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 1_000, "repetition seeds are pairwise distinct");
    }

    #[test]
    fn create_session_works_under_a_foreign_scheduler_clock() {
        // A single session from `create_session` must behave on a plain
        // scheduler — the session drives its network from the
        // scheduler-provided instant.
        let factory = NetworkedSessionFactory::new(
            TcpSulFactory::default(),
            LinkConfig::with_latency(SimDuration::from_micros(200)),
        );
        let mut scheduler = SessionScheduler::new(vec![factory.create_session()]);
        let word = InputWord::from_symbols(["SYN(?,?,0)", "ACK(?,?,0)"]);
        scheduler.submit(0, word.clone(), QueryPhase::Construction);
        let done = scheduler.run_to_idle();
        assert_eq!(done[0].1, replay_query(&mut TcpSul::with_defaults(), &word));
        assert!(scheduler.stats().virtual_elapsed_micros >= 400);
    }

    #[test]
    fn sub_rtt_timeouts_never_shift_answers_across_steps() {
        // Regression: a step resolving at its deadline used to leave its
        // response in flight, and the next step absorbed it as its own
        // answer.  With a timeout far below the link latency, every step
        // must individually time out to NIL — no off-by-one outputs.
        let factory = NetworkedSessionFactory::new(
            TcpSulFactory::default(),
            LinkConfig::with_latency(SimDuration::from_micros(500)),
        )
        .with_timeout(SimDuration::from_micros(10));
        let word = InputWord::from_symbols(["SYN(?,?,0)", "ACK(?,?,0)", "SYN(?,?,0)"]);
        let sessions = factory.create_worker_sessions(1);
        let mut scheduler = SessionScheduler::new(sessions);
        scheduler.submit(0, word.clone(), QueryPhase::Construction);
        let done = scheduler.run_to_idle();
        let expected: OutputWord = word.iter().map(|_| Symbol::new("NIL")).collect();
        assert_eq!(done[0].1, expected);
    }

    #[test]
    fn asymmetric_links_apply_per_direction() {
        // Requests cross an ideal uplink; responses pay 400µs downlink
        // latency.  Answers match the in-process path and the virtual time
        // is downlink-only.
        let factory = NetworkedSessionFactory::new(TcpSulFactory::default(), LinkConfig::ideal())
            .with_reverse_link(LinkConfig::with_latency(SimDuration::from_micros(400)));
        assert_eq!(factory.link().latency, SimDuration::ZERO);
        assert_eq!(
            factory.reverse_link().latency,
            SimDuration::from_micros(400)
        );
        let word = InputWord::from_symbols(["SYN(?,?,0)", "ACK(?,?,0)"]);
        let sessions = factory.create_worker_sessions(1);
        let mut scheduler = SessionScheduler::new(sessions);
        scheduler.submit(0, word.clone(), QueryPhase::Construction);
        let done = scheduler.run_to_idle();
        assert_eq!(done[0].1, replay_query(&mut TcpSul::with_defaults(), &word));
        // The SYN's response pays the 400µs downlink leg; the ACK step
        // elicits no response packet, so it costs (almost) nothing — the
        // elapsed time is the downlink latency, not a full symmetric RTT.
        let elapsed = scheduler.stats().virtual_elapsed_micros;
        assert!(
            (400..800).contains(&elapsed),
            "only responses pay the downlink leg (elapsed {elapsed}µs)"
        );
    }

    #[test]
    fn reverse_only_loss_times_out_after_the_server_was_reached() {
        use prognosis_events::{Event, MemorySink, ScopedSink};
        // Uplink ideal, downlink drops everything: every step resolves to
        // the timeout symbol, yet the wire events show the requests were
        // *delivered* — the loss is genuinely direction-specific.
        let factory = NetworkedSessionFactory::new(TcpSulFactory::default(), LinkConfig::ideal())
            .with_reverse_link(LinkConfig::ideal().loss(1.0));
        let word = InputWord::from_symbols(["SYN(?,?,0)", "ACK(?,?,0)"]);
        let sessions = factory.create_worker_sessions(1);
        let sink = ScopedSink::new(Arc::new(MemorySink::new()), false);
        let mut scheduler = SessionScheduler::new(sessions).with_event_sink(sink);
        scheduler.submit(0, word.clone(), QueryPhase::Construction);
        let done = scheduler.run_to_idle();
        let expected: OutputWord = word.iter().map(|_| Symbol::new("NIL")).collect();
        assert_eq!(done[0].1, expected, "lost responses must time out");
        let events = scheduler.take_events();
        let fate = |dir: &str, packet: u64| {
            events.iter().find_map(|e| match e {
                Event::WireDeliver {
                    dir: d, packet: p, ..
                }
                | Event::WireDrop {
                    dir: d, packet: p, ..
                } if (*d, *p) == (dir, packet) => Some(e.name()),
                _ => None,
            })
        };
        let sent: Vec<(&str, u64)> = events
            .iter()
            .filter_map(|e| match e {
                Event::WireSend { dir, packet, .. } => Some((*dir, *packet)),
                _ => None,
            })
            .collect();
        let up: Vec<_> = sent.iter().filter(|(dir, _)| *dir == "up").collect();
        let down: Vec<_> = sent.iter().filter(|(dir, _)| *dir == "down").collect();
        assert!(
            !up.is_empty() && up.iter().all(|(d, p)| fate(d, *p) == Some("wire:deliver")),
            "uplink must deliver every request: {events:?}"
        );
        assert!(
            !down.is_empty() && down.iter().all(|(d, p)| fate(d, *p) == Some("wire:drop")),
            "downlink must lose every response: {events:?}"
        );
    }

    #[test]
    fn asymmetric_impairment_is_deterministic_across_engine_shapes() {
        let factory = NetworkedSessionFactory::new(
            TcpSulFactory::default(),
            LinkConfig::with_latency(SimDuration::from_micros(100)),
        )
        .with_reverse_link(
            LinkConfig::with_latency(SimDuration::from_micros(300))
                .loss(0.3)
                .jitter(SimDuration::from_micros(200)),
        )
        .with_noise_seed(17);
        let batch = words();
        let grouped = run_multiplexed(&factory, &batch);
        // One session at a time must see the exact same answers.
        let sessions = factory.create_worker_sessions(1);
        let mut serial = SessionScheduler::new(sessions);
        let mut serial_out = Vec::new();
        for (i, word) in batch.iter().enumerate() {
            serial.submit(i, word.clone(), QueryPhase::Construction);
            serial_out.extend(serial.run_to_idle().into_iter().map(|(_, o)| o));
        }
        assert_eq!(grouped, serial_out, "group size must not change answers");
        // An impaired reverse direction alone must disable caching.
        let session = factory.create_session();
        assert_eq!(session.cache_key(), None);
    }

    #[test]
    fn explicit_timeouts_survive_with_reverse_link_in_any_order() {
        let reverse = LinkConfig::with_latency(SimDuration::from_millis(3));
        // Explicit timeout, then asymmetric link: the override must stick.
        let factory = NetworkedSessionFactory::new(TcpSulFactory::default(), LinkConfig::ideal())
            .with_timeout(SimDuration::from_micros(10))
            .with_reverse_link(reverse);
        assert_eq!(factory.timeout(), SimDuration::from_micros(10));
        // Asymmetric link, then explicit timeout: same outcome.
        let factory = NetworkedSessionFactory::new(TcpSulFactory::default(), LinkConfig::ideal())
            .with_reverse_link(reverse)
            .with_timeout(SimDuration::from_micros(10));
        assert_eq!(factory.timeout(), SimDuration::from_micros(10));
        // Without an override, the derived timeout covers both directions.
        let factory = NetworkedSessionFactory::new(TcpSulFactory::default(), LinkConfig::ideal())
            .with_reverse_link(reverse);
        assert!(factory.timeout() >= SimDuration::from_millis(4));
    }

    #[test]
    fn sessions_get_distinct_port_pairs_and_factory_reports_config() {
        let link = LinkConfig::with_latency(SimDuration::from_millis(2));
        let factory = NetworkedSessionFactory::new(TcpSulFactory::default(), link)
            .with_timeout(SimDuration::from_millis(50));
        assert_eq!(factory.timeout(), SimDuration::from_millis(50));
        assert_eq!(factory.link().latency, SimDuration::from_millis(2));
        let sessions = factory.create_worker_sessions(3);
        let mut ports: Vec<u16> = sessions
            .iter()
            .flat_map(|s| [s.client_port(), s.server_port()])
            .collect();
        ports.sort_unstable();
        ports.dedup();
        assert_eq!(ports.len(), 6, "each session owns a distinct port pair");
        assert!(Arc::ptr_eq(sessions[0].network(), sessions[1].network()));
    }
}

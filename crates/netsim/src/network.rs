//! The network: endpoints, links, an event queue and a virtual clock.
//!
//! A [`Network`] owns every endpoint and schedules datagram deliveries on a
//! priority queue ordered by virtual delivery time (ties broken by send
//! sequence number so FIFO order is preserved on ideal links).  Callers
//! drive it explicitly — `send`, then `advance`/`deliver_all` — which keeps
//! the adapter’s query/response loop fully deterministic.

use crate::endpoint::{Datagram, Endpoint, EndpointId};
use crate::link::LinkConfig;
use crate::time::{SharedClock, SimDuration, SimTime};
use bytes::Bytes;
use prognosis_events::{Dir, Event};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// First port of the ephemeral (dynamic) range, per RFC 6335.
pub const EPHEMERAL_PORT_MIN: u16 = 49_152;
/// Last port of the ephemeral range.
pub const EPHEMERAL_PORT_MAX: u16 = 65_535;

/// Errors raised by network operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetworkError {
    /// The referenced endpoint does not exist.
    UnknownEndpoint(EndpointId),
    /// The port is already bound by another endpoint.
    PortInUse(u16),
    /// No endpoint is bound to the destination port.
    NoRoute(u16),
    /// Every port of the ephemeral range (49152–65535) is bound.
    PortsExhausted,
}

impl std::fmt::Display for NetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetworkError::UnknownEndpoint(id) => write!(f, "unknown endpoint {id}"),
            NetworkError::PortInUse(p) => write!(f, "port {p} already bound"),
            NetworkError::NoRoute(p) => write!(f, "no endpoint bound to port {p}"),
            NetworkError::PortsExhausted => {
                write!(f, "every ephemeral port (49152-65535) is bound")
            }
        }
    }
}

impl std::error::Error for NetworkError {}

/// The event-scope identity a scheduled delivery carries so the deliver
/// site can report it against the same query scope, direction and packet
/// index as its send.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct WireTag {
    scope: u64,
    packet: u64,
    dir: Dir,
    bytes: u64,
}

/// An open wire-event scope: one membership query's traffic between a
/// client endpoint and its server, time-based `rel` stamps measured from
/// `base` (the query's session-reset instant), and the `wire:*` events
/// the traffic has produced so far.
#[derive(Clone, Debug)]
struct WireScope {
    client: EndpointId,
    server: EndpointId,
    base: SimTime,
    next_packet: u64,
    events: Vec<Event>,
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct ScheduledDelivery {
    deliver_at: SimTime,
    sequence: u64,
    to: EndpointId,
    datagram: Datagram,
    wire: Option<WireTag>,
}

impl Ord for ScheduledDelivery {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deliver_at, self.sequence).cmp(&(other.deliver_at, other.sequence))
    }
}

impl PartialOrd for ScheduledDelivery {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A per-sender impairment stream: packet fates are a pure function of the
/// stream's seed and its per-packet index (see [`LinkConfig::fate`]).
#[derive(Clone, Copy, Debug)]
struct NoiseStream {
    seed: u64,
    next_index: u64,
}

/// The simulated network.
pub struct Network {
    endpoints: Vec<Endpoint>,
    ports: HashMap<u16, EndpointId>,
    default_link: LinkConfig,
    links: HashMap<(EndpointId, EndpointId), LinkConfig>,
    queue: BinaryHeap<Reverse<ScheduledDelivery>>,
    now: SimTime,
    sequence: u64,
    /// Network-level noise stream for senders without their own.
    noise: NoiseStream,
    /// Lowest ephemeral port that could be free (every ephemeral port
    /// below it is bound), keeping [`Network::bind_ephemeral`]'s
    /// lowest-free-port scan amortized O(1).
    ephemeral_hint: u16,
    /// Per-endpoint noise streams (see [`Network::set_noise_seed`]): they
    /// give each sender an impairment trajectory that is independent of
    /// every other endpoint's traffic, and can be rewound at query
    /// boundaries so repeated queries meet reproducible weather.
    endpoint_noise: HashMap<EndpointId, NoiseStream>,
    /// Shared-clock handle the network publishes its virtual time to (so
    /// event-driven schedulers and other networks can share one "now").
    clock: Option<SharedClock>,
    /// Open wire-event scopes by scope id.
    wire_scopes: HashMap<u64, WireScope>,
    /// Endpoint → owning wire scope id, for the send-path lookup.
    wire_endpoint: HashMap<EndpointId, u64>,
    /// Id of the next wire scope; ids are never reused, so a straggler
    /// tagged with a closed scope cannot land in a later one.
    next_wire_scope: u64,
}

impl Network {
    /// Creates a network with an ideal default link and the given noise seed.
    pub fn new(seed: u64) -> Self {
        Network::with_default_link(seed, LinkConfig::ideal())
    }

    /// Creates a network whose default link has the given impairments.
    pub fn with_default_link(seed: u64, default_link: LinkConfig) -> Self {
        Network {
            endpoints: Vec::new(),
            ports: HashMap::new(),
            default_link,
            links: HashMap::new(),
            queue: BinaryHeap::new(),
            now: SimTime::ZERO,
            sequence: 0,
            noise: NoiseStream {
                seed,
                next_index: 0,
            },
            ephemeral_hint: EPHEMERAL_PORT_MIN,
            endpoint_noise: HashMap::new(),
            clock: None,
            wire_scopes: HashMap::new(),
            wire_endpoint: HashMap::new(),
            next_wire_scope: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Attaches a [`SharedClock`] handle.  The network immediately syncs to
    /// the later of its own time and the clock's, and from then on every
    /// time advance is published to the handle, so entities outside the
    /// network (e.g. a per-worker session scheduler) observe the same
    /// virtual instant.
    pub fn attach_clock(&mut self, clock: SharedClock) {
        self.now = self.now.max(clock.now());
        clock.advance_to(self.now);
        self.clock = Some(clock);
    }

    /// Advances the network to the attached shared clock's current time (a
    /// no-op without an attached clock), delivering everything due.
    /// Returns the number of datagrams delivered.
    pub fn advance_to_clock(&mut self) -> usize {
        match self.clock.as_ref().map(|c| c.now()) {
            Some(target) if target > self.now => self.advance(target - self.now),
            _ => 0,
        }
    }

    fn publish_time(&self) {
        if let Some(clock) = &self.clock {
            clock.advance_to(self.now);
        }
    }

    /// Opens a wire-event scope for the traffic between `client` and
    /// `server`: until [`Network::end_wire_scope`], their packets record
    /// `wire:*` events whose `rel` stamps are virtual micros since now (the
    /// query's session-reset instant), with packet indices from 0.  A
    /// previous scope touching either endpoint is dropped first, events
    /// and all.  Traffic outside every scope stays silent, so unit tests
    /// and non-learning consumers pay nothing.
    pub fn begin_wire_scope(&mut self, client: EndpointId, server: EndpointId) {
        for ep in [client, server] {
            if let Some(old_id) = self.wire_endpoint.get(&ep).copied() {
                self.close_wire_scope(old_id);
            }
        }
        let scope = self.next_wire_scope;
        self.next_wire_scope += 1;
        self.wire_scopes.insert(
            scope,
            WireScope {
                client,
                server,
                base: self.now,
                next_packet: 0,
                events: Vec::new(),
            },
        );
        self.wire_endpoint.insert(client, scope);
        self.wire_endpoint.insert(server, scope);
    }

    /// Closes the wire scope `endpoint` belongs to, appending its events to
    /// `events` in the order they happened (a no-op without an open
    /// scope).  Stragglers of a closed scope stay silent.
    pub fn end_wire_scope(&mut self, endpoint: EndpointId, events: &mut Vec<Event>) {
        let Some(scope) = self.wire_endpoint.get(&endpoint).copied() else {
            return;
        };
        if let Some(mut closed) = self.close_wire_scope(scope) {
            events.append(&mut closed);
        }
    }

    fn close_wire_scope(&mut self, scope: u64) -> Option<Vec<Event>> {
        let old = self.wire_scopes.remove(&scope)?;
        self.wire_endpoint.remove(&old.client);
        self.wire_endpoint.remove(&old.server);
        Some(old.events)
    }

    /// Records the send-side wire events for a packet from `from`:
    /// `wire:send` always, plus `wire:drop` (`copies` `None`) or
    /// `wire:duplicate` (`copies > 1`).  Returns the tag the packet's
    /// scheduled deliveries should carry, `None` when the packet is lost
    /// or the sender has no open scope.
    fn record_wire_send(
        &mut self,
        from: EndpointId,
        bytes: u64,
        copies: Option<u64>,
    ) -> Option<WireTag> {
        let scope = *self.wire_endpoint.get(&from)?;
        let ws = self.wire_scopes.get_mut(&scope)?;
        let rel = self.now.as_micros().saturating_sub(ws.base.as_micros());
        let dir: Dir = if from == ws.client { "up" } else { "down" };
        let packet = ws.next_packet;
        ws.next_packet += 1;
        ws.events.push(Event::WireSend {
            rel,
            dir,
            packet,
            bytes,
        });
        match copies {
            None => {
                ws.events.push(Event::WireDrop {
                    rel,
                    dir,
                    packet,
                    bytes,
                });
                None
            }
            Some(copies) => {
                if copies > 1 {
                    ws.events.push(Event::WireDuplicate {
                        rel,
                        dir,
                        packet,
                        copies,
                    });
                }
                Some(WireTag {
                    scope,
                    packet,
                    dir,
                    bytes,
                })
            }
        }
    }

    /// Records a `wire:deliver` event for a delivered datagram carrying a
    /// wire tag.  Stragglers whose scope was already closed stay silent.
    fn record_wire_delivery(&mut self, tag: Option<WireTag>) {
        let Some(tag) = tag else { return };
        let Some(ws) = self.wire_scopes.get_mut(&tag.scope) else {
            return;
        };
        let rel = self.now.as_micros().saturating_sub(ws.base.as_micros());
        ws.events.push(Event::WireDeliver {
            rel,
            dir: tag.dir,
            packet: tag.packet,
            bytes: tag.bytes,
        });
    }

    /// Binds a new endpoint to `port`.
    pub fn bind(&mut self, port: u16) -> Result<EndpointId, NetworkError> {
        if self.ports.contains_key(&port) {
            return Err(NetworkError::PortInUse(port));
        }
        let id = EndpointId(self.endpoints.len());
        self.endpoints.push(Endpoint::new(id, port));
        self.ports.insert(port, id);
        id.index(); // silence "unused" style concerns in older compilers
        Ok(id)
    }

    /// Binds a new endpoint to the lowest currently-free port of the
    /// ephemeral range (49152–65535), returning the endpoint and the chosen
    /// port.  Mirrors binding a UDP socket to port 0 — the operation at the
    /// heart of the Issue-3 retry bug, and the per-session client-port
    /// allocation of the impaired-network session transport.
    ///
    /// The scan never leaves the ephemeral range (it previously wrapped
    /// past 65535 into port 0 and the well-known range) and reports
    /// [`NetworkError::PortsExhausted`] instead of spinning when every
    /// ephemeral port is bound.
    pub fn bind_ephemeral(&mut self) -> Result<(EndpointId, u16), NetworkError> {
        for port in self.ephemeral_hint..=EPHEMERAL_PORT_MAX {
            if !self.ports.contains_key(&port) {
                let id = self.bind(port)?;
                self.ephemeral_hint = port.saturating_add(1);
                return Ok((id, port));
            }
        }
        Err(NetworkError::PortsExhausted)
    }

    /// Releases an endpoint's port binding and drops its pending datagrams.
    /// The endpoint id remains valid but can no longer receive traffic.
    ///
    /// The port mapping is only removed while it still points at this
    /// endpoint: unbinding twice after the port was reassigned must not
    /// steal the new owner's binding.
    pub fn unbind(&mut self, endpoint: EndpointId) -> Result<(), NetworkError> {
        let ep = self
            .endpoints
            .get_mut(endpoint.index())
            .ok_or(NetworkError::UnknownEndpoint(endpoint))?;
        ep.clear();
        let port = ep.port();
        if self.ports.get(&port) == Some(&endpoint) {
            self.ports.remove(&port);
            if port >= EPHEMERAL_PORT_MIN {
                self.ephemeral_hint = self.ephemeral_hint.min(port);
            }
        }
        Ok(())
    }

    /// Gives `endpoint` its own impairment stream: from now on, datagrams
    /// it sends take their fates from `(seed, packet index)` via
    /// [`LinkConfig::fate`], independent of all other traffic on the
    /// network.
    pub fn set_noise_seed(&mut self, endpoint: EndpointId, seed: u64) -> Result<(), NetworkError> {
        let _ = self.endpoint(endpoint)?;
        self.endpoint_noise.insert(
            endpoint,
            NoiseStream {
                seed,
                next_index: 0,
            },
        );
        Ok(())
    }

    /// Rewinds `endpoint`'s impairment stream to packet index 0, so its
    /// next packets meet the same weather as its first ones — the query
    /// boundary of the session transport.  A no-op for endpoints without a
    /// private stream.
    pub fn rewind_noise(&mut self, endpoint: EndpointId) -> Result<(), NetworkError> {
        let _ = self.endpoint(endpoint)?;
        if let Some(stream) = self.endpoint_noise.get_mut(&endpoint) {
            stream.next_index = 0;
        }
        Ok(())
    }

    /// Sets the link configuration for datagrams flowing `from → to`.
    pub fn set_link(&mut self, from: EndpointId, to: EndpointId, config: LinkConfig) {
        self.links.insert((from, to), config);
    }

    /// The endpoint bound to `port`, if any.
    pub fn endpoint_on_port(&self, port: u16) -> Option<EndpointId> {
        self.ports.get(&port).copied()
    }

    /// Immutable access to an endpoint.
    pub fn endpoint(&self, id: EndpointId) -> Result<&Endpoint, NetworkError> {
        self.endpoints
            .get(id.index())
            .ok_or(NetworkError::UnknownEndpoint(id))
    }

    /// Mutable access to an endpoint (to receive datagrams).
    pub fn endpoint_mut(&mut self, id: EndpointId) -> Result<&mut Endpoint, NetworkError> {
        self.endpoints
            .get_mut(id.index())
            .ok_or(NetworkError::UnknownEndpoint(id))
    }

    /// Sends a datagram from `from` to whichever endpoint is bound to
    /// `destination_port`.  The source port is the sender's bound port.
    pub fn send(
        &mut self,
        from: EndpointId,
        destination_port: u16,
        payload: Bytes,
    ) -> Result<(), NetworkError> {
        let source_port = self.endpoint(from)?.port();
        self.send_from_port(from, source_port, destination_port, payload)
    }

    /// Sends a datagram with an explicit (possibly spoofed or rebound)
    /// source port.  QUIC-Tracker's retry bug is "the token is returned from
    /// a different source port", which this API models directly.
    pub fn send_from_port(
        &mut self,
        from: EndpointId,
        source_port: u16,
        destination_port: u16,
        payload: Bytes,
    ) -> Result<(), NetworkError> {
        // Validate the sender exists even when spoofing the port.
        let _ = self.endpoint(from)?;
        let Some(to) = self.ports.get(&destination_port).copied() else {
            return Err(NetworkError::NoRoute(destination_port));
        };
        let link = self
            .links
            .get(&(from, to))
            .copied()
            .unwrap_or(self.default_link);
        let stream = match self.endpoint_noise.get_mut(&from) {
            Some(stream) => stream,
            None => &mut self.noise,
        };
        let packet_index = stream.next_index;
        stream.next_index += 1;
        let seed = stream.seed;
        match link.fate(seed, packet_index) {
            None => {
                self.record_wire_send(from, payload.len() as u64, None);
            }
            Some(delays) => {
                let wire =
                    self.record_wire_send(from, payload.len() as u64, Some(delays.len() as u64));
                for delay in delays {
                    self.sequence += 1;
                    self.queue.push(Reverse(ScheduledDelivery {
                        deliver_at: self.now + delay,
                        sequence: self.sequence,
                        to,
                        datagram: Datagram {
                            source_port,
                            destination_port,
                            delivered_at: self.now + delay,
                            payload: payload.clone(),
                        },
                        wire,
                    }));
                }
            }
        }
        Ok(())
    }

    /// Advances virtual time by `delta`, delivering everything scheduled in
    /// the interval.  Returns the number of datagrams delivered.
    pub fn advance(&mut self, delta: SimDuration) -> usize {
        let target = self.now + delta;
        let mut delivered = 0;
        while let Some(Reverse(next)) = self.queue.peek() {
            if next.deliver_at > target {
                break;
            }
            let Reverse(event) = self.queue.pop().expect("peeked above");
            self.now = event.deliver_at;
            let mut arrived = false;
            if let Some(ep) = self.endpoints.get_mut(event.to.index()) {
                // Deliver only if the destination port is still bound to
                // this endpoint (unbinding drops in-flight traffic).
                if self.ports.get(&event.datagram.destination_port) == Some(&event.to) {
                    ep.inbound.push_back(event.datagram);
                    delivered += 1;
                    arrived = true;
                }
            }
            if arrived {
                self.record_wire_delivery(event.wire);
            }
        }
        self.now = target;
        self.publish_time();
        delivered
    }

    /// Delivers every queued datagram regardless of its scheduled time,
    /// advancing the clock to the last delivery.  Convenient for the
    /// request/response style the adapter uses.
    pub fn deliver_all(&mut self) -> usize {
        let mut delivered = 0;
        while let Some(Reverse(event)) = self.queue.pop() {
            self.now = self.now.max(event.deliver_at);
            let mut arrived = false;
            if let Some(ep) = self.endpoints.get_mut(event.to.index()) {
                if self.ports.get(&event.datagram.destination_port) == Some(&event.to) {
                    ep.inbound.push_back(event.datagram);
                    delivered += 1;
                    arrived = true;
                }
            }
            if arrived {
                self.record_wire_delivery(event.wire);
            }
        }
        self.publish_time();
        delivered
    }

    /// Number of datagrams currently in flight.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// Delivers everything due at or before the current instant without
    /// advancing time — needed when a datagram was scheduled with zero
    /// delay at exactly `now`.
    pub fn deliver_due(&mut self) -> usize {
        self.advance(SimDuration::ZERO)
    }

    /// Advances virtual time to `target` (a no-op on time when `target`
    /// is not in the future — virtual time is monotonic), delivering
    /// everything due by the later of the two instants.  This is how an
    /// event-driven session synchronizes the network to its scheduler's
    /// clock without the network needing a clock handle of its own.
    pub fn advance_to(&mut self, target: SimTime) -> usize {
        if target > self.now {
            self.advance(target - self.now)
        } else {
            self.deliver_due()
        }
    }

    /// Number of in-flight datagrams addressed to `port`.
    pub fn in_flight_to(&self, port: u16) -> usize {
        self.queue
            .iter()
            .filter(|Reverse(d)| d.datagram.destination_port == port)
            .count()
    }

    /// The earliest scheduled delivery time of an in-flight datagram
    /// addressed to `port`, if any — the wake-up deadline an event-driven
    /// session waiting on that port should report.
    pub fn next_delivery_to(&self, port: u16) -> Option<SimTime> {
        self.queue
            .iter()
            .filter(|Reverse(d)| d.datagram.destination_port == port)
            .map(|Reverse(d)| d.deliver_at)
            .min()
    }

    /// Drops every in-flight datagram addressed to `port`, returning how
    /// many were dropped — the session transport uses this at query
    /// boundaries so one query's stragglers never leak into the next.
    pub fn drop_in_flight_to(&mut self, port: u16) -> usize {
        let before = self.queue.len();
        let kept: Vec<Reverse<ScheduledDelivery>> = std::mem::take(&mut self.queue)
            .into_iter()
            .filter(|Reverse(d)| d.datagram.destination_port != port)
            .collect();
        self.queue = kept.into_iter().collect();
        before - self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_send_receive_round_trip() {
        let mut net = Network::new(1);
        let a = net.bind(1000).unwrap();
        let b = net.bind(2000).unwrap();
        net.send(a, 2000, Bytes::from_static(b"hello")).unwrap();
        assert_eq!(net.in_flight(), 1);
        assert_eq!(net.deliver_all(), 1);
        let dg = net.endpoint_mut(b).unwrap().receive().unwrap();
        assert_eq!(&dg.payload[..], b"hello");
        assert_eq!(dg.source_port, 1000);
        assert_eq!(dg.destination_port, 2000);
    }

    #[test]
    fn port_conflicts_and_unknown_routes_are_errors() {
        let mut net = Network::new(1);
        let a = net.bind(1000).unwrap();
        assert_eq!(net.bind(1000).unwrap_err(), NetworkError::PortInUse(1000));
        assert_eq!(
            net.send(a, 9999, Bytes::new()).unwrap_err(),
            NetworkError::NoRoute(9999)
        );
        assert_eq!(
            net.endpoint(EndpointId(42)).unwrap_err(),
            NetworkError::UnknownEndpoint(EndpointId(42))
        );
    }

    #[test]
    fn latency_delays_delivery_until_time_advances() {
        let mut net =
            Network::with_default_link(3, LinkConfig::with_latency(SimDuration::from_millis(10)));
        let a = net.bind(1).unwrap();
        let b = net.bind(2).unwrap();
        net.send(a, 2, Bytes::from_static(b"x")).unwrap();
        assert_eq!(net.advance(SimDuration::from_millis(5)), 0);
        assert_eq!(net.endpoint(b).unwrap().pending(), 0);
        assert_eq!(net.advance(SimDuration::from_millis(6)), 1);
        assert_eq!(net.endpoint(b).unwrap().pending(), 1);
        assert_eq!(net.now().as_millis(), 11);
    }

    #[test]
    fn lossy_link_drops_some_datagrams() {
        let mut net = Network::with_default_link(7, LinkConfig::ideal().loss(0.5));
        let a = net.bind(1).unwrap();
        let b = net.bind(2).unwrap();
        net.begin_wire_scope(a, b);
        for _ in 0..200 {
            net.send(a, 2, Bytes::from_static(b"p")).unwrap();
        }
        let delivered = net.deliver_all();
        assert!(
            delivered > 50 && delivered < 150,
            "delivered {delivered} of 200 at 50% loss"
        );
        let mut events = Vec::new();
        net.end_wire_scope(a, &mut events);
        let drops = events
            .iter()
            .filter(|e| matches!(e, Event::WireDrop { .. }))
            .count();
        assert_eq!(drops, 200 - delivered);
        assert_eq!(net.endpoint(b).unwrap().pending(), delivered);
    }

    #[test]
    fn duplication_delivers_twice() {
        let mut net = Network::with_default_link(7, LinkConfig::ideal().duplicate(1.0));
        let a = net.bind(1).unwrap();
        let b = net.bind(2).unwrap();
        net.send(a, 2, Bytes::from_static(b"p")).unwrap();
        assert_eq!(net.deliver_all(), 2);
        assert_eq!(net.endpoint(b).unwrap().pending(), 2);
    }

    #[test]
    fn spoofed_source_port_is_visible_to_the_receiver() {
        // The Issue-3 scenario: the reference client re-binds to a new
        // ephemeral port and the server sees a different source port.
        let mut net = Network::new(1);
        let client = net.bind(5000).unwrap();
        let server = net.bind(443).unwrap();
        net.send_from_port(client, 61_000, 443, Bytes::from_static(b"retry-token"))
            .unwrap();
        net.deliver_all();
        let dg = net.endpoint_mut(server).unwrap().receive().unwrap();
        assert_eq!(dg.source_port, 61_000);
    }

    #[test]
    fn ephemeral_binding_picks_free_ports() {
        let mut net = Network::new(1);
        let (_, p1) = net.bind_ephemeral().unwrap();
        let (_, p2) = net.bind_ephemeral().unwrap();
        assert_ne!(p1, p2);
        assert!((EPHEMERAL_PORT_MIN..=EPHEMERAL_PORT_MAX).contains(&p1));
        assert!(net.endpoint_on_port(p1).is_some());
    }

    #[test]
    fn ephemeral_binding_stays_in_range_and_reports_exhaustion() {
        let mut net = Network::new(1);
        // A bound well-known port must never be stolen by the scan.
        net.bind(443).unwrap();
        let mut last = None;
        for _ in EPHEMERAL_PORT_MIN..=EPHEMERAL_PORT_MAX {
            let (_, port) = net.bind_ephemeral().expect("range not yet exhausted");
            assert!((EPHEMERAL_PORT_MIN..=EPHEMERAL_PORT_MAX).contains(&port));
            last = Some(port);
        }
        assert_eq!(last, Some(EPHEMERAL_PORT_MAX));
        // The range is now full: the scan must fail instead of wrapping
        // into port 0 / the well-known range or spinning forever.
        assert_eq!(
            net.bind_ephemeral().unwrap_err(),
            NetworkError::PortsExhausted
        );
        assert_eq!(net.endpoint_on_port(443).map(|e| e.index()), Some(0));
        // Releasing one port makes the scan succeed again at that port.
        let victim = net.endpoint_on_port(50_000).unwrap();
        net.unbind(victim).unwrap();
        assert_eq!(net.bind_ephemeral().unwrap().1, 50_000);
    }

    #[test]
    fn double_unbind_does_not_steal_a_reassigned_port() {
        let mut net = Network::new(1);
        let (first, port) = net.bind_ephemeral().unwrap();
        net.unbind(first).unwrap();
        // The port is reassigned to a new endpoint...
        let (second, reused) = net.bind_ephemeral().unwrap();
        assert_eq!(reused, port);
        // ...and a stale second unbind of the old endpoint must not remove
        // the new owner's binding.
        net.unbind(first).unwrap();
        assert_eq!(net.endpoint_on_port(port), Some(second));
        let a = net.bind(10).unwrap();
        net.send(a, port, Bytes::from_static(b"x")).unwrap();
        net.deliver_all();
        assert_eq!(
            net.endpoint(second).unwrap().pending(),
            1,
            "traffic still routes to the live endpoint"
        );
    }

    #[test]
    fn per_endpoint_noise_streams_are_rewindable_and_independent() {
        let link = LinkConfig::ideal().loss(0.5);
        let run = |skip_other: usize| {
            let mut net = Network::with_default_link(3, link);
            let a = net.bind(1).unwrap();
            let other = net.bind(3).unwrap();
            let _b = net.bind(2).unwrap();
            net.set_noise_seed(a, 77).unwrap();
            // Unrelated traffic from an endpoint on the shared stream must
            // not perturb a's private stream.
            for _ in 0..skip_other {
                net.send(other, 2, Bytes::from_static(b"noise")).unwrap();
            }
            let fates: Vec<bool> = (0..64)
                .map(|_| {
                    net.send(a, 2, Bytes::from_static(b"x")).unwrap();
                    net.deliver_all() > 0
                })
                .collect();
            fates
        };
        let clean = run(0);
        assert_eq!(clean, run(13), "other senders must not shift a's fates");
        // Rewinding replays the identical fate sequence.
        let mut net = Network::with_default_link(3, link);
        let a = net.bind(1).unwrap();
        let _b = net.bind(2).unwrap();
        net.set_noise_seed(a, 77).unwrap();
        let observe = |net: &mut Network| -> Vec<bool> {
            (0..64)
                .map(|_| {
                    net.send(a, 2, Bytes::from_static(b"x")).unwrap();
                    net.deliver_all() > 0
                })
                .collect()
        };
        let first = observe(&mut net);
        net.rewind_noise(a).unwrap();
        let second = observe(&mut net);
        assert_eq!(first, second);
        assert_eq!(first, clean);
        assert!(net.set_noise_seed(EndpointId(9), 1).is_err());
        assert!(net.rewind_noise(EndpointId(9)).is_err());
    }

    #[test]
    fn in_flight_queries_and_drops_are_port_scoped() {
        let mut net =
            Network::with_default_link(1, LinkConfig::with_latency(SimDuration::from_millis(2)));
        let a = net.bind(1).unwrap();
        let _b = net.bind(2).unwrap();
        let _c = net.bind(3).unwrap();
        net.send(a, 2, Bytes::from_static(b"x")).unwrap();
        net.send(a, 3, Bytes::from_static(b"y")).unwrap();
        assert_eq!(net.in_flight_to(2), 1);
        assert_eq!(net.in_flight_to(3), 1);
        assert_eq!(net.in_flight_to(9), 0);
        assert_eq!(
            net.next_delivery_to(2),
            Some(SimTime::from_micros(2_000)),
            "2ms link latency"
        );
        assert_eq!(net.next_delivery_to(9), None);
        assert_eq!(net.drop_in_flight_to(2), 1);
        assert_eq!(net.in_flight(), 1, "port 3's datagram survives");
        assert_eq!(net.deliver_due(), 0, "nothing due yet at t=0");
        net.advance(SimDuration::from_millis(2));
        assert_eq!(net.endpoint(_c).unwrap().pending(), 1);
    }

    #[test]
    fn unbind_stops_delivery() {
        let mut net =
            Network::with_default_link(1, LinkConfig::with_latency(SimDuration::from_millis(1)));
        let a = net.bind(1).unwrap();
        let b = net.bind(2).unwrap();
        net.send(a, 2, Bytes::from_static(b"x")).unwrap();
        net.unbind(b).unwrap();
        assert_eq!(net.deliver_all(), 0);
        assert_eq!(net.endpoint(b).unwrap().pending(), 0);
        assert!(net.unbind(EndpointId(9)).is_err());
    }

    #[test]
    fn fifo_order_is_preserved_on_ideal_links() {
        let mut net = Network::new(1);
        let a = net.bind(1).unwrap();
        let b = net.bind(2).unwrap();
        for i in 0..10u8 {
            net.send(a, 2, Bytes::from(vec![i])).unwrap();
        }
        net.deliver_all();
        let payloads: Vec<u8> = net
            .endpoint_mut(b)
            .unwrap()
            .receive_all()
            .into_iter()
            .map(|d| d.payload[0])
            .collect();
        assert_eq!(payloads, (0..10).collect::<Vec<u8>>());
    }

    #[test]
    fn attached_clock_tracks_network_time_and_back() {
        let mut net =
            Network::with_default_link(3, LinkConfig::with_latency(SimDuration::from_millis(10)));
        let clock = SharedClock::starting_at(SimTime::from_micros(500));
        net.attach_clock(clock.clone());
        assert_eq!(net.now().as_micros(), 500, "network syncs up on attach");
        let a = net.bind(1).unwrap();
        let b = net.bind(2).unwrap();
        net.send(a, 2, Bytes::from_static(b"x")).unwrap();
        net.deliver_all();
        assert_eq!(
            clock.now(),
            net.now(),
            "delivery time is published to the shared clock"
        );
        // An outside scheduler advances the shared clock; the network
        // catches up on demand.
        clock.advance_by(SimDuration::from_millis(5));
        net.send(b, 1, Bytes::from_static(b"y")).unwrap();
        assert_eq!(net.advance_to_clock(), 0, "reply still 10ms out");
        assert_eq!(net.now(), clock.now());
    }

    #[test]
    fn wire_events_are_staged_per_scope_with_relative_stamps() {
        let mut net =
            Network::with_default_link(3, LinkConfig::with_latency(SimDuration::from_millis(2)));
        net.advance(SimDuration::from_millis(10)); // nonzero base
        let client = net.bind(50_000).unwrap();
        let server = net.bind(443).unwrap();
        net.begin_wire_scope(client, server);
        net.send(client, 443, Bytes::from_static(b"hello")).unwrap();
        net.advance(SimDuration::from_millis(2));
        net.send(server, 50_000, Bytes::from_static(b"ok")).unwrap();
        net.deliver_all();
        // A straggler sent inside the scope but delivered after its end.
        net.send(client, 443, Bytes::from_static(b"straggler"))
            .unwrap();
        let mut events = Vec::new();
        net.end_wire_scope(server, &mut events);
        net.deliver_all();
        // Unscoped traffic stays silent, and so does a closed scope.
        let other = net.bind(7).unwrap();
        net.send(other, 443, Bytes::from_static(b"x")).unwrap();
        net.send(client, 443, Bytes::from_static(b"late")).unwrap();
        net.deliver_all();
        net.end_wire_scope(client, &mut events);
        let mut out = String::new();
        for event in &events {
            event.render(&mut out);
            out.push('\n');
        }
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines.len(),
            5,
            "send+deliver per direction, then only the straggler's send: {out}"
        );
        assert!(lines[0].contains("\"name\":\"wire:send\""));
        assert!(lines[0].contains("\"rel\":0,\"data\":{\"dir\":\"up\",\"packet\":0,\"bytes\":5}"));
        assert!(lines[1].contains("\"name\":\"wire:deliver\""));
        assert!(lines[1].contains("\"rel\":2000"), "2ms link latency: {out}");
        assert!(lines[2].contains("\"dir\":\"down\",\"packet\":1,\"bytes\":2"));
        assert!(lines[4].contains("\"name\":\"wire:send\""));
        assert!(lines[4].contains("\"packet\":2,\"bytes\":9"));
    }

    #[test]
    fn lost_and_duplicated_packets_stage_matching_wire_events() {
        let render = |events: &[Event]| {
            let mut out = String::new();
            for event in events {
                event.render(&mut out);
                out.push('\n');
            }
            out
        };
        let mut net = Network::with_default_link(7, LinkConfig::ideal().duplicate(1.0));
        let client = net.bind(1).unwrap();
        let server = net.bind(2).unwrap();
        net.begin_wire_scope(client, server);
        net.send(client, 2, Bytes::from_static(b"dup")).unwrap();
        net.deliver_all();
        let mut events = Vec::new();
        net.end_wire_scope(client, &mut events);
        let out = render(&events);
        assert!(out.contains("\"name\":\"wire:duplicate\""));
        assert!(out.contains("\"copies\":2"));
        assert_eq!(
            out.matches("wire:deliver").count(),
            2,
            "both copies delivered: {out}"
        );

        let mut lossy = Network::with_default_link(7, LinkConfig::ideal().loss(1.0));
        let client = lossy.bind(1).unwrap();
        let server = lossy.bind(2).unwrap();
        lossy.begin_wire_scope(client, server);
        lossy.send(client, 2, Bytes::from_static(b"gone")).unwrap();
        lossy.deliver_all();
        let mut events = Vec::new();
        lossy.end_wire_scope(client, &mut events);
        let out = render(&events);
        assert!(out.contains("wire:send"));
        assert!(out.contains("wire:drop"));
        assert!(!out.contains("wire:deliver"));
    }
}

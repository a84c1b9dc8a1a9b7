//! The network: endpoints, links and an event queue on virtual time.
//!
//! A [`Network`] owns every endpoint and schedules datagram deliveries on a
//! priority queue ordered by virtual delivery time (ties broken by send
//! sequence number so FIFO order is preserved on ideal links).  Callers
//! own the clock and drive the network explicitly — `send`, then
//! [`Network::advance_to`] their current instant — which keeps the
//! adapter's query/response loop fully deterministic.
//!
//! # Per-endpoint state
//!
//! Sends and deliveries are the hot path of every networked learning
//! query, so nothing on it hashes or allocates per packet.  Everything a
//! send needs to know about its sender lives in the sender's slot of one
//! `Vec` indexed by [`EndpointId`]: the endpoint itself, its private
//! noise stream ([`Network::set_noise_seed`]), its per-destination link
//! overrides ([`Network::set_link`]) and the wire scope it belongs to.
//! Ports resolve through a paged table (two indexes, no hashing), a
//! packet's fate is an inline [`crate::link::Fate`], and a datagram on the
//! wire waits in a reused slot behind a small queue key.  Wire scopes
//! live in recycled slots: a closed scope's slot, and its event buffer,
//! serve the next scope that opens, so a query's `wire:*` events reuse
//! capacity an earlier query grew.

use crate::endpoint::{Datagram, Endpoint, EndpointId};
use crate::link::{Fate, LinkConfig};
use crate::time::SimTime;
use bytes::Bytes;
use prognosis_events::{Dir, Event};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
    /// The scope's slot in [`Network::wire_scopes`].
    slot: usize,
    /// The scope's id: the slot still holds this scope only while its id
    /// matches.
    scope: u64,
    packet: u64,
    dir: Dir,
    bytes: u64,
}

/// A wire-event scope slot: while open, one membership query's traffic
/// between a client endpoint and its server, time-based `rel` stamps
/// measured from `base` (the query's session-reset instant), and the
/// `wire:*` events the traffic has produced so far.  A closed slot keeps
/// its (empty) event buffer for the next scope.
#[derive(Clone, Debug)]
struct WireScope {
    /// The open scope's id; `None` once the scope closed.
    id: Option<u64>,
    client: EndpointId,
    server: EndpointId,
    base: SimTime,
    next_packet: u64,
    events: Vec<Event>,
}

/// A scheduled delivery's entry in the queue: small, so the queue's sifts
/// and port scans stay in cache.  Entries order by `(deliver_at,
/// sequence)`, a total order (sequence numbers are unique), and the
/// datagram itself waits in [`Network::in_flight`] slot `slot`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Scheduled {
    deliver_at: SimTime,
    sequence: u64,
    destination_port: u16,
    slot: u32,
}

/// A datagram on the wire, waiting for its scheduled delivery.
#[derive(Debug)]
struct InFlight {
    to: EndpointId,
    datagram: Datagram,
    wire: Option<WireTag>,
}

/// A per-sender impairment stream: packet fates are a pure function of the
/// stream's seed and its per-packet index (see [`LinkConfig::fate`]).
#[derive(Clone, Copy, Debug)]
struct NoiseStream {
    seed: u64,
    next_index: u64,
}

/// An endpoint and the state the send path reads about it.
struct EndpointSlot {
    endpoint: Endpoint,
    /// The endpoint's private noise stream (see
    /// [`Network::set_noise_seed`]); `None` draws from the network's.
    noise: Option<NoiseStream>,
    /// Links for datagrams this endpoint sends to specific endpoints
    /// ([`Network::set_link`]); others cross the default link.
    links: Vec<(EndpointId, LinkConfig)>,
    /// Slot of the open wire scope the endpoint belongs to.
    scope: Option<usize>,
}

/// Port → endpoint, hash-free: 256 pages of 256 ports, each page
/// allocated when a port in it is first bound, so a lookup is two indexes
/// and a network binding a few ports keeps a few KiB.
struct PortTable {
    /// Per port of the page: the owner's endpoint index + 1 (0: unbound).
    pages: Vec<Option<Box<[u32; 256]>>>,
}

impl PortTable {
    fn new() -> Self {
        PortTable {
            pages: vec![None; 256],
        }
    }

    fn owner(&self, port: u16) -> Option<EndpointId> {
        let page = self.pages[usize::from(port >> 8)].as_ref()?;
        match page[usize::from(port & 0xff)] {
            0 => None,
            owner => Some(EndpointId(owner as usize - 1)),
        }
    }

    fn set(&mut self, port: u16, owner: Option<EndpointId>) {
        let page = self.pages[usize::from(port >> 8)].get_or_insert_with(|| Box::new([0; 256]));
        page[usize::from(port & 0xff)] = owner.map_or(0, |id| {
            u32::try_from(id.index() + 1).expect("fewer than 2^32 endpoints")
        });
    }
}

/// The simulated network.
pub struct Network {
    slots: Vec<EndpointSlot>,
    ports: PortTable,
    default_link: LinkConfig,
    queue: BinaryHeap<Reverse<Scheduled>>,
    /// The datagrams the queue's entries schedule, by slot; a delivered
    /// or dropped datagram's slot is reused.
    in_flight: Vec<Option<InFlight>>,
    /// Empty slots of `in_flight`.
    free_in_flight: Vec<u32>,
    now: SimTime,
    sequence: u64,
    /// Network-level noise stream for senders without their own.
    noise: NoiseStream,
    /// Lowest ephemeral port that could be free (every ephemeral port
    /// below it is bound), keeping [`Network::bind_ephemeral`]'s
    /// lowest-free-port scan amortized O(1).
    ephemeral_hint: u16,
    /// Wire-scope slots, open and closed.
    wire_scopes: Vec<WireScope>,
    /// Slots of closed wire scopes, ready for reuse.
    free_scopes: Vec<usize>,
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
            slots: Vec::new(),
            ports: PortTable::new(),
            default_link,
            queue: BinaryHeap::new(),
            in_flight: Vec::new(),
            free_in_flight: Vec::new(),
            now: SimTime::ZERO,
            sequence: 0,
            noise: NoiseStream {
                seed,
                next_index: 0,
            },
            ephemeral_hint: EPHEMERAL_PORT_MIN,
            wire_scopes: Vec::new(),
            free_scopes: Vec::new(),
            next_wire_scope: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    fn slot(&self, id: EndpointId) -> Result<&EndpointSlot, NetworkError> {
        self.slots
            .get(id.index())
            .ok_or(NetworkError::UnknownEndpoint(id))
    }

    fn slot_mut(&mut self, id: EndpointId) -> Result<&mut EndpointSlot, NetworkError> {
        self.slots
            .get_mut(id.index())
            .ok_or(NetworkError::UnknownEndpoint(id))
    }

    /// Opens a wire-event scope for the traffic between `client` and
    /// `server`: until [`Network::end_wire_scope`], their packets record
    /// `wire:*` events whose `rel` stamps are virtual micros since now (the
    /// query's session-reset instant), with packet indices from 0.  A
    /// previous scope touching either endpoint is dropped first, events
    /// and all.  Traffic outside every scope stays silent, so unit tests
    /// and non-learning consumers pay nothing.
    ///
    /// # Panics
    /// Panics when either endpoint is not bound on this network.
    pub fn begin_wire_scope(&mut self, client: EndpointId, server: EndpointId) {
        for ep in [client, server] {
            let slot = self.slot(ep).expect("wire scope over a known endpoint");
            if let Some(old) = slot.scope {
                self.close_wire_scope(old);
            }
        }
        let id = self.next_wire_scope;
        self.next_wire_scope += 1;
        let scope = WireScope {
            id: Some(id),
            client,
            server,
            base: self.now,
            next_packet: 0,
            events: Vec::new(),
        };
        let slot = match self.free_scopes.pop() {
            Some(slot) => {
                let recycled = &mut self.wire_scopes[slot];
                *recycled = WireScope {
                    events: std::mem::take(&mut recycled.events),
                    ..scope
                };
                slot
            }
            None => {
                self.wire_scopes.push(scope);
                self.wire_scopes.len() - 1
            }
        };
        self.slots[client.index()].scope = Some(slot);
        self.slots[server.index()].scope = Some(slot);
    }

    /// Closes the wire scope `endpoint` belongs to, appending its events to
    /// `events` in the order they happened (a no-op without an open
    /// scope).  Stragglers of a closed scope stay silent.
    pub fn end_wire_scope(&mut self, endpoint: EndpointId, events: &mut Vec<Event>) {
        let Some(slot) = self.slot(endpoint).ok().and_then(|s| s.scope) else {
            return;
        };
        events.append(&mut self.wire_scopes[slot].events);
        self.close_wire_scope(slot);
    }

    /// Closes the scope in `slot`, dropping any events it still holds but
    /// keeping their buffer, and frees the slot.
    fn close_wire_scope(&mut self, slot: usize) {
        let scope = &mut self.wire_scopes[slot];
        scope.id = None;
        scope.events.clear();
        let (client, server) = (scope.client, scope.server);
        self.slots[client.index()].scope = None;
        self.slots[server.index()].scope = None;
        self.free_scopes.push(slot);
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
        let slot = self.slots[from.index()].scope?;
        let ws = &mut self.wire_scopes[slot];
        let scope = ws.id?;
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
                    slot,
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
        let ws = &mut self.wire_scopes[tag.slot];
        if ws.id != Some(tag.scope) {
            return;
        }
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
        if self.ports.owner(port).is_some() {
            return Err(NetworkError::PortInUse(port));
        }
        let id = EndpointId(self.slots.len());
        self.ports.set(port, Some(id));
        self.slots.push(EndpointSlot {
            endpoint: Endpoint::new(id, port),
            noise: None,
            links: Vec::new(),
            scope: None,
        });
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
            if self.ports.owner(port).is_none() {
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
        let ep = &mut self.slot_mut(endpoint)?.endpoint;
        ep.clear();
        let port = ep.port();
        if self.ports.owner(port) == Some(endpoint) {
            self.ports.set(port, None);
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
        self.slot_mut(endpoint)?.noise = Some(NoiseStream {
            seed,
            next_index: 0,
        });
        Ok(())
    }

    /// Rewinds `endpoint`'s impairment stream to packet index 0, so its
    /// next packets meet the same weather as its first ones — the query
    /// boundary of the session transport.  A no-op for endpoints without a
    /// private stream.
    pub fn rewind_noise(&mut self, endpoint: EndpointId) -> Result<(), NetworkError> {
        if let Some(stream) = &mut self.slot_mut(endpoint)?.noise {
            stream.next_index = 0;
        }
        Ok(())
    }

    /// Sets the link configuration for datagrams flowing `from → to`.
    pub fn set_link(
        &mut self,
        from: EndpointId,
        to: EndpointId,
        config: LinkConfig,
    ) -> Result<(), NetworkError> {
        self.slot(to)?;
        let links = &mut self.slot_mut(from)?.links;
        match links.iter_mut().find(|(dest, _)| *dest == to) {
            Some((_, link)) => *link = config,
            None => links.push((to, config)),
        }
        Ok(())
    }

    /// The endpoint bound to `port`, if any.
    pub fn endpoint_on_port(&self, port: u16) -> Option<EndpointId> {
        self.ports.owner(port)
    }

    /// Immutable access to an endpoint.
    pub fn endpoint(&self, id: EndpointId) -> Result<&Endpoint, NetworkError> {
        Ok(&self.slot(id)?.endpoint)
    }

    /// Mutable access to an endpoint (to receive datagrams).
    pub fn endpoint_mut(&mut self, id: EndpointId) -> Result<&mut Endpoint, NetworkError> {
        Ok(&mut self.slot_mut(id)?.endpoint)
    }

    /// Sends a datagram from `from` to whichever endpoint is bound to
    /// `destination_port`.  The source port is the sender's bound port.
    /// Returns what [`Network::send_from_port`] returns.
    pub fn send(
        &mut self,
        from: EndpointId,
        destination_port: u16,
        payload: Bytes,
    ) -> Result<SimTime, NetworkError> {
        let source_port = self.endpoint(from)?.port();
        self.send_from_port(from, source_port, destination_port, payload)
    }

    /// Sends a datagram with an explicit (possibly spoofed or rebound)
    /// source port.  QUIC-Tracker's retry bug is "the token is returned from
    /// a different source port", which this API models directly.
    ///
    /// Returns the instant the datagram's first copy is delivered, or the
    /// current instant when the link loses it.
    pub fn send_from_port(
        &mut self,
        from: EndpointId,
        source_port: u16,
        destination_port: u16,
        payload: Bytes,
    ) -> Result<SimTime, NetworkError> {
        // Validate the sender exists even when spoofing the port.
        self.slot(from)?;
        let Some(to) = self.ports.owner(destination_port) else {
            return Err(NetworkError::NoRoute(destination_port));
        };
        let sender = &mut self.slots[from.index()];
        let link = sender
            .links
            .iter()
            .find(|(dest, _)| *dest == to)
            .map_or(self.default_link, |(_, link)| *link);
        let stream = sender.noise.as_mut().unwrap_or(&mut self.noise);
        let packet_index = stream.next_index;
        stream.next_index += 1;
        let fate = link.fate(stream.seed, packet_index);
        let bytes = payload.len() as u64;
        let wire = self.record_wire_send(from, bytes, fate.map(|fate| fate.copies()));
        let lands_at = fate.map_or(self.now, |fate| self.now + fate.delay());
        for delay in fate.into_iter().flat_map(Fate::deliveries) {
            let deliver_at = self.now + delay;
            let datagram = Datagram {
                source_port,
                destination_port,
                delivered_at: deliver_at,
                payload: payload.clone(),
            };
            self.schedule(deliver_at, to, datagram, wire);
        }
        Ok(lands_at)
    }

    /// Puts `datagram` on the queue for delivery to `to` at `deliver_at`.
    fn schedule(
        &mut self,
        deliver_at: SimTime,
        to: EndpointId,
        datagram: Datagram,
        wire: Option<WireTag>,
    ) {
        self.sequence += 1;
        let destination_port = datagram.destination_port;
        let flight = Some(InFlight { to, datagram, wire });
        let slot = match self.free_in_flight.pop() {
            Some(slot) => {
                self.in_flight[slot as usize] = flight;
                slot
            }
            None => {
                self.in_flight.push(flight);
                u32::try_from(self.in_flight.len() - 1).expect("fewer than 2^32 in flight")
            }
        };
        self.queue.push(Reverse(Scheduled {
            deliver_at,
            sequence: self.sequence,
            destination_port,
            slot,
        }));
    }

    /// Takes the datagram of a popped queue entry out of its slot.
    fn take_in_flight(&mut self, slot: u32) -> InFlight {
        self.free_in_flight.push(slot);
        self.in_flight[slot as usize]
            .take()
            .expect("a queued delivery's slot holds its datagram")
    }

    /// Pops the next delivery, advancing the clock to its instant, and
    /// hands it to its endpoint — only while the destination port is still
    /// bound to it (unbinding drops in-flight traffic) — recording its
    /// `wire:deliver`.  Returns whether it arrived.
    fn deliver_next(&mut self) -> bool {
        let Reverse(next) = self.queue.pop().expect("a delivery is queued");
        self.now = self.now.max(next.deliver_at);
        let flight = self.take_in_flight(next.slot);
        if self.ports.owner(next.destination_port) != Some(flight.to) {
            return false;
        }
        self.slots[flight.to.index()]
            .endpoint
            .inbound
            .push_back(flight.datagram);
        self.record_wire_delivery(flight.wire);
        true
    }

    /// Number of datagrams currently in flight.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// Advances virtual time to `target` (time stays put when `target` is
    /// not in the future — virtual time is monotonic), delivering
    /// everything due by then, and returns the number of datagrams
    /// delivered.  The caller owns the clock: an event-driven session
    /// hands the network its scheduler's instant before every send and
    /// every pump.
    pub fn advance_to(&mut self, target: SimTime) -> usize {
        let target = target.max(self.now);
        let mut delivered = 0;
        while self
            .queue
            .peek()
            .is_some_and(|Reverse(next)| next.deliver_at <= target)
        {
            delivered += usize::from(self.deliver_next());
        }
        self.now = target;
        delivered
    }

    /// The earliest scheduled delivery time of an in-flight datagram
    /// addressed to any of `ports`, if any — the wake-up deadline an
    /// event-driven session waiting on those ports should report, and
    /// `None` exactly when nothing addressed to them is in flight.  One
    /// pass over the queue, however many ports.
    pub fn next_delivery_to(&self, ports: &[u16]) -> Option<SimTime> {
        self.queue
            .iter()
            .filter(|Reverse(d)| ports.contains(&d.destination_port))
            .map(|Reverse(d)| d.deliver_at)
            .min()
    }

    /// Drops every in-flight datagram addressed to any of `ports`,
    /// returning how many were dropped — the session transport uses this
    /// at query boundaries so one query's stragglers never leak into the
    /// next.  One pass over the queue, however many ports.  The survivors
    /// keep their delivery order: the queue orders by
    /// `(deliver_at, sequence)`, a total order.
    pub fn drop_in_flight_to(&mut self, ports: &[u16]) -> usize {
        let before = self.queue.len();
        let (in_flight, free) = (&mut self.in_flight, &mut self.free_in_flight);
        self.queue.retain(|Reverse(d)| {
            let keep = !ports.contains(&d.destination_port);
            if !keep {
                in_flight[d.slot as usize] = None;
                free.push(d.slot);
            }
            keep
        });
        before - self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    /// Delivers every queued datagram, advancing time to the last one.
    fn drain(net: &mut Network) -> usize {
        let last = net.queue.iter().map(|Reverse(d)| d.deliver_at).max();
        net.advance_to(last.unwrap_or(net.now))
    }

    #[test]
    fn bind_send_receive_round_trip() {
        let mut net = Network::new(1);
        let a = net.bind(1000).unwrap();
        let b = net.bind(2000).unwrap();
        net.send(a, 2000, Bytes::from_static(b"hello")).unwrap();
        assert_eq!(net.in_flight(), 1);
        assert_eq!(drain(&mut net), 1);
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
        let lands_at = net.send(a, 2, Bytes::from_static(b"x")).unwrap();
        assert_eq!(lands_at.as_millis(), 10, "a send reports when it lands");
        assert_eq!(net.advance_to(net.now() + SimDuration::from_millis(5)), 0);
        assert_eq!(net.endpoint(b).unwrap().pending(), 0);
        assert_eq!(net.advance_to(net.now() + SimDuration::from_millis(6)), 1);
        assert_eq!(net.endpoint(b).unwrap().pending(), 1);
        assert_eq!(net.now().as_millis(), 11);

        let lossy = LinkConfig::with_latency(SimDuration::from_millis(10)).loss(1.0);
        let mut net = Network::with_default_link(3, lossy);
        let a = net.bind(1).unwrap();
        net.bind(2).unwrap();
        net.advance_to(SimTime::from_micros(4_000));
        let lands_at = net.send(a, 2, Bytes::from_static(b"x")).unwrap();
        assert_eq!(
            lands_at.as_millis(),
            4,
            "a lost datagram reports the send instant"
        );
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
        let delivered = drain(&mut net);
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
        assert_eq!(drain(&mut net), 2);
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
        drain(&mut net);
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
        drain(&mut net);
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
                    drain(&mut net) > 0
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
                    drain(net) > 0
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
        assert_eq!(net.in_flight(), 2);
        assert_eq!(
            net.next_delivery_to(&[2]),
            Some(SimTime::from_micros(2_000)),
            "2ms link latency"
        );
        assert_eq!(net.next_delivery_to(&[9]), None);
        assert_eq!(
            net.next_delivery_to(&[9, 3]),
            Some(SimTime::from_micros(2_000))
        );
        assert_eq!(net.drop_in_flight_to(&[2]), 1);
        assert_eq!(net.drop_in_flight_to(&[9]), 0);
        assert_eq!(net.in_flight(), 1, "port 3's datagram survives");
        assert_eq!(net.next_delivery_to(&[2]), None);
        assert_eq!(net.advance_to(net.now()), 0, "nothing due yet at t=0");
        net.advance_to(net.now() + SimDuration::from_millis(2));
        assert_eq!(net.endpoint(_c).unwrap().pending(), 1);
    }

    #[test]
    fn dropping_one_port_keeps_the_delivery_order_of_the_rest() {
        // Jitter reorders the datagrams; dropping port 2's must leave port
        // 3's in exactly the order they arrive without the drop.
        let arrivals = |drop: bool| {
            let link = LinkConfig::with_latency(SimDuration::from_micros(100))
                .jitter(SimDuration::from_micros(500));
            let mut net = Network::with_default_link(7, link);
            let a = net.bind(1).unwrap();
            let _b = net.bind(2).unwrap();
            let c = net.bind(3).unwrap();
            for i in 0..40u8 {
                net.send(a, 2 + u16::from(i % 2), Bytes::from(vec![i]))
                    .unwrap();
            }
            if drop {
                assert_eq!(net.drop_in_flight_to(&[2]), 20);
                assert_eq!(net.next_delivery_to(&[2]), None);
            }
            drain(&mut net);
            let ep = net.endpoint_mut(c).unwrap();
            std::iter::from_fn(|| ep.receive().map(|d| d.payload[0])).collect::<Vec<_>>()
        };
        let kept = arrivals(true);
        assert_eq!(kept, arrivals(false));
        assert_ne!(kept, (0..40).filter(|i| i % 2 == 1).collect::<Vec<_>>());
    }

    #[test]
    fn unbind_stops_delivery() {
        let mut net =
            Network::with_default_link(1, LinkConfig::with_latency(SimDuration::from_millis(1)));
        let a = net.bind(1).unwrap();
        let b = net.bind(2).unwrap();
        net.send(a, 2, Bytes::from_static(b"x")).unwrap();
        net.unbind(b).unwrap();
        assert_eq!(drain(&mut net), 0);
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
        drain(&mut net);
        let ep = net.endpoint_mut(b).unwrap();
        let payloads: Vec<u8> = std::iter::from_fn(|| ep.receive().map(|d| d.payload[0])).collect();
        assert_eq!(payloads, (0..10).collect::<Vec<u8>>());
    }

    #[test]
    fn wire_events_are_staged_per_scope_with_relative_stamps() {
        let mut net =
            Network::with_default_link(3, LinkConfig::with_latency(SimDuration::from_millis(2)));
        net.advance_to(net.now() + SimDuration::from_millis(10)); // nonzero base
        let client = net.bind(50_000).unwrap();
        let server = net.bind(443).unwrap();
        net.begin_wire_scope(client, server);
        net.send(client, 443, Bytes::from_static(b"hello")).unwrap();
        net.advance_to(net.now() + SimDuration::from_millis(2));
        net.send(server, 50_000, Bytes::from_static(b"ok")).unwrap();
        drain(&mut net);
        // A straggler sent inside the scope but delivered after its end.
        net.send(client, 443, Bytes::from_static(b"straggler"))
            .unwrap();
        let mut events = Vec::new();
        net.end_wire_scope(server, &mut events);
        drain(&mut net);
        // Unscoped traffic stays silent, and so does a closed scope.
        let other = net.bind(7).unwrap();
        net.send(other, 443, Bytes::from_static(b"x")).unwrap();
        net.send(client, 443, Bytes::from_static(b"late")).unwrap();
        drain(&mut net);
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
        drain(&mut net);
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
        drain(&mut lossy);
        let mut events = Vec::new();
        lossy.end_wire_scope(client, &mut events);
        let out = render(&events);
        assert!(out.contains("wire:send"));
        assert!(out.contains("wire:drop"));
        assert!(!out.contains("wire:deliver"));
    }
}

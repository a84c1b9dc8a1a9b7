//! Datagram endpoints.
//!
//! An [`Endpoint`] is the simulator's analogue of a bound UDP socket: it has
//! an address (a small integer port), an inbound queue of delivered
//! datagrams, and is attached to a [`crate::Network`].  The QUIC-Tracker
//! retry bug reproduced as Issue 3 hinges on source ports, so datagrams
//! carry full (source, destination) addressing.

use crate::time::SimTime;
use bytes::Bytes;
use std::collections::VecDeque;
use std::fmt;

/// Identifies an endpoint within a [`crate::Network`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EndpointId(pub(crate) usize);

impl EndpointId {
    /// The raw index (stable for the lifetime of the network).
    pub fn index(&self) -> usize {
        self.0
    }
}

impl fmt::Display for EndpointId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ep{}", self.0)
    }
}

/// A datagram delivered to an endpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Datagram {
    /// Source port the datagram was sent from.
    pub source_port: u16,
    /// Destination port it was addressed to.
    pub destination_port: u16,
    /// Virtual time of delivery.
    pub delivered_at: SimTime,
    /// Payload bytes.
    pub payload: Bytes,
}

impl Datagram {
    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }
}

/// A bound datagram endpoint (the simulator's UDP socket).
#[derive(Clone, Debug)]
pub struct Endpoint {
    pub(crate) id: EndpointId,
    pub(crate) port: u16,
    pub(crate) inbound: VecDeque<Datagram>,
}

impl Endpoint {
    pub(crate) fn new(id: EndpointId, port: u16) -> Self {
        Endpoint {
            id,
            port,
            inbound: VecDeque::new(),
        }
    }

    /// The endpoint's identifier.
    pub fn id(&self) -> EndpointId {
        self.id
    }

    /// The port the endpoint is bound to.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Number of datagrams waiting to be received.
    pub fn pending(&self) -> usize {
        self.inbound.len()
    }

    /// Pops the oldest delivered datagram, if any.
    pub fn receive(&mut self) -> Option<Datagram> {
        self.inbound.pop_front()
    }

    /// Discards all pending datagrams (used when an adapter resets the SUL).
    pub fn clear(&mut self) {
        self.inbound.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_queues_in_fifo_order() {
        let mut ep = Endpoint::new(EndpointId(0), 4433);
        assert_eq!(ep.port(), 4433);
        assert_eq!(ep.id().index(), 0);
        assert_eq!(ep.pending(), 0);
        for i in 0..3u8 {
            ep.inbound.push_back(Datagram {
                source_port: 1000,
                destination_port: 4433,
                delivered_at: SimTime::from_micros(i as u64),
                payload: Bytes::from(vec![i]),
            });
        }
        assert_eq!(ep.pending(), 3);
        assert_eq!(ep.receive().unwrap().payload[0], 0);
        assert_eq!(ep.receive().unwrap().payload[0], 1);
        assert_eq!(ep.receive().unwrap().payload[0], 2);
        assert_eq!(ep.pending(), 0);
        assert!(ep.receive().is_none());
    }

    #[test]
    fn clear_discards_pending() {
        let mut ep = Endpoint::new(EndpointId(1), 1);
        ep.inbound.push_back(Datagram {
            source_port: 2,
            destination_port: 1,
            delivered_at: SimTime::ZERO,
            payload: Bytes::from_static(b"x"),
        });
        ep.clear();
        assert_eq!(ep.pending(), 0);
    }

    #[test]
    fn datagram_helpers() {
        let d = Datagram {
            source_port: 1,
            destination_port: 2,
            delivered_at: SimTime::ZERO,
            payload: Bytes::from_static(b"abc"),
        };
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
        assert_eq!(EndpointId(7).to_string(), "ep7");
    }
}

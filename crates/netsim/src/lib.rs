//! # prognosis-netsim
//!
//! A deterministic discrete-event network simulator.  The paper runs its
//! learner against real implementations over UDP sockets inside Docker; this
//! crate provides the equivalent substrate for the simulated
//! implementations: datagram endpoints connected by links with configurable
//! latency, jitter, loss, duplication and reordering, all driven by a
//! virtual clock and a seeded RNG so every experiment is reproducible.
//! A wire-event scope (`Network::begin_wire_scope`) records each scoped
//! datagram's send and fate as `wire:*` events on the event log.
//!
//! The loss/latency knobs matter for one experiment in particular: the
//! nondeterminism check of §5 exists precisely because "environmental events
//! such as latency and packet loss could cause non-determinism to be
//! observed"; experiment E13 sweeps these knobs to measure how many repeated
//! queries the check needs before reaching its confidence threshold.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod endpoint;
pub mod link;
pub mod network;
pub mod time;

pub use endpoint::{Datagram, Endpoint, EndpointId};
pub use link::{Fate, LinkConfig};
pub use network::Network;
pub use time::{SharedClock, SimDuration, SimTime};

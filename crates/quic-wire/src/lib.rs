//! # prognosis-quic-wire
//!
//! The QUIC wire format as used by the paper's QUIC case study (IETF
//! draft-29): variable-length integers, connection IDs, the seven packet
//! types, the twenty frame types, packet-number encoding and packet
//! protection.
//!
//! **Substitution note:** real QUIC protects packets with
//! TLS-1.3-derived AEAD keys and header protection.  Prognosis never looks
//! inside the cryptography — it only needs packets to be readable by the
//! legitimate peer and the key-availability state machine (Initial /
//! Handshake / 1-RTT spaces) to gate which packets an endpoint can process.
//! [`crypto`] therefore implements a deterministic keyed keystream
//! ("simulated AEAD") with the same interface and the same failure
//! behaviour (wrong key ⇒ open fails), which preserves every observable
//! behaviour the learner can see while keeping the stack self-contained.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod connection_id;
pub mod crypto;
pub mod frame;
pub mod packet;
pub mod varint;

pub use connection_id::ConnectionId;
pub use crypto::{EncryptionLevel, Keys};
pub use frame::{Frame, FrameType};
pub use packet::{Packet, PacketHeader, PacketType, RxBuffers};
pub use varint::{read_varint, write_varint, VarIntError};

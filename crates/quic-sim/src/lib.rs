//! # prognosis-quic-sim
//!
//! Simulated QUIC server implementations — the systems under learning of
//! §6.2 — plus the instrumentable reference client the Adapter is built on.
//!
//! Real Prognosis learned models of Cloudflare Quiche, Google QUIC and
//! Facebook mvfst running in Docker, using QUIC-Tracker as the reference
//! implementation.  This crate substitutes in-process servers that speak the
//! wire format of `prognosis-quic-wire` and whose *observable behaviour*
//! reproduces what the paper reports for each implementation, including its
//! defects:
//!
//! * [`profile::ImplementationProfile::google`] — the larger (12-state in
//!   the paper) post-handshake structure with server-side flow-control
//!   blocking, and the Issue-4 defect: the `Maximum Stream Data` field of
//!   `STREAM_DATA_BLOCKED` is hard-coded to 0;
//! * [`profile::ImplementationProfile::quiche`] — the smaller (8-state)
//!   structure without the blocked-stream states;
//! * [`profile::ImplementationProfile::mvfst`] — the Issue-2 defect: after a
//!   protocol-violation close, further packets are answered with a stateless
//!   reset only with probability ≈ 0.82 and with silence otherwise;
//! * [`profile::ImplementationProfile::tracker`] — the reference
//!   implementation, whose client side ([`client::ReferenceQuicClient`]) can
//!   reproduce the Issue-3 defect: the post-Retry Initial is re-sent from a
//!   fresh ephemeral UDP port, so the server's address validation fails.
//!
//! Because the learner is closed-box (it only sees packets), learning these
//! servers exercises exactly the same framework code paths as learning the
//! real implementations would.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod profile;
pub mod server;

/// The wire codec the simulator speaks, re-exported so adapters can name
/// packet and frame types without depending on it directly.
pub use prognosis_quic_wire as wire;

pub use client::ReferenceQuicClient;
pub use profile::{HandshakeStyle, ImplementationProfile};
pub use server::{QuicServer, ServerPhase};

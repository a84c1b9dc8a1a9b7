//! # Prognosis
//!
//! A Rust reproduction of *Prognosis: Closed-Box Analysis of Network
//! Protocol Implementations* (SIGCOMM 2021).
//!
//! This façade crate re-exports the workspace crates under a single name so
//! that examples and downstream users can depend on one crate:
//!
//! * [`automata`] — Mealy machines, equivalence, minimization, DOT export.
//! * [`learner`] — active model learning (L*, TTT) in the MAT framework.
//! * [`synth`] — register-machine synthesis from Oracle-Table traces.
//! * [`netsim`] — deterministic network simulator substrate.
//! * [`tcp`] — the simulated TCP implementation (system under learning).
//! * [`quic_wire`] — QUIC wire format (packets, frames, simulated crypto).
//! * [`quic_sim`] — simulated QUIC implementations (Quiche/Google/mvfst/
//!   Tracker behavioural profiles, including the paper's injected defects).
//! * [`core`] — the Prognosis framework itself: SUL, Adapter, Oracle Table,
//!   nondeterminism check, protocol bindings and the learning pipeline.
//! * [`analysis`] — model diffing, property checking and reports.
//! * [`campaign`] — DAG-scheduled differential-learning campaigns over a
//!   shared versioned observation cache.
//! * [`events`] — the streaming event-log spine: `EventSink`, rotating
//!   JSONL `EventLog` writer, and log analysis.
//!
//! See `examples/quickstart.rs` for an end-to-end tour.

#![forbid(unsafe_code)]

pub use prognosis_analysis as analysis;
pub use prognosis_automata as automata;
pub use prognosis_campaign as campaign;
pub use prognosis_core as core;
pub use prognosis_events as events;
pub use prognosis_learner as learner;
pub use prognosis_netsim as netsim;
pub use prognosis_quic_sim as quic_sim;
pub use prognosis_quic_wire as quic_wire;
pub use prognosis_synth as synth;
pub use prognosis_tcp as tcp;

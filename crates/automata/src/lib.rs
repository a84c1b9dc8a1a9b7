//! # prognosis-automata
//!
//! Finite-state models used throughout the Prognosis framework: abstract
//! alphabets and words and Mealy machines (the models Prognosis learns),
//! together with the algorithms the learning and analysis modules rely on:
//!
//! * partition-refinement minimization,
//! * product construction and equivalence checking with shortest
//!   distinguishing words,
//! * access sequences, characterizing sets and transition covers
//!   (used by the W-method / Wp-method equivalence oracles),
//! * one breadth-first transition walk ([`walk`]) behind every shortest
//!   witness: distinguishing words, access sequences, diffs and property
//!   witnesses,
//! * Graphviz (DOT) export mirroring the figures in the paper's appendix.
//!
//! The types here are deliberately protocol-agnostic: a symbol is just an
//! interned token.  Protocol-specific structure (QUIC packet types, TCP
//! flags, parameter slots) lives in `prognosis-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod alphabet;
pub mod dot;
pub mod equivalence;
pub mod interner;
pub mod known;
pub mod mealy;
pub mod minimize;
pub mod walk;
pub mod word;

pub use alphabet::{Alphabet, Symbol};
pub use equivalence::{find_counterexample, machines_equivalent};
pub use interner::{IWord, Interner, SymbolId};
pub use mealy::{MealyBuilder, MealyMachine, StateId};
pub use word::{InputWord, IoTrace, OutputWord};

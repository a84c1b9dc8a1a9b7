//! # prognosis-learner
//!
//! Active model learning for Mealy machines in the Minimally Adequate
//! Teacher (MAT) framework of §4.1: a learner that may ask
//!
//! * **membership queries** — "what does the SUL output on this input
//!   word?", answered by a [`MembershipOracle`], and
//! * **equivalence queries** — "is this hypothesis machine equivalent to the
//!   SUL?", answered (heuristically) by an [`EquivalenceOracle`].
//!
//! Two learners are provided:
//!
//! * [`lstar::LStarLearner`] — the classic observation-table algorithm
//!   (Angluin's L*, adapted to Mealy machines, with Maler–Pnueli
//!   counterexample handling), and
//! * [`dtree::DTreeLearner`] — a discrimination-tree learner with
//!   Rivest–Schapire counterexample decomposition.  This is the family the
//!   TTT algorithm used by the paper (via LearnLib) belongs to; it asks far
//!   fewer membership queries than L* on protocol-sized alphabets.
//!
//! Equivalence oracles live in [`eq_oracles`]: conformance testing via the
//! W-method, randomized word testing, and a simulator oracle for tests where
//! the target machine is known.  Query accounting is tracked by
//! [`stats::LearningStats`] and surfaced in the experiment harness (the
//! paper reports 4,726 membership queries for TCP and 24,301 / 12,301 for
//! the two QUIC implementations).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod dtree;
pub mod eq_oracles;
pub mod journal;
pub mod lstar;
pub mod oracle;
pub mod stats;
pub mod trie;

pub use cache::{CacheError, StoreKey};
pub use dtree::{DTreeLearner, SiftStrategy};
pub use eq_oracles::{RandomWordOracle, SimulatorOracle, WMethodOracle};
pub use journal::{Checkout, JournalStore, RetainPolicy, StoreFormat};
pub use lstar::LStarLearner;
pub use oracle::{CacheOracle, EquivalenceOracle, MachineOracle, MembershipOracle, QueryPhase};
pub use stats::LearningStats;
pub use trie::{PathCoverage, PrefixTrie, TrieDivergence, TrieMark};

use prognosis_automata::mealy::MealyMachine;

/// The outcome of a complete learning run.
#[derive(Clone, Debug)]
pub struct LearningResult {
    /// The final hypothesis, equivalent to the SUL as far as the equivalence
    /// oracle could tell.
    pub model: MealyMachine,
    /// Query statistics accumulated over the run.
    pub stats: LearningStats,
}

/// A learner that can be driven to completion against a membership oracle
/// and an equivalence oracle.
pub trait Learner {
    /// Runs the learning loop to completion: refine the hypothesis with
    /// membership queries, ask an equivalence query, process the
    /// counterexample, repeat until no counterexample is found.
    fn learn(
        &mut self,
        membership: &mut dyn MembershipOracle,
        equivalence: &mut dyn EquivalenceOracle,
    ) -> LearningResult;
}

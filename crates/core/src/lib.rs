//! # prognosis-core
//!
//! The Prognosis framework (§2–§3 of the paper): the part that turns a
//! closed-box protocol implementation into something a model learner can
//! query, and that orchestrates learning, synthesis and analysis.
//!
//! * [`sul`] — the [`sul::Sul`] abstraction: a system that can be stepped
//!   with abstract input symbols and reset between queries, plus the bridge
//!   that exposes any `Sul` as a learner membership oracle.
//! * [`oracle_table`] — the Oracle Table of §3.2 (property 4): the cache of
//!   abstract-trace / concrete-trace pairs that feeds the synthesis module.
//! * [`nondeterminism`] — the repeated-query nondeterminism check of §5,
//!   which both protects the learner from environmental noise and is itself
//!   a bug-finding analysis (Issue 2).
//! * [`tcp_adapter`] / [`quic_adapter`] — the protocol bindings: adapters
//!   built on the instrumented reference implementations from
//!   `prognosis-tcp` and `prognosis-quic-sim`, enforcing properties (1)–(5)
//!   of §3.2.
//! * [`session`] — the event-driven session engine: [`session::SessionSul`]
//!   is a non-blocking query session polled against a virtual clock, and
//!   [`session::SessionScheduler`], the clock's only owner, multiplexes
//!   many in-flight sessions on one thread, advancing the clock to the
//!   next deadline instead of sleeping.
//! * [`net_transport`] — the impaired-network session transport:
//!   [`net_transport::NetworkedSession`] routes each multiplexed session's
//!   concrete packets through one shared `netsim` network per worker, so
//!   loss, jitter, reordering and duplication apply to in-flight learning
//!   queries; lost packets resolve to the adapter's timeout symbol at the
//!   step deadline.
//! * [`parallel`] — the parallel membership-query engine: a
//!   [`session::SessionSulFactory`] mints independent query sessions and
//!   [`parallel::ParallelSulOracle`] runs a session scheduler per worker,
//!   dealing query `k` of its dispatch stream to worker `k mod N`; worker
//!   0 runs on the learner's thread and workers `1..N` are helper threads
//!   the engine spawns, owns and joins, which fork-join each batch.
//!   Models and statistics are identical to a sequential run for any
//!   `(workers, max_inflight)`, and virtual time repeats run to run.
//! * [`pipeline`] — end-to-end orchestration: learn a Mealy model of a SUL
//!   (sequentially or with parallel session workers), optionally synthesize
//!   a register machine from the Oracle Table, and hand both to the
//!   analysis crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod latency;
mod memo;
pub mod net_transport;
pub mod nondeterminism;
pub mod oracle_table;
pub mod parallel;
pub mod pipeline;
pub mod quic_adapter;
pub mod session;
pub mod sul;
pub mod tcp_adapter;

pub use latency::{LatencySul, LatencySulFactory};
pub use net_transport::{
    LinkConfig, Network, NetworkedSession, NetworkedSessionFactory, WireRequest, WireSul,
};
pub use nondeterminism::{check_multiplexed, NondeterminismChecker, NondeterminismReport};
pub use oracle_table::{HasOracleTable, OracleTable};
pub use parallel::{EngineShutdown, ParallelSulOracle};
pub use pipeline::{
    learn_model, learn_model_parallel, LearnConfig, LearnError, LearnedModel, ParallelLearnOutcome,
    SeededLearnOutcome,
};
pub use quic_adapter::{quic_alphabet, quic_data_alphabet, QuicSul, QuicSulFactory};
pub use session::{
    BlockingSession, BlockingSessionFactory, EngineStats, SchedulerStats, SessionPoll,
    SessionScheduler, SessionSul, SessionSulFactory, SimDuration, SimTime, TimedSession, TimedSul,
};
pub use sul::{replay_query, w_method_failures, Sul, SulFactory, SulMembershipOracle, SulStats};
pub use tcp_adapter::{tcp_alphabet, TcpSul, TcpSulFactory};

//! # prognosis-campaign
//!
//! Fleet-scale differential-learning campaigns: turn a
//! {protocol} × {implementation profile} × {version} × {impairment point}
//! matrix into a dependency DAG of `Learn` / `Diff` / `PropertyCheck` /
//! `Report` tasks and execute it over **one shared, versioned observation
//! cache**, each learn task on a session engine of its own.
//!
//! * [`dag`] — the generic task graph with validation (duplicate ids,
//!   dangling/self dependencies and cycles are rejected before any engine
//!   time is spent);
//! * [`spec`] — the declarative campaign matrix ([`spec::CampaignSpec`]),
//!   lowered into the DAG; baseline edges express cross-version cache
//!   priming, which is how two versions of one implementation share warm
//!   observations soundly (the sibling's query words are *replayed against
//!   this version's own SUL*, so divergent behaviour surfaces as findings
//!   instead of corrupting the cache);
//! * [`runner`] — the executor: task workers drain the ready set (diffs
//!   and checks fan out as upstream learns complete — no global barrier),
//!   each learn task runs its own session engine and owns its helper
//!   threads, and finished observations
//!   append their deltas to a shared
//!   [`prognosis_learner::journal::JournalStore`] under a per-path writer
//!   guard;
//! * [`report`] — the machine-readable result, assembled in spec order
//!   with no wall-clock anywhere: the same spec yields a byte-identical
//!   [`report::CampaignReport::canonical_json`] at any task-worker count
//!   or schedule seed;
//! * [`progress`] — the live one-line status repaint, suppressed when
//!   stdout is not a TTY.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dag;
pub mod progress;
pub mod report;
pub mod runner;
pub mod spec;

pub use dag::{GraphError, TaskGraph, TaskNode};
pub use progress::{Progress, ProgressSink};
pub use report::{model_digest, CampaignReport, CellReport, CheckReport};
pub use runner::{run_campaign, CampaignError, RunnerConfig};
pub use spec::{
    CampaignSpec, CellSpec, CheckSpec, DiffSpec, Impairment, Protocol, SpecError, TaskKind,
};

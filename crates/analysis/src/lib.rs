//! # prognosis-analysis
//!
//! The analysis module of §5: everything Prognosis does with a model once
//! it has been learned.
//!
//! * [`comparison`] — cross-implementation equivalence checking and
//!   behavioural diffing with concrete distinguishing traces (the technique
//!   behind Issues 1 and 3);
//! * [`model_diff`] — the labelled diff API layered on [`comparison`]:
//!   one [`model_diff::ModelDiff`] value shared by the examples and the
//!   campaign runner's `Diff` tasks, rendering identically everywhere;
//! * [`properties`] — safety-property checking over learned Mealy machines
//!   ("after a CONNECTION_CLOSE output the server never sends STREAM data"),
//!   with witness traces for violations;
//! * [`trace_count`] — the trace-space-reduction statistics of §6.2.2
//!   (329,554,456 candidate traces vs ~1,210 model traces);
//! * [`report`] — plain-text experiment reports used by the `exp_*`
//!   binaries in `prognosis-bench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod comparison;
pub mod model_diff;
pub mod properties;
pub mod report;
pub mod trace_count;

pub use comparison::{behavioural_diff, compare_models, DiffEntry, ModelComparison};
pub use model_diff::{diff_models, ModelDiff};
pub use properties::{PropertyCheck, SafetyProperty};
pub use report::Report;
pub use trace_count::TraceReduction;

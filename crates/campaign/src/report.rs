//! The machine-readable campaign report.
//!
//! A finished campaign serializes to one JSON document assembled in *spec
//! order* — cells, diffs and checks appear exactly as the spec listed
//! them, never in completion order — and every canonical field is derived
//! from query counts or model structure, never wall-clock or virtual
//! makespan (multi-worker engines interleave in-flight sessions by real
//! thread scheduling, so virtual elapsed time is timing telemetry, kept
//! out of the canonical rendering).  Re-running the same spec at any
//! engine size, task-worker count or schedule seed therefore yields a
//! byte-identical [`CampaignReport::canonical_json`]; the E21 experiment
//! and the schedule-independence proptest assert exactly that.

use prognosis_analysis::model_diff::ModelDiff;
use prognosis_analysis::properties::{PropertyCheck, SafetyProperty};
use prognosis_automata::mealy::MealyMachine;
use prognosis_events::json::{self, Value};
use prognosis_learner::trie::TrieDivergence;

/// FNV-1a digest of a Mealy machine's transition structure.  The campaign
/// report carries this instead of the machine itself: two digests match
/// exactly when the machines are bit-identical (same state numbering,
/// transitions and outputs), which is the determinism contract the
/// campaign asserts across engine shapes.
pub fn model_digest(machine: &MealyMachine) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
    };
    eat(&(machine.num_states() as u64).to_le_bytes());
    eat(&(machine.initial_state() as u64).to_le_bytes());
    for (from, input, output, to) in machine.transitions() {
        eat(&(from as u64).to_le_bytes());
        eat(input.as_str().as_bytes());
        eat(&[0]);
        eat(output.as_str().as_bytes());
        eat(&[0]);
        eat(&(to as u64).to_le_bytes());
    }
    hash
}

/// Per-cell results: model shape, query costs, cache accounting and
/// cross-version findings.
#[derive(Clone, Debug)]
pub struct CellReport {
    /// Cell id from the spec.
    pub id: String,
    /// Protocol label (`tcp` / `quic`).
    pub protocol: String,
    /// Implementation profile name (QUIC cells; empty for TCP).
    pub profile: String,
    /// Implementation version label.
    pub version: String,
    /// Impairment label, empty for in-process cells.
    pub impairment: String,
    /// States of the learned model.
    pub states: usize,
    /// Transitions of the learned model.
    pub transitions: usize,
    /// FNV-1a digest of the learned model (see [`model_digest`]).
    pub model_digest: u64,
    /// Total membership queries the learner asked.
    pub membership_queries: u64,
    /// Equivalence test words executed.
    pub equivalence_tests: u64,
    /// Fresh symbols the SUL actually consumed.
    pub fresh_symbols: u64,
    /// Distinct queries forwarded past the cache (prime + learn misses).
    pub distinct_queries: u64,
    /// Words replayed from the baseline cell's observations before
    /// learning started (0 without a baseline).
    pub primed_words: u64,
    /// Distinct queries answered during priming.
    pub prime_misses: u64,
    /// Distinct queries answered after priming — what the primed cache
    /// did not cover.
    pub learn_misses: u64,
    /// `1 − learn_misses / distinct_queries`: the fraction of this cell's
    /// fresh distinct queries already settled by the cross-version priming
    /// batch.  1.0 for a fully covered (or fully warm) cell.
    pub cache_hit_rate: f64,
    /// Virtual makespan of the learn, in simulated microseconds.  With
    /// more than one engine worker the interleaving of in-flight sessions
    /// (and with it the virtual event order) follows real thread
    /// scheduling, so this field is *excluded* from the canonical JSON —
    /// it is timing telemetry, not part of the determinism surface.
    pub virtual_elapsed_micros: u64,
    /// Whether the cell's observations entered the shared cache (false
    /// for uncacheable SULs — impaired links, probabilistic profiles).
    pub cacheable: bool,
    /// Shortest cached inputs on which this cell's answers diverge from
    /// its baseline's — the cross-version regression findings.
    pub divergences: Vec<TrieDivergence>,
}

/// One property-check result, tied back to its cell.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// Cell id the property was checked against.
    pub cell: String,
    /// The outcome.
    pub check: PropertyCheck,
}

/// The complete campaign result, ordered as the spec was written.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Campaign name from the spec.
    pub name: String,
    /// One entry per spec cell, in spec order.
    pub cells: Vec<CellReport>,
    /// One entry per spec diff, in spec order.
    pub diffs: Vec<ModelDiff>,
    /// One entry per spec check, in spec order.
    pub checks: Vec<CheckReport>,
}

fn property_label(property: &SafetyProperty) -> String {
    match property {
        SafetyProperty::NeverOutput { forbidden } => format!("never_output({forbidden})"),
        SafetyProperty::NeverAfter { trigger, forbidden } => {
            format!("never_after({trigger} => {forbidden})")
        }
    }
}

impl CampaignReport {
    /// Total distinguishing traces across all diff entries.
    pub fn diff_findings(&self) -> usize {
        self.diffs.iter().map(|d| d.diffs.len()).sum()
    }

    /// Total cross-version divergences across all cells.
    pub fn divergence_findings(&self) -> usize {
        self.cells.iter().map(|c| c.divergences.len()).sum()
    }

    /// Property checks that failed.
    pub fn violated_checks(&self) -> usize {
        self.checks.iter().filter(|c| !c.check.holds).count()
    }

    /// Largest per-cell virtual makespan — the campaign's critical-path
    /// lower bound in simulated time.
    pub fn max_virtual_elapsed_micros(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| c.virtual_elapsed_micros)
            .max()
            .unwrap_or(0)
    }

    /// The report as an ordered JSON value.  Spec order throughout, no
    /// wall-clock and no virtual makespan anywhere: this is the
    /// determinism surface.
    pub fn to_json(&self) -> Value {
        let cells = self
            .cells
            .iter()
            .map(|c| {
                Value::Map(vec![
                    ("id".into(), Value::Str(c.id.clone())),
                    ("protocol".into(), Value::Str(c.protocol.clone())),
                    ("profile".into(), Value::Str(c.profile.clone())),
                    ("version".into(), Value::Str(c.version.clone())),
                    ("impairment".into(), Value::Str(c.impairment.clone())),
                    ("states".into(), Value::U64(c.states as u64)),
                    ("transitions".into(), Value::U64(c.transitions as u64)),
                    (
                        "model_digest".into(),
                        Value::Str(format!("{:016x}", c.model_digest)),
                    ),
                    (
                        "membership_queries".into(),
                        Value::U64(c.membership_queries),
                    ),
                    ("equivalence_tests".into(), Value::U64(c.equivalence_tests)),
                    ("fresh_symbols".into(), Value::U64(c.fresh_symbols)),
                    ("distinct_queries".into(), Value::U64(c.distinct_queries)),
                    ("primed_words".into(), Value::U64(c.primed_words)),
                    ("prime_misses".into(), Value::U64(c.prime_misses)),
                    ("learn_misses".into(), Value::U64(c.learn_misses)),
                    ("cache_hit_rate".into(), Value::F64(c.cache_hit_rate)),
                    ("cacheable".into(), Value::Bool(c.cacheable)),
                    (
                        "divergences".into(),
                        Value::Seq(
                            c.divergences
                                .iter()
                                .map(|d| {
                                    Value::Map(vec![
                                        ("input".into(), Value::Str(d.input.to_string())),
                                        ("left".into(), Value::Str(d.left_output.to_string())),
                                        ("right".into(), Value::Str(d.right_output.to_string())),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let diffs = self
            .diffs
            .iter()
            .map(|d| {
                Value::Map(vec![
                    ("left".into(), Value::Str(d.left_label.clone())),
                    ("right".into(), Value::Str(d.right_label.clone())),
                    ("left_states".into(), Value::U64(d.left_states as u64)),
                    ("right_states".into(), Value::U64(d.right_states as u64)),
                    ("equivalent".into(), Value::Bool(d.equivalent)),
                    (
                        "distinguishing".into(),
                        Value::Seq(
                            d.diffs
                                .iter()
                                .map(|e| {
                                    Value::Map(vec![
                                        ("input".into(), Value::Str(e.input.to_string())),
                                        ("left_output".into(), Value::Str(e.left_output.join("·"))),
                                        (
                                            "right_output".into(),
                                            Value::Str(e.right_output.join("·")),
                                        ),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let checks = self
            .checks
            .iter()
            .map(|c| {
                Value::Map(vec![
                    ("cell".into(), Value::Str(c.cell.clone())),
                    (
                        "property".into(),
                        Value::Str(property_label(&c.check.property)),
                    ),
                    ("holds".into(), Value::Bool(c.check.holds)),
                    (
                        "witness".into(),
                        match &c.check.witness {
                            Some(w) => Value::Str(w.to_string()),
                            None => Value::Null,
                        },
                    ),
                ])
            })
            .collect();
        Value::Map(vec![
            ("campaign".into(), Value::Str(self.name.clone())),
            ("cells".into(), Value::Seq(cells)),
            ("diffs".into(), Value::Seq(diffs)),
            ("checks".into(), Value::Seq(checks)),
            (
                "totals".into(),
                Value::Map(vec![
                    ("cells".into(), Value::U64(self.cells.len() as u64)),
                    (
                        "diff_findings".into(),
                        Value::U64(self.diff_findings() as u64),
                    ),
                    (
                        "divergence_findings".into(),
                        Value::U64(self.divergence_findings() as u64),
                    ),
                    (
                        "violated_checks".into(),
                        Value::U64(self.violated_checks() as u64),
                    ),
                ]),
            ),
        ])
    }

    /// The canonical rendering: pretty JSON of [`CampaignReport::to_json`].
    /// Byte-identical across engine sizes, task-worker counts and schedule
    /// seeds for the same spec.
    pub fn canonical_json(&self) -> String {
        json::render_pretty(&self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prognosis_automata::known;

    #[test]
    fn model_digest_is_structure_sensitive_and_stable() {
        let a = known::counter(3);
        assert_eq!(model_digest(&a), model_digest(&known::counter(3)));
        assert_ne!(model_digest(&a), model_digest(&known::counter(4)));
        assert_ne!(model_digest(&a), model_digest(&known::toggle()));
    }

    #[test]
    fn an_empty_report_renders_spec_ordered_totals() {
        let report = CampaignReport {
            name: "t".into(),
            cells: Vec::new(),
            diffs: Vec::new(),
            checks: Vec::new(),
        };
        let json = report.canonical_json();
        assert!(json.contains("\"campaign\""));
        assert!(json.contains("\"totals\""));
        assert_eq!(report.diff_findings(), 0);
        assert_eq!(report.max_virtual_elapsed_micros(), 0);
    }
}

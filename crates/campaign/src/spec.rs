//! Campaign specifications: the {protocol} × {implementation profile} ×
//! {version} × {impairment point} matrix, plus the diffs and property
//! checks to run over the learned models.
//!
//! A [`CampaignSpec`] is declarative: cells say *what* to learn, diff and
//! check entries say *what* to compare, and [`CampaignSpec::build_graph`]
//! lowers the whole thing into the dependency DAG the runner executes
//! (learn tasks, then — as each upstream learn completes, with no global
//! barrier — the diff and property-check tasks that need it, then one
//! report task).  [`CampaignSpec::validate`] rejects malformed specs
//! before any engine time is spent.

use crate::dag::{GraphError, TaskGraph};
use prognosis_analysis::properties::SafetyProperty;
use prognosis_automata::alphabet::Alphabet;
use prognosis_core::pipeline::LearnConfig;
use prognosis_core::quic_adapter::quic_alphabet;
use prognosis_core::tcp_adapter::tcp_alphabet;
use prognosis_quic_sim::profile::ImplementationProfile;
use std::fmt;

/// Which protocol binding a cell learns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protocol {
    /// The simulated TCP server (`prognosis-tcp`).
    Tcp,
    /// A simulated QUIC implementation profile (`prognosis-quic-sim`).
    Quic,
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Protocol::Tcp => write!(f, "tcp"),
            Protocol::Quic => write!(f, "quic"),
        }
    }
}

/// A network-impairment point: the cell learns through a `netsim` link
/// with these characteristics instead of in-process.  Impaired SULs are
/// uncacheable by design (answers depend on link noise), so impaired cells
/// neither read nor write the shared observation cache.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Impairment {
    /// Base one-way latency in microseconds.
    pub latency_us: u64,
    /// Maximum additional uniform jitter in microseconds.
    pub jitter_us: u64,
    /// Datagram loss probability in `[0, 1]`.
    pub loss: f64,
    /// Seed of the link's noise source.
    pub noise_seed: u64,
}

impl Impairment {
    /// A clean fixed-latency link (no jitter, no loss).
    pub fn latency(latency_us: u64) -> Self {
        Impairment {
            latency_us,
            jitter_us: 0,
            loss: 0.0,
            noise_seed: 23,
        }
    }

    /// Returns the impairment with the given loss probability.
    pub fn with_loss(mut self, loss: f64) -> Self {
        self.loss = loss;
        self
    }

    /// Returns the impairment with the given jitter bound.
    pub fn with_jitter(mut self, jitter_us: u64) -> Self {
        self.jitter_us = jitter_us;
        self
    }

    /// Human-readable label used in reports.
    pub fn label(&self) -> String {
        format!(
            "link({}us+{}us, loss {:.0}%)",
            self.latency_us,
            self.jitter_us,
            self.loss * 100.0
        )
    }
}

/// One matrix cell: a (protocol, profile, version, impairment) point whose
/// model the campaign learns.
#[derive(Clone, Debug)]
pub struct CellSpec {
    /// Unique cell id, used in diff/check references and reports.
    pub id: String,
    /// Protocol binding.
    pub protocol: Protocol,
    /// Implementation profile (QUIC cells only; `None` for TCP).
    pub profile: Option<ImplementationProfile>,
    /// Whether the QUIC cell's reference client carries the Issue-3 buggy
    /// retry behaviour — the knob that distinguishes "versions" of the
    /// tracker client.
    pub buggy_retry_client: bool,
    /// Implementation version label — the third axis of the shared cache
    /// key.  Cells with equal SUL behaviour but different versions keep
    /// separate cache entries, and cross-version divergences between a
    /// cell and its baseline surface as regression findings.
    pub version: String,
    /// SUL seed (QUIC profiles take a deterministic seed).
    pub seed: u64,
    /// Learning alphabet override; `None` uses the protocol's default
    /// (`tcp_alphabet` / `quic_alphabet`).
    pub alphabet: Option<Vec<String>>,
    /// Optional impairment point; `None` learns in-process.
    pub impairment: Option<Impairment>,
    /// Id of the cell whose finished observations *prime* this cell's
    /// learn (a cross-version warm start): the baseline's terminal query
    /// words are replayed against this cell's own SUL before learning, so
    /// shared behaviour is answered in one saturated batch and divergent
    /// behaviour is reported.  Adds a DAG edge — this learn waits for the
    /// baseline's.
    pub baseline: Option<String>,
}

impl CellSpec {
    /// A TCP cell.
    pub fn tcp(id: impl Into<String>, version: impl Into<String>) -> Self {
        CellSpec {
            id: id.into(),
            protocol: Protocol::Tcp,
            profile: None,
            buggy_retry_client: false,
            version: version.into(),
            seed: 0,
            alphabet: None,
            impairment: None,
            baseline: None,
        }
    }

    /// A QUIC cell for the given implementation profile.
    pub fn quic(
        id: impl Into<String>,
        version: impl Into<String>,
        profile: ImplementationProfile,
        seed: u64,
    ) -> Self {
        CellSpec {
            id: id.into(),
            protocol: Protocol::Quic,
            profile: Some(profile),
            buggy_retry_client: false,
            version: version.into(),
            seed,
            alphabet: None,
            impairment: None,
            baseline: None,
        }
    }

    /// Returns the cell with a custom learning alphabet.
    pub fn with_alphabet<S: Into<String>>(mut self, symbols: impl IntoIterator<Item = S>) -> Self {
        self.alphabet = Some(symbols.into_iter().map(Into::into).collect());
        self
    }

    /// Returns the cell learned through an impaired link.
    pub fn with_impairment(mut self, impairment: Impairment) -> Self {
        self.impairment = Some(impairment);
        self
    }

    /// Returns the cell primed by `baseline`'s observations.
    pub fn with_baseline(mut self, baseline: impl Into<String>) -> Self {
        self.baseline = Some(baseline.into());
        self
    }

    /// Returns the cell with the Issue-3 buggy retry client enabled.
    pub fn with_buggy_retry_client(mut self) -> Self {
        self.buggy_retry_client = true;
        self
    }

    /// The effective learning alphabet of this cell.
    pub fn effective_alphabet(&self) -> Alphabet {
        match &self.alphabet {
            Some(symbols) => Alphabet::from_symbols(symbols.iter().map(String::as_str)),
            None => match self.protocol {
                Protocol::Tcp => tcp_alphabet(),
                Protocol::Quic => quic_alphabet(),
            },
        }
    }
}

/// A model-diff entry: compare the learned models of two cells.
#[derive(Clone, Debug)]
pub struct DiffSpec {
    /// Left cell id.
    pub left: String,
    /// Right cell id.
    pub right: String,
}

/// A property-check entry: check one safety property against one cell's
/// learned model.
#[derive(Clone, Debug)]
pub struct CheckSpec {
    /// Cell id whose model is checked.
    pub cell: String,
    /// The property.
    pub property: SafetyProperty,
}

/// What one campaign task does.  Payload of the lowered [`TaskGraph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskKind {
    /// Learn the model of `spec.cells[i]`.
    Learn(usize),
    /// Compute `spec.diffs[i]` from its two finished models.
    Diff(usize),
    /// Check `spec.checks[i]` against its finished model.
    Check(usize),
    /// Assemble the campaign report from every finished task.
    Report,
}

/// A complete campaign specification.
#[derive(Clone, Debug)]
pub struct CampaignSpec {
    /// Campaign name, echoed in the report.
    pub name: String,
    /// The matrix cells to learn.
    pub cells: Vec<CellSpec>,
    /// Model diffs to compute between finished cells.
    pub diffs: Vec<DiffSpec>,
    /// Safety properties to check against finished cells.
    pub checks: Vec<CheckSpec>,
    /// The per-cell learning configuration (`workers × max_inflight` is
    /// *each* learn task's engine shape: worker 0 runs on the task's
    /// thread, the other `workers − 1` on helper threads its engine owns;
    /// `cache_path`/`warm_start` here are ignored — the campaign's
    /// shared versioned store handles persistence).
    pub learn: LearnConfig,
    /// Maximum distinguishing traces per diff entry (each a shortest
    /// witness of a different product transition).
    pub max_diffs: usize,
    /// Where the shared versioned observation cache persists across
    /// campaign runs (`None` keeps it in-memory for the run).
    pub cache_path: Option<String>,
}

impl CampaignSpec {
    /// A named spec with no cells yet and default learning settings.
    pub fn new(name: impl Into<String>) -> Self {
        CampaignSpec {
            name: name.into(),
            cells: Vec::new(),
            diffs: Vec::new(),
            checks: Vec::new(),
            learn: LearnConfig::default(),
            max_diffs: 3,
            cache_path: None,
        }
    }

    /// Appends a cell.
    pub fn cell(mut self, cell: CellSpec) -> Self {
        self.cells.push(cell);
        self
    }

    /// Appends a diff between two cell ids.
    pub fn diff(mut self, left: impl Into<String>, right: impl Into<String>) -> Self {
        self.diffs.push(DiffSpec {
            left: left.into(),
            right: right.into(),
        });
        self
    }

    /// Appends a property check against a cell id.
    pub fn check(mut self, cell: impl Into<String>, property: SafetyProperty) -> Self {
        self.checks.push(CheckSpec {
            cell: cell.into(),
            property,
        });
        self
    }

    /// Returns the spec with the given per-cell learning configuration.
    pub fn with_learn(mut self, learn: LearnConfig) -> Self {
        self.learn = learn;
        self
    }

    /// Returns the spec persisting the shared cache at `path`.
    pub fn with_cache_path(mut self, path: impl Into<String>) -> Self {
        self.cache_path = Some(path.into());
        self
    }

    /// Index of the cell with this id.
    fn cell_index(&self, id: &str) -> Option<usize> {
        self.cells.iter().position(|c| c.id == id)
    }

    /// Lowers the spec into the task DAG: one `Learn` per cell (needing
    /// its baseline's learn, if any), one `Diff`/`Check` per entry
    /// (needing the learns they read), and a final `Report` needing
    /// everything.
    pub fn build_graph(&self) -> TaskGraph<TaskKind> {
        let mut graph = TaskGraph::new();
        let learn_id = |cell: &str| format!("learn:{cell}");
        for (i, cell) in self.cells.iter().enumerate() {
            let needs: Vec<String> = cell.baseline.iter().map(|b| learn_id(b)).collect();
            graph.add(learn_id(&cell.id), needs, TaskKind::Learn(i));
        }
        let mut upstream: Vec<String> = self.cells.iter().map(|c| learn_id(&c.id)).collect();
        for (i, diff) in self.diffs.iter().enumerate() {
            let id = format!("diff:{}~{}", diff.left, diff.right);
            graph.add(
                id.clone(),
                [learn_id(&diff.left), learn_id(&diff.right)],
                TaskKind::Diff(i),
            );
            upstream.push(id);
        }
        for (i, check) in self.checks.iter().enumerate() {
            let id = format!("check:{i}:{}", check.cell);
            graph.add(id.clone(), [learn_id(&check.cell)], TaskKind::Check(i));
            upstream.push(id);
        }
        graph.add("report", upstream, TaskKind::Report);
        graph
    }

    /// Validates the spec: at least one cell, QUIC cells carry a profile,
    /// diff/check/baseline references resolve, diffed and baselined pairs
    /// share a protocol and an alphabet (their words must be replayable
    /// and comparable), and the lowered DAG is well-formed (unique ids, no
    /// dangling/self dependencies, no baseline cycles).
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.cells.is_empty() {
            return Err(SpecError::NoCells);
        }
        for cell in &self.cells {
            if cell.protocol == Protocol::Quic && cell.profile.is_none() {
                return Err(SpecError::MissingProfile(cell.id.clone()));
            }
            if let Some(baseline) = &cell.baseline {
                let Some(b) = self.cell_index(baseline) else {
                    return Err(SpecError::UnknownCell {
                        referenced_by: format!("cell {}", cell.id),
                        cell: baseline.clone(),
                    });
                };
                let b = &self.cells[b];
                if b.protocol != cell.protocol
                    || b.effective_alphabet() != cell.effective_alphabet()
                {
                    return Err(SpecError::IncompatiblePair {
                        context: format!("baseline of cell {}", cell.id),
                        left: cell.id.clone(),
                        right: baseline.clone(),
                    });
                }
            }
        }
        for diff in &self.diffs {
            for id in [&diff.left, &diff.right] {
                if self.cell_index(id).is_none() {
                    return Err(SpecError::UnknownCell {
                        referenced_by: format!("diff {}~{}", diff.left, diff.right),
                        cell: id.clone(),
                    });
                }
            }
            let l = &self.cells[self.cell_index(&diff.left).unwrap()];
            let r = &self.cells[self.cell_index(&diff.right).unwrap()];
            if l.protocol != r.protocol || l.effective_alphabet() != r.effective_alphabet() {
                return Err(SpecError::IncompatiblePair {
                    context: "diff".to_string(),
                    left: diff.left.clone(),
                    right: diff.right.clone(),
                });
            }
        }
        for check in &self.checks {
            if self.cell_index(&check.cell).is_none() {
                return Err(SpecError::UnknownCell {
                    referenced_by: "property check".to_string(),
                    cell: check.cell.clone(),
                });
            }
        }
        self.build_graph().validate().map_err(SpecError::Graph)?;
        Ok(())
    }
}

/// Why a campaign spec failed validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecError {
    /// The spec has no cells.
    NoCells,
    /// A QUIC cell has no implementation profile.
    MissingProfile(String),
    /// A diff, check or baseline references a cell id that does not exist.
    UnknownCell {
        /// What referenced it.
        referenced_by: String,
        /// The dangling id.
        cell: String,
    },
    /// Two referenced cells mix protocols or alphabets.
    IncompatiblePair {
        /// Where the pair appears (diff / baseline).
        context: String,
        /// Left cell id.
        left: String,
        /// Right cell id.
        right: String,
    },
    /// The lowered task DAG is malformed (duplicate cell ids surface here,
    /// as do baseline cycles).
    Graph(GraphError),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::NoCells => write!(f, "campaign spec has no cells"),
            SpecError::MissingProfile(id) => {
                write!(f, "QUIC cell {id:?} has no implementation profile")
            }
            SpecError::UnknownCell {
                referenced_by,
                cell,
            } => write!(f, "{referenced_by} references unknown cell {cell:?}"),
            SpecError::IncompatiblePair {
                context,
                left,
                right,
            } => write!(
                f,
                "{context} pairs {left:?} with {right:?}, which differ in protocol or alphabet"
            ),
            SpecError::Graph(e) => write!(f, "invalid task graph: {e}"),
        }
    }
}

impl std::error::Error for SpecError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_cell_spec() -> CampaignSpec {
        CampaignSpec::new("t")
            .cell(CellSpec::tcp("a", "v1"))
            .cell(CellSpec::tcp("b", "v2").with_baseline("a"))
    }

    #[test]
    fn a_valid_spec_lowers_to_a_dag_with_report_last() {
        let spec = two_cell_spec()
            .diff("a", "b")
            .check("a", SafetyProperty::never_output("BOOM"));
        spec.validate().unwrap();
        let graph = spec.build_graph();
        assert_eq!(graph.len(), 5, "2 learns + 1 diff + 1 check + report");
        let report = &graph.nodes()[graph.index_of("report").unwrap()];
        assert_eq!(report.needs.len(), 4, "the report waits on everything");
        // The baseline edge is a real dependency.
        let b = &graph.nodes()[graph.index_of("learn:b").unwrap()];
        assert_eq!(b.needs, vec!["learn:a".to_string()]);
    }

    #[test]
    fn dangling_references_are_rejected() {
        assert!(matches!(
            two_cell_spec().diff("a", "ghost").validate(),
            Err(SpecError::UnknownCell { .. })
        ));
        assert!(matches!(
            two_cell_spec()
                .check("ghost", SafetyProperty::never_output("x"))
                .validate(),
            Err(SpecError::UnknownCell { .. })
        ));
        assert!(matches!(
            CampaignSpec::new("t")
                .cell(CellSpec::tcp("a", "v1").with_baseline("ghost"))
                .validate(),
            Err(SpecError::UnknownCell { .. })
        ));
    }

    #[test]
    fn baseline_cycles_and_duplicate_ids_are_rejected_at_the_graph_layer() {
        let cyclic = CampaignSpec::new("t")
            .cell(CellSpec::tcp("a", "v1").with_baseline("b"))
            .cell(CellSpec::tcp("b", "v2").with_baseline("a"));
        assert!(matches!(
            cyclic.validate(),
            Err(SpecError::Graph(GraphError::Cycle(_)))
        ));
        let dup = CampaignSpec::new("t")
            .cell(CellSpec::tcp("a", "v1"))
            .cell(CellSpec::tcp("a", "v2"));
        assert!(matches!(
            dup.validate(),
            Err(SpecError::Graph(GraphError::DuplicateId(_)))
        ));
    }

    #[test]
    fn protocol_and_alphabet_mixes_are_rejected() {
        let spec = CampaignSpec::new("t")
            .cell(CellSpec::tcp("t1", "v1"))
            .cell(CellSpec::quic(
                "q1",
                "v1",
                ImplementationProfile::quiche(),
                3,
            ))
            .diff("t1", "q1");
        assert!(matches!(
            spec.validate(),
            Err(SpecError::IncompatiblePair { .. })
        ));
        let narrowed = CampaignSpec::new("t")
            .cell(CellSpec::tcp("t1", "v1"))
            .cell(CellSpec::tcp("t2", "v1").with_alphabet(["SYN(?,?,0)"]))
            .diff("t1", "t2");
        assert!(matches!(
            narrowed.validate(),
            Err(SpecError::IncompatiblePair { .. })
        ));
        assert!(matches!(
            CampaignSpec::new("t").validate(),
            Err(SpecError::NoCells)
        ));
    }
}

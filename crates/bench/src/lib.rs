//! Experiment implementations for the Prognosis reproduction.
//!
//! Each `exp_*` function regenerates one table, figure or issue of the
//! paper's evaluation (E1–E10, named in its doc comment) or one engine
//! experiment of this reproduction (E14–E24), and returns a [`Report`]
//! that the `exp_*` binary of the same name prints.  The engine
//! experiments learn through one runner ([`Scenario::run`]) and record its
//! fixed-schema rows ([`Run::row`]) through [`record_scenario`].  Keeping
//! the logic in a library makes the experiments callable from the
//! integration tests as well, so CI exercises exactly what the binaries run.

// `deny` rather than the workspace-usual `forbid`: the runner's CPU
// columns and the E23 overhead assertion read the process-CPU clock, whose
// only route is one audited `clock_gettime` FFI call
// (`scenario::process_cpu_seconds`).
#![deny(unsafe_code)]
#![warn(missing_docs)]

use prognosis_analysis::model_diff::diff_models;
use prognosis_analysis::properties::{check_property, SafetyProperty};
use prognosis_analysis::report::Report;
use prognosis_analysis::trace_count::informative_paths;
use prognosis_automata::alphabet::{Alphabet, Symbol};
use prognosis_automata::dot::{to_dot, DotOptions};
use prognosis_automata::mealy::MealyMachine;
use prognosis_automata::word::InputWord;
use prognosis_campaign::{
    run_campaign, CampaignSpec, CellSpec, Impairment, Progress, ProgressSink, RunnerConfig,
};
use prognosis_core::latency::LatencySulFactory;
use prognosis_core::net_transport::{LinkConfig, NetworkedSessionFactory};
use prognosis_core::nondeterminism::{
    check_multiplexed, NondeterminismChecker, NondeterminismConfig,
};
use prognosis_core::pipeline::{
    learn_model, learn_model_parallel, learn_model_parallel_with_events, LearnConfig, LearnedModel,
    SiftStrategy,
};
use prognosis_core::quic_adapter::{quic_alphabet, quic_data_alphabet, QuicSul, QuicSulFactory};
use prognosis_core::session::SimDuration;
use prognosis_core::sul::{w_method_failures, Sul, SulFactory};
use prognosis_core::tcp_adapter::{tcp_alphabet, TcpSul, TcpSulFactory};
use prognosis_events::analyze::scan_log;
use prognosis_events::json::{self, Value};
use prognosis_events::rotate::{EventLog, EventLogConfig};
use prognosis_events::{Event, EventSink};
use prognosis_quic_sim::profile::ImplementationProfile;
use prognosis_synth::synthesis::Synthesizer;
use prognosis_synth::term::TermDomain;
use prognosis_synth::trace::{ConcreteStep, ConcreteTrace};
use std::sync::Arc;

mod scenario;
use scenario::process_cpu_seconds;
pub use scenario::{Run, Scenario, ScenarioFactory, Shape, ROW_KEYS};

/// Emits a `bench:stage` progress event when the experiment has a sink
/// attached (the bench binaries attach a
/// [`prognosis_campaign::ProgressSink`], which repaints the label as the
/// one-line status).
fn stage(events: &Option<Arc<dyn EventSink>>, label: impl Into<String>) {
    if let Some(sink) = events {
        sink.emit(&Event::BenchStage {
            label: label.into(),
        });
    }
}

/// Default learning configuration used by the experiments: enough random
/// equivalence testing to be reliable on the simulated SULs while keeping
/// every experiment under a few seconds.
pub fn default_learn_config() -> LearnConfig {
    LearnConfig {
        seed: 7,
        random_tests: 3_000,
        min_word_len: 2,
        max_word_len: 12,
        ..LearnConfig::default()
    }
}

/// E1 / §6.1: learn the TCP implementation over the seven-symbol alphabet
/// and report model size and query effort (paper: 6 states, 42 transitions,
/// 4,726 membership queries).
pub fn exp_tcp_learning() -> (Report, LearnedModel) {
    let mut sul = TcpSul::with_defaults();
    let learned = learn_model(&mut sul, &tcp_alphabet(), default_learn_config());
    let mut report = Report::new("E1 — TCP model learning (paper §6.1, Fig. 3b, Appendix A.1)");
    report
        .row(
            "paper: states / transitions / membership queries",
            "6 / 42 / 4,726",
        )
        .row("measured: states", learned.model.num_states())
        .row("measured: transitions", learned.model.num_transitions())
        .row(
            "measured: membership queries",
            learned.stats.membership_queries,
        )
        .row(
            "measured: distinct SUL queries (after cache)",
            learned.distinct_queries,
        )
        .row(
            "measured: equivalence queries",
            learned.stats.equivalence_queries,
        )
        .row("measured: counterexamples", learned.stats.counterexamples);
    (report, learned)
}

/// E2 / Fig. 3(c), Fig. 4: synthesize the register behaviour of the TCP
/// handshake (sequence/acknowledgement numbers) from the Oracle Table.
///
/// Learning runs on the batched-parallel engine and synthesis consumes the
/// *merged* worker Oracle Tables
/// ([`prognosis_core::pipeline::ParallelLearnOutcome::merged_oracle_table`]),
/// so every concrete trace any worker collected is available to the solver
/// — the default pipeline shape for parallel runs.
pub fn exp_tcp_synthesis() -> Report {
    // Learn a small model over the handshake-relevant alphabet so the
    // Oracle Table contains clean handshake traces.
    let alphabet = Alphabet::from_symbols(["SYN(?,?,0)", "ACK(?,?,0)", "ACK+PSH(?,?,1)"]);
    let outcome = learn_model_parallel(
        &TcpSulFactory::default(),
        &alphabet,
        default_learn_config().with_workers(2),
    )
    .expect("parallel learning succeeds");
    let skeleton = outcome.learned.model.clone();
    // Workers are reset on shutdown, so their tables are fully flushed.
    let table = outcome.merged_oracle_table();
    // A handful of short, skeleton-consistent traces keeps the enumerative
    // solver fast while still pinning down the register behaviour.
    let candidates = table.to_concrete_traces(|t| t.len() <= 4 && skeleton.accepts_trace(t));
    let positives = select_synthesis_traces(&skeleton, candidates, 8);
    // Registers: srv (our ISN), peer (client sequence); input fields: seq, ack.
    let domain = TermDomain::new(2, 2).with_constant(10_000);
    let synthesizer = Synthesizer::new(
        domain,
        vec!["srv".to_string(), "peer".to_string()],
        vec!["seq".to_string(), "ack".to_string()],
        vec![10_000, 0],
    );
    let mut report = Report::new("E2 — TCP register synthesis (paper §4.3, Fig. 3c / Fig. 4)");
    report
        .row("worker oracle tables merged", outcome.suls.len())
        .row("merged oracle-table entries", table.len())
        .row("oracle-table traces", positives.len())
        .row("skeleton states", skeleton.num_states());
    match synthesizer.synthesize(&skeleton, &positives, &[]) {
        Ok(outcome) => {
            report
                .row("solver nodes explored", outcome.report.solver_nodes)
                .row(
                    "unexercised transitions",
                    outcome.report.unexercised().len(),
                )
                .finding("synthesized machine (paper notation):");
            for line in outcome.machine.render().lines().take(12) {
                report.finding(format!("    {line}"));
            }
        }
        Err(e) => {
            report.finding(format!("synthesis failed: {e}"));
        }
    }
    report
}

/// Canonical, order-independent selection of synthesis input from an
/// Oracle Table: sort the candidate traces, then greedily pick those that
/// exercise skeleton transitions not yet covered, topping up with the
/// shortest remaining traces.  The result depends only on the *set* of
/// recorded traces — not on table order — so sequential and merged-
/// parallel Oracle Tables (any worker count) feed the solver identically.
fn select_synthesis_traces(
    skeleton: &MealyMachine,
    mut candidates: Vec<ConcreteTrace>,
    limit: usize,
) -> Vec<ConcreteTrace> {
    use std::collections::BTreeSet;
    candidates.sort_by(|a, b| {
        (a.abstract_trace.len(), &a.abstract_trace.input)
            .cmp(&(b.abstract_trace.len(), &b.abstract_trace.input))
    });
    candidates.dedup_by(|a, b| a.abstract_trace == b.abstract_trace);
    let transitions_of = |trace: &ConcreteTrace| {
        let mut state = skeleton.initial_state();
        let mut seen = BTreeSet::new();
        for (input, _) in trace.abstract_trace.steps() {
            match skeleton.step(state, input) {
                Ok((next, _)) => {
                    seen.insert((state, input.clone()));
                    state = next;
                }
                Err(_) => break,
            }
        }
        seen
    };
    let mut covered: BTreeSet<_> = BTreeSet::new();
    let mut selected = Vec::new();
    let mut rest = Vec::new();
    for trace in candidates {
        if selected.len() >= limit {
            break;
        }
        let transitions = transitions_of(&trace);
        if transitions.iter().any(|t| !covered.contains(t)) {
            covered.extend(transitions);
            selected.push(trace);
        } else {
            rest.push(trace);
        }
    }
    let missing = limit.saturating_sub(selected.len());
    selected.extend(rest.into_iter().take(missing));
    selected
}

/// Learns one QUIC implementation profile over the full 7-symbol alphabet.
pub fn learn_quic_profile(profile: ImplementationProfile, seed: u64) -> (LearnedModel, QuicSul) {
    let mut sul = QuicSul::new(profile, seed);
    let learned = learn_model(&mut sul, &quic_alphabet(), default_learn_config());
    (learned, sul)
}

/// The largest extra-state bound `k ≤ max` at which a fresh SUL from
/// `fresh` passes the W-method suite for `model`, or `None` if it fails
/// even at `k = 0`.  The suite at `k` extends the suite at `k - 1`, so the
/// scan stops at the first failing bound.
fn certified_extra_states(
    model: &MealyMachine,
    fresh: impl Fn() -> QuicSul,
    max: usize,
) -> Option<usize> {
    (0..=max)
        .take_while(|&k| w_method_failures(model, fresh(), k).1 == 0)
        .last()
}

/// E3 / §6.2.2: learn the Google-like and Quiche-like implementations and
/// report model sizes and query counts (paper: 12 states / 84 transitions /
/// 24,301 queries and 8 states / 56 transitions / 12,301 queries), and
/// how far each learned model is certified: the largest number of extra
/// states `k ≤ 2` at which a fresh SUL passes the W-method suite.
pub fn exp_quic_learning() -> (Report, LearnedModel, LearnedModel) {
    const SUL_SEED: u64 = 3;
    let (google, _) = learn_quic_profile(ImplementationProfile::google(), SUL_SEED);
    let (quiche, _) = learn_quic_profile(ImplementationProfile::quiche(), SUL_SEED);
    let mut report = Report::new("E3 — QUIC model learning (paper §6.2.2, Appendix A.2/A.3)");
    report
        .row(
            "paper: google  states/transitions/queries",
            "12 / 84 / 24,301",
        )
        .row(
            "paper: quiche  states/transitions/queries",
            "8 / 56 / 12,301",
        )
        .row(
            "measured: google states/transitions/queries",
            format!(
                "{} / {} / {}",
                google.model.num_states(),
                google.model.num_transitions(),
                google.stats.membership_queries
            ),
        )
        .row(
            "measured: quiche states/transitions/queries",
            format!(
                "{} / {} / {}",
                quiche.model.num_states(),
                quiche.model.num_transitions(),
                quiche.stats.membership_queries
            ),
        );
    for (name, profile, paper_states, learned) in [
        ("google", ImplementationProfile::google(), 12, &google),
        ("quiche", ImplementationProfile::quiche(), 8, &quiche),
    ] {
        let fresh = || QuicSul::new(profile.clone(), SUL_SEED);
        let certified = certified_extra_states(&learned.model, fresh, 2)
            .map_or_else(|| "none".to_string(), |k| format!("k = {k}"));
        report.row(
            format!("{name}: paper / learned states, certified k"),
            format!(
                "{paper_states} / {}, {certified}",
                learned.model.num_states()
            ),
        );
    }
    if google.model.num_states() > quiche.model.num_states() {
        report.finding("shape holds: the google-profile model is strictly larger than the quiche-profile model");
    } else {
        report.finding(
            "WARNING: expected the google-profile model to be larger than the quiche-profile model",
        );
    }
    (report, google, quiche)
}

/// E4 / §6.2.2: the trace-space-reduction argument — 329,554,456 candidate
/// traces of length ≤ 10 for the 7-symbol alphabet versus the handful of
/// informative traces of the learned models (paper: 1,210 and 715).
pub fn exp_trace_reduction(google: &MealyMachine, quiche: &MealyMachine) -> Report {
    let alphabet_traces = quic_alphabet().words_up_to_length(10);
    let mut report = Report::new("E4 — trace-space reduction (paper §6.2.2)");
    report.row("alphabet traces of length ≤ 10", alphabet_traces);
    report.row("paper: model traces (google / quiche)", "1,210 / 715");
    for (name, model) in [("google", google), ("quiche", quiche)] {
        let informative = informative_paths(model, 10);
        report.row(
            format!("measured: {name} informative model traces (≤ 10)"),
            informative,
        );
        report.row(
            format!("measured: {name} reduction factor"),
            format!("{:.1}x", alphabet_traces as f64 / informative.max(1) as f64),
        );
    }
    report
}

/// E5 / Issue 1 (§6.2.3): the models of different implementations have
/// different sizes and diverge behaviourally; the divergence traces are the
/// evidence reported to the RFC maintainers.
pub fn exp_issue1(google: &LearnedModel, quiche: &LearnedModel) -> Report {
    let diff = diff_models("google", &google.model, "quiche", &quiche.model, 5);
    let mut report = Report::new("E5 / Issue 1 — cross-implementation divergence (paper §6.2.3)");
    report
        .row("google model states (minimized)", diff.left_states)
        .row("quiche model states (minimized)", diff.right_states)
        .row("models equivalent", diff.equivalent)
        .row("distinguishing traces found", diff.diffs.len());
    for d in diff.diffs.iter().take(3) {
        report.finding(format!(
            "input {} → google: {:?} | quiche: {:?}",
            d.input, d.left_output, d.right_output
        ));
    }
    report.finding(
        "the paper's Issue 1 (post-Retry packet-number-space reset) is the same class of divergence: \
         different implementations answer the same abstract trace differently",
    );
    report
}

/// E6 / Issue 2 (§6.2.4): the nondeterminism check finds that the mvfst-like
/// profile answers packets after a protocol-violation close with a stateless
/// reset only ≈82% of the time.
pub fn exp_issue2() -> Report {
    let word = InputWord::from_symbols([
        "INITIAL(?,?)[CRYPTO]",
        "HANDSHAKE(?,?)[ACK,HANDSHAKE_DONE]",
        "SHORT(?,?)[ACK,STREAM]",
    ]);
    let config = NondeterminismConfig {
        min_repetitions: 5,
        max_repetitions: 200,
        confidence: 0.95,
    };
    let mut report =
        Report::new("E6 / Issue 2 — nondeterministic RESET after close (paper §6.2.4)");
    report.row("paper: RESET ratio for mvfst", "≈ 0.82");
    for profile in [
        ImplementationProfile::mvfst(),
        ImplementationProfile::quiche(),
    ] {
        let name = profile.name.clone();
        let sul = QuicSul::new(profile, 42);
        let mut checker = NondeterminismChecker::new(sul, config);
        let result = checker.check(&word);
        let (majority_out, freq) = result
            .majority()
            .map(|(o, f)| (o.to_string(), f))
            .unwrap_or_default();
        report
            .row(format!("{name}: deterministic"), result.deterministic)
            .row(
                format!("{name}: distinct responses"),
                result.distinct_outputs(),
            )
            .row(format!("{name}: executions"), result.executions)
            .row(format!("{name}: majority frequency"), format!("{freq:.2}"));
        if !result.deterministic {
            report.finding(format!(
                "{name}: nondeterministic post-close behaviour detected (majority answer: {majority_out})"
            ));
        }
    }
    report
}

/// E7 / Issue 3 (§6.2.5): the reference implementation returns the Retry
/// token from a fresh UDP port, so address validation fails and connection
/// establishment becomes impossible — visible as a learned model in which no
/// input sequence completes the handshake.
pub fn exp_issue3() -> Report {
    let alphabet = Alphabet::from_symbols(["INITIAL(?,?)[CRYPTO]", "HANDSHAKE(?,?)[ACK,CRYPTO]"]);
    let config = default_learn_config();
    let mut report = Report::new("E7 / Issue 3 — inconsistent port on Retry (paper §6.2.5)");

    let mut buggy = QuicSul::new(ImplementationProfile::tracker(), 5).with_buggy_retry_client();
    let buggy_model = learn_model(&mut buggy, &alphabet, config.clone());
    let mut fixed = QuicSul::new(ImplementationProfile::tracker(), 5);
    let fixed_model = learn_model(&mut fixed, &alphabet, config);

    let handshake_done = SafetyProperty::never_output("HANDSHAKE_DONE");
    let buggy_check = check_property(&buggy_model.model, &handshake_done);
    let fixed_check = check_property(&fixed_model.model, &handshake_done);
    report
        .row(
            "buggy reference client: handshake can complete",
            !buggy_check.holds,
        )
        .row(
            "fixed reference client: handshake can complete",
            !fixed_check.holds,
        )
        .row("buggy model states", buggy_model.model.num_states())
        .row("fixed model states", fixed_model.model.num_states());
    if buggy_check.holds && !fixed_check.holds {
        report.finding(
            "with the port-rebinding defect the learned model has no trace reaching HANDSHAKE_DONE: \
             connection establishment is impossible, exactly the divergence that exposed the QUIC-Tracker bug",
        );
    }
    if let Some(witness) = fixed_check.witness {
        report.finding(format!(
            "fixed client completes the handshake via: {witness}"
        ));
    }
    report
}

/// E8 / Issue 4 + Appendix B.1 (§6.2.6): synthesis over the Oracle Table
/// shows that the Google profile's `STREAM_DATA_BLOCKED.Maximum Stream Data`
/// field is the constant 0, never updated, while the correct implementations
/// advertise the real limit.
///
/// Returns the report and, per profile, the distinct Maximum Stream Data
/// values observed (sorted).
pub fn exp_issue4() -> (Report, Vec<(String, Vec<i64>)>) {
    let mut distinct_observed = Vec::new();
    let mut report =
        Report::new("E8 / Issue 4 — STREAM_DATA_BLOCKED constant 0 (paper §6.2.6, Appendix B.1)");
    for profile in [ImplementationProfile::google(), {
        // A correct implementation with the same small window, for contrast.
        let mut p = ImplementationProfile::quiche();
        p.initial_peer_max_stream_data = 200;
        p.name = "quiche (small window)".to_string();
        p
    }] {
        let name = profile.name.clone();
        let mut sul = QuicSul::new(profile, 11);
        let learned = learn_model(&mut sul, &quic_data_alphabet(), default_learn_config());
        sul.reset();
        let skeleton = learned.model.clone();
        // Project the Oracle Table onto the Maximum Stream Data field: keep
        // the last numeric output field of steps whose output contains
        // STREAM_DATA_BLOCKED, drop all other fields.
        let (mut observed, mut projected) = (Vec::new(), Vec::new());
        for e in sul.oracle_table().entries() {
            let steps: Vec<ConcreteStep> = e
                .abstract_trace
                .output
                .iter()
                .zip(e.steps.iter())
                .map(|(o, s)| {
                    let blocked = o.as_str().contains("STREAM_DATA_BLOCKED");
                    let field = s.output_fields.last().copied().filter(|_| blocked);
                    observed.extend(field);
                    ConcreteStep::new(s.input_fields.clone(), field.into_iter().collect())
                })
                .collect();
            if skeleton.accepts_trace(&e.abstract_trace) {
                projected.push(ConcreteTrace::new(e.abstract_trace.clone(), steps));
            }
        }
        let mut distinct = observed.clone();
        distinct.sort_unstable();
        distinct.dedup();
        report
            .row(
                format!("{name}: STREAM_DATA_BLOCKED observations"),
                observed.len(),
            )
            .row(
                format!("{name}: observed Maximum Stream Data values"),
                format!("{distinct:?}"),
            );
        distinct_observed.push((name.clone(), distinct));
        let synthesizer = Synthesizer::new(
            TermDomain::new(1, 2),
            vec!["max_stream_data".to_string()],
            vec!["ack".to_string(), "offset".to_string()],
            vec![7_777],
        );
        match synthesizer.synthesize(&skeleton, &projected, &[]) {
            Ok(outcome) => {
                let constants = outcome.report.constant_only_outputs();
                report.row(
                    format!("{name}: fields explainable only by a constant"),
                    format!("{constants:?}"),
                );
                if !observed.is_empty() && observed.iter().all(|&v| v == 0) {
                    report.finding(format!(
                        "{name}: the Maximum Stream Data field is always 0 — the Issue-4 defect"
                    ));
                } else if !observed.is_empty() {
                    report.finding(format!(
                        "{name}: the field tracks the real flow-control limit"
                    ));
                }
            }
            Err(e) => {
                report.finding(format!("{name}: synthesis failed: {e}"));
            }
        }
    }
    (report, distinct_observed)
}

/// E9/E10: learn the appendix models and return their DOT renderings.
pub fn exp_appendix_models() -> (Report, Vec<(String, String)>) {
    let mut report = Report::new("E9/E10 — Appendix A models (DOT export)");
    let mut dots = Vec::new();
    let opts = |name: &str| DotOptions {
        name: name.to_string(),
        hide_silent_self_loops: true,
        silent_output: "{}".to_string(),
        ..DotOptions::default()
    };
    // TCP (Appendix A.1).
    let (_, tcp) = exp_tcp_learning();
    report.row("tcp model states", tcp.model.num_states());
    dots.push((
        "tcp".to_string(),
        to_dot(
            &tcp.model,
            &DotOptions {
                silent_output: "NIL".to_string(),
                ..opts("tcp")
            },
        ),
    ));
    // QUIC (Appendix A.2 / A.3).
    for (name, profile) in [
        ("google_quic", ImplementationProfile::google()),
        ("quiche", ImplementationProfile::quiche()),
    ] {
        let (learned, _) = learn_quic_profile(profile, 3);
        report.row(format!("{name} model states"), learned.model.num_states());
        dots.push((name.to_string(), to_dot(&learned.model, &opts(name))));
    }
    report.finding(
        "DOT files written next to the binary's working directory (see exp_appendix_models)",
    );
    (report, dots)
}

/// E14: alphabet-size ablation — how the learning effort grows with the
/// abstract alphabet, the scalability argument behind the paper's choice of
/// a 7-symbol alphabet.
pub fn exp_alphabet_scaling() -> Report {
    let full = quic_alphabet();
    let mut report = Report::new("E14 — alphabet-size vs learning effort (ablation)");
    for size in [2usize, 4, 7] {
        let alphabet: Alphabet = full.iter().take(size).cloned().collect();
        let mut sul = QuicSul::new(ImplementationProfile::google(), 3);
        let learned = learn_model(&mut sul, &alphabet, default_learn_config());
        report.row(
            format!("alphabet size {size}"),
            format!(
                "{} states, {} membership queries, {} distinct SUL queries",
                learned.model.num_states(),
                learned.stats.membership_queries,
                learned.distinct_queries
            ),
        );
    }
    report.finding("query effort grows with the alphabet; the 7-symbol alphabet keeps learning tractable (§6.2.2)");
    report
}

/// Timed repeats of every full-size engine-experiment run (smoke runs
/// time one).
const REPEATS: usize = 3;

/// Wraps `inner` in the simulated round trip of the latency-modelled
/// scenarios: 50µs per symbol and 100µs per reset on the virtual clock, a
/// fast-LAN deployment (real WAN targets are orders of magnitude worse).
fn rtt<F: SulFactory>(inner: F) -> LatencySulFactory<F> {
    LatencySulFactory::new(
        inner,
        SimDuration::from_micros(50),
        SimDuration::from_micros(100),
    )
}

/// The equivalence-testing-heavy configuration of the latency-modelled
/// scenarios: random testing dominates the query volume, which is exactly
/// the batchable part of learning.
fn rtt_config(random_tests: usize) -> LearnConfig {
    LearnConfig {
        seed: 7,
        random_tests,
        min_word_len: 2,
        max_word_len: 10,
        eq_batch_size: 512,
        ..LearnConfig::default()
    }
}

/// The latency-modelled TCP scenario shared by E15–E17, E19 and E23
/// (sequential; pick the engine shape with [`Scenario::engine`]).
fn rtt_tcp(random_tests: usize) -> Scenario<LatencySulFactory<TcpSulFactory>> {
    Scenario::new(
        rtt(TcpSulFactory::default()),
        tcp_alphabet(),
        rtt_config(random_tests),
    )
}

/// `(key, value)` pairs as the fields of a JSON object.
fn entries<K: ToString>(pairs: impl IntoIterator<Item = (K, Value)>) -> Vec<(String, Value)> {
    pairs
        .into_iter()
        .map(|(key, value)| (key.to_string(), value))
        .collect()
}

/// E16 — cold vs warm-start learning with the persistent observation cache.
///
/// Runs the same TCP learning configuration twice against a
/// [`LearnConfig::cache_path`]: the cold run pays the full SUL cost and
/// persists its observations ([`prognosis_learner::journal::JournalStore`]);
/// the warm run answers every membership query from disk, issuing **zero
/// fresh SUL symbols** while learning a bit-identical model.  A 4-worker
/// warm run checks that the cache is worker-count independent.  Returns
/// the `cold`, `warm` and `warm_parallel_4` runs, which
/// [`exp_parallel_learning`] records as the `tcp_warm_start` row; the
/// assertions double as the CI warm-start smoke test (`exp_warm_start`
/// binary).
pub fn exp_warm_start() -> (Report, Vec<(&'static str, Run)>) {
    let pid = std::process::id();
    let cache_path = std::env::temp_dir().join(format!("prognosis-warm-start-bench-{pid}.journal"));
    let _ = std::fs::remove_file(&cache_path);
    let config = rtt_config(600).with_cache_path(cache_path.to_string_lossy());
    let scenario = Scenario::new(TcpSulFactory::default(), tcp_alphabet(), config);
    // One repeat each: a second cold repeat would already be warm.  The
    // parallel run is 4 workers × 4 in-flight sessions.
    let runs = vec![
        ("cold", scenario.run()),
        ("warm", scenario.run()),
        ("warm_parallel_4", scenario.engine(4, 4).run()),
    ];
    let _ = std::fs::remove_file(&cache_path);
    let [(_, cold), (_, warm), (_, parallel)] = &runs[..] else {
        unreachable!("three runs")
    };
    assert_eq!(
        cold.learned.model, warm.learned.model,
        "warm start must reproduce the cold model bit-identically"
    );
    assert_eq!(
        warm.learned.stats.fresh_symbols, 0,
        "a fully covering cache must answer every membership query from disk"
    );
    assert_eq!(
        warm.sul_symbols, 0,
        "the warm run must not touch the SUL at all"
    );
    assert_eq!(
        cold.learned.model, parallel.learned.model,
        "warm start must be worker-count independent"
    );
    assert_eq!(parallel.learned.stats.fresh_symbols, 0);
    assert_eq!(parallel.sul_symbols, 0);

    let mut report = Report::new(
        "E16 — cold vs warm-start TCP learning (persistent cross-run observation cache)",
    );
    for (name, run) in &runs {
        report.row(*name, run.summary());
    }
    report
        .row("models bit-identical (cold == warm == 4-worker)", true)
        .finding(
            "the persisted prefix trie answers every repeat membership query from disk: \
             re-learning the same SUL costs zero fresh SUL symbols",
        );
    (report, runs)
}

/// Learns `scenario` sequentially and on `workers` blocking workers,
/// asserts equivalent models, and reports both rows with the
/// virtual-time speedup.
fn sequential_vs_workers<F>(
    report: &mut Report,
    name: &str,
    scenario: Scenario<F>,
    workers: usize,
) -> (String, Value)
where
    F: ScenarioFactory,
    F::Session: Send + 'static,
{
    use prognosis_automata::equivalence::machines_equivalent;
    let sequential = scenario.run();
    let parallel = scenario.engine(workers, 1).run();
    assert!(
        machines_equivalent(&sequential.learned.model, &parallel.learned.model),
        "{name}: parallel learning must produce the sequential model"
    );
    let speedup = parallel.virtual_throughput() / sequential.virtual_throughput();
    report
        .row(format!("{name}: sequential"), sequential.summary())
        .row(format!("{name}: {workers} workers"), parallel.summary())
        .row(format!("{name}: speedup"), format!("{speedup:.2}x"))
        .row(format!("{name}: models equivalent"), true);
    let row = entries([
        ("sequential".to_string(), sequential.row()),
        (format!("parallel_{workers}"), parallel.row()),
        ("speedup".to_string(), Value::F64(speedup)),
    ]);
    (name.to_string(), Value::Map(row))
}

/// E15 — membership-query throughput of the batched-parallel engine.
///
/// Learns the TCP SUL and the google-profile QUIC SUL twice each — once
/// sequentially, once with `workers` blocking session workers — behind a
/// [`LatencySulFactory`] modelling the per-packet round trip a real
/// closed-box deployment pays (§4.1 is wall-clock-bound by exactly that),
/// verifies the learned models are equivalent (parallelism must never
/// change answers), and reports the speedup over *virtual* seconds.  E16's
/// cold-vs-warm runs ride along as `tcp_warm_start`.  Wall-clock scaling
/// of the raw simulators is E24's.  Returns the three named scenarios,
/// which the `exp_parallel_learning` binary merges into
/// `BENCH_learning.json` through [`record_scenario`].
pub fn exp_parallel_learning(workers: usize) -> (Report, Vec<(String, Value)>) {
    let mut report = Report::new(format!(
        "E15 — sequential vs {workers}-worker parallel learning throughput"
    ));
    let quic = Scenario::new(
        rtt(QuicSulFactory::new(ImplementationProfile::google(), 3)),
        quic_data_alphabet(),
        rtt_config(600),
    );
    let mut scenarios = vec![
        sequential_vs_workers(&mut report, "tcp", rtt_tcp(600).repeats(REPEATS), workers),
        sequential_vs_workers(&mut report, "quic_google", quic.repeats(REPEATS), workers),
    ];
    let (_, warm_runs) = exp_warm_start();
    for (name, run) in &warm_runs {
        report.row(format!("tcp_warm_start: {name}"), run.summary());
    }
    report.finding(
        "tcp / quic_google model a 50µs-per-symbol, 100µs-per-reset SUL round trip \
             (the deployment regime of §4.1)",
    );
    let warm = entries(warm_runs.iter().map(|(name, run)| (name, run.row())));
    scenarios.push(("tcp_warm_start".to_string(), Value::Map(warm)));
    (report, scenarios)
}

/// One protocol of [`exp_cpu_scaling`]: `scenario` learned sequentially,
/// then at 1/2/4 workers, asserting **bit-identical** models and the
/// host-adaptive gates on the 4-worker run.  Returns the protocol's named
/// JSON.
fn cpu_scaling<F>(
    report: &mut Report,
    name: &str,
    scenario: Scenario<F>,
    cores: usize,
) -> (String, Value)
where
    F: ScenarioFactory + Clone,
    F::Session: Send + 'static,
{
    let sequential = scenario.run();
    report.row(format!("{name}: sequential"), sequential.summary());
    let mut row = entries([("sequential".to_string(), sequential.row())]);
    for workers in [1usize, 2, 4] {
        let parallel = scenario.clone().engine(workers, 1).run();
        assert!(
            sequential.learned.model == parallel.learned.model,
            "{name}: {workers}-worker learning must produce a bit-identical model"
        );
        let engine = parallel.engine.as_ref().expect("an engine run");
        // A one-worker engine runs on the learner's thread and replies
        // once per batch; more replies mean it went back to a worker
        // thread and its channel.
        assert!(
            workers != 1 || engine.reply_messages == engine.batches(),
            "{name}: the 1-worker engine sent {} replies for {} batches — \
             it is no longer running inline",
            engine.reply_messages,
            engine.batches()
        );
        // The quotient of the two rows' `wall_s_p50` columns: a median
        // moves less between runs than one run's best repeat.
        let speedup = sequential.wall_p50() / parallel.wall_p50().max(1e-9);
        // The host-independent face of the fork-join: how many answers
        // each worker's reply carried (each worker answers its whole
        // share of a batch at once; 1.0 would be one reply per query).
        let answers_per_reply =
            engine.queries_completed as f64 / (engine.reply_messages.max(1) as f64);
        report
            .row(format!("{name}: {workers} workers"), parallel.summary())
            .row(
                format!("{name}: {workers}-worker speedup / answers per reply"),
                format!("{speedup:.2}x / {answers_per_reply:.1}"),
            );
        if workers == 4 {
            // On fewer than 4 hardware threads the cross-thread tax puts
            // the healthy range around 0.6–0.9x; 0.50x is the collapse
            // line the pre-interning lock convoy sat on.
            let floor = if cores >= 4 { 2.0 } else { 0.50 };
            assert!(
                speedup >= floor,
                "{name}: 4-worker wall clock is {speedup:.2}x of sequential on a \
                 {cores}-thread host, under its {floor:.2}x floor"
            );
            // Wall clocks wobble with the runner, but the reply economy is
            // structural: a share of a batch answers in one reply, so
            // anything under 4 answers per reply means shares are being
            // split into smaller replies.
            assert!(
                answers_per_reply >= 4.0,
                "{name}: 4-worker replies carried only {answers_per_reply:.1} answers each — \
                 workers no longer answer their whole share of a batch in one reply"
            );
        }
        row.extend(entries([
            (format!("parallel_{workers}"), parallel.row()),
            (format!("speedup_{workers}"), Value::F64(speedup)),
            (
                format!("answers_per_reply_{workers}"),
                Value::F64(answers_per_reply),
            ),
        ]));
    }
    report.row(format!("{name}: models bit-identical"), true);
    (name.to_string(), Value::Map(row))
}

/// E24 — CPU-bound worker-count scaling of the interned, fork-join
/// engine.
///
/// Learns the raw in-process TCP and google-profile QUIC simulators (no
/// modelled round trip, so the engine's own hand-offs and allocation are
/// the only overheads) sequentially and at 1/2/4 workers.  Every mode must
/// learn a **bit-identical** model; every 1-worker run must reply once per
/// batch (it runs inline on the learner's thread); the 4-worker run must
/// carry ≥ 4 answers per worker reply and reach a median-of-repeats
/// wall-clock speedup of ≥ 2× on a ≥ 4-thread host, or stay above the
/// 0.50× no-collapse floor on a smaller one.  `quick` shrinks the
/// equivalence-testing volume and times one repeat for CI smoke runs.
pub fn exp_cpu_scaling(quick: bool) -> (Report, Value) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let config = LearnConfig {
        seed: 7,
        random_tests: if quick { 600 } else { 4_000 },
        min_word_len: 2,
        max_word_len: 12,
        eq_batch_size: 512,
        ..LearnConfig::default()
    };
    // Seven repeats: the speedups divide median wall clocks, which then
    // shrug off up to three repeats the host disturbed.
    let repeats = if quick { 1 } else { 7 };
    let mut report = Report::new(format!(
        "E24 — CPU-bound worker scaling, host parallelism {cores}{}",
        if quick { " (quick)" } else { "" }
    ));
    let tcp = Scenario::new(TcpSulFactory::default(), tcp_alphabet(), config.clone());
    let quic = Scenario::new(
        QuicSulFactory::new(ImplementationProfile::google(), 3),
        quic_data_alphabet(),
        config,
    );
    let (tcp, quic) = (tcp.repeats(repeats), quic.repeats(repeats));
    let scenario = Value::Map(vec![
        cpu_scaling(&mut report, "tcp_cpu_bound", tcp, cores),
        cpu_scaling(&mut report, "quic_google_cpu_bound", quic, cores),
    ]);
    report.finding(if cores >= 4 {
        format!("4-worker wall-clock speedup gate: >= 2.00x (host has {cores} hardware threads)")
    } else {
        format!(
            "host has only {cores} hardware thread(s): real speedup is impossible, \
             wall-clock gate degrades to the >= 0.50x no-collapse floor"
        )
    });
    (report, scenario)
}

/// E17 — in-flight-session scaling of the event-driven session engine.
///
/// Runs the latency-modelled TCP scenario across engine shapes: 1 blocking
/// worker (the baseline), 4 blocking workers (thread scaling), and 1
/// worker multiplexing {16, 64} in-flight wavefront sessions.  Asserts
/// every shape learns an equivalent model with identical query-cost
/// statistics, and the headline claim: **one worker with 64 in-flight
/// sessions beats 4 blocking workers outright and clears 40× the blocking
/// single-worker virtual-time throughput** — under latency, throughput
/// comes from keeping requests in flight, not from more threads.  `events`
/// receives a `bench:stage` marker as each shape runs.  Returns the
/// `session_engine` scenario for `BENCH_learning.json`.
pub fn exp_session_engine(events: Option<Arc<dyn EventSink>>) -> (Report, Value) {
    use prognosis_automata::equivalence::machines_equivalent;
    let shapes = [
        ("workers1_inflight1", 1, 1),
        ("workers4_inflight1", 4, 1),
        ("workers1_inflight16", 1, 16),
        ("workers1_inflight64", 1, 64),
    ];
    let mut report = Report::new(
        "E17 — session-engine in-flight scaling (1 worker × {1,16,64} wavefront sessions vs 4 blocking workers)",
    );
    let mut runs: Vec<(&str, Run)> = Vec::new();
    for (name, workers, max_inflight) in shapes {
        stage(&events, format!("E17 session engine: learning {name}"));
        let run = rtt_tcp(2_000)
            .engine(workers, max_inflight)
            .repeats(REPEATS)
            .run();
        if let Some((_, first)) = runs.first() {
            assert!(
                machines_equivalent(&first.learned.model, &run.learned.model),
                "{name}: engine shape changed the learned model"
            );
            assert_eq!(
                first.learned.stats.fresh_symbols, run.learned.stats.fresh_symbols,
                "{name}: engine shape changed the fresh-symbol cost"
            );
            assert_eq!(
                first.learned.stats.equivalence_tests, run.learned.stats.equivalence_tests,
                "{name}: engine shape changed the equivalence-test count"
            );
        }
        report.row(name, run.summary());
        runs.push((name, run));
    }
    let blocking1 = runs[0].1.virtual_throughput();
    let blocking4 = runs[1].1.virtual_throughput();
    let inflight64 = runs[3].1.virtual_throughput();
    let speedup64 = inflight64 / blocking1.max(1e-9);
    let speedup64_vs_4 = inflight64 / blocking4.max(1e-9);
    assert!(
        speedup64 >= 40.0,
        "1 worker × 64 sessions must clear 40× the blocking \
         single-worker throughput (got {speedup64:.2}x)"
    );
    assert!(
        inflight64 > blocking4,
        "1 worker × 64 sessions must beat 4 blocking workers outright \
         ({inflight64:.0} vs {blocking4:.0} symbols/s)"
    );
    report
        .row(
            "speedup: 1×64 sessions vs 1 / 4 blocking workers",
            format!("{speedup64:.2}x / {speedup64_vs_4:.2}x"),
        )
        .finding(
            "identical models and query-cost statistics across every engine shape; \
             throughput under simulated RTT comes from in-flight sessions, not threads",
        );
    let mut row = entries(runs.iter().map(|(name, run)| (name, run.row())));
    row.extend(entries([
        ("speedup_inflight64_vs_blocking1", Value::F64(speedup64)),
        (
            "speedup_inflight64_vs_blocking4",
            Value::F64(speedup64_vs_4),
        ),
    ]));
    (report, Value::Map(row))
}

/// E19 — sift-wavefront batching against serial sifting.
///
/// Runs the latency-modelled TCP scenario at 1 worker × `max_inflight`
/// sessions twice: once with the default [`SiftStrategy::Wavefront`] and
/// once with [`SiftStrategy::Serial`] (the one-query-at-a-time reference).
/// Asserts the determinism contract — **bit-identical** models,
/// `membership_queries` ≤ serial, identical `fresh_symbols` — and the
/// performance claim: wavefront hypothesis construction keeps over half a
/// 16-slot pool in flight (serial construction idles at
/// ~`1/max_inflight`) and is ≥ 4× faster in construction-phase virtual
/// time.  `quick` runs at `max_inflight` = 16 for the CI smoke step; the
/// full run uses 64.  Returns the `sift_wavefront` scenario for
/// `BENCH_learning.json`.
pub fn exp_sift_wavefront(quick: bool) -> (Report, Value) {
    let max_inflight = if quick { 16 } else { 64 };
    let wavefront = rtt_tcp(if quick { 600 } else { 2_000 })
        .engine(1, max_inflight)
        .repeats(if quick { 1 } else { REPEATS });
    let serial = Scenario {
        config: wavefront.config.clone().with_sift(SiftStrategy::Serial),
        ..wavefront.clone()
    };
    let (wave, ser) = (wavefront.run(), serial.run());

    // Determinism contract: the wavefront is the same algorithm, faster.
    assert_eq!(
        wave.learned.model, ser.learned.model,
        "wavefront sifting must learn a bit-identical model"
    );
    assert!(
        wave.learned.stats.membership_queries <= ser.learned.stats.membership_queries,
        "wavefront must not ask more membership queries ({} > {})",
        wave.learned.stats.membership_queries,
        ser.learned.stats.membership_queries
    );
    assert_eq!(
        wave.learned.stats.fresh_symbols, ser.learned.stats.fresh_symbols,
        "both strategies execute the same distinct words on the SUL"
    );

    let cap = max_inflight as u64;
    let construction = |run: &Run| run.engine.as_ref().expect("an engine run").construction;
    let (wave_con, serial_con) = (construction(&wave), construction(&ser));
    let construction_speedup =
        serial_con.worker_micros as f64 / (wave_con.worker_micros as f64).max(1e-9);
    assert!(
        construction_speedup >= 4.0,
        "wavefront hypothesis construction must be ≥ 4× faster in virtual \
         time at 1 worker × {max_inflight} sessions (got {construction_speedup:.2}x)"
    );
    // The pool-filling criterion is pinned at 16 slots (the CI smoke
    // configuration): a TCP construction round's *fresh* queries — the
    // cache forwards only those — can saturate a 16-slot pool but not a
    // 64-slot one.
    let occupancy_at_16 = if quick {
        wave_con.occupancy(cap)
    } else {
        construction(&wavefront.engine(1, 16).repeats(1).run()).occupancy(16)
    };
    assert!(
        occupancy_at_16 > 0.5,
        "wavefront construction must keep over half a 16-slot pool in \
         flight (got {occupancy_at_16:.3}, serial idles at ~1/max_inflight)"
    );

    let mut report = Report::new(format!(
        "E19 — sift wavefront vs serial sifting (1 worker × {max_inflight} sessions, \
         latency-modelled TCP)"
    ));
    for (name, run, con) in [("wavefront", &wave, wave_con), ("serial", &ser, serial_con)] {
        report
            .row(
                format!("{name}: construction phase"),
                format!(
                    "{:.4} virtual s, {} batches (mean size {:.1}), occupancy {:.3}",
                    con.worker_micros as f64 / 1e6,
                    con.batches,
                    con.mean_batch_size(),
                    con.occupancy(cap)
                ),
            )
            .row(format!("{name}: whole run"), run.summary());
    }
    report
        .row(
            "construction speedup (serial / wavefront virtual time)",
            format!("{construction_speedup:.2}x"),
        )
        .row(
            "construction occupancy at a 16-slot pool",
            format!("{occupancy_at_16:.3} (must exceed 0.5)"),
        )
        .row("models bit-identical, membership queries ≤ serial", true)
        .finding(
            "the wavefront turns hypothesis construction from one in-flight query into \
             O(states × alphabet)-sized batches, which keep the session slots filled; \
             serial sifting leaves all but one slot idle",
        );
    let row = entries([
        ("wavefront", wave.row()),
        ("serial", ser.row()),
        ("construction_speedup", Value::F64(construction_speedup)),
        (
            "construction_occupancy_wavefront",
            Value::F64(wave_con.occupancy(cap)),
        ),
        (
            "construction_occupancy_serial",
            Value::F64(serial_con.occupancy(cap)),
        ),
        ("construction_occupancy_at_16", Value::F64(occupancy_at_16)),
    ]);
    (report, Value::Map(row))
}

/// E18 — learning throughput and determinism under swept link impairments,
/// through the impaired-network session transport.
///
/// Each sweep point learns a small TCP model (three-symbol alphabet) over
/// a `netsim` link with **1 worker × 16 in-flight sessions sharing one
/// network**.  The last point is asymmetric: a clean uplink and a lossy,
/// jittery downlink, as real access networks impair the two directions
/// differently.  Every point is run a second time as 2 workers × 8
/// sessions and asserted bit-identical (model and `fresh_symbols`): on
/// the networked transport, impairment fates are a pure function of
/// `(noise seed, per-query packet index)`, so the engine shape moves only
/// virtual time.  A [`check_multiplexed`] row reproduces the ~80/20 answer
/// split of a 10%-loss link (0.9² ≈ 0.81 round-trip survival), the §5
/// mechanism that surfaced the mvfst stateless-reset ratio.  `quick` keeps
/// the first two symmetric points and the asymmetric one for the CI smoke
/// step.  `events` receives a `bench:stage` marker per point.
pub fn exp_noise_sweep(quick: bool, events: Option<Arc<dyn EventSink>>) -> (Report, Value) {
    let base = LinkConfig::with_latency(SimDuration::from_micros(100));
    let impaired =
        |loss: f64, jitter_us: u64| base.loss(loss).jitter(SimDuration::from_micros(jitter_us));
    let over = |link: LinkConfig| {
        NetworkedSessionFactory::new(TcpSulFactory::default(), link).with_noise_seed(23)
    };
    let mut sweep = vec![
        ("loss0.00_jitter0us", over(impaired(0.0, 0))),
        ("loss0.02_jitter100us", over(impaired(0.02, 100))),
        ("loss0.05_jitter200us", over(impaired(0.05, 200))),
        ("loss0.10_jitter400us", over(impaired(0.10, 400))),
        (
            "asym_up_clean_down_loss0.05_jitter200us",
            over(base).with_reverse_link(impaired(0.05, 200)),
        ),
    ];
    if quick {
        sweep.drain(2..4);
    }

    let mut report = Report::new(
        "E18 — loss/jitter sweep under multiplexing (impaired-network session transport, \
         1 worker × 16 in-flight sessions)",
    );
    let mut points = Vec::new();
    let total = sweep.len();
    for (index, (name, factory)) in sweep.into_iter().enumerate() {
        stage(
            &events,
            format!("E18 noise sweep: point {}/{total} ({name})", index + 1),
        );
        let scenario = noise_sweep_scenario(factory).repeats(if quick { 1 } else { REPEATS });
        let run = scenario.clone().engine(1, 16).run();
        // Determinism across the engine-shape grid is part of the claim:
        // the same sweep point on a different shape must reproduce the
        // model and the query costs bit for bit.
        let cross = scenario.engine(2, 8).repeats(1).run();
        assert_eq!(
            run.learned.model, cross.learned.model,
            "engine shape changed the model at {name}"
        );
        assert_eq!(
            run.learned.stats.fresh_symbols,
            cross.learned.stats.fresh_symbols
        );
        report.row(name, format!("{} (2×8 run identical)", run.summary()));
        points.push((name.to_string(), run.row()));
    }

    // The §5 mechanism under multiplexing: concurrent repetitions of one
    // query over a 10%-loss link show the ~80/20 answer split.
    stage(&events, "E18 noise sweep: check_multiplexed at 10% loss");
    let factory =
        NetworkedSessionFactory::new(TcpSulFactory::default(), base.loss(0.10)).with_noise_seed(42);
    let check = check_multiplexed(
        &factory,
        &InputWord::from_symbols(["SYN(?,?,0)"]),
        NondeterminismConfig {
            min_repetitions: 50,
            max_repetitions: 400,
            confidence: 0.95,
        },
    );
    let (_, majority_freq) = check.majority().expect("observations recorded");
    assert!(
        !check.deterministic,
        "10% loss per direction must be flagged as nondeterministic"
    );
    assert!(
        (0.72..=0.90).contains(&majority_freq),
        "majority frequency {majority_freq} should be ≈0.81 at 10% loss"
    );
    report
        .row(
            "check_multiplexed @ loss 0.10",
            format!(
                "{} executions, {} distinct answers, majority frequency {majority_freq:.2} \
                 (expected ≈0.81), deterministic: {}",
                check.executions,
                check.distinct_outputs(),
                check.deterministic
            ),
        )
        .finding(
            "impairments now hit in-flight multiplexed queries; per-seed purity keeps every \
             sweep row reproducible and engine-shape independent",
        );
    let multiplexed = entries([
        ("loss", Value::F64(0.10)),
        ("executions", Value::U64(check.executions as u64)),
        (
            "distinct_answers",
            Value::U64(check.distinct_outputs() as u64),
        ),
        ("majority_frequency", Value::F64(majority_freq)),
        ("deterministic", Value::Bool(check.deterministic)),
    ]);
    let row = entries([
        ("points", Value::Map(points)),
        ("check_multiplexed", Value::Map(multiplexed)),
    ]);
    (report, Value::Map(row))
}

/// E18's sequential scenario over `factory`: the three-symbol TCP
/// alphabet and 150 random equivalence words of length 2–6.
pub fn noise_sweep_scenario<F>(factory: F) -> Scenario<F> {
    let config = LearnConfig {
        seed: 7,
        random_tests: 150,
        min_word_len: 2,
        max_word_len: 6,
        eq_batch_size: 128,
        ..LearnConfig::default()
    };
    let alphabet = Alphabet::from_symbols(["SYN(?,?,0)", "ACK(?,?,0)", "FIN+ACK(?,?,0)"]);
    Scenario::new(factory, alphabet, config)
}

/// E21: a small differential-learning campaign over the shared versioned
/// observation cache.
///
/// Runs a 6-cell {TCP, QUIC} × {profile, version, impairment} matrix as one
/// DAG-scheduled campaign: two TCP points (clean and impaired), Google's
/// profile at two "versions" (v2 raises the flow-control window so the
/// model stops blocking, and is primed from v1's observations across the
/// version axis of the cache), and Quiche clean and impaired.  Diffs and property checks fan out as the
/// learns complete.  The campaign is then re-run on a differently shaped
/// runner (task workers and schedule seed changed, event log on) and the
/// two canonical reports are asserted byte-identical — the determinism
/// contract of the orchestrator.  `quick` shrinks the equivalence-testing
/// effort for the CI smoke run; the matrix itself stays intact.
pub fn exp_campaign(quick: bool) -> (Report, Value) {
    let tcp_symbols = ["SYN(?,?,0)", "ACK(?,?,0)", "FIN+ACK(?,?,0)"];
    let data_symbols: Vec<String> = quic_data_alphabet()
        .iter()
        .map(|s| s.as_str().to_string())
        .collect();
    // "v2" of the Google profile: the same implementation after raising
    // the server's initial flow-control window so responses never block.
    // Unlike the Issue-4 constant-zero defect (a concrete-field bug only
    // synthesis can see, E8), this change is visible at the abstract
    // alphabet level — `STREAM_DATA_BLOCKED` vanishes from the model — so
    // the campaign's cross-version divergences and model diff catch it.
    let google_v2 = ImplementationProfile {
        initial_peer_max_stream_data: 1_000_000,
        ..ImplementationProfile::google()
    };
    let learn = LearnConfig {
        seed: 7,
        random_tests: if quick { 150 } else { 400 },
        min_word_len: 2,
        max_word_len: if quick { 6 } else { 8 },
        eq_batch_size: 64,
        workers: 2,
        ..LearnConfig::default()
    };
    let blocked = SafetyProperty::never_output("STREAM_DATA_BLOCKED");
    let spec = CampaignSpec::new("e21-matrix")
        .cell(CellSpec::tcp("tcp-v1", "v1").with_alphabet(tcp_symbols))
        .cell(
            CellSpec::tcp("tcp-v1-loss", "v1")
                .with_alphabet(tcp_symbols)
                .with_impairment(Impairment::latency(100).with_loss(0.02))
                .with_baseline("tcp-v1"),
        )
        .cell(
            CellSpec::quic("google-v1", "v1", ImplementationProfile::google(), 11)
                .with_alphabet(data_symbols.clone()),
        )
        .cell(
            CellSpec::quic("google-v2", "v2", google_v2, 11)
                .with_alphabet(data_symbols.clone())
                .with_baseline("google-v1"),
        )
        .cell(
            CellSpec::quic("quiche-v1", "v1", ImplementationProfile::quiche(), 3)
                .with_alphabet(data_symbols.clone()),
        )
        .cell(
            CellSpec::quic("quiche-v1-loss", "v1", ImplementationProfile::quiche(), 3)
                .with_alphabet(data_symbols)
                .with_impairment(Impairment::latency(150).with_jitter(50)),
        )
        .diff("tcp-v1", "tcp-v1-loss")
        .diff("google-v1", "google-v2")
        .diff("google-v1", "quiche-v1")
        .check("google-v1", blocked.clone())
        .check("google-v2", blocked)
        .with_learn(learn);

    let start = std::time::Instant::now();
    let primary = run_campaign(
        &spec,
        &RunnerConfig {
            task_workers: 3,
            schedule_seed: 1,
            progress: true,
            events: None,
        },
    )
    .expect("campaign runs");
    let seconds = start.elapsed().as_secs_f64();
    // Re-run with every scheduling knob changed: serial task worker,
    // different ready-pick permutation — and this time with the
    // full event feed streaming to a rotating JSONL log.  Bit-identical
    // or bust: neither the runner shape nor the observability spine may
    // touch the report.
    let pid = std::process::id();
    let log_path = std::env::temp_dir().join(format!("prognosis-campaign-events-{pid}.jsonl"));
    remove_event_log(&log_path);
    let log = Arc::new(EventLog::open(EventLogConfig::new(&log_path)).expect("event log opens"));
    let cross = run_campaign(
        &spec,
        &RunnerConfig {
            task_workers: 1,
            schedule_seed: 42,
            progress: false,
            events: Some(Arc::clone(&log) as Arc<dyn EventSink>),
        },
    )
    .expect("campaign re-runs");
    assert_eq!(
        primary.canonical_json(),
        cross.canonical_json(),
        "runner shape, schedule seed or event sink changed the campaign report"
    );
    // The analyzer must be able to reconstruct a per-phase timeline from
    // the instrumented run's log.
    log.flush();
    assert_eq!(log.io_errors(), 0, "the campaign event log writes cleanly");
    let scan = scan_log(&log_path).expect("campaign event log scans as sound");
    assert!(
        prognosis_events::analyze::timeline_text(&scan).contains("sessions by phase"),
        "the analyzer must render a per-phase timeline from the campaign log"
    );
    let count = |name: &str| scan.events.iter().filter(|e| e.name == name).count();
    assert_eq!(
        count("task:done"),
        count("task:start"),
        "every campaign task must close its start event"
    );
    remove_event_log(&log_path);

    let google_v2_cell = &primary.cells[3];
    assert!(
        google_v2_cell.primed_words > 0,
        "google-v2 must be primed from google-v1 across the version axis"
    );
    assert!(
        !google_v2_cell.divergences.is_empty(),
        "the raised flow-control window must surface as cross-version divergences"
    );
    let google_versions = &primary.diffs[1];
    assert!(
        !google_versions.equivalent,
        "google v1 and v2 must not be model-equivalent"
    );
    assert!(
        !primary.diffs[2].equivalent,
        "Google and Quiche profiles must not be model-equivalent"
    );
    assert!(
        !primary.checks[0].check.holds && primary.checks[1].check.holds,
        "STREAM_DATA_BLOCKED reaches google-v1's model but never google-v2's"
    );

    let mut report = Report::new(
        "E21 — DAG-scheduled differential-learning campaign \
         (6-cell {TCP, QUIC} matrix, one engine per learn, versioned cache)",
    );
    report
        .row("cells learned", primary.cells.len())
        .row(
            "makespan",
            format!(
                "{seconds:.2} wall s, {:.4} virtual s critical cell",
                primary.max_virtual_elapsed_micros() as f64 / 1e6
            ),
        )
        .row(
            "cross-version priming (google-v1 → google-v2)",
            format!(
                "{} words primed, hit rate {:.2}, {} divergences",
                google_v2_cell.primed_words,
                google_v2_cell.cache_hit_rate,
                google_v2_cell.divergences.len()
            ),
        )
        .row(
            "diff findings",
            format!(
                "{} distinguishing traces across {} diffs",
                primary.diff_findings(),
                primary.diffs.len()
            ),
        )
        .row(
            "property checks",
            format!(
                "{} of {} violated (STREAM_DATA_BLOCKED reaches google-v1, never google-v2)",
                primary.violated_checks(),
                primary.checks.len()
            ),
        )
        .finding(
            "re-running at (1 task worker, seed 42) instead of (3, seed 1) \
             reproduced the canonical report byte for byte",
        );
    if let Some(d) = google_v2_cell.divergences.first() {
        report.finding(format!(
            "shortest cross-version regression witness: {} → v1 {}, v2 {}",
            d.input, d.left_output, d.right_output
        ));
    }

    let cells = primary
        .cells
        .iter()
        .map(|c| {
            let cell = entries([
                ("states", Value::U64(c.states as u64)),
                ("cache_hit_rate", Value::F64(c.cache_hit_rate)),
                ("divergences", Value::U64(c.divergences.len() as u64)),
                ("cacheable", Value::Bool(c.cacheable)),
            ]);
            (c.id.clone(), Value::Map(cell))
        })
        .collect();
    let row = entries([
        ("cells", Value::U64(primary.cells.len() as u64)),
        ("seconds", Value::F64(seconds)),
        (
            "max_virtual_elapsed_micros",
            Value::U64(primary.max_virtual_elapsed_micros()),
        ),
        (
            "cross_version_hit_rate",
            Value::F64(google_v2_cell.cache_hit_rate),
        ),
        ("primed_words", Value::U64(google_v2_cell.primed_words)),
        ("diff_findings", Value::U64(primary.diff_findings() as u64)),
        (
            "divergence_findings",
            Value::U64(primary.divergence_findings() as u64),
        ),
        (
            "violated_checks",
            Value::U64(primary.violated_checks() as u64),
        ),
        ("schedule_independent", Value::Bool(true)),
        ("cell_detail", Value::Map(cells)),
    ]);
    (report, Value::Map(row))
}

/// Builds an E22 synthetic observation trie: the first `n` distinct words
/// of length `len` over an 8-symbol alphabet, enumerated least-significant
/// symbol first so the words branch maximally near the root (the shape a
/// breadth-first learner produces).  Outputs are a deterministic hash of
/// the input prefix, so every word set is mutually consistent.  With
/// `terminal` each word is a completed query; without, an incomplete one —
/// exactly what a learner's partially-answered prefixes look like before
/// the full query lands.
fn store_bench_trie(
    n: usize,
    len: usize,
    terminal: bool,
    alphabet: &Alphabet,
) -> prognosis_learner::trie::PrefixTrie {
    let symbols: Vec<Symbol> = alphabet.as_slice().to_vec();
    let mut trie = prognosis_learner::trie::PrefixTrie::new();
    for idx in 0..n {
        let digits: Vec<usize> = (0..len).map(|k| (idx >> (3 * k)) & 7).collect();
        let input: InputWord = digits.iter().map(|&d| symbols[d].clone()).collect();
        let output: prognosis_automata::word::OutputWord = (1..=len)
            .map(|prefix| {
                let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
                for &d in &digits[..prefix] {
                    hash ^= d as u64 + 1;
                    hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
                }
                format!("o{}", hash % 32)
            })
            .collect();
        trie.insert(&input, &output);
        if terminal {
            trie.mark_terminal(&input);
        }
    }
    trie
}

/// E22 — the journaled observation store at campaign scale.
///
/// Builds a synthetic trie of ≥100k distinct completed queries (20k in
/// `--quick` mode), persists it through the journaled store
/// ([`prognosis_learner::journal::JournalStore`]), and times the save and
/// warm-load halves, asserting the load replays a bit-identical trie.  A
/// second, churned store (a checkpointed base, then new words appended as
/// short prefixes first and extended after) then demonstrates compaction:
/// `compact()` must shrink the file while replaying to the identical trie.  The journal and
/// compaction sizes are a pure function of the synthetic trie and the
/// format, so both are asserted byte-exact: any change to the on-disk
/// format fails the run.  `events` receives a `bench:stage` marker as each
/// stage runs.
pub fn exp_store_format(quick: bool, events: Option<Arc<dyn EventSink>>) -> (Report, Value) {
    use prognosis_learner::cache::StoreKey;
    use prognosis_learner::journal::{JournalStore, RetainPolicy};

    stage(&events, "E22 store format: building synthetic trie");
    // Expected (journal bytes, compaction bytes, compaction frames); the
    // full-size values are the committed `store_format` row's.
    let (expected_bytes, expected_compaction) = if quick {
        (134_270, ((6_531, 4_404), (60, 0)))
    } else {
        (472_574, ((17_537, 10_890), (180, 0)))
    };
    let n: usize = if quick { 20_000 } else { 120_000 };
    let word_len = 6;
    let symbols: Vec<String> = (0..8).map(|i| format!("i{i}")).collect();
    let alphabet = Alphabet::from_symbols(symbols.iter().map(String::as_str));
    let trie = store_bench_trie(n, word_len, true, &alphabet);
    let observations = trie.paths().len() as u64;
    assert_eq!(observations, n as u64, "every enumerated word is distinct");

    let tag = std::process::id();
    let journal_path = std::env::temp_dir().join(format!("prognosis-store-bench-{tag}.journal"));
    let churn_path = std::env::temp_dir().join(format!("prognosis-store-bench-{tag}.churn"));
    for path in [&journal_path, &churn_path] {
        let _ = std::fs::remove_file(path);
    }

    // Framed binary records, fsynced on save, replayed on load.
    stage(&events, "E22 store format: journal save/load");
    let key = StoreKey::new("store-bench", "", &alphabet);
    let start = std::time::Instant::now();
    JournalStore::save_merged_at(&journal_path, &key, &trie, RetainPolicy::All)
        .expect("journal save succeeds");
    let journal_save_seconds = start.elapsed().as_secs_f64();
    let journal_bytes = std::fs::metadata(&journal_path)
        .expect("journal store exists")
        .len();
    let start = std::time::Instant::now();
    let journal_loaded =
        JournalStore::load_matching(&journal_path, &key).expect("journal warm load hits");
    let journal_load_seconds = start.elapsed().as_secs_f64();
    assert_eq!(
        journal_loaded.paths(),
        trie.paths(),
        "the journal must replay the saved observations bit-identically"
    );
    assert_eq!(
        journal_bytes, expected_bytes,
        "the journal of {n} observations changed size"
    );

    // Compaction: checkpoint a base of `churn_n` queries, then append each
    // of `churn_extra` new words as a 4-symbol non-terminal prefix first
    // (the first 3 symbols are shared with a base word) and as the full
    // query after — every short record is superseded, so compaction must
    // shrink the file while replaying identically.  The appended tail
    // stays lighter than the base's checkpoint, so no save rewrites the
    // store and the manual `compact()` is what reclaims the space.
    stage(&events, "E22 store format: churn + compaction");
    let (churn_n, churn_extra) = if quick { (300, 30) } else { (900, 90) };
    let churn_base = store_bench_trie(churn_n, word_len, true, &alphabet);
    let churn_short = store_bench_trie(churn_n + churn_extra, 4, false, &alphabet);
    let churn_full = store_bench_trie(churn_n + churn_extra, word_len, true, &alphabet);
    for (round, churn) in [
        ("base", &churn_base),
        ("prefix", &churn_short),
        ("full", &churn_full),
    ] {
        JournalStore::save_merged_at(&churn_path, &key, churn, RetainPolicy::All)
            .unwrap_or_else(|e| panic!("churn {round} round fails: {e}"));
    }
    let before_replay =
        JournalStore::load_matching(&churn_path, &key).expect("churned store loads");
    let churn_store = JournalStore::open(&churn_path).expect("churned store opens");
    let outcome = churn_store.compact().expect("compaction succeeds");
    assert_eq!(
        (
            (outcome.before_bytes, outcome.after_bytes),
            (outcome.before_records, outcome.after_records)
        ),
        expected_compaction,
        "compaction of the churned store changed its byte or frame counts"
    );
    let after_replay =
        JournalStore::load_matching(&churn_path, &key).expect("compacted store loads");
    assert_eq!(
        after_replay.paths(),
        before_replay.paths(),
        "compaction must preserve the replayed observations bit-identically"
    );
    assert_eq!(
        after_replay.paths(),
        churn_full.paths(),
        "the compacted store replays exactly the live (full-length) queries"
    );

    for path in [&journal_path, &churn_path] {
        let _ = std::fs::remove_file(path);
    }

    let mut report = Report::new("E22 — journaled observation store at campaign scale");
    report
        .row("observations (completed queries)", observations.to_string())
        .row(
            "journal: save / load / size",
            format!("{journal_save_seconds:.3}s / {journal_load_seconds:.3}s / {journal_bytes} B"),
        )
        .row("load bit-identical", "yes".to_string())
        .row(
            "compaction: bytes / records",
            format!(
                "{} -> {} B / {} -> {} frames (replay identical)",
                outcome.before_bytes,
                outcome.after_bytes,
                outcome.before_records,
                outcome.after_records
            ),
        );

    let journal = entries([
        ("save_seconds", Value::F64(journal_save_seconds)),
        ("load_seconds", Value::F64(journal_load_seconds)),
        ("file_bytes", Value::U64(journal_bytes)),
    ]);
    let compaction = entries([
        ("before_bytes", Value::U64(outcome.before_bytes)),
        ("after_bytes", Value::U64(outcome.after_bytes)),
        ("before_records", Value::U64(outcome.before_records as u64)),
        ("after_records", Value::U64(outcome.after_records as u64)),
        ("replay_identical", Value::Bool(true)),
    ]);
    let row = entries([
        ("observations", Value::U64(observations)),
        ("journal", Value::Map(journal)),
        ("load_bit_identical", Value::Bool(true)),
        ("compaction", Value::Map(compaction)),
    ]);
    (report, Value::Map(row))
}

/// The fields stamping a scenario row with how it was measured: `quick`
/// (a reduced smoke configuration), the host's available parallelism and
/// the source revision (`git describe --always --dirty`, `"unknown"`
/// outside a git checkout).
fn run_stamp(quick: bool) -> Vec<(String, Value)> {
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rev = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=12"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |rev| rev.trim().to_string());
    entries([
        ("quick", Value::Bool(quick)),
        ("host_parallelism", Value::U64(parallelism as u64)),
        ("git_rev", Value::Str(rev)),
    ])
}

/// Deletes the rotating event log at `path` with its rotated files.
fn remove_event_log(path: &std::path::Path) {
    let _ = std::fs::remove_file(path);
    for index in prognosis_events::rotate::rotated_indices(path) {
        let _ = std::fs::remove_file(prognosis_events::rotate::rotated_path(path, index));
    }
}

/// E23 — event-sink overhead on the E17 session-engine scenario.
///
/// Learns the latency-modelled TCP model at 1 worker × 64 in-flight
/// wavefront sessions in paired rounds: once with no sink attached, once
/// streaming the full event feed (diagnostics included) through the
/// rotating JSONL [`prognosis_events::rotate::EventLog`] at `log_path`.
/// Asserts that attaching the sink leaves the learned model bit-identical
/// and the produced log scans as sound, and — in the full configuration —
/// that the sink costs < 5% of the run (best-of-rounds process-CPU
/// quotient, so host scheduler noise does not flip the verdict; wall
/// times are reported alongside).  The log of the final instrumented
/// round is left on disk for the analyzer (`prognosis-events verify` /
/// `timeline` run on it in CI).  Returns the `event_log` scenario for
/// `BENCH_learning.json`.
pub fn exp_event_log(quick: bool, log_path: &std::path::Path) -> (Report, Value) {
    // The E17 1 × 64 scenario; its learns are timed here in paired rounds
    // rather than by [`Scenario::run`].
    let scenario = rtt_tcp(if quick { 600 } else { 2_000 }).engine(1, 64);
    let (factory, alphabet) = (&scenario.factory, &scenario.alphabet);
    let config = scenario.shaped_config();

    // Timing methodology, tuned for a noisy shared host where a 5%
    // threshold must still resolve:
    //
    // * **Process-CPU clock** — host preemption inflates wall time by
    //   tens of percent but never this clock; on an idle host the two
    //   agree, so the CPU quotient stands in for the wall-time budget
    //   (wall times are reported alongside).
    // * **Long samples** — one timed sample sums `per_sample`
    //   back-to-back learns (~½ s), averaging over the frequency
    //   jitter that makes single ~70 ms runs irreproducible.
    // * **Alternating pairs, median ratio** — each round times the two
    //   configurations adjacently (same host speed), alternating which
    //   goes first so within-round speed drift cancels across rounds;
    //   the median over rounds discards the odd round a load spike
    //   still lands in.
    let rounds = if quick { 1 } else { 7 };
    let per_sample = if quick { 1 } else { 8 };
    // The timed logged samples append to one long-lived log (clearing
    // files inside the timed region would bill filesystem churn to the
    // sink); a fresh single-run log is rewritten after timing so the
    // artifact handed to the analyzer is exactly one run's stream.
    if !quick {
        // Warmup: fault in code paths, allocator arenas and the file
        // system before anything is timed.
        learn_model_parallel(factory, alphabet, config.clone()).expect("warmup learning succeeds");
    }
    let mut plain_best = f64::INFINITY;
    let mut logged_best = f64::INFINITY;
    let mut plain_wall_best = f64::INFINITY;
    let mut logged_wall_best = f64::INFINITY;
    let mut best_overheads = Vec::new();
    let mut best_median = f64::INFINITY;
    let mut model_states = 0usize;
    remove_event_log(log_path);
    let timed_log =
        Arc::new(EventLog::open(EventLogConfig::new(log_path)).expect("event log opens"));
    // One timed sample: `per_sample` back-to-back learns with or without
    // the sink, as per-learn CPU and wall seconds plus the learned model.
    let sample = |logged: bool| {
        let (wall, cpu) = (std::time::Instant::now(), process_cpu_seconds());
        let mut model = None;
        for _ in 0..per_sample {
            let outcome = if logged {
                let sink = Arc::clone(&timed_log) as Arc<dyn EventSink>;
                learn_model_parallel_with_events(factory, alphabet, config.clone(), sink, true)
            } else {
                learn_model_parallel(factory, alphabet, config.clone())
            };
            model = Some(outcome.expect("learning succeeds").learned.model);
        }
        let n = per_sample as f64;
        let cpu = (process_cpu_seconds() - cpu) / n;
        (cpu, wall.elapsed().as_secs_f64() / n, model)
    };
    // A whole measurement attempt can still come back contaminated when
    // the host slows for longer than a sample; a real cost regression
    // fails every attempt's median, so retrying and keeping the cleanest
    // attempt screens host noise without weakening the gate.
    let attempts = if quick { 1 } else { 5 };
    for _attempt in 0..attempts {
        let mut round_overheads = Vec::with_capacity(rounds);
        for round in 0..rounds {
            // Odd rounds time the sink-enabled sample first.
            let (plain, logged) = if round % 2 == 0 {
                let plain = sample(false);
                (plain, sample(true))
            } else {
                let logged = sample(true);
                (sample(false), logged)
            };
            assert_eq!(
                plain.2, logged.2,
                "attaching the event sink must not change the learned model"
            );
            model_states = logged.2.as_ref().map_or(0, MealyMachine::num_states);
            plain_best = plain_best.min(plain.0);
            logged_best = logged_best.min(logged.0);
            plain_wall_best = plain_wall_best.min(plain.1);
            logged_wall_best = logged_wall_best.min(logged.1);
            round_overheads.push(logged.0 / plain.0.max(1e-9) - 1.0);
        }
        let median = {
            let mut sorted = round_overheads.clone();
            sorted.sort_by(f64::total_cmp);
            sorted[sorted.len() / 2]
        };
        if median < best_median {
            best_median = median;
            best_overheads = round_overheads;
        }
        // Comfortably inside the budget — no need to spend more rounds
        // screening for noise.
        if best_median < 0.04 {
            break;
        }
    }
    timed_log.flush();
    assert_eq!(timed_log.io_errors(), 0, "the event log must write cleanly");
    drop(timed_log);

    if !quick {
        // Rewrite the on-disk artifact as exactly one run's stream.
        remove_event_log(log_path);
        let log = Arc::new(EventLog::open(EventLogConfig::new(log_path)).expect("event log opens"));
        let sink = Arc::clone(&log) as Arc<dyn EventSink>;
        learn_model_parallel_with_events(factory, alphabet, config.clone(), sink, true)
            .expect("artifact run succeeds");
        log.flush();
        assert_eq!(log.io_errors(), 0, "the artifact log must write cleanly");
    }

    let scan = scan_log(log_path).expect("the produced log scans as sound");
    assert!(!scan.events.is_empty(), "the log must not come back empty");
    let sessions = scan.events.iter().filter(|e| e.name == "session:done");
    let sessions = sessions.count() as u64;
    // Two independent robust estimates of the same quantity: the cleanest
    // attempt's median paired ratio, and the quotient of the global
    // per-side minima.  Contamination inflates each through a different
    // mechanism (a bad window vs an unlucky minimum), while a genuine
    // cost regression raises both — so the gate accepts the lower.
    let overhead = best_median.min(logged_best / plain_best.max(1e-9) - 1.0);
    if !quick {
        assert!(
            overhead < 0.05,
            "the event sink must cost < 5% of the E17-scenario run \
             (best plain {plain_best:.3}s CPU, best logged {logged_best:.3}s CPU; \
             cleanest attempt's paired ratios {:?} → median {:.1}%)",
            best_overheads
                .iter()
                .map(|o| format!("{:.1}%", o * 100.0))
                .collect::<Vec<_>>(),
            overhead * 100.0
        );
    }

    let mut report = Report::new(
        "E23 — event-log sink overhead (E17 scenario, 1 worker × 64 wavefront sessions)",
    );
    report
        .row(
            "sink disabled",
            format!(
                "{plain_best:.3} s CPU / {plain_wall_best:.3} s wall per run \
                 (best sample of {rounds} × {per_sample} runs)"
            ),
        )
        .row(
            "sink enabled (full diagnostics, rotating JSONL)",
            format!(
                "{logged_best:.3} s CPU / {logged_wall_best:.3} s wall per run \
                 (best sample of {rounds} × {per_sample} runs)"
            ),
        )
        .row(
            "overhead (robust CPU estimate)",
            format!("{:.2}%", overhead * 100.0),
        )
        .row(
            "log produced",
            format!(
                "{} events, {} bytes, {} file(s), {} sessions",
                scan.events.len(),
                scan.bytes,
                scan.files.len(),
                sessions
            ),
        )
        .finding(
            "streaming the full event feed through the rotating JSONL sink leaves the \
             learned model bit-identical and stays within the <5% overhead budget",
        );
    let row = entries([
        ("plain_cpu_seconds", Value::F64(plain_best)),
        ("logged_cpu_seconds", Value::F64(logged_best)),
        ("plain_wall_seconds", Value::F64(plain_wall_best)),
        ("logged_wall_seconds", Value::F64(logged_wall_best)),
        ("overhead_frac", Value::F64(overhead)),
        ("events", Value::U64(scan.events.len() as u64)),
        ("bytes", Value::U64(scan.bytes)),
        ("files", Value::U64(scan.files.len() as u64)),
        ("sessions", Value::U64(sessions)),
        ("model_states", Value::U64(model_states as u64)),
    ]);
    (report, Value::Map(row))
}

/// Records the scenario row `name` of an experiment binary, stamped with
/// `quick`, the host's available parallelism and the source revision.  A
/// `quick` run prints the rendered row and leaves `BENCH_learning.json`
/// alone, so a smoke run never replaces a full-size row; a full run merges
/// the row into `BENCH_learning.json` in the current directory, creating
/// the file only if it does not exist.
///
/// # Panics
///
/// If the existing file cannot be read or is not a JSON object — the run
/// fails and leaves the file untouched rather than replace its rows.
pub fn record_scenario(name: &str, mut scenario: Value, quick: bool) {
    if let Value::Map(fields) = &mut scenario {
        fields.extend(run_stamp(quick));
    }
    if quick {
        println!("{}", json::render_pretty(&scenario));
        println!("quick run: BENCH_learning.json left unchanged");
        return;
    }
    let existing = match std::fs::read_to_string("BENCH_learning.json") {
        Ok(text) => Some(text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => panic!("cannot read BENCH_learning.json (left unchanged): {e}"),
    };
    let merged = merge_scenario(existing.as_deref(), name, scenario)
        .unwrap_or_else(|e| panic!("BENCH_learning.json left unchanged: {e}"));
    std::fs::write("BENCH_learning.json", merged).expect("write BENCH_learning.json");
    println!("merged {name} scenario into BENCH_learning.json");
}

/// The `main` of an experiment binary that records one row: runs
/// `experiment` with a [`ProgressSink`] repainting its `bench:stage`
/// markers as a one-line status (interactive terminals only), prints its
/// report and records its row `name` through [`record_scenario`].
pub fn bench_main(
    name: &str,
    quick: bool,
    experiment: impl FnOnce(Option<Arc<dyn EventSink>>) -> (Report, Value),
) {
    let progress = Arc::new(ProgressSink::stages(Progress::stdout()));
    let (report, scenario) = experiment(Some(Arc::clone(&progress) as Arc<dyn EventSink>));
    progress.finish();
    println!("{report}");
    record_scenario(name, scenario, quick);
}

/// Merges one named scenario into an existing `BENCH_learning.json`
/// document (or, for `None`, a fresh one), returning the rendered file
/// contents.  A scenario already present is replaced in place; a new one
/// is appended.  An existing document that is not a JSON object is an
/// error, never silently replaced.
///
/// Every merge also re-scans the whole document for perf regressions: any
/// object carrying a `speedup`/`speedup_*` number below 1.0 is flagged
/// with `"regression": true`, and a stale flag is dropped once the number
/// recovers — so the trajectory file itself says where parallelism is
/// currently losing to sequential.
pub fn merge_scenario(
    existing: Option<&str>,
    name: &str,
    scenario: Value,
) -> Result<String, String> {
    let mut document = match existing {
        Some(text) => json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?,
        None => Value::Map(vec![(
            "experiment".to_string(),
            Value::Str("parallel_learning".to_string()),
        )]),
    };
    let Value::Map(fields) = &mut document else {
        return Err("the document is not a JSON object".to_string());
    };
    match fields.iter_mut().find(|(k, _)| k == "scenarios") {
        Some((_, Value::Map(scenarios))) => match scenarios.iter_mut().find(|(k, _)| k == name) {
            Some((_, row)) => *row = scenario,
            None => scenarios.push((name.to_string(), scenario)),
        },
        _ => fields.push((
            "scenarios".to_string(),
            Value::Map(vec![(name.to_string(), scenario)]),
        )),
    }
    flag_regressions(&mut document);
    Ok(json::render_pretty(&document))
}

/// Walks a JSON tree and maintains the `"regression"` markers described on
/// [`merge_scenario`].
fn flag_regressions(value: &mut Value) {
    let is_speedup = |key: &str| key == "speedup" || key.starts_with("speedup_");
    match value {
        Value::Map(fields) => {
            let speedups: Vec<&Value> = fields
                .iter()
                .filter(|(key, _)| is_speedup(key))
                .map(|(_, speedup)| speedup)
                .collect();
            if !speedups.is_empty() {
                let regressed = speedups.iter().any(|speedup| match speedup {
                    Value::F64(n) => *n < 1.0,
                    Value::U64(n) => *n < 1,
                    Value::I64(n) => *n < 1,
                    _ => false,
                });
                fields.retain(|(key, _)| key != "regression");
                if regressed {
                    fields.push(("regression".to_string(), Value::Bool(true)));
                }
            }
            for (key, entry) in fields.iter_mut() {
                if !is_speedup(key) {
                    flag_regressions(entry);
                }
            }
        }
        Value::Seq(items) => items.iter_mut().for_each(flag_regressions),
        _ => {}
    }
}

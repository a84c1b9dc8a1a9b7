//! The traced run: each workload's learning stack rebuilt from the
//! crates' public pieces with a shim around every layer, plus the ledger
//! that turns the shims' totals into per-layer metrics.

use crate::shims::{TracedFactory, TracedOracle, TracedSink, TracedSul, COUNTERS};
use crate::trace::{self, Layer};
use crate::workloads::{
    close_event_log, fresh_event_log, google_factory, guarded, jitter_link, Outcome, WorkDir,
    Workload, JITTER_INFLIGHT,
};
use bytes::Bytes;
use prognosis_automata::alphabet::Alphabet;
use prognosis_core::net_transport::NetworkedSessionFactory;
use prognosis_core::pipeline::LearnConfig;
use prognosis_core::session::{EngineStats, SessionSul, SessionSulFactory};
use prognosis_core::sul::{Sul, SulMembershipOracle};
use prognosis_core::{EngineShutdown, ParallelSulOracle, TcpSul, TcpSulFactory};
use prognosis_events::EventSink;
use prognosis_learner::cache::StoreKey;
use prognosis_learner::eq_oracles::RandomWordOracle;
use prognosis_learner::journal::{JournalStore, RetainPolicy};
use prognosis_learner::oracle::{CacheOracle, MembershipOracle};
use prognosis_learner::trie::PrefixTrie;
use prognosis_learner::{DTreeLearner, Learner};
use prognosis_quic_wire::Packet;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the ledger needs from one traced learn besides the span totals.
#[derive(Default)]
pub struct Observed {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub trie_nodes: u64,
    pub journal_bytes: u64,
    pub journal_appended: u64,
    pub engine: Option<EngineStats>,
}

/// `run_learner` of the pipeline, with the cache and the learner as spans.
fn run_learner<M: MembershipOracle>(
    alphabet: &Alphabet,
    config: &LearnConfig,
    cache: CacheOracle<M>,
    observed: &mut Observed,
) -> (Outcome, M, PrefixTrie) {
    let mut membership = TracedOracle::new(cache, Layer::Trie);
    let mut learner = DTreeLearner::with_strategy(alphabet.clone(), config.sift);
    let mut equivalence = RandomWordOracle::new(
        config.seed,
        config.random_tests,
        config.min_word_len,
        config.max_word_len,
    )
    .with_batch_size(config.eq_batch_size);
    let result = trace::span(Layer::Learner, || {
        learner.learn(&mut membership, &mut equivalence)
    });
    let cache = membership.into_inner();
    let mut stats = result.stats;
    stats.fresh_symbols = cache.fresh_symbols();
    stats.equivalence_tests = equivalence.tests_executed();
    observed.cache_hits = cache.hits();
    observed.cache_misses = cache.misses();
    observed.trie_nodes = cache.trie().num_nodes() as u64;
    let (inner, trie) = cache.into_parts();
    let outcome = Outcome {
        model: result.model,
        stats,
        virtual_micros: 0,
        event_bytes: 0,
    };
    (outcome, inner, trie)
}

/// `learn_model` with a journal, rebuilt: journal load, sequential learn
/// over `SulMembershipOracle`, journal save.
fn warm_sequential(
    journal: &Path,
    alphabet: &Alphabet,
    config: &LearnConfig,
    observed: &mut Observed,
) -> Result<Outcome, String> {
    let sul = TracedSul::new(TcpSul::with_defaults());
    let key = StoreKey::new(
        sul.cache_key().ok_or("the TCP SUL has a cache key")?,
        "",
        alphabet,
    );
    let warm = trace::span(Layer::JournalLoad, || {
        JournalStore::load_matching(journal, &key)
    })
    .unwrap_or_default();
    let cache = CacheOracle::with_trie(SulMembershipOracle::new(sul), warm);
    let (outcome, _, trie) = run_learner(alphabet, config, cache, observed);
    let before = file_len(journal);
    trace::span(Layer::JournalSave, || {
        JournalStore::save_merged_at(journal, &key, &trie, RetainPolicy::OnlyThisKey)
    })
    .map_err(|e| format!("journal save failed: {e}"))?;
    observed.journal_bytes = file_len(journal);
    observed.journal_appended = observed.journal_bytes.saturating_sub(before);
    Ok(outcome)
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// `learn_model_parallel` rebuilt over an explicit engine.
fn parallel<F>(
    factory: &F,
    engine: ParallelSulOracle<F::Session>,
    alphabet: &Alphabet,
    config: &LearnConfig,
    observed: &mut Observed,
) -> Result<Outcome, String>
where
    F: SessionSulFactory,
    F::Session: Send + 'static,
{
    // The pipeline asks a throwaway session for the cache key.
    let _ = factory.create_session().cache_key();
    let cache = CacheOracle::with_trie(TracedOracle::new(engine, Layer::Engine), PrefixTrie::new());
    let (outcome, engine, _) = guarded(|| Ok(run_learner(alphabet, config, cache, observed)))?;
    let EngineShutdown { engine: stats, .. } =
        engine.into_inner().shutdown().map_err(|e| e.to_string())?;
    observed.engine = Some(stats);
    Ok(Outcome {
        virtual_micros: observed
            .engine
            .as_ref()
            .map_or(0, |e| e.virtual_elapsed_micros),
        ..outcome
    })
}

/// One traced learn with equivalence-oracle seed `eq_seed`.
pub fn learn_traced(
    workload: Workload,
    eq_seed: u64,
    work: &WorkDir,
    observed: &mut Observed,
) -> Result<Outcome, String> {
    let config = workload.config(eq_seed);
    let alphabet = workload.alphabet();
    guarded(|| match workload {
        Workload::TcpWarmJournal => warm_sequential(&work.journal(), &alphabet, &config, observed),
        Workload::TcpCold1w => {
            let factory = TracedFactory::new(TcpSulFactory::default());
            let engine = ParallelSulOracle::spawn_with(&factory, 1, 1);
            parallel(&factory, engine, &alphabet, &config, observed)
        }
        Workload::QuicJitter16x => {
            let path = work.event_log();
            let log = Arc::new(fresh_event_log(&path)?);
            let sink: Arc<dyn EventSink> = Arc::new(TracedSink::new(log.clone()));
            let factory =
                NetworkedSessionFactory::new(TracedFactory::new(google_factory()), jitter_link());
            let engine = ParallelSulOracle::spawn_with_events(
                &factory,
                1,
                JITTER_INFLIGHT,
                Some(sink),
                true,
            );
            let result = parallel(&factory, engine, &alphabet, &config, observed);
            let event_bytes = close_event_log(log, &path)?;
            Ok(Outcome {
                event_bytes,
                ..result?
            })
        }
    })
}

/// Totals over a traced run.
#[derive(Default)]
pub struct Ledger {
    pub learns: u64,
    pub traced_wall_ns: u64,
    pub untraced_wall_ns: u64,
    pub process_cpu_ns: u64,
    pub learner_cpu_ns: u64,
    pub equivalence_tests: u64,
    pub fresh_symbols: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub trie_nodes: u64,
    pub journal_bytes: u64,
    pub journal_appended: u64,
    pub queries_completed: u64,
    pub reply_messages: u64,
    pub occupancy_sum: f64,
    pub clock_advances: u64,
    pub peak_inflight: u64,
    pub virtual_s: Vec<f64>,
    pub event_bytes: u64,
}

impl Ledger {
    pub fn add(&mut self, outcome: &Outcome, observed: &Observed) {
        self.learns += 1;
        self.equivalence_tests += outcome.stats.equivalence_tests;
        self.fresh_symbols += outcome.stats.fresh_symbols;
        self.cache_hits += observed.cache_hits;
        self.cache_misses += observed.cache_misses;
        self.trie_nodes += observed.trie_nodes;
        self.journal_bytes += observed.journal_bytes;
        self.journal_appended += observed.journal_appended;
        self.event_bytes += outcome.event_bytes;
        if let Some(engine) = &observed.engine {
            self.queries_completed += engine.queries_completed;
            self.reply_messages += engine.reply_messages;
            self.occupancy_sum += engine.occupancy();
            self.clock_advances += engine.clock_advances;
            self.peak_inflight = self.peak_inflight.max(engine.peak_inflight);
            self.virtual_s.push(outcome.virtual_micros as f64 * 1e-6);
        }
    }
}

/// Mean time of one `Packet::decode_header` over `datagrams`, replayed
/// for at least `min_time`.
fn decode_header_ns(datagrams: &[Bytes], min_time: Duration) -> f64 {
    if datagrams.is_empty() {
        return 0.0;
    }
    let start = Instant::now();
    let mut decoded = 0u64;
    loop {
        for datagram in datagrams {
            let _ = std::hint::black_box(Packet::decode_header(std::hint::black_box(datagram)));
            decoded += 1;
        }
        if start.elapsed() >= min_time {
            break;
        }
    }
    start.elapsed().as_nanos() as f64 / decoded as f64
}

/// One per-layer metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The self-time ledger of a traced run: each layer's share of the
/// basis (wall time, or process CPU time for threaded workloads).
pub struct LayerShares {
    pub basis: &'static str,
    pub rows: Vec<(&'static str, f64)>,
    pub unattributed: f64,
}

impl LayerShares {
    pub fn top_layer(&self) -> &'static str {
        self.rows
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map_or("none", |row| row.0)
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Builds the per-layer metrics and the ledger from the run's totals.
pub fn report(workload: Workload, ledger: &Ledger) -> (Vec<Metric>, LayerShares) {
    let learns = ledger.learns.max(1) as f64;
    let per_model = |ns: u64| ns as f64 * 1e-9 / learns;
    let learner = trace::totals(Layer::Learner);
    let trie = trace::totals(Layer::Trie);
    let load = trace::totals(Layer::JournalLoad);
    let save = trace::totals(Layer::JournalSave);
    let engine = trace::totals(Layer::Engine);
    let adapter = trace::totals(Layer::Adapter);
    let reset = trace::totals(Layer::AdapterReset);
    let server = trace::totals(Layer::Server);
    let sink = trace::totals(Layer::Sink);
    let symbols = COUNTERS.symbols.load(Ordering::Relaxed) as f64;
    let requests = COUNTERS.requests.load(Ordering::Relaxed) as f64;
    let responses = COUNTERS.responses.load(Ordering::Relaxed) as f64;
    let events = COUNTERS.events.load(Ordering::Relaxed) as f64;
    let wire_bytes = COUNTERS.bytes.load(Ordering::Relaxed) as f64;
    let quic = workload == Workload::QuicJitter16x;
    let queries = (ledger.cache_hits + ledger.cache_misses) as f64;

    let sul_other_ns = adapter.other_threads_ns + reset.other_threads_ns + server.other_threads_ns;
    let worker_cpu_ns = ledger.process_cpu_ns.saturating_sub(ledger.learner_cpu_ns);
    let session_ns = if workload.threaded() {
        worker_cpu_ns.saturating_sub(sul_other_ns + sink.other_threads_ns)
    } else {
        0
    };
    let server_layer = if quic { "quic-sim" } else { "tcp" };
    let (basis_name, basis_ns, rows) = if workload.threaded() {
        (
            "process cpu",
            ledger.process_cpu_ns,
            vec![
                ("learner", learner.ns()),
                ("learner.trie", trie.ns()),
                ("core.engine", trace::engine_dispatch_cpu_ns()),
                ("core.adapter", adapter.ns() + reset.ns()),
                (server_layer, server.ns()),
                ("core.session", session_ns),
                ("events", sink.ns()),
            ],
        )
    } else {
        (
            "wall",
            ledger.traced_wall_ns,
            vec![
                ("learner", learner.ns()),
                ("learner.trie", trie.ns()),
                ("learner.journal", load.ns() + save.ns()),
                ("core.adapter", adapter.ns() + reset.ns()),
                (server_layer, server.ns()),
            ],
        )
    };
    let basis = basis_ns as f64;
    let attributed: u64 = rows.iter().map(|row| row.1).sum();
    let shares = LayerShares {
        basis: basis_name,
        rows: rows
            .iter()
            .map(|&(name, ns)| (name, ratio(ns as f64, basis)))
            .collect(),
        unattributed: ratio(basis - attributed as f64, basis),
    };

    let datagrams = if quic {
        COUNTERS.take_captured()
    } else {
        Vec::new()
    };
    let engine_wait = per_model(engine.ns());
    let worker_sul = per_model(sul_other_ns);
    let mut virtual_s = ledger.virtual_s.clone();
    let metric = |name, value, unit| Metric { name, value, unit };
    let metrics = vec![
        metric("learner.self_s", per_model(learner.ns()), "s"),
        metric(
            "learner.equivalence_tests",
            ledger.equivalence_tests as f64 / learns,
            "count",
        ),
        metric("learner.trie.self_s", per_model(trie.ns()), "s"),
        metric(
            "learner.trie.hit_ratio",
            ratio(ledger.cache_hits as f64, queries),
            "ratio",
        ),
        metric(
            "learner.trie.nodes",
            ledger.trie_nodes as f64 / learns,
            "count",
        ),
        metric(
            "learner.trie.allocs_per_query",
            ratio(trie.allocs as f64, queries),
            "count",
        ),
        metric(
            "learner.trie.fresh_symbols_per_model",
            ledger.fresh_symbols as f64 / learns,
            "count",
        ),
        metric("learner.journal.load_s", per_model(load.ns()), "s"),
        metric("learner.journal.save_s", per_model(save.ns()), "s"),
        metric(
            "learner.journal.bytes",
            ledger.journal_bytes as f64 / learns,
            "bytes",
        ),
        metric(
            "learner.journal.bytes_appended",
            ledger.journal_appended as f64 / learns,
            "bytes",
        ),
        metric("core.engine.wait_s", engine_wait, "s"),
        metric(
            "core.engine.worker_sul_s",
            if workload.threaded() { worker_sul } else { 0.0 },
            "s",
        ),
        metric(
            "core.engine.overhead_s",
            if workload.threaded() {
                engine_wait - worker_sul
            } else {
                0.0
            },
            "s",
        ),
        metric(
            "core.engine.answers_per_reply",
            ratio(
                ledger.queries_completed as f64,
                ledger.reply_messages as f64,
            ),
            "count",
        ),
        metric(
            "core.engine.occupancy",
            ledger.occupancy_sum / learns,
            "ratio",
        ),
        metric(
            "core.adapter.ns_per_symbol",
            ratio(adapter.ns() as f64, symbols),
            "ns",
        ),
        metric(
            "core.adapter.allocs_per_symbol",
            ratio(adapter.allocs as f64, symbols),
            "count",
        ),
        metric(
            "core.adapter.reset_ns",
            ratio(reset.ns() as f64, reset.calls as f64),
            "ns",
        ),
        metric(
            "quic-sim.ns_per_datagram",
            if quic {
                ratio(server.ns() as f64, requests)
            } else {
                0.0
            },
            "ns",
        ),
        metric(
            "quic-sim.allocs_per_datagram",
            if quic {
                ratio(server.allocs as f64, requests)
            } else {
                0.0
            },
            "count",
        ),
        metric(
            "tcp.ns_per_segment",
            if quic {
                0.0
            } else {
                ratio(server.ns() as f64, requests)
            },
            "ns",
        ),
        metric(
            "quic-wire.decode_header_ns",
            decode_header_ns(&datagrams, Duration::from_millis(300)),
            "ns",
        ),
        metric(
            "quic-wire.bytes_per_symbol",
            if quic {
                ratio(wire_bytes, symbols)
            } else {
                0.0
            },
            "bytes",
        ),
        metric("core.session.self_s", per_model(session_ns), "s"),
        metric(
            "core.session.clock_advances",
            ledger.clock_advances as f64 / learns,
            "count",
        ),
        metric(
            "core.session.peak_inflight",
            ledger.peak_inflight as f64,
            "count",
        ),
        metric(
            "core.session.virtual_s.p50",
            crate::quantile(&mut virtual_s, 0.5),
            "s",
        ),
        metric(
            "netsim.datagrams",
            if workload == Workload::QuicJitter16x {
                (requests + responses) / learns
            } else {
                0.0
            },
            "count",
        ),
        metric("events.emit_ns", ratio(sink.ns() as f64, events), "ns"),
        metric("events.count", events / learns, "count"),
        metric("events.bytes", ledger.event_bytes as f64 / learns, "bytes"),
        metric(
            "trace.overhead_frac",
            ratio(ledger.traced_wall_ns as f64, ledger.untraced_wall_ns as f64) - 1.0,
            "ratio",
        ),
        metric("trace.unattributed_frac", shares.unattributed, "ratio"),
    ];
    (metrics, shares)
}

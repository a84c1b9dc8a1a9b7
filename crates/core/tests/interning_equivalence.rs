//! The interning tentpole's safety net: symbol ids and the split of each
//! batch into per-worker shares are pure engine-internal mechanics.  A
//! learning run's observable face — the learned model, the learner-side
//! statistics, the SUL interaction counters, the deterministic event-log
//! bytes and the final observation trie — must be bit-identical across
//! the whole (workers, max_inflight, loss) grid to the (1 worker,
//! 1 session) reference of the same scenario.  A second test warm-starts
//! the interned learner from a journal file encoded byte-by-byte against
//! the *documented* pre-interning on-disk format (string symbols, LEB128
//! varints, FNV-checksummed frames, the `PGNJRNL1` magic) — written here
//! by hand, not by today's `JournalStore` writer — proving that a file an
//! older build wrote still warm-starts today's learner.

use prognosis_automata::mealy::MealyMachine;
use prognosis_automata::word::{InputWord, OutputWord};
use prognosis_core::net_transport::{LinkConfig, NetworkedSessionFactory};
use prognosis_core::pipeline::learn_model_parallel_with_events;
use prognosis_core::pipeline::{learn_model, learn_model_parallel, LearnConfig};
use prognosis_core::session::SimDuration;
use prognosis_core::sul::{Sul, SulStats};
use prognosis_core::tcp_adapter::{tcp_alphabet, TcpSul, TcpSulFactory};
use prognosis_events::{EventSink, MemorySink};
use prognosis_learner::cache::{alphabet_hash, StoreKey};
use prognosis_learner::journal::JournalStore;
use prognosis_learner::stats::LearningStats;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

fn tmp_path(name: &str) -> std::path::PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "prognosis-interning-equiv-{}-{}-{name}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

fn grid_config() -> LearnConfig {
    LearnConfig {
        random_tests: 120,
        max_word_len: 6,
        eq_batch_size: 64,
        ..LearnConfig::default()
    }
}

/// Everything a learning run exposes to its caller and its logs.
struct RunFingerprint {
    model: MealyMachine,
    stats: LearningStats,
    sul: SulStats,
    log: String,
    /// Final observation trie as its canonical path dump; `None` on an
    /// impaired link (lossy answers never persist — `cache_key` is `None`
    /// by design, so there is no trie file to read back).
    trie_paths: Option<Vec<(InputWord, OutputWord, bool)>>,
}

/// Runs the TCP-over-wire scenario at the given engine shape and link
/// loss, capturing the full fingerprint.
fn run_at(lossy: bool, workers: usize, max_inflight: usize) -> RunFingerprint {
    let mut link = LinkConfig::with_latency(SimDuration::from_micros(100));
    if lossy {
        link = link.loss(0.1);
    }
    let factory = NetworkedSessionFactory::new(TcpSulFactory::default(), link).with_noise_seed(7);
    let cache = (!lossy).then(|| tmp_path("grid"));
    let mut config = grid_config()
        .with_workers(workers)
        .with_max_inflight(max_inflight);
    if let Some(cache) = &cache {
        let _ = std::fs::remove_file(cache);
        config = config.with_cache_path(cache.to_string_lossy().into_owned());
    }
    let sink = Arc::new(MemorySink::new());
    let outcome = learn_model_parallel_with_events(
        &factory,
        &tcp_alphabet(),
        config,
        Arc::clone(&sink) as Arc<dyn EventSink>,
        false,
    )
    .expect("parallel learning succeeds");
    let trie_paths = cache.map(|cache| {
        let key = StoreKey::new(
            TcpSul::with_defaults()
                .cache_key()
                .expect("TCP SULs are cacheable"),
            "",
            &tcp_alphabet(),
        );
        let trie = JournalStore::load_matching(&cache, &key)
            .expect("the unimpaired run persisted its observations");
        let _ = std::fs::remove_file(&cache);
        trie.paths()
    });
    RunFingerprint {
        model: outcome.learned.model,
        stats: outcome.learned.stats,
        sul: outcome.sul_stats,
        log: sink.contents(),
        trie_paths,
    }
}

fn reference(lossy: bool) -> &'static RunFingerprint {
    static CLEAN: OnceLock<RunFingerprint> = OnceLock::new();
    static LOSSY: OnceLock<RunFingerprint> = OnceLock::new();
    let cell = if lossy { &LOSSY } else { &CLEAN };
    cell.get_or_init(|| {
        let fp = run_at(lossy, 1, 1);
        assert!(
            fp.log.contains("\"name\":\"wire:send\""),
            "the networked scenario must log per-packet wire events"
        );
        if lossy {
            assert!(
                fp.log.contains("\"name\":\"wire:drop\""),
                "a 10% lossy link must actually drop packets"
            );
        }
        fp
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // The tentpole contract: interned ids and per-worker shares may move
    // wall-clock scheduling, but every learner-visible
    // artefact is a pure function of the scenario — identical across
    // (workers 1–3, max_inflight 1–64, loss ∈ {0, 0.1}).
    #[test]
    fn interned_runs_are_bit_identical_across_the_engine_grid(
        workers in 1usize..=3,
        inflight_exp in 0u32..7,
        lossy in any::<bool>(),
    ) {
        let max_inflight = 1usize << inflight_exp; // 1..=64
        let run = run_at(lossy, workers, max_inflight);
        let reference = reference(lossy);
        prop_assert_eq!(
            &reference.model, &run.model,
            "(workers, max_inflight, lossy) = ({}, {}, {}) changed the model",
            workers, max_inflight, lossy
        );
        prop_assert_eq!(reference.stats, run.stats, "learner statistics diverged");
        prop_assert_eq!(reference.sul, run.sul, "SUL interaction counters diverged");
        prop_assert_eq!(
            &reference.log, &run.log,
            "the deterministic event log changed bytes"
        );
        prop_assert_eq!(
            &reference.trie_paths, &run.trie_paths,
            "the persisted observation trie changed shape"
        );
    }
}

// ---- pre-interning journal compatibility ------------------------------

fn push_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    push_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Low 32 bits of FNV-1a-64 — the journal's per-frame checksum.
fn frame_checksum(payload: &[u8]) -> u32 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in payload {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash as u32
}

fn push_frame(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    out.push(tag);
    push_varint(out, payload.len() as u64);
    out.extend_from_slice(payload);
    out.extend_from_slice(&frame_checksum(payload).to_le_bytes());
}

/// Encodes a journal file exactly as the pre-interning writer laid it out:
/// the first format's magic `PGNJRNL1`, one string-keyed segment header,
/// one string-symbol record per path.  Deliberately independent of
/// `JournalStore`'s own encoder — this is the documented disk format,
/// transcribed from the spec, and the magic is spelled out so the file
/// stays the one an older build wrote.
fn encode_pre_interning_journal(
    key: &StoreKey,
    paths: &[(InputWord, OutputWord, bool)],
) -> Vec<u8> {
    let mut file = Vec::new();
    file.extend_from_slice(b"PGNJRNL1");
    let mut segment = Vec::new();
    push_str(&mut segment, key.sul_id());
    push_str(&mut segment, key.impl_version());
    segment.extend_from_slice(&key.alphabet_hash().to_le_bytes());
    push_varint(&mut segment, key.alphabet().len() as u64);
    for symbol in key.alphabet() {
        push_str(&mut segment, symbol);
    }
    push_frame(&mut file, 0x01, &segment);
    for (input, output, terminal) in paths {
        let mut record = Vec::new();
        record.push(u8::from(*terminal));
        push_varint(&mut record, input.len() as u64);
        for (step_in, step_out) in input.iter().zip(output.iter()) {
            push_str(&mut record, step_in.as_str());
            push_str(&mut record, step_out.as_str());
        }
        push_frame(&mut file, 0x02, &record);
    }
    file
}

/// A journal file in the pre-interning on-disk format (hand-encoded string
/// records under the first format's magic) warm-starts the interned
/// learner to a zero-fresh-symbol, bit-identical repeat run.
#[test]
fn warm_start_from_a_pre_interning_journal_file() {
    let alphabet = tcp_alphabet();
    let key = StoreKey::new(
        TcpSul::with_defaults()
            .cache_key()
            .expect("TCP SULs are cacheable"),
        "",
        &alphabet,
    );
    assert_eq!(key.alphabet_hash(), alphabet_hash(&alphabet));

    // A cold run persists the observation set the repeat run will need.
    let cold_cache = tmp_path("cold");
    let _ = std::fs::remove_file(&cold_cache);
    let config = LearnConfig {
        random_tests: 300,
        max_word_len: 8,
        ..LearnConfig::default()
    }
    .with_cache_path(cold_cache.to_string_lossy().into_owned());
    let cold = learn_model(&mut TcpSul::with_defaults(), &alphabet, config.clone());
    assert!(cold.stats.fresh_symbols > 0, "cold run pays fresh symbols");
    let paths = JournalStore::load_matching(&cold_cache, &key)
        .expect("cold run persisted its trie")
        .paths();
    let _ = std::fs::remove_file(&cold_cache);

    // Re-encode those observations with the local pre-interning encoder
    // and point a warm run at the hand-made file.
    let warm_cache = tmp_path("preintern");
    std::fs::write(&warm_cache, encode_pre_interning_journal(&key, &paths))
        .expect("write hand-encoded journal");
    let report = JournalStore::verify(&warm_cache).expect("verify hand-encoded journal");
    assert!(
        report.is_clean(),
        "the hand-encoded pre-interning file must parse as a clean journal"
    );

    let warm_config = config.with_cache_path(warm_cache.to_string_lossy().into_owned());
    for workers in [1usize, 3] {
        let outcome = learn_model_parallel(
            &TcpSulFactory::default(),
            &alphabet,
            warm_config.clone().with_workers(workers),
        )
        .expect("warm parallel learning succeeds");
        assert_eq!(
            cold.model, outcome.learned.model,
            "warm model with {workers} workers must match the cold model"
        );
        assert_eq!(
            outcome.learned.stats.fresh_symbols, 0,
            "a pre-interning journal must answer every query from disk"
        );
        assert_eq!(outcome.sul_stats.symbols_sent, 0);
        assert_eq!(
            cold.stats.membership_queries, outcome.learned.stats.membership_queries,
            "the learner must see the identical query stream warm and cold"
        );
    }
    let _ = std::fs::remove_file(&warm_cache);
}

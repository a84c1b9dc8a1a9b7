//! Cross-run persistence: a learning run with a `cache_path` persists its
//! observations, and a repeat run against the same SUL answers every
//! membership query from disk — zero fresh SUL symbols, bit-identical
//! model, for any worker count.  A changed SUL configuration or alphabet
//! invalidates the key and the run soundly starts cold.

use prognosis_core::pipeline::{
    learn_model, learn_model_parallel, learn_model_parallel_seeded_with_events, LearnConfig,
};
use prognosis_core::quic_adapter::{quic_data_alphabet, QuicSul};
use prognosis_core::sul::Sul;
use prognosis_core::tcp_adapter::{tcp_alphabet, TcpSul, TcpSulFactory};
use prognosis_events::json::{self, Value};
use prognosis_learner::cache::StoreKey;
use prognosis_learner::journal::{JournalStore, RetainPolicy};
use prognosis_quic_sim::profile::ImplementationProfile;

fn tmp_cache(name: &str) -> String {
    std::env::temp_dir()
        .join(format!(
            "prognosis-warm-start-test-{}-{name}.journal",
            std::process::id()
        ))
        .to_string_lossy()
        .into_owned()
}

fn small_config(cache: &str) -> LearnConfig {
    LearnConfig {
        random_tests: 300,
        max_word_len: 8,
        ..LearnConfig::default()
    }
    .with_cache_path(cache)
}

#[test]
fn tcp_warm_start_is_deterministic_for_one_and_four_workers() {
    let cache = tmp_cache("tcp-workers");
    let _ = std::fs::remove_file(&cache);
    let config = small_config(&cache);

    let mut cold_sul = TcpSul::with_defaults();
    let cold = learn_model(&mut cold_sul, &tcp_alphabet(), config.clone());
    assert!(cold.stats.fresh_symbols > 0, "cold run pays fresh symbols");

    for workers in [1usize, 4] {
        let outcome = learn_model_parallel(
            &TcpSulFactory::default(),
            &tcp_alphabet(),
            config.clone().with_workers(workers),
        )
        .expect("parallel learning succeeds");
        assert_eq!(
            cold.model, outcome.learned.model,
            "warm model with {workers} workers must be bit-identical to the cold model"
        );
        assert_eq!(
            outcome.learned.stats.fresh_symbols, 0,
            "warm run with {workers} workers must answer everything from the cache"
        );
        assert_eq!(outcome.sul_stats.symbols_sent, 0);
        assert_eq!(
            cold.stats.membership_queries, outcome.learned.stats.membership_queries,
            "the learner must see the identical query stream warm and cold"
        );
    }
    let _ = std::fs::remove_file(&cache);
}

#[test]
fn quic_warm_start_answers_repeat_runs_from_disk() {
    let cache = tmp_cache("quic");
    let _ = std::fs::remove_file(&cache);
    let config = LearnConfig {
        random_tests: 200,
        max_word_len: 8,
        ..LearnConfig::default()
    }
    .with_cache_path(&cache);

    let mut cold_sul = QuicSul::new(ImplementationProfile::google(), 3);
    let cold = learn_model(&mut cold_sul, &quic_data_alphabet(), config.clone());
    let mut warm_sul = QuicSul::new(ImplementationProfile::google(), 3);
    let warm = learn_model(&mut warm_sul, &quic_data_alphabet(), config.clone());
    assert_eq!(cold.model, warm.model);
    assert_eq!(warm.stats.fresh_symbols, 0);
    assert_eq!(warm_sul.stats().symbols_sent, 0);

    // Same path, different SUL seed: the key mismatch forces a cold run.
    let mut other_sul = QuicSul::new(ImplementationProfile::google(), 4);
    let other = learn_model(&mut other_sul, &quic_data_alphabet(), config.clone());
    assert!(
        other.stats.fresh_symbols > 0,
        "a different SUL seed must not reuse the cached observations"
    );
    let _ = std::fs::remove_file(&cache);
}

#[test]
fn alphabet_change_invalidates_the_cache_key() {
    let cache = tmp_cache("alphabet");
    let _ = std::fs::remove_file(&cache);
    let config = small_config(&cache);

    let mut sul = TcpSul::with_defaults();
    let _ = learn_model(&mut sul, &tcp_alphabet(), config.clone());

    // A reduced alphabet is a different learning problem: warm start must
    // not pick up the full-alphabet observations even though every reduced
    // query would be answerable (the key is the alphabet, not coverage).
    let reduced: prognosis_automata::alphabet::Alphabet =
        tcp_alphabet().iter().take(3).cloned().collect();
    let mut sul2 = TcpSul::with_defaults();
    let reduced_run = learn_model(&mut sul2, &reduced, config.clone());
    assert!(reduced_run.stats.fresh_symbols > 0);

    // ... and the reduced run's save replaced the file (different key), so
    // the full alphabet now starts cold again.
    let mut sul3 = TcpSul::with_defaults();
    let full_again = learn_model(&mut sul3, &tcp_alphabet(), config.clone());
    assert!(full_again.stats.fresh_symbols > 0);
    let _ = std::fs::remove_file(&cache);
}

#[test]
fn warm_start_can_be_disabled_while_still_persisting() {
    let cache = tmp_cache("cold-start");
    let _ = std::fs::remove_file(&cache);
    let config = small_config(&cache);

    let mut sul = TcpSul::with_defaults();
    let first = learn_model(&mut sul, &tcp_alphabet(), config.clone());

    let no_warm = LearnConfig {
        warm_start: false,
        ..config.clone()
    };
    let mut sul2 = TcpSul::with_defaults();
    let second = learn_model(&mut sul2, &tcp_alphabet(), no_warm);
    assert_eq!(
        first.stats.fresh_symbols, second.stats.fresh_symbols,
        "with warm_start off the second run repeats the cold run exactly"
    );

    // The file kept accumulating: a warm third run is free.
    let mut sul3 = TcpSul::with_defaults();
    let third = learn_model(&mut sul3, &tcp_alphabet(), config.clone());
    assert_eq!(third.stats.fresh_symbols, 0);
    let _ = std::fs::remove_file(&cache);
}

/// A partially warm learn (a new equivalence seed over a journal another
/// seed filled) commits through its checkout exactly the bytes
/// `save_merged` appends when handed the same final trie on a copy of the
/// journal.
#[test]
fn partially_warm_learn_appends_what_save_merged_appends() {
    let cache = tmp_cache("partial");
    let copy = tmp_cache("partial-copy");
    let _ = std::fs::remove_file(&cache);
    let config = small_config(&cache);
    let _ = learn_model(
        &mut TcpSul::with_defaults(),
        &tcp_alphabet(),
        config.clone(),
    );
    std::fs::copy(&cache, &copy).unwrap();
    let filled = std::fs::metadata(&cache).unwrap().len();

    let second = LearnConfig {
        seed: 8,
        ..config.clone()
    };
    let warm = learn_model(
        &mut TcpSul::with_defaults(),
        &tcp_alphabet(),
        second.clone(),
    );
    assert!(
        warm.stats.fresh_symbols > 0,
        "a new equivalence seed asks something new"
    );
    assert!(std::fs::metadata(&cache).unwrap().len() > filled);

    // The same learn, handed its final trie instead of persisting it.
    let key = StoreKey::new(
        TcpSul::with_defaults().cache_key().unwrap(),
        "",
        &tcp_alphabet(),
    );
    let seed_trie = JournalStore::load_matching(&copy, &key).unwrap();
    let seeded = learn_model_parallel_seeded_with_events(
        &TcpSulFactory::default(),
        &tcp_alphabet(),
        &second,
        seed_trie,
        &[],
        None,
    )
    .unwrap();
    assert_eq!(seeded.outcome.learned.model, warm.model);
    JournalStore::save_merged_at(&copy, &key, &seeded.trie, RetainPolicy::OnlyThisKey).unwrap();
    assert!(
        std::fs::read(&cache).unwrap() == std::fs::read(&copy).unwrap(),
        "the lineage delta must be byte-identical to the merge delta"
    );
    let _ = std::fs::remove_file(&cache);
    let _ = std::fs::remove_file(&copy);
}

/// A fully warm learn writes nothing: the journal keeps its length and its
/// modification time.
#[test]
fn fully_warm_learn_leaves_the_journal_untouched() {
    let cache = tmp_cache("untouched");
    let _ = std::fs::remove_file(&cache);
    let config = small_config(&cache);
    let cold = learn_model(
        &mut TcpSul::with_defaults(),
        &tcp_alphabet(),
        config.clone(),
    );
    let before = std::fs::metadata(&cache).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(20));
    let warm = learn_model(&mut TcpSul::with_defaults(), &tcp_alphabet(), config);
    assert_eq!(warm.model, cold.model);
    assert_eq!(warm.stats.fresh_symbols, 0);
    let after = std::fs::metadata(&cache).unwrap();
    assert_eq!(after.len(), before.len());
    assert_eq!(after.modified().unwrap(), before.modified().unwrap());
    let _ = std::fs::remove_file(&cache);
}

/// A cache file without the journal magic — an older JSON cache holding
/// this very key, or noise — is a cold start: the learn pays exactly the
/// fresh symbols of a cacheless run, learns the same model, and leaves a
/// clean journal behind.
#[test]
fn a_cache_file_without_the_magic_learns_cold_and_becomes_a_journal() {
    let cache = tmp_cache("no-magic");
    let config = small_config(&cache);
    let reference = learn_model(
        &mut TcpSul::with_defaults(),
        &tcp_alphabet(),
        LearnConfig {
            cache_path: None,
            ..config.clone()
        },
    );
    let key = StoreKey::new(
        TcpSul::with_defaults().cache_key().unwrap(),
        "",
        &tcp_alphabet(),
    );
    let json = format!(
        r#"{{"version":2,"sul_id":{},"impl_version":"","alphabet":{},"alphabet_hash":{},"trie":[]}}"#,
        json::render(&Value::Str(key.sul_id().to_string())),
        json::render(&Value::Seq(
            key.alphabet().iter().cloned().map(Value::Str).collect()
        )),
        key.alphabet_hash()
    );
    let noise: Vec<u8> = (0u32..300)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 9) as u8)
        .collect();
    for bytes in [json.into_bytes(), noise] {
        std::fs::write(&cache, &bytes).unwrap();
        assert!(JournalStore::verify(&cache).is_err());
        assert!(JournalStore::open(&cache)
            .unwrap()
            .snapshot_entries()
            .is_empty());
        let learned = learn_model(
            &mut TcpSul::with_defaults(),
            &tcp_alphabet(),
            config.clone(),
        );
        assert_eq!(learned.model, reference.model);
        assert_eq!(learned.stats.fresh_symbols, reference.stats.fresh_symbols);
        assert!(JournalStore::verify(&cache).unwrap().is_clean());
        assert!(JournalStore::load_matching(&cache, &key).is_some());
    }
    let _ = std::fs::remove_file(&cache);
}

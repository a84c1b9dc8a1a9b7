//! Criterion benchmarks for the performance-shaped experiments.
//!
//! One group per experiment id (E1–E24, as named in `prognosis_bench`):
//! learning effort for the TCP and QUIC SULs (E1/E3), sequential vs
//! parallel learning (E15/E17), register synthesis (E2/E8), equivalence
//! checking of learned models (E5), the nondeterminism check (E6/E13), the
//! wire codec that every query passes through and the symbol hot path
//! (E24).  Sample counts are kept
//! small because each iteration performs a complete learning run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use prognosis_automata::alphabet::Alphabet;
use prognosis_automata::equivalence::machines_equivalent;
use prognosis_automata::known;
use prognosis_automata::word::InputWord;
use prognosis_automata::word::{IoTrace, OutputWord};
use prognosis_bench::Scenario;
use prognosis_core::latency::LatencySulFactory;
use prognosis_core::nondeterminism::{NondeterminismChecker, NondeterminismConfig};
use prognosis_core::pipeline::LearnConfig;
use prognosis_core::quic_adapter::{quic_data_alphabet, QuicSul, QuicSulFactory};
use prognosis_core::session::SimDuration;
use prognosis_core::tcp_adapter::{tcp_alphabet, TcpSulFactory};
use prognosis_quic_sim::profile::ImplementationProfile;
use prognosis_quic_wire::connection_id::ConnectionId;
use prognosis_quic_wire::crypto::{EncryptionLevel, Keys};
use prognosis_quic_wire::frame::Frame;
use prognosis_quic_wire::packet::{Packet, PacketHeader};
use prognosis_synth::synthesis::Synthesizer;
use prognosis_synth::term::TermDomain;
use prognosis_synth::trace::{ConcreteStep, ConcreteTrace};
use std::time::Duration;

fn quick_config() -> LearnConfig {
    LearnConfig {
        seed: 7,
        random_tests: 100,
        min_word_len: 2,
        max_word_len: 6,
        ..LearnConfig::default()
    }
}

/// E1: learning the TCP SUL.
fn bench_tcp_learning(c: &mut Criterion) {
    let mut group = c.benchmark_group("tcp_learning");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));
    let scenario = Scenario::new(TcpSulFactory::default(), tcp_alphabet(), quick_config());
    group.bench_function("seven_symbol_alphabet", |b| {
        b.iter(|| assert!(scenario.run().learned.model.num_states() >= 4))
    });
    group.finish();
}

/// E3: learning the QUIC profiles on the data-path alphabet.
fn bench_quic_learning(c: &mut Criterion) {
    let mut group = c.benchmark_group("quic_learning");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));
    for profile in [
        ImplementationProfile::quiche(),
        ImplementationProfile::google(),
    ] {
        let id = BenchmarkId::from_parameter(&profile.name);
        let factory = QuicSulFactory::new(profile, 3);
        let scenario = Scenario::new(factory, quic_data_alphabet(), quick_config());
        group.bench_function(id, |b| {
            b.iter(|| assert!(scenario.run().learned.model.num_states() >= 3))
        });
    }
    group.finish();
}

/// E15/E17: sequential vs batched-parallel learning on a latency-modelled
/// TCP SUL (50µs per symbol, 100µs per reset — the §4.1 deployment regime
/// the parallel engine exists for), at 2/4 blocking workers and at 1 worker
/// × 16/64 in-flight sessions.
fn bench_parallel_learning(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_learning");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(4));
    group.warm_up_time(Duration::from_millis(200));
    let factory = LatencySulFactory::new(
        TcpSulFactory::default(),
        SimDuration::from_micros(50),
        SimDuration::from_micros(100),
    );
    let config = LearnConfig {
        seed: 7,
        random_tests: 200,
        min_word_len: 2,
        max_word_len: 8,
        eq_batch_size: 256,
        ..LearnConfig::default()
    };
    let sequential = Scenario::new(factory, tcp_alphabet(), config);
    group.bench_function("tcp_sequential", |b| {
        b.iter(|| assert!(sequential.run().learned.model.num_states() >= 4))
    });
    for (id, workers, max_inflight) in [
        ("tcp_parallel/2", 2, 1),
        ("tcp_parallel/4", 4, 1),
        ("tcp_multiplexed_1worker/16", 1, 16),
        ("tcp_multiplexed_1worker/64", 1, 64),
    ] {
        let scenario = sequential.clone().engine(workers, max_inflight);
        group.bench_function(id, |b| {
            b.iter(|| assert!(scenario.run().learned.model.num_states() >= 4))
        });
    }
    group.finish();
}

/// E2/E8: register synthesis from concrete traces.
fn bench_register_synthesis(c: &mut Criterion) {
    let mut group = c.benchmark_group("register_synthesis");
    group.sample_size(20);
    // A latch machine with traces of growing length.
    let skeleton = {
        use prognosis_automata::mealy::MealyBuilder;
        let inputs = Alphabet::from_symbols(["put", "get"]);
        let mut b = MealyBuilder::new(inputs);
        let s0 = b.add_state();
        b.add_transition(s0, "put", "ok", s0).unwrap();
        b.add_transition(s0, "get", "val", s0).unwrap();
        b.build().unwrap()
    };
    let make_trace = |len: usize| {
        let mut inputs = Vec::new();
        let mut outputs = Vec::new();
        let mut steps = Vec::new();
        let mut latched = 0i64;
        for i in 0..len {
            if i % 2 == 0 {
                latched = (i as i64 + 3) * 7;
                inputs.push("put");
                outputs.push("ok");
                steps.push(ConcreteStep::new(vec![latched], vec![]));
            } else {
                inputs.push("get");
                outputs.push("val");
                steps.push(ConcreteStep::new(vec![0], vec![latched]));
            }
        }
        ConcreteTrace::new(
            IoTrace::new(
                InputWord::from_symbols(inputs),
                OutputWord::from_symbols(outputs),
            ),
            steps,
        )
    };
    for len in [4usize, 8, 16] {
        let traces = vec![make_trace(len), make_trace(len + 2)];
        let synthesizer = Synthesizer::new(
            TermDomain::new(1, 1),
            vec!["r0".to_string()],
            vec!["v".to_string()],
            vec![0],
        );
        group.bench_with_input(BenchmarkId::from_parameter(len), &traces, |b, traces| {
            b.iter(|| {
                let outcome = synthesizer.synthesize(&skeleton, traces, &[]).unwrap();
                assert!(outcome.report.solver_nodes > 0);
            })
        });
    }
    group.finish();
}

/// E5: equivalence checking / diffing of learned-model-sized machines.
fn bench_equivalence_checking(c: &mut Criterion) {
    let mut group = c.benchmark_group("equivalence_checking");
    for states in [8usize, 16, 32] {
        let a = known::counter(states);
        let b_machine = known::counter(states);
        group.bench_with_input(BenchmarkId::from_parameter(states), &states, |b, _| {
            b.iter(|| assert!(machines_equivalent(&a, &b_machine)))
        });
    }
    group.finish();
}

/// E6/E13: the repeated-query nondeterminism check against the mvfst profile.
fn bench_nondeterminism_check(c: &mut Criterion) {
    let mut group = c.benchmark_group("nondeterminism_check");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));
    let word = InputWord::from_symbols([
        "INITIAL(?,?)[CRYPTO]",
        "HANDSHAKE(?,?)[ACK,HANDSHAKE_DONE]",
        "SHORT(?,?)[ACK,STREAM]",
    ]);
    for max_reps in [20usize, 50] {
        group.bench_with_input(
            BenchmarkId::from_parameter(max_reps),
            &max_reps,
            |b, &max_reps| {
                b.iter(|| {
                    let sul = QuicSul::new(ImplementationProfile::mvfst(), 42);
                    let config = NondeterminismConfig {
                        min_repetitions: 3,
                        max_repetitions: max_reps,
                        confidence: 0.95,
                    };
                    let mut checker = NondeterminismChecker::new(sul, config);
                    let report = checker.check(&word);
                    assert!(report.executions >= 3);
                })
            },
        );
    }
    group.finish();
}

/// Wire codec: every learner query round-trips through this path.
fn bench_wire_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_codec");
    let keys = Keys::derive(
        ConnectionId::from_seed(1).key_material(),
        EncryptionLevel::OneRtt,
    );
    let packet = Packet::new(
        PacketHeader::short(ConnectionId::from_seed(1), 17),
        vec![
            Frame::Ack {
                largest_acknowledged: 9,
                ack_delay: 0,
                first_ack_range: 0,
            },
            Frame::Stream {
                stream_id: 0,
                offset: 1_000,
                fin: false,
                data: bytes::Bytes::from(vec![0x42; 800]),
            },
            Frame::MaxStreamData {
                stream_id: 1,
                maximum: 65_536,
            },
        ],
    );
    group.bench_function("encode_short_packet", |b| {
        b.iter(|| {
            let wire = packet.encode(&keys);
            assert!(wire.len() > 800);
        })
    });
    let wire = packet.encode(&keys);
    group.bench_function("decode_short_packet", |b| {
        b.iter(|| {
            let decoded = Packet::decode(&wire, &keys).unwrap();
            assert_eq!(decoded.frames.len(), 3);
        })
    });
    group.finish();
}

/// The interning tentpole's micro-benchmarks: the three innermost loops the
/// symbol-id rewrite targets, so regressions show up here before they show
/// up as E24 wall-clock collapse.  `trie_lookup` pits the string entry
/// point (one hash per step) against the pre-encoded id path (one array
/// index per step); `batch_dedup` is the cache's sorted-dedup + prefix-
/// subsumption pass over a heavily overlapping batch; `queue_round_trip`
/// drives a real one-worker engine through dispatch → chunked pull →
/// banked reply for a whole batch.
fn bench_symbol_hot_path(c: &mut Criterion) {
    use prognosis_learner::oracle::{CacheOracle, MachineOracle, MembershipOracle};
    use prognosis_learner::trie::PrefixTrie;

    let mut group = c.benchmark_group("symbol_hot_path");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(300));

    // A trie of every ≤4-symbol word over the 7-symbol TCP alphabet
    // (2800 paths), probed with the 4-symbol layer.
    let alphabet = tcp_alphabet();
    let symbols: Vec<_> = alphabet.iter().cloned().collect();
    let mut words: Vec<InputWord> = Vec::new();
    let mut layer: Vec<Vec<usize>> = vec![Vec::new()];
    for _ in 0..4 {
        layer = layer
            .iter()
            .flat_map(|w| {
                symbols.iter().enumerate().map(move |(i, _)| {
                    let mut next = w.clone();
                    next.push(i);
                    next
                })
            })
            .collect();
        words.extend(
            layer
                .iter()
                .map(|w| w.iter().map(|&i| symbols[i].clone()).collect::<InputWord>()),
        );
    }
    let output_for = |word: &InputWord| -> OutputWord {
        (1..=word.len()).map(|n| format!("out-{}", n % 3)).collect()
    };
    let mut trie = PrefixTrie::new();
    for word in &words {
        trie.insert(word, &output_for(word));
    }
    let probes: Vec<InputWord> = words.iter().rev().take(512).cloned().collect();
    group.bench_function("trie_lookup_strings", |b| {
        b.iter(|| {
            for probe in &probes {
                assert!(trie.lookup(probe).is_some());
            }
        })
    });
    let id_probes: Vec<_> = probes.iter().map(|p| trie.encode_input(p)).collect();
    group.bench_function("trie_lookup_ids", |b| {
        b.iter(|| {
            for probe in &id_probes {
                assert!(trie.lookup_ids(probe.as_slice()).is_some());
            }
        })
    });

    // Batch dedup over a batch where every word shares long prefixes with
    // its neighbours — the shape sifting produces.
    let machine = known::counter(6);
    let dedup_batch: Vec<InputWord> = {
        let alphabet: Vec<_> = machine.input_alphabet().iter().cloned().collect();
        (0..512usize)
            .map(|i| {
                (0..=(i % 6))
                    .map(|d| alphabet[(i + d) % alphabet.len()].clone())
                    .collect()
            })
            .collect()
    };
    group.bench_function("batch_dedup", |b| {
        b.iter(|| {
            let mut oracle = CacheOracle::new(MachineOracle::new(machine.clone()));
            let answers = oracle.query_batch(&dedup_batch);
            assert_eq!(answers.len(), dedup_batch.len());
        })
    });

    // A real engine round trip: dispatch → chunked queue pull → banked
    // reply, one worker, one in-flight session.
    let mut engine =
        prognosis_core::parallel::ParallelSulOracle::spawn_with(&TcpSulFactory::default(), 1, 1);
    let engine_batch: Vec<InputWord> = words.iter().step_by(11).take(64).cloned().collect();
    group.bench_function("queue_round_trip", |b| {
        b.iter(|| {
            let answers = engine.query_batch(&engine_batch);
            assert_eq!(answers.len(), engine_batch.len());
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_tcp_learning,
    bench_quic_learning,
    bench_parallel_learning,
    bench_register_synthesis,
    bench_equivalence_checking,
    bench_nondeterminism_check,
    bench_wire_codec,
    bench_symbol_hot_path
);
criterion_main!(benches);

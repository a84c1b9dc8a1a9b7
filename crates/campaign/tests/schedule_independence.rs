//! The campaign determinism contract: the report is a function of the
//! spec alone.  Task-worker count and the schedule seed
//! (which permutes the order free workers pick ready tasks, and with it
//! the completion order of independent tasks) move only wall-clock — the
//! learned models, diff reports and every per-cell statistic must come
//! back bit-identical, asserted here on the canonical JSON rendering.
//! The reference rendering is also pinned to fixed bytes, so neither the
//! campaign nor the JSON writer can drift unnoticed.

use prognosis_analysis::properties::SafetyProperty;
use prognosis_campaign::{run_campaign, CampaignSpec, CellSpec, Impairment, RunnerConfig};
use prognosis_core::pipeline::LearnConfig;
use proptest::prelude::*;

/// A 3-symbol TCP alphabet keeps each learn fast while still exercising
/// priming, impairment, diffing and checking.
fn small_tcp_cell(id: &str, version: &str) -> CellSpec {
    CellSpec::tcp(id, version).with_alphabet(["SYN(?,?,0)", "ACK(?,?,0)", "FIN+ACK(?,?,0)"])
}

/// Five cells: two clean versions chained by a baseline edge (priming),
/// one independently seeded equivalence stream, and two impaired points —
/// plus a diff and a property check fanning out of the learns.
fn spec() -> CampaignSpec {
    let learn = LearnConfig {
        random_tests: 150,
        min_word_len: 2,
        max_word_len: 6,
        eq_batch_size: 64,
        ..LearnConfig::default()
    };
    CampaignSpec::new("schedule-independence")
        .cell(small_tcp_cell("tcp-v1", "v1"))
        .cell(small_tcp_cell("tcp-v2", "v2").with_baseline("tcp-v1"))
        .cell(
            small_tcp_cell("tcp-v1-loss", "v1")
                .with_impairment(Impairment::latency(100).with_loss(0.02)),
        )
        .cell(
            small_tcp_cell("tcp-v1-jitter", "v1")
                .with_impairment(Impairment::latency(100).with_jitter(40)),
        )
        .diff("tcp-v1", "tcp-v2")
        .diff("tcp-v1", "tcp-v1-loss")
        .check("tcp-v1", SafetyProperty::never_output("NEVER-EMITTED"))
        .with_learn(learn)
}

/// `canonical(1, 0)`: (length, FNV-1a digest of its bytes).
const CANONICAL: (usize, u64) = (2694, 0xc667_6a2c_c54b_cb9b);

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn canonical(task_workers: usize, schedule_seed: u64) -> String {
    run_campaign(
        &spec(),
        &RunnerConfig {
            task_workers,
            schedule_seed,
            progress: false,
            events: None,
        },
    )
    .expect("campaign succeeds")
    .canonical_json()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    // Permuting completion order (via the schedule seed) and varying the
    // task-worker count yields a byte-identical report.
    #[test]
    fn report_is_schedule_independent(
        task_workers in 1usize..4,
        schedule_seed in any::<u64>(),
    ) {
        let reference = canonical(1, 0);
        let permuted = canonical(task_workers, schedule_seed);
        prop_assert_eq!(reference, permuted);
    }
}

/// The fixed-shape sanity check the proptest builds on: the reference
/// run itself is reproducible, and the cross-version cell really primes.
#[test]
fn reference_run_is_reproducible_and_primes() {
    let a = run_campaign(
        &spec(),
        &RunnerConfig {
            task_workers: 1,
            schedule_seed: 0,
            progress: false,
            events: None,
        },
    )
    .expect("campaign succeeds");
    assert_eq!(a.canonical_json(), canonical(1, 0));
    let v2 = &a.cells[1];
    assert!(v2.primed_words > 0, "the baseline edge primed tcp-v2");
    assert_eq!(v2.learn_misses, 0, "identical behaviour ⇒ full coverage");
    assert!(a.diffs[0].equivalent, "v1 and v2 share one SUL");
}

#[test]
fn reference_report_bytes_are_pinned() {
    let text = canonical(1, 0);
    assert_eq!((text.len(), fnv1a(text.as_bytes())), CANONICAL);
}

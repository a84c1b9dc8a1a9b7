//! The inline [`Fate`] decides exactly what the `Vec`-returning `fate` it
//! replaced decided: the same deliveries, in the same order, from the same
//! knob draws, for every `(seed, index)` on links that set every knob.

use prognosis_netsim::{LinkConfig, SimDuration};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The per-(stream, packet, knob) sub-stream of `LinkConfig::fate`.
fn substream(seed: u64, index: u64, knob: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ knob.wrapping_mul(0xD1B5_4A32_D192_ED03),
    )
}

/// The reference: the `Vec`-returning fate, knob order loss, jitter,
/// reorder, duplicate.
fn reference_fate(link: &LinkConfig, seed: u64, index: u64) -> Option<Vec<SimDuration>> {
    if link.loss_rate > 0.0 && substream(seed, index, 1).gen_bool(link.loss_rate) {
        return None;
    }
    let mut delay = link.latency;
    if link.jitter.as_micros() > 0 {
        delay = delay
            + SimDuration::from_micros(
                substream(seed, index, 2).gen_range(0..=link.jitter.as_micros()),
            );
    }
    if link.reorder_rate > 0.0 && substream(seed, index, 3).gen_bool(link.reorder_rate) {
        delay = delay + link.reorder_delay;
    }
    let mut deliveries = vec![delay];
    if link.duplicate_rate > 0.0 && substream(seed, index, 4).gen_bool(link.duplicate_rate) {
        deliveries.push(delay + SimDuration::from_micros(1));
    }
    Some(deliveries)
}

/// A probability in `(0, 1)` from a per-mille draw.
fn rate(per_mille: u32) -> f64 {
    f64::from(per_mille) / 1000.0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn inline_fates_match_the_vec_fates(
        seed in any::<u64>(),
        first in any::<u64>(),
        latency in 0u64..5_000,
        jitter in 1u64..2_000,
        reorder_delay in 1u64..10_000,
        loss in 1u32..1000,
        reorder in 1u32..1000,
        duplicate in 1u32..1000,
    ) {
        let link = LinkConfig::with_latency(SimDuration::from_micros(latency))
            .jitter(SimDuration::from_micros(jitter))
            .loss(rate(loss))
            .reorder(rate(reorder))
            .duplicate(rate(duplicate));
        let link = LinkConfig {
            reorder_delay: SimDuration::from_micros(reorder_delay),
            ..link
        };
        prop_assert!(link.is_impaired());
        // A window of consecutive packets, so one link meets losses,
        // duplicates and plain deliveries alike.
        for index in (0..32).map(|i| first.wrapping_add(i)) {
            let fate = link.fate(seed, index);
            let deliveries = fate.map(|fate| fate.deliveries().collect::<Vec<_>>());
            let reference = reference_fate(&link, seed, index);
            prop_assert_eq!(&deliveries, &reference, "seed {} index {} link {:?}", seed, index, link);
            if let Some(fate) = fate {
                prop_assert_eq!(fate.copies(), deliveries.as_ref().map_or(0, |d| d.len() as u64));
                prop_assert_eq!(Some(fate.delay()), reference.as_ref().map(|d| d[0]));
            }
        }
    }
}

//! Link impairment configuration.
//!
//! A [`LinkConfig`] describes the path between two endpoints: base latency,
//! jitter, independent loss and duplication probabilities and a reordering
//! probability (implemented as an extra random delay).  The default link is
//! ideal — zero latency, no impairments — which is what the learning
//! experiments use; the nondeterminism-check sweep (E18,
//! `exp_noise_sweep`) turns the loss and jitter knobs.
//!
//! Impairment decisions are **pure**: [`LinkConfig::fate`] derives every
//! knob's decision for packet `index` of stream `seed` from its own RNG
//! sub-stream, so each impairment is a function of `(seed, packet index)`
//! alone.  Enabling or sweeping one knob never reshuffles another knob's
//! outcomes for the same seed — sweep rows are comparable knob-by-knob —
//! and two packets with the same stream seed and index meet identical
//! network weather no matter which session, worker or virtual instant
//! sends them.
//!
//! A delivered packet's fate is an inline [`Fate`] value — one delay, plus
//! a flag for the duplicate that arrives a microsecond after it — so the
//! per-packet decision allocates nothing.

use crate::time::SimDuration;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sub-stream tags, one per impairment knob.
const KNOB_LOSS: u64 = 1;
const KNOB_JITTER: u64 = 2;
const KNOB_REORDER: u64 = 3;
const KNOB_DUPLICATE: u64 = 4;

/// A per-(stream, packet, knob) RNG: decisions drawn from it are a pure
/// function of the three coordinates, independent of every other knob.
fn substream(seed: u64, index: u64, knob: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ knob.wrapping_mul(0xD1B5_4A32_D192_ED03),
    )
}

/// How much later than the original a duplicate copy is delivered.
const DUPLICATE_GAP: SimDuration = SimDuration::from_micros(1);

/// Where a delivered packet goes: its delivery delay, and whether the link
/// duplicated it (the copy arrives a microsecond later).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fate {
    delay: SimDuration,
    duplicated: bool,
}

impl Fate {
    /// The delay of the first (or only) delivery.
    pub fn delay(&self) -> SimDuration {
        self.delay
    }

    /// Copies scheduled for delivery: 1, or 2 when duplicated.
    pub fn copies(&self) -> u64 {
        1 + u64::from(self.duplicated)
    }

    /// Every delivery delay, in delivery order.
    pub fn deliveries(self) -> impl Iterator<Item = SimDuration> {
        let duplicate = self.duplicated.then(|| self.delay + DUPLICATE_GAP);
        std::iter::once(self.delay).chain(duplicate)
    }
}

/// Impairment parameters for one direction of a link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkConfig {
    /// Base one-way latency.
    pub latency: SimDuration,
    /// Maximum additional random latency (uniform in `[0, jitter]`).
    pub jitter: SimDuration,
    /// Probability in `[0, 1]` that a datagram is dropped.
    pub loss_rate: f64,
    /// Probability in `[0, 1]` that a datagram is delivered twice.
    pub duplicate_rate: f64,
    /// Probability in `[0, 1]` that a datagram is delayed by an extra
    /// `reorder_delay`, letting later datagrams overtake it.
    pub reorder_rate: f64,
    /// The extra delay applied to reordered datagrams.
    pub reorder_delay: SimDuration,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            latency: SimDuration::ZERO,
            jitter: SimDuration::ZERO,
            loss_rate: 0.0,
            duplicate_rate: 0.0,
            reorder_rate: 0.0,
            reorder_delay: SimDuration::from_millis(5),
        }
    }
}

impl LinkConfig {
    /// An ideal link: instantaneous, lossless, in-order.
    pub fn ideal() -> Self {
        LinkConfig::default()
    }

    /// A link with fixed one-way latency and no other impairments.
    pub fn with_latency(latency: SimDuration) -> Self {
        LinkConfig {
            latency,
            ..LinkConfig::default()
        }
    }

    /// Sets the loss probability.
    ///
    /// # Panics
    /// Panics when the probability is outside `[0, 1]`.
    pub fn loss(mut self, rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "loss rate must be a probability"
        );
        self.loss_rate = rate;
        self
    }

    /// Sets the duplication probability.
    pub fn duplicate(mut self, rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "duplicate rate must be a probability"
        );
        self.duplicate_rate = rate;
        self
    }

    /// Sets the reordering probability.
    pub fn reorder(mut self, rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "reorder rate must be a probability"
        );
        self.reorder_rate = rate;
        self
    }

    /// Sets the jitter bound.
    pub fn jitter(mut self, jitter: SimDuration) -> Self {
        self.jitter = jitter;
        self
    }

    /// Decides the fate of packet `index` on noise stream `seed`: `None`
    /// when the datagram is lost, otherwise its [`Fate`] (one delivery
    /// delay, or two when duplicated).
    ///
    /// Each impairment draws from its own `(seed, index, knob)` sub-stream,
    /// so its decision is a pure function of the stream seed and packet
    /// index: sweeping the loss rate leaves jitter draws untouched, and the
    /// same `(seed, index)` pair meets the same weather on every call.
    pub fn fate(&self, seed: u64, index: u64) -> Option<Fate> {
        if self.loss_rate > 0.0 && substream(seed, index, KNOB_LOSS).gen_bool(self.loss_rate) {
            return None;
        }
        let mut delay = self.latency;
        if self.jitter.as_micros() > 0 {
            delay = delay
                + SimDuration::from_micros(
                    substream(seed, index, KNOB_JITTER).gen_range(0..=self.jitter.as_micros()),
                );
        }
        if self.reorder_rate > 0.0
            && substream(seed, index, KNOB_REORDER).gen_bool(self.reorder_rate)
        {
            delay = delay + self.reorder_delay;
        }
        let duplicated = self.duplicate_rate > 0.0
            && substream(seed, index, KNOB_DUPLICATE).gen_bool(self.duplicate_rate);
        Some(Fate { delay, duplicated })
    }

    /// Whether the link introduces any nondeterminism-relevant impairment.
    pub fn is_impaired(&self) -> bool {
        self.loss_rate > 0.0
            || self.duplicate_rate > 0.0
            || self.reorder_rate > 0.0
            || self.jitter.as_micros() > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_link_delivers_exactly_once_with_zero_delay() {
        let link = LinkConfig::ideal();
        for index in 0..100 {
            let d = link.fate(1, index).expect("ideal link never loses");
            assert_eq!(d.deliveries().collect::<Vec<_>>(), vec![SimDuration::ZERO]);
        }
        assert!(!link.is_impaired());
    }

    #[test]
    fn lossy_link_drops_roughly_at_the_configured_rate() {
        let link = LinkConfig::ideal().loss(0.3);
        let lost = (0..10_000).filter(|&i| link.fate(42, i).is_none()).count();
        assert!(
            (2_500..3_500).contains(&lost),
            "lost {lost} of 10000 at 30% loss"
        );
        assert!(link.is_impaired());
    }

    #[test]
    fn duplication_yields_two_deliveries() {
        let link = LinkConfig::ideal().duplicate(1.0);
        let d: Vec<_> = link.fate(7, 0).unwrap().deliveries().collect();
        assert_eq!(d.len(), 2);
        assert!(d[1] > d[0]);
    }

    #[test]
    fn latency_jitter_and_reorder_add_delay() {
        let link = LinkConfig::with_latency(SimDuration::from_millis(10))
            .jitter(SimDuration::from_millis(2))
            .reorder(1.0);
        let delay = link.fate(3, 0).unwrap().delay().as_micros();
        assert!(
            delay >= 15_000,
            "10ms latency + 5ms reorder delay, got {delay}µs"
        );
        assert!(delay <= 17_000);
        assert!(link.is_impaired());
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_invalid_probability() {
        let _ = LinkConfig::ideal().loss(1.5);
    }

    #[test]
    fn fates_are_deterministic_per_seed_and_index() {
        let link = LinkConfig::ideal()
            .loss(0.5)
            .duplicate(0.5)
            .jitter(SimDuration::from_micros(100));
        let run = |seed| (0..50).map(|i| link.fate(seed, i)).collect::<Vec<_>>();
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
        // Packet fates are index-addressable, not stream-positional: asking
        // about packet 17 alone answers the same as asking in sequence.
        assert_eq!(link.fate(9, 17), run(9)[17]);
    }

    #[test]
    fn impairment_knobs_are_independent_per_packet() {
        // The E18 sweep-comparability property: toggling one knob must
        // not reshuffle another knob's outcomes for the same (seed, index).
        let jitter_only = LinkConfig::with_latency(SimDuration::from_millis(1))
            .jitter(SimDuration::from_micros(500));
        let jitter_and_loss = jitter_only.loss(0.4);
        let jitter_loss_dup = jitter_and_loss.duplicate(0.3);
        for index in 0..2_000 {
            let base = jitter_only.fate(11, index).expect("lossless");
            // Wherever the lossy link delivers, the jitter delay is
            // identical to the lossless link's.
            if let Some(d) = jitter_and_loss.fate(11, index) {
                assert_eq!(
                    d.delay(),
                    base.delay(),
                    "loss knob changed jitter at {index}"
                );
            }
            if let Some(d) = jitter_loss_dup.fate(11, index) {
                assert_eq!(
                    d.delay(),
                    base.delay(),
                    "dup knob changed jitter at {index}"
                );
                // And duplication decisions agree with the loss+dup link
                // regardless of the jitter bound.
                let no_jitter = LinkConfig::with_latency(SimDuration::from_millis(1))
                    .loss(0.4)
                    .duplicate(0.3);
                if let Some(nd) = no_jitter.fate(11, index) {
                    assert_eq!(
                        d.copies(),
                        nd.copies(),
                        "jitter knob changed duplication at {index}"
                    );
                }
            }
            // Loss decisions agree between the two lossy links (the extra
            // duplicate knob must not perturb them).
            assert_eq!(
                jitter_and_loss.fate(11, index).is_none(),
                jitter_loss_dup.fate(11, index).is_none(),
                "dup knob changed loss at {index}"
            );
        }
    }
}

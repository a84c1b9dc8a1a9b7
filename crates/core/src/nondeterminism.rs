//! The nondeterminism check (§5).
//!
//! The learner expects a deterministic answer to every query.  Environmental
//! noise (latency, loss) and genuine implementation bugs can both make the
//! observed output vary, so Prognosis executes each query a minimum number
//! of times and, when the answers disagree, keeps re-executing until either
//! a configurable confidence level is reached or a query budget is
//! exhausted; in the latter case the query is flagged as nondeterministic.
//! In the mvfst case study (Issue 2, §6.2.4) this check is what surfaced the
//! probabilistic stateless-reset behaviour — "only in 82% of the responses"
//! — so the checker also reports the observed frequency of every distinct
//! answer.

use crate::net_transport::{NetworkedSessionFactory, WireSul};
use crate::session::{QueryPhase, SessionScheduler};
use crate::sul::{Sul, SulFactory};
use prognosis_automata::alphabet::Symbol;
use prognosis_automata::word::{InputWord, OutputWord};
use std::collections::BTreeMap;

/// Configuration of the repeated-query check.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NondeterminismConfig {
    /// Minimum number of times every query is executed.
    pub min_repetitions: usize,
    /// Maximum number of executions before giving up and declaring the
    /// query nondeterministic.
    pub max_repetitions: usize,
    /// Fraction of executions that must agree for the answer to be accepted
    /// (e.g. 0.95).
    pub confidence: f64,
}

impl Default for NondeterminismConfig {
    fn default() -> Self {
        NondeterminismConfig {
            min_repetitions: 3,
            max_repetitions: 50,
            confidence: 0.95,
        }
    }
}

/// The verdict for one checked query.
#[derive(Clone, Debug, PartialEq)]
pub struct NondeterminismReport {
    /// The input word that was checked.
    pub input: InputWord,
    /// Distinct output words observed, with their observation counts.
    pub observations: BTreeMap<OutputWord, usize>,
    /// Total executions performed.
    pub executions: usize,
    /// Whether the query was accepted as (sufficiently) deterministic.
    pub deterministic: bool,
}

impl NondeterminismReport {
    /// The most frequent output and its observed frequency in `[0, 1]`.
    pub fn majority(&self) -> Option<(&OutputWord, f64)> {
        self.observations
            .iter()
            .max_by_key(|(_, &count)| count)
            .map(|(out, &count)| (out, count as f64 / self.executions as f64))
    }

    /// Number of distinct outputs observed.
    pub fn distinct_outputs(&self) -> usize {
        self.observations.len()
    }
}

/// Repeated-query checker over a [`Sul`].
pub struct NondeterminismChecker<S> {
    sul: S,
    config: NondeterminismConfig,
}

impl<S: Sul> NondeterminismChecker<S> {
    /// Wraps a SUL with the given configuration.
    pub fn new(sul: S, config: NondeterminismConfig) -> Self {
        assert!(config.min_repetitions >= 1);
        assert!(config.max_repetitions >= config.min_repetitions);
        assert!((0.0..=1.0).contains(&config.confidence));
        NondeterminismChecker { sul, config }
    }

    /// Wraps a SUL with the default configuration.
    pub fn with_defaults(sul: S) -> Self {
        NondeterminismChecker::new(sul, NondeterminismConfig::default())
    }

    /// Access to the wrapped SUL.
    pub fn sul_mut(&mut self) -> &mut S {
        &mut self.sul
    }

    /// Consumes the checker, returning the SUL.
    pub fn into_inner(self) -> S {
        self.sul
    }

    fn execute_once(&mut self, input: &InputWord) -> OutputWord {
        self.sul.reset();
        let mut out = OutputWord::empty();
        for symbol in input.iter() {
            out.push(self.sul.step(symbol));
        }
        out
    }

    /// Runs the repeated-query protocol for one input word.
    pub fn check(&mut self, input: &InputWord) -> NondeterminismReport {
        let mut observations: BTreeMap<OutputWord, usize> = BTreeMap::new();
        let mut executions = 0;
        // Phase 1: the mandatory minimum repetitions.
        for _ in 0..self.config.min_repetitions {
            let out = self.execute_once(input);
            *observations.entry(out).or_insert(0) += 1;
            executions += 1;
        }
        // Phase 2: if the answers disagree, keep sampling until the majority
        // reaches the confidence threshold or the budget runs out.
        loop {
            if observations.len() == 1 {
                return NondeterminismReport {
                    input: input.clone(),
                    observations,
                    executions,
                    deterministic: true,
                };
            }
            let majority = observations.values().copied().max().unwrap_or(0);
            if majority as f64 / executions as f64 >= self.config.confidence {
                return NondeterminismReport {
                    input: input.clone(),
                    observations,
                    executions,
                    deterministic: true,
                };
            }
            if executions >= self.config.max_repetitions {
                return NondeterminismReport {
                    input: input.clone(),
                    observations,
                    executions,
                    deterministic: false,
                };
            }
            let out = self.execute_once(input);
            *observations.entry(out).or_insert(0) += 1;
            executions += 1;
        }
    }

    /// Checks every single-symbol and two-symbol query over an alphabet and
    /// returns the reports for the queries found to be nondeterministic —
    /// the sweep Prognosis runs when the learner first observes conflicting
    /// answers.
    pub fn sweep(&mut self, alphabet: &[Symbol], prefix: &InputWord) -> Vec<NondeterminismReport> {
        let mut flagged = Vec::new();
        for symbol in alphabet {
            let word = prefix.append(symbol.clone());
            let report = self.check(&word);
            if !report.deterministic {
                flagged.push(report);
            }
        }
        flagged
    }
}

/// The session-engine path of the repeated-query check: the `k` repetitions
/// of one query run as `k` **concurrent sessions** multiplexed on one
/// [`SessionScheduler`] over an impaired network — the regime a real
/// deployment's noise check operates in, where many flows share the wire at
/// once (and where the PR-3 engine could previously not take impairments at
/// all).
///
/// Each repetition draws its packet fates from its own noise stream
/// ([`NetworkedSessionFactory::repetition_sessions`]), so repetitions are
/// independent samples of the link's weather while the whole check stays a
/// pure function of `(query, factory seeds, config)`: rerunning it yields
/// the identical report.  Sampling proceeds in concurrent waves of
/// `min_repetitions` until the confidence threshold is met or the
/// `max_repetitions` budget is exhausted, mirroring the sequential
/// [`NondeterminismChecker::check`] protocol.
pub fn check_multiplexed<F>(
    factory: &NetworkedSessionFactory<F>,
    input: &InputWord,
    config: NondeterminismConfig,
) -> NondeterminismReport
where
    F: SulFactory,
    F::Sul: WireSul,
{
    assert!(config.min_repetitions >= 1);
    assert!(config.max_repetitions >= config.min_repetitions);
    assert!((0.0..=1.0).contains(&config.confidence));
    let mut observations: BTreeMap<OutputWord, usize> = BTreeMap::new();
    let mut executions = 0usize;
    loop {
        // Decide how many more samples this wave needs.
        let wanted = if executions < config.min_repetitions {
            config.min_repetitions - executions
        } else if observations.len() == 1 {
            return NondeterminismReport {
                input: input.clone(),
                observations,
                executions,
                deterministic: true,
            };
        } else {
            let majority = observations.values().copied().max().unwrap_or(0);
            if majority as f64 / executions as f64 >= config.confidence {
                return NondeterminismReport {
                    input: input.clone(),
                    observations,
                    executions,
                    deterministic: true,
                };
            }
            if executions >= config.max_repetitions {
                return NondeterminismReport {
                    input: input.clone(),
                    observations,
                    executions,
                    deterministic: false,
                };
            }
            config
                .min_repetitions
                .min(config.max_repetitions - executions)
        };
        // One wave: `wanted` concurrent sessions of the same query, each
        // repetition on its own noise stream over one shared network.
        let (sessions, clock) = factory.repetition_sessions(executions as u64, wanted);
        let mut scheduler = SessionScheduler::with_clock(sessions, clock);
        for index in 0..wanted {
            scheduler.submit(index, input.clone(), QueryPhase::Construction);
        }
        for (_, output) in scheduler.run_to_idle() {
            *observations.entry(output).or_insert(0) += 1;
            executions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A SUL that answers `flaky` nondeterministically (based on a counter)
    /// and everything else deterministically.
    struct FlakySul {
        counter: u64,
        /// Answer "reset" for `flaky` once every `period` executions.
        period: u64,
    }

    impl Sul for FlakySul {
        fn step(&mut self, input: &Symbol) -> Symbol {
            if input.as_str() == "flaky" {
                self.counter += 1;
                if self.counter.is_multiple_of(self.period) {
                    Symbol::new("silence")
                } else {
                    Symbol::new("reset")
                }
            } else {
                Symbol::new("ok")
            }
        }

        fn reset(&mut self) {}
    }

    #[test]
    fn deterministic_queries_are_accepted_quickly() {
        let mut checker = NondeterminismChecker::with_defaults(FlakySul {
            counter: 0,
            period: 5,
        });
        let report = checker.check(&InputWord::from_symbols(["stable", "stable"]));
        assert!(report.deterministic);
        assert_eq!(report.executions, 3);
        assert_eq!(report.distinct_outputs(), 1);
        assert_eq!(report.majority().unwrap().1, 1.0);
    }

    #[test]
    fn genuinely_nondeterministic_queries_are_flagged_with_frequencies() {
        // Roughly 1 in 5 answers differ: the 95% confidence threshold cannot
        // be met, so the query is flagged and the ~80/20 split is reported.
        let config = NondeterminismConfig {
            min_repetitions: 5,
            max_repetitions: 100,
            confidence: 0.95,
        };
        let mut checker = NondeterminismChecker::new(
            FlakySul {
                counter: 0,
                period: 5,
            },
            config,
        );
        let report = checker.check(&InputWord::from_symbols(["flaky"]));
        assert!(!report.deterministic);
        assert_eq!(report.executions, 100);
        assert_eq!(report.distinct_outputs(), 2);
        let (majority, freq) = report.majority().unwrap();
        assert_eq!(majority, &OutputWord::from_symbols(["reset"]));
        assert!(
            (0.75..=0.85).contains(&freq),
            "observed frequency {freq} should be ≈0.8"
        );
    }

    #[test]
    fn occasional_noise_below_threshold_is_tolerated() {
        // 1 in 25 answers differ; with a 90% confidence threshold the
        // majority answer is accepted as deterministic.
        let config = NondeterminismConfig {
            min_repetitions: 3,
            max_repetitions: 60,
            confidence: 0.90,
        };
        let mut checker = NondeterminismChecker::new(
            FlakySul {
                counter: 0,
                period: 25,
            },
            config,
        );
        let report = checker.check(&InputWord::from_symbols(["flaky"]));
        assert!(report.deterministic);
    }

    #[test]
    fn sweep_reports_only_the_problematic_symbols() {
        let config = NondeterminismConfig {
            min_repetitions: 5,
            max_repetitions: 40,
            confidence: 0.99,
        };
        let mut checker = NondeterminismChecker::new(
            FlakySul {
                counter: 0,
                period: 3,
            },
            config,
        );
        let alphabet = vec![
            Symbol::new("stable"),
            Symbol::new("flaky"),
            Symbol::new("other"),
        ];
        let flagged = checker.sweep(&alphabet, &InputWord::empty());
        assert_eq!(flagged.len(), 1);
        assert_eq!(flagged[0].input, InputWord::from_symbols(["flaky"]));
        let _ = checker.sul_mut();
        let _ = checker.into_inner();
    }

    #[test]
    fn multiplexed_check_reproduces_injected_loss_frequencies() {
        use crate::net_transport::{LinkConfig, NetworkedSessionFactory};
        use crate::session::SimDuration;
        use crate::tcp_adapter::TcpSulFactory;

        // 10% loss per direction: a SYN's answer survives the round trip
        // with probability 0.9 × 0.9 = 0.81 — the ~80/20 split the paper's
        // mvfst analysis hinges on, here injected by the network.
        let link = LinkConfig::with_latency(SimDuration::from_micros(100)).loss(0.1);
        let factory =
            NetworkedSessionFactory::new(TcpSulFactory::default(), link).with_noise_seed(42);
        let config = NondeterminismConfig {
            min_repetitions: 50,
            max_repetitions: 400,
            confidence: 0.95,
        };
        let word = InputWord::from_symbols(["SYN(?,?,0)"]);
        let report = check_multiplexed(&factory, &word, config);
        assert!(
            !report.deterministic,
            "20% answer noise cannot meet a 95% confidence threshold"
        );
        assert_eq!(report.distinct_outputs(), 2);
        assert_eq!(report.executions, 400);
        let (majority, freq) = report.majority().unwrap();
        assert_eq!(majority, &OutputWord::from_symbols(["ACK+SYN(?,?,0)"]));
        assert!(
            (0.72..=0.90).contains(&freq),
            "observed frequency {freq} should be ≈0.81"
        );
        // The whole check is a pure function of (query, seeds, config).
        let again = check_multiplexed(&factory, &word, config);
        assert_eq!(report, again);
    }

    #[test]
    fn multiplexed_check_accepts_clean_links_quickly() {
        use crate::net_transport::{LinkConfig, NetworkedSessionFactory};
        use crate::session::SimDuration;
        use crate::tcp_adapter::TcpSulFactory;

        let link = LinkConfig::with_latency(SimDuration::from_micros(100));
        let factory = NetworkedSessionFactory::new(TcpSulFactory::default(), link);
        let report = check_multiplexed(
            &factory,
            &InputWord::from_symbols(["SYN(?,?,0)", "ACK(?,?,0)"]),
            NondeterminismConfig::default(),
        );
        assert!(report.deterministic);
        assert_eq!(report.executions, 3);
        assert_eq!(report.distinct_outputs(), 1);
    }

    #[test]
    #[should_panic]
    fn invalid_configuration_is_rejected() {
        let _ = NondeterminismChecker::new(
            FlakySul {
                counter: 0,
                period: 2,
            },
            NondeterminismConfig {
                min_repetitions: 10,
                max_repetitions: 2,
                confidence: 0.5,
            },
        );
    }
}

//! The learning benchmark: one closed-loop client learning models back to
//! back on one workload, checking every model against a reference.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tcp-cold-1w --seed 1 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
//! alternates untraced learns with traced ones (the same stack rebuilt with
//! a timing shim around every layer) and reports per-layer metrics.  The
//! last line of standard output is the result object; the line before it
//! stamps the run and carries the supporting figures.  See `README.md`.

mod calibrate;
mod shims;
mod trace;
mod traced;
mod workloads;

use std::fmt::Write as _;
use std::time::{Duration, Instant};
use trace::CountingAllocator;
use traced::{Ledger, Observed};
use workloads::{Outcome, WorkDir, Workload};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Set-up runs this many times per run; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;
/// The timed phase runs learns in segments of at least this long, with a
/// host-speed calibration between segments (see [`calibrate`]).
const SEGMENT: Duration = Duration::from_millis(250);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
    })
}

/// Linear-interpolation quantile; 0 for no values.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let position = q * (values.len() - 1) as f64;
    let low = position.floor() as usize;
    let high = position.ceil() as usize;
    values[low] + (values[high] - values[low]) * (position - low as f64)
}

/// The commit the benchmark was built from, or `unknown` outside a git
/// checkout.  Discovery stops at the working directory, so an enclosing
/// repository is never reported.
fn git_rev() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd
        .parent()
        .map(|p| p.as_os_str().to_owned())
        .unwrap_or_default();
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// A JSON number; non-finite values (a bug upstream) render as 0.
fn num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// Everything set-up produces: one reference per seed, and the journal.
struct Setup {
    references: Vec<Outcome>,
    /// Wall seconds of each repeat, as measured and scaled to the
    /// reference host.
    raw_seconds: Vec<f64>,
    scaled_seconds: Vec<f64>,
    /// Whether every repeat learned the same references.
    consistent: bool,
}

fn setup(workload: Workload, seeds: &[u64], work: &WorkDir) -> Result<Setup, String> {
    let mut raw_seconds = Vec::with_capacity(SETUP_REPEATS);
    let mut scaled_seconds = Vec::with_capacity(SETUP_REPEATS);
    let mut references: Option<Vec<Outcome>> = None;
    let mut consistent = true;
    for _ in 0..SETUP_REPEATS {
        let rate_before = calibrate::measure();
        let start = Instant::now();
        let learned = if workload == Workload::TcpWarmJournal {
            workloads::fill_journal(workload, seeds, &work.journal())?
        } else {
            seeds
                .iter()
                .map(|&seed| workloads::reference(workload, seed))
                .collect::<Result<Vec<_>, _>>()?
        };
        let elapsed = start.elapsed().as_secs_f64();
        raw_seconds.push(elapsed);
        scaled_seconds.push(elapsed * calibrate::factors(&[rate_before, calibrate::measure()])[0]);
        if let Some(previous) = &references {
            consistent &= previous
                .iter()
                .zip(&learned)
                .all(|(a, b)| a.model == b.model && a.stats == b.stats);
        }
        references = Some(learned);
    }
    Ok(Setup {
        references: references.expect("at least one set-up"),
        raw_seconds,
        scaled_seconds,
        consistent,
    })
}

/// Why a learn's result does not count as correct, if it does not.
fn check(workload: Workload, outcome: &Outcome, reference: &Outcome) -> Option<String> {
    if outcome.model != reference.model {
        return Some("model differs from the reference".to_string());
    }
    if workload == Workload::TcpWarmJournal && outcome.stats.fresh_symbols != 0 {
        return Some(format!(
            "warm learn sent {} fresh symbols",
            outcome.stats.fresh_symbols
        ));
    }
    None
}

struct Run {
    attempted: u64,
    failed: u64,
    correct: bool,
    metrics: Vec<(&'static str, f64, &'static str)>,
    info: String,
}

/// The learns run between two calibrations.
struct Segment {
    walls: Vec<f64>,
    span_s: f64,
    cpu_s: f64,
}

/// `[learn_s.p50, learn_s.p90, models_per_s, cpu_s_per_model]` over the
/// segments, each segment's times multiplied by its factor.
fn timing_metrics(segments: &[Segment], factors: &[f64], correct: u64) -> [f64; 4] {
    let mut walls = Vec::new();
    let (mut span_s, mut cpu_s) = (0.0, 0.0);
    for (segment, factor) in segments.iter().zip(factors) {
        walls.extend(segment.walls.iter().map(|wall| wall * factor));
        span_s += segment.span_s * factor;
        cpu_s += segment.cpu_s * factor;
    }
    let learns = walls.len().max(1) as f64;
    [
        quantile(&mut walls, 0.5),
        quantile(&mut walls, 0.9),
        correct as f64 / span_s,
        cpu_s / learns,
    ]
}

fn run_untraced(
    workload: Workload,
    seeds: &[u64],
    setup: &Setup,
    work: &WorkDir,
    seconds: u64,
) -> Run {
    let budget = Duration::from_secs(seconds);
    let mut segments = Vec::new();
    let mut rates = vec![calibrate::measure()];
    let mut peaks_mb = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut queries = 0u64;
    let mut models = 0u64;
    let mut fresh = 0u64;
    let mut virtual_s = Vec::new();
    let start = Instant::now();
    while attempted == 0 || start.elapsed() < budget {
        let segment_start = Instant::now();
        let segment_cpu_ns = trace::process_cpu_ns();
        let mut walls = Vec::new();
        while walls.is_empty() || segment_start.elapsed() < SEGMENT {
            let index = attempted as usize % seeds.len();
            attempted += 1;
            trace::reset_peak_rss();
            let learn_start = Instant::now();
            let result = workloads::learn(workload, seeds[index], work);
            walls.push(learn_start.elapsed().as_secs_f64());
            peaks_mb.push(trace::peak_rss_mb());
            let verdict = match result {
                Ok(outcome) => {
                    models += 1;
                    queries += outcome.stats.membership_queries;
                    fresh += outcome.stats.fresh_symbols;
                    if workload == Workload::QuicJitter16x {
                        virtual_s.push(outcome.virtual_micros as f64 * 1e-6);
                    }
                    check(workload, &outcome, &setup.references[index])
                }
                Err(error) => Some(error),
            };
            if let Some(why) = &verdict {
                eprintln!("learn {attempted} failed: {why}");
                failed += 1;
            }
        }
        let span_s = segment_start.elapsed().as_secs_f64();
        let cpu_s = (trace::process_cpu_ns() - segment_cpu_ns) as f64 * 1e-9;
        segments.push(Segment {
            walls,
            span_s,
            cpu_s,
        });
        rates.push(calibrate::measure());
    }
    let end = Instant::now();
    let correct = attempted - failed;
    let [p50, p90, models_per_s, cpu_s_per_model] =
        timing_metrics(&segments, &calibrate::factors(&rates), correct);
    let [raw_p50, raw_p90, raw_models_per_s, raw_cpu_s_per_model] =
        timing_metrics(&segments, &vec![1.0; segments.len()], correct);
    let max_peak_mb = peaks_mb.iter().copied().fold(0.0, f64::max);
    let models = models.max(1) as f64;
    let mut raw_setup = setup.raw_seconds.clone();
    let mut scaled_setup = setup.scaled_seconds.clone();
    let metrics = vec![
        ("learn_s.p50", p50, "s"),
        ("learn_s.p90", p90, "s"),
        ("models_per_s", models_per_s, "1/s"),
        ("cpu_s_per_model", cpu_s_per_model, "s"),
        (
            "membership_queries_per_model",
            queries as f64 / models,
            "count",
        ),
        ("peak_rss_mb", quantile(&mut peaks_mb, 0.5), "MB"),
        ("setup_s", quantile(&mut scaled_setup, 0.5), "s"),
    ];
    let info = format!(
        "\"learns\": {attempted}, \"fresh_symbols_per_model\": {}, \"virtual_s.p50\": {}, \
         \"failed_frac\": {}, \"timed_s\": {}, \"host_speed\": {}, \"raw\": {{\
         \"learn_s.p50\": {}, \"learn_s.p90\": {}, \"models_per_s\": {}, \
         \"cpu_s_per_model\": {}, \"setup_s\": {}}}, \"peak_rss_mb.max\": {}",
        num(fresh as f64 / models),
        num(quantile(&mut virtual_s, 0.5)),
        num(failed as f64 / attempted as f64),
        num((end - start).as_secs_f64()),
        num(quantile(&mut rates, 0.5) / calibrate::REFERENCE_RATE),
        num(raw_p50),
        num(raw_p90),
        num(raw_models_per_s),
        num(raw_cpu_s_per_model),
        num(quantile(&mut raw_setup, 0.5)),
        num(max_peak_mb),
    );
    Run {
        attempted,
        failed,
        correct: failed == 0 && setup.consistent,
        metrics,
        info,
    }
}

fn run_traced(
    workload: Workload,
    seeds: &[u64],
    setup: &Setup,
    work: &WorkDir,
    seconds: u64,
) -> Run {
    trace::reset();
    shims::COUNTERS.reset();
    if workload == Workload::QuicJitter16x {
        shims::COUNTERS.capture_datagrams();
    }
    let budget = Duration::from_secs(seconds);
    let mut ledger = Ledger::default();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut identical = true;
    let start = Instant::now();
    while attempted == 0 || start.elapsed() < budget {
        let index = attempted as usize % seeds.len();
        attempted += 1;
        let untraced_start = Instant::now();
        let untraced = workloads::learn(workload, seeds[index], work);
        let untraced_wall = untraced_start.elapsed().as_nanos() as u64;

        let mut observed = Observed::default();
        trace::set_counting(true);
        let cpu_start = trace::process_cpu_ns();
        let learner_cpu_start = trace::thread_cpu_ns();
        let traced_start = Instant::now();
        let traced = traced::learn_traced(workload, seeds[index], work, &mut observed);
        let traced_wall = traced_start.elapsed().as_nanos() as u64;
        let learner_cpu = trace::thread_cpu_ns() - learner_cpu_start;
        let cpu = trace::process_cpu_ns() - cpu_start;
        trace::set_counting(false);

        let verdict = match (&untraced, &traced) {
            (Ok(plain), Ok(shimmed)) => {
                if plain.model != shimmed.model || plain.stats != shimmed.stats {
                    identical = false;
                    Some("traced learn differs from the untraced learn".to_string())
                } else {
                    check(workload, shimmed, &setup.references[index])
                }
            }
            (Err(error), _) | (_, Err(error)) => Some(error.clone()),
        };
        if let Some(why) = verdict {
            eprintln!("learn {attempted} failed: {why}");
            failed += 1;
            continue;
        }
        let outcome = traced.expect("checked above");
        ledger.traced_wall_ns += traced_wall;
        ledger.untraced_wall_ns += untraced_wall;
        ledger.process_cpu_ns += cpu;
        ledger.learner_cpu_ns += learner_cpu;
        ledger.add(&outcome, &observed);
    }
    let (layer_metrics, shares) = traced::report(workload, &ledger);
    let mut rows = String::new();
    for (name, share) in &shares.rows {
        let _ = write!(rows, "\"{name}\": {}, ", num(*share));
    }
    let info = format!(
        "\"traced_learns\": {}, \"identical\": {identical}, \"timed_s\": {}, \
         \"ledger\": {{\"basis\": \"{}\", \"shares\": {{{rows}\"unattributed\": {}}}, \
         \"top_layer\": \"{}\"}}",
        ledger.learns,
        num(start.elapsed().as_secs_f64()),
        shares.basis,
        num(shares.unattributed),
        shares.top_layer(),
    );
    Run {
        attempted,
        failed,
        correct: failed == 0 && identical && setup.consistent,
        metrics: layer_metrics
            .into_iter()
            .map(|m| (m.name, m.value, m.unit))
            .collect(),
        info,
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    trace::mark_learner_thread();
    calibrate::prepare();
    let work = match WorkDir::create(
        std::path::Path::new(".bench_work").join(format!("run-{}", std::process::id())),
    ) {
        Ok(work) => work,
        Err(error) => {
            eprintln!("perfbench: cannot create the work directory: {error}");
            std::process::exit(1);
        }
    };
    let seeds = args.workload.seeds(args.seed);
    let setup = match setup(args.workload, &seeds, &work) {
        Ok(setup) => setup,
        Err(error) => {
            eprintln!("perfbench: set-up failed: {error}");
            drop(work);
            std::process::exit(1);
        }
    };
    if !trace::reset_peak_rss() {
        eprintln!("perfbench: cannot reset the peak RSS; peak_rss_mb includes set-up");
    }
    let run = if args.trace {
        run_traced(args.workload, &seeds, &setup, &work, args.seconds)
    } else {
        run_untraced(args.workload, &seeds, &setup, &work, args.seconds)
    };
    drop(work);

    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "{{\"run\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host_parallelism\": {parallelism}, \"git_rev\": \"{}\", \"profile\": \"{profile}\", \
         \"seed_pool\": {}}}, {}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_rev(),
        seeds.len(),
        run.info,
    );
    let mut metrics = String::new();
    for (i, (name, value, unit)) in run.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*value)
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        run.correct, run.attempted, run.failed
    );
}

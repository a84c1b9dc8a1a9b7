//! Reading side of the event log: soundness verification, counts, and
//! the per-phase occupancy timeline rendered by the `prognosis-events`
//! binary.
//!
//! A log is the concatenation of its rotated files oldest-first
//! (`path.N`, …, `path.1`) followed by the live file.  Every line must
//! be a JSON object whose `name` is a known event; the only tolerated
//! damage is a torn final line in the live file (a crash mid-append),
//! mirroring the journal store's torn-tail recovery.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::json::{self, Value};
use crate::rotate::{rotated_indices, rotated_path};

/// One parsed log line.
#[derive(Clone, Debug)]
pub struct ParsedEvent {
    /// The event name (`wire:send`, `occupancy`, …).
    pub name: String,
    /// Absolute virtual micros (diagnostic events).
    pub time: Option<u64>,
    /// Query-relative virtual micros (deterministic scoped events).
    pub rel: Option<u64>,
    /// Logical sequence number (stream events).
    pub seq: Option<u64>,
    /// The `data` payload, if present.
    pub data: Value,
}

/// A verified read of a whole log sequence.
#[derive(Debug)]
pub struct LogScan {
    /// Files read (rotated + live), oldest first.
    pub files: Vec<String>,
    /// Total bytes across the sequence.
    pub bytes: u64,
    /// Every event, oldest first.
    pub events: Vec<ParsedEvent>,
    /// Whether the live file ended in a torn (dropped) final line.
    pub torn_tail: bool,
}

/// Why a log failed verification.
#[derive(Debug)]
pub enum LogError {
    /// The live log file does not exist or could not be read.
    Io(String),
    /// A line failed to parse or named an unknown event.
    Unsound {
        /// File the bad line is in.
        file: String,
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogError::Io(e) => write!(f, "io error: {e}"),
            LogError::Unsound { file, line, reason } => {
                write!(f, "unsound log: {file}:{line}: {reason}")
            }
        }
    }
}

impl std::error::Error for LogError {}

/// Every event name the writer can produce (see [`crate::Event::name`]).
pub const KNOWN_EVENTS: &[&str] = &[
    "wire:send",
    "wire:deliver",
    "wire:drop",
    "wire:duplicate",
    "session:start",
    "session:done",
    "phase:enter",
    "clock:advance",
    "occupancy",
    "task:start",
    "task:done",
    "bench:stage",
];

fn parse_line(line: &str) -> Result<ParsedEvent, String> {
    let value = json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
    if !matches!(value, Value::Map(_)) {
        return Err("line is not a JSON object".to_string());
    }
    let name = match value.get("name").and_then(Value::as_str) {
        Some(s) => s.to_string(),
        None => return Err("missing string `name` field".to_string()),
    };
    if !KNOWN_EVENTS.contains(&name.as_str()) {
        return Err(format!("unknown event name `{name}`"));
    }
    if matches!(name.as_str(), "occupancy" | "session:done") {
        let phase = value.get("data").and_then(|data| data_str(data, "phase"));
        if phase.and_then(phase_key).is_none() {
            return Err(format!("`{name}` event with unknown phase {phase:?}"));
        }
    }
    let numeric = |key: &str| -> Result<Option<u64>, String> {
        match value.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_u64()
                .map(Some)
                .ok_or_else(|| format!("`{key}` is not an unsigned integer")),
        }
    };
    Ok(ParsedEvent {
        name,
        time: numeric("time")?,
        rel: numeric("rel")?,
        seq: numeric("seq")?,
        data: value.get("data").cloned().unwrap_or(Value::Null),
    })
}

/// Reads and verifies the whole log sequence for the live file at
/// `path`.  Returns the parsed events or the first soundness violation.
pub fn scan_log(path: &Path) -> Result<LogScan, LogError> {
    let mut files: Vec<(String, String, bool)> = Vec::new();
    for &index in rotated_indices(path).iter().rev() {
        let rotated = rotated_path(path, index);
        let text = std::fs::read_to_string(&rotated)
            .map_err(|e| LogError::Io(format!("{}: {e}", rotated.display())))?;
        files.push((rotated.display().to_string(), text, false));
    }
    let live = std::fs::read_to_string(path)
        .map_err(|e| LogError::Io(format!("{}: {e}", path.display())))?;
    files.push((path.display().to_string(), live, true));

    let mut scan = LogScan {
        files: files.iter().map(|(name, _, _)| name.clone()).collect(),
        bytes: files.iter().map(|(_, text, _)| text.len() as u64).sum(),
        events: Vec::new(),
        torn_tail: false,
    };
    for (file, text, is_live) in &files {
        let lines: Vec<&str> = text.split('\n').collect();
        let count = lines.len();
        for (i, line) in lines.into_iter().enumerate() {
            if line.is_empty() {
                // The trailing empty segment after a final newline, or a
                // blank line — both harmless.
                continue;
            }
            match parse_line(line) {
                Ok(event) => scan.events.push(event),
                Err(reason) => {
                    // The final line of the live file may be a torn
                    // append; anything else is corruption.
                    if *is_live && i + 1 == count && !text.ends_with('\n') {
                        scan.torn_tail = true;
                    } else {
                        return Err(LogError::Unsound {
                            file: file.clone(),
                            line: i + 1,
                            reason,
                        });
                    }
                }
            }
        }
    }
    Ok(scan)
}

/// Renders the `stats` view: file/byte/event totals and per-name counts.
pub fn stats_text(scan: &LogScan) -> String {
    let mut by_name: BTreeMap<&str, u64> = BTreeMap::new();
    for event in &scan.events {
        *by_name.entry(event.name.as_str()).or_default() += 1;
    }
    let mut out = String::new();
    let _ = writeln!(out, "files: {}", scan.files.len());
    for file in &scan.files {
        let _ = writeln!(out, "  {file}");
    }
    let _ = writeln!(out, "bytes: {}", scan.bytes);
    let _ = writeln!(out, "events: {}", scan.events.len());
    let _ = writeln!(
        out,
        "torn tail: {}",
        if scan.torn_tail {
            "yes (tolerated)"
        } else {
            "no"
        }
    );
    for (name, count) in by_name {
        let _ = writeln!(out, "  {name:<22} {count}");
    }
    out
}

/// The learner phases in canonical order.
const PHASES: [&str; 3] = ["construction", "counterexample", "equivalence"];

fn data_str<'a>(data: &'a Value, key: &str) -> Option<&'a str> {
    data.get(key).and_then(Value::as_str)
}

fn data_u64(data: &Value, key: &str) -> Option<u64> {
    data.get(key).and_then(Value::as_u64)
}

/// Buckets `samples` into at most `width` columns and renders one ASCII
/// bar character per column scaled to the series maximum.
fn sparkline(samples: &[f64], width: usize) -> String {
    const LEVELS: &[u8] = b" .:-=+*#%@";
    if samples.is_empty() {
        return String::new();
    }
    let buckets = width.min(samples.len()).max(1);
    let mut means = Vec::with_capacity(buckets);
    for b in 0..buckets {
        let lo = b * samples.len() / buckets;
        let hi = ((b + 1) * samples.len() / buckets).max(lo + 1);
        let slice = &samples[lo..hi.min(samples.len())];
        means.push(slice.iter().sum::<f64>() / slice.len() as f64);
    }
    let max = means.iter().cloned().fold(0.0f64, f64::max).max(1e-12);
    means
        .iter()
        .map(|&m| {
            let idx = ((m / max) * (LEVELS.len() - 1) as f64).round() as usize;
            LEVELS[idx.min(LEVELS.len() - 1)] as char
        })
        .collect()
}

/// One phase's books folded from a log's diagnostic `occupancy` events.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseOccupancy {
    /// Summed busy session-micros of the phase's dispatch windows.
    pub busy: u64,
    /// Summed worker-micros (virtual elapsed × slots) of those windows.
    pub worker: u64,
    /// Each window's busy / worker ratio, in log order.
    pub windows: Vec<f64>,
}

impl PhaseOccupancy {
    /// The phase's slot occupancy, Σbusy / Σworker (0 for a phase that
    /// spent no virtual time).
    pub fn occupancy(&self) -> f64 {
        if self.worker == 0 {
            0.0
        } else {
            self.busy as f64 / self.worker as f64
        }
    }
}

/// Folds the `occupancy` events of a log per phase.  For a single engine
/// run the fold reproduces the engine's per-phase busy micros and
/// occupancy exactly.
pub fn phase_occupancy(scan: &LogScan) -> BTreeMap<&'static str, PhaseOccupancy> {
    let mut phases: BTreeMap<&'static str, PhaseOccupancy> = BTreeMap::new();
    for event in &scan.events {
        if event.name == "occupancy" {
            if let (Some(phase), Some(busy), Some(worker)) = (
                data_str(&event.data, "phase").and_then(phase_key),
                data_u64(&event.data, "busy"),
                data_u64(&event.data, "worker"),
            ) {
                let entry = phases.entry(phase).or_default();
                entry.busy = entry.busy.saturating_add(busy);
                entry.worker = entry.worker.saturating_add(worker);
                entry.windows.push(busy as f64 / worker.max(1) as f64);
            }
        }
    }
    phases
}

/// Renders the `timeline` view: a per-phase occupancy timeline (from
/// diagnostic `occupancy` samples when present, session volume
/// otherwise) plus the wire-loss summary.
pub fn timeline_text(scan: &LogScan) -> String {
    let mut out = String::new();
    let width = 60;

    let occupancy = phase_occupancy(scan);
    if !occupancy.is_empty() {
        let _ = writeln!(
            out,
            "per-phase occupancy (dispatch-window samples → right):"
        );
        for phase in PHASES {
            if let Some(books) = occupancy.get(phase) {
                let _ = writeln!(
                    out,
                    "  {phase:<14} |{}| occupancy {:.2} over {} windows",
                    sparkline(&books.windows, width),
                    books.occupancy(),
                    books.windows.len()
                );
            }
        }
    }

    // Session volume per phase (deterministic stream), as a fallback
    // timeline and a per-phase cost summary.
    let mut sessions: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    let mut volume: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for event in &scan.events {
        if event.name == "session:done" {
            if let Some(phase) = data_str(&event.data, "phase").and_then(phase_key) {
                let entry = sessions.entry(phase).or_default();
                entry.0 += 1;
                entry.1 += event.rel.unwrap_or(0);
            }
        }
    }
    if occupancy.is_empty() && !sessions.is_empty() {
        for event in &scan.events {
            for phase in PHASES {
                let is_done =
                    event.name == "session:done" && data_str(&event.data, "phase") == Some(phase);
                volume
                    .entry(phase)
                    .or_default()
                    .push(if is_done { 1.0 } else { 0.0 });
            }
        }
        let _ = writeln!(out, "per-phase session volume (committed order → right):");
        for phase in PHASES {
            if let Some(samples) = volume.get(phase) {
                if sessions.contains_key(phase) {
                    let _ = writeln!(out, "  {phase:<14} |{}|", sparkline(samples, width));
                }
            }
        }
    }
    if !sessions.is_empty() {
        let _ = writeln!(out, "sessions by phase:");
        for phase in PHASES {
            if let Some(&(count, rel_total)) = sessions.get(phase) {
                let _ = writeln!(
                    out,
                    "  {phase:<14} {count} queries, mean {:.1}µs in-slot",
                    rel_total as f64 / count.max(1) as f64
                );
            }
        }
    }

    // Wire fate summary.
    let mut sends = 0u64;
    let mut delivers = 0u64;
    let mut drops = 0u64;
    let mut duplicates = 0u64;
    for event in &scan.events {
        match event.name.as_str() {
            "wire:send" => sends += 1,
            "wire:deliver" => delivers += 1,
            "wire:drop" => drops += 1,
            "wire:duplicate" => duplicates += 1,
            _ => {}
        }
    }
    if sends > 0 {
        let _ = writeln!(
            out,
            "wire: {sends} sent, {delivers} delivered, {drops} dropped ({:.2}% loss), {duplicates} duplicated",
            drops as f64 * 100.0 / sends as f64
        );
    }
    if out.is_empty() {
        out.push_str("no timeline-relevant events in the log\n");
    }
    out
}

/// Maps a phase string from a log onto the canonical static name (so
/// the `BTreeMap<&str, _>` keys borrow from `PHASES`, not the scan), or
/// `None` for a phase the learner never names.
fn phase_key(phase: &str) -> Option<&'static str> {
    PHASES.iter().find(|&&p| p == phase).copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rotate::{EventLog, EventLogConfig};
    use crate::{Event, EventSink};
    use std::collections::BTreeSet;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "prognosis-analyze-{tag}-{}-{n}.jsonl",
            std::process::id()
        ))
    }

    fn cleanup(path: &Path) {
        let _ = std::fs::remove_file(path);
        for index in 1..16 {
            let _ = std::fs::remove_file(rotated_path(path, index));
        }
    }

    fn sample_log(path: &Path, per_file: u64) -> EventLog {
        EventLog::open(
            EventLogConfig::new(path)
                .with_max_file_bytes(per_file)
                .with_max_total_bytes(1 << 20),
        )
        .expect("open log")
    }

    #[test]
    fn scan_reassembles_rotated_files_oldest_first() {
        let path = temp_path("scan");
        cleanup(&path);
        let log = sample_log(&path, 500);
        for packet in 0..40 {
            log.emit(&Event::WireSend {
                rel: packet,
                dir: "up",
                packet,
                bytes: 40,
            });
        }
        log.flush();
        let scan = scan_log(&path).expect("sound log");
        assert!(scan.files.len() > 1, "rotation expected");
        assert_eq!(scan.events.len(), 40);
        let packets: Vec<u64> = scan
            .events
            .iter()
            .map(|e| data_u64(&e.data, "packet").expect("packet"))
            .collect();
        assert_eq!(packets, (0..40).collect::<Vec<_>>());
        cleanup(&path);
    }

    #[test]
    fn torn_final_line_is_tolerated_but_midfile_damage_is_not() {
        let path = temp_path("torn");
        cleanup(&path);
        let log = sample_log(&path, 1 << 20);
        for packet in 0..5 {
            log.emit(&Event::WireDeliver {
                rel: 1,
                dir: "down",
                packet,
                bytes: 8,
            });
        }
        log.flush();
        drop(log);
        // Truncate mid-final-line: still verifies, flagged as torn.
        let text = std::fs::read_to_string(&path).expect("read");
        std::fs::write(&path, &text[..text.len() - 7]).expect("truncate");
        let scan = scan_log(&path).expect("torn tail tolerated");
        assert!(scan.torn_tail);
        assert_eq!(scan.events.len(), 4);
        // Corrupt a middle line: unsound.
        let mut lines: Vec<&str> = text.lines().collect();
        lines[1] = "{\"name\":\"wire:deliver\",garbage";
        std::fs::write(&path, lines.join("\n")).expect("corrupt");
        assert!(matches!(
            scan_log(&path),
            Err(LogError::Unsound { line: 2, .. })
        ));
        // Unknown event names are unsound too.
        std::fs::write(&path, "{\"name\":\"wat\"}\n").expect("unknown");
        assert!(matches!(scan_log(&path), Err(LogError::Unsound { .. })));
        cleanup(&path);
    }

    /// An `occupancy` or `session:done` event must name a learner phase:
    /// any other phase is unsound, not counted under some other phase.
    #[test]
    fn an_unknown_phase_is_unsound() {
        let path = temp_path("phase");
        for (event, sound) in [
            (
                Event::Occupancy {
                    time: 5,
                    phase: "equivalence",
                    batch: 1,
                    busy: 2,
                    worker: 4,
                },
                true,
            ),
            (
                Event::Occupancy {
                    time: 5,
                    phase: "warmup",
                    batch: 1,
                    busy: 2,
                    worker: 4,
                },
                false,
            ),
            (
                Event::SessionDone {
                    phase: "",
                    symbols: 3,
                    rel: 7,
                },
                false,
            ),
        ] {
            cleanup(&path);
            let log = sample_log(&path, 1 << 20);
            log.emit(&event);
            log.emit(&Event::WireSend {
                rel: 3,
                dir: "up",
                packet: 0,
                bytes: 40,
            });
            log.flush();
            drop(log);
            let scan = scan_log(&path);
            if sound {
                assert_eq!(scan.expect("known phase").events.len(), 2);
            } else {
                assert!(
                    matches!(&scan, Err(LogError::Unsound { line: 1, reason, .. }) if reason.contains("phase")),
                    "{scan:?}"
                );
            }
        }
        cleanup(&path);
    }

    /// A line nested far past the JSON parser's depth bound is unsound —
    /// an error, not a stack overflow.
    #[test]
    fn a_deeply_nested_line_is_unsound_not_an_abort() {
        let path = temp_path("deep");
        cleanup(&path);
        let deep = format!(
            "{{\"name\":\"task:start\",\"seq\":0,\"data\":{}\n",
            "[".repeat(2_000_000)
        );
        // A sound line follows, so the torn-tail rule cannot excuse it.
        std::fs::write(&path, deep + sound_line()).expect("write deep log");
        assert!(matches!(
            scan_log(&path),
            Err(LogError::Unsound { line: 1, .. })
        ));
        cleanup(&path);
    }

    #[test]
    fn timeline_renders_phases_and_wire_summary() {
        let path = temp_path("timeline");
        cleanup(&path);
        let log = sample_log(&path, 1 << 20);
        for i in 0..8u64 {
            log.emit(&Event::Occupancy {
                time: i * 100,
                phase: "construction",
                batch: 4,
                busy: 50 + i * 5,
                worker: 100,
            });
        }
        log.emit(&Event::Occupancy {
            time: 900,
            phase: "equivalence",
            batch: 2,
            busy: 300,
            worker: 200,
        });
        log.emit(&Event::SessionDone {
            phase: "construction",
            symbols: 3,
            rel: 150,
        });
        log.emit(&Event::WireSend {
            rel: 0,
            dir: "up",
            packet: 0,
            bytes: 40,
        });
        log.emit(&Event::WireDrop {
            rel: 0,
            dir: "up",
            packet: 0,
            bytes: 40,
        });
        log.flush();
        let scan = scan_log(&path).expect("sound");
        let text = timeline_text(&scan);
        assert!(text.contains("construction"), "{text}");
        assert!(text.contains("per-phase occupancy"), "{text}");
        // The phase occupancy is Σbusy / Σworker, not clamped to 1.
        assert!(text.contains("occupancy 1.50 over 1 windows"), "{text}");
        let books = phase_occupancy(&scan);
        assert_eq!(
            (books["construction"].busy, books["construction"].worker),
            (540, 800)
        );
        assert_eq!(books["construction"].windows.len(), 8);
        assert!(text.contains("100.00% loss"), "{text}");
        let stats = stats_text(&scan);
        assert!(stats.contains("occupancy"), "{stats}");
        cleanup(&path);
    }

    /// One instance of every [`Event`] variant.  The exhaustive `match`
    /// stops compiling when a variant is added, until it is built here.
    fn every_event() -> Vec<Event> {
        let (dir, phase, id) = ("up", "construction", "learn:a".to_string());
        let events = vec![
            Event::WireSend {
                rel: 1,
                dir,
                packet: 0,
                bytes: 40,
            },
            Event::WireDeliver {
                rel: 2,
                dir,
                packet: 0,
                bytes: 40,
            },
            Event::WireDrop {
                rel: 3,
                dir,
                packet: 1,
                bytes: 40,
            },
            Event::WireDuplicate {
                rel: 4,
                dir,
                packet: 2,
                copies: 2,
            },
            Event::SessionStart { phase, symbols: 3 },
            Event::SessionDone {
                phase,
                symbols: 3,
                rel: 150,
            },
            Event::PhaseEnter { phase, seq: 9 },
            Event::ClockAdvance {
                time: 5,
                advances: 1,
            },
            Event::Occupancy {
                time: 6,
                phase,
                batch: 4,
                busy: 50,
                worker: 100,
            },
            Event::TaskStart { id: id.clone() },
            Event::TaskDone { id, ok: true },
            Event::BenchStage {
                label: "stage".to_string(),
            },
        ];
        let variants: BTreeSet<usize> = events
            .iter()
            .map(|event| match event {
                Event::WireSend { .. } => 0,
                Event::WireDeliver { .. } => 1,
                Event::WireDrop { .. } => 2,
                Event::WireDuplicate { .. } => 3,
                Event::SessionStart { .. } => 4,
                Event::SessionDone { .. } => 5,
                Event::PhaseEnter { .. } => 6,
                Event::ClockAdvance { .. } => 7,
                Event::Occupancy { .. } => 8,
                Event::TaskStart { .. } => 9,
                Event::TaskDone { .. } => 10,
                Event::BenchStage { .. } => 11,
            })
            .collect();
        assert_eq!(variants.len(), events.len(), "one instance per variant");
        events
    }

    #[test]
    fn known_events_are_exactly_the_writer_names() {
        let events = every_event();
        for event in &events {
            let mut line = String::new();
            event.render(&mut line);
            let parsed = parse_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(parsed.name, event.name());
        }
        let names: BTreeSet<&str> = events.iter().map(Event::name).collect();
        let known: BTreeSet<&str> = KNOWN_EVENTS.iter().copied().collect();
        assert_eq!(known.len(), KNOWN_EVENTS.len(), "no name listed twice");
        assert_eq!(known, names);
    }

    /// The `format!`-built render the fmt-free writer replaced, kept as
    /// the reference its bytes must equal.
    fn format_render(event: &Event) -> String {
        let escape = |s: &str| {
            let mut escaped = String::new();
            json::escape_into(&mut escaped, s);
            escaped
        };
        let body = match event {
            Event::WireSend {
                rel,
                dir,
                packet,
                bytes,
            }
            | Event::WireDeliver {
                rel,
                dir,
                packet,
                bytes,
            }
            | Event::WireDrop {
                rel,
                dir,
                packet,
                bytes,
            } => format!(
                "\"rel\":{rel},\"data\":{{\"dir\":\"{dir}\",\"packet\":{packet},\"bytes\":{bytes}}}"
            ),
            Event::WireDuplicate {
                rel,
                dir,
                packet,
                copies,
            } => format!(
                "\"rel\":{rel},\"data\":{{\"dir\":\"{dir}\",\"packet\":{packet},\"copies\":{copies}}}"
            ),
            Event::SessionStart { phase, symbols } => {
                format!("\"rel\":0,\"data\":{{\"phase\":\"{phase}\",\"symbols\":{symbols}}}")
            }
            Event::SessionDone {
                phase,
                symbols,
                rel,
            } => format!(
                "\"rel\":{rel},\"data\":{{\"phase\":\"{phase}\",\"symbols\":{symbols}}}"
            ),
            Event::PhaseEnter { phase, seq } => {
                format!("\"seq\":{seq},\"data\":{{\"phase\":\"{phase}\"}}")
            }
            Event::ClockAdvance { time, advances } => {
                format!("\"time\":{time},\"data\":{{\"advances\":{advances}}}")
            }
            Event::Occupancy {
                time,
                phase,
                batch,
                busy,
                worker,
            } => format!(
                "\"time\":{time},\"data\":{{\"phase\":\"{phase}\",\"batch\":{batch},\"busy\":{busy},\"worker\":{worker}}}"
            ),
            Event::TaskStart { id } => {
                format!("\"data\":{{\"id\":\"{}\"}}", escape(id))
            }
            Event::TaskDone { id, ok } => {
                format!("\"data\":{{\"id\":\"{}\",\"ok\":{ok}}}", escape(id))
            }
            Event::BenchStage { label } => {
                format!("\"data\":{{\"label\":\"{}\"}}", escape(label))
            }
        };
        format!("{{\"name\":\"{}\",{body}}}", event.name())
    }

    #[test]
    fn wire_events_render_as_the_format_render_and_parse_back() {
        const VALUES: [u64; 4] = [0, 9, 10, u64::MAX];
        let mut checked = 0;
        for dir in ["up", "down"] {
            for rel in VALUES {
                for packet in VALUES {
                    for count in VALUES {
                        let events = [
                            Event::WireSend {
                                rel,
                                dir,
                                packet,
                                bytes: count,
                            },
                            Event::WireDeliver {
                                rel,
                                dir,
                                packet,
                                bytes: count,
                            },
                            Event::WireDrop {
                                rel,
                                dir,
                                packet,
                                bytes: count,
                            },
                            Event::WireDuplicate {
                                rel,
                                dir,
                                packet,
                                copies: count,
                            },
                        ];
                        for event in &events {
                            let mut line = String::new();
                            event.render(&mut line);
                            assert_eq!(line, format_render(event));
                            let parsed =
                                parse_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
                            assert_eq!(parsed.name, event.name());
                            assert_eq!(parsed.rel, Some(rel));
                            let key = match event {
                                Event::WireDuplicate { .. } => "copies",
                                _ => "bytes",
                            };
                            assert_eq!(parsed.data.get("dir").and_then(Value::as_str), Some(dir));
                            assert_eq!(
                                parsed.data.get("packet").and_then(Value::as_u64),
                                Some(packet)
                            );
                            assert_eq!(parsed.data.get(key).and_then(Value::as_u64), Some(count));
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(checked, 4 * 2 * 4 * 4 * 4);
        // The other variants render as they did through `format!` too.
        for event in every_event() {
            let mut line = String::new();
            event.render(&mut line);
            assert_eq!(line, format_render(&event));
        }
        let failed = Event::TaskDone {
            id: "diff:\"a\"\n".to_string(),
            ok: false,
        };
        let mut line = String::new();
        failed.render(&mut line);
        assert_eq!(line, format_render(&failed));
    }

    /// One sound log line, as the writer renders it.
    fn sound_line() -> &'static str {
        static LINE: std::sync::OnceLock<String> = std::sync::OnceLock::new();
        LINE.get_or_init(|| {
            let path = temp_path("sound-line");
            cleanup(&path);
            let log = sample_log(&path, 1 << 20);
            log.emit(&Event::WireSend {
                rel: 3,
                dir: "up",
                packet: 0,
                bytes: 40,
            });
            log.flush();
            drop(log);
            let text = std::fs::read_to_string(&path).expect("read sound line");
            cleanup(&path);
            text
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        // The log reader is total: arbitrary bytes — raw, or spliced into
        // a sound line — scan to events or a typed error, never a panic,
        // and a scan that succeeds renders both views.
        #[test]
        fn arbitrary_bytes_never_panic_the_log_scanner(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..512),
            cut in proptest::prelude::any::<proptest::sample::Index>(),
        ) {
            // Raw bytes are mostly not UTF-8, which the reader refuses
            // before parsing; the lossy splice reaches the line parser.
            let line = sound_line().as_bytes();
            let at = cut.index(line.len() + 1);
            let spliced = [&line[..at], &bytes[..], &line[at..]].concat();
            let spliced = String::from_utf8_lossy(&spliced).into_owned().into_bytes();
            for contents in [bytes, spliced] {
                let path = temp_path("arbitrary");
                cleanup(&path);
                std::fs::write(&path, &contents).expect("write log");
                if let Ok(scan) = scan_log(&path) {
                    stats_text(&scan);
                    timeline_text(&scan);
                }
                cleanup(&path);
            }
        }

        // The JSON parser is total on its own: arbitrary text — bytes
        // decoded lossily, or mapped onto JSON's structural characters so
        // deep nesting and near-documents are common — parses to a value
        // or an error, and a parsed value renders to JSON that reparses.
        #[test]
        fn arbitrary_text_never_panics_the_json_parser(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..512),
        ) {
            const STRUCTURAL: &[u8] = b"[[[{{}}]]]\",:-+.eE0123456789 \\/untrfalse";
            let raw = String::from_utf8_lossy(&bytes).into_owned();
            let structural: String = bytes
                .iter()
                .map(|&b| STRUCTURAL[usize::from(b) % STRUCTURAL.len()] as char)
                .collect();
            for text in [raw, structural] {
                if let Ok(value) = json::parse(&text) {
                    proptest::prop_assert!(json::parse(&json::render(&value)).is_ok());
                }
            }
        }
    }
}

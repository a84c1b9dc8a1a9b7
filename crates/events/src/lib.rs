//! The observability spine of the Prognosis reproduction: one structured
//! event stream from wire packets to campaign cells.
//!
//! Every layer of the system emits typed [`Event`]s into an [`EventSink`]:
//! `netsim::Network` reports each packet's fate, the session engine
//! reports session lifecycle / clock advances / occupancy samples, the
//! learner reports phase transitions, and the campaign runner reports task
//! activity.  Sinks serialize events qlog-style as JSONL
//! ([`EventLog`] adds size-capped rotation); [`analyze`] reads the logs
//! back for the `prognosis-events` stats/verify/timeline binary.  [`json`]
//! is the workspace's one JSON value type, writer and depth-bounded
//! parser, shared by the analyzer, the canonical campaign report and the
//! `BENCH_learning.json` merger.
//!
//! # Determinism
//!
//! Events split into two classes:
//!
//! * **Deterministic** events describe what the learner computed.  They
//!   carry *query-relative* virtual timestamps (`rel`, micros since the
//!   query's session reset) or logical sequence numbers — never absolute
//!   virtual time, worker identities or port numbers, all of which vary
//!   with the engine shape.  Workers collect each query's events in a
//!   buffer that travels back with the query's answer, and the learner
//!   thread emits the buffers in batch-index order through
//!   [`ScopedSink::emit_batch`], so for a fixed scenario the stream is
//!   **byte-identical across `(workers, max_inflight)` grids** (asserted
//!   by proptest).
//! * **Diagnostic** events ([`Event::is_diagnostic`]) time-stamp real
//!   scheduler behaviour — absolute virtual clock readings, occupancy,
//!   campaign tasks.  They are emitted immediately and
//!   interleave nondeterministically; disable them
//!   ([`ScopedSink::new`] with `diagnostics = false`) when the log itself
//!   must be reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod json;
pub mod rotate;

pub use rotate::{EventLog, EventLogConfig};

use std::sync::{Arc, Mutex};

/// Packet direction over a session's simulated link, relative to the
/// learner: `"up"` is client → server, `"down"` is server → client.
pub type Dir = &'static str;

/// One structured telemetry event.  The set of events is closed so sinks
/// can render without allocation-heavy reflection and consumers (the
/// campaign progress painter, the analyzer) can match on variants.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A packet entered the simulated network (query-scoped).
    WireSend {
        /// Micros since the owning query's session reset.
        rel: u64,
        /// Packet direction.
        dir: Dir,
        /// Per-query packet index (send order).
        packet: u64,
        /// Payload length in bytes.
        bytes: u64,
    },
    /// A packet reached its destination endpoint (query-scoped).
    WireDeliver {
        /// Micros since the owning query's session reset.
        rel: u64,
        /// Packet direction.
        dir: Dir,
        /// The index the packet was sent with.
        packet: u64,
        /// Payload length in bytes.
        bytes: u64,
    },
    /// The link dropped a packet (query-scoped).
    WireDrop {
        /// Micros since the owning query's session reset.
        rel: u64,
        /// Packet direction.
        dir: Dir,
        /// The index the packet was sent with.
        packet: u64,
        /// Payload length in bytes.
        bytes: u64,
    },
    /// The link duplicated a packet (query-scoped).
    WireDuplicate {
        /// Micros since the owning query's session reset.
        rel: u64,
        /// Packet direction.
        dir: Dir,
        /// The index the packet was sent with.
        packet: u64,
        /// Number of copies scheduled for delivery.
        copies: u64,
    },
    /// A membership query's session began (query-scoped, `rel` 0).
    SessionStart {
        /// Learner phase that issued the query.
        phase: &'static str,
        /// Input word length in abstract symbols.
        symbols: u64,
    },
    /// A membership query's session resolved (query-scoped).
    SessionDone {
        /// Learner phase that issued the query.
        phase: &'static str,
        /// Input word length in abstract symbols.
        symbols: u64,
        /// Virtual micros the query occupied its session slot.
        rel: u64,
    },
    /// The learner moved to a new query phase (deterministic stream
    /// event; `seq` is the completed-query count, a logical clock).
    PhaseEnter {
        /// The phase being entered.
        phase: &'static str,
        /// Queries the learner had issued when the phase began (a logical
        /// clock driven by the learner alone).
        seq: u64,
    },
    /// Diagnostic: the shared virtual clock advanced (sampled — emitted
    /// every [`CLOCK_SAMPLE_EVERY`]th advance per scheduler).
    ClockAdvance {
        /// Absolute virtual micros after the advance.
        time: u64,
        /// Clock advances this scheduler has performed in total.
        advances: u64,
    },
    /// Diagnostic: one dispatch window's occupancy accounting.
    Occupancy {
        /// Absolute virtual micros when the window closed.
        time: u64,
        /// Phase the window's queries belonged to.
        phase: &'static str,
        /// Queries in the window.
        batch: u64,
        /// Busy session-micros accrued over the window.
        busy: u64,
        /// Worker-micros of the window: the workers' summed virtual
        /// elapsed × `max_inflight`, the slot capacity `busy` fills.
        worker: u64,
    },
    /// Diagnostic: a campaign task started executing.
    TaskStart {
        /// Task id (`learn:…`, `diff:…`, `check:…`, `report`).
        id: String,
    },
    /// Diagnostic: a campaign task finished.
    TaskDone {
        /// Task id.
        id: String,
        /// Whether the task succeeded.
        ok: bool,
    },
    /// Diagnostic: a long-running experiment moved to a new stage (used
    /// by bench binaries to drive the one-line progress repaint).
    BenchStage {
        /// Human-readable stage label.
        label: String,
    },
}

/// Emit a [`Event::ClockAdvance`] sample every this-many advances (plus
/// the first): per-advance emission would dominate long logs.
pub const CLOCK_SAMPLE_EVERY: u64 = 1024;

impl Event {
    /// The event's qlog-style name, as serialized in the `name` field.
    pub fn name(&self) -> &'static str {
        match self {
            Event::WireSend { .. } => "wire:send",
            Event::WireDeliver { .. } => "wire:deliver",
            Event::WireDrop { .. } => "wire:drop",
            Event::WireDuplicate { .. } => "wire:duplicate",
            Event::SessionStart { .. } => "session:start",
            Event::SessionDone { .. } => "session:done",
            Event::PhaseEnter { .. } => "phase:enter",
            Event::ClockAdvance { .. } => "clock:advance",
            Event::Occupancy { .. } => "occupancy",
            Event::TaskStart { .. } => "task:start",
            Event::TaskDone { .. } => "task:done",
            Event::BenchStage { .. } => "bench:stage",
        }
    }

    /// Whether the event is diagnostic — time-stamped with absolute
    /// virtual time or tied to real scheduling, hence not reproducible
    /// across engine shapes.  Deterministic events (`false`) form the
    /// byte-identical stream.
    pub fn is_diagnostic(&self) -> bool {
        matches!(
            self,
            Event::ClockAdvance { .. }
                | Event::Occupancy { .. }
                | Event::TaskStart { .. }
                | Event::TaskDone { .. }
                | Event::BenchStage { .. }
        )
    }

    /// Renders the event as one JSONL line (no trailing newline) with a
    /// fixed field order, so equal event sequences serialize to equal
    /// bytes.
    ///
    /// Rendering bypasses the `fmt` machinery: `wire:*` events are most of
    /// every networked stream and the two session events come once per
    /// query, and manual appends cut the per-event cost severalfold, which
    /// is what keeps the E23 sink-overhead budget honest.
    pub fn render(&self, out: &mut String) {
        out.push_str("{\"name\":\"");
        out.push_str(self.name());
        out.push_str("\",");
        match self {
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
            } => render_wire(out, *rel, dir, *packet, "bytes", *bytes),
            Event::WireDuplicate {
                rel,
                dir,
                packet,
                copies,
            } => render_wire(out, *rel, dir, *packet, "copies", *copies),
            Event::SessionStart { phase, symbols } => {
                out.push_str("\"rel\":0,\"data\":{\"phase\":\"");
                out.push_str(phase);
                out.push_str("\",\"symbols\":");
                push_u64(out, *symbols);
                out.push('}');
            }
            Event::SessionDone {
                phase,
                symbols,
                rel,
            } => {
                out.push_str("\"rel\":");
                push_u64(out, *rel);
                out.push_str(",\"data\":{\"phase\":\"");
                out.push_str(phase);
                out.push_str("\",\"symbols\":");
                push_u64(out, *symbols);
                out.push('}');
            }
            Event::PhaseEnter { phase, seq } => {
                out.push_str("\"seq\":");
                push_u64(out, *seq);
                out.push_str(",\"data\":{\"phase\":\"");
                out.push_str(phase);
                out.push_str("\"}");
            }
            Event::ClockAdvance { time, advances } => {
                out.push_str("\"time\":");
                push_u64(out, *time);
                out.push_str(",\"data\":{\"advances\":");
                push_u64(out, *advances);
                out.push('}');
            }
            Event::Occupancy {
                time,
                phase,
                batch,
                busy,
                worker,
            } => {
                out.push_str("\"time\":");
                push_u64(out, *time);
                out.push_str(",\"data\":{\"phase\":\"");
                out.push_str(phase);
                out.push_str("\",\"batch\":");
                push_u64(out, *batch);
                out.push_str(",\"busy\":");
                push_u64(out, *busy);
                out.push_str(",\"worker\":");
                push_u64(out, *worker);
                out.push('}');
            }
            Event::TaskStart { id } => {
                out.push_str("\"data\":{\"id\":\"");
                json::escape_into(out, id);
                out.push_str("\"}");
            }
            Event::TaskDone { id, ok } => {
                out.push_str("\"data\":{\"id\":\"");
                json::escape_into(out, id);
                out.push_str("\",\"ok\":");
                out.push_str(if *ok { "true" } else { "false" });
                out.push('}');
            }
            Event::BenchStage { label } => {
                out.push_str("\"data\":{\"label\":\"");
                json::escape_into(out, label);
                out.push_str("\"}");
            }
        }
        out.push('}');
    }
}

/// Appends the body of a `wire:*` event: its `rel` stamp, then its data
/// object of direction, packet index and the one count (`bytes`, or
/// `copies` for a duplicate).
fn render_wire(out: &mut String, rel: u64, dir: &str, packet: u64, key: &str, value: u64) {
    out.push_str("\"rel\":");
    push_u64(out, rel);
    out.push_str(",\"data\":{\"dir\":\"");
    out.push_str(dir);
    out.push_str("\",\"packet\":");
    push_u64(out, packet);
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    push_u64(out, value);
    out.push('}');
}

/// Appends `v` in decimal without going through the `fmt` machinery.
fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("decimal digits are ASCII"));
}

/// Where events go.  Implementations must tolerate concurrent `emit`
/// calls (the campaign runner and its concurrent learns share one sink
/// across threads); ordering between concurrent emitters is whatever the sink's
/// internal lock yields.
pub trait EventSink: Send + Sync {
    /// Consume one event.
    fn emit(&self, event: &Event);
    /// Consume a run of events in order.  The default emits them one by
    /// one; sinks behind a lock override it to take the lock once.
    fn emit_all(&self, events: &[Event]) {
        for event in events {
            self.emit(event);
        }
    }
    /// Flush any buffered output (no-op by default).
    fn flush(&self) {}
}

/// A sink that discards everything — the disabled configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn emit(&self, _event: &Event) {}
}

/// A sink that renders events into an in-memory JSONL string — the test
/// harness for byte-identity assertions.
#[derive(Debug, Default)]
pub struct MemorySink {
    buf: Mutex<String>,
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The serialized JSONL contents so far.
    pub fn contents(&self) -> String {
        self.buf.lock().expect("memory sink lock").clone()
    }
}

impl EventSink for MemorySink {
    fn emit(&self, event: &Event) {
        let mut buf = self.buf.lock().expect("memory sink lock");
        event.render(&mut buf);
        buf.push('\n');
    }
}

/// A sink that fans one event stream out to several sinks in order.
pub struct Tee {
    sinks: Vec<Arc<dyn EventSink>>,
}

impl Tee {
    /// Builds a tee over the given sinks.
    pub fn new(sinks: Vec<Arc<dyn EventSink>>) -> Self {
        Tee { sinks }
    }
}

impl EventSink for Tee {
    fn emit(&self, event: &Event) {
        for sink in &self.sinks {
            sink.emit(event);
        }
    }

    fn flush(&self) {
        for sink in &self.sinks {
            sink.flush();
        }
    }
}

/// The engine's front-end to an event sink: the gate that keeps the
/// deterministic stream engine-shape independent.
///
/// Query-scoped events never pass through here one at a time: each query
/// collects its own events while it runs, and the dispatcher hands a
/// finished batch's buffers to [`ScopedSink::emit_batch`] in batch-index
/// order.
/// Diagnostic events go through [`ScopedSink::diagnostic`] and can be
/// disabled wholesale.
pub struct ScopedSink {
    inner: Arc<dyn EventSink>,
    diagnostics: bool,
}

impl ScopedSink {
    /// Wraps `inner`; `diagnostics = false` silently drops diagnostic
    /// events so the inner stream stays engine-shape independent.
    pub fn new(inner: Arc<dyn EventSink>, diagnostics: bool) -> Arc<Self> {
        Arc::new(ScopedSink { inner, diagnostics })
    }

    /// Emits a diagnostic event immediately (dropped when diagnostics
    /// are disabled).
    pub fn diagnostic(&self, event: Event) {
        debug_assert!(event.is_diagnostic());
        if self.diagnostics {
            self.inner.emit(&event);
        }
    }

    /// Emits a deterministic stream-level event immediately.  Only the
    /// learner thread may call this: it interleaves with
    /// [`ScopedSink::emit_batch`] in call order.
    pub fn deterministic(&self, event: Event) {
        debug_assert!(!event.is_diagnostic());
        self.inner.emit(&event);
    }

    /// Emits a dispatched batch's query events, already concatenated in
    /// batch-index order, as one contiguous run.  Only the learner thread
    /// may call this.
    pub fn emit_batch(&self, events: &[Event]) {
        debug_assert!(events.iter().all(|event| !event.is_diagnostic()));
        self.inner.emit_all(events);
    }

    /// Flushes the inner sink.
    pub fn flush(&self) {
        self.inner.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_stable_and_valid_jsonl() {
        let events = [
            Event::WireSend {
                rel: 120,
                dir: "up",
                packet: 3,
                bytes: 44,
            },
            Event::SessionDone {
                phase: "construction",
                symbols: 5,
                rel: 350,
            },
            Event::TaskDone {
                id: "learn:\"x\"".to_string(),
                ok: true,
            },
        ];
        let mut first = String::new();
        let mut second = String::new();
        for e in &events {
            e.render(&mut first);
            first.push('\n');
            e.render(&mut second);
            second.push('\n');
        }
        assert_eq!(first, second);
        assert!(first.contains("{\"name\":\"wire:send\",\"rel\":120,"));
        assert!(first.contains("\\\"x\\\""));
    }

    #[test]
    fn scoped_sink_emits_scopes_in_call_order() {
        let mem = Arc::new(MemorySink::new());
        let scoped = ScopedSink::new(mem.clone(), true);
        // Scope 2's buffer was filled first; emission follows call order.
        let second = [Event::SessionStart {
            phase: "equivalence",
            symbols: 2,
        }];
        let first = [
            Event::SessionStart {
                phase: "construction",
                symbols: 1,
            },
            Event::SessionDone {
                phase: "construction",
                symbols: 1,
                rel: 0,
            },
        ];
        scoped.emit_batch(&first);
        scoped.emit_batch(&second);
        let out = mem.contents();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("construction"));
        assert!(lines[1].contains("session:done"));
        assert!(lines[2].contains("equivalence"));
    }

    #[test]
    fn diagnostics_flag_gates_diagnostic_events_only() {
        let mem = Arc::new(MemorySink::new());
        let scoped = ScopedSink::new(mem.clone(), false);
        scoped.diagnostic(Event::ClockAdvance {
            time: 5,
            advances: 1,
        });
        scoped.deterministic(Event::PhaseEnter {
            phase: "equivalence",
            seq: 9,
        });
        let out = mem.contents();
        assert!(!out.contains("clock:advance"));
        assert!(out.contains("phase:enter"));
    }
}

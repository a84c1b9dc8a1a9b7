//! The observability spine of the Prognosis reproduction: one structured
//! event stream from wire packets to campaign cells.
//!
//! Every layer of the system emits typed [`Event`]s into an [`EventSink`]:
//! `netsim::Network` reports each packet's fate, the session scheduler
//! reports session lifecycle / clock advances / in-flight-limit
//! adaptations / occupancy samples, the learner reports phase transitions
//! and speculation commits/rollbacks, and the campaign runner reports task
//! and engine-lease activity.  Sinks serialize events qlog-style as JSONL
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
//!   with the engine shape.  Workers *stage* them per query scope through
//!   [`ScopedSink`]; the learner thread commits scopes in learner order,
//!   so for a fixed scenario the committed stream is **byte-identical
//!   across `(workers, max_inflight)` grids** (asserted by proptest).
//! * **Diagnostic** events ([`Event::is_diagnostic`]) time-stamp real
//!   scheduler behaviour — absolute virtual clock readings, adaptive-limit
//!   moves, occupancy, campaign tasks.  They are emitted immediately and
//!   interleave nondeterministically; disable them
//!   ([`ScopedSink::new`] with `diagnostics = false`) when the log itself
//!   must be reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod json;
pub mod rotate;

pub use rotate::{EventLog, EventLogConfig};

use std::collections::HashMap;
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
    /// Speculatively executed work was committed into the learner's
    /// canonical history (deterministic stream event).
    SpeculationCommit {
        /// Speculative queries whose answers became canonical.
        words: u64,
    },
    /// Diagnostic: speculative work was rolled back on a counterexample.
    /// How far speculation ran ahead of the resolve frontier — and hence
    /// how many tickets a rollback cancels — depends on the engine shape,
    /// so the count cannot live in the deterministic stream; the rollback
    /// itself is visible there as the counterexample phase that follows.
    SpeculationRollback {
        /// Speculative queries the learner cancelled.
        cancelled: u64,
    },
    /// Diagnostic: the shared virtual clock advanced (sampled — emitted
    /// every [`CLOCK_SAMPLE_EVERY`]th advance per scheduler).
    ClockAdvance {
        /// Absolute virtual micros after the advance.
        time: u64,
        /// Clock advances this scheduler has performed in total.
        advances: u64,
    },
    /// Diagnostic: the adaptive in-flight limit grew.
    LimitGrow {
        /// Absolute virtual micros.
        time: u64,
        /// The new active-slot limit.
        limit: u64,
    },
    /// Diagnostic: the adaptive in-flight limit shrank.
    LimitShrink {
        /// Absolute virtual micros.
        time: u64,
        /// The new active-slot limit.
        limit: u64,
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
        /// Worker-micros (virtual elapsed × pool width) of the window.
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
    /// Diagnostic: an engine-pool lease was granted.
    LeaseAcquire {
        /// Slots the lease took.
        slots: u64,
        /// Free slots remaining after the grant.
        free: u64,
    },
    /// Diagnostic: an engine-pool slot returned to the pool.
    LeaseRelease {
        /// Free slots after the return.
        free: u64,
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
            Event::SpeculationCommit { .. } => "speculation:commit",
            Event::SpeculationRollback { .. } => "speculation:rollback",
            Event::ClockAdvance { .. } => "clock:advance",
            Event::LimitGrow { .. } => "limit:grow",
            Event::LimitShrink { .. } => "limit:shrink",
            Event::Occupancy { .. } => "occupancy",
            Event::TaskStart { .. } => "task:start",
            Event::TaskDone { .. } => "task:done",
            Event::LeaseAcquire { .. } => "lease:acquire",
            Event::LeaseRelease { .. } => "lease:release",
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
            Event::SpeculationRollback { .. }
                | Event::ClockAdvance { .. }
                | Event::LimitGrow { .. }
                | Event::LimitShrink { .. }
                | Event::Occupancy { .. }
                | Event::TaskStart { .. }
                | Event::TaskDone { .. }
                | Event::LeaseAcquire { .. }
                | Event::LeaseRelease { .. }
                | Event::BenchStage { .. }
        )
    }

    /// Renders the event as one JSONL line (no trailing newline) with a
    /// fixed field order, so equal event sequences serialize to equal
    /// bytes.
    pub fn render(&self, out: &mut String) {
        use std::fmt::Write;
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
            } => {
                let _ = write!(
                    out,
                    "\"rel\":{rel},\"data\":{{\"dir\":\"{dir}\",\"packet\":{packet},\"bytes\":{bytes}}}"
                );
            }
            Event::WireDuplicate {
                rel,
                dir,
                packet,
                copies,
            } => {
                let _ = write!(
                    out,
                    "\"rel\":{rel},\"data\":{{\"dir\":\"{dir}\",\"packet\":{packet},\"copies\":{copies}}}"
                );
            }
            // The two session events are the bulk of every stream (two
            // per query), so they bypass the `fmt` machinery: manual
            // appends cut the per-event render cost severalfold, which
            // is what keeps the E23 sink-overhead budget honest.
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
                let _ = write!(out, "\"seq\":{seq},\"data\":{{\"phase\":\"{phase}\"}}");
            }
            Event::SpeculationCommit { words } => {
                let _ = write!(out, "\"data\":{{\"words\":{words}}}");
            }
            Event::SpeculationRollback { cancelled } => {
                let _ = write!(out, "\"data\":{{\"cancelled\":{cancelled}}}");
            }
            Event::ClockAdvance { time, advances } => {
                let _ = write!(out, "\"time\":{time},\"data\":{{\"advances\":{advances}}}");
            }
            Event::LimitGrow { time, limit } | Event::LimitShrink { time, limit } => {
                let _ = write!(out, "\"time\":{time},\"data\":{{\"limit\":{limit}}}");
            }
            Event::Occupancy {
                time,
                phase,
                batch,
                busy,
                worker,
            } => {
                let _ = write!(
                    out,
                    "\"time\":{time},\"data\":{{\"phase\":\"{phase}\",\"batch\":{batch},\"busy\":{busy},\"worker\":{worker}}}"
                );
            }
            Event::TaskStart { id } => {
                out.push_str("\"data\":{\"id\":\"");
                json::escape_into(out, id);
                out.push_str("\"}");
            }
            Event::TaskDone { id, ok } => {
                out.push_str("\"data\":{\"id\":\"");
                json::escape_into(out, id);
                let _ = write!(out, "\",\"ok\":{ok}}}");
            }
            Event::LeaseAcquire { slots, free } => {
                let _ = write!(out, "\"data\":{{\"slots\":{slots},\"free\":{free}}}");
            }
            Event::LeaseRelease { free } => {
                let _ = write!(out, "\"data\":{{\"free\":{free}}}");
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

/// Appends `v` in decimal without going through the `fmt` machinery —
/// the render hot path runs twice per membership query.
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
/// calls (the campaign runner and engine pool share one sink across
/// threads); ordering between concurrent emitters is whatever the sink's
/// internal lock yields.
pub trait EventSink: Send + Sync {
    /// Consume one event.
    fn emit(&self, event: &Event);
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

/// The staging front-end that makes the deterministic stream
/// deterministic.
///
/// Workers stage query-scoped events under the query's scope id while
/// they execute concurrently; the learner thread later [`commit`]s
/// scopes in learner order (batch-index order for blocking dispatch,
/// ticket-commit order for the async protocol), which appends the staged
/// events to the inner sink as one contiguous run.  [`discard`] drops a
/// rolled-back scope's events.  Diagnostic events bypass staging via
/// [`diagnostic`] and can be disabled wholesale.
///
/// [`commit`]: ScopedSink::commit
/// [`discard`]: ScopedSink::discard
/// [`diagnostic`]: ScopedSink::diagnostic
pub struct ScopedSink {
    inner: Arc<dyn EventSink>,
    diagnostics: bool,
    pending: Mutex<Staging>,
}

/// Staged scopes plus a freelist of their buffers: scopes churn at query
/// rate, so retiring a scope returns its `Vec` for the next one instead
/// of round-tripping the allocator per query.
#[derive(Default)]
struct Staging {
    scopes: HashMap<u64, Vec<Event>>,
    pool: Vec<Vec<Event>>,
}

impl Staging {
    fn retire(&mut self, scope: u64) -> Option<Vec<Event>> {
        self.scopes.remove(&scope)
    }

    fn recycle(&mut self, mut buf: Vec<Event>) {
        if self.pool.len() < 64 {
            buf.clear();
            self.pool.push(buf);
        }
    }
}

impl ScopedSink {
    /// Wraps `inner`; `diagnostics = false` silently drops diagnostic
    /// events so the inner stream stays engine-shape independent.
    pub fn new(inner: Arc<dyn EventSink>, diagnostics: bool) -> Arc<Self> {
        Arc::new(ScopedSink {
            inner,
            diagnostics,
            pending: Mutex::new(Staging::default()),
        })
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
    /// learner thread may call this: it interleaves with scope commits
    /// in call order.
    pub fn deterministic(&self, event: Event) {
        debug_assert!(!event.is_diagnostic());
        self.inner.emit(&event);
    }

    /// Stages a deterministic event under `scope` (callable from any
    /// worker; scopes active concurrently must have distinct ids).
    pub fn stage(&self, scope: u64, event: Event) {
        debug_assert!(!event.is_diagnostic());
        let mut staging = self.pending.lock().expect("scoped sink lock");
        let Staging { scopes, pool } = &mut *staging;
        match scopes.entry(scope) {
            std::collections::hash_map::Entry::Occupied(slot) => slot.into_mut().push(event),
            std::collections::hash_map::Entry::Vacant(slot) => {
                let mut buf = pool.pop().unwrap_or_default();
                buf.push(event);
                slot.insert(buf);
            }
        }
    }

    /// Appends `scope`'s staged events to the inner sink and clears the
    /// scope.
    pub fn commit(&self, scope: u64) {
        let staged = self.pending.lock().expect("scoped sink lock").retire(scope);
        if let Some(events) = staged {
            for event in &events {
                self.inner.emit(event);
            }
            self.pending
                .lock()
                .expect("scoped sink lock")
                .recycle(events);
        }
    }

    /// Drops `scope`'s staged events (rolled-back speculation).  Safe to
    /// call again when a cancelled in-flight query's late answer
    /// arrives, clearing anything staged after the first discard.
    pub fn discard(&self, scope: u64) {
        let mut staging = self.pending.lock().expect("scoped sink lock");
        if let Some(buf) = staging.retire(scope) {
            staging.recycle(buf);
        }
    }

    /// Number of scopes currently staged (test/diagnostic aid).
    pub fn staged_scopes(&self) -> usize {
        self.pending.lock().expect("scoped sink lock").scopes.len()
    }

    /// Drops every staged scope (engine shutdown).
    pub fn clear(&self) {
        self.pending
            .lock()
            .expect("scoped sink lock")
            .scopes
            .clear();
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
    fn scoped_sink_orders_by_commit_not_staging() {
        let mem = Arc::new(MemorySink::new());
        let scoped = ScopedSink::new(mem.clone(), true);
        // Stage scope 2's events before scope 1's, commit 1 first.
        scoped.stage(
            2,
            Event::SessionStart {
                phase: "equivalence",
                symbols: 2,
            },
        );
        scoped.stage(
            1,
            Event::SessionStart {
                phase: "construction",
                symbols: 1,
            },
        );
        scoped.commit(1);
        scoped.commit(2);
        let out = mem.contents();
        let first = out.lines().next().expect("two lines");
        assert!(first.contains("construction"));
        assert_eq!(out.lines().count(), 2);
        assert_eq!(scoped.staged_scopes(), 0);
    }

    #[test]
    fn discarded_scopes_never_reach_the_inner_sink() {
        let mem = Arc::new(MemorySink::new());
        let scoped = ScopedSink::new(mem.clone(), true);
        scoped.stage(
            7,
            Event::WireDrop {
                rel: 10,
                dir: "down",
                packet: 0,
                bytes: 9,
            },
        );
        scoped.discard(7);
        scoped.commit(7);
        assert!(mem.contents().is_empty());
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

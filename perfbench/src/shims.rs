//! Timing shims around each layer's public entry points.
//!
//! Each shim implements the same public trait as the thing it wraps and
//! forwards every method unchanged, so the traced composition runs the
//! same program as the pipeline; the only addition is a
//! [`crate::trace::span`] around each call.

use crate::trace::{self, Layer};
use bytes::Bytes;
use prognosis_automata::alphabet::Symbol;
use prognosis_automata::word::{InputWord, OutputWord};
use prognosis_core::net_transport::{WireRequest, WireSul};
use prognosis_core::session::{SessionSulFactory, SimTime, TimedSession, TimedSul};
use prognosis_core::sul::{Sul, SulFactory, SulStats};
use prognosis_events::{Event, EventSink};
use prognosis_learner::oracle::{
    AsyncAnswer, AsyncQuery, CancelOutcome, MembershipOracle, QueryPhase,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A membership oracle whose every call is a span of one layer.
pub struct TracedOracle<M> {
    inner: M,
    layer: Layer,
}

impl<M> TracedOracle<M> {
    pub fn new(inner: M, layer: Layer) -> Self {
        TracedOracle { inner, layer }
    }

    pub fn into_inner(self) -> M {
        self.inner
    }

    fn run<R>(&mut self, f: impl FnOnce(&mut M) -> R) -> R {
        let inner = &mut self.inner;
        if self.layer == Layer::Engine {
            trace::engine_span(|| f(inner))
        } else {
            trace::span(self.layer, || f(inner))
        }
    }
}

impl<M: MembershipOracle> MembershipOracle for TracedOracle<M> {
    fn query(&mut self, input: &InputWord) -> OutputWord {
        self.run(|m| m.query(input))
    }

    fn query_batch(&mut self, inputs: &[InputWord]) -> Vec<OutputWord> {
        self.run(|m| m.query_batch(inputs))
    }

    fn query_batch_shared(&mut self, inputs: &[Arc<InputWord>]) -> Vec<OutputWord> {
        self.run(|m| m.query_batch_shared(inputs))
    }

    fn queries_answered(&self) -> u64 {
        self.inner.queries_answered()
    }

    fn note_phase(&mut self, phase: QueryPhase) {
        self.run(|m| m.note_phase(phase))
    }

    fn submit_queries(&mut self, queries: Vec<AsyncQuery>) -> Vec<AsyncAnswer> {
        self.run(|m| m.submit_queries(queries))
    }

    fn poll_answers(&mut self, wait: bool) -> Vec<AsyncAnswer> {
        self.run(|m| m.poll_answers(wait))
    }

    fn cancel_queries(&mut self, tickets: &[u64]) -> CancelOutcome {
        self.run(|m| m.cancel_queries(tickets))
    }

    fn commit_queries(&mut self, tickets: &[u64]) {
        self.run(|m| m.commit_queries(tickets))
    }

    fn outstanding_queries(&self) -> u64 {
        self.inner.outstanding_queries()
    }
}

/// Counters the SUL and sink shims keep alongside the spans.
#[derive(Default)]
pub struct WireCounters {
    /// Abstract symbols stepped (`wire_request` calls).
    pub symbols: AtomicU64,
    /// Request datagrams handed to the server (`handle_wire` calls).
    pub requests: AtomicU64,
    /// Response datagrams the server produced.
    pub responses: AtomicU64,
    /// Bytes of every request and response datagram, captured or not.
    pub bytes: AtomicU64,
    /// Events emitted into the event log.
    pub events: AtomicU64,
    capture: AtomicBool,
    captured: Mutex<Vec<Bytes>>,
}

/// Upper bound on datagrams kept for the wire-codec replay; the byte
/// count does not depend on it.
const CAPTURE_LIMIT: usize = 200_000;

impl WireCounters {
    /// Starts keeping a copy of every datagram the adapter exchanges.
    pub fn capture_datagrams(&self) {
        self.capture.store(true, Ordering::SeqCst);
    }

    /// The datagrams kept so far.
    pub fn take_captured(&self) -> Vec<Bytes> {
        std::mem::take(&mut *self.captured.lock().expect("capture lock"))
    }

    fn keep(&self, datagram: &Bytes) {
        self.bytes
            .fetch_add(datagram.len() as u64, Ordering::Relaxed);
        if self.capture.load(Ordering::Relaxed) {
            let mut captured = self.captured.lock().expect("capture lock");
            if captured.len() < CAPTURE_LIMIT {
                captured.push(datagram.clone());
            }
        }
    }

    pub fn reset(&self) {
        for counter in [
            &self.symbols,
            &self.requests,
            &self.responses,
            &self.bytes,
            &self.events,
        ] {
            counter.store(0, Ordering::Relaxed);
        }
        self.capture.store(false, Ordering::SeqCst);
        self.captured.lock().expect("capture lock").clear();
    }
}

/// The process-wide shim counters.
pub static COUNTERS: std::sync::LazyLock<WireCounters> =
    std::sync::LazyLock::new(WireCounters::default);

/// A SUL whose adapter (client) half and server half are separate spans.
///
/// In-process steps ([`Sul::step`], [`TimedSul::step_at`]) are driven
/// through the adapter's [`WireSul`] interface: `wire_request`, then
/// `handle_wire` on the server, then `absorb_wire` per response and
/// `finish_step`.  The adapters document that this path answers exactly
/// as their in-process step; the benchmark checks it by comparing every
/// traced model and its statistics with the untraced run's.
pub struct TracedSul<S> {
    inner: S,
}

impl<S: WireSul> TracedSul<S> {
    pub fn new(inner: S) -> Self {
        TracedSul { inner }
    }
}

impl<S: WireSul> Sul for TracedSul<S> {
    fn step(&mut self, input: &Symbol) -> Symbol {
        self.step_at(input, SimTime::ZERO).0
    }

    fn reset(&mut self) {
        trace::span(Layer::AdapterReset, || self.inner.reset())
    }

    fn stats(&self) -> SulStats {
        self.inner.stats()
    }

    fn cache_key(&self) -> Option<String> {
        self.inner.cache_key()
    }
}

impl<S: WireSul> TimedSul for TracedSul<S> {
    fn step_at(&mut self, input: &Symbol, now: SimTime) -> (Symbol, SimTime) {
        match self.wire_request(input) {
            WireRequest::Immediate(output) => (output, now),
            WireRequest::Datagram(request) => {
                // Only TCP SULs step in process here, and the TCP server
                // ignores the source port.
                let (responses, ready_at) = self.handle_wire(&request, 0, now);
                for response in &responses {
                    self.absorb_wire(response);
                }
                (self.finish_step(), ready_at)
            }
        }
    }

    fn reset_at(&mut self, now: SimTime) -> SimTime {
        self.reset();
        now
    }
}

impl<S: WireSul> WireSul for TracedSul<S> {
    fn wire_request(&mut self, input: &Symbol) -> WireRequest {
        COUNTERS.symbols.fetch_add(1, Ordering::Relaxed);
        let request = trace::span(Layer::Adapter, || self.inner.wire_request(input));
        if let WireRequest::Datagram(datagram) = &request {
            COUNTERS.keep(datagram);
        }
        request
    }

    fn wire_source_port(&self, bound: u16) -> u16 {
        self.inner.wire_source_port(bound)
    }

    fn handle_wire(
        &mut self,
        datagram: &Bytes,
        source_port: u16,
        now: SimTime,
    ) -> (Vec<Bytes>, SimTime) {
        COUNTERS.requests.fetch_add(1, Ordering::Relaxed);
        let (responses, ready_at) = trace::span(Layer::Server, || {
            self.inner.handle_wire(datagram, source_port, now)
        });
        COUNTERS
            .responses
            .fetch_add(responses.len() as u64, Ordering::Relaxed);
        for response in &responses {
            COUNTERS.keep(response);
        }
        (responses, ready_at)
    }

    fn absorb_wire(&mut self, datagram: &Bytes) {
        trace::span(Layer::Adapter, || self.inner.absorb_wire(datagram))
    }

    fn finish_step(&mut self) -> Symbol {
        trace::span(Layer::Adapter, || self.inner.finish_step())
    }
}

/// Mints [`TracedSul`]s around another factory's SULs.
pub struct TracedFactory<F> {
    inner: F,
}

impl<F> TracedFactory<F> {
    pub fn new(inner: F) -> Self {
        TracedFactory { inner }
    }
}

impl<F: SulFactory> SulFactory for TracedFactory<F>
where
    F::Sul: WireSul,
{
    type Sul = TracedSul<F::Sul>;

    fn create(&self) -> Self::Sul {
        TracedSul::new(self.inner.create())
    }
}

/// Deadline-based sessions, as `TcpSulFactory` and `QuicSulFactory` mint.
impl<F: SulFactory> SessionSulFactory for TracedFactory<F>
where
    F::Sul: WireSul,
{
    type Session = TimedSession<TracedSul<F::Sul>>;

    fn create_session(&self) -> Self::Session {
        TimedSession::new(self.create())
    }
}

/// An event sink whose `emit` calls are spans of [`Layer::Sink`].
pub struct TracedSink<K> {
    inner: Arc<K>,
}

impl<K> TracedSink<K> {
    pub fn new(inner: Arc<K>) -> Self {
        TracedSink { inner }
    }
}

impl<K: EventSink> EventSink for TracedSink<K> {
    fn emit(&self, event: &Event) {
        COUNTERS.events.fetch_add(1, Ordering::Relaxed);
        trace::span(Layer::Sink, || self.inner.emit(event))
    }

    fn flush(&self) {
        trace::span(Layer::Sink, || self.inner.flush())
    }
}

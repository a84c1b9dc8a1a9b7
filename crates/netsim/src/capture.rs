//! Packet capture.
//!
//! The simulator records every datagram it accepts for transmission,
//! together with its fate (delivered, lost, duplicated), in a
//! [`TraceCapture`].  This is the in-simulator analogue of running `tcpdump`
//! next to the reference implementation and is handy both for debugging
//! adapters and for the experiment reports.
//!
//! The capture is a size-capped ring: once `capacity` records are held,
//! recording another evicts the oldest half in one amortized-O(1) drain and
//! counts the evictions in [`TraceCapture::dropped`], so a campaign-scale
//! run holds at most `capacity` records instead of growing without bound.
//! Streaming consumers that need every packet should open a wire-event
//! scope on the network instead (`Network::begin_wire_scope`).

use crate::endpoint::EndpointId;
use crate::time::SimTime;

/// The fate of a captured datagram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fate {
    /// Delivered exactly once.
    Delivered,
    /// Dropped by the link.
    Lost,
    /// Delivered twice due to duplication.
    Duplicated,
}

/// One captured datagram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CaptureRecord {
    /// Virtual send time.
    pub sent_at: SimTime,
    /// Sending endpoint.
    pub from: EndpointId,
    /// Receiving endpoint (resolved from the destination port).
    pub to: Option<EndpointId>,
    /// Source port.
    pub source_port: u16,
    /// Destination port.
    pub destination_port: u16,
    /// Payload length in bytes.
    pub length: usize,
    /// What happened to the datagram.
    pub fate: Fate,
}

/// The default record cap: high enough that every existing single-learn
/// consumer sees the complete trace, low enough to bound campaign-scale
/// memory.
pub const DEFAULT_CAPTURE_CAPACITY: usize = 1 << 16;

/// A size-capped capture of the traffic through a network, oldest records
/// evicted first.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceCapture {
    records: Vec<CaptureRecord>,
    capacity: usize,
    dropped: u64,
}

impl Default for TraceCapture {
    fn default() -> Self {
        TraceCapture::new()
    }
}

impl TraceCapture {
    /// An empty capture with the default cap.
    pub fn new() -> Self {
        TraceCapture::with_capacity(DEFAULT_CAPTURE_CAPACITY)
    }

    /// An empty capture holding at most `capacity` records (min 2).
    pub fn with_capacity(capacity: usize) -> Self {
        TraceCapture {
            records: Vec::new(),
            capacity: capacity.max(2),
            dropped: 0,
        }
    }

    /// The record cap.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends a record, evicting the oldest half of the buffer when the
    /// cap is reached.
    pub fn record(&mut self, record: CaptureRecord) {
        if self.records.len() >= self.capacity {
            let evict = self.capacity / 2;
            self.records.drain(..evict);
            self.dropped += evict as u64;
        }
        self.records.push(record);
    }

    /// Retained records in send order (oldest may have been evicted; see
    /// [`TraceCapture::dropped`]).
    pub fn records(&self) -> &[CaptureRecord] {
        &self.records
    }

    /// Records evicted to honour the cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the capture is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total payload bytes of the retained records.
    pub fn total_bytes(&self) -> usize {
        self.records.iter().map(|r| r.length).sum()
    }

    /// Number of retained datagrams lost in transit.
    pub fn lost(&self) -> usize {
        self.records.iter().filter(|r| r.fate == Fate::Lost).count()
    }

    /// Clears the capture (e.g. between learner queries), including the
    /// dropped-record counter.
    pub fn clear(&mut self) {
        self.records.clear();
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(fate: Fate, length: usize) -> CaptureRecord {
        CaptureRecord {
            sent_at: SimTime::ZERO,
            from: EndpointId(0),
            to: Some(EndpointId(1)),
            source_port: 1,
            destination_port: 2,
            length,
            fate,
        }
    }

    #[test]
    fn capture_accumulates_and_summarises() {
        let mut c = TraceCapture::new();
        assert!(c.is_empty());
        c.record(record(Fate::Delivered, 100));
        c.record(record(Fate::Lost, 50));
        c.record(record(Fate::Duplicated, 25));
        assert_eq!(c.len(), 3);
        assert_eq!(c.total_bytes(), 175);
        assert_eq!(c.lost(), 1);
        assert_eq!(c.records()[1].fate, Fate::Lost);
        assert_eq!(c.dropped(), 0);
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn cap_evicts_oldest_and_counts_drops() {
        let mut c = TraceCapture::with_capacity(8);
        for i in 0..13 {
            c.record(record(Fate::Delivered, i));
        }
        // The 9th and 13th records each evicted the oldest 4; memory
        // stays bounded.
        assert_eq!(c.dropped(), 8);
        assert_eq!(c.len(), 5);
        assert!(c.len() <= c.capacity());
        assert_eq!(c.records()[0].length, 8, "oldest retained is record 8");
        assert_eq!(c.records().last().expect("nonempty").length, 12);
        c.clear();
        assert_eq!(c.dropped(), 0);
    }

    #[test]
    fn default_cap_is_high_enough_for_single_learn_traces() {
        assert_eq!(TraceCapture::new().capacity(), DEFAULT_CAPTURE_CAPACITY);
        const { assert!(DEFAULT_CAPTURE_CAPACITY >= 1 << 16) };
    }
}

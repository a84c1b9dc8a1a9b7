//! Size-capped rotating JSONL writer behind [`EventLog`].
//!
//! Rotation is rename + reopen: when the live file would exceed the
//! per-file byte cap, existing `path.N` files shift to `path.N+1`, the
//! live file becomes `path.1`, and a fresh live file is opened.  The
//! total-byte cap then deletes the oldest (highest-numbered) rotated
//! files.  Readers ([`crate::analyze`]) reassemble `path.N … path.1,
//! path` oldest-first and tolerate a torn final line in the live file.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::{Event, EventSink};

/// Knobs for [`EventLog`].
#[derive(Clone, Debug)]
pub struct EventLogConfig {
    /// Path of the live log file; rotated files append `.1`, `.2`, ….
    pub path: PathBuf,
    /// Rotate when the live file would exceed this many bytes.
    pub max_file_bytes: u64,
    /// Delete the oldest rotated files while live + rotated exceed this.
    pub max_total_bytes: u64,
}

impl EventLogConfig {
    /// A configuration with the default caps (16 MiB per file, 64 MiB
    /// total).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        EventLogConfig {
            path: path.into(),
            max_file_bytes: 16 << 20,
            max_total_bytes: 64 << 20,
        }
    }

    /// Overrides the per-file byte cap.
    pub fn with_max_file_bytes(mut self, bytes: u64) -> Self {
        self.max_file_bytes = bytes;
        self
    }

    /// Overrides the total byte cap.
    pub fn with_max_total_bytes(mut self, bytes: u64) -> Self {
        self.max_total_bytes = bytes;
        self
    }
}

/// The path of the `index`-th rotated file (1 = newest rotated).
pub fn rotated_path(path: &Path, index: u32) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(format!(".{index}"));
    PathBuf::from(name)
}

/// Rotated indices present on disk, ascending (1 = newest rotated).
pub fn rotated_indices(path: &Path) -> Vec<u32> {
    let mut indices = Vec::new();
    for index in 1.. {
        if rotated_path(path, index).is_file() {
            indices.push(index);
        } else {
            break;
        }
    }
    indices
}

/// Rendered bytes held before one `write` to the live file.
const WRITE_BUFFER_BYTES: usize = 64 << 10;

struct RotatingWriter {
    config: EventLogConfig,
    file: File,
    /// Size of the live file, counting the lines still in `pending`.
    live_bytes: u64,
    /// Lines rendered but not yet written: events render straight into
    /// this buffer, which goes to the file in one `write` per
    /// [`WRITE_BUFFER_BYTES`].
    pending: String,
}

impl RotatingWriter {
    fn open(config: EventLogConfig) -> std::io::Result<Self> {
        if let Some(parent) = config.path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&config.path)?;
        let live_bytes = file.metadata()?.len();
        Ok(RotatingWriter {
            config,
            file,
            live_bytes,
            pending: String::with_capacity(WRITE_BUFFER_BYTES),
        })
    }

    fn write_event(&mut self, event: &Event) -> std::io::Result<()> {
        let start = self.pending.len();
        event.render(&mut self.pending);
        self.pending.push('\n');
        let len = (self.pending.len() - start) as u64;
        if self.live_bytes > 0 && self.live_bytes + len > self.config.max_file_bytes {
            // The new line opens the next file; the lines before it
            // close this one.
            let line = self.pending.split_off(start);
            self.rotate()?;
            self.pending.push_str(&line);
        }
        self.live_bytes += len;
        if self.pending.len() >= WRITE_BUFFER_BYTES {
            self.flush()?;
        }
        Ok(())
    }

    /// Shift `path.N` → `path.N+1`, rename the live file to `path.1`,
    /// reopen a fresh live file, then enforce the total-byte cap from
    /// the oldest end.
    fn rotate(&mut self) -> std::io::Result<()> {
        self.flush()?;
        let path = self.config.path.clone();
        let existing = rotated_indices(&path);
        for &index in existing.iter().rev() {
            std::fs::rename(rotated_path(&path, index), rotated_path(&path, index + 1))?;
        }
        std::fs::rename(&path, rotated_path(&path, 1))?;
        let fresh = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(&path)?;
        self.file = fresh;
        self.live_bytes = 0;
        self.enforce_total_cap()
    }

    fn enforce_total_cap(&self) -> std::io::Result<()> {
        let path = &self.config.path;
        let mut total = self.live_bytes;
        let mut keep_up_to = 0u32;
        for index in rotated_indices(path) {
            let bytes = std::fs::metadata(rotated_path(path, index))?.len();
            if total + bytes <= self.config.max_total_bytes {
                total += bytes;
                keep_up_to = index;
            } else {
                break;
            }
        }
        // Always keep at least the newest rotated file so a rotation is
        // never immediately self-destructive, then drop the rest.
        let keep_up_to = keep_up_to.max(1);
        for index in rotated_indices(path) {
            if index > keep_up_to {
                std::fs::remove_file(rotated_path(path, index))?;
            }
        }
        Ok(())
    }

    /// Writes the pending lines to the live file.  They are dropped
    /// even when the write fails, so a failing disk cannot grow the
    /// buffer without bound.
    fn flush(&mut self) -> std::io::Result<()> {
        let written = self.file.write_all(self.pending.as_bytes());
        self.pending.clear();
        written
    }
}

impl Drop for RotatingWriter {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// The JSONL file sink: serializes every event as one line through the
/// rotating size-capped writer.  I/O errors after opening are counted
/// ([`EventLog::io_errors`]) rather than propagated — telemetry must
/// never take down a learn.
pub struct EventLog {
    writer: Mutex<RotatingWriter>,
    io_errors: Mutex<u64>,
}

impl EventLog {
    /// Opens (appending) or creates the log at `config.path`.
    pub fn open(config: EventLogConfig) -> std::io::Result<EventLog> {
        Ok(EventLog {
            writer: Mutex::new(RotatingWriter::open(config)?),
            io_errors: Mutex::new(0),
        })
    }

    /// Write failures swallowed since opening.
    pub fn io_errors(&self) -> u64 {
        *self.io_errors.lock().expect("event log lock")
    }
}

impl EventSink for EventLog {
    fn emit(&self, event: &Event) {
        self.emit_all(std::slice::from_ref(event));
    }

    fn emit_all(&self, events: &[Event]) {
        let mut writer = self.writer.lock().expect("event log lock");
        for event in events {
            if writer.write_event(event).is_err() {
                *self.io_errors.lock().expect("event log lock") += 1;
            }
        }
    }

    fn flush(&self) {
        let mut writer = self.writer.lock().expect("event log lock");
        if writer.flush().is_err() {
            *self.io_errors.lock().expect("event log lock") += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "prognosis-events-{tag}-{}-{n}.jsonl",
            std::process::id()
        ))
    }

    fn cleanup(path: &Path) {
        let _ = std::fs::remove_file(path);
        for index in rotated_indices(path) {
            let _ = std::fs::remove_file(rotated_path(path, index));
        }
        // rotated_indices stops at the first gap; sweep a few more.
        for index in 1..16 {
            let _ = std::fs::remove_file(rotated_path(path, index));
        }
    }

    fn emit_n(log: &EventLog, n: u64) {
        for packet in 0..n {
            log.emit(&Event::WireSend {
                rel: packet,
                dir: "up",
                packet,
                bytes: 40,
            });
        }
        log.flush();
    }

    #[test]
    fn rotation_caps_the_live_file_and_keeps_a_contiguous_sequence() {
        let path = temp_path("rotate");
        cleanup(&path);
        let log = EventLog::open(
            EventLogConfig::new(&path)
                .with_max_file_bytes(600)
                .with_max_total_bytes(100_000),
        )
        .expect("open log");
        emit_n(&log, 64);
        drop(log);
        assert!(std::fs::metadata(&path).expect("live file").len() <= 600);
        let indices = rotated_indices(&path);
        assert!(!indices.is_empty(), "rotation must have happened");
        assert_eq!(indices, (1..=indices.len() as u32).collect::<Vec<_>>());
        // Every line across the sequence is intact; packets are in order
        // oldest-first.
        let mut all = String::new();
        for &index in indices.iter().rev() {
            all.push_str(&std::fs::read_to_string(rotated_path(&path, index)).expect("read"));
        }
        all.push_str(&std::fs::read_to_string(&path).expect("read live"));
        assert_eq!(all.lines().count(), 64);
        cleanup(&path);
    }

    #[test]
    fn total_cap_deletes_the_oldest_rotated_files() {
        let path = temp_path("total");
        cleanup(&path);
        let log = EventLog::open(
            EventLogConfig::new(&path)
                .with_max_file_bytes(400)
                .with_max_total_bytes(1200),
        )
        .expect("open log");
        emit_n(&log, 256);
        drop(log);
        let indices = rotated_indices(&path);
        assert!(!indices.is_empty());
        let mut total = std::fs::metadata(&path).expect("live").len();
        for &index in &indices {
            total += std::fs::metadata(rotated_path(&path, index))
                .expect("rot")
                .len();
        }
        // One freshly rotated file is always kept, so the bound is the
        // cap plus one file.
        assert!(
            total <= 1200 + 400,
            "total {total} exceeds the cap by more than one file"
        );
        cleanup(&path);
    }

    #[test]
    fn reopening_appends_after_the_existing_contents() {
        let path = temp_path("reopen");
        cleanup(&path);
        {
            let log = EventLog::open(EventLogConfig::new(&path)).expect("open");
            emit_n(&log, 3);
        }
        {
            let log = EventLog::open(EventLogConfig::new(&path)).expect("reopen");
            emit_n(&log, 2);
        }
        let text = std::fs::read_to_string(&path).expect("read");
        assert_eq!(text.lines().count(), 5);
        cleanup(&path);
    }
}

//! Live one-line progress for campaigns and long-running experiments.
//!
//! [`Progress`] repaints a single status line in place (`\r`, no
//! scrollback spam) while a campaign or experiment binary grinds through
//! its cells.  Output is automatically suppressed when stdout is not a
//! TTY, so CI logs and redirected runs stay clean byte-for-byte.

use prognosis_events::{Event, EventSink};
use std::io::{IsTerminal, Write};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A single repainted status line on stdout, TTY-gated.  Sharable across
/// the campaign's task-worker threads.
#[derive(Debug)]
pub struct Progress {
    enabled: bool,
    /// Width of the last painted line, so a shorter repaint blanks the
    /// leftover tail.
    last_width: AtomicUsize,
}

impl Progress {
    /// Progress that paints only when stdout is an interactive terminal.
    pub fn stdout() -> Self {
        Progress {
            enabled: std::io::stdout().is_terminal(),
            last_width: AtomicUsize::new(0),
        }
    }

    /// Progress with an explicit on/off switch (tests, `--no-progress`).
    pub fn forced(enabled: bool) -> Self {
        Progress {
            enabled,
            last_width: AtomicUsize::new(0),
        }
    }

    /// Whether updates will paint anything.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Repaints the line in place.
    pub fn update(&self, line: &str) {
        if !self.enabled {
            return;
        }
        let pad = self
            .last_width
            .swap(line.len(), Ordering::Relaxed)
            .saturating_sub(line.len());
        print!("\r{line}{}", " ".repeat(pad));
        let _ = std::io::stdout().flush();
    }

    /// The campaign-shaped status line: task occupancy.
    pub fn update_campaign(&self, completed: usize, total: usize, in_flight: usize, queued: usize) {
        self.update(&format!(
            "campaign: {completed}/{total} done · {in_flight} running · {queued} queued"
        ));
    }

    /// Clears the line (end of run) so the next println starts clean.
    pub fn finish(&self) {
        if !self.enabled {
            return;
        }
        print!(
            "\r{}\r",
            " ".repeat(self.last_width.swap(0, Ordering::Relaxed))
        );
        let _ = std::io::stdout().flush();
    }
}

/// An [`EventSink`] that drives a [`Progress`] line from the event
/// stream itself — the campaign runner no longer paints directly; it
/// emits `task:start` / `task:done` events and this consumer
/// turns them into the one-line status.  Bench binaries reuse it with
/// `total_tasks == 0`, where only [`Event::BenchStage`] labels paint.
#[derive(Debug)]
pub struct ProgressSink {
    progress: Progress,
    total_tasks: usize,
    completed: AtomicUsize,
    in_flight: AtomicUsize,
}

impl ProgressSink {
    /// A sink painting campaign occupancy over `total_tasks` DAG tasks.
    pub fn new(progress: Progress, total_tasks: usize) -> Self {
        ProgressSink {
            progress,
            total_tasks,
            completed: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
        }
    }

    /// A sink for experiment binaries: paints only `bench:stage` labels.
    pub fn stages(progress: Progress) -> Self {
        ProgressSink::new(progress, 0)
    }

    /// Whether the underlying line will paint anything.
    pub fn enabled(&self) -> bool {
        self.progress.enabled()
    }

    /// Clears the status line so the next println starts clean.
    pub fn finish(&self) {
        self.progress.finish();
    }

    fn paint_campaign(&self) {
        let completed = self.completed.load(Ordering::Relaxed);
        let in_flight = self.in_flight.load(Ordering::Relaxed);
        self.progress.update_campaign(
            completed,
            self.total_tasks,
            in_flight,
            self.total_tasks.saturating_sub(completed + in_flight),
        );
    }
}

impl EventSink for ProgressSink {
    fn emit(&self, event: &Event) {
        match event {
            Event::TaskStart { .. } => {
                self.in_flight.fetch_add(1, Ordering::Relaxed);
                self.paint_campaign();
            }
            Event::TaskDone { .. } => {
                self.in_flight.fetch_sub(1, Ordering::Relaxed);
                self.completed.fetch_add(1, Ordering::Relaxed);
                self.paint_campaign();
            }
            Event::BenchStage { label } => self.progress.update(label),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_progress_paints_nothing_and_never_panics() {
        let p = Progress::forced(false);
        assert!(!p.enabled());
        p.update("anything");
        p.update_campaign(1, 9, 2, 6);
        p.finish();
    }

    #[test]
    fn progress_sink_tracks_occupancy_without_painting() {
        let sink = ProgressSink::new(Progress::forced(false), 4);
        assert!(!sink.enabled());
        sink.emit(&Event::TaskStart {
            id: "learn:a".to_string(),
        });
        assert_eq!(sink.in_flight.load(Ordering::Relaxed), 1);
        sink.emit(&Event::TaskDone {
            id: "learn:a".to_string(),
            ok: true,
        });
        sink.emit(&Event::BenchStage {
            label: "stage".to_string(),
        });
        assert_eq!(sink.completed.load(Ordering::Relaxed), 1);
        assert_eq!(sink.in_flight.load(Ordering::Relaxed), 0);
        sink.finish();
    }

    #[test]
    fn stdout_progress_is_suppressed_under_test_capture() {
        // `cargo test` captures stdout through a pipe, so this must come
        // back disabled — exactly the non-TTY suppression contract.
        assert!(!Progress::stdout().enabled());
    }
}

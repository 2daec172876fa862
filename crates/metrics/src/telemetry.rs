//! Span tracing and latency-histogram collection.
//!
//! The telemetry hub is `TelemetryConfig`-gated with a strict no-op fast path:
//! when disabled, span handles are zeroes, no clock is ever read, and no lock
//! is touched, so a telemetry-off run is bit-identical to an uninstrumented
//! one (pinned by `tests/telemetry.rs`). When enabled, workers record spans
//! into per-worker [`SpanWindow`]s / local buffers and the results are drained
//! into the shared hub only at barriers, preserving the engine's determinism
//! contract: nothing the workers time ever feeds back into scheduling.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::counters::Counters;
use crate::histogram::LatencyHistogram;
use crate::trace::{IterationRecord, IterationTrace, Mode};

/// Histogram name: engine per-iteration wall time (nanoseconds).
pub const HIST_ITERATION_WALL: &str = "engine_iteration_wall_ns";
/// Histogram name: WAL fsync latency (nanoseconds).
pub const HIST_WAL_FSYNC: &str = "wal_fsync_ns";
/// Histogram name: buffer-pool segment fault latency (nanoseconds).
pub const HIST_SEGMENT_FAULT: &str = "segment_fault_ns";
/// Histogram name: per-batch apply latency at the serving layer (nanoseconds).
pub const HIST_BATCH_APPLY: &str = "batch_apply_ns";
/// Histogram name: read-path query latency at the serving front end
/// (nanoseconds).
pub const HIST_QUERY_LATENCY: &str = "query_latency_ns";

/// Switches telemetry collection on or off for an engine/server instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetryConfig {
    /// Collect spans and latency histograms when `true`. Off by default; an
    /// off run must be bit-identical to pre-telemetry behavior.
    pub enabled: bool,
}

impl TelemetryConfig {
    /// Telemetry on.
    pub fn on() -> Self {
        Self { enabled: true }
    }

    /// Telemetry off (the default).
    pub fn off() -> Self {
        Self { enabled: false }
    }
}

/// A completed span: a named `[start, start+dur)` interval on a track.
///
/// Tracks map to Chrome trace `tid`s: track 0 is the coordinating thread,
/// tracks 1.. are pool workers / storage lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Static span name, e.g. `"iteration"` or `"wal_append"`.
    pub name: &'static str,
    /// Category, e.g. `"engine"`, `"server"`, `"storage"`, or the mode name.
    pub cat: &'static str,
    /// Display track (Chrome trace `tid`).
    pub track: u32,
    /// Start offset from the telemetry clock origin, nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Monotonic clock shared by all spans of one [`Telemetry`] hub, so span
/// timestamps from different threads land on one timeline.
#[derive(Debug, Clone, Copy)]
pub struct TelemetryClock {
    origin: Instant,
}

impl TelemetryClock {
    fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }

    /// Nanoseconds since the hub was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// An open span: just the start timestamp. Zero when telemetry is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanHandle {
    start_ns: u64,
}

/// A per-worker, lock-free span accumulator living in worker-local scratch.
///
/// Workers `cover` their execute window during a phase; the coordinator
/// `take`s it after the pool barrier, so the shared hub is only ever touched
/// from one thread at a time.
#[derive(Debug, Clone, Copy)]
pub struct SpanWindow {
    start_ns: u64,
    end_ns: u64,
}

impl Default for SpanWindow {
    fn default() -> Self {
        Self {
            start_ns: u64::MAX,
            end_ns: 0,
        }
    }
}

impl SpanWindow {
    /// Extend the window to cover `[start, end)`.
    pub fn cover(&mut self, start_ns: u64, end_ns: u64) {
        self.start_ns = self.start_ns.min(start_ns);
        self.end_ns = self.end_ns.max(end_ns);
    }

    /// Drain the window, returning `(start, end)` if anything was covered.
    pub fn take(&mut self) -> Option<(u64, u64)> {
        if self.start_ns == u64::MAX {
            return None;
        }
        let window = (self.start_ns, self.end_ns);
        *self = Self::default();
        Some(window)
    }
}

#[derive(Debug, Default)]
struct TelemetryInner {
    spans: Vec<SpanEvent>,
    hists: Vec<(&'static str, LatencyHistogram)>,
}

/// An immutable copy of everything a [`Telemetry`] hub has collected.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// All completed spans, in drain order.
    pub spans: Vec<SpanEvent>,
    /// Named latency histograms.
    pub histograms: Vec<(String, LatencyHistogram)>,
}

impl TelemetrySnapshot {
    /// Look up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&LatencyHistogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Export all spans as Chrome `chrome://tracing` JSON.
    pub fn chrome_trace(&self) -> String {
        crate::export::chrome_trace_json(&self.spans)
    }

    /// Aggregate all spans into a plain-text flame table.
    pub fn flame_table(&self) -> crate::report::Table {
        crate::export::flame_table(&self.spans)
    }
}

/// The telemetry hub: one per engine or server instance.
///
/// All mutation goes through a mutex, but the engine only locks it at
/// barriers / iteration ends (never inside worker closures), and the disabled
/// path never locks at all.
#[derive(Debug)]
pub struct Telemetry {
    enabled: bool,
    clock: TelemetryClock,
    inner: Mutex<TelemetryInner>,
}

impl Telemetry {
    /// Build a hub from a config.
    pub fn new(config: TelemetryConfig) -> Self {
        Self {
            enabled: config.enabled,
            clock: TelemetryClock::new(),
            inner: Mutex::new(TelemetryInner::default()),
        }
    }

    /// A permanently disabled hub (the engine default).
    pub fn disabled() -> Self {
        Self::new(TelemetryConfig::off())
    }

    /// `true` when this hub collects anything.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The hub's monotonic clock.
    pub fn clock(&self) -> TelemetryClock {
        self.clock
    }

    /// The clock, but only when enabled — the `None` arm lets hot paths skip
    /// clock reads entirely when telemetry is off.
    pub fn clock_if_enabled(&self) -> Option<TelemetryClock> {
        if self.enabled {
            Some(self.clock)
        } else {
            None
        }
    }

    /// Open a span. Free (and meaningless) when disabled.
    pub fn begin(&self) -> SpanHandle {
        SpanHandle {
            start_ns: if self.enabled { self.clock.now_ns() } else { 0 },
        }
    }

    /// Close a span opened with [`begin`](Self::begin) onto `track`.
    pub fn end(&self, handle: SpanHandle, name: &'static str, cat: &'static str, track: u32) {
        if !self.enabled {
            return;
        }
        let end_ns = self.clock.now_ns();
        self.push_span(SpanEvent {
            name,
            cat,
            track,
            start_ns: handle.start_ns,
            dur_ns: end_ns.saturating_sub(handle.start_ns),
        });
    }

    /// Append an already-built span.
    pub fn push_span(&self, span: SpanEvent) {
        if !self.enabled {
            return;
        }
        self.inner.lock().unwrap().spans.push(span);
    }

    /// Drain a batch of locally buffered spans into the hub (barrier-side).
    pub fn extend_spans(&self, spans: &mut Vec<SpanEvent>) {
        if !self.enabled || spans.is_empty() {
            spans.clear();
            return;
        }
        self.inner.lock().unwrap().spans.append(spans);
    }

    /// Record a nanosecond sample into the named histogram.
    pub fn record_ns(&self, name: &'static str, ns: u64) {
        if !self.enabled {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        if let Some((_, h)) = inner.hists.iter_mut().find(|(n, _)| *n == name) {
            h.record(ns);
        } else {
            let mut h = LatencyHistogram::new();
            h.record(ns);
            inner.hists.push((name, h));
        }
    }

    /// A process-wide per-thread display lane in `1..`, used as the span track
    /// for storage-side events that can fire from any pool worker.
    pub fn lane() -> u32 {
        static NEXT_LANE: AtomicU32 = AtomicU32::new(1);
        thread_local! {
            static LANE: u32 = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
        }
        LANE.with(|l| *l)
    }

    /// Copy out everything collected so far.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let inner = self.inner.lock().unwrap();
        TelemetrySnapshot {
            spans: inner.spans.clone(),
            histograms: inner
                .hists
                .iter()
                .map(|(n, h)| (n.to_string(), h.clone()))
                .collect(),
        }
    }
}

/// Records one engine run: the single place where per-iteration mode, active
/// counts, counters and simulated seconds are written, emitting both the
/// [`IterationTrace`] (when tracing is on) and iteration spans plus the
/// iteration-wall histogram (when telemetry is on).
#[derive(Debug)]
pub struct RunRecorder<'t> {
    telemetry: Option<&'t Telemetry>,
    clock: Option<TelemetryClock>,
    spans: Vec<SpanEvent>,
    trace_on: bool,
    trace: IterationTrace,
}

impl<'t> RunRecorder<'t> {
    /// Attach to a hub; `trace_on` mirrors `EngineConfig::trace`.
    pub fn new(telemetry: &'t Telemetry, trace_on: bool) -> Self {
        let clock = telemetry.clock_if_enabled();
        Self {
            telemetry: clock.map(|_| telemetry),
            clock,
            spans: Vec::new(),
            trace_on,
            trace: IterationTrace::new(),
        }
    }

    /// Open a span (no-op handle when telemetry is off).
    pub fn begin(&self) -> SpanHandle {
        SpanHandle {
            start_ns: self.clock.map_or(0, |c| c.now_ns()),
        }
    }

    /// Close a span onto the coordinator track (track 0).
    pub fn end(&mut self, handle: SpanHandle, name: &'static str, cat: &'static str) {
        let Some(clock) = self.clock else { return };
        let end_ns = clock.now_ns();
        self.spans.push(SpanEvent {
            name,
            cat,
            track: 0,
            start_ns: handle.start_ns,
            dur_ns: end_ns.saturating_sub(handle.start_ns),
        });
    }

    /// Drain a worker's [`SpanWindow`] (after the pool barrier) into a span on
    /// the worker's track.
    pub fn worker_window(
        &mut self,
        window: &mut SpanWindow,
        name: &'static str,
        cat: &'static str,
        track: u32,
    ) {
        if self.clock.is_none() {
            return;
        }
        if let Some((start_ns, end_ns)) = window.take() {
            self.spans.push(SpanEvent {
                name,
                cat,
                track,
                start_ns,
                dur_ns: end_ns.saturating_sub(start_ns),
            });
        }
    }

    /// Record the end of one iteration: the single write point for the
    /// iteration trace, the iteration span, and the wall-time histogram.
    #[allow(clippy::too_many_arguments)]
    pub fn end_iteration(
        &mut self,
        handle: SpanHandle,
        iteration: u32,
        mode: Mode,
        active_vertices: usize,
        counters: Counters,
        sim_seconds: f64,
    ) {
        if self.trace_on {
            self.trace.push(IterationRecord {
                iteration,
                mode,
                active_vertices,
                counters,
                seconds: sim_seconds,
            });
        }
        if let Some(telemetry) = self.telemetry {
            let cat = match mode {
                Mode::Pull => "pull",
                Mode::Push => "push",
            };
            let end_ns = self.clock.map_or(0, |c| c.now_ns());
            let dur_ns = end_ns.saturating_sub(handle.start_ns);
            self.spans.push(SpanEvent {
                name: "iteration",
                cat,
                track: 0,
                start_ns: handle.start_ns,
                dur_ns,
            });
            telemetry.record_ns(HIST_ITERATION_WALL, dur_ns);
        }
    }

    /// Flush buffered spans to the hub and hand back the iteration trace.
    pub fn finish(mut self) -> IterationTrace {
        if let Some(telemetry) = self.telemetry {
            telemetry.extend_spans(&mut self.spans);
        }
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn disabled_hub_collects_nothing() {
        let t = Telemetry::disabled();
        assert!(!t.enabled());
        let h = t.begin();
        t.end(h, "x", "y", 0);
        t.record_ns(HIST_WAL_FSYNC, 123);
        let snap = t.snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(t.clock_if_enabled().is_none());
    }

    #[test]
    fn enabled_hub_collects_spans_and_histograms() {
        let t = Telemetry::new(TelemetryConfig::on());
        let h = t.begin();
        t.end(h, "unit", "test", 3);
        t.record_ns(HIST_WAL_FSYNC, 1_000);
        t.record_ns(HIST_WAL_FSYNC, 2_000);
        let snap = t.snapshot();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].name, "unit");
        assert_eq!(snap.spans[0].track, 3);
        let hist = snap.histogram(HIST_WAL_FSYNC).unwrap();
        assert_eq!(hist.count(), 2);
        assert!(snap.histogram("missing").is_none());
    }

    #[test]
    fn span_window_covers_and_drains_once() {
        let mut w = SpanWindow::default();
        assert!(w.take().is_none());
        w.cover(100, 200);
        w.cover(50, 150);
        assert_eq!(w.take(), Some((50, 200)));
        assert!(w.take().is_none());
    }

    #[test]
    fn recorder_emits_trace_and_spans_together() {
        let t = Telemetry::new(TelemetryConfig::on());
        let mut rec = RunRecorder::new(&t, true);
        let h = rec.begin();
        rec.end_iteration(h, 1, Mode::Pull, 7, Counters::zero(), 0.5);
        let mut window = SpanWindow::default();
        window.cover(1, 2);
        rec.worker_window(&mut window, "execute", "pull", 1);
        let trace = rec.finish();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.records()[0].mode, Mode::Pull);
        assert!((trace.records()[0].seconds - 0.5).abs() < 1e-12);
        let snap = t.snapshot();
        assert_eq!(snap.spans.len(), 2);
        assert!(snap.spans.iter().any(|s| s.name == "iteration"));
        assert!(snap
            .spans
            .iter()
            .any(|s| s.name == "execute" && s.track == 1));
        assert_eq!(snap.histogram(HIST_ITERATION_WALL).unwrap().count(), 1);
    }

    #[test]
    fn recorder_with_disabled_hub_still_traces() {
        let t = Telemetry::disabled();
        let mut rec = RunRecorder::new(&t, true);
        let h = rec.begin();
        rec.end_iteration(h, 1, Mode::Push, 3, Counters::zero(), 0.25);
        let trace = rec.finish();
        assert_eq!(trace.len(), 1);
        assert!(t.snapshot().spans.is_empty());
    }

    #[test]
    fn recorder_without_trace_returns_empty_trace() {
        let t = Telemetry::new(TelemetryConfig::on());
        let mut rec = RunRecorder::new(&t, false);
        let h = rec.begin();
        rec.end_iteration(h, 1, Mode::Push, 3, Counters::zero(), 0.25);
        let trace = rec.finish();
        assert!(trace.is_empty());
        assert_eq!(t.snapshot().spans.len(), 1);
    }

    #[test]
    fn lanes_are_stable_per_thread_and_nonzero() {
        let a = Telemetry::lane();
        let b = Telemetry::lane();
        assert_eq!(a, b);
        assert!(a >= 1);
        let other = std::thread::spawn(Telemetry::lane).join().unwrap();
        assert_ne!(a, other);
    }

    #[test]
    fn arc_hub_is_shareable_across_threads() {
        let t = Arc::new(Telemetry::new(TelemetryConfig::on()));
        let t2 = Arc::clone(&t);
        std::thread::spawn(move || t2.record_ns(HIST_SEGMENT_FAULT, 5))
            .join()
            .unwrap();
        assert_eq!(
            t.snapshot().histogram(HIST_SEGMENT_FAULT).unwrap().count(),
            1
        );
    }
}

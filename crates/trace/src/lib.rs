//! `vliw-trace` — a zero-overhead-when-off tracing and metrics layer for the
//! scheduling service.
//!
//! The design has three pieces:
//!
//! * [`TraceSink`] — the one-method consumer contract. Producers never format,
//!   buffer, or timestamp; they hand the sink a `(track, phase, name, args)`
//!   tuple and the sink decides what (if anything) to do with it.
//! * [`Trace`] — a `Copy` handle threaded through the instrumented code. It is
//!   an `Option<&dyn TraceSink>` plus a track id: when no sink is attached
//!   every probe is a single null-check branch that the optimizer folds away,
//!   so the disabled path adds no allocation, no virtual call, and no
//!   observable work. [`NullSink`] is provided for callers that want an
//!   attached-but-discarding sink; it compiles to the same nothing.
//! * [`RecordingSink`] — the in-memory recorder on a **logical clock**:
//!   every event is stamped with its sequence number within the recording
//!   (deterministic across runs: same work ⇒ byte-identical export). Wall
//!   time never reaches a recording; it is measured from outside, by the
//!   benchmark harness.
//!
//! Exporters: [`RecordingSink::chrome_trace_json`] writes the Chrome
//! trace-event array format (one event per line, loadable in
//! `chrome://tracing` or Perfetto) and [`MetricsRegistry`] folds the event
//! stream into a flat, deterministically-ordered `(name, value)` snapshot for
//! `BENCH_repro.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

/// The kind of a trace event, mirroring the Chrome trace-event phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Span open (`"B"`). Must be balanced by an [`Phase::End`] on the same
    /// track.
    Begin,
    /// Span close (`"E"`).
    End,
    /// A point event (`"i"`, thread-scoped).
    Instant,
    /// A sampled counter value (`"C"`); the sample is `args[0].1`.
    Counter,
}

impl Phase {
    /// The Chrome trace-event `ph` letter.
    fn chrome(self) -> &'static str {
        match self {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Instant => "i",
            Phase::Counter => "C",
        }
    }
}

/// Consumer contract: one method, called at every enabled probe site.
///
/// Implementations must be cheap and must not panic; they run inside the
/// scheduler's hot paths (albeit only when a sink is attached). Sinks are
/// shared across worker threads, hence `Sync`.
pub trait TraceSink: Sync {
    /// Record one event. `track` is a producer-chosen timeline id (0 = main
    /// pipeline, batch worker `w` uses `w + 1`); `args` are small key/number
    /// pairs attached to the event.
    fn record(&self, track: u32, phase: Phase, name: &str, args: &[(&str, f64)]);
}

/// A sink that discards everything. Attaching it exercises every probe's
/// enabled path while keeping output empty — useful for overhead tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline(always)]
    fn record(&self, _track: u32, _phase: Phase, _name: &str, _args: &[(&str, f64)]) {}
}

/// The producer handle: a copyable, borrow-only view of an optional sink.
///
/// `Trace::off()` is the disabled handle — every probe on it reduces to a
/// `None` check. The handle carries a track id so call trees can be assigned
/// to timelines without threading extra parameters.
#[derive(Clone, Copy)]
pub struct Trace<'a> {
    sink: Option<&'a dyn TraceSink>,
    track: u32,
}

impl std::fmt::Debug for Trace<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trace")
            .field("on", &self.on())
            .field("track", &self.track)
            .finish()
    }
}

impl Default for Trace<'_> {
    fn default() -> Self {
        Self::off()
    }
}

impl<'a> Trace<'a> {
    /// The disabled handle: all probes are no-ops.
    #[inline]
    pub const fn off() -> Self {
        Trace {
            sink: None,
            track: 0,
        }
    }

    /// A handle feeding `sink`, on track 0.
    #[inline]
    pub fn new(sink: &'a dyn TraceSink) -> Self {
        Trace {
            sink: Some(sink),
            track: 0,
        }
    }

    /// The same sink viewed on a different track (timeline).
    #[inline]
    pub fn with_track(self, track: u32) -> Self {
        Trace {
            sink: self.sink,
            track,
        }
    }

    /// Whether a sink is attached. Probe sites with non-trivial argument
    /// construction should guard on this so the disabled path stays a single
    /// branch.
    #[inline(always)]
    pub fn on(&self) -> bool {
        self.sink.is_some()
    }

    /// Emit a span-open event.
    #[inline]
    fn begin(&self, name: &str, args: &[(&str, f64)]) {
        if let Some(sink) = self.sink {
            sink.record(self.track, Phase::Begin, name, args);
        }
    }

    /// Emit a span-close event.
    #[inline]
    fn end(&self, name: &str) {
        if let Some(sink) = self.sink {
            sink.record(self.track, Phase::End, name, &[]);
        }
    }

    /// Emit a point event.
    #[inline]
    pub fn instant(&self, name: &str, args: &[(&str, f64)]) {
        if let Some(sink) = self.sink {
            sink.record(self.track, Phase::Instant, name, args);
        }
    }

    /// Emit a counter sample.
    #[inline]
    pub fn counter(&self, name: &str, value: f64) {
        if let Some(sink) = self.sink {
            sink.record(self.track, Phase::Counter, name, &[("value", value)]);
        }
    }

    /// Open a span closed automatically when the returned guard drops.
    #[inline]
    pub fn span(&self, name: &'static str) -> Span<'a> {
        self.begin(name, &[]);
        Span { trace: *self, name }
    }

    /// Open a span with arguments on the open event.
    #[inline]
    pub fn span_with(&self, name: &'static str, args: &[(&str, f64)]) -> Span<'a> {
        self.begin(name, args);
        Span { trace: *self, name }
    }
}

/// Drop guard closing a span opened by [`Trace::span`].
#[must_use = "dropping the span immediately closes it"]
pub struct Span<'a> {
    trace: Trace<'a>,
    name: &'static str,
}

impl Drop for Span<'_> {
    #[inline]
    fn drop(&mut self) {
        self.trace.end(self.name);
    }
}

/// One recorded event, owned.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedEvent {
    /// Timeline id as passed by the producer.
    pub track: u32,
    /// Event kind.
    pub phase: Phase,
    /// Event name.
    pub name: String,
    /// Timestamp: the event's sequence number, starting at 1.
    pub ts: u64,
    /// Key/number argument pairs.
    pub args: Vec<(String, f64)>,
}

/// An in-memory recording sink on a logical clock: event `n` gets
/// timestamp `n`, so the same work in the same order produces a
/// byte-identical export.
pub struct RecordingSink {
    events: Mutex<Vec<RecordedEvent>>,
}

impl RecordingSink {
    /// A recorder stamping events with deterministic sequence numbers.
    pub fn logical() -> Self {
        RecordingSink {
            events: Mutex::new(Vec::new()),
        }
    }

    /// A snapshot of everything recorded so far, in arrival order.
    pub fn events(&self) -> Vec<RecordedEvent> {
        self.events
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Render the recording as a Chrome trace-event JSON array, one event per
    /// line (loadable in `chrome://tracing` and Perfetto). The output is
    /// byte-identical across runs performing the same work.
    pub fn chrome_trace_json(&self) -> String {
        chrome_trace_json(&self.events())
    }

    /// Fold the recording into a flat metrics snapshot.
    pub fn metrics(&self) -> MetricsRegistry {
        MetricsRegistry::from_events(&self.events())
    }
}

impl TraceSink for RecordingSink {
    fn record(&self, track: u32, phase: Phase, name: &str, args: &[(&str, f64)]) {
        let mut events = self.events.lock().unwrap_or_else(|p| p.into_inner());
        let ts = events.len() as u64 + 1;
        events.push(RecordedEvent {
            track,
            phase,
            name: name.to_string(),
            ts,
            args: args.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        });
    }
}

/// Render an event list as a Chrome trace-event JSON array (one event per
/// line). `pid` is fixed at 1; the track id becomes the `tid`.
pub(crate) fn chrome_trace_json(events: &[RecordedEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 16);
    out.push_str("[\n");
    for (i, ev) in events.iter().enumerate() {
        out.push_str("{\"name\":\"");
        json_escape_into(&mut out, &ev.name);
        let _ = write!(
            out,
            "\",\"ph\":\"{}\",\"ts\":{},\"pid\":1,\"tid\":{}",
            ev.phase.chrome(),
            ev.ts,
            ev.track
        );
        if ev.phase == Phase::Instant {
            out.push_str(",\"s\":\"t\"");
        }
        if !ev.args.is_empty() {
            out.push_str(",\"args\":{");
            for (j, (k, v)) in ev.args.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('"');
                json_escape_into(&mut out, k);
                out.push_str("\":");
                json_number_into(&mut out, *v);
            }
            out.push('}');
        }
        out.push('}');
        if i + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn json_number_into(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push('0');
    } else if v == v.trunc() && v.abs() < 9e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{}", v);
    }
}

/// A flat, deterministically-ordered `(name, value)` metrics snapshot.
///
/// Derived from a recording by [`RecordingSink::metrics`]:
///
/// * `span_count/<name>` — completed spans per name;
/// * `span_ticks/<name>` — total timestamp units spent inside spans of that
///   name, in sequence steps;
/// * `instant_count/<name>` — point events per name;
/// * `counter_last/<name>` — final sample of each counter;
/// * `events_total` — every recorded event.
///
/// Extra values can be merged in with [`MetricsRegistry::set`].
#[derive(Debug, Default, Clone)]
pub struct MetricsRegistry {
    values: BTreeMap<String, f64>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Fold an event stream into the standard derived metrics.
    fn from_events(events: &[RecordedEvent]) -> Self {
        let mut reg = Self::new();
        // Per-track stacks of (name, begin-ts) for span matching.
        let mut stacks: BTreeMap<u32, Vec<(String, u64)>> = BTreeMap::new();
        for ev in events {
            reg.add("events_total", 1.0);
            match ev.phase {
                Phase::Begin => {
                    stacks
                        .entry(ev.track)
                        .or_default()
                        .push((ev.name.clone(), ev.ts));
                }
                Phase::End => {
                    if let Some((name, begin)) = stacks.entry(ev.track).or_default().pop() {
                        reg.add(&format!("span_count/{}", name), 1.0);
                        reg.add(
                            &format!("span_ticks/{}", name),
                            ev.ts.saturating_sub(begin) as f64,
                        );
                    }
                }
                Phase::Instant => {
                    reg.add(&format!("instant_count/{}", ev.name), 1.0);
                }
                Phase::Counter => {
                    if let Some((_, v)) = ev.args.first() {
                        reg.set(&format!("counter_last/{}", ev.name), *v);
                    }
                }
            }
        }
        reg
    }

    /// Set `name` to `value`, replacing any previous value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Add `delta` to `name` (starting from 0).
    pub(crate) fn add(&mut self, name: &str, delta: f64) {
        *self.values.entry(name.to_string()).or_insert(0.0) += delta;
    }

    /// The snapshot in deterministic (lexicographic) order.
    pub fn to_vec(&self) -> Vec<(String, f64)> {
        self.values.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MetricsRegistry {
        /// Read one value.
        fn get(&self, name: &str) -> Option<f64> {
            self.values.get(name).copied()
        }
    }

    #[test]
    fn off_handle_is_silent_and_cheap() {
        let t = Trace::off();
        assert!(!t.on());
        t.begin("x", &[]);
        t.end("x");
        t.instant("y", &[("a", 1.0)]);
        t.counter("c", 2.0);
        let _s = t.span("z");
    }

    #[test]
    fn null_sink_discards() {
        let sink = NullSink;
        let t = Trace::new(&sink);
        assert!(t.on());
        t.instant("y", &[]);
        let _s = t.span("z");
    }

    #[test]
    fn logical_clock_is_sequence_numbers() {
        let sink = RecordingSink::logical();
        let t = Trace::new(&sink);
        {
            let _s = t.span("outer");
            t.instant("mid", &[("k", 3.0)]);
        }
        let ev = sink.events();
        assert_eq!(ev.len(), 3);
        assert_eq!(ev[0].ts, 1);
        assert_eq!(ev[1].ts, 2);
        assert_eq!(ev[2].ts, 3);
        assert_eq!(ev[0].phase, Phase::Begin);
        assert_eq!(ev[2].phase, Phase::End);
    }

    #[test]
    fn spans_balance_and_metrics_fold() {
        let sink = RecordingSink::logical();
        let t = Trace::new(&sink);
        {
            let _a = t.span("a");
            let _b = t.span("b");
        }
        t.counter("depth", 4.0);
        t.counter("depth", 7.0);
        let m = sink.metrics();
        assert_eq!(m.get("span_count/a"), Some(1.0));
        assert_eq!(m.get("span_count/b"), Some(1.0));
        assert_eq!(m.get("counter_last/depth"), Some(7.0));
        assert_eq!(m.get("events_total"), Some(6.0));
        // b nests inside a: a spans ts 1..4, b spans 2..3.
        assert_eq!(m.get("span_ticks/a"), Some(3.0));
        assert_eq!(m.get("span_ticks/b"), Some(1.0));
    }

    #[test]
    fn chrome_export_is_deterministic_and_parseable_shape() {
        let run = || {
            let sink = RecordingSink::logical();
            let t = Trace::new(&sink);
            let _s = t.span_with("stage", &[("ii", 7.0)]);
            t.instant("hit", &[]);
            drop(_s);
            sink.chrome_trace_json()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.starts_with("[\n"));
        assert!(a.trim_end().ends_with(']'));
        assert!(a.contains("\"ph\":\"B\""));
        assert!(a.contains("\"ph\":\"E\""));
        assert!(a.contains("\"s\":\"t\""));
        assert!(a.contains("\"args\":{\"ii\":7}"));
    }

    #[test]
    fn tracks_are_independent_timelines() {
        let sink = RecordingSink::logical();
        let t0 = Trace::new(&sink);
        let t1 = t0.with_track(1);
        t0.begin("main", &[]);
        t1.begin("worker", &[]);
        t1.end("worker");
        t0.end("main");
        let m = sink.metrics();
        assert_eq!(m.get("span_count/main"), Some(1.0));
        assert_eq!(m.get("span_count/worker"), Some(1.0));
    }

    #[test]
    fn json_number_formatting() {
        let mut s = String::new();
        json_number_into(&mut s, 3.0);
        s.push(' ');
        json_number_into(&mut s, 2.5);
        s.push(' ');
        json_number_into(&mut s, f64::NAN);
        assert_eq!(s, "3 2.5 0");
    }
}

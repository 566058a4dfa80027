//! # enhancenet-telemetry
//!
//! Process-global, low-overhead observability for the EnhanceNet stack:
//! the instrumentation behind Table V's runtime accounting (seconds per
//! training epoch, milliseconds per prediction) and the CI perf-trajectory
//! pipeline.
//!
//! Five primitives feed one global [`Registry`]:
//!
//! * **Scoped timers** — [`scoped`] returns an RAII guard that attributes
//!   the enclosed wall-clock time to a label on drop. Nested scopes each
//!   bill their own label, so `trainer.forward` and an inner
//!   `dfgn.generate` coexist without double bookkeeping.
//! * **Trace spans** — [`span`] is the hierarchical sibling of [`scoped`]:
//!   on top of the same per-label aggregation it records each completed
//!   interval with its thread id, nesting depth, and start offset, so the
//!   run can be exported as a Chrome `trace_event` timeline
//!   ([`render_chrome_trace`], viewable in `chrome://tracing` / Perfetto).
//! * **Counters** — [`count`] accumulates monotonic `u64` totals (kernel
//!   calls, elements moved, parallel-vs-serial dispatch decisions, batches
//!   and windows routed through the sharded trainer). Names are a
//!   contract: `scripts/bench_summary --check` pins the `tensor.*`,
//!   `serve.*`, `damgn.*`, `plan.*` and `trainer.shard.*` families against
//!   allow-lists so dashboard keys stay stable across commits.
//! * **Histograms** — [`observe`] feeds fixed-bucket log-scale histograms
//!   (power-of-two bucket edges) that report p50/p95/p99 without storing
//!   raw samples: per-batch step latency, per-window inference latency,
//!   per-epoch gradient norms.
//! * **Gauges** — [`gauge`] sets a last-write-wins level (queue depth,
//!   window fill, windowed p99) that live scrapes read as "the value right
//!   now", unlike the monotone counters.
//! * **Events** — [`record_event`] appends a structured record (any
//!   `serde::Serialize` payload), used by the trainer for per-epoch
//!   progress and by the model-health probes in `enhancenet::probes`.
//!
//! Everything is gated on one process-global [`AtomicBool`]: when telemetry
//! is disabled (the default) every primitive returns after a single relaxed
//! atomic load — no locking, no allocation, no `Instant::now()`. Benchmarks
//! and the inference hot path therefore pay one predictable branch.
//!
//! Counters, gauges, and histograms live in the lock-striped [`metrics`]
//! store so a live [`snapshot`] (and the `/metrics` endpoint the
//! [`export`] module serves from it) never stalls the hot path behind one
//! global lock; [`slo`] builds rolling-window SLO statistics on the same
//! [`Histogram`]. Spans and events stay in the trace registry behind a
//! mutex, with **bounded ring retention**: beyond [`MAX_SPANS`] /
//! [`MAX_EVENTS`] records the oldest are recycled and the
//! `telemetry.dropped_records` counter accounts for every record shed, so
//! a long-lived service cannot grow without bound.
//!
//! The registry renders three ways: [`render_jsonl`] (one JSON object per
//! line — `meta`, `counter`, `gauge`, `timer`, `histogram`, `span`, and
//! `event` records; the format `scripts/bench_summary` consumes),
//! [`render_chrome_trace`] (a `trace_event` JSON document), and
//! [`summary_table`] (a human-aligned table for stderr). Live scrapes use
//! [`export::render_prometheus`] on a [`MetricsSnapshot`] instead.
//!
//! Guards are hardened against a concurrent [`reset`]: each captures the
//! registry generation at creation and drops its measurement silently if a
//! reset happened in between, so a racing reset can never corrupt the fresh
//! registry or panic a drop.
//!
//! ```
//! enhancenet_telemetry::reset();
//! enhancenet_telemetry::set_enabled(true);
//! {
//!     let _t = enhancenet_telemetry::span("demo.work");
//!     enhancenet_telemetry::count("demo.items", 3);
//!     enhancenet_telemetry::observe("demo.latency_ns", 1250.0);
//! }
//! let jsonl = enhancenet_telemetry::render_jsonl();
//! assert!(jsonl.lines().count() >= 4);
//! enhancenet_telemetry::set_enabled(false);
//! ```

pub mod export;
pub mod metrics;
pub mod slo;

pub use export::{render_prometheus, MetricsServer, ReadyProbe};
pub use metrics::{snapshot, MetricsSnapshot};
pub use slo::{SloReport, SloWindow};

use serde::Serialize;
use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Counter incremented each time bounded ring retention recycles a span or
/// event record; the one observable trace of shed telemetry.
pub const DROPPED_RECORDS: &str = "telemetry.dropped_records";

/// Master switch. Relaxed ordering is sufficient: the flag only gates
/// best-effort accounting, never data the computation depends on.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether [`echo`] lines are printed to stderr (the `verbose` sink).
static ECHO: AtomicBool = AtomicBool::new(false);

/// Bumped by [`reset`]. Live guards compare against their creation-time
/// value on drop and discard the measurement when it no longer matches, so
/// a reset that races a live scope/span cannot pollute the fresh registry.
static GENERATION: AtomicU64 = AtomicU64::new(0);

/// Source of process-unique thread ids for span records (0 is reserved for
/// "unknown", i.e. TLS already torn down).
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Small dense per-thread id, assigned on first span in the thread.
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    /// Current span nesting depth on this thread.
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// The instant all span `start_us` offsets are measured from (first use).
fn process_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// True when telemetry collection is on. One relaxed atomic load — callers
/// may use it to skip label/payload construction entirely.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns collection on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Turns the human echo sink (stderr) on or off. Independent of
/// [`set_enabled`]: a verbose run prints progress lines even when no JSONL
/// is being collected.
pub fn set_echo(on: bool) {
    ECHO.store(on, Ordering::Relaxed);
}

/// True when [`echo`] prints to stderr.
#[inline]
pub fn echo_enabled() -> bool {
    ECHO.load(Ordering::Relaxed)
}

/// The human progress sink: prints `line` to stderr when echo is enabled.
/// Trainer `verbose` output routes through here so there is exactly one
/// place progress lines leave the process.
pub fn echo(line: &str) {
    if echo_enabled() {
        eprintln!("{line}");
    }
}

/// Aggregate for one timer label.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimerStat {
    /// Completed scopes recorded under this label.
    pub calls: u64,
    /// Total wall-clock nanoseconds across those scopes.
    pub total_ns: u64,
}

/// One completed trace span: a timer interval annotated with enough context
/// (thread, depth, start offset) to reconstruct the call tree.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Span label, shared with the aggregated timer of the same name.
    pub label: &'static str,
    /// Process-unique small thread id (0 when TLS was unavailable).
    pub tid: u64,
    /// Nesting depth on `tid` at span start (0 = top level).
    pub depth: u32,
    /// Start offset in microseconds from the process telemetry epoch.
    pub start_us: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
}

/// Spans retained per run; beyond this the ring recycles the oldest span
/// and the `telemetry.dropped_records` counter increments (aggregated
/// timers keep counting regardless). The cap is far above what a training
/// run records, so exports there are byte-identical to unbounded
/// retention; only long-lived services shed.
pub const MAX_SPANS: usize = 1 << 16;

/// Events retained per run, with the same drop-oldest ring policy (and the
/// same `telemetry.dropped_records` accounting) as [`MAX_SPANS`].
pub const MAX_EVENTS: usize = 1 << 16;

/// Number of fixed log-scale histogram buckets. Bucket `i` covers
/// `[2^(i-32), 2^(i-31))`, so the range spans `2^-32` up to `2^48` — wide
/// enough for both gradient norms and nanosecond latencies (~78 hours).
pub const HISTOGRAM_BUCKETS: usize = 80;

/// Fixed-bucket log-scale histogram. Stores only bucket counts plus exact
/// count/sum/min/max, so memory is constant regardless of sample volume;
/// quantiles are estimated by a cumulative bucket walk with linear
/// interpolation inside the target bucket, clamped to the observed
/// `[min, max]`.
#[derive(Debug, Clone)]
pub struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl Histogram {
    /// Bucket index for `v`: `floor(log2 v) + 32`, clamped to the table.
    /// Non-positive values land in bucket 0 (callers filter non-finite).
    fn bucket_index(v: f64) -> usize {
        if v <= 0.0 {
            return 0;
        }
        let idx = v.log2().floor() as i64 + 32;
        idx.clamp(0, HISTOGRAM_BUCKETS as i64 - 1) as usize
    }

    /// `[lo, hi)` value bounds of bucket `i`.
    fn bucket_bounds(i: usize) -> (f64, f64) {
        (2f64.powi(i as i32 - 32), 2f64.powi(i as i32 - 31))
    }

    /// Records one sample. Non-finite values are ignored.
    pub fn observe(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[Self::bucket_index(v)] += 1;
    }

    /// Folds `other` into `self` bucket-by-bucket (exact: the merged
    /// histogram equals one that observed both sample streams). This is
    /// what lets [`slo::SloWindow`] aggregate per-slot deltas into a
    /// rolling window without storing raw samples.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += *theirs;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest recorded sample (NaN when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest recorded sample (NaN when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Arithmetic mean (NaN when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimated quantile `q` in `[0, 1]`: cumulative bucket walk, linear
    /// interpolation inside the landing bucket, clamped to `[min, max]`.
    /// NaN when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (cum + c) as f64 >= rank {
                let (lo, hi) = Self::bucket_bounds(i);
                let frac = ((rank - cum as f64) / c as f64).clamp(0.0, 1.0);
                return (lo + frac * (hi - lo)).clamp(self.min, self.max);
            }
            cum += c;
        }
        self.max
    }

    /// Non-empty buckets as `(index, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets.iter().enumerate().filter(|(_, &c)| c > 0).map(|(i, &c)| (i, c)).collect()
    }
}

/// Copyable snapshot of one histogram's headline statistics.
#[derive(Debug, Clone, Copy)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Estimated median.
    pub p50: f64,
    /// Estimated 95th percentile.
    pub p95: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
}

/// One structured event: a kind tag plus an arbitrary JSON payload.
#[derive(Debug, Clone)]
pub struct Event {
    /// Event family, e.g. `"epoch"` or `"probe.entity_error"`.
    pub kind: String,
    /// Serialized payload fields.
    pub payload: serde_json::Value,
}

/// The process-global trace store behind the module-level free functions.
/// Counters, gauges, and histograms live in the lock-striped [`metrics`]
/// store instead, so only trace data (timers, spans, events) contends on
/// this mutex.
#[derive(Debug, Default)]
pub struct Registry {
    timers: BTreeMap<String, TimerStat>,
    spans: VecDeque<SpanRecord>,
    events: VecDeque<Event>,
}

fn registry() -> MutexGuard<'static, Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY
        .get_or_init(|| Mutex::new(Registry::default()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// RAII guard from [`scoped`]; bills elapsed time to its label on drop.
/// When telemetry is disabled the guard is inert (holds no timestamp).
/// If [`reset`] runs while the guard is live, the measurement is discarded
/// on drop rather than written into the fresh registry.
#[must_use = "the timer records on drop; binding to _ drops immediately"]
pub struct Scope {
    inner: Option<(&'static str, Instant, u64)>,
}

/// Starts a scoped wall-clock timer. Disabled path: one atomic load, no
/// allocation, no clock read.
#[inline]
pub fn scoped(label: &'static str) -> Scope {
    if !enabled() {
        return Scope { inner: None };
    }
    Scope { inner: Some((label, Instant::now(), GENERATION.load(Ordering::Relaxed))) }
}

impl Drop for Scope {
    fn drop(&mut self) {
        if let Some((label, start, generation)) = self.inner.take() {
            let ns = start.elapsed().as_nanos() as u64;
            if GENERATION.load(Ordering::Relaxed) != generation {
                return; // reset() raced this scope; discard the interval.
            }
            let mut reg = registry();
            let stat = reg.timers.entry(label.to_string()).or_default();
            stat.calls += 1;
            stat.total_ns += ns;
        }
    }
}

struct SpanInner {
    label: &'static str,
    start: Instant,
    start_us: u64,
    tid: u64,
    depth: u32,
    generation: u64,
}

/// RAII guard from [`span`]. On drop it aggregates into the timer of the
/// same label (exactly like [`Scope`]) and additionally records a
/// [`SpanRecord`] carrying thread id, nesting depth, and start offset.
#[must_use = "the span records on drop; binding to _ drops immediately"]
pub struct Span {
    inner: Option<SpanInner>,
}

/// Starts a hierarchical trace span. Disabled path: one atomic load, no
/// allocation, no clock read, no TLS access. Enabled spans nest: each
/// thread tracks its current depth, so `trainer.epoch` >
/// `trainer.forward` > `autodiff.backward` reconstructs as a tree in the
/// Chrome trace export.
#[inline]
pub fn span(label: &'static str) -> Span {
    if !enabled() {
        return Span { inner: None };
    }
    let generation = GENERATION.load(Ordering::Relaxed);
    let tid = TID.try_with(|t| *t).unwrap_or(0);
    let depth = DEPTH
        .try_with(|d| {
            let v = d.get();
            d.set(v.saturating_add(1));
            v
        })
        .unwrap_or(0);
    let start_us = process_epoch().elapsed().as_micros() as u64;
    Span {
        inner: Some(SpanInner { label, start: Instant::now(), start_us, tid, depth, generation }),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(s) = self.inner.take() {
            // Re-balance this thread's depth even when the record is
            // discarded; saturating + try_with keep teardown panic-free.
            let _ = DEPTH.try_with(|d| d.set(d.get().saturating_sub(1)));
            let dur_ns = s.start.elapsed().as_nanos() as u64;
            if GENERATION.load(Ordering::Relaxed) != s.generation {
                return; // reset() raced this span; discard the interval.
            }
            let mut reg = registry();
            let stat = reg.timers.entry(s.label.to_string()).or_default();
            stat.calls += 1;
            stat.total_ns += dur_ns;
            let dropped = if reg.spans.len() >= MAX_SPANS {
                reg.spans.pop_front();
                true
            } else {
                false
            };
            reg.spans.push_back(SpanRecord {
                label: s.label,
                tid: s.tid,
                depth: s.depth,
                start_us: s.start_us,
                dur_ns,
            });
            drop(reg); // the metrics store has its own locks
            if dropped {
                metrics::add(DROPPED_RECORDS, 1);
            }
        }
    }
}

/// Adds `n` to the monotonic counter `label`. Disabled path: one atomic
/// load, nothing else. Enabled path: a shard-striped map lookup, then one
/// lock-free `fetch_add` — see [`metrics`].
#[inline]
pub fn count(label: &str, n: u64) {
    if !enabled() {
        return;
    }
    metrics::add(label, n);
}

/// Sets the gauge `label` to `value` (a level, not an accumulation: the
/// scrape sees the last write). Disabled path: one atomic load, nothing
/// else. Non-finite values are stored verbatim — a NaN gauge renders as
/// `NaN` in the Prometheus exposition.
#[inline]
pub fn gauge(label: &str, value: f64) {
    if !enabled() {
        return;
    }
    metrics::set_gauge(label, value);
}

/// Records `value` into the log-scale histogram `label`. Disabled path:
/// one atomic load, nothing else. Non-finite values are ignored. Enabled
/// path locks only that histogram's cell — never the whole registry.
#[inline]
pub fn observe(label: &str, value: f64) {
    if !enabled() {
        return;
    }
    metrics::observe(label, value);
}

/// Appends a structured event. The payload is serialized immediately so
/// the caller may hand over borrowed data. No-op (and no serialization)
/// when disabled.
pub fn record_event<T: Serialize>(kind: &str, payload: &T) {
    if !enabled() {
        return;
    }
    let payload = serde_json::to_value(payload).unwrap_or(serde_json::Value::Null);
    let dropped = {
        let mut reg = registry();
        let dropped = if reg.events.len() >= MAX_EVENTS {
            reg.events.pop_front();
            true
        } else {
            false
        };
        reg.events.push_back(Event { kind: kind.to_string(), payload });
        dropped
    };
    if dropped {
        metrics::add(DROPPED_RECORDS, 1);
    }
}

/// Current value of a counter (0 when absent). Intended for tests and the
/// summary renderers.
pub fn counter_value(label: &str) -> u64 {
    metrics::counter_value(label)
}

/// Current value of a gauge, if it was ever set.
pub fn gauge_value(label: &str) -> Option<f64> {
    metrics::gauge_value(label)
}

/// Aggregate for a timer label, if any scope completed under it.
pub fn timer_stat(label: &str) -> Option<TimerStat> {
    registry().timers.get(label).copied()
}

/// Snapshot of one histogram's headline statistics, if it has samples.
pub fn histogram_summary(label: &str) -> Option<HistogramSummary> {
    let h = metrics::histogram(label)?;
    if h.count() == 0 {
        return None;
    }
    Some(HistogramSummary {
        count: h.count(),
        sum: h.sum(),
        min: h.min(),
        max: h.max(),
        p50: h.quantile(0.50),
        p95: h.quantile(0.95),
        p99: h.quantile(0.99),
    })
}

/// Number of span records currently held.
pub fn span_count() -> usize {
    registry().spans.len()
}

/// Clone of all span records (for tests and exporters built on top).
pub fn span_records() -> Vec<SpanRecord> {
    registry().spans.iter().cloned().collect()
}

/// Number of events recorded under `kind`.
pub fn event_count(kind: &str) -> usize {
    registry().events.iter().filter(|e| e.kind == kind).count()
}

/// Clone of the payloads of all events recorded under `kind`.
pub fn events_of_kind(kind: &str) -> Vec<serde_json::Value> {
    registry().events.iter().filter(|e| e.kind == kind).map(|e| e.payload.clone()).collect()
}

/// Total records (timers + counters + gauges + histograms + spans +
/// events) currently held.
pub fn record_count() -> usize {
    let trace = {
        let reg = registry();
        reg.timers.len() + reg.spans.len() + reg.events.len()
    };
    trace + metrics::label_count()
}

/// Clears all recorded data (flags are untouched) and advances the
/// registry generation so any guard still live discards its measurement
/// instead of writing it into the cleared registry.
pub fn reset() {
    // Bump first: a guard dropping between the bump and the clear compares
    // generations, sees the mismatch, and discards — never double-records.
    GENERATION.fetch_add(1, Ordering::Relaxed);
    {
        let mut reg = registry();
        reg.timers.clear();
        reg.spans.clear();
        reg.events.clear();
    }
    metrics::reset();
}

/// Renders the registry as JSONL: a `meta` header line, then one line per
/// counter, gauge, timer, histogram, span, and event (in that order).
/// Every line is a standalone JSON object with a `"type"` discriminant —
/// the contract `scripts/bench_summary` validates. Metrics come from one
/// consistent [`snapshot`]; trace data from the span registry.
pub fn render_jsonl() -> String {
    let snap = metrics::snapshot();
    let reg = registry();
    let mut out = String::new();
    let meta = serde_json::json!({
        "type": "meta",
        "schema": "enhancenet-telemetry-v1",
        "counters": snap.counters.len(),
        "gauges": snap.gauges.len(),
        "timers": reg.timers.len(),
        "histograms": snap.histograms.len(),
        "spans": reg.spans.len(),
        "events": reg.events.len(),
    });
    out.push_str(&meta.to_string());
    out.push('\n');
    for (label, value) in &snap.counters {
        let line = serde_json::json!({"type": "counter", "label": label, "value": value});
        out.push_str(&line.to_string());
        out.push('\n');
    }
    for (label, value) in &snap.gauges {
        let line = serde_json::json!({"type": "gauge", "label": label, "value": value});
        out.push_str(&line.to_string());
        out.push('\n');
    }
    for (label, stat) in &reg.timers {
        let line = serde_json::json!({
            "type": "timer",
            "label": label,
            "calls": stat.calls,
            "total_ns": stat.total_ns,
        });
        out.push_str(&line.to_string());
        out.push('\n');
    }
    for (label, h) in &snap.histograms {
        let buckets: Vec<[u64; 2]> =
            h.nonzero_buckets().into_iter().map(|(i, c)| [i as u64, c]).collect();
        let line = serde_json::json!({
            "type": "histogram",
            "label": label,
            "count": h.count(),
            "sum": h.sum(),
            "min": h.min(),
            "max": h.max(),
            "p50": h.quantile(0.50),
            "p95": h.quantile(0.95),
            "p99": h.quantile(0.99),
            "buckets": buckets,
        });
        out.push_str(&line.to_string());
        out.push('\n');
    }
    for s in &reg.spans {
        let line = serde_json::json!({
            "type": "span",
            "label": s.label,
            "tid": s.tid,
            "depth": s.depth,
            "start_us": s.start_us,
            "dur_ns": s.dur_ns,
        });
        out.push_str(&line.to_string());
        out.push('\n');
    }
    for event in &reg.events {
        let mut line = serde_json::Map::new();
        line.insert("type".into(), "event".into());
        line.insert("kind".into(), event.kind.clone().into());
        line.insert("payload".into(), event.payload.clone());
        out.push_str(&serde_json::Value::Object(line).to_string());
        out.push('\n');
    }
    out
}

/// Writes [`render_jsonl`] to `path`, creating parent directories.
pub fn write_jsonl(path: &Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut file = std::fs::File::create(path)?;
    file.write_all(render_jsonl().as_bytes())
}

/// Renders all span records as a Chrome `trace_event` JSON document
/// (complete `"ph": "X"` events, timestamps and durations in
/// microseconds). Load the output in `chrome://tracing` or
/// <https://ui.perfetto.dev> to see the per-thread span tree.
pub fn render_chrome_trace() -> String {
    let reg = registry();
    let mut events = Vec::with_capacity(reg.spans.len());
    for s in &reg.spans {
        events.push(serde_json::json!({
            "name": s.label,
            "cat": "enhancenet",
            "ph": "X",
            "ts": s.start_us,
            "dur": s.dur_ns as f64 / 1e3,
            "pid": 1,
            "tid": s.tid,
            "args": {"depth": s.depth},
        }));
    }
    serde_json::json!({
        "traceEvents": events,
        "displayTimeUnit": "ms",
    })
    .to_string()
}

/// Writes [`render_chrome_trace`] to `path`, creating parent directories.
pub fn write_chrome_trace(path: &Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut file = std::fs::File::create(path)?;
    file.write_all(render_chrome_trace().as_bytes())
}

/// Renders a human-readable summary: timers sorted by total time (label
/// breaks ties, so the table is deterministic), then histograms, counters,
/// gauges, and event tallies.
pub fn summary_table() -> String {
    let snap = metrics::snapshot();
    let reg = registry();
    let mut out = String::new();
    if !reg.timers.is_empty() {
        out.push_str(&format!(
            "{:<32} {:>10} {:>12} {:>12}\n",
            "timer", "calls", "total ms", "mean µs"
        ));
        let mut timers: Vec<(&String, &TimerStat)> = reg.timers.iter().collect();
        timers.sort_by_key(|(label, s)| (std::cmp::Reverse(s.total_ns), *label));
        for (label, stat) in timers {
            let total_ms = stat.total_ns as f64 / 1e6;
            let mean_us = stat.total_ns as f64 / 1e3 / stat.calls.max(1) as f64;
            out.push_str(&format!(
                "{label:<32} {:>10} {total_ms:>12.3} {mean_us:>12.2}\n",
                stat.calls
            ));
        }
    }
    if !snap.histograms.is_empty() {
        out.push_str(&format!(
            "{:<32} {:>10} {:>12} {:>12} {:>12}\n",
            "histogram", "count", "p50", "p95", "p99"
        ));
        for (label, h) in &snap.histograms {
            out.push_str(&format!(
                "{label:<32} {:>10} {:>12.3} {:>12.3} {:>12.3}\n",
                h.count(),
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99),
            ));
        }
    }
    if !snap.counters.is_empty() {
        out.push_str(&format!("{:<32} {:>10}\n", "counter", "value"));
        for (label, value) in &snap.counters {
            out.push_str(&format!("{label:<32} {value:>10}\n"));
        }
    }
    if !snap.gauges.is_empty() {
        out.push_str(&format!("{:<32} {:>10}\n", "gauge", "value"));
        for (label, value) in &snap.gauges {
            out.push_str(&format!("{label:<32} {value:>10.3}\n"));
        }
    }
    let mut kinds: BTreeMap<&str, usize> = BTreeMap::new();
    for event in &reg.events {
        *kinds.entry(event.kind.as_str()).or_insert(0) += 1;
    }
    if !kinds.is_empty() {
        out.push_str(&format!("{:<32} {:>10}\n", "event kind", "records"));
        for (kind, n) in kinds {
            out.push_str(&format!("{kind:<32} {n:>10}\n"));
        }
    }
    if out.is_empty() {
        out.push_str("(no telemetry recorded)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// The registry is process-global; serialize tests that mutate it.
    fn lock_tests() -> MutexGuard<'static, ()> {
        static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
        GUARD.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn disabled_primitives_record_nothing() {
        let _g = lock_tests();
        reset();
        set_enabled(false);
        {
            let _t = scoped("t.disabled");
            let _s = span("s.disabled");
            count("c.disabled", 5);
            observe("h.disabled", 1.0);
            record_event("e.disabled", &serde_json::json!({"x": 1}));
        }
        assert_eq!(record_count(), 0);
        assert_eq!(counter_value("c.disabled"), 0);
        assert!(timer_stat("t.disabled").is_none());
        assert!(histogram_summary("h.disabled").is_none());
        assert_eq!(span_count(), 0);
    }

    #[test]
    fn counters_accumulate_monotonically() {
        let _g = lock_tests();
        reset();
        set_enabled(true);
        count("c.a", 2);
        count("c.a", 3);
        count("c.b", 1);
        set_enabled(false);
        assert_eq!(counter_value("c.a"), 5);
        assert_eq!(counter_value("c.b"), 1);
    }

    #[test]
    fn nested_scopes_attribute_time_to_their_own_labels() {
        let _g = lock_tests();
        reset();
        set_enabled(true);
        {
            let _outer = scoped("t.outer");
            std::thread::sleep(Duration::from_millis(2));
            {
                let _inner = scoped("t.inner");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        set_enabled(false);
        let outer = timer_stat("t.outer").expect("outer recorded");
        let inner = timer_stat("t.inner").expect("inner recorded");
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 1);
        // The inner scope is a strict sub-interval of the outer one.
        assert!(inner.total_ns <= outer.total_ns, "inner {inner:?} vs outer {outer:?}");
        assert!(inner.total_ns > 0);
    }

    #[test]
    fn spans_record_depth_and_feed_timers() {
        let _g = lock_tests();
        reset();
        set_enabled(true);
        {
            let _outer = span("sp.outer");
            std::thread::sleep(Duration::from_millis(2));
            {
                let _inner = span("sp.inner");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        set_enabled(false);
        // Spans also aggregate under the same timer labels.
        assert_eq!(timer_stat("sp.outer").expect("outer timer").calls, 1);
        assert_eq!(timer_stat("sp.inner").expect("inner timer").calls, 1);
        let spans = span_records();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.label == "sp.outer").expect("outer span");
        let inner = spans.iter().find(|s| s.label == "sp.inner").expect("inner span");
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert_eq!(outer.tid, inner.tid);
        // Parent/child timing containment: inner starts at or after outer
        // and ends at or before it.
        assert!(inner.start_us >= outer.start_us);
        let outer_end = outer.start_us as u128 * 1000 + outer.dur_ns as u128;
        let inner_end = inner.start_us as u128 * 1000 + inner.dur_ns as u128;
        // start_us truncates to µs, so allow that much slack on the ends.
        assert!(inner_end <= outer_end + 1000, "inner {inner:?} vs outer {outer:?}");
        assert!(inner.dur_ns <= outer.dur_ns);
    }

    #[test]
    fn span_depth_rebalances_across_sequential_spans() {
        let _g = lock_tests();
        reset();
        set_enabled(true);
        {
            let _a = span("sp.first");
        }
        {
            let _b = span("sp.second");
        }
        set_enabled(false);
        let spans = span_records();
        // Both top-level: the first span's drop restored depth to 0.
        assert!(spans.iter().all(|s| s.depth == 0), "{spans:?}");
    }

    #[test]
    fn scope_survives_concurrent_reset_without_recording() {
        let _g = lock_tests();
        reset();
        set_enabled(true);
        let guard = scoped("t.racing");
        let sp = span("sp.racing");
        // A reset while guards are live must neither panic their drops nor
        // let the stale measurements leak into the fresh registry.
        reset();
        drop(sp);
        drop(guard);
        set_enabled(false);
        assert!(timer_stat("t.racing").is_none());
        assert!(timer_stat("sp.racing").is_none());
        assert_eq!(span_count(), 0);
        assert_eq!(record_count(), 0);
        // Depth re-balanced even though the span record was discarded.
        set_enabled(true);
        {
            let _s = span("sp.after_reset");
        }
        set_enabled(false);
        assert_eq!(span_records().last().expect("span after reset").depth, 0);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::default();
        assert!(h.quantile(0.5).is_nan());
        for v in 1..=100 {
            h.observe(v as f64);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 100.0);
        assert!((h.mean() - 50.5).abs() < 1e-9);
        let p50 = h.quantile(0.50);
        let p95 = h.quantile(0.95);
        let p99 = h.quantile(0.99);
        // Log-scale buckets are coarse: accept the right power-of-two
        // bucket, and require the quantiles to be ordered and in range.
        assert!((32.0..=64.0).contains(&p50), "p50 {p50}");
        assert!((64.0..=100.0).contains(&p95), "p95 {p95}");
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        assert!(p99 <= 100.0);
        // Degenerate and non-finite inputs.
        let mut d = Histogram::default();
        d.observe(0.0);
        d.observe(-3.0);
        d.observe(f64::NAN);
        d.observe(f64::INFINITY);
        assert_eq!(d.count(), 2); // NaN and Inf ignored
        assert_eq!(d.min(), -3.0);
        assert!(d.quantile(0.99) <= 0.0);
    }

    #[test]
    fn observe_feeds_named_histogram() {
        let _g = lock_tests();
        reset();
        set_enabled(true);
        for v in [1.0, 2.0, 4.0, 8.0, 1024.0] {
            observe("h.lat", v);
        }
        set_enabled(false);
        let s = histogram_summary("h.lat").expect("histogram recorded");
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 1024.0);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99);
        assert!(s.p99 <= 1024.0);
    }

    #[test]
    fn jsonl_round_trips_through_serde_json() {
        let _g = lock_tests();
        reset();
        set_enabled(true);
        count("c.x", 7);
        {
            let _t = scoped("t.x");
        }
        record_event("epoch", &serde_json::json!({"epoch": 0, "loss": 1.5}));
        set_enabled(false);
        let jsonl = render_jsonl();
        let lines: Vec<serde_json::Value> =
            jsonl.lines().map(|l| serde_json::from_str(l).expect("valid JSON line")).collect();
        assert_eq!(lines.len(), 4); // meta + counter + timer + event
        assert_eq!(lines[0]["type"], "meta");
        assert_eq!(lines[0]["schema"], "enhancenet-telemetry-v1");
        let counter = lines.iter().find(|l| l["type"] == "counter").unwrap();
        assert_eq!(counter["label"], "c.x");
        assert_eq!(counter["value"], 7);
        let timer = lines.iter().find(|l| l["type"] == "timer").unwrap();
        assert_eq!(timer["label"], "t.x");
        assert_eq!(timer["calls"], 1);
        let event = lines.iter().find(|l| l["type"] == "event").unwrap();
        assert_eq!(event["kind"], "epoch");
        assert_eq!(event["payload"]["loss"], 1.5);
    }

    #[test]
    fn jsonl_includes_histogram_and_span_records() {
        let _g = lock_tests();
        reset();
        set_enabled(true);
        {
            let _s = span("sp.jsonl");
        }
        observe("h.jsonl", 3.5);
        set_enabled(false);
        let jsonl = render_jsonl();
        let lines: Vec<serde_json::Value> =
            jsonl.lines().map(|l| serde_json::from_str(l).expect("valid JSON line")).collect();
        let hist = lines.iter().find(|l| l["type"] == "histogram").expect("histogram line");
        assert_eq!(hist["label"], "h.jsonl");
        assert_eq!(hist["count"], 1);
        assert!(hist["buckets"].as_array().is_some_and(|b| !b.is_empty()));
        let sp = lines.iter().find(|l| l["type"] == "span").expect("span line");
        assert_eq!(sp["label"], "sp.jsonl");
        assert_eq!(sp["depth"], 0);
        assert!(sp["dur_ns"].as_u64().is_some());
        // The meta header accounts for the new record families.
        assert_eq!(lines[0]["histograms"], 1);
        assert_eq!(lines[0]["spans"], 1);
    }

    #[test]
    fn jsonl_escapes_quotes_newlines_and_non_ascii() {
        let _g = lock_tests();
        reset();
        set_enabled(true);
        let payload = serde_json::json!({
            "msg": "line1\nline2 \"quoted\" — naïve 日本語",
            "path": "C:\\tmp\\x",
        });
        record_event("escape.check", &payload);
        count("counter \"with\" quotes\nand newline", 1);
        set_enabled(false);
        let jsonl = render_jsonl();
        // Every rendered line must be exactly one standalone JSON document:
        // embedded newlines in labels/payloads must be escaped, not raw.
        for line in jsonl.lines() {
            let v: serde_json::Value = serde_json::from_str(line).expect("each line parses");
            assert!(v["type"].as_str().is_some());
        }
        let lines: Vec<serde_json::Value> =
            jsonl.lines().map(|l| serde_json::from_str(l).unwrap()).collect();
        let event = lines.iter().find(|l| l["type"] == "event").expect("event line");
        assert_eq!(event["payload"]["msg"], "line1\nline2 \"quoted\" — naïve 日本語");
        assert_eq!(event["payload"]["path"], "C:\\tmp\\x");
        let counter = lines.iter().find(|l| l["type"] == "counter").expect("counter line");
        assert_eq!(counter["label"], "counter \"with\" quotes\nand newline");
    }

    #[test]
    fn chrome_trace_is_valid_json_with_depth_args() {
        let _g = lock_tests();
        reset();
        set_enabled(true);
        {
            let _outer = span("sp.trace_outer");
            std::thread::sleep(Duration::from_millis(1));
            {
                let _inner = span("sp.trace_inner");
            }
        }
        set_enabled(false);
        let doc: serde_json::Value =
            serde_json::from_str(&render_chrome_trace()).expect("trace parses");
        let events = doc["traceEvents"].as_array().expect("traceEvents array");
        assert_eq!(events.len(), 2);
        for e in events {
            assert_eq!(e["ph"], "X");
            assert_eq!(e["pid"], 1);
            assert!(e["ts"].as_u64().is_some());
            assert!(e["dur"].as_f64().is_some());
            assert!(e["args"]["depth"].as_u64().is_some());
        }
        let depths: Vec<u64> =
            events.iter().map(|e| e["args"]["depth"].as_u64().unwrap()).collect();
        assert!(depths.contains(&0) && depths.contains(&1), "depths {depths:?}");
    }

    #[test]
    fn write_jsonl_creates_parent_dirs() {
        let _g = lock_tests();
        reset();
        set_enabled(true);
        count("c.file", 1);
        set_enabled(false);
        let dir = std::env::temp_dir().join("enhancenet-telemetry-test");
        let path = dir.join("nested").join("out.jsonl");
        write_jsonl(&path).expect("write");
        let body = std::fs::read_to_string(&path).expect("read back");
        assert!(body.contains("c.file"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_chrome_trace_creates_parent_dirs() {
        let _g = lock_tests();
        reset();
        set_enabled(true);
        {
            let _s = span("sp.file");
        }
        set_enabled(false);
        let dir = std::env::temp_dir().join("enhancenet-trace-test");
        let path = dir.join("nested").join("trace.json");
        write_chrome_trace(&path).expect("write");
        let body = std::fs::read_to_string(&path).expect("read back");
        assert!(body.contains("traceEvents"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn summary_table_lists_labels() {
        let _g = lock_tests();
        reset();
        set_enabled(true);
        count("c.sum", 9);
        {
            let _t = scoped("t.sum");
        }
        observe("h.sum", 2.0);
        record_event("epoch", &serde_json::json!({"epoch": 1}));
        set_enabled(false);
        let table = summary_table();
        assert!(table.contains("c.sum"));
        assert!(table.contains("t.sum"));
        assert!(table.contains("h.sum"));
        assert!(table.contains("epoch"));
    }

    #[test]
    fn summary_table_orders_deterministically() {
        let _g = lock_tests();
        reset();
        set_enabled(true);
        {
            // Inject timers directly so total_ns ties are exact.
            let mut reg = registry();
            reg.timers.insert("t.tie_b".to_string(), TimerStat { calls: 1, total_ns: 500 });
            reg.timers.insert("t.tie_a".to_string(), TimerStat { calls: 1, total_ns: 500 });
            reg.timers.insert("t.big".to_string(), TimerStat { calls: 1, total_ns: 9000 });
        }
        set_enabled(false);
        let table = summary_table();
        let pos = |needle: &str| table.find(needle).unwrap_or_else(|| panic!("{needle} in table"));
        // Sorted by total time descending; ties break by ascending label.
        assert!(pos("t.big") < pos("t.tie_a"));
        assert!(pos("t.tie_a") < pos("t.tie_b"));
        assert_eq!(table, summary_table(), "rendering must be stable");
    }

    #[test]
    fn echo_respects_flag() {
        // Behavioral smoke: must not panic either way.
        set_echo(true);
        echo("telemetry echo test line");
        set_echo(false);
        echo("suppressed");
        assert!(!echo_enabled());
    }
}

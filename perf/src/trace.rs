//! Bench-side spans around every call the benchmark makes into a layer.
//!
//! Each span records its name, start, end, the name of the span that
//! caused it, and a group id shared by every span of one causal chain:
//! the fleet's request id for request spans, an id from [`group`] for
//! anything else. Spans live in per-thread [`Spans`] buffers that are
//! merged after the threads join and summarised once, at exit, into a
//! per-layer table with self times (a span's duration minus the
//! durations of its children in the same group).

use crate::stats;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Group ids handed out by [`group`] start here, above every fleet
/// request id, so the two namespaces never collide.
const GROUP_BASE: u64 = 1 << 63;
static NEXT_GROUP: AtomicU64 = AtomicU64::new(GROUP_BASE);

/// A fresh group id for spans that are not part of a fleet request.
pub fn group() -> u64 {
    NEXT_GROUP.fetch_add(1, Ordering::Relaxed)
}

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<&'static str>,
    group: u64,
    start: Instant,
    end: Instant,
}

impl Span {
    fn ms(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64() * 1e3
    }
}

/// One thread's span buffer. A buffer created with `on = false` records
/// nothing and never reads the clock, so the untraced pass pays nothing.
#[derive(Debug, Default)]
pub struct Spans {
    on: bool,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Self { on, spans: Vec::new() }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        group: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.on {
            self.spans.push(Span { name, parent, group, start, end });
        }
    }

    /// Records a span of known length ending at `end`, for intervals the
    /// program measured itself (a forecast's queue wait and forward).
    pub fn record_len(
        &mut self,
        name: &'static str,
        parent: &'static str,
        group: u64,
        end: Instant,
        len: Duration,
    ) {
        self.record(name, Some(parent), group, end.checked_sub(len).unwrap_or(end), end);
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        group: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, parent, group, start, Instant::now());
        out
    }

    /// Moves every span of `other` into this buffer.
    pub fn absorb(&mut self, other: Spans) {
        self.spans.extend(other.spans);
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::ms).collect()
    }

    /// Self times (ms) of every span called `name`.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let children = self.child_totals();
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ms() - children.get(&(s.name, s.group)).copied().unwrap_or(0.0))
            .collect()
    }

    /// Summed child durations keyed by (parent name, group).
    fn child_totals(&self) -> HashMap<(&'static str, u64), f64> {
        let mut totals = HashMap::new();
        for s in &self.spans {
            if let Some(parent) = s.parent {
                *totals.entry((parent, s.group)).or_insert(0.0) += s.ms();
            }
        }
        totals
    }

    /// The per-layer table: count, total, self time and median per span
    /// name, sorted by name.
    pub fn table(&self) -> Vec<LayerRow> {
        let children = self.child_totals();
        let mut by_name: BTreeMap<&'static str, (Vec<f64>, f64)> = BTreeMap::new();
        for s in &self.spans {
            let entry = by_name.entry(s.name).or_default();
            let ms = s.ms();
            entry.0.push(ms);
            entry.1 += ms - children.get(&(s.name, s.group)).copied().unwrap_or(0.0);
        }
        by_name
            .into_iter()
            .map(|(name, (ms, self_ms))| LayerRow {
                name,
                count: ms.len(),
                total_ms: ms.iter().sum(),
                self_ms,
                p50_ms: stats::median(&ms).unwrap_or(0.0),
            })
            .collect()
    }
}

#[derive(Debug, Clone)]
pub struct LayerRow {
    pub name: &'static str,
    pub count: usize,
    pub total_ms: f64,
    pub self_ms: f64,
    pub p50_ms: f64,
}

impl LayerRow {
    pub fn json(&self) -> serde_json::Value {
        serde_json::json!({
            "name": self.name,
            "count": self.count,
            "total_ms": self.total_ms,
            "self_ms": self.self_ms,
            "p50_ms": self.p50_ms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_of_the_same_group_only() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut spans = Spans::new(true);
        spans.record("req", None, 1, at(0), at(10));
        spans.record("wait", Some("req"), 1, at(2), at(8));
        spans.record("req", None, 2, at(0), at(4));
        spans.record("wait", Some("req"), 2, at(1), at(2));
        let mut selfs = spans.self_times("req");
        selfs.sort_by(f64::total_cmp);
        assert_eq!(selfs, vec![3.0, 4.0]);
        let table = spans.table();
        let req = table.iter().find(|r| r.name == "req").unwrap();
        assert_eq!(req.count, 2);
        assert_eq!(req.total_ms, 14.0);
        assert_eq!(req.self_ms, 7.0);
    }

    #[test]
    fn disabled_buffer_records_nothing() {
        let mut spans = Spans::new(false);
        assert_eq!(spans.time("x", None, 0, || 7), 7);
        spans.record("y", None, 0, Instant::now(), Instant::now());
        assert_eq!(spans.len(), 0);
    }
}

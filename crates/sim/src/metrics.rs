//! Metrics collected during a simulation run.
//!
//! A [`Metrics`] registry holds named counters, gauges and latency
//! histograms. Components record into it through [`crate::Context`];
//! the benchmark harness reads it back after the run.
//!
//! Hot-path design: each kind of metric lives in a flat `Vec` indexed by a
//! dense `u32` handle, with a deterministic hash index mapping names to
//! handles. A by-name operation costs one hash lookup (no allocation, no
//! ordered-map traversal); call sites on the kernel's fast path resolve a
//! handle once ([`Metrics::gauge_id`], [`Metrics::histogram_id`]) and then update by
//! index. Exports sort names lazily, so output stays byte-identical to the
//! previous ordered-map representation.

use std::fmt::Write as _;

use crate::fxhash::FxHashMap;
use crate::histogram::Histogram;
use crate::time::SimDuration;

/// A dense name→slot registry: the storage scheme behind every metric
/// kind.
#[derive(Debug, Clone, Default)]
struct Registry<T> {
    index: FxHashMap<Box<str>, u32>,
    names: Vec<Box<str>>,
    values: Vec<T>,
}

impl<T: Default> Registry<T> {
    /// Existing slot for `name`, if any (never allocates).
    fn lookup(&self, name: &str) -> Option<u32> {
        self.index.get(name).copied()
    }

    /// Slot for `name`, created zeroed on first use. Allocates only on
    /// creation.
    fn id(&mut self, name: &str) -> u32 {
        if let Some(id) = self.lookup(name) {
            return id;
        }
        let id = self.names.len() as u32;
        let boxed: Box<str> = name.into();
        self.index.insert(boxed.clone(), id);
        self.names.push(boxed);
        self.values.push(T::default());
        id
    }

    fn get(&self, name: &str) -> Option<&T> {
        self.lookup(name).map(|id| &self.values[id as usize])
    }

    fn slot(&mut self, id: u32) -> &mut T {
        &mut self.values[id as usize]
    }

    /// Slot ids sorted by name — export order, computed only when needed.
    fn sorted_ids(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = (0..self.names.len() as u32).collect();
        ids.sort_by(|&a, &b| self.names[a as usize].cmp(&self.names[b as usize]));
        ids
    }

    fn iter_sorted(&self) -> impl Iterator<Item = (&str, &T)> {
        self.sorted_ids()
            .into_iter()
            .map(|id| (&*self.names[id as usize], &self.values[id as usize]))
    }
}

/// Handle to a gauge slot, resolved once with [`Metrics::gauge_id`].
/// Valid only for the registry (or clones of it) that created it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(u32);

/// Handle to a histogram slot (see [`Metrics::histogram_id`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(u32);

/// A named registry of counters, gauges and histograms.
///
/// Names are free-form dotted strings such as `"peer0.commit.latency"`.
/// Exports are sorted by name so report output is deterministic.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    counters: Registry<u64>,
    gauges: Registry<f64>,
    histograms: Registry<Histogram>,
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Adds `delta` to the named counter, creating it at zero if absent.
    pub fn incr(&mut self, name: &str, delta: u64) {
        let id = self.counters.id(name);
        *self.counters.slot(id) += delta;
    }

    /// Reads a counter; absent counters read as zero.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the named gauge to `value`.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        let id = self.gauges.id(name);
        *self.gauges.slot(id) = value;
    }

    /// Resolves a reusable handle for the named gauge (creating it at
    /// zero).
    pub fn gauge_id(&mut self, name: &str) -> GaugeId {
        GaugeId(self.gauges.id(name))
    }

    /// Sets a gauge through a pre-resolved handle.
    pub fn set_gauge_id(&mut self, id: GaugeId, value: f64) {
        *self.gauges.slot(id.0) = value;
    }

    /// Reads a gauge, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Records a raw sample into the named histogram.
    pub fn record(&mut self, name: &str, value: u64) {
        let id = self.histograms.id(name);
        self.histograms.slot(id).record(value);
    }

    /// Resolves a reusable handle for the named histogram (creating it
    /// empty).
    pub fn histogram_id(&mut self, name: &str) -> HistogramId {
        HistogramId(self.histograms.id(name))
    }

    /// Records a sample through a pre-resolved handle.
    pub fn record_id(&mut self, id: HistogramId, value: u64) {
        self.histograms.slot(id.0).record(value);
    }

    /// Records a duration (as nanoseconds) into the named histogram.
    pub fn record_duration(&mut self, name: &str, d: SimDuration) {
        self.record(name, d.as_nanos());
    }

    /// Reads a histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterates over all counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter_sorted().map(|(k, v)| (k, *v))
    }

    /// Merges another registry into this one (counters add, gauges take the
    /// other's value, histograms merge).
    pub fn merge(&mut self, other: &Metrics) {
        for (i, name) in other.counters.names.iter().enumerate() {
            let id = self.counters.id(name);
            *self.counters.slot(id) += other.counters.values[i];
        }
        for (i, name) in other.gauges.names.iter().enumerate() {
            let id = self.gauges.id(name);
            *self.gauges.slot(id) = other.gauges.values[i];
        }
        for (i, name) in other.histograms.names.iter().enumerate() {
            let id = self.histograms.id(name);
            self.histograms.slot(id).merge(&other.histograms.values[i]);
        }
    }

    /// Serializes the whole registry to a compact JSON string with
    /// deterministic ordering (names sorted, histograms reduced to
    /// summary statistics). Two registries with identical contents
    /// produce byte-identical output.
    pub fn snapshot_json(&self) -> String {
        use crate::json::Obj;
        let mut counters = Obj::new();
        for (k, v) in self.counters.iter_sorted() {
            counters = counters.u64(k, *v);
        }
        let mut gauges = Obj::new();
        for (k, v) in self.gauges.iter_sorted() {
            gauges = gauges.f64(k, *v);
        }
        let mut histograms = Obj::new();
        for (k, h) in self.histograms.iter_sorted() {
            histograms = histograms.raw(k, &histogram_json(h));
        }
        Obj::new()
            .raw("counters", &counters.build())
            .raw("gauges", &gauges.build())
            .raw("histograms", &histograms.build())
            // Nothing records time series; the key keeps every committed
            // export byte-identical.
            .raw("series", "{}")
            .build()
    }

    /// Renders a human-readable dump of all metrics, for debugging.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in self.counters.iter_sorted() {
            let _ = writeln!(out, "counter {k} = {v}");
        }
        for (k, v) in self.gauges.iter_sorted() {
            let _ = writeln!(out, "gauge   {k} = {v}");
        }
        for (k, h) in self.histograms.iter_sorted() {
            let _ = writeln!(out, "hist    {k}: {}", h.summary());
        }
        out
    }
}

/// Summary-statistics JSON object for one histogram (nanosecond units).
pub(crate) fn histogram_json(h: &Histogram) -> String {
    let sum = u64::try_from(h.sum()).unwrap_or(u64::MAX);
    crate::json::Obj::new()
        .u64("count", h.count())
        .u64("min", if h.is_empty() { 0 } else { h.min() })
        .u64("max", if h.is_empty() { 0 } else { h.max() })
        .f64("mean", h.mean())
        .f64("stddev", h.stddev())
        .u64("sum", sum)
        .u64("p50", h.quantile(0.50))
        .u64("p95", h.quantile(0.95))
        .u64("p99", h.quantile(0.99))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        assert_eq!(m.counter("tx"), 0);
        m.incr("tx", 2);
        m.incr("tx", 3);
        assert_eq!(m.counter("tx"), 5);
    }

    #[test]
    fn gauges_overwrite() {
        let mut m = Metrics::new();
        assert_eq!(m.gauge("w"), None);
        m.set_gauge("w", 1.5);
        m.set_gauge("w", 2.5);
        assert_eq!(m.gauge("w"), Some(2.5));
    }

    #[test]
    fn handles_alias_their_names() {
        let mut m = Metrics::new();
        let g = m.gauge_id("load");
        m.set_gauge_id(g, 0.5);
        assert_eq!(m.gauge("load"), Some(0.5));
        let h = m.histogram_id("lat");
        m.record_id(h, 10);
        m.record("lat", 30);
        assert_eq!(m.histogram("lat").unwrap().count(), 2);
        // Handles survive cloning (same dense slots).
        let mut copy = m.clone();
        copy.set_gauge_id(g, 1.5);
        assert_eq!(copy.gauge("load"), Some(1.5));
    }

    #[test]
    fn histograms_record_durations() {
        let mut m = Metrics::new();
        m.record_duration("lat", SimDuration::from_micros(5));
        m.record_duration("lat", SimDuration::from_micros(15));
        let h = m.histogram("lat").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 5_000);
    }

    #[test]
    fn merge_combines_all_kinds() {
        let mut a = Metrics::new();
        a.incr("c", 1);
        a.record("h", 10);
        let mut b = Metrics::new();
        b.incr("c", 2);
        b.record("h", 20);
        b.set_gauge("g", 9.0);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.histogram("h").unwrap().count(), 2);
        assert_eq!(a.gauge("g"), Some(9.0));
    }

    #[test]
    fn snapshot_json_is_deterministic_and_complete() {
        let build = || {
            let mut m = Metrics::new();
            m.incr("tx.committed", 3);
            m.set_gauge("load", 0.75);
            m.record_duration("lat", SimDuration::from_micros(10));
            m.record_duration("lat", SimDuration::from_micros(30));
            m.snapshot_json()
        };
        let a = build();
        assert_eq!(a, build());
        assert!(a.contains("\"tx.committed\":3"));
        assert!(a.contains("\"load\":0.75"));
        assert!(a.contains("\"count\":2"));
        assert!(a.ends_with("\"series\":{}}"));
        // Counters come before gauges, gauges before histograms.
        let c = a.find("\"counters\"").unwrap();
        let g = a.find("\"gauges\"").unwrap();
        let h = a.find("\"histograms\"").unwrap();
        assert!(c < g && g < h);
    }

    #[test]
    fn snapshot_json_sorts_names_regardless_of_insertion_order() {
        // The registry stores slots in first-use order; exports must sort
        // lexicographically exactly like the old BTreeMap representation.
        let mut fwd = Metrics::new();
        fwd.incr("a.x", 1);
        fwd.incr("b.y", 2);
        fwd.record("h.a", 1);
        fwd.record("h.b", 2);
        let mut rev = Metrics::new();
        rev.incr("b.y", 2);
        rev.incr("a.x", 1);
        rev.record("h.b", 2);
        rev.record("h.a", 1);
        assert_eq!(fwd.snapshot_json(), rev.snapshot_json());
        assert_eq!(fwd.render(), rev.render());
        let names: Vec<&str> = rev.counters().map(|(k, _)| k).collect();
        assert_eq!(names, ["a.x", "b.y"]);
    }

    #[test]
    fn render_is_deterministic_and_nonempty() {
        let mut m = Metrics::new();
        m.incr("b", 1);
        m.incr("a", 1);
        let r = m.render();
        let pos_a = r.find("counter a").unwrap();
        let pos_b = r.find("counter b").unwrap();
        assert!(pos_a < pos_b);
    }
}

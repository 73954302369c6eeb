//! Virtual-time span tracing.
//!
//! A [`Tracer`] records *spans* — named intervals of virtual time keyed by
//! a trace id (transaction id, client operation id) — and point *events*.
//! Pipeline actors open a span when a unit of work enters a stage and
//! close it when the work leaves; because messages in the simulation do
//! not carry tracing context, spans are addressed by their
//! `(trace, stage, detail)` key so any actor (or a deferred completion)
//! can close a span another event handler opened.
//!
//! Memory is bounded: finished spans and events live in ring buffers of
//! [`SPAN_CAPACITY`] and [`EVENT_CAPACITY`] records. Aggregate per-stage
//! latency histograms are updated on every span close *before* any
//! eviction, so stage breakdowns remain exact even when individual span
//! records are dropped.
//!
//! Everything is deterministic: ids and sequence numbers come from a
//! monotonic counter, and all iteration orders are defined.

use std::collections::{BTreeMap, VecDeque};

use crate::fxhash::FxHashMap;
use crate::histogram::Histogram;
use crate::time::{SimDuration, SimTime};

/// Identifies a span within one [`Tracer`]. Ids are assigned from a
/// monotonic counter and never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

/// Finished span records a [`Tracer`] retains (ring buffer).
pub const SPAN_CAPACITY: usize = 4096;
/// Point events a [`Tracer`] retains (ring buffer).
pub const EVENT_CAPACITY: usize = 4096;

/// A finished span: one stage's interval of virtual time for one trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the tracer.
    pub id: SpanId,
    /// The enclosing span at open time, if any (same trace).
    pub parent: Option<SpanId>,
    /// Trace key, e.g. a transaction id in hex or `"op-7"`.
    pub trace: String,
    /// Pipeline stage name, e.g. `"endorse"` (see DESIGN.md taxonomy).
    pub stage: &'static str,
    /// Disambiguator within the stage, e.g. `"peer0"`; empty if unused.
    pub detail: String,
    /// Virtual time the span opened.
    pub start: SimTime,
    /// Virtual time the span closed.
    pub end: SimTime,
    /// Global open-order sequence number (total order across the run).
    pub seq: u64,
}

impl Span {
    /// The span's duration.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }
}

/// A point event attached to a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Trace key the event belongs to.
    pub trace: String,
    /// Event name, e.g. `"block.cut"`.
    pub name: &'static str,
    /// Free-form detail, e.g. `"txs=12"`; empty if unused.
    pub detail: String,
    /// Virtual time of the event.
    pub at: SimTime,
    /// Global sequence number shared with span opens.
    pub seq: u64,
}

#[derive(Debug, Clone)]
struct OpenSpan {
    id: SpanId,
    parent: Option<SpanId>,
    stage: &'static str,
    detail: String,
    start: SimTime,
    seq: u64,
}

/// Records spans and events on virtual time with bounded memory.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    next_seq: u64,
    /// Open spans, grouped per trace. Each trace's spans stay in open
    /// (= seq) order, so the parent of a new span is simply the last
    /// entry — no global scan. Stacks are tiny (nesting depth), so the
    /// by-key close below is a short linear probe.
    open: FxHashMap<Box<str>, Vec<OpenSpan>>,
    open_count: usize,
    finished: VecDeque<Span>,
    events: VecDeque<TraceEvent>,
    stage_hist: BTreeMap<&'static str, Histogram>,
    spans_started: u64,
    spans_finished: u64,
    spans_evicted: u64,
    events_recorded: u64,
    unmatched_ends: u64,
    duplicate_starts: u64,
}

impl Tracer {
    /// Opens a span for `(trace, stage, detail)` at virtual time `now`.
    /// If another span of the same trace is open, the most recently
    /// opened one becomes this span's parent. Re-opening a key that is
    /// already open replaces the older open span (counted under
    /// `duplicate_starts`).
    pub fn span_start(
        &mut self,
        now: SimTime,
        trace: &str,
        stage: &'static str,
        detail: &str,
    ) -> SpanId {
        self.next_seq += 1;
        let seq = self.next_seq;
        let id = SpanId(seq);
        if !self.open.contains_key(trace) {
            self.open.insert(Box::from(trace), Vec::new());
        }
        let stack = self.open.get_mut(trace).expect("just inserted");
        // Parent is the most recently opened span of this trace — even a
        // same-key duplicate about to be replaced, matching the old
        // whole-map max-seq scan.
        let parent = stack.last().map(|o| o.id);
        if let Some(pos) = stack
            .iter()
            .position(|o| o.stage == stage && o.detail == detail)
        {
            stack.remove(pos);
            self.open_count -= 1;
            self.duplicate_starts += 1;
        }
        stack.push(OpenSpan {
            id,
            parent,
            stage,
            detail: detail.to_owned(),
            start: now,
            seq,
        });
        self.open_count += 1;
        self.spans_started += 1;
        id
    }

    /// Closes the open span for `(trace, stage, detail)` at `now`,
    /// recording its duration into the stage histogram. Returns the
    /// duration, or `None` if no matching span is open (counted under
    /// `unmatched_ends`).
    pub fn span_end(
        &mut self,
        now: SimTime,
        trace: &str,
        stage: &'static str,
        detail: &str,
    ) -> Option<SimDuration> {
        let pos = self.open.get_mut(trace).and_then(|stack| {
            stack
                .iter()
                .position(|o| o.stage == stage && o.detail == detail)
        });
        let Some(pos) = pos else {
            self.unmatched_ends += 1;
            return None;
        };
        let stack = self.open.get_mut(trace).expect("stack exists");
        let open = stack.remove(pos);
        if stack.is_empty() {
            self.open.remove(trace);
        }
        self.open_count -= 1;
        let duration = now - open.start;
        self.stage_hist
            .entry(stage)
            .or_default()
            .record(duration.as_nanos());
        self.spans_finished += 1;
        if self.finished.len() == SPAN_CAPACITY {
            self.finished.pop_front();
            self.spans_evicted += 1;
        }
        self.finished.push_back(Span {
            id: open.id,
            parent: open.parent,
            trace: trace.to_owned(),
            stage,
            detail: open.detail,
            start: open.start,
            end: now,
            seq: open.seq,
        });
        Some(duration)
    }

    /// Records a point event on `trace` at `now`.
    pub fn event(&mut self, now: SimTime, trace: &str, name: &'static str, detail: &str) {
        self.next_seq += 1;
        self.events_recorded += 1;
        if self.events.len() == EVENT_CAPACITY {
            self.events.pop_front();
        }
        self.events.push_back(TraceEvent {
            trace: trace.to_owned(),
            name,
            detail: detail.to_owned(),
            at: now,
            seq: self.next_seq,
        });
    }

    /// Finished span records, oldest first (the last [`SPAN_CAPACITY`]).
    pub fn finished_spans(&self) -> impl Iterator<Item = &Span> {
        self.finished.iter()
    }

    /// Recorded events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Per-stage latency histograms (nanoseconds), in stage-name order.
    /// These aggregate **every** finished span, independent of
    /// ring-buffer eviction.
    pub fn stage_histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> {
        self.stage_hist.iter().map(|(k, v)| (*k, v))
    }

    /// The stage histogram for `stage`, if any span of it finished.
    pub fn stage_histogram(&self, stage: &str) -> Option<&Histogram> {
        self.stage_hist.get(stage)
    }

    /// Spans still open, counted per stage (in stage-name order). At
    /// export time a non-empty result is a leak report: every span a
    /// run opens should be closed (or the work it models is stuck).
    pub fn unclosed_by_stage(&self) -> BTreeMap<&'static str, u64> {
        let mut by_stage: BTreeMap<&'static str, u64> = BTreeMap::new();
        for stack in self.open.values() {
            for open in stack {
                *by_stage.entry(open.stage).or_insert(0) += 1;
            }
        }
        by_stage
    }

    /// Total spans opened.
    pub fn spans_started(&self) -> u64 {
        self.spans_started
    }

    /// Total spans closed.
    pub fn spans_finished(&self) -> u64 {
        self.spans_finished
    }

    /// Finished span records evicted from the ring buffer.
    pub fn spans_evicted(&self) -> u64 {
        self.spans_evicted
    }

    /// `span_end` calls that found no matching open span.
    pub fn unmatched_ends(&self) -> u64 {
        self.unmatched_ends
    }

    /// `span_start` calls that replaced a still-open span with the same
    /// key.
    pub fn duplicate_starts(&self) -> u64 {
        self.duplicate_starts
    }

    /// Serializes a deterministic summary of the tracer to compact JSON:
    /// lifecycle counters plus per-stage latency statistics (nanosecond
    /// units). Individual span/event records are omitted — the ring
    /// buffers keep only the latest, while the aggregates here are exact.
    pub fn snapshot_json(&self) -> String {
        use crate::json::Obj;
        let mut stages = Obj::new();
        for (stage, hist) in &self.stage_hist {
            stages = stages.raw(stage, &crate::metrics::histogram_json(hist));
        }
        let mut out = Obj::new()
            .u64("spans_started", self.spans_started)
            .u64("spans_finished", self.spans_finished)
            .u64("spans_open", self.open_count as u64)
            .u64("spans_evicted", self.spans_evicted)
            .u64("events_recorded", self.events_recorded)
            .u64("unmatched_ends", self.unmatched_ends)
            .u64("duplicate_starts", self.duplicate_starts);
        if self.open_count > 0 {
            // Leak report: spans opened but never closed. Emitted only
            // when leaks exist so clean runs' exports stay byte-stable
            // across releases.
            let mut unclosed = Obj::new().u64("count", self.open_count as u64);
            let mut per_stage = Obj::new();
            for (stage, n) in self.unclosed_by_stage() {
                per_stage = per_stage.u64(stage, n);
            }
            unclosed = unclosed.raw("stages", &per_stage.build());
            out = out.raw("unclosed", &unclosed.build());
        }
        out.raw("stages", &stages.build()).build()
    }
}

/// FNV-1a, a stable 64-bit hash (per-node jitter salts).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn span_lifecycle_records_duration() {
        let mut tr = Tracer::default();
        tr.span_start(t(100), "tx1", "endorse", "peer0");
        let d = tr.span_end(t(350), "tx1", "endorse", "peer0").unwrap();
        assert_eq!(d, SimDuration::from_nanos(250));
        assert!(tr.unclosed_by_stage().is_empty());
        assert_eq!(tr.spans_finished(), 1);
        let span = tr.finished_spans().next().unwrap();
        assert_eq!(span.trace, "tx1");
        assert_eq!(span.stage, "endorse");
        assert_eq!(span.duration(), SimDuration::from_nanos(250));
        assert_eq!(tr.stage_histogram("endorse").unwrap().count(), 1);
    }

    #[test]
    fn children_nest_under_latest_open_span() {
        let mut tr = Tracer::default();
        let root = tr.span_start(t(0), "tx1", "e2e", "");
        let child = tr.span_start(t(10), "tx1", "endorse", "");
        let grandchild = tr.span_start(t(20), "tx1", "endorse.exec", "peer0");
        let other = tr.span_start(t(20), "tx2", "e2e", "");
        tr.span_end(t(30), "tx1", "endorse.exec", "peer0");
        tr.span_end(t(40), "tx1", "endorse", "");
        tr.span_end(t(50), "tx1", "e2e", "");
        tr.span_end(t(50), "tx2", "e2e", "");
        let spans: Vec<&Span> = tr.finished_spans().collect();
        let find = |id: SpanId| spans.iter().find(|s| s.id == id).unwrap();
        assert_eq!(find(root).parent, None);
        assert_eq!(find(child).parent, Some(root));
        assert_eq!(find(grandchild).parent, Some(child));
        assert_eq!(find(other).parent, None);
    }

    #[test]
    fn ring_buffer_evicts_oldest_and_counts() {
        let mut tr = Tracer::default();
        let total = SPAN_CAPACITY as u64 + 3;
        for i in 0..total {
            let trace = format!("tx{i}");
            tr.span_start(t(i * 10), &trace, "commit", "");
            tr.span_end(t(i * 10 + 5), &trace, "commit", "");
        }
        assert_eq!(tr.spans_evicted(), 3);
        let kept: Vec<&str> = tr.finished_spans().map(|s| s.trace.as_str()).collect();
        let expect: Vec<String> = (3..total).map(|i| format!("tx{i}")).collect();
        assert_eq!(kept, expect);
        // Aggregates saw every span despite eviction.
        assert_eq!(tr.spans_finished(), total);
        assert_eq!(tr.stage_histogram("commit").unwrap().count(), total);
    }

    #[test]
    fn unmatched_and_duplicate_spans_are_counted() {
        let mut tr = Tracer::default();
        assert!(tr.span_end(t(5), "tx1", "endorse", "").is_none());
        assert_eq!(tr.unmatched_ends(), 1);
        tr.span_start(t(0), "tx1", "endorse", "");
        tr.span_start(t(1), "tx1", "endorse", "");
        assert_eq!(tr.duplicate_starts(), 1);
        // The replacement span is the one that closes.
        let d = tr.span_end(t(3), "tx1", "endorse", "").unwrap();
        assert_eq!(d, SimDuration::from_nanos(2));
    }

    #[test]
    fn snapshot_json_is_deterministic() {
        let build = || {
            let mut tr = Tracer::default();
            tr.span_start(t(0), "tx1", "endorse", "");
            tr.span_end(t(7), "tx1", "endorse", "");
            tr.event(t(8), "tx1", "done", "");
            tr.snapshot_json()
        };
        let a = build();
        assert_eq!(a, build());
        assert!(a.contains("\"spans_finished\":1"));
        assert!(a.contains("\"endorse\""));
        assert!(a.contains("\"p99\":7"));
    }

    #[test]
    fn unclosed_spans_surface_in_snapshot() {
        let mut tr = Tracer::default();
        tr.span_start(t(0), "tx1", "endorse", "peer0");
        tr.span_start(t(1), "tx2", "endorse", "peer1");
        tr.span_start(t(2), "tx3", "commit.apply", "");
        tr.span_start(t(3), "tx4", "order", "");
        tr.span_end(t(9), "tx4", "order", "");
        let by_stage = tr.unclosed_by_stage();
        assert_eq!(by_stage.get("endorse"), Some(&2));
        assert_eq!(by_stage.get("commit.apply"), Some(&1));
        assert_eq!(by_stage.get("order"), None);
        let json = tr.snapshot_json();
        assert!(json.contains("\"spans_open\":3"));
        assert!(json
            .contains("\"unclosed\":{\"count\":3,\"stages\":{\"commit.apply\":1,\"endorse\":2}}"));
    }

    #[test]
    fn clean_snapshot_omits_unclosed_report() {
        let mut tr = Tracer::default();
        tr.span_start(t(0), "tx1", "endorse", "");
        tr.span_end(t(5), "tx1", "endorse", "");
        let json = tr.snapshot_json();
        assert!(json.contains("\"spans_open\":0"));
        assert!(!json.contains("\"unclosed\""));
    }

    #[test]
    fn events_ring_respects_capacity() {
        let mut tr = Tracer::default();
        let total = EVENT_CAPACITY as u64 + 3;
        for i in 0..total {
            tr.event(t(i), &format!("tx{i}"), "e", "");
        }
        let kept: Vec<&str> = tr.events().map(|e| e.trace.as_str()).collect();
        let expect: Vec<String> = (3..total).map(|i| format!("tx{i}")).collect();
        assert_eq!(kept, expect);
        assert_eq!(tr.events_recorded, total);
    }
}

//! Chrome `trace_events` / Perfetto export of a [`Tracer`]'s records.
//!
//! [`chrome_trace_json`] renders the tracer's finished spans and point
//! events in the Chrome trace-event JSON format, which both
//! `chrome://tracing` and <https://ui.perfetto.dev> load directly:
//!
//! * each finished span becomes a complete event (`"ph":"X"`) with a
//!   microsecond `ts`/`dur` pair derived from its virtual-time interval;
//! * each point event becomes a thread-scoped instant (`"ph":"i"`);
//! * metadata records (`"ph":"M"`) name the synthetic processes and
//!   threads.
//!
//! The pid/tid layout is stable across runs: each distinct span `detail`
//! (the actor-ish disambiguator, e.g. `"peer0"`) becomes a process, with
//! spans lacking a detail grouped under a `"pipeline"` process, and each
//! stage (or event name) becomes a numbered thread. Both namespaces are
//! assigned from the sorted set of names, so same-seed runs export
//! byte-identical traces.
//!
//! Only *retained* records are exported — the tracer's ring buffers
//! govern what is available (aggregates in `Tracer::snapshot_json` remain
//! exact regardless).

use std::collections::BTreeMap;

use crate::json::Obj;
use crate::trace::{Span, Tracer};

/// The process name used for spans and events with an empty `detail`.
const DEFAULT_PROCESS: &str = "pipeline";

/// Virtual nanoseconds as a microsecond JSON number with sub-µs
/// precision, via integer math (no float rounding).
fn ts_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// The process a span renders under: its detail, or the default.
fn process(span: &Span) -> &str {
    match span.detail.is_empty() {
        true => DEFAULT_PROCESS,
        false => &span.detail,
    }
}

/// Renders the tracer's retained spans and events as a Chrome
/// trace-event JSON document (`{"traceEvents":[...]}`), loadable in
/// `chrome://tracing` and <https://ui.perfetto.dev>.
///
/// # Examples
///
/// ```
/// use hyperprov_sim::{chrome_trace_json, SimTime, Tracer};
///
/// let mut tr = Tracer::default();
/// tr.span_start(SimTime::from_nanos(1_000), "tx1", "endorse", "peer0");
/// tr.span_end(SimTime::from_nanos(5_500), "tx1", "endorse", "peer0");
/// let json = chrome_trace_json(&tr);
/// assert!(json.contains("\"ph\":\"X\""));
/// assert!(json.contains("\"dur\":4.500"));
/// ```
pub fn chrome_trace_json(tracer: &Tracer) -> String {
    // Stable name → id maps: processes from span/event details, threads
    // from stage and event names, both sorted.
    let mut processes: BTreeMap<&str, u64> = BTreeMap::new();
    let mut threads: BTreeMap<&str, u64> = BTreeMap::new();
    for span in tracer.finished_spans() {
        processes.entry(process(span)).or_insert(0);
        threads.entry(span.stage).or_insert(0);
    }
    let has_events = tracer.events().next().is_some();
    if has_events {
        processes.entry(DEFAULT_PROCESS).or_insert(0);
        for ev in tracer.events() {
            threads.entry(ev.name).or_insert(0);
        }
    }
    for (i, (_, id)) in processes.iter_mut().enumerate() {
        *id = i as u64 + 1;
    }
    for (i, (_, id)) in threads.iter_mut().enumerate() {
        *id = i as u64 + 1;
    }

    let mut records: Vec<String> = Vec::new();

    // Metadata: process names, then thread names for every (pid, tid)
    // combination in use.
    for (name, pid) in &processes {
        records.push(
            Obj::new()
                .str("name", "process_name")
                .str("ph", "M")
                .u64("pid", *pid)
                .u64("tid", 0)
                .raw("args", &Obj::new().str("name", name).build())
                .build(),
        );
    }
    let mut named_threads: BTreeMap<(u64, u64), &str> = BTreeMap::new();
    for span in tracer.finished_spans() {
        named_threads.insert((processes[process(span)], threads[span.stage]), span.stage);
    }
    for ev in tracer.events() {
        named_threads.insert((processes[DEFAULT_PROCESS], threads[ev.name]), ev.name);
    }
    for ((pid, tid), name) in &named_threads {
        records.push(
            Obj::new()
                .str("name", "thread_name")
                .str("ph", "M")
                .u64("pid", *pid)
                .u64("tid", *tid)
                .raw("args", &Obj::new().str("name", name).build())
                .build(),
        );
    }

    // Spans as complete events, in ring-buffer (close) order.
    for span in tracer.finished_spans() {
        let proc_name = process(span);
        let mut args = Obj::new().str("trace", &span.trace).u64("seq", span.seq);
        if !span.detail.is_empty() {
            args = args.str("detail", &span.detail);
        }
        if let Some(parent) = span.parent {
            args = args.u64("parent", parent.0);
        }
        records.push(
            Obj::new()
                .str("name", span.stage)
                .str("cat", "span")
                .str("ph", "X")
                .raw("ts", &ts_us(span.start.as_nanos()))
                .raw("dur", &ts_us(span.duration().as_nanos()))
                .u64("pid", processes[proc_name])
                .u64("tid", threads[span.stage])
                .raw("args", &args.build())
                .build(),
        );
    }

    // Point events as thread-scoped instants.
    for ev in tracer.events() {
        let mut args = Obj::new().str("trace", &ev.trace).u64("seq", ev.seq);
        if !ev.detail.is_empty() {
            args = args.str("detail", &ev.detail);
        }
        records.push(
            Obj::new()
                .str("name", ev.name)
                .str("cat", "event")
                .str("ph", "i")
                .raw("ts", &ts_us(ev.at.as_nanos()))
                .u64("pid", processes[DEFAULT_PROCESS])
                .u64("tid", threads[ev.name])
                .str("s", "t")
                .raw("args", &args.build())
                .build(),
        );
    }

    format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}",
        records.join(","),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::time::SimTime;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn sample_tracer() -> Tracer {
        let mut tr = Tracer::default();
        tr.span_start(t(0), "tx1", "e2e", "");
        tr.span_start(t(100), "tx1", "endorse", "peer0");
        tr.span_end(t(2_500), "tx1", "endorse", "peer0");
        tr.span_start(t(3_000), "tx1", "commit.apply", "peer1");
        tr.span_end(t(4_000), "tx1", "commit.apply", "peer1");
        tr.span_end(t(5_000), "tx1", "e2e", "");
        tr.event(t(2_600), "tx1", "block.cut", "txs=1");
        tr
    }

    #[test]
    fn export_is_structurally_valid_chrome_trace() {
        let json = chrome_trace_json(&sample_tracer());
        let doc = parse(&json).expect("export must be valid JSON");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert!(!events.is_empty());
        for ev in events {
            let ph = ev.get("ph").unwrap().as_str().unwrap();
            assert!(matches!(ph, "X" | "i" | "M"), "unexpected ph {ph}");
            assert!(ev.get("name").unwrap().as_str().is_some());
            assert!(ev.get("pid").unwrap().as_f64().is_some());
            assert!(ev.get("tid").unwrap().as_f64().is_some());
            match ph {
                "X" => {
                    assert!(ev.get("ts").unwrap().as_f64().unwrap() >= 0.0);
                    assert!(ev.get("dur").unwrap().as_f64().unwrap() >= 0.0);
                }
                "i" => {
                    assert_eq!(ev.get("s").unwrap().as_str(), Some("t"));
                }
                _ => {}
            }
        }
    }

    #[test]
    fn pid_tid_assignment_is_stable() {
        let a = chrome_trace_json(&sample_tracer());
        let b = chrome_trace_json(&sample_tracer());
        assert_eq!(a, b);
        // Processes: sorted details — "peer0" < "peer1" < "pipeline".
        let doc = parse(&a).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let pid_of = |name: &str| {
            events
                .iter()
                .find(|e| {
                    e.get("ph").unwrap().as_str() == Some("M")
                        && e.get("name").unwrap().as_str() == Some("process_name")
                        && e.get("args").unwrap().get("name").unwrap().as_str() == Some(name)
                })
                .unwrap()
                .get("pid")
                .unwrap()
                .as_f64()
                .unwrap()
        };
        assert_eq!(pid_of("peer0"), 1.0);
        assert_eq!(pid_of("peer1"), 2.0);
        assert_eq!(pid_of("pipeline"), 3.0);
    }

    #[test]
    fn timestamps_convert_to_microseconds() {
        let json = chrome_trace_json(&sample_tracer());
        // endorse: start 100ns = 0.100us, dur 2400ns = 2.400us.
        assert!(json.contains("\"ts\":0.100"));
        assert!(json.contains("\"dur\":2.400"));
        // The instant at 2600ns.
        assert!(json.contains("\"ts\":2.600"));
    }

    #[test]
    fn parent_links_survive_export() {
        let json = chrome_trace_json(&sample_tracer());
        let doc = parse(&json).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let endorse = events
            .iter()
            .find(|e| {
                e.get("ph").unwrap().as_str() == Some("X")
                    && e.get("name").unwrap().as_str() == Some("endorse")
            })
            .unwrap();
        assert!(endorse.get("args").unwrap().get("parent").is_some());
        assert_eq!(
            endorse.get("args").unwrap().get("trace").unwrap().as_str(),
            Some("tx1")
        );
    }

    #[test]
    fn empty_tracer_exports_empty_document() {
        let tr = Tracer::default();
        let json = chrome_trace_json(&tr);
        let doc = parse(&json).unwrap();
        assert_eq!(doc.get("traceEvents").unwrap().as_array().unwrap().len(), 0);
    }

    #[test]
    fn instants_land_on_the_pipeline_process() {
        let json = chrome_trace_json(&sample_tracer());
        let doc = parse(&json).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let instant = events
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("i"))
            .unwrap();
        assert_eq!(instant.get("pid").unwrap().as_f64(), Some(3.0)); // "pipeline"
        assert_eq!(instant.get("name").unwrap().as_str(), Some("block.cut"));
    }
}

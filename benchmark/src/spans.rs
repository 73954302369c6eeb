//! The benchmark's own host-time spans: name, start, end and the span that
//! was open when it started. They are kept in memory and written out when
//! the run ends, in the Chrome trace-event format Perfetto loads.

use std::time::Instant;

use hyperprov_sim::json::{array, Obj};

/// One finished or still open span.
#[derive(Debug)]
struct HostSpan {
    name: String,
    start_us: f64,
    end_us: Option<f64>,
    parent: Option<usize>,
}

/// The spans of one run, nested by a stack.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<HostSpan>,
    open: Vec<usize>,
}

impl Spans {
    /// An empty recorder; time counts from now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `work` inside a span called `name` and returns its result and
    /// the span's duration in seconds.
    pub fn time<T>(&mut self, name: &str, work: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let start_us = self.now_us();
        let id = self.spans.len();
        self.spans.push(HostSpan {
            name: name.to_owned(),
            start_us,
            end_us: None,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let result = work(self);
        self.open.pop();
        let end_us = self.now_us();
        self.spans[id].end_us = Some(end_us);
        (result, (end_us - start_us) / 1e6)
    }

    /// The document for `<workload>.trace.json`: the host spans twice
    /// (as `host_spans`, with parents, and as trace events of process 0)
    /// followed by the events of `sim_trace`, the product's own
    /// `chrome_trace_json` export of its virtual-time spans.
    pub fn trace_json(&self, run_id: &str, sim_trace: &str) -> String {
        let host_spans = array(self.spans.iter().enumerate().map(|(id, span)| {
            let mut obj = Obj::new()
                .u64("id", id as u64)
                .str("name", &span.name)
                .f64("start_us", span.start_us)
                .f64("end_us", span.end_us.unwrap_or(span.start_us));
            if let Some(parent) = span.parent {
                obj = obj.u64("parent", parent as u64);
            }
            obj.build()
        }));
        let mut events = vec![Obj::new()
            .str("name", "process_name")
            .str("ph", "M")
            .u64("pid", 0)
            .u64("tid", 0)
            .raw(
                "args",
                &Obj::new()
                    .str("name", "benchmark (host clock, us since start)")
                    .build(),
            )
            .build()];
        events.extend(self.spans.iter().map(|span| {
            Obj::new()
                .str("name", &span.name)
                .str("cat", "host")
                .str("ph", "X")
                .f64("ts", span.start_us)
                .f64("dur", span.end_us.unwrap_or(span.start_us) - span.start_us)
                .u64("pid", 0)
                .u64("tid", 0)
                .raw("args", &Obj::new().str("run_id", run_id).build())
                .build()
        }));
        // The product's export is `{"traceEvents":[...],...}`; its events
        // follow ours in one array. Should its shape ever change, the host
        // spans alone still make a valid document.
        let tail = match sim_trace.strip_prefix("{\"traceEvents\":[") {
            Some(rest) if rest.starts_with(']') => rest.to_owned(),
            Some(rest) => format!(",{rest}"),
            None => "]}".to_owned(),
        };
        format!(
            "{{\"run_id\":\"{run_id}\",\"host_spans\":{host_spans},\"traceEvents\":[{}{tail}",
            events.join(",")
        )
    }
}

//! Workload drivers: closed-loop and open-loop harnesses over a built
//! network, plus latency/throughput summarisation.
//!
//! The paper's "custom benchmarking program" corresponds to
//! [`run_closed_loop`] (clients issue the next operation as soon as the
//! previous completes) and [`run_open_loop`] (operations arrive on a fixed
//! schedule regardless of completions — used for the energy load levels
//! and the contention sweep).

use hyperprov::{ClientCommand, ClientCompletion, CompletionQueue, NodeMsg, OpId};
use hyperprov_baseline::OnChainNetwork;
use hyperprov_sim::{ActorId, Histogram, SimDuration, SimTime, Simulation};

use crate::experiments::{render_and_save, render_and_save_metrics, render_and_save_raw};
use crate::report::MetricsExporter;
use crate::table::Table;

/// One savable output of a benchmark campaign: a named table (rendered
/// and saved as `<name>.csv` under `results/`) or a metrics-JSON export
/// (named by the exporter itself).
#[derive(Debug)]
pub enum Artefact {
    /// A table plus its CSV base name.
    Table {
        /// The rendered table.
        table: Table,
        /// CSV base name under `results/`.
        name: &'static str,
    },
    /// A metrics/trace JSON export.
    Metrics(MetricsExporter),
    /// A pre-serialized document saved verbatim (e.g. a Chrome/Perfetto
    /// `*.trace.json`).
    Raw {
        /// The document body, written as-is.
        body: String,
        /// Full file name under `results/` (including extension).
        name: &'static str,
    },
}

impl Artefact {
    /// A table artefact.
    pub fn table(table: Table, name: &'static str) -> Artefact {
        Artefact::Table { table, name }
    }

    /// A metrics-export artefact.
    pub fn metrics(exporter: MetricsExporter) -> Artefact {
        Artefact::Metrics(exporter)
    }

    /// A raw-document artefact (saved byte-for-byte under `results/`).
    pub fn raw(body: String, name: &'static str) -> Artefact {
        Artefact::Raw { body, name }
    }

    /// Saves the artefact under `results/` and renders it (plus a
    /// save-status line) for the calling binary to print.
    #[must_use = "the rendered report must be printed by the calling binary"]
    pub fn render_and_save(&self) -> String {
        match self {
            Artefact::Table { table, name } => render_and_save(table, name),
            Artefact::Metrics(exporter) => render_and_save_metrics(exporter),
            Artefact::Raw { body, name } => render_and_save_raw(body, name),
        }
    }
}

/// Networks the drivers can operate: anything exposing a simulation,
/// client actors and their completion queues.
pub trait Driveable {
    /// The simulation.
    fn sim_mut(&mut self) -> &mut Simulation<NodeMsg>;
    /// Read access to the simulation.
    fn sim(&self) -> &Simulation<NodeMsg>;
    /// Number of clients.
    fn n_clients(&self) -> usize;
    /// Client `i`'s actor id.
    fn client(&self, i: usize) -> ActorId;
    /// Client `i`'s completion queue (shared handle).
    fn completions(&self, i: usize) -> CompletionQueue;
}

impl Driveable for hyperprov::HyperProvNetwork {
    fn sim_mut(&mut self) -> &mut Simulation<NodeMsg> {
        &mut self.sim
    }
    fn sim(&self) -> &Simulation<NodeMsg> {
        &self.sim
    }
    fn n_clients(&self) -> usize {
        self.clients.len()
    }
    fn client(&self, i: usize) -> ActorId {
        self.clients[i]
    }
    fn completions(&self, i: usize) -> CompletionQueue {
        self.completions[i].clone()
    }
}

impl Driveable for OnChainNetwork {
    fn sim_mut(&mut self) -> &mut Simulation<NodeMsg> {
        &mut self.sim
    }
    fn sim(&self) -> &Simulation<NodeMsg> {
        &self.sim
    }
    fn n_clients(&self) -> usize {
        self.clients.len()
    }
    fn client(&self, i: usize) -> ActorId {
        self.clients[i]
    }
    fn completions(&self, i: usize) -> CompletionQueue {
        self.completions[i].clone()
    }
}

/// Rewrites the operation id inside a command (the drivers own id
/// assignment).
pub fn set_op(cmd: &mut ClientCommand, new: OpId) {
    match cmd {
        ClientCommand::Post { op, .. }
        | ClientCommand::StoreData { op, .. }
        | ClientCommand::Get { op, .. }
        | ClientCommand::GetData { op, .. }
        | ClientCommand::CheckData { op, .. }
        | ClientCommand::GetHistory { op, .. }
        | ClientCommand::GetKeysByChecksum { op, .. }
        | ClientCommand::GetLineage { op, .. }
        | ClientCommand::GetAncestry { op, .. }
        | ClientCommand::GetDescendants { op, .. }
        | ClientCommand::GetClosure { op, .. }
        | ClientCommand::GetSubgraph { op, .. }
        | ClientCommand::Delete { op, .. }
        | ClientCommand::List { op } => *op = new,
    }
}

/// The outcome of a driver run.
#[derive(Debug)]
pub struct RunResult {
    /// `(client, completion)` pairs in completion order.
    pub completions: Vec<(usize, ClientCompletion)>,
    /// The measured span (excluding drain).
    pub span: SimDuration,
    /// Operations issued; `issued - completions.len()` operations were
    /// still hanging when the run stopped.
    pub issued: u64,
}

fn drain<N: Driveable>(net: &mut N, out: &mut Vec<(usize, ClientCompletion)>) -> Vec<usize> {
    let mut finished_clients = Vec::new();
    for c in 0..net.n_clients() {
        let queue = net.completions(c);
        let mut queue = queue.borrow_mut();
        while let Some(completion) = queue.pop_front() {
            out.push((c, completion));
            finished_clients.push(c);
        }
    }
    finished_clients
}

/// Runs a closed loop: every client keeps exactly one operation in
/// flight; `factory(client, seq)` builds each next command (its op id is
/// overwritten). Operations are issued until `duration` elapses; the run
/// then drains for up to `grace`.
pub fn run_closed_loop<N: Driveable>(
    net: &mut N,
    duration: SimDuration,
    grace: SimDuration,
    mut factory: impl FnMut(usize, u64) -> ClientCommand,
) -> RunResult {
    let start = net.sim().now();
    let end = start + duration;
    let hard_stop = end + grace;
    let n = net.n_clients();
    let mut seq = vec![0u64; n];
    let mut inflight = vec![false; n];
    let mut next_op = 0u64;
    let mut completions = Vec::new();

    let mut issue = |net: &mut N, c: usize, seq: &mut [u64], next_op: &mut u64| {
        let mut cmd = factory(c, seq[c]);
        seq[c] += 1;
        *next_op += 1;
        set_op(&mut cmd, OpId(*next_op));
        let target = net.client(c);
        net.sim_mut().inject_message(target, NodeMsg::Client(cmd));
    };

    for (c, busy) in inflight.iter_mut().enumerate() {
        issue(net, c, &mut seq, &mut next_op);
        *busy = true;
    }

    loop {
        let now = net.sim().now();
        if now >= hard_stop {
            break;
        }
        let progressed = net.sim_mut().run_events(1) > 0;
        for c in drain(net, &mut completions) {
            inflight[c] = false;
            if net.sim().now() < end {
                issue(net, c, &mut seq, &mut next_op);
                inflight[c] = true;
            }
        }
        if !progressed {
            if !inflight.iter().any(|&b| b) {
                break;
            }
            // Only future timers remain: jump ahead.
            let now = net.sim().now();
            net.sim_mut().run_until(now + SimDuration::from_millis(100));
        }
    }
    RunResult {
        issued: next_op,
        completions,
        span: duration,
    }
}

/// Runs a closed loop bounded by an *operation count* instead of a time
/// span: exactly `total_ops` operations are issued (one in flight per
/// client) and the run ends when all have completed. Used to preload
/// ledgers.
pub fn run_closed_loop_counted<N: Driveable>(
    net: &mut N,
    total_ops: u64,
    mut factory: impl FnMut(usize, u64) -> ClientCommand,
) -> RunResult {
    let start = net.sim().now();
    let n = net.n_clients();
    let mut issued = 0u64;
    let mut next_op = 0u64;
    let mut completions = Vec::new();

    let mut issue = |net: &mut N, c: usize, issued: &mut u64, next_op: &mut u64| {
        let mut cmd = factory(c, *issued);
        *issued += 1;
        *next_op += 1;
        set_op(&mut cmd, OpId(*next_op));
        let target = net.client(c);
        net.sim_mut().inject_message(target, NodeMsg::Client(cmd));
    };

    let mut outstanding = 0u64;
    for c in 0..n {
        if issued < total_ops {
            issue(net, c, &mut issued, &mut next_op);
            outstanding += 1;
        }
    }
    while outstanding > 0 {
        let progressed = net.sim_mut().run_events(1) > 0;
        for c in drain(net, &mut completions) {
            outstanding -= 1;
            if issued < total_ops {
                issue(net, c, &mut issued, &mut next_op);
                outstanding += 1;
            }
        }
        if !progressed && outstanding > 0 {
            let now = net.sim().now();
            net.sim_mut().run_until(now + SimDuration::from_millis(100));
        }
    }
    RunResult {
        span: net.sim().now().saturating_duration_since(start),
        completions,
        issued,
    }
}

/// Runs an open loop: operations are injected at scheduled instants
/// regardless of completions. `arrivals` gives the issue instants and
/// issuing clients (sorted by time); `factory(client, index)` builds each
/// command only when its instant is reached, so a million-operation
/// schedule never materialises in memory. After the last arrival the
/// network runs until every issued operation has completed, bounded by
/// `drain_cap` of virtual time.
///
/// Completion queues are emptied in batches (not per event): with tens of
/// thousands of clients a per-event drain would dominate host time.
pub fn run_open_loop<N: Driveable>(
    net: &mut N,
    arrivals: &[(SimTime, usize)],
    drain_cap: SimDuration,
    mut factory: impl FnMut(usize, u64) -> ClientCommand,
) -> RunResult {
    const DRAIN_EVERY: usize = 4096;
    let start = net.sim().now();
    let mut completions = Vec::new();
    let mut next_op = 0u64;
    let mut last = start;
    for (index, &(at, client)) in arrivals.iter().enumerate() {
        debug_assert!(at >= last, "schedule must be sorted");
        net.sim_mut().run_until(at);
        debug_assert_eq!(net.sim().now(), at, "arrival injected off schedule");
        let mut cmd = factory(client, index as u64);
        next_op += 1;
        set_op(&mut cmd, OpId(next_op));
        let target = net.client(client);
        net.sim_mut().inject_message(target, NodeMsg::Client(cmd));
        last = at;
        if index % DRAIN_EVERY == DRAIN_EVERY - 1 {
            drain(net, &mut completions);
        }
    }
    let deadline = last + drain_cap;
    drain(net, &mut completions);
    while (completions.len() as u64) < next_op && net.sim().now() < deadline {
        let chunk = net.sim().now() + SimDuration::from_millis(500);
        net.sim_mut().run_until(chunk.min(deadline));
        drain(net, &mut completions);
    }
    RunResult {
        completions,
        span: last.saturating_duration_since(start),
        issued: next_op,
    }
}

/// Aggregate statistics of a run.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Completed operations (success + failure).
    pub count: u64,
    /// Successful operations.
    pub ok: u64,
    /// Failed operations (rejections, invalidations, integrity errors).
    pub err: u64,
    /// Successful operations per second of measured span.
    pub throughput: f64,
    /// Latency statistics over successful operations (nanoseconds).
    pub latency: Histogram,
}

impl Summary {
    /// Builds a summary from completions over a measured span.
    pub fn of(completions: &[(usize, ClientCompletion)], span: SimDuration) -> Summary {
        let mut latency = Histogram::new();
        let mut ok = 0;
        let mut err = 0;
        for (_, completion) in completions {
            if completion.outcome.is_ok() {
                ok += 1;
                latency.record(completion.latency().as_nanos());
            } else {
                err += 1;
            }
        }
        let secs = span.as_secs_f64();
        Summary {
            count: ok + err,
            ok,
            err,
            throughput: if secs > 0.0 { ok as f64 / secs } else { 0.0 },
            latency,
        }
    }

    /// Mean latency in milliseconds.
    pub fn mean_latency_ms(&self) -> f64 {
        self.latency.mean() / 1e6
    }

    /// A latency quantile in milliseconds.
    pub fn latency_ms(&self, q: f64) -> f64 {
        self.latency.quantile(q) as f64 / 1e6
    }

    /// Latency standard deviation in milliseconds.
    pub fn stddev_latency_ms(&self) -> f64 {
        self.latency.stddev() / 1e6
    }
}

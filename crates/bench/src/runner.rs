//! Workload drivers: closed-loop and open-loop harnesses over a built
//! network, the one measurement rule every campaign summarises a run by
//! ([`Summary::of`]), and the [`Artefact`]s a campaign hands back.
//!
//! The paper's "custom benchmarking program" corresponds to
//! [`run_closed_loop`] (clients issue the next operation as soon as the
//! previous completes) and [`run_open_loop`] (operations arrive on a fixed
//! schedule regardless of completions — used for the energy load levels
//! and the contention sweep).

use std::path::{Path, PathBuf};

use hyperprov::{ClientCommand, ClientCompletion, HyperProvNetwork, NodeMsg, OpId};
use hyperprov_sim::{json, ActorId, Histogram, SimDuration, SimTime};

use crate::report::MetricsExporter;
use crate::table::{trajectory_json, Table};

/// Where campaign outputs land (`<repo>/results`).
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; results live at the repo root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results")
}

/// Where a committed trajectory lives (`<repo>/<file>`).
pub fn trajectory_path(file: &str) -> PathBuf {
    results_dir().join("..").join(file)
}

/// One output of a benchmark campaign. Everything a campaign measured is
/// in its tables; the other arms are renderings or exports that ride
/// along.
#[derive(Debug)]
pub enum Artefact {
    /// A table, printed and saved as `results/<name>.csv`.
    Table {
        /// The result rows.
        table: Table,
        /// CSV base name under `results/`.
        name: &'static str,
    },
    /// A metrics/trace JSON export, saved as
    /// `results/<experiment>.metrics.json`.
    Metrics(MetricsExporter),
    /// A pre-serialized document saved verbatim under `results/` (a
    /// Chrome/Perfetto `*.trace.json`, a profile's JSON rendering).
    Raw {
        /// The document body, written as-is.
        body: String,
        /// Full file name under `results/` (including extension).
        name: &'static str,
    },
    /// Rows of a committed trajectory: written to `<repo>/<file>` by full
    /// runs only ([`save_trajectories`]), so quick runs never touch the
    /// baselines the regression gate reads.
    Trajectory {
        /// File name at the repo root (`BENCH_commit.json`).
        file: &'static str,
        /// The document's `campaign` member.
        campaign: &'static str,
        /// The document's `metric` member: what the cells measure.
        metric: &'static str,
        /// The rows ([`Table::cells_json`]).
        cells: Vec<String>,
    },
}

fn write(path: PathBuf, body: &str) -> std::io::Result<PathBuf> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(&path, body)?;
    Ok(path)
}

/// The save-status line the binaries print after an artefact.
fn status(what: &str, saved: std::io::Result<PathBuf>) -> String {
    match saved {
        Ok(path) => format!("[saved {}]\n", path.display()),
        Err(err) => format!("[warning: could not save {what}: {err}]\n"),
    }
}

impl Artefact {
    /// A table artefact.
    pub fn table(table: Table, name: &'static str) -> Artefact {
        Artefact::Table { table, name }
    }

    /// A trajectory artefact over the rows of `tables`, in order.
    pub fn trajectory(
        file: &'static str,
        campaign: &'static str,
        metric: &'static str,
        tables: &[&Table],
    ) -> Artefact {
        Artefact::Trajectory {
            file,
            campaign,
            metric,
            cells: tables.iter().flat_map(|t| t.cells_json()).collect(),
        }
    }

    /// Saves the artefact under `results/` and renders it (plus a
    /// save-status line) for the calling binary to print. Library code
    /// never prints. Trajectories render nothing here: the binary saves
    /// them once per invocation through [`save_trajectories`].
    #[must_use = "the rendered report must be printed by the calling binary"]
    pub fn render_and_save(&self) -> String {
        let dir = results_dir();
        match self {
            Artefact::Table { table, name } => {
                format!("{table}{}", status(name, table.save_csv(&dir, name)))
            }
            Artefact::Metrics(exporter) => {
                let name = format!("{}.metrics.json", exporter.experiment());
                status(&name, write(dir.join(&name), &exporter.to_json()))
            }
            Artefact::Raw { body, name } => status(name, write(dir.join(name), body)),
            Artefact::Trajectory { .. } => String::new(),
        }
    }
}

/// The named table among a campaign's artefacts.
///
/// # Panics
///
/// Panics if the campaign returned no table of that name.
pub fn table_of<'a>(artefacts: &'a [Artefact], name: &str) -> &'a Table {
    artefacts
        .iter()
        .find_map(|a| match a {
            Artefact::Table { table, name: n } if *n == name => Some(table),
            _ => None,
        })
        .unwrap_or_else(|| panic!("campaign returned no table {name:?}"))
}

/// The trajectory documents of a set of artefacts, `(file, body)` in
/// first-appearance order: the cells of every [`Artefact::Trajectory`]
/// naming the same file are concatenated into one document (Figs 1–3 are
/// three campaigns and one `BENCH_paper.json`).
pub fn trajectories(artefacts: &[Artefact]) -> Vec<(&'static str, String)> {
    let mut docs: Vec<(&'static str, &'static str, &'static str, Vec<String>)> = Vec::new();
    for artefact in artefacts {
        if let Artefact::Trajectory {
            file,
            campaign,
            metric,
            cells,
        } = artefact
        {
            match docs.iter_mut().find(|doc| doc.0 == *file) {
                Some(doc) => doc.3.extend(cells.iter().cloned()),
                None => docs.push((file, campaign, metric, cells.clone())),
            }
        }
    }
    docs.into_iter()
        .map(|(file, campaign, metric, cells)| (file, trajectory_json(campaign, metric, cells)))
        .collect()
}

/// Writes [`trajectories`] to the repo root and renders the save-status
/// lines. A file is replaced whole, so an invocation that ran only some
/// of the campaigns feeding one file leaves it partial — and the
/// regression gate's rows over the missing cells fail until it is
/// regenerated.
#[must_use = "the rendered status must be printed by the calling binary"]
pub fn save_trajectories(artefacts: &[Artefact]) -> String {
    trajectories(artefacts)
        .into_iter()
        .map(|(file, body)| status(file, write(trajectory_path(file), &body)))
        .collect()
}

/// The outcome of a driver run.
#[derive(Debug)]
pub struct RunResult {
    /// `(client, completion)` pairs in completion order.
    pub completions: Vec<(usize, ClientCompletion)>,
    /// The measured window: `[start, start + span]` for
    /// [`Until::Elapsed`], `[start, last completion]` for [`Until::Ops`],
    /// `[start, last arrival]` for [`run_open_loop`].
    pub window: (SimTime, SimTime),
    /// Operations issued ([`Summary::unfinished`] of them never completed).
    pub issued: u64,
}

fn drain(net: &HyperProvNetwork, out: &mut Vec<(usize, ClientCompletion)>) -> Vec<usize> {
    let mut finished_clients = Vec::new();
    for (c, queue) in net.completions.iter().enumerate() {
        let mut queue = queue.borrow_mut();
        while let Some(completion) = queue.pop_front() {
            out.push((c, completion));
            finished_clients.push(c);
        }
    }
    finished_clients
}

fn issue(net: &mut HyperProvNetwork, client: usize, mut cmd: ClientCommand, op: u64) {
    cmd.set_op(OpId(op));
    net.sim
        .inject_message(net.clients[client], NodeMsg::Client(cmd));
}

/// When a closed loop stops issuing operations.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// Once this much virtual time has passed since the start.
    Elapsed(SimDuration),
    /// Once this many operations have been issued (preloads, and
    /// workloads that must stay bounded in memory).
    Ops(u64),
}

/// The first ordering node whose view says it orders now: the solo
/// orderer, or the raft member that leads its cluster (`None` during an
/// election).
pub fn leading_orderer(net: &HyperProvNetwork) -> Option<ActorId> {
    let leads = |&id: &ActorId| {
        let view = net.sim.view(id).and_then(|view| json::parse(&view).ok());
        view.is_some_and(|view| view.get("leader") == Some(&json::Value::Bool(true)))
    };
    net.orderers.iter().copied().find(leads)
}

/// Runs a closed loop: every client keeps exactly one operation in
/// flight; `factory(client, seq)` builds each client's `seq`-th command
/// (its op id is overwritten). Issuing stops at `until`; the run then
/// lets the network settle — until its event queue is empty — for up to
/// `grace` (counted from the end of the span, or from the last issue of
/// an op-bounded run). A run whose queue empties while operations are
/// still in flight returns: nothing is left that could complete them
/// ([`Summary::unfinished`] says how many).
pub fn run_closed_loop(
    net: &mut HyperProvNetwork,
    until: Until,
    grace: SimDuration,
    mut factory: impl FnMut(usize, u64) -> ClientCommand,
) -> RunResult {
    let start = net.sim.now();
    let mut seq = vec![0u64; net.clients.len()];
    let mut issued = 0u64;
    let mut last_issue = start;
    let mut completions = Vec::new();
    // Clients due their next operation: all of them at the start, then
    // whoever just completed one.
    let mut idle: Vec<usize> = (0..net.clients.len()).collect();
    loop {
        for c in idle {
            let more = match until {
                Until::Elapsed(span) => net.sim.now() < start + span,
                Until::Ops(total) => issued < total,
            };
            if more {
                issued += 1;
                issue(net, c, factory(c, seq[c]), issued);
                seq[c] += 1;
                last_issue = net.sim.now();
            }
        }
        let hard_stop = match until {
            Until::Elapsed(span) => start + span + grace,
            Until::Ops(_) => last_issue + grace,
        };
        if net.sim.now() >= hard_stop {
            break;
        }
        let progressed = net.sim.run_events(1) > 0;
        idle = drain(net, &mut completions);
        if !progressed {
            break;
        }
    }
    let end = match until {
        Until::Elapsed(span) => start + span,
        Until::Ops(_) => completions.last().map_or(start, |(_, last)| last.finished),
    };
    RunResult {
        completions,
        window: (start, end),
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
pub fn run_open_loop(
    net: &mut HyperProvNetwork,
    arrivals: &[(SimTime, usize)],
    drain_cap: SimDuration,
    mut factory: impl FnMut(usize, u64) -> ClientCommand,
) -> RunResult {
    const DRAIN_EVERY: usize = 4096;
    let start = net.sim.now();
    let mut completions = Vec::new();
    let mut next_op = 0u64;
    let mut last = start;
    for (index, &(at, client)) in arrivals.iter().enumerate() {
        debug_assert!(at >= last, "schedule must be sorted");
        net.sim.run_until(at);
        debug_assert_eq!(net.sim.now(), at, "arrival injected off schedule");
        next_op += 1;
        issue(net, client, factory(client, index as u64), next_op);
        last = at;
        if index % DRAIN_EVERY == DRAIN_EVERY - 1 {
            drain(net, &mut completions);
        }
    }
    let deadline = last + drain_cap;
    drain(net, &mut completions);
    while (completions.len() as u64) < next_op && net.sim.now() < deadline {
        let chunk = net.sim.now() + SimDuration::from_millis(500);
        net.sim.run_until(chunk.min(deadline));
        drain(net, &mut completions);
    }
    RunResult {
        completions,
        window: (start, last),
        issued: next_op,
    }
}

/// Aggregate statistics of a run, by the one measurement rule every
/// campaign shares: throughput is the `Ok` completions that finish inside
/// the run's window divided by its length; `ok` and `err` count every
/// completion and the latency every `Ok`, drain included; `unfinished` is
/// what was issued and never completed.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Successful operations.
    pub ok: u64,
    /// Failed operations (rejections, invalidations, integrity errors).
    pub err: u64,
    /// Issued operations that never completed.
    pub unfinished: u64,
    /// Successful operations finished inside the window, per second of it.
    pub throughput: f64,
    /// Latency statistics over successful operations (nanoseconds).
    pub latency: Histogram,
}

impl Summary {
    /// Summarises a run over its window.
    pub fn of(run: &RunResult) -> Summary {
        let (from, to) = run.window;
        let mut latency = Histogram::new();
        let (mut ok, mut err, mut inside) = (0, 0, 0.0);
        for (_, completion) in &run.completions {
            if completion.outcome.is_ok() {
                ok += 1;
                if completion.finished <= to {
                    inside += 1.0;
                }
                latency.record(completion.latency().as_nanos());
            } else {
                err += 1;
            }
        }
        let secs = to.saturating_duration_since(from).as_secs_f64();
        Summary {
            ok,
            err,
            unfinished: run.issued - run.completions.len() as u64,
            throughput: if secs > 0.0 { inside / secs } else { 0.0 },
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::post_cmd;
    use hyperprov::NetworkConfig;

    /// An operation lost for good — its client cut off from every peer,
    /// no deadlines configured, so nothing ever times it out — must not
    /// hang an op-bounded loop: the other client finishes the work, the
    /// event queue runs dry, the run returns and reports the hanging op.
    #[test]
    fn an_op_bounded_loop_returns_when_an_operation_is_lost() {
        let mut net = HyperProvNetwork::build(&NetworkConfig::desktop(2));
        let (cut_off, peers) = (net.clients[0], net.peers.clone());
        net.sim.network_mut().partition_groups(&[cut_off], &peers);
        let result = run_closed_loop(
            &mut net,
            Until::Ops(6),
            SimDuration::from_secs(30),
            |client, seq| post_cmd(format!("item-c{client}-s{seq}"), b"x"),
        );
        assert_eq!(result.issued, 6);
        assert_eq!(Summary::of(&result).unfinished, 1);
        assert!(result
            .completions
            .iter()
            .all(|(client, done)| { *client == 1 && done.outcome.is_ok() }));
    }

    #[test]
    fn both_bounds_issue_what_they_say_and_settle() {
        let config = NetworkConfig::desktop(2);
        let post = |client: usize, seq: u64| post_cmd(format!("item-c{client}-s{seq}"), b"x");

        let mut net = HyperProvNetwork::build(&config);
        let grace = SimDuration::from_secs(30);
        let counted = run_closed_loop(&mut net, Until::Ops(7), grace, post);
        assert_eq!((counted.issued, counted.completions.len()), (7, 7));
        let last = counted.completions.last().unwrap().1.finished;
        assert_eq!(counted.window, (SimTime::ZERO, last));
        // Settled: every peer holds every block.
        let heights: Vec<u64> = net.ledgers.iter().map(|l| l.borrow().height()).collect();
        assert!(heights.iter().all(|h| *h == heights[0]), "{heights:?}");

        let mut net = HyperProvNetwork::build(&config);
        let span = SimDuration::from_secs(5);
        let timed = run_closed_loop(&mut net, Until::Elapsed(span), grace, post);
        let end = SimTime::ZERO + span;
        assert_eq!(timed.window, (SimTime::ZERO, end));
        assert_eq!(timed.issued, timed.completions.len() as u64);
        assert!(timed.completions.iter().all(|(_, c)| c.started < end));
        // Throughput counts what finished inside the window; the
        // operations in flight at its end finish in the drain and count
        // in `ok` only.
        let summary = Summary::of(&timed);
        let inside = timed
            .completions
            .iter()
            .filter(|(_, c)| c.outcome.is_ok() && c.finished <= end)
            .count() as u64;
        assert_eq!(
            (summary.throughput * span.as_secs_f64()).round() as u64,
            inside
        );
        assert!(inside < summary.ok, "{inside} of {}", summary.ok);
    }

    #[test]
    fn trajectories_naming_one_file_become_one_document() {
        let mut a = Table::new("a", &[("x", "x", crate::table::Fmt::Plain)]);
        a.push_row(crate::row![1u64]);
        let mut b = a.clone();
        b.push_row(crate::row![2u64]);
        let artefacts = [
            Artefact::trajectory("BENCH_p.json", "P", "m", &[&a]),
            Artefact::trajectory("BENCH_q.json", "Q", "m", &[&a]),
            Artefact::table(a.clone(), "a"),
            Artefact::trajectory("BENCH_p.json", "P", "m", &[&b]),
        ];
        let docs = trajectories(&artefacts);
        assert_eq!(docs.len(), 2);
        assert_eq!((docs[0].0, docs[1].0), ("BENCH_p.json", "BENCH_q.json"));
        let p = hyperprov_sim::json::parse(&docs[0].1).unwrap();
        assert_eq!(p.get("campaign").unwrap().as_str(), Some("P"));
        let xs: Vec<f64> = p
            .get("cells")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|c| c.get("x").unwrap().as_f64().unwrap())
            .collect();
        assert_eq!(xs, [1.0, 1.0, 2.0]);
        assert!(artefacts[0].render_and_save().is_empty());
        assert_eq!(table_of(&artefacts, "a").len(), 1);
    }
}

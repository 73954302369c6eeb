//! Load generation from *inside* the simulation, and the host loop around
//! it.
//!
//! The [`Driver`] is an actor of the benchmark's own. Open-loop arrivals
//! are kernel timers and every command leaves with `send_local`, so an
//! operation enters its client at the instant it was due and
//! `driver.late_ms_max` is 0 by construction. The host only ever advances
//! the clock with `run_events` (see README.md, "Known findings", for why
//! not `run_until`), and it treats completions as a stream: latency and
//! outcome are recorded, the output is checked and dropped.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use hyperprov::{ClientCommand, ClientCompletion, HyperProvNetwork, NodeMsg, OpId, OpOutput};
use hyperprov_ledger::Sha256;
use hyperprov_sim::{Actor, ActorId, Context, Event, SimDuration, SimTime};

/// Which operation of a phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// The issuing client.
    pub client: usize,
    /// How many operations that client issued before this one.
    pub seq: u64,
    /// How many operations the phase issued before this one.
    pub index: u64,
}

/// One phase's operations: a pure function from [`Op`] to the command, and
/// the check of its output. Being pure, the driver that issues and the
/// host that checks agree without sharing state.
pub trait Workload {
    /// The command of `op`; it must echo `id`.
    fn command(&self, op: Op, id: OpId) -> ClientCommand;
    /// True when `out` is the right answer to that command.
    fn check(&self, op: Op, out: &OpOutput) -> bool;
}

/// How a phase offers load.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Every client keeps one operation in flight.
    Closed,
    /// One operation every `gap`, round-robin over the clients, whatever
    /// has completed.
    Open {
        /// Time between two arrivals.
        gap: SimDuration,
    },
}

/// Bits of an [`OpId`] that hold `seq`; `index` takes the rest.
const SEQ_BITS: u32 = 24;

fn op_id(op: Op) -> OpId {
    assert!(op.seq < 1 << SEQ_BITS, "too many operations for one client");
    OpId((op.index << SEQ_BITS) | op.seq)
}

fn op_of(client: usize, id: OpId) -> Op {
    Op {
        client,
        seq: id.0 & ((1 << SEQ_BITS) - 1),
        index: id.0 >> SEQ_BITS,
    }
}

/// Timer token of an open-loop arrival; closed-loop tokens are client
/// indices.
const ARRIVAL: u64 = u64::MAX;

/// What the driver tells the host.
#[derive(Debug, Default)]
struct Issued {
    count: u64,
    first: Option<SimTime>,
    late_ns_max: u64,
}

struct Driver {
    clients: Vec<ActorId>,
    workload: Rc<dyn Workload>,
    total: u64,
    seq: Vec<u64>,
    /// Open loop only: when arrival 0 is due, and the gap.
    schedule: Option<(SimTime, SimDuration)>,
    issued: Rc<RefCell<Issued>>,
}

impl Driver {
    fn issue(&mut self, ctx: &mut Context<'_, NodeMsg>, client: usize) {
        let mut issued = self.issued.borrow_mut();
        let op = Op {
            client,
            seq: self.seq[client],
            index: issued.count,
        };
        self.seq[client] += 1;
        let cmd = self.workload.command(op, op_id(op));
        ctx.send_local(self.clients[client], NodeMsg::Client(cmd));
        issued.count += 1;
        issued.first.get_or_insert(ctx.now());
    }
}

impl Actor<NodeMsg> for Driver {
    fn on_event(&mut self, ctx: &mut Context<'_, NodeMsg>, event: Event<NodeMsg>) {
        let Event::Timer { token } = event else {
            return;
        };
        let sent = self.issued.borrow().count;
        if sent >= self.total {
            return;
        }
        if token != ARRIVAL {
            self.issue(ctx, token as usize);
            return;
        }
        let (first_due, gap) = self.schedule.expect("arrival timer without a schedule");
        let due = first_due + gap * sent;
        let late = ctx.now().saturating_duration_since(due).as_nanos();
        {
            let mut issued = self.issued.borrow_mut();
            issued.late_ns_max = issued.late_ns_max.max(late);
        }
        self.issue(ctx, (sent % self.clients.len() as u64) as usize);
        if sent + 1 < self.total {
            let next = first_due + gap * (sent + 1);
            ctx.set_timer(next.saturating_duration_since(ctx.now()), ARRIVAL);
        }
    }
}

/// One phase to run.
pub struct Phase {
    /// The operations.
    pub workload: Rc<dyn Workload>,
    /// How many operations, over all clients.
    pub total: u64,
    /// Closed or open loop.
    pub load: Load,
    /// Virtual time after the phase's start at which the host gives up;
    /// operations still running then are counted as hung.
    pub cap: SimDuration,
}

/// The completion timeline of one phase, reduced as it streams by.
#[derive(Debug)]
pub struct Timeline {
    /// Operations issued.
    pub issued: u64,
    /// Operations that completed `Ok` with the right output.
    pub ok: u64,
    /// Operations that completed with a typed error.
    pub errors: u64,
    /// Operations that completed `Ok` with a wrong output.
    pub wrong: u64,
    /// Operations still running when the phase ended.
    pub hung: u64,
    /// Latency of every `ok` operation in virtual nanoseconds, sorted.
    pub latencies_ns: Vec<u64>,
    /// Virtual time of the first issue.
    pub first_issue: SimTime,
    /// Virtual time of the last completion.
    pub last_finish: SimTime,
    /// Longest gap, for any single client, between two consecutive `ok`
    /// completions, in virtual nanoseconds.
    pub outage_ns: u64,
    /// How late the driver issued an open-loop arrival, at worst.
    pub late_ns_max: u64,
    /// SHA-256 over `(client, op id, started, finished, outcome kind)` of
    /// every completion in arrival order.
    pub digest: String,
    /// Host seconds from the phase's start to each tenth of its
    /// completions (10 entries).
    pub tenth_wall_s: Vec<f64>,
    /// Host seconds of the whole phase.
    pub wall_s: f64,
    /// Kernel events the phase processed.
    pub events: u64,
}

impl Timeline {
    /// The `q`-quantile of the `ok` latencies in virtual milliseconds
    /// (nearest rank).
    pub fn latency_ms(&self, q: f64) -> f64 {
        if self.latencies_ns.is_empty() {
            return 0.0;
        }
        let rank = ((self.latencies_ns.len() as f64 * q).ceil() as usize).max(1);
        self.latencies_ns[rank.min(self.latencies_ns.len()) - 1] as f64 / 1e6
    }

    /// `ok` operations per virtual second from first issue to last
    /// completion.
    pub fn goodput_ops_s(&self) -> f64 {
        let span = self.last_finish.saturating_duration_since(self.first_issue);
        self.ok as f64 / span.as_secs_f64().max(f64::MIN_POSITIVE)
    }

    /// Operations that did not end `Ok` with the right output.
    pub fn failed(&self) -> u64 {
        self.errors + self.wrong + self.hung
    }
}

/// A stable small number per outcome kind, for the digest.
fn outcome_kind(outcome: &Result<OpOutput, hyperprov::HyperProvError>) -> u8 {
    use hyperprov::HyperProvError as E;
    match outcome {
        Ok(_) => 0,
        Err(E::Rejected(_)) => 1,
        Err(E::Busy) => 2,
        Err(E::Timeout) => 3,
        Err(E::Exhausted { .. }) => 4,
        Err(E::Invalidated(_)) => 5,
        Err(E::Storage(_)) => 6,
        Err(E::IntegrityViolation { .. }) => 7,
        Err(E::Malformed(_)) => 8,
    }
}

/// Reduces the completions of one phase as they stream by.
struct Reducer<'a> {
    workload: &'a dyn Workload,
    total: u64,
    wall: Instant,
    hasher: Sha256,
    latencies_ns: Vec<u64>,
    last_ok: Vec<Option<SimTime>>,
    tenth_wall_s: Vec<f64>,
    ok: u64,
    errors: u64,
    wrong: u64,
    completed: u64,
    outage_ns: u64,
    last_finish: SimTime,
}

impl Reducer<'_> {
    fn record(&mut self, client: usize, done: ClientCompletion) {
        let ClientCompletion {
            op: id,
            started,
            finished,
            outcome,
        } = done;
        self.completed += 1;
        self.last_finish = self.last_finish.max(finished);
        self.hasher.update(&(client as u32).to_le_bytes());
        self.hasher.update(&id.0.to_le_bytes());
        self.hasher.update(&started.as_nanos().to_le_bytes());
        self.hasher.update(&finished.as_nanos().to_le_bytes());
        self.hasher.update(&[outcome_kind(&outcome)]);
        match outcome {
            Ok(out) if self.workload.check(op_of(client, id), &out) => {
                self.ok += 1;
                self.latencies_ns.push((finished - started).as_nanos());
                if let Some(prev) = self.last_ok[client].replace(finished) {
                    self.outage_ns = self.outage_ns.max((finished - prev).as_nanos());
                }
            }
            Ok(_) => self.wrong += 1,
            Err(_) => self.errors += 1,
        }
        if self.completed * 10 / self.total > self.tenth_wall_s.len() as u64 {
            self.tenth_wall_s.push(self.wall.elapsed().as_secs_f64());
        }
    }
}

/// Runs one phase on `net` to its end and returns the reduced timeline.
/// `on_advance` is called after every advance of the clock (workloads use
/// it to watch ledger heights).
pub fn run_phase(
    net: &mut HyperProvNetwork,
    phase: &Phase,
    mut on_advance: impl FnMut(&HyperProvNetwork),
) -> Timeline {
    let clients = net.clients.len();
    let issued = Rc::new(RefCell::new(Issued::default()));
    let start = net.sim.now();
    let schedule = match phase.load {
        Load::Closed => None,
        Load::Open { gap } => Some((start + gap, gap)),
    };
    let driver = net.sim.add_actor(Box::new(Driver {
        clients: net.clients.clone(),
        workload: phase.workload.clone(),
        total: phase.total,
        seq: vec![0; clients],
        schedule,
        issued: issued.clone(),
    }));
    // A closed loop reacts to each completion at its own instant, so it
    // looks after every event; an open loop only has to keep the queues
    // short.
    let closed = matches!(phase.load, Load::Closed);
    let step = match phase.load {
        Load::Closed => {
            for client in 0..clients.min(phase.total as usize) {
                net.sim
                    .start_timer(driver, SimDuration::ZERO, client as u64);
            }
            1
        }
        Load::Open { gap } => {
            net.sim.start_timer(driver, gap, ARRIVAL);
            64
        }
    };

    let cap = start + phase.cap;
    let events_before = net.sim.events_processed();
    let mut seen = Reducer {
        workload: phase.workload.as_ref(),
        total: phase.total,
        wall: Instant::now(),
        hasher: Sha256::new(),
        latencies_ns: Vec::with_capacity(phase.total as usize),
        last_ok: vec![None; clients],
        tenth_wall_s: Vec::with_capacity(10),
        ok: 0,
        errors: 0,
        wrong: 0,
        completed: 0,
        outage_ns: 0,
        last_finish: start,
    };
    while seen.completed < phase.total && net.sim.now() < cap {
        let advanced = net.sim.run_events(step);
        on_advance(net);
        for (client, queue) in net.completions.iter().enumerate() {
            // Each borrow of the queue ends before the kernel runs again.
            while let Some(done) = { queue.borrow_mut().pop_front() } {
                seen.record(client, done);
                if closed {
                    net.sim
                        .start_timer(driver, SimDuration::ZERO, client as u64);
                }
            }
        }
        if advanced == 0 {
            break; // nothing left to happen: the rest is hung
        }
    }
    let wall_s = seen.wall.elapsed().as_secs_f64();
    seen.latencies_ns.sort_unstable();
    let issued = issued.borrow();
    Timeline {
        issued: issued.count,
        ok: seen.ok,
        errors: seen.errors,
        wrong: seen.wrong,
        hung: phase.total - seen.completed,
        latencies_ns: seen.latencies_ns,
        first_issue: issued.first.unwrap_or(start),
        last_finish: seen.last_finish,
        outage_ns: seen.outage_ns,
        late_ns_max: issued.late_ns_max,
        digest: seen.hasher.finalize().to_hex(),
        tenth_wall_s: seen.tenth_wall_s,
        wall_s,
        events: net.sim.events_processed() - events_before,
    }
}

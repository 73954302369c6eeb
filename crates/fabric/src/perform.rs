//! The I/O half of every machine: [`Host`] holds what only the kernel can
//! give and turns [`Action`]s into kernel calls — the one interpreter, which
//! the one host actor, [`Node`], calls with what an input answered.

use std::collections::HashMap;

use hyperprov_ledger::ChannelId;
use hyperprov_sim::json::ToJson;
use hyperprov_sim::{
    Actor, ActorId, Context, CpuResource, DetRng, Event, GaugeId, HistogramId, Metrics,
    SimDuration, SimTime, Simulation, TimerId,
};

use crate::action::{Action, Outbound, SpanKey};
use crate::messages::Carries;

/// What a machine answers an input with: actions whose sends are messages
/// of the kind it takes.
pub type Answer<Mc> = Vec<Action<<Mc as Machine>::Own, <Mc as Machine>::Msg>>;

/// A sans-IO machine — peer, ordering node, client, off-chain store — as a
/// [`Node`] hosts it.
pub trait Machine: Sized {
    /// The messages it takes, and sends.
    type Msg;
    /// What only this kind of machine asks its host for.
    type Own;
    /// What it shows of its state.
    type View: ToJson;
    /// A message from `src` arrived.
    fn message(&mut self, src: ActorId, msg: Self::Msg, io: Io<'_>) -> Answer<Self>;
    /// A timer it armed fired.
    fn timer(&mut self, token: u64, io: Io<'_>) -> Answer<Self>;
    /// It restarts after a crash, which its host's timers did not survive.
    fn restarted(&mut self) -> Answer<Self> {
        Vec::new()
    }
    /// Its state as a plain value, computed when asked: the one way to
    /// read it, from a test or, rendered, from the host side during a run
    /// ([`Simulation::view`]). It emits nothing and changes nothing.
    fn view(&self) -> Self::View;
    /// The token of the timer its host fires when it starts, if any.
    fn first_timer(&self) -> Option<u64> {
        None
    }
    /// Whether `msg` takes a place in the host's admission queue.
    fn admits(&self, _msg: &Self::Msg) -> bool {
        false
    }
    /// Performs one of its own actions.
    fn perform_own<M: Carries<Self::Msg>>(
        &mut self,
        host: &mut Host<M>,
        ctx: &mut Context<'_, M>,
        own: Self::Own,
    );
}

/// What only the host knows of an input.
#[derive(Debug)]
pub struct Io<'a> {
    /// When it arrived.
    pub now: SimTime,
    /// The host actor's stream: a retry draws its backoff from it.
    pub rng: &'a mut DetRng,
    /// Whether the admission queue took it; true of what the machine does
    /// not [queue](Machine::admits).
    pub admitted: bool,
}

/// The one host actor: a [`Machine`] on the simulation kernel, and the
/// [`Host`] that performs its actions.
pub struct Node<Mc, M> {
    machine: Mc,
    host: Host<M>,
}

impl<Mc: Machine + 'static, M: Carries<Mc::Msg> + 'static> Node<Mc, M> {
    /// The host of `machine`, whose metrics are named after `name`.
    pub fn new(machine: Mc, name: impl Into<String>) -> Self {
        let host = Host::new(name);
        Node { machine, host }
    }

    /// Bounds the admission queue, which is unbounded by default.
    #[must_use]
    pub fn with_queue(mut self, config: QueueConfig) -> Self {
        let metric = |kind| format!("queue.{kind}.{}", self.host.name);
        self.host.queue = Some(Queue {
            capacity: config.capacity,
            in_flight: 0,
            depth: (metric("depth"), None),
            util: (metric("util"), None),
            wait: (metric("wait"), None),
            nacked: metric("nacked"),
        });
        self
    }

    /// Puts the node into `sim` on `cpu`, labelled `label` (the profiler's
    /// per-label report and the `sim.handler_s.*` metrics read it), and
    /// fires the machine's first timer.
    pub fn start(self, sim: &mut Simulation<M>, cpu: CpuResource, label: &str) -> ActorId {
        let first_timer = self.machine.first_timer();
        let id = sim.add_actor_with_cpu(Box::new(self), cpu);
        sim.set_actor_label(id, label);
        if let Some(token) = first_timer {
            sim.start_timer(id, SimDuration::ZERO, token);
        }
        id
    }

    fn perform(&mut self, ctx: &mut Context<'_, M>, actions: Answer<Mc>) {
        let Node { machine, host } = self;
        host.perform(ctx, actions, |h, c, own| machine.perform_own(h, c, own));
    }
}

impl<Mc: Machine + 'static, M: Carries<Mc::Msg> + 'static> Actor<M> for Node<Mc, M> {
    fn view(&self) -> Option<String> {
        Some(self.machine.view().to_json())
    }

    fn on_event(&mut self, ctx: &mut Context<'_, M>, event: Event<M>) {
        let actions = match event {
            Event::Message { src, msg } => {
                let Ok(msg) = <M as Carries<Mc::Msg>>::peel(msg) else {
                    return;
                };
                let admitted = !self.machine.admits(&msg) || self.host.admit(ctx);
                let (now, rng) = (ctx.now(), ctx.rng());
                self.machine.message(src, msg, Io { now, rng, admitted })
            }
            // A CPU job's end releases in the host; any other timer is the
            // machine's.
            Event::Timer { token } if self.host.timer(ctx, token) => {
                let (now, rng, admitted) = (ctx.now(), ctx.rng(), true);
                self.machine.timer(token, Io { now, rng, admitted })
            }
            Event::Timer { .. } => return,
        };
        self.perform(ctx, actions);
    }

    /// Running jobs, admitted requests and armed timers died with the
    /// crash; the queue's bound survives, as the node's configuration does.
    fn on_restart(&mut self, ctx: &mut Context<'_, M>) {
        let host = &mut self.host;
        host.outbox.clear();
        host.armed.clear();
        if let Some(q) = &mut host.queue {
            q.in_flight = 0;
        }
        let actions = self.machine.restarted();
        self.perform(ctx, actions);
    }
}

/// Bound of a node's admission queue. An arrival that finds the queue
/// full is nacked: the machine answers the caller with a protocol-level
/// rejection instead of serving it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueConfig {
    /// Maximum requests in flight (admitted but not completed).
    pub capacity: usize,
}

impl QueueConfig {
    /// Creates a bound with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (a zero-capacity queue could never
    /// admit anything).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "admission queue capacity must be > 0");
        QueueConfig { capacity }
    }
}

/// The bit every CPU job's token carries, so that a job's end never
/// reaches the machine: its own tokens stay below it.
const JOB_TOKEN_BIT: u64 = 1 << 63;

/// What a job releases when the virtual CPU finishes it: span closes
/// first, then sends, and whether it completes an admitted request.
#[derive(Debug)]
struct Release<M>(Vec<SpanKey>, Vec<Outbound<M>>, bool);

/// A bounded admission queue, and its metric names with the per-request
/// ones' handles, resolved at first use: a metric appears in the exports
/// only once it is recorded.
#[derive(Debug)]
struct Queue {
    capacity: usize,
    /// Requests admitted but not completed.
    in_flight: usize,
    depth: (String, Option<GaugeId>),
    util: (String, Option<GaugeId>),
    wait: (String, Option<HistogramId>),
    nacked: String,
}

fn set_gauge(m: &mut Metrics, (name, id): &mut (String, Option<GaugeId>), value: f64) {
    let id = *id.get_or_insert_with(|| m.gauge_id(name));
    m.set_gauge_id(id, value);
}

/// What a machine's host keeps beside it: the outbox that holds a CPU
/// job's span closes and sends until the virtual CPU finishes it, the
/// admission queue, the kernel's handle of every timer the machine has
/// armed, by token, and the metric names as the exports spell them.
#[derive(Debug)]
pub struct Host<M> {
    /// The node's name; it prefixes the node's metrics.
    name: String,
    /// The last job's token number; it survives a restart, so a token
    /// never meets a stale one.
    jobs: u64,
    outbox: HashMap<u64, Release<M>>,
    /// Unbounded, and side-effect free, when `None`.
    queue: Option<Queue>,
    armed: HashMap<u64, TimerId>,
    /// Names as rendered at first use, by scope and name: one `format!`
    /// per name, not one per event.
    names: HashMap<(Option<ChannelId>, &'static str), String>,
}

impl<M> Host<M> {
    fn new(name: impl Into<String>) -> Self {
        Host {
            name: name.into(),
            jobs: 0,
            outbox: HashMap::new(),
            queue: None,
            armed: HashMap::new(),
            names: HashMap::new(),
        }
    }

    /// The node's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether the admission queue takes a request: always when
    /// unbounded; when bounded, while fewer than its capacity are in
    /// flight, and the rest are counted as nacked.
    fn admit(&mut self, ctx: &mut Context<'_, M>) -> bool {
        let Some(q) = &mut self.queue else {
            return true;
        };
        if q.in_flight < q.capacity {
            q.in_flight += 1;
            set_gauge(ctx.metrics(), &mut q.depth, q.in_flight as f64);
            return true;
        }
        ctx.metrics().incr(&q.nacked, 1);
        false
    }

    /// True if the timer that fired is the machine's — feed it the token —
    /// and not the end of a CPU job, whose release happens here.
    fn timer(&mut self, ctx: &mut Context<'_, M>, token: u64) -> bool {
        if token & JOB_TOKEN_BIT == 0 {
            self.armed.remove(&token);
            return true;
        }
        if let Some(Release(closes, sends, request)) = self.outbox.remove(&token) {
            for (trace, stage, detail) in &closes {
                ctx.span_end(trace, stage, detail);
            }
            for (to, bytes, msg) in sends {
                ctx.send(to, bytes, msg);
            }
            // A request's end frees its slot in a bounded queue.
            if let (true, Some(q)) = (request, &mut self.queue) {
                q.in_flight = q.in_flight.saturating_sub(1);
                set_gauge(ctx.metrics(), &mut q.depth, q.in_flight as f64);
                let util = ctx.cpu().utilization(SimTime::ZERO, ctx.now());
                set_gauge(ctx.metrics(), &mut q.util, util);
            }
        }
        false
    }

    fn token(&mut self) -> u64 {
        self.jobs += 1;
        JOB_TOKEN_BIT | self.jobs
    }

    /// Runs one CPU job of `cost`; when it is done, closes the spans, then
    /// sends.
    pub fn job(
        &mut self,
        ctx: &mut Context<'_, M>,
        cost: SimDuration,
        sends: Vec<Outbound<M>>,
        closes: Vec<SpanKey>,
    ) {
        let token = self.hold(Release(closes, sends, false));
        ctx.execute(cost, token);
    }

    /// Like [`Host::job`], and its end also frees the slot of one admitted
    /// request; a `read` job runs on the CPU's earliest-free read lane.
    /// Under a bounded queue, the `queue.wait` span of `trace` covers the
    /// time the job waits behind earlier CPU work on the lane it starts on.
    pub fn request_job(
        &mut self,
        ctx: &mut Context<'_, M>,
        cost: SimDuration,
        read: bool,
        trace: &str,
        sends: Vec<Outbound<M>>,
        closes: Vec<SpanKey>,
    ) {
        if let Some(q) = &mut self.queue {
            let arrival = ctx.now();
            let free = match read {
                true => ctx.cpu().read_busy_until(),
                false => ctx.cpu().busy_until(),
            };
            let start = arrival.max(free);
            let tracer = ctx.tracer();
            tracer.span_start(arrival, trace, "queue.wait", &self.name);
            tracer.span_end(start, trace, "queue.wait", &self.name);
            let wait = start.saturating_duration_since(arrival).as_nanos();
            let (name, id) = &mut q.wait;
            let id = *id.get_or_insert_with(|| ctx.metrics().histogram_id(name));
            ctx.metrics().record_id(id, wait);
        }
        let token = self.hold(Release(closes, sends, true));
        match read {
            true => ctx.execute_read(cost, token),
            false => ctx.execute(cost, token),
        };
    }

    /// The token of a new job, whose end releases `release`.
    fn hold(&mut self, release: Release<M>) -> u64 {
        let token = self.token();
        self.outbox.insert(token, release);
        token
    }

    /// Runs the costs as one batch spread over the CPU's lanes; when the
    /// last lane is done, closes the spans.
    pub fn parallel_job(
        &mut self,
        ctx: &mut Context<'_, M>,
        costs: &[SimDuration],
        closes: Vec<SpanKey>,
    ) {
        let token = self.hold(Release(closes, Vec::new(), false));
        ctx.execute_parallel(costs, token);
    }

    /// The metric's name as the exports spell it: `<node>.<name>`, or the
    /// channel's namespacing of it.
    pub fn metric(&mut self, scope: Option<ChannelId>, name: &'static str) -> &str {
        let node = &self.name;
        let slot = self.names.entry((scope, name));
        slot.or_insert_with_key(|(scope, name)| match scope {
            Some(channel) => channel.metric_name(node, name),
            None => format!("{node}.{name}"),
        })
    }

    /// Performs `actions` in the order given; `own` performs what only
    /// this kind of machine asks for.
    fn perform<X, S>(
        &mut self,
        ctx: &mut Context<'_, M>,
        actions: Vec<Action<X, S>>,
        mut own: impl FnMut(&mut Self, &mut Context<'_, M>, X),
    ) where
        M: Carries<S>,
    {
        for action in actions {
            match action {
                Action::Send(to, bytes, msg) => ctx.send(to, bytes, M::wrap(msg)),
                Action::Job(cost, sends, closes) => {
                    let wrap = |(to, bytes, msg)| (to, bytes, M::wrap(msg));
                    self.job(ctx, cost, sends.into_iter().map(wrap).collect(), closes);
                }
                Action::Charge(cost) => {
                    let token = self.token();
                    ctx.execute(cost, token);
                }
                Action::Arm(token, delay) => {
                    self.armed.insert(token, ctx.set_timer(delay, token));
                }
                Action::Disarm(token) => {
                    if let Some(timer) = self.armed.remove(&token) {
                        ctx.cancel_timer(timer);
                    }
                }
                Action::Count(scope, name, n) => ctx.metrics().incr(self.metric(scope, name), n),
                Action::Gauge(scope, name, value) => {
                    ctx.metrics().set_gauge(self.metric(scope, name), value);
                }
                Action::Observe(name, duration) => {
                    ctx.metrics()
                        .record_duration(self.metric(None, name), duration);
                }
                Action::SpanStart(trace, stage, detail) => {
                    ctx.span_start(&trace, stage, &detail);
                }
                Action::SpanEnd(trace, stage, detail) => {
                    ctx.span_end(&trace, stage, &detail);
                }
                Action::Note(trace, name, detail) => ctx.trace_event(&trace, name, &detail),
                Action::Own(x) => own(self, ctx, x),
            }
        }
    }
}

//! The I/O half of every machine: [`Host`] holds what only the kernel can
//! give and turns [`Action`]s into kernel calls — the one interpreter that
//! the host actor, [`Node`], and the test drivers call with what an input
//! answered.

use std::any::Any;
use std::collections::HashMap;

use hyperprov_ledger::ChannelId;
use hyperprov_sim::{
    Actor, ActorId, Context, CpuResource, DetRng, Event, QueueConfig, ServiceHarness, SimDuration,
    SimTime, Simulation, TimerId,
};

use crate::action::Action;
use crate::messages::{Carries, FabricMsg};

/// A sans-IO machine — peer, ordering node, client — as a [`Node`] hosts it.
pub trait Machine {
    /// The messages it takes.
    type Msg;
    /// What only this kind of machine asks its host for.
    type Own;
    /// A message from `src` arrived.
    fn message(&mut self, src: ActorId, msg: Self::Msg, io: Io<'_>) -> Vec<Action<Self::Own>>;
    /// A timer it armed fired.
    fn timer(&mut self, token: u64, io: Io<'_>) -> Vec<Action<Self::Own>>;
    /// It restarts after a crash, which its host's timers did not survive.
    fn restarted(&mut self) -> Vec<Action<Self::Own>> {
        Vec::new()
    }
    /// The token of the timer its host fires when it starts, if any.
    fn first_timer(&self) -> Option<u64> {
        None
    }
    /// Whether `msg` takes a place in the host's admission queue.
    fn admits(&self, _msg: &Self::Msg) -> bool {
        false
    }
    /// Performs one of its own actions.
    fn perform_own<M: Carries<Self::Msg> + Carries<FabricMsg>>(
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

impl<Mc: Machine + 'static, M: Carries<Mc::Msg> + Carries<FabricMsg> + 'static> Node<Mc, M> {
    /// The host of `machine`, whose metrics are named after `name`.
    pub fn new(machine: Mc, name: impl Into<String>) -> Self {
        let host = Host::new(name);
        Node { machine, host }
    }

    /// Bounds the admission queue, which is unbounded by default.
    #[must_use]
    pub fn with_queue(mut self, config: QueueConfig) -> Self {
        self.host.harness.set_queue(config);
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

    /// The machine, to read.
    pub fn machine(&self) -> &Mc {
        &self.machine
    }

    fn perform(&mut self, ctx: &mut Context<'_, M>, actions: Vec<Action<Mc::Own>>) {
        let Node { machine, host } = self;
        host.perform(ctx, actions, |h, c, own| machine.perform_own(h, c, own));
    }
}

impl<Mc: Machine + 'static, M: Carries<Mc::Msg> + Carries<FabricMsg> + 'static> Actor<M>
    for Node<Mc, M>
{
    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }

    fn on_event(&mut self, ctx: &mut Context<'_, M>, event: Event<M>) {
        let actions = match event {
            Event::Message { src, msg } => {
                let Ok(msg) = <M as Carries<Mc::Msg>>::peel(msg) else {
                    return;
                };
                let admitted = !self.machine.admits(&msg) || self.host.harness.admit(ctx);
                let (now, rng) = (ctx.now(), ctx.rng());
                self.machine.message(src, msg, Io { now, rng, admitted })
            }
            // A CPU job's end releases in the harness; any other timer is
            // the machine's.
            Event::Timer { token } if self.host.timer(ctx, token) => {
                let (now, rng, admitted) = (ctx.now(), ctx.rng(), true);
                self.machine.timer(token, Io { now, rng, admitted })
            }
            Event::Timer { .. } => return,
        };
        self.perform(ctx, actions);
    }

    /// Deferred jobs, admitted requests and pending timers died with the
    /// crash.
    fn on_restart(&mut self, ctx: &mut Context<'_, M>) {
        self.host.harness.reset();
        self.host.armed.clear();
        let actions = self.machine.restarted();
        self.perform(ctx, actions);
    }
}

/// What a machine's host keeps beside it: the kernel's handle of every
/// timer the machine has armed, by token, and the metric names as the
/// exports spell them.
#[derive(Debug)]
pub struct Host<M> {
    /// The admission queue, and the outbox that holds a job's sends and
    /// span closes until the virtual CPU finishes it; its name prefixes
    /// the node's metrics.
    pub harness: ServiceHarness<M>,
    armed: HashMap<u64, TimerId>,
    /// Names as rendered at first use, by scope and name: one `format!`
    /// per name, not one per event.
    names: HashMap<(Option<ChannelId>, &'static str), String>,
}

impl<M: Carries<FabricMsg>> Host<M> {
    /// The host of the node called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Host {
            harness: ServiceHarness::new(name),
            armed: HashMap::new(),
            names: HashMap::new(),
        }
    }

    /// True if the timer that fired is the machine's — feed it the token —
    /// and not the end of a CPU job, which the harness releases here.
    pub fn timer(&mut self, ctx: &mut Context<'_, M>, token: u64) -> bool {
        !self.harness.on_timer(ctx, token) && {
            self.armed.remove(&token);
            true
        }
    }

    /// The metric's name as the exports spell it: `<node>.<name>`, or the
    /// channel's namespacing of it.
    pub fn metric(&mut self, scope: Option<ChannelId>, name: &'static str) -> &str {
        let node = self.harness.name();
        let slot = self.names.entry((scope, name));
        slot.or_insert_with_key(|(scope, name)| match scope {
            Some(channel) => channel.metric_name(node, name),
            None => format!("{node}.{name}"),
        })
    }

    /// Performs `actions` in the order given; `own` performs what only
    /// this kind of machine asks for.
    pub fn perform<X>(
        &mut self,
        ctx: &mut Context<'_, M>,
        actions: Vec<Action<X>>,
        mut own: impl FnMut(&mut Self, &mut Context<'_, M>, X),
    ) {
        for action in actions {
            match action {
                Action::Send(to, bytes, msg) => ctx.send(to, bytes, M::wrap(msg)),
                Action::Job(cost, sends, closes) => {
                    let wrap = |(to, bytes, msg)| (to, bytes, M::wrap(msg));
                    let sends = sends.into_iter().map(wrap).collect();
                    self.harness.defer(ctx, cost, sends, closes);
                }
                Action::Charge(cost) => {
                    self.harness.charge(ctx, cost);
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

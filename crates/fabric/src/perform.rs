//! The I/O half of every machine: [`Host`] holds what only the kernel can
//! give and turns [`Action`]s into kernel calls — the one interpreter that
//! the peer and orderer actors, the HyperProv client and the test drivers
//! call with what an input answered.

use std::collections::HashMap;

use hyperprov_ledger::ChannelId;
use hyperprov_sim::{Context, ServiceHarness, TimerId};

use crate::action::Action;
use crate::messages::{Carries, FabricMsg};

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

    /// Crash restart: deferred jobs, admitted requests and pending timers
    /// died with the crash.
    pub fn reset(&mut self) {
        self.harness.reset();
        self.armed.clear();
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

//! Deterministic fault injection: a virtual-time schedule of
//! crash/restart, partition/heal and message-loss windows, executed by a
//! dedicated actor.
//!
//! A [`FaultPlan`] is built declaratively (typically from a handful of
//! windows derived from the experiment seed), then installed into a
//! [`Simulation`] with [`FaultPlan::install`]. The actor it installs wakes
//! on its own timers, applies every action due at that instant, and
//! records a `fault.*` trace event plus a metric for each — so a fault
//! campaign is fully reproducible from the seed and fully visible in the
//! exported trace. Windows may overlap, and compose as their union: an
//! actor stays down, and a link cut, until the last window over it ends,
//! and the loss probability is the largest open loss window's. An action
//! that changes none of that is skipped, untraced.

use std::collections::HashMap;
use std::marker::PhantomData;

use crate::engine::{Actor, ActorId, Context, Event, Simulation};
use crate::time::SimTime;

/// One end of a fault window, applied at a scheduled virtual time.
#[derive(Debug, Clone)]
enum FaultAction {
    /// An actor crashes: its queued events are dropped, and everything
    /// sent to it while down is lost.
    Crash(ActorId),
    /// It restarts, through its [`Actor::on_restart`] recovery hook.
    Restart(ActorId),
    /// Every link across the two groups is blocked, both ways.
    PartitionGroups(Vec<ActorId>, Vec<ActorId>),
    /// The link between two actors is unblocked.
    Heal(ActorId, ActorId),
    /// Messages are lost with this probability, until the same `EndLoss`.
    Loss(f64),
    EndLoss(f64),
}

/// A virtual-time schedule of fault windows.
///
/// Windows may be added in any order; [`FaultPlan::install`] sorts their
/// ends by time (stable, so same-instant ends apply in insertion order).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    entries: Vec<(SimTime, FaultAction)>,
}

impl FaultPlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    fn at(mut self, at: SimTime, action: FaultAction) -> Self {
        self.entries.push((at, action));
        self
    }

    /// Crashes `target` at `from` and restarts it at `until`.
    pub fn crash_window(self, target: ActorId, from: SimTime, until: SimTime) -> Self {
        self.at(from, FaultAction::Crash(target))
            .at(until, FaultAction::Restart(target))
    }

    /// Partitions every link across the two groups at `from` and heals
    /// those links at `until`.
    pub fn partition_window(
        self,
        left: &[ActorId],
        right: &[ActorId],
        from: SimTime,
        until: SimTime,
    ) -> Self {
        let cut = FaultAction::PartitionGroups(left.to_vec(), right.to_vec());
        let links = left
            .iter()
            .flat_map(|&a| right.iter().map(move |&b| (a, b)));
        links.fold(self.at(from, cut), |plan, (a, b)| {
            plan.at(until, FaultAction::Heal(a, b))
        })
    }

    /// Loses each message with probability `p` from `from` until `until`.
    pub fn loss_window(self, p: f64, from: SimTime, until: SimTime) -> Self {
        self.at(from, FaultAction::Loss(p))
            .at(until, FaultAction::EndLoss(p))
    }

    /// Registers the actor executing this plan and arms its first timer.
    /// Returns the actor's id (an empty plan's actor never wakes).
    pub fn install<M: 'static>(mut self, sim: &mut Simulation<M>) -> ActorId {
        self.entries.sort_by_key(|(t, _)| *t);
        let first = self.entries.first().map(|(t, _)| *t);
        let id = sim.add_actor(Box::new(FaultPlanActor {
            entries: self.entries,
            next: 0,
            open: HashMap::new(),
            loss: Vec::new(),
            _marker: PhantomData::<M>,
        }));
        if let Some(at) = first {
            let delay = at.saturating_duration_since(sim.now());
            sim.start_timer(id, delay, FAULT_TIMER);
        }
        id
    }
}

/// Timer token used by the fault-plan actor (actor-internal namespace).
const FAULT_TIMER: u64 = 1;

/// The actor that executes a [`FaultPlan`]. It sends no messages: it only
/// wakes on timers, mutates the network, and crashes/restarts actors.
#[derive(Debug)]
struct FaultPlanActor<M> {
    entries: Vec<(SimTime, FaultAction)>,
    next: usize,
    /// The open windows over each crashed actor `a`, keyed `(a, a)`, and
    /// over each cut link, keyed `(a, b)` with `a < b`.
    open: HashMap<(ActorId, ActorId), u32>,
    /// The probabilities of the open loss windows.
    loss: Vec<f64>,
    _marker: PhantomData<M>,
}

impl<M> FaultPlanActor<M> {
    /// The loss probability in force: the largest open window's, or 0.
    fn loss(&self) -> f64 {
        self.loss.iter().copied().fold(0.0, f64::max)
    }

    /// Counts a window opening over `(a, b)`, or closing; true when it is
    /// the first to open or the last to close.
    fn count(&mut self, a: ActorId, b: ActorId, opens: bool) -> bool {
        let open = self.open.entry((a.min(b), a.max(b))).or_insert(0);
        *open = if opens {
            *open + 1
        } else {
            open.saturating_sub(1)
        };
        *open == u32::from(opens)
    }

    /// Counts `action` against the open windows, and applies and traces it
    /// when it changes what is down, cut or lost.
    fn apply(&mut self, ctx: &mut Context<'_, M>, action: &FaultAction) {
        let lost = self.loss();
        let changes = match action {
            FaultAction::Crash(a) => self.count(*a, *a, true),
            FaultAction::Restart(a) => self.count(*a, *a, false),
            FaultAction::PartitionGroups(l, r) => {
                let links = l.iter().flat_map(|&a| r.iter().map(move |&b| (a, b)));
                links.fold(false, |any, (a, b)| self.count(a, b, true) | any)
            }
            FaultAction::Heal(a, b) => self.count(*a, *b, false),
            FaultAction::Loss(p) => {
                self.loss.push(*p);
                self.loss() != lost
            }
            FaultAction::EndLoss(p) => {
                let at = self.loss.iter().position(|q| q == p);
                at.map(|at| self.loss.swap_remove(at));
                self.loss() != lost
            }
        };
        if !changes {
            return;
        }
        let trace = |ctx: &mut Context<'_, M>, name, detail: String| {
            ctx.trace_event("fault", name, &detail);
        };
        match action {
            FaultAction::Crash(a) => {
                trace(ctx, "fault.crash", a.to_string());
                ctx.crash(*a);
            }
            FaultAction::Restart(a) => {
                trace(ctx, "fault.restart", a.to_string());
                ctx.restart(*a);
            }
            FaultAction::PartitionGroups(l, r) => {
                trace(ctx, "fault.partition", format!("{}|{}", l.len(), r.len()));
                ctx.metrics().incr("fault.partitions", 1);
                ctx.network_mut().partition_groups(l, r);
            }
            FaultAction::Heal(a, b) => {
                trace(ctx, "fault.heal", format!("{a}<->{b}"));
                ctx.metrics().incr("fault.heals", 1);
                ctx.network_mut().heal(*a, *b);
            }
            FaultAction::Loss(_) | FaultAction::EndLoss(_) => {
                let p = self.loss();
                trace(ctx, "fault.loss", format!("p={p}"));
                ctx.metrics().incr("fault.loss_changes", 1);
                ctx.network_mut().set_loss_probability(p);
            }
        }
    }
}

impl<M> Actor<M> for FaultPlanActor<M> {
    fn on_event(&mut self, ctx: &mut Context<'_, M>, event: Event<M>) {
        if !matches!(event, Event::Timer { token: FAULT_TIMER }) {
            return;
        }
        let now = ctx.now();
        while self.next < self.entries.len() && self.entries[self.next].0 <= now {
            let action = self.entries[self.next].1.clone();
            self.apply(ctx, &action);
            self.next += 1;
        }
        if let Some(&(at, _)) = self.entries.get(self.next) {
            ctx.set_timer(at.saturating_duration_since(now), FAULT_TIMER);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[derive(Debug)]
    struct Beacon {
        peer: ActorId,
    }
    impl Actor<u32> for Beacon {
        fn on_event(&mut self, ctx: &mut Context<'_, u32>, event: Event<u32>) {
            match event {
                Event::Timer { .. } => {
                    ctx.send(self.peer, 8, 1);
                    ctx.set_timer(SimDuration::from_millis(10), 0);
                }
                Event::Message { .. } => {
                    ctx.metrics().incr("beacon.received", 1);
                }
            }
        }
        fn on_restart(&mut self, ctx: &mut Context<'_, u32>) {
            ctx.set_timer(SimDuration::ZERO, 0);
        }
    }

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn crash_window_suppresses_and_restores_an_actor() {
        let mut sim: Simulation<u32> = Simulation::new(3);
        let sink = sim.add_actor(Box::new(Beacon { peer: ActorId(0) }));
        let beacon = sim.add_actor(Box::new(Beacon { peer: sink }));
        sim.start_timer(beacon, SimDuration::ZERO, 0);
        FaultPlan::new()
            .crash_window(beacon, secs(1), secs(2))
            .install(&mut sim);
        sim.run_until(SimTime::from_secs(3));
        assert_eq!(sim.metrics().counter("fault.crashes"), 1);
        assert_eq!(sim.metrics().counter("fault.restarts"), 1);
        // ~100 beacons in [0,1), none in [1,2), ~100 in [2,3).
        let received = sim.metrics().counter("beacon.received");
        assert!(
            (190..=210).contains(&received),
            "received {received} beacons"
        );
    }

    #[test]
    fn partition_window_blocks_then_heals() {
        let mut sim: Simulation<u32> = Simulation::new(3);
        let sink = sim.add_actor(Box::new(Beacon { peer: ActorId(0) }));
        let beacon = sim.add_actor(Box::new(Beacon { peer: sink }));
        sim.start_timer(beacon, SimDuration::ZERO, 0);
        FaultPlan::new()
            .partition_window(&[beacon], &[sink], secs(1), secs(2))
            .install(&mut sim);
        sim.run_until(SimTime::from_secs(3));
        assert_eq!(sim.metrics().counter("fault.partitions"), 1);
        assert_eq!(sim.metrics().counter("fault.heals"), 1);
        assert!(sim.metrics().counter("net.dropped") >= 90);
        let received = sim.metrics().counter("beacon.received");
        assert!(
            (190..=210).contains(&received),
            "received {received} beacons"
        );
    }

    /// Beacons `sink` received by 5 s, and `net.dropped`, under `plan`
    /// over a beacon ticking every 10 ms.
    fn beacons_under(plan: impl Fn(ActorId, ActorId) -> FaultPlan) -> (u64, u64) {
        let mut sim: Simulation<u32> = Simulation::new(5);
        let sink = sim.add_actor(Box::new(Beacon { peer: ActorId(0) }));
        let beacon = sim.add_actor(Box::new(Beacon { peer: sink }));
        sim.start_timer(beacon, SimDuration::ZERO, 0);
        plan(beacon, sink).install(&mut sim);
        sim.run_until(secs(5));
        let metrics = sim.metrics();
        (
            metrics.counter("beacon.received"),
            metrics.counter("net.dropped"),
        )
    }

    /// Two windows over one actor, one link, or the whole network, from 1 s
    /// to 3 s and from 2 s to 4 s, act as one from 1 s to 4 s: the first
    /// to end neither restarts, heals nor stops the loss. Overlapping loss
    /// windows lose at the larger probability: certain loss from 1 s to
    /// 3 s, then half until 4 s.
    #[test]
    fn overlapping_windows_compose_as_their_union() {
        let (received, _) = beacons_under(|beacon, _| {
            FaultPlan::new()
                .crash_window(beacon, secs(1), secs(3))
                .crash_window(beacon, secs(2), secs(4))
        });
        assert!((195..=205).contains(&received), "received {received}");
        let (received, dropped) = beacons_under(|beacon, sink| {
            FaultPlan::new()
                .partition_window(&[beacon], &[sink], secs(1), secs(3))
                .partition_window(&[sink], &[beacon], secs(2), secs(4))
        });
        assert!((195..=205).contains(&received), "received {received}");
        assert!((295..=305).contains(&dropped), "dropped {dropped}");
        let (received, dropped) = beacons_under(|_, _| {
            FaultPlan::new()
                .loss_window(1.0, secs(1), secs(3))
                .loss_window(0.5, secs(2), secs(4))
        });
        assert!((220..=280).contains(&dropped), "dropped {dropped}");
        assert_eq!(received + dropped, 500);
    }

    #[test]
    fn plan_emits_trace_events_and_is_deterministic() {
        let run = || {
            let mut sim: Simulation<u32> = Simulation::new(9);
            let sink = sim.add_actor(Box::new(Beacon { peer: ActorId(0) }));
            let beacon = sim.add_actor(Box::new(Beacon { peer: sink }));
            sim.start_timer(beacon, SimDuration::ZERO, 0);
            FaultPlan::new()
                .loss_window(0.5, secs(1), secs(2))
                .crash_window(sink, secs(2), secs(3))
                .install(&mut sim);
            sim.run_until(SimTime::from_secs(4));
            (
                sim.metrics().counter("beacon.received"),
                sim.metrics().counter("net.dropped"),
                sim.tracer().events().count(),
            )
        };
        let (a, b, events) = run();
        assert_eq!(run(), (a, b, events));
        assert_eq!(events, 4); // loss on/off + crash + restart
        assert!(b > 0, "loss window dropped nothing");
    }
}

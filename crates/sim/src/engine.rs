//! The discrete-event engine: actors, events, and the virtual-time loop.
//!
//! Components (peers, orderers, clients, storage nodes) implement [`Actor`]
//! and exchange messages of a user-chosen type `M` through a
//! [`Simulation`]. The engine owns the event queue, the [`Network`] model,
//! one [`CpuResource`] and one forked [`DetRng`] per actor, and a shared
//! [`Metrics`] registry.
//!
//! Execution is fully deterministic: events are ordered by
//! `(time, sequence-number)` and all randomness flows from the simulation
//! seed.

use std::collections::BinaryHeap;

use crate::cpu::CpuResource;
use crate::equeue::QueueItem;
use crate::fxhash::FxHashSet;
use crate::metrics::Metrics;
use crate::net::{Delivery, Network};
use crate::profile::{HotCounters, SimProfiler};
use crate::rng::DetRng;
use crate::slo::{SloMonitor, SloSpec};
use crate::time::{SimDuration, SimTime};
use crate::trace::{SpanId, Tracer};

/// Identifies an actor registered with a [`Simulation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(pub u32);

impl std::fmt::Display for ActorId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "actor#{}", self.0)
    }
}

/// Handle to a pending timer, usable to cancel it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(u64);

/// An event delivered to an actor.
#[derive(Debug)]
pub enum Event<M> {
    /// A message from another actor (possibly itself) via the network.
    Message {
        /// The sending actor.
        src: ActorId,
        /// The payload.
        msg: M,
    },
    /// A timer set with [`Context::set_timer`] or the completion of CPU work
    /// submitted with [`Context::execute`] fired.
    Timer {
        /// The token the actor associated with the timer.
        token: u64,
    },
}

/// Embeds one component's message type into a larger application message
/// enum, so independently-written actors (blockchain peers, storage nodes,
/// application clients) can share one simulation.
pub trait Carries<T>: Sized {
    /// Wraps an inner message.
    fn wrap(inner: T) -> Self;
    /// Extracts the inner message, or gives the value back.
    ///
    /// # Errors
    ///
    /// Returns `Err(self)` when the value carries a different payload kind.
    fn peel(self) -> Result<T, Self>;
}

/// A message type carries itself: an actor that takes the whole
/// simulation's message type peels nothing off.
impl<T> Carries<T> for T {
    fn wrap(inner: T) -> Self {
        inner
    }
    fn peel(self) -> Result<T, Self> {
        Ok(self)
    }
}

/// A simulation participant.
///
/// Actors are single-threaded state machines: the engine calls
/// [`Actor::on_event`] once per delivered event, in virtual-time order.
pub trait Actor<M> {
    /// Handles one event. Use `ctx` to read the clock, send messages,
    /// set timers, run CPU work and record metrics.
    fn on_event(&mut self, ctx: &mut Context<'_, M>, event: Event<M>);

    /// Called once when this actor is restarted after a crash (see
    /// [`Context::crash`] / [`Context::restart`]). The actor should
    /// rebuild volatile state from whatever it models as durable and
    /// re-arm any periodic timers; all events queued before or during
    /// the crash window have already been dropped.
    fn on_restart(&mut self, _ctx: &mut Context<'_, M>) {}

    /// The actor's state as it shows it, rendered once as JSON (see
    /// [`crate::json::ToJson`]), for the host side to read during a run
    /// through [`Simulation::view`]. Computing it changes nothing; an actor
    /// that shows none keeps the default.
    fn view(&self) -> Option<String> {
        None
    }
}

/// Engine state shared with actors during event handling.
pub struct Kernel<M> {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<QueueItem<M>>,
    network: Network,
    cpus: Vec<CpuResource>,
    rngs: Vec<DetRng>,
    metrics: Metrics,
    tracer: Tracer,
    slo: SloMonitor,
    hot: HotCounters,
    cancelled: FxHashSet<u64>,
    next_timer: u64,
    events_processed: u64,
    /// Per-actor crash flag; events for a crashed actor are dropped.
    crashed: Vec<bool>,
    /// Per-actor crash epoch, bumped on every crash *and* restart so that
    /// anything enqueued before the restart is recognisably stale.
    epochs: Vec<u64>,
}

impl<M> Kernel<M> {
    fn push(&mut self, time: SimTime, target: ActorId, event: Event<M>, timer_id: u64) {
        self.hot.events_enqueued += 1;
        self.seq += 1;
        let epoch = self.epochs[target.0 as usize];
        self.queue.push(QueueItem {
            time,
            seq: self.seq,
            target,
            event,
            timer_id,
            epoch,
            restart: false,
        });
    }

    /// Marks `target` crashed: every event already queued for it (and any
    /// sent while it is down) is dropped at pop time.
    fn crash(&mut self, target: ActorId) {
        let slot = target.0 as usize;
        if self.crashed[slot] {
            return;
        }
        self.crashed[slot] = true;
        self.epochs[slot] += 1;
        self.metrics.incr("fault.crashes", 1);
    }

    /// Schedules a restart marker for `target` at the current instant.
    fn restart(&mut self, target: ActorId) {
        let slot = target.0 as usize;
        if !self.crashed[slot] {
            return;
        }
        self.seq += 1;
        self.queue.push(QueueItem {
            time: self.now,
            seq: self.seq,
            target,
            event: Event::Timer { token: 0 },
            timer_id: 0,
            epoch: 0,
            restart: true,
        });
    }
}

/// Capabilities available to an actor while it handles an event.
pub struct Context<'a, M> {
    id: ActorId,
    kernel: &'a mut Kernel<M>,
}

impl<M> Context<'_, M> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.kernel.now
    }

    /// Sends `msg` to `dst` through the network, accounting `bytes` of
    /// payload against the link. Dropped messages (partition/loss) are
    /// counted under the `net.dropped` metric.
    pub fn send(&mut self, dst: ActorId, bytes: u64, msg: M) {
        let src = self.id;
        self.kernel.hot.messages_sent += 1;
        let rng = &mut self.kernel.rngs[src.0 as usize];
        match self
            .kernel
            .network
            .offer(self.kernel.now, src, dst, bytes, rng)
        {
            Delivery::At(t) => self.kernel.push(t, dst, Event::Message { src, msg }, 0),
            Delivery::Dropped => self.kernel.metrics.incr("net.dropped", 1),
        }
    }

    /// Delivers `msg` to `dst` at the current instant, bypassing the
    /// network. Intended for co-located processes (e.g. a client embedded
    /// in a peer's node).
    pub fn send_local(&mut self, dst: ActorId, msg: M) {
        let src = self.id;
        self.kernel
            .push(self.kernel.now, dst, Event::Message { src, msg }, 0);
    }

    /// Fires [`Event::Timer`] with `token` on this actor after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) -> TimerId {
        self.kernel.hot.timers_set += 1;
        self.kernel.next_timer += 1;
        let id = self.kernel.next_timer;
        let at = self.kernel.now + delay;
        let target = self.id;
        self.kernel.push(at, target, Event::Timer { token }, id);
        TimerId(id)
    }

    /// Cancels a pending timer. Cancelling an already-fired timer is a
    /// no-op.
    pub fn cancel_timer(&mut self, timer: TimerId) {
        self.kernel.cancelled.insert(timer.0);
    }

    /// Submits CPU work of the given reference cost to this actor's CPU;
    /// [`Event::Timer`] with `token` fires when the work completes (after
    /// queueing behind earlier work).
    pub fn execute(&mut self, reference_cost: SimDuration, token: u64) -> TimerId {
        let now = self.kernel.now;
        let (_, end) = self.kernel.cpus[self.id.0 as usize].execute(now, reference_cost);
        self.job_done_at(end, token)
    }

    /// Like [`Context::execute`], on the CPU's read lane (see
    /// [`CpuResource::execute_read`]): the work queues behind earlier
    /// read work only.
    pub fn execute_read(&mut self, reference_cost: SimDuration, token: u64) -> TimerId {
        let now = self.kernel.now;
        let (_, end) = self.kernel.cpus[self.id.0 as usize].execute_read(now, reference_cost);
        self.job_done_at(end, token)
    }

    /// Submits a batch of independent CPU work items to this actor's CPU
    /// lanes (see [`CpuResource::execute_parallel`]); [`Event::Timer`]
    /// with `token` fires at the batch makespan. Returns the timer and
    /// the makespan instant.
    pub fn execute_parallel(&mut self, costs: &[SimDuration], token: u64) -> (TimerId, SimTime) {
        let end = self.kernel.cpus[self.id.0 as usize].execute_parallel(self.kernel.now, costs);
        (self.job_done_at(end, token), end)
    }

    /// Counts a CPU job and fires [`Event::Timer`] with `token` at `end`.
    fn job_done_at(&mut self, end: SimTime, token: u64) -> TimerId {
        self.kernel.hot.cpu_jobs += 1;
        self.kernel.next_timer += 1;
        let id = self.kernel.next_timer;
        let target = self.id;
        self.kernel.push(end, target, Event::Timer { token }, id);
        TimerId(id)
    }

    /// This actor's deterministic random stream.
    pub fn rng(&mut self) -> &mut DetRng {
        &mut self.kernel.rngs[self.id.0 as usize]
    }

    /// The shared metrics registry.
    pub fn metrics(&mut self) -> &mut Metrics {
        &mut self.kernel.metrics
    }

    /// The shared span tracer.
    pub fn tracer(&mut self) -> &mut Tracer {
        &mut self.kernel.tracer
    }

    /// Opens a tracing span for `(trace, stage, detail)` at the current
    /// virtual time. See [`Tracer::span_start`].
    pub fn span_start(&mut self, trace: &str, stage: &'static str, detail: &str) -> SpanId {
        let now = self.kernel.now;
        self.kernel.tracer.span_start(now, trace, stage, detail)
    }

    /// Closes the matching open span at the current virtual time,
    /// returning its duration. See [`Tracer::span_end`]. Closed spans
    /// also feed any latency-quantile SLOs watching this stage (see
    /// [`Simulation::set_slos`]).
    pub fn span_end(
        &mut self,
        trace: &str,
        stage: &'static str,
        detail: &str,
    ) -> Option<SimDuration> {
        let now = self.kernel.now;
        let duration = self.kernel.tracer.span_end(now, trace, stage, detail);
        if let Some(d) = duration {
            if self.kernel.slo.is_active() {
                self.kernel.slo.observe_latency(now, stage, d);
            }
        }
        duration
    }

    /// Feeds `n` events tagged `source` to the SLO monitor (goodput and
    /// error-rate objectives). A no-op when no SLOs are installed.
    pub fn slo_event_n(&mut self, source: &str, n: u64) {
        if self.kernel.slo.is_active() {
            let now = self.kernel.now;
            self.kernel.slo.observe_event_n(now, source, n);
        }
    }

    /// Records a point trace event at the current virtual time. See
    /// [`Tracer::event`].
    pub fn trace_event(&mut self, trace: &str, name: &'static str, detail: &str) {
        let now = self.kernel.now;
        self.kernel.tracer.event(now, trace, name, detail);
    }

    /// Read access to this actor's CPU (e.g. to check backlog).
    pub fn cpu(&self) -> &CpuResource {
        &self.kernel.cpus[self.id.0 as usize]
    }

    /// Mutable access to the network, for fault-injection actors.
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.kernel.network
    }

    /// Crashes `target`: its queued messages and pending timers are
    /// dropped, as is anything sent to it while down. A no-op if the
    /// actor is already crashed. Counted under `fault.crashes`.
    pub fn crash(&mut self, target: ActorId) {
        self.kernel.crash(target);
    }

    /// Restarts a crashed `target` at the current instant: the engine
    /// calls [`Actor::on_restart`] so it can rebuild from durable state.
    /// A no-op if the actor is not crashed. Counted under
    /// `fault.restarts`.
    pub fn restart(&mut self, target: ActorId) {
        self.kernel.restart(target);
    }

    /// True if `target` is currently crashed.
    pub fn is_crashed(&self, target: ActorId) -> bool {
        self.kernel.crashed[target.0 as usize]
    }
}

/// A deterministic discrete-event simulation over message type `M`.
///
/// # Examples
///
/// ```
/// use hyperprov_sim::{Actor, Context, Event, SimDuration, Simulation};
///
/// struct Echo;
/// impl Actor<String> for Echo {
///     fn on_event(&mut self, ctx: &mut Context<'_, String>, event: Event<String>) {
///         if let Event::Message { src, msg } = event {
///             ctx.metrics().incr("echoed", 1);
///             ctx.send(src, msg.len() as u64, msg);
///         }
///     }
/// }
///
/// struct Starter { peer: hyperprov_sim::ActorId }
/// impl Actor<String> for Starter {
///     fn on_event(&mut self, ctx: &mut Context<'_, String>, event: Event<String>) {
///         // The echo's reply is the last event: the run ends with it.
///         if let Event::Timer { .. } = event {
///             ctx.send(self.peer, 5, "hello".into());
///         }
///     }
/// }
///
/// let mut sim = Simulation::new(1);
/// let echo = sim.add_actor(Box::new(Echo));
/// let starter = sim.add_actor(Box::new(Starter { peer: echo }));
/// sim.start_timer(starter, SimDuration::ZERO, 0);
/// sim.run();
/// assert_eq!(sim.metrics().counter("echoed"), 1);
/// ```
pub struct Simulation<M> {
    kernel: Kernel<M>,
    actors: Vec<Option<Box<dyn Actor<M>>>>,
    /// Per-actor profiling label (e.g. `"peer"`); parallel to `actors`.
    labels: Vec<String>,
    profiler: SimProfiler,
    root_rng: DetRng,
}

impl<M> Simulation<M> {
    /// Creates an empty simulation with the given random seed.
    pub fn new(seed: u64) -> Self {
        Simulation {
            kernel: Kernel {
                now: SimTime::ZERO,
                seq: 0,
                queue: BinaryHeap::new(),
                network: Network::new(crate::net::LinkSpec::lan()),
                cpus: Vec::new(),
                rngs: Vec::new(),
                metrics: Metrics::new(),
                tracer: Tracer::default(),
                slo: SloMonitor::disabled(),
                hot: HotCounters::default(),
                cancelled: FxHashSet::default(),
                next_timer: 0,
                events_processed: 0,
                crashed: Vec::new(),
                epochs: Vec::new(),
            },
            actors: Vec::new(),
            labels: Vec::new(),
            profiler: SimProfiler::new(),
            root_rng: DetRng::new(seed),
        }
    }

    /// Registers an actor with a reference-speed CPU; returns its id.
    pub fn add_actor(&mut self, actor: Box<dyn Actor<M>>) -> ActorId {
        self.add_actor_with_cpu(actor, CpuResource::new(1.0))
    }

    /// Registers an actor with a fully specified CPU (speed and lane
    /// count), for multi-core node models.
    pub fn add_actor_with_cpu(&mut self, actor: Box<dyn Actor<M>>, cpu: CpuResource) -> ActorId {
        let id = ActorId(self.actors.len() as u32);
        self.actors.push(Some(actor));
        self.labels.push("actor".to_owned());
        self.kernel.cpus.push(cpu);
        self.kernel.rngs.push(self.root_rng.fork_index(id.0 as u64));
        self.kernel.crashed.push(false);
        self.kernel.epochs.push(0);
        id
    }

    /// Crashes `target` from outside the event loop. See [`Context::crash`].
    pub fn crash_actor(&mut self, target: ActorId) {
        self.kernel.crash(target);
    }

    /// Restarts `target` from outside the event loop. See
    /// [`Context::restart`].
    pub fn restart_actor(&mut self, target: ActorId) {
        self.kernel.restart(target);
    }

    /// True if `target` is currently crashed.
    pub fn is_crashed(&self, target: ActorId) -> bool {
        self.kernel.crashed[target.0 as usize]
    }

    /// The [view](Actor::view) of actor `id`, crashed or not; `None` for
    /// an unknown id or an actor that shows none.
    pub fn view(&self, id: ActorId) -> Option<String> {
        self.actors.get(id.0 as usize)?.as_deref()?.view()
    }

    /// Schedules an initial [`Event::Timer`] for `target`.
    pub fn start_timer(&mut self, target: ActorId, delay: SimDuration, token: u64) {
        let at = self.kernel.now + delay;
        self.kernel.push(at, target, Event::Timer { token }, 0);
    }

    /// Injects a message event from outside the simulation (src == dst).
    pub fn inject_message(&mut self, target: ActorId, msg: M) {
        let now = self.kernel.now;
        self.kernel
            .push(now, target, Event::Message { src: target, msg }, 0);
    }

    /// Mutable access to the network, for topology setup and partitions.
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.kernel.network
    }

    /// Read access to the network.
    pub fn network(&self) -> &Network {
        &self.kernel.network
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.kernel.metrics
    }

    /// The span tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.kernel.tracer
    }

    /// Installs rolling-window SLOs (see [`SloMonitor`]). Latency
    /// objectives are fed automatically from [`Context::span_end`];
    /// goodput/error objectives from [`Context::slo_event_n`]. Replaces
    /// any previously installed monitor.
    pub fn set_slos(&mut self, specs: Vec<SloSpec>) {
        self.kernel.slo = SloMonitor::new(specs);
    }

    /// The SLO monitor (empty and inert unless [`Simulation::set_slos`]
    /// was called).
    pub fn slo(&self) -> &SloMonitor {
        &self.kernel.slo
    }

    /// Mutable access to the SLO monitor (e.g. to feed host-driven
    /// observations or advance windows before a mid-run snapshot).
    pub fn slo_mut(&mut self) -> &mut SloMonitor {
        &mut self.kernel.slo
    }

    /// Sets the profiling label for `target` (e.g. `"peer"`,
    /// `"client"`); handler wall time aggregates by this label when the
    /// profiler is enabled. Defaults to `"actor"`.
    pub fn set_actor_label(&mut self, target: ActorId, label: &str) {
        self.labels[target.0 as usize] = label.to_owned();
    }

    /// Enables host-side wall-clock profiling of the event loop; the
    /// profiler's run clock starts now. See [`SimProfiler`].
    pub fn enable_profiler(&mut self) {
        self.profiler.enable();
    }

    /// The host-side profiler (disabled and empty by default).
    pub fn profiler(&self) -> &SimProfiler {
        &self.profiler
    }

    /// The kernel's allocation-free hot-path counters.
    pub fn hot_counters(&self) -> HotCounters {
        self.kernel.hot
    }

    /// Read access to an actor's CPU resource (for energy accounting).
    pub fn cpu(&self, id: ActorId) -> &CpuResource {
        &self.kernel.cpus[id.0 as usize]
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.kernel.now
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.kernel.events_processed
    }

    /// Processes a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.step_due(None)
    }

    /// [`Simulation::step`] restricted to events due at or before `limit`.
    /// The bound is re-checked after every discarded entry (cancelled
    /// timer, stale epoch), so the event processed is never later than
    /// `limit`.
    fn step_due(&mut self, limit: Option<SimTime>) -> bool {
        loop {
            if let Some(limit) = limit {
                if !matches!(self.kernel.queue.peek(), Some(item) if item.time <= limit) {
                    return false;
                }
            }
            let item = match self.kernel.queue.pop() {
                Some(item) => item,
                None => return false,
            };
            if item.timer_id != 0 && self.kernel.cancelled.remove(&item.timer_id) {
                continue; // skip cancelled timer
            }
            let slot = item.target.0 as usize;
            if item.restart {
                if !self.kernel.crashed[slot] {
                    continue; // duplicate restart marker
                }
                debug_assert!(item.time >= self.kernel.now, "time went backwards");
                self.kernel.now = item.time;
                self.kernel.events_processed += 1;
                // Bump the epoch so everything enqueued during the down
                // window is also recognisably stale, then revive.
                self.kernel.crashed[slot] = false;
                self.kernel.epochs[slot] += 1;
                self.kernel.metrics.incr("fault.restarts", 1);
                let mut actor = self.actors[slot]
                    .take()
                    .unwrap_or_else(|| panic!("restart for unknown or re-entered {}", item.target));
                {
                    let started = self.profiler.start_handler();
                    let mut ctx = Context {
                        id: item.target,
                        kernel: &mut self.kernel,
                    };
                    actor.on_restart(&mut ctx);
                    self.profiler.end_handler(started, &self.labels[slot]);
                }
                self.actors[slot] = Some(actor);
                return true;
            }
            if self.kernel.crashed[slot] || item.epoch != self.kernel.epochs[slot] {
                // Event for a crashed actor, or scheduled before its
                // latest crash/restart: drop it.
                self.kernel.metrics.incr("fault.dropped_events", 1);
                continue;
            }
            debug_assert!(item.time >= self.kernel.now, "time went backwards");
            self.kernel.now = item.time;
            self.kernel.events_processed += 1;
            let mut actor = self.actors[slot]
                .take()
                .unwrap_or_else(|| panic!("event for unknown or re-entered {}", item.target));
            {
                let started = self.profiler.start_handler();
                let mut ctx = Context {
                    id: item.target,
                    kernel: &mut self.kernel,
                };
                actor.on_event(&mut ctx, item.event);
                self.profiler.end_handler(started, &self.labels[slot]);
            }
            self.actors[slot] = Some(actor);
            return true;
        }
    }

    /// Runs until the queue is empty or an actor stops the simulation.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs events with `time <= limit`; afterwards the clock reads `limit`
    /// (even if the queue still holds later events).
    pub fn run_until(&mut self, limit: SimTime) {
        while self.step_due(Some(limit)) {}
        if self.kernel.now < limit {
            self.kernel.now = limit;
        }
    }

    /// Runs at most `max_events` events; returns how many were processed.
    pub fn run_events(&mut self, max_events: u64) -> u64 {
        let mut n = 0;
        while n < max_events && self.step() {
            n += 1;
        }
        n
    }
}

impl<M> std::fmt::Debug for Simulation<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.kernel.now)
            .field("actors", &self.actors.len())
            .field("queued", &self.kernel.queue.len())
            .field("events_processed", &self.kernel.events_processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    enum Msg {
        Ping(u32),
        Pong(u32),
    }

    struct Ponger;
    impl Actor<Msg> for Ponger {
        fn on_event(&mut self, ctx: &mut Context<'_, Msg>, event: Event<Msg>) {
            if let Event::Message {
                src,
                msg: Msg::Ping(n),
            } = event
            {
                ctx.send(src, 8, Msg::Pong(n));
            }
        }
    }

    struct Pinger {
        peer: ActorId,
        remaining: u32,
        received: Vec<u32>,
    }
    impl Actor<Msg> for Pinger {
        fn on_event(&mut self, ctx: &mut Context<'_, Msg>, event: Event<Msg>) {
            match event {
                Event::Timer { .. } if self.remaining > 0 => {
                    self.remaining -= 1;
                    ctx.send(self.peer, 8, Msg::Ping(self.remaining));
                    ctx.set_timer(SimDuration::from_millis(10), 0);
                }
                Event::Message {
                    msg: Msg::Pong(n), ..
                } => {
                    self.received.push(n);
                    let now = ctx.now();
                    ctx.metrics().incr("pongs", 1);
                    ctx.metrics().record("pong.arrival", now.as_nanos());
                }
                _ => {}
            }
        }
    }

    #[test]
    fn ping_pong_round_trips() {
        let mut sim = Simulation::new(7);
        let ponger = sim.add_actor(Box::new(Ponger));
        let pinger = sim.add_actor(Box::new(Pinger {
            peer: ponger,
            remaining: 3,
            received: Vec::new(),
        }));
        sim.start_timer(pinger, SimDuration::ZERO, 0);
        sim.run();
        assert_eq!(sim.metrics().counter("pongs"), 3);
        assert!(sim.now() >= SimTime::from_nanos(200_000)); // 2x latency
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed| {
            let mut sim = Simulation::new(seed);
            let ponger = sim.add_actor(Box::new(Ponger));
            let pinger = sim.add_actor(Box::new(Pinger {
                peer: ponger,
                remaining: 10,
                received: Vec::new(),
            }));
            sim.network_mut().set_default_link(crate::net::LinkSpec {
                latency: SimDuration::from_micros(500),
                bandwidth_bps: 10_000_000,
                jitter_frac: 0.3,
            });
            sim.start_timer(pinger, SimDuration::ZERO, 0);
            sim.run();
            let arrivals = sim.metrics().histogram("pong.arrival").unwrap().sum();
            (arrivals, sim.events_processed())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).0, run(43).0);
    }

    struct TimerCanceller {
        fired: u64,
    }
    impl Actor<()> for TimerCanceller {
        fn on_event(&mut self, ctx: &mut Context<'_, ()>, event: Event<()>) {
            match event {
                Event::Timer { token: 0 } => {
                    let keep = ctx.set_timer(SimDuration::from_millis(1), 1);
                    let drop_ = ctx.set_timer(SimDuration::from_millis(2), 2);
                    let _ = keep;
                    ctx.cancel_timer(drop_);
                }
                Event::Timer { token } => {
                    self.fired += token;
                    ctx.metrics().incr("fired", token);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn cancelled_timers_do_not_fire() {
        let mut sim = Simulation::new(1);
        let a = sim.add_actor(Box::new(TimerCanceller { fired: 0 }));
        sim.start_timer(a, SimDuration::ZERO, 0);
        sim.run();
        assert_eq!(sim.metrics().counter("fired"), 1);
    }

    struct Worker;
    impl Actor<()> for Worker {
        fn on_event(&mut self, ctx: &mut Context<'_, ()>, event: Event<()>) {
            if let Event::Timer { token: 0 } = event {
                ctx.execute(SimDuration::from_millis(50), 1);
                ctx.execute(SimDuration::from_millis(50), 2);
            } else if let Event::Timer { token } = event {
                let now = ctx.now().as_nanos() as f64;
                ctx.metrics().set_gauge(&format!("done.{token}"), now);
            }
        }
    }

    #[test]
    fn cpu_work_serialises() {
        let mut sim = Simulation::new(1);
        let w = sim.add_actor_with_cpu(Box::new(Worker), CpuResource::new(0.5)); // half speed
        sim.start_timer(w, SimDuration::ZERO, 0);
        sim.run();
        assert_eq!(sim.metrics().gauge("done.1"), Some(100_000_000.0)); // 50ms/0.5
        assert_eq!(sim.metrics().gauge("done.2"), Some(200_000_000.0));
        assert_eq!(sim.cpu(w).total_busy(), SimDuration::from_millis(200));
    }

    #[test]
    fn run_until_advances_clock_to_limit() {
        let mut sim: Simulation<()> = Simulation::new(1);
        let a = sim.add_actor(Box::new(TimerCanceller { fired: 0 }));
        sim.start_timer(a, SimDuration::from_secs(10), 0);
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.now(), SimTime::from_secs(5));
        assert_eq!(sim.events_processed(), 0);
        sim.run_until(SimTime::from_secs(20));
        assert!(sim.events_processed() > 0);
        assert_eq!(sim.now(), SimTime::from_secs(20));
    }

    struct CancelThenRearm;
    impl Actor<()> for CancelThenRearm {
        fn on_event(&mut self, ctx: &mut Context<'_, ()>, event: Event<()>) {
            match event {
                Event::Timer { token: 0 } => {
                    let early = ctx.set_timer(SimDuration::from_secs(1), 1);
                    ctx.cancel_timer(early);
                    ctx.set_timer(SimDuration::from_secs(10), 2);
                }
                Event::Timer { token } => ctx.metrics().incr("fired", token),
                _ => {}
            }
        }
    }

    #[test]
    fn run_until_does_not_overshoot_past_a_cancelled_timer() {
        let mut sim: Simulation<()> = Simulation::new(1);
        let a = sim.add_actor(Box::new(CancelThenRearm));
        sim.start_timer(a, SimDuration::ZERO, 0);
        // The cancelled 1 s entry is due before the limit; discarding it
        // must not pull the live 10 s timer forward.
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.now(), SimTime::from_secs(5));
        assert_eq!(sim.metrics().counter("fired"), 0);
        sim.run();
        assert_eq!(sim.now(), SimTime::from_secs(10));
        assert_eq!(sim.metrics().counter("fired"), 2);
    }

    #[test]
    fn partition_drops_messages_and_counts() {
        let mut sim = Simulation::new(1);
        let ponger = sim.add_actor(Box::new(Ponger));
        let pinger = sim.add_actor(Box::new(Pinger {
            peer: ponger,
            remaining: 2,
            received: Vec::new(),
        }));
        sim.network_mut().partition(pinger, ponger);
        sim.start_timer(pinger, SimDuration::ZERO, 0);
        sim.run();
        assert_eq!(sim.metrics().counter("pongs"), 0);
        assert_eq!(sim.metrics().counter("net.dropped"), 2);
    }

    struct Crashable {
        restarts: u64,
    }
    impl Actor<Msg> for Crashable {
        fn on_event(&mut self, ctx: &mut Context<'_, Msg>, event: Event<Msg>) {
            match event {
                Event::Message {
                    src,
                    msg: Msg::Ping(n),
                } => {
                    ctx.metrics().incr("handled", 1);
                    ctx.send(src, 8, Msg::Pong(n));
                }
                Event::Timer { .. } => {
                    ctx.metrics().incr("timer_fired", 1);
                }
                _ => {}
            }
        }
        fn on_restart(&mut self, ctx: &mut Context<'_, Msg>) {
            self.restarts += 1;
            ctx.metrics().incr("rebuilt", 1);
        }
    }

    #[test]
    fn crash_drops_queued_events_and_timers() {
        let mut sim = Simulation::new(1);
        let a = sim.add_actor(Box::new(Crashable { restarts: 0 }));
        sim.inject_message(a, Msg::Ping(1));
        sim.start_timer(a, SimDuration::from_millis(5), 7);
        sim.crash_actor(a);
        assert!(sim.is_crashed(a));
        sim.run();
        assert_eq!(sim.metrics().counter("handled"), 0);
        assert_eq!(sim.metrics().counter("timer_fired"), 0);
        assert_eq!(sim.metrics().counter("fault.crashes"), 1);
        assert_eq!(sim.metrics().counter("fault.dropped_events"), 2);
    }

    #[test]
    fn restart_invokes_hook_and_resumes_delivery() {
        let mut sim = Simulation::new(1);
        let a = sim.add_actor(Box::new(Crashable { restarts: 0 }));
        sim.crash_actor(a);
        // Sent while down: dropped even though the restart comes first in
        // wall-clock order below (the send is enqueued under the crash
        // epoch).
        sim.inject_message(a, Msg::Ping(1));
        sim.restart_actor(a);
        sim.run();
        assert!(!sim.is_crashed(a));
        assert_eq!(sim.metrics().counter("rebuilt"), 1);
        assert_eq!(sim.metrics().counter("fault.restarts"), 1);
        assert_eq!(sim.metrics().counter("handled"), 0);
        // Delivery works again after the restart.
        sim.inject_message(a, Msg::Ping(2));
        sim.run();
        assert_eq!(sim.metrics().counter("handled"), 1);
    }

    #[test]
    fn crash_and_restart_are_idempotent() {
        let mut sim = Simulation::new(1);
        let a = sim.add_actor(Box::new(Crashable { restarts: 0 }));
        sim.restart_actor(a); // not crashed: no-op
        sim.crash_actor(a);
        sim.crash_actor(a); // already down: no-op
        sim.restart_actor(a);
        sim.restart_actor(a); // marker deduplicated at pop time
        sim.run();
        assert_eq!(sim.metrics().counter("fault.crashes"), 1);
        assert_eq!(sim.metrics().counter("fault.restarts"), 1);
        assert_eq!(sim.metrics().counter("rebuilt"), 1);
    }

    #[test]
    fn run_events_limits_work() {
        let mut sim = Simulation::new(1);
        let ponger = sim.add_actor(Box::new(Ponger));
        let pinger = sim.add_actor(Box::new(Pinger {
            peer: ponger,
            remaining: 100,
            received: Vec::new(),
        }));
        sim.start_timer(pinger, SimDuration::ZERO, 0);
        let n = sim.run_events(5);
        assert_eq!(n, 5);
    }
}

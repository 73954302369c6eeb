//! The shared service runtime: deferred-send outbox, span-close-on-release
//! bookkeeping, CPU charging, timer-token allocation, and per-node
//! admission queues with backpressure.
//!
//! Every node actor (peer, orderer, storage, client net layer, baseline
//! nodes) owns one [`ServiceHarness`] and routes three things through it:
//!
//! 1. **Deferred work** ([`ServiceHarness::defer`]): the actor performs
//!    state mutations at message arrival, but the *results* — outbound
//!    messages and span closes — become visible only when the modelled CPU
//!    finishes the job. The harness allocates the completion token, parks
//!    the sends/closes, and releases them in [`ServiceHarness::on_timer`]
//!    (closes first, then sends).
//! 2. **Pure CPU charges** ([`ServiceHarness::charge`]): work that keeps
//!    the CPU busy but defers nothing (e.g. client-side hashing).
//! 3. **Admission** ([`ServiceHarness::admit`]): client-facing requests
//!    pass through a per-node admission queue. The default queue is
//!    unbounded and side-effect free — identical to the historical
//!    work-at-arrival model. An opt-in bound ([`QueueConfig`]) refuses
//!    arrivals past capacity, which the actor then rejects, and emits
//!    queue-depth/utilization gauges plus `queue.wait` spans.
//!
//! # Token namespacing
//!
//! Harness completion tokens always carry [`HARNESS_TOKEN_BIT`] (the top
//! bit), so they can never collide with actor-internal timer tokens (which
//! are small constants by convention). [`ServiceHarness::on_timer`] returns
//! `false` for tokens outside the harness namespace, letting the actor
//! dispatch its own timers — this replaces the old scheme where each actor
//! hand-rolled a token range and clients used a `u64::MAX` sentinel.

use std::collections::HashMap;

use crate::engine::{ActorId, Context};
use crate::metrics::{GaugeId, HistogramId, Metrics};
use crate::time::SimDuration;

/// Tag bit identifying timer tokens allocated by a [`ServiceHarness`].
///
/// Actor-internal timers must not set this bit (keeping tokens below
/// `1 << 63` — in practice they are small constants).
pub const HARNESS_TOKEN_BIT: u64 = 1 << 63;

/// A span to close when a deferred job's CPU time finishes. Spans are keyed
/// by `(trace, stage, detail)` (see [`crate::Tracer`]), so the closing
/// instruction can travel with the outbox entry instead of the message.
#[derive(Debug, Clone)]
pub struct SpanClose {
    /// Trace the span belongs to.
    pub trace: String,
    /// Pipeline stage name.
    pub stage: &'static str,
    /// Disambiguating detail (e.g. the node's metric prefix).
    pub detail: String,
}

impl SpanClose {
    /// Convenience constructor.
    pub fn new(trace: impl Into<String>, stage: &'static str, detail: impl Into<String>) -> Self {
        SpanClose {
            trace: trace.into(),
            stage,
            detail: detail.into(),
        }
    }
}

/// A deferred outbound message: `(destination, wire bytes, payload)`.
pub type Outbound<M> = (ActorId, u64, M);

/// Bound of a node's admission queue. An arrival that finds the queue
/// full is nacked: the actor sends a protocol-level rejection to the
/// caller instead of serving it.
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

/// One deferred job: messages to ship and spans to close on release.
#[derive(Debug)]
struct Deferred<M> {
    sends: Vec<Outbound<M>>,
    closes: Vec<SpanClose>,
    /// True when releasing this job completes an admitted request.
    request: bool,
}

/// Queue metric names, formatted once per queue instead of per event,
/// with lazily resolved handles for the per-request hot ones. Handles are
/// resolved against the simulation's [`Metrics`] at first use — lazily,
/// so a metric appears in exports only once it is actually recorded.
#[derive(Debug)]
struct QueueMetricNames {
    depth: String,
    nacked: String,
    wait: String,
    util: String,
    depth_id: Option<GaugeId>,
    util_id: Option<GaugeId>,
    wait_id: Option<HistogramId>,
}

impl QueueMetricNames {
    fn new(name: &str) -> Self {
        QueueMetricNames {
            depth: format!("queue.depth.{name}"),
            nacked: format!("queue.nacked.{name}"),
            wait: format!("queue.wait.{name}"),
            util: format!("queue.util.{name}"),
            depth_id: None,
            util_id: None,
            wait_id: None,
        }
    }
}

fn set_gauge_cached(m: &mut Metrics, slot: &mut Option<GaugeId>, name: &str, value: f64) {
    let id = *slot.get_or_insert_with(|| m.gauge_id(name));
    m.set_gauge_id(id, value);
}

fn record_cached(m: &mut Metrics, slot: &mut Option<HistogramId>, name: &str, value: u64) {
    let id = *slot.get_or_insert_with(|| m.histogram_id(name));
    m.record_id(id, value);
}

#[derive(Debug)]
struct QueueState {
    config: QueueConfig,
    /// Requests admitted but not yet completed.
    in_flight: usize,
    metric: QueueMetricNames,
}

/// The per-actor service runtime. See the [module docs](self).
#[derive(Debug)]
pub struct ServiceHarness<M> {
    name: String,
    next_token: u64,
    next_job: u64,
    pending: HashMap<u64, Deferred<M>>,
    queue: Option<QueueState>,
}

impl<M> ServiceHarness<M> {
    /// Creates a harness with an unbounded, uninstrumented admission queue
    /// — behaviourally identical to the historical work-at-arrival model.
    pub fn new(name: impl Into<String>) -> Self {
        ServiceHarness {
            name: name.into(),
            next_token: 0,
            next_job: 0,
            pending: HashMap::new(),
            queue: None,
        }
    }

    /// Bounds (or re-bounds) the admission queue. Also enables queue
    /// instrumentation: depth/utilization gauges and `queue.wait` spans.
    pub fn set_queue(&mut self, config: QueueConfig) {
        self.queue = Some(QueueState {
            config,
            in_flight: 0,
            metric: QueueMetricNames::new(&self.name),
        });
    }

    /// The node name used in queue metric keys.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Admitted-but-not-completed request count (0 when unbounded — the
    /// unbounded queue tracks nothing).
    pub fn in_flight(&self) -> usize {
        self.queue.as_ref().map_or(0, |q| q.in_flight)
    }

    /// Discards all volatile harness state after a crash: pending deferred
    /// jobs (their completion timers were dropped with the crash) and
    /// admitted request counts. The queue bound itself — like the node's
    /// configuration — survives. Token/job counters keep
    /// counting so post-restart tokens can never collide with stale ones.
    pub fn reset(&mut self) {
        self.pending.clear();
        if let Some(q) = &mut self.queue {
            q.in_flight = 0;
        }
    }

    /// Monotonic per-node job sequence (1, 2, 3…), for labelling deferred
    /// jobs in span details independently of completion tokens.
    pub fn next_job(&mut self) -> u64 {
        self.next_job += 1;
        self.next_job
    }

    fn alloc_token(&mut self) -> u64 {
        self.next_token += 1;
        HARNESS_TOKEN_BIT | self.next_token
    }

    /// Passes a client-facing request through the admission queue.
    ///
    /// Unbounded queues admit unconditionally with no side effects. Bounded
    /// queues admit while fewer than `capacity` requests are in flight and
    /// nack the rest. Returns `true` when the request is admitted (service
    /// it now) and `false` when the queue is full (send the caller a
    /// protocol-level rejection).
    pub fn admit(&mut self, ctx: &mut Context<'_, M>) -> bool {
        let Some(q) = &mut self.queue else {
            return true;
        };
        if q.in_flight < q.config.capacity {
            q.in_flight += 1;
            let depth = q.in_flight as f64;
            set_gauge_cached(
                ctx.metrics(),
                &mut q.metric.depth_id,
                &q.metric.depth,
                depth,
            );
            return true;
        }
        ctx.metrics().incr(&q.metric.nacked, 1);
        false
    }

    /// Defers internal work: charges `cost` to the actor's CPU and parks
    /// `sends`/`closes` until the CPU finishes. Returns the completion
    /// token (always in the harness namespace).
    pub fn defer(
        &mut self,
        ctx: &mut Context<'_, M>,
        cost: SimDuration,
        sends: Vec<Outbound<M>>,
        closes: Vec<SpanClose>,
    ) -> u64 {
        self.defer_inner(ctx, cost, sends, closes, false)
    }

    /// Like [`ServiceHarness::defer`], but releasing the job also
    /// completes one admitted request (freeing its queue slot). When the
    /// queue is bounded, a `queue.wait`
    /// span for `trace` records the time the job waits behind earlier CPU
    /// work before service starts.
    pub fn defer_request(
        &mut self,
        ctx: &mut Context<'_, M>,
        cost: SimDuration,
        trace: &str,
        sends: Vec<Outbound<M>>,
        closes: Vec<SpanClose>,
    ) -> u64 {
        if let Some(q) = &mut self.queue {
            let arrival = ctx.now();
            let start = arrival.max(ctx.cpu().busy_until());
            let tracer = ctx.tracer();
            tracer.span_start(arrival, trace, "queue.wait", &self.name);
            tracer.span_end(start, trace, "queue.wait", &self.name);
            let wait = start.saturating_duration_since(arrival);
            record_cached(
                ctx.metrics(),
                &mut q.metric.wait_id,
                &q.metric.wait,
                wait.as_nanos(),
            );
        }
        self.defer_inner(ctx, cost, sends, closes, true)
    }

    fn defer_inner(
        &mut self,
        ctx: &mut Context<'_, M>,
        cost: SimDuration,
        sends: Vec<Outbound<M>>,
        closes: Vec<SpanClose>,
        request: bool,
    ) -> u64 {
        let token = self.alloc_token();
        self.pending.insert(
            token,
            Deferred {
                sends,
                closes,
                request,
            },
        );
        ctx.execute(cost, token);
        token
    }

    /// Defers internal work charged as a *parallel batch*: the cost items
    /// are spread across the actor's CPU lanes (see
    /// [`crate::CpuResource::execute_parallel`]) and `sends`/`closes` are
    /// parked until the batch makespan. Returns the completion token and
    /// the makespan instant.
    pub fn defer_parallel(
        &mut self,
        ctx: &mut Context<'_, M>,
        costs: &[SimDuration],
        sends: Vec<Outbound<M>>,
        closes: Vec<SpanClose>,
    ) -> (u64, crate::time::SimTime) {
        let token = self.alloc_token();
        self.pending.insert(
            token,
            Deferred {
                sends,
                closes,
                request: false,
            },
        );
        let (_, end) = ctx.execute_parallel(costs, token);
        (token, end)
    }

    /// Charges pure CPU time with nothing to release — the completion
    /// timer is swallowed by [`ServiceHarness::on_timer`]. Replaces the
    /// old `u64::MAX` noop-token pattern.
    pub fn charge(&mut self, ctx: &mut Context<'_, M>, cost: SimDuration) -> u64 {
        self.defer_inner(ctx, cost, Vec::new(), Vec::new(), false)
    }

    /// Completes one admitted request that finished without deferred work
    /// (e.g. a request rejected synchronously). No-op when unbounded.
    pub fn request_done(&mut self, ctx: &mut Context<'_, M>) {
        let Some(q) = &mut self.queue else {
            return;
        };
        q.in_flight = q.in_flight.saturating_sub(1);
        let depth = q.in_flight as f64;
        set_gauge_cached(
            ctx.metrics(),
            &mut q.metric.depth_id,
            &q.metric.depth,
            depth,
        );
        let now = ctx.now();
        let util = ctx.cpu().utilization(crate::time::SimTime::ZERO, now);
        set_gauge_cached(ctx.metrics(), &mut q.metric.util_id, &q.metric.util, util);
    }

    /// Handles a timer event. Returns `true` when `token` belongs to the
    /// harness namespace (the event is fully handled); `false` when it is
    /// an actor-internal timer the caller must dispatch itself.
    ///
    /// Releasing a deferred job closes its spans at the current virtual
    /// time *first*, then ships its messages.
    pub fn on_timer(&mut self, ctx: &mut Context<'_, M>, token: u64) -> bool {
        if token & HARNESS_TOKEN_BIT == 0 {
            return false;
        }
        if let Some(job) = self.pending.remove(&token) {
            for close in &job.closes {
                ctx.span_end(&close.trace, close.stage, &close.detail);
            }
            for (dst, bytes, msg) in job.sends {
                ctx.send(dst, bytes, msg);
            }
            if job.request {
                self.request_done(ctx);
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Actor, Event, Simulation};
    use crate::time::SimTime;
    use std::cell::RefCell;
    use std::rc::Rc;

    const MS: u64 = 1_000_000;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    /// Records `(token, time)` of messages it receives.
    struct Sink {
        log: Rc<RefCell<Vec<(u64, SimTime)>>>,
    }
    impl Actor<u64> for Sink {
        fn on_event(&mut self, ctx: &mut Context<'_, u64>, event: Event<u64>) {
            if let Event::Message { msg, .. } = event {
                self.log.borrow_mut().push((msg, ctx.now()));
            }
        }
    }

    /// A service node driven by scripted timers; used to exercise the
    /// harness deterministically.
    struct Scripted {
        harness: ServiceHarness<u64>,
        sink: ActorId,
        host_timer_fired: Rc<RefCell<Vec<u64>>>,
        script: Vec<(u64, SimDuration, u64)>, // (kick token, cost, payload)
    }
    impl Actor<u64> for Scripted {
        fn on_event(&mut self, ctx: &mut Context<'_, u64>, event: Event<u64>) {
            match event {
                Event::Timer { token } => {
                    if self.harness.on_timer(ctx, token) {
                        return;
                    }
                    if let Some(&(_, cost, payload)) =
                        self.script.iter().find(|(kick, ..)| *kick == token)
                    {
                        let trace = format!("job-{payload}");
                        ctx.span_start(&trace, "svc.exec", "");
                        self.harness.defer(
                            ctx,
                            cost,
                            vec![(self.sink, 8, payload)],
                            vec![SpanClose::new(trace, "svc.exec", "")],
                        );
                    } else {
                        self.host_timer_fired.borrow_mut().push(token);
                    }
                }
                Event::Message { .. } => {}
            }
        }
    }

    #[test]
    fn release_order_under_interleaved_defers() {
        // Two jobs deferred from timers at t=0ms and t=1ms with costs 10ms
        // and 2ms: the CPU serialises them, so job 1 releases at 10ms and
        // job 2 at 12ms — completion order follows CPU order, and each
        // release ships its own payload.
        let log = Rc::new(RefCell::new(Vec::new()));
        let fired = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new(1);
        let sink = sim.add_actor(Box::new(Sink { log: log.clone() }));
        let svc = sim.add_actor(Box::new(Scripted {
            harness: ServiceHarness::new("svc"),
            sink,
            host_timer_fired: fired.clone(),
            script: vec![(1, ms(10), 100), (2, ms(2), 200)],
        }));
        sim.network_mut().set_default_link(crate::net::LinkSpec {
            latency: SimDuration::ZERO,
            bandwidth_bps: u64::MAX,
            jitter_frac: 0.0,
        });
        sim.start_timer(svc, SimDuration::ZERO, 1);
        sim.start_timer(svc, ms(1), 2);
        sim.run();
        let log = log.borrow();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0], (100, SimTime::from_nanos(10 * MS)));
        assert_eq!(log[1], (200, SimTime::from_nanos(12 * MS)));
        assert!(fired.borrow().is_empty());
    }

    #[test]
    fn spans_close_on_release_with_no_unmatched_ends() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let fired = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new(1);
        let sink = sim.add_actor(Box::new(Sink { log }));
        let script: Vec<_> = (0..8u64).map(|i| (10 + i, ms(3), i)).collect();
        let svc = sim.add_actor(Box::new(Scripted {
            harness: ServiceHarness::new("svc"),
            sink,
            host_timer_fired: fired,
            script,
        }));
        for i in 0..8u64 {
            sim.start_timer(svc, SimDuration::from_micros(i * 100), 10 + i);
        }
        sim.run();
        let tracer = sim.tracer();
        assert_eq!(tracer.spans_started(), 8);
        assert_eq!(tracer.spans_finished(), 8);
        assert!(tracer.unclosed_by_stage().is_empty());
        assert_eq!(tracer.unmatched_ends(), 0);
        assert_eq!(tracer.duplicate_starts(), 0);
    }

    #[test]
    fn harness_tokens_never_collide_with_host_timers() {
        // Host timers use small tokens (here: 3 and 7, mimicking
        // BATCH_TIMER-style constants). Even after many harness defers the
        // namespaces stay disjoint: on_timer claims exactly the harness
        // tokens and rejects the host's.
        let log = Rc::new(RefCell::new(Vec::new()));
        let fired = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new(1);
        let sink = sim.add_actor(Box::new(Sink { log: log.clone() }));
        let script: Vec<_> = (0..100u64).map(|i| (1000 + i, ms(1), i)).collect();
        let svc = sim.add_actor(Box::new(Scripted {
            harness: ServiceHarness::new("svc"),
            sink,
            host_timer_fired: fired.clone(),
            script,
        }));
        for i in 0..100u64 {
            sim.start_timer(svc, SimDuration::from_micros(i), 1000 + i);
        }
        sim.start_timer(svc, ms(5), 3);
        sim.start_timer(svc, ms(150), 7);
        sim.run();
        assert_eq!(log.borrow().len(), 100);
        assert_eq!(&*fired.borrow(), &[3, 7]);
    }

    #[test]
    fn charge_keeps_cpu_busy_but_ships_nothing() {
        struct Charger {
            harness: ServiceHarness<u64>,
        }
        impl Actor<u64> for Charger {
            fn on_event(&mut self, ctx: &mut Context<'_, u64>, event: Event<u64>) {
                if let Event::Timer { token } = event {
                    if self.harness.on_timer(ctx, token) {
                        return;
                    }
                    self.harness.charge(ctx, ms(25));
                }
            }
        }
        let mut sim = Simulation::new(1);
        let a = sim.add_actor(Box::new(Charger {
            harness: ServiceHarness::new("c"),
        }));
        sim.start_timer(a, SimDuration::ZERO, 1);
        sim.run();
        assert_eq!(sim.cpu(a).total_busy(), ms(25));
        assert_eq!(sim.now(), SimTime::from_nanos(25 * MS));
    }

    // --- bounded-queue behaviour -------------------------------------

    /// A bounded service: every incoming message is a request costing
    /// `cost`; nacks are echoed back as `payload + NACK_OFFSET`.
    struct Bounded {
        harness: ServiceHarness<u64>,
        sink: ActorId,
        cost: SimDuration,
    }
    const NACK_OFFSET: u64 = 1_000_000;
    impl Actor<u64> for Bounded {
        fn on_event(&mut self, ctx: &mut Context<'_, u64>, event: Event<u64>) {
            match event {
                Event::Message { msg: payload, .. } => {
                    if self.harness.admit(ctx) {
                        let trace = format!("req-{payload}");
                        ctx.span_start(&trace, "svc.exec", "");
                        let closes = vec![SpanClose::new(trace.clone(), "svc.exec", "")];
                        self.harness.defer_request(
                            ctx,
                            self.cost,
                            &trace,
                            vec![(self.sink, 8, payload)],
                            closes,
                        );
                    } else {
                        ctx.send(self.sink, 8, payload + NACK_OFFSET);
                    }
                }
                Event::Timer { token } => {
                    let _ = self.harness.on_timer(ctx, token);
                }
            }
        }

        fn on_restart(&mut self, _ctx: &mut Context<'_, u64>) {
            self.harness.reset();
        }
    }

    /// What a [`Sink`] saw: `(payload, arrival time)` per message.
    type SinkLog = Rc<RefCell<Vec<(u64, SimTime)>>>;

    /// A simulation with one [`Bounded`] service reporting to a [`Sink`].
    fn bounded_sim(
        queue: Option<QueueConfig>,
        cost: SimDuration,
    ) -> (Simulation<u64>, ActorId, SinkLog) {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new(1);
        let sink = sim.add_actor(Box::new(Sink { log: log.clone() }));
        let mut harness = ServiceHarness::new("svc");
        if let Some(config) = queue {
            harness.set_queue(config);
        }
        let svc = sim.add_actor(Box::new(Bounded {
            harness,
            sink,
            cost,
        }));
        (sim, svc, log)
    }

    /// Splits what the sink saw into served payloads (in order) and
    /// nacked payloads (sorted: nacks shipped in one instant may be
    /// reordered by link jitter).
    fn served_and_nacked(log: &SinkLog) -> (Vec<u64>, Vec<u64>) {
        let (mut nacks, oks): (Vec<u64>, Vec<u64>) = log
            .borrow()
            .iter()
            .map(|&(p, _)| p)
            .partition(|&p| p >= NACK_OFFSET);
        nacks.sort_unstable();
        (oks, nacks.iter().map(|p| p - NACK_OFFSET).collect())
    }

    #[test]
    fn nack_returns_request_to_actor() {
        let (mut sim, svc, log) = bounded_sim(Some(QueueConfig::new(3)), ms(5));
        for i in 0..6 {
            sim.inject_message(svc, i);
        }
        sim.run();
        let (oks, nacks) = served_and_nacked(&log);
        assert_eq!(oks, vec![0, 1, 2]);
        assert_eq!(nacks, vec![3, 4, 5]);
        assert_eq!(sim.metrics().counter("queue.nacked.svc"), 3);
    }

    #[test]
    fn full_queue_nacks_the_overflow_frees_slots_and_survives_reset() {
        let (mut sim, svc, log) = bounded_sim(Some(QueueConfig::new(2)), ms(5));
        // Four arrivals in one instant against capacity 2: exactly the
        // two past capacity are nacked.
        for i in 0..4 {
            sim.inject_message(svc, i);
        }
        // Request 0 completes at 5 ms (request 1 at 10 ms): one slot free.
        sim.run_until(SimTime::from_nanos(6 * MS));
        assert_eq!(sim.metrics().counter("queue.nacked.svc"), 2);
        assert_eq!(sim.metrics().gauge("queue.depth.svc"), Some(1.0));
        // Of two more arrivals the freed slot admits one.
        sim.inject_message(svc, 4);
        sim.inject_message(svc, 5);
        sim.run_until(SimTime::from_nanos(7 * MS));
        assert_eq!(sim.metrics().counter("queue.nacked.svc"), 3);
        assert_eq!(sim.metrics().gauge("queue.depth.svc"), Some(2.0));
        // A crash loses requests 1 and 4 mid-service; `reset()` on restart
        // forgets them, and the bound itself survives: two of three new
        // arrivals are admitted.
        sim.crash_actor(svc);
        sim.restart_actor(svc);
        sim.run_until(SimTime::from_nanos(8 * MS));
        for i in 6..9 {
            sim.inject_message(svc, i);
        }
        sim.run();
        let (oks, nacks) = served_and_nacked(&log);
        assert_eq!(oks, vec![0, 6, 7]);
        assert_eq!(nacks, vec![2, 3, 5, 8]);
        assert_eq!(sim.metrics().counter("queue.nacked.svc"), 4);
        assert_eq!(sim.metrics().gauge("queue.depth.svc"), Some(0.0));
        assert_eq!(sim.tracer().unmatched_ends(), 0);
    }

    #[test]
    fn unbounded_admit_has_no_side_effects() {
        let (mut sim, svc, _) = bounded_sim(None, ms(1));
        for i in 0..4 {
            sim.inject_message(svc, i);
        }
        sim.run();
        assert_eq!(sim.metrics().gauge("queue.depth.svc"), None);
        assert!(sim.metrics().histogram("queue.wait.svc").is_none());
    }

    proptest::proptest! {
        /// Property (ISSUE 2 satellite): under a bounded queue, every span
        /// the service opens is closed exactly once — nacked requests must
        /// never leave a dangling open span, and no close may fire without
        /// a matching open.
        #[test]
        fn nack_never_loses_span_pairing(
            capacity in 1usize..5,
            n_requests in 1u64..40,
            cost_ms in 1u64..8,
        ) {
            let (mut sim, svc, _) = bounded_sim(Some(QueueConfig::new(capacity)), ms(cost_ms));
            for i in 0..n_requests {
                sim.inject_message(svc, i);
            }
            sim.run();
            let tracer = sim.tracer();
            proptest::prop_assert_eq!(tracer.unmatched_ends(), 0);
            proptest::prop_assert_eq!(tracer.spans_started(), tracer.spans_finished());
            // Each admitted request opens at most two spans (queue.wait +
            // svc.exec); nacks open none.
            proptest::prop_assert!(tracer.spans_started() <= 2 * n_requests);
        }
    }
}

//! The host of every machine, on a real `Simulation`: a `Node` around a
//! tiny service machine. A CPU job releases its span closes, then its
//! sends, when the virtual CPU finishes it; a job's token never reaches
//! the machine; a bounded admission queue nacks past its capacity, frees
//! a slot when a request's job ends and survives a crash; an unbounded one
//! records nothing. Then a real peer in a `Node`: a query is answered
//! beside a running block commit, a write endorsed behind it, and two
//! queries on two read lanes wait for nothing.

mod support;

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use hyperprov_fabric::{
    costs, endorse, tx_trace, Action, Carries, Chaincode, ChaincodeError, ChaincodeRegistry,
    ChaincodeStub, FabricMsg, Host, Io, Machine, Node, Peer, Proposal, QueueConfig, SignedProposal,
    SigningIdentity,
};
use hyperprov_ledger::{Encode, TxId, DEFAULT_CHANNEL};
use hyperprov_sim::{
    Actor, ActorId, Context, CpuResource, Event, LinkSpec, SimDuration, SimTime, Simulation,
};

const MS: u64 = 1_000_000;

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

/// A test network's wire: a request or a reply is a number; a `Node`
/// takes fabric's messages too.
#[derive(Debug)]
enum Wire {
    N(u64),
    Fabric(Box<FabricMsg>),
}

impl Carries<u64> for Wire {
    fn wrap(inner: u64) -> Self {
        Wire::N(inner)
    }
    fn peel(self) -> Result<u64, Self> {
        match self {
            Wire::N(n) => Ok(n),
            other => Err(other),
        }
    }
}

impl Carries<FabricMsg> for Wire {
    fn wrap(inner: FabricMsg) -> Self {
        Wire::Fabric(Box::new(inner))
    }
    fn peel(self) -> Result<FabricMsg, Self> {
        match self {
            Wire::Fabric(msg) => Ok(*msg),
            other => Err(other),
        }
    }
}

/// What a [`Sink`] saw: `(payload, arrival time)` per message.
type SinkLog = Rc<RefCell<Vec<(u64, SimTime)>>>;

/// Records the numbers it receives, and when.
struct Sink(SinkLog);

impl Actor<Wire> for Sink {
    fn on_event(&mut self, ctx: &mut Context<'_, Wire>, event: Event<Wire>) {
        if let Event::Message {
            msg: Wire::N(n), ..
        } = event
        {
            self.0.borrow_mut().push((n, ctx.now()));
        }
    }
}

/// Added to a nacked request's number in the reply.
const NACK_OFFSET: u64 = 1_000_000;

/// A service: a request `n` is served by one job of `cost` that sends `n`
/// to the sink, under span `svc.exec` of trace `req-n`, and a nacked one
/// is answered with `n + NACK_OFFSET` at once. A timer whose token the
/// script names runs that job; `charge` timers only keep the CPU busy;
/// any other timer is logged in `fired`.
struct Svc {
    sink: ActorId,
    cost: SimDuration,
    /// `(timer token, cost, payload)`.
    script: Vec<(u64, SimDuration, u64)>,
    fired: Rc<RefCell<Vec<u64>>>,
    charge: Option<SimDuration>,
}

enum Own {
    /// A job of this cost sending this payload; a request's, if true.
    Job(SimDuration, u64, bool),
    Nack(u64),
}

impl Svc {
    fn new(sink: ActorId, cost: SimDuration) -> Self {
        Svc {
            sink,
            cost,
            script: Vec::new(),
            fired: Rc::default(),
            charge: None,
        }
    }

    fn serve(cost: SimDuration, n: u64, request: bool) -> Vec<Action<Own, u64>> {
        let trace = format!("req-{n}");
        let start = Action::SpanStart(trace, "svc.exec", String::new());
        vec![start, Action::Own(Own::Job(cost, n, request))]
    }
}

impl Machine for Svc {
    type Msg = u64;
    type Own = Own;
    /// How many unscripted timers fired.
    type View = usize;

    fn message(&mut self, _: ActorId, n: u64, io: Io<'_>) -> Vec<Action<Own, u64>> {
        match io.admitted {
            true => Svc::serve(self.cost, n, true),
            false => vec![Action::Own(Own::Nack(n))],
        }
    }

    fn timer(&mut self, token: u64, _: Io<'_>) -> Vec<Action<Own, u64>> {
        if let Some(cost) = self.charge {
            return vec![Action::Charge(cost)];
        }
        match self.script.iter().find(|(kick, ..)| *kick == token) {
            Some(&(_, cost, n)) => Svc::serve(cost, n, false),
            None => {
                self.fired.borrow_mut().push(token);
                Vec::new()
            }
        }
    }

    fn admits(&self, _: &u64) -> bool {
        true
    }

    fn view(&self) -> usize {
        self.fired.borrow().len()
    }

    fn perform_own<M: Carries<u64>>(
        &mut self,
        host: &mut Host<M>,
        ctx: &mut Context<'_, M>,
        own: Own,
    ) {
        let wrap = <M as Carries<u64>>::wrap;
        match own {
            Own::Job(cost, n, request) => {
                let trace = format!("req-{n}");
                let sends = vec![(self.sink, 8, wrap(n))];
                let closes = vec![(trace.clone(), "svc.exec", String::new())];
                match request {
                    true => host.request_job(ctx, cost, false, &trace, sends, closes),
                    false => host.job(ctx, cost, sends, closes),
                }
            }
            Own::Nack(n) => ctx.send(self.sink, 8, wrap(n + NACK_OFFSET)),
        }
    }
}

/// A simulation with a sink (actor 0) and the service `svc` (actor 1),
/// its admission queue bounded by `queue`.
fn service(
    svc: impl FnOnce(ActorId) -> Svc,
    queue: Option<QueueConfig>,
) -> (Simulation<Wire>, ActorId, SinkLog) {
    let log = SinkLog::default();
    let mut sim = Simulation::new(1);
    let sink = sim.add_actor(Box::new(Sink(log.clone())));
    let mut node = Node::new(svc(sink), "svc");
    if let Some(config) = queue {
        node = node.with_queue(config);
    }
    let svc = node.start(&mut sim, CpuResource::new(1.0), "svc");
    (sim, svc, log)
}

#[test]
fn jobs_release_in_cpu_order_under_interleaving() {
    // Two jobs started by timers at 0 ms and 1 ms with costs 10 ms and
    // 2 ms: the CPU serialises them, so job 1 releases at 10 ms and job 2
    // at 12 ms, each shipping its own payload.
    let script = vec![(1, ms(10), 100), (2, ms(2), 200)];
    let fired = Rc::default();
    let with_script = |sink| Svc {
        script,
        fired: Rc::clone(&fired),
        ..Svc::new(sink, ms(1))
    };
    let (mut sim, svc, log) = service(with_script, None);
    sim.network_mut().set_default_link(LinkSpec {
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
fn a_jobs_spans_close_on_release_with_no_unmatched_ends() {
    let script = (0..8u64).map(|i| (10 + i, ms(3), i)).collect();
    let (mut sim, svc, _) = service(
        |sink| Svc {
            script,
            ..Svc::new(sink, ms(1))
        },
        None,
    );
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
fn job_tokens_never_reach_the_machine() {
    // The machine's own timers use small tokens (here 3 and 7, like a
    // batch timer). Among the ends of a hundred jobs, exactly those two
    // reach it.
    let script = (0..100u64).map(|i| (1000 + i, ms(1), i)).collect();
    let fired = Rc::default();
    let with_script = |sink| Svc {
        script,
        fired: Rc::clone(&fired),
        ..Svc::new(sink, ms(1))
    };
    let (mut sim, svc, log) = service(with_script, None);
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
fn a_charge_keeps_the_cpu_busy_and_ships_nothing() {
    let charge = Some(ms(25));
    let (mut sim, svc, log) = service(
        |sink| Svc {
            charge,
            ..Svc::new(sink, ms(1))
        },
        None,
    );
    sim.start_timer(svc, SimDuration::ZERO, 1);
    sim.run();
    assert_eq!(sim.cpu(svc).total_busy(), ms(25));
    assert_eq!(sim.now(), SimTime::from_nanos(25 * MS));
    assert!(log.borrow().is_empty());
}

/// A bounded or unbounded service of requests costing `cost`.
fn requests(queue: Option<QueueConfig>, cost: SimDuration) -> (Simulation<Wire>, ActorId, SinkLog) {
    service(|sink| Svc::new(sink, cost), queue)
}

/// Splits what the sink saw into served payloads (in order) and nacked
/// payloads (sorted: nacks shipped in one instant may be reordered by
/// link jitter).
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
fn a_full_queue_nacks_the_rest() {
    let (mut sim, svc, log) = requests(Some(QueueConfig::new(3)), ms(5));
    for i in 0..6 {
        sim.inject_message(svc, Wire::N(i));
    }
    sim.run();
    let (oks, nacks) = served_and_nacked(&log);
    assert_eq!(oks, vec![0, 1, 2]);
    assert_eq!(nacks, vec![3, 4, 5]);
    assert_eq!(sim.metrics().counter("queue.nacked.svc"), 3);
}

#[test]
fn a_full_queue_frees_slots_and_survives_a_crash() {
    let (mut sim, svc, log) = requests(Some(QueueConfig::new(2)), ms(5));
    // Four arrivals in one instant against capacity 2: exactly the two
    // past capacity are nacked.
    for i in 0..4 {
        sim.inject_message(svc, Wire::N(i));
    }
    // Request 0 completes at 5 ms (request 1 at 10 ms): one slot free.
    sim.run_until(SimTime::from_nanos(6 * MS));
    assert_eq!(sim.metrics().counter("queue.nacked.svc"), 2);
    assert_eq!(sim.metrics().gauge("queue.depth.svc"), Some(1.0));
    // Of two more arrivals the freed slot admits one.
    sim.inject_message(svc, Wire::N(4));
    sim.inject_message(svc, Wire::N(5));
    sim.run_until(SimTime::from_nanos(7 * MS));
    assert_eq!(sim.metrics().counter("queue.nacked.svc"), 3);
    assert_eq!(sim.metrics().gauge("queue.depth.svc"), Some(2.0));
    // A crash loses requests 1 and 4 mid-service; the restart forgets
    // them, and the bound itself survives: two of three new arrivals are
    // admitted.
    sim.crash_actor(svc);
    sim.restart_actor(svc);
    sim.run_until(SimTime::from_nanos(8 * MS));
    for i in 6..9 {
        sim.inject_message(svc, Wire::N(i));
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
fn an_unbounded_queue_records_nothing() {
    let (mut sim, svc, _) = requests(None, ms(1));
    for i in 0..4 {
        sim.inject_message(svc, Wire::N(i));
    }
    sim.run();
    assert_eq!(sim.metrics().gauge("queue.depth.svc"), None);
    assert!(sim.metrics().histogram("queue.wait.svc").is_none());
    assert_eq!(sim.tracer().spans_started(), 4, "no queue.wait spans");
}

proptest::proptest! {
    /// Under a bounded queue every span the service opens closes exactly
    /// once: a nacked request leaves no open span, and no close fires
    /// without its open.
    #[test]
    fn a_nack_never_loses_span_pairing(
        capacity in 1usize..5,
        n_requests in 1u64..40,
        cost_ms in 1u64..8,
    ) {
        let (mut sim, svc, _) = requests(Some(QueueConfig::new(capacity)), ms(cost_ms));
        for i in 0..n_requests {
            sim.inject_message(svc, Wire::N(i));
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

/// `get` reads the key it is given; `post` also writes it.
struct KvCc;
impl Chaincode for KvCc {
    fn name(&self) -> &str {
        "kv"
    }
    fn invoke(&self, stub: &mut ChaincodeStub<'_>) -> Result<Vec<u8>, ChaincodeError> {
        let key = stub.arg_str(0)?.to_owned();
        let value = stub.get_state(&key).unwrap_or_default();
        if stub.function() == "post" {
            stub.put_state(&key, b"record".to_vec());
        }
        Ok(value)
    }
}

fn kv_proposal(client: &SigningIdentity, function: &str, nonce: u64) -> SignedProposal {
    let proposal = Proposal {
        channel: DEFAULT_CHANNEL.into(),
        chaincode: "kv".into(),
        function: function.into(),
        args: vec![b"k".to_vec()],
        creator: client.certificate().clone(),
        nonce,
    };
    SignedProposal {
        signature: client.sign(&proposal.to_bytes()),
        proposal,
    }
}

/// A client that sends its proposals to the peer when its timer fires
/// and logs when each answer arrives.
struct Asker {
    peer: ActorId,
    proposals: Vec<SignedProposal>,
    answers: Rc<RefCell<Vec<(TxId, SimTime)>>>,
}

impl Actor<Wire> for Asker {
    fn on_event(&mut self, ctx: &mut Context<'_, Wire>, event: Event<Wire>) {
        match event {
            Event::Timer { .. } => {
                for sp in self.proposals.drain(..) {
                    let msg = FabricMsg::SubmitProposal(sp);
                    ctx.send(self.peer, msg.wire_size(), Wire::Fabric(Box::new(msg)));
                }
            }
            Event::Message { msg, .. } => {
                if let Wire::Fabric(msg) = msg {
                    if let FabricMsg::ProposalResult(response) = *msg {
                        let at = ctx.now();
                        self.answers.borrow_mut().push((response.tx_id, at));
                    }
                }
            }
        }
    }
}

#[test]
fn a_query_is_answered_beside_a_running_commit_and_a_write_behind_it() {
    // A peer (one lane, bounded queue) commits a block of 40 posts from
    // t = 0; at 1 ms, while the commit job runs, a `get` and a `post`
    // arrive together.
    let (client, endorser, new_committer) = support::new_committers();
    let mut committed = new_committer();
    let blocks = support::extend_chain(&mut committed, &client, &endorser, 1, 40);
    let mut registry = ChaincodeRegistry::new();
    registry.install(Arc::new(KvCc));
    // Each answer's endorse cost, against the state after the block.
    let (get, post) = (
        kv_proposal(&client, "get", 1),
        kv_proposal(&client, "post", 2),
    );
    let cost = |sp: &SignedProposal| {
        let (msp, state) = (committed.msp(), committed.state());
        let (_, stats) = endorse(&endorser, &registry, msp, state, None, sp);
        costs::endorse_cost(&sp.proposal, &stats)
    };
    let (get_cost, post_cost) = (cost(&get), cost(&post));
    let (get_id, post_id) = (get.proposal.tx_id(), post.proposal.tx_id());

    let mut sim = Simulation::new(1);
    sim.network_mut().set_default_link(LinkSpec {
        latency: SimDuration::ZERO,
        bandwidth_bps: u64::MAX,
        jitter_frac: 0.0,
    });
    let mut peer = Peer::new(endorser.clone(), registry, "peer0".to_owned());
    peer.host(Rc::new(RefCell::new(new_committer())), None);
    let node = Node::new(peer, "peer0").with_queue(QueueConfig::new(4));
    let peer = node.start(&mut sim, CpuResource::new(1.0), "peer");
    let answers = Rc::default();
    let asker = sim.add_actor(Box::new(Asker {
        peer,
        proposals: vec![get, post],
        answers: Rc::clone(&answers),
    }));
    let block = FabricMsg::DeliverBlock(Default::default(), Arc::new(blocks[0].clone()));
    sim.inject_message(peer, Wire::Fabric(Box::new(block)));
    let arrival = SimTime::from_nanos(MS);
    sim.run_until(arrival);
    let commit_end = sim.cpu(peer).busy_until();
    assert!(commit_end > arrival + get_cost, "the commit job still runs");
    sim.start_timer(asker, SimDuration::ZERO, 1);
    sim.run();

    let answers = answers.borrow();
    let at = |id| answers.iter().find(|(tx, _)| *tx == id).unwrap().1;
    assert_eq!(answers.len(), 2);
    assert_eq!(at(get_id), arrival + get_cost);
    assert_eq!(at(post_id), commit_end + post_cost);
    // Each job's queue wait is its own lane's: none for the query, the
    // rest of the commit job for the post.
    let wait = |id| {
        let trace = tx_trace(&id);
        let mut spans = sim.tracer().finished_spans();
        let span = spans.find(|s| s.trace == trace && s.stage == "queue.wait");
        span.unwrap().duration()
    };
    assert_eq!(wait(get_id), SimDuration::ZERO);
    assert_eq!(wait(post_id), commit_end - arrival);
    let histogram = sim.metrics().histogram("queue.wait.peer0").unwrap();
    assert_eq!(histogram.count(), 2);
    assert_eq!(histogram.min(), 0);
}

#[test]
fn two_queries_on_two_read_lanes_wait_for_no_queue() {
    // A peer with two read lanes and a bounded queue: two `get`s that
    // arrive together start at once, one on each lane.
    let (client, endorser, new_committer) = support::new_committers();
    let mut registry = ChaincodeRegistry::new();
    registry.install(Arc::new(KvCc));
    let gets = vec![
        kv_proposal(&client, "get", 1),
        kv_proposal(&client, "get", 2),
    ];
    let mut sim = Simulation::new(1);
    let mut peer = Peer::new(endorser, registry, "peer0".to_owned());
    peer.host(Rc::new(RefCell::new(new_committer())), None);
    let node = Node::new(peer, "peer0").with_queue(QueueConfig::new(4));
    let peer = node.start(&mut sim, CpuResource::new(1.0).with_read_lanes(2), "peer");
    let answers = Rc::default();
    let asker = sim.add_actor(Box::new(Asker {
        peer,
        proposals: gets,
        answers: Rc::clone(&answers),
    }));
    sim.start_timer(asker, SimDuration::ZERO, 1);
    sim.run();

    assert_eq!(answers.borrow().len(), 2);
    let waits = sim
        .tracer()
        .finished_spans()
        .filter(|s| s.stage == "queue.wait");
    assert!(waits.map(|s| s.duration()).eq([SimDuration::ZERO; 2]));
    let histogram = sim.metrics().histogram("queue.wait.peer0").unwrap();
    assert_eq!((histogram.count(), histogram.max()), (2, 0));
}

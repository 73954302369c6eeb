//! The gateway machine, driven with no simulation: first one directed
//! test per transition (inputs in, actions out), then the rings and homes
//! leg by leg and one finding pinned as it stands, then the commit-status
//! probes and the homes their answers move, then two seeded property tests
//! over a model network — one that drops, duplicates and reorders replies,
//! answers probes (found or not) and fires timers early or late, one that
//! is clean but for a dead node.

#[path = "support/sched.rs"]
mod sched;

use std::collections::{BTreeMap, BTreeSet};

use hyperprov_fabric::{
    tx_trace, Caller, Carries, CommitEvent, FabricMsg, Gateway, GatewayAction as Action,
    GatewayDone as Done, GatewayReply, GatewayView, Host, Io, Machine, MspBuilder, MspId,
    ProposalResponse, RetryPolicy, Route, SigningIdentity, BUSY_REASON,
};
use hyperprov_ledger::{ChannelId, RwSet, TxId, ValidationCode};
use hyperprov_sim::{ActorId, Context, SimDuration, SimTime};
use proptest::prelude::*;

use sched::{Rng, Sched};

/// The orderers of every route, home first.
const ORDERERS: [ActorId; 3] = [ActorId(90), ActorId(91), ActorId(92)];
const ENDORSE: SimDuration = SimDuration::from_secs(5);
const COMMIT: SimDuration = SimDuration::from_secs(12);
/// The floor of the endorse and order waits' retransmission timeout: the
/// model network answers at once, so every timed endorse or order wait
/// re-sends at it.
const MIN_RTO: SimDuration = SimDuration::from_millis(200);
/// The floor of the commit wait's retransmission timeout.
const MIN_COMMIT_RTO: SimDuration = SimDuration::from_millis(50);

/// The caller's tag: a request number, traced the way the client does.
#[derive(Debug, PartialEq)]
struct Req(u32);

impl Caller for Req {
    fn trace(&self) -> String {
        format!("op-{}", self.0)
    }
}

/// The gateway's own actor.
const CLIENT: ActorId = ActorId(100);

/// The endorsers of route `shard`, home first: actors `10 * (shard + 1)`
/// and the next two.
fn endorsers(shard: usize) -> Vec<ActorId> {
    let home = 10 * (shard as u32 + 1);
    (home..home + 3).map(ActorId).collect()
}

/// A gateway on its own, as the model host drives it.
struct Bare(Gateway<Req>);

impl Machine for Bare {
    type Msg = FabricMsg;
    type Own = Done<Req>;
    type View = GatewayView;

    fn message(&mut self, src: ActorId, msg: FabricMsg, io: Io<'_>) -> Vec<Action<Req>> {
        self.0.on_message(src, msg, io.now, io.rng)
    }

    fn timer(&mut self, token: u64, _: Io<'_>) -> Vec<Action<Req>> {
        self.0.on_timer(token)
    }

    fn view(&self) -> GatewayView {
        self.0.view()
    }

    fn perform_own<M: Carries<FabricMsg>>(
        &mut self,
        _: &mut Host<M>,
        _: &mut Context<'_, M>,
        _: Done<Req>,
    ) {
        unreachable!("no kernel hosts a bare gateway: a client performs its ends")
    }
}

/// The requests in flight, those sleeping out a backoff included, as the
/// gateway's view shows them.
fn rows(gateway: &Gateway<Req>) -> usize {
    let view = gateway.view();
    view.endorsing + view.commit_wait + view.query
}

/// Where the next request on route `shard` starts: home endorser, home
/// orderer.
fn homes(gateway: &Gateway<Req>, shard: usize) -> (ActorId, ActorId) {
    gateway.view().routes[shard].homes
}

struct Bench {
    sched: Sched<Bare>,
    /// The identity of each route's first, second and third endorser.
    peers: Vec<SigningIdentity>,
}

/// A gateway with `shards` routes (three endorsers and three orderers
/// each), both deadlines when `deadlines`, and a retry budget when given.
fn bench(shards: usize, deadlines: bool, budget: Option<u32>) -> Bench {
    let (endorse, commit) = (deadlines.then_some(ENDORSE), deadlines.then_some(COMMIT));
    bench_with(shards, endorse, commit, budget)
}

/// [`bench`] with each deadline given on its own.
fn bench_with(
    shards: usize,
    endorse: Option<SimDuration>,
    commit: Option<SimDuration>,
    budget: Option<u32>,
) -> Bench {
    let routes = (0..shards)
        .map(|shard| Route::new(format!("ch{shard}"), endorsers(shard), ORDERERS.to_vec()))
        .collect();
    bench_on(routes, endorse, commit, budget)
}

/// A gateway on `routes`, with deadlines and a retry budget as in
/// [`bench_with`].
fn bench_on(
    routes: Vec<Route>,
    endorse: Option<SimDuration>,
    commit: Option<SimDuration>,
    budget: Option<u32>,
) -> Bench {
    let mut msp = MspBuilder::new(3);
    let org = MspId::new("org1");
    let client = msp.enroll("client", &org);
    let peers = (0..3)
        .map(|i| msp.enroll(&format!("peer{i}"), &org))
        .collect();
    let mut gateway = Gateway::new(client, routes).with_deadlines(endorse, commit);
    if let Some(budget) = budget {
        gateway = gateway.with_retry(RetryPolicy::new(budget));
    }
    let sched = Sched::new([(CLIENT, Bare(gateway))], Rng::new(11));
    Bench { sched, peers }
}

impl Bench {
    fn gateway(&self) -> &Gateway<Req> {
        &self.sched.machines[0].0
    }

    fn invoke(&mut self, shard: usize, req: u32) -> Vec<Action<Req>> {
        let args = vec![b"k".to_vec()];
        self.sched.input(0, |g, io| {
            g.0.invoke(shard, Req(req), io.now, "cc", "put", args)
        })
    }

    fn query(&mut self, shard: usize, req: u32) -> Vec<Action<Req>> {
        let args = vec![b"k".to_vec()];
        self.sched.input(0, |g, io| {
            g.0.query(shard, Req(req), io.now, "cc", "get", args)
        })
    }

    /// A reply from route 0's home node of its kind: an endorser's answer
    /// from the home endorser, anything else from the home orderer. The
    /// gateway reads the sender of a refusal, an endorsement and a probe's
    /// answer; [`Bench::message_from`] names another.
    fn message(&mut self, msg: FabricMsg) -> Vec<Action<Req>> {
        let src = match msg {
            FabricMsg::ProposalResult(_) => endorsers(0)[0],
            _ => ORDERERS[0],
        };
        self.sched.message(0, src, msg)
    }

    /// A reply from `src`.
    fn message_from(&mut self, src: u32, msg: FabricMsg) -> Vec<Action<Req>> {
        self.sched.message(0, ActorId(src), msg)
    }

    fn timer(&mut self, token: u64) -> Vec<Action<Req>> {
        self.sched.fire(0, token)
    }

    /// The home endorser's answer to the proposal `tx_id`.
    fn answer(&self, tx_id: TxId, result: Result<&[u8], &str>) -> FabricMsg {
        self.answer_by(endorsers(0)[0].0, tx_id, result)
    }

    /// Endorser `src`'s answer to the proposal `tx_id`, signed as it.
    fn answer_by(&self, src: u32, tx_id: TxId, result: Result<&[u8], &str>) -> FabricMsg {
        let peer = &self.peers[src as usize % 10];
        FabricMsg::ProposalResult(ProposalResponse {
            tx_id,
            endorser: peer.certificate().clone(),
            result: result.map(<[u8]>::to_vec).map_err(str::to_owned),
            rwset: RwSet::new(),
            event: None,
            signature: peer.sign(b"endorsement"),
        })
    }
}

/// The home peer's commit notification for `tx_id`.
fn commit(tx_id: TxId) -> FabricMsg {
    FabricMsg::Commit(event(tx_id, ValidationCode::Valid))
}

/// A probed peer's answer for `tx_id`, validated as `code`.
fn answer(tx_id: TxId, code: ValidationCode) -> FabricMsg {
    FabricMsg::CommitStatusAnswer(event(tx_id, code))
}

/// A probed peer's answer that it holds no code for `tx_id`.
fn not_found(tx_id: TxId) -> FabricMsg {
    FabricMsg::CommitStatusNotFound(tx_id)
}

/// The commit event of `tx_id`, validated as `code`.
fn event(tx_id: TxId, code: ValidationCode) -> CommitEvent {
    CommitEvent {
        channel: ChannelId::default(),
        tx_id,
        block_number: 1,
        code,
        chaincode_event: None,
        creator: None,
        endorser: None,
    }
}

/// An orderer's answer to the envelope of `tx_id`, which asked.
fn ack(tx_id: TxId, accepted: bool) -> FabricMsg {
    FabricMsg::BroadcastAck { tx_id, accepted }
}

/// The tx id of the proposal (or envelope) these actions send.
fn tx_of(actions: &[Action<Req>]) -> TxId {
    actions
        .iter()
        .find_map(|action| match action {
            Action::Send(_, _, FabricMsg::SubmitProposal(signed)) => Some(signed.proposal.tx_id()),
            Action::Send(_, _, FabricMsg::Broadcast { envelope, .. }) => Some(envelope.tx_id()),
            _ => None,
        })
        .expect("the actions send a proposal")
}

/// The tx id of each envelope these actions send, and whether it is
/// marked a copy.
fn envelopes(actions: &[Action<Req>]) -> Vec<(TxId, bool)> {
    let sent = actions.iter().filter_map(|action| match action {
        Action::Send(_, _, FabricMsg::Broadcast { envelope, copy, .. }) => {
            Some((envelope.tx_id(), *copy))
        }
        _ => None,
    });
    sent.collect()
}

/// The token of the last timer these actions arm.
fn armed_by(actions: &[Action<Req>]) -> u64 {
    let armed = actions.iter().rev().find_map(|action| match action {
        Action::Arm(token, _) => Some(*token),
        _ => None,
    });
    armed.expect("the actions arm a timer")
}

/// One short word per action, so a transition reads as a line.
fn show(actions: &[Action<Req>]) -> Vec<String> {
    actions
        .iter()
        .map(|action| match action {
            Action::Charge(_) => "charge".to_owned(),
            Action::Send(to, _, FabricMsg::SubmitProposal(_)) => format!("propose->{}", to.0),
            // An envelope that asks for the orderer's answer.
            Action::Send(to, _, FabricMsg::Broadcast { ack: true, .. }) => {
                format!("broadcast?->{}", to.0)
            }
            Action::Send(to, _, FabricMsg::Broadcast { .. }) => format!("broadcast->{}", to.0),
            Action::Send(to, _, FabricMsg::CommitStatus { .. }) => format!("probe->{}", to.0),
            Action::Send(..) => "send?".to_owned(),
            // Before any sample a commit-wait's first probe is due at the
            // endorse deadline, and the deadline the rest of the way on.
            Action::Arm(token, delay) if *delay == ENDORSE => format!("arm#{token}=endorse"),
            Action::Arm(token, delay) if *delay == COMMIT => format!("arm#{token}=commit"),
            Action::Arm(token, delay) if *delay == COMMIT - ENDORSE => format!("arm#{token}=rest"),
            Action::Arm(token, delay) if *delay == MIN_RTO => format!("arm#{token}=rto"),
            Action::Arm(token, delay) if *delay == MIN_COMMIT_RTO => {
                format!("arm#{token}=commit_rto")
            }
            Action::Arm(token, _) => format!("arm#{token}=backoff"),
            Action::Disarm(token) => format!("disarm#{token}"),
            Action::SpanStart(_, stage, _) => format!("[{stage}"),
            Action::SpanEnd(_, stage, _) => format!("{stage}]"),
            Action::Note(trace, name, _) if trace.starts_with("op-") => format!("!{name}@{trace}"),
            // A home move, with its ring and both positions.
            Action::Note(_, "route.home", moved) => format!("!home {moved}"),
            Action::Note(_, name, _) => format!("!{name}"),
            Action::Count(None, name, 1) => format!("+client.{name}"),
            Action::Observe("backoff", _) => "backoff".to_owned(),
            Action::Own(Done(Req(n), Ok(GatewayReply::Bytes(_)))) => format!("done{n}=bytes"),
            Action::Own(Done(Req(n), Ok(GatewayReply::Committed { code, .. }))) => {
                format!("done{n}={code:?}")
            }
            Action::Own(Done(Req(n), Err(error))) => format!("done{n}={error:?}"),
            other => panic!("not a gateway's action: {other:?}"),
        })
        .collect()
}

/// One test per transition of the machine.
mod transitions {
    use super::*;

    #[test]
    fn an_invoke_endorses_submits_and_commits_under_one_timer_at_a_time() {
        let mut b = bench(1, true, None);
        let issued = b.invoke(0, 1);
        let start = ["charge", "[endorse", "arm#1=endorse", "propose->10"];
        assert_eq!(show(&issued), start);
        let tx = tx_of(&issued);
        // The one endorsement is submitted at once. The envelope asks, and
        // the orderer's answer is awaited under the endorse deadline: one
        // node answers it.
        let submitted = b.message(b.answer(tx, Ok(b"r")));
        let submit = [
            "disarm#1",
            "arm#2=endorse",
            "broadcast?->90",
            "endorse]",
            "[commit_wait",
        ];
        assert_eq!(show(&submitted), submit);
        assert_eq!(tx_of(&submitted), tx);
        let envelope = submitted.iter().find_map(|action| match action {
            Action::Send(_, _, FabricMsg::Broadcast { envelope, .. }) => Some(envelope),
            _ => None,
        });
        let endorsements = &envelope.expect("submitted").endorsements;
        assert_eq!(endorsements.len(), 1);
        assert_eq!(&endorsements[0].endorser, b.peers[0].certificate());
        // In commit-wait the one wake-up is the first status probe, due at
        // the endorse deadline before the route has timed a commit.
        assert_eq!(
            show(&b.message(ack(tx, true))),
            ["disarm#2", "arm#3=endorse"]
        );
        // A duplicate answer finds the row past ordering.
        assert!(b.message(ack(tx, true)).is_empty());
        let done = ["disarm#3", "commit_wait]", "done1=Valid"];
        assert_eq!(show(&b.message(commit(tx))), done);
        assert_eq!(rows(b.gateway()), 0);
    }

    #[test]
    fn a_query_asks_the_first_endorser_and_ends_on_its_answer() {
        let mut b = bench(1, true, None);
        let issued = b.query(0, 1);
        let start = ["charge", "[query", "arm#1=endorse", "propose->10"];
        assert_eq!(show(&issued), start);
        let answer = b.answer(tx_of(&issued), Ok(b"v"));
        assert_eq!(
            show(&b.message(answer)),
            ["disarm#1", "query]", "done1=bytes"]
        );
        // A rejected query is the chaincode's error, with no note.
        let issued = b.query(0, 2);
        let answer = b.answer(tx_of(&issued), Err("not found"));
        let rejected = show(&b.message(answer));
        assert_eq!(rejected[..2], ["disarm#2", "query]"]);
        assert!(rejected[2].starts_with("done2=Query"), "{rejected:?}");
        assert_eq!(rows(b.gateway()), 0);
    }

    #[test]
    fn without_deadlines_no_timer_is_ever_armed() {
        let mut b = bench(1, false, None);
        let issued = b.invoke(0, 1);
        assert_eq!(show(&issued), ["charge", "[endorse", "propose->10"]);
        let tx = tx_of(&issued);
        let submit = ["broadcast->90", "endorse]", "[commit_wait"];
        assert_eq!(show(&b.message(b.answer(tx, Ok(b"r")))), submit);
        assert_eq!(
            show(&b.message(commit(tx))),
            ["commit_wait]", "done1=Valid"]
        );
    }

    /// With no endorse deadline the envelope does not ask, and the row
    /// goes straight to commit-wait: a deployment without deadlines sends
    /// and arms exactly what it did before the orderer answered.
    #[test]
    fn without_an_endorse_deadline_the_envelope_does_not_ask() {
        let mut b = bench_with(1, None, Some(COMMIT), Some(3));
        let tx = tx_of(&b.invoke(0, 1));
        let submit = ["arm#1=commit", "broadcast->90", "endorse]", "[commit_wait"];
        assert_eq!(show(&b.message(b.answer(tx, Ok(b"r")))), submit);
        // An answer nobody asked for changes nothing.
        assert!(b.message(ack(tx, false)).is_empty());
        // The deadline sends the same envelope again and waits again, with
        // no probe: nothing is copied before an endorse deadline.
        let again = show(&b.timer(1));
        assert_eq!(again[..2], ["!commit.timeout", "+client.home_moves"]);
        assert_eq!(again[6..], ["broadcast->91", "arm#2=commit"]);
    }

    #[test]
    fn a_rejection_with_no_copy_out_fails_at_once() {
        let mut b = bench(1, true, None);
        let tx = tx_of(&b.invoke(0, 1));
        let failed = show(&b.message(b.answer(tx, Err("no such key"))));
        assert_eq!(failed[..3], ["disarm#1", "endorse]", "!endorse.rejected"]);
        assert!(failed[3].starts_with("done1=Endorsement"), "{failed:?}");
        assert_eq!(failed.len(), 4);
        // A late answer finds no row.
        assert!(b.message(b.answer(tx, Ok(b"r"))).is_empty());
        assert_eq!(rows(b.gateway()), 0);
    }

    #[test]
    fn an_extra_endorsement_after_submit_is_stale() {
        let mut b = bench(1, true, None);
        let tx = tx_of(&b.invoke(0, 1));
        assert_eq!(b.message(b.answer(tx, Ok(b"r"))).len(), 5);
        assert!(b.message(b.answer(tx, Ok(b"r"))).is_empty());
        assert!(b.message(b.answer(tx, Err("late"))).is_empty());
        assert_eq!(rows(b.gateway()), 1);
    }

    #[test]
    fn a_commit_completes_only_a_transaction_waiting_for_it() {
        let mut b = bench(1, true, None);
        let ours = tx_of(&b.invoke(0, 1));
        // Somebody else's transaction; ours before it was submitted; a
        // query's proposal id.
        assert!(b.message(commit(TxId::default())).is_empty());
        assert!(b.message(commit(ours)).is_empty());
        let query = tx_of(&b.query(0, 2));
        assert!(b.message(commit(query)).is_empty());
        assert_eq!(rows(b.gateway()), 2);
        // Ours once submitted: a commit that overtakes the orderer's answer
        // completes it, and the answer then finds nothing.
        b.message(b.answer(ours, Ok(b"r")));
        let done = ["disarm#3", "commit_wait]", "done1=Valid"];
        assert_eq!(show(&b.message(commit(ours))), done);
        assert!(b.message(ack(ours, true)).is_empty());
        assert_eq!(rows(b.gateway()), 1);
    }

    #[test]
    fn each_deadline_closes_its_own_span_and_leaves_nothing_behind() {
        let mut b = bench(1, true, None);
        // Endorse deadline.
        // Each deadline moves the home of the ring it blames, counted and
        // noted with the ring and both positions.
        b.invoke(0, 1);
        let expired = [
            "!endorse.timeout",
            "+client.home_moves",
            "!home endorsers 0->1",
            "+client.timeouts",
            "endorse]",
            "done1=EndorseTimeout",
        ];
        assert_eq!(show(&b.timer(1)), expired);
        // Query deadline: nothing has been timed yet, so nothing re-sends.
        b.query(0, 2);
        let expired = [
            "!query.timeout",
            "+client.home_moves",
            "!home endorsers 1->2",
            "+client.timeouts",
            "query]",
            "done2=EndorseTimeout",
        ];
        assert_eq!(show(&b.timer(2)), expired);
        // The orderer's answer (token 3 was the endorse deadline it
        // replaced).
        let tx = tx_of(&b.invoke(0, 3));
        b.message(b.answer(tx, Ok(b"r")));
        // A submitted row closes its span as it ends.
        let expired = [
            "!order.timeout",
            "+client.home_moves",
            "!home orderers 0->1",
            "+client.timeouts",
            "commit_wait]",
            "done3=CommitTimeout",
        ];
        assert_eq!(show(&b.timer(4)), expired);
        // Commit deadline, after the answer and one unanswered probe; the
        // endorsement, timed now, is awaited at its RTO first (token 5).
        let tx = tx_of(&b.invoke(0, 4));
        b.message(b.answer(tx, Ok(b"r")));
        b.message(ack(tx, true));
        assert_eq!(
            show(&b.timer(7)),
            ["!commit.probe", "probe->10", "arm#8=rest"]
        );
        let expired = [
            "!commit.timeout",
            "+client.home_moves",
            "!home endorsers 2->0",
            "+client.timeouts",
            "commit_wait]",
            "done4=CommitTimeout",
        ];
        assert_eq!(show(&b.timer(8)), expired);
        assert_eq!(rows(b.gateway()), 0);
        // Nothing is left to fire: every token is spent or disarmed.
        for token in 0..10 {
            assert!(b.timer(token).is_empty());
        }
    }

    /// An endorse deadline with budget left sends the same signed
    /// proposal to the next endorser at once, with no backoff and no
    /// second proposal, and waits out a whole deadline again; the span
    /// stays open and the request ends under its one tx id.
    #[test]
    fn an_endorse_deadline_re_sends_the_same_proposal_to_the_next_endorser_at_once() {
        let mut b = bench(1, true, Some(3));
        let tx = tx_of(&b.invoke(0, 7));
        let retried = b.timer(1);
        let again = [
            "!endorse.timeout",
            "+client.home_moves",
            "!home endorsers 0->1",
            "+client.timeouts",
            "+client.retries",
            "!op.retry@op-7",
            "!endorse.resend",
            "propose->11",
            "arm#2=endorse",
        ];
        assert_eq!(show(&retried), again);
        assert_eq!(tx_of(&retried), tx);
        assert_eq!(rows(b.gateway()), 1);
        b.message(b.answer(tx, Ok(b"r")));
        let done = ["disarm#3", "commit_wait]", "done7=Valid"];
        assert_eq!(show(&b.message(commit(tx))), done);
        assert_eq!(rows(b.gateway()), 0);
    }

    /// A `Busy` with budget left sleeps out a backoff as the row's one
    /// armed wake-up, its span open, then sends the same proposal to the
    /// next endorser in a wait that starts again: its first copy due at the
    /// route's RTO (the `Busy` timed the endorse wait), then its deadline.
    /// One tx id, one place along the ring.
    #[test]
    fn busy_backs_off_then_re_sends_the_same_proposal_to_the_next_endorser() {
        let mut b = bench(1, true, Some(3));
        let tx = tx_of(&b.invoke(0, 1));
        let shed = [
            "!endorse.rejected",
            "+client.retries",
            "backoff",
            "!op.retry@op-1",
            "disarm#1",
            "arm#2=backoff",
        ];
        assert_eq!(show(&b.message(b.answer(tx, Err(BUSY_REASON)))), shed);
        assert_eq!(rows(b.gateway()), 1);
        let again = b.timer(2);
        let copy = ["!endorse.resend", "propose->11", "arm#3=rto"];
        assert_eq!(show(&again), copy);
        assert_eq!(tx_of(&again), tx);
        let submitted = show(&b.message(b.answer(tx, Ok(b"r"))));
        assert_eq!(submitted[2], "broadcast?->90");
    }

    /// A retry policy acts only under deadlines: without them `Busy` is
    /// the request's outcome.
    #[test]
    fn without_deadlines_a_retry_policy_retries_nothing() {
        let mut b = bench(1, false, Some(2));
        let tx = tx_of(&b.query(0, 1));
        let shed = ["query]", "done1=Busy"];
        assert_eq!(show(&b.message(b.answer(tx, Err(BUSY_REASON)))), shed);
        assert_eq!(rows(b.gateway()), 0);
    }

    #[test]
    fn a_spent_budget_reports_its_attempts() {
        let mut b = bench(1, true, Some(2));
        b.invoke(0, 1);
        // Endorse deadline -> the same proposal to the next endorser.
        assert_eq!(b.timer(1).len(), 9);
        let exhausted = [
            "!endorse.timeout",
            "+client.home_moves",
            "!home endorsers 1->2",
            "+client.timeouts",
            "endorse]",
            "+client.exhausted",
            "done1=Exhausted { attempts: 2 }",
        ];
        assert_eq!(show(&b.timer(2)), exhausted);
        assert_eq!(rows(b.gateway()), 0);
    }

    #[test]
    fn an_error_that_is_not_transient_ends_at_once_under_a_retry_policy() {
        let mut b = bench(1, true, Some(5));
        let tx = tx_of(&b.invoke(0, 1));
        let failed = show(&b.message(b.answer(tx, Err("bad argument"))));
        assert!(failed[3].starts_with("done1=Endorsement"), "{failed:?}");
        assert_eq!(rows(b.gateway()), 0);
    }

    /// A retry is the same request: a late answer of the endorser whose
    /// deadline passed endorses it, and the copy's answer after submit is
    /// stale.
    #[test]
    fn a_late_answer_to_a_retried_request_is_its_answer() {
        let mut b = bench(1, true, Some(3));
        let tx = tx_of(&b.invoke(0, 1));
        assert_eq!(show(&b.timer(1))[7], "propose->11");
        let submitted = show(&b.message_from(10, b.answer_by(10, tx, Ok(b"r"))));
        assert_eq!(
            submitted[..3],
            ["disarm#2", "arm#3=endorse", "broadcast?->90"]
        );
        assert!(b.message_from(11, b.answer_by(11, tx, Ok(b"r"))).is_empty());
        assert_eq!(rows(b.gateway()), 1);
    }

    /// A late refusal by the endorser a deadline passed answers a send the
    /// retry wrote off: it fails nothing while the retry's send is out, and
    /// the refusal of that send is the one that counts.
    #[test]
    fn a_late_refusal_of_a_written_off_send_fails_nothing() {
        let mut b = bench(1, true, Some(3));
        let tx = tx_of(&b.invoke(0, 1));
        assert_eq!(show(&b.timer(1))[7], "propose->11");
        assert!(b
            .message_from(10, b.answer_by(10, tx, Err(BUSY_REASON)))
            .is_empty());
        let shed = show(&b.message_from(11, b.answer_by(11, tx, Err(BUSY_REASON))));
        assert_eq!(shed[..2], ["!endorse.rejected", "+client.retries"]);
        assert_eq!(rows(b.gateway()), 1);
    }

    /// Runs request `req` on route 0 — an invoke, or a query — to its end
    /// on a network where the nodes in `dead` answer nothing and every
    /// other node answers at once: endorsements, the orderer's answer and
    /// the commit. So only a dead node's deadline fires. Returns whom its
    /// proposals and its envelopes were sent to, in order.
    fn addressed(b: &mut Bench, req: u32, invoke: bool, dead: &[u32]) -> (Vec<u32>, Vec<u32>) {
        let (mut proposals, mut envelopes) = (Vec::new(), Vec::new());
        let mut actions = match invoke {
            true => b.invoke(0, req),
            false => b.query(0, req),
        };
        let mut armed = 0;
        loop {
            let mut replies = Vec::new();
            for action in &actions {
                match action {
                    Action::Send(to, _, FabricMsg::SubmitProposal(signed)) => {
                        proposals.push(to.0);
                        let tx = signed.proposal.tx_id();
                        let answer = (!dead.contains(&to.0))
                            .then(|| (to.0, b.answer_by(to.0, tx, Ok(b"r"))));
                        replies.extend(answer);
                    }
                    Action::Send(to, _, FabricMsg::Broadcast { envelope, .. }) => {
                        envelopes.push(to.0);
                        if !dead.contains(&to.0) {
                            replies.push((to.0, ack(envelope.tx_id(), true)));
                            replies.push((to.0, commit(envelope.tx_id())));
                        }
                    }
                    Action::Arm(token, _) => armed = *token,
                    Action::Own(Done(..)) => return (proposals, envelopes),
                    _ => {}
                }
            }
            actions = match replies.is_empty() {
                true => b.timer(armed),
                false => replies
                    .into_iter()
                    .flat_map(|(src, reply)| b.message_from(src, reply))
                    .collect(),
            };
        }
    }

    /// A dead home endorser costs its client one endorse deadline per
    /// outage, not one per request: the retry goes one place along the
    /// endorsers' ring only, and the expiry moves the endorsers' home past
    /// the dead node, so the next request starts where the retry went.
    #[test]
    fn a_retry_goes_to_the_next_endorser() {
        let mut b = bench(1, true, Some(4));
        assert_eq!(addressed(&mut b, 1, true, &[10]), (vec![10, 11], vec![90]));
        assert_eq!(homes(b.gateway(), 0), (ActorId(11), ActorId(90)));
        assert_eq!(addressed(&mut b, 2, true, &[10]), (vec![11], vec![90]));
        // Every attempt expiring walks the home along with it.
        let mut b = bench(1, true, Some(4));
        let (proposals, _) = addressed(&mut b, 1, true, &[10, 11, 12]);
        assert_eq!(proposals, [10, 11, 12, 10]);
        assert_eq!(homes(b.gateway(), 0).0, ActorId(11));
    }

    #[test]
    fn a_query_retry_asks_the_next_endorser() {
        let mut b = bench(1, true, Some(4));
        assert_eq!(addressed(&mut b, 1, false, &[10]), (vec![10, 11], vec![]));
        assert_eq!(addressed(&mut b, 2, false, &[10]), (vec![11], vec![]));
        assert_eq!(homes(b.gateway(), 0), (ActorId(11), ActorId(90)));
    }

    /// A dead home orderer costs one endorse deadline per outage: its
    /// answer does not come, the same envelope goes to the next orderer,
    /// with no second proposal, and the next request's envelope goes there
    /// first. The endorsers' home stays: it was not their deadline.
    #[test]
    fn a_resubmission_goes_to_the_next_orderer() {
        let mut b = bench(1, true, Some(4));
        let first = addressed(&mut b, 1, true, &[90]);
        assert_eq!(first, (vec![10], vec![90, 91]));
        assert_eq!(homes(b.gateway(), 0), (ActorId(10), ActorId(91)));
        assert_eq!(addressed(&mut b, 2, true, &[90]), (vec![10], vec![91]));
    }

    /// The orderer's answer is lost: after the endorse deadline the row,
    /// with budget left, sends the same envelope, unasked and marked
    /// `copy`, to the next orderer, which the home then points at, and
    /// waits for its commit: no backoff, no second proposal, the span
    /// still open.
    #[test]
    fn a_lost_answer_with_budget_left_resends_to_the_next_orderer() {
        let mut b = bench(1, true, Some(3));
        let tx = tx_of(&b.invoke(0, 1));
        let ordering = armed_by(&b.message(b.answer(tx, Ok(b"r"))));
        let again = b.timer(ordering);
        let waiting = [
            "!order.timeout",
            "+client.home_moves",
            "!home orderers 0->1",
            "+client.timeouts",
            "+client.retries",
            "!op.retry@op-1",
            "broadcast->91",
            "arm#3=endorse",
        ];
        assert_eq!(show(&again), waiting);
        assert_eq!(envelopes(&again), [(tx, true)], "the same envelope, a copy");
        // A late answer to the first broadcast changes nothing.
        assert!(b.message(ack(tx, false)).is_empty());
        let done = ["disarm#3", "commit_wait]", "done1=Valid"];
        assert_eq!(show(&b.message(commit(tx))), done);
        assert_eq!(homes(b.gateway(), 0), (ActorId(10), ActorId(91)));
    }

    /// A full queue, an orderer's refusal and a rejection are answers, not
    /// silence, and leave both homes where they were. The retry after
    /// `Busy` or a refusal still goes one place along, under the same tx
    /// id: a refused envelope goes again, asking, to the next orderer.
    #[test]
    fn busy_a_refusal_and_a_rejection_move_no_home() {
        let before = (ActorId(10), ActorId(90));
        let mut b = bench(1, true, Some(3));
        // Refused by the home orderer.
        let tx = tx_of(&b.invoke(0, 1));
        assert_eq!(
            show(&b.message(b.answer(tx, Ok(b"r"))))[2],
            "broadcast?->90"
        );
        let refused = [
            "!order.refused",
            "+client.retries",
            "backoff",
            "!op.retry@op-1",
            "disarm#2",
            "arm#3=backoff",
        ];
        assert_eq!(show(&b.message(ack(tx, false))), refused);
        assert_eq!(homes(b.gateway(), 0), before);
        let again = b.timer(3);
        let copy = ["!order.resend", "broadcast?->91", "arm#4=endorse"];
        assert_eq!(show(&again), copy);
        assert_eq!(envelopes(&again), [(tx, true)]);
        assert_eq!(homes(b.gateway(), 0), before);
        let done = ["disarm#4", "arm#5=endorse"];
        assert_eq!(show(&b.message(ack(tx, true))), done);
        // Shed by the home endorser, then rejected by it.
        for (req, reason) in [(2, BUSY_REASON), (3, "not found")] {
            let issued = b.query(0, req);
            assert_eq!(show(&issued).last().unwrap(), "propose->10");
            b.message(b.answer(tx_of(&issued), Err(reason)));
            assert_eq!(homes(b.gateway(), 0), before);
        }
    }

    /// A deadline ends its own attempt and moves a home, never another
    /// row: a row in commit-wait, whose commit may be in already, stays
    /// when an endorse deadline blames its peer, and a commit deadline
    /// moves no other row either.
    #[test]
    fn no_row_in_commit_wait_moves_and_no_commit_deadline_moves_any() {
        let mut b = bench(1, true, Some(3));
        let waiting = tx_of(&b.invoke(0, 1));
        // An endorsement that takes its whole deadline: its RTO, three
        // deadlines, leaves no room for a copy before the next deadline.
        b.sched.now = SimTime::ZERO + ENDORSE;
        b.message(b.answer(waiting, Ok(b"r")));
        b.message(ack(waiting, true));
        b.invoke(0, 2);
        // Request 1's probe goes unanswered, and its commit deadline
        // blames endorser 10, where request 2 waits: it stays. Request 1
        // waits again for its envelope.
        b.timer(3);
        let expired = [
            "!commit.timeout",
            "+client.home_moves",
            "!home endorsers 0->1",
            "+client.timeouts",
            "+client.retries",
            "!op.retry@op-1",
            "broadcast->91",
            "arm#6=endorse",
        ];
        assert_eq!(show(&b.timer(5)), expired);
        // Request 3 waits for its commit at endorser 11, the new home,
        // when request 4's endorse deadline there expires: it stays.
        let waiting = tx_of(&b.invoke(0, 3));
        b.message(b.answer(waiting, Ok(b"r")));
        b.message(ack(waiting, true));
        assert_eq!(show(&b.invoke(0, 4))[3], "propose->11");
        let expired = [
            "!endorse.timeout",
            "+client.home_moves",
            "!home endorsers 1->2",
            "+client.timeouts",
            "+client.retries",
            "!op.retry@op-4",
            "!endorse.resend",
            "propose->12",
            "arm#11=endorse",
        ];
        assert_eq!(show(&b.timer(10)), expired);
        assert_eq!(rows(b.gateway()), 4);
    }

    /// An ordering deadline on a Solo orderer's ring of one, whose home has
    /// nowhere to move, sends the same envelope, marked `copy`, to that
    /// orderer again and stays on its tx id: a lost envelope is recovered.
    /// A second deadline does the same, and the row then waits for its
    /// commit.
    #[test]
    fn an_ordering_deadline_on_a_ring_of_one_sends_the_same_envelope_to_it_again() {
        let solo = Route::new("ch0", endorsers(0), vec![ORDERERS[0]]);
        let mut b = bench_on(vec![solo], Some(ENDORSE), Some(COMMIT), Some(3));
        let tx = tx_of(&b.invoke(0, 1));
        let ordering = armed_by(&b.message(b.answer(tx, Ok(b"r"))));
        let again = b.timer(ordering);
        let expired = [
            "!order.timeout",
            "+client.timeouts",
            "+client.retries",
            "!op.retry@op-1",
            "broadcast->90",
            "arm#3=endorse",
        ];
        assert_eq!(show(&again), expired);
        assert_eq!(envelopes(&again), [(tx, true)]);
        // The probe, then the commit deadline: the same envelope again.
        let probed = b.timer(3);
        assert_eq!(show(&probed)[..2], ["!commit.probe", "probe->11"]);
        let again = show(&b.timer(armed_by(&probed)));
        assert_eq!(again[0], "!commit.timeout");
        assert_eq!(again[again.len() - 2], "broadcast->90");
        assert_eq!(homes(b.gateway(), 0), (ActorId(11), ORDERERS[0]));
        let done = show(&b.message(commit(tx)));
        assert_eq!(done.last().unwrap(), "done1=Valid");
    }

    /// Every attempt waits out its own deadline, wherever it waits: on its
    /// last attempt, and with no retry policy. Two deadlines of one node
    /// move its home once.
    #[test]
    fn an_attempt_with_nowhere_to_go_waits_out_its_own_deadline() {
        // Request 1 is on the last of its two attempts at endorser 11 when
        // request 2's deadline there expires.
        let mut b = bench(1, true, Some(2));
        b.invoke(0, 1);
        assert_eq!(show(&b.timer(1))[7], "propose->11");
        b.invoke(0, 2);
        let moved = show(&b.timer(3));
        assert_eq!(moved[2], "!home endorsers 1->2", "the home moves past 11");
        let exhausted = [
            "!endorse.timeout",
            "+client.timeouts",
            "endorse]",
            "+client.exhausted",
            "done1=Exhausted { attempts: 2 }",
        ];
        assert_eq!(show(&b.timer(2)), exhausted);
        // No retry policy.
        let mut b = bench(1, true, None);
        b.invoke(0, 1);
        b.invoke(0, 2);
        for (token, req, moved) in [(1, 1, 2), (2, 2, 0)] {
            let expired = show(&b.timer(token));
            assert_eq!(expired.len(), 4 + moved, "{expired:?}");
            assert_eq!(expired[3 + moved], format!("done{req}=EndorseTimeout"));
        }
    }

    /// After a `CommitTimeout` the row stays on its tx id, so the commit
    /// of its one envelope, arriving after the deadline, completes it
    /// with the code the ledger recorded, and no second proposal is sent.
    #[test]
    fn a_late_commit_of_a_timed_out_attempt_completes_it() {
        let mut b = bench(1, true, Some(3));
        let first = tx_of(&b.invoke(0, 1));
        b.message(b.answer(first, Ok(b"r")));
        b.message(ack(first, true));
        b.timer(3); // an unanswered probe
        let again = b.timer(4);
        assert_eq!(show(&again)[0], "!commit.timeout");
        let proposed = |actions: &[Action<Req>]| {
            let proposals = actions.iter().filter(|action| {
                matches!(action, Action::Send(_, _, FabricMsg::SubmitProposal(_)))
            });
            proposals.count()
        };
        assert_eq!(proposed(&again), 0);
        let done = ["disarm#5", "commit_wait]", "done1=Valid"];
        assert_eq!(show(&b.message(commit(first))), done);
        assert_eq!(rows(b.gateway()), 0);
    }
}

/// A row in commit-wait whose home is silent asks the other endorsers of
/// its ring whether the transaction committed, at the route's RTO, and an
/// answer that ends it moves the endorsers' home to the peer that gave it.
mod probes {
    use super::*;

    pub(super) fn ms(ms: u64) -> SimDuration {
        SimDuration::from_millis(ms)
    }

    /// The delay of the last timer these actions arm.
    pub(super) fn delay(actions: &[Action<Req>]) -> SimDuration {
        let armed = actions.iter().rev().find_map(|action| match action {
            Action::Arm(_, delay) => Some(*delay),
            _ => None,
        });
        armed.expect("the actions arm a timer")
    }

    /// Request `req` on route 0, taken in by the orderer `at` ms in: its
    /// tx id, and the actions of the ack.
    pub(super) fn acked(b: &mut Bench, req: u32, at: u64) -> (TxId, Vec<Action<Req>>) {
        b.sched.now = SimTime::ZERO + ms(at);
        let tx = tx_of(&b.invoke(0, req));
        b.message(b.answer(tx, Ok(b"r")));
        (tx, b.message(ack(tx, true)))
    }

    /// The commit of `tx` arrives `at` ms in.
    pub(super) fn committed(b: &mut Bench, tx: TxId, at: u64) -> Vec<Action<Req>> {
        b.sched.now = SimTime::ZERO + ms(at);
        b.message(commit(tx))
    }

    #[test]
    fn the_first_probe_is_due_at_the_endorse_deadline_then_at_srtt_plus_four_rttvar() {
        let mut b = bench(1, true, None);
        let (tx, waiting) = acked(&mut b, 1, 0);
        assert_eq!(delay(&waiting), ENDORSE);
        // The first sample, 100 ms: srtt 100 ms, rttvar 50 ms.
        committed(&mut b, tx, 100);
        let (tx, waiting) = acked(&mut b, 2, 1_000);
        assert_eq!(delay(&waiting), ms(300));
        // 200 ms: rttvar 3/4 · 50 + 1/4 · 100, srtt 7/8 · 100 + 1/8 · 200.
        committed(&mut b, tx, 1_200);
        let (_, waiting) = acked(&mut b, 3, 2_000);
        assert_eq!(
            delay(&waiting),
            SimDuration::from_micros(112_500 + 4 * 62_500)
        );
    }

    #[test]
    fn probes_walk_the_ring_past_the_own_endorser_twice_as_late_until_the_deadline() {
        let mut b = bench(1, true, None);
        let (tx, _) = acked(&mut b, 1, 0);
        committed(&mut b, tx, 400); // an RTO of 400 + 4 · 200 ms
        let (_, mut fired) = acked(&mut b, 2, 1_000);
        let (mut waits, mut asked) = (vec![], vec![]);
        loop {
            waits.push(delay(&fired));
            fired = b.timer(armed_by(&fired));
            let shown = show(&fired);
            if shown[0] != "!commit.probe" {
                assert_eq!(shown[0], "!commit.timeout");
                break;
            }
            asked.push(shown[1].clone());
        }
        assert_eq!(asked, ["probe->11", "probe->12", "probe->11"]);
        // 1.2 s, then doubling, and the rest of the commit deadline.
        assert_eq!(waits, [ms(1_200), ms(2_400), ms(4_800), ms(3_600)]);
        assert_eq!(
            waits.into_iter().fold(SimDuration::ZERO, |a, b| a + b),
            COMMIT
        );
        assert_eq!(rows(b.gateway()), 0);
    }

    /// Karn's rule: a row a probe's answer completed timed the probe, not
    /// the home, and gives no sample; one the home's event completed after
    /// an unanswered probe does, so a timeout that fell short grows back.
    #[test]
    fn only_the_home_event_times_a_probed_row() {
        let mut b = bench(1, true, None);
        let (tx, _) = acked(&mut b, 1, 0);
        committed(&mut b, tx, 100); // an RTO of 100 + 4 · 50 ms
                                    // Row 2's probe goes unanswered, and the home's event times it.
        let (tx, waiting) = acked(&mut b, 2, 1_000);
        b.timer(armed_by(&waiting));
        committed(&mut b, tx, 1_400);
        let rto = SimDuration::from_micros(137_500 + 4 * 112_500);
        let (tx, waiting) = acked(&mut b, 3, 2_000);
        assert_eq!(delay(&waiting), rto);
        // Row 3's probe is answered: no sample.
        b.timer(armed_by(&waiting));
        b.sched.now = SimTime::ZERO + ms(2_600);
        b.message(answer(tx, ValidationCode::Valid));
        let (_, waiting) = acked(&mut b, 4, 3_000);
        assert_eq!(delay(&waiting), rto);
    }

    /// Without a commit deadline nothing is armed in commit-wait: no
    /// deadline, and no probe. A ring of one endorser has no one else to
    /// ask, and waits on its deadline alone.
    #[test]
    fn without_a_commit_deadline_or_another_endorser_nothing_probes() {
        let mut b = bench_with(1, Some(ENDORSE), None, None);
        let (_, waiting) = acked(&mut b, 1, 0);
        assert_eq!(show(&waiting), ["disarm#2"]);
        let lone = Route::new("ch0", vec![ActorId(10)], ORDERERS.to_vec());
        let mut b = bench_on(vec![lone], Some(ENDORSE), Some(COMMIT), None);
        let (_, waiting) = acked(&mut b, 1, 0);
        assert_eq!(show(&waiting), ["disarm#2", "arm#3=commit"]);
    }

    /// A probed peer's answer is a commit event like the home's: one that
    /// carries an MVCC conflict ends the row with that code, and the
    /// home's own event, when it comes, finds no row.
    #[test]
    fn an_answer_ends_the_row_with_its_code_and_the_home_event_after_it_does_nothing() {
        let mut b = bench(1, true, None);
        let (tx, waiting) = acked(&mut b, 1, 0);
        let probed = b.timer(armed_by(&waiting));
        assert_eq!(show(&probed)[..2], ["!commit.probe", "probe->11"]);
        let conflict = answer(tx, ValidationCode::MvccReadConflict);
        let done = ["disarm#4", "commit_wait]", "done1=MvccReadConflict"];
        assert_eq!(show(&b.message(conflict)), done);
        assert!(b.message(commit(tx)).is_empty());
        assert_eq!(rows(b.gateway()), 0);
    }

    /// A probed peer's answer that ends a row moves the endorsers' home to
    /// that peer, counted and noted: it held a commit the home did not
    /// report. The next invoke proposes there.
    #[test]
    fn a_probe_answer_moves_the_endorsers_home_to_the_peer_that_answered() {
        let mut b = bench(1, true, None);
        let (tx, waiting) = acked(&mut b, 1, 0);
        let probed = b.timer(armed_by(&waiting));
        assert_eq!(show(&probed)[..2], ["!commit.probe", "probe->11"]);
        let moved = ["!commit.reprobe", "probe->12"];
        assert_eq!(show(&b.message_from(11, not_found(tx))), moved);
        let done = [
            "+client.home_moves",
            "!home endorsers 0->2",
            "disarm#4",
            "commit_wait]",
            "done1=Valid",
        ];
        let answered = b.message_from(12, answer(tx, ValidationCode::Valid));
        assert_eq!(show(&answered), done);
        assert_eq!(homes(b.gateway(), 0), (ActorId(12), ActorId(90)));
        assert_eq!(show(&b.invoke(0, 2)).last().unwrap(), "propose->12");
    }

    /// The home is the peer that answered, not the last one asked: a late
    /// answer to the first timed probe, after the second went out, moves
    /// the home to the first peer probed.
    #[test]
    fn a_late_answer_to_an_earlier_probe_moves_the_home_to_its_sender() {
        let mut b = bench(1, true, None);
        let (tx, _) = acked(&mut b, 1, 0);
        committed(&mut b, tx, 100); // a commit RTO of 300 ms
        let (tx, waiting) = acked(&mut b, 2, 1_000);
        let first = b.timer(armed_by(&waiting));
        let second = b.timer(armed_by(&first));
        assert_eq!(show(&second)[..2], ["!commit.probe", "probe->12"]);
        let answered = show(&b.message_from(11, answer(tx, ValidationCode::Valid)));
        assert_eq!(
            answered[..2],
            ["+client.home_moves", "!home endorsers 0->1"]
        );
        assert_eq!(homes(b.gateway(), 0), (ActorId(11), ActorId(90)));
    }

    /// The home's own event moves nothing, even after a probe went out:
    /// the home reported the commit. Nor does an answer that ends no row:
    /// a `DuplicateTxId`, a "not found", or any answer once the row is
    /// gone.
    #[test]
    fn the_home_event_a_duplicate_or_a_not_found_moves_no_home() {
        let before = (ActorId(10), ActorId(90));
        let mut b = bench(1, true, None);
        let (tx, waiting) = acked(&mut b, 1, 0);
        b.timer(armed_by(&waiting));
        let duplicate = FabricMsg::CommitStatusAnswer(event(tx, ValidationCode::DuplicateTxId));
        assert!(b.message_from(11, duplicate).is_empty());
        let moved = ["!commit.reprobe", "probe->12"];
        assert_eq!(show(&b.message_from(11, not_found(tx))), moved);
        assert_eq!(homes(b.gateway(), 0), before);
        let done = ["disarm#4", "commit_wait]", "done1=Valid"];
        assert_eq!(show(&b.message_from(10, commit(tx))), done);
        let late = answer(tx, ValidationCode::Valid);
        assert!(b.message_from(12, late).is_empty());
        assert_eq!(homes(b.gateway(), 0), before);
    }

    /// The commit RTO never falls below [`MIN_COMMIT_RTO`]: a commit in
    /// 4 ms gives `4 + 4 · 2` ms unfloored, and a probe would leave before
    /// any other peer could have committed — and its answer, from a peer
    /// merely faster than the home, would move a healthy home.
    #[test]
    fn the_commit_rto_is_floored() {
        let mut b = bench(1, true, None);
        let (tx, _) = acked(&mut b, 1, 0);
        committed(&mut b, tx, 4);
        let (_, waiting) = acked(&mut b, 2, 1_000);
        assert_eq!(show(&waiting), ["disarm#5", "arm#6=commit_rto"]);
    }

    /// A probed peer that holds no code answers "not found": the row asks
    /// the next endorser at once, noted `commit.reprobe`, and arms nothing;
    /// that peer's answer ends it.
    #[test]
    fn a_not_found_probes_the_next_endorser_at_once_and_arms_nothing() {
        let mut b = bench(1, true, None);
        let (tx, waiting) = acked(&mut b, 1, 0);
        let probed = b.timer(armed_by(&waiting));
        assert_eq!(show(&probed)[..2], ["!commit.probe", "probe->11"]);
        let moved = ["!commit.reprobe", "probe->12"];
        assert_eq!(show(&b.message(not_found(tx))), moved);
        let done = ["disarm#4", "commit_wait]", "done1=Valid"];
        assert_eq!(show(&b.message(answer(tx, ValidationCode::Valid))), done);
    }

    /// On a ring of four endorsers a timed probe and its "not found"s ask
    /// each other endorser once: ring − 2 probes at once, then nothing
    /// until the timer, which is still due twice as late and walks on.
    #[test]
    fn a_ring_of_not_found_stops_after_ring_minus_two_and_waits_for_the_doubled_timer() {
        let ring = (10..14).map(ActorId).collect();
        let route = Route::new("ch0", ring, ORDERERS.to_vec());
        let mut b = bench_on(vec![route], Some(ENDORSE), Some(COMMIT), None);
        let (tx, _) = acked(&mut b, 1, 0);
        committed(&mut b, tx, 100); // a commit RTO of 300 ms
        let (tx, waiting) = acked(&mut b, 2, 1_000);
        assert_eq!(delay(&waiting), ms(300));
        let fired = b.timer(armed_by(&waiting));
        assert_eq!(show(&fired)[..2], ["!commit.probe", "probe->11"]);
        assert_eq!(delay(&fired), ms(600));
        let moved: Vec<Vec<String>> = (0..3).map(|_| show(&b.message(not_found(tx)))).collect();
        let expected = [
            vec!["!commit.reprobe", "probe->12"],
            vec!["!commit.reprobe", "probe->13"],
            vec![],
        ];
        assert_eq!(moved, expected);
        let fired = b.timer(armed_by(&fired));
        assert_eq!(show(&fired)[..2], ["!commit.probe", "probe->11"]);
        assert_eq!(delay(&fired), ms(1_200));
        assert_eq!(
            show(&b.message(not_found(tx))),
            ["!commit.reprobe", "probe->12"]
        );
    }

    /// "Not found" neither ends nor times a row: for a finished row, and
    /// for a row endorsing, ordering, or in commit-wait before its first
    /// probe, it does nothing, and the commit RTO stays as it was.
    #[test]
    fn a_not_found_for_a_finished_row_or_another_phase_does_nothing() {
        let mut b = bench(1, true, None);
        let (tx, _) = acked(&mut b, 1, 0);
        committed(&mut b, tx, 100); // a commit RTO of 300 ms
        assert!(b.message(not_found(tx)).is_empty());
        let tx = tx_of(&b.invoke(0, 2));
        b.sched.now = SimTime::ZERO + ms(1_000);
        assert!(b.message(not_found(tx)).is_empty());
        b.message(b.answer(tx, Ok(b"r")));
        assert!(b.message(not_found(tx)).is_empty());
        let waiting = b.message(ack(tx, true));
        assert_eq!(delay(&waiting), ms(300));
        b.sched.now = SimTime::ZERO + ms(1_200);
        assert!(b.message(not_found(tx)).is_empty());
        let (_, waiting) = acked(&mut b, 3, 2_000);
        assert_eq!(delay(&waiting), ms(300));
        assert_eq!(rows(b.gateway()), 2);
    }
}

/// Every wait of a row under a deadline passes a silent node by a copy of
/// the request under the same tx id, at the route's RTO for that wait.
mod resends {
    use super::probes::{acked, committed, delay, ms};
    use super::*;

    /// The tx ids of the proposals and envelopes these actions send.
    fn sent_ids(actions: &[Action<Req>]) -> Vec<TxId> {
        let ids = actions.iter().filter_map(|action| match action {
            Action::Send(_, _, FabricMsg::SubmitProposal(signed)) => Some(signed.proposal.tx_id()),
            Action::Send(_, _, FabricMsg::Broadcast { envelope, .. }) => Some(envelope.tx_id()),
            _ => None,
        });
        ids.collect()
    }

    /// A bench whose route has timed one endorsement, one orderer's answer
    /// and one commit, all at once: both floored RTOs are [`MIN_RTO`], and
    /// the commit's is [`MIN_COMMIT_RTO`].
    fn timed() -> Bench {
        let mut b = bench(1, true, Some(3));
        let (tx, _) = acked(&mut b, 1, 0);
        committed(&mut b, tx, 0);
        b
    }

    /// Past its RTO an endorsing row sends the same signed proposal to the
    /// next endorser, and the first copy moves the endorsers' home past
    /// the silent one. One copy per other endorser, twice as late each
    /// time, then the deadline, the rest of the way.
    #[test]
    fn an_endorsing_row_sends_one_copy_per_other_endorser_then_waits_out_its_deadline() {
        let mut b = timed();
        let issued = b.invoke(0, 2);
        let tx = tx_of(&issued);
        assert_eq!(show(&issued)[2..], ["arm#4=rto", "propose->10"]);
        let first = b.timer(4);
        let copy = [
            "+client.home_moves",
            "!home endorsers 0->1",
            "+client.resent",
            "!endorse.resend",
            "propose->11",
            "arm#5=backoff",
        ];
        assert_eq!(show(&first), copy);
        assert_eq!((sent_ids(&first), delay(&first)), (vec![tx], MIN_RTO * 2));
        assert_eq!(homes(b.gateway(), 0), (ActorId(11), ActorId(90)));
        // The second copy passes 11, the home now, and moves it on again.
        let second = b.timer(5);
        let copy = [
            "+client.home_moves",
            "!home endorsers 1->2",
            "!endorse.resend",
            "propose->12",
        ];
        assert_eq!(show(&second)[..4], copy);
        assert_eq!(sent_ids(&second), [tx]);
        assert_eq!(delay(&second), ENDORSE - MIN_RTO * 3);
        // The deadline's retry: the same proposal once more, to the next
        // endorser round the ring, and a wait that starts again from it,
        // its first copy due at the route's RTO.
        let expired = b.timer(6);
        let again = [
            "!endorse.timeout",
            "+client.home_moves",
            "!home endorsers 2->0",
            "+client.timeouts",
            "+client.retries",
            "!op.retry@op-2",
            "!endorse.resend",
            "propose->10",
            "arm#7=rto",
        ];
        assert_eq!(
            (show(&expired), sent_ids(&expired)),
            (again.map(String::from).to_vec(), vec![tx])
        );
        assert_eq!(rows(b.gateway()), 1);
    }

    /// The same for an envelope: copies go to the next orderers, asking,
    /// and the first moves the orderers' home.
    #[test]
    fn an_ordering_row_sends_one_copy_per_other_orderer_then_waits_out_its_deadline() {
        let mut b = timed();
        let tx = tx_of(&b.invoke(0, 2));
        let submitted = b.message(b.answer(tx, Ok(b"r")));
        assert_eq!(
            show(&submitted)[..3],
            ["disarm#4", "arm#5=rto", "broadcast?->90"]
        );
        let first = b.timer(5);
        let copy = [
            "+client.home_moves",
            "!home orderers 0->1",
            "+client.resent",
            "!order.resend",
            "broadcast?->91",
            "arm#6=backoff",
        ];
        assert_eq!(show(&first), copy);
        assert_eq!(sent_ids(&first), [tx]);
        assert_eq!(homes(b.gateway(), 0), (ActorId(10), ActorId(91)));
        let copy = [
            "+client.home_moves",
            "!home orderers 1->2",
            "!order.resend",
            "broadcast?->92",
        ];
        assert_eq!(show(&b.timer(6))[..4], copy);
        // The deadline sends the same envelope on, unasked, and waits
        // for its commit.
        let expired = b.timer(7);
        let shown = show(&expired);
        assert_eq!(
            shown[..3],
            [
                "!order.timeout",
                "+client.home_moves",
                "!home orderers 2->0"
            ]
        );
        assert_eq!(
            (sent_ids(&expired), &shown[6]),
            (vec![tx], &"broadcast->90".to_owned())
        );
    }

    /// The endorse and order RTOs never fall below [`MIN_RTO`]: a 10 ms
    /// round trip gives `10 + 4 · 5` ms unfloored. Above it, RFC 6298 rules.
    #[test]
    fn the_rto_of_the_endorse_and_order_waits_is_floored() {
        let mut b = bench(1, true, None);
        let tx = tx_of(&b.invoke(0, 1));
        b.sched.now = SimTime::ZERO + ms(10);
        let submitted = b.message(b.answer(tx, Ok(b"r")));
        assert_eq!(
            delay(&submitted),
            ENDORSE,
            "the order wait is not timed yet"
        );
        b.sched.now = SimTime::ZERO + ms(20);
        b.message(ack(tx, true));
        b.sched.now = SimTime::ZERO + ms(1_000);
        let issued = b.invoke(0, 2);
        assert_eq!(delay(&issued), MIN_RTO);
        let tx = tx_of(&issued);
        let submitted = b.message(b.answer(tx, Ok(b"r")));
        assert_eq!(delay(&submitted), MIN_RTO);
        // An endorsement of 100 ms: srtt 7/8 · 10 + 1/8 · 100, rttvar
        // 3/4 · 5 + 1/4 · 90, together 166.25 ms: still floored. One more
        // of 1 s lifts it above the floor.
        let mut b = bench(1, true, None);
        for (req, took) in [(1, 100), (2, 1_000)] {
            b.sched.now = SimTime::ZERO;
            let tx = tx_of(&b.invoke(0, req));
            b.sched.now = SimTime::ZERO + ms(took);
            b.message(b.answer(tx, Ok(b"r")));
        }
        // srtt 7/8 · 100 + 1/8 · 1,000 = 212.5, rttvar 3/4 · 50 + 1/4 · 900 = 262.5.
        assert_eq!(
            delay(&b.invoke(0, 3)),
            SimDuration::from_micros(212_500 + 4 * 262_500)
        );
    }

    /// Karn's rule: an answer to a row that re-sent may be the copy's, and
    /// times nothing. The same answer, a second late, to a row that sent
    /// no copy lifts the RTO.
    #[test]
    fn a_row_that_re_sent_gives_no_sample() {
        let mut b = timed();
        b.sched.now = SimTime::ZERO;
        let tx = tx_of(&b.invoke(0, 2));
        b.timer(4);
        b.sched.now = SimTime::ZERO + ms(1_000);
        b.message(b.answer(tx, Ok(b"r")));
        assert_eq!(delay(&b.invoke(0, 3)), MIN_RTO);
        let mut b = timed();
        b.sched.now = SimTime::ZERO;
        let tx = tx_of(&b.invoke(0, 2));
        b.sched.now = SimTime::ZERO + ms(1_000);
        b.message(b.answer(tx, Ok(b"r")));
        assert!(delay(&b.invoke(0, 3)) > MIN_RTO);
    }

    /// A refusal fails an attempt only once no other copy of it can still
    /// answer: the silent endorser's shed proposal waits for the copy,
    /// whose endorsement goes on to submit; the orderer's refusal waits for
    /// the copy's ack. Two refusals of two copies fail the attempt.
    #[test]
    fn a_refusal_while_another_copy_is_out_fails_nothing() {
        let mut b = timed();
        let tx = tx_of(&b.invoke(0, 2));
        b.timer(4);
        assert!(b.message(b.answer(tx, Err(BUSY_REASON))).is_empty());
        let submitted = show(&b.message(b.answer(tx, Ok(b"r"))));
        assert_eq!(submitted[2], "broadcast?->90");
        b.timer(6);
        assert!(b.message(ack(tx, false)).is_empty());
        let waiting = ["disarm#7", "arm#8=commit_rto"];
        assert_eq!(show(&b.message(ack(tx, true))), waiting);
        // A query whose every copy is refused: by the home endorser, which
        // the first copy passed, then by the copy's.
        let issued = b.query(0, 3);
        assert_eq!(show(&issued).last().unwrap(), "propose->11");
        let copy = show(&b.timer(9));
        assert_eq!(copy[copy.len() - 2], "propose->12");
        let tx = tx_of(&issued);
        assert!(b
            .message_from(11, b.answer_by(11, tx, Err("not found")))
            .is_empty());
        let refused = show(&b.message_from(12, b.answer_by(12, tx, Err("not found"))));
        let failed = [
            "disarm#10",
            "query]",
            r#"done3=Query { reason: "not found" }"#,
        ];
        assert_eq!(refused, failed);
    }

    /// A row in commit-wait re-broadcasts its envelope, unasked, from its
    /// second probe on, walking the other orderers after its own as the
    /// probes walk the endorsers. That recovers an envelope a follower
    /// forwarded into a dead leader once a new one is elected.
    #[test]
    fn commit_wait_re_broadcasts_its_envelope_from_the_second_probe_on() {
        let mut b = bench(1, true, None);
        let (tx, _) = acked(&mut b, 1, 0);
        committed(&mut b, tx, 100); // a commit RTO of 300 ms
        let (tx, mut fired) = acked(&mut b, 2, 1_000);
        let mut shown = Vec::new();
        for _ in 0..4 {
            fired = b.timer(armed_by(&fired));
            assert!(sent_ids(&fired).iter().all(|&id| id == tx));
            let words = show(&fired);
            shown.push(words[..words.len() - 1].join(" "));
        }
        let expected = [
            "!commit.probe probe->11",
            "!commit.probe probe->12 +client.rebroadcasts !commit.rebroadcast broadcast->91",
            "!commit.probe probe->11 !commit.rebroadcast broadcast->92",
            "!commit.probe probe->12 !commit.rebroadcast broadcast->91",
        ];
        assert_eq!(shown, expected);
        assert_eq!(homes(b.gateway(), 0), (ActorId(10), ActorId(90)));
    }

    /// A home that something moved already stays where it went: a copy of
    /// request 3 passed endorser 10 and moved the home to 11, so the answer
    /// of peer 12 to request 2's probe, whose attempt started at 10, moves
    /// nothing.
    #[test]
    fn a_probe_answer_leaves_a_home_a_copy_moved() {
        let mut b = timed();
        let (tx, waiting) = acked(&mut b, 2, 1_000);
        let probed = b.timer(armed_by(&waiting));
        assert_eq!(show(&probed)[..2], ["!commit.probe", "probe->11"]);
        let issued = b.invoke(0, 3);
        let copy = show(&b.timer(armed_by(&issued)));
        assert_eq!(copy[..2], ["+client.home_moves", "!home endorsers 0->1"]);
        b.message_from(11, not_found(tx));
        let answered = show(&b.message_from(12, answer(tx, ValidationCode::Valid)));
        assert_eq!(answered.last().unwrap(), "done2=Valid");
        assert!(!answered.contains(&"+client.home_moves".to_owned()));
        assert_eq!(homes(b.gateway(), 0), (ActorId(11), ActorId(90)));
    }

    /// A second copy of a transaction is committed `DuplicateTxId` where
    /// the first is in the ledger: that event, or a probed peer's answer
    /// carrying it, neither completes nor fails a row.
    #[test]
    fn a_duplicate_tx_id_never_ends_a_row() {
        let mut b = bench(1, true, None);
        let (tx, _) = acked(&mut b, 1, 0);
        let duplicate = event(tx, ValidationCode::DuplicateTxId);
        assert!(b.message(FabricMsg::Commit(duplicate.clone())).is_empty());
        let answer = FabricMsg::CommitStatusAnswer(duplicate);
        assert!(b.message(answer).is_empty());
        assert_eq!(rows(b.gateway()), 1);
        assert_eq!(show(&b.message(commit(tx))).last().unwrap(), "done1=Valid");
    }
}

/// One node of a deployment of `shards` routes: an endorser of one of
/// them, or an orderer.
fn pick_target(rng: &mut Rng, shards: usize) -> ActorId {
    let shard = rng.below(shards as u64) as usize;
    let mut targets = endorsers(shard);
    targets.extend(ORDERERS);
    targets[rng.below(targets.len() as u64) as usize]
}

/// The model around a gateway and its host: what its actions have opened
/// and completed so far, and where they went.
struct Model {
    bench: Bench,
    /// Spans opened and not closed.
    open: BTreeSet<(String, &'static str)>,
    /// `Done`s per request number.
    done: BTreeMap<u32, u32>,
    /// How many of them were errors.
    failed: u32,
    /// Percent of replies lost, and duplicated, while endorsers also shed
    /// and reject at random; zero once the net heals.
    loss: u64,
    /// A node that answers nothing.
    dead: Option<ActorId>,
    /// Messages sent per node, the dead one included.
    asked: BTreeMap<ActorId, u32>,
    /// Per attempt, by its trace: its route, its first endorser and, once
    /// submitted, its orderer.
    attempts: BTreeMap<String, (usize, ActorId, Option<ActorId>)>,
    /// Where each route's next request should start: home endorser, home
    /// orderer.
    homes: Vec<(ActorId, ActorId)>,
    /// Transactions an orderer took in: on the ledger of every live peer,
    /// which answers a status probe for them, and "not found" for others.
    committed: BTreeSet<TxId>,
    /// The request of each tx id issued: one per request, for life.
    requests: BTreeMap<TxId, u32>,
    /// The tokens a retry's backoff armed: the re-send each fires passes
    /// no silent node, so it moves no home.
    backoffs: BTreeSet<u64>,
    /// Whether the input being applied is such a re-send.
    backed_off: bool,
}

/// The node one place along `ring` from `node`.
fn next(ring: &[ActorId], node: ActorId) -> ActorId {
    let at = ring.iter().position(|&n| n == node).expect("on the ring");
    ring[(at + 1) % ring.len()]
}

impl Model {
    fn new(mut bench: Bench, rng: Rng, loss: u64, dead: Option<ActorId>) -> Self {
        bench.sched.rng = rng;
        let shards = bench.gateway().shards();
        Model {
            attempts: BTreeMap::new(),
            homes: (0..shards)
                .map(|s| (endorsers(s)[0], ORDERERS[0]))
                .collect(),
            bench,
            open: BTreeSet::new(),
            done: BTreeMap::new(),
            failed: 0,
            loss,
            dead,
            asked: BTreeMap::new(),
            committed: BTreeSet::new(),
            requests: BTreeMap::new(),
            backoffs: BTreeSet::new(),
            backed_off: false,
        }
    }

    fn rng(&mut self) -> &mut Rng {
        &mut self.bench.sched.rng
    }

    /// Issues request `req` on route `shard`, an invoke or a query, and
    /// applies what the gateway answers.
    fn issue(&mut self, shard: usize, req: u32, invoke: bool) -> Vec<Action<Req>> {
        let actions = match invoke {
            true => self.bench.invoke(shard, req),
            false => self.bench.query(shard, req),
        };
        self.requests.insert(tx_of(&actions), req);
        actions
    }

    /// Fires wake-up `token`; a backoff's re-sends its request.
    fn wake(&mut self, token: u64) {
        let actions = self.bench.timer(token);
        self.backed_off = self.backoffs.remove(&token);
        self.apply(actions);
        self.backed_off = false;
    }

    /// Checks the actions of one input against the books and applies
    /// them: sends become the replies a (lossy) network would return.
    fn apply(&mut self, actions: Vec<Action<Req>>) {
        let mut backoff = false;
        for action in actions {
            match action {
                Action::Observe("backoff", _) => backoff = true,
                Action::Arm(token, _) if std::mem::take(&mut backoff) => {
                    self.backoffs.insert(token);
                }
                Action::SpanStart(tx, stage, _) => assert!(self.open.insert((tx, stage))),
                Action::SpanEnd(tx, stage, _) => assert!(self.open.remove(&(tx, stage))),
                Action::Own(Done(Req(n), result)) => {
                    *self.done.entry(n).or_insert(0) += 1;
                    self.failed += u32::from(result.is_err());
                }
                Action::Send(to, _, msg) => {
                    *self.asked.entry(to).or_insert(0) += 1;
                    self.one_tx_id(&msg);
                    self.record(to, &msg);
                    if Some(to) != self.dead {
                        self.reply_to(to, msg);
                    }
                }
                Action::Note(trace, name, _) => self.expired(&trace, name),
                _ => {}
            }
        }
        // A row exists exactly while its one wake-up is armed, in every
        // phase, *ordering* included, and nothing else is disarmed.
        let sched = &self.bench.sched;
        assert_eq!(sched.armed[0].len(), rows(self.bench.gateway()));
        assert_eq!(sched.stray_disarms, 0);
        assert!(self.done.values().all(|&n| n == 1));
        // A home moves on an expiry or a copy, one place on from the
        // position blamed, and to the peer whose probe answer ended a row.
        for (shard, &home) in self.homes.iter().enumerate() {
            assert_eq!(homes(self.bench.gateway(), shard), home, "route {shard}");
        }
    }

    /// Every send of a request — proposal, envelope or probe, first,
    /// copy or retry — carries the one tx id it was issued under.
    fn one_tx_id(&mut self, msg: &FabricMsg) {
        let tx = match msg {
            FabricMsg::SubmitProposal(signed) => signed.proposal.tx_id(),
            FabricMsg::Broadcast { envelope, .. } => envelope.tx_id(),
            FabricMsg::CommitStatus { tx_id, .. } => *tx_id,
            other => panic!("the gateway sends proposals, envelopes and probes, not {other:?}"),
        };
        assert!(
            self.requests.contains_key(&tx),
            "a tx id no request was issued under"
        );
    }

    /// Notes where an attempt went: its route and first endorser when
    /// proposed, its orderer when submitted or sent again. An envelope
    /// re-broadcast unasked from commit-wait leaves the attempt's orderer.
    fn record(&mut self, to: ActorId, msg: &FabricMsg) {
        match msg {
            FabricMsg::SubmitProposal(signed) => {
                let (trace, shard) = (tx_trace(&signed.proposal.tx_id()), to.0 as usize / 10 - 1);
                self.attempts.entry(trace).or_insert((shard, to, None));
            }
            FabricMsg::Broadcast { envelope, ack, .. } => {
                let attempt = self.attempts.get_mut(&tx_trace(&envelope.tx_id()));
                let orderer = &mut attempt.expect("proposed before submitted").2;
                if *ack || orderer.is_none() {
                    *orderer = Some(to);
                }
            }
            _ => {}
        }
    }

    /// The note `name` on `trace`: if it says an attempt's deadline
    /// expired, or that a copy passed the node it waited on, the blamed
    /// ring's home moves one place on past that node — if the home still
    /// points there —, and a copy moves the attempt on with it. A backoff's
    /// re-send moves the attempt only.
    fn expired(&mut self, trace: &str, name: &str) {
        let Some(&(shard, endorser, orderer)) = self.attempts.get(trace) else {
            return;
        };
        if name == "endorse.resend" {
            let attempt = self.attempts.get_mut(trace).expect("looked up");
            attempt.1 = next(&endorsers(shard), endorser);
        }
        if self.backed_off {
            return;
        }
        let home = &mut self.homes[shard];
        match name {
            "endorse.timeout" | "query.timeout" | "commit.timeout" | "endorse.resend"
                if home.0 == endorser =>
            {
                home.0 = next(&endorsers(shard), endorser);
            }
            "order.timeout" | "order.resend" if Some(home.1) == orderer => {
                home.1 = next(&ORDERERS, home.1);
            }
            _ => {}
        }
    }

    /// The answer to a status probe of the attempt `trace`, from the
    /// endorser `src`, ended its row: the endorsers' home moves to `src`,
    /// if it still points at the attempt's first endorser.
    fn answered(&mut self, trace: &str, src: ActorId) {
        let &(shard, endorser, _) = self.attempts.get(trace).expect("probed once submitted");
        let home = &mut self.homes[shard].0;
        if *home == endorser {
            *home = src;
        }
    }

    /// The node `to` answers `msg`.
    fn reply_to(&mut self, to: ActorId, msg: FabricMsg) {
        // A healed network answers honestly.
        let honest = self.loss == 0;
        let reply = match msg {
            FabricMsg::SubmitProposal(signed) => {
                let tx = signed.proposal.tx_id();
                match if honest { 9 } else { self.rng().below(10) } {
                    0 => self.bench.answer_by(to.0, tx, Err(BUSY_REASON)),
                    1 => self.bench.answer_by(to.0, tx, Err("rejected")),
                    _ => self.bench.answer_by(to.0, tx, Ok(b"r")),
                }
            }
            // The orderer answers an envelope that asks, and refuses one
            // now and then (a follower that knows no leader): that one is
            // never committed.
            FabricMsg::Broadcast {
                envelope,
                ack: asked,
                ..
            } => {
                let tx = envelope.tx_id();
                let accepted = honest || self.rng().below(10) != 0;
                if asked {
                    self.bench.sched.ship(to, 0, ack(tx, accepted), self.loss);
                }
                if !accepted {
                    return;
                }
                self.committed.insert(tx);
                commit(tx)
            }
            FabricMsg::CommitStatus { tx_id, .. } if self.committed.contains(&tx_id) => {
                answer(tx_id, ValidationCode::Valid)
            }
            FabricMsg::CommitStatus { tx_id, .. } => not_found(tx_id),
            other => panic!("the gateway sends proposals, envelopes and probes, not {other:?}"),
        };
        self.bench.sched.ship(to, 0, reply, self.loss);
    }

    /// Delivers one reply, picked at random: the wire reorders. A probe's
    /// answer that ends its row moves a home before the books are checked.
    fn deliver(&mut self) {
        let sched = &mut self.bench.sched;
        let (src, m, msg) = sched
            .flying
            .swap_remove(sched.rng.below(sched.flying.len() as u64) as usize);
        let probed = match &msg {
            FabricMsg::CommitStatusAnswer(event) if event.code != ValidationCode::DuplicateTxId => {
                Some(tx_trace(&event.tx_id))
            }
            _ => None,
        };
        let actions = sched.message(m, src, msg);
        let ended = actions
            .iter()
            .any(|action| matches!(action, Action::Own(_)));
        if let Some(trace) = probed.filter(|_| ended) {
            self.answered(&trace, src);
        }
        self.apply(actions);
    }

    /// The network heals: what is on the wire arrives, and a wake-up fires
    /// only once nothing is left to arrive, until nothing is armed.
    fn drain(&mut self) {
        self.loss = 0;
        loop {
            if !self.bench.sched.flying.is_empty() {
                self.deliver();
                continue;
            }
            let Some(&token) = self.bench.sched.armed[0].first() else {
                return;
            };
            self.wake(token);
        }
    }

    /// Fires the `nth` armed wake-up, whatever its delay: early or late.
    fn fire(&mut self, nth: u64) {
        let armed = &self.bench.sched.armed[0];
        let token = *armed.iter().nth(nth as usize).expect("in range");
        self.wake(token);
    }
}

proptest! {
    /// Whatever the network does to the replies and whenever the timers
    /// fire, and whether or not one node of a route is dead throughout: a
    /// row exists exactly while its one wake-up is armed, no token is
    /// armed twice, no span is opened or closed twice, every request is
    /// answered exactly once, every send of a request carries the one tx
    /// id it was issued under — and once the inputs stop
    /// and the timers drain, the table is empty.
    #[test]
    fn every_request_ends_exactly_once_and_the_table_drains(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let shards = 1 + rng.below(4) as usize;
        let budget = rng.chance(70).then(|| 1 + rng.below(4) as u32);
        let loss = 10 + rng.below(30);
        let dead = rng.chance(50).then(|| pick_target(&mut rng, shards));
        let mut m = Model::new(bench(shards, true, budget), rng, loss, dead);
        let requests = 1 + m.rng().below(24) as u32;
        let mut issued = 0;
        for _ in 0..400 {
            let armed = m.bench.sched.armed[0].len() as u64;
            match m.rng().below(10) {
                0..=2 if issued < requests => {
                    issued += 1;
                    let shard = m.rng().below(shards as u64) as usize;
                    let invoke = m.rng().chance(60);
                    let actions = m.issue(shard, issued, invoke);
                    // A first attempt starts at the route's home.
                    let first = actions.iter().find_map(|action| match action {
                        Action::Send(to, ..) => Some(*to),
                        _ => None,
                    });
                    prop_assert_eq!(first, Some(m.homes[shard].0));
                    m.apply(actions);
                }
                3..=7 if !m.bench.sched.flying.is_empty() => m.deliver(),
                8 if armed > 0 => {
                    let nth = m.rng().below(armed);
                    m.fire(nth);
                }
                // A token that is not armed — spent, disarmed or never
                // allocated — wakes nothing.
                9 => {
                    let token = m.rng().below(200);
                    if !m.bench.sched.armed[0].contains(&token) {
                        prop_assert!(m.bench.timer(token).is_empty());
                    }
                }
                _ => {}
            }
        }
        // The inputs stop.
        m.drain();
        prop_assert_eq!(rows(m.bench.gateway()), 0);
        prop_assert!(m.open.is_empty(), "spans left open: {:?}", m.open);
        prop_assert_eq!(m.done.len() as u32, issued);
    }

    /// The network is clean and every timer fires on time, but one node
    /// of the route is dead from the start: a request with a budget of
    /// two or more ends `Ok`, because a retry starts one place along each
    /// ring — and over `a` attempts no node, dead or alive, is addressed
    /// more than ⌈a/n⌉ times. The next request of the same kind never
    /// meets the dead node: the expiry moved the home past it.
    #[test]
    fn a_request_with_a_retry_left_routes_around_one_dead_node(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let budget = 2 + rng.below(4) as u32;
        let dead = pick_target(&mut rng, 1);
        let mut m = Model::new(bench(1, true, Some(budget)), rng, 0, Some(dead));
        let invoke = m.rng().chance(60);
        let request = |m: &mut Model, n| m.issue(0, n, invoke);
        let actions = request(&mut m, 1);
        m.apply(actions);
        m.drain();
        prop_assert_eq!(m.done.get(&1), Some(&1));
        prop_assert_eq!(m.failed, 0);
        let attempts: u32 = endorsers(0).iter().filter_map(|e| m.asked.get(e)).sum();
        prop_assert!(attempts <= 2, "one dead node costs one retry, not {}", attempts - 1);
        let share = attempts.div_ceil(3);
        prop_assert!(m.asked.values().all(|&n| n <= share), "{:?}", m.asked);
        let met = m.asked.get(&dead).copied();
        let actions = request(&mut m, 2);
        m.apply(actions);
        m.drain();
        prop_assert_eq!((m.done.get(&2), m.failed), (Some(&1), 0));
        let again = m.asked.get(&dead).copied();
        prop_assert!(again == met, "the next request met the dead node");
    }

}

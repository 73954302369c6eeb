//! The gateway machine, driven with no simulation: first one directed
//! test per transition (inputs in, actions out), then the failover rule
//! leg by leg and one finding pinned as it stands, then two seeded
//! property tests over a model network — one that drops, duplicates and
//! reorders replies and fires timers early or late, one that is clean but
//! for a dead node.

#[path = "support/sched.rs"]
mod sched;

use std::collections::{BTreeMap, BTreeSet};

use hyperprov_fabric::{
    tx_trace, Caller, Carries, CommitEvent, CostModel, FabricMsg, Gateway, GatewayAction as Action,
    GatewayDone as Done, GatewayReply, Host, Io, Machine, MspBuilder, MspId, ProposalResponse,
    RetryPolicy, Route, SigningIdentity, BUSY_REASON,
};
use hyperprov_ledger::{ChannelId, RwSet, TxId, ValidationCode};
use hyperprov_sim::{ActorId, Context, SimDuration};
use proptest::prelude::*;

use sched::{Rng, Sched};

/// The orderers of every route, home first.
const ORDERERS: [ActorId; 3] = [ActorId(90), ActorId(91), ActorId(92)];
const ENDORSE: SimDuration = SimDuration::from_secs(5);
const COMMIT: SimDuration = SimDuration::from_secs(10);

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

    fn message(&mut self, _: ActorId, msg: FabricMsg, io: Io<'_>) -> Vec<Action<Req>> {
        self.0.on_message(msg, io.rng)
    }

    fn timer(&mut self, token: u64, io: Io<'_>) -> Vec<Action<Req>> {
        self.0.on_timer(token, io.rng)
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

struct Bench {
    sched: Sched<Bare>,
    peer: SigningIdentity,
}

/// A gateway with one route per entry of `needed` (three endorsers and
/// three orderers each), both deadlines when `deadlines`, and a retry
/// budget when given.
fn bench(needed: &[usize], deadlines: bool, budget: Option<u32>) -> Bench {
    let (endorse, commit) = (deadlines.then_some(ENDORSE), deadlines.then_some(COMMIT));
    bench_with(needed, endorse, commit, budget)
}

/// [`bench`] with each deadline given on its own.
fn bench_with(
    needed: &[usize],
    endorse: Option<SimDuration>,
    commit: Option<SimDuration>,
    budget: Option<u32>,
) -> Bench {
    let mut msp = MspBuilder::new(3);
    let org = MspId::new("org1");
    let client = msp.enroll("client", &org);
    let peer = msp.enroll("peer", &org);
    let routes = needed
        .iter()
        .enumerate()
        .map(|(shard, &n)| {
            let channel = format!("ch{shard}");
            Route::new(channel, endorsers(shard), ORDERERS.to_vec(), n)
        })
        .collect();
    let mut gateway =
        Gateway::new(client, routes, CostModel::default()).with_deadlines(endorse, commit);
    if let Some(budget) = budget {
        gateway = gateway.with_retry(RetryPolicy::new(budget));
    }
    let sched = Sched::new([(CLIENT, Bare(gateway))], Rng::new(11));
    Bench { sched, peer }
}

impl Bench {
    fn gateway(&self) -> &Gateway<Req> {
        &self.sched.machines[0].0
    }

    fn invoke(&mut self, shard: usize, req: u32) -> Vec<Action<Req>> {
        let args = vec![b"k".to_vec()];
        self.sched
            .input(0, |g, _| g.0.invoke(shard, Req(req), "cc", "put", args))
    }

    fn query(&mut self, shard: usize, req: u32) -> Vec<Action<Req>> {
        let args = vec![b"k".to_vec()];
        self.sched
            .input(0, |g, _| g.0.query(shard, Req(req), "cc", "get", args))
    }

    /// A reply, from whichever node: the gateway reads no sender.
    fn message(&mut self, msg: FabricMsg) -> Vec<Action<Req>> {
        self.sched.message(0, ORDERERS[0], msg)
    }

    fn timer(&mut self, token: u64) -> Vec<Action<Req>> {
        self.sched.fire(0, token)
    }

    /// An endorser's answer to the proposal `tx_id`.
    fn answer(&self, tx_id: TxId, result: Result<&[u8], &str>) -> FabricMsg {
        FabricMsg::ProposalResult(ProposalResponse {
            tx_id,
            endorser: self.peer.certificate().clone(),
            result: result.map(<[u8]>::to_vec).map_err(str::to_owned),
            rwset: RwSet::new(),
            event: None,
            signature: self.peer.sign(b"endorsement"),
        })
    }
}

/// A peer's commit notification for `tx_id`.
fn commit(tx_id: TxId) -> FabricMsg {
    FabricMsg::Commit(CommitEvent {
        channel: ChannelId::default(),
        tx_id,
        block_number: 1,
        code: ValidationCode::Valid,
        chaincode_event: None,
        creator: None,
        endorser: None,
    })
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
            Action::Send(..) => "send?".to_owned(),
            Action::Arm(token, delay) if *delay == ENDORSE => format!("arm#{token}=endorse"),
            Action::Arm(token, delay) if *delay == COMMIT => format!("arm#{token}=commit"),
            Action::Arm(token, _) => format!("arm#{token}=backoff"),
            Action::Disarm(token) => format!("disarm#{token}"),
            Action::SpanStart(_, stage, _) => format!("[{stage}"),
            Action::SpanEnd(_, stage, _) => format!("{stage}]"),
            Action::Note(trace, name, _) if trace.starts_with("op-") => format!("!{name}@{trace}"),
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
        let mut b = bench(&[2], true, None);
        let issued = b.invoke(0, 1);
        let start = [
            "charge",
            "[endorse",
            "arm#1=endorse",
            "propose->10",
            "propose->11",
        ];
        assert_eq!(show(&issued), start);
        let tx = tx_of(&issued);
        assert!(b.message(b.answer(tx, Ok(b"r"))).is_empty());
        let submitted = b.message(b.answer(tx, Ok(b"r")));
        // The envelope asks, and the orderer's answer is awaited under the
        // endorse deadline: one node answers it.
        let submit = [
            "disarm#1",
            "arm#2=endorse",
            "broadcast?->90",
            "endorse]",
            "[commit_wait",
        ];
        assert_eq!(show(&submitted), submit);
        assert_eq!(tx_of(&submitted), tx);
        assert_eq!(
            show(&b.message(ack(tx, true))),
            ["disarm#2", "arm#3=commit"]
        );
        // A duplicate answer finds the row past ordering.
        assert!(b.message(ack(tx, true)).is_empty());
        let done = ["disarm#3", "commit_wait]", "done1=Valid"];
        assert_eq!(show(&b.message(commit(tx))), done);
        assert_eq!(b.gateway().inflight(), 0);
    }

    #[test]
    fn a_query_asks_the_first_endorser_and_ends_on_its_answer() {
        let mut b = bench(&[2], true, None);
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
        assert_eq!(b.gateway().inflight(), 0);
    }

    #[test]
    fn without_deadlines_no_timer_is_ever_armed() {
        let mut b = bench(&[1], false, None);
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
        let mut b = bench_with(&[1], None, Some(COMMIT), Some(3));
        let tx = tx_of(&b.invoke(0, 1));
        let submit = ["arm#1=commit", "broadcast->90", "endorse]", "[commit_wait"];
        assert_eq!(show(&b.message(b.answer(tx, Ok(b"r")))), submit);
        // An answer nobody asked for changes nothing.
        assert!(b.message(ack(tx, false)).is_empty());
        assert_eq!(show(&b.timer(1))[..2], ["commit_wait]", "!commit.timeout"]);
    }

    #[test]
    fn the_first_rejection_fails_fast_with_the_second_endorsement_in_flight() {
        let mut b = bench(&[2], true, None);
        let tx = tx_of(&b.invoke(0, 1));
        let failed = show(&b.message(b.answer(tx, Err("no such key"))));
        assert_eq!(failed[..3], ["disarm#1", "endorse]", "!endorse.rejected"]);
        assert!(failed[3].starts_with("done1=Endorsement"), "{failed:?}");
        assert_eq!(failed.len(), 4);
        // The other endorser's answer finds no row.
        assert!(b.message(b.answer(tx, Ok(b"r"))).is_empty());
        assert_eq!(b.gateway().inflight(), 0);
    }

    #[test]
    fn mismatching_endorsements_are_not_submitted() {
        let mut b = bench(&[2], true, None);
        let tx = tx_of(&b.invoke(0, 1));
        assert!(b.message(b.answer(tx, Ok(b"one"))).is_empty());
        let failed = [
            "disarm#1",
            "endorse]",
            "!endorse.mismatch",
            "done1=Mismatch",
        ];
        assert_eq!(show(&b.message(b.answer(tx, Ok(b"two")))), failed);
        assert_eq!(b.gateway().inflight(), 0);
    }

    #[test]
    fn an_extra_endorsement_after_submit_is_stale() {
        let mut b = bench(&[1], true, None);
        let tx = tx_of(&b.invoke(0, 1));
        assert_eq!(b.message(b.answer(tx, Ok(b"r"))).len(), 5);
        assert!(b.message(b.answer(tx, Ok(b"r"))).is_empty());
        assert!(b.message(b.answer(tx, Err("late"))).is_empty());
        assert_eq!(b.gateway().inflight(), 1);
    }

    #[test]
    fn a_commit_completes_only_a_transaction_waiting_for_it() {
        let mut b = bench(&[1], true, None);
        let ours = tx_of(&b.invoke(0, 1));
        // Somebody else's transaction; ours before it was submitted; a
        // query's proposal id.
        assert!(b.message(commit(TxId::default())).is_empty());
        assert!(b.message(commit(ours)).is_empty());
        let query = tx_of(&b.query(0, 2));
        assert!(b.message(commit(query)).is_empty());
        assert_eq!(b.gateway().inflight(), 2);
        // Ours once submitted: a commit that overtakes the orderer's answer
        // completes it, and the answer then finds nothing.
        b.message(b.answer(ours, Ok(b"r")));
        let done = ["disarm#3", "commit_wait]", "done1=Valid"];
        assert_eq!(show(&b.message(commit(ours))), done);
        assert!(b.message(ack(ours, true)).is_empty());
        assert_eq!(b.gateway().inflight(), 1);
    }

    #[test]
    fn each_deadline_closes_its_own_span_and_leaves_nothing_behind() {
        let mut b = bench(&[1], true, None);
        // Endorse deadline.
        b.invoke(0, 1);
        let expired = [
            "endorse]",
            "!endorse.timeout",
            "+client.timeouts",
            "done1=EndorseTimeout",
        ];
        assert_eq!(show(&b.timer(1)), expired);
        // The orderer's answer (token 2 was the endorse deadline it
        // replaced).
        let tx = tx_of(&b.invoke(0, 2));
        b.message(b.answer(tx, Ok(b"r")));
        let expired = [
            "commit_wait]",
            "!order.timeout",
            "+client.timeouts",
            "done2=CommitTimeout",
        ];
        assert_eq!(show(&b.timer(3)), expired);
        // Commit deadline, after the answer.
        let tx = tx_of(&b.invoke(0, 3));
        b.message(b.answer(tx, Ok(b"r")));
        b.message(ack(tx, true));
        let expired = [
            "commit_wait]",
            "!commit.timeout",
            "+client.timeouts",
            "done3=CommitTimeout",
        ];
        assert_eq!(show(&b.timer(6)), expired);
        // Query deadline.
        b.query(0, 4);
        let expired = [
            "query]",
            "!query.timeout",
            "+client.timeouts",
            "done4=EndorseTimeout",
        ];
        assert_eq!(show(&b.timer(7)), expired);
        assert_eq!(b.gateway().inflight(), 0);
        // Nothing is left to fire: every token is spent or disarmed.
        for token in 0..9 {
            assert!(b.timer(token).is_empty());
        }
    }

    #[test]
    fn a_retry_reissues_under_a_fresh_tx_id_for_the_same_caller() {
        let mut b = bench(&[1], true, Some(3));
        let first = tx_of(&b.invoke(0, 7));
        let backing_off = [
            "endorse]",
            "!endorse.timeout",
            "+client.timeouts",
            "+client.retries",
            "backoff",
            "!op.retry@op-7",
            "arm#2=backoff",
        ];
        assert_eq!(show(&b.timer(1)), backing_off);
        assert_eq!(b.gateway().inflight(), 1);
        let reissued = b.timer(2);
        let again = ["charge", "[endorse", "arm#3=endorse", "propose->11"];
        assert_eq!(show(&reissued), again);
        let second = tx_of(&reissued);
        assert_ne!(first, second);
        b.message(b.answer(second, Ok(b"r")));
        let done = ["disarm#4", "commit_wait]", "done7=Valid"];
        assert_eq!(show(&b.message(commit(second))), done);
        assert_eq!(b.gateway().inflight(), 0);
    }

    #[test]
    fn backpressure_is_retried_even_without_deadlines() {
        let mut b = bench(&[1], false, Some(2));
        let tx = tx_of(&b.query(0, 1));
        let shed = [
            "query]",
            "+client.retries",
            "backoff",
            "!op.retry@op-1",
            "arm#1=backoff",
        ];
        assert_eq!(show(&b.message(b.answer(tx, Err(BUSY_REASON)))), shed);
        assert_eq!(show(&b.timer(1)), ["charge", "[query", "propose->11"]);
    }

    #[test]
    fn a_spent_budget_reports_its_attempts() {
        let mut b = bench(&[1], true, Some(2));
        b.invoke(0, 1);
        assert_eq!(b.timer(1).len(), 7); // endorse deadline -> backoff
        assert_eq!(b.timer(2).len(), 4); // backoff -> second attempt
        let exhausted = [
            "endorse]",
            "!endorse.timeout",
            "+client.timeouts",
            "+client.exhausted",
            "done1=Exhausted { attempts: 2 }",
        ];
        assert_eq!(show(&b.timer(3)), exhausted);
        assert_eq!(b.gateway().inflight(), 0);
    }

    #[test]
    fn an_error_that_is_not_transient_ends_at_once_under_a_retry_policy() {
        let mut b = bench(&[1], true, Some(5));
        let tx = tx_of(&b.invoke(0, 1));
        let failed = show(&b.message(b.answer(tx, Err("bad argument"))));
        assert!(failed[3].starts_with("done1=Endorsement"), "{failed:?}");
        assert_eq!(b.gateway().inflight(), 0);
    }

    #[test]
    fn a_reply_to_an_attempt_that_timed_out_is_ignored() {
        let mut b = bench(&[1], true, Some(3));
        let first = tx_of(&b.invoke(0, 1));
        b.timer(1);
        // While the row sleeps out its backoff under the dead tx id...
        assert!(b.message(b.answer(first, Ok(b"r"))).is_empty());
        // ...and after the next attempt moved it to a fresh one.
        b.timer(2);
        assert!(b.message(b.answer(first, Ok(b"r"))).is_empty());
        assert_eq!(b.gateway().inflight(), 1);
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
                        replies.extend((!dead.contains(&to.0)).then(|| b.answer(tx, Ok(b"r"))));
                    }
                    Action::Send(to, _, FabricMsg::Broadcast { envelope, .. }) => {
                        envelopes.push(to.0);
                        if !dead.contains(&to.0) {
                            replies.push(ack(envelope.tx_id(), true));
                            replies.push(commit(envelope.tx_id()));
                        }
                    }
                    Action::Arm(token, _) => armed = *token,
                    Action::Own(Done(..)) => return (proposals, envelopes),
                    _ => {}
                }
            }
            actions = match replies.is_empty() {
                true => b.timer(armed),
                false => replies.into_iter().flat_map(|r| b.message(r)).collect(),
            };
        }
    }

    /// A dead home endorser costs its client one endorse deadline per
    /// outage, not one per request: the retry goes one place along both
    /// rings, and the expiry moves the endorsers' home past the dead node,
    /// so the next request starts where the retry went.
    #[test]
    fn a_retry_goes_to_the_next_endorser() {
        let mut b = bench(&[1], true, Some(4));
        assert_eq!(addressed(&mut b, 1, true, &[10]), (vec![10, 11], vec![91]));
        assert_eq!(b.gateway().homes(0), (ActorId(11), ActorId(90)));
        assert_eq!(addressed(&mut b, 2, true, &[10]), (vec![11], vec![90]));
        // With two endorsements needed, the window of two moves along.
        let mut b = bench(&[2], true, Some(3));
        let first = addressed(&mut b, 1, true, &[10]);
        assert_eq!(first, (vec![10, 11, 11, 12], vec![91]));
        assert_eq!(addressed(&mut b, 2, true, &[10]), (vec![11, 12], vec![90]));
        // Every attempt expiring walks the home along with it.
        let mut b = bench(&[1], true, Some(4));
        let (proposals, _) = addressed(&mut b, 1, true, &[10, 11, 12]);
        assert_eq!(proposals, [10, 11, 12, 10]);
        assert_eq!(b.gateway().homes(0).0, ActorId(11));
    }

    #[test]
    fn a_query_retry_asks_the_next_endorser() {
        let mut b = bench(&[2], true, Some(4));
        assert_eq!(addressed(&mut b, 1, false, &[10]), (vec![10, 11], vec![]));
        assert_eq!(addressed(&mut b, 2, false, &[10]), (vec![11], vec![]));
        assert_eq!(b.gateway().homes(0), (ActorId(11), ActorId(90)));
    }

    /// A dead home orderer costs one endorse deadline per outage: its
    /// answer does not come, the resubmission goes to the next orderer,
    /// and the next request's envelope goes there first. The endorsers'
    /// home stays: it was not their deadline.
    #[test]
    fn a_resubmission_goes_to_the_next_orderer() {
        let mut b = bench(&[1], true, Some(4));
        let first = addressed(&mut b, 1, true, &[90]);
        assert_eq!(first, (vec![10, 11], vec![90, 91]));
        assert_eq!(b.gateway().homes(0), (ActorId(10), ActorId(91)));
        assert_eq!(addressed(&mut b, 2, true, &[90]), (vec![10], vec![91]));
    }

    /// The orderer's answer is lost: the attempt fails `CommitTimeout`
    /// after the endorse deadline and, with budget left, is re-sent to the
    /// next orderer, which the home then points at.
    #[test]
    fn a_lost_answer_with_budget_left_resends_to_the_next_orderer() {
        let mut b = bench(&[1], true, Some(3));
        let tx = tx_of(&b.invoke(0, 1));
        let ordering = armed_by(&b.message(b.answer(tx, Ok(b"r"))));
        let backing_off = [
            "commit_wait]",
            "!order.timeout",
            "+client.timeouts",
            "+client.retries",
            "backoff",
            "!op.retry@op-1",
            "arm#3=backoff",
        ];
        assert_eq!(show(&b.timer(ordering)), backing_off);
        let second = tx_of(&b.timer(3));
        let submitted = show(&b.message(b.answer(second, Ok(b"r"))));
        assert_eq!(submitted[2], "broadcast?->91");
        assert_eq!(
            show(&b.message(ack(second, true))),
            ["disarm#5", "arm#6=commit"]
        );
        let done = ["disarm#6", "commit_wait]", "done1=Valid"];
        assert_eq!(show(&b.message(commit(second))), done);
        assert_eq!(b.gateway().homes(0), (ActorId(10), ActorId(91)));
    }

    /// Only an expiry moves a home: a full queue, an orderer's refusal and
    /// a rejection are answers, and leave both homes where they were. The
    /// retry after `Busy` still goes one place along.
    #[test]
    fn busy_a_refusal_and_a_rejection_move_no_home() {
        let homes = (ActorId(10), ActorId(90));
        let mut b = bench(&[1], true, Some(3));
        // Refused by the home orderer.
        let tx = tx_of(&b.invoke(0, 1));
        assert_eq!(
            show(&b.message(b.answer(tx, Ok(b"r"))))[2],
            "broadcast?->90"
        );
        let refused = [
            "disarm#2",
            "commit_wait]",
            "!order.refused",
            "+client.retries",
            "backoff",
            "!op.retry@op-1",
            "arm#3=backoff",
        ];
        assert_eq!(show(&b.message(ack(tx, false))), refused);
        assert_eq!(b.gateway().homes(0), homes);
        assert_eq!(show(&b.timer(3)).last().unwrap(), "propose->11");
        // Shed by the home endorser, then rejected by it.
        for (req, reason) in [(2, BUSY_REASON), (3, "not found")] {
            let issued = b.query(0, req);
            assert_eq!(show(&issued).last().unwrap(), "propose->10");
            b.message(b.answer(tx_of(&issued), Err(reason)));
            assert_eq!(b.gateway().homes(0), homes);
        }
    }

    /// Pinned, not endorsed (benchmark README finding 2): after a
    /// `CommitTimeout` the row moves to a fresh tx id, and the first
    /// attempt's commit notification, if it then arrives, completes
    /// nothing — 0 of the 2 late commits here — although that
    /// transaction is on the ledger. The operation is reported by its
    /// second attempt alone.
    #[test]
    fn a_late_commit_of_a_timed_out_attempt_is_dropped() {
        let mut b = bench(&[1], true, Some(3));
        let first = tx_of(&b.invoke(0, 1));
        b.message(b.answer(first, Ok(b"r")));
        b.message(ack(first, true));
        assert_eq!(show(&b.timer(3))[..2], ["commit_wait]", "!commit.timeout"]);
        let mut completed = 0;
        completed += b.message(commit(first)).len(); // during the backoff
        let second = tx_of(&b.timer(4));
        completed += b.message(commit(first)).len(); // during the second attempt
        assert_eq!(completed, 0);
        b.message(b.answer(second, Ok(b"r")));
        assert_eq!(
            show(&b.message(commit(second))).last().unwrap(),
            "done1=Valid"
        );
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
        }
    }

    fn rng(&mut self) -> &mut Rng {
        &mut self.bench.sched.rng
    }

    /// Checks the actions of one input against the books and applies
    /// them: sends become the replies a (lossy) network would return.
    fn apply(&mut self, actions: Vec<Action<Req>>) {
        for action in actions {
            match action {
                Action::SpanStart(tx, stage, _) => assert!(self.open.insert((tx, stage))),
                Action::SpanEnd(tx, stage, _) => assert!(self.open.remove(&(tx, stage))),
                Action::Own(Done(Req(n), result)) => {
                    *self.done.entry(n).or_insert(0) += 1;
                    self.failed += u32::from(result.is_err());
                }
                Action::Send(to, _, msg) => {
                    *self.asked.entry(to).or_insert(0) += 1;
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
        assert_eq!(sched.armed[0].len(), self.bench.gateway().inflight());
        assert_eq!(sched.stray_disarms, 0);
        assert!(self.done.values().all(|&n| n == 1));
        // A home moves only on an expiry, one place on from the position
        // that expired.
        for (shard, &home) in self.homes.iter().enumerate() {
            assert_eq!(self.bench.gateway().homes(shard), home, "route {shard}");
        }
    }

    /// Notes where an attempt went: its route and first endorser when
    /// proposed, its orderer when submitted.
    fn record(&mut self, to: ActorId, msg: &FabricMsg) {
        match msg {
            FabricMsg::SubmitProposal(signed) => {
                let (trace, shard) = (tx_trace(&signed.proposal.tx_id()), to.0 as usize / 10 - 1);
                self.attempts.entry(trace).or_insert((shard, to, None));
            }
            FabricMsg::Broadcast { envelope, .. } => {
                let attempt = self.attempts.get_mut(&tx_trace(&envelope.tx_id()));
                attempt.expect("proposed before submitted").2 = Some(to);
            }
            _ => {}
        }
    }

    /// The note `name` on `trace`: if it says an attempt's deadline
    /// expired, the blamed ring's home moves one place on past the node
    /// that let it expire — if the home still points there.
    fn expired(&mut self, trace: &str, name: &str) {
        let Some(&(shard, endorser, orderer)) = self.attempts.get(trace) else {
            return;
        };
        let home = &mut self.homes[shard];
        match name {
            "endorse.timeout" | "query.timeout" | "commit.timeout" if home.0 == endorser => {
                home.0 = next(&endorsers(shard), endorser);
            }
            "order.timeout" if Some(home.1) == orderer => home.1 = next(&ORDERERS, home.1),
            _ => {}
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
                    0 => self.bench.answer(tx, Err(BUSY_REASON)),
                    1 => self.bench.answer(tx, Err("rejected")),
                    2 => self.bench.answer(tx, Ok(b"odd")),
                    _ => self.bench.answer(tx, Ok(b"r")),
                }
            }
            // The orderer answers an envelope that asks, and refuses one
            // now and then (a follower that knows no leader): that one is
            // never committed.
            FabricMsg::Broadcast {
                envelope,
                ack: asked,
            } => {
                let tx = envelope.tx_id();
                let accepted = honest || self.rng().below(10) != 0;
                if asked {
                    self.bench.sched.ship(to, 0, ack(tx, accepted), self.loss);
                }
                if !accepted {
                    return;
                }
                commit(tx)
            }
            other => panic!("the gateway sends proposals and envelopes, not {other:?}"),
        };
        self.bench.sched.ship(to, 0, reply, self.loss);
    }

    /// Delivers one reply, picked at random: the wire reorders.
    fn deliver(&mut self) {
        let actions = self.bench.sched.deliver_any();
        self.apply(actions);
    }

    /// The network heals: what is on the wire arrives, and a wake-up fires
    /// only once nothing is left to arrive, until nothing is armed.
    fn drain(&mut self) {
        self.loss = 0;
        while let Some(actions) = self.bench.sched.heal() {
            self.apply(actions);
        }
    }

    /// Fires the `nth` armed wake-up, whatever its delay: early or late.
    fn fire(&mut self, nth: u64) {
        let armed = &self.bench.sched.armed[0];
        let token = *armed.iter().nth(nth as usize).expect("in range");
        let actions = self.bench.timer(token);
        self.apply(actions);
    }
}

proptest! {
    /// Whatever the network does to the replies and whenever the timers
    /// fire, and whether or not one node of a route is dead throughout: a
    /// row exists exactly while its one wake-up is armed, no token is
    /// armed twice, no span is opened or closed twice, every request is
    /// answered exactly once — and once the inputs stop and the timers
    /// drain, the table is empty.
    #[test]
    fn every_request_ends_exactly_once_and_the_table_drains(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let needed: Vec<usize> = (0..1 + rng.below(4)).map(|_| 1 + rng.below(2) as usize).collect();
        let budget = rng.chance(70).then(|| 1 + rng.below(4) as u32);
        let loss = 10 + rng.below(30);
        let dead = rng.chance(50).then(|| pick_target(&mut rng, needed.len()));
        let mut m = Model::new(bench(&needed, true, budget), rng, loss, dead);
        let requests = 1 + m.rng().below(24) as u32;
        let mut issued = 0;
        for _ in 0..400 {
            let armed = m.bench.sched.armed[0].len() as u64;
            match m.rng().below(10) {
                0..=2 if issued < requests => {
                    issued += 1;
                    let shard = m.rng().below(needed.len() as u64) as usize;
                    let actions = match m.rng().chance(60) {
                        true => m.bench.invoke(shard, issued),
                        false => m.bench.query(shard, issued),
                    };
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
        prop_assert_eq!(m.bench.gateway().inflight(), 0);
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
        let mut m = Model::new(bench(&[1], true, Some(budget)), rng, 0, Some(dead));
        let invoke = m.rng().chance(60);
        let request = |m: &mut Model, n| match invoke {
            true => m.bench.invoke(0, n),
            false => m.bench.query(0, n),
        };
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

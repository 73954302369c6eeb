//! The client machine, driven with no simulation: first directed tests of
//! the off-chain transfer row (inputs in, actions out, each answer a line),
//! then a seeded property test over a model network that loses,
//! duplicates and reorders store and Fabric replies and fires timers early
//! and late.

#[path = "../../fabric/tests/support/sched.rs"]
mod sched;

use std::collections::{BTreeMap, BTreeSet};

use hyperprov::{
    Client, ClientCommand, ClientOwn, NodeMsg, OpId, ProvenanceRecord, RecordInput, RetryPolicy,
    TRANSFER_TOKEN_BIT,
};
use hyperprov_fabric::{
    Action, CommitEvent, FabricMsg, Gateway, MspBuilder, MspId, ProposalResponse, Route,
    SigningIdentity, BUSY_REASON,
};
use hyperprov_ledger::{ChannelId, Digest, Encode, RwSet, TxId, ValidationCode};
use hyperprov_offchain::{StoreError, StoreMsg};
use hyperprov_sim::{ActorId, SimDuration, SimTime};
use proptest::prelude::*;

use sched::{Rng, Sched};

/// The client's own actor.
const CLIENT: ActorId = ActorId(100);
const STORAGE: ActorId = ActorId(50);
/// The orderers of every route, home first.
const ORDERERS: [ActorId; 3] = [ActorId(90), ActorId(91), ActorId(92)];
const ENDORSE: SimDuration = SimDuration::from_secs(5);
const COMMIT: SimDuration = SimDuration::from_secs(10);

/// The endorsers of route `shard`, home first: actors `10 * (shard + 1)`
/// and the next two.
fn endorsers(shard: usize) -> Vec<ActorId> {
    let home = 10 * (shard as u32 + 1);
    (home..home + 3).map(ActorId).collect()
}

struct Bench {
    sched: Sched<Client>,
    peer: SigningIdentity,
}

/// A client over `shards` routes, both deadlines when `deadlines`, and a
/// retry budget when given.
fn bench(shards: usize, deadlines: bool, budget: Option<u32>) -> Bench {
    let mut msp = MspBuilder::new(3);
    let org = MspId::new("org1");
    let identity = msp.enroll("client", &org);
    let peer = msp.enroll("peer", &org);
    let routes = (0..shards)
        .map(|shard| Route::new(format!("ch{shard}"), endorsers(shard), ORDERERS.to_vec(), 1))
        .collect();
    let mut gateway = Gateway::new(identity, routes);
    if deadlines {
        gateway = gateway.with_deadlines(Some(ENDORSE), Some(COMMIT));
    }
    if let Some(budget) = budget {
        gateway = gateway.with_retry(RetryPolicy::new(budget));
    }
    let client = Client::new(gateway, STORAGE, "sshfs://s/".to_owned());
    let sched = Sched::new([(CLIENT, client)], Rng::new(11));
    Bench { sched, peer }
}

impl Bench {
    fn client(&self) -> &Client {
        &self.sched.machines[0]
    }

    fn command(&mut self, cmd: ClientCommand) -> Vec<Action<ClientOwn, NodeMsg>> {
        self.message(NodeMsg::Client(cmd))
    }

    /// A command or a reply, from whichever node: the client reads no
    /// sender.
    fn message(&mut self, msg: NodeMsg) -> Vec<Action<ClientOwn, NodeMsg>> {
        self.sched.message(0, STORAGE, msg)
    }

    fn timer(&mut self, token: u64) -> Vec<Action<ClientOwn, NodeMsg>> {
        self.sched.fire(0, token)
    }

    /// An endorser's answer to the proposal `tx_id`.
    fn answer(&self, tx_id: TxId, result: Result<Vec<u8>, &str>) -> NodeMsg {
        NodeMsg::Fabric(FabricMsg::ProposalResult(ProposalResponse {
            tx_id,
            endorser: self.peer.certificate().clone(),
            result: result.map_err(str::to_owned),
            rwset: RwSet::new(),
            event: None,
            signature: self.peer.sign(b"endorsement"),
        }))
    }

    /// The on-chain record of `key`, locating [`payload`]`(key)`.
    fn record(&self, key: &str) -> Vec<u8> {
        let data = payload(key);
        let checksum = Digest::of(&data);
        let location = format!("sshfs://s/{}", checksum.to_hex());
        let input = RecordInput::new(checksum).with_location(location, data.len() as u64);
        let creator = self.peer.certificate().clone();
        ProvenanceRecord::from_input(key, input, creator).to_bytes()
    }
}

fn payload(key: &str) -> Vec<u8> {
    format!("payload of {key}").into_bytes()
}

fn store_data(op: u64, key: &str) -> ClientCommand {
    ClientCommand::StoreData {
        key: key.to_owned(),
        data: payload(key),
        parents: vec![],
        metadata: vec![],
        op: OpId(op),
    }
}

fn get_data(op: u64, key: &str) -> ClientCommand {
    let (key, op) = (key.to_owned(), OpId(op));
    ClientCommand::GetData { key, op }
}

fn check_data(op: u64, key: &str) -> ClientCommand {
    let (key, op) = (key.to_owned(), OpId(op));
    ClientCommand::CheckData { key, op }
}

fn post(op: u64, key: &str) -> ClientCommand {
    let input = RecordInput::new(Digest::of(key.as_bytes()));
    let (key, op) = (key.to_owned(), OpId(op));
    ClientCommand::Post { key, input, op }
}

/// A peer's commit notification for `tx_id`.
fn commit(tx_id: TxId) -> NodeMsg {
    NodeMsg::Fabric(FabricMsg::Commit(event(tx_id)))
}

/// The commit event of `tx_id`, validated.
fn event(tx_id: TxId) -> CommitEvent {
    CommitEvent {
        channel: ChannelId::default(),
        tx_id,
        block_number: 1,
        code: ValidationCode::Valid,
        chaincode_event: None,
        creator: None,
        endorser: None,
    }
}

/// The `n`th transfer token.
fn token(n: u64) -> u64 {
    TRANSFER_TOKEN_BIT | n
}

fn put_ack(token: u64) -> NodeMsg {
    let (name, result) = (String::new(), Ok(()));
    NodeMsg::Store(StoreMsg::PutAck {
        name,
        token,
        result,
    })
}

fn get_result(token: u64, result: Result<Vec<u8>, StoreError>) -> NodeMsg {
    let name = String::new();
    NodeMsg::Store(StoreMsg::GetResult {
        name,
        token,
        result,
    })
}

/// The tx id of the proposal (or envelope) these actions send.
fn tx_of(actions: &[Action<ClientOwn, NodeMsg>]) -> TxId {
    actions
        .iter()
        .find_map(|action| match action {
            Action::Send(_, _, NodeMsg::Fabric(FabricMsg::SubmitProposal(signed))) => {
                Some(signed.proposal.tx_id())
            }
            Action::Send(_, _, NodeMsg::Fabric(FabricMsg::Broadcast { envelope, .. })) => {
                Some(envelope.tx_id())
            }
            _ => None,
        })
        .expect("the actions send a proposal")
}

/// The storage message these actions send.
fn stored(actions: &[Action<ClientOwn, NodeMsg>]) -> &StoreMsg {
    actions
        .iter()
        .find_map(|action| match action {
            Action::Send(_, _, NodeMsg::Store(msg)) => Some(msg),
            _ => None,
        })
        .expect("the actions send to the store")
}

/// Rows that wait on a wake-up, as the client's view shows them: the
/// gateway's, and the transfers.
fn rows(client: &Client) -> (usize, usize) {
    let view = client.view();
    let gateway = view.gateway;
    let phases = [
        gateway.endorsing,
        gateway.commit_wait,
        gateway.query,
        gateway.backing_off,
    ];
    (phases.iter().sum(), view.transfers)
}

/// A token as a line shows it: `t3` for the third transfer token, `3`
/// for the gateway's third.
fn tok(token: u64) -> String {
    if token & TRANSFER_TOKEN_BIT != 0 {
        format!("t{}", token & !TRANSFER_TOKEN_BIT)
    } else {
        token.to_string()
    }
}

/// One short word per action, so a transition reads as a line.
fn show(actions: &[Action<ClientOwn, NodeMsg>]) -> Vec<String> {
    actions
        .iter()
        .map(|action| match action {
            Action::Charge(_) => "charge".to_owned(),
            Action::Send(to, _, NodeMsg::Fabric(FabricMsg::SubmitProposal(_))) => {
                format!("propose->{}", to.0)
            }
            Action::Send(to, _, NodeMsg::Fabric(FabricMsg::Broadcast { .. })) => {
                format!("broadcast->{}", to.0)
            }
            Action::Arm(token, delay) if *delay == ENDORSE => {
                format!("arm#{}=endorse", tok(*token))
            }
            Action::Arm(token, delay) if *delay == COMMIT => format!("arm#{}=commit", tok(*token)),
            Action::Arm(token, _) => format!("arm#{}=backoff", tok(*token)),
            Action::Disarm(token) => format!("disarm#{}", tok(*token)),
            Action::SpanStart(_, stage, _) => format!("[{stage}"),
            Action::SpanEnd(_, stage, _) => format!("{stage}]"),
            Action::Note(trace, name, _) if trace.starts_with("op-") => format!("!{name}@{trace}"),
            Action::Note(_, name, _) => format!("!{name}"),
            Action::Count(None, name, 1) => format!("+client.{name}"),
            Action::Observe("backoff", _) => "backoff".to_owned(),
            Action::Send(_, _, NodeMsg::Store(StoreMsg::Put { token, .. })) => {
                format!("put#{}", tok(*token))
            }
            Action::Send(_, _, NodeMsg::Store(StoreMsg::Get { token, .. })) => {
                format!("get#{}", tok(*token))
            }
            Action::Own(ClientOwn(op, _, Ok(_))) => format!("done{}=Ok", op.0),
            Action::Own(ClientOwn(op, _, Err(error))) => format!("done{}={error:?}", op.0),
            other => panic!("not a client's action: {other:?}"),
        })
        .collect()
}

/// One test per transition of a transfer row.
mod transfers {
    use super::*;

    /// With no deadline the kernel sees the calls it always saw: no timer
    /// for a transfer, and the ack goes straight on to the `post`.
    #[test]
    fn without_deadlines_a_transfer_arms_nothing() {
        let mut b = bench(1, false, Some(3));
        let issued = b.command(store_data(1, "k"));
        assert_eq!(show(&issued), ["[op", "charge", "[offchain.put", "put#t1"]);
        let acked = b.message(put_ack(token(1)));
        let post = ["offchain.put]", "charge", "[endorse", "propose->10"];
        assert_eq!(show(&acked), post);
        assert_eq!(rows(b.client()), (1, 0));
    }

    #[test]
    fn a_lost_put_ack_with_budget_left_ends_ok() {
        let mut b = bench(1, true, Some(3));
        let issued = b.command(store_data(1, "k"));
        let start = ["[op", "charge", "[offchain.put", "put#t1", "arm#t1=endorse"];
        assert_eq!(show(&issued), start);
        // The ack is lost and the deadline fires.
        let backing_off = [
            "offchain.put]",
            "!offchain.timeout@op-1",
            "+client.timeouts",
            "+client.retries",
            "backoff",
            "!op.retry@op-1",
            "arm#t2=backoff",
        ];
        assert_eq!(show(&b.timer(token(1))), backing_off);
        let resent = b.timer(token(2));
        assert_eq!(show(&resent), ["[offchain.put", "put#t3", "arm#t3=endorse"]);
        // The same object again, under a fresh correlation token.
        let (
            StoreMsg::Put { name, data, .. },
            StoreMsg::Put {
                name: again,
                data: same,
                ..
            },
        ) = (stored(&issued), stored(&resent))
        else {
            panic!("two puts");
        };
        assert_eq!((name, data), (again, same));
        let acked = b.message(put_ack(token(3)));
        let post = [
            "disarm#t3",
            "offchain.put]",
            "charge",
            "[endorse",
            "arm#1=endorse",
            "propose->10",
        ];
        assert_eq!(show(&acked), post);
        let tx = tx_of(&acked);
        b.message(b.answer(tx, Ok(b"r".to_vec())));
        let done = ["disarm#2", "commit_wait]", "op]", "done1=Ok"];
        assert_eq!(show(&b.message(commit(tx))), done);
        assert_eq!(
            (b.client().view().operations, rows(b.client())),
            (0, (0, 0))
        );
    }

    #[test]
    fn a_lost_get_result_with_no_policy_ends_timeout() {
        let mut b = bench(1, true, None);
        let issued = b.command(get_data(1, "k"));
        let found = b.message(b.answer(tx_of(&issued), Ok(b.record("k"))));
        let fetch = [
            "disarm#1",
            "query]",
            "[offchain.get",
            "get#t1",
            "arm#t1=endorse",
        ];
        assert_eq!(show(&found), fetch);
        let timed_out = [
            "offchain.get]",
            "!offchain.timeout@op-1",
            "+client.timeouts",
            "op]",
            "done1=Timeout",
        ];
        assert_eq!(show(&b.timer(token(1))), timed_out);
        assert_eq!(
            (b.client().view().operations, rows(b.client())),
            (0, (0, 0))
        );
        // The result thought lost arrives after all, and finds nothing.
        assert!(b.message(get_result(token(1), Ok(payload("k")))).is_empty());
    }

    /// A `GetResult` closes the span, then charges the verification hash,
    /// then does the plan's next step — the order the kernel saw it in.
    #[test]
    fn a_fetched_payload_is_verified_after_its_span_closes() {
        let mut b = bench(1, true, None);
        let issued = b.command(check_data(1, "k"));
        b.message(b.answer(tx_of(&issued), Ok(b.record("k"))));
        let fetched = b.message(get_result(token(1), Ok(payload("k"))));
        let done = ["disarm#t1", "offchain.get]", "charge", "op]", "done1=Ok"];
        assert_eq!(show(&fetched), done);
    }

    #[test]
    fn a_spent_budget_ends_exhausted() {
        let mut b = bench(1, true, Some(2));
        b.command(store_data(1, "k"));
        assert_eq!(show(&b.timer(token(1))).last().unwrap(), "arm#t2=backoff");
        let resent = ["[offchain.put", "put#t3", "arm#t3=endorse"];
        assert_eq!(show(&b.timer(token(2))), resent);
        let exhausted = [
            "offchain.put]",
            "!offchain.timeout@op-1",
            "+client.timeouts",
            "+client.exhausted",
            "op]",
            "done1=Exhausted { attempts: 2 }",
        ];
        assert_eq!(show(&b.timer(token(3))), exhausted);
        assert_eq!(
            (b.client().view().operations, rows(b.client())),
            (0, (0, 0))
        );
    }

    /// The first attempt's ack arrives late: during the backoff, and again
    /// after the second attempt's ack moved the operation on to its `post`.
    /// It finds no row, so the `post` is not handed a `Stored` — which
    /// would end the operation `Malformed` — and `offchain.put` is not
    /// closed twice.
    #[test]
    fn a_late_put_ack_of_an_abandoned_attempt_is_ignored() {
        let mut b = bench(1, true, Some(3));
        b.command(store_data(1, "k"));
        b.timer(token(1));
        assert!(b.message(put_ack(token(1))).is_empty());
        b.timer(token(2));
        let posting = b.message(put_ack(token(3)));
        assert!(b.message(put_ack(token(1))).is_empty());
        assert!(b.message(put_ack(token(3))).is_empty());
        let tx = tx_of(&posting);
        b.message(b.answer(tx, Ok(b"r".to_vec())));
        let done = ["disarm#2", "commit_wait]", "op]", "done1=Ok"];
        assert_eq!(show(&b.message(commit(tx))), done);
    }

    /// Gateway tokens count up from 1 and transfer tokens carry
    /// `TRANSFER_TOKEN_BIT`: with a put, a fetch and a chain request armed
    /// at once, no two tokens are equal and the bit tells whose each is.
    #[test]
    fn a_transfer_token_never_equals_a_gateway_token() {
        let mut b = bench(1, true, None);
        let store = b.command(store_data(1, "a"));
        let query = b.command(get_data(2, "b"));
        let fetch = b.message(b.answer(tx_of(&query), Ok(b.record("b"))));
        let invoke = b.command(post(3, "c"));
        let armed: Vec<u64> = [store, query, fetch, invoke]
            .iter()
            .flatten()
            .filter_map(|action| match action {
                Action::Arm(token, _) => Some(*token),
                _ => None,
            })
            .collect();
        assert_eq!(armed, [token(1), 1, token(2), 2]);
        assert_eq!(rows(b.client()), (1, 2));
    }
}

/// The model around a client and its host: what its actions have opened
/// and completed so far, and the store its transfers reach.
struct Model {
    bench: Bench,
    /// Spans opened and not closed.
    open: BTreeSet<(String, &'static str)>,
    /// Completions per operation.
    done: BTreeMap<u64, u32>,
    /// The storage node's objects.
    objects: BTreeMap<String, Vec<u8>>,
    /// Percent of requests lost, of replies lost and of replies
    /// duplicated, while endorsers also shed and reject at random; zero
    /// once the net heals.
    loss: u64,
}

impl Model {
    fn rng(&mut self) -> &mut Rng {
        &mut self.bench.sched.rng
    }

    /// Checks the actions of one input against the books and applies
    /// them: sends become the replies a (lossy) network would return.
    fn apply(&mut self, actions: Vec<Action<ClientOwn, NodeMsg>>) {
        for action in actions {
            match action {
                Action::SpanStart(trace, stage, _) => {
                    assert!(self.open.insert((trace, stage)), "{stage} opened twice");
                }
                Action::SpanEnd(trace, stage, _) => {
                    assert!(self.open.remove(&(trace, stage)), "{stage} closed twice");
                }
                Action::Own(ClientOwn(op, _, _)) => *self.done.entry(op.0).or_insert(0) += 1,
                Action::Send(to, _, NodeMsg::Store(msg)) => {
                    assert_eq!(to, STORAGE);
                    self.serve(msg);
                }
                Action::Send(to, _, NodeMsg::Fabric(msg)) => self.endorse_or_order(to, msg),
                _ => {}
            }
        }
        // Every command ends at most once, and a row exists exactly while
        // its one wake-up is armed: the gateway's under its tokens, a
        // transfer's under a token that carries the bit. Nothing else is
        // disarmed.
        assert!(self.done.values().all(|&n| n == 1));
        let armed = &self.bench.sched.armed[0];
        let transfers = armed.iter().filter(|&&t| t & TRANSFER_TOKEN_BIT != 0);
        let transfers = transfers.count();
        let armed = (armed.len() - transfers, transfers);
        assert_eq!(armed, rows(self.bench.client()));
        assert_eq!(self.bench.sched.stray_disarms, 0);
    }

    fn serve(&mut self, msg: StoreMsg) {
        let loss = self.loss;
        if self.rng().chance(loss) {
            return;
        }
        let reply = match msg {
            StoreMsg::Put { name, data, token } => {
                self.objects.insert(name.clone(), data);
                let result = Ok(());
                StoreMsg::PutAck {
                    name,
                    token,
                    result,
                }
            }
            StoreMsg::Get { name, token } => {
                let found = self.objects.get(&name).cloned();
                let result = found.ok_or_else(|| StoreError::NotFound(name.clone()));
                StoreMsg::GetResult {
                    name,
                    token,
                    result,
                }
            }
            other => panic!("the client puts and gets, not {other:?}"),
        };
        self.ship(STORAGE, NodeMsg::Store(reply));
    }

    /// The node `to` answers `msg`.
    fn endorse_or_order(&mut self, to: ActorId, msg: FabricMsg) {
        let reply = match msg {
            FabricMsg::SubmitProposal(signed) => {
                let proposal = signed.proposal;
                let tx = proposal.tx_id();
                // A healed network answers honestly.
                let roll = if self.loss == 0 {
                    9
                } else {
                    self.rng().below(10)
                };
                match roll {
                    0 => self.bench.answer(tx, Err(BUSY_REASON)),
                    1 => self.bench.answer(tx, Err("rejected")),
                    _ if proposal.function == "get" => {
                        let key = String::from_utf8(proposal.args[0].clone()).unwrap();
                        self.bench.answer(tx, Ok(self.bench.record(&key)))
                    }
                    _ => self.bench.answer(tx, Ok(b"r".to_vec())),
                }
            }
            // The orderer takes the envelope in and answers if asked.
            FabricMsg::Broadcast { envelope, ack, .. } => {
                let tx_id = envelope.tx_id();
                if ack {
                    let accepted = true;
                    self.ship(
                        to,
                        NodeMsg::Fabric(FabricMsg::BroadcastAck { tx_id, accepted }),
                    );
                }
                commit(tx_id)
            }
            // Every envelope is taken in, so a probed peer has committed it.
            FabricMsg::CommitStatus { tx_id, .. } => {
                NodeMsg::Fabric(FabricMsg::CommitStatusAnswer(event(tx_id)))
            }
            other => panic!("the client sends proposals, envelopes and probes, not {other:?}"),
        };
        self.ship(to, reply);
    }

    /// Puts a reply of `from` on the wire: lost, once, or twice.
    fn ship(&mut self, from: ActorId, reply: NodeMsg) {
        self.bench.sched.ship(from, 0, reply, self.loss);
    }

    /// Delivers one reply, picked at random: the wire reorders.
    fn deliver(&mut self) {
        let actions = self.bench.sched.deliver_any();
        self.apply(actions);
    }

    /// Fires the `nth` armed wake-up, whatever its delay: early or late.
    fn fire(&mut self, nth: u64) {
        let armed = &self.bench.sched.armed[0];
        let token = *armed.iter().nth(nth as usize).expect("in range");
        let actions = self.bench.timer(token);
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
}

proptest! {
    /// Whatever the network does to store and Fabric replies and whenever
    /// the timers fire: no token is armed twice, armed tokens equal
    /// gateway rows plus transfer rows, no span is opened or closed twice,
    /// every command ends exactly once — and once the inputs stop and the
    /// timers drain, the table is empty.
    #[test]
    fn every_command_ends_exactly_once_and_the_table_drains(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let shards = 1 + rng.below(2) as usize;
        let budget = rng.chance(70).then(|| 1 + rng.below(4) as u32);
        let loss = 10 + rng.below(30);
        let mut bench = bench(shards, true, budget);
        bench.sched.rng = rng;
        let mut m = Model {
            bench,
            open: BTreeSet::new(),
            done: BTreeMap::new(),
            objects: BTreeMap::new(),
            loss,
        };
        let kinds: [fn(u64, &str) -> ClientCommand; 4] = [store_data, get_data, check_data, post];
        let commands = 1 + m.rng().below(24);
        let mut issued = 0;
        for step in 0..400u64 {
            let armed = m.bench.sched.armed[0].len() as u64;
            match m.rng().below(10) {
                0..=2 if issued < commands => {
                    issued += 1;
                    let key = format!("k{}", m.rng().below(4));
                    let command = kinds[m.rng().below(4) as usize];
                    m.bench.sched.now = SimTime::from_nanos(step * 1_000_000);
                    let actions = m.bench.command(command(issued, &key));
                    m.apply(actions);
                }
                3..=7 if !m.bench.sched.flying.is_empty() => m.deliver(),
                8 if armed > 0 => {
                    let nth = m.rng().below(armed);
                    m.fire(nth);
                }
                // A token that is not armed — spent, disarmed or never
                // allocated, of either kind — wakes nothing.
                9 => {
                    let token = m.rng().below(64) | [0, TRANSFER_TOKEN_BIT][m.rng().below(2) as usize];
                    if !m.bench.sched.armed[0].contains(&token) {
                        prop_assert!(m.bench.timer(token).is_empty());
                    }
                }
                _ => {}
            }
        }
        // The inputs stop.
        m.drain();
        prop_assert_eq!(m.bench.client().view().operations, 0);
        prop_assert_eq!(rows(m.bench.client()), (0, 0));
        prop_assert!(m.open.is_empty(), "spans left open: {:?}", m.open);
        prop_assert_eq!(m.done.len() as u64, issued);
    }
}

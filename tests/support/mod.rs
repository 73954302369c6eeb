//! What the workspace-level fault tests and the seeded generator share:
//! op ids, the write commands, the two ways clients issue operations, the
//! nodes' views, and the audit over every completion the clients were
//! handed.
#![allow(dead_code)] // each test file uses its own part of this module

use hyperprov_repro::hyperprov::{
    AuditFinding, ClientCommand, HyperProvNetwork, NodeMsg, OpId, RecordInput,
};
use hyperprov_repro::ledger::Digest;
use hyperprov_repro::sim::json::{parse, Value};
use hyperprov_repro::sim::{ActorId, SimDuration, SimTime};

/// Client `client`'s `n`th operation: an op id keys the operation's
/// spans, so it is unique across the network.
pub fn op_id(client: usize, n: u64) -> u64 {
    (client as u64) << 32 | n
}

/// A `StoreData` of a small payload under `key`.
pub fn store_data(key: &str, op: u64) -> ClientCommand {
    ClientCommand::StoreData {
        key: key.into(),
        data: format!("payload for {key}").into_bytes(),
        parents: vec![],
        metadata: vec![],
        op: OpId(op),
    }
}

/// A metadata-only `Post` under `key`.
pub fn post(key: &str, op: u64) -> ClientCommand {
    let input = RecordInput::new(Digest::of(key.as_bytes()));
    let (key, op) = (key.into(), OpId(op));
    ClientCommand::Post { key, input, op }
}

/// How clients issue operations until an instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// A client issues its next operation as soon as its last one ended
    /// (looked at every 10 ms).
    InAClosedLoop,
    /// Every client issues an operation every period, whether or not its
    /// earlier operations ended.
    OnASchedule(SimDuration),
}

impl Load {
    /// Runs the network until `until`, client `c` (one per entry of
    /// `issued`, which counts its operations) issuing
    /// `command("item-{c}-{n}", op_id(c, n))` as its `n`th operation.
    pub fn run(
        self,
        net: &mut HyperProvNetwork,
        issued: &mut [u64],
        until: SimTime,
        command: &mut dyn FnMut(&str, u64) -> ClientCommand,
    ) {
        let step = match self {
            Load::InAClosedLoop => SimDuration::from_millis(10),
            Load::OnASchedule(period) => period,
        };
        while net.sim.now() < until {
            for (client, issued) in issued.iter_mut().enumerate() {
                let idle = net.completions[client].borrow().len() as u64 == *issued;
                if idle || self != Load::InAClosedLoop {
                    *issued += 1;
                    let key = format!("item-{client}-{issued}");
                    let cmd = command(&key, op_id(client, *issued));
                    net.sim
                        .inject_message(net.clients[client], NodeMsg::Client(cmd));
                }
            }
            net.sim.run_until(net.sim.now() + step);
        }
    }
}

/// The network's audit over every completion its clients were handed.
pub fn audit(net: &HyperProvNetwork) -> Vec<AuditFinding> {
    let done: Vec<_> = net
        .completions
        .iter()
        .flat_map(|q| q.borrow().clone())
        .collect();
    net.audit(&done)
}

/// Every node's view, as its host renders it: the peers', the ordering
/// nodes', the storage node's and the clients', in that order.
pub fn views(net: &HyperProvNetwork) -> Vec<(ActorId, String)> {
    let nodes = [&net.peers, &net.orderers, &vec![net.storage], &net.clients];
    let view = |&id: &ActorId| Some((id, net.sim.view(id)?));
    nodes.into_iter().flatten().filter_map(view).collect()
}

/// The ordering nodes up now whose views say they order: the solo
/// orderer, or the raft members that believe they lead.
pub fn leaders(net: &HyperProvNetwork) -> Vec<ActorId> {
    let up = net.orderers.iter().filter(|&&id| !net.sim.is_crashed(id));
    let view = |&id: &ActorId| parse(&net.sim.view(id)?).ok();
    let leads =
        |id: &&ActorId| view(id).is_some_and(|v| v.get("leader") == Some(&Value::Bool(true)));
    up.filter(leads).copied().collect()
}

//! Deployment of the on-chain-data baseline network.
//!
//! Mirrors [`hyperprov::HyperProvNetwork`] but installs
//! [`OnChainProvChaincode`] and uses [`OnChainClient`] actors that push
//! the full payload through the transaction path instead of off-chain
//! storage. Reuses the same [`NodeMsg`] message type and client command /
//! completion plumbing so the benchmark harness can drive both systems
//! identically.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use hyperprov::{
    ClientCommand, ClientCompletion, CompletionQueue, HyperProvError, NetworkConfig, NodeMsg,
    OpOutput,
};
use hyperprov_device::link_between;
use hyperprov_fabric::{
    ChaincodeRegistry, ChannelPolicies, Committer, Gateway, GatewayEvent, MspBuilder, MspId,
    PeerActor, SoloOrdererActor,
};
use hyperprov_ledger::TxId;
use hyperprov_sim::{Actor, ActorId, Context, Event, ServiceHarness, SimTime, Simulation};

use crate::onchain::{OnChainProvChaincode, ONCHAIN_NAME};

/// A client that posts the payload itself on-chain (no storage hop).
///
/// Accepts [`ClientCommand::StoreData`] (the payload goes into the
/// transaction arguments) and [`ClientCommand::Get`]; pushes
/// [`ClientCompletion`]s like the real client so harness code is shared.
pub struct OnChainClient {
    gateway: Gateway,
    completions: CompletionQueue,
    inflight: HashMap<TxId, (hyperprov::OpId, SimTime)>,
    harness: ServiceHarness<NodeMsg>,
}

impl OnChainClient {
    /// Creates the client and its completion queue.
    pub fn new(gateway: Gateway) -> (Self, CompletionQueue) {
        let completions: CompletionQueue = Rc::new(RefCell::new(std::collections::VecDeque::new()));
        (
            OnChainClient {
                gateway,
                completions: completions.clone(),
                inflight: HashMap::new(),
                harness: ServiceHarness::new("onchain-client"),
            },
            completions,
        )
    }
}

impl Actor<NodeMsg> for OnChainClient {
    fn on_event(&mut self, ctx: &mut Context<'_, NodeMsg>, event: Event<NodeMsg>) {
        match event {
            Event::Message { msg, .. } => match msg {
                NodeMsg::Client(ClientCommand::StoreData { key, data, op, .. }) => {
                    let tx_id = self.gateway.invoke(
                        ctx,
                        &mut self.harness,
                        ONCHAIN_NAME,
                        "post",
                        vec![key.into_bytes(), data],
                    );
                    self.inflight.insert(tx_id, (op, ctx.now()));
                }
                NodeMsg::Client(ClientCommand::Get { key, op }) => {
                    let tx_id = self.gateway.query(
                        ctx,
                        &mut self.harness,
                        ONCHAIN_NAME,
                        "get",
                        vec![key.into_bytes()],
                    );
                    self.inflight.insert(tx_id, (op, ctx.now()));
                }
                NodeMsg::Client(_) => {}
                NodeMsg::Fabric(fmsg) => {
                    let events = self.gateway.handle(ctx, fmsg);
                    let now = ctx.now();
                    for ev in events {
                        match ev {
                            GatewayEvent::TxCommitted { tx_id, code, .. } => {
                                if let Some((op, started)) = self.inflight.remove(&tx_id) {
                                    let outcome = if code.is_valid() {
                                        Ok(OpOutput::Committed {
                                            record: None,
                                            tx_id,
                                        })
                                    } else {
                                        Err(HyperProvError::Invalidated(code))
                                    };
                                    self.completions.borrow_mut().push_back(ClientCompletion {
                                        op,
                                        started,
                                        finished: now,
                                        outcome,
                                    });
                                }
                            }
                            GatewayEvent::TxFailed { tx_id, error } => {
                                if let Some((op, started)) = self.inflight.remove(&tx_id) {
                                    self.completions.borrow_mut().push_back(ClientCompletion {
                                        op,
                                        started,
                                        finished: now,
                                        outcome: Err(HyperProvError::Rejected(error.to_string())),
                                    });
                                }
                            }
                            GatewayEvent::QueryDone { tx_id, result, .. } => {
                                if let Some((op, started)) = self.inflight.remove(&tx_id) {
                                    let outcome = match result {
                                        Ok(bytes) => Ok(OpOutput::Keys(vec![format!(
                                            "{} bytes",
                                            bytes.len()
                                        )])),
                                        Err(error) => {
                                            Err(HyperProvError::Rejected(error.to_string()))
                                        }
                                    };
                                    self.completions.borrow_mut().push_back(ClientCompletion {
                                        op,
                                        started,
                                        finished: now,
                                        outcome,
                                    });
                                }
                            }
                        }
                    }
                }
                NodeMsg::Store(_) => {}
            },
            Event::Timer { token } => {
                // Gateway CPU charges (hashing, signing) release here.
                let _ = self.harness.on_timer(ctx, token);
            }
        }
    }
}

/// A built on-chain-baseline network.
pub struct OnChainNetwork {
    /// The simulation.
    pub sim: Simulation<NodeMsg>,
    /// Peer actor ids.
    pub peers: Vec<ActorId>,
    /// Orderer actor id.
    pub orderer: ActorId,
    /// Client actor ids.
    pub clients: Vec<ActorId>,
    /// Per-client completion queues.
    pub completions: Vec<CompletionQueue>,
    /// Shared peer ledgers.
    pub ledgers: Vec<Rc<RefCell<Committer>>>,
}

impl OnChainNetwork {
    /// Builds the baseline network from the same configuration type the
    /// real system uses (storage device is ignored — there is no storage
    /// node; actor layout: peers `0..P`, orderer `P`, clients `P+1...`).
    ///
    /// # Panics
    ///
    /// Panics if the configuration has no peers or no clients.
    pub fn build(config: &NetworkConfig) -> Self {
        assert!(!config.peer_devices.is_empty());
        assert!(!config.client_devices.is_empty());
        let n_peers = config.peer_devices.len();

        let mut msp_builder = MspBuilder::new(config.seed);
        let peer_identities: Vec<_> = (0..n_peers)
            .map(|i| msp_builder.enroll(&format!("peer{i}"), &MspId::new(format!("org{}", i + 1))))
            .collect();
        let client_identities: Vec<_> = (0..config.client_devices.len())
            .map(|i| {
                msp_builder.enroll(
                    &format!("client{i}"),
                    &MspId::new(format!("org{}", (i % n_peers) + 1)),
                )
            })
            .collect();
        let msp = msp_builder.build();

        let mut registry = ChaincodeRegistry::new();
        registry.install(Arc::new(OnChainProvChaincode::new()));

        let peer_ids: Vec<ActorId> = (0..n_peers as u32).map(ActorId).collect();
        let orderer_id = ActorId(n_peers as u32);
        let client_ids: Vec<ActorId> = (0..config.client_devices.len() as u32)
            .map(|i| ActorId(n_peers as u32 + 1 + i))
            .collect();

        let mut sim: Simulation<NodeMsg> = Simulation::new(config.seed);
        let mut ledgers = Vec::new();
        for (i, identity) in peer_identities.iter().enumerate() {
            // The committer's channel must match the gateways' channel:
            // endorsing peers route proposals by proposal channel.
            let committer = Rc::new(RefCell::new(Committer::for_channel(
                "onchain-channel".into(),
                msp.clone(),
                ChannelPolicies::new(config.endorsement_policy()),
            )));
            ledgers.push(committer.clone());
            let mut actor = PeerActor::<NodeMsg>::new(
                identity.clone(),
                registry.clone(),
                config.costs,
                format!("peer{i}"),
            );
            actor.add_channel(committer, None);
            if let Some(queue) = config.peer_queue {
                actor = actor.with_queue(queue);
            }
            for (c, &cid) in client_ids.iter().enumerate() {
                if c % n_peers == i {
                    actor.subscribe(cid, client_identities[c].certificate().id);
                }
            }
            let id = sim.add_actor_with_speed(Box::new(actor), config.peer_devices[i].cpu_speed);
            debug_assert_eq!(id, peer_ids[i]);
        }
        let orderer_actor = SoloOrdererActor::<NodeMsg>::new(
            "onchain-channel".into(),
            config.batch,
            peer_ids.clone(),
            config.costs,
        );
        let id = sim.add_actor_with_speed(Box::new(orderer_actor), config.orderer_device.cpu_speed);
        debug_assert_eq!(id, orderer_id);

        let mut completions = Vec::new();
        for (i, identity) in client_identities.iter().enumerate() {
            let home = i % n_peers;
            let mut endorsers = vec![peer_ids[home]];
            endorsers.extend(peer_ids.iter().copied().filter(|&p| p != peer_ids[home]));
            let gateway = Gateway::new(
                identity.clone(),
                "onchain-channel",
                endorsers,
                orderer_id,
                1,
                config.costs,
            );
            let (client, queue) = OnChainClient::new(gateway);
            let id = sim.add_actor_with_speed(Box::new(client), config.client_devices[i].cpu_speed);
            debug_assert_eq!(id, client_ids[i]);
            completions.push(queue);
        }

        // Pairwise links.
        let devices: Vec<_> = config
            .peer_devices
            .iter()
            .chain(std::iter::once(&config.orderer_device))
            .chain(config.client_devices.iter())
            .cloned()
            .collect();
        for (i, da) in devices.iter().enumerate() {
            for (j, db) in devices.iter().enumerate() {
                if i != j {
                    sim.network_mut().set_link(
                        ActorId(i as u32),
                        ActorId(j as u32),
                        link_between(da, db),
                    );
                }
            }
        }

        OnChainNetwork {
            sim,
            peers: peer_ids,
            orderer: orderer_id,
            clients: client_ids,
            completions,
            ledgers,
        }
    }
}

impl std::fmt::Debug for OnChainNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OnChainNetwork")
            .field("peers", &self.peers.len())
            .field("clients", &self.clients.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperprov::OpId;
    use hyperprov_sim::SimDuration;

    #[test]
    fn onchain_post_commits_with_full_payload() {
        let config = NetworkConfig::desktop(1);
        let mut net = OnChainNetwork::build(&config);
        net.sim.inject_message(
            net.clients[0],
            NodeMsg::Client(ClientCommand::StoreData {
                key: "item".into(),
                data: vec![9u8; 50_000],
                parents: vec![],
                metadata: vec![],
                op: OpId(1),
            }),
        );
        net.sim
            .run_until(net.sim.now() + SimDuration::from_secs(30));
        let completion = net.completions[0].borrow_mut().pop_front().unwrap();
        assert!(completion.outcome.is_ok(), "{:?}", completion.outcome);
        // The payload is in every peer's state database.
        for ledger in &net.ledgers {
            let ledger = ledger.borrow();
            assert!(ledger.state().value_bytes() > 50_000);
        }
    }

    #[test]
    fn onchain_blocks_grow_with_payload() {
        let run = |size: usize| {
            // Cut one block per transaction so the batch timeout does not
            // mask the payload cost.
            let config = NetworkConfig::desktop(1).with_batch(hyperprov_fabric::BatchConfig {
                max_message_count: 1,
                ..hyperprov_fabric::BatchConfig::default()
            });
            let mut net = OnChainNetwork::build(&config);
            net.sim.inject_message(
                net.clients[0],
                NodeMsg::Client(ClientCommand::StoreData {
                    key: "item".into(),
                    data: vec![1u8; size],
                    parents: vec![],
                    metadata: vec![],
                    op: OpId(1),
                }),
            );
            net.sim
                .run_until(net.sim.now() + SimDuration::from_secs(30));
            let completion = net.completions[0].borrow_mut().pop_front().unwrap();
            completion.latency()
        };
        let small = run(1_000);
        let large = run(4_000_000);
        assert!(large > small, "large={large} small={small}");
    }
}

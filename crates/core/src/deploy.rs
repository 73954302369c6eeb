//! Network deployment: assemble peers, orderer, off-chain storage and
//! clients into one simulation, with device profiles matching the paper's
//! desktop and Raspberry Pi testbeds.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use hyperprov_device::DeviceProfile;
use hyperprov_fabric::{
    BatchConfig, CertId, Chaincode, Committer, EndorsementPolicy, FabricMsg, Gateway, Msp,
    MspBuilder, MspId, Node, OrderingNode, Peer, QueueConfig, Route, SigningIdentity,
    SnapshotPolicy,
};
use hyperprov_ledger::{ChannelId, DEFAULT_CHANNEL};
use hyperprov_offchain::{MemoryStore, StorageNode};
use hyperprov_sim::{ActorId, CpuResource, SimDuration, Simulation, SloSpec};

use crate::chaincode::{HyperProvChaincode, HyperProvIndexer};
use crate::client::{Client, CompletionQueue, RetryPolicy};
use crate::net::NodeMsg;

/// Ordering-service topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrdererMode {
    /// A single ordering node — the paper's setup and the default.
    Solo,
    /// A Raft-replicated ordering service; killing the leader triggers an
    /// election and the cluster keeps ordering.
    Raft {
        /// Cluster size (use an odd number for sensible quorums).
        members: usize,
    },
}

/// One channel (shard) of a deployment.
///
/// A deployment instantiates one complete ordering pipeline per channel
/// (all in the deployment's [`NetworkConfig::orderer_mode`], under its
/// one endorsement policy); peers host any subset of channels (each with
/// its own block store, state database and history database), and
/// clients route item keys to channels through [`crate::HashRouter`].
#[derive(Debug, Clone)]
pub struct ChannelSpec {
    /// Channel name (unique within the deployment).
    pub name: String,
    /// Peer indices hosting this channel (`None` = every peer).
    pub peers: Option<Vec<usize>>,
}

impl ChannelSpec {
    /// A channel hosted by every peer.
    pub fn new(name: impl Into<String>) -> Self {
        ChannelSpec {
            name: name.into(),
            peers: None,
        }
    }

    /// Restricts the channel to a subset of peers (by peer index).
    #[must_use]
    pub fn with_peers(mut self, peers: Vec<usize>) -> Self {
        self.peers = Some(peers);
        self
    }
}

/// Configuration of a HyperProv network.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Simulation seed (determinism knob).
    pub seed: u64,
    /// One device per peer node; peer `i` belongs to `org(i+1)`.
    pub peer_devices: Vec<DeviceProfile>,
    /// The machine hosting the ordering service.
    pub orderer_device: DeviceProfile,
    /// The machine hosting the off-chain store (always separate, per the
    /// paper).
    pub storage_device: DeviceProfile,
    /// One device per client process. Client `i`'s home peer is peer
    /// `i % peers`: every first attempt is endorsed there, a retry at
    /// the next.
    pub client_devices: Vec<DeviceProfile>,
    /// Orderer batching parameters.
    pub batch: BatchConfig,
    /// Install the permissive chaincode variant (no parent checks).
    pub permissive: bool,
    /// Admission-queue bound for every peer (`None` = unbounded, the
    /// paper-faithful work-at-arrival default).
    pub peer_queue: Option<QueueConfig>,
    /// Ordering-service topology (`Solo` keeps the paper-faithful layout
    /// and leaves every actor id unchanged).
    pub orderer_mode: OrdererMode,
    /// Client retry policy for transient gateway failures (`None` = fail
    /// fast, the seed default).
    pub retry: Option<RetryPolicy>,
    /// Client per-op endorsement deadline (`None` = wait forever).
    pub endorse_timeout: Option<SimDuration>,
    /// Client per-op commit-wait deadline (`None` = wait forever).
    pub commit_timeout: Option<SimDuration>,
    /// The deployment's channels (shards). The single-entry default keeps
    /// the paper-faithful one-channel layout, byte-identical to the
    /// pre-sharding code paths.
    pub channels: Vec<ChannelSpec>,
    /// CPU lanes a peer spreads its VSCC phase over (default 1), clamped
    /// to each peer device's core count.
    pub vscc_lanes: usize,
    /// Rolling-window SLOs evaluated during the run (empty = monitoring
    /// off, the default — default-config exports stay byte-identical).
    /// Latency objectives watch pipeline span stages (`"op"`,
    /// `"endorse"`, `"commit.apply"`, `"query"`, ...); event objectives
    /// watch the built-in sources `"client.ok"` / `"client.err"`
    /// (operation completions) and `"commit.tx"` (valid transactions
    /// committed at peers).
    pub slos: Vec<SloSpec>,
    /// Peer snapshot policy (`None` = snapshots, pruning and
    /// snapshot-based recovery off, the paper-faithful default). With a
    /// policy set, every peer cuts Merkle-rooted snapshots, prunes its
    /// block store behind them and bootstraps restarts
    /// from the latest snapshot; the other peers hosting each channel
    /// become its snapshot-catch-up providers.
    pub snapshots: Option<SnapshotPolicy>,
    /// Identities pre-enrolled for elastic membership: how many peers can
    /// be added to the running network later via
    /// [`HyperProvNetwork::add_peer`]. Zero (the default) changes
    /// nothing; spares are enrolled after all baseline identities so
    /// existing certificates stay byte-identical.
    pub spare_peers: usize,
}

impl NetworkConfig {
    /// The paper's desktop testbed: two Xeon E5-1603 (one also hosting the
    /// orderer), one i7-4700MQ, one i3-2310M; SSHFS on a separate machine.
    pub fn desktop(clients: usize) -> Self {
        let xeon = DeviceProfile::xeon_e5_1603();
        NetworkConfig::on_devices(
            vec![
                xeon.clone(),
                xeon.clone(),
                DeviceProfile::core_i7_4700mq(),
                DeviceProfile::core_i3_2310m(),
            ],
            xeon,
            clients,
        )
    }

    /// The paper's edge testbed: four Raspberry Pi 3B+ devices on one
    /// switch (one also hosts the orderer); SSHFS on a separate node.
    pub fn rpi(clients: usize) -> Self {
        let rpi = DeviceProfile::raspberry_pi_3b_plus();
        NetworkConfig::on_devices(vec![rpi.clone(); 4], rpi, clients)
    }

    /// The paper's layout on the given peer devices, with the orderer,
    /// the storage node and every client on an `other` machine each, and
    /// every option at its default.
    fn on_devices(peer_devices: Vec<DeviceProfile>, other: DeviceProfile, clients: usize) -> Self {
        NetworkConfig {
            seed: 1,
            peer_devices,
            orderer_device: other.clone(),
            storage_device: other.clone(),
            client_devices: vec![other; clients.max(1)],
            batch: BatchConfig::default(),
            permissive: false,
            peer_queue: None,
            orderer_mode: OrdererMode::Solo,
            retry: None,
            endorse_timeout: None,
            commit_timeout: None,
            channels: vec![ChannelSpec::new(DEFAULT_CHANNEL)],
            vscc_lanes: 1,
            slos: Vec::new(),
            snapshots: None,
            spare_peers: 0,
        }
    }

    /// Sets the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the batch configuration.
    #[must_use]
    pub fn with_batch(mut self, batch: BatchConfig) -> Self {
        self.batch = batch;
        self
    }

    /// Bounds every peer's admission queue.
    #[must_use]
    pub fn with_peer_queue(mut self, queue: QueueConfig) -> Self {
        self.peer_queue = Some(queue);
        self
    }

    /// Replaces the solo orderer with a `members`-node Raft cluster.
    ///
    /// # Panics
    ///
    /// Panics if `members` is zero.
    #[must_use]
    pub fn with_raft_orderers(mut self, members: usize) -> Self {
        assert!(members >= 1, "raft cluster needs at least one member");
        self.orderer_mode = OrdererMode::Raft { members };
        self
    }

    /// Arms client-side retries of transient gateway failures.
    #[must_use]
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Arms client per-op deadlines for the endorsement and commit-wait
    /// phases; the endorse deadline also bounds each off-chain transfer.
    #[must_use]
    pub fn with_deadlines(
        mut self,
        endorse: Option<SimDuration>,
        commit: Option<SimDuration>,
    ) -> Self {
        self.endorse_timeout = endorse;
        self.commit_timeout = commit;
        self
    }

    /// Spreads each peer's VSCC phase over `lanes` CPU lanes (clamped to
    /// each device's cores).
    #[must_use]
    pub fn with_vscc_lanes(mut self, lanes: usize) -> Self {
        self.vscc_lanes = lanes;
        self
    }

    /// Installs rolling-window SLOs on the deployment (see
    /// [`NetworkConfig::slos`] for the objective sources available).
    #[must_use]
    pub fn with_slos(mut self, slos: Vec<SloSpec>) -> Self {
        self.slos = slos;
        self
    }

    /// Replaces the channel list with explicit per-channel specifications
    /// (names, hosting peers).
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty.
    #[must_use]
    pub fn with_channel_specs(mut self, specs: Vec<ChannelSpec>) -> Self {
        assert!(!specs.is_empty(), "deployment needs at least one channel");
        self.channels = specs;
        self
    }

    /// Installs a peer snapshot policy: Merkle-rooted snapshots every
    /// `policy.interval` blocks, block-store pruning behind them and
    /// snapshot-based crash recovery, with the other hosting
    /// peers of each channel acting as snapshot catch-up providers.
    #[must_use]
    pub fn with_snapshots(mut self, policy: SnapshotPolicy) -> Self {
        self.snapshots = Some(policy);
        self
    }

    /// Pre-enrolls `n` spare peer identities for elastic membership, so
    /// [`HyperProvNetwork::add_peer`] can grow the running network.
    #[must_use]
    pub fn with_spare_peers(mut self, n: usize) -> Self {
        self.spare_peers = n;
        self
    }
}

/// A shared handle to one peer's ledger of one channel.
type Ledger = Rc<RefCell<Committer>>;

/// One channel's wiring: who orders it, and which of the initial peers
/// host it (spares added later host every channel).
struct ChannelWiring {
    id: ChannelId,
    hosts: Vec<usize>,
    orderers: Vec<ActorId>,
}

/// Everything peers are built from — the initial ones in
/// [`HyperProvNetwork::build`] and spares attached later by
/// [`HyperProvNetwork::add_peer`] (elastic membership).
struct JoinKit {
    msp: Arc<Msp>,
    chaincode: Arc<dyn Chaincode>,
    policy: EndorsementPolicy,
    vscc_lanes: usize,
    peer_queue: Option<QueueConfig>,
    snapshots: Option<SnapshotPolicy>,
    /// Pre-enrolled spare identities with their device profiles.
    spares: Vec<(SigningIdentity, DeviceProfile)>,
    next_spare: usize,
    channels: Vec<ChannelWiring>,
}

impl JoinKit {
    /// Starts peer `index` in `sim`, hosting the channels in `hosted` —
    /// pairs of a channel's shard index and the peers that can serve it
    /// snapshots and block re-delivery (used only when the deployment runs
    /// snapshots) — and telling each of `subscribers` of its commits.
    /// Returns the actor and one fresh ledger per hosted channel, paired
    /// with the channel's shard index.
    fn start_peer(
        &self,
        index: usize,
        identity: SigningIdentity,
        device: &DeviceProfile,
        hosted: Vec<(usize, Vec<ActorId>)>,
        subscribers: &[(ActorId, CertId)],
        sim: &mut Simulation<NodeMsg>,
    ) -> (ActorId, Vec<(usize, Ledger)>) {
        // A peer gets at most one VSCC lane per core of its device, and a
        // read lane per core they leave free, one at least.
        let lanes = self.vscc_lanes.clamp(1, device.cores.max(1));
        let reads = device.cores.saturating_sub(lanes).max(1);
        let name = format!("peer{index}");
        let mut peer = Peer::new(identity, self.chaincode.clone(), name.clone());
        if let Some(policy) = self.snapshots {
            peer.set_snapshots(policy);
        }
        let mut committers = Vec::with_capacity(hosted.len());
        for (ci, providers) in hosted {
            let chan = &self.channels[ci];
            let committer =
                Committer::for_channel(chan.id.clone(), self.msp.clone(), self.policy.clone())
                    .with_indexer(Arc::new(HyperProvIndexer));
            let committer = Rc::new(RefCell::new(committer));
            peer.host(
                committer.clone(),
                Some(chan.orderers[index % chan.orderers.len()]),
            );
            if self.snapshots.is_some() {
                peer.set_providers(&chan.id, providers);
            }
            committers.push((ci, committer));
        }
        for &(client, cert) in subscribers {
            peer.subscribe(client, cert);
        }
        let mut node = Node::new(peer, name);
        if let Some(queue) = self.peer_queue {
            node = node.with_queue(queue);
        }
        let cpu = CpuResource::with_lanes(device.cpu_speed, lanes).with_read_lanes(reads);
        (node.start(sim, cpu, "peer"), committers)
    }
}

/// A built network, ready to run.
pub struct HyperProvNetwork {
    /// The simulation (owns all actors).
    pub sim: Simulation<NodeMsg>,
    /// Peer actor ids, in org order.
    pub peers: Vec<ActorId>,
    /// Every ordering-service actor, channel by channel (length 1 on one
    /// channel under `OrdererMode::Solo`).
    pub orderers: Vec<ActorId>,
    /// The storage node actor.
    pub storage: ActorId,
    /// Client actor ids.
    pub clients: Vec<ActorId>,
    /// Completion queues, one per client.
    pub completions: Vec<CompletionQueue>,
    /// Shared handles to each peer's first-channel ledger (for audits and
    /// tests; on a single-channel deployment this is *the* ledger).
    pub ledgers: Vec<Rc<RefCell<Committer>>>,
    /// The off-chain object store (shared with the storage actor).
    pub store: Arc<MemoryStore>,
    /// Devices, in actor-id order, for energy metering: the build's at
    /// their actors' ids, then each spare's as it joins.
    pub devices: Vec<DeviceProfile>,
    /// Channel ids, in shard order.
    pub channels: Vec<ChannelId>,
    /// Ordering-service actors per channel, in shard order.
    pub channel_orderers: Vec<Vec<ActorId>>,
    /// Per channel, the hosting peers' `(peer index, committer)` handles.
    pub channel_ledgers: Vec<Vec<(usize, Rc<RefCell<Committer>>)>>,
    /// Elastic-membership kit (spare identities + channel wiring).
    kit: JoinKit,
}

impl HyperProvNetwork {
    /// Builds a network from a configuration.
    ///
    /// Actor layout: peers `0..P`, orderers `P..P+R` (R = 1 for Solo),
    /// storage `P+R`, clients `P+R+1...`. Under the default Solo mode
    /// this is the historical `peers, orderer, storage, clients` layout.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has no peers or no clients.
    pub fn build(config: &NetworkConfig) -> Self {
        assert!(!config.peer_devices.is_empty(), "need at least one peer");
        assert!(
            !config.client_devices.is_empty(),
            "need at least one client"
        );
        assert!(!config.channels.is_empty(), "need at least one channel");
        let n_peers = config.peer_devices.len();

        // Resolve each channel's hosting peers.
        let mut chans: Vec<ChannelWiring> = Vec::with_capacity(config.channels.len());
        for spec in &config.channels {
            let hosts = match &spec.peers {
                Some(list) => {
                    assert!(
                        !list.is_empty(),
                        "channel {:?} needs at least one hosting peer",
                        spec.name
                    );
                    assert!(
                        list.iter().all(|&p| p < n_peers),
                        "channel {:?} references an unknown peer",
                        spec.name
                    );
                    list.clone()
                }
                None => (0..n_peers).collect(),
            };
            let id = ChannelId::from(spec.name.as_str());
            assert!(
                chans.iter().all(|c| c.id != id),
                "duplicate channel name {:?}",
                spec.name
            );
            chans.push(ChannelWiring {
                id,
                hosts,
                orderers: Vec::new(),
            });
        }
        for i in 0..n_peers {
            assert!(
                chans.iter().any(|c| c.hosts.contains(&i)),
                "peer {i} hosts no channel"
            );
        }

        // Enrol identities.
        let mut msp_builder = MspBuilder::new(config.seed);
        let peer_identities: Vec<_> = (0..n_peers)
            .map(|i| msp_builder.enroll(&format!("peer{i}"), &MspId::new(format!("org{}", i + 1))))
            .collect();
        let client_identities: Vec<_> = (0..config.client_devices.len())
            .map(|i| {
                let org = MspId::new(format!("org{}", (i % n_peers) + 1));
                msp_builder.enroll(&format!("client{i}"), &org)
            })
            .collect();
        // Spare identities for elastic membership are enrolled last, so a
        // zero-spare deployment draws exactly the same certificates as
        // before.
        let spare_identities: Vec<SigningIdentity> = (0..config.spare_peers)
            .map(|i| {
                let org = MspId::new(format!("org{}", (i % n_peers) + 1));
                msp_builder.enroll(&format!("spare{i}"), &org)
            })
            .collect();
        let msp = msp_builder.build();

        let chaincode = if config.permissive {
            HyperProvChaincode::permissive()
        } else {
            HyperProvChaincode::new()
        };

        // Predictable actor ids: peers first, then each channel's ordering
        // block in shard order, then storage and clients.
        let peer_ids: Vec<ActorId> = (0..n_peers as u32).map(ActorId).collect();
        let mut cursor = n_peers as u32;
        let members = match config.orderer_mode {
            OrdererMode::Solo => 1,
            OrdererMode::Raft { members } => members.max(1),
        };
        for chan in &mut chans {
            chan.orderers = (0..members as u32).map(|i| ActorId(cursor + i)).collect();
            cursor += members as u32;
        }
        let storage_id = ActorId(cursor);
        let client_ids: Vec<ActorId> = (0..config.client_devices.len() as u32)
            .map(|i| ActorId(cursor + 1 + i))
            .collect();

        let mut sim: Simulation<NodeMsg> = Simulation::new(config.seed);
        if !config.slos.is_empty() {
            sim.set_slos(config.slos.clone());
        }
        let mut ledgers = Vec::new();
        let mut channel_ledgers: Vec<Vec<(usize, Rc<RefCell<Committer>>)>> =
            vec![Vec::new(); chans.len()];
        let mut devices = Vec::new();

        let kit = JoinKit {
            // Every identity belongs to a peer's org, and a client
            // collects one endorsement: any one of them will do.
            policy: EndorsementPolicy::any_of(msp.orgs().iter().cloned()),
            msp,
            chaincode: Arc::new(chaincode),
            vscc_lanes: config.vscc_lanes,
            peer_queue: config.peer_queue,
            snapshots: config.snapshots,
            spares: spare_identities
                .into_iter()
                .enumerate()
                .map(|(i, id)| (id, config.peer_devices[i % n_peers].clone()))
                .collect(),
            next_spare: 0,
            channels: chans,
        };
        let chans = &kit.channels;
        // A retry may ask any hosting peer to endorse, and the peer that
        // endorsed reports the commit: every client subscribes, for the
        // commit events of its own transactions, at every peer.
        let subscribers: Vec<(ActorId, CertId)> = client_ids
            .iter()
            .zip(&client_identities)
            .map(|(&cid, identity)| (cid, identity.certificate().id))
            .collect();
        for (i, identity) in peer_identities.into_iter().enumerate() {
            // The other peers hosting each channel form this peer's
            // snapshot catch-up provider ladder.
            let hosted: Vec<(usize, Vec<ActorId>)> = chans
                .iter()
                .enumerate()
                .filter(|(_, chan)| chan.hosts.contains(&i))
                .map(|(ci, chan)| {
                    let others = chan.hosts.iter().filter(|&&p| p != i);
                    (ci, others.map(|&p| peer_ids[p]).collect())
                })
                .collect();
            let device = &config.peer_devices[i];
            let (id, committers) =
                kit.start_peer(i, identity, device, hosted, &subscribers, &mut sim);
            debug_assert_eq!(id, peer_ids[i]);
            ledgers.push(committers[0].1.clone());
            for (ci, committer) in committers {
                channel_ledgers[ci].push((i, committer));
            }
            devices.push(config.peer_devices[i].clone());
        }

        for (ci, chan) in chans.iter().enumerate() {
            let deliver_to: Vec<ActorId> = chan.hosts.iter().map(|&p| peer_ids[p]).collect();
            // Per-channel election seed so concurrent clusters do not elect
            // in lock-step (channel 0 keeps the legacy seed and its exact
            // election timeline).
            let raft_seed = config.seed.wrapping_add(ci as u64 * 7919);
            for (i, &expected) in chan.orderers.iter().enumerate() {
                let node = match config.orderer_mode {
                    OrdererMode::Solo => {
                        OrderingNode::solo(chan.id.clone(), config.batch, deliver_to.clone())
                    }
                    OrdererMode::Raft { .. } => OrderingNode::raft(
                        i,
                        chan.orderers.clone(),
                        chan.id.clone(),
                        deliver_to.clone(),
                        config.batch,
                        raft_seed,
                    ),
                };
                let cpu = CpuResource::new(config.orderer_device.cpu_speed);
                let id = Node::new(node, "orderer").start(&mut sim, cpu, "orderer");
                debug_assert_eq!(id, expected);
                devices.push(config.orderer_device.clone());
            }
        }

        let store = Arc::new(MemoryStore::new());
        let node = StorageNode::new(store.clone());
        let cpu = CpuResource::new(config.storage_device.cpu_speed);
        let id = Node::new(node, "storage").start(&mut sim, cpu, "storage");
        debug_assert_eq!(id, storage_id);
        devices.push(config.storage_device.clone());

        let mut clients = Vec::new();
        let mut completions = Vec::new();
        for (i, identity) in client_identities.iter().enumerate() {
            // One route per channel: the hosting peers and the orderers,
            // each ring turned so that the client's home node is first
            // and a retry moves on to the next. The any-org policy needs
            // one endorsement.
            let routes = chans
                .iter()
                .map(|chan| {
                    let mut endorsers: Vec<ActorId> =
                        chan.hosts.iter().map(|&p| peer_ids[p]).collect();
                    endorsers.rotate_left(i % chan.hosts.len());
                    let mut orderers = chan.orderers.clone();
                    orderers.rotate_left(i % chan.orderers.len());
                    Route::new(chan.id.clone(), endorsers, orderers)
                })
                .collect();
            let mut gateway = Gateway::new(identity.clone(), routes)
                .with_deadlines(config.endorse_timeout, config.commit_timeout);
            if let Some(policy) = config.retry {
                gateway = gateway.with_retry(policy);
            }
            let prefix = "sshfs://store0/".to_owned();
            let client = Client::new(gateway, storage_id, prefix);
            completions.push(client.completions.clone());
            let cpu = CpuResource::new(config.client_devices[i].cpu_speed);
            let id = Node::new(client, "client").start(&mut sim, cpu, "client");
            debug_assert_eq!(id, client_ids[i]);
            clients.push(id);
            devices.push(config.client_devices[i].clone());
        }

        // One NIC per device, all on one switch.
        for (i, device) in devices.iter().enumerate() {
            sim.network_mut().set_nic(ActorId(i as u32), device.nic);
        }

        let channel_orderers: Vec<Vec<ActorId>> =
            chans.iter().map(|c| c.orderers.clone()).collect();
        let orderers: Vec<ActorId> = channel_orderers.iter().flatten().copied().collect();
        let channels = chans.iter().map(|c| c.id.clone()).collect();
        HyperProvNetwork {
            sim,
            peers: peer_ids,
            orderers,
            storage: storage_id,
            clients: client_ids,
            completions,
            ledgers,
            store,
            devices,
            channels,
            channel_orderers,
            channel_ledgers,
            kit,
        }
    }

    /// Number of spare peer identities still available to
    /// [`HyperProvNetwork::add_peer`].
    pub fn spare_peers_left(&self) -> usize {
        self.kit.spares.len() - self.kit.next_spare
    }

    /// Attaches the next pre-enrolled spare peer to the running network
    /// (elastic membership). The peer starts with empty ledgers on every
    /// channel, subscribes to each channel's ordering service for future
    /// blocks, and immediately begins catching up: through the snapshot
    /// catch-up protocol when the deployment runs snapshots (fetching the
    /// latest snapshot from an existing peer, then the block delta), or
    /// through plain block re-delivery otherwise.
    ///
    /// Call between [`hyperprov_sim::Simulation::run_until`] slices; the
    /// join kicks off at the current virtual time. Returns the new peer's
    /// actor id.
    ///
    /// # Panics
    ///
    /// Panics if no spare identities remain (configure them with
    /// [`NetworkConfig::with_spare_peers`]).
    pub fn add_peer(&mut self) -> ActorId {
        assert!(
            self.kit.next_spare < self.kit.spares.len(),
            "no spare peer identities left (use NetworkConfig::with_spare_peers)"
        );
        let (identity, device) = self.kit.spares[self.kit.next_spare].clone();
        self.kit.next_spare += 1;
        let index = self.peers.len();
        // Every peer currently serving a channel can provide its snapshot
        // (and block re-delivery) to the newcomer.
        let hosted = self
            .channel_ledgers
            .iter()
            .map(|serving| serving.iter().map(|(p, _)| self.peers[*p]).collect())
            .enumerate()
            .collect();
        let (id, committers) =
            self.kit
                .start_peer(index, identity, &device, hosted, &[], &mut self.sim);
        self.sim.network_mut().set_nic(id, device.nic);
        self.devices.push(device);
        self.ledgers.push(committers[0].1.clone());
        for (ci, committer) in committers {
            self.channel_ledgers[ci].push((index, committer));
        }
        self.peers.push(id);
        // Subscribe to every channel's ordering service, then kick
        // catch-up on each hosted channel.
        for info in &self.kit.channels {
            for &orderer in &info.orderers {
                self.sim.inject_message(
                    orderer,
                    NodeMsg::Fabric(FabricMsg::DeliverSubscribe {
                        channel: info.id.clone(),
                        peer: id,
                    }),
                );
            }
            self.sim.inject_message(
                id,
                NodeMsg::Fabric(FabricMsg::JoinChannel {
                    channel: info.id.clone(),
                }),
            );
        }
        id
    }
}

impl std::fmt::Debug for HyperProvNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HyperProvNetwork")
            .field("peers", &self.peers.len())
            .field("clients", &self.clients.len())
            .field("now", &self.sim.now())
            .finish()
    }
}

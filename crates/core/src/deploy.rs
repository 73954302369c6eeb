//! Network deployment: assemble peers, orderer, off-chain storage and
//! clients into one simulation, with device profiles matching the paper's
//! desktop and Raspberry Pi testbeds.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use hyperprov_device::{link_between, DeviceProfile};
use hyperprov_fabric::{
    BatchConfig, ChaincodeRegistry, ChannelPolicies, CommitPipeline, Committer, CostModel,
    EndorsementPolicy, FabricMsg, Gateway, Msp, MspBuilder, MspId, PeerActor, RaftConfig,
    RaftOrdererActor, SigningIdentity, SnapshotPolicy, SoloOrdererActor, RAFT_TICK_TOKEN,
};
use hyperprov_ledger::{ChannelId, DEFAULT_CHANNEL};
use hyperprov_offchain::{MemoryStore, StorageActor, StorageCosts};
use hyperprov_sim::{ActorId, CpuResource, QueueConfig, SimDuration, Simulation, SloSpec};

use crate::chaincode::{HyperProvChaincode, HyperProvIndexer};
use crate::client::{CompletionQueue, HyperProvClient, RetryPolicy};
use crate::net::NodeMsg;
use crate::router::HashRouter;

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
/// A deployment instantiates one complete ordering pipeline per channel;
/// peers host any subset of channels (each with its own block store,
/// state database and history database), and clients route item keys to
/// channels through a [`crate::ChannelRouter`].
#[derive(Debug, Clone)]
pub struct ChannelSpec {
    /// Channel name (unique within the deployment).
    pub name: String,
    /// Ordering topology for this channel (`None` = the deployment-wide
    /// [`NetworkConfig::orderer_mode`]).
    pub orderer_mode: Option<OrdererMode>,
    /// Endorsement policy for this channel (`None` = the deployment-wide
    /// [`NetworkConfig::policy`]).
    pub policy: Option<EndorsementPolicy>,
    /// Peer indices hosting this channel (`None` = every peer).
    pub peers: Option<Vec<usize>>,
}

impl ChannelSpec {
    /// A channel hosted by every peer, with the deployment defaults.
    pub fn new(name: impl Into<String>) -> Self {
        ChannelSpec {
            name: name.into(),
            orderer_mode: None,
            policy: None,
            peers: None,
        }
    }

    /// Overrides the ordering topology for this channel.
    #[must_use]
    pub fn with_orderer_mode(mut self, mode: OrdererMode) -> Self {
        self.orderer_mode = Some(mode);
        self
    }

    /// Overrides the endorsement policy for this channel.
    #[must_use]
    pub fn with_policy(mut self, policy: EndorsementPolicy) -> Self {
        self.policy = Some(policy);
        self
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
    /// One device per client process. Client `i` endorses at and
    /// subscribes to peer `i % peers`.
    pub client_devices: Vec<DeviceProfile>,
    /// Orderer batching parameters.
    pub batch: BatchConfig,
    /// Endorsement policy for the HyperProv chaincode.
    pub policy: EndorsementPolicy,
    /// How many endorsements clients collect before submitting.
    pub endorsements_needed: usize,
    /// The reference CPU cost table.
    pub costs: CostModel,
    /// SSHFS service costs.
    pub storage_costs: StorageCosts,
    /// Install the permissive chaincode variant (no parent checks).
    pub permissive: bool,
    /// Admission-queue bound for every peer (`None` = unbounded, the
    /// paper-faithful work-at-arrival default).
    pub peer_queue: Option<QueueConfig>,
    /// Admission-queue bound for the ordering service.
    pub orderer_queue: Option<QueueConfig>,
    /// Admission-queue bound for the off-chain storage node.
    pub storage_queue: Option<QueueConfig>,
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
    /// Peer commit-path acceleration: VSCC lanes and verification caches
    /// (default: one lane, no caches). Requested lanes are clamped to each
    /// peer device's core count.
    pub pipeline: CommitPipeline,
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
    /// block store behind them (per the policy) and bootstraps restarts
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
        let peer_devices = vec![
            DeviceProfile::xeon_e5_1603(),
            DeviceProfile::xeon_e5_1603(),
            DeviceProfile::core_i7_4700mq(),
            DeviceProfile::core_i3_2310m(),
        ];
        NetworkConfig {
            seed: 1,
            orderer_device: DeviceProfile::xeon_e5_1603(),
            storage_device: DeviceProfile::xeon_e5_1603(),
            client_devices: vec![DeviceProfile::xeon_e5_1603(); clients.max(1)],
            policy: EndorsementPolicy::any_of(
                (1..=peer_devices.len()).map(|i| MspId::new(format!("org{i}"))),
            ),
            peer_devices,
            batch: BatchConfig::default(),
            endorsements_needed: 1,
            costs: CostModel::default(),
            storage_costs: StorageCosts::default(),
            permissive: false,
            peer_queue: None,
            orderer_queue: None,
            storage_queue: None,
            orderer_mode: OrdererMode::Solo,
            retry: None,
            endorse_timeout: None,
            commit_timeout: None,
            channels: vec![ChannelSpec::new(DEFAULT_CHANNEL)],
            pipeline: CommitPipeline::default(),
            slos: Vec::new(),
            snapshots: None,
            spare_peers: 0,
        }
    }

    /// The paper's edge testbed: four Raspberry Pi 3B+ devices on one
    /// switch (one also hosts the orderer); SSHFS on a separate node.
    pub fn rpi(clients: usize) -> Self {
        let rpi = DeviceProfile::raspberry_pi_3b_plus();
        NetworkConfig {
            seed: 1,
            peer_devices: vec![rpi.clone(); 4],
            orderer_device: rpi.clone(),
            storage_device: rpi.clone(),
            client_devices: vec![rpi; clients.max(1)],
            policy: EndorsementPolicy::any_of((1..=4).map(|i| MspId::new(format!("org{i}")))),
            batch: BatchConfig::default(),
            endorsements_needed: 1,
            costs: CostModel::default(),
            storage_costs: StorageCosts::default(),
            permissive: false,
            peer_queue: None,
            orderer_queue: None,
            storage_queue: None,
            orderer_mode: OrdererMode::Solo,
            retry: None,
            endorse_timeout: None,
            commit_timeout: None,
            channels: vec![ChannelSpec::new(DEFAULT_CHANNEL)],
            pipeline: CommitPipeline::default(),
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

    /// Bounds the orderer's admission queue.
    #[must_use]
    pub fn with_orderer_queue(mut self, queue: QueueConfig) -> Self {
        self.orderer_queue = Some(queue);
        self
    }

    /// Bounds the storage node's admission queue.
    #[must_use]
    pub fn with_storage_queue(mut self, queue: QueueConfig) -> Self {
        self.storage_queue = Some(queue);
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
    /// phases.
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

    /// Shards the deployment over `n` channels, every peer hosting every
    /// channel. `n == 1` keeps the legacy channel name (and with it the
    /// byte-identical single-channel layout); larger `n` names the shards
    /// `hyperprov-channel-0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn with_channels(mut self, n: usize) -> Self {
        assert!(n >= 1, "deployment needs at least one channel");
        self.channels = if n == 1 {
            vec![ChannelSpec::new(DEFAULT_CHANNEL)]
        } else {
            (0..n)
                .map(|c| ChannelSpec::new(format!("{DEFAULT_CHANNEL}-{c}")))
                .collect()
        };
        self
    }

    /// Accelerates the peer commit path: spreads VSCC over `lanes` CPU
    /// lanes (clamped to each device's cores) and enables the requested
    /// verification caches.
    #[must_use]
    pub fn with_pipeline(mut self, pipeline: CommitPipeline) -> Self {
        self.pipeline = pipeline;
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
    /// (names, ordering topologies, policies, hosting peers).
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
    /// `policy.interval` blocks, block-store pruning behind them (per the
    /// policy) and snapshot-based crash recovery, with the other hosting
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

/// Per-channel wiring a spare peer needs to join the running network.
struct JoinChannelInfo {
    id: ChannelId,
    policy: EndorsementPolicy,
    orderers: Vec<ActorId>,
}

/// Everything needed to attach spare peers to the running network
/// (elastic membership; see [`HyperProvNetwork::add_peer`]).
struct JoinKit {
    msp: Arc<Msp>,
    registry: ChaincodeRegistry,
    costs: CostModel,
    pipeline: CommitPipeline,
    peer_queue: Option<QueueConfig>,
    snapshots: Option<SnapshotPolicy>,
    /// Pre-enrolled spare identities with their device profiles.
    spares: Vec<(SigningIdentity, DeviceProfile)>,
    next_spare: usize,
    chan_info: Vec<JoinChannelInfo>,
}

/// A built network, ready to run.
pub struct HyperProvNetwork {
    /// The simulation (owns all actors).
    pub sim: Simulation<NodeMsg>,
    /// Peer actor ids, in org order.
    pub peers: Vec<ActorId>,
    /// The orderer actor (the first cluster member under Raft).
    pub orderer: ActorId,
    /// Every ordering-service actor (length 1 under `OrdererMode::Solo`).
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
    /// Devices, in actor-id order, for energy metering.
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

        // Resolve each channel's topology: ordering mode, endorsement
        // policy and hosting peers (defaults fall back to the
        // deployment-wide settings).
        struct Chan {
            id: ChannelId,
            mode: OrdererMode,
            policy: EndorsementPolicy,
            hosts: Vec<usize>,
            orderers: Vec<ActorId>,
        }
        let mut chans: Vec<Chan> = Vec::with_capacity(config.channels.len());
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
            chans.push(Chan {
                id,
                mode: spec.orderer_mode.unwrap_or(config.orderer_mode),
                policy: spec.policy.clone().unwrap_or_else(|| config.policy.clone()),
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

        // Install the chaincode.
        let mut registry = ChaincodeRegistry::new();
        let chaincode = if config.permissive {
            HyperProvChaincode::permissive()
        } else {
            HyperProvChaincode::new()
        };
        registry.install(Arc::new(chaincode));

        // Predictable actor ids: peers first, then each channel's ordering
        // block in shard order, then storage and clients.
        let peer_ids: Vec<ActorId> = (0..n_peers as u32).map(ActorId).collect();
        let mut cursor = n_peers as u32;
        for chan in &mut chans {
            let members = match chan.mode {
                OrdererMode::Solo => 1,
                OrdererMode::Raft { members } => members.max(1),
            };
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

        for (i, identity) in peer_identities.iter().enumerate() {
            let hosted: Vec<usize> = (0..chans.len())
                .filter(|&ci| chans[ci].hosts.contains(&i))
                .collect();
            let mut committers = Vec::with_capacity(hosted.len());
            for &ci in &hosted {
                let chan = &chans[ci];
                let committer = Committer::for_channel(
                    chan.id.clone(),
                    msp.clone(),
                    ChannelPolicies::new(chan.policy.clone()),
                )
                .with_indexer(Arc::new(HyperProvIndexer));
                let committer = Rc::new(RefCell::new(committer));
                channel_ledgers[ci].push((i, committer.clone()));
                committers.push((ci, committer));
            }
            let (first_ci, first_committer) = committers[0].clone();
            ledgers.push(first_committer.clone());
            let first_chan = &chans[first_ci];
            // A peer gets at most as many VSCC lanes as its device has
            // cores: an RPi cannot fan out like a Xeon.
            let lanes = config
                .pipeline
                .lanes
                .clamp(1, config.peer_devices[i].cores.max(1));
            let mut actor = PeerActor::<NodeMsg>::new(
                identity.clone(),
                registry.clone(),
                first_committer,
                config.costs,
                format!("peer{i}"),
            )
            .with_pipeline(CommitPipeline {
                lanes,
                ..config.pipeline
            })
            .with_catchup_target(first_chan.orderers[i % first_chan.orderers.len()]);
            for (ci, committer) in committers.into_iter().skip(1) {
                let chan = &chans[ci];
                actor.add_channel(committer, Some(chan.orderers[i % chan.orderers.len()]));
            }
            if let Some(policy) = config.snapshots {
                actor = actor.with_snapshots(policy);
                // The other peers hosting each channel form this peer's
                // snapshot catch-up provider ladder.
                for &ci in &hosted {
                    let chan = &chans[ci];
                    let providers: Vec<ActorId> = chan
                        .hosts
                        .iter()
                        .filter(|&&p| p != i)
                        .map(|&p| peer_ids[p])
                        .collect();
                    actor.set_snapshot_providers(&chan.id, providers);
                }
            }
            if let Some(queue) = config.peer_queue {
                actor = actor.with_queue(queue);
            }
            // A client subscribes, for the commit events of its own
            // transactions, at its home peer on every channel it submits
            // to.
            for (c, &cid) in client_ids.iter().enumerate() {
                if chans
                    .iter()
                    .any(|chan| chan.hosts[c % chan.hosts.len()] == i)
                {
                    actor.subscribe(cid, client_identities[c].certificate().id);
                }
            }
            let id = sim.add_actor_with_cpu(
                Box::new(actor),
                CpuResource::with_lanes(config.peer_devices[i].cpu_speed, lanes),
            );
            debug_assert_eq!(id, peer_ids[i]);
            sim.set_actor_label(id, "peer");
            devices.push(config.peer_devices[i].clone());
        }

        for (ci, chan) in chans.iter().enumerate() {
            let deliver_to: Vec<ActorId> = chan.hosts.iter().map(|&p| peer_ids[p]).collect();
            match chan.mode {
                OrdererMode::Solo => {
                    let mut orderer_actor = SoloOrdererActor::<NodeMsg>::for_channel(
                        chan.id.clone(),
                        config.batch,
                        deliver_to,
                        config.costs,
                    );
                    if let Some(queue) = config.orderer_queue {
                        orderer_actor = orderer_actor.with_queue(queue);
                    }
                    let id = sim.add_actor_with_speed(
                        Box::new(orderer_actor),
                        config.orderer_device.cpu_speed,
                    );
                    debug_assert_eq!(id, chan.orderers[0]);
                    sim.set_actor_label(id, "orderer");
                    devices.push(config.orderer_device.clone());
                }
                OrdererMode::Raft { .. } => {
                    // Per-channel election seed so concurrent clusters do
                    // not elect in lock-step (channel 0 keeps the legacy
                    // seed and its exact election timeline).
                    let raft_seed = config.seed.wrapping_add(ci as u64 * 7919);
                    for i in 0..chan.orderers.len() {
                        let mut actor = RaftOrdererActor::<NodeMsg>::new(
                            i,
                            chan.orderers.clone(),
                            deliver_to.clone(),
                            config.batch,
                            RaftConfig::default(),
                            SimDuration::from_millis(50),
                            raft_seed,
                            config.costs,
                        );
                        if !chan.id.is_default() {
                            actor = actor.with_channel(chan.id.clone());
                        }
                        if let Some(queue) = config.orderer_queue {
                            actor = actor.with_queue(queue);
                        }
                        let id = sim
                            .add_actor_with_speed(Box::new(actor), config.orderer_device.cpu_speed);
                        debug_assert_eq!(id, chan.orderers[i]);
                        sim.set_actor_label(id, "orderer");
                        sim.start_timer(id, SimDuration::ZERO, RAFT_TICK_TOKEN);
                        devices.push(config.orderer_device.clone());
                    }
                }
            }
        }

        let store = Arc::new(MemoryStore::new());
        let mut storage_actor = StorageActor::<NodeMsg>::new(store.clone(), config.storage_costs);
        if let Some(queue) = config.storage_queue {
            storage_actor = storage_actor.with_queue(queue);
        }
        let id = sim.add_actor_with_speed(Box::new(storage_actor), config.storage_device.cpu_speed);
        debug_assert_eq!(id, storage_id);
        sim.set_actor_label(id, "storage");
        devices.push(config.storage_device.clone());

        let mut clients = Vec::new();
        let mut completions = Vec::new();
        for (i, identity) in client_identities.iter().enumerate() {
            // One gateway per channel. On each channel, endorse at the
            // client's home peer first, then the other hosting peers, so
            // `endorsements_needed` > 1 spreads across orgs.
            let mut gateways = Vec::with_capacity(chans.len());
            for chan in &chans {
                let home = chan.hosts[i % chan.hosts.len()];
                let mut endorsers = vec![peer_ids[home]];
                endorsers.extend(
                    chan.hosts
                        .iter()
                        .filter(|&&p| p != home)
                        .map(|&p| peer_ids[p]),
                );
                let needed = config.endorsements_needed.min(chan.hosts.len());
                let mut gateway = Gateway::new(
                    identity.clone(),
                    chan.id.clone(),
                    endorsers,
                    chan.orderers[i % chan.orderers.len()],
                    needed,
                    config.costs,
                );
                if config.endorse_timeout.is_some() || config.commit_timeout.is_some() {
                    gateway = gateway.with_deadlines(config.endorse_timeout, config.commit_timeout);
                }
                gateways.push(gateway);
            }
            let (client_actor, queue) = if gateways.len() == 1 {
                HyperProvClient::new(
                    gateways.pop().expect("one gateway"),
                    storage_id,
                    "sshfs://store0/",
                    config.costs,
                )
            } else {
                HyperProvClient::sharded(
                    gateways,
                    Box::new(HashRouter),
                    storage_id,
                    "sshfs://store0/",
                    config.costs,
                )
            };
            let client_actor = match config.retry {
                Some(policy) => client_actor.with_retry(policy),
                None => client_actor,
            };
            let id = sim
                .add_actor_with_speed(Box::new(client_actor), config.client_devices[i].cpu_speed);
            debug_assert_eq!(id, client_ids[i]);
            sim.set_actor_label(id, "client");
            clients.push(id);
            completions.push(queue);
            devices.push(config.client_devices[i].clone());
        }

        // Wire pairwise links from device NICs (one shared switch).
        let all: Vec<(ActorId, &DeviceProfile)> = devices
            .iter()
            .enumerate()
            .map(|(i, d)| (ActorId(i as u32), d))
            .collect();
        for (a, da) in &all {
            for (b, db) in &all {
                if a != b {
                    sim.network_mut().set_link(*a, *b, link_between(da, db));
                }
            }
        }

        let channel_orderers: Vec<Vec<ActorId>> =
            chans.iter().map(|c| c.orderers.clone()).collect();
        let orderers: Vec<ActorId> = channel_orderers.iter().flatten().copied().collect();
        let kit = JoinKit {
            msp,
            registry,
            costs: config.costs,
            pipeline: config.pipeline,
            peer_queue: config.peer_queue,
            snapshots: config.snapshots,
            spares: spare_identities
                .into_iter()
                .enumerate()
                .map(|(i, id)| (id, config.peer_devices[i % n_peers].clone()))
                .collect(),
            next_spare: 0,
            chan_info: chans
                .iter()
                .map(|c| JoinChannelInfo {
                    id: c.id.clone(),
                    policy: c.policy.clone(),
                    orderers: c.orderers.clone(),
                })
                .collect(),
        };
        HyperProvNetwork {
            sim,
            peers: peer_ids,
            orderer: orderers[0],
            orderers,
            storage: storage_id,
            clients: client_ids,
            completions,
            ledgers,
            store,
            devices,
            channels: chans.iter().map(|c| c.id.clone()).collect(),
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
        let mut committers = Vec::with_capacity(self.kit.chan_info.len());
        for info in &self.kit.chan_info {
            let committer = Committer::for_channel(
                info.id.clone(),
                self.kit.msp.clone(),
                ChannelPolicies::new(info.policy.clone()),
            )
            .with_indexer(Arc::new(HyperProvIndexer));
            committers.push(Rc::new(RefCell::new(committer)));
        }
        let lanes = self.kit.pipeline.lanes.clamp(1, device.cores.max(1));
        let first = &self.kit.chan_info[0];
        let mut actor = PeerActor::<NodeMsg>::new(
            identity,
            self.kit.registry.clone(),
            committers[0].clone(),
            self.kit.costs,
            format!("peer{index}"),
        )
        .with_pipeline(CommitPipeline {
            lanes,
            ..self.kit.pipeline
        })
        .with_catchup_target(first.orderers[index % first.orderers.len()]);
        for (info, committer) in self.kit.chan_info.iter().zip(&committers).skip(1) {
            actor.add_channel(
                committer.clone(),
                Some(info.orderers[index % info.orderers.len()]),
            );
        }
        if let Some(policy) = self.kit.snapshots {
            actor = actor.with_snapshots(policy);
            // Every peer currently serving a channel can provide its
            // snapshot (and block re-delivery) to the newcomer.
            for (ci, info) in self.kit.chan_info.iter().enumerate() {
                let providers: Vec<ActorId> = self.channel_ledgers[ci]
                    .iter()
                    .map(|(p, _)| self.peers[*p])
                    .collect();
                actor.set_snapshot_providers(&info.id, providers);
            }
        }
        if let Some(queue) = self.kit.peer_queue {
            actor = actor.with_queue(queue);
        }
        let id = self.sim.add_actor_with_cpu(
            Box::new(actor),
            CpuResource::with_lanes(device.cpu_speed, lanes),
        );
        debug_assert_eq!(id, ActorId(self.devices.len() as u32));
        self.sim.set_actor_label(id, "peer");
        // Full-mesh links to every existing device (one shared switch).
        for (other, dev) in self.devices.iter().enumerate() {
            let other = ActorId(other as u32);
            self.sim
                .network_mut()
                .set_link(id, other, link_between(&device, dev));
            self.sim
                .network_mut()
                .set_link(other, id, link_between(dev, &device));
        }
        self.devices.push(device);
        for (ci, committer) in committers.iter().enumerate() {
            self.channel_ledgers[ci].push((index, committer.clone()));
        }
        self.ledgers.push(committers[0].clone());
        self.peers.push(id);
        // Subscribe to every channel's ordering service, then kick
        // catch-up on each hosted channel.
        for info in &self.kit.chan_info {
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

//! T-RECOVERY: crash recovery at deep chains, with and without
//! Merkle-rooted state snapshots, plus elastic membership.
//!
//! The tentpole claim: with a snapshot policy, a restarted peer's
//! recovery work is bounded by the *state* size and the snapshot
//! interval — O(1) in chain length — while the genesis-replay path grows
//! linearly with the chain. The campaign measures both on a reference
//! peer driven to 1k/10k/100k blocks (quick mode uses shorter chains),
//! crashes it at the tip and reads the `peer0.recovery.*` gauges on
//! restart. A second scenario exercises elastic membership end to end: a
//! spare peer joins a live network mid-run, bootstraps from a provider's
//! snapshot, and converges to the incumbents' state hash. Full runs emit
//! the machine-readable `BENCH_recovery.json` trajectory, whose
//! flat-vs-linear shape the `bench_regress` gate checks structurally.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use hyperprov::{
    ClientCommand, HyperProvNetwork, NetworkConfig, OpId, RecordInput, SnapshotPolicy,
};
use hyperprov_device::DeviceProfile;
use hyperprov_fabric::{
    endorsement_message, BatchConfig, ChaincodeRegistry, ChannelPolicies, Committer, CostModel,
    Endorsement, EndorsementPolicy, Envelope, FabricMsg, Msp, MspBuilder, MspId, PeerActor,
    Proposal, SigningIdentity,
};
use hyperprov_ledger::{Block, ChannelId, Digest, KvWrite, RwSet, StateKey, DEFAULT_CHANNEL};
use hyperprov_sim::{CpuResource, SimDuration, Simulation};

use super::op_ms;
use crate::report::MetricsExporter;
use crate::row;
use crate::runner::Artefact;
use crate::table::{Fmt, Table};

/// Campaign seed (identities, network jitter).
const SEED: u64 = 17;

/// Distinct state keys the deep-chain workload cycles through: the world
/// state (and so the snapshot) stays bounded while the chain grows.
const KEY_SPACE: u64 = 256;

/// Value size written by every deep-chain transaction.
const VALUE_BYTES: usize = 64;

/// Shared identities for the standalone deep-chain cells.
struct ChainKit {
    msp: Arc<Msp>,
    client: SigningIdentity,
    endorser: SigningIdentity,
    peer: SigningIdentity,
}

fn chain_kit() -> ChainKit {
    let mut b = MspBuilder::new(SEED);
    let client = b.enroll("client", &MspId::new("org1"));
    let endorser = b.enroll("endorser", &MspId::new("org1"));
    let peer = b.enroll("peer0", &MspId::new("org1"));
    ChainKit {
        msp: b.build(),
        client,
        endorser,
        peer,
    }
}

fn policies() -> ChannelPolicies {
    ChannelPolicies::new(EndorsementPolicy::any_of([MspId::new("org1")]))
}

/// One endorsed single-write envelope: tx `i` writes key `k{i % KEY_SPACE}`.
fn chain_envelope(kit: &ChainKit, i: u64) -> Envelope {
    let key = format!("k{}", i % KEY_SPACE);
    let rwset = RwSet {
        reads: vec![],
        writes: vec![KvWrite {
            key: StateKey::new("cc", key),
            value: Some(vec![(i % 251) as u8; VALUE_BYTES].into()),
        }],
    };
    let proposal = Proposal {
        channel: DEFAULT_CHANNEL.into(),
        chaincode: "cc".into(),
        function: "put".into(),
        args: vec![],
        creator: kit.client.certificate().clone(),
        nonce: i + 1,
    };
    let msg = endorsement_message(&proposal.tx_id(), b"r", &rwset);
    Envelope {
        proposal,
        payload: b"r".to_vec(),
        rwset,
        event: None,
        endorsements: vec![Endorsement {
            endorser: kit.endorser.certificate().clone(),
            signature: kit.endorser.sign(&msg),
        }],
    }
}

/// Builds a valid chain of `n` single-tx blocks by committing each block
/// to a host-side oracle ledger (so heights and previous-hash links are
/// real), returning the blocks for in-sim delivery.
fn build_chain(kit: &ChainKit, n: u64) -> Vec<Arc<Block>> {
    let mut oracle = Committer::for_channel(DEFAULT_CHANNEL.into(), kit.msp.clone(), policies());
    let mut blocks = Vec::with_capacity(n as usize);
    for i in 0..n {
        let env = chain_envelope(kit, i);
        let block = Block::build(
            oracle.height(),
            oracle.store().tip_hash(),
            vec![env.to_raw()],
        );
        oracle
            .commit_block(block.clone())
            .expect("oracle chain must commit");
        blocks.push(Arc::new(block));
    }
    blocks
}

/// One deep-chain restart cell's measurements.
struct RestartCell {
    chain_blocks: u64,
    snapshots_on: bool,
    snapshots_cut: u64,
    store_blocks: u64,
    recovery_cost_ms: f64,
    replayed_blocks: u64,
    snapshot_boots: u64,
}

/// Drives a single reference peer (desktop-class CPU) to `chain.len()`
/// blocks via block delivery, crashes it at the tip, restarts it and
/// reads the recovery gauges.
fn run_restart_cell(
    kit: &ChainKit,
    chain: &[Arc<Block>],
    snapshots: Option<SnapshotPolicy>,
    exporter: &mut MetricsExporter,
) -> RestartCell {
    let channel: ChannelId = DEFAULT_CHANNEL.into();
    let committer = Rc::new(RefCell::new(Committer::for_channel(
        channel.clone(),
        kit.msp.clone(),
        policies(),
    )));
    let mut actor: PeerActor<FabricMsg> = PeerActor::new(
        kit.peer.clone(),
        ChaincodeRegistry::new(),
        CostModel::default(),
        "peer0",
    );
    actor.add_channel(committer.clone(), None);
    let snapshots_on = snapshots.is_some();
    if let Some(policy) = snapshots {
        actor = actor.with_snapshots(policy);
    }

    let mut sim: Simulation<FabricMsg> = Simulation::new(SEED);
    let id = sim.add_actor_with_cpu(
        Box::new(actor),
        CpuResource::new(DeviceProfile::xeon_e5_1603().cpu_speed),
    );
    sim.set_actor_label(id, "peer");
    for block in chain {
        sim.inject_message(id, FabricMsg::DeliverBlock(channel.clone(), block.clone()));
    }
    // Long horizon: the virtual CPU serialises ~ms of commit work per
    // block; the loop stops as soon as the event queue drains.
    let horizon = SimDuration::from_secs(7_200);
    let now = sim.now();
    sim.run_until(now + horizon);
    assert_eq!(
        committer.borrow().height(),
        chain.len() as u64,
        "the peer must commit the whole chain before the crash"
    );
    let store_blocks = chain.len() as u64 - committer.borrow().store().base_height();

    sim.crash_actor(id);
    sim.restart_actor(id);
    let now = sim.now();
    sim.run_until(now + horizon);

    let metrics = sim.metrics();
    let cell = RestartCell {
        chain_blocks: chain.len() as u64,
        snapshots_on,
        snapshots_cut: metrics.counter("peer0.snapshots.cut"),
        store_blocks,
        recovery_cost_ms: metrics.gauge("peer0.recovery.cost_ms").unwrap_or(0.0),
        replayed_blocks: metrics
            .gauge("peer0.recovery.replayed_blocks")
            .unwrap_or(0.0) as u64,
        snapshot_boots: metrics
            .gauge("peer0.recovery.snapshot_boots")
            .unwrap_or(0.0) as u64,
    };
    exporter.add_run(
        &format!(
            "restart blocks={} snapshots={}",
            cell.chain_blocks,
            if snapshots_on { "on" } else { "off" }
        ),
        &sim,
    );
    cell
}

/// The elastic-membership scenario's measurements.
struct ElasticCell {
    chain_blocks: u64,
    /// `None`: the joiner never converged.
    catchup_ms: Option<f64>,
    snapshot_boots: u64,
    converged: bool,
    converged_after_traffic: bool,
}

/// Posts one metadata-only record from client 0 and waits for its commit.
fn post(net: &mut HyperProvNetwork, key: String) {
    let input = RecordInput::new(Digest::of(key.as_bytes()));
    let op = OpId(0);
    let done = op_ms(net, ClientCommand::Post { key, input, op });
    assert!(done.is_some(), "elastic workload op failed");
}

/// True when the joiner's ledger matches peer 0's height and state hash.
fn converged(net: &HyperProvNetwork, joiner: usize) -> bool {
    let a = net.ledgers[0].borrow();
    let b = net.ledgers[joiner].borrow();
    b.height() == a.height() && b.state().state_hash() == a.state().state_hash()
}

/// Runs the elastic scenario: a live desktop network commits `records`
/// items, a spare peer joins, and the cell reports its virtual-time
/// catch-up latency and snapshot bootstrap.
fn run_elastic_cell(records: u64, exporter: &mut MetricsExporter) -> ElasticCell {
    let config = NetworkConfig::desktop(1)
        .with_seed(SEED)
        .with_batch(BatchConfig {
            timeout: SimDuration::from_millis(50),
            ..BatchConfig::default()
        })
        .with_snapshots(SnapshotPolicy::every(8))
        .with_spare_peers(1);
    let mut net = HyperProvNetwork::build(&config);
    for i in 0..records {
        post(&mut net, format!("rec-{i}"));
    }
    let chain_blocks = net.ledgers[0].borrow().height();

    let joined_at = net.sim.now();
    let _ = net.add_peer();
    let joiner = net.peers.len() - 1;
    let mut catchup_ms = None;
    for _ in 0..120 {
        let now = net.sim.now();
        net.sim.run_until(now + SimDuration::from_millis(250));
        if converged(&net, joiner) {
            let elapsed = net.sim.now().saturating_duration_since(joined_at);
            catchup_ms = Some(elapsed.as_nanos() as f64 / 1e6);
            break;
        }
    }

    // Fresh traffic after the join must reach the joiner through its
    // deliver subscription.
    for i in 0..3 {
        post(&mut net, format!("post-{i}"));
    }
    let now = net.sim.now();
    net.sim.run_until(now + SimDuration::from_secs(2));
    let converged_after_traffic = converged(&net, joiner);

    let boots = net
        .sim
        .metrics()
        .counter(&format!("peer{joiner}.snapshot_boots"));
    exporter.add_run(&format!("elastic records={records}"), &net.sim);
    ElasticCell {
        chain_blocks,
        catchup_ms,
        snapshot_boots: boots,
        converged: catchup_ms.is_some(),
        converged_after_traffic,
    }
}

/// Chain lengths per mode: the full sweep spans two orders of magnitude
/// so the flat-vs-linear contrast is unambiguous. All lengths are
/// congruent modulo the snapshot interval, so every snapshot-mode cell
/// replays the same fixed delta tail — what varies between cells is only
/// the chain length the claim says must not matter.
fn chain_lengths(quick: bool) -> Vec<u64> {
    if quick {
        vec![250, 450, 850] // ≡ 50 (mod 100)
    } else {
        vec![1_000, 10_000, 100_000] // ≡ 100 (mod 300)
    }
}

/// Snapshot interval for the restart cells (stated in the table title).
fn snapshot_interval(quick: bool) -> u64 {
    if quick {
        100
    } else {
        300
    }
}

/// Runs the full recovery campaign: the deep-chain restart sweep with
/// snapshots on and off (one row per chain length × snapshot mode), then
/// the elastic-membership scenario (one row), one metrics snapshot per
/// cell, and the rows of both tables as the committed
/// `BENCH_recovery.json` trajectory, whose flat-vs-linear shape the
/// regression gate checks.
pub fn recovery_sweep(quick: bool) -> Vec<Artefact> {
    let lengths = chain_lengths(quick);
    let interval = snapshot_interval(quick);
    let mut table = Table::new(
        format!(
            "T-RECOVERY: crash recovery at deep chains (reference desktop peer, \
             {KEY_SPACE}-key state, snapshot interval {interval})"
        ),
        &[
            ("mode", "", Fmt::Plain),
            ("chain_blocks", "chain (blocks)", Fmt::Plain),
            ("snapshots", "snapshots", Fmt::Flag("off", "on")),
            ("snapshots_cut", "cut", Fmt::Plain),
            ("store_blocks", "store at crash (blocks)", Fmt::Plain),
            ("recovery_cost_ms", "recovery cost (ms)", Fmt::Fixed(2, "")),
            ("replayed_blocks", "replayed (blocks)", Fmt::Plain),
            ("snapshot_boots", "snapshot boots", Fmt::Plain),
        ],
    );
    let mut exporter = MetricsExporter::new("table_recovery");
    let kit = chain_kit();
    let chain = build_chain(&kit, *lengths.iter().max().expect("non-empty sweep"));

    for &n in &lengths {
        for snapshots_on in [true, false] {
            let policy = snapshots_on.then(|| SnapshotPolicy::every(interval));
            let cell = run_restart_cell(&kit, &chain[..n as usize], policy, &mut exporter);
            table.push_row(row![
                "restart",
                cell.chain_blocks,
                cell.snapshots_on,
                cell.snapshots_cut,
                cell.store_blocks,
                cell.recovery_cost_ms,
                cell.replayed_blocks,
                cell.snapshot_boots,
            ]);
        }
    }

    let mut elastic = Table::new(
        "T-RECOVERY: elastic membership (spare peer joins a live desktop network)",
        &[
            ("mode", "", Fmt::Plain),
            ("chain_blocks", "chain at join (blocks)", Fmt::Plain),
            ("catchup_ms", "catch-up (virtual ms)", Fmt::Fixed(1, "")),
            ("snapshot_boots", "snapshot boots", Fmt::Plain),
            ("converged", "converged", Fmt::Flag("false", "true")),
            (
                "converged_after_traffic",
                "converged after new traffic",
                Fmt::Flag("false", "true"),
            ),
        ],
    );
    let records = if quick { 12 } else { 48 };
    let cell = run_elastic_cell(records, &mut exporter);
    elastic.push_row(row![
        "elastic",
        cell.chain_blocks,
        cell.catchup_ms,
        cell.snapshot_boots,
        cell.converged,
        cell.converged_after_traffic,
    ]);

    let trajectory = Artefact::trajectory(
        "BENCH_recovery.json",
        "T-RECOVERY",
        "restart recovery cost vs chain length (snapshots on/off) + elastic join",
        &[&table, &elastic],
    );
    vec![
        Artefact::table(table, "table_recovery"),
        Artefact::table(elastic, "table_recovery_elastic"),
        Artefact::Metrics(exporter),
        trajectory,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::table_of;

    /// The quick sweep already shows the tentpole property: snapshot
    /// recovery cost is flat (within 2x) across a 4x chain-length spread,
    /// while genesis replay grows with the chain; and the elastic joiner
    /// converges via a snapshot bootstrap.
    #[test]
    fn quick_recovery_is_flat_with_snapshots_and_linear_without() {
        let artefacts = recovery_sweep(true);
        let table = table_of(&artefacts, "table_recovery");
        let costs = |on: f64| -> Vec<(f64, f64)> {
            (0..table.len())
                .filter(|&row| table.num(row, "snapshots") == Some(on))
                .map(|row| {
                    (
                        table.num(row, "chain_blocks").unwrap(),
                        table.num(row, "recovery_cost_ms").unwrap(),
                    )
                })
                .collect()
        };
        let on = costs(1.0);
        let off = costs(0.0);
        assert_eq!(on.len(), 3);
        assert_eq!(off.len(), 3);
        let (on_min, on_max) = on
            .iter()
            .fold((f64::INFINITY, 0.0f64), |(lo, hi), &(_, c)| {
                (lo.min(c), hi.max(c))
            });
        assert!(
            on_max <= 2.0 * on_min,
            "snapshot recovery must be flat: min {on_min} max {on_max}"
        );
        let shortest = off.iter().find(|(n, _)| *n == 250.0).unwrap().1;
        let longest = off.iter().find(|(n, _)| *n == 850.0).unwrap().1;
        assert!(
            longest >= 3.0 * shortest,
            "genesis replay must grow with the chain: {shortest} -> {longest}"
        );
        // At every length, snapshots beat genesis replay.
        for ((n, with), (_, without)) in on.iter().zip(off.iter()) {
            assert!(
                with < without,
                "snapshots must cut recovery cost at {n} blocks"
            );
        }

        let elastic = table_of(&artefacts, "table_recovery_elastic");
        assert_eq!(elastic.num(0, "converged"), Some(1.0));
        assert_eq!(elastic.num(0, "converged_after_traffic"), Some(1.0));
        assert!(elastic.num(0, "snapshot_boots").unwrap() >= 1.0);
    }
}

//! T-BASE: HyperProv vs the on-chain-data variant.
//!
//! Quantifies the paper's positioning claim that moving payloads
//! off-chain keeps throughput flat-ish and the chain small as items grow,
//! while the on-chain variant pays for every payload byte.
//!
//! The on-chain variant is a *workload* on the same deployment, not a
//! second system: a `Post` whose record carries the payload itself as
//! metadata, so the item travels the whole transaction path (proposal
//! arguments, read-write set, block, state and history of every peer) and
//! the storage node sits idle.

use hyperprov::{ClientCommand, HyperProvNetwork, NetworkConfig, OpId, RecordInput};
use hyperprov_device::{EnergyModel, PowerMeter};
use hyperprov_fabric::BatchConfig;
use hyperprov_ledger::Digest;
use hyperprov_sim::{ActorId, DetRng, SimDuration, SimTime};

use crate::row;
use crate::runner::{run_closed_loop, Artefact, Summary, Until};
use crate::table::{Fmt, Table};
use crate::workload::{payload, store_cmd};

/// Runs the two-workload comparison at several item sizes: the table and
/// its rows as the committed `BENCH_baselines.json` trajectory.
pub fn baseline_comparison(quick: bool) -> Vec<Artefact> {
    // The workload is bounded by *operation count*, not duration: the
    // on-chain variant replicates every payload into all four peers'
    // block stores, state and history databases, so a time-bounded run at
    // large item sizes exhausts host memory — which is itself the paper's
    // argument for off-chain storage. 1 MiB items at 300 ops stay within
    // ~1.5 GiB of replicated ledger.
    let (sizes, clients, ops): (Vec<usize>, usize, u64) = if quick {
        (vec![1 << 10, 1 << 18], 4, 60)
    } else {
        (vec![1 << 10, 1 << 16, 1 << 20], 8, 300)
    };

    let mut table = Table::new(
        "T-BASE: HyperProv vs on-chain data",
        &[
            ("system", "system", Fmt::Plain),
            ("size_bytes", "item size", Fmt::Bytes),
            ("throughput_tx_s", "throughput (tx/s)", Fmt::Fixed(1, "")),
            ("latency_p50_ms", "latency p50 (ms)", Fmt::Fixed(0, "")),
            ("chain_bytes_per_tx", "chain bytes/tx", Fmt::Bytes),
            ("energy_per_tx_j", "energy/tx (J)", Fmt::Fixed(2, "")),
            ("unfinished", "unfinished", Fmt::Plain),
        ],
    );

    for &size in &sizes {
        for (system, on_chain) in [("HyperProv", false), ("on-chain data", true)] {
            let (summary, chain_bytes, energy) = run_fabric(clients, size, ops, on_chain);
            table.push_row(row![
                system,
                size,
                summary.throughput,
                summary.latency_ms(0.5),
                chain_bytes.checked_div(summary.ok).unwrap_or(0),
                energy,
                summary.unfinished,
            ]);
        }
    }
    let trajectory = Artefact::trajectory(
        "BENCH_baselines.json",
        "T-BASE",
        "throughput, latency, chain bytes and energy per tx: payloads off-chain vs on-chain",
        &[&table],
    );
    vec![Artefact::table(table, "table_baselines"), trajectory]
}

/// The item as an on-chain record: the payload rides in the record's
/// metadata (ASCII, one character per payload byte) instead of going to
/// the storage node.
fn on_chain_cmd(key: String, data: &[u8]) -> ClientCommand {
    let text: String = data.iter().map(|b| char::from(b'a' + b % 26)).collect();
    ClientCommand::Post {
        key,
        input: RecordInput::new(Digest::of(data)).with_meta("payload", text),
        op: OpId(0),
    }
}

/// Runs `ops` closed-loop items of `size` bytes through a fresh desktop
/// deployment — stored off-chain, or carried on-chain — and returns the
/// summary, the bytes peer 0's chain holds, and the energy per committed
/// transaction.
fn run_fabric(clients: usize, size: usize, ops: u64, on_chain: bool) -> (Summary, u64, f64) {
    // One block per transaction: batching policy would otherwise interact
    // with envelope sizes (big envelopes overflow PreferredMaxBytes and
    // cut immediately while small ones wait out the timeout), muddying
    // the payload-cost comparison this table is about.
    let config = NetworkConfig::desktop(clients)
        .with_seed(21)
        .with_batch(BatchConfig {
            max_message_count: 1,
            ..BatchConfig::default()
        });
    let mut net = HyperProvNetwork::build(&config);
    let mut rng = DetRng::new(77).fork("baseline");
    let mut item = 0u64;
    let result = run_closed_loop(
        &mut net,
        Until::Ops(ops),
        SimDuration::from_secs(30),
        move |client, _| {
            let key = format!("item-{client}-{item}");
            item += 1;
            let data = payload(&mut rng, size);
            if on_chain {
                on_chain_cmd(key, &data)
            } else {
                store_cmd(key, data)
            }
        },
    );
    let summary = Summary::of(&result);
    let chain_bytes = net.ledgers[0]
        .borrow()
        .store()
        .iter()
        .flat_map(|b| b.envelopes.iter())
        .map(|e| e.bytes.len() as u64)
        .sum();
    // Everything that took part: the on-chain variant never touches the
    // storage node, so its idle draw is not the variant's to pay.
    let storage = (!on_chain).then_some(net.storage);
    let actors = net
        .peers
        .iter()
        .copied()
        .chain([net.orderers[0]])
        .chain(storage)
        .chain(net.clients.iter().copied());
    let energy = energy_per_tx(&net, actors, &summary, result.window);
    (summary, chain_bytes, energy)
}

/// Energy of `actors` over the run per committed transaction (desktop
/// power model).
fn energy_per_tx(
    net: &HyperProvNetwork,
    actors: impl Iterator<Item = ActorId>,
    summary: &Summary,
    (from, to): (SimTime, SimTime),
) -> f64 {
    let meter = PowerMeter::new(EnergyModel::desktop(), SimDuration::from_secs(1));
    let secs = to.saturating_duration_since(from).as_secs_f64();
    let joules: f64 = actors
        .map(|id| meter.average_watts(net.sim.cpu(id), from, to, true) * secs)
        .sum();
    if summary.ok > 0 {
        joules / summary.ok as f64
    } else {
        joules
    }
}

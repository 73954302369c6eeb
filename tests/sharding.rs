//! Multi-channel (sharded) deployments: key→channel routing, per-channel
//! ledger isolation, scatter-gather queries, cross-channel lineage, and
//! per-channel ordering-service fault isolation.

use hyperprov_repro::fabric::COMPOSITE_SEP;
use hyperprov_repro::hyperprov::{
    ChannelSpec, ClientCommand, HashRouter, HyperProvError, HyperProvNetwork, NetworkConfig,
    NodeMsg, OpId, OpOutput, RetryPolicy,
};
use hyperprov_repro::ledger::{Digest, DEFAULT_CHANNEL};
use hyperprov_repro::sim::{SimDuration, SimTime};

/// Two channels, every peer hosting both.
fn two_channels() -> Vec<ChannelSpec> {
    (0..2)
        .map(|c| ChannelSpec::new(format!("{DEFAULT_CHANNEL}-{c}")))
        .collect()
}

/// Finds a key of the form `{prefix}-{i}` that the default router places
/// on `want` of `n` channels.
fn key_on_shard(prefix: &str, want: usize, n: usize) -> String {
    (0..10_000)
        .map(|i| format!("{prefix}-{i}"))
        .find(|k| HashRouter.route(k, n) == want)
        .expect("hash router reaches every shard")
}

fn store(net: &mut HyperProvNetwork, client: usize, op: u64, key: &str, parents: Vec<String>) {
    let target = net.clients[client];
    net.sim.inject_message(
        target,
        NodeMsg::Client(ClientCommand::StoreData {
            key: key.to_owned(),
            data: format!("payload of {key}").into_bytes(),
            parents,
            metadata: vec![],
            op: OpId(op),
        }),
    );
}

fn drain_ok(net: &mut HyperProvNetwork, client: usize) -> Vec<OpOutput> {
    let queue = net.completions[client].clone();
    let mut out = Vec::new();
    for completion in queue.borrow_mut().drain(..) {
        out.push(completion.outcome.expect("operation should succeed"));
    }
    out
}

/// Writes land only on the channel the router picks: the two channels'
/// state databases stay disjoint, every hosting peer of the owning
/// channel holds the record, and no peer of the other channel sees it.
#[test]
fn two_channel_state_isolation() {
    let config = NetworkConfig::desktop(2)
        .with_seed(41)
        .with_channel_specs(two_channels());
    let mut net = HyperProvNetwork::build(&config);
    assert_eq!(net.channels.len(), 2);
    assert_eq!(net.channel_ledgers[0].len(), 4, "all peers host channel 0");

    let keys: Vec<String> = (0..2)
        .flat_map(|shard| (0..3).map(move |i| key_on_shard(&format!("iso-{shard}-{i}"), shard, 2)))
        .collect();
    for (i, key) in keys.iter().enumerate() {
        store(&mut net, i % 2, i as u64 + 1, key, vec![]);
    }
    net.sim.run_until(SimTime::from_secs(60));
    // Each channel's replicas converge among themselves.
    let done: Vec<_> = net
        .completions
        .iter()
        .flat_map(|q| q.borrow().clone())
        .collect();
    assert_eq!(net.audit(&done), []);
    assert_eq!(drain_ok(&mut net, 0).len(), 3);
    assert_eq!(drain_ok(&mut net, 1).len(), 3);

    for key in &keys {
        let shard = HashRouter.route(key, 2);
        let item_key = format!("item{COMPOSITE_SEP}{key}{COMPOSITE_SEP}");
        for (ci, ledgers) in net.channel_ledgers.iter().enumerate() {
            for (peer, committer) in ledgers {
                let committer = committer.borrow();
                let present = committer
                    .state()
                    .scan_prefix("hyperprov", &item_key)
                    .next()
                    .is_some();
                assert_eq!(
                    present,
                    ci == shard,
                    "key {key} (shard {shard}) on peer {peer} channel {ci}"
                );
            }
        }
    }

    // MVCC state never leaks across: the two channels' world states differ.
    assert_ne!(
        net.channel_ledgers[0][0].1.borrow().state().state_hash(),
        net.channel_ledgers[1][0].1.borrow().state().state_hash(),
    );
}

/// Lineage traversal follows parent links across shards: a child on one
/// channel whose parent lives on another still yields the full chain, and
/// checksum/list queries scatter-gather over every channel.
#[test]
fn cross_channel_lineage_and_scatter_queries() {
    let mut config = NetworkConfig::desktop(1)
        .with_seed(43)
        .with_channel_specs(two_channels());
    // Parent checks are per-channel state lookups, so cross-channel
    // parent links need the permissive chaincode (the strict variant
    // would reject a parent it cannot see on its own shard).
    config.permissive = true;
    let mut net = HyperProvNetwork::build(&config);

    let grandparent = key_on_shard("lineage-gp", 0, 2);
    let parent = key_on_shard("lineage-p", 1, 2);
    let child = key_on_shard("lineage-c", 0, 2);

    store(&mut net, 0, 1, &grandparent, vec![]);
    net.sim.run_until(SimTime::from_secs(20));
    store(&mut net, 0, 2, &parent, vec![grandparent.clone()]);
    net.sim.run_until(SimTime::from_secs(40));
    store(&mut net, 0, 3, &child, vec![parent.clone()]);
    net.sim.run_until(SimTime::from_secs(60));
    assert_eq!(drain_ok(&mut net, 0).len(), 3);

    net.sim.inject_message(
        net.clients[0],
        NodeMsg::Client(ClientCommand::GetLineage {
            key: child.clone(),
            depth: 8,
            op: OpId(4),
        }),
    );
    net.sim.run_until(SimTime::from_secs(80));
    let outputs = drain_ok(&mut net, 0);
    assert_eq!(outputs.len(), 1);
    match &outputs[0] {
        OpOutput::Lineage { entries, .. } => {
            let chain: Vec<(u32, &str)> = entries
                .iter()
                .map(|e| (e.depth, e.record.key.as_str()))
                .collect();
            assert_eq!(
                chain,
                vec![
                    (0, child.as_str()),
                    (1, parent.as_str()),
                    (2, grandparent.as_str()),
                ],
                "lineage must hop shard 0 → 1 → 0"
            );
        }
        other => panic!("expected lineage, got {other:?}"),
    }

    // `list` scatter-gathers: every key, across both shards, sorted.
    net.sim.inject_message(
        net.clients[0],
        NodeMsg::Client(ClientCommand::List { op: OpId(5) }),
    );
    net.sim.run_until(SimTime::from_secs(100));
    let outputs = drain_ok(&mut net, 0);
    match &outputs[0] {
        OpOutput::Keys(keys) => {
            let mut expected = vec![grandparent.clone(), parent.clone(), child.clone()];
            expected.sort();
            assert_eq!(keys, &expected);
        }
        other => panic!("expected keys, got {other:?}"),
    }
    assert_eq!(net.audit([]), []);
}

/// A diamond DAG whose arms land on different shards: the lineage visits
/// the shared grandparent exactly once and reports the depth clamp
/// explicitly, and the other graph-index queries return the same node
/// sets.
#[test]
fn cross_shard_diamond_lineage_and_graph_queries() {
    let mut config = NetworkConfig::desktop(1)
        .with_seed(53)
        .with_channel_specs(two_channels());
    config.permissive = true;
    let mut net = HyperProvNetwork::build(&config);

    let gp = key_on_shard("dia-gp", 0, 2);
    let p1 = key_on_shard("dia-p1", 1, 2);
    let p2 = key_on_shard("dia-p2", 0, 2);
    let child = key_on_shard("dia-c", 1, 2);

    store(&mut net, 0, 1, &gp, vec![]);
    net.sim.run_until(SimTime::from_secs(20));
    store(&mut net, 0, 2, &p1, vec![gp.clone()]);
    store(&mut net, 0, 3, &p2, vec![gp.clone()]);
    net.sim.run_until(SimTime::from_secs(40));
    store(&mut net, 0, 4, &child, vec![p1.clone(), p2.clone()]);
    net.sim.run_until(SimTime::from_secs(60));
    assert_eq!(drain_ok(&mut net, 0).len(), 4);

    let run_query = |net: &mut HyperProvNetwork, cmd: ClientCommand| {
        net.sim.inject_message(net.clients[0], NodeMsg::Client(cmd));
        let stop = net.sim.now() + hyperprov_repro::sim::SimDuration::from_secs(20);
        net.sim.run_until(stop);
        let mut outputs = drain_ok(net, 0);
        assert_eq!(outputs.len(), 1);
        outputs.pop().unwrap()
    };

    // The lineage: the diamond's shared grandparent appears once.
    match run_query(
        &mut net,
        ClientCommand::GetLineage {
            key: child.clone(),
            depth: 8,
            op: OpId(5),
        },
    ) {
        OpOutput::Lineage { entries, truncated } => {
            let mut chain: Vec<(u32, &str)> = entries
                .iter()
                .map(|e| (e.depth, e.record.key.as_str()))
                .collect();
            chain.sort_unstable();
            let mut expect = vec![
                (0, child.as_str()),
                (1, p1.as_str()),
                (1, p2.as_str()),
                (2, gp.as_str()),
            ];
            expect.sort_unstable();
            assert_eq!(chain, expect, "grandparent must be visited exactly once");
            assert!(!truncated);
        }
        other => panic!("expected lineage, got {other:?}"),
    }

    // The clamp is reported, not silently swallowed.
    match run_query(
        &mut net,
        ClientCommand::GetLineage {
            key: child.clone(),
            depth: 1,
            op: OpId(6),
        },
    ) {
        OpOutput::Lineage { entries, truncated } => {
            assert_eq!(entries.len(), 3);
            assert!(truncated, "the cut-off grandparent must be flagged");
        }
        other => panic!("expected lineage, got {other:?}"),
    }

    // The graph index returns the same sets in one batched exchange.
    let keys_of = |output: OpOutput| -> Vec<String> {
        match output {
            OpOutput::Graph(slice) => {
                let mut keys: Vec<String> = slice.entries.into_iter().map(|(_, k)| k).collect();
                keys.sort();
                keys
            }
            other => panic!("expected graph slice, got {other:?}"),
        }
    };
    let mut all = vec![gp.clone(), p1.clone(), p2.clone(), child.clone()];
    all.sort();
    let ancestry = keys_of(run_query(
        &mut net,
        ClientCommand::GetAncestry {
            key: child.clone(),
            depth: 8,
            op: OpId(7),
        },
    ));
    assert_eq!(ancestry, all);
    let impact = keys_of(run_query(
        &mut net,
        ClientCommand::GetDescendants {
            key: gp.clone(),
            depth: 8,
            op: OpId(8),
        },
    ));
    assert_eq!(impact, all);
    match run_query(
        &mut net,
        ClientCommand::GetSubgraph {
            key: p1.clone(),
            depth: 8,
            op: OpId(9),
        },
    ) {
        OpOutput::Graph(slice) => {
            assert_eq!(slice.entries.len(), 4);
            let mut edges = slice.edges;
            edges.sort();
            let mut expect = vec![
                (p1.clone(), gp.clone()),
                (p2.clone(), gp.clone()),
                (child.clone(), p1.clone()),
                (child.clone(), p2.clone()),
            ];
            expect.sort();
            assert_eq!(edges, expect);
        }
        other => panic!("expected graph slice, got {other:?}"),
    }
    assert_eq!(net.audit([]), []);
}

/// Identical payloads on different shards are both found by the reverse
/// checksum index (a scatter-gather over every channel's chaincode).
#[test]
fn checksum_lookup_spans_channels() {
    let config = NetworkConfig::desktop(1)
        .with_seed(47)
        .with_channel_specs(two_channels());
    let mut net = HyperProvNetwork::build(&config);

    let a = key_on_shard("twin-a", 0, 2);
    let b = key_on_shard("twin-b", 1, 2);
    let payload = b"identical bytes".to_vec();
    for (op, key) in [(1, &a), (2, &b)] {
        net.sim.inject_message(
            net.clients[0],
            NodeMsg::Client(ClientCommand::StoreData {
                key: key.to_string(),
                data: payload.clone(),
                parents: vec![],
                metadata: vec![],
                op: OpId(op),
            }),
        );
    }
    net.sim.run_until(SimTime::from_secs(40));
    let outputs = drain_ok(&mut net, 0);
    assert_eq!(outputs.len(), 2);
    let checksum = match &outputs[0] {
        OpOutput::Committed {
            record: Some(r), ..
        } => r.checksum,
        other => panic!("expected commit, got {other:?}"),
    };

    net.sim.inject_message(
        net.clients[0],
        NodeMsg::Client(ClientCommand::GetKeysByChecksum {
            checksum,
            op: OpId(3),
        }),
    );
    net.sim.run_until(SimTime::from_secs(60));
    match &drain_ok(&mut net, 0)[0] {
        OpOutput::Keys(keys) => {
            let mut expected = vec![a.clone(), b.clone()];
            expected.sort();
            assert_eq!(keys, &expected, "both shards must answer");
        }
        other => panic!("expected keys, got {other:?}"),
    }
    assert_eq!(net.audit([]), []);
}

/// Killing one channel's entire Raft quorum stops that shard only: the
/// other channel keeps committing, and the dead shard resumes (after a
/// fresh election) once the partition heals.
#[test]
fn raft_outage_on_one_channel_leaves_other_channels_unaffected() {
    let config = NetworkConfig::desktop(1)
        .with_seed(53)
        .with_raft_orderers(3)
        .with_channel_specs(two_channels());
    let mut net = HyperProvNetwork::build(&config);
    assert_eq!(net.channel_orderers[0].len(), 3);
    assert_eq!(net.channel_orderers[1].len(), 3);
    assert_eq!(net.orderers.len(), 6);

    // Let both clusters elect.
    net.sim.run_until(SimTime::from_secs(10));

    // Partition channel 0's cluster pairwise: whichever member led, it is
    // now dead to the shard (no quorum anywhere).
    let ch0 = net.channel_orderers[0].clone();
    for i in 0..ch0.len() {
        for j in (i + 1)..ch0.len() {
            net.sim.network_mut().partition(ch0[i], ch0[j]);
        }
    }

    // A key on the healthy shard commits during the outage...
    let healthy = key_on_shard("healthy", 1, 2);
    store(&mut net, 0, 1, &healthy, vec![]);
    net.sim.run_until(SimTime::from_secs(40));
    let outputs = drain_ok(&mut net, 0);
    assert_eq!(outputs.len(), 1, "channel 1 must commit during the outage");
    // ...and lands only on channel 1's ledgers.
    assert_eq!(net.channel_ledgers[1][0].1.borrow().height(), 1);
    assert_eq!(
        net.channel_ledgers[0][0].1.borrow().height(),
        0,
        "channel 0 cannot order without quorum"
    );

    // Heal; channel 0 re-elects and commits again.
    net.sim.network_mut().heal_all();
    net.sim.run_until(SimTime::from_secs(60));
    let sick = key_on_shard("recovered", 0, 2);
    store(&mut net, 0, 2, &sick, vec![]);
    net.sim.run_until(SimTime::from_secs(120));
    let outputs = drain_ok(&mut net, 0);
    assert_eq!(outputs.len(), 1, "channel 0 must recover after the heal");
    assert_eq!(net.channel_ledgers[0][0].1.borrow().height(), 1);
    assert_eq!(net.audit([]), []);
}

/// Routing is a pure function of the key: a rebuilt network (fresh MSP,
/// fresh actors) places every key on the same shard as the first build.
#[test]
fn routing_is_stable_across_deployments() {
    let keys: Vec<String> = (0..8).map(|i| format!("stable-{i}")).collect();
    let shards: Vec<usize> = keys.iter().map(|k| HashRouter.route(k, 2)).collect();

    for seed in [61, 67] {
        let config = NetworkConfig::desktop(1)
            .with_seed(seed)
            .with_channel_specs(two_channels());
        let mut net = HyperProvNetwork::build(&config);
        for (i, key) in keys.iter().enumerate() {
            store(&mut net, 0, i as u64 + 1, key, vec![]);
            net.sim
                .run_until(net.sim.now() + hyperprov_repro::sim::SimDuration::from_secs(15));
        }
        assert_eq!(drain_ok(&mut net, 0).len(), keys.len());
        for (key, &shard) in keys.iter().zip(&shards) {
            let item_key = format!("item{COMPOSITE_SEP}{key}{COMPOSITE_SEP}");
            let present = net.channel_ledgers[shard][0]
                .1
                .borrow()
                .state()
                .scan_prefix("hyperprov", &item_key)
                .next()
                .is_some();
            assert!(present, "seed {seed}: key {key} must sit on shard {shard}");
        }
    }
}

/// Two channels on disjoint peer pairs, per-op deadlines armed, and a
/// grandparent / parent / child chain on shards 0 / 1 / 0; the keys come
/// back in that order.
fn chain_across_disjoint_shards(retry: Option<RetryPolicy>) -> (HyperProvNetwork, [String; 3]) {
    let specs = (0..2)
        .map(|c| {
            ChannelSpec::new(format!("{DEFAULT_CHANNEL}-{c}")).with_peers(vec![2 * c, 2 * c + 1])
        })
        .collect();
    let mut config = NetworkConfig::desktop(1)
        .with_seed(59)
        .with_channel_specs(specs)
        .with_deadlines(
            Some(SimDuration::from_secs(2)),
            Some(SimDuration::from_secs(10)),
        );
    config.permissive = true;
    if let Some(policy) = retry {
        config = config.with_retry(policy);
    }
    let mut net = HyperProvNetwork::build(&config);
    let chain = [
        key_on_shard("far-gp", 0, 2),
        key_on_shard("far-p", 1, 2),
        key_on_shard("far-c", 0, 2),
    ];
    for (i, key) in chain.iter().enumerate() {
        let parents = chain[..i].last().cloned().into_iter().collect();
        store(&mut net, 0, i as u64 + 1, key, parents);
        let stop = net.sim.now() + SimDuration::from_secs(20);
        net.sim.run_until(stop);
    }
    assert_eq!(drain_ok(&mut net, 0).len(), 3);
    (net, chain)
}

/// Cuts client 0 off from shard 1's peers.
fn cut_off_shard_1(net: &mut HyperProvNetwork) {
    let (client, far) = (net.clients[0], [net.peers[2], net.peers[3]]);
    net.sim.network_mut().partition_groups(&[client], &far);
}

/// Issues `cmds` on client 0 at once, runs for `secs` and returns the
/// outcomes in op-id order.
fn outcomes(
    net: &mut HyperProvNetwork,
    cmds: Vec<ClientCommand>,
    secs: u64,
) -> Vec<Result<OpOutput, HyperProvError>> {
    for cmd in cmds {
        net.sim.inject_message(net.clients[0], NodeMsg::Client(cmd));
    }
    let stop = net.sim.now() + SimDuration::from_secs(secs);
    net.sim.run_until(stop);
    let mut done: Vec<_> = net.completions[0].borrow_mut().drain(..).collect();
    done.sort_by_key(|c| c.op);
    done.into_iter().map(|c| c.outcome).collect()
}

fn lineage_of(key: &str, op: u64) -> ClientCommand {
    ClientCommand::GetLineage {
        key: key.to_owned(),
        depth: 8,
        op: OpId(op),
    }
}

fn lineage_keys(outcome: &Result<OpOutput, HyperProvError>) -> (Vec<(u32, &str)>, bool) {
    match outcome {
        Ok(OpOutput::Lineage { entries, truncated }) => (
            entries
                .iter()
                .map(|e| (e.depth, e.record.key.as_str()))
                .collect(),
            *truncated,
        ),
        other => panic!("expected lineage, got {other:?}"),
    }
}

/// A shard the client cannot reach is not a shard without the key: the
/// lineage fails with the transport's error instead of returning the
/// chain up to the unreachable parent as if it were whole. A parent that
/// really was deleted is skipped, as its owner reports it gone.
#[test]
fn an_unreachable_shard_fails_the_lineage_walk_a_deleted_parent_does_not() {
    let (mut net, [_, parent, child]) = chain_across_disjoint_shards(None);
    cut_off_shard_1(&mut net);
    let cut = outcomes(&mut net, vec![lineage_of(&child, 10)], 20);
    assert_eq!(cut, vec![Err(HyperProvError::Timeout)]);
    assert_eq!(net.sim.metrics().counter("client.timeouts"), 1);

    net.sim.network_mut().heal_all();
    let delete = ClientCommand::Delete {
        key: parent,
        op: OpId(11),
    };
    assert!(outcomes(&mut net, vec![delete], 20)[0].is_ok());
    let after = outcomes(&mut net, vec![lineage_of(&child, 12)], 20);
    assert_eq!(lineage_keys(&after[0]), (vec![(0, child.as_str())], false));
    assert_eq!(net.audit([]), []);
}

/// With a retry policy armed, every sharded query rides out a partition
/// that heals inside the budget, the way a single-shard `Get` does: each
/// one's sub-query on the unreachable shard is a tracked request of its
/// own, retried under its one tx id when it times out.
#[test]
fn sharded_queries_ride_out_a_healed_partition_like_get() {
    let (mut net, [grandparent, parent, child]) =
        chain_across_disjoint_shards(Some(RetryPolicy::new(6)));
    cut_off_shard_1(&mut net);
    let cmds = vec![
        ClientCommand::Get {
            key: parent.clone(),
            op: OpId(10),
        },
        lineage_of(&child, 11),
        ClientCommand::List { op: OpId(12) },
        ClientCommand::GetKeysByChecksum {
            checksum: Digest::of(format!("payload of {parent}").as_bytes()),
            op: OpId(13),
        },
        ClientCommand::GetAncestry {
            key: child.clone(),
            depth: 8,
            op: OpId(14),
        },
    ];
    let mut early = outcomes(&mut net, cmds, 1);
    assert!(early.is_empty(), "nothing can finish while shard 1 is away");
    net.sim.network_mut().heal_all();
    early.extend(outcomes(&mut net, vec![], 30));
    let [get, lineage, list, by_checksum, ancestry] = &early[..] else {
        panic!("five operations, got {early:?}");
    };

    assert!(matches!(get, Ok(OpOutput::Record(r)) if r.key == parent));
    let chain = vec![
        (0, child.as_str()),
        (1, parent.as_str()),
        (2, grandparent.as_str()),
    ];
    assert_eq!(lineage_keys(lineage), (chain.clone(), false));
    let mut all = vec![grandparent.clone(), parent.clone(), child.clone()];
    all.sort();
    assert_eq!(list, &Ok(OpOutput::Keys(all)));
    assert_eq!(by_checksum, &Ok(OpOutput::Keys(vec![parent.clone()])));
    match ancestry {
        Ok(OpOutput::Graph(slice)) => {
            let found: Vec<(u32, &str)> = slice.entries.iter().map(|(d, k)| (*d, &**k)).collect();
            assert_eq!(found, chain);
            assert!(slice.boundary.is_empty() && !slice.truncated);
        }
        other => panic!("expected a graph slice, got {other:?}"),
    }
    // One retried request per operation: the `get` itself and the four
    // plans' shard-1 sub-queries. Both peers of shard 1 are cut off, so
    // the copy each sends at the RTO is lost too, and each waits out its
    // own deadline: five timeouts, all at the same instant.
    let metrics = net.sim.metrics();
    assert_eq!(metrics.counter("client.timeouts"), 5);
    assert_eq!(metrics.counter("client.retries"), 5);
    assert_eq!(metrics.counter("client.exhausted"), 0);
    assert_eq!(net.audit([]), []);
}

/// A shard that stays away spends the sub-query's attempt budget, and the
/// fan-in reports that — not a bare timeout, not a partial key list.
#[test]
fn a_shard_that_stays_away_exhausts_the_fan_in() {
    let (mut net, _) = chain_across_disjoint_shards(Some(RetryPolicy::new(2)));
    cut_off_shard_1(&mut net);
    let list = outcomes(&mut net, vec![ClientCommand::List { op: OpId(10) }], 20);
    assert_eq!(list, vec![Err(HyperProvError::Exhausted { attempts: 2 })]);
    let metrics = net.sim.metrics();
    assert_eq!(metrics.counter("client.timeouts"), 2);
    assert_eq!(metrics.counter("client.retries"), 1);
    assert_eq!(metrics.counter("client.exhausted"), 1);
    assert_eq!(net.audit([]), []);
}

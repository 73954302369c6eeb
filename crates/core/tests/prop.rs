//! Property-based tests of the provenance record model, the HyperProv
//! chaincode invariants, and the materialized DAG index (checked against
//! a hop-by-hop walk over the world state on random multi-parent DAGs).

use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

use hyperprov::plan::{GraphRounds, Plan, Reply, Request, Step};
use hyperprov::{
    decode_history, encode_history, ChannelSpec, ClientCommand, GraphSlice, HashRouter,
    HistoryRecord, HyperProv, HyperProvChaincode, HyperProvError, HyperProvIndexer, LineageEntry,
    NetworkConfig, OpId, OpOutput, ProvenanceRecord, RecordInput, CHAINCODE_NAME, MAX_GRAPH_NODES,
};
use hyperprov_fabric::{
    Certificate, Chaincode, ChaincodeError, ChaincodeStub, MspBuilder, MspId, COMPOSITE_SEP,
};
use hyperprov_ledger::{
    Decode, Digest, Direction, Encode, GraphIndexer, ProvGraph, StateDb, StateKey, TraversalLimits,
    TxId, Version, DEFAULT_CHANNEL,
};
use hyperprov_sim::DetRng;
use proptest::prelude::*;
use rand::Rng;

/// `n` channels, every peer hosting every one; one channel keeps the
/// default name (the unsharded layout).
fn all_hosted(n: usize) -> Vec<ChannelSpec> {
    if n == 1 {
        return vec![ChannelSpec::new(DEFAULT_CHANNEL)];
    }
    (0..n)
        .map(|c| ChannelSpec::new(format!("{DEFAULT_CHANNEL}-{c}")))
        .collect()
}

fn cert() -> Certificate {
    let mut b = MspBuilder::new(1);
    b.enroll("client", &MspId::new("org1"))
        .certificate()
        .clone()
}

fn arb_input() -> impl Strategy<Value = RecordInput> {
    (
        any::<[u8; 32]>(),
        ".{0,40}",
        any::<u64>(),
        proptest::collection::vec("[a-zA-Z0-9 _./-]{1,16}", 0..5),
        proptest::collection::vec(("[a-z]{1,8}", ".{0,16}"), 0..4),
        any::<u64>(),
    )
        .prop_map(|(checksum, location, size, parents, metadata, ts)| {
            let mut input = RecordInput::new(Digest::from(checksum))
                .with_location(location, size)
                .with_parents(parents)
                .with_timestamp(ts);
            for (k, v) in metadata {
                input = input.with_meta(k, v);
            }
            input
        })
}

proptest! {
    #[test]
    fn record_input_round_trips(input in arb_input()) {
        let bytes = input.to_bytes();
        prop_assert_eq!(RecordInput::from_bytes(&bytes).unwrap(), input);
    }

    #[test]
    fn provenance_record_round_trips(input in arb_input(), key in ".{1,32}") {
        let record = ProvenanceRecord::from_input(key, input, cert());
        let bytes = record.to_bytes();
        prop_assert_eq!(ProvenanceRecord::from_bytes(&bytes).unwrap(), record);
    }

    #[test]
    fn record_encoding_canonical(input in arb_input()) {
        let a = ProvenanceRecord::from_input("k", input.clone(), cert());
        let b = ProvenanceRecord::from_input("k", input, cert());
        prop_assert_eq!(a.to_bytes(), b.to_bytes());
        prop_assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn metadata_always_sorted(pairs in proptest::collection::vec(("[a-z]{1,6}", "[a-z]{0,6}"), 0..8)) {
        let mut input = RecordInput::new(Digest::ZERO);
        for (k, v) in pairs {
            input = input.with_meta(k, v);
        }
        let sorted = input.metadata.windows(2).all(|w| w[0] <= w[1]);
        prop_assert!(sorted);
    }

    #[test]
    fn history_codec_round_trips(
        inputs in proptest::collection::vec(arb_input(), 0..5),
        deletes in any::<u8>(),
    ) {
        let entries: Vec<HistoryRecord> = inputs
            .into_iter()
            .enumerate()
            .map(|(i, input)| HistoryRecord {
                tx_id: Digest::of(&(i as u64).to_le_bytes()),
                block: i as u64,
                record: if deletes & (1 << (i % 8)) != 0 {
                    None
                } else {
                    Some(ProvenanceRecord::from_input(format!("k{i}"), input, cert()))
                },
            })
            .collect();
        let bytes = encode_history(&entries);
        prop_assert_eq!(decode_history(&bytes).unwrap(), entries);
    }

    // Decoding is canonical, and the indexer's in-place read of a
    // record's parents accepts exactly what the owned decoder accepts.
    #[test]
    fn a_damaged_record_that_decodes_re_encodes_to_itself(
        input in arb_input(),
        key in ".{1,32}",
        at in any::<u16>(),
        kind in 0u8..4,
        byte in any::<u8>(),
    ) {
        let mut bytes = ProvenanceRecord::from_input(key, input, cert()).to_bytes();
        let at = at as usize % bytes.len();
        match kind {
            0 => bytes[at] = byte,
            1 => drop(bytes.splice(at..=at, [bytes[at] | 0x80, 0x00])),
            2 => bytes.truncate(at),
            _ => bytes.push(byte),
        }
        let decoded = ProvenanceRecord::from_bytes(&bytes);
        if let Ok(record) = &decoded {
            prop_assert_eq!(record.to_bytes(), &bytes[..]);
        }
        prop_assert_eq!(
            ProvenanceRecord::parents_of(&bytes).ok(),
            decoded.ok().map(|record| record.parents)
        );
    }

    #[test]
    fn junk_never_panics(junk in proptest::collection::vec(any::<u8>(), 0..150)) {
        let _ = ProvenanceRecord::from_bytes(&junk);
        let _ = RecordInput::from_bytes(&junk);
        let _ = decode_history(&junk);
    }
}

/// A random multi-parent DAG in topological commit order: node `n{i}`
/// draws 0–3 parents uniformly from the nodes before it.
fn random_dag(rng: &mut DetRng, n: usize) -> Vec<(String, Vec<String>)> {
    (0..n)
        .map(|i| {
            let mut parents = BTreeSet::new();
            if i > 0 {
                for _ in 0..rng.gen_range(0..=3usize.min(i)) {
                    parents.insert(format!("n{}", rng.gen_range(0..i)));
                }
            }
            (format!("n{i}"), parents.into_iter().collect())
        })
        .collect()
}

/// Reference reachability over the generated DAG: `up` follows
/// child → parent edges, `down` the reverse, `both` treats edges as
/// undirected (the closure semantics of the graph index).
fn reach(dag: &[(String, Vec<String>)], start: &str, up: bool, down: bool) -> BTreeSet<String> {
    let mut fwd: HashMap<&str, Vec<&str>> = HashMap::new();
    let mut rev: HashMap<&str, Vec<&str>> = HashMap::new();
    for (child, parents) in dag {
        for parent in parents {
            fwd.entry(child).or_default().push(parent);
            rev.entry(parent).or_default().push(child);
        }
    }
    let mut seen = BTreeSet::from([start.to_owned()]);
    let mut frontier = vec![start.to_owned()];
    while let Some(node) = frontier.pop() {
        let mut next: Vec<&str> = Vec::new();
        if up {
            next.extend(fwd.get(node.as_str()).into_iter().flatten());
        }
        if down {
            next.extend(rev.get(node.as_str()).into_iter().flatten());
        }
        for n in next {
            if seen.insert(n.to_owned()) {
                frontier.push(n.to_owned());
            }
        }
    }
    seen
}

fn slice_keys(slice: &hyperprov::GraphSlice) -> BTreeSet<String> {
    slice.entries.iter().map(|(_, k)| k.clone()).collect()
}

/// The tentpole equivalence property: on random multi-parent DAGs, the
/// one-shot DAG-index queries return exactly the node sets the legacy
/// hop-by-hop oracle (for ancestry) and reference reachability (for
/// descendants/closure) produce — on both the single-channel layout and
/// a 4-shard deployment where every traversal crosses channels.
#[test]
fn dag_index_queries_match_oracle_on_random_dags() {
    for (case, &shards) in [1usize, 4, 1, 4, 1, 4].iter().enumerate() {
        let mut rng = DetRng::new(900 + case as u64);
        let n = rng.gen_range(6..=12usize);
        let dag = random_dag(&mut rng, n);

        let mut config = NetworkConfig::desktop(1)
            .with_seed(300 + case as u64)
            .with_channel_specs(all_hosted(shards));
        // Cross-channel parent links need the permissive chaincode; use
        // it on both layouts so the cases stay comparable.
        config.permissive = true;
        let mut hp = HyperProv::with_config(&config);
        for (key, parents) in &dag {
            hp.post(
                key,
                RecordInput::new(Digest::of(key.as_bytes())).with_parents(parents.clone()),
            )
            .unwrap();
        }

        for probe in 0..3 {
            let root = format!("n{}", rng.gen_range(0..n));
            let ctx = format!("case {case} shards {shards} probe {probe} root {root} dag {dag:?}");

            let ancestry = hp.get_ancestry(&root, 64).unwrap();
            assert!(!ancestry.truncated, "{ctx}");
            assert!(ancestry.boundary.is_empty(), "{ctx}");
            assert_eq!(
                slice_keys(&ancestry),
                reach(&dag, &root, true, false),
                "{ctx}"
            );
            let lineage: BTreeSet<String> = hp
                .get_lineage(&root, 64)
                .unwrap()
                .iter()
                .map(|e| e.record.key.clone())
                .collect();
            assert_eq!(slice_keys(&ancestry), lineage, "{ctx}");

            let descendants = hp.get_descendants(&root, 64).unwrap();
            assert_eq!(
                slice_keys(&descendants),
                reach(&dag, &root, false, true),
                "{ctx}"
            );

            let closure = hp.get_closure(&root, 64).unwrap();
            assert_eq!(
                slice_keys(&closure),
                reach(&dag, &root, true, true),
                "{ctx}"
            );

            // The subgraph's edge list stays inside its node set and
            // matches the generated parent lists.
            let sub = hp.get_subgraph(&root, 64).unwrap();
            let nodes = slice_keys(&sub);
            for (child, parent) in &sub.edges {
                assert!(nodes.contains(child) && nodes.contains(parent), "{ctx}");
                let listed = dag
                    .iter()
                    .find(|(k, _)| k == child)
                    .is_some_and(|(_, parents)| parents.contains(parent));
                assert!(listed, "edge {child}->{parent} not in the DAG: {ctx}");
            }
        }
    }
}

/// Every peer's incrementally maintained index survives a crash/replay
/// cycle bit-for-bit, across every shard of a 4-channel deployment.
#[test]
fn dag_index_rebuild_matches_across_shards() {
    let mut rng = DetRng::new(77);
    let dag = random_dag(&mut rng, 10);
    let mut config = NetworkConfig::desktop(1)
        .with_seed(7)
        .with_channel_specs(all_hosted(4));
    config.permissive = true;
    let mut hp = HyperProv::with_config(&config);
    for (key, parents) in &dag {
        hp.post(
            key,
            RecordInput::new(Digest::of(key.as_bytes())).with_parents(parents.clone()),
        )
        .unwrap();
    }
    let mut indexed = 0usize;
    for shard in &hp.network().channel_ledgers {
        for (peer, committer) in shard {
            let original = committer.borrow();
            assert!(original.graph_consistent(), "peer {peer}");
            let rebuilt = original.recover().unwrap();
            assert_eq!(
                rebuilt.graph().digest(),
                original.graph().digest(),
                "peer {peer}"
            );
            indexed += original.graph().len();
        }
    }
    assert!(indexed > 0, "the deployment must have indexed something");
}

/// One shard as the plans see it: the real chaincode over an in-memory
/// state, history and DAG index, writes applied the way a committer
/// applies them — no simulation, no consensus.
struct Shard {
    cert: Certificate,
    state: StateDb,
    graph: ProvGraph,
    height: u64,
}

impl Shard {
    fn new() -> Self {
        Shard {
            cert: cert(),
            state: StateDb::new(),
            graph: ProvGraph::new(),
            height: 0,
        }
    }

    fn invoke(&mut self, function: &str, args: &[Vec<u8>]) -> Result<Vec<u8>, ChaincodeError> {
        let mut stub = ChaincodeStub::new(CHAINCODE_NAME, function, args, &self.cert, &self.state)
            .with_graph(&self.graph);
        let result = HyperProvChaincode::permissive().invoke(&mut stub);
        let (rwset, _, _) = stub.into_results();
        if result.is_ok() && !rwset.writes.is_empty() {
            self.height += 1;
            let version = Version::new(self.height, 0);
            let tx = TxId(Digest::of(&self.height.to_le_bytes()));
            for write in &rwset.writes {
                self.state.apply_tx(tx, version, write);
                if let Some(update) = HyperProvIndexer.index(&write.key, write.value.as_deref()) {
                    self.graph.apply(&update);
                }
            }
        }
        result
    }
}

/// The lineage oracle: a breadth-first walk over `shard`'s world state,
/// one record read per parent link, skipping parents not in state. `None`
/// when the root is not there.
fn walk(shard: &Shard, root: &str, max_depth: u32) -> Option<Vec<LineageEntry>> {
    let load = |key: &str| {
        let item = StateKey::new(
            CHAINCODE_NAME,
            format!("item{COMPOSITE_SEP}{key}{COMPOSITE_SEP}"),
        );
        let stored = shard.state.get(&item)?;
        Some(ProvenanceRecord::from_bytes(&stored.value).unwrap())
    };
    let mut seen = HashSet::from([root.to_owned()]);
    let mut queue = VecDeque::from([(0, load(root)?)]);
    let mut out = Vec::new();
    while let Some((depth, record)) = queue.pop_front() {
        if depth < max_depth {
            for parent in &record.parents {
                if seen.insert(parent.clone()) {
                    queue.extend(load(parent).map(|found| (depth + 1, found)));
                }
            }
        }
        out.push(LineageEntry { depth, record });
    }
    Some(out)
}

/// `dag` posted (then `deleted` deleted) on `n` shards, each key on the
/// shard that owns it.
fn sharded(dag: &[(String, Vec<String>)], deleted: &BTreeSet<String>, n: usize) -> Vec<Shard> {
    let mut shards: Vec<Shard> = (0..n).map(|_| Shard::new()).collect();
    for (key, parents) in dag {
        let input = RecordInput::new(Digest::of(key.as_bytes())).with_parents(parents.clone());
        shards[HashRouter.route(key, n)]
            .invoke("post", &[key.clone().into_bytes(), input.to_bytes()])
            .unwrap();
    }
    for key in deleted {
        shards[HashRouter.route(key, n)]
            .invoke("delete", &[key.clone().into_bytes()])
            .unwrap();
    }
    shards
}

/// Runs a plan to completion against in-memory shards, answering its
/// outstanding requests in a seeded random order; a chaincode error comes
/// back the way a gateway reports one.
fn drive(
    mut plan: Plan,
    requests: Vec<Request>,
    shards: &mut [Shard],
    rng: &mut DetRng,
) -> Result<OpOutput, HyperProvError> {
    let n = shards.len();
    let mut outstanding = requests;
    loop {
        assert!(!outstanding.is_empty(), "the plan waits on nothing");
        let next = outstanding.swap_remove(rng.gen_range(0..outstanding.len()));
        let Request::Chain(call) = next else {
            panic!("a read plan sent {next:?}");
        };
        let shard = call.shard;
        assert!(!call.invoke, "a read plan invoked {call:?}");
        let reply = match shards[shard].invoke(call.function, &call.args) {
            Ok(bytes) => Reply::Bytes(bytes),
            Err(e) => Reply::Failed(HyperProvError::Rejected(e.to_string())),
        };
        match plan.on_reply(shard, reply, n) {
            Step::Wait => {}
            Step::Send(more) => outstanding.extend(more),
            Step::Done(outcome) => {
                assert!(outstanding.is_empty(), "done with requests in flight");
                return outcome;
            }
        }
    }
}

/// A whole-index traversal, canonically sorted.
fn traverse(
    graph: &ProvGraph,
    root: &str,
    direction: Direction,
    max_depth: u32,
    max_nodes: usize,
) -> GraphSlice {
    let limits = TraversalLimits {
        max_depth,
        max_nodes,
    };
    let roots = [(0, root.to_owned())];
    let edges = direction == Direction::Both;
    let mut slice = GraphSlice::from(graph.traverse(&roots, direction, limits, edges));
    slice.entries.sort();
    slice.boundary.sort();
    slice
}

/// The plans are pure, so they can be checked without a network: on
/// random multi-parent DAGs with some records deleted, spread over 1, 2,
/// 4 and 7 shards, the graph rounds must return what one index over the
/// whole DAG returns, and a lineage what the oracle walk over the whole
/// state returns: entry for entry on one shard, sorted across several.
#[test]
fn sharded_plans_match_one_whole_graph() {
    let mut checked = 0usize;
    for case in 0..300u64 {
        let mut rng = DetRng::new(4000 + case);
        let n = rng.gen_range(6..=18usize);
        // Keys named per case, so every case places them on other shards.
        let name = |i: usize| format!("c{case}n{i}");
        let dag: Vec<(String, Vec<String>)> = random_dag(&mut rng, n)
            .iter()
            .map(|(key, parents)| {
                let rename = |key: &String| format!("c{case}{key}");
                (rename(key), parents.iter().map(rename).collect())
            })
            .collect();
        let deleted: BTreeSet<String> = (0..n)
            .filter(|_| rng.gen_range(0..6usize) == 0)
            .map(name)
            .collect();
        // The youngest node has the deepest ancestry; the other root is
        // anywhere.
        let roots = [name(n - 1), name(rng.gen_range(0..n))];
        let whole = sharded(&dag, &deleted, 1).pop().unwrap();

        for shard_count in [1usize, 2, 4, 7] {
            let mut shards = sharded(&dag, &deleted, shard_count);
            for (root, depth) in roots.iter().flat_map(|r| [1u32, 3, 64].map(|d| (r, d))) {
                let ctx = format!(
                    "case {case} shards {shard_count} depth {depth} root {root} \
                     deleted {deleted:?} dag {dag:?}"
                );
                for (query, direction, budget) in [
                    ("get_ancestry", Direction::Ancestors),
                    ("get_descendants", Direction::Descendants),
                    ("get_closure", Direction::Both),
                    ("get_subgraph", Direction::Both),
                ]
                .into_iter()
                .flat_map(|(q, d)| [4, MAX_GRAPH_NODES].map(|b| (q, d, b)))
                {
                    let ctx = format!("{query} budget {budget}: {ctx}");
                    let (plan, requests) =
                        GraphRounds::start(query, root.clone(), depth, budget, shard_count);
                    let got = match drive(plan, requests, &mut shards, &mut rng) {
                        Ok(OpOutput::Graph(slice)) => slice,
                        other => panic!("{other:?}: {ctx}"),
                    };
                    let mut want = traverse(&whole.graph, root, direction, depth, budget);
                    let uncut = traverse(&whole.graph, root, direction, depth, usize::MAX);
                    if query != "get_subgraph" {
                        want.edges.clear();
                    }
                    if uncut.entries.len() <= budget {
                        assert_eq!(got, want, "{ctx}");
                    } else {
                        // The budget cut both; which nodes fall inside it
                        // depends on an order the shards do not share, so:
                        // as many, all of them reachable.
                        assert!(got.truncated && want.truncated, "{ctx}");
                        assert_eq!(got.entries.len(), budget, "{ctx}");
                        let near = |list: &[(u32, String)], d: u32, k: &String| {
                            list.iter().any(|(min, key)| key == k && *min <= d)
                        };
                        for (d, k) in &got.entries {
                            assert!(near(&uncut.entries, *d, k), "entry {k}: {ctx}");
                        }
                        for (d, k) in &got.boundary {
                            assert!(near(&uncut.boundary, *d, k), "boundary {k}: {ctx}");
                        }
                        for edge in &got.edges {
                            assert!(uncut.edges.contains(edge), "edge {edge:?}: {ctx}");
                        }
                    }
                    checked += 1;
                }

                let command = ClientCommand::GetLineage {
                    key: root.clone(),
                    depth,
                    op: OpId(0),
                };
                let (plan, requests) = Plan::start(command, shard_count, "", 0);
                let got = drive(plan, requests, &mut shards, &mut rng);
                match (walk(&whole, root, depth), got) {
                    (Some(mut want), Ok(OpOutput::Lineage { entries, truncated })) => {
                        if shard_count > 1 {
                            want.sort_by(|a, b| {
                                (a.depth, &a.record.key).cmp(&(b.depth, &b.record.key))
                            });
                        }
                        assert_eq!(entries, want, "{ctx}");
                        let uncut = traverse(
                            &whole.graph,
                            root,
                            Direction::Ancestors,
                            depth,
                            MAX_GRAPH_NODES,
                        );
                        assert_eq!(truncated, uncut.truncated, "{ctx}");
                        let all = walk(&whole, root, 64).unwrap();
                        assert!(
                            truncated || all.len() == want.len(),
                            "silently short: {ctx}"
                        );
                    }
                    (None, Err(HyperProvError::Rejected(_))) => {}
                    (want, got) => panic!("lineage {want:?} vs {got:?}: {ctx}"),
                }
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 300 * 4 * 2 * 3 * 9);
}

/// `b`, `a ← b`, `r ← {a, b}`: at depth 1 the walk reaches both of `r`'s
/// parents, so `a`'s parent `b` is no truncation — on one shard, and on
/// two with the three keys placed every way.
#[test]
fn a_parent_reached_at_the_clamp_is_no_truncation() {
    let on = |prefix: &str, shard: usize, shards: usize| {
        (0..1000)
            .map(|i| format!("{prefix}{i}"))
            .find(|k| HashRouter.route(k, shards) == shard)
            .unwrap()
    };
    let placements = (0..8usize).map(|bits| (2, [bits & 1, bits >> 1 & 1, bits >> 2 & 1]));
    for (shard_count, [r, a, b]) in [(1, [0, 0, 0])].into_iter().chain(placements) {
        let [r, a, b] = [("r", r), ("a", a), ("b", b)].map(|(p, at)| on(p, at, shard_count));
        let dag = vec![
            (b.clone(), vec![]),
            (a.clone(), vec![b.clone()]),
            (r.clone(), vec![a.clone(), b.clone()]),
        ];
        let mut shards = sharded(&dag, &BTreeSet::new(), shard_count);
        for (depth, cut) in [(1, false), (0, true)] {
            let ctx = format!("{shard_count} shards, r {r} a {a} b {b}, depth {depth}");
            let ancestry = ClientCommand::GetAncestry {
                key: r.clone(),
                depth,
                op: OpId(0),
            };
            let lineage = ClientCommand::GetLineage {
                key: r.clone(),
                depth,
                op: OpId(1),
            };
            for command in [ancestry, lineage] {
                let (plan, requests) = Plan::start(command, shard_count, "", 0);
                let (keys, truncated) =
                    match drive(plan, requests, &mut shards, &mut DetRng::new(1)) {
                        Ok(OpOutput::Graph(slice)) => (slice_keys(&slice), slice.truncated),
                        Ok(OpOutput::Lineage { entries, truncated }) => (
                            entries.into_iter().map(|e| e.record.key).collect(),
                            truncated,
                        ),
                        other => panic!("{other:?}: {ctx}"),
                    };
                let want = if cut { vec![&r] } else { vec![&r, &a, &b] };
                assert_eq!(keys, want.into_iter().cloned().collect(), "{ctx}");
                assert_eq!(truncated, cut, "{ctx}");
            }
        }
    }
}

/// Random DAGs rarely have a long chain on one shard with a short cut
/// through another, so that case is spelled out: `d` is first reported
/// three hops up its own shard, at the clamp with a parent above it; the
/// other shard then places it two hops up, so it goes out again and the
/// answer is what one index gives — nearer, complete, and not truncated.
#[test]
fn a_key_reached_the_long_way_round_is_expanded_from_its_true_depth() {
    let on = |prefix: &str, shard: usize| {
        (0..1000)
            .map(|i| format!("{prefix}{i}"))
            .find(|k| HashRouter.route(k, 2) == shard)
            .unwrap()
    };
    let [e, d, c, a, r] = ["e", "d", "c", "a", "r"].map(|prefix| on(prefix, 0));
    let b = on("b", 1);
    let dag = vec![
        (e.clone(), vec![]),
        (d.clone(), vec![e.clone()]),
        (c.clone(), vec![d.clone()]),
        (a.clone(), vec![c.clone()]),
        (b.clone(), vec![d.clone()]),
        (r.clone(), vec![a.clone(), b.clone()]),
    ];
    let whole = sharded(&dag, &BTreeSet::new(), 1).pop().unwrap();
    let mut shards = sharded(&dag, &BTreeSet::new(), 2);
    let (plan, requests) = GraphRounds::start("get_ancestry", r.clone(), 3, MAX_GRAPH_NODES, 2);
    let got = drive(plan, requests, &mut shards, &mut DetRng::new(1));
    let want = traverse(&whole.graph, &r, Direction::Ancestors, 3, MAX_GRAPH_NODES);
    assert!(want.entries.contains(&(2, d)) && want.entries.contains(&(3, e)));
    assert!(!want.truncated);
    assert_eq!(got, Ok(OpOutput::Graph(want)));
}

/// A peer answers with at most `MAX_GRAPH_NODES` nodes. When that cap, not
/// the client's count, is what cuts an answer — here the root and its
/// 4,200 children all sit on one shard of two, and the first answer alone
/// fills the budget exactly — the nodes the peer left out must not vanish
/// behind `truncated = false`.
#[test]
fn an_answer_cut_by_the_peers_cap_is_reported_truncated() {
    fn on_shard_0(prefix: &'static str) -> impl Iterator<Item = String> {
        (0..)
            .map(move |i| format!("{prefix}{i}"))
            .filter(|k| HashRouter.route(k, 2) == 0)
    }
    let root = on_shard_0("root").next().unwrap();
    let kids = on_shard_0("kid").take(MAX_GRAPH_NODES + 104);
    let mut dag = vec![(root.clone(), vec![])];
    dag.extend(kids.map(|kid| (kid, vec![root.clone()])));
    let mut shards = sharded(&dag, &BTreeSet::new(), 2);
    let (plan, requests) = GraphRounds::start("get_descendants", root, 8, MAX_GRAPH_NODES, 2);
    let got = drive(plan, requests, &mut shards, &mut DetRng::new(1));
    let Ok(OpOutput::Graph(slice)) = got else {
        panic!("{got:?}");
    };
    assert_eq!(slice.entries.len(), MAX_GRAPH_NODES);
    assert!(slice.truncated);
}

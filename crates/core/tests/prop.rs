//! Property-based tests of the provenance record model, the HyperProv
//! chaincode invariants, and the materialized DAG index (checked against
//! the legacy hop-by-hop oracle walk on random multi-parent DAGs).

use std::collections::{BTreeSet, HashMap};

use hyperprov::{
    decode_history, decode_lineage, encode_history, encode_lineage, ChannelSpec, HistoryRecord,
    HyperProv, LineageEntry, NetworkConfig, ProvenanceRecord, RecordInput,
};
use hyperprov_fabric::{Certificate, MspBuilder, MspId};
use hyperprov_ledger::{Decode, Digest, Encode, DEFAULT_CHANNEL};
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

    #[test]
    fn lineage_codec_round_trips(inputs in proptest::collection::vec(arb_input(), 0..5)) {
        let entries: Vec<LineageEntry> = inputs
            .into_iter()
            .enumerate()
            .map(|(i, input)| LineageEntry {
                depth: i as u32,
                record: ProvenanceRecord::from_input(format!("k{i}"), input, cert()),
            })
            .collect();
        let bytes = encode_lineage(&entries);
        prop_assert_eq!(decode_lineage(&bytes).unwrap(), entries);
    }

    #[test]
    fn junk_never_panics(junk in proptest::collection::vec(any::<u8>(), 0..150)) {
        let _ = ProvenanceRecord::from_bytes(&junk);
        let _ = RecordInput::from_bytes(&junk);
        let _ = decode_history(&junk);
        let _ = decode_lineage(&junk);
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
            let oracle: BTreeSet<String> = hp
                .get_lineage(&root, 64)
                .unwrap()
                .iter()
                .map(|e| e.record.key.clone())
                .collect();
            assert_eq!(slice_keys(&ancestry), oracle, "{ctx}");

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

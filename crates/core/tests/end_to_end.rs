//! End-to-end tests of the full HyperProv deployment: client library,
//! Fabric pipeline, off-chain storage and auditing, all under virtual
//! time.

mod support;

use hyperprov::{
    AuditFinding, HyperProv, HyperProvError, HyperProvNetwork, NetworkConfig, OpmGraph, RecordInput,
};
use hyperprov_device::DeviceProfile;
use hyperprov_ledger::{Digest, DEFAULT_CHANNEL};
use hyperprov_sim::{ActorId, SimDuration, SimTime};
use support::settle;

/// `finding` on peer 0, the replica the record pass reads.
fn on_peer0(finding: AuditFinding) -> AuditFinding {
    AuditFinding::Replica(DEFAULT_CHANNEL.into(), 0, Box::new(finding))
}

#[test]
fn store_get_round_trip_desktop() {
    let mut hp = HyperProv::desktop();
    let payload = b"sensor frame 001".to_vec();
    let record = hp
        .store_data(
            "frame-001",
            payload.clone(),
            vec![],
            vec![("camera".into(), "north".into())],
        )
        .unwrap();
    assert_eq!(record.checksum, Digest::of(&payload));
    assert_eq!(record.size, payload.len() as u64);
    assert!(record.location.starts_with("sshfs://store0/"));
    assert_eq!(record.meta("camera"), Some("north"));
    assert_eq!(record.creator.subject, "client0");

    let fetched = hp.get("frame-001").unwrap();
    assert_eq!(fetched, record);

    let (rec2, data) = hp.get_data("frame-001").unwrap();
    assert_eq!(rec2.checksum, record.checksum);
    assert_eq!(data, payload);
    assert!(hp.check_data("frame-001").unwrap());
}

#[test]
fn missing_key_is_rejected() {
    let mut hp = HyperProv::desktop();
    match hp.get("nonexistent") {
        Err(HyperProvError::Rejected(reason)) => assert!(reason.contains("not found")),
        other => panic!("expected rejection, got {other:?}"),
    }
}

#[test]
fn lineage_chain_traversal() {
    let mut hp = HyperProv::desktop();
    hp.store_data("raw", b"raw data".to_vec(), vec![], vec![])
        .unwrap();
    hp.store_data(
        "cleaned",
        b"clean data".to_vec(),
        vec!["raw".into()],
        vec![],
    )
    .unwrap();
    hp.store_data("model", b"weights".to_vec(), vec!["cleaned".into()], vec![])
        .unwrap();
    hp.store_data(
        "report",
        b"pdf".to_vec(),
        vec!["model".into(), "cleaned".into()],
        vec![],
    )
    .unwrap();

    let lineage = hp.get_lineage("report", 10).unwrap();
    let keys: Vec<&str> = lineage.iter().map(|e| e.record.key.as_str()).collect();
    assert_eq!(keys, vec!["report", "model", "cleaned", "raw"]);
    let depths: Vec<u32> = lineage.iter().map(|e| e.depth).collect();
    assert_eq!(depths, vec![0, 1, 1, 2]);

    // Depth-limited traversal stops early.
    let shallow = hp.get_lineage("report", 1).unwrap();
    assert_eq!(shallow.len(), 3); // report + model + cleaned

    // OPM export covers the whole graph.
    let records: Vec<_> = lineage.iter().map(|e| e.record.clone()).collect();
    let graph = OpmGraph::from_records(records.iter());
    assert_eq!(graph.nodes_of(hyperprov::OpmNodeKind::Artifact).len(), 4);
    assert!(graph.to_dot().contains("wasDerivedFrom"));
}

#[test]
fn missing_parent_rejected_by_chaincode() {
    let mut hp = HyperProv::desktop();
    let err = hp
        .store_data("orphan", b"x".to_vec(), vec!["ghost".into()], vec![])
        .unwrap_err();
    match err {
        HyperProvError::Rejected(reason) => assert!(reason.contains("ghost")),
        other => panic!("expected rejection, got {other:?}"),
    }
}

#[test]
fn history_records_every_version() {
    let mut hp = HyperProv::desktop();
    hp.store_data("doc", b"v1".to_vec(), vec![], vec![])
        .unwrap();
    hp.store_data("doc", b"v2".to_vec(), vec![], vec![])
        .unwrap();
    hp.store_data("doc", b"v3 final".to_vec(), vec![], vec![])
        .unwrap();
    let history = hp.get_history("doc").unwrap();
    assert_eq!(history.len(), 3);
    let checksums: Vec<Digest> = history
        .iter()
        .map(|h| h.record.as_ref().unwrap().checksum)
        .collect();
    assert_eq!(
        checksums,
        vec![
            Digest::of(b"v1"),
            Digest::of(b"v2"),
            Digest::of(b"v3 final")
        ]
    );
    // Blocks are increasing.
    assert!(history.windows(2).all(|w| w[0].block <= w[1].block));
}

#[test]
fn checksum_reverse_lookup() {
    let mut hp = HyperProv::desktop();
    let payload = b"shared bytes".to_vec();
    hp.store_data("copy-a", payload.clone(), vec![], vec![])
        .unwrap();
    hp.store_data("copy-b", payload.clone(), vec![], vec![])
        .unwrap();
    hp.store_data("other", b"different".to_vec(), vec![], vec![])
        .unwrap();
    let keys = hp.get_keys_by_checksum(Digest::of(&payload)).unwrap();
    assert_eq!(keys, vec!["copy-a", "copy-b"]);
}

#[test]
fn delete_removes_current_but_keeps_history() {
    let mut hp = HyperProv::desktop();
    hp.store_data("temp", b"x".to_vec(), vec![], vec![])
        .unwrap();
    hp.delete("temp").unwrap();
    assert!(hp.get("temp").is_err());
    let history = hp.get_history("temp").unwrap();
    assert_eq!(history.len(), 2);
    assert!(history[1].record.is_none()); // the delete marker
}

#[test]
fn tampering_detected_end_to_end() {
    let mut hp = HyperProv::desktop();
    let record = hp
        .store_data("victim", b"original".to_vec(), vec![], vec![])
        .unwrap();

    // Corrupt the off-chain object behind HyperProv's back.
    let object = record.location.rsplit('/').next().unwrap().to_owned();
    assert!(hp.network().store.tamper(&object, b"evil bytes"));

    // get_data detects the mismatch.
    match hp.get_data("victim") {
        Err(HyperProvError::IntegrityViolation { expected, actual }) => {
            assert_eq!(expected, Digest::of(b"original"));
            assert_eq!(actual, Digest::of(b"evil bytes"));
        }
        other => panic!("expected integrity violation, got {other:?}"),
    }
    // check_data reports false rather than failing.
    assert!(!hp.check_data("victim").unwrap());

    // The auditor sees it too.
    let tampered = AuditFinding::TamperedPayload {
        key: "victim".into(),
        expected: Digest::of(b"original"),
        actual: Digest::of(b"evil bytes"),
    };
    assert_eq!(hp.network().audit([]), [on_peer0(tampered)]);
}

#[test]
fn audit_clean_network_and_ledger_convergence() {
    let mut hp = HyperProv::desktop();
    for i in 0..8 {
        hp.store_data(&format!("item{i}"), vec![i as u8; 64], vec![], vec![])
            .unwrap();
    }
    // All four peers converge to the same chain tip and state.
    settle(&mut hp, 5);
    assert!(hp.network().ledgers[0].borrow().height() > 0);
    assert_eq!(hp.network().audit([]), []);
}

#[test]
fn missing_payload_detected_by_audit() {
    let mut hp = HyperProv::desktop();
    let record = hp
        .store_data("gone", b"data".to_vec(), vec![], vec![])
        .unwrap();
    settle(&mut hp, 5);
    let object = record.location.rsplit('/').next().unwrap().to_owned();
    use hyperprov_offchain::ObjectStore;
    hp.network().store.delete(&object).unwrap();
    let key = "gone".into();
    let missing = AuditFinding::MissingPayload { key, object };
    assert_eq!(hp.network().audit([]), [on_peer0(missing)]);
}

#[test]
fn rpi_network_works_but_is_slower() {
    // Cut a block per transaction so the 2 s batch timeout does not mask
    // the platform difference.
    let batch = hyperprov_fabric::BatchConfig {
        max_message_count: 1,
        ..hyperprov_fabric::BatchConfig::default()
    };
    let run = |mut hp: HyperProv| {
        let t0 = hp.now();
        hp.store_data("item", vec![7u8; 256 * 1024], vec![], vec![])
            .unwrap();
        hp.now() - t0
    };
    let desktop = run(HyperProv::with_config(
        &NetworkConfig::desktop(1).with_batch(batch),
    ));
    let rpi = run(HyperProv::with_config(
        &NetworkConfig::rpi(1).with_batch(batch),
    ));
    assert!(
        rpi > desktop,
        "rpi {rpi} should be slower than desktop {desktop}"
    );
    // The paper reports roughly an order of magnitude; allow a wide band
    // but require a clear gap.
    let ratio = rpi.as_secs_f64() / desktop.as_secs_f64();
    assert!(ratio > 1.5, "ratio={ratio}");
}

#[test]
fn post_metadata_only_item() {
    let mut hp = HyperProv::desktop();
    let input = RecordInput::new(Digest::of(b"external dataset v1"))
        .with_meta("source", "satellite")
        .with_timestamp(1_600_000_000_000);
    let record = hp.post("external", input).unwrap();
    assert!(!record.has_offchain_data());
    // get_data on a metadata-only item is rejected.
    assert!(matches!(
        hp.get_data("external"),
        Err(HyperProvError::Rejected(_))
    ));
    // but get works.
    assert_eq!(
        hp.get("external").unwrap().meta("source"),
        Some("satellite")
    );
}

#[test]
fn list_enumerates_live_items() {
    let mut hp = HyperProv::desktop();
    assert!(hp.list().unwrap().is_empty());
    hp.store_data("zebra", b"z".to_vec(), vec![], vec![])
        .unwrap();
    hp.store_data("apple", b"a".to_vec(), vec![], vec![])
        .unwrap();
    hp.store_data("mango", b"m".to_vec(), vec![], vec![])
        .unwrap();
    assert_eq!(hp.list().unwrap(), vec!["apple", "mango", "zebra"]);
    hp.delete("mango").unwrap();
    assert_eq!(hp.list().unwrap(), vec!["apple", "zebra"]);
}

#[test]
fn exported_chain_replays_into_identical_ledger() {
    let mut hp = HyperProv::desktop();
    hp.store_data("x", b"one".to_vec(), vec![], vec![]).unwrap();
    hp.store_data("y", b"two".to_vec(), vec!["x".into()], vec![])
        .unwrap();
    let mut buf = Vec::new();
    hp.export_chain(&mut buf).unwrap();

    let loaded = hyperprov_ledger::BlockStore::read_from(buf.as_slice()).unwrap();
    let original = hp.network().ledgers[0].borrow();
    let rebuilt = hyperprov_fabric::Committer::replay(
        original.channel().clone(),
        original.msp().clone(),
        hyperprov_fabric::ChannelPolicies::new(hyperprov_fabric::EndorsementPolicy::any_of(
            (1..=4).map(|i| hyperprov_fabric::MspId::new(format!("org{i}"))),
        )),
        None,
        loaded.iter().cloned(),
    )
    .unwrap();
    assert_eq!(rebuilt.store().tip_hash(), original.store().tip_hash());
    // The rebuilt peer serves the same records.
    let records = hyperprov::current_records(&rebuilt);
    assert_eq!(records.len(), 2);
    assert!(records.iter().all(|(_, r)| r.is_ok()));
}

/// Stores a diamond DAG (`a ← b`, `a ← c`, `{b, c} ← d`) and checks every
/// graph-index query against the lineage, which answers from the same
/// index.
#[test]
fn graph_queries_end_to_end() {
    let mut hp = HyperProv::desktop();
    hp.post("a", RecordInput::new(Digest::of(b"a"))).unwrap();
    hp.post(
        "b",
        RecordInput::new(Digest::of(b"b")).with_parents(vec!["a".into()]),
    )
    .unwrap();
    hp.post(
        "c",
        RecordInput::new(Digest::of(b"c")).with_parents(vec!["a".into()]),
    )
    .unwrap();
    hp.post(
        "d",
        RecordInput::new(Digest::of(b"d")).with_parents(vec!["b".into(), "c".into()]),
    )
    .unwrap();

    // Ancestry matches the lineage's key set (and tags depths).
    let ancestry = hp.get_ancestry("d", 8).unwrap();
    let mut keys: Vec<(u32, &str)> = ancestry
        .entries
        .iter()
        .map(|(d, k)| (*d, k.as_str()))
        .collect();
    keys.sort_unstable();
    assert_eq!(keys, vec![(0, "d"), (1, "b"), (1, "c"), (2, "a")]);
    assert!(!ancestry.truncated);
    assert!(ancestry.boundary.is_empty());
    let lineage: Vec<String> = hp
        .get_lineage("d", 8)
        .unwrap()
        .iter()
        .map(|e| e.record.key.clone())
        .collect();
    let mut index_keys: Vec<String> = ancestry.entries.iter().map(|(_, k)| k.clone()).collect();
    let mut lineage_keys = lineage.clone();
    index_keys.sort();
    lineage_keys.sort();
    assert_eq!(index_keys, lineage_keys);

    // Both sides report the depth clamp cutting the walk short.
    let (shallow, truncated) = hp.get_lineage_truncated("d", 1).unwrap();
    assert_eq!(shallow.len(), 3);
    assert!(truncated, "grandparent beyond the clamp must be flagged");
    let shallow_graph = hp.get_ancestry("d", 1).unwrap();
    assert_eq!(shallow_graph.entries.len(), 3);
    assert!(shallow_graph.truncated);

    // Descendants (impact) and closure come from the same index.
    let impact = hp.get_descendants("a", 8).unwrap();
    let mut impact_keys: Vec<&str> = impact.entries.iter().map(|(_, k)| k.as_str()).collect();
    impact_keys.sort_unstable();
    assert_eq!(impact_keys, vec!["a", "b", "c", "d"]);
    let closure = hp.get_closure("b", 8).unwrap();
    assert_eq!(closure.entries.len(), 4);

    // The subgraph carries every (child, parent) edge of the diamond.
    let sub = hp.get_subgraph("d", 8).unwrap();
    let mut edges = sub.edges.clone();
    edges.sort();
    assert_eq!(
        edges,
        vec![
            ("b".to_owned(), "a".to_owned()),
            ("c".to_owned(), "a".to_owned()),
            ("d".to_owned(), "b".to_owned()),
            ("d".to_owned(), "c".to_owned()),
        ]
    );
}

/// A peer restart (block-store replay) rebuilds the exact same graph
/// index the pre-crash peer maintained incrementally — deletes included.
#[test]
fn graph_index_rebuilt_on_restart_matches() {
    let mut hp = HyperProv::desktop();
    hp.store_data("raw", b"raw".to_vec(), vec![], vec![])
        .unwrap();
    hp.store_data("cooked", b"cooked".to_vec(), vec!["raw".into()], vec![])
        .unwrap();
    hp.store_data(
        "served",
        b"served".to_vec(),
        vec!["cooked".into(), "raw".into()],
        vec![],
    )
    .unwrap();
    hp.store_data("scrap", b"scrap".to_vec(), vec!["raw".into()], vec![])
        .unwrap();
    hp.delete("scrap").unwrap();

    let ledger = hp.network().ledgers[0].clone();
    let original = ledger.borrow();
    assert_eq!(original.graph().len(), 3, "delete must drop the node");
    assert!(
        original.graph_consistent(),
        "incremental index must match a state-scan rebuild"
    );

    let rebuilt = original.recover().unwrap();
    assert_eq!(rebuilt.graph().digest(), original.graph().digest());
    assert_eq!(rebuilt.graph().len(), original.graph().len());
    assert_eq!(rebuilt.graph().edge_count(), original.graph().edge_count());
}

/// A committed record whose parent is absent from the graph index bumps
/// the `dangling_parent` counter (permissive chaincode lets it commit);
/// strict runs keep the counter at zero.
#[test]
fn dangling_parent_counted() {
    let mut config = NetworkConfig::desktop(1);
    config.permissive = true;
    let mut hp = HyperProv::with_config(&config);
    hp.post(
        "orphan",
        RecordInput::new(Digest::of(b"x")).with_parents(vec!["ghost".into()]),
    )
    .unwrap();
    let dangling: u64 = hp
        .network()
        .sim
        .metrics()
        .counters()
        .filter(|(name, _)| name.ends_with(".dangling_parent"))
        .map(|(_, v)| v)
        .sum();
    assert!(dangling > 0, "dangling parent must be counted");
    assert!(hp.network().ledgers[0].borrow().graph().dangling() > 0);

    // The strict deployment rejects the orphan outright, so the counter
    // never moves (and default exports stay clean).
    let mut strict = HyperProv::desktop();
    strict
        .post(
            "orphan",
            RecordInput::new(Digest::of(b"x")).with_parents(vec!["ghost".into()]),
        )
        .unwrap_err();
    let clean: u64 = strict
        .network()
        .sim
        .metrics()
        .counters()
        .filter(|(name, _)| name.ends_with(".dangling_parent"))
        .map(|(_, v)| v)
        .sum();
    assert_eq!(clean, 0);
}

#[test]
fn deterministic_replay_same_seed() {
    let run = |seed: u64| {
        let config = NetworkConfig::desktop(1).with_seed(seed);
        let mut hp = HyperProv::with_config(&config);
        for i in 0..5 {
            hp.store_data(&format!("k{i}"), vec![i as u8; 1000], vec![], vec![])
                .unwrap();
        }
        hp.now()
    };
    assert_eq!(run(11), run(11));
    assert_ne!(run(11), run(12));
}

/// The benchmark's per-layer `sim.handler_s.*` metrics are the profiler's
/// handler time by actor label, and each host sets its actor's label: a
/// desktop deployment reports exactly its four roles.
#[test]
fn the_profiler_reports_handler_time_by_role() {
    let mut hp = HyperProv::desktop();
    hp.network_mut().sim.enable_profiler();
    hp.store_data("k", b"v".to_vec(), vec![], vec![]).unwrap();
    hp.get_data("k").unwrap();
    let sim = &hp.network().sim;
    let report = sim
        .profiler()
        .snapshot_json(sim.events_processed(), sim.hot_counters());
    let report = hyperprov_sim::json::parse(&report).unwrap();
    let handlers = report.get("handlers").and_then(|h| h.entries()).unwrap();
    let labels: Vec<&str> = handlers.iter().map(|(label, _)| label.as_str()).collect();
    assert_eq!(labels, ["client", "orderer", "peer", "storage"]);
}

/// `peer`'s read lanes: how many reads submitted together on an idle
/// copy of its CPU start at once.
fn read_lanes(net: &HyperProvNetwork, peer: ActorId) -> usize {
    let mut cpu = net.sim.cpu(peer).clone();
    let idle = SimTime::from_secs(1 << 30);
    let second = SimDuration::from_secs(1);
    (0..8)
        .take_while(|_| cpu.execute_read(idle, second).0 == idle)
        .count()
}

#[test]
fn a_peer_answers_queries_on_every_core_its_vscc_lanes_leave_free() {
    let reads = |config: &NetworkConfig| {
        let net = HyperProvNetwork::build(config);
        let reads: Vec<_> = net.peers.iter().map(|&p| read_lanes(&net, p)).collect();
        reads
    };
    // Desktop: Xeon, Xeon and i7 have 4 cores, the i3 2; the RPi 3B+ 4.
    assert_eq!(reads(&NetworkConfig::desktop(1)), [3, 3, 3, 1]);
    assert_eq!(reads(&NetworkConfig::rpi(1)), [3; 4]);
    assert_eq!(reads(&NetworkConfig::rpi(1).with_vscc_lanes(2)), [2; 4]);
    assert_eq!(reads(&NetworkConfig::desktop(1).with_vscc_lanes(4)), [1; 4]);
    let mut reference = NetworkConfig::desktop(1);
    reference.peer_devices = vec![DeviceProfile::reference()];
    assert_eq!(reads(&reference), [1]);
    // A spare joins on the device of the built peer it mirrors, with the
    // same read lanes.
    let mut net = HyperProvNetwork::build(&NetworkConfig::desktop(1).with_spare_peers(4));
    let spares: Vec<_> = (0..4).map(|_| net.add_peer()).collect();
    let spare_reads: Vec<_> = spares.iter().map(|&p| read_lanes(&net, p)).collect();
    assert_eq!(spare_reads, [3, 3, 3, 1]);
}

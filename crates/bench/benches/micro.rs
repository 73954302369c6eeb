//! Criterion micro-benchmarks for the substrate hot paths: hashing,
//! canonical codec, Merkle roots, state-DB operations, snapshot cutting
//! and sealing, the hybrid event queue, a full single-transaction
//! pipeline step and the commit path's decoders.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hyperprov::{
    HyperProvChaincode, HyperProvIndexer, RecordInput, CHAINCODE_NAME, MAX_GRAPH_NODES,
};
use hyperprov_fabric::{
    endorse, Chaincode, ChaincodeStub, Endorsement, Envelope, EnvelopeView, MspBuilder, MspId,
    Proposal, SignedProposal,
};
use hyperprov_ledger::{
    ChannelId, Decode, Digest, Encode, GraphIndexer, KvWrite, MerkleTree, ProvGraph, Snapshot,
    StateDb, StateKey, TxId, Version, DEFAULT_CHUNK_ENTRIES,
};

fn bench_sha256(c: &mut Criterion) {
    let mut group = c.benchmark_group("sha256");
    for size in [1usize << 10, 1 << 16, 1 << 20] {
        let data = vec![0xA5u8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, data| {
            b.iter(|| Digest::of(data));
        });
    }
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let mut b = MspBuilder::new(1);
    let cert = b
        .enroll("client", &MspId::new("org1"))
        .certificate()
        .clone();
    let record = hyperprov::ProvenanceRecord::from_input(
        "item-key",
        RecordInput::new(Digest::of(b"payload"))
            .with_location("sshfs://store0/abcdef", 4096)
            .with_parents(vec!["p1".into(), "p2".into(), "p3".into()])
            .with_meta("sensor", "cam-3")
            .with_meta("format", "jpeg"),
        cert,
    );
    let bytes = record.to_bytes();
    let mut group = c.benchmark_group("codec");
    group.bench_function("record_encode", |bencher| {
        bencher.iter(|| record.to_bytes());
    });
    group.bench_function("record_decode", |bencher| {
        bencher.iter(|| hyperprov::ProvenanceRecord::from_bytes(&bytes).unwrap());
    });
    group.finish();
}

fn bench_merkle(c: &mut Criterion) {
    let mut group = c.benchmark_group("merkle_root");
    for n in [10usize, 100, 1000] {
        let leaves: Vec<Digest> = (0..n)
            .map(|i| Digest::of(&(i as u64).to_le_bytes()))
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &leaves, |b, leaves| {
            b.iter(|| MerkleTree::root_of(leaves));
        });
    }
    group.finish();
}

fn bench_statedb(c: &mut Criterion) {
    let mut db = StateDb::new();
    for i in 0..10_000u32 {
        db.apply_write(
            &KvWrite {
                key: StateKey::new("cc", format!("key-{i:06}")),
                value: Some(vec![0u8; 128].into()),
            },
            Version::new(1, i),
        );
    }
    let mut group = c.benchmark_group("statedb");
    group.bench_function("point_get", |b| {
        b.iter(|| db.get(&StateKey::new("cc", "key-004999")));
    });
    group.bench_function("range_100", |b| {
        b.iter(|| db.range("cc", "key-005000", "key-005100").count());
    });
    group.bench_function("apply_write", |b| {
        let mut db = db.clone();
        let mut i = 0u32;
        b.iter(|| {
            i += 1;
            db.apply_write(
                &KvWrite {
                    key: StateKey::new("cc", format!("w-{i}")),
                    value: Some(vec![0u8; 128].into()),
                },
                Version::new(2, i),
            );
        });
    });
    group.finish();
}

/// Cutting a snapshot of 10k keys, written one per transaction, is a
/// freeze; `seal_10k` is a cut plus the first read of its manifest (the
/// seal is memoised, so every iteration needs a cut of its own);
/// `verify_10k` is the integrity check of a sealed snapshot.
fn bench_snapshot(c: &mut Criterion) {
    let mut state = StateDb::new();
    let mut seen = Vec::new();
    for i in 0..10_000u32 {
        let write = KvWrite {
            key: StateKey::new("cc", format!("key-{i:06}")),
            value: Some(vec![0u8; 128].into()),
        };
        let tx = TxId(Digest::of(&i.to_le_bytes()));
        state.apply_tx(tx, Version::new(u64::from(i), 0), &write);
        seen.push(tx);
    }
    let cut = || {
        Snapshot::capture(
            &ChannelId::default(),
            10_000,
            Digest::of(b"tip"),
            &state,
            seen.clone(),
            None,
            DEFAULT_CHUNK_ENTRIES,
        )
    };
    let mut group = c.benchmark_group("snapshot");
    group.bench_function("cut_10k", |b| b.iter(cut));
    group.bench_function("seal_10k", |b| b.iter(|| cut().manifest().merkle_root));
    let sealed = cut();
    group.bench_function("verify_10k", |b| b.iter(|| sealed.verify()));
    group.finish();
}

fn bench_event_queue(c: &mut Criterion) {
    use hyperprov_sim::{Actor, Context, DetRng, Event, SimDuration, Simulation};
    use rand::Rng;

    /// Keeps ~10k timers in flight, from under a millisecond to seconds
    /// out, until its budget runs out.
    struct TimerStorm {
        rng: DetRng,
        budget: u32,
    }
    impl Actor<()> for TimerStorm {
        fn on_event(&mut self, ctx: &mut Context<'_, ()>, _event: Event<()>) {
            if self.budget == 0 {
                return;
            }
            self.budget -= 1;
            let delay = match self.budget % 3 {
                0 => self.rng.gen_range(1..1_000_000u64),
                1 => self.rng.gen_range(1_000_000..200_000_000u64),
                _ => self.rng.gen_range(200_000_000..10_000_000_000u64),
            };
            ctx.set_timer(SimDuration::from_nanos(delay), 0);
        }
    }

    c.bench_function("event_queue_mixed_horizon_40k", |b| {
        b.iter(|| {
            let mut sim: Simulation<()> = Simulation::new(7);
            let storm = sim.add_actor(Box::new(TimerStorm {
                rng: DetRng::new(9),
                budget: 30_000,
            }));
            let mut seed_rng = DetRng::new(11);
            for _ in 0..10_000 {
                let delay = seed_rng.gen_range(1..10_000_000_000u64);
                sim.start_timer(storm, SimDuration::from_nanos(delay), 0);
            }
            sim.run();
            sim.events_processed()
        });
    });
}

fn bench_endorse(c: &mut Criterion) {
    let mut builder = MspBuilder::new(1);
    let peer = builder.enroll("peer0", &MspId::new("org1"));
    let client = builder.enroll("client0", &MspId::new("org1"));
    let msp = builder.build();
    let chaincode = HyperProvChaincode::new();
    let state = StateDb::new();
    let input = RecordInput::new(Digest::of(b"data")).with_location("sshfs://s/x", 4096);
    let proposal = Proposal {
        channel: "ch".into(),
        chaincode: CHAINCODE_NAME.into(),
        function: "post".into(),
        args: vec![b"item".to_vec(), input.to_bytes()],
        creator: client.certificate().clone(),
        nonce: 1,
    };
    let signed = SignedProposal {
        signature: client.sign(&proposal.to_bytes()),
        proposal,
    };
    c.bench_function("endorse_hyperprov_post", |b| {
        b.iter(|| endorse(&peer, &chaincode, &msp, &state, None, &signed));
    });
}

/// The commit path's decoders beside the owned ones they replaced, on the
/// benchmark's `ledger_growth` transaction: a metadata-only post of a
/// fresh key endorsed by one peer, an envelope of 691 bytes (685 there, its
/// names being shorter). Reading it in place is what every replica does to every envelope of every block;
/// the owned decode is the oracle the tests keep.
fn bench_commit_decode(c: &mut Criterion) {
    let mut builder = MspBuilder::new(1);
    let peer = builder.enroll("peer0", &MspId::new("org1"));
    let client = builder.enroll("client0", &MspId::new("org1"));
    let msp = builder.build();
    let chaincode = HyperProvChaincode::new();
    let key = "scale1-c00003-k1234";
    let input = RecordInput::new(Digest::of(key.as_bytes()));
    let proposal = Proposal {
        channel: "hyperprov-channel".into(),
        chaincode: CHAINCODE_NAME.into(),
        function: "post".into(),
        args: vec![key.as_bytes().to_vec(), input.to_bytes()],
        creator: client.certificate().clone(),
        nonce: 1_234,
    };
    let signed = SignedProposal {
        signature: client.sign(&proposal.to_bytes()),
        proposal: proposal.clone(),
    };
    let state = StateDb::new();
    let (response, _) = endorse(&peer, &chaincode, &msp, &state, None, &signed);
    let record = response.result.clone().expect("endorsed");
    let raw = Envelope {
        proposal,
        payload: record.clone(),
        rwset: response.rwset,
        event: response.event,
        endorsements: vec![Endorsement {
            endorser: response.endorser,
            signature: response.signature,
        }],
    }
    .to_raw();
    let mut group = c.benchmark_group("commit_decode");
    group.bench_function("envelope_view", |b| {
        b.iter(|| EnvelopeView::parse(&raw.bytes).unwrap());
    });
    group.bench_function("envelope_from_raw", |b| {
        b.iter(|| Envelope::from_raw(&raw).unwrap());
    });
    group.bench_function("record_parents", |b| {
        b.iter(|| hyperprov::ProvenanceRecord::parents_of(&record).unwrap());
    });
    group.bench_function("record_from_bytes", |b| {
        b.iter(|| hyperprov::ProvenanceRecord::from_bytes(&record).unwrap());
    });
    group.finish();
}

fn bench_chaincode_lineage(c: &mut Criterion) {
    // Pre-build a 32-deep lineage chain in a state DB and its graph index,
    // then measure the chaincode's traversal plus its 32 record reads.
    let mut builder = MspBuilder::new(1);
    let client = builder.enroll("client0", &MspId::new("org1"));
    let cert = client.certificate().clone();
    let cc = HyperProvChaincode::new();
    let mut state = StateDb::new();
    let mut graph = ProvGraph::new();
    for i in 0..32u32 {
        let parents = if i == 0 {
            vec![]
        } else {
            vec![format!("n{}", i - 1)]
        };
        let input = RecordInput::new(Digest::of(&i.to_le_bytes())).with_parents(parents);
        let args = vec![format!("n{i}").into_bytes(), input.to_bytes()];
        let mut stub = ChaincodeStub::new(CHAINCODE_NAME, "post", &args, &cert, &state);
        cc.invoke(&mut stub).unwrap();
        let (rwset, _, _) = stub.into_results();
        let tx = TxId(Digest::of(&args[0]));
        for write in &rwset.writes {
            state.apply_tx(tx, Version::new(u64::from(i) + 1, 0), write);
            if let Some(update) = HyperProvIndexer.index(&write.key, write.value.as_deref()) {
                graph.apply(&update);
            }
        }
    }
    let args = [
        "64".to_owned(),
        MAX_GRAPH_NODES.to_string(),
        "0:n31".to_owned(),
    ];
    let args: Vec<Vec<u8>> = args.map(String::into_bytes).into();
    c.bench_function("chaincode_lineage_depth32", |b| {
        b.iter(|| {
            let stub = ChaincodeStub::new(CHAINCODE_NAME, "get_lineage", &args, &cert, &state);
            cc.invoke(&mut stub.with_graph(&graph)).unwrap()
        });
    });
}

fn quick_config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = quick_config();
    targets = bench_sha256,
    bench_codec,
    bench_merkle,
    bench_statedb,
    bench_snapshot,
    bench_event_queue,
    bench_endorse,
    bench_commit_decode,
    bench_chaincode_lineage
}
criterion_main!(benches);

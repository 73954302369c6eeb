//! Thesis-style tables: orderer batch-size sweep and per-operator query
//! latencies.

use hyperprov::{ClientCommand, HyperProvNetwork, NetworkConfig, OpId};
use hyperprov_fabric::BatchConfig;
use hyperprov_ledger::Digest;
use hyperprov_sim::{DetRng, SimDuration, SimTime};

use crate::row;
use crate::runner::{run_closed_loop, run_open_loop, Artefact, Summary, Until};
use crate::table::{Fmt, Table};
use crate::workload::{payload, post_cmd, store_cmd};

/// Builds the `i`-th command of a query-operator case.
type CommandFactory = Box<dyn Fn(u64) -> ClientCommand>;

/// T-TPUT: peak throughput and latency vs the orderer's
/// `MaxMessageCount`, metadata-only posts.
pub fn batch_sweep(quick: bool) -> Vec<Artefact> {
    let (batch_sizes, clients, duration): (Vec<usize>, usize, SimDuration) = if quick {
        (vec![1, 10], 8, SimDuration::from_secs(10))
    } else {
        (vec![1, 5, 10, 50, 100], 16, SimDuration::from_secs(30))
    };
    let mut table = Table::new(
        "T-TPUT: throughput vs orderer batch size (metadata-only posts, desktop)",
        &[
            ("max_message_count", "max msg count", Fmt::Plain),
            ("throughput_tx_s", "throughput (tx/s)", Fmt::Fixed(1, "")),
            ("resp_p50_ms", "resp p50 (ms)", Fmt::Fixed(1, "")),
            ("resp_p95_ms", "resp p95 (ms)", Fmt::Fixed(1, "")),
            ("blocks_cut", "blocks cut", Fmt::Plain),
            ("unfinished", "unfinished", Fmt::Plain),
        ],
    );
    for &batch in &batch_sizes {
        let config = NetworkConfig::desktop(clients)
            .with_seed(7)
            .with_batch(BatchConfig {
                max_message_count: batch,
                timeout: SimDuration::from_millis(500),
                ..BatchConfig::default()
            });
        let mut net = HyperProvNetwork::build(&config);
        let mut rng = DetRng::new(7).fork("batch");
        let result = run_closed_loop(
            &mut net,
            Until::Elapsed(duration),
            SimDuration::from_secs(10),
            move |client, seq| {
                let body = payload(&mut rng, 64);
                post_cmd(format!("b{client}-{seq}"), &body)
            },
        );
        let summary = Summary::of(&result);
        table.push_row(row![
            batch,
            summary.throughput,
            summary.latency_ms(0.5),
            summary.latency_ms(0.95),
            net.sim.metrics().counter("orderer.blocks_cut"),
            summary.unfinished,
        ]);
    }
    vec![Artefact::table(table, "table_batch_sweep")]
}

/// T-QUERY: latency of each client operator against a pre-loaded ledger.
pub fn query_latency(quick: bool) -> Vec<Artefact> {
    let (preload, lineage_depth, queries_per_op) = if quick { (40, 6, 10) } else { (400, 16, 50) };

    // Build and preload one network: a lineage chain of `lineage_depth`
    // plus `preload` independent items, with a few versions on one key.
    let config = NetworkConfig::desktop(1)
        .with_seed(5)
        .with_batch(BatchConfig {
            max_message_count: 1,
            ..BatchConfig::default()
        });
    let mut net = HyperProvNetwork::build(&config);
    let mut rng = DetRng::new(5).fork("query");

    // Preload via closed loop: first the chain, then the flat items, then
    // 4 extra versions of "versioned".
    let chain_keys: Vec<String> = (0..lineage_depth).map(|i| format!("chain-{i}")).collect();
    let mut ops: Vec<ClientCommand> = Vec::new();
    for (i, key) in chain_keys.iter().enumerate() {
        let parents = if i == 0 {
            vec![]
        } else {
            vec![chain_keys[i - 1].clone()]
        };
        ops.push(ClientCommand::StoreData {
            key: key.clone(),
            data: payload(&mut rng, 256),
            parents,
            metadata: vec![],
            op: OpId(0),
        });
    }
    for i in 0..preload {
        ops.push(store_cmd(format!("flat-{i}"), payload(&mut rng, 256)));
    }
    let shared_payload = payload(&mut rng, 256);
    for _ in 0..5 {
        ops.push(store_cmd("versioned".into(), shared_payload.clone()));
    }
    let total = ops.len() as u64;
    let mut ops_iter = ops.into_iter();
    let loaded = run_closed_loop(
        &mut net,
        Until::Ops(total),
        SimDuration::from_secs(30),
        move |_c, _s| ops_iter.next().expect("preload exhausted"),
    );
    assert_eq!(Summary::of(&loaded).ok, total, "preload had failures");

    let mut table = Table::new(
        "T-QUERY: query latency by operator (desktop, pre-loaded ledger)",
        &[
            ("operator", "operator", Fmt::Plain),
            ("mean_ms", "mean (ms)", Fmt::Fixed(2, "")),
            ("p95_ms", "p95 (ms)", Fmt::Fixed(2, "")),
            ("samples", "samples", Fmt::Plain),
        ],
    );

    let last_chain = chain_keys.last().expect("non-empty chain").clone();
    let shared_checksum = Digest::of(&shared_payload);
    let cases: Vec<(&str, CommandFactory)> = vec![
        (
            "get",
            Box::new(move |i| ClientCommand::Get {
                key: format!("flat-{}", i % preload as u64),
                op: OpId(0),
            }),
        ),
        (
            "get_data (256B)",
            Box::new(move |i| ClientCommand::GetData {
                key: format!("flat-{}", i % preload as u64),
                op: OpId(0),
            }),
        ),
        (
            "get_history (6 versions)",
            Box::new(move |_| ClientCommand::GetHistory {
                key: "versioned".into(),
                op: OpId(0),
            }),
        ),
        (
            "get_keys_by_checksum",
            Box::new(move |_| ClientCommand::GetKeysByChecksum {
                checksum: shared_checksum,
                op: OpId(0),
            }),
        ),
        (
            "get_lineage (full chain)",
            Box::new(move |_| ClientCommand::GetLineage {
                key: last_chain.clone(),
                depth: 64,
                op: OpId(0),
            }),
        ),
    ];

    for (name, factory) in cases {
        // Queries do not commit, so space them out open-loop.
        let start = net.sim.now();
        let arrivals: Vec<(SimTime, usize)> = (0..queries_per_op)
            .map(|i| (start + SimDuration::from_millis(200) * (i + 1), 0usize))
            .collect();
        let result = run_open_loop(&mut net, &arrivals, SimDuration::from_secs(5), |_, i| {
            factory(i)
        });
        let summary = Summary::of(&result);
        assert_eq!(
            summary.err, 0,
            "{name}: unexpected query failures ({} ok)",
            summary.ok
        );
        table.push_row(row![
            name,
            summary.mean_latency_ms(),
            summary.latency_ms(0.95),
            summary.ok,
        ]);
    }
    vec![Artefact::table(table, "table_query_latency")]
}

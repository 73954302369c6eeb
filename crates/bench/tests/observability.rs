//! Acceptance tests for the observability layer: tracer determinism
//! across identical seeded runs, byte-identical metrics exports, and the
//! stage breakdown accounting (within tolerance) for end-to-end latency.

use std::collections::BTreeMap;

use hyperprov::{HyperProvNetwork, NetworkConfig};
use hyperprov_bench::report::{merge_stages, MetricsExporter};
use hyperprov_bench::runner::{run_closed_loop, Until};
use hyperprov_bench::workload::{payload, store_cmd};
use hyperprov_sim::{DetRng, Histogram, SimDuration};

const SEED: u64 = 100;
const SIZE: usize = 1 << 16; // 64 KiB, a mid-range FIG1 point

/// Runs one FIG1-style store workload and returns the driven network.
fn fig1_run(seed: u64, clients: usize, secs: u64) -> HyperProvNetwork {
    let config = NetworkConfig::desktop(clients).with_seed(seed);
    let mut net = HyperProvNetwork::build(&config);
    let mut rng = DetRng::new(seed).fork("payload");
    run_closed_loop(
        &mut net,
        Until::Elapsed(SimDuration::from_secs(secs)),
        SimDuration::from_secs(10),
        move |client, seq| {
            let data = payload(&mut rng, SIZE);
            store_cmd(format!("item-c{client}-s{seq}"), data)
        },
    );
    net
}

#[test]
fn identical_seeds_give_identical_span_streams_and_exports() {
    let a = fig1_run(SEED, 8, 5);
    let b = fig1_run(SEED, 8, 5);

    // Span nesting and ordering are deterministic: same sequence numbers,
    // parents, keys and virtual timestamps in both runs.
    let dump = |net: &HyperProvNetwork| {
        net.sim
            .tracer()
            .finished_spans()
            .map(|s| {
                (
                    s.seq,
                    s.parent,
                    s.trace.clone(),
                    s.stage,
                    s.detail.clone(),
                    s.start,
                    s.end,
                )
            })
            .collect::<Vec<_>>()
    };
    let spans_a = dump(&a);
    assert!(!spans_a.is_empty(), "the run must record spans");
    assert_eq!(spans_a, dump(&b));

    // And the machine-readable export is byte-identical.
    let export = |net: &HyperProvNetwork| {
        let mut exporter = MetricsExporter::new("determinism");
        exporter.add_run("size=65536 seed=100", &net.sim);
        exporter.to_json()
    };
    assert_eq!(export(&a), export(&b));
}

#[test]
fn instrumentation_opens_and_closes_spans_consistently() {
    let net = fig1_run(SEED, 8, 5);
    let tracer = net.sim.tracer();
    assert_eq!(tracer.unmatched_ends(), 0, "every span_end must match");
    assert_eq!(tracer.duplicate_starts(), 0, "span keys must be unique");
    for stage in ["op", "offchain.put", "endorse", "commit_wait", "validate"] {
        assert!(
            tracer.stage_histogram(stage).is_some(),
            "stage {stage} missing from a store workload"
        );
    }
    // Zero span leaks: a fully drained run leaves no open spans, so the
    // per-stage unclosed report must be empty and stay out of the export.
    assert!(
        tracer.unclosed_by_stage().is_empty(),
        "leaked spans: {:?}",
        tracer.unclosed_by_stage()
    );
    assert!(
        !tracer.snapshot_json().contains("\"unclosed\""),
        "a leak-free run must not emit the unclosed report"
    );
}

#[test]
fn stage_breakdown_accounts_for_end_to_end_latency() {
    let net = fig1_run(SEED, 16, 10);
    let mut stages: BTreeMap<String, Histogram> = BTreeMap::new();
    merge_stages(&mut stages, &net.sim);

    let mean_ns = |stage: &str| stages[stage].mean();
    let e2e = mean_ns("op");
    // A store op is offchain transfer, then endorsement, then ordering +
    // validation + commit (all inside `commit_wait`); the only time the
    // three stages miss is the client<->gateway network hops.
    let sum = mean_ns("offchain.put") + mean_ns("endorse") + mean_ns("commit_wait");
    assert!(e2e > 0.0);
    let rel = (e2e - sum).abs() / e2e;
    assert!(
        rel < 0.25,
        "stage sum {sum} ns should be within 25% of end-to-end {e2e} ns (rel {rel:.3})"
    );
}

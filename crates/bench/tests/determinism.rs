//! Pinning tests: quick-mode metrics exports must stay byte-identical to
//! the committed fixtures, so seeded runs replay byte-for-byte across
//! releases and any change to the modelled system shows up as a fixture
//! diff that has to be regenerated on purpose.

use hyperprov_bench::experiments::{fault_scenario_json, pipeline_sweep, size_sweep, Platform};
use hyperprov_bench::runner::Artefact;

/// The metrics export among a campaign's artefacts, as JSON.
fn metrics_json(artefacts: &[Artefact]) -> String {
    artefacts
        .iter()
        .find_map(|a| match a {
            Artefact::Metrics(exporter) => Some(exporter.to_json()),
            _ => None,
        })
        .expect("the campaign returns a metrics export")
}

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

#[test]
fn fig1_quick_metrics_match_committed_fixture() {
    let json = metrics_json(&size_sweep(Platform::Desktop, true));
    assert!(
        !json.contains("\"unclosed\""),
        "fig1 quick runs must not leak spans"
    );
    assert_eq!(
        json,
        fixture("fig1_quick.metrics.json"),
        "fig1 quick export drifted from the committed fixture; if the \
         change is intentional, regenerate tests/fixtures/fig1_quick.metrics.json"
    );
}

#[test]
fn fig2_quick_metrics_match_committed_fixture() {
    let json = metrics_json(&size_sweep(Platform::Rpi, true));
    assert!(
        !json.contains("\"unclosed\""),
        "fig2 quick runs must not leak spans"
    );
    assert_eq!(
        json,
        fixture("fig2_quick.metrics.json"),
        "fig2 quick export drifted from the committed fixture; if the \
         change is intentional, regenerate tests/fixtures/fig2_quick.metrics.json"
    );
}

#[test]
fn pipeline_quick_metrics_match_committed_fixture() {
    // Covers both ends of the commit-path setting: the serial cell
    // (1 VSCC lane) and the 4-lane cell, each watched by the sweep's SLOs.
    let json = metrics_json(&pipeline_sweep(true));
    assert_eq!(
        json,
        fixture("pipeline_quick.metrics.json"),
        "T-PIPELINE quick export drifted from the committed fixture; if the \
         change is intentional, regenerate tests/fixtures/pipeline_quick.metrics.json"
    );
}

#[test]
fn fault_campaign_seed7_matches_committed_fixture() {
    let json = fault_scenario_json(7);
    assert_eq!(
        json,
        fixture("faults_seed7.metrics.json"),
        "fault campaign export drifted from the committed fixture; if the \
         change is intentional, regenerate tests/fixtures/faults_seed7.metrics.json"
    );
}

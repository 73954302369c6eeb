//! The paper's experiments, one module per figure/table.
//!
//! Every experiment returns a [`crate::Table`] whose rows regenerate the
//! corresponding artefact of the paper (see DESIGN.md §5 for the index).
//! Pass `quick = true` to run shortened sweeps (used by the test suite);
//! the binaries default to the full parameters.

mod baselines;
mod contention;
mod faults;
mod fig12;
mod fig3;
mod lineage;
mod overload;
mod pipeline;
mod profile;
mod queries;
mod recovery;
mod scale;
mod sharding;

pub use baselines::baseline_comparison;
pub use contention::contention_sweep;
pub use faults::{
    fault_campaign, fault_scenario_json, FaultScenario, FaultsReport, FAULT_SCENARIOS,
};
pub use fig12::{mean, size_sweep, std_dev, Platform};
pub use fig3::energy_profile;
pub use lineage::{lineage_sweep, LineageReport};
pub use overload::{overload_sweep, OverloadReport};
pub use pipeline::{pipeline_sweep, PipelineReport};
pub use profile::{sim_bench, sim_bench_with_scale, SimBenchReport};
pub use queries::{batch_sweep, query_latency};
pub use recovery::{recovery_sweep, RecoveryReport};
pub use scale::{scale_campaign, ScaleReport};
pub use sharding::{sharding_sweep, ShardingReport};

use std::path::Path;

use crate::runner::Artefact;
use crate::table::Table;

/// Where CSV outputs land (`<repo>/results`).
pub fn results_dir() -> std::path::PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; results live at the repo root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results")
}

/// Saves a table's CSV under [`results_dir`] and renders the table plus a
/// save-status line. Library code never prints; the binaries write the
/// returned string to stdout.
#[must_use = "the rendered report must be printed by the calling binary"]
pub fn render_and_save(table: &Table, csv_name: &str) -> String {
    let status = match table.save_csv(&results_dir(), csv_name) {
        Ok(path) => format!("[saved {}]", path.display()),
        Err(err) => format!("[warning: could not save CSV: {err}]"),
    };
    format!("{table}{status}\n")
}

/// Saves a [`crate::report::MetricsExporter`]'s JSON under [`results_dir`]
/// and renders a save-status line for the calling binary to print.
#[must_use = "the rendered status must be printed by the calling binary"]
pub fn render_and_save_metrics(exporter: &crate::report::MetricsExporter) -> String {
    match exporter.save() {
        Ok(path) => format!("[saved {}]\n", path.display()),
        Err(err) => format!("[warning: could not save metrics JSON: {err}]\n"),
    }
}

/// Saves a pre-serialized document verbatim as `results/<file_name>` and
/// renders a save-status line for the calling binary to print.
#[must_use = "the rendered status must be printed by the calling binary"]
pub fn render_and_save_raw(body: &str, file_name: &str) -> String {
    let dir = results_dir();
    let saved = std::fs::create_dir_all(&dir).and_then(|()| {
        let path = dir.join(file_name);
        std::fs::write(&path, body)?;
        Ok(path)
    });
    match saved {
        Ok(path) => format!("[saved {}]\n", path.display()),
        Err(err) => format!("[warning: could not save {file_name}: {err}]\n"),
    }
}

/// Fig. 1 artefacts: the desktop size sweep, its stage breakdown and its
/// metrics export.
pub fn fig1_artefacts(quick: bool) -> Vec<Artefact> {
    let report = size_sweep(Platform::Desktop, quick);
    vec![
        Artefact::table(report.table, "fig1_desktop"),
        Artefact::table(report.breakdown, "fig1_desktop_stages"),
        Artefact::metrics(report.exporter),
    ]
}

/// Fig. 2 artefacts: the RPi size sweep, its stage breakdown and its
/// metrics export.
pub fn fig2_artefacts(quick: bool) -> Vec<Artefact> {
    let report = size_sweep(Platform::Rpi, quick);
    vec![
        Artefact::table(report.table, "fig2_rpi"),
        Artefact::table(report.breakdown, "fig2_rpi_stages"),
        Artefact::metrics(report.exporter),
    ]
}

/// Fig. 3 artefacts: the energy profile table.
pub fn fig3_artefacts(quick: bool) -> Vec<Artefact> {
    vec![Artefact::table(energy_profile(quick), "fig3_energy")]
}

/// T-TPUT artefacts: the batch-size sweep table.
pub fn batch_sweep_artefacts(quick: bool) -> Vec<Artefact> {
    vec![Artefact::table(batch_sweep(quick), "table_batch_sweep")]
}

/// T-QUERY artefacts: the per-operator latency table.
pub fn query_latency_artefacts(quick: bool) -> Vec<Artefact> {
    vec![Artefact::table(query_latency(quick), "table_query_latency")]
}

/// T-BASE artefacts: the baseline-comparison table.
pub fn baselines_artefacts(quick: bool) -> Vec<Artefact> {
    vec![Artefact::table(
        baseline_comparison(quick),
        "table_baselines",
    )]
}

/// T-MVCC artefacts: the contention-sweep table.
pub fn contention_artefacts(quick: bool) -> Vec<Artefact> {
    vec![Artefact::table(contention_sweep(quick), "table_contention")]
}

/// T-OVERLOAD artefacts: the overload table, its stage breakdown and its
/// metrics export.
pub fn overload_artefacts(quick: bool) -> Vec<Artefact> {
    let report = overload_sweep(quick);
    vec![
        Artefact::table(report.table, "table_overload"),
        Artefact::table(report.breakdown, "table_overload_stages"),
        Artefact::metrics(report.exporter),
    ]
}

/// T-FAULTS artefacts: the fault campaign table, its recovery timeline,
/// the per-run SLO verdicts, the desktop peer-crash Perfetto trace and
/// the metrics export (which carries the SLO burn-rate series).
pub fn faults_artefacts(quick: bool) -> Vec<Artefact> {
    let report = fault_campaign(quick);
    vec![
        Artefact::table(report.table, "table_faults"),
        Artefact::table(report.timeline, "table_faults_timeline"),
        Artefact::table(report.verdicts, "table_faults_slo"),
        Artefact::raw(report.trace_json, "table_faults_peer_crash.trace.json"),
        Artefact::metrics(report.exporter),
    ]
}

/// T-PIPELINE artefacts: the commit-acceleration sweep table and its
/// metrics export. Full runs additionally write the machine-readable
/// `BENCH_commit.json` at the repo root so future PRs have a perf
/// trajectory to compare against.
pub fn pipeline_artefacts(quick: bool) -> Vec<Artefact> {
    let report = pipeline_sweep(quick);
    if !quick {
        let path = results_dir().join("..").join("BENCH_commit.json");
        if let Err(err) = std::fs::write(&path, &report.bench_json) {
            eprintln!("[warning: could not save {}: {err}]", path.display());
        }
    }
    vec![
        Artefact::table(report.table, "table_commit_pipeline"),
        Artefact::metrics(report.exporter),
    ]
}

/// T-SHARDING artefacts: the shard-count sweep table and its metrics
/// export.
pub fn sharding_artefacts(quick: bool) -> Vec<Artefact> {
    let report = sharding_sweep(quick);
    vec![
        Artefact::table(report.table, "table_sharding"),
        Artefact::metrics(report.exporter),
    ]
}

/// T-LINEAGE artefacts: the lineage-query sweep table and its metrics
/// export. Full runs additionally write the machine-readable
/// `BENCH_lineage.json` at the repo root — the committed trajectory of
/// DAG-index query cost vs the hop-by-hop oracle walk.
pub fn lineage_artefacts(quick: bool) -> Vec<Artefact> {
    let report = lineage_sweep(quick);
    if !quick {
        let path = results_dir().join("..").join("BENCH_lineage.json");
        if let Err(err) = std::fs::write(&path, &report.bench_json) {
            eprintln!("[warning: could not save {}: {err}]", path.display());
        }
    }
    vec![
        Artefact::table(report.table, "table_lineage"),
        Artefact::metrics(report.exporter),
    ]
}

/// T-RECOVERY artefacts: the deep-chain restart sweep, the elastic
/// membership row and the metrics export. Full runs additionally write
/// the machine-readable `BENCH_recovery.json` at the repo root — the
/// committed flat-vs-linear recovery-cost trajectory the regression gate
/// validates.
pub fn recovery_artefacts(quick: bool) -> Vec<Artefact> {
    let report = recovery_sweep(quick);
    if !quick {
        let path = results_dir().join("..").join("BENCH_recovery.json");
        if let Err(err) = std::fs::write(&path, &report.bench_json) {
            eprintln!("[warning: could not save {}: {err}]", path.display());
        }
    }
    vec![
        Artefact::table(report.table, "table_recovery"),
        Artefact::table(report.elastic, "table_recovery_elastic"),
        Artefact::metrics(report.exporter),
    ]
}

/// BENCH-SIM artefacts: the host-side simulator profile table and its
/// machine-readable JSON body (the committed `BENCH_sim.json` baseline is
/// written by `bench_regress --update`, not here — host numbers must not
/// silently drift under `campaign all`).
pub fn sim_bench_artefacts(quick: bool) -> Vec<Artefact> {
    let report = sim_bench(quick);
    vec![
        Artefact::table(report.table, "bench_sim"),
        Artefact::raw(report.bench_json, "bench_sim.json"),
    ]
}

/// T-SCALE artefacts: the 10k-client / 1M-key scale table and its
/// machine-readable section body (the committed copy lives inside
/// `BENCH_sim.json`, written by `bench_regress --update`).
pub fn scale_artefacts(quick: bool) -> Vec<Artefact> {
    let report = scale_campaign(quick);
    vec![
        Artefact::table(report.table, "table_scale"),
        Artefact::raw(
            hyperprov_sim::json::pretty(&report.section_json),
            "bench_scale.json",
        ),
    ]
}

/// A campaign: `quick` in, artefacts out.
pub type Campaign = fn(bool) -> Vec<Artefact>;

/// Every campaign by name, in `campaign all` order.
pub const ALL_CAMPAIGNS: &[(&str, Campaign)] = &[
    ("fig1_desktop", fig1_artefacts),
    ("fig2_rpi", fig2_artefacts),
    ("fig3_energy", fig3_artefacts),
    ("table_batch_sweep", batch_sweep_artefacts),
    ("table_query_latency", query_latency_artefacts),
    ("table_baselines", baselines_artefacts),
    ("table_contention", contention_artefacts),
    ("table_overload", overload_artefacts),
    ("table_faults", faults_artefacts),
    ("table_sharding", sharding_artefacts),
    ("table_commit_pipeline", pipeline_artefacts),
    ("table_lineage", lineage_artefacts),
    ("table_recovery", recovery_artefacts),
    ("table_scale", scale_artefacts),
    ("bench_sim", sim_bench_artefacts),
];

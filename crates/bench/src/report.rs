//! Observability reporting: per-stage latency breakdowns and the
//! machine-readable metrics export.
//!
//! Every experiment run leaves a [`hyperprov_sim::Tracer`] full of stage
//! spans and a [`hyperprov_sim::Metrics`] registry behind. This module
//! turns them into two artefacts:
//!
//! * a *stage breakdown* [`Table`] (count, mean, p50/p95/p99 per pipeline
//!   stage) answering "where did the time go", and
//! * a [`MetricsExporter`] that serializes counters/gauges/histograms/
//!   series and span summaries to pretty-printed JSON under `results/`.
//!
//! All output is deterministic: stages appear in pipeline order, metric
//! names are sorted, floats use shortest round-trip formatting and no
//! wall-clock data is recorded — two same-seed runs produce byte-identical
//! files.

use std::collections::BTreeMap;

use hyperprov_sim::{json, Histogram, Simulation};

use crate::row;
use crate::table::{Fmt, Table};

/// Pipeline stages in pipeline order, used to sort breakdown rows.
/// Stages a run never recorded are skipped; stages not listed here sort
/// after these, alphabetically.
const STAGE_ORDER: &[&str] = &[
    "op",
    "offchain.put",
    "offchain.get",
    "offchain.server",
    "queue.wait",
    "endorse",
    "endorse.exec",
    "order.queue",
    "order.deliver",
    "validate",
    "commit.vscc",
    "commit.apply",
    "commit_wait",
    "query",
];

/// Merges a simulation's per-stage span histograms into `into` (keyed by
/// stage name), so breakdowns can aggregate over many runs.
pub fn merge_stages<M>(into: &mut BTreeMap<String, Histogram>, sim: &Simulation<M>) {
    for (stage, hist) in sim.tracer().stage_histograms() {
        into.entry(stage.to_owned()).or_default().merge(hist);
    }
}

/// Renders aggregated stage histograms as a latency breakdown table
/// (milliseconds), rows in pipeline order.
pub fn breakdown_table(title: impl Into<String>, stages: &BTreeMap<String, Histogram>) -> Table {
    let mut table = Table::new(
        title,
        &[
            ("stage", "stage", Fmt::Plain),
            ("spans", "spans", Fmt::Plain),
            ("mean_ms", "mean (ms)", Fmt::Fixed(3, "")),
            ("p50_ms", "p50 (ms)", Fmt::Fixed(3, "")),
            ("p95_ms", "p95 (ms)", Fmt::Fixed(3, "")),
            ("p99_ms", "p99 (ms)", Fmt::Fixed(3, "")),
        ],
    );
    let rank = |stage: &str| {
        STAGE_ORDER
            .iter()
            .position(|s| *s == stage)
            .unwrap_or(STAGE_ORDER.len())
    };
    let mut names: Vec<&String> = stages.keys().collect();
    names.sort_by_key(|n| (rank(n), n.as_str()));
    for name in names {
        let h = &stages[name];
        table.push_row(row![
            name.as_str(),
            h.count(),
            h.mean() / 1e6,
            h.quantile(0.50) as f64 / 1e6,
            h.quantile(0.95) as f64 / 1e6,
            h.quantile(0.99) as f64 / 1e6,
        ]);
    }
    table
}

/// Collects per-run metric and trace snapshots of one experiment; saved
/// as `results/<experiment>.metrics.json`.
#[derive(Debug, Clone)]
pub struct MetricsExporter {
    experiment: String,
    runs: Vec<String>,
}

impl MetricsExporter {
    /// Creates an exporter for the named experiment (also the file stem).
    pub fn new(experiment: impl Into<String>) -> Self {
        MetricsExporter {
            experiment: experiment.into(),
            runs: Vec::new(),
        }
    }

    /// The experiment name.
    pub fn experiment(&self) -> &str {
        &self.experiment
    }

    /// Snapshots a finished run's metrics registry, tracer and — when the
    /// deployment installed objectives — SLO monitor under a caller-chosen
    /// label (keep labels deterministic, e.g. `"size=1024 seed=100"` —
    /// they end up in the export verbatim). Runs without SLOs serialize
    /// exactly as before, keeping pre-SLO fixtures byte-identical.
    pub fn add_run<M>(&mut self, label: &str, sim: &Simulation<M>) {
        let mut obj = json::Obj::new()
            .str("label", label)
            .raw("metrics", &sim.metrics().snapshot_json())
            .raw("trace", &sim.tracer().snapshot_json());
        if sim.slo().is_active() {
            obj = obj.raw("slo", &sim.slo().snapshot_json(sim.now()));
        }
        self.runs.push(obj.build());
    }

    /// Number of snapshotted runs.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// True if no runs have been recorded.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Renders the full export as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        json::pretty(
            &json::Obj::new()
                .str("experiment", &self.experiment)
                .raw("runs", &json::array(self.runs.iter().cloned()))
                .build(),
        )
    }
}

/// An empty SLO verdict table; fill it with [`push_slo_verdicts`], one
/// call per run.
pub fn slo_verdict_table(title: impl Into<String>) -> Table {
    Table::new(
        title,
        &[
            ("run", "run", Fmt::Plain),
            ("slo", "slo", Fmt::Plain),
            ("objective", "objective", Fmt::Plain),
            ("evaluations", "evaluations", Fmt::Plain),
            ("breaches", "breaches", Fmt::Plain),
            ("breach_s", "breach (s)", Fmt::Fixed(1, "")),
            ("worst_burn", "worst burn", Fmt::Fixed(2, "")),
            ("pass", "verdict", Fmt::Flag("FAIL", "pass")),
        ],
    )
}

/// Appends one verdict row per objective installed on `sim` (no-op for
/// runs without SLOs), labelled with the caller's run name.
pub fn push_slo_verdicts<M>(table: &mut Table, run: &str, sim: &Simulation<M>) {
    for v in sim.slo().verdicts(sim.now()) {
        table.push_row(row![
            run,
            v.name,
            v.objective,
            v.evaluations,
            v.breaches,
            v.breach_time.as_secs_f64(),
            v.worst_burn,
            v.pass,
        ]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim_with_spans() -> Simulation<()> {
        let mut sim: Simulation<()> = Simulation::new(7);
        sim.metrics_mut().incr("tx", 3);
        let tracer = sim.tracer_mut();
        tracer.span_start(hyperprov_sim::SimTime::ZERO, "tx1", "endorse", "");
        tracer.span_end(
            hyperprov_sim::SimTime::from_nanos(2_000_000),
            "tx1",
            "endorse",
            "",
        );
        sim
    }

    #[test]
    fn breakdown_lists_stages_in_pipeline_order() {
        let mut stages = BTreeMap::new();
        let mut h = Histogram::new();
        h.record(1_000_000);
        stages.insert("commit_wait".to_owned(), h.clone());
        stages.insert("endorse".to_owned(), h.clone());
        stages.insert("zz.custom".to_owned(), h);
        let table = breakdown_table("t", &stages);
        assert_eq!(table.text(0, "stage").as_deref(), Some("endorse"));
        assert_eq!(table.text(1, "stage").as_deref(), Some("commit_wait"));
        assert_eq!(table.text(2, "stage").as_deref(), Some("zz.custom"));
        assert_eq!(table.num(0, "mean_ms"), Some(1.0));
    }

    #[test]
    fn exporter_is_deterministic() {
        let build = || {
            let sim = sim_with_spans();
            let mut exporter = MetricsExporter::new("unit");
            exporter.add_run("seed=7", &sim);
            exporter.to_json()
        };
        let a = build();
        assert_eq!(a, build());
        assert!(a.contains("\"experiment\": \"unit\""));
        assert!(a.contains("\"tx\": 3"));
        assert!(a.contains("\"endorse\""));
        assert!(!build().is_empty());
    }

    #[test]
    fn slo_section_appears_only_when_objectives_installed() {
        use hyperprov_sim::{SimDuration, SloObjective, SloSpec};

        let plain = sim_with_spans();
        let mut exporter = MetricsExporter::new("unit");
        exporter.add_run("plain", &plain);
        assert!(!exporter.to_json().contains("\"slo\""));

        let mut sim = sim_with_spans();
        sim.set_slos(vec![SloSpec::new(
            "endorse-p95",
            SloObjective::LatencyQuantile {
                source: "endorse".into(),
                q: 0.95,
                budget: SimDuration::from_millis(1),
            },
            SimDuration::from_secs(1),
        )]);
        let mut with_slo = MetricsExporter::new("unit");
        with_slo.add_run("slo", &sim);
        let json = with_slo.to_json();
        assert!(json.contains("\"slo\""));
        assert!(json.contains("\"endorse-p95\""));

        let mut table = slo_verdict_table("t");
        push_slo_verdicts(&mut table, "run-a", &sim);
        assert_eq!(table.len(), 1);
        assert_eq!(table.text(0, "run").as_deref(), Some("run-a"));
        assert_eq!(table.text(0, "slo").as_deref(), Some("endorse-p95"));
        push_slo_verdicts(&mut table, "no-slos", &plain);
        assert_eq!(table.len(), 1, "runs without SLOs add no rows");
    }

    #[test]
    fn stage_breakdown_reads_the_tracer() {
        let sim = sim_with_spans();
        let mut stages = BTreeMap::new();
        merge_stages(&mut stages, &sim);
        let table = breakdown_table("t", &stages);
        assert_eq!(table.len(), 1);
        assert_eq!(table.text(0, "stage").as_deref(), Some("endorse"));
        assert_eq!(table.num(0, "mean_ms"), Some(2.0));
    }
}

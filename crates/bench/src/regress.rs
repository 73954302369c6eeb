//! The CI perf-regression gate: compare a fresh quick BENCH-SIM run
//! against the committed `BENCH_sim.json` baseline.
//!
//! [`run_regress`] reruns the [`crate::experiments::sim_bench`] reference
//! workload in quick mode and diffs its **model** metrics (virtual-time
//! completions, goodput, latency quantiles, kernel event/message counts)
//! against the repo-root baseline. They are deterministic for the fixed
//! seed, so they must match within [`MODEL_REL_TOL`] — a drift means the
//! simulated system's behaviour changed and the baseline must be
//! regenerated deliberately (`bench_regress --update`).
//!
//! Host numbers (wall seconds, events per wall-second, peak RSS) are
//! recorded in `BENCH_sim.json` as information and gated nowhere here:
//! what the simulator costs the host is the job of the repo's benchmark
//! (`benchmark/`, `BENCHMARK.json`), and what must hold to the byte is
//! held by the exact-count budget tests
//! (`crates/fabric/tests/{memory,snapshot}_budget.rs`).
//!
//! The gate also structurally validates the committed `BENCH_commit.json`
//! trajectory file (parseable, right campaign, non-empty cells) so a
//! broken regeneration cannot land unnoticed. `ci.sh` runs the
//! `bench_regress` binary in quick mode and fails the build on any
//! out-of-tolerance row.

use std::path::PathBuf;

use hyperprov_sim::json::{parse, Value};

use crate::experiments::{results_dir, scale_campaign, sim_bench_with_scale};
use crate::table::Table;

/// Relative tolerance for deterministic model metrics.
pub const MODEL_REL_TOL: f64 = 0.01;

/// The gate's outcome: the pass/fail table plus the overall verdict.
#[derive(Debug)]
pub struct RegressOutcome {
    /// One row per compared metric (metric, baseline, fresh, constraint,
    /// status).
    pub table: Table,
    /// True when every comparison passed.
    pub pass: bool,
    /// True when the baseline was (re)written instead of compared.
    pub updated: bool,
}

/// The committed baseline's path (`<repo>/BENCH_sim.json`).
pub fn baseline_path() -> PathBuf {
    results_dir().join("..").join("BENCH_sim.json")
}

/// The committed commit-path trajectory's path
/// (`<repo>/BENCH_commit.json`).
pub fn commit_bench_path() -> PathBuf {
    results_dir().join("..").join("BENCH_commit.json")
}

/// The committed lineage-query trajectory's path
/// (`<repo>/BENCH_lineage.json`).
pub fn lineage_bench_path() -> PathBuf {
    results_dir().join("..").join("BENCH_lineage.json")
}

/// The committed crash-recovery trajectory's path
/// (`<repo>/BENCH_recovery.json`).
pub fn recovery_bench_path() -> PathBuf {
    results_dir().join("..").join("BENCH_recovery.json")
}

/// Maximum allowed spread (max/min) of snapshot-mode recovery cost across
/// the committed chain-length sweep: the "O(1) in chain length" claim.
pub const RECOVERY_FLAT_RATIO: f64 = 2.0;

/// Validates the committed `BENCH_recovery.json` shape: snapshot-mode
/// recovery cost must be flat (within [`RECOVERY_FLAT_RATIO`]) across the
/// chain-length sweep, genesis replay must grow with the chain, and the
/// elastic joiner must have converged. Returns rows via `push_check`.
fn check_recovery_shape(table: &mut Table, doc: &Value) -> bool {
    let mut pass = true;
    let empty: [Value; 0] = [];
    let cells = doc.get("cells").and_then(Value::as_array).unwrap_or(&empty);
    let costs = |on: u64| -> Vec<(f64, f64)> {
        cells
            .iter()
            .filter(|c| c.get("mode").and_then(Value::as_str) == Some("restart"))
            .filter(|c| c.get("snapshots").and_then(Value::as_u64) == Some(on))
            .filter_map(|c| {
                Some((
                    c.get("chain_blocks")?.as_f64()?,
                    c.get("recovery_cost_ms")?.as_f64()?,
                ))
            })
            .collect()
    };

    let on = costs(1);
    let (on_min, on_max) = on
        .iter()
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), &(_, c)| {
            (lo.min(c), hi.max(c))
        });
    let flat_ok = on.len() >= 2 && on_max <= RECOVERY_FLAT_RATIO * on_min;
    pass = push_check(
        table,
        "BENCH_recovery.json snapshot-mode flatness",
        Some(on_min),
        Some(on_max),
        &format!("max <= {RECOVERY_FLAT_RATIO}x min across chain lengths"),
        Some(flat_ok),
    ) && pass;

    let off = costs(0);
    let shortest = off
        .iter()
        .cloned()
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .unwrap_or((0.0, 0.0));
    let longest = off
        .iter()
        .cloned()
        .max_by(|a, b| a.0.total_cmp(&b.0))
        .unwrap_or((0.0, 0.0));
    let linear_ok = off.len() >= 2 && longest.0 > shortest.0 && longest.1 > 2.0 * shortest.1;
    pass = push_check(
        table,
        "BENCH_recovery.json genesis-replay growth",
        Some(shortest.1),
        Some(longest.1),
        "longest chain's replay cost > 2x shortest's",
        Some(linear_ok),
    ) && pass;

    let elastic_ok = cells
        .iter()
        .filter(|c| c.get("mode").and_then(Value::as_str) == Some("elastic"))
        .all(|c| c.get("converged").and_then(Value::as_u64) == Some(1));
    let has_elastic = cells
        .iter()
        .any(|c| c.get("mode").and_then(Value::as_str) == Some("elastic"));
    pass = push_check(
        table,
        "BENCH_recovery.json elastic join",
        None,
        None,
        "elastic cell present and converged",
        Some(has_elastic && elastic_ok),
    ) && pass;
    pass
}

fn fmt_val(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

/// One comparison row; returns whether it passed.
fn push_check(
    table: &mut Table,
    metric: &str,
    baseline: Option<f64>,
    fresh: Option<f64>,
    constraint: &str,
    ok: Option<bool>,
) -> bool {
    let status = match ok {
        Some(true) => "ok",
        Some(false) => "FAIL",
        None => "skipped",
    };
    table.push_row(vec![
        metric.to_owned(),
        baseline.map_or("-".to_owned(), fmt_val),
        fresh.map_or("-".to_owned(), fmt_val),
        constraint.to_owned(),
        status.to_owned(),
    ]);
    ok != Some(false)
}

/// The profile a label prefix names: the document itself for the
/// reference workload (`""`), its `scale` member for `"scale."`.
fn profile<'a>(doc: &'a Value, prefix: &str) -> Option<&'a Value> {
    match prefix {
        "" => Some(doc),
        _ => doc.get(prefix.trim_end_matches('.')),
    }
}

fn num(doc: &Value, prefix: &str, section: &str, key: &str) -> Option<f64> {
    profile(doc, prefix)?.get(section)?.get(key)?.as_f64()
}

/// Compares one profile of the fresh run against the baseline's: every
/// model key the baseline recorded within [`MODEL_REL_TOL`] in both
/// directions.
fn check_profile(table: &mut Table, base: &Value, fresh: &Value, prefix: &str) -> bool {
    let mut pass = true;
    let model_keys: Vec<String> = profile(base, prefix)
        .and_then(|p| p.get("model"))
        .and_then(Value::entries)
        .map(|fields| fields.iter().map(|(k, _)| k.clone()).collect())
        .unwrap_or_default();
    if model_keys.is_empty() {
        pass = push_check(
            table,
            &format!("{prefix}model"),
            None,
            None,
            "baseline has no such section; run bench_regress --update",
            Some(false),
        );
    }
    for key in &model_keys {
        let b = num(base, prefix, "model", key);
        let f = num(fresh, prefix, "model", key);
        let ok = match (b, f) {
            (Some(b), Some(f)) => (f - b).abs() <= MODEL_REL_TOL * b.abs().max(1e-9),
            _ => false,
        };
        pass = push_check(
            table,
            &format!("{prefix}model.{key}"),
            b,
            f,
            &format!("within {:.0}%", MODEL_REL_TOL * 100.0),
            Some(ok),
        ) && pass;
    }
    pass
}

/// Runs the gate. With `update = true` the fresh quick profile is written
/// to [`baseline_path`] instead of being compared (the row table then
/// documents what was recorded).
pub fn run_regress(update: bool) -> RegressOutcome {
    let mut table = Table::new(
        "bench regress: fresh quick run vs committed BENCH_sim.json",
        &["metric", "baseline", "fresh", "constraint", "status"],
    );
    // The committed profile is the BENCH-SIM reference workload plus the
    // quick T-SCALE run as its `scale` section — one file, one trajectory.
    let scale = scale_campaign(true);
    let fresh_body = sim_bench_with_scale(true, &scale.section_json).bench_json;
    let fresh = parse(&fresh_body).expect("fresh BENCH-SIM profile must be valid JSON");

    if update {
        let path = baseline_path();
        let mut pass = true;
        match std::fs::write(&path, &fresh_body) {
            Ok(()) => {
                if let Some(model) = fresh.get("model").and_then(Value::entries) {
                    for (key, value) in model {
                        push_check(
                            &mut table,
                            &format!("model.{key}"),
                            value.as_f64(),
                            value.as_f64(),
                            "recorded",
                            None,
                        );
                    }
                }
            }
            Err(err) => {
                pass = push_check(
                    &mut table,
                    "baseline write",
                    None,
                    None,
                    &format!("write {}: {err}", path.display()),
                    Some(false),
                ) && pass;
            }
        }
        return RegressOutcome {
            table,
            pass,
            updated: true,
        };
    }

    let mut pass = true;
    let baseline = match std::fs::read_to_string(baseline_path()) {
        Ok(body) => match parse(&body) {
            Ok(doc) => Some(doc),
            Err(err) => {
                pass = push_check(
                    &mut table,
                    "BENCH_sim.json",
                    None,
                    None,
                    &format!("parse: {err}"),
                    Some(false),
                ) && pass;
                None
            }
        },
        Err(err) => {
            pass = push_check(
                &mut table,
                "BENCH_sim.json",
                None,
                None,
                &format!("missing baseline ({err}); run bench_regress --update"),
                Some(false),
            ) && pass;
            None
        }
    };

    if let Some(base) = &baseline {
        // The BENCH-SIM reference workload, then the embedded quick
        // T-SCALE run: the same discipline for both.
        for prefix in ["", "scale."] {
            pass = check_profile(&mut table, base, &fresh, prefix) && pass;
        }

        // A shape check on the committed trajectory itself — it gates
        // what `bench_regress --update` is allowed to record.
        let issued = num(base, "scale.", "model", "issued");
        let ok_n = num(base, "scale.", "model", "ok");
        let err_n = num(base, "scale.", "model", "err");
        let complete = match (issued, ok_n, err_n) {
            (Some(i), Some(o), Some(e)) => Some(i > 0.0 && o == i && e == 0.0),
            _ => Some(false),
        };
        pass = push_check(
            &mut table,
            "committed scale completion",
            issued,
            ok_n,
            "every issued scale op completed ok",
            complete,
        ) && pass;
    }

    // Structural checks of the committed campaign trajectory baselines:
    // a broken regeneration must not land unnoticed.
    let trajectories: [(PathBuf, &str, &str); 3] = [
        (commit_bench_path(), "BENCH_commit.json", "T-PIPELINE"),
        (lineage_bench_path(), "BENCH_lineage.json", "T-LINEAGE"),
        (recovery_bench_path(), "BENCH_recovery.json", "T-RECOVERY"),
    ];
    for (path, name, campaign) in trajectories {
        match std::fs::read_to_string(path) {
            Ok(body) => {
                let doc = parse(&body).ok();
                let ok = doc.as_ref().is_some_and(|doc| {
                    doc.get("campaign").and_then(Value::as_str) == Some(campaign)
                        && doc
                            .get("cells")
                            .and_then(Value::as_array)
                            .is_some_and(|cells| !cells.is_empty())
                });
                pass = push_check(
                    &mut table,
                    name,
                    None,
                    None,
                    &format!("parses, campaign {campaign}, non-empty cells"),
                    Some(ok),
                ) && pass;
                // The recovery trajectory additionally asserts its shape:
                // flat snapshot recovery, linear genesis replay, elastic
                // convergence.
                if campaign == "T-RECOVERY" && ok {
                    if let Some(doc) = &doc {
                        pass = check_recovery_shape(&mut table, doc) && pass;
                    }
                }
            }
            Err(_) => {
                pass = push_check(&mut table, name, None, None, "not present", None) && pass;
            }
        }
    }

    RegressOutcome {
        table,
        pass,
        updated: false,
    }
}

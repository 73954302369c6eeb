//! The CI regression gate: one table of claims over the committed
//! `BENCH_*.json` trajectories.
//!
//! Every committed trajectory is a document of cells (one JSON object per
//! table row, see [`crate::table::trajectory_json`]). A [`Gate`] names a
//! file, selects cells of it, names a metric key and states the
//! [`Relation`] the selected values must satisfy; [`GATES`] is the whole
//! gate, and [`evaluate`] is a pure function from (gates, committed
//! documents, fresh document) to result rows — so a gate that can fail is
//! a unit test.
//!
//! Two kinds of claim live in the table. *Model* claims compare the
//! committed `BENCH_sim.json` (the quick BENCH-SIM reference profile and
//! the quick T-SCALE profile) with a fresh run of both: the `model.*`
//! metrics are deterministic for the fixed seeds, so a drift beyond
//! [`MODEL_REL_TOL`] means the simulated system's behaviour changed and
//! the baseline must be regenerated deliberately (`bench_regress
//! --update`). *Shape* claims hold the committed full-run trajectories to
//! what the paper and EXPERIMENTS.md say about them. Every campaign has
//! at least one row: a reading no row holds is not a result.
//!
//! Host numbers (wall seconds, events per wall-second, peak RSS) are
//! recorded in `BENCH_sim.json` as information and gated nowhere here:
//! what the simulator costs the host is the job of the repo's benchmark
//! (`benchmark/`, `BENCHMARK.json`), and what must hold to the byte is
//! held by the exact-count budget tests
//! (`crates/fabric/tests/{memory,snapshot}_budget.rs`).

use std::collections::BTreeSet;
use std::path::PathBuf;

use hyperprov_sim::json::{parse, Value};

use crate::experiments::{scale_campaign, sim_bench};
use crate::row;
use crate::runner::{table_of, trajectory_path};
use crate::table::{trajectory_json, Fmt, Table};

use Is::{AtLeast, AtMost, Num, Text};
use Relation::{Between, Equals, Spread, Steps, Within};

/// Relative tolerance for deterministic model metrics.
pub const MODEL_REL_TOL: f64 = 0.01;

/// A condition on one key of a cell (a cell without the key fails it).
#[derive(Debug, Clone, Copy)]
pub enum Is {
    /// The key holds this string.
    Text(&'static str),
    /// The key holds this number.
    Num(f64),
    /// The key holds a number no larger than this.
    AtMost(f64),
    /// The key holds a number no smaller than this.
    AtLeast(f64),
}

impl std::fmt::Display for Is {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Text(text) => write!(f, "={text}"),
            Num(n) => write!(f, "={n}"),
            AtMost(n) => write!(f, "<={n}"),
            AtLeast(n) => write!(f, ">={n}"),
        }
    }
}

/// A cell selector: a cell is selected when every condition holds.
pub type Select = &'static [(&'static str, Is)];

/// What the selected cells' values under a gate's key must satisfy. Every
/// relation also fails on a missing or unparseable file, an empty
/// selection and a selected cell without a number under the key.
#[derive(Debug, Clone, Copy)]
pub enum Relation {
    /// Each value is within this relative tolerance of the same cell's in
    /// the fresh document. The one relation whose key may end in `*`: one
    /// result row per key of the committed cell with that prefix.
    Within(f64),
    /// Each value equals this.
    Equals(f64),
    /// Each value lies in `[lo, hi]`.
    Between(f64, f64),
    /// At least two values, and `max <= k * min`: flat across the
    /// selection.
    Spread(f64),
    /// At least two values, and each over its predecessor (in cell order)
    /// lies in `[lo, hi]`: growth (`lo > 1`), decline (`hi <= 1`), a knee
    /// or a ratio between two cells.
    Steps(f64, f64),
}

/// One row of the gate: trajectory file at the repo root, cell selector,
/// metric key read from each selected cell, and the relation (tolerance
/// included) the values must satisfy.
#[derive(Debug, Clone, Copy)]
pub struct Gate(pub &'static str, pub Select, pub &'static str, pub Relation);

const SIM: &str = "BENCH_sim.json";
const COMMIT: &str = "BENCH_commit.json";
const LINEAGE: &str = "BENCH_lineage.json";
const RECOVERY: &str = "BENCH_recovery.json";
const PAPER: &str = "BENCH_paper.json";
const BASE: &str = "BENCH_baselines.json";
const MVCC: &str = "BENCH_contention.json";
const OVERLOAD: &str = "BENCH_overload.json";
const FAULTS: &str = "BENCH_faults.json";
const SHARDING: &str = "BENCH_sharding.json";

const REFERENCE: Select = &[("profile", Text("reference"))];
const SCALE: Select = &[("profile", Text("scale"))];
const SNAPSHOTS_ON: Select = &[("mode", Text("restart")), ("snapshots", Num(1.0))];
const SNAPSHOTS_OFF: Select = &[("mode", Text("restart")), ("snapshots", Num(0.0))];
const ELASTIC: Select = &[("mode", Text("elastic"))];
const DESKTOP: (&str, Is) = ("platform", Text("desktop"));
const RPI: (&str, Is) = ("platform", Text("rpi"));
const KIB: f64 = 1024.0;
const TO_64K: (&str, Is) = ("size_bytes", AtMost(64.0 * KIB));
const FROM_64K: (&str, Is) = ("size_bytes", AtLeast(64.0 * KIB));
const TO_256K: (&str, Is) = ("size_bytes", AtMost(256.0 * KIB));
const FROM_256K: (&str, Is) = ("size_bytes", AtLeast(256.0 * KIB));
const AT_1_KIB: Select = &[("size_bytes", Num(KIB))];
const AT_1_MIB: Select = &[("size_bytes", Num(KIB * KIB))];
const AT_16_MIB: Select = &[("size_bytes", Num(16.0 * KIB * KIB))];
const HYPERPROV: Select = &[("system", Text("HyperProv"))];
const COLD: Select = &[("hot_fraction", Num(0.0))];
const HOT: Select = &[("hot_fraction", AtLeast(0.1))];
const DESKTOP_BELOW_KNEE: Select = &[DESKTOP, ("offered_tx_s", AtMost(400.0))];
const RPI_BELOW_KNEE: Select = &[RPI, ("offered_tx_s", AtMost(75.0))];
const DESKTOP_PAST_KNEE: Select = &[DESKTOP, ("offered_tx_s", AtLeast(800.0))];
const RPI_PAST_KNEE: Select = &[RPI, ("offered_tx_s", AtLeast(100.0))];
const UP_TO_4: (&str, Is) = ("channels", AtMost(4.0));
const FROM_4: (&str, Is) = ("channels", AtLeast(4.0));
const TWO_LANES: Select = &[("lanes", Num(2.0))];
const FROM_2_LANES: (&str, Is) = ("lanes", AtLeast(2.0));
const ONE_SHARD: Select = &[("shards", Num(1.0))];
const FOUR_SHARDS: Select = &[("shards", Num(4.0))];
const HLF_IDLE: Select = &[("load_level", Text("HLF idle"))];
const SATURATED: Select = &[("load_level", Text("peak (saturated)"))];
const TPUT: &str = "throughput_tx_s";
const GOODPUT: &str = "goodput_tx_s";
const LINEAGE_OVER_GRAPH: &str = "lineage_over_graph_p50";
const COST: &str = "recovery_cost_ms";
const INF: f64 = f64::INFINITY;

/// The gate. Cells keep the order their campaign wrote them in: sizes and
/// chain lengths ascend, Fig 1 (desktop) precedes Fig 2 (RPi).
pub const GATES: &[Gate] = &[
    // The model did not move: both profiles of BENCH_sim.json against a
    // fresh quick run; and the committed scale run lost or failed no
    // operation.
    Gate(SIM, REFERENCE, "model.*", Within(MODEL_REL_TOL)),
    Gate(SIM, SCALE, "model.*", Within(MODEL_REL_TOL)),
    Gate(SIM, SCALE, "model.hung", Equals(0.0)),
    Gate(SIM, SCALE, "model.err", Equals(0.0)),
    // T-RECOVERY: snapshot recovery is flat in chain length (within 2x),
    // genesis replay grows with the chain (each tenfold chain costs more
    // than double), the elastic joiner converged.
    Gate(RECOVERY, SNAPSHOTS_ON, COST, Spread(2.0)),
    Gate(RECOVERY, SNAPSHOTS_OFF, COST, Steps(2.0, INF)),
    Gate(RECOVERY, ELASTIC, "converged", Equals(1.0)),
    // Figs 1 and 2: throughput is flat (1 %) up to 64 KiB, drops below
    // 0.7x at the 256 KiB knee and declines from there on.
    Gate(PAPER, &[DESKTOP, TO_64K], TPUT, Spread(1.01)),
    Gate(PAPER, &[DESKTOP, FROM_64K, TO_256K], TPUT, Steps(0.0, 0.7)),
    Gate(PAPER, &[DESKTOP, FROM_256K], TPUT, Steps(0.0, 1.0)),
    Gate(PAPER, &[RPI, TO_64K], TPUT, Spread(1.01)),
    Gate(PAPER, &[RPI, FROM_64K, TO_256K], TPUT, Steps(0.0, 0.7)),
    Gate(PAPER, &[RPI, FROM_256K], TPUT, Steps(0.0, 1.0)),
    // "Absolute performance for RPi is lower than desktop machines" —
    // desktop : RPi throughput at 1 KiB in [6, 8.5] — "though greater
    // variation": response-time std / mean at 16 MiB larger on the RPi.
    Gate(PAPER, AT_1_KIB, TPUT, Steps(1.0 / 8.5, 1.0 / 6.0)),
    Gate(PAPER, AT_16_MIB, "resp_std_over_mean", Steps(1.0, INF)),
    // Fig 3: "barely consumes any power (2.71 W)", "maximum up to 3.64 W".
    Gate(PAPER, HLF_IDLE, "avg_power_w", Between(2.70, 2.72)),
    Gate(PAPER, SATURATED, "peak_power_w", Between(0.0, 3.64)),
    // Figs 1-3 account for every operation they issued.
    Gate(PAPER, &[], "unfinished", Equals(0.0)),
    // T-BASE: off-chain payloads leave HyperProv's chain bytes per tx
    // flat in the item size; carried on-chain, they cost little at 1 KiB
    // (throughput within 1 %) and at least half the throughput at 1 MiB.
    Gate(BASE, HYPERPROV, "chain_bytes_per_tx", Spread(1.0)),
    Gate(BASE, AT_1_KIB, TPUT, Steps(0.99, 1.01)),
    Gate(BASE, AT_1_MIB, TPUT, Steps(0.0, 0.5)),
    Gate(BASE, &[], "unfinished", Equals(0.0)),
    // T-MVCC: unique keys never conflict; from a 0.1 hot fraction on,
    // every step up raises the conflict rate.
    Gate(MVCC, COLD, "mvcc_conflicts", Equals(0.0)),
    Gate(MVCC, HOT, "conflict_rate_pct", Steps(1.01, INF)),
    // T-OVERLOAD: below the knee admission rejects nothing; well past it
    // goodput is a plateau (within 5 %) and the excess is nacked.
    Gate(OVERLOAD, DESKTOP_BELOW_KNEE, "rejected", Equals(0.0)),
    Gate(OVERLOAD, RPI_BELOW_KNEE, "rejected", Equals(0.0)),
    Gate(OVERLOAD, DESKTOP_PAST_KNEE, GOODPUT, Spread(1.05)),
    Gate(OVERLOAD, RPI_PAST_KNEE, GOODPUT, Spread(1.05)),
    // T-FAULTS: every scenario ends every operation `Ok`, with no retry
    // budget exhausted, and is back at 90 % of its pre-fault goodput
    // within 3 s of the fault clearing.
    Gate(FAULTS, &[], "err", Equals(0.0)),
    Gate(FAULTS, &[], "exhausted", Equals(0.0)),
    Gate(FAULTS, &[], "unfinished", Equals(0.0)),
    Gate(FAULTS, &[], "recover_s", Between(0.0, 3.0)),
    // T-SHARDING: goodput rises with every channel count up to 4 on both
    // testbeds, moves by less than 5 % from 4 to 8, and every operation
    // ends `Ok`.
    Gate(SHARDING, &[DESKTOP, UP_TO_4], GOODPUT, Steps(1.01, INF)),
    Gate(SHARDING, &[RPI, UP_TO_4], GOODPUT, Steps(1.01, INF)),
    Gate(SHARDING, &[DESKTOP, FROM_4], GOODPUT, Steps(0.95, 1.05)),
    Gate(SHARDING, &[RPI, FROM_4], GOODPUT, Steps(0.95, 1.05)),
    Gate(SHARDING, &[], "errors", Equals(0.0)),
    Gate(SHARDING, &[], "unfinished", Equals(0.0)),
    // T-PIPELINE: a second VSCC lane lifts goodput by at least 25 % on
    // both testbeds; a third and fourth add nothing (the serial MVCC +
    // apply phase is the limit).
    Gate(COMMIT, TWO_LANES, "speedup_vs_serial", Between(1.25, INF)),
    Gate(COMMIT, &[DESKTOP, FROM_2_LANES], GOODPUT, Steps(1.0, 1.0)),
    Gate(COMMIT, &[RPI, FROM_2_LANES], GOODPUT, Steps(1.0, 1.0)),
    Gate(COMMIT, &[], "errors", Equals(0.0)),
    // T-LINEAGE: on one shard a lineage costs at most 3 % over the
    // keys-only ancestry and every parent is local; across 4 shards it
    // is no dearer than the ancestry.
    Gate(LINEAGE, ONE_SHARD, LINEAGE_OVER_GRAPH, Between(0.99, 1.03)),
    Gate(LINEAGE, FOUR_SHARDS, LINEAGE_OVER_GRAPH, Between(0.0, 1.0)),
    Gate(LINEAGE, ONE_SHARD, "dangling", Equals(0.0)),
];

/// True when `select` picks `cell`.
fn picks(cell: &Value, select: Select) -> bool {
    select.iter().all(|&(key, is)| {
        let value = cell.get(key);
        let num = value.and_then(Value::as_f64);
        match is {
            Text(text) => value.and_then(Value::as_str) == Some(text),
            Num(n) => num == Some(n),
            AtMost(n) => num.is_some_and(|v| v <= n),
            AtLeast(n) => num.is_some_and(|v| v >= n),
        }
    })
}

fn selected(doc: &Value, select: Select) -> Vec<&Value> {
    doc.get("cells")
        .and_then(Value::as_array)
        .unwrap_or_default()
        .iter()
        .filter(|cell| picks(cell, select))
        .collect()
}

fn fmt_val(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

/// Evaluates `gates` over the committed documents (`(file, parsed
/// document or why it could not be read)`) and the fresh BENCH-SIM
/// document, into result rows: `metric` (file, selector, key),
/// `committed` (the values read), `fresh` ([`Within`] only), `constraint`
/// (the relation, or why it could not be evaluated) and `ok`. A gate
/// whose file is missing, unreadable or unparseable, or whose selection
/// is empty, yields a failing row.
pub fn evaluate(
    gates: &[Gate],
    committed: &[(&str, Result<Value, String>)],
    fresh: &Value,
) -> Table {
    let mut rows = Table::new(
        "bench regress: the committed BENCH_*.json trajectories against a fresh quick run \
         and their own claims",
        &[
            ("metric", "metric", Fmt::Plain),
            ("committed", "committed", Fmt::Plain),
            ("fresh", "fresh", Fmt::Plain),
            ("constraint", "constraint", Fmt::Plain),
            ("ok", "status", Fmt::Flag("FAIL", "ok")),
        ],
    );
    let missing = Err("no such committed file".to_owned());
    for &Gate(file, select, key, relation) in gates {
        let selector: String = select.iter().map(|(k, is)| format!("{k}{is} ")).collect();
        let mut push = |key: &str, committed: &[f64], fresh: Option<f64>, constraint: &str, ok| {
            let committed: Vec<String> = committed.iter().map(|&v| fmt_val(v)).collect();
            rows.push_row(row![
                format!("{file} {selector}{key}"),
                committed.join(" / "),
                fresh.map_or(String::new(), fmt_val),
                constraint,
                ok,
            ]);
        };
        let listed = committed.iter().find(|(name, _)| *name == file);
        let doc = match listed.map_or(&missing, |(_, doc)| doc) {
            Ok(doc) => doc,
            Err(why) => {
                let constraint = format!("cannot read the file: {why}");
                push(key, &[], None, &constraint, false);
                continue;
            }
        };
        let cells = selected(doc, select);
        let values: Option<Vec<f64>> = cells.iter().map(|c| c.get(key)?.as_f64()).collect();
        let (constraint, ok) = match (relation, values.as_deref()) {
            _ if cells.is_empty() => ("selects no cell".to_owned(), false),
            (Within(tol), _) => {
                // Cell by cell, key by key, against the fresh document.
                let constraint = format!("within {:.0}% of a fresh run", tol * 100.0);
                let fresh_cells = selected(fresh, select);
                let prefix = key.strip_suffix('*');
                let mut found = false;
                for (i, cell) in cells.iter().enumerate() {
                    for (name, value) in cell.entries().unwrap_or_default() {
                        if prefix.map_or(name != key, |p| !name.starts_with(p)) {
                            continue;
                        }
                        let base = value.as_f64();
                        let now = fresh_cells.get(i).and_then(|c| c.get(name)?.as_f64());
                        let ok = matches!((base, now), (Some(b), Some(f))
                            if (f - b).abs() <= tol * b.abs().max(1e-9));
                        push(name, base.as_slice(), now, &constraint, ok);
                        found = true;
                    }
                }
                if found {
                    continue;
                }
                ("no such key in the selected cells".to_owned(), false)
            }
            (_, None) => (
                "a selected cell has no number under the key".to_owned(),
                false,
            ),
            (Equals(v), Some(xs)) => (format!("= {v}"), xs.iter().all(|&x| x == v)),
            (Between(lo, hi), Some(xs)) => (
                format!("in [{lo}, {hi}]"),
                xs.iter().all(|&x| lo <= x && x <= hi),
            ),
            (Spread(k), Some(xs)) => {
                let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
                let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                (format!("max <= {k} x min"), xs.len() >= 2 && max <= k * min)
            }
            (Steps(lo, hi), Some(xs)) => (
                format!("each value / its predecessor in [{lo:.3}, {hi:.3}]"),
                xs.len() >= 2 && xs.windows(2).all(|w| (lo..=hi).contains(&(w[1] / w[0]))),
            ),
        };
        push(key, &values.unwrap_or_default(), None, &constraint, ok);
    }
    rows
}

/// True when every row of an [`evaluate`] result holds.
pub fn all_ok(rows: &Table) -> bool {
    (0..rows.len()).all(|row| rows.num(row, "ok") == Some(1.0))
}

/// The committed baseline's path (`<repo>/BENCH_sim.json`).
pub fn baseline_path() -> PathBuf {
    trajectory_path(SIM)
}

/// Every file [`GATES`] reads, once each, as committed: parsed, or why it
/// could not be read.
fn committed() -> Vec<(&'static str, Result<Value, String>)> {
    let files: BTreeSet<&str> = GATES.iter().map(|gate| gate.0).collect();
    files
        .into_iter()
        .map(|file| {
            let doc = std::fs::read_to_string(trajectory_path(file))
                .map_err(|err| err.to_string())
                .and_then(|body| parse(&body));
            (file, doc)
        })
        .collect()
}

/// Runs the gate: a fresh quick BENCH-SIM reference profile and quick
/// T-SCALE profile — the two cells of `BENCH_sim.json`, one file, one
/// trajectory — then [`evaluate`] over [`GATES`] and the committed files.
/// With `update = true` the fresh document is first written to
/// [`baseline_path`], so the rows document what was recorded and the
/// claims gate what `--update` may record. The gate passes when the
/// returned rows are [`all_ok`].
pub fn run_regress(update: bool) -> Table {
    let (reference, scale) = (sim_bench(true), scale_campaign(true));
    let mut cells = table_of(&reference, "bench_sim").cells_json();
    cells.extend(table_of(&scale, "table_scale").cells_json());
    let fresh_body = trajectory_json(
        "BENCH-SIM",
        "quick reference and scale profiles: model metrics gated, host metrics informational",
        cells,
    );
    let fresh = parse(&fresh_body).expect("fresh BENCH-SIM profile must be valid JSON");
    let written = match update {
        true => std::fs::write(baseline_path(), &fresh_body),
        false => Ok(()),
    };

    let mut table = evaluate(GATES, &committed(), &fresh);
    if let Err(err) = written {
        table.push_row(row!["baseline write", "", "", err.to_string(), false]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(campaign: &str, cells: &[&str]) -> Value {
        let cells = cells.iter().map(|c| (*c).to_owned()).collect();
        parse(&trajectory_json(campaign, "m", cells)).unwrap()
    }

    fn sim(goodput: f64) -> Value {
        doc(
            "BENCH-SIM",
            &[
                &format!(
                    "{{\"profile\":\"reference\",\"model.ok\":432,\
                     \"model.goodput_tx_s\":{goodput},\"host.wall_s\":0.02}}"
                ),
                "{\"profile\":\"scale\",\"model.issued\":1000,\"model.hung\":0,\"model.err\":0}",
            ],
        )
    }

    fn gates_of(file: &str) -> Vec<Gate> {
        GATES.iter().filter(|g| g.0 == file).copied().collect()
    }

    /// The rows that do not hold.
    fn failed(rows: &Table) -> Vec<usize> {
        (0..rows.len())
            .filter(|&row| rows.num(row, "ok") != Some(1.0))
            .collect()
    }

    #[test]
    fn a_model_drift_of_three_percent_fails_and_half_a_percent_passes() {
        let gates = gates_of(SIM);
        let rows = evaluate(&gates, &[(SIM, Ok(sim(72.0 * 1.03)))], &sim(72.0));
        let bad = failed(&rows);
        assert_eq!(bad.len(), 1, "{rows}");
        let metric = rows.text(bad[0], "metric").unwrap();
        assert!(metric.contains("reference") && metric.ends_with("model.goodput_tx_s"));
        assert_eq!(rows.text(bad[0], "committed").as_deref(), Some("74.160"));
        assert_eq!(rows.text(bad[0], "fresh").as_deref(), Some("72"));
        assert!(!all_ok(&rows));

        let rows = evaluate(&gates, &[(SIM, Ok(sim(72.0 * 1.005)))], &sim(72.0));
        assert!(all_ok(&rows), "{rows}");
        // Host keys are not model keys: never compared.
        assert!(!rows.to_csv().contains("host."));
    }

    #[test]
    fn a_missing_broken_or_empty_file_fails_every_row_that_reads_it() {
        for why in ["No such file or directory (os error 2)", "expected value"] {
            let rows = evaluate(&gates_of(SIM), &[(SIM, Err(why.to_owned()))], &sim(72.0));
            assert_eq!(rows.len(), 4);
            assert_eq!(failed(&rows).len(), 4);
            assert!(rows.text(0, "constraint").unwrap().contains(why));
        }
        let gates = gates_of(COMMIT);
        for committed in [vec![], vec![(COMMIT, Ok(doc("T-PIPELINE", &[])))]] {
            let rows = evaluate(&gates, &committed, &sim(72.0));
            assert_eq!(failed(&rows).len(), gates.len(), "{rows}");
        }
    }

    fn recovery(snapshot_costs: [f64; 3]) -> Value {
        let mut cells = Vec::new();
        for (chain, (on, off)) in [1_000, 10_000, 100_000]
            .into_iter()
            .zip(snapshot_costs.into_iter().zip([901.0, 9_010.0, 90_100.0]))
        {
            for (snapshots, cost) in [(1, on), (0, off)] {
                cells.push(format!(
                    "{{\"mode\":\"restart\",\"chain_blocks\":{chain},\
                     \"snapshots\":{snapshots},\"recovery_cost_ms\":{cost}}}"
                ));
            }
        }
        cells.push("{\"mode\":\"elastic\",\"converged\":1}".to_owned());
        parse(&trajectory_json("T-RECOVERY", "m", cells)).unwrap()
    }

    #[test]
    fn a_snapshot_recovery_cost_that_grows_with_the_chain_fails_flatness() {
        let gates = gates_of(RECOVERY);
        let grown = recovery([106.4, 106.4, 106.4 * 2.5]);
        let rows = evaluate(&gates, &[(RECOVERY, Ok(grown))], &sim(72.0));
        let bad = failed(&rows);
        assert_eq!(bad.len(), 1, "{rows}");
        assert_eq!(
            rows.text(bad[0], "constraint").as_deref(),
            Some("max <= 2 x min")
        );
        assert_eq!(
            rows.text(bad[0], "committed").as_deref(),
            Some("106.400 / 106.400 / 266")
        );

        let flat = recovery([106.4, 106.5, 106.3]);
        let rows = evaluate(&gates, &[(RECOVERY, Ok(flat))], &sim(72.0));
        assert!(all_ok(&rows), "{rows}");
    }

    #[test]
    fn relations_fail_on_what_they_cannot_read() {
        let cells = doc(
            "X",
            &[
                "{\"k\":\"a\",\"v\":2}",
                "{\"k\":\"a\",\"v\":1}",
                "{\"k\":\"b\"}",
            ],
        );
        let holds = |select: Select, key, relation| {
            let gate = [Gate("x.json", select, key, relation)];
            all_ok(&evaluate(
                &gate,
                &[("x.json", Ok(cells.clone()))],
                &sim(72.0),
            ))
        };
        const A: Select = &[("k", Text("a"))];
        assert!(holds(A, "v", Steps(0.0, 0.5)));
        assert!(!holds(A, "v", Steps(0.6, 1.0)));
        assert!(holds(A, "v", Between(1.0, 2.0)));
        assert!(!holds(A, "v", Equals(2.0)));
        assert!(holds(A, "v", Spread(2.0)));
        // A single value is neither flat nor a step.
        const ONE: Select = &[("v", AtLeast(2.0))];
        assert!(!holds(ONE, "v", Spread(2.0)));
        assert!(!holds(ONE, "v", Steps(0.0, 9.0)));
        assert!(holds(&[("v", AtMost(1.0))], "v", Equals(1.0)));
        // An empty selection, a selected cell without the value, a key
        // pattern that matches nothing.
        assert!(!holds(&[("k", Text("z"))], "v", Equals(1.0)));
        assert!(!holds(&[("k", Text("b"))], "v", Equals(1.0)));
        assert!(!holds(A, "w*", Within(0.01)));
    }

    /// Every row of the gate reads something in the committed files and
    /// holds on them: no row silently selects nothing. The fresh document
    /// is the committed `BENCH_sim.json` itself, so this test runs no
    /// campaign.
    #[test]
    fn every_gate_resolves_and_holds_on_the_committed_files() {
        let committed = committed();
        let rows = evaluate(GATES, &committed, &committed_doc(&committed, SIM));
        assert!(rows.len() >= GATES.len());
        assert!(all_ok(&rows), "{rows}");
    }

    fn committed_doc(committed: &[(&str, Result<Value, String>)], file: &str) -> Value {
        let (_, doc) = committed.iter().find(|(name, _)| *name == file).unwrap();
        doc.clone().unwrap_or_else(|why| panic!("{file}: {why}"))
    }

    /// Moves the values a gate reads across its relation: the gate must
    /// fail on them.
    fn perturb(relation: Relation, xs: &mut [&mut f64]) {
        match relation {
            Within(tol) => xs.iter_mut().for_each(|x| **x *= 1.0 + 2.0 * tol),
            Equals(v) => *xs[0] = v + 1.0,
            Between(lo, hi) => *xs[0] = if hi.is_finite() { hi + 1.0 } else { lo - 1.0 },
            Spread(k) => {
                let top = (0..xs.len()).max_by(|&a, &b| xs[a].total_cmp(xs[b]));
                *xs[top.unwrap()] *= 2.0 * k;
            }
            Steps(lo, hi) => *xs[1] = *xs[0] * if hi.is_finite() { 2.0 * hi } else { lo / 2.0 },
        }
    }

    /// Every row of the gate can fail: on a copy of its committed file
    /// whose selected values are moved across its relation (a model value
    /// off by twice the tolerance, a count one above its bound, a flat
    /// series' top scaled by twice the spread, a step out of its range),
    /// the row does not hold.
    #[test]
    fn every_gate_fails_once_its_committed_values_cross_its_relation() {
        let committed = committed();
        let fresh = committed_doc(&committed, SIM);
        for &gate in GATES {
            let Gate(file, select, key, relation) = gate;
            let mut doc = committed_doc(&committed, file);
            let Value::Obj(fields) = &mut doc else {
                panic!("{file} is not an object");
            };
            let Some((_, Value::Arr(cells))) = fields.iter_mut().find(|(k, _)| k == "cells") else {
                panic!("{file} has no cells");
            };
            let prefix = key.strip_suffix('*');
            let mut xs: Vec<&mut f64> = cells
                .iter_mut()
                .filter(|cell| picks(cell, select))
                .filter_map(|cell| match cell {
                    Value::Obj(fields) => Some(fields.iter_mut()),
                    _ => None,
                })
                .flatten()
                .filter(|(name, _)| prefix.map_or(name == key, |p| name.starts_with(p)))
                .filter_map(|(_, value)| match value {
                    Value::Num(x) => Some(x),
                    _ => None,
                })
                .collect();
            assert!(!xs.is_empty(), "{gate:?} reads no value");
            perturb(relation, &mut xs);
            let rows = evaluate(&[gate], &[(file, Ok(doc))], &fresh);
            assert!(!all_ok(&rows), "{gate:?} holds on crossed values: {rows}");
        }
    }
}

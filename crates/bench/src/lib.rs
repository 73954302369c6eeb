//! # hyperprov-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! HyperProv paper (and the thesis-style extended tables). See DESIGN.md
//! §5 for the experiment index and EXPERIMENTS.md for paper-vs-measured
//! results.
//!
//! A campaign's results are the rows of typed [`Table`]s; stdout, the CSVs
//! under `results/`, the committed `BENCH_*.json` trajectories and the
//! keyed reads of the tests are renderings of those rows (DESIGN.md §8.4).
//!
//! Binaries:
//!
//! * `campaign <name>...|all [--quick]` — figure/table campaigns by name
//!   (`fig1_desktop`, `fig2_rpi`, `fig3_energy`, `table_*`, `bench_sim`;
//!   see [`experiments::ALL_CAMPAIGNS`]) or all of them, saving CSVs and
//!   metrics JSON under `results/` and, on full runs, the trajectories at
//!   the repo root, and
//! * `bench_regress` — the CI regression gate: [`regress::GATES`] over
//!   the committed trajectories (`--update` re-records `BENCH_sim.json`
//!   first).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod regress;
pub mod report;
pub mod runner;
pub mod table;
pub mod workload;

pub use report::MetricsExporter;
pub use table::Table;

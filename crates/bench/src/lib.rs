//! # hyperprov-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! HyperProv paper (and the thesis-style extended tables). See DESIGN.md
//! §5 for the experiment index and EXPERIMENTS.md for paper-vs-measured
//! results.
//!
//! Binaries:
//!
//! * `campaign <name>|all [--quick]` — one figure/table campaign by name
//!   (`fig1_desktop`, `fig2_rpi`, `fig3_energy`, `table_*`, `bench_sim`;
//!   see [`experiments::ALL_CAMPAIGNS`]) or all of them, saving CSVs and
//!   metrics JSON under `results/`, and
//! * `bench_regress` — the CI perf-regression gate over the committed
//!   `BENCH_sim.json` baseline (`--update` regenerates it).

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

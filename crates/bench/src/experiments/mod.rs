//! The paper's experiments, one module per figure/table.
//!
//! Every campaign function takes `quick` (shortened sweeps, used by the
//! test suite and CI) and returns its [`Artefact`]s: the typed
//! [`crate::Table`]s whose rows regenerate the corresponding artefact of
//! the paper (see DESIGN.md §5 for the index), plus the exports and
//! trajectories derived from them.

mod baselines;
mod contention;
mod faults;
mod fig12;
mod fig3;
mod lineage;
mod overload;
mod pipeline;
mod profile;
mod recovery;
mod scale;
mod sharding;

pub use baselines::baseline_comparison;
pub use contention::contention_sweep;
pub use faults::{
    fault_campaign, fault_scenario_json, peer_crash_run, FaultScenario, FAULT_SCENARIOS,
};
pub use fig12::{mean, size_sweep, std_dev, Platform};
pub use fig3::energy_profile;
pub use lineage::lineage_sweep;
pub use overload::overload_sweep;
pub use pipeline::pipeline_sweep;
pub use profile::sim_bench;
pub use recovery::recovery_sweep;
pub use scale::scale_campaign;
pub use sharding::sharding_sweep;

use hyperprov::{ClientCommand, HyperProvNetwork, OpId};

use crate::runner::Artefact;

/// Runs one operation on client 0 to completion and returns its latency
/// in milliseconds (`None` if it failed or never completed).
fn op_ms(net: &mut HyperProvNetwork, mut cmd: ClientCommand) -> Option<f64> {
    cmd.set_op(OpId(1));
    let completion = net.run_op(0, cmd)?;
    let latency_ms = completion.latency().as_nanos() as f64 / 1e6;
    completion.outcome.ok().map(|_| latency_ms)
}

/// A campaign: `quick` in, artefacts out.
pub type Campaign = fn(bool) -> Vec<Artefact>;

/// Every campaign by name, in `campaign all` order.
pub const ALL_CAMPAIGNS: &[(&str, Campaign)] = &[
    ("fig1_desktop", |quick| size_sweep(Platform::Desktop, quick)),
    ("fig2_rpi", |quick| size_sweep(Platform::Rpi, quick)),
    ("fig3_energy", energy_profile),
    ("table_baselines", baseline_comparison),
    ("table_contention", contention_sweep),
    ("table_overload", overload_sweep),
    ("table_faults", fault_campaign),
    ("table_sharding", sharding_sweep),
    ("table_commit_pipeline", pipeline_sweep),
    ("table_lineage", lineage_sweep),
    ("table_recovery", recovery_sweep),
    ("table_scale", scale_campaign),
    ("bench_sim", sim_bench),
];

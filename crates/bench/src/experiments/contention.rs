//! T-MVCC: ablation — MVCC invalidation under key contention.
//!
//! Fabric's optimistic concurrency (and therefore HyperProv's) invalidates
//! a transaction whose read versions changed between endorsement and
//! commit. Independent clients posting to a shared ("hot") key race inside
//! blocks; this sweep measures the invalidation rate as the hot fraction
//! grows — the cost of using HyperProv for high-contention keys.

use hyperprov::{ClientCommand, HyperProvError, HyperProvNetwork, NetworkConfig, OpId};
use hyperprov_ledger::ValidationCode;
use hyperprov_sim::{DetRng, SimDuration};

use crate::row;
use crate::runner::{run_open_loop, Artefact};
use crate::table::{Fmt, Table};
use crate::workload::{payload, poisson_arrivals, KeyChooser};

/// Runs the contention sweep: the table and its rows as the committed
/// `BENCH_contention.json` trajectory.
pub fn contention_sweep(quick: bool) -> Vec<Artefact> {
    let (fractions, rate, duration, clients): (Vec<f64>, f64, SimDuration, usize) = if quick {
        (vec![0.0, 0.8], 30.0, SimDuration::from_secs(10), 4)
    } else {
        (
            vec![0.0, 0.1, 0.3, 0.5, 0.8, 1.0],
            50.0,
            SimDuration::from_secs(30),
            8,
        )
    };

    let mut table = Table::new(
        "T-MVCC: invalidation rate vs hot-key fraction (open loop, desktop)",
        &[
            ("hot_fraction", "hot fraction", Fmt::Fixed(1, "")),
            ("offered_tx_s", "offered (tx/s)", Fmt::Fixed(0, "")),
            ("committed_valid", "committed valid", Fmt::Plain),
            ("mvcc_conflicts", "mvcc conflicts", Fmt::Plain),
            ("conflict_rate_pct", "conflict rate", Fmt::Fixed(1, "%")),
        ],
    );

    for &fraction in &fractions {
        let mut net = HyperProvNetwork::build(&NetworkConfig::desktop(clients).with_seed(3));
        let mut rng = DetRng::new(3).fork("contention");
        let mut chooser = KeyChooser::new(fraction, rng.fork("keys"));
        let arrivals = poisson_arrivals(&mut rng.fork("arrivals"), rate, duration, clients);
        let result = run_open_loop(&mut net, &arrivals, SimDuration::from_secs(15), |_, _| {
            let key = chooser.next_key();
            let body = payload(&mut rng, 64);
            ClientCommand::Post {
                key,
                input: hyperprov::RecordInput::new(hyperprov_ledger::Digest::of(&body)),
                op: OpId(0),
            }
        });
        let mut valid = 0u64;
        let mut conflicts = 0u64;
        let mut other = 0u64;
        for (_, completion) in &result.completions {
            match &completion.outcome {
                Ok(_) => valid += 1,
                Err(HyperProvError::Invalidated(ValidationCode::MvccReadConflict)) => {
                    conflicts += 1
                }
                Err(_) => other += 1,
            }
        }
        let total = valid + conflicts + other;
        table.push_row(row![
            fraction,
            rate,
            valid,
            conflicts,
            (total > 0).then(|| conflicts as f64 / total as f64 * 100.0),
        ]);
    }
    let trajectory = Artefact::trajectory(
        "BENCH_contention.json",
        "T-MVCC",
        "MVCC invalidations vs hot-key fraction (open loop)",
        &[&table],
    );
    vec![Artefact::table(table, "table_contention"), trajectory]
}

//! `campaign <name>...|all [--quick]`: runs the named figure/table
//! campaigns (or all of them), in `all` order, printing each artefact and
//! saving it under `results/`; a full run then writes the trajectories
//! the campaigns returned (`BENCH_*.json` at the repo root), one document
//! per file. Anything else on the command line lists the campaign names
//! and exits 2, so a typo cannot silently start a full run.

use hyperprov_bench::experiments::ALL_CAMPAIGNS;
use hyperprov_bench::runner::{save_trajectories, Artefact};

fn main() {
    let mut quick = false;
    let mut selected = Vec::new();
    for arg in std::env::args().skip(1) {
        let known = arg == "all" || ALL_CAMPAIGNS.iter().any(|(name, _)| *name == arg);
        match arg.as_str() {
            "--quick" | "-q" => quick = true,
            _ if known => selected.push(arg),
            _ => usage(&format!("unexpected argument {arg:?}")),
        }
    }
    if selected.is_empty() {
        usage("no campaign named");
    }
    let mut trajectories = Vec::new();
    for (name, campaign) in ALL_CAMPAIGNS {
        if selected.iter().any(|s| s == "all" || s == name) {
            for artefact in campaign(quick) {
                print!("{}", artefact.render_and_save());
                if matches!(artefact, Artefact::Trajectory { .. }) {
                    trajectories.push(artefact);
                }
            }
        }
    }
    if !quick {
        print!("{}", save_trajectories(&trajectories));
    }
}

fn usage(problem: &str) -> ! {
    eprintln!("{problem}\nusage: campaign <name>...|all [--quick]\ncampaigns:");
    for (name, _) in ALL_CAMPAIGNS {
        eprintln!("  {name}");
    }
    std::process::exit(2);
}

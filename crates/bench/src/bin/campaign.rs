//! `campaign <name>|all [--quick]`: runs one figure/table campaign (or
//! all of them, in order), printing each artefact and saving it under
//! `results/`. Anything else on the command line lists the campaign names
//! and exits 2, so a typo cannot silently start a full run.

use hyperprov_bench::experiments::ALL_CAMPAIGNS;

fn main() {
    let mut quick = false;
    let mut selected = None;
    for arg in std::env::args().skip(1) {
        let known = arg == "all" || ALL_CAMPAIGNS.iter().any(|(name, _)| *name == arg);
        match arg.as_str() {
            "--quick" | "-q" => quick = true,
            _ if known && selected.is_none() => selected = Some(arg),
            _ => usage(&format!("unexpected argument {arg:?}")),
        }
    }
    let Some(selected) = selected else {
        usage("no campaign named");
    };
    for (name, campaign) in ALL_CAMPAIGNS {
        if selected == "all" || selected == *name {
            for artefact in campaign(quick) {
                print!("{}", artefact.render_and_save());
            }
        }
    }
}

fn usage(problem: &str) -> ! {
    eprintln!("{problem}\nusage: campaign <name>|all [--quick]\ncampaigns:");
    for (name, _) in ALL_CAMPAIGNS {
        eprintln!("  {name}");
    }
    std::process::exit(2);
}

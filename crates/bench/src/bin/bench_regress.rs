//! The CI regression gate: evaluates the gate table
//! (`hyperprov_bench::regress::GATES`) over the committed `BENCH_*.json`
//! trajectories — the deterministic model metrics of `BENCH_sim.json`
//! against a fresh quick run (1 %), and the shape claims of the full-run
//! trajectories (the Fig 1/2 knee, Fig 3 power, and each table
//! campaign's reading). Exits non-zero when any row fails, a missing,
//! empty or unparseable file included. `--update` first rewrites
//! `BENCH_sim.json` from the fresh run. Both runs are the quick ones. Any
//! other argument prints the usage line and exits 2 before a run.

use hyperprov_bench::regress::{all_ok, baseline_path, run_regress};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let update = match args.as_slice() {
        [] => false,
        [flag] if flag == "--update" => true,
        _ => {
            eprintln!("unexpected arguments {args:?}\nusage: bench_regress [--update]");
            std::process::exit(2);
        }
    };
    let rows = run_regress(update);
    print!("{rows}");
    if update {
        println!("[updated {}]", baseline_path().display());
    }
    if all_ok(&rows) {
        println!("bench regress: PASS");
    } else {
        println!("bench regress: FAIL (a row of the gate does not hold)");
        std::process::exit(1);
    }
}

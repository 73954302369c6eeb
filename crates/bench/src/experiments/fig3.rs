//! Figure 3: energy consumption on the Raspberry Pi over 10-minute
//! intervals at increasing load levels.
//!
//! "Measurements of the energy consumption of RPi devices running both
//! peer and client processes for 10 minutes [...] highlight that running
//! HyperProv without any active transactions barely consumes any power
//! (2.71 W) compared to an idle RPi running without HLF, while at the peak
//! load level consumes only 10.7 % more as compared to idle, and maximum
//! up to 3.64 W."
//!
//! We meter the device hosting peer 0 *and* client 0 (their utilisations
//! sum, clamped at one core) with a virtual 1 Hz power meter over each
//! 10-minute interval.

use hyperprov::{HyperProvNetwork, NetworkConfig};
use hyperprov_device::{EnergyModel, PowerMeter};
use hyperprov_sim::{DetRng, SimDuration, SimTime};

use super::fig12::paper_trajectory;
use crate::row;
use crate::runner::{run_open_loop, Artefact, Summary};
use crate::table::{Fmt, Table};
use crate::workload::{payload, poisson_arrivals, store_cmd};

/// Runs the energy profile. Each load level is a fresh 10-minute run (a
/// shortened interval in quick mode).
pub fn energy_profile(quick: bool) -> Vec<Artefact> {
    let interval = if quick {
        SimDuration::from_secs(60)
    } else {
        SimDuration::from_secs(600)
    };
    let rates: Vec<f64> = if quick {
        vec![0.0, 5.0, 20.0]
    } else {
        vec![0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0]
    };

    let mut table = Table::new(
        "Fig. 3: energy consumption on RPi, 10-minute intervals",
        &[
            ("load_level", "load level", Fmt::Plain),
            ("offered_tx_s", "offered (tx/s)", Fmt::Fixed(1, "")),
            ("achieved_tx_s", "achieved (tx/s)", Fmt::Fixed(1, "")),
            ("avg_power_w", "avg power (W)", Fmt::Fixed(2, "")),
            ("peak_power_w", "peak power (W)", Fmt::Fixed(2, "")),
            ("energy_j", "energy (J)", Fmt::Fixed(0, "")),
            ("vs_hlf_idle_pct", "vs HLF-idle", Fmt::Signed(1, "%")),
            ("unfinished", "unfinished", Fmt::Plain),
        ],
    );
    let secs = interval.as_secs_f64();

    // Reference row: an idle RPi with no HLF software at all.
    let model = EnergyModel::raspberry_pi();
    let idle_no_hlf = model.power(0.0, false);
    table.push_row(row![
        "idle (no HLF)",
        0.0,
        0.0,
        idle_no_hlf,
        idle_no_hlf,
        idle_no_hlf * secs,
        None::<f64>,
        0u64,
    ]);

    let hlf_idle = model.power(0.0, true);
    let levels = rates.iter().map(|&rate| {
        let label = if rate == 0.0 {
            "HLF idle".to_owned()
        } else {
            format!("{rate:.0} tx/s")
        };
        (label, rate)
    });
    // Peak: offer well beyond the device's capacity (open loop).
    let peak = ("peak (saturated)".to_owned(), 120.0);
    for (label, rate) in levels.chain(std::iter::once(peak)) {
        let (summary, avg, peak) = run_level(rate, interval, quick);
        table.push_row(row![
            label,
            rate,
            summary.throughput,
            avg,
            peak,
            avg * secs,
            (avg / hlf_idle - 1.0) * 100.0,
            summary.unfinished,
        ]);
    }
    let paper = paper_trajectory(&table);
    vec![Artefact::table(table, "fig3_energy"), paper]
}

fn meter(net: &HyperProvNetwork, from: SimTime, to: SimTime) -> (f64, f64) {
    let meter = PowerMeter::new(EnergyModel::raspberry_pi(), SimDuration::from_secs(1));
    let peer_cpu = net.sim.cpu(net.peers[0]);
    let client_cpu = net.sim.cpu(net.clients[0]);
    let cpus = [peer_cpu, client_cpu];
    (
        meter.average_watts_combined(&cpus, from, to, true),
        meter.peak_watts_combined(&cpus, from, to, true),
    )
}

fn run_level(rate: f64, interval: SimDuration, quick: bool) -> (Summary, f64, f64) {
    let mut net = HyperProvNetwork::build(&NetworkConfig::rpi(1).with_seed(42));
    let mut rng = DetRng::new(42).fork("fig3");
    let size = if quick { 512 } else { 1024 };
    let arrivals = poisson_arrivals(&mut rng.fork("arrivals"), rate, interval, 1);
    let start = net.sim.now();
    // The drain waits for every issued operation: past saturation the
    // backlog takes about 23 minutes to clear. The meter reads the
    // interval only, so the drain moves no power figure.
    let run = run_open_loop(&mut net, &arrivals, SimDuration::from_secs(3600), |_, i| {
        let data = payload(&mut rng, size);
        store_cmd(format!("item-{i}"), data)
    });
    // Meter exactly the 10-minute interval.
    let end = start + interval;
    net.sim.run_until(end);
    let (avg, peak) = meter(&net, start, end);
    (Summary::of(&run), avg, peak)
}

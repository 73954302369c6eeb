//! One round of a workload: build the deployment, preload it, run the
//! measured phase, let the peers settle and check what they hold.

use hyperprov::HyperProvNetwork;
use hyperprov_sim::{HotCounters, SimDuration, SimTime};

use crate::alloc;
use crate::driver::{run_phase, Timeline};
use crate::spans::Spans;
use crate::workloads::{plan, Plan, PEER0_RESTART_S};

/// Cumulative counters read at one end of the measured phase; the phase's
/// share is the difference of two probes.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// The kernel's hot-path counters.
    pub hot: HotCounters,
    /// Client retries, deadline expiries and exhausted retry budgets.
    pub client: [u64; 3],
    /// Bytes into and out of the off-chain store.
    pub storage: [u64; 2],
    /// Spans the tracer finished.
    pub spans: u64,
    /// The counting allocator (all zero unless tracing).
    pub alloc: alloc::Snapshot,
    /// `VmRSS` in KiB.
    pub rss_kib: f64,
}

impl Probe {
    fn read(net: &HyperProvNetwork) -> Probe {
        let counter = |name| net.sim.metrics().counter(name);
        Probe {
            hot: net.sim.hot_counters(),
            client: ["client.retries", "client.timeouts", "client.exhausted"].map(counter),
            storage: ["storage.bytes_in", "storage.bytes_out"].map(counter),
            spans: net.sim.tracer().spans_finished(),
            alloc: alloc::snapshot(),
            rss_kib: rss_kib("VmRSS:"),
        }
    }
}

/// What one round produced.
pub struct Round {
    /// Host seconds of `HyperProvNetwork::build` plus input generation.
    pub build_s: f64,
    /// Host seconds of the preload phases and their settling.
    pub preload_s: f64,
    /// The measured phase.
    pub timeline: Timeline,
    /// `VmHWM` at the end of the measured phase, in MiB.
    pub peak_rss_mib: f64,
    /// Counters before and after the measured phase.
    pub probes: (Probe, Probe),
    /// The kernel profiler's report at the end of the measured phase
    /// (traced rounds only).
    pub profile_json: Option<String>,
    /// `crash_recover` only: virtual milliseconds from the restart of the
    /// crashed peer until its height first equalled a never-faulted
    /// peer's.
    pub recover_ms: Option<f64>,
    /// Virtual instants the measured phase started and ended at.
    pub measured_span: (SimTime, SimTime),
    /// Sizes the replay needs.
    pub new_keys: u64,
    /// Bytes in one payload (0 when the workload moves none).
    pub payload_bytes: usize,
}

impl Round {
    /// Host seconds before the measured phase.
    pub fn setup_s(&self) -> f64 {
        self.build_s + self.preload_s
    }
}

fn rss_kib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with(field))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0.0)
}

/// Advances the simulation until every peer of the channel reports the
/// same height. At most `patience` of virtual time.
fn settle(net: &mut HyperProvNetwork, patience: SimDuration) -> Result<(), String> {
    let cap = net.sim.now() + patience;
    loop {
        let heights: Vec<u64> = net.ledgers.iter().map(|l| l.borrow().height()).collect();
        if heights.windows(2).all(|w| w[0] == w[1]) {
            return Ok(());
        }
        if net.sim.now() >= cap || net.sim.run_events(64) == 0 {
            return Err(format!("peers did not converge: heights {heights:?}"));
        }
    }
}

/// The output checks at quiescence: one ledger on every peer, a chain
/// that verifies, an index that matches the state, and no span closed
/// that was never opened.
fn check_quiescent(net: &HyperProvNetwork) -> Result<(), String> {
    let first = net.ledgers[0].borrow();
    let expect = (
        first.height(),
        first.state().state_hash(),
        first.graph().digest(),
    );
    for (peer, ledger) in net.ledgers.iter().enumerate() {
        let ledger = ledger.borrow();
        let got = (
            ledger.height(),
            ledger.state().state_hash(),
            ledger.graph().digest(),
        );
        if got != expect {
            return Err(format!(
                "peer {peer} disagrees with peer 0: height {} vs {}, state {} vs {}, graph {} vs {}",
                got.0,
                expect.0,
                got.1.short(),
                expect.1.short(),
                got.2.short(),
                expect.2.short()
            ));
        }
        ledger
            .store()
            .verify_chain()
            .map_err(|e| format!("peer {peer}: chain does not verify: {e}"))?;
        if !ledger.graph_consistent() {
            return Err(format!("peer {peer}: graph index differs from its state"));
        }
    }
    match net.sim.tracer().unmatched_ends() {
        0 => Ok(()),
        n => Err(format!("{n} spans ended that never started")),
    }
}

/// Runs one round of `workload` with `seed` and returns its numbers and
/// the network as the round left it. With `profile`, the kernel's handler
/// profiler runs over the measured phase.
///
/// # Errors
///
/// Returns what went wrong when a set-up operation failed, the peers did
/// not converge or an output check broke.
pub fn run(
    workload: &str,
    seed: u64,
    profile: bool,
    spans: &mut Spans,
) -> Result<(Round, HyperProvNetwork), String> {
    let ((plan, mut net), build_s) = spans.time("setup.build", |_| {
        let plan = plan(workload, seed).expect("workload name was checked");
        let net = HyperProvNetwork::build(&plan.config);
        (plan, net)
    });
    let Plan {
        preload,
        measured,
        faults,
        new_keys,
        payload_bytes,
        ..
    } = plan;

    let (preloaded, preload_s) = spans.time("setup.preload", |_| {
        for phase in &preload {
            let timeline = run_phase(&mut net, phase, |_| {});
            if timeline.failed() > 0 {
                return Err(format!(
                    "set-up: {} of {} operations failed",
                    timeline.failed(),
                    phase.total
                ));
            }
            settle(&mut net, SimDuration::from_secs(60))?;
        }
        Ok(())
    });
    preloaded?;

    let start = net.sim.now();
    if let Some(faults) = faults {
        faults(&net, start).install(&mut net.sim);
    }
    if profile {
        net.sim.enable_profiler();
    }
    let restart = start + SimDuration::from_secs(PEER0_RESTART_S);
    let mut recovered: Option<SimTime> = None;
    let watch_recovery = faults.is_some();
    let before = Probe::read(&net);
    let (timeline, _) = spans.time("measured", |_| {
        run_phase(&mut net, &measured, |net| {
            if watch_recovery && recovered.is_none() && net.sim.now() >= restart {
                let crashed = net.ledgers[0].borrow().height();
                if crashed == net.ledgers[1].borrow().height() {
                    recovered = Some(net.sim.now());
                }
            }
        })
    });
    let peak_rss_mib = rss_kib("VmHWM:") / 1024.0;
    let after = Probe::read(&net);
    let profile_json = profile.then(|| {
        net.sim
            .profiler()
            .snapshot_json(net.sim.events_processed(), after.hot)
    });
    let end = net.sim.now();

    let (checked, _) = spans.time("settle_and_check", |_| {
        settle(&mut net, SimDuration::from_secs(120))?;
        check_quiescent(&net)
    });
    checked?;
    if timeline.wrong > 0 {
        return Err(format!(
            "{} operations returned a wrong output",
            timeline.wrong
        ));
    }
    if watch_recovery && recovered.is_none() {
        return Err("the crashed peer never caught up".to_owned());
    }

    let round = Round {
        build_s,
        preload_s,
        timeline,
        peak_rss_mib,
        probes: (before, after),
        profile_json,
        recover_ms: recovered.map(|at| (at - restart).as_nanos() as f64 / 1e6),
        measured_span: (start, end),
        new_keys,
        payload_bytes,
    };
    Ok((round, net))
}

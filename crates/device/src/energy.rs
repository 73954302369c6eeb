//! The energy model and the virtual power meter.
//!
//! The paper measures RPi power with an ODROID Smart Power V3 between the
//! device and its supply, sampling while HyperProv runs at increasing load
//! for 10-minute intervals. Key published numbers (Fig. 3): ~2.71 W with
//! HLF running but idle, at most 3.64 W under load, and peak load only
//! ~10.7 % above HLF-idle on average.
//!
//! We model instantaneous power as an affine function of CPU utilisation:
//!
//! ```text
//! P(u) = idle + (hlf_idle - idle)·[hlf running] + (max - hlf_idle)·u
//! ```
//!
//! and integrate it over the busy-interval log kept by each simulated
//! CPU, sampled at a configurable rate like the physical meter.

use hyperprov_sim::{CpuResource, SimDuration, SimTime};

/// Power parameters of one device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Idle power with no HyperProv software running, in watts.
    pub idle_watts: f64,
    /// Power with HLF containers up but no transactions, in watts.
    pub hlf_idle_watts: f64,
    /// Power at 100 % CPU utilisation, in watts.
    pub max_watts: f64,
}

impl EnergyModel {
    /// Raspberry Pi 3B+ parameters calibrated to the paper's Figure 3.
    pub fn raspberry_pi() -> Self {
        EnergyModel {
            idle_watts: 2.58,
            hlf_idle_watts: 2.71,
            max_watts: 3.64,
        }
    }

    /// A desktop-class machine (not metered in the paper; plausible SSD
    /// workstation envelope for the baseline-comparison benches).
    pub fn desktop() -> Self {
        EnergyModel {
            idle_watts: 38.0,
            hlf_idle_watts: 41.0,
            max_watts: 95.0,
        }
    }

    /// Instantaneous power at CPU utilisation `u` (clamped to `[0, 1]`).
    pub fn power(&self, utilization: f64, hlf_running: bool) -> f64 {
        let u = utilization.clamp(0.0, 1.0);
        if hlf_running {
            self.hlf_idle_watts + (self.max_watts - self.hlf_idle_watts) * u
        } else {
            self.idle_watts
        }
    }
}

/// One power reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSample {
    /// End of the sampling window.
    pub at: SimTime,
    /// Average power over the window, in watts.
    pub watts: f64,
}

/// A virtual ODROID-style power meter for one device.
#[derive(Debug, Clone, Copy)]
pub struct PowerMeter {
    model: EnergyModel,
    interval: SimDuration,
}

impl PowerMeter {
    /// Creates a meter sampling at the given interval (the physical meter
    /// logs about once per second).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(model: EnergyModel, interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "sampling interval must be non-zero");
        PowerMeter { model, interval }
    }

    /// Samples the window `[from, to)` of a device's CPU log.
    pub fn sample(
        &self,
        cpu: &CpuResource,
        from: SimTime,
        to: SimTime,
        hlf_running: bool,
    ) -> Vec<PowerSample> {
        self.sample_combined(&[cpu], from, to, hlf_running)
    }

    /// Average power over `[from, to)`, in watts.
    pub fn average_watts(
        &self,
        cpu: &CpuResource,
        from: SimTime,
        to: SimTime,
        hlf_running: bool,
    ) -> f64 {
        if to <= from {
            return self.model.power(0.0, hlf_running);
        }
        let u = cpu.utilization(from, to);
        self.model.power(u, hlf_running)
    }

    /// Samples a device hosting *several* processes (e.g. the paper's RPi
    /// running both peer and client): utilisation is the sum over all
    /// CPUs, clamped at 1.
    pub fn sample_combined(
        &self,
        cpus: &[&CpuResource],
        from: SimTime,
        to: SimTime,
        hlf_running: bool,
    ) -> Vec<PowerSample> {
        let mut out = Vec::new();
        let mut cursor = from;
        while cursor < to {
            let end = (cursor + self.interval).min(to);
            let u: f64 = cpus.iter().map(|c| c.utilization(cursor, end)).sum();
            out.push(PowerSample {
                at: end,
                watts: self.model.power(u, hlf_running),
            });
            cursor = end;
        }
        out
    }

    /// Average power of a multi-process device over `[from, to)`, in
    /// watts (mean of the per-interval samples).
    pub fn average_watts_combined(
        &self,
        cpus: &[&CpuResource],
        from: SimTime,
        to: SimTime,
        hlf_running: bool,
    ) -> f64 {
        let samples = self.sample_combined(cpus, from, to, hlf_running);
        if samples.is_empty() {
            return self.model.power(0.0, hlf_running);
        }
        samples.iter().map(|s| s.watts).sum::<f64>() / samples.len() as f64
    }

    /// Peak sampled power of a multi-process device over `[from, to)`.
    pub fn peak_watts_combined(
        &self,
        cpus: &[&CpuResource],
        from: SimTime,
        to: SimTime,
        hlf_running: bool,
    ) -> f64 {
        self.sample_combined(cpus, from, to, hlf_running)
            .iter()
            .map(|s| s.watts)
            .fold(self.model.power(0.0, hlf_running), f64::max)
    }

    /// Energy consumed over `[from, to)`, in joules.
    pub fn energy_joules(
        &self,
        cpu: &CpuResource,
        from: SimTime,
        to: SimTime,
        hlf_running: bool,
    ) -> f64 {
        self.sample(cpu, from, to, hlf_running)
            .iter()
            .map(|s| s.watts * self.interval.as_secs_f64())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn model_matches_published_anchors() {
        let m = EnergyModel::raspberry_pi();
        assert!((m.power(0.0, true) - 2.71).abs() < 1e-9);
        assert!((m.power(1.0, true) - 3.64).abs() < 1e-9);
        assert!(m.power(0.0, false) < m.power(0.0, true));
        // Clamping.
        assert_eq!(m.power(2.0, true), m.power(1.0, true));
        assert_eq!(m.power(-1.0, true), m.power(0.0, true));
    }

    #[test]
    fn idle_device_draws_hlf_idle_power() {
        let cpu = CpuResource::new(1.0);
        let meter = PowerMeter::new(EnergyModel::raspberry_pi(), SimDuration::from_secs(1));
        let avg = meter.average_watts(&cpu, t(0), t(600), true);
        assert!((avg - 2.71).abs() < 1e-9);
        let without = meter.average_watts(&cpu, t(0), t(600), false);
        assert!((without - 2.58).abs() < 1e-9);
    }

    #[test]
    fn busy_device_draws_more() {
        let mut cpu = CpuResource::new(1.0);
        // Busy half of a 10-second window.
        cpu.execute(t(0), SimDuration::from_secs(5));
        let meter = PowerMeter::new(EnergyModel::raspberry_pi(), SimDuration::from_secs(1));
        let avg = meter.average_watts(&cpu, t(0), t(10), true);
        let expected = 2.71 + (3.64 - 2.71) * 0.5;
        assert!((avg - expected).abs() < 1e-6, "{avg}");
    }

    #[test]
    fn samples_cover_window_exactly() {
        let cpu = CpuResource::new(1.0);
        let meter = PowerMeter::new(EnergyModel::raspberry_pi(), SimDuration::from_secs(1));
        let samples = meter.sample(&cpu, t(0), t(10), true);
        assert_eq!(samples.len(), 10);
        assert_eq!(samples.last().unwrap().at, t(10));
        // Partial final window.
        let samples = meter.sample(&cpu, t(0), SimTime::from_nanos(2_500_000_000), true);
        assert_eq!(samples.len(), 3);
    }

    #[test]
    fn energy_integrates_power() {
        let cpu = CpuResource::new(1.0);
        let meter = PowerMeter::new(EnergyModel::raspberry_pi(), SimDuration::from_secs(1));
        let joules = meter.energy_joules(&cpu, t(0), t(600), true);
        // 2.71 W for 600 s = 1626 J.
        assert!((joules - 1626.0).abs() < 1.0, "{joules}");
    }

    #[test]
    fn combined_utilisation_sums_and_clamps() {
        let mut peer = CpuResource::new(1.0);
        let mut client = CpuResource::new(1.0);
        peer.execute(t(0), SimDuration::from_secs(8)); // 80% of [0,10)
        client.execute(t(0), SimDuration::from_secs(6)); // 60% of [0,10)
        let meter = PowerMeter::new(EnergyModel::raspberry_pi(), SimDuration::from_secs(10));
        let avg = meter.average_watts_combined(&[&peer, &client], t(0), t(10), true);
        // Sum 1.4 clamps to 1.0 → max watts.
        assert!((avg - 3.64).abs() < 1e-9, "{avg}");
        let peak = meter.peak_watts_combined(&[&peer, &client], t(0), t(10), true);
        assert!((peak - 3.64).abs() < 1e-9);
        // Idle pair draws hlf-idle.
        let idle = CpuResource::new(1.0);
        let avg = meter.average_watts_combined(&[&idle], t(0), t(10), true);
        assert!((avg - 2.71).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "sampling interval")]
    fn zero_interval_rejected() {
        let _ = PowerMeter::new(EnergyModel::raspberry_pi(), SimDuration::ZERO);
    }
}

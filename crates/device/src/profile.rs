//! Hardware device profiles matching the paper's two testbeds.
//!
//! The desktop setup: two Xeon E5-1603 (2.8 GHz), one i7-4700MQ
//! (2.4 GHz), one i3-2310M (2.1 GHz), SSDs, gigabit switch. The edge
//! setup: four Raspberry Pi 3B+ (Cortex-A53 @ 1.4 GHz, USB2-attached
//! ethernet) on one switch. A profile carries the relative CPU speed (the
//! reference core is the Xeon), the device's link characteristics and its
//! energy model.

use hyperprov_sim::{LinkSpec, SimDuration};

use crate::energy::EnergyModel;

/// A concrete machine model.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Human-readable model name.
    pub name: String,
    /// CPU speed relative to the reference core (Xeon E5-1603 = 1.0).
    pub cpu_speed: f64,
    /// Physical cores available to a node on this device: a peer's
    /// commit-pipeline lanes, and read lanes on the cores they leave free.
    pub cores: usize,
    /// Characteristics of this device's network attachment.
    pub nic: LinkSpec,
    /// Power/energy parameters.
    pub energy: EnergyModel,
}

impl DeviceProfile {
    /// Intel Xeon E5-1603 @ 2.80 GHz — the reference machine (two of the
    /// paper's desktop nodes; one also hosts the orderer).
    pub fn xeon_e5_1603() -> Self {
        DeviceProfile {
            name: "Intel Xeon E5-1603 2.80GHz".to_owned(),
            cpu_speed: 1.0,
            cores: 4,
            nic: desktop_nic(),
            energy: EnergyModel::desktop(),
        }
    }

    /// Intel Core i7-4700MQ @ 2.40 GHz — newer microarchitecture, faster
    /// per clock than the reference Xeon.
    pub fn core_i7_4700mq() -> Self {
        DeviceProfile {
            name: "Intel Core i7-4700MQ 2.40GHz".to_owned(),
            cpu_speed: 1.15,
            cores: 4,
            nic: desktop_nic(),
            energy: EnergyModel::desktop(),
        }
    }

    /// Intel Core i3-2310M @ 2.10 GHz — the slowest desktop node.
    pub fn core_i3_2310m() -> Self {
        DeviceProfile {
            name: "Intel Core i3-2310M 2.10GHz".to_owned(),
            cpu_speed: 0.65,
            cores: 2,
            nic: desktop_nic(),
            energy: EnergyModel::desktop(),
        }
    }

    /// Raspberry Pi 3B+ — Cortex-A53 @ 1.4 GHz, ethernet bridged over
    /// USB 2.0 (~230 Mbit/s effective), running 64-bit Debian Buster with
    /// self-compiled ARM64 HLF images, as in the paper.
    pub fn raspberry_pi_3b_plus() -> Self {
        DeviceProfile {
            name: "Raspberry Pi 3B+ (Cortex-A53 1.4GHz)".to_owned(),
            // In-order A53 at half the clock: ~8x slower than the Xeon on
            // crypto/serialisation workloads.
            cpu_speed: 0.13,
            // Quad-core Cortex-A53.
            cores: 4,
            nic: LinkSpec {
                latency: SimDuration::from_micros(350),
                bandwidth_bps: 230_000_000,
                // The paper notes "greater variation" on RPi.
                jitter_frac: 0.35,
            },
            energy: EnergyModel::raspberry_pi(),
        }
    }

    /// The neutral reference profile (speed 1.0, LAN link).
    pub fn reference() -> Self {
        DeviceProfile {
            name: "reference".to_owned(),
            cpu_speed: 1.0,
            cores: 1,
            nic: LinkSpec::lan(),
            energy: EnergyModel::desktop(),
        }
    }
}

fn desktop_nic() -> LinkSpec {
    LinkSpec {
        latency: SimDuration::from_micros(120),
        bandwidth_bps: 1_000_000_000,
        jitter_frac: 0.05,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rpi_is_roughly_an_order_of_magnitude_slower() {
        let desktop = DeviceProfile::xeon_e5_1603();
        let rpi = DeviceProfile::raspberry_pi_3b_plus();
        let ratio = desktop.cpu_speed / rpi.cpu_speed;
        assert!((5.0..=12.0).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn desktop_faster_nic_than_rpi() {
        let desktop = DeviceProfile::xeon_e5_1603();
        let rpi = DeviceProfile::raspberry_pi_3b_plus();
        assert!(desktop.nic.bandwidth_bps > rpi.nic.bandwidth_bps);
        assert!(desktop.nic.jitter_frac < rpi.nic.jitter_frac);
    }

    #[test]
    fn desktop_cpu_ordering_matches_hardware() {
        let i7 = DeviceProfile::core_i7_4700mq();
        let xeon = DeviceProfile::xeon_e5_1603();
        let i3 = DeviceProfile::core_i3_2310m();
        assert!(i7.cpu_speed > xeon.cpu_speed);
        assert!(xeon.cpu_speed > i3.cpu_speed);
    }
}

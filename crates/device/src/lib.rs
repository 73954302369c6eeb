//! # hyperprov-device
//!
//! Hardware models for the paper's two testbeds: desktop x86-64 machines
//! and Raspberry Pi 3B+ edge devices.
//!
//! * [`DeviceProfile`] — CPU speed factor, NIC characteristics and energy
//!   parameters per machine model,
//! * [`EnergyModel`]/[`PowerMeter`] — the virtual ODROID power meter that
//!   regenerates Figure 3.
//!
//! A deployment gives each actor one NIC, its device's
//! [`DeviceProfile::nic`]; the network takes the slower NIC of the two
//! ends as their link, as on the testbeds' one switch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod energy;
mod profile;

pub use energy::{EnergyModel, PowerMeter, PowerSample};
pub use profile::DeviceProfile;

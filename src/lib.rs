//! Umbrella crate for the HyperProv reproduction workspace.
//!
//! Re-exports the public crates so examples and integration tests can use a
//! single dependency. See [`hyperprov`] for the provenance API itself.

pub use hyperprov;
pub use hyperprov_device as device;
pub use hyperprov_fabric as fabric;
pub use hyperprov_ledger as ledger;
pub use hyperprov_offchain as offchain;
pub use hyperprov_sim as sim;

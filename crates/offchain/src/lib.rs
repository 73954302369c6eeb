//! # hyperprov-offchain
//!
//! Off-chain payload storage for HyperProv. The chain records only
//! metadata (checksum, location, lineage); the payload itself lives in an
//! [`ObjectStore`]:
//!
//! * [`MemoryStore`] — in-memory backend for simulations and tests, and
//! * [`StorageNode`]/[`StoreMsg`] — the simulated remote SSHFS node with
//!   per-operation SSH overhead and per-byte service cost, matching the
//!   paper's "off-chain storage always runs on a separate node" setup: a
//!   sans-IO machine that `hyperprov_fabric::Node` hosts, as it hosts the
//!   peer, the ordering node and the client.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod sshfs;
mod store;

pub use sshfs::{StorageNode, StoreMsg};
pub use store::{validate_name, MemoryStore, ObjectStore, StoreError};

//! # hyperprov
//!
//! A Rust reproduction of **HyperProv** (Tunstad, Khan, Ha — Middleware
//! 2019): decentralized, resilient data provenance at the edge with
//! permissioned blockchains.
//!
//! HyperProv stores provenance *metadata* — checksum, data location,
//! creator certificate, parent items, custom fields — in a tamper-proof
//! ledger, while the payload itself lives in pluggable off-chain storage.
//! This crate provides:
//!
//! * [`ProvenanceRecord`]/[`RecordInput`] — the on-chain record model,
//! * [`HyperProvChaincode`] — the smart contract (`post`, `get`,
//!   `get_history`, `get_keys_by_checksum`, `get_lineage`, `list`,
//!   `delete`),
//! * [`Client`] — the client library (the NodeJS SDK equivalent),
//! * [`HyperProv`] — a blocking facade over a complete simulated
//!   deployment ([`NetworkConfig::desktop`] and [`NetworkConfig::rpi`]
//!   mirror the paper's two testbeds),
//! * [`OpmGraph`] — Open Provenance Model export, and
//! * [`audit`] — ledger/off-chain integrity auditing.
//!
//! # Quick start
//!
//! ```
//! use hyperprov::HyperProv;
//!
//! let mut hp = HyperProv::desktop();
//! hp.store_data("sensor-frame", b"...jpeg bytes...".to_vec(), vec![], vec![])?;
//! let lineage = hp.get_lineage("sensor-frame", 4)?;
//! assert_eq!(lineage.len(), 1);
//! # Ok::<(), hyperprov::HyperProvError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chaincode;
mod client;
mod deploy;
mod facade;
mod net;
mod opm;
mod record;
mod router;
mod verify;

pub use chaincode::{
    HyperProvChaincode, HyperProvIndexer, CHAINCODE_NAME, MAX_GRAPH_NODES, MAX_LINEAGE_DEPTH,
};
pub use client::{
    plan, Client, ClientCommand, ClientCompletion, ClientOwn, ClientView, CompletionQueue,
    HyperProvError, OpId, OpOutput, Origin, RetryPolicy, TRANSFER_TOKEN_BIT,
};
pub use deploy::{ChannelSpec, HyperProvNetwork, NetworkConfig, OrdererMode};
pub use facade::HyperProv;
pub use hyperprov_fabric::SnapshotPolicy;
pub use net::NodeMsg;
pub use opm::{OpmEdge, OpmEdgeKind, OpmGraph, OpmNode, OpmNodeKind};
pub use record::{
    decode_history, encode_history, GraphSlice, HistoryRecord, LineageEntry, ProvenanceRecord,
    RecordInput,
};
pub use router::HashRouter;
pub use verify::{audit, current_records, AuditFinding, AuditReport};

//! # hyperprov-baseline
//!
//! The comparison system of the HyperProv reproduction that is not
//! HyperProv itself: [`PowChain`], a ProvChain-like public proof-of-work
//! anchor chain (exponential block intervals, bounded blocks,
//! k-confirmation finality, load-independent mining energy). It
//! quantifies the paper's argument that a permissioned chain beats a
//! public one on resource cost.
//!
//! The other baseline of T-BASE — HyperProv *without* off-chain storage,
//! the payload riding through endorsement, ordering and commit into every
//! peer's state database — is a workload on the real deployment
//! (`crates/bench/src/experiments/baselines.rs`), not a second system.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pow;

pub use pow::{PowChain, PowCommit, PowConfig, PowTx};

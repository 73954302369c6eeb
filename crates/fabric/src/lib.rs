//! # hyperprov-fabric
//!
//! A from-scratch, Fabric-like permissioned blockchain implementing the
//! execute-order-validate pipeline HyperProv runs on:
//!
//! * [`Msp`]/[`Certificate`]/[`SigningIdentity`] — membership and
//!   signatures (see DESIGN.md for the crypto substitution),
//! * [`Chaincode`]/[`ChaincodeStub`] — the smart-contract shim with state,
//!   history, range and composite-key queries,
//! * [`endorse`] — proposal simulation and endorsement,
//! * [`BlockCutter`]/[`BatchConfig`] — ordering-service batching,
//! * [`RaftNode`] — a compact Raft for replicated ordering,
//! * [`Committer`] — VSCC endorsement-policy + MVCC validation and commit,
//! * [`CatchUp`] — how a peer that fell behind gets current again,
//! * [`Peer`] — endorsement, commit, snapshots, a machine like [`CatchUp`],
//! * [`PeerActor`]/[`SoloOrdererActor`]/[`RaftOrdererActor`] — simulation
//!   actors that charge device CPU costs, and
//! * [`Gateway`] — the client SDK equivalent, another such machine;
//!   [`perform`] carries out what it answers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod caches;
mod catchup;
mod chaincode;
mod committer;
mod costs;
mod endorser;
mod gateway;
mod identity;
mod messages;
mod orderer;
mod ordering;
mod peer;
mod perform;
mod policy;
mod raft;

pub use caches::{ReadCache, SigVerifyCache};
pub use catchup::{Action as CatchUpAction, CatchUp, CATCHUP_ESCALATE_AFTER, CATCHUP_GIVE_UP};
pub use chaincode::{
    Chaincode, ChaincodeError, ChaincodeRegistry, ChaincodeStub, StubStats, COMPOSITE_SEP,
};
pub use committer::{BootstrapError, ChannelPolicies, CommitOutcome, Committer, VsccVerdict};
pub use costs::CostModel;
pub use endorser::endorse;
pub use gateway::{
    Action as GatewayAction, Caller, Gateway, GatewayError, Reply as GatewayReply, RetryPolicy,
    Route,
};
pub use identity::{
    CertId, CertRef, Certificate, Msp, MspBuilder, MspId, Signature, SigningIdentity,
};
pub use messages::{
    endorsement_message, payload_checksum, tx_trace, Carries, ChaincodeEvent, CommitEvent,
    Endorsement, Envelope, EnvelopeSpans, EnvelopeView, FabricMsg, Proposal, ProposalResponse,
    SignedProposal, BUSY_REASON,
};
pub use orderer::{BatchConfig, BlockAssembler, BlockCutter, CutterOutput};
pub use ordering::{RaftOrdererActor, SoloOrdererActor, RAFT_TICK_TOKEN};
pub use peer::{
    Action as PeerAction, ChannelView, CommitPipeline, Peer, PeerActor, SnapshotPolicy,
};
pub use perform::{perform, Armed};
pub use policy::EndorsementPolicy;
pub use raft::{LogEntry, PeerIdx, RaftConfig, RaftMsg, RaftNode, RaftOutput, Role};

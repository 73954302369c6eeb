//! The client gateway: drives the endorse → submit → commit flow.
//!
//! [`Gateway`] is embedded inside an application actor (the HyperProv
//! client, a workload generator, ...). The host actor forwards incoming
//! [`FabricMsg`]s to [`Gateway::handle`] and reacts to the returned
//! [`GatewayEvent`]s. This mirrors the role of the paper's NodeJS client
//! library sitting on top of the Fabric SDK.

use std::collections::HashMap;

use hyperprov_ledger::{ChannelId, Digest, Encode, TxId, ValidationCode};
use hyperprov_sim::{ActorId, Context, ServiceHarness, SimDuration, SimTime, TimerId};

use crate::costs::CostModel;
use crate::identity::SigningIdentity;
use crate::messages::{
    tx_trace, Carries, CommitEvent, Endorsement, Envelope, FabricMsg, Proposal, ProposalResponse,
    SignedProposal, BUSY_REASON,
};

/// Why a gateway operation failed before producing a commit or a query
/// result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GatewayError {
    /// An endorsing peer rejected or failed the proposal.
    Endorsement {
        /// The peer's rejection message.
        reason: String,
    },
    /// The endorsing peer shed the request at admission (its bounded
    /// queue was full). The operation may succeed on retry.
    Busy,
    /// Collected endorsements disagree on the result or read/write set.
    Mismatch,
    /// An endorse-only query returned an application error.
    Query {
        /// The chaincode's error message.
        reason: String,
    },
    /// The endorsement (or query) phase exceeded its per-op deadline —
    /// typically a crashed or partitioned endorsing peer.
    EndorseTimeout,
    /// The commit notification did not arrive within the deadline — a
    /// lost broadcast, a dead orderer, or a partitioned commit event.
    CommitTimeout,
}

impl GatewayError {
    /// Classifies an endorser's wire-level rejection string.
    fn from_endorsement(reason: String) -> Self {
        if reason == BUSY_REASON {
            GatewayError::Busy
        } else {
            GatewayError::Endorsement { reason }
        }
    }

    /// Classifies a query's wire-level rejection string.
    fn from_query(reason: String) -> Self {
        if reason == BUSY_REASON {
            GatewayError::Busy
        } else {
            GatewayError::Query { reason }
        }
    }

    /// True when the failure is transient — backpressure or a deadline
    /// expiry — and a fresh attempt (with a new tx id) may succeed.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            GatewayError::Busy | GatewayError::EndorseTimeout | GatewayError::CommitTimeout
        )
    }
}

impl std::fmt::Display for GatewayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GatewayError::Endorsement { reason } | GatewayError::Query { reason } => {
                write!(f, "{reason}")
            }
            GatewayError::Busy => write!(f, "{BUSY_REASON}"),
            GatewayError::Mismatch => write!(f, "endorsement mismatch across peers"),
            GatewayError::EndorseTimeout => write!(f, "endorsement deadline exceeded"),
            GatewayError::CommitTimeout => write!(f, "commit deadline exceeded"),
        }
    }
}

impl std::error::Error for GatewayError {}

/// Completion notifications surfaced to the host actor.
#[derive(Debug, Clone)]
pub enum GatewayEvent {
    /// The transaction was committed (validly or not) in a block.
    TxCommitted {
        /// The transaction.
        tx_id: TxId,
        /// Validation outcome.
        code: ValidationCode,
        /// End-to-end latency from `invoke` to commit notification.
        latency: hyperprov_sim::SimDuration,
        /// The chaincode's response payload agreed at endorsement.
        payload: Vec<u8>,
    },
    /// The transaction failed before ordering (endorsement error or
    /// mismatching endorsements).
    TxFailed {
        /// The transaction.
        tx_id: TxId,
        /// Why it failed.
        error: GatewayError,
    },
    /// An endorse-only query finished.
    QueryDone {
        /// The query's proposal id.
        tx_id: TxId,
        /// Chaincode result.
        result: Result<Vec<u8>, GatewayError>,
        /// Latency from `query` to response.
        latency: hyperprov_sim::SimDuration,
    },
}

#[derive(Debug)]
enum Inflight {
    Tx {
        started: SimTime,
        needed: usize,
        proposal: Box<Proposal>,
        responses: Vec<ProposalResponse>,
        submitted: bool,
        deadline: Option<(u64, TimerId)>,
    },
    Query {
        started: SimTime,
        deadline: Option<(u64, TimerId)>,
    },
}

impl Inflight {
    fn take_deadline(&mut self) -> Option<(u64, TimerId)> {
        match self {
            Inflight::Tx { deadline, .. } | Inflight::Query { deadline, .. } => deadline.take(),
        }
    }
}

/// Tag bit identifying timer tokens allocated by a [`Gateway`] for per-op
/// deadlines. Disjoint from both [`hyperprov_sim::HARNESS_TOKEN_BIT`] and
/// actor-internal small-constant tokens.
pub const GATEWAY_TOKEN_BIT: u64 = 1 << 62;

/// A Fabric client endpoint bound to one channel's endorsers and orderer.
/// A client on a multi-channel network embeds one gateway per channel.
#[derive(Debug)]
pub struct Gateway {
    identity: SigningIdentity,
    channel: ChannelId,
    endorsers: Vec<ActorId>,
    orderer: ActorId,
    endorsements_needed: usize,
    costs: CostModel,
    nonce: u64,
    inflight: HashMap<TxId, Inflight>,
    /// Deadline for the endorsement phase (and for queries). `None`
    /// disables the timer entirely — zero-cost when off.
    endorse_timeout: Option<SimDuration>,
    /// Deadline for the commit-wait phase.
    commit_timeout: Option<SimDuration>,
    next_deadline_token: u64,
    /// Maps an armed deadline token back to its transaction.
    deadline_tx: HashMap<u64, TxId>,
    /// OR-ed into every deadline token so several gateways embedded in one
    /// host actor allocate disjoint token spaces. Zero (the default, and
    /// always gateway 0 in a deployment) reproduces the single-gateway
    /// token stream exactly.
    token_salt: u64,
}

impl Gateway {
    /// Creates a gateway.
    ///
    /// `endorsements_needed` is how many successful endorsements to collect
    /// before submitting (derive it from the chaincode's policy via
    /// [`crate::EndorsementPolicy::min_endorsers`]).
    ///
    /// # Panics
    ///
    /// Panics if `endorsers` is empty or `endorsements_needed` exceeds the
    /// endorser count.
    pub fn new(
        identity: SigningIdentity,
        channel: impl Into<ChannelId>,
        endorsers: Vec<ActorId>,
        orderer: ActorId,
        endorsements_needed: usize,
        costs: CostModel,
    ) -> Self {
        assert!(!endorsers.is_empty(), "gateway needs at least one endorser");
        assert!(
            endorsements_needed >= 1 && endorsements_needed <= endorsers.len(),
            "endorsements_needed must be in 1..=endorsers.len()"
        );
        Gateway {
            identity,
            channel: channel.into(),
            endorsers,
            orderer,
            endorsements_needed,
            costs,
            nonce: 0,
            inflight: HashMap::new(),
            endorse_timeout: None,
            commit_timeout: None,
            next_deadline_token: 0,
            deadline_tx: HashMap::new(),
            token_salt: 0,
        }
    }

    /// Sets the deadline-token salt for a gateway embedded alongside
    /// others in the same host actor (use a distinct per-gateway value,
    /// e.g. `(index as u64) << 32`).
    #[must_use]
    pub fn with_token_salt(mut self, salt: u64) -> Self {
        debug_assert_eq!(
            salt & (GATEWAY_TOKEN_BIT | hyperprov_sim::HARNESS_TOKEN_BIT),
            0,
            "token salt must not collide with the namespace tag bits"
        );
        self.token_salt = salt;
        self
    }

    /// Arms per-op deadlines: `endorse` bounds the endorsement/query phase,
    /// `commit` bounds the commit-wait phase. `None` leaves a phase
    /// unbounded (the default — no timers are ever set, so a gateway
    /// without deadlines behaves exactly as before they existed).
    ///
    /// The host actor must route timer tokens for which
    /// [`Gateway::owns_timer`] is true into [`Gateway::on_timer`].
    #[must_use]
    pub fn with_deadlines(
        mut self,
        endorse: Option<SimDuration>,
        commit: Option<SimDuration>,
    ) -> Self {
        self.endorse_timeout = endorse;
        self.commit_timeout = commit;
        self
    }

    /// True when `token` is a deadline timer owned by a gateway (route it
    /// to [`Gateway::on_timer`]).
    pub fn owns_timer(token: u64) -> bool {
        token & GATEWAY_TOKEN_BIT != 0 && token & hyperprov_sim::HARNESS_TOKEN_BIT == 0
    }

    fn arm_deadline<M>(
        &mut self,
        ctx: &mut Context<'_, M>,
        tx_id: TxId,
        timeout: Option<SimDuration>,
    ) -> Option<(u64, TimerId)> {
        let timeout = timeout?;
        self.next_deadline_token += 1;
        let token = GATEWAY_TOKEN_BIT | self.token_salt | self.next_deadline_token;
        self.deadline_tx.insert(token, tx_id);
        let timer = ctx.set_timer(timeout, token);
        Some((token, timer))
    }

    /// Cancels and forgets an armed deadline.
    fn disarm<M>(&mut self, ctx: &mut Context<'_, M>, deadline: Option<(u64, TimerId)>) {
        if let Some((token, timer)) = deadline {
            self.deadline_tx.remove(&token);
            ctx.cancel_timer(timer);
        }
    }

    /// The client certificate this gateway signs with.
    pub fn identity(&self) -> &SigningIdentity {
        &self.identity
    }

    /// The channel this gateway submits to.
    pub fn channel(&self) -> &ChannelId {
        &self.channel
    }

    /// True when this gateway armed the deadline `token` (used by hosts
    /// with several gateways to route timers to the right one).
    pub fn owns_deadline(&self, token: u64) -> bool {
        self.deadline_tx.contains_key(&token)
    }

    /// Builds and signs a proposal, returning it together with its tx id
    /// and wire size. The canonical encoding is produced exactly once:
    /// the signature covers it, the tx id is its digest and the wire size
    /// is its length.
    fn make_signed<M: Carries<FabricMsg>>(
        &mut self,
        ctx: &mut Context<'_, M>,
        harness: &mut ServiceHarness<M>,
        chaincode: &str,
        function: &str,
        args: Vec<Vec<u8>>,
    ) -> (SignedProposal, TxId, u64) {
        self.nonce += 1;
        let proposal = Proposal {
            channel: self.channel.clone(),
            chaincode: chaincode.to_owned(),
            function: function.to_owned(),
            args,
            creator: self.identity.certificate().clone(),
            nonce: self.nonce,
        };
        let bytes = proposal.to_bytes();
        let tx_id = TxId(Digest::of(&bytes));
        // Charge client CPU (signing + hashing); results ship immediately —
        // the charge models utilisation/energy, not a response gate.
        harness.charge(ctx, self.costs.client_proposal_cost(bytes.len() as u64));
        let sp = SignedProposal {
            signature: self.identity.sign(&bytes),
            proposal,
        };
        (sp, tx_id, bytes.len() as u64)
    }

    /// Starts a full transaction: endorse on `endorsements_needed`
    /// endorsers, then order, then wait for the commit event.
    ///
    /// `harness` is the host actor's service harness; it absorbs the
    /// client-side CPU charge for signing the proposal.
    pub fn invoke<M: Carries<FabricMsg>>(
        &mut self,
        ctx: &mut Context<'_, M>,
        harness: &mut ServiceHarness<M>,
        chaincode: &str,
        function: &str,
        args: Vec<Vec<u8>>,
    ) -> TxId {
        let (sp, tx_id, wire) = self.make_signed(ctx, harness, chaincode, function, args);
        // The endorse span covers the whole client-side collection phase:
        // it closes in `submit` (or on failure), where `commit_wait` opens.
        ctx.span_start(&tx_trace(&tx_id), "endorse", "");
        let deadline = self.arm_deadline(ctx, tx_id, self.endorse_timeout);
        self.inflight.insert(
            tx_id,
            Inflight::Tx {
                started: ctx.now(),
                needed: self.endorsements_needed,
                proposal: Box::new(sp.proposal.clone()),
                responses: Vec::new(),
                submitted: false,
                deadline,
            },
        );
        let bytes = wire + 32;
        // The last endorser gets the proposal by move, the rest by clone.
        let mut sp = Some(sp);
        for i in 0..self.endorsements_needed {
            let dst = self.endorsers[i];
            let msg = if i + 1 == self.endorsements_needed {
                sp.take().expect("sent exactly once")
            } else {
                sp.as_ref().expect("taken only on the last send").clone()
            };
            ctx.send(dst, bytes, M::wrap(FabricMsg::SubmitProposal(msg)));
        }
        tx_id
    }

    /// Starts an endorse-only query against the first endorser.
    pub fn query<M: Carries<FabricMsg>>(
        &mut self,
        ctx: &mut Context<'_, M>,
        harness: &mut ServiceHarness<M>,
        chaincode: &str,
        function: &str,
        args: Vec<Vec<u8>>,
    ) -> TxId {
        let (sp, tx_id, wire) = self.make_signed(ctx, harness, chaincode, function, args);
        ctx.span_start(&tx_trace(&tx_id), "query", "");
        let deadline = self.arm_deadline(ctx, tx_id, self.endorse_timeout);
        self.inflight.insert(
            tx_id,
            Inflight::Query {
                started: ctx.now(),
                deadline,
            },
        );
        let bytes = wire + 32;
        let dst = self.endorsers[0];
        ctx.send(dst, bytes, M::wrap(FabricMsg::SubmitProposal(sp)));
        tx_id
    }

    /// Feeds an incoming Fabric message to the gateway. Returns any
    /// completions. Non-gateway messages are ignored.
    pub fn handle<M: Carries<FabricMsg>>(
        &mut self,
        ctx: &mut Context<'_, M>,
        msg: FabricMsg,
    ) -> Vec<GatewayEvent> {
        match msg {
            FabricMsg::ProposalResult(resp) => self.on_response(ctx, resp),
            FabricMsg::Commit(event) => self.on_commit(ctx, event),
            _ => Vec::new(),
        }
    }

    fn on_response<M: Carries<FabricMsg>>(
        &mut self,
        ctx: &mut Context<'_, M>,
        resp: ProposalResponse,
    ) -> Vec<GatewayEvent> {
        let tx_id = resp.tx_id;
        match self.inflight.get_mut(&tx_id) {
            Some(Inflight::Query { started, .. }) => {
                let latency = ctx.now() - *started;
                let mut entry = self
                    .inflight
                    .remove(&tx_id)
                    .expect("invariant: entry matched above");
                let deadline = entry.take_deadline();
                self.disarm(ctx, deadline);
                ctx.span_end(&tx_trace(&tx_id), "query", "");
                vec![GatewayEvent::QueryDone {
                    tx_id,
                    result: resp.result.map_err(GatewayError::from_query),
                    latency,
                }]
            }
            Some(Inflight::Tx {
                needed,
                responses,
                submitted,
                ..
            }) => {
                if *submitted {
                    return Vec::new(); // stale extra endorsement
                }
                if let Err(reason) = &resp.result {
                    // Fail fast, as the Fabric SDK does.
                    let reason = reason.clone();
                    let mut entry = self
                        .inflight
                        .remove(&tx_id)
                        .expect("invariant: entry matched above");
                    let deadline = entry.take_deadline();
                    self.disarm(ctx, deadline);
                    ctx.span_end(&tx_trace(&tx_id), "endorse", "");
                    ctx.trace_event(&tx_trace(&tx_id), "endorse.rejected", &reason);
                    return vec![GatewayEvent::TxFailed {
                        tx_id,
                        error: GatewayError::from_endorsement(reason),
                    }];
                }
                responses.push(resp);
                if responses.len() < *needed {
                    return Vec::new();
                }
                // All endorsements collected: check they agree.
                let first = &responses[0];
                let agree = responses
                    .iter()
                    .all(|r| r.rwset == first.rwset && r.result == first.result);
                if !agree {
                    let mut entry = self
                        .inflight
                        .remove(&tx_id)
                        .expect("invariant: entry matched above");
                    let deadline = entry.take_deadline();
                    self.disarm(ctx, deadline);
                    ctx.span_end(&tx_trace(&tx_id), "endorse", "");
                    ctx.trace_event(&tx_trace(&tx_id), "endorse.mismatch", "");
                    return vec![GatewayEvent::TxFailed {
                        tx_id,
                        error: GatewayError::Mismatch,
                    }];
                }
                self.submit(ctx, tx_id);
                Vec::new()
            }
            None => Vec::new(),
        }
    }

    /// Assembles the envelope from the stored proposal and collected
    /// endorsements and broadcasts it to the orderer.
    fn submit<M: Carries<FabricMsg>>(&mut self, ctx: &mut Context<'_, M>, tx_id: TxId) {
        let (envelope, old_deadline) = {
            let Some(Inflight::Tx {
                proposal,
                responses,
                submitted,
                deadline,
                ..
            }) = self.inflight.get_mut(&tx_id)
            else {
                return;
            };
            let first = responses
                .first()
                .expect("invariant: submit runs only after `needed >= 1` endorsements collected");
            let envelope = Envelope {
                proposal: proposal.as_ref().clone(),
                payload: first.result.clone().unwrap_or_default(),
                rwset: first.rwset.clone(),
                event: first.event.clone(),
                endorsements: responses
                    .iter()
                    .map(|r| Endorsement {
                        endorser: r.endorser.clone(),
                        signature: r.signature,
                    })
                    .collect(),
            };
            *submitted = true;
            (envelope, deadline.take())
        };
        // The endorsement phase met its deadline; re-arm for commit-wait so
        // a lost broadcast or commit notification cannot wedge the client.
        self.disarm(ctx, old_deadline);
        let commit_deadline = self.arm_deadline(ctx, tx_id, self.commit_timeout);
        if let Some(Inflight::Tx { deadline, .. }) = self.inflight.get_mut(&tx_id) {
            *deadline = commit_deadline;
        }
        let bytes = envelope.wire_size();
        let orderer = self.orderer;
        ctx.send(orderer, bytes, M::wrap(FabricMsg::Broadcast(envelope)));
        // Endorsements are in; from here the client just waits for the
        // commit notification. The two spans are contiguous, so their
        // durations sum exactly to the end-to-end invoke latency.
        let trace = tx_trace(&tx_id);
        ctx.span_end(&trace, "endorse", "");
        ctx.span_start(&trace, "commit_wait", "");
    }

    fn on_commit<M: Carries<FabricMsg>>(
        &mut self,
        ctx: &mut Context<'_, M>,
        event: CommitEvent,
    ) -> Vec<GatewayEvent> {
        match self.inflight.remove(&event.tx_id) {
            Some(Inflight::Tx {
                started,
                responses,
                deadline,
                ..
            }) => {
                self.disarm(ctx, deadline);
                let latency = ctx.now() - started;
                ctx.span_end(&tx_trace(&event.tx_id), "commit_wait", "");
                let payload = responses
                    .first()
                    .and_then(|r| r.result.clone().ok())
                    .unwrap_or_default();
                vec![GatewayEvent::TxCommitted {
                    tx_id: event.tx_id,
                    code: event.code,
                    latency,
                    payload,
                }]
            }
            Some(other) => {
                // A query cannot commit; put it back.
                self.inflight.insert(event.tx_id, other);
                Vec::new()
            }
            None => Vec::new(),
        }
    }

    /// Handles a deadline timer (a token for which [`Gateway::owns_timer`]
    /// is true). The expired operation is abandoned: its open span closes,
    /// its pending-tx entry is removed — nothing can leak — and a
    /// [`GatewayEvent::TxFailed`] / [`GatewayEvent::QueryDone`] with the
    /// matching timeout error is returned. Tokens of already-finished
    /// operations return no events.
    pub fn on_timer<M>(&mut self, ctx: &mut Context<'_, M>, token: u64) -> Vec<GatewayEvent> {
        let Some(tx_id) = self.deadline_tx.remove(&token) else {
            return Vec::new();
        };
        let Some(entry) = self.inflight.remove(&tx_id) else {
            return Vec::new();
        };
        let trace = tx_trace(&tx_id);
        match entry {
            Inflight::Tx {
                submitted: true, ..
            } => {
                ctx.span_end(&trace, "commit_wait", "");
                ctx.trace_event(&trace, "commit.timeout", "");
                vec![GatewayEvent::TxFailed {
                    tx_id,
                    error: GatewayError::CommitTimeout,
                }]
            }
            Inflight::Tx { .. } => {
                ctx.span_end(&trace, "endorse", "");
                ctx.trace_event(&trace, "endorse.timeout", "");
                vec![GatewayEvent::TxFailed {
                    tx_id,
                    error: GatewayError::EndorseTimeout,
                }]
            }
            Inflight::Query { started, .. } => {
                let latency = ctx.now() - started;
                ctx.span_end(&trace, "query", "");
                ctx.trace_event(&trace, "query.timeout", "");
                vec![GatewayEvent::QueryDone {
                    tx_id,
                    result: Err(GatewayError::EndorseTimeout),
                    latency,
                }]
            }
        }
    }
}

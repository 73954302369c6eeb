//! The client gateway — the role of the paper's NodeJS client library on
//! top of the Fabric SDK — as a sans-IO state machine: one [`Gateway`]
//! per client takes what happened (a request, a Fabric message, a timer)
//! and answers with the [`Action`]s its host actor must perform, in order.
//!
//! One table holds every request of the client, on whichever channel. A
//! row is in one of five phases — *endorsing*, *ordering*, *commit-wait*,
//! *query*, *backing off* — and each phase waits on exactly one wake-up:
//! the endorse deadline, the backoff sleep, or in commit-wait the next
//! status probe or the commit deadline, whichever comes first. So with
//! deadlines configured a row exists exactly while its one timer is
//! armed, and nothing can wedge: a probe re-arms, and every other wake-up
//! either ends the row with a typed error or moves it to a fresh attempt
//! under a fresh tx id.
//!
//! A row in commit-wait whose home peer stays silent past the route's
//! retransmission timeout asks the next endorser on its ring whether the
//! transaction committed — Fabric Gateway's `CommitStatus` —, one place
//! further along and twice as late each time. A peer that committed it
//! answers with the commit event the home would have sent, and that
//! completes the row as the home's would. The timeout is RFC 6298's
//! `srtt + 4·rttvar` over the route's commit waits, timed from the
//! orderer's ack to the home's event; before the first sample it is the
//! endorse deadline. A row that an answer completed gives no sample: it
//! timed the probe, not the home (Karn's rule, which here can tell the
//! two apart). A row whose probes went unanswered still times the home,
//! so a timeout that fell short grows back.

use hyperprov_ledger::{ChannelId, Digest, Encode, TxId, ValidationCode};
use hyperprov_sim::fxhash::FxHashMap;
use hyperprov_sim::{ActorId, DetRng, SimDuration, SimTime};
use rand::Rng;

use crate::costs;
use crate::identity::SigningIdentity;
use crate::messages::{
    tx_trace, CommitEvent, Endorsement, Envelope, FabricMsg, Proposal, ProposalResponse,
    SignedProposal, BUSY_REASON,
};

/// Why a gateway request failed before producing a commit or a query
/// result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GatewayError {
    /// An endorsing peer rejected or failed the proposal.
    Endorsement {
        /// The peer's rejection message.
        reason: String,
    },
    /// The endorsing peer shed the request (its queue was full), or an
    /// orderer that knows no leader refused the envelope. A retry may work.
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
    /// The orderer's answer or the commit notification missed its deadline
    /// — a lost broadcast, a dead orderer, or a partitioned commit event.
    CommitTimeout,
    /// The retry budget was spent; every attempt failed transiently.
    Exhausted {
        /// How many attempts were made (initial try + retries).
        attempts: u32,
    },
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
            GatewayError::Exhausted { attempts } => {
                write!(f, "retry budget exhausted after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for GatewayError {}

/// Deterministic exponential-backoff-with-jitter retry policy for
/// transient gateway failures ([`GatewayError::Busy`], endorsement
/// timeouts, commit-wait timeouts). Retried transactions are re-submitted
/// with a fresh tx id; all randomness comes from the client actor's
/// seeded stream, so runs are reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempt budget (initial try + retries), at least 1.
    pub max_attempts: u32,
}

/// Backoff before the first retry; doubles per subsequent retry.
const BASE_BACKOFF: SimDuration = SimDuration::from_millis(50);
/// Upper bound on any single backoff sleep (before jitter).
const MAX_BACKOFF: SimDuration = SimDuration::from_secs(2);
/// A backoff is multiplied by a factor drawn uniformly from
/// `[1 - JITTER_FRAC, 1 + JITTER_FRAC]`.
const JITTER_FRAC: f64 = 0.2;

impl RetryPolicy {
    /// A policy with the given attempt budget; the backoff shape is fixed
    /// (50 ms base, 2 s cap, ±20 % jitter).
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts` is zero.
    pub fn new(max_attempts: u32) -> Self {
        assert!(max_attempts >= 1, "retry policy needs at least one attempt");
        RetryPolicy { max_attempts }
    }

    /// The jittered backoff before retry number `retry` (1-based).
    fn backoff(&self, retry: u32, rng: &mut DetRng) -> SimDuration {
        let exp = retry.saturating_sub(1).min(20);
        let raw = BASE_BACKOFF.mul_f64(f64::from(2u32.saturating_pow(exp)));
        let factor = 1.0 + JITTER_FRAC * rng.gen_range(-1.0..=1.0);
        raw.min(MAX_BACKOFF).mul_f64(factor)
    }

    /// Attempt number `attempts` of the request traced on `trace` failed
    /// transiently. With budget left: the backoff to sleep before the next
    /// one, the retry counted, observed and noted; spent: `Exhausted`,
    /// counted.
    pub fn after_failure<X>(
        &self,
        attempts: u32,
        trace: String,
        rng: &mut DetRng,
        out: &mut Vec<crate::action::Action<X>>,
    ) -> Result<SimDuration, GatewayError> {
        use crate::action::Action;
        if attempts >= self.max_attempts {
            out.push(Action::Count(None, "exhausted", 1));
            return Err(GatewayError::Exhausted { attempts });
        }
        let backoff = self.backoff(attempts, rng);
        out.push(Action::Count(None, "retries", 1));
        out.push(Action::Observe("backoff", backoff));
        let detail = format!("attempt={} backoff={backoff}", attempts + 1);
        out.push(Action::Note(trace, "op.retry", detail));
        Ok(backoff)
    }
}

/// A caller's tag on a request: handed back with the request's outcome,
/// and naming the trace its retries are noted on (the client's `"op-7"`).
pub trait Caller {
    /// The trace key of the operation the request belongs to.
    fn trace(&self) -> String;
}

impl Caller for () {
    fn trace(&self) -> String {
        String::new()
    }
}

/// What a request that succeeded produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// An endorse-only query's result.
    Bytes(Vec<u8>),
    /// The transaction was committed (validly or not) in a block.
    Committed {
        /// The transaction.
        tx_id: TxId,
        /// Validation outcome.
        code: ValidationCode,
        /// The chaincode's response payload agreed at endorsement.
        payload: Vec<u8>,
    },
}

/// What a gateway answers an input with, in the order its host must
/// perform it.
pub type Action<T> = crate::action::Action<Done<T>>;

/// What only a gateway tells its host: the caller's request is over.
/// Always the last action of an input, which completes at most one request.
#[derive(Debug)]
pub struct Done<T>(pub T, pub Result<Reply, GatewayError>);

/// Where one channel's requests go. A client on a sharded deployment has
/// one route per channel, indexed by shard.
///
/// Both lists are rings. A request's first attempt starts at each ring's
/// *home*, its first node to begin with; a retry one place along from its
/// own attempt's positions, so it goes to the next node, not back to the
/// one that just failed. An expired deadline moves the home of the ring it
/// blames past the expired position, if it still points there, and every
/// attempt stranded on that node ([`Gateway::on_timer`]); nothing else moves a home.
#[derive(Debug)]
pub struct Route {
    channel: ChannelId,
    endorsers: Vec<ActorId>,
    orderers: Vec<ActorId>,
    endorsements_needed: usize,
    /// The channel's proposal nonce: with the channel name and the
    /// creator it makes every tx id unique.
    nonce: u64,
    /// Where a first attempt starts: `[ENDORSERS]`, `[ORDERERS]`.
    home: [usize; 2],
    /// The commit wait's smoothed round trip and its mean deviation, once
    /// a row has been timed.
    rtt: Option<(SimDuration, SimDuration)>,
}

/// A route's rings, as indices into a pair of ring positions.
const ENDORSERS: usize = 0;
const ORDERERS: usize = 1;

impl Route {
    /// A route to `channel`. A first attempt is proposed to the
    /// `endorsements_needed` endorsers from the home endorser on (derive
    /// the count from the chaincode's policy via
    /// [`crate::EndorsementPolicy::min_endorsers`]) and its envelope goes
    /// to the home orderer; a query asks the home endorser.
    ///
    /// # Panics
    ///
    /// Panics if `endorsers` or `orderers` is empty or
    /// `endorsements_needed` is not in `1..=endorsers.len()`.
    pub fn new(
        channel: impl Into<ChannelId>,
        endorsers: Vec<ActorId>,
        orderers: Vec<ActorId>,
        endorsements_needed: usize,
    ) -> Self {
        assert!(!endorsers.is_empty(), "a route needs at least one endorser");
        assert!(!orderers.is_empty(), "a route needs at least one orderer");
        assert!(
            endorsements_needed >= 1 && endorsements_needed <= endorsers.len(),
            "endorsements_needed must be in 1..=endorsers.len()"
        );
        Route {
            channel: channel.into(),
            endorsers,
            orderers,
            endorsements_needed,
            nonce: 0,
            home: [0; 2],
            rtt: None,
        }
    }

    /// The retransmission timeout, `srtt + 4·rttvar`; `before` until the
    /// first sample.
    fn rto(&self, before: SimDuration) -> SimDuration {
        self.rtt.map_or(before, |(srtt, rttvar)| srtt + rttvar * 4)
    }

    /// Folds one commit wait into the estimate, with RFC 6298's gains
    /// α = 1/8 and β = 1/4.
    fn sample(&mut self, r: SimDuration) {
        self.rtt = Some(match self.rtt {
            None => (r, r / 2),
            Some((srtt, rttvar)) => {
                let error = srtt.max(r) - srtt.min(r);
                (srtt - srtt / 8 + r / 8, rttvar - rttvar / 4 + error / 4)
            }
        });
    }

    /// The position one place on from `at` on `ring`.
    fn after(&self, ring: usize, at: usize) -> usize {
        (at + 1) % [self.endorsers.len(), self.orderers.len()][ring]
    }
}

/// A chaincode call, kept to issue it again under a fresh tx id.
#[derive(Debug, Clone)]
struct Call {
    /// A full transaction rather than an endorse-only query.
    invoke: bool,
    chaincode: &'static str,
    function: &'static str,
    args: Vec<Vec<u8>>,
}

/// What a request is waiting for. Each phase has one wake-up.
#[derive(Debug)]
enum Phase {
    /// Endorsements of the proposal (the endorse deadline).
    Endorsing {
        proposal: Box<Proposal>,
        responses: Vec<ProposalResponse>,
    },
    /// The orderer's answer to the submitted envelope (the endorse
    /// deadline: one node answers it); `payload` as in commit-wait.
    Ordering { payload: Vec<u8> },
    /// The commit notification of the submitted envelope, whose agreed
    /// chaincode response is `payload` (the next probe or the commit
    /// deadline, with `probes`; else the commit deadline).
    CommitWait {
        payload: Vec<u8>,
        probes: Option<Probes>,
    },
    /// The one endorser's answer (the endorse deadline).
    Query,
    /// The backoff sleep before the next attempt. The row stays under the
    /// failed attempt's tx id, whose late replies it ignores.
    BackingOff,
}

/// The status probes of a row in commit-wait: kept only under both
/// deadlines, from the orderer's ack on, on a ring of two endorsers or more.
#[derive(Debug)]
struct Probes {
    /// When the orderer took the envelope in: the home's event times the
    /// route's round trip from here.
    acked: SimTime,
    /// Probes sent so far.
    sent: u32,
    /// The wait from now, or from the armed probe, to the next probe.
    next: SimDuration,
    /// The wait from now, or from the armed probe, to the commit deadline;
    /// zero once the armed wake-up is the deadline itself.
    left: SimDuration,
}

impl Probes {
    /// The delay to arm commit-wait's one wake-up at: the next probe, if
    /// it comes before the deadline, else the deadline. A zero timeout
    /// probes never.
    fn wake(&mut self) -> SimDuration {
        if !self.next.is_zero() && self.next < self.left {
            self.left = self.left - self.next;
            self.next
        } else {
            std::mem::take(&mut self.left)
        }
    }
}

/// One caller request, from `invoke` / `query` to its `Done`.
#[derive(Debug)]
struct Row<T> {
    caller: T,
    /// The route it was issued on.
    shard: usize,
    /// Attempts started so far (1 = first try).
    attempts: u32,
    /// The ring positions the latest attempt used (first endorser, orderer).
    at: [usize; 2],
    /// The armed wake-up, if the phase has one configured.
    token: Option<u64>,
    /// The call, to issue it again (kept only under a retry policy).
    redo: Option<Call>,
    phase: Phase,
}

/// A Fabric client endpoint: every request of one client identity, on
/// every channel it has a [`Route`] to.
#[derive(Debug)]
pub struct Gateway<T> {
    identity: SigningIdentity,
    routes: Vec<Route>,
    /// Deadline of the endorsement phase and of queries; `None` arms no
    /// timer at all.
    endorse_timeout: Option<SimDuration>,
    /// Deadline of the commit-wait phase.
    commit_timeout: Option<SimDuration>,
    retry: Option<RetryPolicy>,
    /// The requests in flight, by the tx id of their latest attempt —
    /// what replies carry. Wake-ups fire only when something went wrong,
    /// so the row of a token is found by a scan, in the fixed hasher's order.
    rows: FxHashMap<TxId, Row<T>>,
    next_token: u64,
}

impl<T: Caller> Gateway<T> {
    /// Creates a gateway signing as `identity`, with one route per
    /// channel in shard-index order.
    ///
    /// # Panics
    ///
    /// Panics if `routes` is empty.
    pub fn new(identity: SigningIdentity, routes: Vec<Route>) -> Self {
        assert!(!routes.is_empty(), "gateway needs at least one route");
        Gateway {
            identity,
            routes,
            endorse_timeout: None,
            commit_timeout: None,
            retry: None,
            rows: FxHashMap::default(),
            next_token: 0,
        }
    }

    /// Arms per-op deadlines: `endorse` bounds the endorsement/query phase
    /// (and, read through [`Gateway::endorse_deadline`], each off-chain
    /// transfer of the HyperProv client), `commit` the commit-wait phase.
    /// `None` leaves a phase unbounded (the default: no timer is ever set).
    ///
    /// The host actor must route every timer token that is not its own
    /// into [`Gateway::on_timer`]; tokens count up from 1.
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

    /// Enables transparent retries of transient failures under `policy`:
    /// a fresh attempt under a fresh tx id after a jittered exponential
    /// backoff, until the attempt budget is spent.
    #[must_use]
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Number of channels this gateway has a route to.
    pub fn shards(&self) -> usize {
        self.routes.len()
    }

    /// Requests in flight, including those sleeping out a backoff.
    pub fn inflight(&self) -> usize {
        self.rows.len()
    }

    /// The deadline of the endorsement phase and of queries, if any.
    pub fn endorse_deadline(&self) -> Option<SimDuration> {
        self.endorse_timeout
    }

    /// The retry policy, if any.
    pub fn retry_policy(&self) -> Option<RetryPolicy> {
        self.retry
    }

    /// Where the next request on route `shard` starts: home endorser, home orderer.
    pub fn homes(&self, shard: usize) -> (ActorId, ActorId) {
        let route = &self.routes[shard];
        let [endorser, orderer] = route.home;
        (route.endorsers[endorser], route.orderers[orderer])
    }

    /// Starts a full transaction on route `shard`: endorse on the
    /// `endorsements_needed` endorsers from the route's home endorser on,
    /// then order at its home orderer, then wait for the commit event.
    pub fn invoke(
        &mut self,
        shard: usize,
        caller: T,
        chaincode: &'static str,
        function: &'static str,
        args: Vec<Vec<u8>>,
    ) -> Vec<Action<T>> {
        let call = Call {
            invoke: true,
            chaincode,
            function,
            args,
        };
        let at = self.routes[shard].home;
        self.issue(caller, shard, 0, at, call)
    }

    /// Starts an endorse-only query against the home endorser of route
    /// `shard`.
    pub fn query(
        &mut self,
        shard: usize,
        caller: T,
        chaincode: &'static str,
        function: &'static str,
        args: Vec<Vec<u8>>,
    ) -> Vec<Action<T>> {
        let call = Call {
            invoke: false,
            chaincode,
            function,
            args,
        };
        let at = self.routes[shard].home;
        self.issue(caller, shard, 0, at, call)
    }

    /// Issues attempt `attempts + 1` of `call` at ring positions `at`:
    /// builds and signs the proposal — encoded exactly once: the signature
    /// covers the bytes, the tx id is their digest and the wire size their
    /// length — and sends it, under the endorse deadline, to the endorsers
    /// from position `at[ENDORSERS]` on.
    fn issue(
        &mut self,
        caller: T,
        shard: usize,
        attempts: u32,
        at: [usize; 2],
        call: Call,
    ) -> Vec<Action<T>> {
        let redo = self.retry.map(|_| call.clone());
        let route = &mut self.routes[shard];
        route.nonce += 1;
        let proposal = Proposal {
            channel: route.channel.clone(),
            chaincode: call.chaincode.to_owned(),
            function: call.function.to_owned(),
            args: call.args,
            creator: self.identity.certificate().clone(),
            nonce: route.nonce,
        };
        let bytes = proposal.to_bytes();
        let tx_id = TxId(Digest::of(&bytes));
        let wire = bytes.len() as u64;
        let signature = self.identity.sign(&bytes);
        // The endorse span covers the whole collection phase: it closes
        // at submit (or on failure), where `commit_wait` opens.
        let (targets, stage, phase) = if call.invoke {
            let phase = Phase::Endorsing {
                proposal: Box::new(proposal.clone()),
                responses: Vec::new(),
            };
            (route.endorsements_needed, "endorse", phase)
        } else {
            (1, "query", Phase::Query)
        };
        let mut out = Vec::with_capacity(3 + targets);
        out.push(Action::Charge(costs::client_proposal_cost(wire)));
        out.push(Action::SpanStart(tx_trace(&tx_id), stage, String::new()));
        let token = arm(&mut self.next_token, self.endorse_timeout, &mut out);
        // The last endorser gets the proposal by move, the rest by clone.
        let mut signed = Some(SignedProposal {
            proposal,
            signature,
        });
        for i in 0..targets {
            let endorser = route.endorsers[(at[ENDORSERS] + i) % route.endorsers.len()];
            let signed = if i + 1 == targets {
                signed.take()
            } else {
                signed.clone()
            };
            let msg = FabricMsg::SubmitProposal(signed.expect("taken on the last send only"));
            out.push(Action::Send(endorser, wire + 32, msg));
        }
        let row = Row {
            caller,
            shard,
            attempts: attempts + 1,
            at,
            token,
            redo,
            phase,
        };
        self.rows.insert(tx_id, row);
        out
    }

    /// Feeds an incoming Fabric message to the gateway. Messages that
    /// are not an answer to a live attempt — another client's commit, a
    /// reply to an attempt that already timed out, an extra endorsement
    /// after submit — do nothing. It arrived at `now`, which times the
    /// commit wait; `rng` is the host actor's stream: a rejection that is
    /// retried draws its backoff from it.
    pub fn on_message(&mut self, msg: FabricMsg, now: SimTime, rng: &mut DetRng) -> Vec<Action<T>> {
        let mut out = Vec::new();
        match msg {
            FabricMsg::ProposalResult(resp) => self.on_response(resp, rng, &mut out),
            FabricMsg::BroadcastAck { tx_id, accepted } => {
                self.on_ack(tx_id, accepted, now, rng, &mut out);
            }
            FabricMsg::Commit(event) => self.on_commit(event, Some(now), &mut out),
            FabricMsg::CommitStatusAnswer(event) => self.on_commit(event, None, &mut out),
            _ => {}
        }
        out
    }

    fn on_response(&mut self, resp: ProposalResponse, rng: &mut DetRng, out: &mut Vec<Action<T>>) {
        let tx_id = resp.tx_id;
        let Some(row) = self.rows.get_mut(&tx_id) else {
            return;
        };
        let needed = self.routes[row.shard].endorsements_needed;
        let (stage, note, error) = match &mut row.phase {
            Phase::Query => match resp.result {
                Ok(bytes) => {
                    let row = self.close(tx_id, "query", out);
                    out.push(Action::Own(Done(row.caller, Ok(Reply::Bytes(bytes)))));
                    return;
                }
                Err(reason) => ("query", None, GatewayError::from_query(reason)),
            },
            Phase::Endorsing { responses, .. } => match &resp.result {
                // Fail fast, as the Fabric SDK does.
                Err(reason) => (
                    "endorse",
                    Some(("endorse.rejected", reason.clone())),
                    GatewayError::from_endorsement(reason.clone()),
                ),
                Ok(_) => {
                    responses.push(resp);
                    if responses.len() < needed {
                        return;
                    }
                    let first = &responses[0];
                    let agree = responses
                        .iter()
                        .all(|r| r.rwset == first.rwset && r.result == first.result);
                    if agree {
                        return self.submit(tx_id, out);
                    }
                    let note = ("endorse.mismatch", String::new());
                    ("endorse", Some(note), GatewayError::Mismatch)
                }
            },
            Phase::Ordering { .. } | Phase::CommitWait { .. } | Phase::BackingOff => return,
        };
        let row = self.close(tx_id, stage, out);
        if let Some((name, detail)) = note {
            out.push(Action::Note(tx_trace(&tx_id), name, detail));
        }
        self.fail(tx_id, row, error, rng, out);
    }

    /// The attempt under `tx_id` got its answer: takes its row out of the
    /// table, disarming its deadline and closing its `stage` span.
    fn close(&mut self, tx_id: TxId, stage: &'static str, out: &mut Vec<Action<T>>) -> Row<T> {
        let mut row = self
            .rows
            .remove(&tx_id)
            .expect("invariant: callers looked the row up");
        out.extend(row.token.take().map(Action::Disarm));
        out.push(Action::SpanEnd(tx_trace(&tx_id), stage, String::new()));
        row
    }

    /// All endorsements are in and agree: assembles the envelope,
    /// broadcasts it to this attempt's orderer and waits — for its answer
    /// under an endorse deadline, else for the commit — so a lost
    /// broadcast or commit notification cannot wedge the client.
    fn submit(&mut self, tx_id: TxId, out: &mut Vec<Action<T>>) {
        let row = self.rows.get_mut(&tx_id).expect("caller looked it up");
        let Phase::Endorsing {
            proposal,
            responses,
        } = std::mem::replace(&mut row.phase, Phase::BackingOff)
        else {
            unreachable!("submit runs on an endorsing row");
        };
        let endorsements = responses
            .iter()
            .map(|r| Endorsement {
                endorser: r.endorser.clone(),
                signature: r.signature,
            })
            .collect();
        let first = responses
            .into_iter()
            .next()
            .expect("invariant: submit runs only after `needed >= 1` endorsements");
        let payload = first.result.unwrap_or_default();
        let envelope = Envelope {
            proposal: *proposal,
            payload: payload.clone(),
            rwset: first.rwset,
            event: first.event,
            endorsements,
        };
        let ack = self.endorse_timeout.is_some();
        row.phase = match ack {
            true => Phase::Ordering { payload },
            false => Phase::CommitWait {
                payload,
                probes: None,
            },
        };
        out.extend(row.token.take().map(Action::Disarm));
        let deadline = self.endorse_timeout.or(self.commit_timeout);
        row.token = arm(&mut self.next_token, deadline, out);
        let bytes = envelope.wire_size();
        let orderer = self.routes[row.shard].orderers[row.at[ORDERERS]];
        let msg = FabricMsg::Broadcast { envelope, ack };
        out.push(Action::Send(orderer, bytes, msg));
        // The two spans are contiguous, so their durations sum exactly to
        // the end-to-end invoke latency.
        let trace = tx_trace(&tx_id);
        out.push(Action::SpanEnd(trace.clone(), "endorse", String::new()));
        out.push(Action::SpanStart(trace, "commit_wait", String::new()));
    }

    /// The orderer answered the envelope at `now`: taken in, the row waits
    /// for the commit under the commit deadline, probing before it on a
    /// ring with another endorser; refused, the attempt fails `Busy`.
    fn on_ack(
        &mut self,
        tx_id: TxId,
        accepted: bool,
        now: SimTime,
        rng: &mut DetRng,
        out: &mut Vec<Action<T>>,
    ) {
        let Some(row) = self.rows.get_mut(&tx_id) else {
            return;
        };
        let Phase::Ordering { payload } = &mut row.phase else {
            return;
        };
        if accepted {
            let payload = std::mem::take(payload);
            let route = &self.routes[row.shard];
            // Only an endorse deadline asks for the ack.
            let rto = route.rto(self.endorse_timeout.unwrap_or_default());
            let mut probes = self
                .commit_timeout
                .filter(|_| route.endorsers.len() > 1)
                .map(|left| Probes {
                    acked: now,
                    sent: 0,
                    next: rto,
                    left,
                });
            out.extend(row.token.take().map(Action::Disarm));
            let wake = probes
                .as_mut()
                .map_or(self.commit_timeout, |p| Some(p.wake()));
            row.token = arm(&mut self.next_token, wake, out);
            row.phase = Phase::CommitWait { payload, probes };
            return;
        }
        let row = self.close(tx_id, "commit_wait", out);
        let refused = Action::Note(tx_trace(&tx_id), "order.refused", String::new());
        out.push(refused);
        self.fail(tx_id, row, GatewayError::Busy, rng, out);
    }

    /// A commit — the home's event, or a probed peer's answer — completes
    /// the row, even one that overtook the ack. The home's, arriving at
    /// `home`, is a sample of the route's round trip.
    fn on_commit(&mut self, event: CommitEvent, home: Option<SimTime>, out: &mut Vec<Action<T>>) {
        let tx_id = event.tx_id;
        let Some(row) = self.rows.get_mut(&tx_id) else {
            return;
        };
        let payload = match &mut row.phase {
            Phase::Ordering { payload } => payload,
            Phase::CommitWait { payload, probes } => {
                if let (Some(probes), Some(now)) = (probes, home) {
                    self.routes[row.shard].sample(now - probes.acked);
                }
                payload
            }
            _ => return,
        };
        let payload = std::mem::take(payload);
        let row = self.close(tx_id, "commit_wait", out);
        let code = event.code;
        let reply = Reply::Committed {
            tx_id,
            code,
            payload,
        };
        out.push(Action::Own(Done(row.caller, Ok(reply))));
    }

    /// A wake-up fired. A probe asks the next peer ([`Gateway::probe`]). A
    /// deadline abandons the attempt — its span closes, its row leaves the
    /// table, nothing can leak — moves the home of the ring it blames and,
    /// unless a commit may be in, every attempt waiting on the node it
    /// blames ([`Gateway::fail_over`]); a backoff issues the next attempt.
    /// Tokens of finished requests do nothing.
    pub fn on_timer(&mut self, token: u64, rng: &mut DetRng) -> Vec<Action<T>> {
        let found = self.rows.iter().find(|(_, row)| row.token == Some(token));
        let Some((&tx_id, row)) = found else {
            return Vec::new();
        };
        if matches!(&row.phase, Phase::CommitWait { probes: Some(p), .. } if !p.left.is_zero()) {
            return self.probe(tx_id);
        }
        let mut row = self.rows.remove(&tx_id).expect("found above");
        row.token = None;
        use GatewayError::{CommitTimeout, EndorseTimeout};
        // Whose deadline it was: the endorser asked, the orderer that did
        // not answer, or — in commit-wait — the first endorser, which is
        // the peer that reports the commit.
        let (stage, event, error, blamed) = match row.phase {
            Phase::Endorsing { .. } => ("endorse", "endorse.timeout", EndorseTimeout, ENDORSERS),
            Phase::Ordering { .. } => ("commit_wait", "order.timeout", CommitTimeout, ORDERERS),
            Phase::CommitWait { .. } => ("commit_wait", "commit.timeout", CommitTimeout, ENDORSERS),
            Phase::Query => ("query", "query.timeout", EndorseTimeout, ENDORSERS),
            Phase::BackingOff => return self.next_attempt(row),
        };
        // The home moves past the expired position, unless an earlier
        // expiry moved it already.
        let (route, at) = (&mut self.routes[row.shard], row.at[blamed]);
        if route.home[blamed] == at {
            route.home[blamed] = route.after(blamed, at);
        }
        let dead = [&route.endorsers, &route.orderers][blamed][at];
        let mut out = vec![
            Action::SpanEnd(tx_trace(&tx_id), stage, String::new()),
            Action::Note(tx_trace(&tx_id), event, String::new()),
        ];
        if !matches!(row.phase, Phase::CommitWait { .. }) {
            self.fail_over(dead, &mut out);
        }
        self.fail(tx_id, row, error, rng, &mut out);
        out
    }

    /// The armed wake-up of the commit-wait row `tx_id` was a probe: asks
    /// the next endorser on the ring after the attempt's own — one place
    /// further along after each probe, skipping the attempt's own — whether
    /// the transaction committed, and arms the next probe, twice as late,
    /// or the deadline.
    fn probe(&mut self, tx_id: TxId) -> Vec<Action<T>> {
        let row = self
            .rows
            .get_mut(&tx_id)
            .expect("invariant: caller found it");
        let Phase::CommitWait {
            probes: Some(probes),
            ..
        } = &mut row.phase
        else {
            unreachable!("a probe fires on a probing row");
        };
        let route = &self.routes[row.shard];
        let ring = route.endorsers.len();
        let step = 1 + probes.sent as usize % (ring - 1);
        let peer = route.endorsers[(row.at[ENDORSERS] + step) % ring];
        probes.sent += 1;
        probes.next = probes.next * 2;
        let channel = route.channel.clone();
        let msg = FabricMsg::CommitStatus { channel, tx_id };
        let mut out = vec![
            Action::Note(tx_trace(&tx_id), "commit.probe", String::new()),
            Action::Send(peer, msg.wire_size(), msg),
        ];
        row.token = arm(&mut self.next_token, Some(probes.wake()), &mut out);
        out
    }

    /// A deadline blamed `dead`: each attempt waiting on it for its first
    /// endorsement, its query's or its orderer's answer, with an attempt
    /// left and another node on that ring, is abandoned and issued again at
    /// once, one place along its rings, in the order they were armed: a
    /// retry, noted `op.failover`. One still endorsing submits past `dead`.
    fn fail_over(&mut self, dead: ActorId, out: &mut Vec<Action<T>>) {
        let budget = self.retry.map_or(0, |policy| policy.max_attempts);
        let mut stranded = Vec::new();
        for (&tx_id, row) in &mut self.rows {
            let (route, at) = (&self.routes[row.shard], row.at);
            let rings = [&route.endorsers, &route.orderers];
            let on_dead = |ring: usize| rings[ring][at[ring]] == dead;
            let (stage, ring) = match row.phase {
                Phase::Endorsing { .. } if on_dead(ORDERERS) => {
                    row.at[ORDERERS] = route.after(ORDERERS, at[ORDERERS]);
                    continue;
                }
                Phase::Endorsing { .. } => ("endorse", ENDORSERS),
                Phase::Query => ("query", ENDORSERS),
                Phase::Ordering { .. } => ("commit_wait", ORDERERS),
                Phase::CommitWait { .. } | Phase::BackingOff => continue,
            };
            if on_dead(ring) && rings[ring].len() > 1 && row.attempts < budget {
                stranded.push((row.token, tx_id, stage));
            }
        }
        stranded.sort_unstable();
        for (_, tx_id, stage) in stranded {
            let row = self.close(tx_id, stage, out);
            out.push(Action::Note(tx_trace(&tx_id), "op.failover", String::new()));
            out.push(Action::Count(None, "retries", 1));
            out.extend(self.next_attempt(row));
        }
    }

    /// Issues the next attempt of a row out of the table, one place along both rings.
    fn next_attempt(&mut self, row: Row<T>) -> Vec<Action<T>> {
        let call = row.redo.expect("invariant: only a kept call goes again");
        let at = [ENDORSERS, ORDERERS].map(|ring| self.routes[row.shard].after(ring, row.at[ring]));
        self.issue(row.caller, row.shard, row.attempts, at, call)
    }

    /// The attempt under `tx_id` failed with `error`, and `row` is out of
    /// the table with nothing armed. A transient error goes back in to
    /// sleep out a jittered exponential backoff until the attempt budget
    /// is spent; everything else (and every failure without a policy) is
    /// the request's outcome.
    fn fail(
        &mut self,
        tx_id: TxId,
        mut row: Row<T>,
        error: GatewayError,
        rng: &mut DetRng,
        out: &mut Vec<Action<T>>,
    ) {
        if matches!(
            error,
            GatewayError::EndorseTimeout | GatewayError::CommitTimeout
        ) {
            out.push(Action::Count(None, "timeouts", 1));
        }
        let error = match self.retry {
            Some(policy) if error.is_retryable() => {
                match policy.after_failure(row.attempts, row.caller.trace(), rng, out) {
                    Ok(backoff) => {
                        row.token = arm(&mut self.next_token, Some(backoff), out);
                        row.phase = Phase::BackingOff;
                        self.rows.insert(tx_id, row);
                        return;
                    }
                    Err(exhausted) => exhausted,
                }
            }
            _ => error,
        };
        out.push(Action::Own(Done(row.caller, Err(error))));
    }
}

/// Arms a fresh wake-up after `delay`, if the phase has one configured.
fn arm<T>(
    next_token: &mut u64,
    delay: Option<SimDuration>,
    out: &mut Vec<Action<T>>,
) -> Option<u64> {
    let delay = delay?;
    *next_token += 1;
    out.push(Action::Arm(*next_token, delay));
    Some(*next_token)
}

//! The client gateway — the role of the paper's NodeJS client library on
//! top of the Fabric SDK — as a sans-IO state machine: one [`Gateway`]
//! per client takes what happened (a request, a Fabric message, a timer)
//! and answers with the [`Action`]s its host actor must perform, in order.
//!
//! One table holds every request of the client, on whichever channel. A
//! row is in one of four phases — *endorsing*, *commit-wait*, *query*,
//! *backing off* — and each phase waits on exactly one wake-up: under
//! deadlines the next re-send or the deadline, else the backoff sleep, so
//! a row exists exactly while its one timer is armed. A node silent past
//! the route's retransmission timeout for a wait (RFC 6298, per route and
//! wait: *endorse*, *order*, *commit*) is passed by a copy of the request
//! under the same tx id, one place further along its ring; an acked row
//! probes the endorsers with `CommitStatus` and re-broadcasts its
//! envelope. A tx id once broadcast is never replaced. DESIGN §9.2 has
//! every rule: the transition table, the homes and what moves them, the
//! RTO floors, and why copies are harmless.

use std::sync::Arc;

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
    /// Classifies a wire-level rejection string: `Busy`, else the
    /// endorser's rejection, or a query's.
    fn rejected(reason: String, query: bool) -> Self {
        match (reason == BUSY_REASON, query) {
            (true, _) => GatewayError::Busy,
            (false, true) => GatewayError::Query { reason },
            (false, false) => GatewayError::Endorsement { reason },
        }
    }

    /// True when the failure is transient and no envelope left — backpressure,
    /// a refusal, an endorse deadline —, so a fresh tx id may succeed.
    pub fn is_retryable(&self) -> bool {
        matches!(self, GatewayError::Busy | GatewayError::EndorseTimeout)
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

/// Deterministic retry policy for transient gateway failures: an attempt
/// whose envelope never left goes again under a fresh tx id after a
/// jittered exponential backoff, and a commit-wait deadline waits again for
/// the same envelope. All randomness comes from the client actor's seeded
/// stream, so runs are reproducible.
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
    /// transiently. With budget left: the retry counted and noted, and the
    /// backoff to sleep before it, drawn from `rng` and observed if one is
    /// given (else zero); spent: `Exhausted`, counted.
    pub fn after_failure<X, S>(
        &self,
        attempts: u32,
        trace: String,
        rng: Option<&mut DetRng>,
        out: &mut Vec<crate::action::Action<X, S>>,
    ) -> Result<SimDuration, GatewayError> {
        use crate::action::Action;
        if attempts >= self.max_attempts {
            out.push(Action::Count(None, "exhausted", 1));
            return Err(GatewayError::Exhausted { attempts });
        }
        out.push(Action::Count(None, "retries", 1));
        let backoff = rng.map(|rng| self.backoff(attempts, rng));
        out.extend(backoff.map(|backoff| Action::Observe("backoff", backoff)));
        let shown = backoff.map_or(String::new(), |backoff| format!(" backoff={backoff}"));
        let detail = format!("attempt={}{shown}", attempts + 1);
        out.push(Action::Note(trace, "op.retry", detail));
        Ok(backoff.unwrap_or_default())
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

/// The actions an input has answered with so far.
type Out<T> = Vec<Action<T>>;

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
/// one that just failed. A copy sent past a silent node, or an expired
/// deadline, moves the home of the ring it blames past that position, and
/// a probe's answer that completes a commit wait moves the endorsers' home
/// to its sender, each if the home still points at the attempt's position.
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
    /// Per [`Wait`], its smoothed round trip and mean deviation, once a
    /// row has been timed.
    rtt: [Option<(SimDuration, SimDuration)>; 3],
}

/// A route's rings, as indices into a pair of ring positions.
const ENDORSERS: usize = 0;
const ORDERERS: usize = 1;

/// The floor of the endorse and order waits' RTO (RFC 6298 §2.4 floors
/// its RTO too).
const MIN_RTO: SimDuration = SimDuration::from_millis(200);

/// The floor of the commit wait's RTO, above a healthy block's commit.
const MIN_COMMIT_RTO: SimDuration = SimDuration::from_millis(50);

/// The waits of a request, each timed on its own per route.
#[derive(Debug, Clone, Copy)]
enum Wait {
    /// A proposal (or query) to its first answer.
    Endorse,
    /// An envelope to the orderer's answer.
    Order,
    /// The orderer's answer to the home peer's commit event.
    Commit,
}

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
            rtt: [None; 3],
        }
    }

    /// The retransmission timeout of `wait`, `srtt + 4·rttvar`, floored
    /// at [`MIN_RTO`], or [`MIN_COMMIT_RTO`] for the commit wait; `before`
    /// until the first sample.
    fn rto(&self, wait: Wait, before: SimDuration) -> SimDuration {
        let rto = self.rtt[wait as usize].map_or(before, |(srtt, rttvar)| srtt + rttvar * 4);
        match wait {
            Wait::Commit => rto.max(MIN_COMMIT_RTO),
            Wait::Endorse | Wait::Order => rto.max(MIN_RTO),
        }
    }

    /// Folds one round trip of `wait` into its estimate, with RFC 6298's
    /// gains α = 1/8 and β = 1/4.
    fn sample(&mut self, wait: Wait, r: SimDuration) {
        let rtt = &mut self.rtt[wait as usize];
        *rtt = Some(match *rtt {
            None => (r, r / 2),
            Some((srtt, rttvar)) => {
                let error = srtt.max(r) - srtt.min(r);
                (srtt - srtt / 8 + r / 8, rttvar - rttvar / 4 + error / 4)
            }
        });
    }

    /// The position one place on from `at` on `ring`.
    fn after(&self, ring: usize, at: usize) -> usize {
        (at + 1) % [&self.endorsers, &self.orderers][ring].len()
    }

    /// The next status probe of `tx` in `wake`, counted: noted `note` and
    /// sent to the endorser one place past the last asked, from `at` — the
    /// attempt's own, which reports the commit and is never asked.
    fn probe<T>(&self, at: usize, wake: &mut Wake, tx: TxId, note: &'static str) -> [Action<T>; 2] {
        let ring = self.endorsers.len();
        let peer = self.endorsers[(at + 1 + wake.probed % (ring - 1)) % ring];
        wake.probed += 1;
        let channel = self.channel.clone();
        let msg = FabricMsg::CommitStatus { channel, tx_id: tx };
        let note = Action::Note(tx_trace(&tx), note, String::new());
        [note, Action::Send(peer, msg.wire_size(), msg)]
    }

    /// Moves `ring`'s home from position `from` to `to`, unless something
    /// moved it already: counted, and noted on the trace of `tx`.
    fn move_home<T>(&mut self, ring: usize, from: usize, to: usize, tx: &TxId, out: &mut Out<T>) {
        if self.home[ring] != from || from == to {
            return;
        }
        self.home[ring] = to;
        let detail = format!("{} {from}->{to}", ["endorsers", "orderers"][ring]);
        out.push(Action::Count(None, "home_moves", 1));
        out.push(Action::Note(tx_trace(tx), "route.home", detail));
    }

    /// `ring`'s node at position `at` let a wait of `tx` run out: the home
    /// moves past it, unless something moved it already.
    fn blame<T>(&mut self, ring: usize, at: usize, tx: &TxId, out: &mut Out<T>) {
        self.move_home(ring, at, self.after(ring, at), tx, out);
    }

    /// The wake-ups of a `wait` timed from `since` that may re-send `most`
    /// times, under the gateway's `endorse` and `commit` deadlines; `None`
    /// without the wait's own.
    fn wake(
        &self,
        wait: Wait,
        since: Option<SimTime>,
        most: usize,
        endorse: Option<SimDuration>,
        commit: Option<SimDuration>,
    ) -> Option<Wake> {
        let deadline = match wait {
            Wait::Endorse | Wait::Order => endorse,
            Wait::Commit => commit,
        };
        Some(Wake {
            since,
            sent: 0,
            most: u32::try_from(most).unwrap_or(u32::MAX),
            refused: 0,
            probed: 0,
            moves: 0,
            next: self.rto(wait, endorse.unwrap_or_default()),
            left: deadline?,
        })
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
    /// Endorsements of the proposal, which is kept for the envelope and
    /// for copies.
    Endorsing {
        signed: Box<SignedProposal>,
        responses: Vec<ProposalResponse>,
    },
    /// The commit notification of the submitted envelope, whose agreed
    /// chaincode response is the reply's payload. Until an orderer's answer
    /// (or a deadline) `acked` it, a re-send copies the envelope to the next
    /// orderer; after, it probes the commit's status.
    CommitWait {
        envelope: Arc<Envelope>,
        acked: bool,
    },
    /// The one endorser's answer; the proposal is kept for copies under
    /// an endorse deadline.
    Query { signed: Option<Box<SignedProposal>> },
    /// The backoff sleep of an attempt whose envelope never left. The row
    /// stays under its tx id, whose late replies it ignores.
    BackingOff,
}

/// The wake-ups of a row's wait under its deadline: a re-send each time
/// the route's RTO for the wait runs out, twice as late each time, while
/// one is left; then the deadline.
#[derive(Debug)]
struct Wake {
    /// When the wait began: its answer times the route's round trip from
    /// here. `None` after a deadline: the answer may be the earlier wait's.
    since: Option<SimTime>,
    /// Re-sends so far: copies of the request, or in commit-wait status
    /// probes.
    sent: u32,
    /// How many re-sends the wait may make.
    most: u32,
    /// Refusals of the request so far.
    refused: u32,
    /// Status probes so far, timed or not: they walk the endorsers.
    probed: usize,
    /// Probes a "not found" may still send before the next timed one.
    moves: usize,
    /// The wait from now, or from the armed re-send, to the next re-send.
    next: SimDuration,
    /// The wait from now, or from the armed re-send, to the deadline; zero
    /// once the armed wake-up is the deadline itself.
    left: SimDuration,
}

impl Wake {
    /// The delay to arm the wait's one wake-up at: the next re-send, if
    /// one is left and it comes before the deadline, else the deadline. A
    /// zero timeout re-sends never.
    fn arm(&mut self) -> SimDuration {
        if self.sent < self.most && !self.next.is_zero() && self.next < self.left {
            self.left = self.left - self.next;
            self.next
        } else {
            std::mem::take(&mut self.left)
        }
    }

    /// The round trip of a wait answered at `now`, unless it re-sent.
    fn sample(&self, now: SimTime) -> Option<SimDuration> {
        Some(now - self.since?).filter(|_| self.sent == 0)
    }
}

/// One caller request, from `invoke` / `query` to its `Done`.
#[derive(Debug)]
struct Row<T> {
    caller: T,
    /// The route it was issued on.
    shard: usize,
    /// Attempts so far (1 = first try); one after submit waits again.
    attempts: u32,
    /// The ring positions the latest attempt used (first endorser, orderer);
    /// a copy moves them on to where it went.
    at: [usize; 2],
    /// The armed wake-up, if the phase has one configured.
    token: Option<u64>,
    /// The wait's re-sends and deadline, under a deadline.
    wake: Option<Wake>,
    /// The call, to issue it again (kept only under a retry policy).
    redo: Option<Call>,
    phase: Phase,
}

impl<T> Row<T> {
    /// Counts a refusal of the attempt's request: true while a copy sent to
    /// another node may still answer it.
    fn another_copy_out(&mut self) -> bool {
        self.wake.as_mut().is_some_and(|wake| {
            wake.refused += 1;
            wake.refused <= wake.sent
        })
    }
}

hyperprov_sim::view! {
    /// A gateway's view: its rows in flight by phase, and each route's.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct GatewayView {
        /// Rows collecting endorsements.
        pub endorsing: usize,
        /// Rows waiting for a commit.
        pub commit_wait: usize,
        /// Rows waiting for a query's answer.
        pub query: usize,
        /// Rows sleeping out a backoff.
        pub backing_off: usize,
        /// The rows' attempts so far.
        pub attempts: u32,
        /// The copies their current waits sent: requests re-sent past a
        /// silent node, commit-status probes.
        pub copies: u32,
        /// Each route, by shard.
        pub routes: Vec<RouteView>,
    }

    /// One route of a [`GatewayView`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RouteView {
        /// Where a first attempt starts: the home endorser and orderer.
        pub homes: (ActorId, ActorId),
        /// The retransmission timeout of the endorse, order and commit waits.
        pub rto: [SimDuration; 3],
    }
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
    /// and the orderer's answer (and, read through
    /// [`Gateway::endorse_deadline`], each off-chain transfer of the
    /// HyperProv client), `commit` the commit-wait phase. `None` leaves a
    /// phase unbounded (the default: no timer is ever set), and without
    /// deadlines nothing is ever re-sent.
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

    /// Enables transparent retries of transient failures under `policy`
    /// until the attempt budget is spent (see [`RetryPolicy`]).
    #[must_use]
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Number of channels this gateway has a route to.
    pub fn shards(&self) -> usize {
        self.routes.len()
    }

    /// The deadline of the endorsement phase and of queries, if any.
    pub fn endorse_deadline(&self) -> Option<SimDuration> {
        self.endorse_timeout
    }

    /// The retry policy, if any.
    pub fn retry_policy(&self) -> Option<RetryPolicy> {
        self.retry
    }

    /// Its rows by phase, what they spent so far, and where each route
    /// stands.
    pub fn view(&self) -> GatewayView {
        let route = |route: &Route| {
            let [endorser, orderer] = route.home;
            let rto = |wait| route.rto(wait, self.endorse_timeout.unwrap_or_default());
            RouteView {
                homes: (route.endorsers[endorser], route.orderers[orderer]),
                rto: [rto(Wait::Endorse), rto(Wait::Order), rto(Wait::Commit)],
            }
        };
        let routes = self.routes.iter().map(route).collect();
        let mut view = GatewayView {
            routes,
            ..GatewayView::default()
        };
        for row in self.rows.values() {
            *match row.phase {
                Phase::Endorsing { .. } => &mut view.endorsing,
                Phase::CommitWait { .. } => &mut view.commit_wait,
                Phase::Query { .. } => &mut view.query,
                Phase::BackingOff => &mut view.backing_off,
            } += 1;
            view.attempts += row.attempts;
            view.copies += row.wake.as_ref().map_or(0, |wake| wake.sent);
        }
        view
    }

    /// Starts a full transaction on route `shard` at `now`: endorse on the
    /// `endorsements_needed` endorsers from the route's home endorser on,
    /// then order at its home orderer, then wait for the commit event.
    pub fn invoke(
        &mut self,
        shard: usize,
        caller: T,
        now: SimTime,
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
        self.issue(caller, shard, 0, at, call, now)
    }

    /// Starts an endorse-only query at `now` against the home endorser of
    /// route `shard`.
    pub fn query(
        &mut self,
        shard: usize,
        caller: T,
        now: SimTime,
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
        self.issue(caller, shard, 0, at, call, now)
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
        now: SimTime,
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
        let signed = SignedProposal {
            proposal,
            signature,
        };
        let ring = route.endorsers.len();
        // The endorse span covers the whole collection phase: it closes
        // at submit (or on failure), where `commit_wait` opens.
        let (targets, stage, phase) = if call.invoke {
            let phase = Phase::Endorsing {
                signed: Box::new(signed.clone()),
                responses: Vec::new(),
            };
            (route.endorsements_needed, "endorse", phase)
        } else {
            let copies = self.endorse_timeout.filter(|_| ring > 1);
            let signed = copies.map(|_| Box::new(signed.clone()));
            (1, "query", Phase::Query { signed })
        };
        let (endorse, commit) = (self.endorse_timeout, self.commit_timeout);
        let mut wake = route.wake(Wait::Endorse, Some(now), ring - targets, endorse, commit);
        let mut out = Vec::with_capacity(3 + targets);
        out.push(Action::Charge(costs::client_proposal_cost(wire)));
        out.push(Action::SpanStart(tx_trace(&tx_id), stage, String::new()));
        let token = arm(&mut self.next_token, wake.as_mut().map(Wake::arm), &mut out);
        // The last endorser gets the proposal by move, the rest by clone.
        let mut signed = Some(signed);
        let route = &self.routes[shard];
        for i in 0..targets {
            let endorser = route.endorsers[(at[ENDORSERS] + i) % ring];
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
            wake,
            redo,
            phase,
        };
        self.rows.insert(tx_id, row);
        out
    }

    /// Feeds an incoming Fabric message from `src` to the gateway. Messages
    /// that are not an answer to a live attempt — another client's commit,
    /// a reply to an attempt that already timed out, an extra endorsement
    /// after submit, a second copy's commit — do nothing. It arrived at
    /// `now`, which times the wait it answers; `rng` is the host actor's
    /// stream: a rejection that is retried draws its backoff from it.
    pub fn on_message(
        &mut self,
        src: ActorId,
        msg: FabricMsg,
        now: SimTime,
        rng: &mut DetRng,
    ) -> Vec<Action<T>> {
        let mut out = Vec::new();
        match msg {
            FabricMsg::ProposalResult(resp) => self.on_response(resp, now, rng, &mut out),
            FabricMsg::BroadcastAck { tx_id, accepted } => {
                self.on_ack(tx_id, accepted, now, rng, &mut out);
            }
            FabricMsg::Commit(event) => self.on_commit(event, now, None, &mut out),
            FabricMsg::CommitStatusAnswer(event) => self.on_commit(event, now, Some(src), &mut out),
            FabricMsg::CommitStatusNotFound(tx_id) => self.on_not_found(tx_id, &mut out),
            _ => {}
        }
        out
    }

    fn on_response(
        &mut self,
        resp: ProposalResponse,
        now: SimTime,
        rng: &mut DetRng,
        out: &mut Out<T>,
    ) {
        let tx_id = resp.tx_id;
        let Some(row) = self.rows.get_mut(&tx_id) else {
            return;
        };
        let route = &mut self.routes[row.shard];
        // The first answer, if nothing was re-sent, times the route.
        let first = match &row.phase {
            Phase::Endorsing { responses, .. } => responses.is_empty(),
            Phase::Query { .. } => true,
            Phase::CommitWait { .. } | Phase::BackingOff => return,
        };
        let wake = row.wake.as_ref().filter(|wake| first && wake.refused == 0);
        if let Some(rtt) = wake.and_then(|wake| wake.sample(now)) {
            route.sample(Wait::Endorse, rtt);
        }
        // Fail fast, as the Fabric SDK does, once no copy is left.
        if resp.result.is_err() && row.another_copy_out() {
            return;
        }
        let needed = route.endorsements_needed;
        let (stage, note, error) = match &mut row.phase {
            Phase::Query { .. } => match resp.result {
                Ok(bytes) => {
                    let row = self.close(tx_id, "query", out);
                    out.push(Action::Own(Done(row.caller, Ok(Reply::Bytes(bytes)))));
                    return;
                }
                Err(reason) => ("query", None, GatewayError::rejected(reason, true)),
            },
            Phase::Endorsing { responses, .. } => match &resp.result {
                Err(reason) => (
                    "endorse",
                    Some(("endorse.rejected", reason.clone())),
                    GatewayError::rejected(reason.clone(), false),
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
                        return self.submit(tx_id, now, out);
                    }
                    let note = ("endorse.mismatch", String::new());
                    ("endorse", Some(note), GatewayError::Mismatch)
                }
            },
            Phase::CommitWait { .. } | Phase::BackingOff => unreachable!("answered above"),
        };
        let row = self.close(tx_id, stage, out);
        if let Some((name, detail)) = note {
            out.push(Action::Note(tx_trace(&tx_id), name, detail));
        }
        self.fail(tx_id, row, error, rng, out);
    }

    /// The attempt under `tx_id` got its answer: takes its row out of the
    /// table, disarming its deadline and closing its `stage` span.
    fn close(&mut self, tx_id: TxId, stage: &'static str, out: &mut Out<T>) -> Row<T> {
        let mut row = self.rows.remove(&tx_id).expect("invariant: in the table");
        out.extend(row.token.take().map(Action::Disarm));
        out.push(Action::SpanEnd(tx_trace(&tx_id), stage, String::new()));
        row
    }

    /// All endorsements are in and agree at `now`: assembles the envelope,
    /// broadcasts it to this attempt's orderer and waits — for its answer
    /// under an endorse deadline, else for the commit — so a lost
    /// broadcast or commit notification cannot wedge the client.
    fn submit(&mut self, tx_id: TxId, now: SimTime, out: &mut Out<T>) {
        let row = self.rows.get_mut(&tx_id).expect("invariant: in the table");
        let Phase::Endorsing { signed, responses } =
            std::mem::replace(&mut row.phase, Phase::BackingOff)
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
        let first = responses.into_iter().next().expect("needed >= 1");
        let sent = Arc::new(Envelope {
            proposal: signed.proposal,
            payload: first.result.unwrap_or_default(),
            rwset: first.rwset,
            event: first.event,
            endorsements,
        });
        let orderer = self.routes[row.shard].orderers[row.at[ORDERERS]];
        let (envelope, acked) = (Arc::clone(&sent), false);
        row.phase = Phase::CommitWait { envelope, acked };
        let ack = self.endorse_timeout.is_some();
        let wait = if ack { Wait::Order } else { Wait::Commit };
        self.start_wait(tx_id, wait, Some(now), out);
        let bytes = sent.wire_size();
        let msg = FabricMsg::Broadcast {
            envelope: sent,
            ack,
            copy: false,
        };
        out.push(Action::Send(orderer, bytes, msg));
        // The two spans are contiguous, so their durations sum exactly to
        // the end-to-end invoke latency.
        let trace = tx_trace(&tx_id);
        out.push(Action::SpanEnd(trace.clone(), "endorse", String::new()));
        out.push(Action::SpanStart(trace, "commit_wait", String::new()));
    }

    /// An orderer answered the envelope at `now`, which only a row not yet
    /// acked hears: taken in, the row waits for the commit; refused, the
    /// attempt fails `Busy` once no other copy is out.
    fn on_ack(
        &mut self,
        tx_id: TxId,
        accepted: bool,
        now: SimTime,
        rng: &mut DetRng,
        out: &mut Out<T>,
    ) {
        let Some(row) = self.rows.get_mut(&tx_id) else {
            return;
        };
        let Phase::CommitWait { acked: false, .. } = row.phase else {
            return;
        };
        if accepted {
            if let Some(rtt) = row.wake.as_ref().and_then(|wake| wake.sample(now)) {
                self.routes[row.shard].sample(Wait::Order, rtt);
            }
            return self.start_wait(tx_id, Wait::Commit, Some(now), out);
        }
        if row.another_copy_out() {
            return;
        }
        let row = self.close(tx_id, "commit_wait", out);
        let refused = Action::Note(tx_trace(&tx_id), "order.refused", String::new());
        out.push(refused);
        self.fail(tx_id, row, GatewayError::Busy, rng, out);
    }

    /// Submitted row `tx_id` waits for the orderer's answer or, acked, for
    /// the commit, timed from `since` if at all: under the wait's deadline,
    /// from the route's RTO on it copies the envelope to the other orderers
    /// or, under an endorse deadline, probes the other endorsers.
    fn start_wait(&mut self, tx_id: TxId, wait: Wait, since: Option<SimTime>, out: &mut Out<T>) {
        let row = self.rows.get_mut(&tx_id).expect("invariant: in the table");
        let route = &self.routes[row.shard];
        let (endorse, commit) = (self.endorse_timeout, self.commit_timeout);
        let most = match wait {
            Wait::Order => route.orderers.len() - 1,
            _ if endorse.is_some() && route.endorsers.len() > 1 => usize::MAX,
            _ => 0,
        };
        let mut wake = route.wake(wait, since, most, endorse, commit);
        out.extend(row.token.take().map(Action::Disarm));
        row.token = arm(&mut self.next_token, wake.as_mut().map(Wake::arm), out);
        row.wake = wake;
        if let Phase::CommitWait { acked, .. } = &mut row.phase {
            *acked = matches!(wait, Wait::Commit);
        }
    }

    /// A commit arriving at `now` — the home's event, or the answer of the
    /// `probed` peer — completes the row, even one that overtook the ack; a
    /// second copy's, coded `DuplicateTxId`, does nothing. Once acked the
    /// home's is a sample of the route's commit wait, and a probed peer's
    /// answer moves the endorsers' home to that peer.
    fn on_commit(
        &mut self,
        event: CommitEvent,
        now: SimTime,
        probed: Option<ActorId>,
        out: &mut Out<T>,
    ) {
        let tx_id = event.tx_id;
        if event.code == ValidationCode::DuplicateTxId {
            return;
        }
        let Some(row) = self.rows.get_mut(&tx_id) else {
            return;
        };
        let Phase::CommitWait { acked, .. } = row.phase else {
            return;
        };
        if acked {
            let route = &mut self.routes[row.shard];
            if let (None, Some(since)) = (probed, row.wake.as_ref().and_then(|wake| wake.since)) {
                route.sample(Wait::Commit, now - since);
            }
            let at = probed.and_then(|peer| route.endorsers.iter().position(|&p| p == peer));
            if let Some(to) = at {
                route.move_home(ENDORSERS, row.at[ENDORSERS], to, &tx_id, out);
            }
        }
        let row = self.close(tx_id, "commit_wait", out);
        let Phase::CommitWait { envelope, .. } = row.phase else {
            unreachable!("matched above");
        };
        // The orderers dropped their copies on taking the envelope in.
        let payload = Arc::try_unwrap(envelope).map_or_else(|e| e.payload.clone(), |e| e.payload);
        let code = event.code;
        let reply = Reply::Committed {
            tx_id,
            code,
            payload,
        };
        out.push(Action::Own(Done(row.caller, Ok(reply))));
    }

    /// A probed peer holds no code for `tx_id`: a row with a move left —
    /// only a commit-wait probe grants moves — probes the next endorser at
    /// once and arms nothing. Like a `DuplicateTxId`, the answer never ends
    /// a row and times nothing.
    fn on_not_found(&mut self, tx_id: TxId, out: &mut Out<T>) {
        let Some(row) = self.rows.get_mut(&tx_id) else {
            return;
        };
        if let Some(wake) = row.wake.as_mut().filter(|wake| wake.moves > 0) {
            wake.moves -= 1;
            let route = &self.routes[row.shard];
            out.extend(route.probe(row.at[ENDORSERS], wake, tx_id, "commit.reprobe"));
        }
    }

    /// A wake-up fired at `now`. A re-send sends a copy on
    /// ([`Gateway::resend`]). A deadline moves the home of the ring it
    /// blames and, before submit, abandons the attempt — its span closes,
    /// its row leaves the table, nothing can leak —; after, see
    /// [`Gateway::wait_again`]. A backoff issues the next attempt. Tokens
    /// of finished requests do nothing.
    pub fn on_timer(&mut self, token: u64, now: SimTime, rng: &mut DetRng) -> Vec<Action<T>> {
        let found = self
            .rows
            .iter_mut()
            .find(|(_, row)| row.token == Some(token));
        let Some((&tx_id, row)) = found else {
            return Vec::new();
        };
        if row.wake.as_ref().is_some_and(|wake| !wake.left.is_zero()) {
            return self.resend(tx_id);
        }
        row.token = None;
        // Whose deadline it was: the endorser asked, the orderer that did
        // not answer, or — once acked — the first endorser, which is the
        // peer that reports the commit.
        let (stage, event, blamed) = match row.phase {
            Phase::Endorsing { .. } => ("endorse", "endorse.timeout", ENDORSERS),
            Phase::CommitWait { acked: false, .. } => ("commit_wait", "order.timeout", ORDERERS),
            Phase::CommitWait { acked: true, .. } => ("commit_wait", "commit.timeout", ENDORSERS),
            Phase::Query { .. } => ("query", "query.timeout", ENDORSERS),
            Phase::BackingOff => {
                let row = self.rows.remove(&tx_id).expect("found above");
                return self.next_attempt(row, now);
            }
        };
        let (shard, at, mut out) = (row.shard, row.at[blamed], Vec::new());
        let ended = (stage != "commit_wait").then(|| self.close(tx_id, stage, &mut out));
        out.push(Action::Note(tx_trace(&tx_id), event, String::new()));
        self.routes[shard].blame(blamed, at, &tx_id, &mut out);
        out.push(Action::Count(None, "timeouts", 1));
        match ended {
            Some(row) => self.fail(tx_id, row, GatewayError::EndorseTimeout, rng, &mut out),
            None => self.wait_again(tx_id, &mut out),
        }
        out
    }

    /// The commit-wait deadline of row `tx_id` passed. Its envelope may
    /// have reached an orderer, so its tx id stays: with budget left the
    /// retry, drawing no backoff, sends it again, marked `copy`, to the next
    /// orderer — on a ring of one, to that one — and waits again for the
    /// commit, timing nothing; spent, the row ends `Exhausted`, with no
    /// policy `CommitTimeout`.
    fn wait_again(&mut self, tx_id: TxId, out: &mut Out<T>) {
        let row = self.rows.get_mut(&tx_id).expect("invariant: in the table");
        let trace = row.caller.trace();
        let error = match self.retry {
            None => GatewayError::CommitTimeout,
            Some(policy) => match policy.after_failure(row.attempts, trace, None, out) {
                Err(exhausted) => exhausted,
                Ok(_) => {
                    let route = &self.routes[row.shard];
                    row.attempts += 1;
                    row.at[ORDERERS] = route.after(ORDERERS, row.at[ORDERERS]);
                    if let Phase::CommitWait { envelope, .. } = &row.phase {
                        let (bytes, msg) = copy_of(envelope, false);
                        out.push(Action::Send(route.orderers[row.at[ORDERERS]], bytes, msg));
                    }
                    return self.start_wait(tx_id, Wait::Commit, None, out);
                }
            },
        };
        let row = self.close(tx_id, "commit_wait", out);
        out.push(Action::Own(Done(row.caller, Err(error))));
    }

    /// The armed wake-up of row `tx_id` was a re-send, and arms the next,
    /// twice as late, or the deadline. An endorsing or query row sends its
    /// proposal one endorser past its window, which moves on past its first
    /// (silent) endorser; a commit-wait row not yet acked its envelope to
    /// the next orderer. Once acked it asks the next endorser after its own
    /// — one place further along each time, skipping its own — whether the transaction
    /// committed, which lets a "not found" move the probe on again, once
    /// around the ring; from its second probe on it also sends its
    /// envelope, unasked, to the orderers after its own in the same way.
    fn resend(&mut self, tx_id: TxId) -> Vec<Action<T>> {
        let row = self.rows.get_mut(&tx_id).expect("invariant: in the table");
        let wake = row.wake.as_mut().expect("a re-send has a wake-up");
        let route = &mut self.routes[row.shard];
        let (trace, sent) = (tx_trace(&tx_id), wake.sent);
        wake.sent += 1;
        wake.next = wake.next * 2;
        let mut out = Vec::with_capacity(6);
        // Each copy is noted; a wait is counted once, at its first: under
        // `resent`, or once acked under `rebroadcasts`.
        let resent = (sent == 0).then_some("resent");
        let (copy, note, counted) = match &row.phase {
            Phase::Endorsing { signed, .. }
            | Phase::Query {
                signed: Some(signed),
            } => {
                let window = match row.phase {
                    Phase::Endorsing { .. } => route.endorsements_needed,
                    _ => 1,
                };
                route.blame(ENDORSERS, row.at[ENDORSERS], &tx_id, &mut out);
                row.at[ENDORSERS] = route.after(ENDORSERS, row.at[ENDORSERS]);
                let ring = route.endorsers.len();
                let to = route.endorsers[(row.at[ENDORSERS] + window - 1) % ring];
                let wire = signed.proposal.wire_size() + 32;
                let msg = FabricMsg::SubmitProposal(SignedProposal::clone(signed));
                (Some((to, wire, msg)), "endorse.resend", resent)
            }
            Phase::CommitWait {
                envelope,
                acked: false,
            } => {
                route.blame(ORDERERS, row.at[ORDERERS], &tx_id, &mut out);
                row.at[ORDERERS] = route.after(ORDERERS, row.at[ORDERERS]);
                let (bytes, msg) = copy_of(envelope, true);
                let copy = (route.orderers[row.at[ORDERERS]], bytes, msg);
                (Some(copy), "order.resend", resent)
            }
            Phase::CommitWait { envelope, .. } => {
                wake.moves = route.endorsers.len() - 2;
                out.extend(route.probe(row.at[ENDORSERS], wake, tx_id, "commit.probe"));
                let orderers = route.orderers.len();
                let copy = (sent >= 1 && orderers > 1).then(|| {
                    let step = 1 + (sent as usize - 1) % (orderers - 1);
                    let to = route.orderers[(row.at[ORDERERS] + step) % orderers];
                    let (bytes, msg) = copy_of(envelope, false);
                    (to, bytes, msg)
                });
                let rebroadcasts = (sent == 1).then_some("rebroadcasts");
                (copy, "commit.rebroadcast", rebroadcasts)
            }
            Phase::Query { signed: None } | Phase::BackingOff => {
                unreachable!("a re-send fires on a row with something to send")
            }
        };
        if let Some((to, bytes, msg)) = copy {
            out.extend(counted.map(|name| Action::Count(None, name, 1)));
            out.push(Action::Note(trace, note, String::new()));
            out.push(Action::Send(to, bytes, msg));
        }
        let delay = row.wake.as_mut().map(Wake::arm);
        row.token = arm(&mut self.next_token, delay, &mut out);
        out
    }

    /// Issues the next attempt of a row out of the table at `now`, one
    /// place along both rings.
    fn next_attempt(&mut self, row: Row<T>, now: SimTime) -> Vec<Action<T>> {
        let call = row.redo.expect("invariant: only a kept call goes again");
        let at = [ENDORSERS, ORDERERS].map(|ring| self.routes[row.shard].after(ring, row.at[ring]));
        self.issue(row.caller, row.shard, row.attempts, at, call, now)
    }

    /// The attempt under `tx_id`, whose envelope never left, failed with
    /// `error`, and `row` is out of the table with nothing armed. A
    /// transient error goes back in to sleep out a jittered exponential
    /// backoff until the attempt budget is spent; everything else (and every
    /// failure without a policy) is the request's outcome.
    fn fail(
        &mut self,
        tx_id: TxId,
        mut row: Row<T>,
        error: GatewayError,
        rng: &mut DetRng,
        out: &mut Out<T>,
    ) {
        let error = match self.retry {
            Some(policy) if error.is_retryable() => {
                match policy.after_failure(row.attempts, row.caller.trace(), Some(rng), out) {
                    Ok(backoff) => {
                        row.token = arm(&mut self.next_token, Some(backoff), out);
                        row.wake = None;
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

/// A copy of `envelope` to send again, asking for the orderer's answer or
/// not: its wire size and the message.
fn copy_of(envelope: &Arc<Envelope>, ack: bool) -> (u64, FabricMsg) {
    let (envelope, copy) = (Arc::clone(envelope), true);
    let msg = FabricMsg::Broadcast {
        envelope,
        ack,
        copy,
    };
    (msg.wire_size(), msg)
}

/// Arms a fresh wake-up after `delay`, if the phase has one configured.
fn arm<T>(next_token: &mut u64, delay: Option<SimDuration>, out: &mut Out<T>) -> Option<u64> {
    let delay = delay?;
    *next_token += 1;
    out.push(Action::Arm(*next_token, delay));
    Some(*next_token)
}

//! How a peer gets current again, as a sans-IO state machine: one
//! [`CatchUp`] per hosted channel takes what happened (a delivery was
//! drained, the retry timer fired, a snapshot offer or part arrived, the
//! peer joined, restarted or booted a fetched snapshot) and answers with
//! the [`Action`]s the peer actor must perform, in order.
//!
//! Two waits run side by side. The *block wait* says that blocks from a
//! height are awaited from block delivery: gap-driven while a later block
//! sits in the peer's buffer (blocks are missing for certain — never given
//! up), goal-only otherwise (a restart, a join, the delta above a booted
//! snapshot — given up after [`CATCHUP_GIVE_UP`] retries); growth past the
//! height ends it. The *fetch* says where the snapshot ladder stands:
//! idle, awaiting an offer from provider `i`, or downloading its parts.
//! The retry timer is armed exactly while either is outstanding; every
//! firing resends with a longer backoff, and a block wait that stays stuck
//! climbs the ladder: resend [`CATCHUP_ESCALATE_AFTER`] times → first
//! provider → next provider on no offer, a useless offer, a vanished
//! snapshot, a failed boot or a download stalled or corrupted
//! `2 * CATCHUP_ESCALATE_AFTER` times in a row → block re-delivery from
//! the catch-up target once the ladder is exhausted, and round again.

use std::sync::Arc;

use hyperprov_ledger::{ChannelId, Snapshot, SnapshotManifest, SnapshotPart};
use hyperprov_sim::{ActorId, SimDuration};

use crate::messages::FabricMsg;

/// Initial catch-up retry backoff in nanoseconds (200 ms; doubles per
/// attempt, capped at 32×).
const CATCHUP_RETRY_BASE_NS: u64 = 200_000_000;
/// Resends at the same height before a stalled block wait escalates to a
/// snapshot fetch (when providers are configured); a part download stalled
/// for twice as long moves to the next provider.
pub const CATCHUP_ESCALATE_AFTER: u32 = 3;
/// Retries without progress before a goal-only wait (nothing is proven
/// missing) stops re-requesting; a gap-driven wait never gives up, since
/// a buffered later block proves progress is needed.
pub const CATCHUP_GIVE_UP: u32 = 8;

/// Deterministic decorrelated backoff: exponential in `attempts` with up
/// to +50% jitter hashed from the peer's salt and the attempt number. The
/// peer's RNG stream deliberately stays untouched — the kernel also draws
/// this peer's network jitter from it, so consuming it here would perturb
/// the timing of unrelated sends and break fixture reproducibility; a hash
/// gives the same per-peer decorrelation.
fn retry_delay(salt: u64, attempts: u32) -> SimDuration {
    let base = CATCHUP_RETRY_BASE_NS << attempts.min(5);
    let mut h = salt ^ (u64::from(attempts) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 31;
    SimDuration::from_nanos(base + h % (base / 2 + 1))
}

/// One thing the peer actor must do for the machine, in the order given.
/// (Short-lived and mostly sends: boxing the message would buy nothing.)
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Action {
    /// Send `msg` to the actor.
    Send(ActorId, FabricMsg),
    /// (Re-)arm the channel's retry timer for this delay, replacing a
    /// pending one.
    Arm(SimDuration),
    /// Cancel the retry timer.
    Disarm,
    /// Add one to the channel's counter of this name.
    Count(&'static str),
    /// Charge the digest check over this many received snapshot bytes.
    Ingested(u64),
    /// Boot the ledger from this fetched snapshot, then report the
    /// outcome through [`CatchUp::booted`] before any other input.
    Boot(Snapshot),
}

/// The block wait: blocks from a height are awaited from block delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wait {
    /// A request from this height is out. This is the repeat guard: a
    /// delivery that shows a gap at the same height does not ask again.
    Asked(u64),
    /// The target was asked after a restart, but the guard stays clear:
    /// the first live block that shows a gap still asks its sender.
    Restarted(u64),
}

/// What the snapshot fetch is waiting for from the provider at the
/// current rung of the ladder (volatile; lost on crash).
#[derive(Debug)]
enum Fetch {
    Idle,
    /// Its manifest.
    AwaitOffer,
    /// The parts of `manifest` still missing.
    Parts {
        manifest: Box<SnapshotManifest>,
        parts: Vec<Option<SnapshotPart>>,
    },
}

hyperprov_sim::view! {
    /// Where a [`CatchUp`] stands.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct CatchUpView {
        /// Whether it waits for nothing.
        pub current: bool,
        /// Ladder index of the provider the snapshot fetch is at.
        pub rung: usize,
        /// The height the block wait awaits blocks from, if one is out.
        pub wait: Option<u64>,
    }
}

/// The catch-up protocol of one hosted channel.
#[derive(Debug)]
pub struct CatchUp {
    channel: ChannelId,
    /// Where to re-request blocks from (normally the channel's ordering
    /// node); gap requests answer the sender of the revealing block.
    target: Option<ActorId>,
    /// Peers that serve snapshots, tried in order.
    providers: Vec<ActorId>,
    /// Per-peer jitter salt of the backoff.
    salt: u64,
    /// Consecutive timer firings without progress: drives the backoff,
    /// the escalation and the give-up.
    attempts: u32,
    wait: Option<Wait>,
    fetch: Fetch,
    /// Ladder index of the provider the fetch is at.
    rung: usize,
}

impl CatchUp {
    /// A machine for `channel` that is current. `target` is the node asked
    /// to re-deliver blocks (normally the channel's ordering node); `salt`
    /// decorrelates this peer's backoff from the others'.
    pub fn new(channel: ChannelId, target: Option<ActorId>, salt: u64) -> Self {
        CatchUp {
            channel,
            target,
            providers: Vec::new(),
            salt,
            attempts: 0,
            wait: None,
            fetch: Fetch::Idle,
            rung: 0,
        }
    }

    /// Sets the snapshot provider ladder, tried in order.
    pub fn set_providers(&mut self, providers: Vec<ActorId>) {
        self.providers = providers;
    }

    /// Nothing is outstanding, so the retry timer is not armed; in every
    /// other state it is.
    fn is_current(&self) -> bool {
        self.wait.is_none() && matches!(self.fetch, Fetch::Idle)
    }

    /// Where it stands.
    pub fn view(&self) -> CatchUpView {
        CatchUpView {
            current: self.is_current(),
            rung: self.rung,
            wait: self.wait.map(|(Wait::Asked(at) | Wait::Restarted(at))| at),
        }
    }

    /// A delivered block from `from` was buffered and every consecutive
    /// block committed: the chain now stands at `height`, and `buffered`
    /// says whether a later block is still waiting above it.
    pub fn delivered(&mut self, from: ActorId, height: u64, buffered: bool) -> Vec<Action> {
        let mut out = Vec::new();
        if buffered {
            // Re-delivery is asked of whoever sent the revealing block —
            // Fabric's deliver service, which is how a peer catches up
            // after a partition heals.
            if self.wait != Some(Wait::Asked(height)) {
                self.wait = Some(Wait::Asked(height));
                out.push(Action::Count("catchup_requests"));
                self.ask(from, height, &mut out);
            }
        } else if !self.is_current() {
            if matches!(self.wait, Some(Wait::Asked(at) | Wait::Restarted(at)) if height > at) {
                self.wait = None;
            }
            if self.is_current() {
                self.attempts = 0;
                out.push(Action::Disarm);
            }
        }
        out
    }

    /// The retry timer fired: resend whatever is outstanding with a longer
    /// backoff, climbing the ladder when it stays stuck. The request or
    /// its answer can be lost, and without this the repeat guard would
    /// stall catch-up until an unrelated delivery.
    pub fn timer_fired(&mut self, height: u64, buffered: bool) -> Vec<Action> {
        let mut out = Vec::new();
        let stop = self.wait.is_none() || (!buffered && self.attempts >= CATCHUP_GIVE_UP);
        if stop && matches!(self.fetch, Fetch::Idle) {
            // Given up: a delivery that shows a real gap starts over.
            self.wait = None;
            self.attempts = 0;
            return out;
        }
        self.attempts += 1;
        out.push(Action::Count("catchup_retries"));
        match self.fetch {
            Fetch::Idle if self.attempts > CATCHUP_ESCALATE_AFTER && !self.providers.is_empty() => {
                self.begin_fetch(0, height, &mut out);
            }
            Fetch::Idle => self.ask_target(height, false, &mut out),
            Fetch::AwaitOffer => self.begin_fetch(self.rung + 1, height, &mut out),
            Fetch::Parts { .. } => self.retry_download(height, &mut out),
        }
        out
    }

    /// A provider's manifest offer. Only a snapshot strictly ahead of the
    /// local chain helps; anything else advances the ladder, since block
    /// re-delivery is then the cheaper path.
    pub fn offer(
        &mut self,
        from: ActorId,
        height: u64,
        manifest: Option<Box<SnapshotManifest>>,
    ) -> Vec<Action> {
        let mut out = Vec::new();
        if !matches!(self.fetch, Fetch::AwaitOffer) {
            return out; // stale or duplicate offer
        }
        match manifest {
            Some(manifest) if manifest.height > height && manifest.part_count() > 0 => {
                self.attempts = 0;
                self.request_part(from, manifest.height, 0, &mut out);
                let parts = vec![None; manifest.part_count()];
                self.fetch = Fetch::Parts { manifest, parts };
            }
            _ => self.begin_fetch(self.rung + 1, height, &mut out),
        }
        out
    }

    /// One fetched snapshot part of the snapshot at `snapshot_height`, or
    /// `None` when the provider no longer holds it: verify the digest
    /// against the manifest (a corrupt transfer is re-requested), store
    /// it, and request the next missing part or assemble the snapshot and
    /// hand it over for booting.
    pub fn part(
        &mut self,
        from: ActorId,
        height: u64,
        snapshot_height: u64,
        index: u32,
        part: Option<Arc<SnapshotPart>>,
    ) -> Vec<Action> {
        let mut out = Vec::new();
        let Fetch::Parts { manifest, parts } = &mut self.fetch else {
            return out; // no download in progress (stale delivery)
        };
        if manifest.height != snapshot_height {
            return out;
        }
        let Some(part) = part else {
            // Superseded by a newer snapshot at the provider.
            self.begin_fetch(self.rung + 1, height, &mut out);
            return out;
        };
        let Some(slot) = parts.get_mut(index as usize) else {
            return out;
        };
        if part.digest() != manifest.part_digests[index as usize] {
            // As stalled as a part that never arrives: a provider that
            // keeps corrupting must not keep the download forever.
            self.attempts += 1;
            out.push(Action::Count("snapshot_corrupt_parts"));
            self.retry_download(height, &mut out);
            return out;
        }
        out.push(Action::Ingested(part.wire_size()));
        slot.get_or_insert_with(|| Arc::unwrap_or_clone(part));
        if let Some(next) = parts.iter().position(Option::is_none) {
            self.request_part(from, snapshot_height, next, &mut out);
            return out;
        }
        let Fetch::Parts { manifest, parts } = std::mem::replace(&mut self.fetch, Fetch::Idle)
        else {
            unreachable!("matched above");
        };
        match Snapshot::assemble(*manifest, parts) {
            Ok(snapshot) => out.push(Action::Boot(snapshot)),
            Err(_) => {
                out.push(Action::Count("snapshot_assemble_errors"));
                self.begin_fetch(self.rung + 1, height, &mut out);
            }
        }
        out
    }

    /// The actor's answer to [`Action::Boot`], after it committed the
    /// buffered blocks now directly above the snapshot: on success ask the
    /// catch-up target for the remaining delta, on failure try the next
    /// provider.
    pub fn booted(&mut self, ok: bool, height: u64) -> Vec<Action> {
        let mut out = Vec::new();
        if ok {
            self.attempts = 0;
            self.ask_target(height, true, &mut out);
        } else {
            self.begin_fetch(self.rung + 1, height, &mut out);
        }
        out
    }

    /// Elastic membership: the deployment tells this freshly added peer to
    /// catch up — through the snapshot ladder when there is one, else by
    /// block re-delivery from the catch-up target.
    pub fn join(&mut self, height: u64) -> Vec<Action> {
        let mut out = vec![Action::Count("joins")];
        if self.providers.is_empty() {
            self.ask_target(height, true, &mut out);
        } else {
            self.begin_fetch(0, height, &mut out);
        }
        out
    }

    /// Crash restart, after the ledger was rebuilt to `height`: every
    /// volatile wait (and the timer) died with the crash. Ask the target
    /// for whatever was cut meanwhile; restarting inside a partition can
    /// lose the request itself, hence the retry it arms.
    pub fn restarted(&mut self, height: u64) -> Vec<Action> {
        let mut out = Vec::new();
        self.attempts = 0;
        self.fetch = Fetch::Idle;
        self.ask_target(height, true, &mut out);
        self.wait = self.wait.map(|_| Wait::Restarted(height));
        out
    }

    /// A part is late or arrived corrupt: ask its provider for the first
    /// missing one again, or after `2 * CATCHUP_ESCALATE_AFTER` such
    /// attempts in a row move to the next provider.
    fn retry_download(&mut self, height: u64, out: &mut Vec<Action>) {
        let Fetch::Parts { manifest, parts } = &self.fetch else {
            return;
        };
        match parts.iter().position(Option::is_none) {
            Some(index) if self.attempts <= 2 * CATCHUP_ESCALATE_AFTER => {
                self.request_part(self.providers[self.rung], manifest.height, index, out);
            }
            _ => self.begin_fetch(self.rung + 1, height, out),
        }
    }

    /// Sends a request and arms the retry: the request or its answer can
    /// be lost.
    fn request(&self, dest: ActorId, msg: FabricMsg, out: &mut Vec<Action>) {
        out.push(Action::Send(dest, msg));
        out.push(Action::Arm(retry_delay(self.salt, self.attempts)));
    }

    /// Requests part `index` of the snapshot at `height` of `dest`.
    fn request_part(&self, dest: ActorId, height: u64, index: usize, out: &mut Vec<Action>) {
        let (channel, index) = (self.channel.clone(), index as u32);
        let msg = FabricMsg::SnapshotPartRequest {
            channel,
            height,
            index,
        };
        self.request(dest, msg, out);
    }

    /// Requests the blocks from `height` of `dest`.
    fn ask(&self, dest: ActorId, from: u64, out: &mut Vec<Action>) {
        let channel = self.channel.clone();
        self.request(dest, FabricMsg::DeliverRequest { channel, from }, out);
    }

    /// Moves the block wait to `height` and asks the catch-up target;
    /// `fresh` tells a first request (counted) from a resend. Without a
    /// target there is nobody to wait for: the machine goes current, and
    /// the next delivery that shows a gap asks its sender.
    fn ask_target(&mut self, height: u64, fresh: bool, out: &mut Vec<Action>) {
        let Some(target) = self.target else {
            self.wait = None;
            self.attempts = 0;
            out.push(Action::Disarm);
            return;
        };
        self.wait = Some(Wait::Asked(height));
        if fresh {
            out.push(Action::Count("catchup_requests"));
        }
        self.ask(target, height, out);
    }

    /// Asks the provider at ladder index `provider` for its manifest;
    /// past the end of the ladder, falls back to block re-delivery (at
    /// worst a replay from the orderer's retained tail).
    fn begin_fetch(&mut self, provider: usize, height: u64, out: &mut Vec<Action>) {
        match self.providers.get(provider) {
            Some(&dest) => {
                self.fetch = Fetch::AwaitOffer;
                self.rung = provider;
                out.push(Action::Count("snapshot_fetches"));
                let channel = self.channel.clone();
                self.request(dest, FabricMsg::SnapshotRequest { channel }, out);
            }
            None => {
                self.fetch = Fetch::Idle;
                out.push(Action::Count("catchup_fallbacks"));
                self.ask_target(height, false, out);
            }
        }
    }
}

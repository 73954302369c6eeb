//! Seeded generation of whole runs: from one seed, a deployment, a
//! workload and overlapping fault windows, all built the way the campaigns
//! and the benchmark build theirs (`NetworkConfig` plus `FaultPlan`). Each
//! seed runs until every window has ended, plus 60 virtual seconds, and
//! fails on a panic, on an operation that never ended, and on a finding —
//! a write reported invalid, a write on the ledger whose op was told it
//! failed, a write reported `Ok` that a replica recorded under another
//! code, or one of the audit's — that no named exclusion covers.
//!
//! An exclusion is a known finding under the drawn condition that
//! explains it, owned by the ROADMAP item whose fix deletes it; the same
//! finding outside that condition fails the seed. A failing seed shrinks
//! by dropping one fault window at a time while its first finding
//! persists, and its message ends with the regression test to paste here
//! and every node's view at the end of that test's run. The soak also
//! prints, per counter any node incremented (read from the metrics
//! registry, which is exact), how many seeds reached it, and fails when a
//! counter it lists in [`REACHED`] is reached by none.
//!
//! `cargo test --test generated` runs 64 seeds; `cargo test --release
//! --test generated -- --ignored` soaks 1,000 more.

mod support;

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use hyperprov_repro::fabric::{BatchConfig, QueueConfig};
use hyperprov_repro::hyperprov::{
    current_records, AuditFinding, ChannelSpec, ClientCommand, CompletionQueue, HyperProvError,
    HyperProvNetwork, NetworkConfig, OpId, OpOutput, OrdererMode, RetryPolicy, SnapshotPolicy,
};
use hyperprov_repro::ledger::{ChannelId, TxId, ValidationCode, DEFAULT_CHANNEL};
use hyperprov_repro::sim::{ActorId, DetRng, FaultPlan, SimDuration, SimTime};
use rand::Rng;
use support::{audit, post, store_data, views, Load};
use Fault::*;

/// What a fault window does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    /// Peer `i` is down.
    CrashPeer(usize),
    /// Ordering node `i` of `HyperProvNetwork::orderers` is down.
    CrashOrderer(usize),
    /// The off-chain storage node is down.
    CrashStorage,
    /// Peer `i` is cut off from every ordering node.
    Partition(usize),
    /// Every message is lost with this probability, in percent.
    Loss(u8),
    /// The spare peer joins at the window's start.
    AddPeer,
}

/// A fault from one virtual millisecond to another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Window(Fault, u64, u64);

/// The instant `ms` virtual milliseconds in.
fn at(ms: u64) -> SimTime {
    SimTime::from_nanos(ms * 1_000_000)
}

/// Clients start at 2 s, once a Raft cluster has elected, and stop at 20 s.
const LOAD_FROM: u64 = 2_000;
const LOAD_UNTIL: u64 = 20_000;

/// How many blocks an ordering node keeps for re-delivery
/// (`RETAINED_BLOCKS` in `crates/fabric/src/ordering.rs`).
const RETAINED_BLOCKS: u64 = 64;

/// One seed's deployment, workload and fault windows.
struct Draw {
    config: NetworkConfig,
    clients: usize,
    load: Load,
    windows: Vec<Window>,
}

/// Draws seed `seed`: each of the three from a stream of its own, so that
/// a replay with other windows runs the same deployment and workload.
fn draw(seed: u64) -> Draw {
    let rng = DetRng::new(seed);
    let mut workload = rng.fork("workload");
    let clients = workload.gen_range(1..=4);
    let load = match workload.gen_bool(0.5) {
        true => Load::InAClosedLoop,
        false => Load::OnASchedule(SimDuration::from_millis(workload.gen_range(100..=500))),
    };

    let mut d = rng.fork("deployment");
    let testbed = match d.gen_bool(0.5) {
        true => NetworkConfig::desktop(clients),
        false => NetworkConfig::rpi(clients),
    };
    let endorse = SimDuration::from_millis(d.gen_range(1_000..=3_000));
    let commit = SimDuration::from_millis(d.gen_range(2_000..=5_000));
    let mut config = testbed
        .with_seed(seed)
        .with_batch(BatchConfig {
            timeout: SimDuration::from_millis(100),
            ..BatchConfig::default()
        })
        .with_deadlines(Some(endorse), Some(commit))
        .with_retry(RetryPolicy::new(d.gen_range(1..=8)));
    let channels = d.gen_range(1..=2);
    if channels == 2 {
        let named = |c| ChannelSpec::new(format!("{DEFAULT_CHANNEL}-{c}"));
        config = config.with_channel_specs((0..channels).map(named).collect());
    }
    let members = match d.gen_bool(0.5) {
        true => 1,
        false => 3,
    };
    if members == 3 {
        config = config.with_raft_orderers(members);
    }
    if d.gen_bool(0.5) {
        config = config.with_snapshots(SnapshotPolicy::every(d.gen_range(4..=32)));
    }
    let spare = d.gen_bool(0.5);
    if spare {
        config = config.with_spare_peers(1);
    }
    if d.gen_bool(0.5) {
        config = config.with_peer_queue(QueueConfig::new(d.gen_range(1..=4)));
    }

    let mut f = rng.fork("faults");
    let mut joined = !spare;
    let windows = (0..f.gen_range(0..=3u32))
        .map(|_| {
            let from = f.gen_range(LOAD_FROM..LOAD_UNTIL - 2_000);
            let until = from + f.gen_range(500..10_000u64);
            let fault = match f.gen_range(0..6u32) {
                0 => CrashPeer(f.gen_range(0..4)),
                1 => CrashOrderer(f.gen_range(0..channels * members)),
                2 => CrashStorage,
                3 => Partition(f.gen_range(0..4)),
                4 => Loss(f.gen_range(5..=30)),
                _ if !joined => {
                    joined = true;
                    return Window(AddPeer, from, from);
                }
                _ => Partition(f.gen_range(0..4)),
            };
            Window(fault, from, until)
        })
        .collect();
    Draw {
        config,
        clients,
        load,
        windows,
    }
}

/// The workload's operations: a `Post` or a `StoreData` of a fresh key, or
/// a read of a key an earlier write of some client was acknowledged for.
struct Mix {
    rng: DetRng,
    queues: Vec<CompletionQueue>,
    /// The key of each write by op id, and whether it stored data.
    writes: BTreeMap<u64, (String, bool)>,
    /// Completions looked at so far, per client.
    seen: Vec<usize>,
    acknowledged: Vec<(String, bool)>,
}

impl Mix {
    fn command(&mut self, key: &str, op: u64) -> ClientCommand {
        for (client, queue) in self.queues.iter().enumerate() {
            let queue = queue.borrow();
            for done in queue.iter().skip(self.seen[client]) {
                let write = self.writes.get(&done.op.0).filter(|_| done.outcome.is_ok());
                self.acknowledged.extend(write.cloned());
            }
            self.seen[client] = queue.len();
        }
        let kind = self.rng.gen_range(0..10u32);
        if kind < 3 && !self.acknowledged.is_empty() {
            let at = self.rng.gen_range(0..self.acknowledged.len());
            let (key, data) = self.acknowledged[at].clone();
            return match data {
                true => ClientCommand::GetData { key, op: OpId(op) },
                false => ClientCommand::Get { key, op: OpId(op) },
            };
        }
        let data = kind % 2 == 0;
        self.writes.insert(op, (key.to_owned(), data));
        match data {
            true => store_data(key, op),
            false => post(key, op),
        }
    }
}

/// Something wrong with a run.
#[derive(Debug, Clone, PartialEq)]
enum Finding {
    /// The run panicked with this message.
    Panic(String),
    /// Client `c` issued this many operations, and this many ended.
    Hung(usize, u64, u64),
    /// A write of a fresh key ended invalid, or ended in another definite
    /// error — anything but `Timeout` or `Exhausted`, whose outcome is
    /// unknown — while its key is on the ledger; whether the key is.
    FailedWrite(String, HyperProvError, bool),
    /// A write reported `Ok` — by its home peer or by a probed one — whose
    /// transaction a replica recorded under this other code.
    Untruthful(TxId, ValidationCode),
    /// The audit found this.
    Audit(AuditFinding),
}

/// What a run drew and saw, as far as an exclusion asks.
#[derive(Debug, Default)]
struct Run {
    snapshots: bool,
    raft: bool,
    windows: Vec<Window>,
    channels: Vec<ChannelId>,
    /// Each channel's ordering nodes, as indices into
    /// `HyperProvNetwork::orderers`.
    orderers: Vec<Vec<usize>>,
    /// The spare's peer index, once it joined.
    spare: Option<usize>,
    /// How many blocks each replica, by channel and peer, is behind its
    /// channel's tallest.
    lag: BTreeMap<(usize, usize), u64>,
    /// When each channel's tip block was cut: `None` when nothing was, or
    /// its span is no longer in the tracer's ring.
    tip_cut: Vec<Option<SimTime>>,
    /// The transitions any node counted: see [`transition`].
    reached: BTreeSet<String>,
    /// Every node's view at the end.
    views: Vec<(ActorId, String)>,
}

impl Run {
    /// When the last window over peer `peer` ended — a loss window is over
    /// every peer, and the spare was away until it joined —, or `None`
    /// when no window was over it.
    fn away_until(&self, peer: usize) -> Option<SimTime> {
        let over = |&&Window(fault, ..): &&Window| match fault {
            CrashPeer(p) | Partition(p) => p == peer,
            Loss(_) => true,
            AddPeer => self.spare == Some(peer),
            CrashOrderer(_) | CrashStorage => false,
        };
        self.windows.iter().filter(over).map(|w| at(w.2)).max()
    }

    /// Whether a window of this kind was drawn.
    fn drew(&self, kind: impl Fn(Fault) -> bool) -> bool {
        self.windows.iter().any(|w| kind(w.0))
    }

    /// Whether a crash of a node that runs the jobs of `stage` was drawn:
    /// a peer's endorsements and commits, an ordering node's deliveries,
    /// the storage node's transfers.
    fn killed(&self, stage: &str) -> bool {
        self.drew(|fault| match fault {
            CrashPeer(_) => {
                ["endorse.exec", "validate", "commit.vscc", "commit.apply"].contains(&stage)
            }
            CrashOrderer(_) => stage == "order.deliver",
            CrashStorage => stage == "offchain.server",
            Partition(_) | Loss(_) | AddPeer => false,
        })
    }

    /// Whether a Solo ordering node of channel `channel` was down when the
    /// spare joined.
    fn joined_while_down(&self, channel: usize) -> bool {
        let joins = self.windows.iter().filter(|w| w.0 == AddPeer);
        let down = |join: u64| {
            let crashes = self.windows.iter().filter_map(|w| match w.0 {
                CrashOrderer(o) => Some((o, w.1, w.2)),
                _ => None,
            });
            let mut of_channel = crashes.filter(|(o, ..)| self.orderers[channel].contains(o));
            of_channel.any(|(_, from, until)| from <= join && join < until)
        };
        !self.raft && joins.map(|w| w.1).any(down)
    }

    /// The exclusion that covers `finding` in this run, if one does.
    fn excuse(&self, finding: &Finding) -> Option<Exclusion> {
        let orderer_crashed = self.drew(|f| matches!(f, CrashOrderer(_)));
        let lossy = self.drew(|f| matches!(f, Loss(_)));
        match finding {
            Finding::Audit(AuditFinding::OpenSpans("order.queue", _))
                if orderer_crashed || self.raft && lossy =>
            {
                Some(Exclusion::DeadOrderer)
            }
            Finding::Audit(AuditFinding::OpenSpans(stage, _)) if self.killed(stage) => {
                Some(Exclusion::KilledJob)
            }
            Finding::Audit(AuditFinding::Replica(channel, peer, found))
                if **found == AuditFinding::Diverged("height") =>
            {
                let channel = self.channels.iter().position(|c| c == channel)?;
                let away_until = self.away_until(*peer)?;
                let lag = self.lag.get(&(channel, *peer)).copied().unwrap_or(0);
                if !self.snapshots && lag > RETAINED_BLOCKS {
                    Some(Exclusion::BeyondTheTail)
                } else if self.spare == Some(*peer) && self.joined_while_down(channel) {
                    Some(Exclusion::JoinedWhileDown)
                } else if self.tip_cut[channel].is_some_and(|cut| away_until > cut) {
                    Some(Exclusion::NoLaterBlock)
                } else {
                    None
                }
            }
            _ => None,
        }
    }
}

/// A known finding under the condition that explains it, by the ROADMAP
/// item whose fix deletes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Exclusion {
    /// `order.queue` spans left open when an ordering node crashed, or a
    /// loss window may have deposed a Raft leader: the envelopes it held.
    DeadOrderer,
    /// A peer that was away, with snapshots off, more than
    /// `RETAINED_BLOCKS` behind: re-delivery cannot reach back that far.
    BeyondTheTail,
    /// A peer whose last window ended after its channel's tip was cut:
    /// catch-up is gap-driven, and no later block shows it the gap.
    NoLaterBlock,
    /// The spare joined while its channel's Solo ordering node was down,
    /// which lost its one `DeliverSubscribe`.
    JoinedWhileDown,
    /// The spans of a job left open by a crash of the node that ran it: a
    /// peer's endorsement or commit, an ordering node's delivery, the
    /// storage node's transfer.
    KilledJob,
}

impl Exclusion {
    /// The ROADMAP item whose fix deletes this exclusion.
    fn item(self) -> &'static str {
        match self {
            Exclusion::DeadOrderer => "item 3",
            Exclusion::BeyondTheTail | Exclusion::NoLaterBlock | Exclusion::JoinedWhileDown => {
                "item 9"
            }
            Exclusion::KilledJob => "item 6e",
        }
    }
}

/// Runs seed `seed` with `windows` to the end, and returns what is wrong
/// with it and what explains what is known.
fn run(seed: u64, windows: &[Window]) -> (Vec<Finding>, Run) {
    let Draw {
        config,
        clients,
        load,
        ..
    } = draw(seed);
    let mut net = HyperProvNetwork::build(&config);
    let mut plan = FaultPlan::new();
    for &Window(fault, from, until) in windows {
        let (from, until) = (at(from), at(until));
        plan = match fault {
            CrashPeer(i) => plan.crash_window(net.peers[i], from, until),
            CrashOrderer(i) => plan.crash_window(net.orderers[i], from, until),
            CrashStorage => plan.crash_window(net.storage, from, until),
            Partition(i) => plan.partition_window(&[net.peers[i]], &net.orderers, from, until),
            Loss(percent) => plan.loss_window(f64::from(percent) / 100.0, from, until),
            AddPeer => plan,
        };
    }
    plan.install(&mut net.sim);
    net.sim.run_until(at(LOAD_FROM));

    let mut mix = Mix {
        rng: DetRng::new(seed).fork("mix"),
        queues: net.completions.clone(),
        writes: BTreeMap::new(),
        seen: vec![0; clients],
        acknowledged: Vec::new(),
    };
    let mut command = |key: &str, op| mix.command(key, op);
    let mut issued = vec![0; clients];
    let join = windows.iter().find(|w| w.0 == AddPeer).map(|w| w.1);
    if let Some(join) = join {
        load.run(&mut net, &mut issued, at(join), &mut command);
        net.add_peer();
    }
    load.run(&mut net, &mut issued, at(LOAD_UNTIL), &mut command);
    let last = windows.iter().map(|w| w.2).max().unwrap_or(0);
    net.sim.run_until(at(last.max(LOAD_UNTIL) + 60_000));

    let mut findings = Vec::new();
    for (client, &issued) in issued.iter().enumerate() {
        let ended = net.completions[client].borrow().len() as u64;
        if ended != issued {
            findings.push(Finding::Hung(client, issued, ended));
        }
    }
    let on_ledger = |key: &str| {
        let replicas = net.channel_ledgers.iter().flat_map(|r| r.first());
        let mut records = replicas.flat_map(|(_, ledger)| current_records(&ledger.borrow()));
        records.any(|(item, _)| item == key)
    };
    for queue in &net.completions {
        for done in queue.borrow().iter() {
            let (Some((key, _)), Err(error)) = (mix.writes.get(&done.op.0), &done.outcome) else {
                continue;
            };
            use HyperProvError::{Exhausted, Invalidated, Timeout};
            let unknown = matches!(error, Timeout | Exhausted { .. });
            let on_ledger = on_ledger(key);
            if matches!(error, Invalidated(_)) || on_ledger && !unknown {
                findings.push(Finding::FailedWrite(key.clone(), error.clone(), on_ledger));
            }
        }
    }
    let replicas: Vec<_> = net.channel_ledgers.iter().flatten().collect();
    for queue in &net.completions {
        for done in queue.borrow().iter() {
            let Ok(OpOutput::Committed { tx_id, .. }) = done.outcome else {
                continue;
            };
            let recorded = replicas
                .iter()
                .filter_map(|(_, l)| l.borrow().status(&tx_id));
            let other = recorded.filter(|code| !code.is_valid()).take(1);
            findings.extend(other.map(|code| Finding::Untruthful(tx_id, code)));
        }
    }
    findings.extend(audit(&net).into_iter().map(Finding::Audit));

    let orderers = net.channel_orderers.iter().map(|ids| {
        let index = |id| net.orderers.iter().position(|o| o == id);
        ids.iter().filter_map(index).collect()
    });
    let mut run = Run {
        snapshots: config.snapshots.is_some(),
        raft: matches!(config.orderer_mode, OrdererMode::Raft { .. }),
        windows: windows.to_vec(),
        channels: net.channels.clone(),
        orderers: orderers.collect(),
        spare: join.map(|_| net.peers.len() - 1),
        ..Run::default()
    };
    for (channel, replicas) in net.channel_ledgers.iter().enumerate() {
        let heights: Vec<_> = replicas
            .iter()
            .map(|(peer, ledger)| (*peer, ledger.borrow().height()))
            .collect();
        let tallest = heights.iter().map(|&(_, h)| h).max().unwrap_or(0);
        for (peer, height) in heights {
            run.lag.insert((channel, peer), tallest - height);
        }
        let tip = tallest.checked_sub(1).map(|n| {
            let name = net.channels[channel].trace_name(&format!("block-{n}"));
            let spans = net.sim.tracer().finished_spans();
            let cut = spans.filter(|s| s.stage == "order.deliver" && s.trace == name);
            cut.map(|s| s.start).min()
        });
        run.tip_cut.push(tip.flatten());
    }
    let counters = net.sim.metrics().counters().filter(|&(_, n)| n > 0);
    run.reached = counters.map(|(name, _)| transition(name)).collect();
    run.views = views(&net);
    (findings, run)
}

/// A counter's name without its node's number or its channel:
/// `orderer.duplicates` for `orderer2.hyperprov-channel-1.duplicates`.
fn transition(counter: &str) -> String {
    let parts = counter
        .split('.')
        .filter(|part| !part.starts_with(DEFAULT_CHANNEL));
    let parts = parts.map(|part| part.trim_end_matches(|c: char| c.is_ascii_digit()));
    parts.collect::<Vec<_>>().join(".")
}

/// What one seed found: each finding, with the exclusion that covers it,
/// and what it saw; nothing of a run that panicked.
type Checked = (Vec<(Finding, Option<Exclusion>)>, Run);

/// Runs seed `seed` with `windows`, a panic included.
fn check(seed: u64, windows: &[Window]) -> Checked {
    match catch_unwind(AssertUnwindSafe(|| run(seed, windows))) {
        Ok((findings, run)) => {
            let excused = findings.into_iter().map(|f| {
                let excuse = run.excuse(&f);
                (f, excuse)
            });
            (excused.collect(), run)
        }
        Err(payload) => {
            let message = match payload.downcast::<String>() {
                Ok(message) => *message,
                Err(payload) => payload
                    .downcast::<&str>()
                    .map_or_else(|_| "".into(), |s| s.to_string()),
            };
            (vec![(Finding::Panic(message), None)], Run::default())
        }
    }
}

/// The findings no exclusion covers.
fn failures(seed: u64, windows: &[Window]) -> Vec<Finding> {
    let found = check(seed, windows).0.into_iter();
    found.filter(|(_, e)| e.is_none()).map(|(f, _)| f).collect()
}

/// Drops fault windows one at a time while `finding` persists.
fn shrink(seed: u64, windows: &[Window], finding: &Finding) -> Vec<Window> {
    let mut kept = windows.to_vec();
    let mut i = 0;
    while i < kept.len() {
        let mut fewer = kept.clone();
        fewer.remove(i);
        if failures(seed, &fewer).contains(finding) {
            kept = fewer;
        } else {
            i += 1;
        }
    }
    kept
}

/// A seed's regression test: it fails while anything is wrong with the
/// run that no exclusion covers.
fn replay(seed: u64, windows: &[Window]) {
    let found = failures(seed, windows);
    assert!(found.is_empty(), "seed {seed}: {found:?}");
}

/// Runs every seed of `seeds` with its own windows, prints how many seeds
/// each exclusion covered and each transition was reached by, and fails
/// with one shrunk regression test per failing seed, each followed by the
/// views of its run. Returns how many seeds reached each transition.
fn audit_seeds(seeds: Range<u64>) -> BTreeMap<String, u64> {
    let (count, mut covered, mut failed) = (seeds.end - seeds.start, BTreeMap::new(), Vec::new());
    let mut reached = BTreeMap::new();
    for seed in seeds {
        let windows = draw(seed).windows;
        let (found, run) = check(seed, &windows);
        for transition in run.reached {
            *reached.entry(transition).or_insert(0) += 1;
        }
        let mut excused: Vec<_> = found.iter().filter_map(|(_, e)| *e).collect();
        excused.sort();
        excused.dedup();
        for exclusion in excused {
            *covered.entry(exclusion).or_insert(0) += 1;
        }
        let Some((first, _)) = found.iter().find(|(_, e)| e.is_none()) else {
            continue;
        };
        let kept = shrink(seed, &windows, first);
        let unexcused: Vec<_> = found.iter().filter(|(_, e)| e.is_none()).collect();
        failed.push(format!(
            "seed {seed}: {unexcused:?}\n#[test] fn seed_{seed}() {{ replay({seed}, &{kept:?}) }}"
        ));
        let views = check(seed, &kept).1.views;
        failed.extend(views.iter().map(|(id, view)| format!("  {id}: {view}")));
    }
    for (exclusion, seeds) in &covered {
        let item = exclusion.item();
        eprintln!("{exclusion:?} ({item}): {seeds} of {count} seeds");
    }
    for (transition, seeds) in &reached {
        eprintln!("{transition}: reached by {seeds} of {count} seeds");
    }
    assert!(failed.is_empty(), "{}", failed.join("\n"));
    reached
}

#[test]
fn seeds_0_to_31_audit_clean_or_excused() {
    audit_seeds(0..32);
}

#[test]
fn seeds_32_to_63_audit_clean_or_excused() {
    audit_seeds(32..64);
}

/// The transitions the soak's seeds reach (ROADMAP item 22): one that
/// no seed reaches any more fails the soak, until a change that sees it
/// adds a fault that reaches it or deletes the code.
const REACHED: &[&str] = &[
    "client.exhausted",
    "client.home_moves",
    "client.rebroadcasts",
    "client.resent",
    "client.retries",
    "client.timeouts",
    "fault.crashes",
    "fault.dropped_events",
    "fault.heals",
    "fault.loss_changes",
    "fault.partitions",
    "fault.restarts",
    "net.dropped",
    "orderer.blocks_cut",
    "orderer.broadcasts",
    "orderer.deliver_requests",
    "orderer.dropped_no_leader",
    "orderer.dropped_not_leader",
    "orderer.duplicates",
    "orderer.recoveries",
    "orderer.redirects",
    "orderer.subscriptions",
    "orderer.timeout_cuts",
    "peer.blocks",
    "peer.catchup_fallbacks",
    "peer.catchup_requests",
    "peer.catchup_retries",
    "peer.endorsed",
    "peer.joins",
    "peer.recoveries",
    "peer.snapshot_boots",
    "peer.snapshot_fetches",
    "peer.snapshot_requests",
    "peer.snapshots.cut",
    "peer.snapshots.pruned_blocks",
    "peer.tx.valid",
    "queue.nacked.peer",
    "storage.bytes_in",
    "storage.bytes_out",
    "storage.gets",
    "storage.puts",
];

/// Transitions no seed reaches yet, each with the ROADMAP item that
/// should reach it.
const UNREACHED: &[(&str, &str)] = &[
    ("peer.snapshot_corrupt_parts", "item 17"),
    ("peer.snapshot_assemble_errors", "item 17"),
    ("peer.snapshot_boot_errors", "item 17"),
    ("peer.recover_errors", "item 17"),
    ("peer.commit_errors", "item 17"),
    ("peer.dangling_parent", "item 10"),
    (
        "peer.tx.invalid",
        "item 22: the mix writes fresh keys, so no write conflicts",
    ),
];

#[test]
#[ignore = "a soak: run in release"]
fn a_thousand_more_seeds_audit_clean_or_excused() {
    let reached = audit_seeds(64..1_064);
    for (name, item) in UNREACHED
        .iter()
        .filter(|(name, _)| reached.contains_key(*name))
    {
        eprintln!("{name} ({item}) is reached now: list it in REACHED");
    }
    let unlisted = reached
        .keys()
        .filter(|name| !REACHED.contains(&name.as_str()));
    for name in unlisted {
        eprintln!("{name} is reached and not listed in REACHED");
    }
    let lost: Vec<_> = REACHED
        .iter()
        .filter(|name| !reached.contains_key(**name))
        .collect();
    assert!(
        lost.is_empty(),
        "listed transitions no seed reached: {lost:?}"
    );
}

/// The run of an undisturbed deployment with snapshots on: one channel,
/// Solo, peer 1 one block behind, its tip cut at 10 s.
fn undisturbed() -> Run {
    Run {
        snapshots: true,
        channels: vec![DEFAULT_CHANNEL.into()],
        orderers: vec![vec![0]],
        lag: BTreeMap::from([((0, 0), 0), ((0, 1), 1)]),
        tip_cut: vec![Some(SimTime::from_secs(10))],
        ..Run::default()
    }
}

/// A replica behind, with snapshots on and no fault window over it, is
/// not excused; under a partition of it that ended after the tip was cut,
/// it is.
#[test]
fn a_peer_behind_with_snapshots_on_and_no_late_fault_fails() {
    let behind = Finding::Audit(AuditFinding::Replica(
        DEFAULT_CHANNEL.into(),
        1,
        Box::new(AuditFinding::Diverged("height")),
    ));
    let mut run = undisturbed();
    assert_eq!(run.excuse(&behind), None);
    run.windows = vec![Window(Partition(1), 3_000, 9_000)];
    assert_eq!(run.excuse(&behind), None);
    run.windows = vec![Window(Partition(1), 3_000, 11_000)];
    assert_eq!(run.excuse(&behind), Some(Exclusion::NoLaterBlock));
}

/// No exclusion covers a graph index that drifted from its state, under
/// any window.
#[test]
fn an_index_drift_is_never_excused() {
    let drift = Finding::Audit(AuditFinding::Replica(
        DEFAULT_CHANNEL.into(),
        1,
        Box::new(AuditFinding::IndexDrift),
    ));
    let mut run = undisturbed();
    run.windows = vec![
        Window(CrashPeer(1), 3_000, 11_000),
        Window(CrashOrderer(0), 3_000, 11_000),
        Window(Loss(30), 3_000, 11_000),
    ];
    assert_eq!(run.excuse(&drift), None);
    assert_eq!(run.excuse(&Finding::Audit(AuditFinding::IndexDrift)), None);
}

/// The spare joins, and block re-delivery carries it past the snapshot it
/// is downloading: booting that snapshot rolled block 44 back and
/// committed it again (the tracer panicked on the second commit's span).
/// A peer keeps a ledger that is already past a fetched snapshot.
#[test]
fn seed_453() {
    replay(
        453,
        &[
            Window(CrashPeer(1), 6184, 8341),
            Window(AddPeer, 9539, 9539),
        ],
    )
}

/// A loss window: the op's first attempt committed after its commit
/// deadline, and its retry under a fresh tx id was reported
/// `MVCC_READ_CONFLICT` against it. A deadline now waits again for the
/// same envelope, so the op ends with the code its one tx id got.
#[test]
fn seed_223() {
    replay(223, &[Window(Loss(29), 13756, 22114)])
}

/// The same under a longer loss window.
#[test]
fn seed_2644() {
    replay(2644, &[Window(Loss(26), 5671, 13817)])
}

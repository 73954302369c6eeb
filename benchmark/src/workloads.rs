//! The five workloads: what deployment each one builds, what it preloads
//! and what it measures. README.md records why each one exists.
//!
//! Deployments are configured only with what *describes* a deployment
//! (README.md, "API surface rule"), so defaults are what users get.
//! Every size below was chosen so that one measured phase takes about two
//! seconds of host time on the 2-core box the benchmark was written on.

use std::rc::Rc;

use hyperprov::{
    ClientCommand, HyperProvNetwork, NetworkConfig, OpId, OpOutput, RecordInput, RetryPolicy,
    SnapshotPolicy,
};
use hyperprov_fabric::BatchConfig;
use hyperprov_ledger::Digest;
use hyperprov_sim::{DetRng, FaultPlan, SimDuration, SimTime};
use rand::RngCore;

use crate::driver::{Load, Op, Phase, Workload};

/// The workload names, in the order BENCHMARK.json lists them.
pub const NAMES: [&str; 5] = [
    "ingest_small",
    "blob_roundtrip",
    "ledger_growth",
    "query_mix",
    "crash_recover",
];

/// Everything one round of a workload does.
pub struct Plan {
    /// The deployment.
    pub config: NetworkConfig,
    /// Set-up phases, run one after the other to quiescence; no operation
    /// of theirs may fail.
    pub preload: Vec<Phase>,
    /// The measured phase.
    pub measured: Phase,
    /// Faults to inject, as a function of the built network and the
    /// virtual instant the measured phase starts at.
    pub faults: Option<fn(&HyperProvNetwork, SimTime) -> FaultPlan>,
    /// Keys the measured phase adds to the ledger.
    pub new_keys: u64,
    /// Bytes in one payload (0 when the workload moves none).
    pub payload_bytes: usize,
}

fn millis(ms: u64) -> SimDuration {
    SimDuration::from_millis(ms)
}

fn batch_100ms() -> BatchConfig {
    BatchConfig {
        timeout: millis(100),
        ..BatchConfig::default()
    }
}

/// `len` bytes that depend on the seed, a label and the operation.
fn payload(seed: u64, label: &str, op: Op, len: usize) -> Vec<u8> {
    let mut data = vec![0u8; len];
    DetRng::new(seed)
        .fork(label)
        .fork_index(op.index)
        .fill_bytes(&mut data);
    data
}

/// SplitMix64 finaliser: the workloads' stateless source of choices, so
/// that the driver (issuing) and the host (checking) agree on operation
/// `index` without sharing state.
fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn committed_record(out: &OpOutput) -> Option<&hyperprov::ProvenanceRecord> {
    match out {
        OpOutput::Committed {
            record: Some(record),
            ..
        } => Some(record),
        _ => None,
    }
}

/// `StoreData` of a fresh key per operation.
struct Stores {
    seed: u64,
    label: &'static str,
    bytes: usize,
}

impl Stores {
    fn key(&self, op: Op) -> String {
        format!("{}{}-{}", self.label, self.seed, op.index)
    }
}

impl Workload for Stores {
    fn command(&self, op: Op, id: OpId) -> ClientCommand {
        ClientCommand::StoreData {
            key: self.key(op),
            data: payload(self.seed, self.label, op, self.bytes),
            parents: vec![],
            metadata: vec![],
            op: id,
        }
    }

    fn check(&self, op: Op, out: &OpOutput) -> bool {
        committed_record(out).is_some_and(|record| {
            record.key == self.key(op)
                && record.size == self.bytes as u64
                && record.checksum == Digest::of(&payload(self.seed, self.label, op, self.bytes))
        })
    }
}

/// Metadata-only `Post` of a fresh key per operation.
struct Posts {
    seed: u64,
    label: &'static str,
}

impl Posts {
    fn key(&self, op: Op) -> String {
        format!("{}{}-c{:05}-k{}", self.label, self.seed, op.client, op.seq)
    }
}

impl Workload for Posts {
    fn command(&self, op: Op, id: OpId) -> ClientCommand {
        let key = self.key(op);
        let input = RecordInput::new(Digest::of(key.as_bytes()));
        ClientCommand::Post { key, input, op: id }
    }

    fn check(&self, op: Op, out: &OpOutput) -> bool {
        committed_record(out).is_some_and(|record| record.key == self.key(op))
    }
}

/// Each client alternates `StoreData(k)` of a large payload and a verified
/// `GetData(k)`. Payloads come from a small pool, stamped with the
/// operation so that no two are equal.
struct Blobs {
    seed: u64,
    label: &'static str,
    pool: Rc<Vec<Vec<u8>>>,
}

const STAMP: usize = 16;

impl Blobs {
    /// Sixteen buffers of `bytes` bytes each.
    fn pool(seed: u64, bytes: usize) -> Rc<Vec<Vec<u8>>> {
        let buffer = |i| {
            let mut data = vec![0u8; bytes];
            DetRng::new(seed)
                .fork("blob-pool")
                .fork_index(i)
                .fill_bytes(&mut data);
            data
        };
        Rc::new((0..16).map(buffer).collect())
    }

    fn key(&self, op: Op) -> String {
        format!("{}{}-c{}-{}", self.label, self.seed, op.client, op.seq / 2)
    }

    fn stamp(op: Op) -> [u8; STAMP] {
        let mut stamp = [0u8; STAMP];
        stamp[..8].copy_from_slice(&(op.client as u64).to_le_bytes());
        stamp[8..].copy_from_slice(&(op.seq / 2).to_le_bytes());
        stamp
    }

    /// Odd operations of a client read back what the one before stored.
    fn reads(op: Op) -> bool {
        op.seq % 2 == 1
    }

    fn body(&self, op: Op) -> &[u8] {
        &self.pool[(op.client + (op.seq / 2) as usize) % self.pool.len()]
    }
}

impl Workload for Blobs {
    fn command(&self, op: Op, id: OpId) -> ClientCommand {
        let key = self.key(op);
        if Self::reads(op) {
            return ClientCommand::GetData { key, op: id };
        }
        let mut data = self.body(op).to_vec();
        data[..STAMP].copy_from_slice(&Self::stamp(op));
        ClientCommand::StoreData {
            key,
            data,
            parents: vec![],
            metadata: vec![],
            op: id,
        }
    }

    fn check(&self, op: Op, out: &OpOutput) -> bool {
        let body = self.body(op);
        match out {
            OpOutput::Committed {
                record: Some(record),
                ..
            } => !Self::reads(op) && record.key == self.key(op) && record.size == body.len() as u64,
            OpOutput::Data { record, data } => {
                Self::reads(op)
                    && record.key == self.key(op)
                    && data.len() == body.len()
                    && data[..STAMP] == Self::stamp(op)
                    && data[STAMP..] == body[STAMP..]
            }
            _ => false,
        }
    }
}

/// Levels of one provenance family in `query_mix`.
const LEVELS: u64 = 8;

/// The record families `query_mix` queries: family `f` has one record per
/// level, and the record at level `l > 0` derives from the records of
/// families `f` and `f + 1` one level up.
#[derive(Clone, Copy)]
struct Families {
    seed: u64,
    count: u64,
}

impl Families {
    fn key(&self, family: u64, level: u64) -> String {
        format!("fam{}-{}-l{}", self.seed, family % self.count, level)
    }

    fn input(&self, family: u64, level: u64) -> RecordInput {
        let key = self.key(family, level);
        let input = RecordInput::new(Digest::of(key.as_bytes()));
        if level == 0 {
            return input;
        }
        input.with_parents(vec![
            self.key(family, level - 1),
            self.key(family + 1, level - 1),
        ])
    }

    /// Records an ancestor walk from `(family, level)` visits, itself
    /// included: `i + 1` records `i` levels up.
    fn ancestors(level: u64) -> usize {
        ((level + 1) * (level + 2) / 2) as usize
    }
}

/// Set-up of `query_mix`: commits one level of every family.
struct FamilyLevel {
    families: Families,
    level: u64,
}

impl Workload for FamilyLevel {
    fn command(&self, op: Op, id: OpId) -> ClientCommand {
        ClientCommand::Post {
            key: self.families.key(op.index, self.level),
            input: self.families.input(op.index, self.level),
            op: id,
        }
    }

    fn check(&self, op: Op, out: &OpOutput) -> bool {
        committed_record(out)
            .is_some_and(|record| record.key == self.families.key(op.index, self.level))
    }
}

/// The read path with a few writes beside it.
struct QueryMix {
    families: Families,
    clients: u64,
}

enum Query {
    Get,
    History,
    Ancestry,
    Lineage,
    ByChecksum,
    Repost,
}

impl QueryMix {
    /// What operation `op` is, and on which record.
    fn pick(&self, op: Op) -> (Query, u64, u64) {
        let h = mix(self.families.seed, op.index);
        let family = (h >> 8) % self.families.count;
        let level = (h >> 48) % LEVELS;
        match h % 100 {
            0..=29 => (Query::Get, family, level),
            30..=44 => (Query::History, family, level),
            45..=59 => (Query::Ancestry, family, level),
            60..=74 => (Query::Lineage, family, level),
            75..=89 => (Query::ByChecksum, family, level),
            // A client writes new versions only of parentless records of
            // its own families, so no two writes in flight share a key and
            // none reads a key another is writing: no MVCC conflict, no
            // failed operation.
            _ => {
                let own = self.families.count / self.clients;
                let family = op.client as u64 + self.clients * (family % own);
                (Query::Repost, family, 0)
            }
        }
    }
}

impl Workload for QueryMix {
    fn command(&self, op: Op, id: OpId) -> ClientCommand {
        let (query, family, level) = self.pick(op);
        let key = self.families.key(family, level);
        match query {
            Query::Get => ClientCommand::Get { key, op: id },
            Query::History => ClientCommand::GetHistory { key, op: id },
            Query::Ancestry => ClientCommand::GetAncestry {
                key,
                depth: 16,
                op: id,
            },
            Query::Lineage => ClientCommand::GetLineage {
                key,
                depth: LEVELS as u32,
                op: id,
            },
            Query::ByChecksum => ClientCommand::GetKeysByChecksum {
                checksum: Digest::of(key.as_bytes()),
                op: id,
            },
            Query::Repost => ClientCommand::Post {
                input: self
                    .families
                    .input(family, level)
                    .with_meta("version", op.index.to_string()),
                key,
                op: id,
            },
        }
    }

    fn check(&self, op: Op, out: &OpOutput) -> bool {
        let (query, family, level) = self.pick(op);
        let key = self.families.key(family, level);
        match (query, out) {
            (Query::Get, OpOutput::Record(record)) => record.key == key,
            (Query::History, OpOutput::History(versions)) => !versions.is_empty(),
            (Query::Ancestry, OpOutput::Graph(slice)) => {
                !slice.truncated && slice.entries.len() == Families::ancestors(level)
            }
            (Query::Lineage, OpOutput::Lineage { entries, truncated }) => {
                !truncated && entries.len() == Families::ancestors(level)
            }
            (Query::ByChecksum, OpOutput::Keys(keys)) => keys.contains(&key),
            (Query::Repost, out) => committed_record(out).is_some_and(|record| record.key == key),
            _ => false,
        }
    }
}

fn closed(workload: impl Workload + 'static, total: u64) -> Phase {
    Phase {
        workload: Rc::new(workload),
        total,
        load: Load::Closed,
        // No closed loop here comes near an hour of virtual time.
        cap: SimDuration::from_secs(3600),
    }
}

/// Virtual seconds into `crash_recover`'s measured phase at which peer 0,
/// crashed at 20 s, restarts.
pub const PEER0_RESTART_S: u64 = 30;

/// One crash of a peer, one partition of two peers from every orderer and
/// one crash of an orderer, 20 virtual seconds apart. The partition lasts
/// 3 s, under the clients' 4 s commit deadline: a longer one makes clients
/// of the cut-off peers retry transactions that did commit, and those
/// retries come back as MVCC conflicts (README.md, "Known findings").
fn crash_recover_faults(net: &HyperProvNetwork, t0: SimTime) -> FaultPlan {
    let at = |s: u64| t0 + SimDuration::from_secs(s);
    FaultPlan::new()
        .crash_window(net.peers[0], at(20), at(PEER0_RESTART_S))
        .partition_window(&net.peers[2..4], &net.orderers, at(40), at(43))
        .crash_window(net.orderers[0], at(60), at(70))
}

/// The plan of workload `name` for `seed`.
pub fn plan(name: &str, seed: u64) -> Option<Plan> {
    Some(match name {
        "ingest_small" => Plan {
            config: NetworkConfig::desktop(32)
                .with_seed(seed)
                .with_batch(batch_100ms()),
            preload: vec![closed(
                Stores {
                    seed,
                    label: "warm",
                    bytes: 1 << 10,
                },
                2_000,
            )],
            measured: closed(
                Stores {
                    seed,
                    label: "item",
                    bytes: 1 << 10,
                },
                16_000,
            ),
            faults: None,
            new_keys: 16_000,
            payload_bytes: 1 << 10,
        },
        "blob_roundtrip" => {
            let pool = Blobs::pool(seed, 1 << 20);
            let blobs = |label| Blobs {
                seed,
                label,
                pool: pool.clone(),
            };
            Plan {
                config: NetworkConfig::rpi(8)
                    .with_seed(seed)
                    .with_batch(batch_100ms()),
                preload: vec![closed(blobs("warm"), 32)],
                measured: closed(blobs("blob"), 1_024),
                faults: None,
                new_keys: 512,
                payload_bytes: 1 << 20,
            }
        }
        "ledger_growth" => Plan {
            config: NetworkConfig::desktop(16)
                .with_seed(seed)
                .with_batch(BatchConfig {
                    max_message_count: 500,
                    timeout: millis(250),
                    ..BatchConfig::default()
                }),
            preload: vec![closed(
                Posts {
                    seed,
                    label: "warm",
                },
                2_000,
            )],
            measured: Phase {
                workload: Rc::new(Posts {
                    seed,
                    label: "scale",
                }),
                total: 25_000,
                load: Load::Open {
                    gap: SimDuration::from_micros(2_500),
                },
                cap: SimDuration::from_secs(25_000 / 400 + 120),
            },
            faults: None,
            new_keys: 25_000,
            payload_bytes: 0,
        },
        "query_mix" => {
            let clients = 16;
            let families = Families { seed, count: 640 };
            Plan {
                config: NetworkConfig::desktop(clients)
                    .with_seed(seed)
                    .with_batch(batch_100ms()),
                preload: (0..LEVELS)
                    .map(|level| closed(FamilyLevel { families, level }, families.count))
                    .collect(),
                measured: closed(
                    QueryMix {
                        families,
                        clients: clients as u64,
                    },
                    80_000,
                ),
                faults: None,
                new_keys: 0,
                payload_bytes: 0,
            }
        }
        "crash_recover" => Plan {
            config: NetworkConfig::desktop(8)
                .with_seed(seed)
                .with_batch(batch_100ms())
                .with_raft_orderers(3)
                .with_snapshots(SnapshotPolicy::every(100))
                .with_deadlines(
                    Some(SimDuration::from_secs(2)),
                    Some(SimDuration::from_secs(4)),
                )
                // Eight attempts outlast the 10 s crash plus the peer's
                // catch-up; six do not on most seeds.
                .with_retry(RetryPolicy::new(8)),
            preload: vec![closed(
                Posts {
                    seed,
                    label: "warm",
                },
                2_000,
            )],
            measured: Phase {
                workload: Rc::new(Stores {
                    seed,
                    label: "item",
                    bytes: 1 << 10,
                }),
                total: 8_000,
                load: Load::Open { gap: millis(10) },
                cap: SimDuration::from_secs(80 + 120),
            },
            faults: Some(crash_recover_faults),
            new_keys: 8_000,
            payload_bytes: 1 << 10,
        },
        _ => return None,
    })
}

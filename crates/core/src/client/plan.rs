//! Operation plans: what each client command does, as pure state
//! machines.
//!
//! An operation is a [`Plan`]. [`Plan::start`] turns a command into the
//! plan and its first [`Request`]s; the client machine carries each request
//! out — tracking it, retrying transient failures — and hands its
//! terminal [`Reply`] to [`Plan::on_reply`], which answers with a
//! [`Step`]: wait for more replies, send further requests, or finish.
//! Nothing here touches the simulation, a gateway or the machine's tables;
//! the only thing a plan is told about the deployment is the shard count
//! (which, with [`HashRouter`], is the key → shard map), so a plan can be
//! driven by a test against in-memory shards.
//!
//! A transient failure (`Busy`, `Timeout`, `Exhausted`) of any request
//! fails the operation; only a chaincode rejection can mean "this key is
//! not on its shard".

use hyperprov_fabric::GatewayReply;
use hyperprov_ledger::{CodecError, Decode, Digest, Encode, TxId, ValidationCode};

use super::api::{ClientCommand, HyperProvError, OpOutput};
pub use super::graph::GraphRounds;
use crate::chaincode::{MAX_GRAPH_NODES, MAX_LINEAGE_DEPTH};
use crate::record::{
    decode_history, GraphSlice, LineageEntry, LineageSlice, ProvenanceRecord, RecordInput,
};
use crate::router::HashRouter;

/// A chaincode call on one shard's channel.
#[derive(Debug, Clone)]
pub struct Call {
    /// The shard (gateway index) to call.
    pub shard: usize,
    /// A full transaction — endorse, order, wait for the commit — rather
    /// than an endorse-only query.
    pub invoke: bool,
    /// The chaincode function.
    pub function: &'static str,
    /// Its arguments.
    pub args: Vec<Vec<u8>>,
}

/// One unit of work a plan asks the client machine to carry out.
#[derive(Debug, Clone)]
pub enum Request {
    /// Call the chaincode.
    Chain(Call),
    /// Store a payload off-chain under `name`.
    Put {
        /// Object name (the checksum hex).
        name: String,
        /// The payload.
        data: Vec<u8>,
    },
    /// Fetch the off-chain payload stored under `name`.
    Fetch {
        /// Object name.
        name: String,
    },
}

impl Request {
    fn chain(shard: usize, invoke: bool, function: &'static str, args: Vec<Vec<u8>>) -> Self {
        Request::Chain(Call {
            shard,
            invoke,
            function,
            args,
        })
    }

    pub(super) fn query(shard: usize, function: &'static str, args: Vec<Vec<u8>>) -> Self {
        Request::chain(shard, false, function, args)
    }

    fn invoke(shard: usize, function: &'static str, args: Vec<Vec<u8>>) -> Self {
        Request::chain(shard, true, function, args)
    }
}

/// The terminal outcome of one [`Request`].
#[derive(Debug)]
pub enum Reply {
    /// A query's answer, or a fetched payload.
    Bytes(Vec<u8>),
    /// An invoke was ordered and validated (validly or not).
    Committed {
        /// The transaction.
        tx_id: TxId,
        /// Its validation code.
        code: ValidationCode,
        /// The chaincode's response payload.
        payload: Vec<u8>,
    },
    /// A payload was stored.
    Stored,
    /// The request failed for good: rejected, or transient with no retry
    /// budget left.
    Failed(HyperProvError),
}

impl From<GatewayReply> for Reply {
    fn from(reply: GatewayReply) -> Self {
        match reply {
            GatewayReply::Bytes(bytes) => Reply::Bytes(bytes),
            GatewayReply::Committed {
                tx_id,
                code,
                payload,
            } => Reply::Committed {
                tx_id,
                code,
                payload,
            },
        }
    }
}

impl Reply {
    /// The error this reply amounts to where a plan cannot use it.
    fn into_error(self) -> HyperProvError {
        match self {
            Reply::Failed(error) => error,
            _ => HyperProvError::Malformed("unexpected reply".to_owned()),
        }
    }

    /// The answer bytes, or the error the reply amounts to.
    fn into_bytes(self) -> Result<Vec<u8>, HyperProvError> {
        match self {
            Reply::Bytes(bytes) => Ok(bytes),
            other => Err(other.into_error()),
        }
    }

    /// The answer decoded as a `T`.
    pub(super) fn decode<T: Decode>(self) -> Result<T, HyperProvError> {
        T::from_bytes(&self.into_bytes()?).map_err(malformed)
    }
}

fn malformed(e: CodecError) -> HyperProvError {
    HyperProvError::Malformed(e.to_string())
}

/// What a plan wants next. (A `Step` lives only from `on_reply`'s return
/// to the machine's match on it; boxing the outcome would buy nothing for
/// an allocation per operation.)
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Step {
    /// Replies are still outstanding.
    Wait,
    /// Carry these out and report each one's reply.
    Send(Vec<Request>),
    /// The operation is over.
    Done(Result<OpOutput, HyperProvError>),
}

/// A running client operation.
#[derive(Debug)]
pub enum Plan {
    /// Waiting for a transaction to commit.
    Commit,
    /// Waiting for one query's answer, which this decodes.
    Query(fn(&[u8]) -> Result<OpOutput, CodecError>),
    /// Waiting for the storage put; the metadata post goes out on the ack.
    StoreThenPost(Option<Request>),
    /// Fetching the on-chain record, then the payload it locates.
    RecordThenPayload {
        /// Report integrity as a boolean instead of failing.
        check_only: bool,
        /// The record, once fetched.
        record: Option<Box<ProvenanceRecord>>,
    },
    /// One key-list query per shard, merged.
    FanIn(FanIn),
    /// Batched frontier rounds over the shards' graph indexes.
    Graph(GraphRounds),
}

impl Plan {
    /// The plan for `cmd` on a deployment of `shards` channels, with the
    /// requests that start it. `location_prefix` and `now_ms` fill in a
    /// `StoreData`'s record.
    pub fn start(
        cmd: ClientCommand,
        shards: usize,
        location_prefix: &str,
        now_ms: u64,
    ) -> (Plan, Vec<Request>) {
        let owner = |key: &str| HashRouter.route(key, shards);
        let keyed = |plan: Plan, function: &'static str, key: String| {
            let request = Request::query(owner(&key), function, vec![key.into_bytes()]);
            (plan, vec![request])
        };
        match cmd {
            ClientCommand::Post { key, input, .. } => {
                (Plan::Commit, vec![post(shards, key, &input)])
            }
            ClientCommand::StoreData {
                key,
                data,
                parents,
                metadata,
                ..
            } => {
                let checksum = Digest::of(&data);
                let mut input = RecordInput::new(checksum)
                    .with_location(
                        format!("{location_prefix}{}", checksum.to_hex()),
                        data.len() as u64,
                    )
                    .with_parents(parents)
                    .with_timestamp(now_ms);
                for (k, v) in metadata {
                    input = input.with_meta(k, v);
                }
                let put = Request::Put {
                    name: checksum.to_hex(),
                    data,
                };
                (
                    Plan::StoreThenPost(Some(post(shards, key, &input))),
                    vec![put],
                )
            }
            ClientCommand::Delete { key, .. } => {
                let request = Request::invoke(owner(&key), "delete", vec![key.into_bytes()]);
                (Plan::Commit, vec![request])
            }
            ClientCommand::Get { key, .. } => {
                let plan = Plan::Query(|b| ProvenanceRecord::from_bytes(b).map(OpOutput::Record));
                keyed(plan, "get", key)
            }
            ClientCommand::GetHistory { key, .. } => {
                let plan = Plan::Query(|b| decode_history(b).map(OpOutput::History));
                keyed(plan, "get_history", key)
            }
            ClientCommand::GetData { key, .. } => {
                keyed(Plan::record_then_payload(false), "get", key)
            }
            ClientCommand::CheckData { key, .. } => {
                keyed(Plan::record_then_payload(true), "get", key)
            }
            ClientCommand::GetKeysByChecksum { checksum, .. } => FanIn::start(
                shards,
                "get_keys_by_checksum",
                vec![checksum.to_hex().into_bytes()],
            ),
            ClientCommand::List { .. } => FanIn::start(shards, "list", vec![]),
            ClientCommand::GetLineage { key, depth, .. } => {
                Plan::graph("get_lineage", key, depth, shards)
            }
            ClientCommand::GetAncestry { key, depth, .. } => {
                Plan::graph("get_ancestry", key, depth, shards)
            }
            ClientCommand::GetDescendants { key, depth, .. } => {
                Plan::graph("get_descendants", key, depth, shards)
            }
            ClientCommand::GetClosure { key, depth, .. } => {
                Plan::graph("get_closure", key, depth, shards)
            }
            ClientCommand::GetSubgraph { key, depth, .. } => {
                Plan::graph("get_subgraph", key, depth, shards)
            }
        }
    }

    fn record_then_payload(check_only: bool) -> Plan {
        Plan::RecordThenPayload {
            check_only,
            record: None,
        }
    }

    fn graph(
        function: &'static str,
        key: String,
        depth: u32,
        shards: usize,
    ) -> (Plan, Vec<Request>) {
        // A single shard's index holds the whole DAG: its answer is final
        // and is passed on in the peer's BFS order. The rounds below merge
        // several shards' answers, which have no common order, and sort by
        // `(depth, key)`.
        if shards == 1 {
            let args = vec![
                depth.min(MAX_LINEAGE_DEPTH).to_string().into_bytes(),
                MAX_GRAPH_NODES.to_string().into_bytes(),
                format!("0:{key}").into_bytes(),
            ];
            let request = Request::query(0, function, args);
            let plan = match function {
                "get_lineage" => Plan::Query(|b| LineageSlice::from_bytes(b).map(lineage)),
                _ => Plan::Query(|b| GraphSlice::from_bytes(b).map(OpOutput::Graph)),
            };
            return (plan, vec![request]);
        }
        GraphRounds::start(function, key, depth, MAX_GRAPH_NODES, shards)
    }

    /// Feeds the reply to the request that went to `shard` (0 for storage
    /// requests) into the plan.
    pub fn on_reply(&mut self, shard: usize, reply: Reply, shards: usize) -> Step {
        match self {
            Plan::Commit => Step::Done(match reply {
                Reply::Committed {
                    tx_id,
                    code,
                    payload,
                } if code.is_valid() => Ok(OpOutput::Committed {
                    record: ProvenanceRecord::from_bytes(&payload).ok(),
                    tx_id,
                }),
                Reply::Committed { code, .. } => Err(HyperProvError::Invalidated(code)),
                other => Err(other.into_error()),
            }),
            Plan::Query(decode) => Step::Done(
                reply
                    .into_bytes()
                    .and_then(|b| decode(&b).map_err(malformed)),
            ),
            Plan::StoreThenPost(post) => match (reply, post.take()) {
                // Payload stored: now post the metadata on-chain.
                (Reply::Stored, Some(post)) => {
                    *self = Plan::Commit;
                    Step::Send(vec![post])
                }
                (other, _) => Step::Done(Err(other.into_error())),
            },
            Plan::RecordThenPayload { check_only, record } => match record.take() {
                None => match reply.decode::<ProvenanceRecord>() {
                    Ok(fetched) if fetched.has_offchain_data() => {
                        // The object name is the checksum hex (the
                        // location's last path component).
                        let name = fetched
                            .location
                            .rsplit('/')
                            .next()
                            .unwrap_or(&fetched.location)
                            .to_owned();
                        *record = Some(Box::new(fetched));
                        Step::Send(vec![Request::Fetch { name }])
                    }
                    Ok(_) => Step::Done(Err(HyperProvError::Rejected(
                        "item has no off-chain payload".to_owned(),
                    ))),
                    Err(error) => Step::Done(Err(error)),
                },
                Some(record) => Step::Done(verify_payload(*record, *check_only, reply)),
            },
            Plan::FanIn(fan_in) => fan_in.on_reply(reply),
            Plan::Graph(rounds) => rounds.on_reply(shard, reply, shards),
        }
    }
}

/// The `post` of `key`'s record on its owning shard.
fn post(shards: usize, key: String, input: &RecordInput) -> Request {
    let shard = HashRouter.route(&key, shards);
    Request::invoke(shard, "post", vec![key.into_bytes(), input.to_bytes()])
}

/// Checks a fetched payload against the checksum `record` carries.
fn verify_payload(
    record: ProvenanceRecord,
    check_only: bool,
    reply: Reply,
) -> Result<OpOutput, HyperProvError> {
    match reply {
        Reply::Bytes(data) => {
            let actual = Digest::of(&data);
            let ok = actual == record.checksum;
            if check_only {
                Ok(OpOutput::Checked { ok })
            } else if ok {
                Ok(OpOutput::Data { record, data })
            } else {
                Err(HyperProvError::IntegrityViolation {
                    expected: record.checksum,
                    actual,
                })
            }
        }
        // A payload the store cannot produce fails the check, not the
        // checking.
        Reply::Failed(HyperProvError::Storage(_)) if check_only => {
            Ok(OpOutput::Checked { ok: false })
        }
        other => Err(other.into_error()),
    }
}

/// A lineage answer: its entries, each with its record.
pub(super) fn lineage(answer: LineageSlice) -> OpOutput {
    let entries = answer.slice.entries.into_iter().zip(answer.records);
    let entries = entries.map(|((depth, _), record)| LineageEntry { depth, record });
    let truncated = answer.slice.truncated;
    OpOutput::Lineage {
        entries: entries.collect(),
        truncated,
    }
}

/// One key-list query (`list`, `get_keys_by_checksum`) per shard; done
/// when every shard has answered, with the sorted, deduplicated union —
/// on one shard, the peer's already ordered answer — or the first failure.
#[derive(Debug)]
pub struct FanIn {
    /// Replies still outstanding.
    remaining: usize,
    keys: Vec<String>,
    /// First per-shard failure, reported once the fan-in completes.
    error: Option<HyperProvError>,
}

impl FanIn {
    fn start(shards: usize, function: &'static str, args: Vec<Vec<u8>>) -> (Plan, Vec<Request>) {
        let requests = (0..shards)
            .map(|shard| Request::query(shard, function, args.clone()))
            .collect();
        let fan_in = FanIn {
            remaining: shards,
            keys: Vec::new(),
            error: None,
        };
        (Plan::FanIn(fan_in), requests)
    }

    fn on_reply(&mut self, reply: Reply) -> Step {
        match reply.decode::<Vec<String>>() {
            Ok(mut keys) => self.keys.append(&mut keys),
            Err(error) => {
                self.error.get_or_insert(error);
            }
        }
        self.remaining -= 1;
        if self.remaining > 0 {
            return Step::Wait;
        }
        Step::Done(match self.error.take() {
            Some(error) => Err(error),
            None => {
                let mut keys = std::mem::take(&mut self.keys);
                keys.sort();
                keys.dedup();
                Ok(OpOutput::Keys(keys))
            }
        })
    }
}

//! The graph-query plan: batched frontier rounds over the shards' DAG
//! indexes, merged into what one index over the whole DAG would answer.

use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use super::api::{HyperProvError, OpOutput};
use super::plan::{lineage, Plan, Reply, Request, Step};
use crate::chaincode::{MAX_GRAPH_NODES, MAX_LINEAGE_DEPTH};
use crate::record::{GraphSlice, LineageSlice, ProvenanceRecord};
use crate::router::HashRouter;

/// A traversal frontier: `(depth, key)` pairs, keys shared by refcount.
type Frontier = Vec<(u32, Rc<str>)>;

/// What a traversal knows about one key.
#[derive(Debug)]
struct Node {
    /// The least depth any answer has placed the key at.
    depth: u32,
    /// Whether a record for it is committed; `None` until a shard that
    /// could hold it has said.
    live: Option<bool>,
    /// The least depth it was expanded from — sent out as a root or, in
    /// an ancestry round, reported by its owner — `u32::MAX` before that.
    sent: u32,
}

impl Node {
    fn unsettled(depth: u32) -> Self {
        let (live, sent) = (None, u32::MAX);
        Node { depth, live, sent }
    }

    /// What `nodes` knows of `key`, now also placed at `depth` (and first
    /// heard of there if new).
    fn at<'a>(nodes: &'a mut HashMap<Rc<str>, Node>, key: &str, depth: u32) -> &'a mut Node {
        if !nodes.contains_key(key) {
            nodes.insert(Rc::from(key), Node::unsettled(depth));
        }
        let node = nodes.get_mut(key).expect("inserted above");
        node.depth = node.depth.min(depth);
        node
    }
}

/// A cross-shard graph traversal (`get_lineage`, `get_ancestry`,
/// `get_descendants`, `get_closure`, `get_subgraph`): one batched
/// frontier exchange per shard per round. It returns what one index over
/// the union of the shards returns — entries, boundary and edges at their
/// minimum depths, canonically sorted, and the same `truncated` — unless
/// the node budget cuts it: then `truncated` is set and `entries` holds
/// `budget` reachable nodes, not necessarily the nearest. A lineage keeps
/// each entry's record from its owner's answer.
///
/// Parent edges live on the shard that owns the child record, so an
/// ancestry or lineage round routes each frontier key to its owner, which
/// expands as deep as its local graph reaches; keys it does not hold come
/// back as boundary for the next round, and a key that turns out nearer
/// than the depth it was expanded from goes out again. Child edges live
/// on whichever shard committed the child, so the other three queries
/// send the whole frontier to every shard, one level per round.
///
/// A shard cannot tell which neighbours of the nodes it sees at the depth
/// clamp have been visited through other shards, so its `truncated` flag
/// is only a suspicion; when there is one, a last round hands every shard
/// every visited key as a root, so each knows, and that round's flags
/// decide.
#[derive(Debug)]
pub struct GraphRounds {
    /// The chaincode query every round repeats.
    function: &'static str,
    max_depth: u32,
    /// Node budget remaining.
    budget: usize,
    /// Every key any answer has mentioned. `Rc<str>` so a frontier shares
    /// the keys' allocations.
    nodes: HashMap<Rc<str>, Node>,
    edges: Vec<(String, String)>,
    /// A live node beyond the budget, or beyond the clamp, exists.
    truncated: bool,
    /// Some ancestry answer claimed to be cut short.
    flagged: bool,
    /// The round in flight is the last one, asking only for the flags.
    confirming: bool,
    /// The roots of the round in flight.
    roots: Frontier,
    /// Replies still outstanding this round.
    remaining: usize,
    /// Answers collected this round, tagged by shard.
    round: Vec<(usize, GraphSlice)>,
    /// The record of every live key answered so far (`get_lineage` only).
    records: Option<HashMap<String, ProvenanceRecord>>,
    /// First per-shard failure; reported when the round fans in.
    error: Option<HyperProvError>,
}

impl GraphRounds {
    /// A traversal by the chaincode query `function` from `key`, up to
    /// `depth` (clamped) levels and `budget` (at least one) nodes, with
    /// its first round's requests.
    pub fn start(
        function: &'static str,
        key: String,
        depth: u32,
        budget: usize,
        shards: usize,
    ) -> (Plan, Vec<Request>) {
        let mut rounds = GraphRounds {
            function,
            max_depth: depth.min(MAX_LINEAGE_DEPTH),
            budget,
            nodes: HashMap::from([(Rc::from(key), Node::unsettled(0))]),
            edges: Vec::new(),
            truncated: false,
            flagged: false,
            confirming: false,
            roots: Vec::new(),
            remaining: 0,
            round: Vec::new(),
            records: (function == "get_lineage").then(HashMap::new),
            error: None,
        };
        let Step::Send(requests) = rounds.dispatch(shards) else {
            unreachable!("a fresh traversal has its root to send");
        };
        (Plan::Graph(rounds), requests)
    }

    /// Child edges can be on any shard: every query but ancestry and
    /// lineage sends its frontier to all of them, one level per round.
    fn scatter(&self) -> bool {
        !matches!(self.function, "get_ancestry" | "get_lineage")
    }

    /// One shard of the round answered. When the round has fanned in, its
    /// answers are merged and the next frontier goes out.
    pub(super) fn on_reply(&mut self, shard: usize, reply: Reply, shards: usize) -> Step {
        let answer = match &mut self.records {
            Some(records) if !self.confirming => reply.decode::<LineageSlice>().map(|answer| {
                let keys = answer.slice.entries.iter().map(|(_, key)| key.clone());
                records.extend(keys.zip(answer.records));
                answer.slice
            }),
            _ => reply.decode::<GraphSlice>(),
        };
        match answer {
            Ok(slice) => self.round.push((shard, slice)),
            Err(error) => {
                self.error.get_or_insert(error);
            }
        }
        self.remaining -= 1;
        if self.remaining > 0 {
            return Step::Wait;
        }
        if let Some(error) = self.error.take() {
            return Step::Done(Err(error));
        }
        self.fold(shards);
        self.dispatch(shards)
    }

    /// The next round — one query per shard, each carrying the
    /// depth-tagged roots that shard must expand — or the merged slice
    /// when nothing is left to ask.
    fn dispatch(&mut self, shards: usize) -> Step {
        let (scatter, clamp) = (self.scatter(), self.max_depth);
        let mut roots: Frontier = Vec::new();
        if !self.truncated && !self.confirming {
            // A key is due when it is nearer than it was last expanded
            // from, unless it is known to need no expansion (dead, or
            // live at the clamp).
            for (key, node) in &mut self.nodes {
                let expands = node.live.is_none_or(|live| live && node.depth < clamp);
                if expands && node.depth < node.sent {
                    node.sent = node.depth;
                    roots.push((node.depth, key.clone()));
                }
            }
            // An ancestry answer's flag is raised by a node at the clamp
            // with a parent its shard has not seen reached; the other
            // queries' nodes at the clamp may have children on shards that
            // never saw them.
            let suspect = if scatter {
                self.nodes.values().any(|node| node.depth >= clamp)
            } else {
                self.flagged
            };
            if roots.is_empty() && suspect {
                self.confirming = true;
                let all = self.nodes.iter();
                roots.extend(all.map(|(key, node)| (node.depth, key.clone())));
            }
        }
        if roots.is_empty() {
            let slice = self.finish();
            return Step::Done(match self.records.take() {
                None => Ok(OpOutput::Graph(slice)),
                Some(mut found) => {
                    // Every live key came from an answer with its record.
                    let record = |(_, key): &(u32, String)| found.remove(key).expect("answered");
                    let records = slice.entries.iter().map(record).collect();
                    Ok(lineage(LineageSlice { slice, records }))
                }
            });
        }
        // Sorted, because the map's iteration order is not deterministic.
        roots.sort();
        // A scatter round expands one level; at the clamp it only settles
        // which roots are live. Cloning the frontier per shard only bumps
        // refcounts.
        let round_max = if scatter && !self.confirming {
            (roots[0].0 + 1).min(clamp)
        } else {
            clamp
        };
        // The last round asks for the flags only: a lineage's, no records.
        let function = if self.confirming && !scatter {
            "get_ancestry"
        } else {
            self.function
        };
        let mut per_shard: BTreeMap<usize, Frontier> = BTreeMap::new();
        if scatter || self.confirming {
            per_shard.extend((0..shards).map(|shard| (shard, roots.clone())));
        } else {
            for (d, k) in &roots {
                let owner = HashRouter.route(k, shards);
                per_shard.entry(owner).or_default().push((*d, k.clone()));
            }
        }
        let requests: Vec<Request> = per_shard
            .into_iter()
            .map(|(shard, roots)| {
                // The peers' own cap, not what is left of the budget: an
                // answer repeats nodes already counted.
                let mut args = vec![
                    round_max.to_string().into_bytes(),
                    MAX_GRAPH_NODES.to_string().into_bytes(),
                ];
                args.extend(roots.iter().map(|(d, k)| format!("{d}:{k}").into_bytes()));
                Request::query(shard, function, args)
            })
            .collect();
        self.roots = roots;
        self.remaining = requests.len();
        Step::Send(requests)
    }

    /// Merges one completed round into the traversal state.
    fn fold(&mut self, shards: usize) {
        let mut round = std::mem::take(&mut self.round);
        round.sort_by_key(|(shard, _)| *shard);
        if self.confirming {
            self.truncated = round.iter().any(|(_, slice)| slice.truncated);
            return;
        }
        let scatter = self.scatter();
        for (shard, slice) in &mut round {
            // A key is live if any shard holds it (it is live on exactly
            // its owning shard, so no reports conflict).
            for (d, k) in &slice.entries {
                let node = Node::at(&mut self.nodes, k, *d);
                if node.live != Some(true) {
                    if self.budget == 0 {
                        self.truncated = true;
                        continue;
                    }
                    self.budget -= 1;
                    node.live = Some(true);
                }
                if !scatter {
                    // Its owner expanded it from here, to the clamp.
                    node.sent = node.sent.min(*d);
                }
            }
            for (d, k) in &slice.boundary {
                let node = Node::at(&mut self.nodes, k, *d);
                if !scatter && HashRouter.route(k, shards) == *shard {
                    // Its owner lacks it: terminally unresolved (deleted
                    // or never posted).
                    node.live = Some(false);
                }
            }
            self.edges.append(&mut slice.edges);
            self.flagged |= slice.truncated;
            // The peer's own cap (no less than any budget) cut this
            // answer short: more than `budget` nodes are reachable.
            if slice.truncated && slice.entries.len() >= MAX_GRAPH_NODES {
                self.truncated = true;
            }
        }
        // Scatter roots no shard reported live are terminally unresolved
        // (unless the budget just turned live ones away).
        if scatter && !self.truncated {
            for (d, k) in std::mem::take(&mut self.roots) {
                Node::at(&mut self.nodes, &k, d).live.get_or_insert(false);
            }
        }
    }

    /// The merged slice, canonically sorted. Keys still unsettled when a
    /// budget stopped the rounds are left out.
    fn finish(&mut self) -> GraphSlice {
        let mut slice = GraphSlice {
            edges: std::mem::take(&mut self.edges),
            truncated: self.truncated,
            ..GraphSlice::default()
        };
        for (key, node) in self.nodes.drain() {
            match node.live {
                Some(true) => slice.entries.push((node.depth, key.to_string())),
                Some(false) => slice.boundary.push((node.depth, key.to_string())),
                None => {}
            }
        }
        slice.entries.sort();
        slice.boundary.sort();
        slice.edges.sort();
        slice.edges.dedup();
        slice
    }
}

//! The materialized provenance DAG index ([`ProvGraph`]).
//!
//! HyperProv's product surface is provenance *traversal* — ancestry,
//! descendants, tamper impact. Reassembling the graph from the state DB on
//! every query costs one read per visited record (and, across shards, one
//! round trip per hop). [`ProvGraph`] keeps the DAG materialized instead:
//! record keys are interned to dense ids, backward (parents) and forward
//! (children) adjacency lists are maintained transactionally as the
//! committer applies writes, and traversals become in-memory BFS with
//! depth/node budgets and cycle guards. A key's text is held once: the
//! key → id map and the id → key table share one allocation per node.
//!
//! The index is *derived* state: it can always be rebuilt by replaying the
//! block store (peer restart does exactly that), and [`ProvGraph::digest`]
//! hashes the live structure canonically so a rebuilt index can be checked
//! against the pre-crash one — or against a fresh scan of the state DB.
//!
//! The ledger stores opaque bytes and cannot parse application records, so
//! the committer is configured with a [`GraphIndexer`] (implemented by the
//! application layer) that maps committed writes to [`GraphUpdate`]s.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use crate::hash::{Digest, Sha256};
use crate::tx::StateKey;

/// Which way a traversal walks the DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Follow parent links: what the roots were derived from.
    Ancestors,
    /// Follow child links: what was derived from the roots (the
    /// tamper-impact set).
    Descendants,
    /// Follow both: the connected closure around the roots.
    Both,
}

/// Budgets bounding a traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraversalLimits {
    /// Maximum hops from a root (a root sits at its given base depth; its
    /// direct neighbours at base + 1, and so on up to this bound).
    pub max_depth: u32,
    /// Maximum number of reported nodes — the fan-out guard.
    pub max_nodes: usize,
}

/// A traversal's outcome.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Traversal {
    /// Visited live records as `(depth, key)`, in BFS order (depths are
    /// non-decreasing; each key appears once, at its minimum depth).
    pub entries: Vec<(u32, String)>,
    /// Keys the walk reached that are absent from this index: cross-shard
    /// parents, deleted records, or references that were never posted. A
    /// sharded client re-routes these to their owning shard and continues.
    pub boundary: Vec<(u32, String)>,
    /// Traversed `(child, parent)` edges, populated only when edge
    /// collection is requested (subgraph extraction).
    pub edges: Vec<(String, String)>,
    /// True when a budget cut the walk short — unexpanded reachable nodes
    /// remain beyond the depth or node limit.
    pub truncated: bool,
}

/// A provenance-graph mutation extracted from one committed state write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphUpdate {
    /// A record was written: (re)link `key` to `parents`.
    Insert {
        /// The record's key.
        key: String,
        /// The record's parent keys, in record order.
        parents: Vec<String>,
    },
    /// A record was deleted: tombstone `key`.
    Remove {
        /// The deleted record's key.
        key: String,
    },
}

/// Extracts graph updates from committed writes.
///
/// The ledger stores opaque values; only the application layer knows which
/// writes carry provenance records and how to read their parent lists, so
/// the committer is handed an indexer at deployment time and feeds every
/// applied write through it.
pub trait GraphIndexer: std::fmt::Debug {
    /// The graph mutation this write implies, if any (`value` is `None`
    /// for deletions).
    fn index(&self, key: &StateKey, value: Option<&[u8]>) -> Option<GraphUpdate>;
}

/// The materialized provenance DAG of one channel.
///
/// Nodes are record keys interned to dense `u32` ids. A node is *live*
/// when a record for it is currently committed; referencing a key that was
/// never (or is no longer) committed creates a *placeholder* node so the
/// edge is retained and the gap is countable (see [`ProvGraph::dangling`]).
#[derive(Debug, Clone, Default)]
pub struct ProvGraph {
    /// key -> interned id.
    ids: HashMap<Arc<str>, u32>,
    /// id -> key (the same allocation `ids` holds).
    keys: Vec<Arc<str>>,
    /// id -> parent ids, record order, deduplicated (backward adjacency).
    parents: Vec<Vec<u32>>,
    /// id -> child ids (forward adjacency).
    children: Vec<Vec<u32>>,
    /// id -> whether a record for this key is currently committed.
    live: Vec<bool>,
    /// Number of live nodes.
    live_count: usize,
    /// Monotonic count of parent references that were absent from the
    /// index at insert time.
    dangling: u64,
}

impl ProvGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        ProvGraph::default()
    }

    /// The index `indexer` derives from a scan of a world state (empty
    /// without one): what a graph maintained write by write must equal,
    /// and how a snapshot consumer rebuilds the index it does not
    /// transfer.
    pub fn from_state<'a>(
        indexer: Option<&dyn GraphIndexer>,
        entries: impl IntoIterator<Item = (&'a StateKey, &'a [u8])>,
    ) -> Self {
        let mut graph = ProvGraph::new();
        if let Some(indexer) = indexer {
            for (key, value) in entries {
                if let Some(update) = indexer.index(key, Some(value)) {
                    graph.apply(&update);
                }
            }
        }
        graph
    }

    fn intern(&mut self, key: &str) -> u32 {
        if let Some(&id) = self.ids.get(key) {
            return id;
        }
        let id = self.keys.len() as u32;
        let key: Arc<str> = Arc::from(key);
        self.ids.insert(Arc::clone(&key), id);
        self.keys.push(key);
        self.parents.push(Vec::new());
        self.children.push(Vec::new());
        self.live.push(false);
        id
    }

    /// An owned copy of node `id`'s key, for traversal results.
    fn key_of(&self, id: u32) -> String {
        String::from(&*self.keys[id as usize])
    }

    /// Applies one update; returns how many of the inserted record's
    /// parents were absent from the index at apply time (always 0 for
    /// removals).
    pub fn apply(&mut self, update: &GraphUpdate) -> u64 {
        match update {
            GraphUpdate::Insert { key, parents } => self.insert(key, parents),
            GraphUpdate::Remove { key } => {
                self.remove(key);
                0
            }
        }
    }

    /// Inserts (or re-links, on a re-post) `key` with `parents`; returns
    /// the number of parents absent from the index at insert time.
    pub fn insert(&mut self, key: &str, parents: &[String]) -> u64 {
        let id = self.intern(key);
        // A re-post replaces the parent list: unlink the old edges.
        for &old in &std::mem::take(&mut self.parents[id as usize]) {
            self.children[old as usize].retain(|&c| c != id);
        }
        if !self.live[id as usize] {
            self.live[id as usize] = true;
            self.live_count += 1;
        }
        let mut missing = 0u64;
        let mut linked: Vec<u32> = Vec::with_capacity(parents.len());
        for parent in parents {
            let pid = self.intern(parent);
            if pid == id || linked.contains(&pid) {
                continue; // self-loop or duplicate reference
            }
            if !self.live[pid as usize] {
                missing += 1;
            }
            linked.push(pid);
            self.children[pid as usize].push(id);
        }
        self.parents[id as usize] = linked;
        self.dangling += missing;
        missing
    }

    /// Tombstones `key`: the node stops being reported and its outgoing
    /// parent links vanish (the record no longer exists). Incoming links
    /// survive — children's records still name the key. Returns whether a
    /// live node was removed.
    pub fn remove(&mut self, key: &str) -> bool {
        let Some(&id) = self.ids.get(key) else {
            return false;
        };
        if !self.live[id as usize] {
            return false;
        }
        self.live[id as usize] = false;
        self.live_count -= 1;
        for &old in &std::mem::take(&mut self.parents[id as usize]) {
            self.children[old as usize].retain(|&c| c != id);
        }
        true
    }

    /// True when a committed record for `key` is indexed.
    pub fn contains(&self, key: &str) -> bool {
        self.ids.get(key).is_some_and(|&id| self.live[id as usize])
    }

    /// A committed record's parent keys (record order, deduplicated), or
    /// `None` when `key` is not live.
    pub fn parents_of(&self, key: &str) -> Option<Vec<&str>> {
        let &id = self.ids.get(key)?;
        if !self.live[id as usize] {
            return None;
        }
        Some(
            self.parents[id as usize]
                .iter()
                .map(|&p| &*self.keys[p as usize])
                .collect(),
        )
    }

    /// Number of live (committed) records in the index.
    pub fn len(&self) -> usize {
        self.live_count
    }

    /// True when no live record is indexed.
    pub fn is_empty(&self) -> bool {
        self.live_count == 0
    }

    /// Number of parent edges currently linked.
    pub fn edge_count(&self) -> usize {
        self.parents.iter().map(Vec::len).sum()
    }

    /// Monotonic count of parent references that were absent from the
    /// index when their record committed — cross-shard links or genuinely
    /// broken references.
    pub fn dangling(&self) -> u64 {
        self.dangling
    }

    /// Canonical digest of the live structure: every committed key with
    /// its parent keys, order-independent of how the index was built.
    /// Placeholder-only nodes do not contribute, so an index rebuilt from
    /// the current state (rather than incrementally across re-posts)
    /// hashes identically.
    pub fn digest(&self) -> Digest {
        let mut live: Vec<u32> = (0..self.keys.len() as u32)
            .filter(|&id| self.live[id as usize])
            .collect();
        live.sort_by(|&a, &b| self.keys[a as usize].cmp(&self.keys[b as usize]));
        let mut h = Sha256::new();
        for id in live {
            let key = &self.keys[id as usize];
            h.update(&(key.len() as u64).to_be_bytes());
            h.update(key.as_bytes());
            let parents = &self.parents[id as usize];
            h.update(&(parents.len() as u64).to_be_bytes());
            for &p in parents {
                let pk = &self.keys[p as usize];
                h.update(&(pk.len() as u64).to_be_bytes());
                h.update(pk.as_bytes());
            }
        }
        h.finalize()
    }

    /// Runs a bounded BFS from `roots` (each at its own base depth) in the
    /// given direction. Cycles (possible via re-posts) are guarded by the
    /// visited set; `collect_edges` additionally records the traversed
    /// `(child, parent)` edges for subgraph extraction.
    pub fn traverse(
        &self,
        roots: &[(u32, String)],
        direction: Direction,
        limits: TraversalLimits,
        collect_edges: bool,
    ) -> Traversal {
        let mut out = Traversal::default();
        let mut queue: VecDeque<(u32, u32)> = VecDeque::new();
        let mut seen: HashSet<u32> = HashSet::new();
        let mut boundary_seen: HashSet<String> = HashSet::new();
        // A multi-source BFS: roots, sorted by base depth, are merged into
        // the deque's non-decreasing depths as the walk reaches theirs (a
        // root first on a tie), so every key is visited at its minimum
        // depth — a root the walk reaches sooner than its base depth
        // included.
        let mut sorted: Vec<&(u32, String)> = roots.iter().collect();
        sorted.sort_by_key(|(depth, _)| *depth);
        // Roots still to come, by base depth: the walk leaves one alone
        // unless it arrives sooner, and counts it as visited where a node
        // at the clamp looks for unvisited children.
        let mut waiting: HashMap<u32, u32> = HashMap::new();
        for (depth, key) in &sorted {
            if let Some(&id) = self.ids.get(key.as_str()) {
                waiting.entry(id).or_insert(*depth);
            }
        }
        let arrive = |id: u32, depth: u32, seen: &mut HashSet<u32>, waiting: &HashMap<u32, u32>| {
            waiting.get(&id).is_none_or(|&base| depth < base) && seen.insert(id)
        };
        let mut roots = sorted.into_iter().peekable();
        loop {
            let root_due = match (roots.peek(), queue.front()) {
                (Some((root, _)), Some((queued, _))) => root <= queued,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let Some((depth, id)) = (if root_due {
                let (depth, key) = roots.next().expect("peeked above");
                let id = self.ids.get(key.as_str()).copied();
                id.map(|id| waiting.remove(&id));
                let live = id.is_some_and(|id| self.live[id as usize]);
                if !live && boundary_seen.insert(key.clone()) {
                    out.boundary.push((*depth, key.clone()));
                }
                // A placeholder's record is absent locally, but in the
                // forward direction its committed children are not.
                id.filter(|&id| (live || direction != Direction::Ancestors) && seen.insert(id))
                    .map(|id| (*depth, id))
            } else {
                queue.pop_front()
            }) else {
                continue;
            };
            if self.live[id as usize] {
                if out.entries.len() >= limits.max_nodes {
                    out.truncated = true;
                    break;
                }
                out.entries.push((depth, self.key_of(id)));
            }
            if depth >= limits.max_depth {
                // Depth budget exhausted: truncated if a neighbour the
                // walk has not reached — visited, on the boundary, or a
                // root still to come — is left unexpanded.
                let unreached = |&n: &u32| {
                    !seen.contains(&n)
                        && !waiting.contains_key(&n)
                        && !boundary_seen.contains(&*self.keys[n as usize])
                };
                let backward = direction != Direction::Descendants
                    && self.parents[id as usize].iter().any(unreached);
                let forward = direction != Direction::Ancestors
                    && self.children[id as usize].iter().any(unreached);
                if backward || forward {
                    out.truncated = true;
                }
                continue;
            }
            if direction != Direction::Descendants {
                for &p in &self.parents[id as usize] {
                    if collect_edges {
                        out.edges.push((self.key_of(id), self.key_of(p)));
                    }
                    if self.live[p as usize] {
                        if arrive(p, depth + 1, &mut seen, &waiting) {
                            queue.push_back((depth + 1, p));
                        }
                    } else {
                        if !boundary_seen.contains(&*self.keys[p as usize]) {
                            let key = self.key_of(p);
                            boundary_seen.insert(key.clone());
                            out.boundary.push((depth + 1, key));
                        }
                        // In the closure direction a placeholder still
                        // fans out to its committed children.
                        if direction == Direction::Both && arrive(p, depth + 1, &mut seen, &waiting)
                        {
                            queue.push_back((depth + 1, p));
                        }
                    }
                }
            }
            if direction != Direction::Ancestors {
                for &c in &self.children[id as usize] {
                    if collect_edges {
                        out.edges.push((self.key_of(c), self.key_of(id)));
                    }
                    if arrive(c, depth + 1, &mut seen, &waiting) {
                        queue.push_back((depth + 1, c));
                    }
                }
            }
        }
        // The closure direction reaches an edge from both endpoints;
        // canonicalize to sorted unique (child, parent) pairs.
        if collect_edges {
            out.edges.sort();
            out.edges.dedup();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WIDE: TraversalLimits = TraversalLimits {
        max_depth: 64,
        max_nodes: 4096,
    };

    fn keys(t: &Traversal) -> Vec<&str> {
        t.entries.iter().map(|(_, k)| k.as_str()).collect()
    }

    fn roots(list: &[(u32, &str)]) -> Vec<(u32, String)> {
        list.iter().map(|(d, k)| (*d, (*k).to_owned())).collect()
    }

    fn diamond() -> ProvGraph {
        // d -> {b, c} -> a
        let mut g = ProvGraph::new();
        g.insert("a", &[]);
        g.insert("b", &["a".into()]);
        g.insert("c", &["a".into()]);
        g.insert("d", &["b".into(), "c".into()]);
        g
    }

    #[test]
    fn diamond_ancestry_visits_shared_ancestor_once() {
        let g = diamond();
        let t = g.traverse(&roots(&[(0, "d")]), Direction::Ancestors, WIDE, false);
        assert_eq!(t.entries.len(), 4);
        assert_eq!(keys(&t), vec!["d", "b", "c", "a"]);
        assert_eq!(t.entries[3], (2, "a".to_owned()));
        assert!(!t.truncated);
        assert!(t.boundary.is_empty());
    }

    #[test]
    fn descendants_mirror_ancestry() {
        let g = diamond();
        let t = g.traverse(&roots(&[(0, "a")]), Direction::Descendants, WIDE, false);
        assert_eq!(keys(&t), vec!["a", "b", "c", "d"]);
        let closure = g.traverse(&roots(&[(0, "b")]), Direction::Both, WIDE, false);
        let mut got = keys(&closure);
        got.sort_unstable();
        assert_eq!(got, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn depth_budget_truncates_and_reports_it() {
        let g = diamond();
        let limits = TraversalLimits {
            max_depth: 1,
            max_nodes: 4096,
        };
        let t = g.traverse(&roots(&[(0, "d")]), Direction::Ancestors, limits, false);
        assert_eq!(keys(&t), vec!["d", "b", "c"]);
        assert!(
            t.truncated,
            "unexpanded parents of b/c must flag truncation"
        );
        let exact = TraversalLimits {
            max_depth: 2,
            max_nodes: 4096,
        };
        let t = g.traverse(&roots(&[(0, "d")]), Direction::Ancestors, exact, false);
        assert!(!t.truncated, "the walk completed within the budget");
    }

    #[test]
    fn a_parent_already_reached_at_the_clamp_is_no_truncation() {
        // r -> {a, b}, a -> b: at depth 1, a's parent b is already visited.
        let mut g = ProvGraph::new();
        g.insert("b", &[]);
        g.insert("a", &["b".into()]);
        g.insert("r", &["a".into(), "b".into()]);
        let limits = TraversalLimits {
            max_depth: 1,
            max_nodes: 4096,
        };
        let t = g.traverse(&roots(&[(0, "r")]), Direction::Ancestors, limits, false);
        assert_eq!(keys(&t), vec!["r", "a", "b"]);
        assert!(!t.truncated);
        // Likewise a deleted parent the walk already put on the boundary.
        g.remove("b");
        let t = g.traverse(&roots(&[(0, "r")]), Direction::Ancestors, limits, false);
        assert_eq!((keys(&t), t.truncated), (vec!["r", "a"], false));
    }

    #[test]
    fn node_budget_truncates() {
        let g = diamond();
        let limits = TraversalLimits {
            max_depth: 64,
            max_nodes: 2,
        };
        let t = g.traverse(&roots(&[(0, "d")]), Direction::Ancestors, limits, false);
        assert_eq!(t.entries.len(), 2);
        assert!(t.truncated);
    }

    #[test]
    fn missing_parent_becomes_boundary_and_counts_dangling() {
        let mut g = ProvGraph::new();
        assert_eq!(g.insert("x", &["ghost".into()]), 1);
        assert_eq!(g.dangling(), 1);
        let t = g.traverse(&roots(&[(0, "x")]), Direction::Ancestors, WIDE, false);
        assert_eq!(keys(&t), vec!["x"]);
        assert_eq!(t.boundary, vec![(1, "ghost".to_owned())]);
        // The parent arriving later resolves the link (counter is an
        // event count, not live state).
        g.insert("ghost", &[]);
        let t = g.traverse(&roots(&[(0, "x")]), Direction::Ancestors, WIDE, false);
        assert_eq!(keys(&t), vec!["x", "ghost"]);
        assert!(t.boundary.is_empty());
        assert_eq!(g.dangling(), 1);
    }

    #[test]
    fn placeholder_root_still_fans_out_to_children() {
        let mut g = ProvGraph::new();
        g.insert("child", &["elsewhere".into()]);
        let t = g.traverse(
            &roots(&[(0, "elsewhere")]),
            Direction::Descendants,
            WIDE,
            false,
        );
        assert_eq!(keys(&t), vec!["child"]);
        assert_eq!(t.boundary, vec![(0, "elsewhere".to_owned())]);
        // Ancestry from a placeholder reports only the boundary.
        let t = g.traverse(
            &roots(&[(0, "elsewhere")]),
            Direction::Ancestors,
            WIDE,
            false,
        );
        assert!(t.entries.is_empty());
        assert_eq!(t.boundary, vec![(0, "elsewhere".to_owned())]);
    }

    #[test]
    fn repost_replaces_parent_links() {
        let mut g = diamond();
        g.insert("d", &["a".into()]);
        let t = g.traverse(&roots(&[(0, "d")]), Direction::Ancestors, WIDE, false);
        assert_eq!(keys(&t), vec!["d", "a"]);
        let down = g.traverse(&roots(&[(0, "b")]), Direction::Descendants, WIDE, false);
        assert_eq!(keys(&down), vec!["b"], "b lost its child edge to d");
    }

    #[test]
    fn remove_tombstones_but_keeps_children_reachable() {
        let mut g = diamond();
        assert!(g.remove("b"));
        assert!(!g.remove("b"));
        assert!(!g.contains("b"));
        assert_eq!(g.len(), 3);
        let t = g.traverse(&roots(&[(0, "d")]), Direction::Ancestors, WIDE, false);
        // b's record is gone: its parent links vanish, so `a` is reached
        // only through c.
        assert_eq!(keys(&t), vec!["d", "c", "a"]);
        assert!(t.boundary.iter().any(|(_, k)| k == "b"));
    }

    #[test]
    fn cycle_via_repost_terminates() {
        let mut g = ProvGraph::new();
        g.insert("a", &[]);
        g.insert("b", &["a".into()]);
        g.insert("a", &["b".into()]); // now a <-> b
        let t = g.traverse(&roots(&[(0, "a")]), Direction::Ancestors, WIDE, false);
        assert_eq!(keys(&t), vec!["a", "b"]);
        let t = g.traverse(&roots(&[(0, "a")]), Direction::Both, WIDE, false);
        assert_eq!(t.entries.len(), 2);
    }

    #[test]
    fn self_loops_and_duplicate_parents_are_dropped() {
        let mut g = ProvGraph::new();
        g.insert("a", &[]);
        let missing = g.insert("b", &["a".into(), "a".into(), "b".into()]);
        assert_eq!(missing, 0);
        assert_eq!(g.parents_of("b").unwrap(), vec!["a"]);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn digest_ignores_build_history() {
        let mut incremental = ProvGraph::new();
        incremental.insert("x", &["ghost".into()]);
        incremental.insert("x", &[]); // re-post drops the ghost edge
        incremental.insert("y", &["x".into()]);
        let mut fresh = ProvGraph::new();
        fresh.insert("y", &["x".into()]);
        fresh.insert("x", &[]);
        assert_eq!(incremental.digest(), fresh.digest());
        fresh.insert("z", &["y".into()]);
        assert_ne!(incremental.digest(), fresh.digest());
    }

    #[test]
    fn multi_root_traversal_uses_minimum_depths() {
        let g = diamond();
        let t = g.traverse(
            &roots(&[(3, "d"), (0, "c")]),
            Direction::Ancestors,
            WIDE,
            false,
        );
        // c is visited at depth 0 and a at depth 1, even though the walk
        // from d would reach them deeper.
        assert!(t.entries.contains(&(0, "c".to_owned())));
        assert!(t.entries.contains(&(1, "a".to_owned())));
        assert!(t.entries.contains(&(3, "d".to_owned())));
        // And the other way round: a root the walk reaches sooner than its
        // base depth is visited then, not left waiting for its turn.
        let t = g.traverse(
            &roots(&[(1, "d"), (5, "a")]),
            Direction::Ancestors,
            WIDE,
            false,
        );
        assert_eq!(t.entries.last(), Some(&(3, "a".to_owned())));
        assert_eq!(t.entries.len(), 4);
    }

    #[test]
    fn subgraph_collects_edges() {
        let g = diamond();
        let t = g.traverse(&roots(&[(0, "d")]), Direction::Ancestors, WIDE, true);
        let mut edges = t.edges.clone();
        edges.sort();
        assert_eq!(
            edges,
            vec![
                ("b".to_owned(), "a".to_owned()),
                ("c".to_owned(), "a".to_owned()),
                ("d".to_owned(), "b".to_owned()),
                ("d".to_owned(), "c".to_owned()),
            ]
        );
    }

    #[test]
    fn apply_routes_updates() {
        let mut g = ProvGraph::new();
        assert_eq!(
            g.apply(&GraphUpdate::Insert {
                key: "k".into(),
                parents: vec!["p".into()],
            }),
            1
        );
        assert_eq!(g.apply(&GraphUpdate::Remove { key: "k".into() }), 0);
        assert!(!g.contains("k"));
    }
}

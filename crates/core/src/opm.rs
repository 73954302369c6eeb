//! Open Provenance Model (OPM) mapping.
//!
//! The paper states HyperProv "follows the features from the Open
//! Provenance Model" (Moreau et al., FGCS 2011). This module maps the
//! on-chain records onto OPM's node and edge vocabulary:
//!
//! * every record version is an **Artifact**,
//! * every posting transaction is a **Process**,
//! * every creator certificate is an **Agent**,
//! * `Process used Artifact` for each parent,
//! * `Artifact wasGeneratedBy Process` for the posted item,
//! * `Artifact wasDerivedFrom Artifact` for each parent link, and
//! * `Process wasControlledBy Agent` for the creator.
//!
//! The graph renders to Graphviz DOT for inspection.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::record::ProvenanceRecord;

/// OPM node kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpmNodeKind {
    /// An immutable piece of state (a data item version).
    Artifact,
    /// An action (a posting transaction).
    Process,
    /// A contextual entity controlling processes (a certificate).
    Agent,
}

/// OPM edge kinds (cause ← effect direction as in the OPM spec).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpmEdgeKind {
    /// Process used Artifact.
    Used,
    /// Artifact was generated by Process.
    WasGeneratedBy,
    /// Artifact was derived from Artifact.
    WasDerivedFrom,
    /// Process was controlled by Agent.
    WasControlledBy,
}

impl OpmEdgeKind {
    /// The OPM spec's label for this edge.
    pub fn label(self) -> &'static str {
        match self {
            OpmEdgeKind::Used => "used",
            OpmEdgeKind::WasGeneratedBy => "wasGeneratedBy",
            OpmEdgeKind::WasDerivedFrom => "wasDerivedFrom",
            OpmEdgeKind::WasControlledBy => "wasControlledBy",
        }
    }
}

/// A node of the OPM graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpmNode {
    /// Unique node id (e.g. `artifact:item1`, `agent:client0@org1`).
    pub id: String,
    /// Node kind.
    pub kind: OpmNodeKind,
    /// Display label.
    pub label: String,
}

/// An edge of the OPM graph (`from` is the effect, `to` the cause).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpmEdge {
    /// Source node id.
    pub from: String,
    /// Destination node id.
    pub to: String,
    /// Edge kind.
    pub kind: OpmEdgeKind,
}

/// An OPM provenance graph built from HyperProv records.
///
/// # Examples
///
/// ```
/// use hyperprov::{OpmGraph, ProvenanceRecord, RecordInput};
/// use hyperprov_fabric::{MspBuilder, MspId};
/// use hyperprov_ledger::Digest;
///
/// let mut b = MspBuilder::new(1);
/// let cert = b.enroll("alice", &MspId::new("org1")).certificate().clone();
/// let rec = ProvenanceRecord::from_input("item", RecordInput::new(Digest::of(b"x")), cert);
/// let mut graph = OpmGraph::new();
/// graph.add_record(&rec);
/// assert!(graph.to_dot().contains("wasGeneratedBy"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct OpmGraph {
    nodes: BTreeMap<String, OpmNode>,
    edges: Vec<OpmEdge>,
}

impl OpmGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        OpmGraph::default()
    }

    /// Builds a graph from a set of records (e.g. a lineage query result).
    pub fn from_records<'a>(records: impl IntoIterator<Item = &'a ProvenanceRecord>) -> Self {
        let mut graph = OpmGraph::new();
        for record in records {
            graph.add_record(record);
        }
        graph
    }

    /// Adds one record's artifact, process, agent and edges.
    pub fn add_record(&mut self, record: &ProvenanceRecord) {
        let artifact = format!("artifact:{}", record.key);
        let process = format!("process:post-{}@{}", record.key, record.timestamp_ms);
        let agent = format!("agent:{}", record.creator.subject);

        self.add_node(OpmNode {
            id: artifact.clone(),
            kind: OpmNodeKind::Artifact,
            label: format!("{} ({})", record.key, record.checksum.short()),
        });
        self.add_node(OpmNode {
            id: process.clone(),
            kind: OpmNodeKind::Process,
            label: format!("post {}", record.key),
        });
        self.add_node(OpmNode {
            id: agent.clone(),
            kind: OpmNodeKind::Agent,
            label: format!("{} [{}]", record.creator.subject, record.creator.org),
        });

        self.add_edge(OpmEdge {
            from: artifact.clone(),
            to: process.clone(),
            kind: OpmEdgeKind::WasGeneratedBy,
        });
        self.add_edge(OpmEdge {
            from: process.clone(),
            to: agent,
            kind: OpmEdgeKind::WasControlledBy,
        });
        for parent in &record.parents {
            let parent_artifact = format!("artifact:{parent}");
            // The parent artifact may not have been added yet; create a
            // placeholder so the graph is self-contained.
            self.nodes
                .entry(parent_artifact.clone())
                .or_insert(OpmNode {
                    id: parent_artifact.clone(),
                    kind: OpmNodeKind::Artifact,
                    label: parent.clone(),
                });
            self.add_edge(OpmEdge {
                from: process.clone(),
                to: parent_artifact.clone(),
                kind: OpmEdgeKind::Used,
            });
            self.add_edge(OpmEdge {
                from: artifact.clone(),
                to: parent_artifact,
                kind: OpmEdgeKind::WasDerivedFrom,
            });
        }
    }

    fn add_node(&mut self, node: OpmNode) {
        self.nodes.insert(node.id.clone(), node);
    }

    fn add_edge(&mut self, edge: OpmEdge) {
        if !self.edges.contains(&edge) {
            self.edges.push(edge);
        }
    }

    /// All edges, in insertion order.
    pub fn edges(&self) -> &[OpmEdge] {
        &self.edges
    }

    /// Nodes of one kind.
    pub fn nodes_of(&self, kind: OpmNodeKind) -> Vec<&OpmNode> {
        self.nodes.values().filter(|n| n.kind == kind).collect()
    }

    /// Renders the graph as Graphviz DOT (artifacts as ellipses, processes
    /// as boxes, agents as octagons — the conventional OPM shapes).
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph opm {\n  rankdir=BT;\n");
        for node in self.nodes.values() {
            let shape = match node.kind {
                OpmNodeKind::Artifact => "ellipse",
                OpmNodeKind::Process => "box",
                OpmNodeKind::Agent => "octagon",
            };
            let _ = writeln!(
                out,
                "  \"{}\" [shape={shape}, label=\"{}\"];",
                node.id, node.label
            );
        }
        for edge in &self.edges {
            let _ = writeln!(
                out,
                "  \"{}\" -> \"{}\" [label=\"{}\"];",
                edge.from,
                edge.to,
                edge.kind.label()
            );
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordInput;
    use hyperprov_fabric::{MspBuilder, MspId};
    use hyperprov_ledger::Digest;

    fn record(key: &str, parents: Vec<String>) -> ProvenanceRecord {
        let mut b = MspBuilder::new(1);
        let cert = b.enroll("alice", &MspId::new("org1")).certificate().clone();
        ProvenanceRecord::from_input(
            key,
            RecordInput::new(Digest::of(key.as_bytes())).with_parents(parents),
            cert,
        )
    }

    #[test]
    fn single_record_produces_three_nodes_two_edges() {
        let mut g = OpmGraph::new();
        g.add_record(&record("a", vec![]));
        assert_eq!(g.edges().len(), 2);
        assert_eq!(g.nodes_of(OpmNodeKind::Artifact).len(), 1);
        assert_eq!(g.nodes_of(OpmNodeKind::Process).len(), 1);
        assert_eq!(g.nodes_of(OpmNodeKind::Agent).len(), 1);
    }

    #[test]
    fn derived_record_links_parents() {
        let g = OpmGraph::from_records([
            &record("parent", vec![]),
            &record("child", vec!["parent".into()]),
        ]);
        let derived: Vec<&OpmEdge> = g
            .edges()
            .iter()
            .filter(|e| e.kind == OpmEdgeKind::WasDerivedFrom)
            .collect();
        assert_eq!(derived.len(), 1);
        assert_eq!(derived[0].from, "artifact:child");
        assert_eq!(derived[0].to, "artifact:parent");
        let used = g
            .edges()
            .iter()
            .filter(|e| e.kind == OpmEdgeKind::Used)
            .count();
        assert_eq!(used, 1);
    }

    #[test]
    fn unknown_parent_gets_placeholder_artifact() {
        let g = OpmGraph::from_records([&record("orphan", vec!["ghost".into()])]);
        let artifacts = g.nodes_of(OpmNodeKind::Artifact);
        assert!(artifacts.iter().any(|n| n.id == "artifact:ghost"));
    }

    #[test]
    fn shared_agent_deduplicated() {
        let g = OpmGraph::from_records([&record("a", vec![]), &record("b", vec![])]);
        assert_eq!(g.nodes_of(OpmNodeKind::Agent).len(), 1);
        assert_eq!(g.nodes_of(OpmNodeKind::Artifact).len(), 2);
    }

    #[test]
    fn dot_output_is_valid_shape() {
        let g = OpmGraph::from_records([&record("x", vec![])]);
        let dot = g.to_dot();
        assert!(dot.starts_with("digraph opm {"));
        assert!(dot.ends_with("}\n"));
        assert!(dot.contains("shape=ellipse"));
        assert!(dot.contains("shape=box"));
        assert!(dot.contains("shape=octagon"));
        assert!(dot.contains("wasControlledBy"));
    }

    #[test]
    fn duplicate_edges_not_repeated() {
        let mut g = OpmGraph::new();
        let r = record("a", vec![]);
        g.add_record(&r);
        let edges_before = g.edges().len();
        g.add_record(&r);
        assert_eq!(g.edges().len(), edges_before);
    }
}

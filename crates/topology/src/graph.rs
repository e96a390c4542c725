//! Explicit network graph underlying a DC topology.
//!
//! The closed-form level/hop computations in [`crate::tree`] and
//! [`crate::fattree`] are what the algorithms use, but the experiments also
//! need per-link state (utilization CDFs of Fig 4a) and the tests need an
//! independent source of truth for shortest-path hop counts. [`NetGraph`]
//! provides both: a flat node/link store plus BFS.

use crate::ids::{LinkId, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Role of a node in the layered DC topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeKind {
    /// A physical server (hypervisor host).
    Host,
    /// A Top-of-Rack switch.
    Tor,
    /// An aggregation switch.
    Aggregation,
    /// A core switch/router.
    Core,
}

impl NodeKind {
    /// Human-readable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            NodeKind::Host => "host",
            NodeKind::Tor => "tor",
            NodeKind::Aggregation => "aggregation",
            NodeKind::Core => "core",
        }
    }
}

/// A node in the topology graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Node {
    /// This node's identifier (dense, 0-based).
    pub id: NodeId,
    /// What role the node plays.
    pub kind: NodeKind,
}

/// A bidirectional link between two nodes.
///
/// `level` follows the paper's numbering: links between servers and ToR
/// switches are 1-level links, ToR–aggregation links are 2-level, and
/// aggregation–core links are 3-level.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// This link's identifier (dense, 0-based).
    pub id: LinkId,
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Link level (1 = host↔ToR, 2 = ToR↔agg, 3 = agg↔core).
    pub level: u8,
    /// Nominal capacity in bits per second.
    pub capacity_bps: f64,
}

impl Link {
    /// Returns the endpoint opposite to `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not an endpoint of this link.
    pub fn other(&self, n: NodeId) -> NodeId {
        if n == self.a {
            self.b
        } else if n == self.b {
            self.a
        } else {
            panic!("node {n} is not an endpoint of {}", self.id)
        }
    }
}

/// Flat adjacency-list graph of hosts and switches.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct NetGraph {
    nodes: Vec<Node>,
    links: Vec<Link>,
    adjacency: Vec<Vec<LinkId>>,
}

impl NetGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        NetGraph::default()
    }

    /// Adds a node of the given kind, returning its identifier.
    pub fn add_node(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId::new(self.nodes.len() as u32);
        self.nodes.push(Node { id, kind });
        self.adjacency.push(Vec::new());
        id
    }

    /// Adds a bidirectional link, returning its identifier.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint does not exist, if the endpoints are equal,
    /// or if `capacity_bps` is not positive and finite.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, level: u8, capacity_bps: f64) -> LinkId {
        assert!(a.index() < self.nodes.len(), "unknown node {a}");
        assert!(b.index() < self.nodes.len(), "unknown node {b}");
        assert_ne!(a, b, "self-links are not allowed");
        assert!(
            capacity_bps.is_finite() && capacity_bps > 0.0,
            "link capacity must be positive and finite"
        );
        let id = LinkId::new(self.links.len() as u32);
        self.links.push(Link {
            id,
            a,
            b,
            level,
            capacity_bps,
        });
        self.adjacency[a.index()].push(id);
        self.adjacency[b.index()].push(id);
        id
    }

    /// Number of links in the graph.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// All nodes, ordered by identifier.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All links, ordered by identifier.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The link with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the link does not exist.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Links incident to `n`.
    pub fn incident(&self, n: NodeId) -> &[LinkId] {
        &self.adjacency[n.index()]
    }

    /// Number of hops along a shortest path between two nodes, by BFS.
    ///
    /// Returns `None` if the nodes are disconnected. This is the reference
    /// implementation that the closed-form `hops` of the concrete topologies
    /// are validated against in tests.
    pub fn bfs_hops(&self, from: NodeId, to: NodeId) -> Option<u32> {
        if from == to {
            return Some(0);
        }
        let mut dist: Vec<Option<u32>> = vec![None; self.nodes.len()];
        dist[from.index()] = Some(0);
        let mut queue = VecDeque::new();
        queue.push_back(from);
        while let Some(n) = queue.pop_front() {
            let d = dist[n.index()].expect("queued nodes have distances");
            for &lid in &self.adjacency[n.index()] {
                let m = self.links[lid.index()].other(n);
                if dist[m.index()].is_none() {
                    if m == to {
                        return Some(d + 1);
                    }
                    dist[m.index()] = Some(d + 1);
                    queue.push_back(m);
                }
            }
        }
        None
    }

    /// Iterates over the links of the given level.
    pub fn links_of_level(&self, level: u8) -> impl Iterator<Item = &Link> + '_ {
        self.links.iter().filter(move |l| l.level == level)
    }

    /// True if every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut queue = VecDeque::new();
        seen[0] = true;
        queue.push_back(NodeId::new(0));
        let mut count = 1;
        while let Some(n) = queue.pop_front() {
            for &lid in &self.adjacency[n.index()] {
                let m = self.links[lid.index()].other(n);
                if !seen[m.index()] {
                    seen[m.index()] = true;
                    count += 1;
                    queue.push_back(m);
                }
            }
        }
        count == self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (NetGraph, Vec<NodeId>) {
        // h0 - t0 - a0 - t1 - h1 with an extra a1 parallel to a0.
        let mut g = NetGraph::new();
        let h0 = g.add_node(NodeKind::Host);
        let t0 = g.add_node(NodeKind::Tor);
        let a0 = g.add_node(NodeKind::Aggregation);
        let a1 = g.add_node(NodeKind::Aggregation);
        let t1 = g.add_node(NodeKind::Tor);
        let h1 = g.add_node(NodeKind::Host);
        g.add_link(h0, t0, 1, 1e9);
        g.add_link(t0, a0, 2, 1e10);
        g.add_link(t0, a1, 2, 1e10);
        g.add_link(a0, t1, 2, 1e10);
        g.add_link(a1, t1, 2, 1e10);
        g.add_link(t1, h1, 1, 1e9);
        (g, vec![h0, t0, a0, a1, t1, h1])
    }

    #[test]
    fn bfs_hops_on_diamond() {
        let (g, n) = diamond();
        assert_eq!(g.bfs_hops(n[0], n[0]), Some(0));
        assert_eq!(g.bfs_hops(n[0], n[1]), Some(1));
        assert_eq!(g.bfs_hops(n[0], n[5]), Some(4));
        assert_eq!(g.bfs_hops(n[2], n[3]), Some(2));
    }

    #[test]
    fn disconnected_nodes_return_none() {
        let mut g = NetGraph::new();
        let a = g.add_node(NodeKind::Host);
        let b = g.add_node(NodeKind::Host);
        assert_eq!(g.bfs_hops(a, b), None);
        assert!(!g.is_connected());
    }

    #[test]
    fn connectivity() {
        let (g, _) = diamond();
        assert!(g.is_connected());
        assert!(NetGraph::new().is_connected());
    }

    #[test]
    fn link_other_endpoint() {
        let (g, n) = diamond();
        let l = g.link(LinkId::new(0));
        assert_eq!(l.other(n[0]), n[1]);
        assert_eq!(l.other(n[1]), n[0]);
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn link_other_panics_for_foreign_node() {
        let (g, n) = diamond();
        let l = g.link(LinkId::new(0));
        let _ = l.other(n[5]);
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn self_link_rejected() {
        let mut g = NetGraph::new();
        let a = g.add_node(NodeKind::Host);
        g.add_link(a, a, 1, 1e9);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn non_positive_capacity_rejected() {
        let mut g = NetGraph::new();
        let a = g.add_node(NodeKind::Host);
        let b = g.add_node(NodeKind::Tor);
        g.add_link(a, b, 1, 0.0);
    }

    #[test]
    fn links_of_level_filters() {
        let (g, _) = diamond();
        assert_eq!(g.links_of_level(1).count(), 2);
        assert_eq!(g.links_of_level(2).count(), 4);
        assert_eq!(g.links_of_level(3).count(), 0);
    }

    #[test]
    fn node_kind_names() {
        assert_eq!(NodeKind::Host.name(), "host");
        assert_eq!(NodeKind::Tor.name(), "tor");
        assert_eq!(NodeKind::Aggregation.name(), "aggregation");
        assert_eq!(NodeKind::Core.name(), "core");
    }

    #[test]
    fn incident_lists() {
        let (g, n) = diamond();
        assert_eq!(g.incident(n[1]).len(), 3); // t0: host + two aggs
        assert_eq!(g.incident(n[0]).len(), 1);
    }
}

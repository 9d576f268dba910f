//! Topology description and static routing.
//!
//! A topology is a directed graph of hosts and switches connected by
//! unidirectional links (a duplex cable is two links). Routing is static
//! shortest-path (minimum hop count), computed once at setup — the same
//! model the paper's ns-3 experiments use (global static routing over
//! dumbbell / parking-lot topologies).

use std::collections::VecDeque;

use cebinae_ds::DetMap;
use cebinae_sim::Duration;

use crate::ids::{LinkId, NodeId};

/// What kind of device a node is. Only switches run queueing disciplines
/// of interest; hosts originate and sink traffic (their access-link egress
/// still has a FIFO so bursts are serialized realistically).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeKind {
    Host,
    Switch,
}

/// Static description of one unidirectional link.
#[derive(Clone, Copy, Debug)]
pub struct LinkSpec {
    pub from: NodeId,
    pub to: NodeId,
    /// Line rate in bits per second.
    pub rate_bps: u64,
    /// Propagation delay.
    pub delay: Duration,
}

/// A static network topology.
#[derive(Clone, Debug, Default)]
pub struct Topology {
    nodes: Vec<NodeKind>,
    links: Vec<LinkSpec>,
    /// Outgoing link ids per node (adjacency).
    out_links: Vec<Vec<LinkId>>,
}

impl Topology {
    pub fn new() -> Topology {
        Topology::default()
    }

    pub fn add_host(&mut self) -> NodeId {
        self.add_node(NodeKind::Host)
    }

    pub fn add_switch(&mut self) -> NodeId {
        self.add_node(NodeKind::Switch)
    }

    fn add_node(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId::from(self.nodes.len());
        self.nodes.push(kind);
        self.out_links.push(Vec::new());
        id
    }

    /// Add a single unidirectional link.
    pub fn add_link(&mut self, from: NodeId, to: NodeId, rate_bps: u64, delay: Duration) -> LinkId {
        assert!(rate_bps > 0, "link rate must be positive");
        assert!(from != to, "self-links are not supported");
        let id = LinkId::from(self.links.len());
        self.links.push(LinkSpec {
            from,
            to,
            rate_bps,
            delay,
        });
        self.out_links[from.index()].push(id);
        id
    }

    /// Add a symmetric duplex cable; returns `(a→b, b→a)`.
    pub fn add_duplex_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        rate_bps: u64,
        delay: Duration,
    ) -> (LinkId, LinkId) {
        (
            self.add_link(a, b, rate_bps, delay),
            self.add_link(b, a, rate_bps, delay),
        )
    }

    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    #[inline]
    pub fn link(&self, l: LinkId) -> &LinkSpec {
        &self.links[l.index()]
    }

    #[inline]
    pub fn links(&self) -> &[LinkSpec] {
        &self.links
    }

    #[inline]
    pub fn out_links(&self, n: NodeId) -> &[LinkId] {
        &self.out_links[n.index()]
    }

    /// Minimum-hop path of link ids from `src` to `dst`, or `None` if
    /// unreachable. Ties are broken deterministically by link insertion
    /// order (BFS exploration order). Routing many pairs? Use [`routes`],
    /// which keeps the BFS trees between calls.
    ///
    /// [`routes`]: Topology::routes
    pub fn shortest_path(&self, src: NodeId, dst: NodeId) -> Option<Vec<LinkId>> {
        self.routes().path(src, dst)
    }

    /// A route cache over this topology (see [`Routes`]).
    pub fn routes(&self) -> Routes<'_> {
        Routes {
            topo: self,
            trees: DetMap::new(),
        }
    }

    /// Breadth-first search from `root` over the whole graph: for each node,
    /// the link it was first reached by (`None` for `root` itself and for
    /// unreachable nodes).
    fn bfs_tree(&self, root: NodeId) -> Vec<Option<LinkId>> {
        let mut prev: Vec<Option<LinkId>> = vec![None; self.nodes.len()];
        let mut frontier = VecDeque::from([root]);
        while let Some(n) = frontier.pop_front() {
            for &lid in &self.out_links[n.index()] {
                let next = self.links[lid.index()].to;
                if next == root || prev[next.index()].is_some() {
                    continue; // already reached
                }
                prev[next.index()] = Some(lid);
                frontier.push_back(next);
            }
        }
        prev
    }

    /// Sum of propagation delays along a path (one direction).
    pub fn path_delay(&self, path: &[LinkId]) -> Duration {
        path.iter().map(|l| self.link(*l).delay).sum()
    }
}

/// Shortest paths over one [`Topology`], one BFS per distinct *root* rather
/// than one per query, so routing F flows costs O(roots × nodes + F × hops).
///
/// The root of a query is its source — unless the source has exactly one
/// out-link (every host), in which case that link is peeled off and the
/// root is the node behind it. This is exact, ties included: a BFS from
/// such a source visits only that neighbour at depth 1, and the source
/// adds nothing to the frontier afterwards, so the search it runs is the
/// neighbour's own. On a dumbbell every flow in a direction therefore
/// shares one tree.
pub struct Routes<'a> {
    topo: &'a Topology,
    /// `bfs_tree(root)` for each root asked about so far.
    trees: DetMap<NodeId, Vec<Option<LinkId>>>,
}

impl Routes<'_> {
    /// Same result as [`Topology::shortest_path`].
    pub fn path(&mut self, src: NodeId, dst: NodeId) -> Option<Vec<LinkId>> {
        let mut path = Vec::new();
        self.path_into(src, dst, &mut path)?;
        Some(path)
    }

    /// [`path`](Self::path), appended to `out`, which is left as it was
    /// when there is no path.
    pub fn path_into(&mut self, src: NodeId, dst: NodeId, out: &mut Vec<LinkId>) -> Option<()> {
        if src == dst {
            return Some(());
        }
        let topo = self.topo;
        let (first_hop, root) = match topo.out_links(src) {
            [only] => (Some(*only), topo.link(*only).to),
            _ => (None, src),
        };
        let tree = self.trees.get_or_insert_with(root, || topo.bfs_tree(root));
        // Walk the predecessor links back from `dst`, then flip. Every node
        // the tree reaches chains back to the root, so only `dst` itself
        // can fail the lookup, before anything is pushed.
        let start = out.len();
        let mut cur = dst;
        while cur != root {
            let lid = tree[cur.index()]?;
            out.push(lid);
            cur = topo.link(lid).from;
        }
        out.extend(first_hop);
        out[start..].reverse();
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_topology() -> (Topology, Vec<NodeId>) {
        // h0 - s1 - s2 - h3
        let mut t = Topology::new();
        let h0 = t.add_host();
        let s1 = t.add_switch();
        let s2 = t.add_switch();
        let h3 = t.add_host();
        t.add_duplex_link(h0, s1, 1_000_000_000, Duration::from_micros(5));
        t.add_duplex_link(s1, s2, 100_000_000, Duration::from_micros(10));
        t.add_duplex_link(s2, h3, 1_000_000_000, Duration::from_micros(5));
        (t, vec![h0, s1, s2, h3])
    }

    #[test]
    fn shortest_path_on_line() {
        let (t, n) = line_topology();
        let p = t.shortest_path(n[0], n[3]).unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(t.link(p[0]).from, n[0]);
        assert_eq!(t.link(p[2]).to, n[3]);
        // Reverse path exists and is distinct.
        let r = t.shortest_path(n[3], n[0]).unwrap();
        assert_eq!(r.len(), 3);
        assert_ne!(p, r);
    }

    #[test]
    fn path_metrics() {
        let (t, n) = line_topology();
        let p = t.shortest_path(n[0], n[3]).unwrap();
        assert_eq!(t.path_delay(&p), Duration::from_micros(20));
    }

    #[test]
    fn unreachable_is_none() {
        let mut t = Topology::new();
        let a = t.add_host();
        let b = t.add_host();
        assert!(t.shortest_path(a, b).is_none());
        // One-way link: reachable forward, not backward.
        t.add_link(a, b, 1_000_000, Duration::ZERO);
        assert!(t.shortest_path(a, b).is_some());
        assert!(t.shortest_path(b, a).is_none());
    }

    #[test]
    fn self_path_is_empty() {
        let (t, n) = line_topology();
        assert_eq!(t.shortest_path(n[1], n[1]).unwrap().len(), 0);
    }

    #[test]
    fn bfs_prefers_fewest_hops() {
        // Diamond: a -> b -> d and a -> c1 -> c2 -> d.
        let mut t = Topology::new();
        let a = t.add_host();
        let b = t.add_switch();
        let c1 = t.add_switch();
        let c2 = t.add_switch();
        let d = t.add_host();
        let r = 1_000_000;
        t.add_link(a, c1, r, Duration::ZERO);
        t.add_link(c1, c2, r, Duration::ZERO);
        t.add_link(c2, d, r, Duration::ZERO);
        t.add_link(a, b, r, Duration::ZERO);
        t.add_link(b, d, r, Duration::ZERO);
        let p = t.shortest_path(a, d).unwrap();
        assert_eq!(p.len(), 2, "must take the 2-hop path via b");
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn self_link_rejected() {
        let mut t = Topology::new();
        let a = t.add_host();
        t.add_link(a, a, 1, Duration::ZERO);
    }
}

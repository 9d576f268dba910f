//! Topology description: nodes joined by unidirectional links (a duplex
//! cable is two links). The topology does no routing. Whoever builds it
//! knows each flow's path while adding the links (the engine's `chain`
//! builder: a line of switches with hosts as leaves, so every flow has one
//! path) and hands the link ids over; [`Topology::walk_ends`] checks them.

use cebinae_sim::Duration;

use crate::ids::{LinkId, NodeId};

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
    nodes: usize,
    links: Vec<LinkSpec>,
}

impl Topology {
    pub fn new() -> Topology {
        Topology::default()
    }

    pub fn add_node(&mut self) -> NodeId {
        self.nodes += 1;
        NodeId::from(self.nodes - 1)
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
    pub fn link(&self, l: LinkId) -> &LinkSpec {
        &self.links[l.index()]
    }

    #[inline]
    pub fn links(&self) -> &[LinkSpec] {
        &self.links
    }

    /// The first and last node of `path` if each link starts where the one
    /// before it ends; `None` for an empty path, a gap or an unknown link.
    pub fn walk_ends(&self, path: &[LinkId]) -> Option<(NodeId, NodeId)> {
        let mut links = path.iter().map(|l| self.links.get(l.index()));
        let first = links.next()??;
        let mut end = first.to;
        for link in links {
            let link = link?;
            if link.from != end {
                return None;
            }
            end = link.to;
        }
        Some((first.from, end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_ends_follows_links_and_rejects_gaps() {
        // h0 - s1 - s2 - h3, as three duplex cables.
        let mut t = Topology::new();
        let n: Vec<NodeId> = (0..4).map(|_| t.add_node()).collect();
        let d = Duration::from_micros(5);
        let (a, a_rev) = t.add_duplex_link(n[0], n[1], 1_000_000_000, d);
        let (b, b_rev) = t.add_duplex_link(n[1], n[2], 100_000_000, d);
        let (c, c_rev) = t.add_duplex_link(n[2], n[3], 1_000_000_000, d);
        assert_eq!(t.walk_ends(&[a, b, c]), Some((n[0], n[3])));
        assert_eq!(t.walk_ends(&[c_rev, b_rev, a_rev]), Some((n[3], n[0])));
        assert_eq!(t.walk_ends(&[b]), Some((n[1], n[2])));
        assert_eq!(t.walk_ends(&[]), None);
        assert_eq!(t.walk_ends(&[a, c]), None, "a gap at s1 -> s2");
        assert_eq!(t.walk_ends(&[a, LinkId(6)]), None, "an unknown link");
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn self_link_rejected() {
        let mut t = Topology::new();
        let a = t.add_node();
        t.add_link(a, a, 1, Duration::ZERO);
    }
}

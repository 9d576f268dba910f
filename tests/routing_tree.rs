//! `Topology::routes` (one memoised BFS tree per root, single-homed
//! sources peeled to their neighbour) returns exactly what one early-exit
//! BFS per query did — the same links, so the same tie-breaks — for every
//! ordered node pair of every topology shape the repository builds.

use cebinae_check::scenario::GenScenario;
use cebinae_engine::{dumbbell, parking_lot, Discipline, DumbbellFlow, ParkingLotGroup, ScenarioParams};
use cebinae_net::{LinkId, NodeId, Topology};
use cebinae_sim::rng::DetRng;
use cebinae_sim::Duration;
use cebinae_transport::CcKind;
use std::collections::VecDeque;

/// The per-query BFS `Topology::shortest_path` was before the route cache,
/// kept verbatim as the reference.
fn reference_shortest_path(t: &Topology, src: NodeId, dst: NodeId) -> Option<Vec<LinkId>> {
    if src == dst {
        return Some(Vec::new());
    }
    let mut prev: Vec<Option<LinkId>> = vec![None; t.node_count()];
    let mut visited = vec![false; t.node_count()];
    visited[src.index()] = true;
    let mut frontier = VecDeque::from([src]);
    while let Some(n) = frontier.pop_front() {
        for &lid in t.out_links(n) {
            let next = t.link(lid).to;
            if visited[next.index()] {
                continue;
            }
            visited[next.index()] = true;
            prev[next.index()] = Some(lid);
            if next == dst {
                let mut path = Vec::new();
                let mut cur = dst;
                while cur != src {
                    let lid = prev[cur.index()].expect("broken bfs chain");
                    path.push(lid);
                    cur = t.link(lid).from;
                }
                path.reverse();
                return Some(path);
            }
            frontier.push_back(next);
        }
    }
    None
}

/// Every ordered pair, through one shared cache (so later queries read
/// trees earlier ones built) and through a fresh one per query.
fn assert_all_pairs(t: &Topology, what: &str) {
    let mut routes = t.routes();
    for s in 0..t.node_count() {
        for d in 0..t.node_count() {
            let (src, dst) = (NodeId::from(s), NodeId::from(d));
            let want = reference_shortest_path(t, src, dst);
            assert_eq!(routes.path(src, dst), want, "{what}: cached {src} -> {dst}");
            assert_eq!(t.shortest_path(src, dst), want, "{what}: fresh {src} -> {dst}");
        }
    }
}

const R: u64 = 1_000_000;

#[test]
fn line_one_way_and_self() {
    // h0 - s1 - s2 - h3, duplex.
    let mut t = Topology::new();
    let n = [t.add_host(), t.add_switch(), t.add_switch(), t.add_host()];
    for w in n.windows(2) {
        t.add_duplex_link(w[0], w[1], R, Duration::from_micros(5));
    }
    assert_all_pairs(&t, "line");
    assert_eq!(t.routes().path(n[1], n[1]), Some(Vec::new()));

    // a -> b only, c isolated: forward reachable, nothing else.
    let mut t = Topology::new();
    let (a, b, c) = (t.add_host(), t.add_host(), t.add_host());
    let ab = t.add_link(a, b, R, Duration::ZERO);
    assert_all_pairs(&t, "one-way");
    let mut routes = t.routes();
    assert_eq!(routes.path(a, b), Some(vec![ab]));
    assert_eq!(routes.path(b, a), None);
    assert_eq!(routes.path(a, c), None);
    assert_eq!(routes.path(c, c), Some(Vec::new()));
    // `path_into` appends behind what `out` already holds (the engine's
    // path arena), and leaves it as it was when there is no path.
    let mut out = vec![ab];
    assert_eq!(routes.path_into(a, b, &mut out), Some(()));
    assert_eq!(routes.path_into(b, a, &mut out), None);
    assert_eq!(routes.path_into(c, a, &mut out), None);
    assert_eq!(out, vec![ab, ab]);

    // One-way ring: every node is single-homed, so every query peels.
    let mut t = Topology::new();
    let ring: Vec<NodeId> = (0..5).map(|_| t.add_switch()).collect();
    for i in 0..5 {
        t.add_link(ring[i], ring[(i + 1) % 5], R, Duration::ZERO);
    }
    assert_all_pairs(&t, "ring");
}

#[test]
fn diamond_ties_break_by_link_order_and_two_out_links_are_not_peeled() {
    // h -> a; a -> c -> d and a -> b -> d tie at two hops, `c` wired first;
    // a -> x1 -> x2 -> d is longer and wired before both.
    let mut t = Topology::new();
    let (h, a, b, c, d) = (t.add_host(), t.add_switch(), t.add_switch(), t.add_switch(), t.add_host());
    let (x1, x2) = (t.add_switch(), t.add_switch());
    let ha = t.add_link(h, a, R, Duration::ZERO);
    let ax1 = t.add_link(a, x1, R, Duration::ZERO);
    t.add_link(x1, x2, R, Duration::ZERO);
    t.add_link(x2, d, R, Duration::ZERO);
    let ac = t.add_link(a, c, R, Duration::ZERO);
    let ab = t.add_link(a, b, R, Duration::ZERO);
    t.add_link(b, d, R, Duration::ZERO);
    let cd = t.add_link(c, d, R, Duration::ZERO);
    t.add_link(d, a, R, Duration::ZERO);
    assert_all_pairs(&t, "diamond");
    let mut routes = t.routes();
    // The single-homed host is peeled to `a` and inherits its tie-break.
    assert_eq!(routes.path(h, d), Some(vec![ha, ac, cd]));
    // `a` has three out-links: rooting at its first neighbour (`x1`, which
    // does reach `d`) would give the four-hop detour.
    assert_eq!(routes.path(a, d), Some(vec![ac, cd]));
    assert_eq!(routes.path(a, x1), Some(vec![ax1]));
    assert_eq!(routes.path(a, b), Some(vec![ab]));
}

#[test]
fn scenario_builders_route_identically() {
    let flows: Vec<DumbbellFlow> = (0..64)
        .map(|i| DumbbellFlow::new(CcKind::NewReno, 20 + i % 7))
        .collect();
    let p = ScenarioParams::new(100_000_000, 420, Discipline::Fifo);
    let (cfg, _) = dumbbell(&flows, &p);
    assert_all_pairs(&cfg.topology, "dumbbell(64)");

    let groups = [(0, 3, 4), (0, 1, 2), (1, 2, 2), (2, 3, 2)].map(|(enter, exit, count)| ParkingLotGroup {
        cc: CcKind::NewReno,
        count,
        enter,
        exit,
        rtt: Duration::from_millis(30),
    });
    let (cfg, _) = parking_lot(3, &groups, &p);
    assert_all_pairs(&cfg.topology, "parking_lot(3)");

    for seed in 0..16u64 {
        let (cfg, _) = GenScenario::generate(seed).build();
        assert_all_pairs(&cfg.topology, &format!("GenScenario seed {seed}"));
    }
}

#[test]
fn random_digraphs_route_identically() {
    for case in 0..48u64 {
        let mut rng = DetRng::seed_from_u64(0x7EE5 ^ case);
        let n = rng.gen_range_usize(2, 24);
        let mut t = Topology::new();
        let nodes: Vec<NodeId> = (0..n).map(|_| t.add_switch()).collect();
        // Sparse enough that single-homed, unreachable and multi-homed
        // nodes all occur, with parallel links and cycles.
        for _ in 0..rng.gen_range_usize(1, 2 * n + 1) {
            let (a, b) = (rng.gen_range_usize(0, n), rng.gen_range_usize(0, n));
            if a != b {
                t.add_link(nodes[a], nodes[b], R, Duration::ZERO);
            }
        }
        assert_all_pairs(&t, &format!("random case {case}"));
    }
}

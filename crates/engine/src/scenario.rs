//! Canonical experiment scenarios. Every topology of the paper's
//! evaluation is a [`chain`] of switches joined by bottleneck links with
//! per-flow access links: the dumbbell is a one-segment chain, the parking
//! lot a chain of equal-rate segments. Parameterized by per-flow CCA, RTT
//! and start time, bottleneck rates, buffer, and discipline under test.

use cebinae::CebinaeConfig;
use cebinae_faults::FaultPlan;
use cebinae_fq::{AfqConfig, FqCoDelConfig};
use cebinae_net::{BufferConfig, LinkId, Topology};
use cebinae_sim::{Duration, SchedulerKind, Time};
use cebinae_transport::{CcKind, TcpConfig};

use crate::world::{FlowSpec, QdiscSpec, SimConfig};

/// The discipline installed at the bottleneck(s) — the paper's three
/// columns plus our AFQ extension and the per-flow-⊤ Cebinae variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Discipline {
    Fifo,
    FqCoDel,
    Cebinae,
    CebinaePerFlowTop,
    Afq,
}

impl Discipline {
    pub fn label(self) -> &'static str {
        match self {
            Discipline::Fifo => "FIFO",
            Discipline::FqCoDel => "FQ",
            Discipline::Cebinae => "Cebinae",
            Discipline::CebinaePerFlowTop => "Cebinae-PF",
            Discipline::Afq => "AFQ",
        }
    }

    pub const PAPER: [Discipline; 3] = [Discipline::Fifo, Discipline::FqCoDel, Discipline::Cebinae];
}

/// Tunables shared by the scenario builders.
#[derive(Clone, Debug)]
pub struct ScenarioParams {
    /// Bottleneck line rate, bits/sec, of every segment `dumbbell` and
    /// `parking_lot` build ([`chain`] takes per-segment rates).
    pub bottleneck_bps: u64,
    /// Bottleneck buffer (Table 2 "Buf." column).
    pub buffer: BufferConfig,
    /// Discipline at the bottleneck(s).
    pub discipline: Discipline,
    /// Cebinae thresholds (δp, δf, τ); the paper's conservative default.
    pub cebinae_thresholds: (f64, f64, f64),
    /// Override the recomputation period P. The harness pins P = 1: with
    /// Equation 2 sizing, dT already exceeds the buffer drain time (and
    /// thus the typical RTT timescale), and a faster control plane tracks
    /// aggressive flows better; the `ablation-p` experiment quantifies this.
    pub cebinae_p: Option<u32>,
    pub duration: Duration,
    pub sample_interval: Duration,
    pub seed: u64,
    /// Collect deterministic telemetry into [`SimResult::telemetry`](crate::SimResult).
    pub telemetry: bool,
    /// `false` forces full event-driven emulation on every link, the
    /// reference path for differential tests (default true); see
    /// [`SimConfig::express`](crate::SimConfig).
    pub express: bool,
    /// Scheduler backend for the event loop (run-identical either way).
    pub scheduler: SchedulerKind,
    /// Fault plan applied to the built simulation (empty = clean links).
    pub faults: FaultPlan,
}

impl ScenarioParams {
    pub fn new(bottleneck_bps: u64, buffer_mtus: u64, discipline: Discipline) -> ScenarioParams {
        ScenarioParams {
            bottleneck_bps,
            buffer: BufferConfig::mtus(buffer_mtus),
            discipline,
            cebinae_thresholds: (0.01, 0.01, 0.01),
            cebinae_p: None,
            duration: Duration::from_secs(10),
            sample_interval: Duration::from_millis(100),
            seed: 1,
            telemetry: false,
            express: true,
            scheduler: SchedulerKind::default(),
            faults: FaultPlan::default(),
        }
    }

    /// Build the qdisc spec for one bottleneck link of `rate_bps`.
    fn bottleneck_qdisc(&self, rate_bps: u64, max_rtt: Duration) -> QdiscSpec {
        match self.discipline {
            Discipline::Fifo => QdiscSpec::Fifo { buffer: self.buffer },
            Discipline::FqCoDel => {
                QdiscSpec::FqCoDel(FqCoDelConfig::ideal_with_limit(self.buffer.bytes))
            }
            Discipline::Afq => QdiscSpec::Afq(AfqConfig { limit_bytes: self.buffer.bytes }),
            Discipline::Cebinae | Discipline::CebinaePerFlowTop => {
                let (dp, df, tau) = self.cebinae_thresholds;
                let mut cfg = CebinaeConfig::for_link(rate_bps, self.buffer, max_rtt)
                    .with_thresholds(dp, df, tau);
                if let Some(p) = self.cebinae_p {
                    cfg.p = p;
                }
                cfg.per_flow_top = self.discipline == Discipline::CebinaePerFlowTop;
                QdiscSpec::Cebinae(cfg)
            }
        }
    }
}

/// One flow of a dumbbell scenario.
#[derive(Clone, Debug)]
pub struct DumbbellFlow {
    pub cc: CcKind,
    pub rtt: Duration,
    pub start: Time,
    /// Application demand; `None` = infinite (long-lived).
    pub app_bytes: Option<u64>,
}

impl DumbbellFlow {
    pub fn new(cc: CcKind, rtt_ms: u64) -> DumbbellFlow {
        DumbbellFlow {
            cc,
            rtt: Duration::from_millis(rtt_ms),
            start: Time::ZERO,
            app_bytes: None,
        }
    }

    pub fn starting_at(mut self, t: Time) -> DumbbellFlow {
        self.start = t;
        self
    }

    /// Give the flow a finite demand (for flow-completion-time studies).
    pub fn with_bytes(mut self, bytes: u64) -> DumbbellFlow {
        self.app_bytes = Some(bytes);
        self
    }
}

/// Expand a Table 2-style CCA mix `{cc: count}` into flows with the given
/// RTT list cycled across them (the paper assigns one RTT per group when
/// several are listed).
pub fn cca_mix(groups: &[(CcKind, usize)], rtts_ms: &[u64]) -> Vec<DumbbellFlow> {
    assert!(!rtts_ms.is_empty());
    let mut flows = Vec::new();
    for (gi, &(cc, count)) in groups.iter().enumerate() {
        let rtt = rtts_ms[gi.min(rtts_ms.len() - 1)];
        for _ in 0..count {
            flows.push(DumbbellFlow::new(cc, rtt));
        }
    }
    flows
}

/// Build a chain of switches `s0 → s1 → … → sN` joined by one bottleneck
/// per entry of `rates` (segment `i` runs `s_i → s_{i+1}` at `rates[i]`),
/// with a host pair per flow: the source hangs off switch `enter`, the
/// destination off switch `exit`, so the flow crosses segments
/// `[enter, exit)`. Every scenario topology is built here, and each
/// flow's data and ACK paths are named here as its links are added;
/// `rates`, not `p.bottleneck_bps`, sets the segment rates. Returns the
/// sim config and the forward bottleneck link ids, in segment order.
pub fn chain(
    rates: &[u64],
    flows: impl IntoIterator<Item = (DumbbellFlow, usize, usize)>,
    p: &ScenarioParams,
) -> (SimConfig, Vec<LinkId>) {
    let mut topo = Topology::new();
    let switches: Vec<_> = (0..=rates.len()).map(|_| topo.add_node()).collect();
    // Bottlenecks: small propagation delay; RTT lives on the access links.
    let bneck_delay = Duration::from_micros(5);
    let (bnecks, bnecks_rev): (Vec<LinkId>, Vec<LinkId>) = rates
        .iter()
        .zip(switches.windows(2))
        .map(|(&rate, w)| topo.add_duplex_link(w[0], w[1], rate, bneck_delay))
        .unzip();

    // Access links run 4x the fastest bottleneck (so they are never the
    // constraint) with per-flow delay placing the configured RTT.
    let access_rate = rates.iter().max().expect("a chain has a segment").saturating_mul(4);
    let flows = flows.into_iter();
    let mut specs = Vec::with_capacity(flows.size_hint().0);
    let mut max_rtt = Duration::ZERO;
    for (f, enter, exit) in flows {
        assert!(enter < exit && exit <= rates.len());
        let src = topo.add_node();
        let dst = topo.add_node();
        max_rtt = max_rtt.max(f.rtt);
        // RTT = 2*(d_src + crossed*d_bneck + d_dst); put the bulk at the source.
        let d_dst = Duration::from_micros(5);
        let d_src = (f.rtt / 2).saturating_sub(bneck_delay * (exit - enter) as u64 + d_dst);
        let (src_in, src_out) = topo.add_duplex_link(src, switches[enter], access_rate, d_src);
        let (dst_in, dst_out) = topo.add_duplex_link(switches[exit], dst, access_rate, d_dst);
        let mut tcp = TcpConfig::with_cc(f.cc);
        tcp.app_bytes = f.app_bytes;
        // Exact capacity: one allocation per path, which is most of the
        // set-up of a many-flow dumbbell.
        let hops = exit - enter + 2;
        let mut data_path = Vec::with_capacity(hops);
        data_path.push(src_in);
        data_path.extend(&bnecks[enter..exit]);
        data_path.push(dst_in);
        let mut ack_path = Vec::with_capacity(hops);
        ack_path.push(dst_out);
        ack_path.extend(bnecks_rev[enter..exit].iter().rev());
        ack_path.push(src_out);
        specs.push(FlowSpec {
            data_path,
            ack_path,
            tcp,
            start: f.start,
        });
    }

    let mut qdiscs = cebinae_ds::DetMap::new();
    for (&link, &rate) in bnecks.iter().zip(rates) {
        qdiscs.insert(link, p.bottleneck_qdisc(rate, max_rtt * 2));
    }
    let mut cfg = SimConfig::new(topo, specs);
    cfg.qdiscs = qdiscs;
    cfg.monitored_links = bnecks.clone();
    cfg.duration = p.duration;
    cfg.sample_interval = p.sample_interval;
    cfg.seed = p.seed;
    cfg.telemetry = p.telemetry;
    cfg.express = p.express;
    cfg.scheduler = p.scheduler;
    cfg.faults = p.faults.clone();
    (cfg, bnecks)
}

/// Build a dumbbell: per-flow host pairs on both sides of a single
/// bottleneck `s0 → s1`. Returns the sim config and the forward bottleneck
/// link id.
pub fn dumbbell(flows: &[DumbbellFlow], p: &ScenarioParams) -> (SimConfig, LinkId) {
    assert!(!flows.is_empty());
    let (cfg, bnecks) = chain(&[p.bottleneck_bps], flows.iter().map(|f| (f.clone(), 0, 1)), p);
    (cfg, bnecks[0])
}

/// One group of flows in the parking lot.
#[derive(Clone, Debug)]
pub struct ParkingLotGroup {
    pub cc: CcKind,
    pub count: usize,
    /// First bottleneck segment index the group enters at (0-based).
    pub enter: usize,
    /// One-past-the-last segment it crosses.
    pub exit: usize,
    pub rtt: Duration,
}

/// Build the Figure 11 parking lot: `segments` bottleneck links in a chain
/// of switches; each group's flows cross segments `[enter, exit)`. Returns
/// the config and the forward bottleneck link ids.
pub fn parking_lot(
    segments: usize,
    groups: &[ParkingLotGroup],
    p: &ScenarioParams,
) -> (SimConfig, Vec<LinkId>) {
    let flows = groups.iter().flat_map(|g| {
        let flow = DumbbellFlow {
            cc: g.cc,
            rtt: g.rtt,
            start: Time::ZERO,
            app_bytes: None,
        };
        std::iter::repeat_n((flow, g.enter, g.exit), g.count)
    });
    chain(&vec![p.bottleneck_bps; segments], flows, p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::Simulation;

    fn path_delay(cfg: &SimConfig, path: &[LinkId]) -> Duration {
        path.iter().map(|&l| cfg.topology.link(l).delay).sum()
    }

    /// Checks every flow's built paths against the chain it was built on:
    /// flow `i` entered at `want[i].0`, left at `want[i].1` and asked for
    /// RTT `want[i].2`.
    fn assert_chain_paths(cfg: &SimConfig, bnecks: &[LinkId], want: &[(usize, usize, Duration)]) {
        let topo = &cfg.topology;
        let reverse_of = |fwd: LinkId| {
            let (from, to) = (topo.link(fwd).from, topo.link(fwd).to);
            let rev = topo.links().iter().position(|l| l.from == to && l.to == from);
            LinkId::from(rev.expect("every cable is duplex"))
        };
        assert_eq!(cfg.flows.len(), want.len());
        for (i, (f, &(enter, exit, rtt))) in cfg.flows.iter().zip(want).enumerate() {
            let data = &f.data_path;
            let crossed = exit - enter;
            assert_eq!(data.len(), crossed + 2, "flow {i}");
            assert_eq!(data[1..=crossed], bnecks[enter..exit], "flow {i}");
            let (access_in, access_out) = (topo.link(data[0]), topo.link(data[crossed + 1]));
            assert_eq!(access_in.to, topo.link(bnecks[enter]).from, "flow {i}");
            assert_eq!(access_out.from, topo.link(bnecks[exit - 1]).to, "flow {i}");
            let ack: Vec<LinkId> = data.iter().rev().map(|&l| reverse_of(l)).collect();
            assert_eq!(f.ack_path, ack, "flow {i}: the reverse halves in reverse order");
            assert_eq!(path_delay(cfg, data) + path_delay(cfg, &f.ack_path), rtt, "flow {i}");
        }
    }

    #[test]
    fn chain_names_each_flows_data_and_ack_links() {
        let ms = Duration::from_millis;
        let r = 100_000_000;
        let p = ScenarioParams::new(r, 420, Discipline::Cebinae);

        let flows = [DumbbellFlow::new(CcKind::NewReno, 20), DumbbellFlow::new(CcKind::Cubic, 256)];
        let (cfg, bneck) = dumbbell(&flows, &p);
        assert_chain_paths(&cfg, &[bneck], &[(0, 1, ms(20)), (0, 1, ms(256))]);

        let group = |count, enter, exit, rtt| ParkingLotGroup {
            cc: CcKind::NewReno,
            count,
            enter,
            exit,
            rtt,
        };
        let groups = [group(2, 0, 3, ms(30)), group(1, 1, 2, ms(10)), group(1, 2, 3, ms(40))];
        let (cfg, bnecks) = parking_lot(3, &groups, &p);
        let want = [(0, 3, ms(30)), (0, 3, ms(30)), (1, 2, ms(10)), (2, 3, ms(40))];
        assert_chain_paths(&cfg, &bnecks, &want);

        let flows = [
            (DumbbellFlow::new(CcKind::Vegas, 40), 0, 2),
            (DumbbellFlow::new(CcKind::Bic, 20), 1, 2),
            (DumbbellFlow::new(CcKind::Cubic, 64), 0, 1),
        ];
        let (cfg, bnecks) = chain(&[r, r / 2], flows, &p);
        assert_chain_paths(&cfg, &bnecks, &[(0, 2, ms(40)), (1, 2, ms(20)), (0, 1, ms(64))]);
    }

    #[test]
    #[should_panic(expected = "ACK path does not walk back")]
    fn simulation_rejects_an_ack_path_that_misses_the_source() {
        let flows = [20, 40].map(|rtt_ms| DumbbellFlow::new(CcKind::NewReno, rtt_ms));
        let p = ScenarioParams::new(100_000_000, 420, Discipline::Fifo);
        let (mut cfg, _) = dumbbell(&flows, &p);
        // Flow 1's ACKs return to flow 1's source, not flow 0's.
        cfg.flows[0].ack_path = cfg.flows[1].ack_path.clone();
        Simulation::new(cfg);
    }

    /// One NewReno flow over a `segments`-long FIFO chain: a path of
    /// `segments + 2` links each way.
    fn long_chain(segments: usize) -> SimConfig {
        let mut p = ScenarioParams::new(100_000_000, 100, Discipline::Fifo);
        p.duration = Duration::from_millis(100);
        let flow = (DumbbellFlow::new(CcKind::NewReno, 20), 0, segments);
        chain(&vec![p.bottleneck_bps; segments], [flow], &p).0
    }

    #[test]
    fn a_256_link_path_runs_and_delivers() {
        let cfg = long_chain(254);
        assert_eq!(cfg.flows[0].data_path.len(), 256);
        let res = Simulation::new(cfg).run();
        assert!(res.delivered[0] > 0, "the flow delivered nothing");
    }

    #[test]
    #[should_panic(expected = "flow f0: the data path has 257 links")]
    fn a_257_link_path_is_rejected_at_construction() {
        Simulation::new(long_chain(255));
    }

    /// Every sample instant is recorded once: a 1-s run sampled every
    /// 100 ms keeps 11 samples (0 through 1 s), every rate interval is
    /// 100 ms long, and the telemetry export has one block per instant.
    #[test]
    fn each_sample_instant_is_recorded_once() {
        let flows = [20, 40].map(|rtt_ms| DumbbellFlow::new(CcKind::NewReno, rtt_ms));
        let mut p = ScenarioParams::new(100_000_000, 420, Discipline::Cebinae);
        p.duration = Duration::from_secs(1);
        p.telemetry = true;
        let res = Simulation::new(dumbbell(&flows, &p).0).run();
        let instants: Vec<u64> = (0..=10).map(|k| k * 100_000_000).collect();
        assert_eq!(res.goodput.len(), 11);
        let ends: Vec<u64> = res.goodput.rates().iter().map(|(t, _)| t.as_nanos()).collect();
        assert_eq!(ends, instants[1..]);
        let series: Vec<u64> = res.link_tx_series.iter().map(|(t, _)| t.as_nanos()).collect();
        assert_eq!(series, instants);
        assert_eq!(res.cebinae_series.len(), 11);
        let nd = res.telemetry.expect("telemetry requested");
        let mut blocks: Vec<u64> = nd
            .lines()
            .filter_map(|l| l.strip_prefix("{\"t\":")?.split(',').next()?.parse().ok())
            .collect();
        blocks.dedup();
        assert_eq!(blocks, instants);
    }

    #[test]
    fn dumbbell_wires_paths_through_bottleneck() {
        let flows = vec![
            DumbbellFlow::new(CcKind::NewReno, 20),
            DumbbellFlow::new(CcKind::Cubic, 40),
        ];
        let p = ScenarioParams::new(100_000_000, 420, Discipline::Fifo);
        let (cfg, bneck) = dumbbell(&flows, &p);
        assert_eq!(cfg.flows.len(), 2);
        for f in &cfg.flows {
            assert!(f.data_path.contains(&bneck), "flow must cross the bottleneck");
            assert_eq!(f.data_path.len(), 3);
        }
    }

    #[test]
    fn dumbbell_rtts_match_requested() {
        let flows = vec![
            DumbbellFlow::new(CcKind::NewReno, 20),
            DumbbellFlow::new(CcKind::NewReno, 256),
        ];
        let p = ScenarioParams::new(100_000_000, 420, Discipline::Fifo);
        let (cfg, _) = dumbbell(&flows, &p);
        for (f, want_ms) in cfg.flows.iter().zip([20u64, 256]) {
            let rtt = path_delay(&cfg, &f.data_path) + path_delay(&cfg, &f.ack_path);
            let want = Duration::from_millis(want_ms);
            let err = rtt.as_secs_f64() - want.as_secs_f64();
            assert!(
                err.abs() < 0.001,
                "rtt {:?} vs requested {:?}",
                rtt,
                want
            );
        }
    }

    #[test]
    fn cca_mix_expands_counts_and_rtts() {
        let flows = cca_mix(
            &[(CcKind::Vegas, 3), (CcKind::NewReno, 1)],
            &[100, 64],
        );
        assert_eq!(flows.len(), 4);
        assert_eq!(flows[0].cc, CcKind::Vegas);
        assert_eq!(flows[0].rtt, Duration::from_millis(100));
        assert_eq!(flows[3].cc, CcKind::NewReno);
        assert_eq!(flows[3].rtt, Duration::from_millis(64));
    }

    #[test]
    fn chain_sizes_each_segment_by_its_own_rate() {
        let r = 100_000_000;
        let p = ScenarioParams::new(r, 420, Discipline::Cebinae);
        let flows = [
            (DumbbellFlow::new(CcKind::NewReno, 40), 0, 2),
            (DumbbellFlow::new(CcKind::Cubic, 20), 1, 2),
        ];
        let (cfg, bnecks) = chain(&[r, r / 2], flows, &p);
        assert_eq!(bnecks.len(), 2);
        // Equation 2 sizing at each rate, for twice the longest RTT.
        let want = |rate| {
            let cfg = CebinaeConfig::for_link(rate, p.buffer, Duration::from_millis(80))
                .with_thresholds(0.01, 0.01, 0.01);
            format!("{cfg:?}")
        };
        assert_ne!(want(r), want(r / 2), "the two rates must size differently");
        for (link, rate) in bnecks.iter().zip([r, r / 2]) {
            assert_eq!(cfg.topology.link(*link).rate_bps, rate);
            let Some(QdiscSpec::Cebinae(got)) = cfg.qdiscs.get(link) else {
                panic!("segment {link:?} runs no Cebinae qdisc");
            };
            assert_eq!(format!("{got:?}"), want(rate));
        }
    }

    #[test]
    fn parking_lot_long_flows_cross_all_segments() {
        let groups = vec![
            ParkingLotGroup {
                cc: CcKind::NewReno,
                count: 2,
                enter: 0,
                exit: 3,
                rtt: Duration::from_millis(30),
            },
            ParkingLotGroup {
                cc: CcKind::Vegas,
                count: 1,
                enter: 1,
                exit: 2,
                rtt: Duration::from_millis(10),
            },
        ];
        let p = ScenarioParams::new(100_000_000, 420, Discipline::Cebinae);
        let (cfg, bnecks) = parking_lot(3, &groups, &p);
        assert_eq!(bnecks.len(), 3);
        // Long flows cross every bottleneck.
        for f in &cfg.flows[..2] {
            for b in &bnecks {
                assert!(f.data_path.contains(b));
            }
        }
        // The short flow crosses only segment 1.
        let path = &cfg.flows[2].data_path;
        assert!(path.contains(&bnecks[1]));
        assert!(!path.contains(&bnecks[0]));
        assert!(!path.contains(&bnecks[2]));
    }

    #[test]
    fn disciplines_produce_expected_qdiscs() {
        let flows = vec![DumbbellFlow::new(CcKind::NewReno, 20)];
        for (d, name) in [
            (Discipline::Fifo, "FIFO"),
            (Discipline::FqCoDel, "FQ"),
            (Discipline::Cebinae, "Cebinae"),
            (Discipline::CebinaePerFlowTop, "Cebinae-PF"),
            (Discipline::Afq, "AFQ"),
        ] {
            assert_eq!(d.label(), name);
            let p = ScenarioParams::new(100_000_000, 420, d);
            let (cfg, bneck) = dumbbell(&flows, &p);
            assert!(cfg.qdiscs.contains_key(&bneck));
        }
    }
}

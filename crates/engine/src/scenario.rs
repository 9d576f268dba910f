//! Canonical experiment scenarios: the dumbbell and parking-lot topologies
//! used throughout the paper's evaluation, parameterized by per-flow CCA,
//! RTT and start time, bottleneck rate, buffer, and discipline under test.

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
    /// Bottleneck line rate, bits/sec.
    pub bottleneck_bps: u64,
    /// Bottleneck buffer (Table 2 "Buf." column).
    pub buffer: BufferConfig,
    /// Discipline at the bottleneck(s).
    pub discipline: Discipline,
    /// Cebinae thresholds (δp, δf, τ); the paper's conservative default.
    pub cebinae_thresholds: (f64, f64, f64),
    /// Override the auto-computed Cebinae config entirely (thresholds from
    /// `cebinae_thresholds` still apply afterwards).
    pub cebinae_override: Option<CebinaeConfig>,
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
            cebinae_override: None,
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

    /// Build the qdisc spec for one bottleneck link.
    fn bottleneck_qdisc(&self, max_rtt: Duration) -> QdiscSpec {
        match self.discipline {
            Discipline::Fifo => QdiscSpec::Fifo { buffer: self.buffer },
            Discipline::FqCoDel => {
                QdiscSpec::FqCoDel(FqCoDelConfig::ideal_with_limit(self.buffer.bytes))
            }
            Discipline::Afq => QdiscSpec::Afq(AfqConfig {
                limit_bytes: self.buffer.bytes,
                ..AfqConfig::default()
            }),
            Discipline::Cebinae | Discipline::CebinaePerFlowTop => {
                let mut cfg = self.cebinae_override.clone().unwrap_or_else(|| {
                    CebinaeConfig::for_link(self.bottleneck_bps, self.buffer, max_rtt)
                });
                let (dp, df, tau) = self.cebinae_thresholds;
                cfg = cfg.with_thresholds(dp, df, tau);
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

/// Build a dumbbell: per-flow host pairs on both sides of a single
/// bottleneck `s0 → s1`. Returns the sim config and the forward bottleneck
/// link id.
pub fn dumbbell(flows: &[DumbbellFlow], p: &ScenarioParams) -> (SimConfig, LinkId) {
    assert!(!flows.is_empty());
    let mut topo = Topology::new();
    let s0 = topo.add_switch();
    let s1 = topo.add_switch();
    // Bottleneck: small propagation delay; RTT lives on the access links.
    let bneck_delay = Duration::from_micros(5);
    let (bneck_fwd, _bneck_rev) = topo.add_duplex_link(s0, s1, p.bottleneck_bps, bneck_delay);

    // Access links run 4x the bottleneck (so they are never the constraint)
    // with per-flow delay placing the configured RTT.
    let access_rate = p.bottleneck_bps.saturating_mul(4).max(p.bottleneck_bps);
    let mut specs = Vec::with_capacity(flows.len());
    let mut max_rtt = Duration::ZERO;
    for f in flows {
        let src = topo.add_host();
        let dst = topo.add_host();
        max_rtt = max_rtt.max(f.rtt);
        // RTT = 2*(d_src + d_bneck + d_dst); put the bulk at the source.
        let d_dst = Duration::from_micros(5);
        let d_src = (f.rtt / 2).saturating_sub(bneck_delay + d_dst);
        topo.add_duplex_link(src, s0, access_rate, d_src);
        topo.add_duplex_link(s1, dst, access_rate, d_dst);
        let mut tcp = TcpConfig::with_cc(f.cc);
        tcp.app_bytes = f.app_bytes;
        specs.push(FlowSpec {
            src,
            dst,
            tcp,
            start: f.start,
        });
    }

    let mut qdiscs = cebinae_ds::DetMap::new();
    qdiscs.insert(bneck_fwd, p.bottleneck_qdisc(max_rtt * 2));
    let mut cfg = SimConfig::new(topo, specs);
    cfg.qdiscs = qdiscs;
    cfg.monitored_links = vec![bneck_fwd];
    cfg.duration = p.duration;
    cfg.sample_interval = p.sample_interval;
    cfg.seed = p.seed;
    cfg.telemetry = p.telemetry;
    cfg.express = p.express;
    cfg.scheduler = p.scheduler;
    cfg.faults = p.faults.clone();
    (cfg, bneck_fwd)
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
    assert!(segments >= 1);
    let mut topo = Topology::new();
    let switches: Vec<_> = (0..=segments).map(|_| topo.add_switch()).collect();
    let bneck_delay = Duration::from_micros(5);
    let mut bnecks = Vec::new();
    for i in 0..segments {
        let (fwd, _rev) =
            topo.add_duplex_link(switches[i], switches[i + 1], p.bottleneck_bps, bneck_delay);
        bnecks.push(fwd);
    }
    let access_rate = p.bottleneck_bps.saturating_mul(4);
    let mut specs = Vec::new();
    let mut max_rtt = Duration::ZERO;
    for g in groups {
        assert!(g.enter < g.exit && g.exit <= segments);
        max_rtt = max_rtt.max(g.rtt);
        for _ in 0..g.count {
            let src = topo.add_host();
            let dst = topo.add_host();
            let d_dst = Duration::from_micros(5);
            let crossed = (g.exit - g.enter) as u64;
            let d_src = (g.rtt / 2).saturating_sub(bneck_delay * crossed + d_dst);
            topo.add_duplex_link(src, switches[g.enter], access_rate, d_src);
            topo.add_duplex_link(switches[g.exit], dst, access_rate, d_dst);
            specs.push(FlowSpec {
                src,
                dst,
                tcp: TcpConfig::with_cc(g.cc),
                start: Time::ZERO,
            });
        }
    }
    let mut qdiscs = cebinae_ds::DetMap::new();
    for &l in &bnecks {
        qdiscs.insert(l, p.bottleneck_qdisc(max_rtt * 2));
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

#[cfg(test)]
mod tests {
    use super::*;

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
            let path = cfg.topology.shortest_path(f.src, f.dst).unwrap();
            assert!(path.contains(&bneck), "flow must cross the bottleneck");
            assert_eq!(path.len(), 3);
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
            let fwd = cfg.topology.shortest_path(f.src, f.dst).unwrap();
            let rev = cfg.topology.shortest_path(f.dst, f.src).unwrap();
            let rtt = cfg.topology.path_delay(&fwd) + cfg.topology.path_delay(&rev);
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
            let path = cfg.topology.shortest_path(f.src, f.dst).unwrap();
            for b in &bnecks {
                assert!(path.contains(b));
            }
        }
        // The short flow crosses only segment 1.
        let path = cfg
            .topology
            .shortest_path(cfg.flows[2].src, cfg.flows[2].dst)
            .unwrap();
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

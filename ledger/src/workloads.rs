//! The seven paper-scale workloads and the checks every repetition of them
//! must pass.
//!
//! All workloads are closed loops: TCP is self-clocked, so a slower
//! simulated network receives less load. The *host* load is one process
//! with one simulation thread.
//!
//! Inputs are made from the seed and nothing else: the seed feeds
//! [`ScenarioParams::seed`] (Cebinae cache hashing, fault RNG streams) and
//! the shuffle of the many-flow CCA/RTT assignment. The engine only ever
//! sees the built [`SimConfig`]. The Table 2 and Figure 11 flow sets are
//! the paper's and are not perturbed: one BBR flow against 128 NewReno is
//! bistable (moving the BBR flow's index or staggering starts by 0.5 ms
//! flips it between a 0.3 s and a 1.7 s run), which would measure the
//! seed, not the simulator.

use cebinae_engine::{
    dumbbell, parking_lot, Discipline, DumbbellFlow, FaultPlan, ParkingLotGroup, ScenarioParams,
    SimConfig, SimResult,
};
use cebinae_harness::{fig11, table2};
use cebinae_net::LinkId;
use cebinae_sim::rng::DetRng;
use cebinae_sim::{Duration, Time};
use cebinae_transport::CcKind;

/// The chaos plan of `fig11_chaos`, in `FaultPlan::parse` syntax.
pub const CHAOS_SPEC: &str = "burst:0.25,reorder:0.02,dup:0.01";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Family {
    /// Table 2 row 14: 1 Gbps, 50 ms, 4200-MTU buffer, 128 NewReno + 1 BBR.
    T2r14 {
        discipline: Discipline,
        observed: bool,
    },
    /// Figure 11 parking lot: three Cebinae hops, 22 flows.
    Fig11 { chaos: bool },
    /// 4096 NewReno/Cubic flows, RTT 20-90 ms, 400 Mbps, 1024-MTU buffer.
    Many4096 { discipline: Discipline },
}

/// One benchmark workload: a name, the reason it exists, and the recipe
/// that turns a seed into simulator inputs.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Utilisation every bottleneck must reach, after the warm-up, for a
    /// repetition to count.
    pub min_utilisation: f64,
    family: Family,
}

/// The floor on clean workloads. The chaos plan loses about one packet in
/// a hundred in bursts, which holds the loss-based flows near a third of
/// each hop; its floor only tells a degraded run from a dead one.
const CLEAN_MIN_UTILISATION: f64 = 0.5;
const CHAOS_MIN_UTILISATION: f64 = 0.15;

/// Every workload, in ledger order. Names and rationales are mirrored in
/// `BENCHMARK.json` (a test keeps the two in step).
pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "t2r14_cebinae",
        why: "paper headline row (Table 2 row 14); one huge BBR window, so transport per-ACK plus core dominate",
        min_utilisation: CLEAN_MIN_UTILISATION,
        family: Family::T2r14 { discipline: Discipline::Cebinae, observed: false },
    },
    Workload {
        name: "t2r14_fifo",
        why: "bypass twin of t2r14_cebinae: no core/fq; a qdisc win must not move it, a transport win must",
        min_utilisation: CLEAN_MIN_UTILISATION,
        family: Family::T2r14 { discipline: Discipline::Fifo, observed: false },
    },
    Workload {
        name: "t2r14_observed",
        why: "t2r14_cebinae with telemetry on and the bottleneck traced: express off, more events, scrape and NDJSON; prices observation",
        min_utilisation: CLEAN_MIN_UTILISATION,
        family: Family::T2r14 { discipline: Discipline::Cebinae, observed: true },
    },
    Workload {
        name: "fig11_cebinae",
        why: "Fig. 11 parking lot, 3 Cebinae hops, 22 small-window flows: sim scheduler plus engine dispatch/link service bound",
        min_utilisation: CLEAN_MIN_UTILISATION,
        family: Family::Fig11 { chaos: false },
    },
    Workload {
        name: "fig11_chaos",
        why: "fig11_cebinae under burst loss, reordering and duplication: faults plus stash, RTO cancel/rearm and recovery path",
        min_utilisation: CHAOS_MIN_UTILISATION,
        family: Family::Fig11 { chaos: true },
    },
    Workload {
        name: "many4096_fq",
        why: "4096 flows under FQ-CoDel: per-flow qdisc state plus ds, windows of a few segments so transport is cheap",
        min_utilisation: CLEAN_MIN_UTILISATION,
        family: Family::Many4096 { discipline: Discipline::FqCoDel },
    },
    Workload {
        name: "many4096_cebinae",
        why: "the paper's O(1)-state claim on the many4096_fq traffic; bypass twin for fq",
        min_utilisation: CLEAN_MIN_UTILISATION,
        family: Family::Many4096 { discipline: Discipline::Cebinae },
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Topology-specific half of the inputs.
#[derive(Clone, Debug)]
pub enum Topo {
    Dumbbell(Vec<DumbbellFlow>),
    ParkingLot {
        segments: usize,
        groups: Vec<ParkingLotGroup>,
    },
}

/// What a seed generates. `params` is public so variant runs (heap
/// scheduler, express off, telemetry on, faults off, shorter duration)
/// are a field assignment on a clone.
#[derive(Clone, Debug)]
pub struct Inputs {
    pub topo: Topo,
    pub params: ScenarioParams,
    /// Record a packet trace of the bottleneck(s) (`t2r14_observed` and
    /// every traced run).
    pub trace_bottlenecks: bool,
    /// Ring capacity of that trace, in records.
    pub trace_capacity: usize,
}

impl Workload {
    pub fn inputs(&self, seed: u64) -> Inputs {
        let (topo, mut params) = match self.family {
            Family::T2r14 {
                discipline,
                observed,
            } => {
                let row = &table2::rows()[13];
                let mut p = ScenarioParams::new(row.rate_bps, row.buffer_mtus, discipline);
                p.cebinae_p = Some(1);
                p.duration = Duration::from_secs(3);
                p.telemetry = observed;
                (Topo::Dumbbell(row.flows()), p)
            }
            Family::Fig11 { chaos } => {
                let spec = fig11::paper_spec();
                let mut p = ScenarioParams::new(spec.rate_bps, 850, Discipline::Cebinae);
                p.cebinae_p = Some(1);
                p.duration = Duration::from_secs(40);
                if chaos {
                    p.faults = FaultPlan::parse(CHAOS_SPEC).expect("CHAOS_SPEC is a valid plan");
                }
                (
                    Topo::ParkingLot {
                        segments: spec.segments,
                        groups: spec.groups,
                    },
                    p,
                )
            }
            Family::Many4096 { discipline } => {
                let mut flows: Vec<DumbbellFlow> = (0..4096u64)
                    .map(|i| {
                        let cc = if i % 2 == 0 {
                            CcKind::NewReno
                        } else {
                            CcKind::Cubic
                        };
                        DumbbellFlow::new(cc, 20 + (i % 8) * 10)
                    })
                    .collect();
                DetRng::seed_from_u64(seed ^ 0x1ed6_e700_0000_0000).shuffle(&mut flows);
                let mut p = ScenarioParams::new(400_000_000, 1024, discipline);
                p.cebinae_p = Some(1);
                p.duration = Duration::from_secs(8);
                (Topo::Dumbbell(flows), p)
            }
        };
        params.seed = seed;
        Inputs {
            topo,
            params,
            trace_bottlenecks: matches!(self.family, Family::T2r14 { observed: true, .. }),
            trace_capacity: 100_000,
        }
    }
}

impl Inputs {
    /// The scenario builder: inputs to a [`SimConfig`] plus its forward
    /// bottleneck link(s). This, followed by `Simulation::new`, is what
    /// `setup_s` times.
    pub fn build(&self) -> (SimConfig, Vec<LinkId>) {
        let (mut cfg, bnecks) = match &self.topo {
            Topo::Dumbbell(flows) => {
                let (cfg, bneck) = dumbbell(flows, &self.params);
                (cfg, vec![bneck])
            }
            Topo::ParkingLot { segments, groups } => parking_lot(*segments, groups, &self.params),
        };
        if self.trace_bottlenecks {
            cfg.traced_links = bnecks.clone();
            cfg.trace_capacity = self.trace_capacity;
        }
        (cfg, bnecks)
    }

    pub fn n_flows(&self) -> usize {
        match &self.topo {
            Topo::Dumbbell(flows) => flows.len(),
            Topo::ParkingLot { groups, .. } => groups.iter().map(|g| g.count).sum(),
        }
    }
}

/// What one finished run reports: the simulated (exactly repeating)
/// numbers, and whether the run's own books balance.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// FNV-1a over `delivered`, `events_processed` and per-link
    /// enq/tx/drop counts.
    pub sim_digest: u64,
    /// Sum of per-flow goodputs after the warm-up (duration / 10), as
    /// `runner::run_with_params` computes it.
    pub goodput_mbps: f64,
    /// Jain's index over the same per-flow goodputs.
    pub jfi: f64,
    /// Packets transmitted across every link.
    pub tx_pkts: u64,
    pub events: u64,
    /// Lowest bottleneck utilisation after the warm-up.
    pub min_utilisation: f64,
    /// First link (if any) with `tx + drop_queued > enq`.
    pub unbalanced_link: Option<usize>,
}

impl Outcome {
    pub fn of(r: &SimResult, bnecks: &[LinkId], bottleneck_bps: u64) -> Outcome {
        let warmup = Time::ZERO + r.duration / 10;
        let per_flow = r.goodputs_bps(warmup);
        let min_utilisation = bnecks
            .iter()
            .map(|&l| r.link_throughput_bps(l, warmup) / bottleneck_bps as f64)
            .fold(f64::INFINITY, f64::min);
        Outcome {
            sim_digest: sim_digest(r),
            goodput_mbps: per_flow.iter().sum::<f64>() / 1e6,
            jfi: cebinae_metrics::jfi(&per_flow),
            tx_pkts: r.link_stats.iter().map(|s| s.tx_pkts).sum(),
            events: r.events_processed,
            min_utilisation,
            unbalanced_link: r
                .link_stats
                .iter()
                .position(|s| s.tx_pkts + s.drop_queued_pkts > s.enq_pkts),
        }
    }

    /// Why this run does not reproduce `first`, repetition 1 of the same
    /// configuration, if it does not.
    pub fn differs_from(&self, first: &Outcome) -> Option<String> {
        (self.sim_digest != first.sim_digest).then(|| {
            format!(
                "sim_digest {:016x} differs from repetition 1 ({:016x})",
                self.sim_digest, first.sim_digest
            )
        })
    }

    /// Why this run's own books fail, if they do.
    pub fn failure(&self, min_utilisation: f64) -> Option<String> {
        if let Some(link) = self.unbalanced_link {
            return Some(format!("link {link}: tx + drop_queued > enq"));
        }
        if self.min_utilisation < min_utilisation {
            return Some(format!(
                "bottleneck utilisation {:.3} below {min_utilisation}",
                self.min_utilisation
            ));
        }
        None
    }
}

pub fn sim_digest(r: &SimResult) -> u64 {
    let words = r
        .delivered
        .iter()
        .copied()
        .chain([r.events_processed])
        .chain(
            r.link_stats
                .iter()
                .flat_map(|s| [s.enq_pkts, s.tx_pkts, s.drop_pkts]),
        );
    words.fold(cebinae_ds::FNV_OFFSET, |h, w| {
        cebinae_ds::fnv1a_bytes(h, &w.to_le_bytes())
    })
}

//! The seeded scenario generator: everything about a generated scenario —
//! topology shape, link rates/delays/buffers, CCA mix, flow arrival
//! schedule, and the Cebinae parameters (dT, vdT, τ, δp, δf, L) — is a
//! pure function of one `u64` seed, so a failing seed IS the reproducer.
//!
//! Each sampled dimension draws from its own forked RNG stream
//! ([`DetRng::fork`]), so shrinking one dimension (fewer flows, shorter
//! run) never perturbs the draws of another — the property that makes the
//! deterministic minimizer in [`crate::shrink`] meaningful.

use cebinae::{min_dt, CebinaeConfig};
use cebinae_engine::{
    chain, dumbbell, parking_lot, Discipline, DumbbellFlow, ParkingLotGroup, QdiscSpec,
    ScenarioParams, SimConfig,
};
use cebinae_faults::{chaos_plan, FaultFamily, FaultPlan};
use cebinae_net::{BufferConfig, LinkId};
use cebinae_sim::rng::DetRng;
use cebinae_sim::{Duration, SchedulerKind, Time};
use cebinae_transport::CcKind;

/// Topology families the fuzzer samples from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologyKind {
    /// Single bottleneck, per-flow host pairs.
    Dumbbell,
    /// Chain of equal-rate bottlenecks with long and short flows.
    ParkingLot,
    /// Chain of two bottlenecks with *different* rates, so flows entering
    /// mid-path see a different constraint than end-to-end flows.
    MultiBottleneck,
}

/// CCAs the fuzzer mixes. A subset of the full zoo: loss-based, delay-based
/// and hybrid behaviors are all represented without dragging in the CCAs
/// whose long convergence would need longer (slower) runs.
const CCAS: [CcKind; 4] = [CcKind::NewReno, CcKind::Cubic, CcKind::Vegas, CcKind::Bic];

/// Disciplines sampled for the invariant-oracle run.
const DISCIPLINES: [Discipline; 4] = [
    Discipline::Fifo,
    Discipline::FqCoDel,
    Discipline::Cebinae,
    Discipline::CebinaePerFlowTop,
];

/// One generated scenario: the sampled dimensions, all derived from the
/// seed. Public fields so the shrinker can override them (the overrides are
/// encoded in the replay line).
#[derive(Clone, Debug)]
pub struct GenScenario {
    pub seed: u64,
    pub kind: TopologyKind,
    pub discipline: Discipline,
    /// Primary bottleneck rate, bits/sec.
    pub bottleneck_bps: u64,
    pub buffer_mtus: u64,
    pub n_flows: usize,
    /// Per-flow CCA (cycled if shrinking reduces `n_flows`).
    pub ccas: Vec<CcKind>,
    /// Per-flow RTT in ms.
    pub rtts_ms: Vec<u64>,
    /// Per-flow start offset in ms.
    pub starts_ms: Vec<u64>,
    pub duration_ms: u64,
    /// Cebinae thresholds (δp, δf, τ).
    pub thresholds: (f64, f64, f64),
    /// vdT = 2^vdt_exp ns.
    pub vdt_exp: u32,
    /// dT is the Equation-2 minimum power of two, left-shifted by this.
    pub dt_extra: u32,
    /// Recompute period P.
    pub p: u32,
    /// All flows identical (CCA, RTT, start=0): the regime where the
    /// fairness oracle compares JFI across disciplines.
    pub symmetric: bool,
    /// Event-loop scheduler backend. Not sampled — always the default —
    /// but overridable so differential tests can replay the same scenario
    /// under both backends and demand byte-identical outcomes.
    pub scheduler: SchedulerKind,
    /// Chaos dimension: when set, [`build_with`](GenScenario::build_with)
    /// attaches the seed-derived [`chaos_plan`] for this family to the
    /// bottlenecks. Not sampled by [`generate`](GenScenario::generate) —
    /// clean seeds stay byte-identical — but set by the chaos campaign and
    /// the `--faults` replay flag, and carried through shrinking.
    pub fault_family: Option<FaultFamily>,
}

impl GenScenario {
    /// Sample a scenario from `seed`. Deterministic: same seed, same
    /// scenario, byte for byte.
    pub fn generate(seed: u64) -> GenScenario {
        let mut root = DetRng::seed_from_u64(seed ^ 0xCEB1_AE00_C0FF_EE00);
        // One forked stream per dimension; fork order is fixed and draws
        // within a stream never affect sibling streams.
        let mut r_kind = root.fork();
        let mut r_link = root.fork();
        let mut r_flows = root.fork();
        let mut r_sched = root.fork();
        let mut r_ceb = root.fork();

        let kind = match r_kind.gen_range_f64(0.0, 3.0) as u32 {
            0 => TopologyKind::Dumbbell,
            1 => TopologyKind::ParkingLot,
            _ => TopologyKind::MultiBottleneck,
        };
        let discipline = DISCIPLINES[(r_kind.gen_range_f64(0.0, DISCIPLINES.len() as f64)) as usize
            % DISCIPLINES.len()];
        // Symmetric saturated dumbbells are the fairness-oracle regime;
        // sample them often enough that every smoke batch contains some.
        let symmetric = kind == TopologyKind::Dumbbell && r_kind.gen_bool(0.5);

        let bottleneck_bps = *pick(&mut r_link, &[5_000_000u64, 10_000_000, 20_000_000]);
        let buffer_mtus = *pick(&mut r_link, &[50u64, 100, 200, 420]);

        let n_flows = 2 + (r_flows.gen_range_f64(0.0, 5.0) as usize); // 2..=6
        let shared_cca = *pick(&mut r_flows, &CCAS);
        let shared_rtt = *pick(&mut r_flows, &[10u64, 20, 40, 80]);
        let mut ccas = Vec::with_capacity(n_flows);
        let mut rtts_ms = Vec::with_capacity(n_flows);
        for _ in 0..n_flows {
            if symmetric {
                ccas.push(shared_cca);
                rtts_ms.push(shared_rtt);
            } else {
                ccas.push(*pick(&mut r_flows, &CCAS));
                rtts_ms.push(*pick(&mut r_flows, &[10u64, 20, 40, 80]));
            }
        }

        let duration_ms = *pick(&mut r_sched, &[1000u64, 1500, 2000]);
        let starts_ms: Vec<u64> = (0..n_flows)
            .map(|_| {
                if symmetric {
                    0
                } else {
                    // Arrivals within the first fifth of the run.
                    r_sched.gen_range_f64(0.0, duration_ms as f64 / 5.0) as u64
                }
            })
            .collect();

        let thresholds = *pick(
            &mut r_ceb,
            &[(0.01, 0.01, 0.01), (0.05, 0.05, 0.05), (0.01, 0.10, 0.05)],
        );
        let vdt_exp = *pick(&mut r_ceb, &[17u32, 18]);
        let dt_extra = *pick(&mut r_ceb, &[0u32, 1]);
        let p = *pick(&mut r_ceb, &[1u32, 2]);

        GenScenario {
            seed,
            kind,
            discipline,
            bottleneck_bps,
            buffer_mtus,
            n_flows,
            ccas,
            rtts_ms,
            starts_ms,
            duration_ms,
            thresholds,
            vdt_exp,
            dt_extra,
            p,
            symmetric,
            scheduler: SchedulerKind::default(),
            fault_family: None,
        }
    }

    /// One-line human description (stable, for reports and shrink logs).
    /// The faults suffix appears only on chaos scenarios, so clean-seed
    /// reports stay byte-identical.
    pub fn describe(&self) -> String {
        let mut s = format!(
            "seed={} kind={:?} disc={} flows={} rate={}Mbps buf={}mtu dur={}ms vdt=2^{} dt+{} p={} sym={}",
            self.seed,
            self.kind,
            self.discipline.label(),
            self.n_flows,
            self.bottleneck_bps / 1_000_000,
            self.buffer_mtus,
            self.duration_ms,
            self.vdt_exp,
            self.dt_extra,
            self.p,
            self.symmetric,
        );
        if let Some(fam) = self.fault_family {
            s.push_str(" faults=");
            s.push_str(fam.label());
        }
        s
    }

    /// The fault plan this scenario runs under: the seed-derived chaos
    /// plan for the configured family, or the empty (inert) plan.
    pub fn fault_plan(&self) -> FaultPlan {
        match self.fault_family {
            Some(fam) => chaos_plan(self.seed, fam, self.duration_ms),
            None => FaultPlan::default(),
        }
    }

    /// The exact Cebinae config this scenario installs on a bottleneck of
    /// `rate_bps`. The trace-replay oracle rebuilds its model filter from
    /// this, so it must match the installed qdisc bit for bit.
    pub fn cebinae_config(&self, rate_bps: u64) -> CebinaeConfig {
        let base = CebinaeConfig::default();
        let vdt = Duration(1u64 << self.vdt_exp);
        let buffer = BufferConfig::mtus(self.buffer_mtus);
        let dt_min = min_dt(rate_bps, buffer, vdt, base.l);
        let mut cfg = CebinaeConfig {
            dt: Duration(dt_min.as_nanos() << self.dt_extra),
            vdt,
            p: self.p,
            buffer,
            ..base
        };
        let (dp, df, tau) = self.thresholds;
        cfg = cfg.with_thresholds(dp, df, tau);
        cfg.per_flow_top = self.discipline == Discipline::CebinaePerFlowTop;
        cfg
    }

    /// Scenario params shared by the builder paths, for `disc`.
    fn params(&self, disc: Discipline) -> ScenarioParams {
        let mut p = ScenarioParams::new(self.bottleneck_bps, self.buffer_mtus, disc);
        p.duration = Duration::from_millis(self.duration_ms);
        p.sample_interval = Duration::from_millis(100);
        p.seed = self.seed;
        p.telemetry = true;
        p.scheduler = self.scheduler;
        p
    }

    /// Build the fairness-oracle run: same topology and flows, but the
    /// *paper-default* Cebinae configuration (`for_link`, default
    /// thresholds). Fairness is a property of the tuned controller, so it
    /// is judged under the recommended parameters; the fuzzed (often
    /// deliberately twitchy) parameters are exercised by the invariant
    /// oracles, which must hold for any configuration.
    pub fn build_fairness(&self, disc: Discipline) -> (SimConfig, Vec<LinkId>) {
        debug_assert_eq!(self.kind, TopologyKind::Dumbbell, "fairness regime is symmetric dumbbells");
        let mut p = self.params(disc);
        p.telemetry = false;
        let (cfg, b) = dumbbell(&self.dumbbell_flows(), &p);
        (cfg, vec![b])
    }

    fn dumbbell_flows(&self) -> Vec<DumbbellFlow> {
        (0..self.n_flows)
            .map(|i| {
                DumbbellFlow::new(self.ccas[i % self.ccas.len()], self.rtts_ms[i % self.rtts_ms.len()])
                    .starting_at(Time::from_millis(self.starts_ms[i % self.starts_ms.len()]))
            })
            .collect()
    }

    /// Build the simulation for this scenario under `disc` (normally
    /// `self.discipline`; the fairness oracle rebuilds under Fifo and
    /// Cebinae). Returns the config and the bottleneck link ids; tracing
    /// and telemetry are enabled on all bottlenecks.
    pub fn build_with(&self, disc: Discipline) -> (SimConfig, Vec<LinkId>) {
        let (mut cfg, bnecks) = match self.kind {
            TopologyKind::Dumbbell => {
                let (cfg, b) = dumbbell(&self.dumbbell_flows(), &self.params(disc));
                (cfg, vec![b])
            }
            TopologyKind::ParkingLot => {
                let segments = 2;
                // Group 0 crosses everything; group 1 enters mid-path.
                let long = self.n_flows.div_ceil(2);
                let short = self.n_flows - long;
                let mut groups = vec![ParkingLotGroup {
                    cc: self.ccas[0],
                    count: long,
                    enter: 0,
                    exit: segments,
                    rtt: Duration::from_millis(self.rtts_ms[0]),
                }];
                if short > 0 {
                    groups.push(ParkingLotGroup {
                        cc: self.ccas[1 % self.ccas.len()],
                        count: short,
                        enter: 1,
                        exit: segments,
                        rtt: Duration::from_millis(self.rtts_ms[1 % self.rtts_ms.len()]),
                    });
                }
                parking_lot(segments, &groups, &self.params(disc))
            }
            TopologyKind::MultiBottleneck => {
                // Even flows cross both bottlenecks; odd ones enter at the
                // middle switch and cross only B.
                let flows =
                    self.dumbbell_flows().into_iter().enumerate().map(|(i, f)| (f, i % 2, 2));
                chain(&self.bottleneck_rates(), flows, &self.params(disc))
            }
        };
        // Every Cebinae bottleneck runs the fuzzed config, not the
        // builders' Equation-2 default.
        for (link, rate) in bnecks.iter().zip(self.bottleneck_rates()) {
            if let Some(QdiscSpec::Cebinae(c)) = cfg.qdiscs.get_mut(link) {
                *c = self.cebinae_config(rate);
            }
        }
        cfg.traced_links = bnecks.clone();
        // Large enough that the generated scenarios never truncate; the
        // trace-replay oracle requires the complete offered stream.
        cfg.trace_capacity = 400_000;
        // Chaos dimension: the plan targets `Bottlenecks`, which the
        // engine resolves against `cfg.monitored_links` — the same links
        // traced above, so injected drops are fully visible to the
        // fault-accounting oracle.
        cfg.faults = self.fault_plan();
        (cfg, bnecks)
    }

    /// Build the scenario under its own sampled discipline.
    pub fn build(&self) -> (SimConfig, Vec<LinkId>) {
        self.build_with(self.discipline)
    }

    /// Rate (bits/sec) of each bottleneck, in the same order as the link
    /// ids `build` returns — what the trace-replay oracle keys its model
    /// filters off.
    pub fn bottleneck_rates(&self) -> Vec<u64> {
        match self.kind {
            TopologyKind::Dumbbell => vec![self.bottleneck_bps],
            // Both parking-lot segments run at the sampled rate.
            TopologyKind::ParkingLot => vec![self.bottleneck_bps; 2],
            // Link A at the sampled rate, link B at half of it.
            TopologyKind::MultiBottleneck => {
                vec![self.bottleneck_bps, self.bottleneck_bps / 2]
            }
        }
    }
}

/// Deterministic choice from a non-empty slice.
fn pick<'a, T>(rng: &mut DetRng, xs: &'a [T]) -> &'a T {
    &xs[rng.gen_range_usize(0, xs.len())]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 1, 42, u64::MAX] {
            let a = GenScenario::generate(seed);
            let b = GenScenario::generate(seed);
            assert_eq!(a.describe(), b.describe());
            assert_eq!(a.ccas, b.ccas);
            assert_eq!(a.starts_ms, b.starts_ms);
        }
    }

    #[test]
    fn seeds_cover_all_topology_kinds() {
        let mut kinds = std::collections::BTreeSet::new();
        for seed in 0..64u64 {
            kinds.insert(format!("{:?}", GenScenario::generate(seed).kind));
        }
        assert_eq!(kinds.len(), 3, "64 seeds must hit all kinds: {kinds:?}");
    }

    #[test]
    fn generated_cebinae_configs_validate() {
        for seed in 0..32u64 {
            let sc = GenScenario::generate(seed);
            let cfg = sc.cebinae_config(sc.bottleneck_bps);
            cfg.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let cfg_b = sc.cebinae_config(sc.bottleneck_bps / 2);
            cfg_b.validate().unwrap_or_else(|e| panic!("seed {seed} (half rate): {e}"));
        }
    }

    #[test]
    fn all_scenarios_build_and_flows_route() {
        for seed in 0..16u64 {
            let sc = GenScenario::generate(seed);
            let (cfg, bnecks) = sc.build();
            assert!(!bnecks.is_empty());
            assert_eq!(cfg.flows.len(), sc.n_flows, "seed {seed}");
            let rates: Vec<u64> = bnecks.iter().map(|&b| cfg.topology.link(b).rate_bps).collect();
            assert_eq!(rates, sc.bottleneck_rates(), "seed {seed}");
            for (i, f) in cfg.flows.iter().enumerate() {
                let path = &f.data_path;
                let (src, dst) = cfg.topology.walk_ends(path).expect("the data path is a walk");
                let back = cfg.topology.walk_ends(&f.ack_path);
                assert_eq!(back, Some((dst, src)), "seed {seed}: the ACK path walks back");
                assert!(
                    bnecks.iter().any(|b| path.contains(b)),
                    "seed {seed}: flow avoids every bottleneck"
                );
                if sc.kind == TopologyKind::MultiBottleneck {
                    // Even flows cross A and B, odd ones only B.
                    assert_eq!(path.contains(&bnecks[0]), i % 2 == 0, "seed {seed} flow {i}");
                    assert!(path.contains(&bnecks[1]), "seed {seed} flow {i}");
                }
            }
        }
    }

    #[test]
    fn symmetric_scenarios_are_symmetric() {
        let sym: Vec<GenScenario> = (0..256u64)
            .map(GenScenario::generate)
            .filter(|s| s.symmetric)
            .collect();
        assert!(!sym.is_empty());
        for s in sym {
            assert!(s.ccas.iter().all(|c| *c == s.ccas[0]));
            assert!(s.rtts_ms.iter().all(|r| *r == s.rtts_ms[0]));
            assert!(s.starts_ms.iter().all(|t| *t == 0));
            assert_eq!(s.kind, TopologyKind::Dumbbell);
        }
    }
}

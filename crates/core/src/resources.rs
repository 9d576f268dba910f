//! Hardware resource model (paper Table 3) and the scalability comparison
//! against per-flow fair queuing (paper §2, Equation 1 / §5.5).
//!
//! We have no Tofino toolchain, so Table 3 cannot be re-measured; instead
//! this module reconstructs it from the program's structure: per-port
//! register arrays for the byte counters, per-stage hash tables for the
//! flow cache, the two-queue scheduler, and the fixed ingress/egress
//! control logic. The model is an affine fit anchored on the two published
//! configurations (1- and 2-stage caches), with the per-stage increments
//! derived from the cache geometry — so changing slots/stages extrapolates
//! in the physically meaningful direction. `EXPERIMENTS.md` records the
//! calibration.

/// A Tofino-like resource envelope for comparisons.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SwitchProfile {
    pub ports: usize,
    pub pipeline_stages_total: usize,
    pub sram_kb_total: u64,
    pub tcam_kb_total: u64,
    pub queues_per_port: usize,
}

impl SwitchProfile {
    /// A 32-port Tofino-class profile (matching the paper's testbed switch
    /// at the granularity Table 3 reports).
    pub fn tofino32() -> SwitchProfile {
        SwitchProfile {
            ports: 32,
            pipeline_stages_total: 12,
            sram_kb_total: 20 * 1024,
            tcam_kb_total: 1280,
            queues_per_port: 32,
        }
    }
}

/// Modeled data-plane usage for a Cebinae configuration (Table 3 columns).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResourceUsage {
    pub cache_stages: usize,
    pub pipeline_stages: usize,
    pub phv_bits: u64,
    pub sram_kb: u64,
    pub tcam_kb: u64,
    pub vliw_instrs: u64,
    pub queues: usize,
}

/// Fixed costs independent of the cache (parsing, LBF state, port counters,
/// rate tables, queue logic) — the affine intercepts of the Table 3 fit.
const BASE_PHV_BITS: u64 = 832;
const BASE_SRAM_KB: u64 = 800;
const BASE_VLIW: u64 = 85;
/// Per-cache-stage marginal costs (Table 3 row differences).
const STAGE_PHV_BITS: u64 = 105;
const STAGE_VLIW: u64 = 4;
/// TCAM is dominated by the per-stage flow-key match tables; affine fit of
/// the two published rows (15 KB @1 stage, 34 KB @2 stages).
const STAGE_TCAM_KB: u64 = 19;
const BASE_TCAM_KB: i64 = -4;
/// Bytes per cache slot: 8 B flow key + ~4.9 B counter+valid overhead, the
/// value implied by the published SRAM increment (1648 KB per stage at
/// 4096 slots × 32 ports: 1648·1024 / 131072 = 12.875 B).
const SLOT_BYTES: f64 = 12.875;

/// Model the data-plane usage of a Cebinae deployment with `cache_stages`
/// stages of `slots_per_port` entries on a switch with `ports` ports.
pub fn model_usage(cache_stages: usize, slots_per_port: usize, ports: usize) -> ResourceUsage {
    assert!(cache_stages >= 1 && slots_per_port >= 1 && ports >= 1);
    let cache_sram_kb =
        (cache_stages as f64 * slots_per_port as f64 * ports as f64 * SLOT_BYTES / 1024.0) as u64;
    ResourceUsage {
        cache_stages,
        // The Cebinae program occupies 11 of the pipeline stages in both
        // published configurations (placement, not arithmetic, dominates).
        pipeline_stages: 11,
        phv_bits: BASE_PHV_BITS + STAGE_PHV_BITS * cache_stages as u64,
        sram_kb: BASE_SRAM_KB + cache_sram_kb,
        tcam_kb: (BASE_TCAM_KB + STAGE_TCAM_KB as i64 * cache_stages as i64).max(0) as u64,
        vliw_instrs: BASE_VLIW + STAGE_VLIW * cache_stages as u64,
        // Two priorities per port (the paper's headline hardware claim).
        queues: 2 * ports,
    }
}

/// The paper's Table 3 rows, for calibration checks: (stages, slots, ports).
pub fn table3_rows() -> Vec<(ResourceUsage, ResourceUsage)> {
    let published = [
        ResourceUsage {
            cache_stages: 1,
            pipeline_stages: 11,
            phv_bits: 937,
            sram_kb: 2448,
            tcam_kb: 15,
            vliw_instrs: 89,
            queues: 64,
        },
        ResourceUsage {
            cache_stages: 2,
            pipeline_stages: 11,
            phv_bits: 1042,
            sram_kb: 4096,
            tcam_kb: 34,
            vliw_instrs: 93,
            queues: 64,
        },
    ];
    published
        .iter()
        .map(|p| (*p, model_usage(p.cache_stages, 4096, 32)))
        .collect()
}

/// Fraction of a switch profile each resource consumes (the paper reports
/// "< 25% for all types").
pub fn utilization_fractions(u: &ResourceUsage, p: &SwitchProfile) -> Vec<(&'static str, f64)> {
    vec![
        ("pipeline stages", u.pipeline_stages as f64 / p.pipeline_stages_total as f64),
        ("SRAM", u.sram_kb as f64 / p.sram_kb_total as f64),
        ("TCAM", u.tcam_kb as f64 / p.tcam_kb_total as f64),
        (
            "queues",
            u.queues as f64 / (p.queues_per_port * p.ports) as f64,
        ),
    ]
}

/// Queue requirement comparison (§2 Equation 1 / §5.5): how many queues /
/// how much schedulable horizon per-flow fair queuing needs versus Cebinae.
#[derive(Clone, Copy, Debug)]
pub struct ScalabilityPoint {
    pub flows: u64,
    pub buffer_req_bytes: u64,
    /// AFQ: queues needed at a fixed BpR to satisfy Equation 1.
    pub afq_queues_needed: u64,
    /// AFQ: BpR needed at a fixed queue count (unfairness granularity).
    pub afq_bpr_needed: u64,
    /// Cebinae: constant.
    pub cebinae_queues: u64,
}

/// Evaluate Equation 1 for a flow with `buffer_req_bytes` (worst case: its
/// bandwidth-delay product) against AFQ with `bpr` bytes-per-round or
/// `nq` queues (the paper's BpR and Nq).
pub fn scalability_point(flows: u64, buffer_req_bytes: u64, bpr: u64, nq: u64) -> ScalabilityPoint {
    ScalabilityPoint {
        flows,
        buffer_req_bytes,
        afq_queues_needed: buffer_req_bytes.div_ceil(bpr),
        afq_bpr_needed: buffer_req_bytes.div_ceil(nq),
        cebinae_queues: 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_matches_table3_exactly_for_discrete_columns() {
        for (published, modeled) in table3_rows() {
            assert_eq!(modeled.pipeline_stages, published.pipeline_stages);
            assert_eq!(modeled.phv_bits, published.phv_bits);
            assert_eq!(modeled.tcam_kb, published.tcam_kb);
            assert_eq!(modeled.vliw_instrs, published.vliw_instrs);
            assert_eq!(modeled.queues, published.queues);
        }
    }

    #[test]
    fn calibration_matches_table3_sram_within_one_percent() {
        for (published, modeled) in table3_rows() {
            let err = (modeled.sram_kb as f64 - published.sram_kb as f64).abs()
                / published.sram_kb as f64;
            assert!(
                err < 0.01,
                "SRAM model {} vs published {} ({}-stage)",
                modeled.sram_kb,
                published.sram_kb,
                published.cache_stages
            );
        }
    }

    #[test]
    fn usage_stays_under_quarter_of_tofino() {
        let p = SwitchProfile::tofino32();
        let u = model_usage(2, 4096, 32);
        for (name, frac) in utilization_fractions(&u, &p) {
            // Pipeline stages are the known exception (11/12); everything
            // else is < 25% as the paper reports.
            if name == "pipeline stages" {
                continue;
            }
            assert!(frac < 0.25, "{name} at {frac:.2} >= 25%");
        }
    }

    #[test]
    fn sram_scales_linearly_with_slots_and_stages() {
        let base = model_usage(1, 1024, 32).sram_kb;
        let double_slots = model_usage(1, 2048, 32).sram_kb;
        let double_stages = model_usage(2, 1024, 32).sram_kb;
        assert!(double_slots > base);
        assert_eq!(double_slots - BASE_SRAM_KB, 2 * (base - BASE_SRAM_KB));
        assert_eq!(double_stages - BASE_SRAM_KB, 2 * (base - BASE_SRAM_KB));
    }

    #[test]
    fn queue_count_is_flow_count_independent() {
        // The headline scalability property: Cebinae's queue requirement is
        // constant while AFQ's grows with buffer_req (Equation 1).
        let small = scalability_point(100, 125_000, 12_000, 32);
        let big = scalability_point(1_000_000, 125_000_000, 12_000, 32);
        assert_eq!(small.cebinae_queues, 2);
        assert_eq!(big.cebinae_queues, 2);
        assert!(big.afq_queues_needed > 1000 * small.cebinae_queues);
        assert!(big.afq_bpr_needed > small.afq_bpr_needed);
    }

    #[test]
    fn min_bpr_matches_equation_1() {
        let bpr_at_32q = |req| scalability_point(0, req, 1, 32).afq_bpr_needed;
        // 100ms RTT at 10 Gbps => 125 MB buffer_req; 32 queues.
        assert_eq!(bpr_at_32q(125_000_000), 3_906_250);
        // Exact division.
        assert_eq!(bpr_at_32q(32 * 1500), 1500);
        // Rounds up.
        assert_eq!(bpr_at_32q(32 * 1500 + 1), 1501);
    }

    #[test]
    fn equation_1_round_trips() {
        // buffer_req <= BpR * Nq at the computed values.
        let p = scalability_point(10, 1_000_000, 8_000, 64);
        assert!(p.afq_queues_needed * 8_000 >= p.buffer_req_bytes);
        assert!(p.afq_bpr_needed * 64 >= p.buffer_req_bytes);
    }
}

//! Table 3: data-plane resource usage, from the calibrated analytic model
//! (no Tofino toolchain is available; see DESIGN.md), plus the Equation 1
//! scalability comparison of §5.5.

use cebinae::resources::{
    model_usage, scalability_point, table3_rows, utilization_fractions, SwitchProfile,
};
use cebinae_fq::{AFQ_BPR, AFQ_N_QUEUES};

use crate::runner::{Ctx, Table};

pub fn run(ctx: &Ctx) -> String {
    // The two sections are independent computations; run them as one job
    // batch and concatenate in section order.
    let jobs: Vec<Box<dyn FnOnce() -> String + Send>> =
        vec![Box::new(resource_section), Box::new(scalability_section)];
    ctx.pool().run(jobs).concat()
}

fn resource_section() -> String {
    let mut out = String::new();
    out.push_str("Table 3 — modeled Tofino resource usage (published values in parentheses)\n");
    let mut t = Table::new(&[
        "cache-stages", "pipeline", "PHV[b]", "SRAM[KB]", "TCAM[KB]", "VLIW", "queues",
    ]);
    for (published, modeled) in table3_rows() {
        t.row(vec![
            modeled.cache_stages.to_string(),
            format!("{} ({})", modeled.pipeline_stages, published.pipeline_stages),
            format!("{} ({})", modeled.phv_bits, published.phv_bits),
            format!("{} ({})", modeled.sram_kb, published.sram_kb),
            format!("{} ({})", modeled.tcam_kb, published.tcam_kb),
            format!("{} ({})", modeled.vliw_instrs, published.vliw_instrs),
            format!("{} ({})", modeled.queues, published.queues),
        ]);
    }
    out.push_str(&t.render());

    out.push_str("\nutilization of a 32-port Tofino-class switch (2-stage config):\n");
    let profile = SwitchProfile::tofino32();
    let usage = model_usage(2, 4096, 32);
    for (name, frac) in utilization_fractions(&usage, &profile) {
        out.push_str(&format!("  {name:16} {:.1}%\n", frac * 100.0));
    }
    out
}

fn scalability_section() -> String {
    let mut out = String::new();
    out.push_str("\nEquation 1 scalability (queues needed per flow-buffer requirement):\n");
    let mut t2 = Table::new(&[
        "scenario", "flows", "buffer_req", "AFQ queues @BpR=12KB", "AFQ BpR @32q", "Cebinae queues",
    ]);
    for (name, flows, buf) in [
        ("DC 10G/100us", 1_000u64, 125_000u64),
        ("DC 100G/1ms", 10_000, 12_500_000),
        ("WAN 10G/100ms", 400_000, 125_000_000),
        ("WAN 100G/200ms", 1_000_000, 2_500_000_000),
    ] {
        let p = scalability_point(flows, buf, AFQ_BPR, AFQ_N_QUEUES);
        t2.row(vec![
            name.into(),
            p.flows.to_string(),
            format!("{:.1}MB", p.buffer_req_bytes as f64 / 1e6),
            p.afq_queues_needed.to_string(),
            format!("{:.1}KB", p.afq_bpr_needed as f64 / 1e3),
            p.cebinae_queues.to_string(),
        ]);
    }
    out.push_str(&t2.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_renders_all_sections() {
        let out = run(&Ctx::serial(false, 1));
        assert!(out.contains("Table 3"));
        assert!(out.contains("2448"));
        assert!(out.contains("Equation 1"));
        assert!(out.contains("Cebinae queues"));
    }

    #[test]
    fn table3_is_thread_count_invariant() {
        let serial = run(&Ctx::serial(false, 1));
        let parallel = run(&Ctx::serial(false, 1).with_threads(4));
        assert_eq!(serial, parallel);
    }
}

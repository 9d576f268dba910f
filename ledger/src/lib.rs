//! # cebinae-ledger
//!
//! The repository's performance ledger: seven paper-scale workloads, six
//! end-to-end metrics reported as medians over repetitions, and a traced
//! run that prices each layer (crate) from outside by replaying what the
//! engine did into standalone instances of the layer.
//!
//! `BENCHMARK.json` at the repository root names the command, the
//! workloads and the metrics; the tables below are the same lists in
//! code, and a test keeps the two equal. See `README.md` for the glossary
//! and for which end-to-end metric each layer metric should move.

pub mod drivers;
pub mod host;
pub mod report;
pub mod spans;
pub mod stats;
pub mod timed;
pub mod traced;
pub mod workloads;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the simulator sees, on every workload (`--trace 0`).
/// `run_s`, `ns_per_pkt`, `setup_s` and `peak_rss_mb` are host
/// measurements; `goodput_mbps` and `jfi` are simulated and repeat
/// exactly for a given seed.
pub const END_TO_END: [Metric; 6] = [
    lower("run_s", "s"),
    lower("ns_per_pkt", "ns"),
    lower("setup_s", "s"),
    lower("peak_rss_mb", "MB"),
    higher("goodput_mbps", "Mbps"),
    higher("jfi", "index"),
];

/// Single-layer metrics, named after the crates (`--trace 1`). Counts and
/// shares repeat exactly for a given seed; times do not.
pub const PER_LAYER: [Metric; 63] = [
    lower("sim.events_per_pkt", "ratio"),
    lower("sim.sched_cancel_share", "ratio"),
    lower("sim.sched_ns_per_op", "ns"),
    higher("sim.heap_over_wheel", "ratio"),
    lower("ds.detmap_get_ns", "ns"),
    lower("ds.detmap_churn_ns", "ns"),
    lower("ds.sorted_view_ns", "ns"),
    lower("net.fifo_ns_per_pkt", "ns"),
    lower("net.bneck_drop_share", "ratio"),
    lower("net.bneck_peak_queue_share", "ratio"),
    lower("fq.fqcodel_ns_per_pkt", "ns"),
    lower("fq.afq_ns_per_pkt", "ns"),
    lower("core.qdisc_ns_per_pkt", "ns"),
    lower("core.control_ns_per_call", "ns"),
    lower("core.cache_ns_per_update", "ns"),
    lower("core.lbf_ns_per_classify", "ns"),
    lower("core.agent_ns_per_recompute", "ns"),
    lower("core.lbf_drop_share", "ratio"),
    lower("core.delayed_share", "ratio"),
    lower("core.rotations", "count"),
    lower("core.saturated_share", "ratio"),
    lower("core.qdisc_ns_per_pkt.n64", "ns"),
    lower("core.qdisc_ns_per_pkt.n4096", "ns"),
    lower("core.qdisc_ns_per_pkt.n65536", "ns"),
    lower("fq.fqcodel_ns_per_pkt.n64", "ns"),
    lower("fq.fqcodel_ns_per_pkt.n4096", "ns"),
    lower("fq.fqcodel_ns_per_pkt.n65536", "ns"),
    lower("fq.afq_ns_per_pkt.n64", "ns"),
    lower("fq.afq_ns_per_pkt.n4096", "ns"),
    lower("fq.afq_ns_per_pkt.n65536", "ns"),
    lower("transport.ack_ns.w16", "ns"),
    lower("transport.ack_ns.w256", "ns"),
    lower("transport.ack_ns.w4096", "ns"),
    lower("transport.ack_ns_loss.w4096", "ns"),
    lower("transport.bbr_ack_ns.w4096", "ns"),
    lower("transport.rx_ns_per_seg", "ns"),
    lower("transport.rx_ns_per_seg_ooo", "ns"),
    lower("transport.retx_share", "ratio"),
    lower("transport.rto_count", "count"),
    lower("transport.max_flight_segs", "count"),
    lower("engine.build_s", "s"),
    lower("engine.new_s", "s"),
    lower("engine.events", "count"),
    lower("engine.ns_per_event", "ns"),
    higher("engine.express_tx_share", "ratio"),
    higher("engine.express_off_ratio", "ratio"),
    lower("engine.residual_share", "ratio"),
    lower("telemetry.on_over_off", "ratio"),
    lower("telemetry.events_ratio", "ratio"),
    lower("telemetry.sample_ns", "ns"),
    lower("telemetry.ndjson_mb", "MB"),
    lower("faults.injected_drop_pkts", "count"),
    lower("faults.dup_pkts", "count"),
    lower("faults.held_pkts", "count"),
    lower("faults.ns_per_pkt_over_clean", "ratio"),
    lower("metrics.post_ms", "ms"),
    lower("check.conservation_ms", "ms"),
    lower("check.replay_ms", "ms"),
    lower("par.job_overhead_us", "us"),
    higher("par.batch_speedup_t2", "ratio"),
    lower("host.calib_s", "s"),
    higher("host.nproc", "count"),
    lower("trace.overhead_ratio", "ratio"),
];

/// Unit of a metric of either table.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

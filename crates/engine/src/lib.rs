//! # cebinae-engine
//!
//! The whole-network discrete-event simulator of the Cebinae reproduction:
//! [`world`] runs the event loop over links, qdiscs, and TCP endpoints;
//! [`scenario`] builds the paper's dumbbell and parking-lot topologies, both
//! as chains of bottleneck links.
//!
//! This crate plays the role ns-3 plays in the paper: a controlled,
//! instrumentable substrate on which Cebinae, FIFO, and FQ-CoDel can be
//! compared packet for packet.

pub mod scenario;
pub mod world;

pub use cebinae_faults::{FaultPlan, LinkFaultSpec};
pub use cebinae_net::BufferConfig;
pub use scenario::{
    cca_mix, chain, dumbbell, parking_lot, Discipline, DumbbellFlow, ParkingLotGroup,
    ScenarioParams,
};
pub use world::{CebinaeSample, FlowDebug, FlowSpec, QdiscSpec, SimConfig, SimResult, Simulation};

#[cfg(test)]
mod tests {
    use super::*;
    use cebinae_sim::{Duration, Time};
    use cebinae_transport::CcKind;

    fn two_flow_result(discipline: Discipline, seed: u64) -> SimResult {
        let flows = vec![
            DumbbellFlow::new(CcKind::NewReno, 20),
            DumbbellFlow::new(CcKind::NewReno, 20),
        ];
        let mut p = ScenarioParams::new(10_000_000, 100, discipline);
        p.duration = Duration::from_secs(5);
        p.seed = seed;
        let (cfg, _) = dumbbell(&flows, &p);
        Simulation::new(cfg).run()
    }

    #[test]
    fn single_flow_fills_the_pipe() {
        let flows = vec![DumbbellFlow::new(CcKind::NewReno, 20)];
        let mut p = ScenarioParams::new(10_000_000, 100, Discipline::Fifo);
        p.duration = Duration::from_secs(5);
        let (cfg, bneck) = dumbbell(&flows, &p);
        let r = Simulation::new(cfg).run();
        let tput = r.link_throughput_bps(bneck, Time::from_secs(1));
        assert!(
            tput > 9.0e6,
            "one NewReno flow should fill a 10 Mbps pipe, got {tput:.0}"
        );
        let goodput = r.goodputs_bps(Time::from_secs(1))[0];
        assert!(goodput > 8.5e6, "goodput {goodput:.0}");
        assert!(goodput < tput, "goodput excludes headers");
    }

    #[test]
    fn two_equal_flows_share_fairly_under_fifo() {
        let r = two_flow_result(Discipline::Fifo, 3);
        let g = r.goodputs_bps(Time::from_secs(1));
        let total = g[0] + g[1];
        assert!(total > 8.0e6, "total {total:.0}");
        // Same RTT, same CCA: should be roughly fair even under FIFO.
        let jfi = cebinae_metrics::jfi(&g);
        assert!(jfi > 0.75, "jfi {jfi}, goodputs {g:?}");
    }

    #[test]
    fn engine_is_deterministic() {
        let a = two_flow_result(Discipline::Cebinae, 7);
        let b = two_flow_result(Discipline::Cebinae, 7);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.events_processed, b.events_processed);
    }

    #[test]
    fn all_disciplines_carry_traffic() {
        for d in [
            Discipline::Fifo,
            Discipline::FqCoDel,
            Discipline::Cebinae,
            Discipline::CebinaePerFlowTop,
            Discipline::Afq,
        ] {
            let r = two_flow_result(d, 5);
            let total: u64 = r.delivered.iter().sum();
            assert!(
                total > 1_000_000,
                "{}: delivered only {total} bytes",
                d.label()
            );
        }
    }

    #[test]
    fn fault_injection_degrades_but_does_not_kill() {
        let flows = vec![DumbbellFlow::new(CcKind::NewReno, 20)];
        let mut p = ScenarioParams::new(10_000_000, 100, Discipline::Fifo);
        p.duration = Duration::from_secs(5);
        let clean = {
            let (cfg, _) = dumbbell(&flows, &p);
            Simulation::new(cfg).run()
        };
        p.faults = FaultPlan::parse("loss:0.02").unwrap();
        let (cfg, _) = dumbbell(&flows, &p);
        let lossy = Simulation::new(cfg).run();
        assert!(lossy.delivered[0] > 500_000, "TCP survives 2% loss");
        assert!(
            lossy.delivered[0] < clean.delivered[0],
            "loss must cost goodput"
        );
    }

    #[test]
    fn staggered_starts_respected() {
        let flows = vec![
            DumbbellFlow::new(CcKind::NewReno, 20),
            DumbbellFlow::new(CcKind::NewReno, 20).starting_at(Time::from_secs(3)),
        ];
        let mut p = ScenarioParams::new(10_000_000, 100, Discipline::Fifo);
        p.duration = Duration::from_secs(5);
        let (cfg, _) = dumbbell(&flows, &p);
        let r = Simulation::new(cfg).run();
        // Flow 1 must have delivered nothing by t=2.5s.
        let before: Vec<_> = r
            .goodput
            .rates()
            .into_iter()
            .filter(|(t, _)| *t < Time::from_millis(2500))
            .collect();
        assert!(before.iter().all(|(_, rs)| rs[1] == 0.0));
        assert!(r.delivered[1] > 0, "flow 1 runs after its start");
    }

    #[test]
    fn bbr_flow_works_end_to_end() {
        let flows = vec![DumbbellFlow::new(CcKind::Bbr, 20)];
        let mut p = ScenarioParams::new(10_000_000, 100, Discipline::Fifo);
        p.duration = Duration::from_secs(5);
        let (cfg, bneck) = dumbbell(&flows, &p);
        let r = Simulation::new(cfg).run();
        let tput = r.link_throughput_bps(bneck, Time::from_secs(2));
        assert!(tput > 8.0e6, "BBR should fill the pipe, got {tput:.0}");
    }

    #[test]
    fn vegas_flow_works_end_to_end() {
        let flows = vec![DumbbellFlow::new(CcKind::Vegas, 20)];
        let mut p = ScenarioParams::new(10_000_000, 100, Discipline::Fifo);
        p.duration = Duration::from_secs(5);
        let (cfg, bneck) = dumbbell(&flows, &p);
        let r = Simulation::new(cfg).run();
        let tput = r.link_throughput_bps(bneck, Time::from_secs(2));
        assert!(tput > 8.0e6, "Vegas alone should fill the pipe, got {tput:.0}");
    }

    #[test]
    fn packet_trace_records_bottleneck_events() {
        let flows = vec![
            DumbbellFlow::new(CcKind::NewReno, 20),
            DumbbellFlow::new(CcKind::NewReno, 20),
        ];
        let mut p = ScenarioParams::new(10_000_000, 50, Discipline::Fifo);
        p.duration = Duration::from_secs(3);
        let (mut cfg, bneck) = dumbbell(&flows, &p);
        cfg.traced_links = vec![bneck];
        cfg.trace_capacity = 50_000;
        let r = Simulation::new(cfg).run();
        assert!(!r.trace.is_empty());
        // Enqueues >= dequeues; some drops expected at this small buffer.
        use cebinae_net::TraceEvent;
        let enq = r.trace.records().filter(|x| x.event == TraceEvent::Enqueue).count();
        let deq = r.trace.records().filter(|x| x.event == TraceEvent::Dequeue).count();
        let drops = r
            .trace
            .records()
            .filter(|x| matches!(x.event, TraceEvent::Drop(_)))
            .count();
        assert!(enq >= deq, "enq {enq} deq {deq}");
        assert!(drops > 0, "50-MTU buffer must tail-drop");
        // Per-flow dequeue order on a FIFO link preserves sequence order
        // for first transmissions (retransmissions legitimately revisit
        // earlier sequence numbers).
        let mut last = 0;
        for rec in r.trace.for_flow(cebinae_net::FlowId(0)) {
            if rec.event == TraceEvent::Dequeue && !rec.is_ack && !rec.is_retx {
                assert!(rec.seq >= last, "reordered: {} < {last}", rec.seq);
                last = rec.seq;
            }
        }
    }

    #[test]
    fn finite_flows_report_completion() {
        let flows = vec![
            DumbbellFlow::new(CcKind::NewReno, 20).with_bytes(500_000),
            DumbbellFlow::new(CcKind::Cubic, 20),
        ];
        let mut p = ScenarioParams::new(10_000_000, 100, Discipline::Fifo);
        p.duration = Duration::from_secs(6);
        let (cfg, _) = dumbbell(&flows, &p);
        let r = Simulation::new(cfg).run();
        let done = r.completed_at[0].expect("500KB at 10Mbps finishes in 6s");
        assert!(done > Time::ZERO && done < Time::from_secs(6));
        assert!(r.completed_at[1].is_none());
    }

    #[test]
    fn cebinae_saturation_sampled() {
        let flows = vec![
            DumbbellFlow::new(CcKind::NewReno, 20),
            DumbbellFlow::new(CcKind::NewReno, 40),
        ];
        let mut p = ScenarioParams::new(10_000_000, 100, Discipline::Cebinae);
        p.duration = Duration::from_secs(5);
        let (cfg, _) = dumbbell(&flows, &p);
        let r = Simulation::new(cfg).run();
        let saturated_samples = r
            .cebinae_series
            .iter()
            .filter(|(_, s)| s.iter().any(|c| c.saturated))
            .count();
        assert!(
            saturated_samples > 0,
            "two NewReno flows must saturate a 10 Mbps Cebinae port"
        );
    }
}

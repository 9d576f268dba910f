//! Model-based reference implementations the oracles compare against.
//!
//! Two models live here:
//!
//! * [`RefLbf`] — an *exact* per-group token-bucket filter: identical to
//!   the dataplane's [`GroupLbf`] except its pace line is continuous
//!   (`rate_head · (now − base)`) instead of quantized to vdT virtual
//!   rounds. The dataplane's quantized pace lags the continuous one by at
//!   most `rate_head · vdT`, which bounds how far the two automata may
//!   disagree — the paper's vdT-bounded approximation error envelope.
//! * [`replay_cebinae`] — a replica of the Cebinae aggregate-filter
//!   pipeline (clock, rotations, classification) fed the offered packet
//!   stream recovered from a packet trace. For a run that never saturated
//!   (`phase_changes == 0`), every verdict comes from the aggregate filter,
//!   so the replica must agree with the real qdisc *exactly* — drop for
//!   drop, delay for delay.
//!
//! This module owns all state mutation; `crate::oracle` (verify rule R9)
//! only reads results computed here.

use cebinae::{CebinaeConfig, GroupLbf, LbfVerdict, RoundClock};
use cebinae_net::{DropReason, LinkId, PacketTrace, TraceEvent, TraceRecord};
use cebinae_sim::rng::DetRng;
use cebinae_sim::{Duration, Time};

const MTU: f64 = 1500.0;

/// Fault injected into the device-under-test copy of the filter, for the
/// mutation smoke test: the differential oracle must catch each of these.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Faithful Figure-5 semantics (the real `GroupLbf`).
    None,
    /// ROTATE credits two rounds of rate instead of one.
    RotateDoubleCredit,
    /// Off-by-one-packet slack at the head boundary: admits to `headq`
    /// while `past_head` is up to one MTU past the allowance.
    HeadSlackOneMtu,
}

/// The device under test: the real `GroupLbf` plus mutation hooks. With
/// `Mutation::None` every operation delegates verbatim.
struct DutLbf {
    inner: GroupLbf,
    mutation: Mutation,
}

impl DutLbf {
    fn new(rate_bps: f64, mutation: Mutation) -> DutLbf {
        DutLbf {
            inner: GroupLbf::new(rate_bps),
            mutation,
        }
    }

    fn classify(&mut self, size: u32, clock: &RoundClock, headq: usize) -> LbfVerdict {
        match self.mutation {
            Mutation::HeadSlackOneMtu => {
                // Re-derive the Figure-5 decision with one MTU of illegal
                // slack at the head boundary. The inner filter's counter
                // stays consistent because Head and Tail commit the same
                // charge and the Drop branches coincide: only the verdict
                // (and hence which queue the packet lands in) is wrong.
                let rate_head = self.inner.rate_of(headq);
                let rate_tail = self.inner.rate_of(1 - headq);
                let dt_s = clock.dt.as_secs_f64();
                let vdt_s = clock.vdt.as_secs_f64();
                let rel = clock.relative_round();
                let per_dt = clock.rounds_per_dt();
                let aggregate = if rel < per_dt {
                    rate_head * rel as f64 * vdt_s
                } else {
                    rate_head * dt_s + (rel - per_dt) as f64 * vdt_s * rate_tail
                };
                let charged = self.inner.bytes().max(aggregate) + size as f64;
                let past_head = charged - rate_head * dt_s;
                let past_tail = past_head - rate_tail * dt_s;
                let _ = self.inner.classify(size, clock, headq);
                // The injected bug: `<= MTU` where the hardware says `<= 0`.
                if past_head <= MTU {
                    LbfVerdict::Head
                } else if past_tail <= 0.0 {
                    LbfVerdict::Tail
                } else {
                    LbfVerdict::Drop
                }
            }
            _ => self.inner.classify(size, clock, headq),
        }
    }

    fn on_rotate(&mut self, retiring: usize, dt: Duration) {
        self.inner.on_rotate(retiring, dt);
        if self.mutation == Mutation::RotateDoubleCredit {
            // The bug: one extra round of credit per rotation.
            self.inner.on_rotate(retiring, dt);
        }
    }

    fn set_pending_rate(&mut self, rate_bps: f64) {
        self.inner.set_pending_rate(rate_bps);
    }

    fn bytes(&self) -> f64 {
        self.inner.bytes()
    }

    fn rate_of(&self, q: usize) -> f64 {
        self.inner.rate_of(q)
    }
}

/// Exact reference leaky-bucket filter: the same two-round automaton as
/// `GroupLbf` with a continuous pace line.
pub struct RefLbf {
    bytes: f64,
    rate: [f64; 2],
    pending_rate: Option<f64>,
}

impl RefLbf {
    pub fn new(rate_bps: f64) -> RefLbf {
        RefLbf {
            bytes: 0.0,
            rate: [rate_bps / 8.0; 2],
            pending_rate: None,
        }
    }

    fn pace(&self, now: Time, base: Time, dt: Duration, headq: usize) -> f64 {
        let dt_s = dt.as_secs_f64();
        let elapsed = now.saturating_since(base).as_secs_f64();
        if elapsed < dt_s {
            self.rate[headq] * elapsed
        } else {
            // Late-rotation branch: already inside the next round's span.
            self.rate[headq] * dt_s + (elapsed - dt_s) * self.rate[1 - headq]
        }
    }

    /// Signed distances of this packet past the head and tail allowances,
    /// *without* committing anything (legitimacy probe for disagreements).
    pub fn probe(&self, size: u32, now: Time, base: Time, dt: Duration, headq: usize) -> (f64, f64) {
        let dt_s = dt.as_secs_f64();
        let pace = self.pace(now, base, dt, headq);
        let past_head = self.bytes.max(pace) + size as f64 - self.rate[headq] * dt_s;
        let past_tail = past_head - self.rate[1 - headq] * dt_s;
        (past_head, past_tail)
    }

    /// Continuous-pace classification; mirrors `GroupLbf::classify`.
    pub fn classify(&mut self, size: u32, now: Time, base: Time, dt: Duration, headq: usize) -> LbfVerdict {
        let pace = self.pace(now, base, dt, headq);
        let (past_head, past_tail) = self.probe(size, now, base, dt, headq);
        if past_head <= 0.0 {
            self.bytes = self.bytes.max(pace) + size as f64;
            LbfVerdict::Head
        } else if past_tail <= 0.0 {
            self.bytes = self.bytes.max(pace) + size as f64;
            LbfVerdict::Tail
        } else {
            self.bytes = self.bytes.max(pace);
            LbfVerdict::Drop
        }
    }

    pub fn on_rotate(&mut self, retiring: usize, dt: Duration) {
        self.bytes = (self.bytes - self.rate[retiring] * dt.as_secs_f64()).max(0.0);
        if let Some(r) = self.pending_rate {
            self.rate[retiring] = r;
        }
    }

    pub fn set_pending_rate(&mut self, rate_bps: f64) {
        self.pending_rate = Some(rate_bps / 8.0);
    }

    /// Lockstep re-sync: after a verdict disagreement the two counters have
    /// committed different charges, so the harness snaps the reference back
    /// onto the DUT. This keeps each disagreement's margin a *local*
    /// measurement (pure pace-quantization error, bounded by `r·vdT`)
    /// instead of letting one divergence cascade into the next.
    pub fn sync_bytes(&mut self, bytes: f64) {
        self.bytes = bytes.max(0.0);
    }

    pub fn bytes(&self) -> f64 {
        self.bytes
    }
}

/// Outcome of one differential run: worst observed divergences, for the
/// oracle (and threshold calibration) to judge.
#[derive(Clone, Copy, Debug, Default)]
pub struct DiffOutcome {
    /// Max |bytes_dut − bytes_ref| observed at any agreeing step.
    pub max_counter_divergence: f64,
    /// The largest `rate_head · vdT` quantization allowance in force.
    pub quantization_bytes: f64,
    /// Verdict disagreements observed.
    pub disagreements: u64,
    /// Max distance of the exact model from its nearest verdict boundary
    /// at any disagreement. Legitimate quantization disagreements happen
    /// only near a boundary (within `r·vdT`); a boundary off-by-one
    /// produces disagreements up to an MTU away.
    pub max_disagreement_margin: f64,
    pub packets: u64,
}

impl DiffOutcome {
    /// The vdT error envelope on the byte counters. Between disagreements
    /// the two counters commit identical charges, so they can differ only
    /// by the pace-clamp gap (≤ `r·vdT`); one MTU of slack absorbs the
    /// float error of a near-boundary commit race.
    pub fn counter_envelope(&self) -> f64 {
        self.quantization_bytes + MTU
    }

    /// Envelope for disagreement margins: a disagreement is legitimate only
    /// while the exact model sits within one quantization step of the
    /// boundary (plus float slack).
    pub fn margin_envelope(&self) -> f64 {
        self.quantization_bytes + 128.0
    }

    pub fn within_envelope(&self) -> bool {
        self.max_counter_divergence <= self.counter_envelope()
            && self.max_disagreement_margin <= self.margin_envelope()
    }
}

/// Parameters of a differential run, derived from a scenario (or built
/// directly by the mutation smoke test).
#[derive(Clone, Copy, Debug)]
pub struct DiffParams {
    pub rate_bps: u64,
    pub dt: Duration,
    pub vdt: Duration,
    /// Physical rounds to simulate.
    pub rounds: u64,
    /// Mean offered load as a fraction of the filter rate (>1 exercises
    /// the Tail/Drop boundaries).
    pub load: f64,
}

impl DiffParams {
    pub fn from_config(cfg: &CebinaeConfig, rate_bps: u64) -> DiffParams {
        DiffParams {
            rate_bps,
            dt: cfg.dt,
            vdt: cfg.vdt,
            rounds: 10,
            load: 1.4,
        }
    }
}

/// Drive the dataplane filter and the exact reference over one identical
/// seeded admission stream (bursty arrivals, idle gaps, occasional CP rate
/// changes, rotations on the shared clock) and record the divergences.
pub fn run_diff(seed: u64, p: DiffParams, mutation: Mutation) -> DiffOutcome {
    let mut rng = DetRng::seed_from_u64(seed ^ 0xD1FF_0AC1_E5ED_5EED);
    let rate = p.rate_bps as f64;
    let mut clock = RoundClock::new(p.dt, p.vdt, Time::ZERO);
    let mut headq = 0usize;
    let mut dut = DutLbf::new(rate, mutation);
    let mut reference = RefLbf::new(rate);

    let mut out = DiffOutcome {
        quantization_bytes: rate / 8.0 * p.vdt.as_secs_f64(),
        ..DiffOutcome::default()
    };

    let end = Time::ZERO + Duration(p.dt.as_nanos() * p.rounds);
    let mut now = Time::ZERO;
    let mut next_rotation = clock.next_rotation();
    // Mean inter-arrival for `load`× the filter rate in MTU packets.
    let mean_gap_ns = (MTU * 8.0 / (rate * p.load) * 1e9).max(1.0);

    while now < end {
        // Bursty arrivals: jittered gaps, occasional multi-vdT idle spells
        // (which exercise the pace clamp's credit expiry).
        let gap = if rng.gen_bool(0.02) {
            Duration(p.vdt.as_nanos() * rng.gen_range_u64(1, 6))
        } else {
            Duration((mean_gap_ns * rng.gen_range_f64(0.1, 2.0)) as u64)
        };
        now += gap;
        if now >= end {
            break;
        }
        // Rotations due at or before this arrival rotate first, matching
        // the event queue's earlier-scheduled-first tie order.
        while next_rotation <= now {
            let retiring = headq;
            dut.on_rotate(retiring, p.dt);
            reference.on_rotate(retiring, p.dt);
            clock.rotate();
            headq = 1 - headq;
            next_rotation = clock.next_rotation();
            // Occasional CP rate change, installed on both filters.
            if rng.gen_bool(0.3) {
                let new_rate = rate * rng.gen_range_f64(0.3, 1.0);
                dut.set_pending_rate(new_rate);
                reference.set_pending_rate(new_rate);
            }
        }
        clock.observe(now);
        let size = if rng.gen_bool(0.85) {
            MTU as u32
        } else {
            rng.gen_range_u64(64, 1500) as u32
        };
        let base = clock.base_round_time();
        let (past_head, past_tail) = reference.probe(size, now, base, p.dt, headq);
        let v_dut = dut.classify(size, &clock, headq);
        let v_ref = reference.classify(size, now, base, p.dt, headq);
        out.packets += 1;
        // Track the largest quantization allowance actually in force (CP
        // rate changes shrink it; the envelope keys off the largest).
        let q = dut.rate_of(headq) * p.vdt.as_secs_f64();
        out.quantization_bytes = out.quantization_bytes.max(q);
        if v_dut != v_ref {
            out.disagreements += 1;
            // Distance from the boundary the disagreement straddles: the
            // nearer of the two.
            let margin = past_head.abs().min(past_tail.abs());
            out.max_disagreement_margin = out.max_disagreement_margin.max(margin);
            reference.sync_bytes(dut.bytes());
        } else {
            let div = (dut.bytes() - reference.bytes()).abs();
            out.max_counter_divergence = out.max_counter_divergence.max(div);
        }
    }
    out
}

/// Offered packet stream at `link`, recovered from a trace: every record
/// that reached the qdisc's classifier (enqueues and qdisc drops; injected
/// drops never reached it).
pub fn offered_stream<'a>(
    trace: &'a PacketTrace,
    link: LinkId,
) -> impl Iterator<Item = &'a TraceRecord> + 'a {
    trace.records().filter(move |r| {
        r.link == link
            && match r.event {
                TraceEvent::Enqueue => true,
                TraceEvent::Drop(DropReason::Injected) => false,
                TraceEvent::Drop(_) => true,
                TraceEvent::Dequeue => false,
            }
    })
}

/// Replica counters from replaying a never-saturated Cebinae run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayCounts {
    /// Packets the replica sent to the future queue that the engine
    /// admitted (trace `Enqueue`).
    pub delayed_pkts: u64,
    /// Packets the replica dropped past both rounds.
    pub lbf_drops: u64,
    /// Offered packets whose replica verdict is inconsistent with the
    /// traced outcome (replica Drop on a traced Enqueue, or vice versa).
    pub verdict_conflicts: u64,
    pub offered: u64,
}

/// Replay the offered stream of a (never-saturated) Cebinae bottleneck
/// through a replica aggregate filter. The caller checks the returned
/// counts against the qdisc's own `delayed_pkts` / `lbf_drops`.
pub fn replay_cebinae(
    trace: &PacketTrace,
    link: LinkId,
    cfg: &CebinaeConfig,
    rate_bps: u64,
) -> ReplayCounts {
    let mut clock = RoundClock::new(cfg.dt, cfg.vdt, Time::ZERO);
    let mut grp = GroupLbf::new(rate_bps as f64);
    let mut headq = 0usize;
    let mut next_rotation = clock.next_rotation();
    let mut counts = ReplayCounts::default();

    for rec in offered_stream(trace, link) {
        // The engine schedules each ROTATE a full round before it fires, so
        // at timestamp ties the control event pops before the arrival:
        // process rotations up to and including the packet's instant.
        while next_rotation <= rec.at {
            grp.on_rotate(headq, cfg.dt);
            clock.rotate();
            headq = 1 - headq;
            next_rotation = clock.next_rotation();
        }
        clock.observe(rec.at);
        let verdict = grp.classify(rec.size, &clock, headq);
        counts.offered += 1;
        match (verdict, rec.event) {
            (LbfVerdict::Drop, TraceEvent::Drop(DropReason::LbfPastTail)) => {
                counts.lbf_drops += 1;
            }
            (LbfVerdict::Drop, _) | (_, TraceEvent::Drop(DropReason::LbfPastTail)) => {
                counts.verdict_conflicts += 1;
            }
            (LbfVerdict::Tail, TraceEvent::Enqueue) => counts.delayed_pkts += 1,
            // Tail verdicts that hit drop-tail are charged but not counted
            // as delayed by the qdisc (the early buffer-full return).
            (LbfVerdict::Tail, _) | (LbfVerdict::Head, _) => {}
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> DiffParams {
        DiffParams {
            rate_bps: 10_000_000,
            dt: Duration(1 << 26),
            vdt: Duration(1 << 17),
            rounds: 10,
            load: 1.4,
        }
    }

    #[test]
    fn faithful_filter_stays_within_envelope() {
        for seed in 0..24u64 {
            let o = run_diff(seed, params(), Mutation::None);
            assert!(o.packets > 100, "seed {seed}: stream too short");
            assert!(
                o.within_envelope(),
                "seed {seed}: divergence {:.1} (env {:.1}), margin {:.1} (env {:.1})",
                o.max_counter_divergence,
                o.counter_envelope(),
                o.max_disagreement_margin,
                o.margin_envelope(),
            );
        }
    }

    #[test]
    fn rotate_double_credit_is_caught() {
        let mut caught = 0;
        for seed in 0..8u64 {
            if !run_diff(seed, params(), Mutation::RotateDoubleCredit).within_envelope() {
                caught += 1;
            }
        }
        assert!(caught >= 7, "double rotate credit must blow the counter envelope: {caught}/8");
    }

    #[test]
    fn head_slack_off_by_one_is_caught() {
        // At 10 Mbps, vdT = 2^17 ns allows ~164 bytes of legitimate
        // quantization slack; a one-MTU (1500 B) boundary slack produces
        // disagreement margins far outside it.
        let mut caught = 0;
        for seed in 0..8u64 {
            if !run_diff(seed, params(), Mutation::HeadSlackOneMtu).within_envelope() {
                caught += 1;
            }
        }
        assert!(caught >= 7, "one-MTU head slack must blow the margin envelope: {caught}/8");
    }

    #[test]
    fn diff_runs_are_deterministic() {
        let a = run_diff(7, params(), Mutation::None);
        let b = run_diff(7, params(), Mutation::None);
        assert_eq!(a.max_counter_divergence.to_bits(), b.max_counter_divergence.to_bits());
        assert_eq!(a.max_disagreement_margin.to_bits(), b.max_disagreement_margin.to_bits());
        assert_eq!(a.packets, b.packets);
        assert_eq!(a.disagreements, b.disagreements);
    }

    #[test]
    fn ref_lbf_matches_group_lbf_on_round_boundaries() {
        // With arrivals exactly on virtual-round boundaries the quantized
        // and continuous pace lines coincide, so the two automata agree
        // verdict for verdict.
        let dt = Duration(1 << 23);
        let vdt = Duration(1 << 17);
        let mut clock = RoundClock::new(dt, vdt, Time::ZERO);
        let mut g = GroupLbf::new(100e6);
        let mut r = RefLbf::new(100e6);
        for i in 0..(dt.as_nanos() / vdt.as_nanos()) {
            let now = Time(i * vdt.as_nanos());
            clock.observe(now);
            for _ in 0..4 {
                let vg = g.classify(1500, &clock, 0);
                let vr = r.classify(1500, now, clock.base_round_time(), dt, 0);
                assert_eq!(vg, vr, "round {i}");
            }
        }
        assert!((g.bytes() - r.bytes()).abs() < 1e-6);
    }
}

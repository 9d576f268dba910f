//! The Cebinae queueing discipline: two physical FIFO queues with rotating
//! priorities, per-group leaky-bucket filters, the egress monitors (port
//! byte counter + heavy-hitter cache), and the control-plane state machine
//! of Figures 4-6.
//!
//! ## Timeline (Figure 6)
//!
//! Each physical round `[t0, t0+dT)`:
//!
//! * **t0 — ROTATE**: `headq` flips; each group's `bytes` counter is
//!   credited one round of the retiring queue's rate; CP-pending rates are
//!   installed on the retiring queue (which now schedules the *next*
//!   round). Every `P`-th rotation the CP also recomputes saturation, the
//!   ⊤ set and the group rates from the window's measurements.
//! * **t0+vdT+L — APPLY**: inside the window where only one physical queue
//!   holds packets, membership (⊤ set) and phase changes are applied
//!   atomically, which is what makes them reordering-free (§4.3).
//!
//! ## Phases
//!
//! While the port is *unsaturated*, all traffic passes through a single
//! aggregate filter at line rate (the `total_bytes[]` filter of §4.3),
//! preserving the queue-drain guarantee without taxing anyone. When the
//! port *saturates*, traffic splits into the ⊤ (bottlenecked, taxed) and ⊥
//! groups, with the aggregate filter still tracked in the background so the
//! next phase flip is atomic.

use std::collections::VecDeque;

use cebinae_ds::{DetMap, DetSet};
use cebinae_net::{DropReason, FlowId, Packet, Qdisc, QdiscStats};
use cebinae_sim::Time;

use crate::agent::{recompute, RecomputeDecision, RecomputeInput};
use crate::cache::HeavyHitterCache;
use crate::config::CebinaeConfig;
use crate::lbf::{GroupLbf, LbfVerdict, RoundClock};

/// Which control event fires next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CtlPhase {
    /// ROTATE at a round boundary (t0).
    Rotate,
    /// Membership/phase application at t0 + vdT + L.
    Apply,
}

/// Cebinae-specific counters beyond [`QdiscStats`].
#[derive(Clone, Copy, Debug, Default)]
pub struct CebinaeXstats {
    pub rotations: u64,
    pub recomputes: u64,
    pub phase_changes: u64,
    /// Packets dropped by the LBF (`past_tail > 0`).
    pub lbf_drops: u64,
    /// Packets delayed into the future queue.
    pub delayed_pkts: u64,
    /// Rotations at which the retiring headq still held packets (should be
    /// ~0 when Equation 2 holds; spliced to preserve order).
    pub leftover_rotations: u64,
    /// Rounds spent in the saturated phase.
    pub saturated_rounds: u64,
}

/// The Cebinae qdisc for one port.
pub struct CebinaeQdisc {
    cfg: CebinaeConfig,
    capacity_bps: u64,

    queues: [VecDeque<Packet>; 2],
    queue_bytes: [u64; 2],
    queued_total: u64,
    headq: usize,

    clock: RoundClock,
    active: bool,

    /// Aggregate (whole-port) filter — the `total_bytes[]` tracker, also
    /// the only filter in force while unsaturated.
    total_grp: GroupLbf,
    top_grp: GroupLbf,
    bottom_grp: GroupLbf,
    /// Per-flow ⊤ filters (extension mode, cfg.per_flow_top). DetMap keeps
    /// every control-plane sweep deterministic (verify rules R3/R13) while
    /// making the per-packet membership test and filter lookup O(1).
    top_flow_grps: DetMap<FlowId, GroupLbf>,
    top_flows: DetSet<FlowId>,
    saturated: bool,

    cache: HeavyHitterCache,
    /// Cumulative egress bytes (the per-port register of §4.1).
    port_tx_bytes: u64,
    /// CP's previous sample of `port_tx_bytes`.
    cp_last_port_tx: u64,
    /// CP aggregation of cache polls over the current window. Accumulation
    /// is per-key independent, so raw DetMap order is fine; the consumers
    /// that need key order (recompute) sort on demand.
    cp_flow_bytes: DetMap<FlowId, u64>,

    rotations: u64,
    next_phase: CtlPhase,
    /// Decision awaiting the membership-application window.
    pending: Option<RecomputeDecision>,
    /// Per-⊤-flow rate cap installed by the previous recompute, used to
    /// keep the cap monotone while the port stays saturated (§3.2:
    /// bottlenecked flows are *prevented from claiming additional
    /// bandwidth*; Example 2 compounds the tax as 6(1−τ)², 6(1−τ)³, …).
    /// Monotonicity is per flow-slot, not per set, so leader rotation among
    /// near-equal aggressive flows cannot re-base the cap: while the link
    /// remains saturated, the *maximum entitlement on the link* only
    /// shrinks — exactly the Definition 2 invariant. Without this,
    /// per-window measurement noise (the LBF's legitimate two-round
    /// bursts) lets the cap random-walk upward faster than τ pulls it
    /// down. Cleared on any unsaturated phase.
    last_top_rate_per_flow: Option<f64>,

    stats: QdiscStats,
    xstats: CebinaeXstats,
}

impl CebinaeQdisc {
    /// Create a Cebinae qdisc for a port of `capacity_bps`. `seed`
    /// diversifies the cache hash functions (use the port id).
    pub fn new(cfg: CebinaeConfig, capacity_bps: u64, seed: u64) -> CebinaeQdisc {
        cfg.validate().expect("invalid Cebinae configuration");
        let cache = HeavyHitterCache::new(cfg.cache_stages, cfg.cache_slots, seed);
        let cap = capacity_bps as f64;
        CebinaeQdisc {
            clock: RoundClock::new(cfg.dt, cfg.vdt, Time::ZERO),
            total_grp: GroupLbf::new(cap),
            top_grp: GroupLbf::new(cap),
            bottom_grp: GroupLbf::new(cap),
            top_flow_grps: DetMap::new(),
            top_flows: DetSet::new(),
            saturated: false,
            cache,
            port_tx_bytes: 0,
            cp_last_port_tx: 0,
            cp_flow_bytes: DetMap::new(),
            rotations: 0,
            next_phase: CtlPhase::Rotate,
            pending: None,
            last_top_rate_per_flow: None,
            queues: [VecDeque::new(), VecDeque::new()],
            queue_bytes: [0, 0],
            queued_total: 0,
            headq: 0,
            active: false,
            stats: QdiscStats::default(),
            xstats: CebinaeXstats::default(),
            cfg,
            capacity_bps,
        }
    }

    pub fn config(&self) -> &CebinaeConfig {
        &self.cfg
    }

    pub fn is_saturated(&self) -> bool {
        self.saturated
    }

    pub fn top_flow_count(&self) -> usize {
        self.top_flows.len()
    }

    pub fn top_flows(&self) -> impl Iterator<Item = FlowId> + '_ {
        self.top_flows.iter().copied()
    }

    pub fn xstats(&self) -> CebinaeXstats {
        self.xstats
    }

    /// Snapshot of the control state for instrumentation: (saturated,
    /// ⊤ head rate bps, ⊥ head rate bps, ⊤ set size).
    pub fn control_snapshot(&self) -> (bool, f64, f64, usize) {
        (
            self.saturated,
            self.top_grp.rate_of(self.headq) * 8.0,
            self.bottom_grp.rate_of(self.headq) * 8.0,
            self.top_flows.len(),
        )
    }

    /// ROTATE (Figure 5 lines 8-12 + Figure 4 line 5).
    fn do_rotate(&mut self, now: Time) {
        let retiring = self.headq;
        // Any leftover in the retiring headq would be scheduled *behind* the
        // new headq by priority, reordering flows across rounds. Hardware
        // prevents this via the Equation 2 drain guarantee; we splice the
        // (rare, boundary-serialization) leftovers to the front of the new
        // head queue to preserve order, and count occurrences.
        // det-ok: queues/queue_bytes are 2-arrays and retiring/other are always 0/1
        if !self.queues[retiring].is_empty() {
            self.xstats.leftover_rotations = self.xstats.leftover_rotations.saturating_add(1);
            let other = 1 - retiring;
            while let Some(pkt) = self.queues[retiring].pop_back() { // det-ok: 2-array, retiring is 0 or 1
                // det-ok: same 2-arrays; queue_bytes conservation (enqueue adds, dequeue/splice subtracts) is pinned by the check crate's conservation oracle
                self.queue_bytes[retiring] -= pkt.size as u64;
                self.queue_bytes[other] += pkt.size as u64; // det-ok: splice moves bytes between the two queues
                self.queues[other].push_front(pkt); // det-ok: 2-array, other is 0 or 1
            }
        }

        self.total_grp.on_rotate(retiring, self.cfg.dt);
        self.top_grp.on_rotate(retiring, self.cfg.dt);
        self.bottom_grp.on_rotate(retiring, self.cfg.dt);
        for g in self.top_flow_grps.values_mut() {
            g.on_rotate(retiring, self.cfg.dt);
        }
        self.clock.rotate();
        self.headq = 1 - self.headq;
        self.rotations = self.rotations.saturating_add(1);
        self.xstats.rotations = self.xstats.rotations.saturating_add(1);
        if self.saturated {
            self.xstats.saturated_rounds = self.xstats.saturated_rounds.saturating_add(1);
        }

        // Poll & reset the flow cache every dT (§4.2), aggregating into the
        // CP's window view.
        for (f, b) in self.cache.poll_and_reset() {
            *self.cp_flow_bytes.get_or_insert_with(f, || 0) += b;
        }

        // Every P-th rotation: recompute (Figure 4 lines 8-28).
        if self.rotations % self.cfg.p as u64 == 0 {
            self.xstats.recomputes = self.xstats.recomputes.saturating_add(1);
            let port_bytes = self.port_tx_bytes - self.cp_last_port_tx;
            self.cp_last_port_tx = self.port_tx_bytes;
            let n_active = self.cp_flow_bytes.len().max(1);
            let mut decision = recompute(
                &self.cfg,
                &RecomputeInput {
                    port_bytes,
                    capacity_bps: self.capacity_bps,
                    window: self.cfg.window(),
                    flow_bytes: &self.cp_flow_bytes,
                },
            );
            if decision.saturated && !decision.top_flows.is_empty() {
                // Per-flow entitlement E, compounded per window (Example 2:
                // 6(1−τ), 6(1−τ)², …): E ← (1−τ)·min(E, measured). The min
                // keeps E monotone through leader rotation and measurement
                // noise; the unconditional (1−τ) keeps the tax compounding
                // even when the ⊤ flow pins its cap exactly.
                let n = decision.top_flows.len() as f64;
                let measured_per_flow = decision.top_rate_bps / (1.0 - self.cfg.tau).max(1e-9) / n;
                let e = match (self.saturated, self.last_top_rate_per_flow) {
                    (true, Some(prev)) => prev.min(measured_per_flow),
                    _ => measured_per_flow,
                } * (1.0 - self.cfg.tau);
                // Never tax a flow below its fair share (§3.2 constrains
                // flows that have *met or exceeded* their fair share): the
                // entitlement floor is capacity / active-flow-count. The
                // active count comes from the window's cache poll, which
                // can only undercount — making the floor conservative
                // (higher), never unfairly low.
                let e = e.max(self.capacity_bps as f64 / n_active as f64);
                // The ⊥ group must always keep headroom — Example 1: "there
                // is always room for new flows to grow". Floor it at τ·C.
                let bottom_floor = self.cfg.tau * self.capacity_bps as f64;
                decision.top_rate_bps =
                    (e * n).min(self.capacity_bps as f64 - bottom_floor);
                decision.bottom_rate_bps =
                    (self.capacity_bps as f64 - decision.top_rate_bps).max(bottom_floor);
                self.last_top_rate_per_flow = Some(decision.top_rate_bps / n);
            } else if !decision.saturated {
                self.last_top_rate_per_flow = None;
            }
            self.cp_flow_bytes.clear();

            // Rates are installed as pending CP writes (effective when the
            // next queue retires); membership/phase changes wait for the
            // reordering-safe window.
            if decision.saturated && self.saturated {
                self.install_rates(&decision);
            }
            self.pending = Some(decision);
        }
        let _ = now;
    }

    /// Install the decision's rates as pending per-queue writes.
    fn install_rates(&mut self, d: &RecomputeDecision) {
        if self.cfg.per_flow_top && !d.top_flows.is_empty() {
            let total_bytes: u64 = d.top_flow_bytes.iter().sum();
            for (f, b) in d.top_flows.iter().zip(&d.top_flow_bytes) {
                let share = *b as f64 / total_bytes.max(1) as f64;
                if let Some(g) = self.top_flow_grps.get_mut(f) {
                    g.set_pending_rate(d.top_rate_bps * share);
                }
            }
        } else {
            self.top_grp.set_pending_rate(d.top_rate_bps);
        }
        self.bottom_grp.set_pending_rate(d.bottom_rate_bps);
    }

    /// Apply membership and phase changes (the t0+vdT+L window of §4.3).
    fn do_apply(&mut self, _now: Time) {
        let Some(d) = self.pending.take() else {
            return;
        };
        let was_saturated = self.saturated;
        if d.saturated {
            self.top_flows = d.top_flows.iter().copied().collect();
            if self.cfg.per_flow_top {
                self.sync_per_flow_groups(&d, was_saturated);
            }
            if !was_saturated {
                // Phase change unsaturated -> saturated: the first packets of
                // each group conceptually inherit a proportional share of the
                // aggregate counter (bytes[f] = total_bytes * rate/BW, §4.3).
                self.xstats.phase_changes += 1;
                let total = self.total_grp.bytes();
                let cap = self.capacity_bps as f64;
                if !self.cfg.per_flow_top {
                    self.top_grp
                        .reset_for_phase(d.top_rate_bps, total * d.top_rate_bps / cap);
                }
                self.bottom_grp
                    .reset_for_phase(d.bottom_rate_bps, total * d.bottom_rate_bps / cap);
            }
            self.saturated = true;
        } else {
            if was_saturated {
                // Phase change saturated -> unsaturated: drop all limits and
                // let the (continuously tracked) aggregate filter govern.
                self.xstats.phase_changes += 1;
                self.top_flows.clear();
                self.top_flow_grps.clear();
            }
            self.saturated = false;
        }
    }

    /// Per-flow-⊤ extension: create/update/remove individual filters.
    fn sync_per_flow_groups(&mut self, d: &RecomputeDecision, was_saturated: bool) {
        let total_bytes: u64 = d.top_flow_bytes.iter().sum();
        let cap = self.capacity_bps as f64;
        let agg = self.total_grp.bytes();
        self.top_flow_grps.retain(|f, _| self.top_flows.contains(f));
        for (f, b) in d.top_flows.iter().zip(&d.top_flow_bytes) {
            let share = *b as f64 / total_bytes.max(1) as f64;
            let rate = d.top_rate_bps * share;
            self.top_flow_grps.get_or_insert_with(*f, || {
                let seed_bytes = if was_saturated { 0.0 } else { agg * rate / cap };
                let mut g = GroupLbf::new(rate);
                g.reset_for_phase(rate, seed_bytes);
                g
            });
        }
    }

    fn push(&mut self, queue: usize, pkt: Packet) {
        // det-ok: queue_bytes is a [u64; 2] indexed by 0/1; it is an occupancy gauge whose conservation the check crate's oracle pins
        self.queue_bytes[queue] += pkt.size as u64;
        self.queued_total += pkt.size as u64; // det-ok: occupancy gauge, decremented in dequeue; conservation-oracle-checked
        self.stats.on_enqueue(pkt.size);
        self.stats.note_queued(self.queued_total);
        self.queues[queue].push_back(pkt); // det-ok: queues is a 2-array indexed by 0/1
    }
}

impl Qdisc for CebinaeQdisc {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn enqueue(&mut self, mut pkt: Packet, now: Time) -> Result<(), (Packet, DropReason)> {
        debug_assert!(self.active, "enqueue before activate");
        self.clock.observe(now);

        // The aggregate filter always tracks (it *is* the filter while
        // unsaturated; it arms the next phase change while saturated).
        let total_verdict = self.total_grp.classify(pkt.size, &self.clock, self.headq);
        let verdict = if !self.saturated {
            total_verdict
        } else if self.top_flows.contains(&pkt.flow) {
            if self.cfg.per_flow_top {
                match self.top_flow_grps.get_mut(&pkt.flow) {
                    Some(g) => g.classify(pkt.size, &self.clock, self.headq),
                    None => self.top_grp.classify(pkt.size, &self.clock, self.headq),
                }
            } else {
                self.top_grp.classify(pkt.size, &self.clock, self.headq)
            }
        } else {
            self.bottom_grp.classify(pkt.size, &self.clock, self.headq)
        };

        // Physical buffer check comes *after* the LBF register update,
        // matching the hardware pipeline (ingress LBF state updates happen
        // whether or not the traffic manager later drops the packet). This
        // ordering is what lets the filter observe a flow's full offered
        // load even when drop-tail is the binding constraint.
        match verdict {
            LbfVerdict::Head | LbfVerdict::Tail => {
                if self.queued_total + pkt.size as u64 > self.cfg.buffer.bytes {
                    self.stats.on_drop(pkt.size);
                    return Err((pkt, DropReason::BufferFull));
                }
            }
            LbfVerdict::Drop => {}
        }
        match verdict {
            LbfVerdict::Head => {
                let q = self.headq;
                self.push(q, pkt);
                Ok(())
            }
            LbfVerdict::Tail => {
                self.xstats.delayed_pkts = self.xstats.delayed_pkts.saturating_add(1);
                if self.cfg.enable_ecn && pkt.try_mark_ce() {
                    self.stats.ecn_marked = self.stats.ecn_marked.saturating_add(1);
                }
                let q = 1 - self.headq;
                self.push(q, pkt);
                Ok(())
            }
            LbfVerdict::Drop => {
                self.xstats.lbf_drops = self.xstats.lbf_drops.saturating_add(1);
                self.stats.on_drop(pkt.size);
                Err((pkt, DropReason::LbfPastTail))
            }
        }
    }

    fn dequeue(&mut self, _now: Time) -> Option<Packet> {
        // Strict priority: current head queue first.
        // det-ok: queues is a [VecDeque; 2] and headq is maintained as 0 or 1
        let q = if !self.queues[self.headq].is_empty() {
            self.headq
        } else if !self.queues[1 - self.headq].is_empty() { // det-ok: other element of the 2-array
            1 - self.headq
        } else {
            return None;
        };
        let pkt = self.queues[q].pop_front()?; // det-ok: q is 0 or 1 from the branch above
        // det-ok: occupancy gauges mirroring push(); conservation is pinned by the check crate's oracle, and debug tests would catch underflow
        self.queue_bytes[q] -= pkt.size as u64;
        self.queued_total -= pkt.size as u64; // det-ok: occupancy gauge, matched with push()
        self.stats.on_tx(pkt.size);
        // Egress pipeline: port byte counter (§4.1) + flow cache (§4.2).
        self.port_tx_bytes = self.port_tx_bytes.saturating_add(pkt.size as u64);
        self.cache.update(pkt.flow, pkt.size as u64);
        Some(pkt)
    }

    fn byte_len(&self) -> u64 {
        self.queued_total
    }

    fn pkt_len(&self) -> usize {
        self.queues[0].len() + self.queues[1].len()
    }

    fn activate(&mut self, now: Time) -> Option<Time> {
        self.active = true;
        self.clock = RoundClock::new(self.cfg.dt, self.cfg.vdt, now);
        self.next_phase = CtlPhase::Rotate;
        Some(self.clock.next_rotation())
    }

    fn control(&mut self, now: Time) -> Option<Time> {
        match self.next_phase {
            CtlPhase::Rotate => {
                self.do_rotate(now);
                self.next_phase = CtlPhase::Apply;
                Some(self.clock.base_round_time() + self.cfg.vdt + self.cfg.l)
            }
            CtlPhase::Apply => {
                self.do_apply(now);
                self.next_phase = CtlPhase::Rotate;
                Some(self.clock.next_rotation())
            }
        }
    }

    fn stats(&self) -> &QdiscStats {
        &self.stats
    }

    fn name(&self) -> &'static str {
        "cebinae"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cebinae_net::{BufferConfig, MSS};
    use cebinae_sim::Duration;
    use std::collections::{HashMap, HashSet};

    const RATE: u64 = 100_000_000; // 100 Mbps

    fn qdisc() -> CebinaeQdisc {
        let cfg = CebinaeConfig::for_link(
            RATE,
            BufferConfig::mtus(420),
            Duration::from_millis(50),
        );
        let mut q = CebinaeQdisc::new(cfg, RATE, 1);
        q.activate(Time::ZERO);
        q
    }

    fn pkt(flow: u32, seq: u64) -> Packet {
        Packet::data(FlowId(flow), seq, MSS, false, Time::ZERO)
    }

    /// Drive the qdisc's control schedule up to `until`, interleaving an
    /// offered load callback that can enqueue/dequeue.
    fn run_schedule(
        q: &mut CebinaeQdisc,
        until: Time,
        mut step: impl FnMut(&mut CebinaeQdisc, Time, Time),
    ) {
        let mut next_ctl = q.clock.next_rotation();
        let mut now = Time::ZERO;
        while next_ctl <= until {
            step(q, now, next_ctl);
            now = next_ctl;
            next_ctl = q.control(now).expect("cebinae always reschedules");
        }
    }

    /// Saturate the port: each inter-control interval, enqueue slightly
    /// more than the link can carry and dequeue exactly at line rate.
    fn offered_load(flows: &[(u32, f64)]) -> impl FnMut(&mut CebinaeQdisc, Time, Time) + '_ {
        let mut seqs: HashMap<u32, u64> = HashMap::new();
        move |q, from, to| {
            let dt_s = to.saturating_since(from).as_secs_f64();
            let line_bytes = RATE as f64 / 8.0 * dt_s;
            for &(f, share) in flows {
                let n = (line_bytes * share / MSS as f64) as usize;
                let seq = seqs.entry(f).or_insert(0);
                for i in 0..n {
                    let t = from + Duration::from_secs_f64(dt_s * i as f64 / n.max(1) as f64);
                    let mut p = pkt(f, *seq);
                    p.sent_at = t;
                    let _ = q.enqueue(p, t);
                    *seq += 1;
                    // Keep the queue drained at line rate.
                    if q.byte_len() > 3 * MSS as u64 {
                        q.dequeue(t);
                        q.dequeue(t);
                    }
                }
            }
            while q.dequeue(to).is_some() {}
        }
    }

    #[test]
    fn activation_schedules_first_rotation() {
        let mut q = CebinaeQdisc::new(
            CebinaeConfig::for_link(RATE, BufferConfig::mtus(420), Duration::from_millis(50)),
            RATE,
            1,
        );
        let t = q.activate(Time::from_millis(3)).expect("control needed");
        assert!(t > Time::from_millis(3));
        assert_eq!(t.as_nanos() % q.config().dt.as_nanos(), 0);
    }

    #[test]
    fn control_alternates_rotate_and_apply() {
        let mut q = qdisc();
        let t1 = q.clock.next_rotation();
        let t2 = q.control(t1).unwrap(); // rotate
        assert_eq!(t2, t1 + q.cfg.vdt + q.cfg.l);
        let t3 = q.control(t2).unwrap(); // apply
        assert_eq!(t3, t1 + q.cfg.dt);
        assert_eq!(q.xstats().rotations, 1);
    }

    #[test]
    fn idle_port_stays_unsaturated() {
        let mut q = qdisc();
        run_schedule(&mut q, Time::from_secs(2), |_, _, _| {});
        assert!(!q.is_saturated());
        assert_eq!(q.top_flow_count(), 0);
        assert!(q.xstats().recomputes > 0);
    }

    /// Run with load and record (ever_saturated, flows ever in ⊤, flows
    /// in ⊤ at a saturated instant, last saturated top/bottom head rates).
    struct Observed {
        ever_saturated: bool,
        ever_top: HashSet<u32>,
        max_tops_while_saturated: usize,
        last_rates: Option<(f64, f64)>,
    }

    fn observe_run(q: &mut CebinaeQdisc, until: Time, flows: &[(u32, f64)]) -> Observed {
        let mut load = offered_load(flows);
        let mut obs = Observed {
            ever_saturated: false,
            ever_top: HashSet::new(),
            max_tops_while_saturated: 0,
            last_rates: None,
        };
        let mut next_ctl = q.clock.next_rotation();
        let mut now = Time::ZERO;
        while next_ctl <= until {
            load(q, now, next_ctl);
            now = next_ctl;
            next_ctl = q.control(now).expect("cebinae always reschedules");
            if q.is_saturated() {
                obs.ever_saturated = true;
                obs.ever_top.extend(q.top_flows().map(|f| f.0));
                obs.max_tops_while_saturated =
                    obs.max_tops_while_saturated.max(q.top_flow_count());
                obs.last_rates = Some((
                    q.top_grp.rate_of(q.headq) * 8.0,
                    q.bottom_grp.rate_of(q.headq) * 8.0,
                ));
            }
        }
        obs
    }

    #[test]
    fn saturation_detected_and_hog_taxed() {
        let mut q = qdisc();
        // Flow 0 offers 60% of line rate, flows 1..5 10% each => ~100%.
        let flows = [(0u32, 0.60), (1, 0.10), (2, 0.10), (3, 0.10), (4, 0.10)];
        let obs = observe_run(&mut q, Time::from_secs(3), &flows);
        assert!(obs.ever_saturated, "port must be detected saturated");
        assert!(
            obs.ever_top.contains(&0),
            "the hog must be in the top set, got {:?}",
            obs.ever_top
        );
        assert!(
            !obs.ever_top.contains(&3),
            "a 10% flow must never be taxed: {:?}",
            obs.ever_top
        );
    }

    #[test]
    fn equal_flows_all_marked_when_saturated() {
        let mut q = qdisc();
        let flows = [(0u32, 0.25), (1, 0.25), (2, 0.25), (3, 0.25)];
        let obs = observe_run(&mut q, Time::from_secs(3), &flows);
        assert!(obs.ever_saturated);
        assert_eq!(
            obs.max_tops_while_saturated, 4,
            "all equal flows are bottlenecked together"
        );
    }

    #[test]
    fn phase_change_back_to_unsaturated() {
        let mut q = qdisc();
        let flows = [(0u32, 0.55), (1, 0.55)];
        let obs = observe_run(&mut q, Time::from_secs(2), &flows);
        assert!(obs.ever_saturated);
        // Load vanishes: next windows must flip back (deterministically,
        // since an idle port is unambiguously unsaturated).
        run_schedule(&mut q, Time::from_secs(4), |_, _, _| {});
        assert!(!q.is_saturated());
        assert_eq!(q.top_flow_count(), 0);
        assert!(q.xstats().phase_changes >= 2);
    }

    #[test]
    fn taxed_flow_is_rate_limited_below_untaxed() {
        // After the CP marks flow 0 bottlenecked, its taxed headq rate must
        // sit below its measured share, with ⊥ receiving the remainder.
        let mut q = qdisc();
        let flows = [(0u32, 0.8), (1, 0.2)];
        let obs = observe_run(&mut q, Time::from_secs(3), &flows);
        assert!(obs.ever_saturated);
        assert!(obs.ever_top.contains(&0));
        let (top_rate, bot_rate) = obs.last_rates.expect("saturated at least once");
        assert!(
            top_rate < 0.85 * RATE as f64 && top_rate > 0.5 * RATE as f64,
            "top rate {top_rate}"
        );
        assert!(
            (top_rate + bot_rate - RATE as f64).abs() < 0.02 * RATE as f64,
            "rates must sum to capacity: {top_rate} + {bot_rate}"
        );
    }

    #[test]
    fn buffer_limit_enforced() {
        let mut q = qdisc();
        let cap_pkts = (q.cfg.buffer.bytes / 1500) as usize;
        let mut accepted = 0;
        for i in 0..cap_pkts + 100 {
            if q.enqueue(pkt(0, i as u64), Time::from_micros(i as u64)).is_ok() {
                accepted += 1;
            }
        }
        assert!(accepted <= cap_pkts + 1);
        assert!(q.stats().drop_pkts >= 99);
    }

    #[test]
    fn dequeue_priority_follows_headq() {
        // Buffer larger than one round of line rate so a burst can spill
        // into the future queue instead of hitting drop-tail first.
        let mut cfg =
            CebinaeConfig::for_link(RATE, BufferConfig::mtus(420), Duration::from_millis(50));
        cfg.buffer = BufferConfig::mtus(1800);
        let mut q = CebinaeQdisc::new(cfg, RATE, 1);
        q.activate(Time::ZERO);
        // Force packets into both queues by bursting over one round's
        // allocation (unsaturated: aggregate filter at line rate).
        let per_round_pkts =
            (RATE as f64 / 8.0 * q.cfg.dt.as_secs_f64() / 1500.0) as usize;
        for i in 0..per_round_pkts + 50 {
            let _ = q.enqueue(pkt(0, i as u64), Time::from_micros(1));
        }
        assert!(
            q.queue_bytes[1 - q.headq] > 0,
            "burst must spill into the future queue"
        );
        // All headq packets come out before any future-queue packet.
        let head_count = q.queues[q.headq].len();
        for _ in 0..head_count {
            q.dequeue(Time::from_micros(2)).unwrap();
        }
        assert_eq!(q.queue_bytes[q.headq], 0);
        assert!(q.dequeue(Time::from_micros(3)).is_some());
    }

    #[test]
    fn ecn_marking_on_future_queue_when_enabled() {
        let mut cfg =
            CebinaeConfig::for_link(RATE, BufferConfig::mtus(420), Duration::from_millis(50));
        cfg.enable_ecn = true;
        cfg.buffer = BufferConfig::mtus(1800);
        let mut q = CebinaeQdisc::new(cfg, RATE, 1);
        q.activate(Time::ZERO);
        let per_round_pkts =
            (RATE as f64 / 8.0 * q.cfg.dt.as_secs_f64() / 1500.0) as usize;
        for i in 0..per_round_pkts + 20 {
            let mut p = pkt(0, i as u64);
            p.ecn = cebinae_net::Ecn::Capable;
            let _ = q.enqueue(p, Time::from_micros(1));
        }
        assert!(q.stats().ecn_marked > 0);
    }

    #[test]
    fn conservation_across_rounds() {
        let mut q = qdisc();
        let flows = [(0u32, 0.7), (1, 0.4)]; // oversubscribed
        run_schedule(&mut q, Time::from_secs(2), offered_load(&flows));
        while q.dequeue(Time::from_secs(3)).is_some() {}
        let s = q.stats();
        assert_eq!(s.enq_pkts, s.tx_pkts);
        assert_eq!(q.byte_len(), 0);
        assert_eq!(q.pkt_len(), 0);
    }

    #[test]
    fn per_flow_top_mode_builds_individual_filters() {
        let mut cfg =
            CebinaeConfig::for_link(RATE, BufferConfig::mtus(420), Duration::from_millis(50));
        cfg.per_flow_top = true;
        cfg.delta_f = 0.5; // group both hogs into ⊤
        let mut q = CebinaeQdisc::new(cfg, RATE, 1);
        q.activate(Time::ZERO);
        let flows = [(0u32, 0.5), (1, 0.4), (2, 0.1)];
        let mut load = offered_load(&flows);
        let mut max_grps = 0;
        let mut consistent = true;
        run_schedule(&mut q, Time::from_secs(3), |q, from, to| {
            load(q, from, to);
            if q.is_saturated() {
                max_grps = max_grps.max(q.top_flow_grps.len());
                consistent &= q.top_flow_grps.len() == q.top_flow_count();
            }
        });
        assert!(max_grps >= 2, "hogs get individual filters: {max_grps}");
        assert!(consistent, "one filter per top flow at all times");
    }
}

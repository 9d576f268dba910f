//! # cebinae-faults
//!
//! Deterministic, composable fault injection for the simulator.
//!
//! The paper evaluates Cebinae's control loop only on clean links; real
//! deployments see bursty loss, reordering, flapping links, and a control
//! plane that occasionally stalls. This crate gives the engine a
//! declarative [`FaultPlan`]: one [`LinkFaultSpec`] — stochastic models
//! (loss, reorder, duplication, corruption) and a scripted timeline
//! (down/up flaps, rate changes) — plus control-plane stall windows that
//! hold Cebinae rotations until the window ends, all applied to every
//! monitored link of the scenario (its bottlenecks).
//!
//! ## Determinism contract
//!
//! Every random decision comes from a [`DetRng`] stream derived from
//! `(seed, link index, fault family)` via [`splitmix64`] — never from the
//! engine's event order, wall clock, or thread count. Each `(link,
//! family)` pair owns a private stream that is advanced only when that
//! family is configured and a packet actually reaches the draw, so:
//!
//! * an **empty plan is inert**: no RNG draws, no scheduled events, no
//!   telemetry scope — runs are byte-identical to a build without the
//!   subsystem;
//! * **composing families is stable**: adding duplication to a plan's
//!   spec does not perturb its loss stream, and faulting link 3 does not
//!   perturb link 5;
//! * results are byte-identical across thread counts and scheduler
//!   backends, so chaos campaigns replay and shrink like any other seed.
//!
//! The engine consumes a plan by resolving it against a concrete topology
//! into a [`FaultsRt`], which answers the three hot-path questions —
//! what happens to this packet ([`FaultsRt::on_enqueue`]), is this link
//! up ([`FaultsRt::is_down`]), and may this control event run
//! ([`FaultsRt::control_verdict`]) — and feeds the `sys:faults`
//! telemetry scope from [`FaultsRt::stats`].

use std::fmt;

use cebinae_net::LinkId;
use cebinae_sim::rng::{splitmix64, DetRng};
use cebinae_sim::{Duration, Time};

/// Salt mixed into the simulation seed when deriving per-link fault
/// streams, so fault randomness is unrelated to every other consumer of
/// the seed (qdiscs, traffic, the fuzzer's generation dimensions).
const FAULT_SEED_SALT: u64 = 0xfa17_ab1e_0000_0001;

/// Salt for [`chaos_plan`]'s intensity draws (distinct from the runtime
/// stream salt: the *shape* of a plan and its *per-packet outcomes* must
/// not share randomness, or changing one would perturb the other).
const CHAOS_SEED_SALT: u64 = 0xc4a0_5b1a_5000_0002;

/// Stochastic loss model for a link.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum LossModel {
    /// No random loss.
    #[default]
    None,
    /// Independent per-packet loss with probability `p`.
    Uniform { p: f64 },
    /// Gilbert–Elliott two-state Markov loss: a *good* state with loss
    /// probability `loss_good` and a *bad* (burst) state with
    /// `loss_bad`; transitions are drawn per packet (`p_enter` good→bad,
    /// `p_exit` bad→good), giving geometrically distributed burst
    /// lengths with mean `1/p_exit` packets.
    GilbertElliott {
        p_enter: f64,
        p_exit: f64,
        loss_good: f64,
        loss_bad: f64,
    },
}

impl LossModel {
    fn is_none(&self) -> bool {
        matches!(self, LossModel::None)
    }
}

/// Bounded-delay reordering: with probability `p` a packet is held back
/// for a uniform delay in `[min_hold, max_hold]` before entering the
/// queue, letting later packets overtake it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReorderSpec {
    pub p: f64,
    pub min_hold: Duration,
    pub max_hold: Duration,
}

/// One scripted event on a link's timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkEventKind {
    /// Link goes down: transmissions stop; queued and newly arriving
    /// packets wait in the qdisc (and overflow per its buffer policy).
    Down,
    /// Link comes back up and resumes draining.
    Up,
    /// Link capacity changes to `bps`.
    Rate(u64),
}

/// A scripted event at an absolute virtual time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkEvent {
    pub at: Time,
    pub kind: LinkEventKind,
}

/// What goes wrong on each link a [`FaultPlan`] applies to.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LinkFaultSpec {
    /// Random loss at enqueue (drawn before every other family; a lost
    /// packet draws nothing else).
    pub loss: LossModel,
    /// Bounded-delay reordering.
    pub reorder: Option<ReorderSpec>,
    /// Probability a packet is duplicated at enqueue.
    pub duplicate: f64,
    /// Probability a packet is corrupted in flight. Corrupted packets
    /// traverse the network normally (they consume queue space and link
    /// capacity) but are discarded at the receiving endpoint with a
    /// telemetry counter — modelling a failed checksum.
    pub corrupt: f64,
    /// Scripted down/up/rate events, sorted by time at resolution.
    pub timeline: Vec<LinkEvent>,
}

impl LinkFaultSpec {
    pub fn is_empty(&self) -> bool {
        self.loss.is_none()
            && self.reorder.is_none()
            && self.duplicate == 0.0
            && self.corrupt == 0.0
            && self.timeline.is_empty()
    }
}

/// A half-open window `[from, until)` of virtual time during which the
/// control plane of a faulted link is stalled: the first control event
/// due inside the window is parked until `until`, later ones are absorbed
/// into it (see [`FaultsRt::control_verdict`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StallWindow {
    pub from: Time,
    pub until: Time,
}

/// A declarative fault plan: what goes wrong and when. One spec and its
/// stall windows, applied to every monitored link. Resolved against a
/// concrete topology into a [`FaultsRt`] by the engine.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Stochastic models and scripted timeline of every monitored link.
    pub link: LinkFaultSpec,
    /// Control-plane stall windows on every monitored link's qdisc.
    pub stalls: Vec<StallWindow>,
}

impl FaultPlan {
    /// True when the plan injects nothing: the engine's inert fast path.
    pub fn is_empty(&self) -> bool {
        self.link.is_empty() && self.stalls.is_empty()
    }

    /// The virtual time by which every *scripted* fault has cleared: the
    /// latest timeline event or stall-window end. `None` when the plan
    /// has no scripted component (purely stochastic plans never
    /// quiesce). Graceful-degradation oracles use this to place their
    /// post-fault recovery window.
    pub fn quiesce_ns(&self) -> Option<u64> {
        let link_max = self.link.timeline.iter().map(|e| e.at.0).max();
        let ctl_max = self.stalls.iter().map(|w| w.until.0).max();
        match (link_max, ctl_max) {
            (None, None) => None,
            (a, b) => Some(a.unwrap_or(0).max(b.unwrap_or(0))),
        }
    }

    /// True when the plan carries stochastic noise that never clears
    /// (loss/reorder/duplication/corruption). Oracles relax their
    /// post-fault recovery checks to plain liveness for such plans.
    pub fn has_persistent_noise(&self) -> bool {
        let s = &self.link;
        !s.loss.is_none() || s.reorder.is_some() || s.duplicate > 0.0 || s.corrupt > 0.0
    }

    /// Parse a compact comma-separated fault spec, the `--faults`
    /// surface and the one way to spell a plan. Each token is
    /// `family[:params]`, with `+`-separated parameters; bare names use
    /// defaults. A spec sets each stochastic family at most once (`loss`
    /// and `burst` are both the loss model), and a family at probability 0
    /// sets no model, so `loss:0` is the empty plan; timeline tokens and
    /// stall windows accumulate. Every number must be finite and
    /// non-negative, a probability at most 1, a rate at least 1 bps, and an
    /// outage or stall at least 1 ms long; the error names the token.
    ///
    /// | token | meaning |
    /// |---|---|
    /// | `loss[:p]` | uniform loss, default `p = 0.01` |
    /// | `burst[:p_bad]` | Gilbert–Elliott bursts, default `p_bad = 0.25` |
    /// | `reorder[:p]` | bounded-delay reordering, default `p = 0.02` |
    /// | `dup[:p]` | duplication, default `p = 0.01` |
    /// | `corrupt[:p]` | corruption (receive drop), default `p = 0.005` |
    /// | `flap[:at_ms+down_ms]` | link down at `at_ms` for `down_ms`, default `500+200` |
    /// | `rate[:at_ms+bps]` | capacity change at `at_ms`, default halves nothing (requires params) |
    /// | `stall[:from_ms+for_ms]` | control-plane stall window, default `400+300` |
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        let mut families: Vec<&str> = Vec::new();
        for token in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let (name, params) = match token.split_once(':') {
                Some((n, p)) => (n, Some(p)),
                None => (token, None),
            };
            // A family holds one setting, so a second one would silently
            // replace the first: refuse it.
            let family = match name {
                "loss" | "burst" => Some("loss"),
                "reorder" | "dup" | "corrupt" => Some(name),
                _ => None,
            };
            if let Some(family) = family {
                if families.contains(&family) {
                    return Err(format!("token {token:?} sets the {family} family a second time"));
                }
                families.push(family);
            }
            let nums: Vec<f64> = match params {
                None => Vec::new(),
                Some(p) => p
                    .split('+')
                    .map(|x| match x.trim().parse::<f64>() {
                        Ok(v) if v.is_finite() && v >= 0.0 => Ok(v),
                        Ok(_) => Err(format!(
                            "{x:?} in token {token:?} is not a finite, non-negative number"
                        )),
                        Err(_) => Err(format!("bad number {x:?} in token {token:?}")),
                    })
                    .collect::<Result<_, _>>()?,
            };
            let p0 = |default: f64| nums.first().copied().unwrap_or(default);
            let prob = |default: f64| match p0(default) {
                p if p <= 1.0 => Ok(p),
                p => Err(format!("probability {p} in token {token:?} is outside [0, 1]")),
            };
            let length = |default: f64| match nums.get(1).copied().unwrap_or(default) {
                ms if ms >= 1.0 => Ok(Duration::from_millis(ms as u64)),
                ms => Err(format!("length {ms} ms in token {token:?} is shorter than 1 ms")),
            };
            let link = &mut plan.link;
            match name {
                "loss" => {
                    let p = prob(0.01)?;
                    if p > 0.0 {
                        link.loss = LossModel::Uniform { p };
                    }
                }
                "burst" => {
                    let loss_bad = prob(0.25)?;
                    if loss_bad > 0.0 {
                        link.loss = LossModel::GilbertElliott {
                            p_enter: 0.01,
                            p_exit: 0.25,
                            loss_good: 0.0,
                            loss_bad,
                        };
                    }
                }
                "reorder" => {
                    let p = prob(0.02)?;
                    if p > 0.0 {
                        link.reorder = Some(ReorderSpec {
                            p,
                            min_hold: Duration::from_micros(500),
                            max_hold: Duration::from_millis(3),
                        });
                    }
                }
                "dup" => link.duplicate = prob(0.01)?,
                "corrupt" => link.corrupt = prob(0.005)?,
                "flap" => {
                    let at = Time::from_millis(p0(500.0) as u64);
                    let down = length(200.0)?;
                    link.timeline.push(LinkEvent { at, kind: LinkEventKind::Down });
                    link.timeline.push(LinkEvent { at: at + down, kind: LinkEventKind::Up });
                }
                "rate" => {
                    let (Some(&at), Some(&bps)) = (nums.first(), nums.get(1)) else {
                        return Err(format!("token {token:?} needs at_ms+bps"));
                    };
                    if bps < 1.0 {
                        return Err(format!("rate {bps} bps in token {token:?} is below 1 bps"));
                    }
                    link.timeline.push(LinkEvent {
                        at: Time::from_millis(at as u64),
                        kind: LinkEventKind::Rate(bps as u64),
                    });
                }
                "stall" => {
                    let from = Time::from_millis(p0(400.0) as u64);
                    plan.stalls.push(StallWindow { from, until: from + length(300.0)? });
                }
                _ => return Err(format!("unknown fault token {name:?}")),
            }
        }
        Ok(plan)
    }
}

/// The named chaos families the fuzzer and the harness's chaos experiment
/// sweep over. Each maps to a seed-parameterized plan via [`chaos_plan`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultFamily {
    Loss,
    Burst,
    Reorder,
    Dup,
    Corrupt,
    Flap,
    Stall,
    Mix,
}

impl FaultFamily {
    pub const ALL: [FaultFamily; 8] = [
        FaultFamily::Loss,
        FaultFamily::Burst,
        FaultFamily::Reorder,
        FaultFamily::Dup,
        FaultFamily::Corrupt,
        FaultFamily::Flap,
        FaultFamily::Stall,
        FaultFamily::Mix,
    ];

    /// Stable lower-case name, the `parse` inverse; used in scenario
    /// descriptions, corpus entries, and `--faults` replay arguments.
    pub fn label(self) -> &'static str {
        match self {
            FaultFamily::Loss => "loss",
            FaultFamily::Burst => "burst",
            FaultFamily::Reorder => "reorder",
            FaultFamily::Dup => "dup",
            FaultFamily::Corrupt => "corrupt",
            FaultFamily::Flap => "flap",
            FaultFamily::Stall => "stall",
            FaultFamily::Mix => "mix",
        }
    }

    pub fn parse(s: &str) -> Option<FaultFamily> {
        let s = s.trim().to_ascii_lowercase();
        FaultFamily::ALL.into_iter().find(|f| f.label() == s)
    }
}

impl fmt::Display for FaultFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Build a seed-parameterized chaos plan for one family, targeting the
/// scenario's bottleneck links.
///
/// Intensities are drawn from a [`DetRng`] keyed by `(seed, family)` —
/// the same seed always yields the same plan. Scripted components are
/// placed as *fractions* of `duration_ms`, so shrinking a failing
/// scenario's duration rescales its fault windows instead of pushing
/// them past the end of the run; windows clear by ~60% of the run,
/// leaving a recovery tail for the graceful-degradation oracles.
pub fn chaos_plan(seed: u64, family: FaultFamily, duration_ms: u64) -> FaultPlan {
    let fam_idx = FaultFamily::ALL.iter().position(|f| *f == family).unwrap_or(0) as u64;
    let mut rng = DetRng::seed_from_u64(splitmix64(seed ^ CHAOS_SEED_SALT ^ (fam_idx << 32)));
    let frac = |rng: &mut DetRng, lo: f64, hi: f64| -> Time {
        Time(Duration::from_millis((duration_ms as f64 * rng.gen_range_f64(lo, hi)) as u64).0)
    };
    let mut plan = FaultPlan::default();
    let spec = &mut plan.link;
    match family {
        FaultFamily::Loss => spec.loss = LossModel::Uniform { p: rng.gen_range_f64(0.002, 0.02) },
        FaultFamily::Burst => {
            spec.loss = LossModel::GilbertElliott {
                p_enter: rng.gen_range_f64(0.005, 0.02),
                p_exit: rng.gen_range_f64(0.15, 0.35),
                loss_good: 0.0,
                loss_bad: rng.gen_range_f64(0.2, 0.5),
            }
        }
        FaultFamily::Reorder => {
            spec.reorder = Some(ReorderSpec {
                p: rng.gen_range_f64(0.01, 0.05),
                min_hold: Duration::from_micros(rng.gen_range_u64(200, 800)),
                max_hold: Duration::from_micros(rng.gen_range_u64(1_000, 3_000)),
            })
        }
        FaultFamily::Dup => spec.duplicate = rng.gen_range_f64(0.005, 0.03),
        FaultFamily::Corrupt => spec.corrupt = rng.gen_range_f64(0.002, 0.01),
        FaultFamily::Flap => {
            let down = frac(&mut rng, 0.30, 0.40);
            let up = Time(down.0 + frac(&mut rng, 0.08, 0.15).0);
            spec.timeline = vec![
                LinkEvent { at: down, kind: LinkEventKind::Down },
                LinkEvent { at: up, kind: LinkEventKind::Up },
            ];
        }
        FaultFamily::Stall => {
            let from = frac(&mut rng, 0.25, 0.35);
            let until = Time(from.0 + frac(&mut rng, 0.15, 0.25).0);
            plan.stalls.push(StallWindow { from, until });
        }
        FaultFamily::Mix => {
            spec.loss = LossModel::GilbertElliott {
                p_enter: rng.gen_range_f64(0.003, 0.01),
                p_exit: rng.gen_range_f64(0.2, 0.4),
                loss_good: 0.0,
                loss_bad: rng.gen_range_f64(0.1, 0.3),
            };
            spec.reorder = Some(ReorderSpec {
                p: rng.gen_range_f64(0.005, 0.02),
                min_hold: Duration::from_micros(200),
                max_hold: Duration::from_micros(rng.gen_range_u64(800, 2_000)),
            });
            let down = frac(&mut rng, 0.30, 0.38);
            let up = Time(down.0 + frac(&mut rng, 0.05, 0.10).0);
            spec.timeline = vec![
                LinkEvent { at: down, kind: LinkEventKind::Down },
                LinkEvent { at: up, kind: LinkEventKind::Up },
            ];
        }
    }
    plan
}

/// What happens to one packet at link enqueue. Field order mirrors the
/// draw order: loss first (a dropped packet draws nothing else), then
/// corruption, duplication, reorder holdback.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnqueueFate {
    pub drop: bool,
    pub corrupt: bool,
    pub duplicate: bool,
    pub hold: Option<Duration>,
}

/// Verdict for one control-plane (rotation) event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ControlVerdict {
    /// Run the recompute now.
    Proceed,
    /// Stalled: the engine re-posts the event at the given time and skips
    /// the recompute for now.
    Park(Time),
    /// A later rotation is already parked for this window; this one is
    /// absorbed into it.
    Swallow,
}

/// Counters for everything the subsystem injected, exported under the
/// `sys:faults` telemetry scope. All monotone.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Packets dropped by the loss models.
    pub injected_drop_pkts: u64,
    /// Bytes dropped by the loss models.
    pub injected_drop_bytes: u64,
    /// Packets marked corrupted at enqueue.
    pub corrupt_pkts: u64,
    /// Corrupted packets discarded at the receiving endpoint.
    pub corrupt_rx_drops: u64,
    /// Duplicate copies injected.
    pub dup_pkts: u64,
    /// Packets held back for reordering.
    pub reorder_held_pkts: u64,
    /// Gilbert–Elliott good→bad transitions (burst onsets).
    pub loss_bursts: u64,
    /// Scripted link-down events applied.
    pub link_down_events: u64,
    /// Scripted link-up events applied.
    pub link_up_events: u64,
    /// Scripted rate changes applied.
    pub rate_changes: u64,
    /// Control events parked until a stall window's end (one per window).
    pub control_delayed: u64,
    /// Control events absorbed into the one already parked for their
    /// window.
    pub control_skipped: u64,
}

/// Per-link stochastic state: one private RNG stream per family, plus the
/// Gilbert–Elliott channel state.
struct LinkRt {
    loss: LossModel,
    reorder: Option<ReorderSpec>,
    duplicate: f64,
    corrupt: f64,
    /// Gilbert–Elliott: currently in the bad (burst) state.
    burst: bool,
    r_loss: DetRng,
    r_corrupt: DetRng,
    r_dup: DetRng,
    r_reorder: DetRng,
    /// Remaining scripted events, earliest last (popped from the back).
    timeline: Vec<LinkEvent>,
    down: bool,
}

/// Per-link control-plane state.
struct ControlRt {
    windows: Vec<StallWindow>,
    /// A rotation is already parked at the current window's end.
    parked: bool,
}

/// A [`FaultPlan`] resolved against a concrete topology: per-link runtime
/// state plus the injection counters. Owned by the simulation.
pub struct FaultsRt {
    links: Vec<Option<LinkRt>>,
    control: Vec<Option<ControlRt>>,
    any: bool,
    stats: FaultStats,
}

impl FaultsRt {
    /// Build the inert runtime for an empty plan — no allocations per
    /// link, every query short-circuits.
    pub fn inert() -> FaultsRt {
        FaultsRt { links: Vec::new(), control: Vec::new(), any: false, stats: FaultStats::default() }
    }

    /// Resolve `plan` onto the `monitored` links of a topology with
    /// `n_links` links. Each faulted link gets family streams seeded from
    /// `(seed, link index)` only, so faulting one link never perturbs
    /// another.
    pub fn resolve(plan: &FaultPlan, n_links: usize, monitored: &[LinkId], seed: u64) -> FaultsRt {
        if plan.is_empty() {
            return FaultsRt::inert();
        }
        // Earliest event last, so applying pops from the back.
        let mut timeline = plan.link.timeline.clone();
        timeline.sort_by_key(|e| e.at);
        timeline.reverse();
        let mut windows = plan.stalls.clone();
        windows.sort_by_key(|w| (w.from, w.until));

        let mut links: Vec<Option<LinkRt>> = (0..n_links).map(|_| None).collect();
        let mut control: Vec<Option<ControlRt>> = (0..n_links).map(|_| None).collect();
        for i in monitored.iter().map(|l| l.index()) {
            if !plan.link.is_empty() {
                // One independent stream per (link, family): seeded from
                // the link index alone, and only ever advanced when its
                // family draws — the composition property.
                let link_seed = splitmix64(seed ^ FAULT_SEED_SALT ^ ((i as u64) << 16));
                let mut root = DetRng::seed_from_u64(link_seed);
                links[i] = Some(LinkRt {
                    loss: plan.link.loss,
                    reorder: plan.link.reorder,
                    duplicate: plan.link.duplicate,
                    corrupt: plan.link.corrupt,
                    burst: false,
                    r_loss: root.fork(),
                    r_corrupt: root.fork(),
                    r_dup: root.fork(),
                    r_reorder: root.fork(),
                    timeline: timeline.clone(),
                    down: false,
                });
            }
            if !windows.is_empty() {
                control[i] = Some(ControlRt { windows: windows.clone(), parked: false });
            }
        }

        let any = links.iter().any(Option::is_some) || control.iter().any(Option::is_some);
        FaultsRt { links, control, any, stats: FaultStats::default() }
    }

    /// True when any link carries fault state — the engine's hot-path
    /// gate. False for the inert runtime.
    #[inline]
    pub fn any(&self) -> bool {
        self.any
    }

    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Count of links currently scripted down (telemetry gauge).
    pub fn links_down(&self) -> usize {
        self.links.iter().flatten().filter(|l| l.down).count()
    }

    /// The `(time, link)` pairs the engine must schedule timeline events
    /// for, in deterministic (link index, time) order.
    pub fn timeline_posts(&self) -> Vec<(Time, LinkId)> {
        let mut posts = Vec::new();
        for (i, rt) in self.links.iter().enumerate() {
            let Some(rt) = rt else { continue };
            // Timeline is stored reversed (earliest last).
            for ev in rt.timeline.iter().rev() {
                posts.push((ev.at, LinkId(i as u32)));
            }
        }
        posts
    }

    /// Apply the next scripted event on `link`'s timeline: flips the down
    /// flag, bumps counters, and returns the kind so the engine can apply
    /// side effects (rate changes, kicking a revived link).
    pub fn next_timeline(&mut self, link: LinkId) -> Option<LinkEventKind> {
        let rt = self.links.get_mut(link.index())?.as_mut()?;
        let ev = rt.timeline.pop()?;
        match ev.kind {
            LinkEventKind::Down => {
                rt.down = true;
                self.stats.link_down_events += 1;
            }
            LinkEventKind::Up => {
                rt.down = false;
                self.stats.link_up_events += 1;
            }
            LinkEventKind::Rate(_) => self.stats.rate_changes += 1,
        }
        Some(ev.kind)
    }

    /// Is `link` currently scripted down?
    #[inline]
    pub fn is_down(&self, link: LinkId) -> bool {
        self.links
            .get(link.index())
            .and_then(Option::as_ref)
            .is_some_and(|l| l.down)
    }

    /// Draw the fate of one packet of `size` bytes entering `link`'s
    /// queue. Draw order is fixed (loss, corrupt, dup, reorder) and each
    /// family's stream advances only when that family is configured, so
    /// composed plans reproduce their single-family outcomes.
    pub fn on_enqueue(&mut self, link: LinkId, size: u32) -> EnqueueFate {
        let mut fate = EnqueueFate::default();
        let Some(rt) = self.links.get_mut(link.index()).and_then(Option::as_mut) else {
            return fate;
        };
        let dropped = match rt.loss {
            LossModel::None => false,
            LossModel::Uniform { p } => rt.r_loss.gen_bool(p),
            LossModel::GilbertElliott { p_enter, p_exit, loss_good, loss_bad } => {
                if rt.burst {
                    if rt.r_loss.gen_bool(p_exit) {
                        rt.burst = false;
                    }
                } else if rt.r_loss.gen_bool(p_enter) {
                    rt.burst = true;
                    self.stats.loss_bursts += 1;
                }
                rt.r_loss.gen_bool(if rt.burst { loss_bad } else { loss_good })
            }
        };
        if dropped {
            self.stats.injected_drop_pkts += 1;
            self.stats.injected_drop_bytes += size as u64;
            fate.drop = true;
            return fate;
        }
        if rt.corrupt > 0.0 && rt.r_corrupt.gen_bool(rt.corrupt) {
            self.stats.corrupt_pkts += 1;
            fate.corrupt = true;
        }
        if rt.duplicate > 0.0 && rt.r_dup.gen_bool(rt.duplicate) {
            self.stats.dup_pkts += 1;
            fate.duplicate = true;
        }
        if let Some(re) = rt.reorder {
            if rt.r_reorder.gen_bool(re.p) {
                let hold = rt.r_reorder.gen_range_u64(re.min_hold.0, re.max_hold.0.max(re.min_hold.0 + 1));
                self.stats.reorder_held_pkts += 1;
                fate.hold = Some(Duration(hold));
            }
        }
        fate
    }

    /// Record a corrupted packet discarded at its receiving endpoint.
    pub fn note_corrupt_rx_drop(&mut self) {
        self.stats.corrupt_rx_drops += 1;
    }

    /// Judge a control-plane (rotation) event due now on `link`. At most
    /// one event is parked per stall window; the parked event fires at
    /// the window's end (`until` is outside the half-open window, so it
    /// proceeds and re-arms normal operation). The qdisc's round clock
    /// advances one dT per control call, so the rounds it missed inside
    /// the window then replay back to back at `until`.
    pub fn control_verdict(&mut self, link: LinkId, now: Time) -> ControlVerdict {
        let Some(rt) = self.control.get_mut(link.index()).and_then(Option::as_mut) else {
            return ControlVerdict::Proceed;
        };
        let Some(w) = rt.windows.iter().find(|w| w.from <= now && now < w.until) else {
            rt.parked = false;
            return ControlVerdict::Proceed;
        };
        if rt.parked {
            self.stats.control_skipped += 1;
            return ControlVerdict::Swallow;
        }
        rt.parked = true;
        self.stats.control_delayed += 1;
        ControlVerdict::Park(w.until)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rates(rt: &mut FaultsRt, link: LinkId, n: usize) -> (usize, usize, usize, usize) {
        let (mut drops, mut corrupt, mut dups, mut holds) = (0, 0, 0, 0);
        for _ in 0..n {
            let f = rt.on_enqueue(link, 1500);
            drops += usize::from(f.drop);
            corrupt += usize::from(f.corrupt);
            dups += usize::from(f.duplicate);
            holds += usize::from(f.hold.is_some());
        }
        (drops, corrupt, dups, holds)
    }

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        let mut rt = FaultsRt::resolve(&plan, 8, &[LinkId(2)], 42);
        assert!(!rt.any());
        assert!(rt.timeline_posts().is_empty());
        assert!(!rt.is_down(LinkId(2)));
        assert_eq!(rt.on_enqueue(LinkId(2), 1500), EnqueueFate::default());
        assert_eq!(rt.control_verdict(LinkId(2), Time(1)), ControlVerdict::Proceed);
        assert_eq!(*rt.stats(), FaultStats::default());
    }

    #[test]
    fn zero_probability_tokens_set_no_model() {
        assert!(FaultPlan::parse("loss:0,reorder:0,dup:0,corrupt:0").unwrap().is_empty());
        assert!(FaultPlan::parse("burst:0").unwrap().is_empty());
        // The family is still taken: a second setting is refused.
        assert!(FaultPlan::parse("loss:0,burst").is_err());
    }

    #[test]
    fn loss_token_hits_near_rate() {
        let plan = FaultPlan::parse("loss:0.1").unwrap();
        let mut rt = FaultsRt::resolve(&plan, 4, &[LinkId(1)], 7);
        assert!(rt.any());
        let (drops, ..) = rates(&mut rt, LinkId(1), 10_000);
        assert!((800..1200).contains(&drops), "drops={drops}");
        assert_eq!(rt.stats().injected_drop_pkts, drops as u64);
        assert_eq!(rt.stats().injected_drop_bytes, 1500 * drops as u64);
    }

    #[test]
    fn gilbert_elliott_losses_cluster_in_bursts() {
        let plan = FaultPlan {
            link: LinkFaultSpec {
                loss: LossModel::GilbertElliott {
                    p_enter: 0.01,
                    p_exit: 0.2,
                    loss_good: 0.0,
                    loss_bad: 0.5,
                },
                ..LinkFaultSpec::default()
            },
            ..FaultPlan::default()
        };
        let mut rt = FaultsRt::resolve(&plan, 1, &[LinkId(0)], 3);
        let mut drops = Vec::new();
        for i in 0..20_000 {
            if rt.on_enqueue(LinkId(0), 100).drop {
                drops.push(i);
            }
        }
        assert!(rt.stats().loss_bursts > 10, "bursts={}", rt.stats().loss_bursts);
        assert!(!drops.is_empty());
        // Burstiness: consecutive-loss gaps of 1-2 packets must be far
        // more common than under independent loss at the same rate.
        let close = drops.windows(2).filter(|w| w[1] - w[0] <= 2).count();
        assert!(
            close * 4 > drops.len(),
            "losses not clustered: {close} close pairs of {}",
            drops.len()
        );
    }

    #[test]
    fn streams_are_isolated_per_family_and_link() {
        // Loss-only plan vs loss+dup plan: identical loss outcomes.
        let base = FaultPlan::parse("loss:0.05").unwrap();
        let mut composed = base.clone();
        composed.link.duplicate = 0.1;
        composed.link.corrupt = 0.02;
        let both = [LinkId(0), LinkId(1)];
        let mut a = FaultsRt::resolve(&base, 2, &both, 99);
        let mut b = FaultsRt::resolve(&composed, 2, &both, 99);
        for _ in 0..5_000 {
            assert_eq!(a.on_enqueue(LinkId(0), 64).drop, b.on_enqueue(LinkId(0), 64).drop);
        }
        // Per-link isolation: link 1's stream is unaffected by how much
        // link 0 has drawn.
        let mut c = FaultsRt::resolve(&base, 2, &both, 99);
        let solo: Vec<bool> = (0..1_000).map(|_| c.on_enqueue(LinkId(1), 64).drop).collect();
        let interleaved: Vec<bool> = (0..1_000).map(|_| a.on_enqueue(LinkId(1), 64).drop).collect();
        assert_eq!(solo, interleaved);
    }

    #[test]
    fn timeline_resolves_in_order_and_flips_down_state() {
        let plan = FaultPlan {
            link: LinkFaultSpec {
                timeline: vec![
                    LinkEvent { at: Time(500), kind: LinkEventKind::Up },
                    LinkEvent { at: Time(100), kind: LinkEventKind::Down },
                    LinkEvent { at: Time(900), kind: LinkEventKind::Rate(1_000) },
                ],
                ..LinkFaultSpec::default()
            },
            ..FaultPlan::default()
        };
        let mut rt = FaultsRt::resolve(&plan, 4, &[LinkId(3)], 0);
        assert_eq!(
            rt.timeline_posts(),
            vec![(Time(100), LinkId(3)), (Time(500), LinkId(3)), (Time(900), LinkId(3))]
        );
        assert!(!rt.is_down(LinkId(3)));
        assert_eq!(rt.next_timeline(LinkId(3)), Some(LinkEventKind::Down));
        assert!(rt.is_down(LinkId(3)));
        assert_eq!(rt.links_down(), 1);
        assert_eq!(rt.next_timeline(LinkId(3)), Some(LinkEventKind::Up));
        assert!(!rt.is_down(LinkId(3)));
        assert_eq!(rt.next_timeline(LinkId(3)), Some(LinkEventKind::Rate(1_000)));
        assert_eq!(rt.next_timeline(LinkId(3)), None);
        let s = rt.stats();
        assert_eq!((s.link_down_events, s.link_up_events, s.rate_changes), (1, 1, 1));
    }

    #[test]
    fn control_window_parks_once_then_swallows() {
        let plan = FaultPlan {
            stalls: vec![StallWindow { from: Time(1_000), until: Time(2_000) }],
            ..FaultPlan::default()
        };
        let mut rt = FaultsRt::resolve(&plan, 1, &[LinkId(0)], 0);
        assert!(rt.any());
        assert_eq!(rt.control_verdict(LinkId(0), Time(500)), ControlVerdict::Proceed);
        assert_eq!(rt.control_verdict(LinkId(0), Time(1_000)), ControlVerdict::Park(Time(2_000)));
        assert_eq!(rt.control_verdict(LinkId(0), Time(1_500)), ControlVerdict::Swallow);
        // The parked event fires at the window end and proceeds.
        assert_eq!(rt.control_verdict(LinkId(0), Time(2_000)), ControlVerdict::Proceed);
        assert_eq!(rt.control_verdict(LinkId(0), Time(2_500)), ControlVerdict::Proceed);
        let s = rt.stats();
        assert_eq!((s.control_delayed, s.control_skipped), (1, 1));
    }

    #[test]
    fn quiesce_and_noise_classification() {
        assert_eq!(FaultPlan::default().quiesce_ns(), None);
        let loss = FaultPlan::parse("loss").unwrap();
        assert_eq!(loss.quiesce_ns(), None);
        assert!(loss.has_persistent_noise());
        let flap = chaos_plan(1, FaultFamily::Flap, 1_000);
        let q = flap.quiesce_ns().expect("flap has a timeline");
        assert!(q <= 1_000 * 1_000_000 * 6 / 10, "flap clears by 60%: {q}");
        assert!(!flap.has_persistent_noise());
        let stall = chaos_plan(1, FaultFamily::Stall, 1_000);
        assert!(stall.quiesce_ns().is_some());
        let mix = chaos_plan(1, FaultFamily::Mix, 1_000);
        assert!(mix.quiesce_ns().is_some());
        assert!(mix.has_persistent_noise());
    }

    #[test]
    fn chaos_plans_are_seed_deterministic_and_duration_scaled() {
        for fam in FaultFamily::ALL {
            let a = chaos_plan(11, fam, 2_000);
            let b = chaos_plan(11, fam, 2_000);
            assert_eq!(a, b, "family {fam} not deterministic");
            assert!(!a.is_empty(), "family {fam} generated an empty plan");
        }
        assert_ne!(chaos_plan(1, FaultFamily::Loss, 1_000), chaos_plan(2, FaultFamily::Loss, 1_000));
        // Halving the duration halves the scripted window positions.
        let long = chaos_plan(4, FaultFamily::Flap, 2_000).quiesce_ns().unwrap();
        let short = chaos_plan(4, FaultFamily::Flap, 1_000).quiesce_ns().unwrap();
        assert!((long / 2).abs_diff(short) <= 1_000_000, "long={long} short={short}");
    }

    #[test]
    fn family_labels_round_trip() {
        for fam in FaultFamily::ALL {
            assert_eq!(FaultFamily::parse(fam.label()), Some(fam));
        }
        assert_eq!(FaultFamily::parse("MIX"), Some(FaultFamily::Mix));
        assert_eq!(FaultFamily::parse("nope"), None);
    }

    #[test]
    fn parse_spec_tokens() {
        let plan = FaultPlan::parse("loss:0.02, dup, flap:100+50, stall:200+100").unwrap();
        assert!(matches!(plan.link.loss, LossModel::Uniform { p } if (p - 0.02).abs() < 1e-12));
        assert_eq!(plan.link.duplicate, 0.01);
        assert_eq!(
            plan.link.timeline,
            vec![
                LinkEvent { at: Time(100_000_000), kind: LinkEventKind::Down },
                LinkEvent { at: Time(150_000_000), kind: LinkEventKind::Up },
            ]
        );
        assert_eq!(
            plan.stalls,
            vec![StallWindow { from: Time(200_000_000), until: Time(300_000_000) }]
        );
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse("gremlins").is_err());
        assert!(FaultPlan::parse("skip:400+300").is_err());
        assert!(FaultPlan::parse("loss:abc").is_err());
        assert!(FaultPlan::parse("rate").is_err());
        assert!(FaultPlan::parse("burst,reorder,corrupt").is_ok());
    }

    #[test]
    fn parse_sets_each_stochastic_family_once() {
        for spec in [
            "loss:0.01,burst:0.3",
            "loss:0.01,loss:0.05",
            "burst,burst",
            "reorder,reorder:0.1",
            "dup,corrupt,dup",
            "corrupt,corrupt",
        ] {
            let err = FaultPlan::parse(spec).unwrap_err();
            assert!(err.contains("second time"), "{spec}: {err}");
        }
        // Timeline tokens and stall windows accumulate.
        let plan = FaultPlan::parse("flap:100+50,flap:300+50,rate:500+1000000,stall,stall:700+10")
            .unwrap();
        assert_eq!((plan.link.timeline.len(), plan.stalls.len()), (5, 2));
        // The ledger's chaos spec sets three families of one spec.
        let chaos = FaultPlan {
            link: LinkFaultSpec {
                loss: LossModel::GilbertElliott {
                    p_enter: 0.01,
                    p_exit: 0.25,
                    loss_good: 0.0,
                    loss_bad: 0.25,
                },
                reorder: Some(ReorderSpec {
                    p: 0.02,
                    min_hold: Duration::from_micros(500),
                    max_hold: Duration::from_millis(3),
                }),
                duplicate: 0.01,
                ..LinkFaultSpec::default()
            },
            ..FaultPlan::default()
        };
        assert_eq!(FaultPlan::parse("burst:0.25,reorder:0.02,dup:0.01"), Ok(chaos));
    }

    #[test]
    fn parse_rejects_out_of_range_numbers() {
        for token in [
            "loss:1.5",
            "burst:2",
            "dup:-0.1",
            "reorder:nan",
            "loss:inf",
            "rate:100+0",
            "rate:100+0.5",
            "flap:500+-200",
            "flap:500+0",
            "flap:-1+200",
            "stall:400+0",
        ] {
            let err = FaultPlan::parse(&format!("corrupt,{token}")).unwrap_err();
            assert!(err.contains(&format!("{token:?}")), "{token}: {err}");
        }
        // The bounds themselves are valid.
        assert!(FaultPlan::parse("loss:0,dup:1,rate:0+1,flap:0+1,stall:0+1").is_ok());
    }

    #[test]
    fn reorder_holds_are_bounded() {
        let plan = FaultPlan {
            link: LinkFaultSpec {
                reorder: Some(ReorderSpec {
                    p: 0.5,
                    min_hold: Duration(1_000),
                    max_hold: Duration(5_000),
                }),
                ..LinkFaultSpec::default()
            },
            ..FaultPlan::default()
        };
        let mut rt = FaultsRt::resolve(&plan, 1, &[LinkId(0)], 13);
        let mut held = 0;
        for _ in 0..2_000 {
            if let Some(h) = rt.on_enqueue(LinkId(0), 64).hold {
                assert!((1_000..=5_000).contains(&h.0), "hold {h:?} out of bounds");
                held += 1;
            }
        }
        assert!((800..1200).contains(&held), "held={held}");
        assert_eq!(rt.stats().reorder_held_pkts, held as u64);
    }
}

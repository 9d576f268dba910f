//! # cebinae-faults
//!
//! Deterministic, composable fault injection for the simulator.
//!
//! The paper evaluates Cebinae's control loop only on clean links; real
//! deployments see bursty loss, reordering, flapping links, and a control
//! plane that occasionally stalls. This crate gives the engine a
//! declarative [`FaultPlan`]:
//! per-link stochastic models (loss, reorder, duplication, corruption),
//! scripted link timelines (down/up flaps, rate changes), and
//! control-plane stall windows that delay or collapse Cebinae rotations.
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
//! * **composing families is stable**: adding duplication to a plan does
//!   not perturb the loss stream, and faulting link 3 does not perturb
//!   link 5;
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

/// Which links a fault spec applies to, resolved against the topology at
/// simulation construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultTarget {
    /// Every link in the topology.
    AllLinks,
    /// Every monitored bottleneck link.
    Bottlenecks,
    /// The `i`-th monitored bottleneck (index into `monitored_links`).
    Bottleneck(usize),
    /// One concrete link.
    Link(LinkId),
}

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

/// The full fault specification for one link (or link set).
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

/// What a control-plane stall does to rotation events inside its window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StallMode {
    /// The recompute is late: the first rotation due inside the window
    /// fires at the window's end.
    Delay,
    /// Rotations due inside the window are collapsed into the single one
    /// that fires at the window's end (the intermediate recomputes are
    /// skipped).
    Skip,
}

/// A half-open window `[from, until)` of virtual time during which the
/// control plane of the targeted link is stalled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StallWindow {
    pub from: Time,
    pub until: Time,
    pub mode: StallMode,
}

/// Control-plane faults for one link's qdisc.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ControlFaultSpec {
    pub windows: Vec<StallWindow>,
}

/// A declarative fault plan: what goes wrong, where, and when. Resolved
/// against a concrete topology into a [`FaultsRt`] by the engine.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Per-target link fault specs. Multiple entries may resolve to the
    /// same link; stochastic families compose first-spec-wins per family,
    /// timelines concatenate.
    pub links: Vec<(FaultTarget, LinkFaultSpec)>,
    /// Per-target control-plane fault specs.
    pub control: Vec<(FaultTarget, ControlFaultSpec)>,
}

impl FaultPlan {
    /// True when the plan injects nothing: the engine's inert fast path.
    pub fn is_empty(&self) -> bool {
        self.links.iter().all(|(_, s)| s.is_empty())
            && self.control.iter().all(|(_, c)| c.windows.is_empty())
    }

    /// Independent uniform loss with probability `p` on every link —
    /// the simplest useful plan.
    pub fn uniform_loss(p: f64) -> FaultPlan {
        if p <= 0.0 {
            return FaultPlan::default();
        }
        FaultPlan {
            links: vec![(
                FaultTarget::AllLinks,
                LinkFaultSpec {
                    loss: LossModel::Uniform { p },
                    ..LinkFaultSpec::default()
                },
            )],
            control: Vec::new(),
        }
    }

    /// Append another plan's specs to this one. Stochastic families
    /// compose first-spec-wins, so an appended spec never overrides an
    /// explicit spec already present for the same family.
    pub fn merge(&mut self, other: FaultPlan) {
        self.links.extend(other.links);
        self.control.extend(other.control);
    }

    /// The virtual time by which every *scripted* fault has cleared: the
    /// latest timeline event or stall-window end. `None` when the plan
    /// has no scripted component (purely stochastic plans never
    /// quiesce). Graceful-degradation oracles use this to place their
    /// post-fault recovery window.
    pub fn quiesce_ns(&self) -> Option<u64> {
        let link_max = self
            .links
            .iter()
            .flat_map(|(_, s)| s.timeline.iter().map(|e| e.at.0))
            .max();
        let ctl_max = self
            .control
            .iter()
            .flat_map(|(_, c)| c.windows.iter().map(|w| w.until.0))
            .max();
        match (link_max, ctl_max) {
            (None, None) => None,
            (a, b) => Some(a.unwrap_or(0).max(b.unwrap_or(0))),
        }
    }

    /// True when the plan carries stochastic noise that never clears
    /// (loss/reorder/duplication/corruption). Oracles relax their
    /// post-fault recovery checks to plain liveness for such plans.
    pub fn has_persistent_noise(&self) -> bool {
        self.links.iter().any(|(_, s)| {
            !s.loss.is_none() || s.reorder.is_some() || s.duplicate > 0.0 || s.corrupt > 0.0
        })
    }

    /// Parse a compact comma-separated fault spec, the `CEBINAE_FAULTS` /
    /// `--faults` surface. Each token is `family[:params]`, with
    /// `+`-separated parameters; bare names use defaults. All stochastic
    /// and scripted tokens target the monitored bottleneck links.
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
    /// | `stall[:from_ms+for_ms]` | delayed rotations in the window, default `400+300` |
    /// | `skip[:from_ms+for_ms]` | skipped rotations in the window, default `400+300` |
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for token in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let (name, params) = match token.split_once(':') {
                Some((n, p)) => (n, Some(p)),
                None => (token, None),
            };
            let nums: Vec<f64> = match params {
                None => Vec::new(),
                Some(p) => p
                    .split('+')
                    .map(|x| {
                        x.trim()
                            .parse::<f64>()
                            .map_err(|_| format!("bad number {x:?} in token {token:?}"))
                    })
                    .collect::<Result<_, _>>()?,
            };
            let p0 = |default: f64| nums.first().copied().unwrap_or(default);
            let mut link_spec = LinkFaultSpec::default();
            match name {
                "loss" => link_spec.loss = LossModel::Uniform { p: p0(0.01) },
                "burst" => {
                    link_spec.loss = LossModel::GilbertElliott {
                        p_enter: 0.01,
                        p_exit: 0.25,
                        loss_good: 0.0,
                        loss_bad: p0(0.25),
                    }
                }
                "reorder" => {
                    link_spec.reorder = Some(ReorderSpec {
                        p: p0(0.02),
                        min_hold: Duration::from_micros(500),
                        max_hold: Duration::from_millis(3),
                    })
                }
                "dup" => link_spec.duplicate = p0(0.01),
                "corrupt" => link_spec.corrupt = p0(0.005),
                "flap" => {
                    let at = Duration::from_millis(p0(500.0) as u64);
                    let down =
                        Duration::from_millis(nums.get(1).copied().unwrap_or(200.0) as u64);
                    link_spec.timeline = vec![
                        LinkEvent { at: Time(at.0), kind: LinkEventKind::Down },
                        LinkEvent { at: Time(at.0 + down.0), kind: LinkEventKind::Up },
                    ];
                }
                "rate" => {
                    let (Some(at), Some(bps)) = (nums.first(), nums.get(1)) else {
                        return Err(format!("token {token:?} needs at_ms+bps"));
                    };
                    link_spec.timeline = vec![LinkEvent {
                        at: Time(Duration::from_millis(*at as u64).0),
                        kind: LinkEventKind::Rate(*bps as u64),
                    }];
                }
                "stall" | "skip" => {
                    let from = Time(Duration::from_millis(p0(400.0) as u64).0);
                    let len =
                        Duration::from_millis(nums.get(1).copied().unwrap_or(300.0) as u64);
                    plan.control.push((
                        FaultTarget::Bottlenecks,
                        ControlFaultSpec {
                            windows: vec![StallWindow {
                                from,
                                until: Time(from.0 + len.0),
                                mode: if name == "stall" {
                                    StallMode::Delay
                                } else {
                                    StallMode::Skip
                                },
                            }],
                        },
                    ));
                    continue;
                }
                _ => return Err(format!("unknown fault token {name:?}")),
            }
            plan.links.push((FaultTarget::Bottlenecks, link_spec));
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
    let mut spec = LinkFaultSpec::default();
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
            let mode = if rng.gen_bool(0.5) { StallMode::Delay } else { StallMode::Skip };
            plan.control.push((
                FaultTarget::Bottlenecks,
                ControlFaultSpec { windows: vec![StallWindow { from, until, mode }] },
            ));
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
    if !spec.is_empty() {
        plan.links.push((FaultTarget::Bottlenecks, spec));
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
    /// Rotations deferred to a stall-window end (Delay mode parks).
    pub control_delayed: u64,
    /// Rotations absorbed into an already-parked one, plus Skip-mode
    /// parks — the recomputes that never ran on schedule.
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

    /// Resolve `plan` against a topology with `n_links` links whose
    /// monitored bottlenecks are `bottlenecks`. Each faulted link gets
    /// family streams seeded from `(seed, link index)` only, so faulting
    /// one link never perturbs another.
    pub fn resolve(plan: &FaultPlan, n_links: usize, bottlenecks: &[LinkId], seed: u64) -> FaultsRt {
        if plan.is_empty() {
            return FaultsRt::inert();
        }
        let expand = |target: FaultTarget| -> Vec<usize> {
            match target {
                FaultTarget::AllLinks => (0..n_links).collect(),
                FaultTarget::Bottlenecks => bottlenecks.iter().map(|l| l.index()).collect(),
                FaultTarget::Bottleneck(i) => {
                    bottlenecks.get(i).map(|l| l.index()).into_iter().collect()
                }
                FaultTarget::Link(l) => {
                    if l.index() < n_links {
                        vec![l.index()]
                    } else {
                        Vec::new()
                    }
                }
            }
        };

        // Merge specs per link: stochastic families compose
        // first-spec-wins, timelines concatenate.
        let mut merged: Vec<Option<LinkFaultSpec>> = vec![None; n_links];
        for (target, spec) in &plan.links {
            if spec.is_empty() {
                continue;
            }
            for i in expand(*target) {
                let slot = merged[i].get_or_insert_with(LinkFaultSpec::default);
                if slot.loss.is_none() {
                    slot.loss = spec.loss;
                }
                if slot.reorder.is_none() {
                    slot.reorder = spec.reorder;
                }
                if slot.duplicate == 0.0 {
                    slot.duplicate = spec.duplicate;
                }
                if slot.corrupt == 0.0 {
                    slot.corrupt = spec.corrupt;
                }
                slot.timeline.extend_from_slice(&spec.timeline);
            }
        }

        let links: Vec<Option<LinkRt>> = merged
            .into_iter()
            .enumerate()
            .map(|(i, spec)| {
                let mut spec = spec?;
                // Earliest event last, so applying pops from the back.
                spec.timeline.sort_by_key(|e| e.at);
                spec.timeline.reverse();
                // One independent stream per (link, family): seeded from
                // the link index alone, and only ever advanced when its
                // family draws — the composition property.
                let link_seed = splitmix64(seed ^ FAULT_SEED_SALT ^ ((i as u64) << 16));
                let mut root = DetRng::seed_from_u64(link_seed);
                Some(LinkRt {
                    loss: spec.loss,
                    reorder: spec.reorder,
                    duplicate: spec.duplicate,
                    corrupt: spec.corrupt,
                    burst: false,
                    r_loss: root.fork(),
                    r_corrupt: root.fork(),
                    r_dup: root.fork(),
                    r_reorder: root.fork(),
                    timeline: spec.timeline,
                    down: false,
                })
            })
            .collect();

        let mut control: Vec<Option<ControlRt>> = (0..n_links).map(|_| None).collect();
        for (target, spec) in &plan.control {
            if spec.windows.is_empty() {
                continue;
            }
            for i in expand(*target) {
                let slot =
                    control[i].get_or_insert_with(|| ControlRt { windows: Vec::new(), parked: false });
                slot.windows.extend_from_slice(&spec.windows);
            }
        }
        for slot in control.iter_mut().flatten() {
            slot.windows.sort_by_key(|w| (w.from, w.until));
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

    /// Does the plan carry any state for `link` — a stochastic model or
    /// timeline on it, or a control-stall window resolved onto it? The
    /// engine serves only untouched links analytically; since every
    /// `(link, family)` stream is private, what happens on those links
    /// cannot perturb a draw on a touched one.
    pub fn touches(&self, link: LinkId) -> bool {
        let i = link.index();
        self.links.get(i).is_some_and(Option::is_some)
            || self.control.get(i).is_some_and(Option::is_some)
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
    /// proceeds and re-arms normal operation).
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
        match w.mode {
            StallMode::Delay => self.stats.control_delayed += 1,
            StallMode::Skip => self.stats.control_skipped += 1,
        }
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
        assert!(FaultPlan::uniform_loss(0.0).is_empty());
        let mut rt = FaultsRt::resolve(&plan, 8, &[LinkId(2)], 42);
        assert!(!rt.any());
        assert!(rt.timeline_posts().is_empty());
        assert!(!rt.is_down(LinkId(2)));
        assert_eq!(rt.on_enqueue(LinkId(2), 1500), EnqueueFate::default());
        assert_eq!(rt.control_verdict(LinkId(2), Time(1)), ControlVerdict::Proceed);
        assert_eq!(*rt.stats(), FaultStats::default());
    }

    #[test]
    fn touches_names_exactly_the_links_a_plan_resolves_onto() {
        let bottlenecks = [LinkId(2), LinkId(5)];
        let touched = |plan: &FaultPlan| -> Vec<u32> {
            let rt = FaultsRt::resolve(plan, 8, &bottlenecks, 42);
            (0..8).filter(|&i| rt.touches(LinkId(i))).collect()
        };
        // An inert plan touches nothing, out-of-range links included.
        assert!(touched(&FaultPlan::default()).is_empty());
        assert!(!FaultsRt::inert().touches(LinkId(99)));
        // `AllLinks` pins everything ...
        assert_eq!(touched(&FaultPlan::uniform_loss(0.1)), (0..8).collect::<Vec<_>>());
        // ... `Bottlenecks` (what `parse` targets) only the monitored set.
        let parsed = FaultPlan::parse("loss:0.02,dup:0.01").expect("valid spec");
        assert_eq!(touched(&parsed), vec![2, 5]);
        // A control stall counts even with no link model beside it.
        let stall = FaultPlan {
            links: Vec::new(),
            control: vec![(
                FaultTarget::Link(LinkId(6)),
                ControlFaultSpec {
                    windows: vec![StallWindow {
                        from: Time(1_000),
                        until: Time(2_000),
                        mode: StallMode::Skip,
                    }],
                },
            )],
        };
        assert_eq!(touched(&stall), vec![6]);
        let mut both = parsed;
        both.merge(stall);
        assert_eq!(touched(&both), vec![2, 5, 6]);
    }

    #[test]
    fn uniform_loss_hits_near_rate() {
        let plan = FaultPlan::uniform_loss(0.1);
        let mut rt = FaultsRt::resolve(&plan, 4, &[], 7);
        assert!(rt.any());
        let (drops, ..) = rates(&mut rt, LinkId(1), 10_000);
        assert!((800..1200).contains(&drops), "drops={drops}");
        assert_eq!(rt.stats().injected_drop_pkts, drops as u64);
        assert_eq!(rt.stats().injected_drop_bytes, 1500 * drops as u64);
    }

    #[test]
    fn gilbert_elliott_losses_cluster_in_bursts() {
        let plan = FaultPlan {
            links: vec![(
                FaultTarget::AllLinks,
                LinkFaultSpec {
                    loss: LossModel::GilbertElliott {
                        p_enter: 0.01,
                        p_exit: 0.2,
                        loss_good: 0.0,
                        loss_bad: 0.5,
                    },
                    ..LinkFaultSpec::default()
                },
            )],
            control: Vec::new(),
        };
        let mut rt = FaultsRt::resolve(&plan, 1, &[], 3);
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
        let base = FaultPlan::uniform_loss(0.05);
        let mut composed = base.clone();
        composed.links[0].1.duplicate = 0.1;
        composed.links[0].1.corrupt = 0.02;
        let mut a = FaultsRt::resolve(&base, 2, &[], 99);
        let mut b = FaultsRt::resolve(&composed, 2, &[], 99);
        for _ in 0..5_000 {
            assert_eq!(a.on_enqueue(LinkId(0), 64).drop, b.on_enqueue(LinkId(0), 64).drop);
        }
        // Per-link isolation: link 1's stream is unaffected by how much
        // link 0 has drawn.
        let mut c = FaultsRt::resolve(&base, 2, &[], 99);
        let solo: Vec<bool> = (0..1_000).map(|_| c.on_enqueue(LinkId(1), 64).drop).collect();
        let interleaved: Vec<bool> = (0..1_000).map(|_| a.on_enqueue(LinkId(1), 64).drop).collect();
        assert_eq!(solo, interleaved);
    }

    #[test]
    fn timeline_resolves_in_order_and_flips_down_state() {
        let plan = FaultPlan {
            links: vec![(
                FaultTarget::Bottleneck(0),
                LinkFaultSpec {
                    timeline: vec![
                        LinkEvent { at: Time(500), kind: LinkEventKind::Up },
                        LinkEvent { at: Time(100), kind: LinkEventKind::Down },
                        LinkEvent { at: Time(900), kind: LinkEventKind::Rate(1_000) },
                    ],
                    ..LinkFaultSpec::default()
                },
            )],
            control: Vec::new(),
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
            links: Vec::new(),
            control: vec![(
                FaultTarget::AllLinks,
                ControlFaultSpec {
                    windows: vec![StallWindow {
                        from: Time(1_000),
                        until: Time(2_000),
                        mode: StallMode::Delay,
                    }],
                },
            )],
        };
        let mut rt = FaultsRt::resolve(&plan, 1, &[], 0);
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
    fn merge_shim_never_overrides_explicit_spec() {
        let mut plan = FaultPlan::uniform_loss(0.2);
        plan.merge(FaultPlan::uniform_loss(0.9));
        let mut rt = FaultsRt::resolve(&plan, 1, &[], 5);
        let (drops, ..) = rates(&mut rt, LinkId(0), 10_000);
        assert!((1700..2300).contains(&drops), "first-spec-wins violated: drops={drops}");
    }

    #[test]
    fn quiesce_and_noise_classification() {
        assert_eq!(FaultPlan::default().quiesce_ns(), None);
        let loss = FaultPlan::uniform_loss(0.01);
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
        assert_eq!(plan.links.len(), 3);
        assert_eq!(plan.control.len(), 1);
        assert!(matches!(plan.links[0].1.loss, LossModel::Uniform { p } if (p - 0.02).abs() < 1e-12));
        assert_eq!(plan.links[1].1.duplicate, 0.01);
        assert_eq!(
            plan.links[2].1.timeline,
            vec![
                LinkEvent { at: Time(100_000_000), kind: LinkEventKind::Down },
                LinkEvent { at: Time(150_000_000), kind: LinkEventKind::Up },
            ]
        );
        assert_eq!(
            plan.control[0].1.windows,
            vec![StallWindow {
                from: Time(200_000_000),
                until: Time(300_000_000),
                mode: StallMode::Delay,
            }]
        );
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse("gremlins").is_err());
        assert!(FaultPlan::parse("loss:abc").is_err());
        assert!(FaultPlan::parse("rate").is_err());
        assert!(FaultPlan::parse("burst,reorder,corrupt,skip").is_ok());
    }

    #[test]
    fn reorder_holds_are_bounded() {
        let plan = FaultPlan {
            links: vec![(
                FaultTarget::AllLinks,
                LinkFaultSpec {
                    reorder: Some(ReorderSpec {
                        p: 0.5,
                        min_hold: Duration(1_000),
                        max_hold: Duration(5_000),
                    }),
                    ..LinkFaultSpec::default()
                },
            )],
            control: Vec::new(),
        };
        let mut rt = FaultsRt::resolve(&plan, 1, &[], 13);
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

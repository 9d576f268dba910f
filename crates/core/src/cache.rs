//! The passive heavy-hitter flow cache (§4.2).
//!
//! Cebinae adapts HashPipe (Sivaraman et al., SOSR 2017) but removes all
//! in-data-plane eviction: a packet hashes into each stage in turn and
//! either claims an empty slot, increments its own slot, or — if every
//! stage's slot is held by another flow — goes *uncounted*. The control
//! plane polls and resets the whole structure every `dT`, so every active
//! flow gets a fresh chance to claim a slot each round; heavy hitters win
//! slots with high probability simply because they send the most packets.
//!
//! Properties the paper relies on (and our tests check):
//!
//! * **No false positives by construction**: keys are exact, so a counted
//!   flow's bytes are never inflated by another flow's traffic. (A *set*
//!   false positive can still occur at the classification layer when
//!   `c_max` is underestimated; Figure 13 measures that.)
//! * **False negatives from collisions only**, decreasing with more
//!   stages/slots (Figure 13b).

use cebinae_net::FlowId;
use cebinae_sim::rng::splitmix64;

/// One cache slot: an exact flow key plus a byte counter.
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    key: Option<FlowId>,
    bytes: u64,
}

/// Multi-stage hash-mapped flow table with passive (poll-and-reset) memory
/// management.
pub struct HeavyHitterCache {
    stages: Vec<Vec<Slot>>,
    seeds: Vec<u64>,
    slots_per_stage: usize,
    /// Bytes that found no slot this interval (diagnostic).
    uncounted_bytes: u64,
    /// Number of distinct flows currently holding a slot.
    occupied: usize,
}

impl HeavyHitterCache {
    /// `stages` tables of `slots` entries each. `seed` diversifies the
    /// per-stage hash functions (and differs per port in practice).
    pub fn new(stages: usize, slots: usize, seed: u64) -> HeavyHitterCache {
        assert!(stages > 0 && slots > 0);
        HeavyHitterCache {
            stages: vec![vec![Slot::default(); slots]; stages],
            seeds: (0..stages as u64)
                .map(|i| splitmix64(seed ^ splitmix64(i + 1)))
                .collect(),
            slots_per_stage: slots,
            uncounted_bytes: 0,
            occupied: 0,
        }
    }

    #[inline]
    fn index(&self, stage: usize, flow: FlowId) -> usize {
        // det-ok: stage ranges over 0..stages.len(), and seeds has one entry per stage by construction in new()
        (splitmix64(flow.0 as u64 ^ self.seeds[stage]) % self.slots_per_stage as u64) as usize
    }

    /// Record `bytes` for `flow` (data-plane per-packet path).
    pub fn update(&mut self, flow: FlowId, bytes: u64) {
        for stage in 0..self.stages.len() {
            let idx = self.index(stage, flow);
            // det-ok: stage < stages.len() by the loop bound, idx < slots_per_stage by the modulo in index()
            let slot = &mut self.stages[stage][idx];
            match slot.key {
                None => {
                    slot.key = Some(flow);
                    slot.bytes = bytes;
                    self.occupied += 1;
                    return;
                }
                Some(k) if k == flow => {
                    slot.bytes += bytes;
                    return;
                }
                Some(_) => {} // occupied by another flow; try next stage
            }
        }
        self.uncounted_bytes = self.uncounted_bytes.saturating_add(bytes);
    }

    /// Control-plane poll: return all (flow, bytes) entries and reset the
    /// structure (the paper's per-dT serializable poll+reset).
    pub fn poll_and_reset(&mut self) -> Vec<(FlowId, u64)> {
        let mut out = Vec::with_capacity(self.occupied);
        for stage in &mut self.stages {
            for slot in stage.iter_mut() {
                if let Some(k) = slot.key.take() {
                    out.push((k, slot.bytes));
                    slot.bytes = 0;
                }
            }
        }
        self.occupied = 0;
        self.uncounted_bytes = 0;
        out
    }

    /// Bytes whose flows found no slot since the last reset.
    pub fn uncounted_bytes(&self) -> u64 {
        self.uncounted_bytes
    }

    /// Occupied slots (diagnostic).
    pub fn occupied(&self) -> usize {
        self.occupied
    }

    pub fn slots_per_stage(&self) -> usize {
        self.slots_per_stage
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_are_exact_per_flow() {
        let mut c = HeavyHitterCache::new(2, 64, 42);
        c.update(FlowId(1), 100);
        c.update(FlowId(1), 50);
        c.update(FlowId(2), 7);
        let mut entries = c.poll_and_reset();
        entries.sort();
        assert_eq!(entries, vec![(FlowId(1), 150), (FlowId(2), 7)]);
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = HeavyHitterCache::new(2, 64, 42);
        c.update(FlowId(1), 100);
        assert_eq!(c.occupied(), 1);
        c.poll_and_reset();
        assert_eq!(c.occupied(), 0);
        assert!(c.poll_and_reset().is_empty());
    }

    #[test]
    fn collision_overflow_goes_uncounted_never_miscounted() {
        // 1 stage, 1 slot: second flow cannot be counted.
        let mut c = HeavyHitterCache::new(1, 1, 7);
        c.update(FlowId(1), 100);
        c.update(FlowId(2), 999);
        assert_eq!(c.uncounted_bytes(), 999);
        let entries = c.poll_and_reset();
        assert_eq!(entries, vec![(FlowId(1), 100)], "no false positives");
    }

    #[test]
    fn second_stage_rescues_collisions() {
        // Find two flows that collide in stage 0 of a 2-stage cache; the
        // second must land in stage 1 and still be counted.
        let c = HeavyHitterCache::new(2, 8, 1);
        let f0 = FlowId(0);
        let target = c.index(0, f0);
        let mut other = None;
        for i in 1..10_000u32 {
            if c.index(0, FlowId(i)) == target {
                other = Some(FlowId(i));
                break;
            }
        }
        let other = other.expect("collision exists in a small table");
        let mut c = HeavyHitterCache::new(2, 8, 1);
        c.update(f0, 10);
        c.update(other, 20);
        let mut entries = c.poll_and_reset();
        entries.sort();
        assert_eq!(entries.len(), 2, "stage 2 must absorb the collision");
        assert!(entries.contains(&(f0, 10)));
        assert!(entries.contains(&(other, 20)));
    }

    #[test]
    fn heavy_hitter_survives_competition() {
        // One heavy flow (many packets) among many mice: across repeated
        // poll/reset intervals the heavy flow is counted in (nearly) every
        // interval because it re-claims a slot fast.
        let mut c = HeavyHitterCache::new(2, 32, 99);
        let heavy = FlowId(1_000_000);
        let mut found = 0;
        for interval in 0..100 {
            // The heavy flow's packets are interleaved among the mice (it
            // sends the most packets, so it appears early in every
            // interval — the property passive eviction relies on).
            for m in 0..64u32 {
                c.update(FlowId(interval * 64 + m), 1500);
                c.update(heavy, 1500);
            }
            let entries = c.poll_and_reset();
            if entries.iter().any(|&(f, b)| f == heavy && b >= 60 * 1500) {
                found += 1;
            }
        }
        assert!(found >= 95, "heavy hitter counted in {found}/100 intervals");
    }

    #[test]
    fn deterministic_across_instances_with_same_seed() {
        let mut a = HeavyHitterCache::new(4, 128, 5);
        let mut b = HeavyHitterCache::new(4, 128, 5);
        for i in 0..500u32 {
            a.update(FlowId(i % 37), 10);
            b.update(FlowId(i % 37), 10);
        }
        let mut ea = a.poll_and_reset();
        let mut eb = b.poll_and_reset();
        ea.sort();
        eb.sort();
        assert_eq!(ea, eb);
    }

    #[test]
    fn never_overcounts_any_flow() {
        // Property (checked exhaustively-ish): for arbitrary interleavings,
        // a polled count never exceeds the flow's true bytes, and total
        // counted + uncounted == total offered.
        for trial in 0..50u64 {
            let mut cache = HeavyHitterCache::new(2, 16, trial);
            let mut truth: std::collections::HashMap<u32, u64> = Default::default();
            let mut offered = 0u64;
            let mut x = trial;
            for _ in 0..500 {
                x = cebinae_sim::rng::splitmix64(x);
                let flow = (x % 40) as u32;
                let bytes = 100 + (x >> 8) % 1400;
                cache.update(FlowId(flow), bytes);
                *truth.entry(flow).or_insert(0) += bytes;
                offered += bytes;
            }
            let uncounted = cache.uncounted_bytes();
            let entries = cache.poll_and_reset();
            let mut counted = 0u64;
            for (f, b) in entries {
                assert!(
                    b <= truth[&f.0],
                    "trial {trial}: flow {f} counted {b} > true {}",
                    truth[&f.0]
                );
                counted += b;
            }
            assert_eq!(counted + uncounted, offered, "trial {trial}");
        }
    }

    #[test]
    fn different_seeds_give_different_layouts() {
        let a = HeavyHitterCache::new(1, 1024, 1);
        let b = HeavyHitterCache::new(1, 1024, 2);
        let differs = (0..100u32).any(|i| a.index(0, FlowId(i)) != b.index(0, FlowId(i)));
        assert!(differs);
    }
}

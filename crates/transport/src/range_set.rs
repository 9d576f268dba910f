//! A set of bytes in sequence space, kept as disjoint half-open ranges.
//!
//! Both endpoints need one: the sender's scoreboard remembers which bytes
//! above `snd_una` it already counted as delivered at SACK time, and the
//! receiver buffers what arrived out of order. Ranges that overlap *or
//! touch* are merged on insert, so two stored ranges are always separated
//! by at least one missing byte and every operation costs O(log ranges)
//! plus the ranges it removes.

use std::collections::BTreeMap;

#[derive(Debug, Default)]
pub(crate) struct RangeSet {
    /// start -> end (exclusive).
    ranges: BTreeMap<u64, u64>,
}

impl RangeSet {
    /// Insert `[start, end)`; returns the number of bytes not previously
    /// present. An empty or inverted range inserts nothing.
    pub(crate) fn insert(&mut self, start: u64, end: u64) -> u64 {
        if start >= end {
            return 0;
        }
        // Ranges are disjoint, so the ones that overlap or touch
        // `[start, end]` are the last few that begin at or below `end`.
        let (mut merged_start, mut merged_end, mut covered) = (start, end, 0);
        while let Some((&s, &e)) = self.ranges.range(..=end).next_back() {
            if e < start {
                break;
            }
            self.ranges.remove(&s);
            covered += e.min(end) - s.max(start);
            merged_start = merged_start.min(s);
            merged_end = merged_end.max(e);
        }
        self.ranges.insert(merged_start, merged_end);
        (end - start) - covered
    }

    /// Bytes of `[start, end)` already present.
    pub(crate) fn overlap(&self, start: u64, end: u64) -> u64 {
        self.ranges
            .range(..end)
            .rev()
            .take_while(|(_, &e)| e > start)
            .map(|(&s, &e)| e.min(end) - s.max(start))
            .sum()
    }

    /// Remove every range that begins at or below `upto`; returns the
    /// furthest end among them, or `upto` if none reaches past it. (At most
    /// one can: the next range begins beyond that one's end.)
    pub(crate) fn take_through(&mut self, upto: u64) -> u64 {
        let mut reach = upto;
        while let Some(entry) = self.ranges.first_entry() {
            if *entry.key() > upto {
                break;
            }
            reach = reach.max(entry.remove());
        }
        reach
    }

    /// Drop every byte below `upto`.
    pub(crate) fn prune(&mut self, upto: u64) {
        let reach = self.take_through(upto);
        if reach > upto {
            self.ranges.insert(upto, reach);
        }
    }

    /// The range holding byte `seq`, if it is present.
    pub(crate) fn containing(&self, seq: u64) -> Option<(u64, u64)> {
        let (&s, &e) = self.ranges.range(..=seq).next_back()?;
        (seq < e).then_some((s, e))
    }

    /// The ranges in ascending order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.ranges.iter().map(|(&s, &e)| (s, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cebinae_sim::rng::DetRng;

    fn ranges(r: &RangeSet) -> Vec<(u64, u64)> {
        r.iter().collect()
    }

    #[test]
    fn insert_dedups_and_merges() {
        let mut r = RangeSet::default();
        assert_eq!(r.insert(0, 100), 100);
        assert_eq!(r.insert(0, 100), 0, "exact duplicate");
        assert_eq!(r.insert(50, 150), 50, "half overlap");
        assert_eq!(r.insert(200, 300), 100, "disjoint");
        assert_eq!(r.overlap(0, 400), 250);
        // Merge across: [150,200) bridges the two ranges.
        assert_eq!(r.insert(100, 250), 50);
        assert_eq!(ranges(&r), [(0, 300)]);
        assert_eq!(r.overlap(0, 400), 300);
        // Touching ranges merge; ones further down are left alone.
        assert_eq!(r.insert(400, 500), 100);
        assert_eq!(ranges(&r), [(0, 300), (400, 500)]);
        assert_eq!(r.insert(300, 400), 100);
        assert_eq!(ranges(&r), [(0, 500)]);
        assert_eq!(r.overlap(250, 450), 200);
        // Empty and inverted input is ignored.
        assert_eq!((r.insert(700, 700), r.insert(900, 800)), (0, 0));
        assert_eq!(ranges(&r), [(0, 500)]);
    }

    #[test]
    fn prune_truncates_and_take_through_absorbs() {
        let mut r = RangeSet::default();
        r.insert(0, 100);
        r.insert(200, 300);
        r.prune(250);
        assert_eq!(ranges(&r), [(250, 300)]);
        assert_eq!(r.overlap(0, 1000), 50);
        r.prune(1000);
        assert_eq!(r.overlap(0, u64::MAX / 2), 0);

        // What the receiver does when a hole is filled up to 250: the
        // buffered range that begins there is delivered with it.
        r.insert(100, 200);
        r.insert(250, 300);
        r.insert(400, 500);
        assert_eq!(r.take_through(250), 300);
        assert_eq!(ranges(&r), [(400, 500)]);
        assert_eq!(r.take_through(399), 399, "a gap of one byte still separates");
        assert_eq!(r.containing(450), Some((400, 500)));
        assert_eq!((r.containing(399), r.containing(500)), (None, None));
    }

    /// Every operation against a one-bool-per-byte bitmap.
    #[test]
    fn matches_a_bitmap_model() {
        const SPACE: u64 = 96;
        for case in 0..64u64 {
            let mut rng = DetRng::seed_from_u64(0x4a5e_0000 + case);
            let mut r = RangeSet::default();
            let mut bits = vec![false; SPACE as usize];
            let count = |bits: &[bool], a: u64, b: u64| -> u64 {
                (a..b.max(a)).filter(|&i| bits[i as usize]).count() as u64
            };
            // The last insert's end, so the next can begin exactly there.
            let mut last_end = 0;
            for step in 0..200 {
                let a = if rng.gen_bool(0.25) { last_end } else { rng.gen_range_u64(0, SPACE) };
                // Mostly short ranges; one in ten is empty or inverted.
                let b = if rng.gen_bool(0.1) {
                    rng.gen_range_u64(0, a + 1)
                } else {
                    (a + rng.gen_range_u64(1, 12)).min(SPACE)
                };
                match rng.gen_range_u64(0, 10) {
                    0..=5 => {
                        let fresh = r.insert(a, b);
                        assert_eq!(fresh, (b.max(a) - a) - count(&bits, a, b), "case {case} step {step}");
                        bits[a as usize..b.max(a) as usize].fill(true);
                        last_end = b.max(a) % SPACE;
                    }
                    6 => {
                        r.prune(a);
                        bits[..a as usize].fill(false);
                    }
                    7 => {
                        let run = (a..SPACE).take_while(|&i| bits[i as usize]).count() as u64;
                        assert_eq!(r.take_through(a), a + run, "case {case} step {step}");
                        bits[..(a + run) as usize].fill(false);
                    }
                    _ => {}
                }
                assert_eq!(r.overlap(a, b.max(a)), count(&bits, a, b), "case {case} step {step}");
                // Iteration is the bitmap's maximal runs, in order: sorted,
                // disjoint, and never touching.
                let mut runs = Vec::new();
                let mut i = 0;
                while i < SPACE {
                    let len = (i..SPACE).take_while(|&j| bits[j as usize]).count() as u64;
                    if len > 0 {
                        runs.push((i, i + len));
                    }
                    i += len.max(1);
                }
                assert_eq!(ranges(&r), runs, "case {case} step {step}");
                let inside = runs.iter().copied().find(|&(s, e)| (s..e).contains(&a));
                assert_eq!(r.containing(a), inside, "case {case} step {step}");
            }
        }
    }
}

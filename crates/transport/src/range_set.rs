//! A set of bytes in sequence space, kept as disjoint half-open ranges.
//!
//! Both endpoints need one: the sender's scoreboard remembers which bytes
//! above `snd_una` it already counted as delivered at SACK time, and the
//! receiver buffers what arrived out of order. Ranges that overlap *or
//! touch* are merged on insert, so two stored ranges are always separated
//! by at least one missing byte.
//!
//! The ranges sit in one sorted vector, one per hole in a flight: a
//! handful for most flows, a few thousand for a BBR flow in heavy loss. At
//! either size a binary search plus a memmove of contiguous pairs beats
//! walking B-tree nodes, and the buffer keeps its capacity across loss
//! episodes instead of allocating and freeing a leaf for each.

#[derive(Debug, Default)]
pub(crate) struct RangeSet {
    /// `(start, end)` pairs, `end` exclusive, sorted and never touching.
    ranges: Vec<(u64, u64)>,
}

impl RangeSet {
    /// Insert `[start, end)`; returns the number of bytes not previously
    /// present. An empty or inverted range inserts nothing.
    pub(crate) fn insert(&mut self, start: u64, end: u64) -> u64 {
        if start >= end {
            return 0;
        }
        // Ranges `lo..hi` overlap or touch `[start, end]`: the first that
        // ends at or after `start` up to the last that begins at or below
        // `end`.
        let lo = self.ranges.partition_point(|&(_, e)| e < start);
        let hi = lo + self.ranges[lo..].partition_point(|&(s, _)| s <= end);
        if lo == hi {
            self.ranges.insert(lo, (start, end));
            return end - start;
        }
        let covered: u64 = self.ranges[lo..hi].iter().map(|&(s, e)| e.min(end) - s.max(start)).sum();
        self.ranges[lo] = (self.ranges[lo].0.min(start), self.ranges[hi - 1].1.max(end));
        self.ranges.drain(lo + 1..hi);
        (end - start) - covered
    }

    /// Bytes of `[start, end)` already present.
    pub(crate) fn overlap(&self, start: u64, end: u64) -> u64 {
        let lo = self.ranges.partition_point(|&(_, e)| e <= start);
        self.ranges[lo..]
            .iter()
            .take_while(|&&(s, _)| s < end)
            .map(|&(s, e)| e.min(end) - s.max(start))
            .sum()
    }

    /// Remove every range that begins at or below `upto`; returns the
    /// furthest end among them, or `upto` if none reaches past it. (At most
    /// one can: the next range begins beyond that one's end.)
    pub(crate) fn take_through(&mut self, upto: u64) -> u64 {
        let n = self.ranges.partition_point(|&(s, _)| s <= upto);
        let reach = match n {
            0 => upto,
            n => upto.max(self.ranges[n - 1].1),
        };
        self.ranges.drain(..n);
        reach
    }

    /// Drop every byte below `upto`.
    pub(crate) fn prune(&mut self, upto: u64) {
        let reach = self.take_through(upto);
        if reach > upto {
            self.ranges.insert(0, (upto, reach));
        }
    }

    /// The range holding byte `seq`, if it is present.
    pub(crate) fn containing(&self, seq: u64) -> Option<(u64, u64)> {
        let i = self.ranges.partition_point(|&(_, e)| e <= seq);
        self.ranges.get(i).copied().filter(|&(s, _)| s <= seq)
    }

    /// The ranges in ascending order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.ranges.iter().copied()
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

    /// One operation on a [`RangeSet`] and on a one-bool-per-byte bitmap.
    #[derive(Clone, Copy)]
    enum Op {
        Insert,
        Prune,
        TakeThrough,
        Probe,
    }

    /// Apply `op` at `[a, b)` to both, then check every query against the
    /// bitmap: the op's own result, `overlap(a, b)`, `containing(a)`, and
    /// that iteration yields the bitmap's maximal runs in order (sorted,
    /// disjoint, and never touching).
    fn step(r: &mut RangeSet, bits: &mut [bool], op: Op, a: u64, b: u64, at: &str) {
        let space = bits.len() as u64;
        let count = |bits: &[bool], a: u64, b: u64| -> u64 {
            (a..b.max(a)).filter(|&i| bits[i as usize]).count() as u64
        };
        match op {
            Op::Insert => {
                let fresh = r.insert(a, b);
                assert_eq!(fresh, (b.max(a) - a) - count(bits, a, b), "{at}");
                bits[a as usize..b.max(a) as usize].fill(true);
            }
            Op::Prune => {
                r.prune(a);
                bits[..a as usize].fill(false);
            }
            Op::TakeThrough => {
                let run = (a..space).take_while(|&i| bits[i as usize]).count() as u64;
                assert_eq!(r.take_through(a), a + run, "{at}");
                bits[..(a + run) as usize].fill(false);
            }
            Op::Probe => {}
        }
        assert_eq!(r.overlap(a, b.max(a)), count(bits, a, b), "{at}");
        let mut runs = Vec::new();
        let mut i = 0;
        while i < space {
            let len = (i..space).take_while(|&j| bits[j as usize]).count() as u64;
            if len > 0 {
                runs.push((i, i + len));
            }
            i += len.max(1);
        }
        assert_eq!(ranges(r), runs, "{at}");
        let inside = runs.iter().copied().find(|&(s, e)| (s..e).contains(&a));
        assert_eq!(r.containing(a), inside, "{at}");
    }

    /// Every operation against a one-bool-per-byte bitmap: first in a
    /// narrow space where ranges come and go a few at a time, then in a
    /// wide one fragmented into hundreds of live ranges, where inserts
    /// bridge hundreds of them at once and prefixes take hundreds away.
    #[test]
    fn matches_a_bitmap_model() {
        const SPACE: u64 = 96;
        for case in 0..64u64 {
            let mut rng = DetRng::seed_from_u64(0x4a5e_0000 + case);
            let mut r = RangeSet::default();
            let mut bits = vec![false; SPACE as usize];
            // The last insert's end, so the next can begin exactly there.
            let mut last_end = 0;
            for step_no in 0..200 {
                let a = if rng.gen_bool(0.25) { last_end } else { rng.gen_range_u64(0, SPACE) };
                // Mostly short ranges; one in ten is empty or inverted.
                let b = if rng.gen_bool(0.1) {
                    rng.gen_range_u64(0, a + 1)
                } else {
                    (a + rng.gen_range_u64(1, 12)).min(SPACE)
                };
                let op = match rng.gen_range_u64(0, 10) {
                    0..=5 => {
                        last_end = b.max(a) % SPACE;
                        Op::Insert
                    }
                    6 => Op::Prune,
                    7 => Op::TakeThrough,
                    _ => Op::Probe,
                };
                step(&mut r, &mut bits, op, a, b, &format!("case {case} step {step_no}"));
            }
        }

        const WIDE: u64 = 4096;
        for case in 0..8u64 {
            let mut rng = DetRng::seed_from_u64(0x4a5e_1000 + case);
            let mut r = RangeSet::default();
            let mut bits = vec![false; WIDE as usize];
            for round in 0..4 {
                // Fragment: runs of 1..=6 bytes behind holes of 1-2 bytes,
                // inserted in random order so most land between others.
                let mut frags = Vec::new();
                let mut p = rng.gen_range_u64(0, 3);
                while p < WIDE {
                    let len = rng.gen_range_u64(1, 7).min(WIDE - p);
                    frags.push((p, p + len));
                    p += len + rng.gen_range_u64(1, 3);
                }
                for i in (1..frags.len()).rev() {
                    frags.swap(i, rng.gen_range_usize(0, i + 1));
                }
                for (i, &(a, b)) in frags.iter().enumerate() {
                    step(&mut r, &mut bits, Op::Insert, a, b, &format!("wide {case}/{round} frag {i}"));
                }
                if round == 0 {
                    let live = r.iter().count();
                    assert!(live >= 500, "wide {case}: only {live} ranges live");
                }
                for step_no in 0..24 {
                    let a = rng.gen_range_u64(0, WIDE);
                    let (op, b) = match rng.gen_range_u64(0, 8) {
                        // Bridges: 200..2000 bytes span 40..400 ranges.
                        0..=2 => (Op::Insert, (a + rng.gen_range_u64(200, 2000)).min(WIDE)),
                        // Fills one hole, merging its two neighbours.
                        3 => (Op::Insert, (a + rng.gen_range_u64(1, 3)).min(WIDE)),
                        4 => (Op::TakeThrough, a),
                        5 => (Op::Prune, a),
                        _ => (Op::Probe, (a + rng.gen_range_u64(1, 1000)).min(WIDE)),
                    };
                    step(&mut r, &mut bits, op, a, b, &format!("wide {case}/{round} step {step_no}"));
                }
            }
        }
    }
}

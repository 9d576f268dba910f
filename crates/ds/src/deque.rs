//! [`BlockDeque`]: a FIFO stored in small fixed-size blocks rather than
//! one contiguous buffer.
//!
//! A contiguous ring never shrinks and must be found in one piece: on
//! Table 2 row 14 the 128 loss-based flows would each keep the capacity
//! of their slow-start overshoot, and the BBR flow's 650 KB scoreboard
//! could not reuse what they freed, costing 10% of the process's peak
//! memory. Blocks are allocated as the deque grows, freed as it drains,
//! and fit wherever the allocator has a hole.
//!
//! One freed block is parked as a spare and taken before allocating, so a
//! window sliding forward (or refilled after a `clear`) recycles its own
//! blocks. That costs at most one block beyond the elements held, and an
//! empty deque owns nothing until its first push.
//!
//! Elements are contiguous from `head` in the first block, so element `i`
//! sits at block `(head + i) / B`, slot `(head + i) % B`: indexing is
//! arithmetic, and pushes and pops touch only the two end blocks. Every
//! slot outside the live range is `None`, so a parked block holds nothing.

use std::collections::VecDeque;

type Block<T, const B: usize> = Box<[Option<T>; B]>;

#[derive(Debug)]
pub struct BlockDeque<T, const B: usize> {
    blocks: VecDeque<Block<T, B>>,
    spare: Option<Block<T, B>>,
    /// Slots of the first block already popped.
    head: usize,
    len: usize,
}

impl<T, const B: usize> Default for BlockDeque<T, B> {
    fn default() -> Self {
        BlockDeque { blocks: VecDeque::new(), spare: None, head: 0, len: 0 }
    }
}

impl<T, const B: usize> BlockDeque<T, B> {
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub fn push_back(&mut self, value: T) {
        let at = self.head + self.len;
        if at == self.blocks.len() * B {
            let block = self.spare.take().unwrap_or_else(|| Box::new([const { None }; B]));
            self.blocks.push_back(block);
        }
        // The block holding `at` exists: it was just pushed, or not full.
        if let Some(slot) = self.blocks.get_mut(at / B).and_then(|b| b.get_mut(at % B)) {
            *slot = Some(value);
            self.len += 1;
        }
    }

    #[inline]
    pub fn pop_front(&mut self) -> Option<T> {
        let value = self.blocks.front_mut()?.get_mut(self.head)?.take()?;
        self.head += 1;
        self.len -= 1;
        if self.head == B {
            self.park_front();
            self.head = 0;
        } else if self.len == 0 {
            // Drained mid-block: start over in the block already held.
            self.head = 0;
        }
        Some(value)
    }

    /// Drop every element, keeping the first block as the spare if none
    /// is parked.
    pub fn clear(&mut self) {
        if let Some(front) = self.blocks.front_mut() {
            front.fill_with(|| None);
        }
        self.park_front();
        self.blocks.clear();
        self.head = 0;
        self.len = 0;
    }

    /// Free the first block, keeping it as the spare if none is parked.
    fn park_front(&mut self) {
        let block = self.blocks.pop_front();
        if self.spare.is_none() {
            self.spare = block;
        }
    }
}

impl<T, const B: usize> std::ops::Index<usize> for BlockDeque<T, B> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        assert!(i < self.len, "deque index out of range");
        let at = self.head + i;
        match &self.blocks[at / B][at % B] {
            Some(value) => value,
            None => unreachable!("every live slot holds a value"),
        }
    }
}

impl<T, const B: usize> std::ops::IndexMut<usize> for BlockDeque<T, B> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        assert!(i < self.len, "deque index out of range");
        let at = self.head + i;
        match &mut self.blocks[at / B][at % B] {
            Some(value) => value,
            None => unreachable!("every live slot holds a value"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::collections::BTreeSet;
    use std::rc::Rc;

    use cebinae_sim::rng::DetRng;

    /// A non-`Copy` payload; its `Rc` counts the items alive.
    type Item = (u64, Rc<()>);

    fn addr<T, const B: usize>(b: &[Option<T>; B]) -> usize {
        std::ptr::from_ref(b) as usize
    }

    /// Every operation against a `VecDeque` model over one seeded stream:
    /// the same values in the same order, nothing kept alive that is not
    /// held, and no more than `len.div_ceil(B) + 1` blocks plus the spare.
    fn matches_a_vecdeque_model<const B: usize>() {
        const CASES: u64 = 32;
        const OPS: u64 = 3000;
        for case in 0..CASES {
            let mut rng = DetRng::seed_from_u64(0xB10C_DE9E ^ case ^ ((B as u64) << 32));
            let token = Rc::new(());
            let mut deque = BlockDeque::<Item, B>::default();
            let mut model = VecDeque::new();
            assert_eq!((deque.blocks.capacity(), deque.spare.is_some()), (0, false));
            // Cases range from draining to filling.
            let push_p = rng.gen_range_u64(30, 70) as f64 / 100.0;
            for op in 0..OPS {
                let at = || format!("B {B} case {case} op {op}");
                if rng.gen_bool(0.005) {
                    deque.clear();
                    model.clear();
                } else if !model.is_empty() && rng.gen_bool(0.2) {
                    let i = rng.gen_range_usize(0, model.len());
                    if rng.gen_bool(0.5) {
                        assert_eq!(deque[i].0, model[i], "{}", at());
                    } else {
                        deque[i] = (op, Rc::clone(&token));
                        model[i] = op;
                    }
                } else if rng.gen_bool(push_p) {
                    deque.push_back((op, Rc::clone(&token)));
                    model.push_back(op);
                } else {
                    assert_eq!(deque.pop_front().map(|v| v.0), model.pop_front(), "{}", at());
                }
                assert_eq!((deque.len(), deque.is_empty()), (model.len(), model.is_empty()), "{}", at());
                assert_eq!(Rc::strong_count(&token) - 1, model.len(), "{}: live items", at());
                assert!(deque.blocks.len() <= model.len().div_ceil(B) + 1, "{}", at());
            }
            let held: Vec<u64> = (0..deque.len()).map(|i| deque[i].0).collect();
            assert!(held.iter().eq(&model), "B {B} case {case}");
        }
    }

    #[test]
    fn deque_matches_a_vecdeque_model() {
        matches_a_vecdeque_model::<4>();
        matches_a_vecdeque_model::<32>();
    }

    #[test]
    fn a_drained_deque_keeps_one_spare_block() {
        let mut q = BlockDeque::<u64, 4>::default();
        for v in 0..12 {
            q.push_back(v);
        }
        assert_eq!(q.blocks.len(), 3);
        for v in 0..12 {
            assert_eq!(q.pop_front(), Some(v));
        }
        assert!(q.is_empty() && q.pop_front().is_none());
        assert_eq!((q.blocks.len(), q.spare.is_some()), (0, true));
        q.push_back(7);
        assert_eq!((q.blocks.len(), q.spare.is_some()), (1, false));
    }

    /// A three-element window sliding forward spans at most two blocks
    /// and recycles them: no more than three distinct blocks are ever
    /// held.
    #[test]
    fn a_sliding_window_recycles_its_blocks() {
        let mut q = BlockDeque::<u64, 4>::default();
        let mut seen = BTreeSet::new();
        for v in 0..10_000u64 {
            q.push_back(v);
            if v >= 2 {
                assert_eq!(q.pop_front(), Some(v - 2));
            }
            assert!(q.blocks.len() <= 2, "a 3-element window spans at most two blocks");
            seen.extend(q.blocks.iter().map(|b| addr(b)));
            seen.extend(q.spare.as_deref().map(addr));
        }
        assert!(seen.len() <= 3, "a sliding window recycles its blocks: {} seen", seen.len());
        assert!(q.spare.is_some());
    }

    /// `clear` with several blocks held and none parked parks the first
    /// one (not the one freed last), and the regrown deque starts in it.
    #[test]
    fn clear_parks_the_front_block() {
        let mut q = BlockDeque::<u64, 4>::default();
        for v in 0..12 {
            q.push_back(v);
        }
        assert!(q.spare.is_none());
        let first = addr(&q.blocks[0]);
        q.clear();
        assert!(q.blocks.is_empty() && q.is_empty());
        assert_eq!(q.spare.as_deref().map(addr), Some(first));
        q.push_back(0);
        assert_eq!(addr(&q.blocks[0]), first, "regrowth takes the parked block");
        assert!(q.spare.is_none());
    }
}

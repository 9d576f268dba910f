//! [`FlowSlab`]: a dense key→slot arena index for direct-indexed
//! per-flow state.
//!
//! Flow ids in this workspace are arena indices handed out densely from
//! zero, so a forward `Vec<u32>` lookup table beats any hash: `slot_of`
//! is one bounds check and one load. Slots themselves stay dense under
//! removal (swap-compaction), so callers can keep per-flow state in a
//! plain `Vec` indexed by slot with no holes — the [`SlabRemoval`]
//! receipt tells them which slot to `swap_remove` to mirror the move.
//!
//! Keys are raw `u32` (callers pass `FlowId::index() as u32`) so this
//! crate stays dependency-free.

/// Sentinel in the forward table: key has no slot.
const VACANT: u32 = u32::MAX;

#[derive(Clone, Debug, Default)]
pub struct FlowSlab {
    /// key → slot (grown to max key + 1; `VACANT` = absent).
    fwd: Vec<u32>,
    /// slot → key (dense; length = number of live keys).
    rev: Vec<u32>,
}

/// Receipt from [`FlowSlab::remove`]: the vacated slot, and — if the last
/// slot was swapped into it — the key that moved there. Callers mirror
/// the move by `swap_remove(slot)` on their parallel state vectors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlabRemoval {
    pub slot: u32,
    pub moved_key: Option<u32>,
}

impl FlowSlab {
    pub fn new() -> FlowSlab {
        FlowSlab::default()
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.rev.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rev.is_empty()
    }

    /// The slot for `key`, if assigned.
    #[inline]
    pub fn get(&self, key: u32) -> Option<u32> {
        match self.fwd.get(key as usize) {
            Some(&s) if s != VACANT => Some(s),
            _ => None,
        }
    }

    /// The slot for `key`, assigning the next dense slot if absent.
    /// Callers push fresh per-flow state when `slot as usize == old len`.
    #[inline]
    pub fn slot_of(&mut self, key: u32) -> u32 {
        let k = key as usize;
        if k >= self.fwd.len() {
            self.fwd.resize(k + 1, VACANT);
        }
        let s = self.fwd[k]; // det-ok: k < fwd.len() after the resize above
        if s != VACANT {
            return s;
        }
        let slot = self.rev.len() as u32;
        self.fwd[k] = slot; // det-ok: k < fwd.len() after the resize above
        self.rev.push(key);
        slot
    }

    /// The key occupying `slot` (for iteration over dense state).
    #[inline]
    pub fn key_at(&self, slot: u32) -> Option<u32> {
        self.rev.get(slot as usize).copied()
    }

    /// Remove `key`, compacting by swapping the last slot into the gap.
    pub fn remove(&mut self, key: u32) -> Option<SlabRemoval> {
        let slot = self.get(key)?;
        self.fwd[key as usize] = VACANT; // get() proved key is in range
        let last = self.rev.len() as u32 - 1;
        self.rev.swap_remove(slot as usize);
        if slot == last {
            return Some(SlabRemoval {
                slot,
                moved_key: None,
            });
        }
        let moved = self.rev[slot as usize]; // slot < rev.len() since slot < last
        self.fwd[moved as usize] = slot; // moved key was live, so in fwd range
        Some(SlabRemoval {
            slot,
            moved_key: Some(moved),
        })
    }

    pub fn clear(&mut self) {
        self.fwd.clear();
        self.rev.clear();
    }

    /// Keys in slot order (dense-state iteration order).
    #[inline]
    pub fn keys(&self) -> impl Iterator<Item = u32> + '_ {
        self.rev.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_dense_and_stable() {
        let mut s = FlowSlab::new();
        assert_eq!(s.slot_of(10), 0);
        assert_eq!(s.slot_of(3), 1);
        assert_eq!(s.slot_of(10), 0, "idempotent");
        assert_eq!(s.get(3), Some(1));
        assert_eq!(s.get(99), None);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn remove_swaps_last_slot_in() {
        let mut s = FlowSlab::new();
        for k in [5u32, 8, 2] {
            s.slot_of(k);
        }
        // Removing the middle slot moves the last key (2) into slot 1.
        assert_eq!(
            s.remove(8),
            Some(SlabRemoval {
                slot: 1,
                moved_key: Some(2)
            })
        );
        assert_eq!(s.get(2), Some(1));
        assert_eq!(s.get(8), None);
        // Removing the (now) last slot moves nothing.
        assert_eq!(
            s.remove(2),
            Some(SlabRemoval {
                slot: 1,
                moved_key: None
            })
        );
        assert_eq!(s.remove(2), None);
        assert_eq!(s.len(), 1);
        assert_eq!(s.key_at(0), Some(5));
    }

    #[test]
    fn reinsert_after_remove_gets_fresh_slot() {
        let mut s = FlowSlab::new();
        s.slot_of(0);
        s.slot_of(1);
        s.remove(0);
        // Key 1 swapped into slot 0; key 0 re-enters at the tail.
        assert_eq!(s.slot_of(0), 1);
        let keys: Vec<u32> = s.keys().collect();
        assert_eq!(keys, vec![1, 0]);
    }
}

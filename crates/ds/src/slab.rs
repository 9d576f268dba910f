//! [`FlowSlab`]: a dense key→slot arena index for direct-indexed
//! per-flow state.
//!
//! Flow ids in this workspace are arena indices handed out densely from
//! zero, so a forward `Vec<u32>` lookup table beats any hash: `slot_of`
//! is one bounds check and one load. Slots are handed out densely in
//! first-seen order and never taken back (the qdiscs that use this never
//! forget a flow), so callers keep per-flow state in a plain `Vec`
//! indexed by slot with no holes.
//!
//! Keys are raw `u32` (callers pass `FlowId::index() as u32`) so this
//! crate stays dependency-free.

/// Sentinel in the forward table: key has no slot.
const VACANT: u32 = u32::MAX;

#[derive(Clone, Debug, Default)]
pub struct FlowSlab {
    /// key → slot (grown to max key + 1; `VACANT` = absent).
    fwd: Vec<u32>,
    /// Number of slots handed out; the next key gets slot `len`.
    len: u32,
}

impl FlowSlab {
    pub fn new() -> FlowSlab {
        FlowSlab::default()
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
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
        let slot = self.len;
        self.fwd[k] = slot; // det-ok: k < fwd.len() after the resize above
        self.len += 1;
        slot
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
}

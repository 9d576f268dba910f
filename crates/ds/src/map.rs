//! [`DetMap`]: a deterministic open-addressing hash map.
//!
//! ## Layout
//!
//! An index-map design: the entries live in a dense `Vec<(K, V)>` (the
//! iteration order), and a separate power-of-two bucket array maps hash
//! slots to entry indices via linear probing. Growing the table only
//! rebuilds the bucket array — the entries vector, and therefore the
//! iteration order, is untouched by a resize.
//!
//! ## Determinism contract
//!
//! * Hashing is FNV-1a under the fixed [`crate::DET_SEED`]; no per-process
//!   entropy anywhere. The same operation sequence produces the same table
//!   bytes on every host.
//! * `iter()` yields entries in insertion order. A `remove` swaps the last
//!   entry into the vacated dense slot (O(1)), so after removals the order
//!   is "insertion order perturbed by the removal history" — still a pure
//!   function of the operation sequence, just no longer sorted by age.
//!   Code whose *results* depend on visitation order must use
//!   [`DetMap::sorted_iter`]/[`DetMap::sorted_entries`], which visit in
//!   ascending key order exactly like the `BTreeMap` this type replaces.
//! * Deletion is tombstone-free backward-shift: the probe chain after the
//!   vacated bucket is compacted immediately, so lookup cost never decays
//!   with the delete history (and the table state stays a function of the
//!   *current* contents plus entry order, not of dead keys).

use std::cell::{Cell, Ref, RefCell};
use std::fmt;

/// Key trait for [`DetMap`]/[`crate::DetSet`]: equality, a total order
/// (for the sorted views), and a deterministic hash. Implementations must
/// hash through [`crate::fnv1a_u64`]/[`crate::fnv1a_bytes`] with no
/// ambient state so that `det_hash` is a pure function of the key value.
pub trait DetKey: Eq + Ord {
    fn det_hash(&self) -> u64;
}

macro_rules! int_det_key {
    ($($t:ty),*) => {$(
        impl DetKey for $t {
            #[inline]
            fn det_hash(&self) -> u64 {
                crate::fnv1a_u64(*self as u64)
            }
        }
    )*};
}

int_det_key!(u8, u16, u32, u64, usize);

impl DetKey for i32 {
    #[inline]
    fn det_hash(&self) -> u64 {
        crate::fnv1a_u64(*self as u32 as u64)
    }
}

impl DetKey for i64 {
    #[inline]
    fn det_hash(&self) -> u64 {
        crate::fnv1a_u64(*self as u64)
    }
}

impl<A: DetKey, B: DetKey> DetKey for (A, B) {
    #[inline]
    fn det_hash(&self) -> u64 {
        // Chain: re-seed the second hash with the first (FNV-1a is a
        // byte-stream hash, so this is equivalent to hashing the
        // concatenated encodings).
        crate::fnv1a_bytes(self.0.det_hash(), &self.1.det_hash().to_le_bytes())
    }
}

/// Bucket sentinel: no entry.
const EMPTY: u32 = u32::MAX;

/// Fold the 64-bit hash down before masking: FNV-1a's avalanche is weak in
/// the high bits for short keys, and masking alone would discard them.
#[inline]
fn fold(h: u64) -> usize {
    (h ^ (h >> 32)) as usize
}

/// A deterministic open-addressing map. See the module docs for the
/// layout and the determinism contract.
pub struct DetMap<K, V> {
    /// Dense entry storage; defines `iter()` order.
    entries: Vec<(K, V)>,
    /// Power-of-two bucket array of entry indices ([`EMPTY`] = vacant).
    /// Empty until the first insert.
    index: Vec<u32>,
    /// `index.len() - 1` (valid only when `index` is allocated).
    mask: usize,
    /// Cached ascending-key permutation of `entries` indices, rebuilt
    /// lazily by [`DetMap::sorted_iter`] when `sorted_dirty` is set.
    /// Interior mutability keeps the sorted view a `&self` operation;
    /// the cost is that `DetMap` is `!Sync` — shared-reference readers
    /// must live on one thread (the trial pools only ever *move* maps
    /// into jobs, which stays legal: the map is still `Send`).
    sorted_cache: RefCell<Vec<u32>>,
    /// Set by every operation that can change the key set or the dense
    /// indices (insert of a new key, remove, retain, clear). Pure value
    /// updates — `insert` over an existing key, `get_mut` — leave the
    /// permutation valid and deliberately do not touch it.
    sorted_dirty: Cell<bool>,
}

impl<K: DetKey, V> DetMap<K, V> {
    pub fn new() -> DetMap<K, V> {
        DetMap {
            entries: Vec::new(),
            index: Vec::new(),
            mask: 0,
            sorted_cache: RefCell::new(Vec::new()),
            sorted_dirty: Cell::new(true),
        }
    }

    /// A map pre-sized for `n` entries (one bucket-array allocation, no
    /// rehashing until the table outgrows it).
    pub fn with_capacity(n: usize) -> DetMap<K, V> {
        let mut m = DetMap::new();
        if n > 0 {
            m.entries.reserve(n);
            m.rebuild(buckets_for(n));
        }
        m
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Find `key`'s bucket position and entry index.
    #[inline]
    fn find(&self, key: &K) -> Option<(usize, u32)> {
        if self.entries.is_empty() {
            return None;
        }
        let mut pos = fold(key.det_hash()) & self.mask;
        loop {
            let e = self.index[pos]; // det-ok: pos is masked to the bucket-array length (a power of two)
            if e == EMPTY {
                return None;
            }
            // det-ok: bucket entries always hold live indices < entries.len() (table invariant, pinned by the differential tests)
            if self.entries[e as usize].0 == *key {
                return Some((pos, e));
            }
            pos = (pos + 1) & self.mask;
        }
    }

    #[inline]
    pub fn contains_key(&self, key: &K) -> bool {
        self.find(key).is_some()
    }

    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        let (_, e) = self.find(key)?;
        Some(&self.entries[e as usize].1) // index returned by find() is live
    }

    #[inline]
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let (_, e) = self.find(key)?;
        Some(&mut self.entries[e as usize].1) // det-ok: index returned by find() is live
    }

    /// Insert, returning the previous value if the key was present.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.grow_for(self.entries.len() + 1);
        let mut pos = fold(key.det_hash()) & self.mask;
        loop {
            let e = self.index[pos]; // pos is masked to the bucket-array length
            if e == EMPTY {
                self.index[pos] = self.entries.len() as u32; // pos masked; entry count < u32::MAX by the id-space contract
                self.entries.push((key, value));
                self.sorted_dirty.set(true);
                return None;
            }
            // bucket entries hold live indices (table invariant)
            if self.entries[e as usize].0 == key {
                return Some(std::mem::replace(&mut self.entries[e as usize].1, value)); // same live index
            }
            pos = (pos + 1) & self.mask;
        }
    }

    /// The `entry(k).or_insert_with(f)` idiom in one call: returns the
    /// value for `key`, inserting `make()` first if absent.
    pub fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> &mut V {
        self.grow_for(self.entries.len() + 1);
        let mut pos = fold(key.det_hash()) & self.mask;
        let e = loop {
            let e = self.index[pos]; // det-ok: pos is masked to the bucket-array length
            if e == EMPTY {
                let new = self.entries.len() as u32;
                self.index[pos] = new; // det-ok: pos masked
                self.entries.push((key, make()));
                self.sorted_dirty.set(true);
                break new;
            }
            // det-ok: bucket entries hold live indices (table invariant)
            if self.entries[e as usize].0 == key {
                break e;
            }
            pos = (pos + 1) & self.mask;
        };
        &mut self.entries[e as usize].1 // det-ok: e is live by the loop above
    }

    /// Remove `key`, returning its value. O(1): backward-shift compaction
    /// of the probe chain plus a swap-remove of the dense entry.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let (pos, e) = self.find(key)?;
        self.sorted_dirty.set(true);
        self.backward_shift(pos);
        let e = e as usize;
        let (_, value) = self.entries.swap_remove(e);
        // The entry that was last now lives at `e`; its bucket still says
        // the old position. Walk its probe chain to repoint it.
        let stale = self.entries.len() as u32;
        if e as u32 != stale {
            // e < entries.len() after the swap (we only get here when an entry moved)
            let mut pos = fold(self.entries[e].0.det_hash()) & self.mask;
            loop {
                // pos is masked; the moved key is present, so its bucket is reachable before any EMPTY
                if self.index[pos] == stale {
                    self.index[pos] = e as u32; // pos masked
                    break;
                }
                pos = (pos + 1) & self.mask;
            }
        }
        Some(value)
    }

    /// Tombstone-free deletion: vacate `pos`, then slide every displaced
    /// successor in the probe chain back toward its ideal bucket.
    fn backward_shift(&mut self, pos: usize) {
        let mask = self.mask;
        let mut hole = pos;
        let mut j = pos;
        loop {
            j = (j + 1) & mask;
            let e = self.index[j]; // j is masked to the bucket-array length
            if e == EMPTY {
                break;
            }
            // bucket entries hold live indices (table invariant)
            let ideal = fold(self.entries[e as usize].0.det_hash()) & mask;
            // Move the entry into the hole iff its probe distance reaches
            // at least back to the hole (cyclic arithmetic).
            if j.wrapping_sub(ideal) & mask >= j.wrapping_sub(hole) & mask {
                self.index[hole] = e; // hole is a previously visited masked position
                hole = j;
            }
        }
        self.index[hole] = EMPTY; // hole is a masked position
    }

    /// Keep only entries for which `f` returns true, preserving the dense
    /// order of the survivors (unlike `remove`, which swaps). O(n).
    pub fn retain(&mut self, mut f: impl FnMut(&K, &mut V) -> bool) {
        self.sorted_dirty.set(true);
        self.entries.retain_mut(|(k, v)| f(k, v));
        if !self.index.is_empty() {
            let cap = self.index.len();
            self.rebuild(cap);
        }
    }

    /// Drop all entries, keeping both allocations for hot reuse (the CP
    /// window accumulator clears every recompute).
    pub fn clear(&mut self) {
        self.sorted_dirty.set(true);
        self.entries.clear();
        self.index.fill(EMPTY);
    }

    /// Iterate in dense-entry order (insertion order, perturbed by any
    /// removals — see the module docs). Deterministic, but NOT sorted:
    /// order-sensitive consumers use [`DetMap::sorted_iter`].
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> + '_ {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    #[inline]
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&K, &mut V)> + '_ {
        self.entries.iter_mut().map(|(k, v)| (&*k, v))
    }

    #[inline]
    pub fn keys(&self) -> impl Iterator<Item = &K> + '_ {
        self.entries.iter().map(|(k, _)| k)
    }

    #[inline]
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.entries.iter().map(|(_, v)| v)
    }

    #[inline]
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> + '_ {
        self.entries.iter_mut().map(|(_, v)| v)
    }

    /// Ascending-key view — the `BTreeMap` iteration order. The key
    /// permutation is cached behind a dirty flag: the O(n log n) sort runs
    /// only after an operation changed the key set (or the dense indices),
    /// so repeated sorted walks over a stable key set — the control-plane
    /// pattern — cost O(n) like the B-tree they replaced.
    pub fn sorted_iter(&self) -> SortedIter<'_, K, V> {
        if self.sorted_dirty.get() {
            let mut order = self.sorted_cache.borrow_mut();
            order.clear();
            order.extend(0..self.entries.len() as u32);
            order.sort_unstable_by(|&a, &b| {
                // det-ok: order holds indices 0..entries.len()
                self.entries[a as usize].0.cmp(&self.entries[b as usize].0)
            });
            self.sorted_dirty.set(false);
        }
        SortedIter {
            map: self,
            order: self.sorted_cache.borrow(),
            i: 0,
        }
    }

    /// [`DetMap::sorted_iter`], collected.
    pub fn sorted_entries(&self) -> Vec<(&K, &V)> {
        self.sorted_iter().collect()
    }

    /// Grow the bucket array if `needed` entries would exceed a 3/4 load
    /// factor (linear probing stays short, and lookups always terminate).
    #[inline]
    fn grow_for(&mut self, needed: usize) {
        if needed * 4 > self.index.len() * 3 {
            self.rebuild(buckets_for(needed));
        }
    }

    /// Re-derive the bucket array from the (untouched) entries vector.
    fn rebuild(&mut self, cap: usize) {
        debug_assert!(cap.is_power_of_two() && cap * 3 >= self.entries.len() * 4);
        self.index.clear();
        self.index.resize(cap, EMPTY);
        self.mask = cap - 1;
        for (i, (k, _)) in self.entries.iter().enumerate() {
            let mut pos = fold(k.det_hash()) & self.mask;
            // det-ok: pos is masked; load factor < 1 guarantees a vacant bucket
            while self.index[pos] != EMPTY {
                pos = (pos + 1) & self.mask;
            }
            self.index[pos] = i as u32; // det-ok: pos masked
        }
    }
}

/// Ascending-key iterator over a [`DetMap`], borrowing the map's cached
/// permutation. While one of these is alive the map is immutably borrowed,
/// so the cache cannot be invalidated under it; a second concurrent
/// `sorted_iter()` only takes another shared borrow and is fine.
pub struct SortedIter<'a, K, V> {
    map: &'a DetMap<K, V>,
    order: Ref<'a, Vec<u32>>,
    i: usize,
}

impl<'a, K: DetKey, V> Iterator for SortedIter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        let &idx = self.order.get(self.i)?;
        self.i += 1;
        // the cache holds a permutation of 0..entries.len(), and no
        // mutation can happen while this iterator borrows the map
        let (k, v) = &self.map.entries[idx as usize];
        Some((k, v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.order.len() - self.i;
        (n, Some(n))
    }
}

impl<K: DetKey, V> ExactSizeIterator for SortedIter<'_, K, V> {}

/// Smallest power-of-two bucket count keeping `n` entries under 3/4 load.
#[inline]
fn buckets_for(n: usize) -> usize {
    let mut cap = 8usize;
    while n * 4 > cap * 3 {
        cap <<= 1;
    }
    cap
}

impl<K: DetKey, V> Default for DetMap<K, V> {
    fn default() -> Self {
        DetMap::new()
    }
}

impl<K: DetKey + Clone, V: Clone> Clone for DetMap<K, V> {
    fn clone(&self) -> Self {
        DetMap {
            entries: self.entries.clone(),
            index: self.index.clone(),
            mask: self.mask,
            // The clone re-derives its own permutation on first use; a
            // cache is an acceleration, never part of the map's value.
            sorted_cache: RefCell::new(Vec::new()),
            sorted_dirty: Cell::new(true),
        }
    }
}

impl<K: DetKey + fmt::Debug, V: fmt::Debug> fmt::Debug for DetMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Sorted so failure messages are stable and diffable.
        f.debug_map().entries(self.sorted_iter()).finish()
    }
}

impl<K: DetKey, V> FromIterator<(K, V)> for DetMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut m = DetMap::new();
        m.extend(iter);
        m
    }
}

impl<K: DetKey, V> Extend<(K, V)> for DetMap<K, V> {
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

impl<K: DetKey, V: PartialEq> PartialEq for DetMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && self.iter().all(|(k, v)| other.get(k) == Some(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m: DetMap<u64, u64> = DetMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(7, 70), None);
        assert_eq!(m.insert(7, 71), Some(70));
        assert_eq!(m.get(&7), Some(&71));
        assert_eq!(m.remove(&7), Some(71));
        assert_eq!(m.remove(&7), None);
        assert!(m.is_empty());
    }

    #[test]
    fn insertion_order_iteration() {
        let mut m: DetMap<u64, &str> = DetMap::new();
        for (k, v) in [(9, "a"), (2, "b"), (5, "c")] {
            m.insert(k, v);
        }
        let order: Vec<u64> = m.keys().copied().collect();
        assert_eq!(order, vec![9, 2, 5], "insertion order, not key order");
        let sorted: Vec<u64> = m.sorted_iter().map(|(&k, _)| k).collect();
        assert_eq!(sorted, vec![2, 5, 9], "sorted view is key-ascending");
    }

    #[test]
    fn iteration_order_stable_across_resize() {
        // Growing the table rebuilds only the bucket array; the dense
        // entry order (and therefore iter()) must not change.
        let mut m: DetMap<u64, u64> = DetMap::new();
        let keys: Vec<u64> = (0..6).map(|i| i * 131).collect();
        for &k in &keys {
            m.insert(k, k);
        }
        let before: Vec<u64> = m.keys().copied().collect();
        for i in 6..4096u64 {
            m.insert(i * 131, i); // forces several resizes
        }
        let after: Vec<u64> = m.keys().take(6).copied().collect();
        assert_eq!(before, after, "resize must not perturb entry order");
        assert_eq!(m.len(), 4096);
    }

    #[test]
    fn colliding_keys_all_reachable() {
        // Force collisions by overwhelming a small table: with 8 buckets
        // and 6 entries, probe chains must form; every key still resolves.
        let mut m: DetMap<u64, u64> = DetMap::new();
        for k in 0..6u64 {
            m.insert(k, k * 10);
        }
        for k in 0..6u64 {
            assert_eq!(m.get(&k), Some(&(k * 10)));
        }
        assert_eq!(m.get(&99), None);
    }

    #[test]
    fn backward_shift_keeps_chains_intact() {
        // Build a table, remove keys from the middle of probe chains, and
        // verify every survivor still resolves (a tombstone-free delete
        // that breaks a chain would make later keys unreachable).
        let mut m: DetMap<u64, u64> = DetMap::new();
        for k in 0..64u64 {
            m.insert(k, k);
        }
        for k in (0..64u64).step_by(3) {
            assert_eq!(m.remove(&k), Some(k));
        }
        for k in 0..64u64 {
            let expect = if k % 3 == 0 { None } else { Some(&k) };
            assert_eq!(m.get(&k), expect.map(|v| v), "key {k}");
        }
        assert_eq!(m.len(), 64 - 22);
    }

    #[test]
    fn remove_swaps_last_entry_and_stays_consistent() {
        let mut m: DetMap<u64, u64> = DetMap::new();
        for k in 0..10u64 {
            m.insert(k, k);
        }
        m.remove(&0); // entry 9 swaps into slot 0
        assert_eq!(m.get(&9), Some(&9), "moved entry must be re-indexed");
        assert_eq!(m.keys().copied().next(), Some(9));
        m.remove(&9);
        assert_eq!(m.get(&9), None);
        assert_eq!(m.len(), 8);
    }

    #[test]
    fn retain_preserves_dense_order() {
        let mut m: DetMap<u64, u64> = DetMap::new();
        for k in [5u64, 1, 9, 3, 7] {
            m.insert(k, k);
        }
        m.retain(|&k, _| k > 2);
        let order: Vec<u64> = m.keys().copied().collect();
        assert_eq!(order, vec![5, 9, 3, 7], "retain keeps relative order");
        assert_eq!(m.get(&1), None);
        assert_eq!(m.get(&9), Some(&9));
    }

    #[test]
    fn clear_keeps_working() {
        let mut m: DetMap<u64, u64> = DetMap::with_capacity(100);
        for k in 0..100u64 {
            m.insert(k, k);
        }
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(&5), None);
        m.insert(5, 50);
        assert_eq!(m.get(&5), Some(&50));
    }

    #[test]
    fn get_or_insert_with_matches_entry_semantics() {
        let mut m: DetMap<u32, u64> = DetMap::new();
        *m.get_or_insert_with(3, || 0) += 10;
        *m.get_or_insert_with(3, || 0) += 10;
        assert_eq!(m.get(&3), Some(&20));
    }

    #[test]
    fn sorted_cache_tracks_every_key_set_mutation() {
        let mut m: DetMap<u64, u64> = DetMap::new();
        for k in [9u64, 2, 5, 7] {
            m.insert(k, k);
        }
        let sorted = |m: &DetMap<u64, u64>| -> Vec<u64> {
            m.sorted_iter().map(|(&k, _)| k).collect()
        };
        assert_eq!(sorted(&m), vec![2, 5, 7, 9]);
        // Warm cache + value-only update: order unchanged, still correct.
        m.insert(5, 500);
        assert_eq!(sorted(&m), vec![2, 5, 7, 9]);
        assert_eq!(m.get(&5), Some(&500));
        // Remove swaps dense indices; the cached permutation must refresh.
        m.remove(&2);
        assert_eq!(sorted(&m), vec![5, 7, 9]);
        m.insert(1, 1);
        assert_eq!(sorted(&m), vec![1, 5, 7, 9]);
        *m.get_or_insert_with(3, || 30) += 1;
        assert_eq!(sorted(&m), vec![1, 3, 5, 7, 9]);
        m.retain(|&k, _| k >= 5);
        assert_eq!(sorted(&m), vec![5, 7, 9]);
        m.clear();
        assert_eq!(sorted(&m), Vec::<u64>::new());
        // A clone never shares (or trusts) the original's cache.
        let mut a: DetMap<u64, u64> = DetMap::new();
        a.insert(4, 4);
        assert_eq!(sorted(&a), vec![4]);
        let mut b = a.clone();
        b.insert(3, 3);
        assert_eq!(sorted(&b), vec![3, 4]);
        assert_eq!(sorted(&a), vec![4]);
    }

    #[test]
    fn sorted_iter_is_exact_size_and_reentrant() {
        let mut m: DetMap<u64, u64> = DetMap::new();
        for k in 0..10u64 {
            m.insert(k * 3 % 10, k);
        }
        let it = m.sorted_iter();
        assert_eq!(it.len(), 10);
        // Two live sorted views at once: both read the shared cache.
        let a: Vec<u64> = m.sorted_iter().map(|(&k, _)| k).collect();
        let b: Vec<u64> = it.map(|(&k, _)| k).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn same_ops_same_layout() {
        // Determinism probe: two maps fed the same sequence are equal and
        // iterate identically.
        let build = || {
            let mut m: DetMap<u64, u64> = DetMap::new();
            for k in 0..300u64 {
                m.insert(k.wrapping_mul(0x9e37_79b9), k);
            }
            for k in (0..300u64).step_by(7) {
                m.remove(&k.wrapping_mul(0x9e37_79b9));
            }
            m
        };
        let (a, b) = (build(), build());
        let ka: Vec<u64> = a.keys().copied().collect();
        let kb: Vec<u64> = b.keys().copied().collect();
        assert_eq!(ka, kb);
        assert!(a == b);
    }
}

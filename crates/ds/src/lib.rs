//! # cebinae-ds
//!
//! Deterministic O(1) data structures for the dataplane hot path.
//!
//! Cebinae's premise is per-packet work cheap enough for a switch pipeline:
//! a heavy-hitter cache lookup, a ⊤-membership test, and an LBF counter
//! update per packet. The reproduction originally paid an O(log n)
//! `BTreeMap`/`BTreeSet` walk for each of those — B-trees were chosen in
//! PR 1 purely because their iteration order is deterministic, which
//! `std::collections::HashMap` (SipHash seeded from process entropy) is
//! not. This crate removes that tradeoff:
//!
//! * [`DetMap`]/[`DetSet`] — open-addressing tables over a **fixed seeded
//!   FNV-1a hash**. Same keys + same operation sequence ⇒ same table
//!   layout and same iteration order, on every host, in every run. Get,
//!   insert, and remove are O(1) expected; deletion is tombstone-free
//!   (backward-shift), so probe chains never degrade over a long run.
//! * An on-demand [`DetMap::sorted_iter`] view
//!   for the cold control-plane paths whose *semantics* depend on key
//!   order (the agent's top-k selection, FQ-CoDel's fattest-flow
//!   tie-break, rotation debug reporting). Paying an O(n log n) sort a
//!   few times per control window buys O(1) on every packet.
//! * [`FlowSlab`] — a dense `u32 key → u32 slot` arena index for per-flow
//!   state that wants direct Vec indexing rather than any hashing at all
//!   (the calendar qdiscs' per-flow byte counters).
//! * [`BlockDeque`] — a FIFO in small fixed-size blocks with one parked
//!   spare, indexable by position: memory follows what it holds, and an
//!   empty one owns nothing (the sender's SACK scoreboard, Cebinae's two
//!   packet queues).
//!
//! Everything here is `std`-only and entirely deterministic: no
//! `RandomState`, no per-process seeds, no allocation-address-dependent
//! behavior. The differential tests in `tests/differential.rs` drive
//! seeded operation sequences against the `BTreeMap`/`BTreeSet` reference
//! to pin the equivalence.

pub mod deque;
pub mod map;
pub mod set;
pub mod slab;

pub use deque::BlockDeque;
pub use map::{DetKey, DetMap};
pub use set::DetSet;
pub use slab::FlowSlab;

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The fixed table seed. A constant (not per-process entropy!) xor'd into
/// the FNV offset basis: every `DetMap` in every run hashes identically,
/// which is exactly what replay determinism requires. Flow/link ids in
/// this workspace are arena indices, not attacker-controlled input, so
/// hash-flooding resistance is a non-goal.
pub const DET_SEED: u64 = FNV_OFFSET ^ 0x5eed_0000_ceb1_ae00;

/// FNV-1a over `bytes`, starting from `seed`.
#[inline]
pub fn fnv1a_bytes(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Fixed-seed hash of a `u64` key; the hash every integer [`DetKey`] impl
/// routes through.
///
/// This is the word-at-a-time variant of the seeded FNV-1a fold above: the
/// whole key is xor'd into the seed and multiplied by the FNV prime, with
/// an xor-shift between the two rounds so high-order key bits reach the
/// low-order table bits. Byte-at-a-time FNV-1a costs eight *dependent*
/// multiplies per key — measurable on the per-packet path — while two
/// rounds give the same run-to-run stability and enough avalanche for
/// arena-index keys. Like everything here it is a pure function of
/// `(DET_SEED, v)`: no process entropy, identical on every host.
#[inline]
pub fn fnv1a_u64(v: u64) -> u64 {
    let mut h = (v ^ DET_SEED).wrapping_mul(FNV_PRIME);
    h ^= h >> 29;
    h = h.wrapping_mul(FNV_PRIME);
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a test vectors (offset basis, no extra seed).
        assert_eq!(fnv1a_bytes(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_bytes(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_bytes(FNV_OFFSET, b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn seeded_hash_is_stable() {
        // The whole point: the same key hashes identically run to run.
        assert_eq!(fnv1a_u64(0), fnv1a_u64(0));
        assert_ne!(fnv1a_u64(1), fnv1a_u64(2));
        // Pin the seed so an accidental change to DET_SEED shows up as a
        // test failure, not as silently perturbed (but still
        // deterministic) traces.
        assert_eq!(DET_SEED, 0x951f_9ce4_4a93_8d25);
    }
}

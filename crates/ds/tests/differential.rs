//! Seeded op-sequence differential fuzz: drive `DetMap`/`DetSet`/`FlowSlab`
//! and the `BTreeMap`/`BTreeSet` reference through identical operation
//! sequences drawn from forked `DetRng` streams, and require observable
//! equivalence at every step — same return values, same lookups, same
//! sorted views. This is the proof obligation behind the hot-path
//! rewiring: anywhere the qdiscs consult a sorted view, DetMap must be
//! indistinguishable from the B-tree it replaced.

use std::collections::{BTreeMap, BTreeSet};

use cebinae_ds::{DetMap, DetSet, FlowSlab};
use cebinae_sim::rng::DetRng;

/// Keys drawn from a small universe so the sequences hit plenty of
/// duplicate-insert / remove-present / re-insert interleavings.
fn arb_key(rng: &mut DetRng, universe: u64) -> u64 {
    rng.gen_range_u64(0, universe)
}

#[test]
fn detmap_matches_btreemap_reference() {
    let mut outer = DetRng::seed_from_u64(0xceb1_ae00_d1ff);
    for case in 0..64u64 {
        let mut rng = outer.fork();
        // Vary the universe so some cases churn a tiny table and others
        // grow through several resizes.
        let universe = [8u64, 64, 512, 4096][(case % 4) as usize];
        let ops = rng.gen_range_usize(50, 800);
        let mut det: DetMap<u64, u64> = DetMap::new();
        let mut reference: BTreeMap<u64, u64> = BTreeMap::new();
        for step in 0..ops {
            let k = arb_key(&mut rng, universe);
            match rng.gen_range_u64(0, 100) {
                // Insert (common case: tables mostly grow).
                0..=44 => {
                    let v = rng.next_u64();
                    assert_eq!(
                        det.insert(k, v),
                        reference.insert(k, v),
                        "case {case} step {step}: insert({k}) return"
                    );
                }
                // Remove.
                45..=69 => {
                    assert_eq!(
                        det.remove(&k),
                        reference.remove(&k),
                        "case {case} step {step}: remove({k}) return"
                    );
                }
                // Point lookup.
                70..=84 => {
                    assert_eq!(
                        det.get(&k),
                        reference.get(&k),
                        "case {case} step {step}: get({k})"
                    );
                }
                // get_or_insert_with == entry().or_insert() semantics.
                85..=92 => {
                    let v = rng.next_u64();
                    let got = *det.get_or_insert_with(k, || v);
                    let want = *reference.entry(k).or_insert(v);
                    assert_eq!(got, want, "case {case} step {step}: or_insert({k})");
                }
                // Sorted view must equal B-tree iteration exactly.
                _ => {
                    let det_view: Vec<(u64, u64)> =
                        det.sorted_iter().map(|(&k, &v)| (k, v)).collect();
                    let ref_view: Vec<(u64, u64)> =
                        reference.iter().map(|(&k, &v)| (k, v)).collect();
                    assert_eq!(det_view, ref_view, "case {case} step {step}: sorted view");
                }
            }
            assert_eq!(det.len(), reference.len(), "case {case} step {step}: len");
        }
        // Terminal state: full observable equivalence.
        let det_view: Vec<(u64, u64)> = det.sorted_iter().map(|(&k, &v)| (k, v)).collect();
        let ref_view: Vec<(u64, u64)> = reference.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(det_view, ref_view, "case {case}: terminal state");
        for k in 0..universe {
            assert_eq!(det.get(&k), reference.get(&k), "case {case}: terminal get({k})");
        }
    }
}

#[test]
fn detmap_retain_matches_reference() {
    let mut outer = DetRng::seed_from_u64(0xceb1_ae00_4e7a);
    for case in 0..32u64 {
        let mut rng = outer.fork();
        let mut det: DetMap<u64, u64> = DetMap::new();
        let mut reference: BTreeMap<u64, u64> = BTreeMap::new();
        for _ in 0..rng.gen_range_usize(10, 300) {
            let k = arb_key(&mut rng, 256);
            let v = rng.next_u64();
            det.insert(k, v);
            reference.insert(k, v);
        }
        let modulus = rng.gen_range_u64(2, 7);
        det.retain(|&k, v| {
            *v = v.wrapping_add(1); // retain hands out &mut V like BTreeMap
            k % modulus != 0
        });
        reference.retain(|&k, v| {
            *v = v.wrapping_add(1);
            k % modulus != 0
        });
        let det_view: Vec<(u64, u64)> = det.sorted_iter().map(|(&k, &v)| (k, v)).collect();
        let ref_view: Vec<(u64, u64)> = reference.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(det_view, ref_view, "case {case}: retain result");
    }
}

#[test]
fn detset_matches_btreeset_reference() {
    let mut outer = DetRng::seed_from_u64(0xceb1_ae00_5e71);
    for case in 0..64u64 {
        let mut rng = outer.fork();
        let universe = [8u64, 128, 2048][(case % 3) as usize];
        let mut det: DetSet<u64> = DetSet::new();
        let mut reference: BTreeSet<u64> = BTreeSet::new();
        for step in 0..rng.gen_range_usize(50, 600) {
            let k = arb_key(&mut rng, universe);
            match rng.gen_range_u64(0, 100) {
                0..=49 => assert_eq!(
                    det.insert(k),
                    reference.insert(k),
                    "case {case} step {step}: insert({k})"
                ),
                50..=74 => assert_eq!(
                    det.remove(&k),
                    reference.remove(&k),
                    "case {case} step {step}: remove({k})"
                ),
                75..=94 => assert_eq!(
                    det.contains(&k),
                    reference.contains(&k),
                    "case {case} step {step}: contains({k})"
                ),
                _ => {
                    let det_view: Vec<u64> = det.sorted_iter().copied().collect();
                    let ref_view: Vec<u64> = reference.iter().copied().collect();
                    assert_eq!(det_view, ref_view, "case {case} step {step}: sorted view");
                }
            }
            assert_eq!(det.len(), reference.len(), "case {case} step {step}: len");
        }
        let det_view: Vec<u64> = det.sorted_iter().copied().collect();
        let ref_view: Vec<u64> = reference.iter().copied().collect();
        assert_eq!(det_view, ref_view, "case {case}: terminal state");
    }
}

#[test]
fn flowslab_matches_map_reference() {
    // Reference model: key -> slot map + slot count, checked against the
    // slab after every op.
    let mut outer = DetRng::seed_from_u64(0xceb1_ae00_51ab);
    for case in 0..48u64 {
        let mut rng = outer.fork();
        let universe = 64u64;
        let mut slab = FlowSlab::new();
        let mut model: BTreeMap<u32, u32> = BTreeMap::new(); // key -> slot
        for step in 0..rng.gen_range_usize(50, 500) {
            let k = arb_key(&mut rng, universe) as u32;
            if rng.gen_bool(0.6) {
                let slot = slab.slot_of(k);
                let fresh = model.len() as u32;
                let want = *model.entry(k).or_insert(fresh);
                assert_eq!(slot, want, "case {case} step {step}: stable slot, fresh ones dense");
            } else {
                assert_eq!(slab.get(k), model.get(&k).copied(), "case {case} step {step}: get");
            }
            assert_eq!(slab.len(), model.len(), "case {case} step {step}: len");
        }
        // Full-state check: every key the model holds maps to its slot.
        for (&key, &slot) in &model {
            assert_eq!(slab.get(key), Some(slot), "case {case}: fwd");
        }
    }
}

#[test]
fn detmap_iteration_is_run_to_run_identical() {
    // Two independently constructed maps fed the same forked stream must
    // agree on the *raw* (unsorted) iteration order too — the property
    // that makes raw iteration safe for order-free accumulation loops.
    let build = |seed: u64| {
        let mut rng = DetRng::seed_from_u64(seed);
        let mut m: DetMap<u64, u64> = DetMap::new();
        for _ in 0..2000 {
            let k = rng.gen_range_u64(0, 1024);
            if rng.gen_bool(0.3) {
                m.remove(&k);
            } else {
                m.insert(k, rng.next_u64());
            }
        }
        m
    };
    let a = build(42);
    let b = build(42);
    let ka: Vec<(u64, u64)> = a.iter().map(|(&k, &v)| (k, v)).collect();
    let kb: Vec<(u64, u64)> = b.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(ka, kb);
}

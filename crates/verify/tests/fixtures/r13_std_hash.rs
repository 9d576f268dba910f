// R13 fixture: std hash collections declared in simulation/dataplane
// crates, even when nobody iterates them.

use std::collections::HashMap;

struct FlowState {
    bytes: HashMap<u32, u64>,
}

fn bad_local_set() {
    let mut seen = std::collections::HashSet::new();
    seen.insert(7u32);
}

fn bad_lookup_only(state: &FlowState, k: u32) -> Option<u64> {
    // Lookup without iteration still counts: the type itself carries the
    // per-process RandomState hazard.
    state.bytes.get(&k).copied()
}

fn waived_interop() -> usize {
    // det-ok: drained into a sorted Vec before anything order-sensitive
    let m: HashMap<u32, u64> = HashMap::new();
    m.len()
}

fn det_types_are_fine() {
    let mut m: cebinae_ds::DetMap<u32, u64> = cebinae_ds::DetMap::new();
    m.insert(1, 2);
    let mut s = cebinae_ds::DetSet::new();
    s.insert(3u32);
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    #[test]
    fn hash_types_in_tests_are_fine() {
        let s: HashSet<u32> = HashSet::new();
        assert_eq!(s.len(), 0);
    }
}

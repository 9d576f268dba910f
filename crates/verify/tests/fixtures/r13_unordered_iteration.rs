// R13 fixture: order-sensitive iteration over unordered containers. R13
// rejects each `HashMap`/`HashSet` where it is named, so no iteration over
// one can reach a simulation crate.

use std::collections::{BTreeMap, HashMap, HashSet};

struct State {
    table: HashMap<u32, u64>,
    members: HashSet<u32>,
    ordered: BTreeMap<u32, u64>,
}

impl State {
    fn bad_iterates_map(&self) -> u64 {
        let mut acc = 0;
        for (_, v) in self.table.iter() {
            acc += v;
        }
        acc
    }

    fn bad_iterates_set(&mut self) {
        self.members.retain(|m| *m > 0);
    }

    fn order_independent_sum(&self) -> u64 {
        self.table.values().sum()
    }

    fn ordered_is_fine(&self) -> u64 {
        self.ordered.values().sum()
    }

    fn lookups_are_fine(&self, k: u32) -> Option<u64> {
        self.table.get(&k).copied()
    }
}

fn bad_local_binding() {
    let mut scratch: HashMap<u32, u64> = HashMap::new();
    scratch.insert(1, 2);
    for (_k, _v) in scratch.iter() {
        // ...
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_in_tests_is_fine() {
        let s: HashSet<u32> = HashSet::new();
        assert_eq!(s.iter().count(), 0);
    }
}

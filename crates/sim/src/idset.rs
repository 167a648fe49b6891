//! A small ordered set of table indices.
//!
//! The driver keeps two of these — live arrived jobs and alive group
//! slots — so its scans visit what is active *now* instead of every
//! slot the run has ever created. Iteration is ascending, which is the
//! order the full-table scans they replace visited the same members in;
//! that is the whole equivalence argument (DESIGN.md §7 "O(active)
//! driver state").
//!
//! Backed by a sorted `Vec`: the sets hold tens of ids, are iterated on
//! every event and mutated on a small fraction of them, and group ids
//! are created in increasing order (insert is a push).

/// Ascending set of `usize` ids.
#[derive(Debug, Clone, Default)]
pub(crate) struct IdSet {
    ids: Vec<usize>,
}

impl IdSet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `id`; a no-op when already present.
    pub fn insert(&mut self, id: usize) {
        // Ids mostly arrive in increasing order: check the tail before
        // searching.
        if self.ids.last().is_none_or(|&last| last < id) {
            self.ids.push(id);
        } else if let Err(at) = self.ids.binary_search(&id) {
            self.ids.insert(at, id);
        }
    }

    /// Removes `id`; a no-op when absent.
    pub fn remove(&mut self, id: usize) {
        if let Ok(at) = self.ids.binary_search(&id) {
            self.ids.remove(at);
        }
    }

    /// The ids, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.ids.iter().copied()
    }

    /// How many ids the set holds.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// The `i`-th smallest id.
    pub fn get(&self, i: usize) -> usize {
        self.ids[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(s: &IdSet) -> Vec<usize> {
        s.iter().collect()
    }

    #[test]
    fn out_of_order_inserts_iterate_ascending() {
        let mut s = IdSet::new();
        for id in [5, 1, 9, 3, 7, 0] {
            s.insert(id);
        }
        assert_eq!(collect(&s), [0, 1, 3, 5, 7, 9]);
    }

    #[test]
    fn duplicate_insert_is_a_no_op() {
        let mut s = IdSet::new();
        s.insert(4);
        s.insert(2);
        s.insert(4);
        s.insert(2);
        assert_eq!(collect(&s), [2, 4]);
    }

    #[test]
    fn remove_keeps_the_rest_in_order() {
        let mut s = IdSet::new();
        for id in 0..6 {
            s.insert(id);
        }
        s.remove(0);
        s.remove(3);
        s.remove(5);
        assert_eq!(collect(&s), [1, 2, 4]);
        s.insert(3);
        assert_eq!(collect(&s), [1, 2, 3, 4]);
    }

    #[test]
    fn remove_absent_is_a_no_op() {
        let mut s = IdSet::new();
        s.remove(7);
        assert_eq!(collect(&s), Vec::<usize>::new());
        s.insert(2);
        s.insert(8);
        s.remove(5);
        s.remove(9);
        assert_eq!(collect(&s), [2, 8]);
    }

    /// Randomized cross-check against `BTreeSet` under a mixed
    /// insert/remove stream.
    #[test]
    fn matches_btreeset_under_random_churn() {
        let mut s = IdSet::new();
        let mut model = std::collections::BTreeSet::new();
        let mut z = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..4_000 {
            z ^= z << 13;
            z ^= z >> 7;
            z ^= z << 17;
            let id = (z % 64) as usize;
            if z & (1 << 40) == 0 {
                s.insert(id);
                model.insert(id);
            } else {
                s.remove(id);
                model.remove(&id);
            }
            assert!(s.iter().eq(model.iter().copied()));
        }
    }
}

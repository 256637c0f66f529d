/// A weighted set cover instance.
///
/// Elements are `0..universe_size`; each set has a positive weight and a
/// list of elements it covers.
#[derive(Clone, Debug)]
pub struct CoverInstance {
    universe: usize,
    weights: Vec<i64>,
    sets: Vec<Vec<usize>>,
    /// For each element, the sets covering it.
    covered_by: Vec<Vec<usize>>,
}

impl CoverInstance {
    /// Builds an instance from `(weight, elements)` pairs.
    ///
    /// Duplicate elements within one set are deduplicated.
    ///
    /// # Panics
    ///
    /// Panics if any weight is non-positive or an element is out of range.
    pub fn new(universe_size: usize, sets: Vec<(i64, Vec<usize>)>) -> Self {
        let mut weights = Vec::with_capacity(sets.len());
        let mut lists = Vec::with_capacity(sets.len());
        let mut covered_by = vec![Vec::new(); universe_size];
        for (i, (w, mut elems)) in sets.into_iter().enumerate() {
            assert!(w > 0, "set weights must be positive (set {i} has {w})");
            elems.sort_unstable();
            elems.dedup();
            for &e in &elems {
                assert!(e < universe_size, "element {e} out of range in set {i}");
                covered_by[e].push(i);
            }
            weights.push(w);
            lists.push(elems);
        }
        CoverInstance {
            universe: universe_size,
            weights,
            sets: lists,
            covered_by,
        }
    }

    /// Number of elements in the universe.
    pub fn universe_size(&self) -> usize {
        self.universe
    }

    /// Number of candidate sets.
    pub fn set_count(&self) -> usize {
        self.sets.len()
    }

    /// Weight of a set.
    pub fn weight(&self, set: usize) -> i64 {
        self.weights[set]
    }

    /// Elements covered by a set.
    pub fn elements(&self, set: usize) -> &[usize] {
        &self.sets[set]
    }

    /// Sets covering an element.
    pub(crate) fn covering_sets(&self, element: usize) -> &[usize] {
        &self.covered_by[element]
    }

    /// Whether every element is covered by at least one set.
    pub fn is_coverable(&self) -> bool {
        self.covered_by.iter().all(|s| !s.is_empty())
    }
}

/// A (not necessarily optimal) solution to a [`CoverInstance`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoverSolution {
    /// Indices of the chosen sets, ascending.
    pub chosen: Vec<usize>,
    /// Total weight of the chosen sets.
    pub weight: i64,
}

impl CoverSolution {
    /// Creates a solution from chosen set indices, computing the weight.
    pub(crate) fn from_sets(inst: &CoverInstance, mut chosen: Vec<usize>) -> Self {
        chosen.sort_unstable();
        chosen.dedup();
        let weight = chosen.iter().map(|&s| inst.weight(s)).sum();
        CoverSolution { chosen, weight }
    }

    /// Whether the chosen sets cover the whole universe.
    pub fn is_feasible(&self, inst: &CoverInstance) -> bool {
        let mut covered = vec![false; inst.universe_size()];
        for &s in &self.chosen {
            for &e in inst.elements(s) {
                covered[e] = true;
            }
        }
        covered.into_iter().all(|c| c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_and_lookup() {
        let inst = CoverInstance::new(3, vec![(4, vec![0, 0, 2]), (2, vec![1])]);
        assert_eq!(inst.elements(0), &[0, 2]);
        assert_eq!(inst.covering_sets(1), &[1]);
        assert!(inst.is_coverable());
    }

    #[test]
    fn uncoverable_detected() {
        let inst = CoverInstance::new(2, vec![(1, vec![0])]);
        assert!(!inst.is_coverable());
    }

    #[test]
    fn solution_feasibility() {
        let inst = CoverInstance::new(2, vec![(1, vec![0]), (1, vec![1])]);
        let sol = CoverSolution::from_sets(&inst, vec![0, 1, 1]);
        assert!(sol.is_feasible(&inst));
        assert_eq!(sol.weight, 2);
        let partial = CoverSolution::from_sets(&inst, vec![0]);
        assert!(!partial.is_feasible(&inst));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_elements() {
        CoverInstance::new(1, vec![(1, vec![3])]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_bad_weights() {
        CoverInstance::new(1, vec![(0, vec![0])]);
    }
}

/// A classic disjoint-set forest with path halving and union by size.
///
/// ```
/// use aapsm_graph::UnionFind;
/// let mut uf = UnionFind::new(4);
/// assert!(uf.union(0, 1));
/// assert!(!uf.union(1, 0)); // already joined
/// assert_eq!(uf.find(0), uf.find(1));
/// assert_ne!(uf.find(0), uf.find(2));
/// ```
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] as usize != x {
            self.parent[x] = self.parent[self.parent[x] as usize];
            x = self.parent[x] as usize;
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns whether a merge happened.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra as u32;
        self.size[ra] += self.size[rb];
        true
    }
}

/// A disjoint-set forest that also tracks the parity (same / opposite) of
/// each element relative to its set representative.
///
/// This is the engine behind both the independent phase-assignability
/// checker and the greedy parity-aware bipartization baseline: a *same
/// phase* constraint is a union with relation `0`, an *opposite phase*
/// constraint a union with relation `1`; a constraint that contradicts the
/// recorded parity certifies an odd cycle.
///
/// ```
/// use aapsm_graph::ParityUnionFind;
/// let mut uf = ParityUnionFind::new(3);
/// assert!(uf.union(0, 1, 1).is_ok()); // 0 and 1 differ
/// assert!(uf.union(1, 2, 1).is_ok()); // 1 and 2 differ
/// assert!(uf.union(0, 2, 1).is_err()); // 0 and 2 must be equal: odd cycle
/// assert_eq!(uf.relation(0, 2), Some(0));
/// ```
#[derive(Clone, Debug)]
pub struct ParityUnionFind {
    parent: Vec<u32>,
    /// Parity of the element relative to its parent.
    parity: Vec<u8>,
    size: Vec<u32>,
}

/// Error returned by [`ParityUnionFind::union`] when a constraint
/// contradicts the already-recorded relation between the two elements.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParityConflict {
    /// The relation that was already implied between the two elements.
    pub existing_relation: u8,
}

impl std::fmt::Display for ParityConflict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "parity constraint contradicts existing relation {}",
            self.existing_relation
        )
    }
}

impl std::error::Error for ParityConflict {}

impl ParityUnionFind {
    /// Creates `n` singleton sets with parity 0.
    pub fn new(n: usize) -> Self {
        ParityUnionFind {
            parent: (0..n as u32).collect(),
            parity: vec![0; n],
            size: vec![1; n],
        }
    }

    /// Returns `(representative, parity of x relative to it)`.
    pub fn find(&mut self, x: usize) -> (usize, u8) {
        if self.parent[x] as usize == x {
            return (x, 0);
        }
        let (root, par_parent) = self.find(self.parent[x] as usize);
        self.parent[x] = root as u32;
        self.parity[x] ^= par_parent;
        (root, self.parity[x])
    }

    /// Records the constraint `parity(a) XOR parity(b) == relation`
    /// (`0` = same, `1` = opposite).
    ///
    /// Returns `Ok(true)` if two sets were merged, `Ok(false)` if the
    /// constraint was already implied.
    ///
    /// # Errors
    ///
    /// Returns [`ParityConflict`] when the constraint contradicts the
    /// relation already implied between `a` and `b` (i.e. it would close an
    /// odd cycle in the constraint graph).
    pub fn union(&mut self, a: usize, b: usize, relation: u8) -> Result<bool, ParityConflict> {
        debug_assert!(relation <= 1);
        let (ra, pa) = self.find(a);
        let (rb, pb) = self.find(b);
        if ra == rb {
            let existing = pa ^ pb;
            return if existing == relation {
                Ok(false)
            } else {
                Err(ParityConflict {
                    existing_relation: existing,
                })
            };
        }
        let (big, small, par_small) = if self.size[ra] >= self.size[rb] {
            // parity of rb relative to ra: pa ^ pb ^ relation
            (ra, rb, pa ^ pb ^ relation)
        } else {
            (rb, ra, pa ^ pb ^ relation)
        };
        self.parent[small] = big as u32;
        self.parity[small] = par_small;
        self.size[big] += self.size[small];
        Ok(true)
    }

    /// The implied relation between `a` and `b` (`0` same, `1` opposite),
    /// or `None` if they are in different sets.
    pub fn relation(&mut self, a: usize, b: usize) -> Option<u8> {
        let (ra, pa) = self.find(a);
        let (rb, pb) = self.find(b);
        (ra == rb).then_some(pa ^ pb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(6);
        assert!(uf.union(0, 1));
        assert!(uf.union(2, 3));
        assert!(uf.union(0, 3));
        assert_eq!(uf.find(1), uf.find(2));
        assert_ne!(uf.find(1), uf.find(4));
    }

    #[test]
    fn parity_even_cycle_is_fine() {
        let mut uf = ParityUnionFind::new(4);
        uf.union(0, 1, 1).unwrap();
        uf.union(1, 2, 1).unwrap();
        uf.union(2, 3, 1).unwrap();
        // 0-3 differ by 1^1^1 = 1; closing with relation 1 is consistent.
        assert_eq!(uf.union(3, 0, 1), Ok(false));
        assert_eq!(uf.relation(0, 2), Some(0));
    }

    #[test]
    fn parity_odd_cycle_detected() {
        let mut uf = ParityUnionFind::new(3);
        uf.union(0, 1, 1).unwrap();
        uf.union(1, 2, 1).unwrap();
        let err = uf.union(2, 0, 1).unwrap_err();
        assert_eq!(err.existing_relation, 0);
    }

    #[test]
    fn mixed_relations() {
        let mut uf = ParityUnionFind::new(5);
        uf.union(0, 1, 0).unwrap(); // same
        uf.union(1, 2, 1).unwrap(); // diff
        uf.union(3, 4, 0).unwrap();
        uf.union(2, 3, 0).unwrap();
        assert_eq!(uf.relation(0, 4), Some(1));
        assert_eq!(uf.relation(0, 1), Some(0));
        assert!(uf.union(0, 4, 0).is_err());
    }

    #[test]
    fn deep_chain_path_compression() {
        let n = 10_000;
        let mut uf = ParityUnionFind::new(n);
        for i in 0..n - 1 {
            uf.union(i, i + 1, 1).unwrap();
        }
        assert_eq!(uf.relation(0, n - 1), Some(((n - 1) % 2) as u8));
    }
}

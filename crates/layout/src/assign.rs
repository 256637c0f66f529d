//! Independent phase-assignability oracle.
//!
//! This checker propagates the raw phase constraints (opposite phase
//! across each critical feature, same phase for each merged shifter pair)
//! through a small parity union-find of its own. It deliberately shares no
//! code with the conflict-graph pipeline in `aapsm-core`, so the two can
//! cross-validate each other: a layout is phase-assignable here **iff**
//! the phase conflict graph (and the feature graph) is bipartite.

use crate::PhaseGeometry;

/// A satisfying phase assignment (0 or 180 degrees per shifter).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseAssignment {
    /// Phase bit per shifter index (0 = 0°, 1 = 180°).
    pub phase: Vec<u8>,
}

impl PhaseAssignment {
    /// Whether the assignment satisfies all constraints of `geom`.
    pub fn satisfies(&self, geom: &PhaseGeometry) -> bool {
        for f in &geom.features {
            if let Some((lo, hi)) = f.shifters {
                if self.phase[lo] == self.phase[hi] {
                    return false;
                }
            }
        }
        geom.overlaps
            .iter()
            .all(|o| self.phase[o.a] == self.phase[o.b])
    }
}

/// Why a layout is not phase-assignable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AssignabilityWitness {
    /// A feature's two shifters are also forced to the same phase.
    DirectConflict {
        /// The contradicted feature.
        feature: usize,
    },
    /// Adding this merge constraint closed an odd constraint cycle.
    OddCycle {
        /// Index into [`PhaseGeometry::overlaps`] of the violating pair.
        overlap_index: usize,
    },
}

/// Checks phase-assignability by constraint propagation.
///
/// # Errors
///
/// Returns the first contradiction encountered (deterministically:
/// flanking constraints first, then overlap constraints in order).
pub fn check_assignable(geom: &PhaseGeometry) -> Result<PhaseAssignment, AssignabilityWitness> {
    propagate(geom, |_| false)
}

/// [`check_assignable`] over `geom`'s constraints less the overlaps
/// `skip` names (by index into [`PhaseGeometry::overlaps`]).
pub(crate) fn propagate(
    geom: &PhaseGeometry,
    skip: impl Fn(usize) -> bool,
) -> Result<PhaseAssignment, AssignabilityWitness> {
    if let Some(d) = geom.direct_conflicts.first() {
        return Err(AssignabilityWitness::DirectConflict { feature: d.feature });
    }
    let n = geom.shifters.len();
    let mut uf = Puf::new(n);
    for (fi, f) in geom.features.iter().enumerate() {
        if let Some((lo, hi)) = f.shifters {
            if uf.union(lo, hi, 1).is_err() {
                // Cannot happen without a prior merge constraint, but keep
                // the arm for safety.
                return Err(AssignabilityWitness::DirectConflict { feature: fi });
            }
        }
    }
    for (oi, o) in geom.overlaps.iter().enumerate() {
        if !skip(oi) && uf.union(o.a, o.b, 0).is_err() {
            return Err(AssignabilityWitness::OddCycle { overlap_index: oi });
        }
    }
    // Extract one concrete assignment: parity relative to each root.
    let mut phase = vec![0u8; n];
    for (s, ph) in phase.iter_mut().enumerate() {
        let (_, p) = uf.find(s);
        *ph = p;
    }
    Ok(PhaseAssignment { phase })
}

/// Minimal parity union-find, local to this oracle on purpose.
struct Puf {
    parent: Vec<usize>,
    parity: Vec<u8>,
}

impl Puf {
    fn new(n: usize) -> Self {
        Puf {
            parent: (0..n).collect(),
            parity: vec![0; n],
        }
    }

    fn find(&mut self, x: usize) -> (usize, u8) {
        if self.parent[x] == x {
            return (x, 0);
        }
        let (root, pp) = self.find(self.parent[x]);
        self.parent[x] = root;
        self.parity[x] ^= pp;
        (root, self.parity[x])
    }

    fn union(&mut self, a: usize, b: usize, rel: u8) -> Result<(), ()> {
        let (ra, pa) = self.find(a);
        let (rb, pb) = self.find(b);
        if ra == rb {
            return if pa ^ pb == rel { Ok(()) } else { Err(()) };
        }
        self.parent[rb] = ra;
        self.parity[rb] = pa ^ pb ^ rel;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{extract_phase_geometry, DesignRules, Layout};
    use aapsm_geom::Rect;

    #[test]
    fn single_wire_is_assignable() {
        let l = Layout::from_rects(vec![Rect::new(0, 0, 100, 1000)]);
        let g = extract_phase_geometry(&l, &DesignRules::default());
        let a = check_assignable(&g).unwrap();
        assert!(a.satisfies(&g));
        assert_ne!(a.phase[0], a.phase[1]);
    }

    #[test]
    fn row_of_wires_alternates() {
        // Wires at pitch 600: chain of facing-shifter merges. Assignable.
        let rects: Vec<Rect> = (0..6)
            .map(|i| Rect::new(i * 600, 0, i * 600 + 100, 2000))
            .collect();
        let g = extract_phase_geometry(&Layout::from_rects(rects), &DesignRules::default());
        assert!(!g.overlaps.is_empty());
        let a = check_assignable(&g).unwrap();
        assert!(a.satisfies(&g));
    }

    #[test]
    fn gate_over_strap_is_not_assignable() {
        let strap = Rect::new(-1000, 0, 1000, 100);
        let gate = Rect::new(-50, 500, 50, 1500);
        let g = extract_phase_geometry(
            &Layout::from_rects(vec![strap, gate]),
            &DesignRules::default(),
        );
        let err = check_assignable(&g).unwrap_err();
        assert!(matches!(err, AssignabilityWitness::OddCycle { .. }));
    }

    #[test]
    fn witness_overlap_really_closes_odd_cycle() {
        let strap = Rect::new(-1000, 0, 1000, 100);
        let gate = Rect::new(-50, 500, 50, 1500);
        let mut g = extract_phase_geometry(
            &Layout::from_rects(vec![strap, gate]),
            &DesignRules::default(),
        );
        let AssignabilityWitness::OddCycle { overlap_index } = check_assignable(&g).unwrap_err()
        else {
            panic!("expected odd cycle");
        };
        // Removing the witness constraint restores assignability (for this
        // two-feature example).
        g.overlaps.remove(overlap_index);
        assert!(check_assignable(&g).is_ok());
    }
}

//! Cell/instance hierarchy: unique masters plus placed references.
//!
//! Real chips are not flat polygon soup — they are a DAG of cells, each
//! instantiated many times under a [`Placement`] (translation plus a
//! 90°-multiple rotation and optional reflection, per GDSII
//! `SREF`/`AREF`/`STRANS`). A [`HierLayout`] holds the unique [`Cell`]
//! masters and the reference structure; [`HierLayout::flatten`] expands it
//! deterministically into a flat [`Layout`] (a cell's own rects first,
//! then each instance's subtree in declaration order, depth first).
//!
//! [`HierLayout::sanitize`] extends the flat sanitization discipline with
//! the failure modes hierarchy introduces: dangling cell references,
//! instance-reference cycles, placements that push geometry out of the
//! representable coordinate range, and expansion blow-ups — each a
//! structured [`LayoutError`], never a panic or silent truncation.

use crate::layout::{Layout, LayoutError};
use crate::placement::Placement;
use crate::rules::DesignRules;
use aapsm_geom::Rect;

/// A placed reference to another cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Instance {
    /// Index of the referenced cell in [`HierLayout::cells`].
    pub cell: usize,
    /// Transform from the referenced cell's coordinates into this cell's.
    pub placement: Placement,
}

/// A unique cell master: its own geometry plus placed sub-cells.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Cell {
    /// Structure name (GDSII `STRNAME`); must be unique per hierarchy for
    /// stream round-trips.
    pub name: String,
    /// The cell's own polysilicon rectangles, in master coordinates.
    pub rects: Vec<Rect>,
    /// Placed sub-cells, expanded in order after the own rects.
    pub instances: Vec<Instance>,
}

impl Cell {
    /// Creates an empty cell with the given name.
    pub fn new(name: impl Into<String>) -> Cell {
        Cell {
            name: name.into(),
            rects: Vec::new(),
            instances: Vec::new(),
        }
    }
}

/// A hierarchical layout: unique cells plus a designated top.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HierLayout {
    /// The cell table; instances reference cells by index into it.
    pub cells: Vec<Cell>,
    /// Index of the top (root) cell; `None` for an empty hierarchy.
    pub top: Option<usize>,
}

impl HierLayout {
    /// Hard cap on the flattened rectangle count: a corrupt or
    /// adversarial stream (e.g. a byte-flipped `COLROW`) must produce a
    /// structured error, not an out-of-memory expansion.
    pub const MAX_FLATTENED_RECTS: u64 = 1 << 24;

    /// Creates an empty hierarchy.
    pub fn new() -> HierLayout {
        HierLayout::default()
    }

    /// Adds a cell and returns its index.
    pub fn add_cell(&mut self, cell: Cell) -> usize {
        self.cells.push(cell);
        self.cells.len() - 1
    }

    /// Checks reference integrity over **all** cells (not just those
    /// reachable from the top): every instance must name a cell in the
    /// table and the reference graph must be a DAG. Returns the cells in
    /// a topological order (every cell after all cells it instantiates).
    ///
    /// # Errors
    ///
    /// [`LayoutError::UnknownCell`] on a dangling reference (including an
    /// out-of-range `top`, reported with `instance = 0`);
    /// [`LayoutError::InstanceCycle`] when a cell transitively
    /// instantiates itself.
    pub fn validate_refs(&self) -> Result<Vec<usize>, LayoutError> {
        if let Some(top) = self.top {
            if top >= self.cells.len() {
                return Err(LayoutError::UnknownCell {
                    cell: top,
                    instance: 0,
                });
            }
        }
        for (ci, cell) in self.cells.iter().enumerate() {
            for (ii, inst) in cell.instances.iter().enumerate() {
                if inst.cell >= self.cells.len() {
                    return Err(LayoutError::UnknownCell {
                        cell: ci,
                        instance: ii,
                    });
                }
            }
        }
        // Iterative three-color DFS over every cell; gray-hit = cycle.
        const WHITE: u8 = 0;
        const GRAY: u8 = 1;
        const BLACK: u8 = 2;
        let mut color = vec![WHITE; self.cells.len()];
        let mut order = Vec::with_capacity(self.cells.len());
        for root in 0..self.cells.len() {
            if color[root] != WHITE {
                continue;
            }
            // (cell, next child index to visit)
            let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
            color[root] = GRAY;
            while let Some(&mut (c, ref mut next)) = stack.last_mut() {
                if let Some(inst) = self.cells[c].instances.get(*next) {
                    *next += 1;
                    match color[inst.cell] {
                        WHITE => {
                            color[inst.cell] = GRAY;
                            stack.push((inst.cell, 0));
                        }
                        GRAY => return Err(LayoutError::InstanceCycle { cell: inst.cell }),
                        _ => {}
                    }
                } else {
                    color[c] = BLACK;
                    order.push(c);
                    stack.pop();
                }
            }
        }
        Ok(order)
    }

    /// The number of rectangles [`Self::flatten`] would produce,
    /// saturating at `u64::MAX`.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::validate_refs`] errors.
    pub fn flattened_len(&self) -> Result<u64, LayoutError> {
        self.expanded_total(|cell| cell.rects.len())
    }

    /// The number of placed-cell occurrences below the top cell, at all
    /// depths, saturating at `u64::MAX`.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::validate_refs`] errors.
    pub fn placed_instances(&self) -> Result<u64, LayoutError> {
        self.expanded_total(|cell| cell.instances.len())
    }

    /// Sums `own` over every placed occurrence of every cell in the
    /// expansion of the top cell (the top cell included), by a DP in
    /// topological order.
    fn expanded_total(&self, own: impl Fn(&Cell) -> usize) -> Result<u64, LayoutError> {
        let order = self.validate_refs()?;
        let mut counts = vec![0u64; self.cells.len()];
        for c in order {
            let mut n = own(&self.cells[c]) as u64;
            for inst in &self.cells[c].instances {
                n = n.saturating_add(counts[inst.cell]);
            }
            counts[c] = n;
        }
        Ok(self.top.map(|t| counts[t]).unwrap_or(0))
    }

    /// Flattens the hierarchy into a flat [`Layout`].
    ///
    /// Deterministic expansion order: a cell's own rects first, then each
    /// instance's subtree in declaration order, depth first.
    ///
    /// # Errors
    ///
    /// Everything [`Self::validate_refs`] reports, plus
    /// [`LayoutError::HierarchyTooLarge`] past
    /// [`Self::MAX_FLATTENED_RECTS`] and
    /// [`LayoutError::PlacementOutOfRange`] when a composed placement
    /// overflows `i64` coordinates.
    pub fn flatten(&self) -> Result<Layout, LayoutError> {
        let total = self.flattened_len()?;
        if total > Self::MAX_FLATTENED_RECTS {
            return Err(LayoutError::HierarchyTooLarge { flattened: total });
        }
        let Some(top) = self.top else {
            return Ok(Layout::new());
        };
        let mut rects: Vec<Rect> = Vec::with_capacity(total as usize);
        // (cell, absolute placement, (parent cell, instance index) for
        // error attribution — `None` for the top cell). Children are
        // pushed in reverse so they pop in declaration order.
        let mut stack = vec![(top, Placement::IDENTITY, None)];
        while let Some((cell, abs, via)) = stack.pop() {
            let master = &self.cells[cell];
            for r in &master.rects {
                let Some(img) = abs.try_apply_rect(r) else {
                    let (c, i) = via.unwrap_or((cell, 0));
                    return Err(LayoutError::PlacementOutOfRange {
                        cell: c,
                        instance: i,
                    });
                };
                rects.push(img);
            }
            for (ii, inst) in master.instances.iter().enumerate().rev() {
                let Some(child_abs) = abs.try_compose(&inst.placement) else {
                    return Err(LayoutError::PlacementOutOfRange { cell, instance: ii });
                };
                stack.push((inst.cell, child_abs, Some((cell, ii))));
            }
        }
        Ok(Layout::from_rects(rects))
    }

    /// The hierarchy-aware extension of [`Layout::sanitize`]: reference
    /// integrity and expansion bounds first (over **all** cells, so a
    /// dormant cycle in an unreferenced branch still surfaces), then the
    /// flat discipline on the expanded geometry.
    ///
    /// # Errors
    ///
    /// The first error found, hierarchy checks before flat ones.
    pub fn sanitize(&self, rules: &DesignRules) -> Result<(), LayoutError> {
        let flat = self.flatten()?;
        flat.sanitize(rules)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::{Orient, Rot};

    fn leaf(name: &str, rects: &[Rect]) -> Cell {
        Cell {
            name: name.into(),
            rects: rects.to_vec(),
            instances: Vec::new(),
        }
    }

    #[test]
    fn flatten_order_is_rects_then_instances_depth_first() {
        let mut h = HierLayout::new();
        let a = h.add_cell(leaf("A", &[Rect::new(0, 0, 10, 10)]));
        let b = h.add_cell(Cell {
            name: "B".into(),
            rects: vec![Rect::new(0, 0, 5, 5)],
            instances: vec![Instance {
                cell: a,
                placement: Placement::at(100, 0),
            }],
        });
        let t = h.add_cell(Cell {
            name: "T".into(),
            rects: vec![Rect::new(-50, -50, -40, -40)],
            instances: vec![
                Instance {
                    cell: b,
                    placement: Placement::at(0, 1000),
                },
                Instance {
                    cell: a,
                    placement: Placement::at(0, 2000),
                },
            ],
        });
        h.top = Some(t);
        let flat = h.flatten().expect("flattens");
        assert_eq!(
            flat.rects(),
            vec![
                Rect::new(-50, -50, -40, -40),   // top's own rect
                Rect::new(0, 1000, 5, 1005),     // B's own rect
                Rect::new(100, 1000, 110, 1010), // A via B
                Rect::new(0, 2000, 10, 2010),    // A directly
            ]
        );
        assert_eq!(h.flattened_len().expect("valid"), 4);
        // B, A via B, A directly.
        assert_eq!(h.placed_instances().expect("valid"), 3);
    }

    #[test]
    fn rotated_instance_flattens_through_the_placement() {
        let mut h = HierLayout::new();
        let a = h.add_cell(leaf("A", &[Rect::new(2, 1, 10, 4)]));
        let t = h.add_cell(Cell {
            name: "T".into(),
            rects: vec![],
            instances: vec![Instance {
                cell: a,
                placement: Placement::new(Orient::rotated(Rot::R90), 1000, 500),
            }],
        });
        h.top = Some(t);
        let flat = h.flatten().expect("flattens");
        assert_eq!(flat.rects(), vec![Rect::new(996, 502, 999, 510)]);
    }

    #[test]
    fn cycle_is_a_structured_error_even_when_unreachable() {
        let mut h = HierLayout::new();
        let a = h.add_cell(Cell {
            name: "A".into(),
            rects: vec![],
            instances: vec![],
        });
        let t = h.add_cell(leaf("T", &[Rect::new(0, 0, 10, 10)]));
        h.top = Some(t);
        // Self-loop on A, which the top never references.
        h.cells[a].instances.push(Instance {
            cell: a,
            placement: Placement::IDENTITY,
        });
        assert_eq!(
            h.sanitize(&DesignRules::default()),
            Err(LayoutError::InstanceCycle { cell: a })
        );
    }

    #[test]
    fn dangling_reference_is_reported() {
        let mut h = HierLayout::new();
        let t = h.add_cell(Cell {
            name: "T".into(),
            rects: vec![],
            instances: vec![Instance {
                cell: 7,
                placement: Placement::IDENTITY,
            }],
        });
        h.top = Some(t);
        assert_eq!(
            h.flatten().map(|_| ()),
            Err(LayoutError::UnknownCell {
                cell: t,
                instance: 0
            })
        );
    }

    #[test]
    fn out_of_range_placement_is_reported() {
        let mut h = HierLayout::new();
        let a = h.add_cell(leaf("A", &[Rect::new(0, 0, 10, 10)]));
        let t = h.add_cell(Cell {
            name: "T".into(),
            rects: vec![],
            instances: vec![Instance {
                cell: a,
                placement: Placement::at(i64::MAX - 2, 0),
            }],
        });
        h.top = Some(t);
        assert_eq!(
            h.flatten().map(|_| ()),
            Err(LayoutError::PlacementOutOfRange {
                cell: t,
                instance: 0
            })
        );
    }

    #[test]
    fn expansion_cap_is_enforced() {
        // Doubling chain: 40 levels × 2 instances ≈ 2^40 rects.
        let mut h = HierLayout::new();
        let mut prev = h.add_cell(leaf("L0", &[Rect::new(0, 0, 1, 1)]));
        for i in 1..=40 {
            let c = h.add_cell(Cell {
                name: format!("L{i}"),
                rects: vec![],
                instances: vec![
                    Instance {
                        cell: prev,
                        placement: Placement::at(0, 0),
                    },
                    Instance {
                        cell: prev,
                        placement: Placement::at(1 << i, 0),
                    },
                ],
            });
            prev = c;
        }
        h.top = Some(prev);
        match h.flatten() {
            Err(LayoutError::HierarchyTooLarge { flattened }) => {
                assert!(flattened > HierLayout::MAX_FLATTENED_RECTS);
            }
            other => panic!("expected HierarchyTooLarge, got {other:?}"),
        }
    }
}

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
//!
//! # Sanitizing without flattening
//!
//! [`HierLayout::split_top`] groups the top cell's direct instances into
//! `(cell, orientation)` classes: a class's rects are its first
//! placement's, and every other placement is them plus an offset. The
//! flat checks of [`Layout::sanitize`] (every rect non-empty and within
//! the coordinate limit, no two rects equal) then follow from facts
//! checked once per class, not once per placement:
//!
//! 1. each class's rects are non-empty and no two of them are equal; a
//!    translation keeps both, so every placement's rects are too;
//! 2. each placement's class bounding box, shifted by its offset, is
//!    within the limit, so every rect inside it is;
//! 3. the top cell's own rects pass the flat checks among themselves;
//! 4. no rect of one placement equals a rect of another placement or a
//!    top rect. An equal pair of positive area lies inside both parts'
//!    boxes, so only parts whose boxes overlap with positive area can
//!    hold one. A [`GridIndex`] over the boxes, each half-open rect
//!    mapped to the inclusive box `(x_lo, y_lo, x_hi − 1, y_hi − 1)`,
//!    finds those pairs: two such boxes touch exactly when the rects
//!    overlap with positive area. A top rect is looked up in the
//!    placement's class, and two placements are searched only for rects
//!    inside their boxes' intersection, by a query of a [`GridIndex`]
//!    over the class's rects. (1) and (3) rule out the pairs within one
//!    part.
//!
//! When all four hold, the flat layout passes. When one fails, or the
//! search for (4) would make more pair tests and window hits than the
//! flat layout has rects plus four per box (a stack of mutually
//! overlapping placements, say), [`HierLayout::sanitize`] flattens and
//! runs the flat checks, so its error is the flat one by construction.
//! The grids bound their own size, so one huge box among small ones
//! coarsens the search instead of ending it.

use std::collections::HashMap;

use crate::layout::{check_rect, rects_pass_sanitize, sanitize_limit, Layout, LayoutError};
use crate::placement::{Orient, Placement};
use crate::rules::DesignRules;
use aapsm_geom::{GridIndex, Point, Rect};

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

/// [`HierLayout::flatten`] split at the top cell's direct instances,
/// which are grouped into classes by `(cell, orientation)`.
///
/// A class's rects are the flattened subtree of its first placement.
/// Every other placement of the same cell and orientation flattens to
/// those rects translated by its offset, since only the translation
/// differs; a placement whose offset from the class's first placement
/// overflows `i64` starts a class of its own.
#[derive(Debug, Default)]
pub struct TopSplit {
    /// The top cell's own rects (they come first in the flat order).
    pub own_rects: Vec<Rect>,
    /// Per class: the rects of its first placement, in
    /// [`HierLayout::flatten`] order.
    pub classes: Vec<Vec<Rect>>,
    /// Per instance of the top cell, in declaration order: its class and
    /// the offset from the class's rects to its own.
    pub placed: Vec<(usize, Point)>,
}

impl TopSplit {
    /// Whether the flat layout passes [`Layout::sanitize`], proved from
    /// the per-class facts of the module docs; `false` means "not
    /// proved", not "fails". The overlap search counts its box-pair tests
    /// before it makes them ([`GridIndex::pair_tests`]) and then each
    /// rect a window query reports; it gives up, and so proves nothing,
    /// once the count passes the flat layout's rects plus four per box.
    /// Its grids hold at most `max(4 × boxes, 2^20)` entries each.
    fn proves_sanitized(&self, rules: &DesignRules) -> bool {
        let limit = sanitize_limit(rules);
        if !rects_pass_sanitize(&self.own_rects, limit) {
            return false;
        }
        let mut bboxes = Vec::with_capacity(self.classes.len());
        for rects in &self.classes {
            if !rects_pass_sanitize(rects, limit) {
                return false;
            }
            bboxes.push(rects.iter().copied().reduce(|a, b| a.hull(&b)));
        }
        // The placements with rects, then the top rects: each a box.
        let mut parts = Vec::with_capacity(self.placed.len());
        let mut boxes = Vec::with_capacity(self.placed.len() + self.own_rects.len());
        let mut flat_len = self.own_rects.len() as u64;
        for &(class, d) in &self.placed {
            // The shift cannot overflow: it is the bounding box of the
            // placement's own rects, which `split_top` placed in range.
            let Some(b) = bboxes[class].map(|b| b.shift(d.x, d.y)) else {
                continue;
            };
            if check_rect(0, &b, limit).is_err() {
                return false;
            }
            flat_len += self.classes[class].len() as u64;
            parts.push((class, d));
            boxes.push(b);
        }
        boxes.extend_from_slice(&self.own_rects);
        let keys: Vec<_> = boxes.iter().map(inclusive).collect();
        let grid = GridIndex::build(GridIndex::cell_for(&keys), keys);
        let mut budget = flat_len + 4 * boxes.len() as u64;
        if charge(&mut budget, grid.pair_tests()).is_none() {
            return false;
        }
        let mut pairs = Vec::new();
        grid.for_each_candidate_pair(|i, j| pairs.push((i as usize, j as usize)));
        let classes: Vec<ClassRects> = if pairs.is_empty() {
            Vec::new()
        } else {
            self.classes.iter().map(|c| ClassRects::new(c)).collect()
        };
        let mut hits = Vec::new();
        for (i, j) in pairs {
            let Some(&(ci, di)) = parts.get(i) else {
                continue; // two top rects, checked among themselves above
            };
            let Some(&(cj, dj)) = parts.get(j) else {
                // A top rect over placement `i`: equal only to itself.
                if classes[ci].contains(&boxes[j].shift(-di.x, -di.y)) {
                    return false;
                }
                continue;
            };
            // Two placements: an equal pair lies inside both boxes.
            let Some(common) = boxes[i].intersection(&boxes[j]) else {
                continue;
            };
            let window = common.shift(-di.x, -di.y);
            hits.clear();
            classes[ci]
                .grid
                .query(inclusive(&window), |k| hits.push(k as usize));
            if charge(&mut budget, hits.len() as u64).is_none() {
                return false;
            }
            for &k in &hits {
                let r = self.classes[ci][k];
                if window.intersection(&r) == Some(r)
                    && classes[cj].contains(&r.shift(di.x - dj.x, di.y - dj.y))
                {
                    return false;
                }
            }
        }
        true
    }
}

/// A class's rects, sorted by [`Rect`]'s order for membership tests and
/// indexed in their own order for window searches.
struct ClassRects {
    sorted: Vec<Rect>,
    grid: GridIndex,
}

impl ClassRects {
    fn new(rects: &[Rect]) -> ClassRects {
        let mut sorted = rects.to_vec();
        sorted.sort_unstable();
        let keys: Vec<_> = rects.iter().map(inclusive).collect();
        let grid = GridIndex::build(GridIndex::cell_for(&keys), keys);
        ClassRects { sorted, grid }
    }

    fn contains(&self, r: &Rect) -> bool {
        self.sorted.binary_search(r).is_ok()
    }
}

/// Takes `n` steps from `budget`; `None` when fewer are left.
fn charge(budget: &mut u64, n: u64) -> Option<()> {
    *budget = budget.checked_sub(n)?;
    Some(())
}

/// The inclusive box of a half-open rect: two rects overlap with
/// positive area exactly when their boxes touch.
fn inclusive(r: &Rect) -> (i64, i64, i64, i64) {
    (r.x_lo(), r.y_lo(), r.x_hi() - 1, r.y_hi() - 1)
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
        let total = self.checked_total()?;
        let Some(top) = self.top else {
            return Ok(Layout::new());
        };
        let mut rects: Vec<Rect> = Vec::with_capacity(total as usize);
        self.expand(top, Placement::IDENTITY, None, &mut |r| rects.push(r))?;
        Ok(Layout::from_rects(rects))
    }

    /// [`Self::flatten`] split at the top cell's direct instances: the top
    /// cell's own rects, then one subtree per direct instance in
    /// declaration order, each a class's rects plus an offset.
    /// Concatenating the own rects with every instance's class rects,
    /// shifted by its offset, in order, gives exactly the rects of
    /// [`Self::flatten`].
    ///
    /// Every subtree is checked as [`Self::flatten`] checks it, but only a
    /// class's first placement keeps its rects; the others are walked and
    /// dropped. The errors are exactly those of [`Self::flatten`], found
    /// in the same order.
    ///
    /// # Errors
    ///
    /// Those of [`Self::flatten`].
    pub fn split_top(&self) -> Result<TopSplit, LayoutError> {
        self.checked_total()?;
        let Some(top) = self.top else {
            return Ok(TopSplit::default());
        };
        // The top cell's own rects and its instances' compositions, in
        // the order `expand` checks them for the top.
        let mut own_rects = Vec::with_capacity(self.cells[top].rects.len());
        self.expand_cell(top, Placement::IDENTITY, None, &mut |r| own_rects.push(r))?;
        let instances = &self.cells[top].instances;
        for (ii, inst) in instances.iter().enumerate().rev() {
            if Placement::IDENTITY.try_compose(&inst.placement).is_none() {
                return Err(LayoutError::PlacementOutOfRange {
                    cell: top,
                    instance: ii,
                });
            }
        }
        let mut first: HashMap<(usize, Orient), (usize, Point)> = HashMap::new();
        let mut classes: Vec<Vec<Rect>> = Vec::new();
        let mut placed = Vec::with_capacity(instances.len());
        for (ii, inst) in instances.iter().enumerate() {
            let key = (inst.cell, inst.placement.orient);
            let d = inst.placement.delta;
            let known = first.get(&key).and_then(|&(class, origin)| {
                let offset = Point::new(d.x.checked_sub(origin.x)?, d.y.checked_sub(origin.y)?);
                Some((class, offset))
            });
            let mut rects = Vec::new();
            self.expand(inst.cell, inst.placement, Some((top, ii)), &mut |r| {
                if known.is_none() {
                    rects.push(r);
                }
            })?;
            if let Some(at) = known {
                placed.push(at);
            } else {
                first.entry(key).or_insert((classes.len(), d));
                placed.push((classes.len(), Point::new(0, 0)));
                classes.push(rects);
            }
        }
        Ok(TopSplit {
            own_rects,
            classes,
            placed,
        })
    }

    /// The flattened rect count after [`Self::validate_refs`] and the
    /// [`Self::MAX_FLATTENED_RECTS`] cap: the checks [`Self::flatten`]
    /// makes before expanding.
    fn checked_total(&self) -> Result<u64, LayoutError> {
        let total = self.flattened_len()?;
        if total > Self::MAX_FLATTENED_RECTS {
            return Err(LayoutError::HierarchyTooLarge { flattened: total });
        }
        Ok(total)
    }

    /// Expands `root` under the absolute placement `abs` into `sink`:
    /// its own rects first, then each instance's subtree in declaration
    /// order, depth first. `via` is the `(parent cell, instance index)`
    /// that placed `root`, for error attribution (`None` for the top).
    fn expand(
        &self,
        root: usize,
        abs: Placement,
        via: Option<(usize, usize)>,
        sink: &mut impl FnMut(Rect),
    ) -> Result<(), LayoutError> {
        // Children are pushed in reverse so they pop in declaration order.
        let mut stack = vec![(root, abs, via)];
        while let Some((cell, abs, via)) = stack.pop() {
            self.expand_cell(cell, abs, via, sink)?;
            for (ii, inst) in self.cells[cell].instances.iter().enumerate().rev() {
                let Some(child_abs) = abs.try_compose(&inst.placement) else {
                    return Err(LayoutError::PlacementOutOfRange { cell, instance: ii });
                };
                stack.push((inst.cell, child_abs, Some((cell, ii))));
            }
        }
        Ok(())
    }

    /// Places `cell`'s own rects under `abs` into `sink`.
    fn expand_cell(
        &self,
        cell: usize,
        abs: Placement,
        via: Option<(usize, usize)>,
        sink: &mut impl FnMut(Rect),
    ) -> Result<(), LayoutError> {
        for r in &self.cells[cell].rects {
            let Some(img) = abs.try_apply_rect(r) else {
                let (c, i) = via.unwrap_or((cell, 0));
                return Err(LayoutError::PlacementOutOfRange {
                    cell: c,
                    instance: i,
                });
            };
            sink(img);
        }
        Ok(())
    }

    /// The hierarchy-aware extension of [`Layout::sanitize`]: reference
    /// integrity and expansion bounds first (over **all** cells, so a
    /// dormant cycle in an unreferenced branch still surfaces), then the
    /// flat discipline on the expanded geometry, without expanding it
    /// when per-class facts prove it (see the module docs).
    ///
    /// # Errors
    ///
    /// Exactly the error of `self.flatten()?.sanitize(rules)`: the first
    /// found, hierarchy checks before flat ones.
    pub fn sanitize(&self, rules: &DesignRules) -> Result<(), LayoutError> {
        if self.split_top()?.proves_sanitized(rules) {
            return Ok(());
        }
        self.flatten()?.sanitize(rules)
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

    /// A top cell with its own `rects` placing `leaf` at each
    /// `(x, y, orient)`.
    fn placed(cell: Cell, rects: &[Rect], at: &[(i64, i64, Orient)]) -> HierLayout {
        let mut h = HierLayout::new();
        let cell = h.add_cell(cell);
        let mut top = leaf("TOP", rects);
        for &(x, y, orient) in at {
            top.instances.push(Instance {
                cell,
                placement: Placement::new(orient, x, y),
            });
        }
        h.top = Some(h.add_cell(top));
        h
    }

    /// Asserts `h.sanitize` equals flatten + sanitize and returns it.
    fn sanitize_parity(h: &HierLayout, name: &str) -> Result<(), LayoutError> {
        let rules = DesignRules::default();
        let flat = h.flatten().and_then(|f| f.sanitize(&rules));
        assert_eq!(h.sanitize(&rules), flat, "{name}");
        flat
    }

    /// Whether the per-class facts alone prove `h` sanitized.
    fn proved(h: &HierLayout) -> bool {
        let split = h.split_top().expect("valid references");
        split.proves_sanitized(&DesignRules::default())
    }

    /// One case per error sanitize can return, plus the clean and the
    /// overlapping-but-clean chips. `EmptyRect` has no case: `Rect`'s
    /// constructors reject empty rects and a placement maps a non-empty
    /// rect to a non-empty one.
    #[test]
    fn sanitize_matches_flatten_then_sanitize() {
        let id = Orient::IDENTITY;
        let r90 = Orient::rotated(Rot::R90);
        let gate = Rect::new(0, 0, 100, 1_000);
        let pair = leaf("PAIR", &[gate, Rect::new(500, 0, 600, 1_000)]);

        let h = placed(
            pair.clone(),
            &[],
            &[(0, 0, id), (5_000, 0, id), (0, 9_000, r90)],
        );
        assert_eq!(sanitize_parity(&h, "clean"), Ok(()));
        assert!(proved(&h), "a clean grid is proved without flattening");

        // Placements and a top rect overlap but hold no equal rects: the
        // search of the overlaps proves it.
        let h = placed(
            pair.clone(),
            &[Rect::new(50, 500, 250, 600)],
            &[(0, 0, id), (200, 0, id), (150, 900, id)],
        );
        assert_eq!(sanitize_parity(&h, "overlapping placements"), Ok(()));
        assert!(proved(&h), "overlaps without equal rects are proved");

        // One placed block 2e7 dbu wide among 100-dbu cells, or one top
        // rect as wide: at a cell sized for the small boxes it would cover
        // about 1e10 cells, so the grid coarsens and the search still
        // proves the chip.
        let small = leaf("SMALL", &[Rect::new(0, 0, 100, 100)]);
        let mut h = placed(
            small.clone(),
            &[],
            &[(0, 0, id), (1_000, 0, id), (2_000, 0, id)],
        );
        let block = h.add_cell(leaf("BLOCK", &[Rect::new(0, 0, 20_000_000, 20_000_000)]));
        let top = h.top.expect("has a top");
        h.cells[top].instances.push(Instance {
            cell: block,
            placement: Placement::at(0, 10_000),
        });
        assert_eq!(sanitize_parity(&h, "one large block"), Ok(()));
        assert!(proved(&h), "one large block is proved on a coarser grid");
        h.cells[top].instances.pop();
        h.cells[top]
            .rects
            .push(Rect::new(0, 10_000, 20_000_000, 20_010_000));
        assert_eq!(sanitize_parity(&h, "one large top rect"), Ok(()));
        assert!(proved(&h), "one large top rect is proved on a coarser grid");

        // 2,000 one-rect placements at 1-dbu offsets: every box overlaps
        // every other, so the pair tests alone pass the budget and
        // sanitize flattens instead of scanning every pair.
        let at: Vec<_> = (0..2_000).map(|x| (x, 0, id)).collect();
        let h = placed(small, &[], &at);
        assert_eq!(sanitize_parity(&h, "a stack of placements"), Ok(()));
        assert!(!proved(&h), "a stack of placements is not proved");

        let far = i64::from(i32::MAX) - 50;
        let h = placed(
            pair.clone(),
            &[],
            &[(0, 0, id), (far, 0, id), (9_000, 0, id)],
        );
        assert_eq!(
            sanitize_parity(&h, "one placement out of range"),
            Err(LayoutError::CoordinateOutOfRange { index: 2 })
        );

        let twice = leaf("TWICE", &[gate, Rect::new(500, 0, 600, 1_000), gate]);
        let h = placed(twice, &[], &[(0, 0, id), (5_000, 0, id)]);
        assert_eq!(
            sanitize_parity(&h, "duplicate inside a class"),
            Err(LayoutError::DuplicateRect {
                first: 0,
                second: 2
            })
        );

        let h = placed(pair.clone(), &[], &[(0, 0, id), (500, 0, id)]);
        assert_eq!(
            sanitize_parity(&h, "duplicate across overlapping placements"),
            Err(LayoutError::DuplicateRect {
                first: 1,
                second: 2
            })
        );

        let h = placed(
            pair.clone(),
            &[gate.shift(9_000, 0)],
            &[(0, 0, id), (9_000, 0, id)],
        );
        assert_eq!(
            sanitize_parity(&h, "duplicate of a top rect"),
            Err(LayoutError::DuplicateRect {
                first: 0,
                second: 3
            })
        );

        let h = placed(pair.clone(), &[gate, gate], &[(9_000, 0, id)]);
        assert_eq!(
            sanitize_parity(&h, "duplicate among top rects"),
            Err(LayoutError::DuplicateRect {
                first: 0,
                second: 1
            })
        );

        // A nested class: MID places the pair twice; the second copy
        // lands on the first's right gate only in the bad MID.
        for (dx, expected) in [
            (5_000, Ok(())),
            (
                500,
                Err(LayoutError::DuplicateRect {
                    first: 1,
                    second: 2,
                }),
            ),
        ] {
            let mut h = HierLayout::new();
            let p = h.add_cell(pair.clone());
            let mut mid = Cell::new("MID");
            for x in [0, dx] {
                mid.instances.push(Instance {
                    cell: p,
                    placement: Placement::at(x, 0),
                });
            }
            let mid = h.add_cell(mid);
            let mut top = Cell::new("TOP");
            for y in [0, 20_000] {
                top.instances.push(Instance {
                    cell: mid,
                    placement: Placement::new(r90, 0, y),
                });
            }
            h.top = Some(h.add_cell(top));
            assert_eq!(sanitize_parity(&h, "nested class"), expected);
            assert_eq!(proved(&h), expected.is_ok());
        }

        // The hierarchy errors.
        let mut h = placed(pair.clone(), &[], &[(0, 0, id)]);
        h.cells[1].instances.push(Instance {
            cell: 7,
            placement: Placement::IDENTITY,
        });
        assert_eq!(
            sanitize_parity(&h, "unknown cell"),
            Err(LayoutError::UnknownCell {
                cell: 1,
                instance: 1
            })
        );
        let mut h = placed(pair.clone(), &[], &[(0, 0, id)]);
        h.cells[0].instances.push(Instance {
            cell: 1,
            placement: Placement::IDENTITY,
        });
        assert_eq!(
            sanitize_parity(&h, "cycle"),
            Err(LayoutError::InstanceCycle { cell: 0 })
        );
        let h = placed(pair.clone(), &[], &[(0, 0, id), (i64::MAX - 50, 0, id)]);
        assert_eq!(
            sanitize_parity(&h, "placement out of range"),
            Err(LayoutError::PlacementOutOfRange {
                cell: 1,
                instance: 1
            })
        );
        let mut h = HierLayout::new();
        let mut prev = h.add_cell(pair);
        for i in 1..=30 {
            let mut cell = Cell::new(format!("L{i}"));
            for x in [0, 1 << i] {
                cell.instances.push(Instance {
                    cell: prev,
                    placement: Placement::at(x, 0),
                });
            }
            prev = h.add_cell(cell);
        }
        h.top = Some(prev);
        assert!(matches!(
            sanitize_parity(&h, "hierarchy too large"),
            Err(LayoutError::HierarchyTooLarge { .. })
        ));
    }
}

use crate::DesignRules;
use aapsm_geom::{GridIndex, Rect};

/// A polysilicon-layer layout: a set of non-overlapping axis-aligned
/// rectangles ("the layout is assumed to be composed of a set of
/// non-overlapping rectangles", §3.1.1 of the paper).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Layout {
    rects: Vec<Rect>,
}

/// Aggregate statistics of a layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LayoutStats {
    /// Number of rectangles (the paper's "polygons").
    pub polygon_count: usize,
    /// Bounding box, if non-empty.
    pub bbox: Option<Rect>,
    /// Bounding-box area in dbu² (0 for an empty layout).
    pub bbox_area: i128,
}

/// A structured input-sanitization error from [`Layout::sanitize`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LayoutError {
    /// A rectangle has non-positive extent on some axis (defensive:
    /// [`Rect`]'s constructors already reject these, but layouts can
    /// arrive through deserialization paths with weaker invariants).
    EmptyRect {
        /// Index of the offending rectangle.
        index: usize,
    },
    /// Two rectangles are byte-identical duplicates: the extraction
    /// pipeline assumes non-overlapping geometry, and an exact duplicate
    /// silently doubles weights downstream.
    DuplicateRect {
        /// Index of the first copy.
        first: usize,
        /// Index of the second copy.
        second: usize,
    },
    /// A coordinate sits too close to the GDSII i32 limit for the rules'
    /// shifter extents: synthesizing shifters/spacing probes around the
    /// feature would overflow the interchange range.
    CoordinateOutOfRange {
        /// Index of the offending rectangle.
        index: usize,
    },
    /// An instance references a cell index outside the hierarchy's cell
    /// table ([`crate::HierLayout`]).
    UnknownCell {
        /// Index of the referencing cell.
        cell: usize,
        /// Index of the offending instance within that cell.
        instance: usize,
    },
    /// A cell transitively instantiates itself: the hierarchy is not a
    /// DAG and cannot be flattened.
    InstanceCycle {
        /// Index of a cell on the cycle.
        cell: usize,
    },
    /// Applying an instance's placement pushed geometry outside the
    /// representable coordinate range.
    PlacementOutOfRange {
        /// Index of the referencing cell.
        cell: usize,
        /// Index of the offending instance within that cell.
        instance: usize,
    },
    /// The fully flattened hierarchy would exceed the expansion cap
    /// ([`crate::HierLayout::MAX_FLATTENED_RECTS`]) — a defense against
    /// corrupt or adversarial array references blowing up memory.
    HierarchyTooLarge {
        /// The (saturating) flattened rectangle count.
        flattened: u64,
    },
}

impl std::fmt::Display for LayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LayoutError::EmptyRect { index } => {
                write!(f, "rect {index} has zero area")
            }
            LayoutError::DuplicateRect { first, second } => {
                write!(f, "rect {second} duplicates rect {first}")
            }
            LayoutError::CoordinateOutOfRange { index } => {
                write!(f, "rect {index} coordinates too close to the GDS i32 limit")
            }
            LayoutError::UnknownCell { cell, instance } => {
                write!(
                    f,
                    "cell {cell} instance {instance} references an unknown cell"
                )
            }
            LayoutError::InstanceCycle { cell } => {
                write!(f, "cell {cell} transitively instantiates itself")
            }
            LayoutError::PlacementOutOfRange { cell, instance } => {
                write!(
                    f,
                    "cell {cell} instance {instance} places geometry outside the coordinate range"
                )
            }
            LayoutError::HierarchyTooLarge { flattened } => {
                write!(
                    f,
                    "hierarchy flattens to {flattened} rects, beyond the expansion cap"
                )
            }
        }
    }
}

impl std::error::Error for LayoutError {}

/// A design-rule violation found by [`Layout::validate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LayoutViolation {
    /// Two feature rectangles share interior area.
    Overlap {
        /// Index of the first rectangle.
        a: usize,
        /// Index of the second rectangle.
        b: usize,
    },
    /// Two features are closer than the minimum feature spacing.
    Spacing {
        /// Index of the first rectangle.
        a: usize,
        /// Index of the second rectangle.
        b: usize,
        /// Their squared Euclidean gap.
        gap_sq: i128,
    },
}

impl Layout {
    /// Creates an empty layout.
    pub fn new() -> Self {
        Layout::default()
    }

    /// Creates a layout from rectangles.
    pub fn from_rects(rects: Vec<Rect>) -> Self {
        Layout { rects }
    }

    /// Adds a rectangle and returns its index.
    pub(crate) fn add_rect(&mut self, rect: Rect) -> usize {
        self.rects.push(rect);
        self.rects.len() - 1
    }

    /// The rectangles.
    pub fn rects(&self) -> &[Rect] {
        &self.rects
    }

    /// Number of rectangles.
    pub fn len(&self) -> usize {
        self.rects.len()
    }

    /// Whether the layout has no rectangles.
    pub fn is_empty(&self) -> bool {
        self.rects.is_empty()
    }

    /// Bounding box of all rectangles.
    pub fn bbox(&self) -> Option<Rect> {
        self.rects.iter().copied().reduce(|a, b| a.hull(&b))
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> LayoutStats {
        let bbox = self.bbox();
        LayoutStats {
            polygon_count: self.rects.len(),
            bbox,
            bbox_area: bbox.map_or(0, |b| b.area()),
        }
    }

    /// Input sanitization: rejects layouts the pipeline cannot process
    /// soundly — degenerate rects, exact duplicate geometry, and
    /// coordinates so close to the GDSII i32 limit that the rules'
    /// shifter extents (body + overhang + spacing probe) would overflow
    /// the interchange range. Called by `aapsm_gds::read_gds` and
    /// `aapsm_core::run_flow` before any extraction.
    ///
    /// Distinct from [`Layout::validate`], which reports *design-rule*
    /// violations (overlap/spacing) on otherwise well-formed input.
    ///
    /// # Errors
    ///
    /// The first [`LayoutError`] found, in rect-index order.
    pub fn sanitize(&self, rules: &DesignRules) -> Result<(), LayoutError> {
        let margin = rules.shifter_width.max(0)
            + rules.shifter_overhang.max(0)
            + rules.shifter_spacing.max(0)
            + rules.min_feature_space.max(0);
        let limit = i64::from(i32::MAX) - margin;
        let mut seen: std::collections::HashMap<(i64, i64, i64, i64), usize> =
            std::collections::HashMap::with_capacity(self.rects.len());
        for (i, r) in self.rects.iter().enumerate() {
            if r.width() <= 0 || r.height() <= 0 {
                return Err(LayoutError::EmptyRect { index: i });
            }
            let reach = r
                .x_lo()
                .abs()
                .max(r.x_hi().abs())
                .max(r.y_lo().abs())
                .max(r.y_hi().abs());
            if reach > limit {
                return Err(LayoutError::CoordinateOutOfRange { index: i });
            }
            match seen.entry((r.x_lo(), r.y_lo(), r.x_hi(), r.y_hi())) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    return Err(LayoutError::DuplicateRect {
                        first: *e.get(),
                        second: i,
                    });
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(i);
                }
            }
        }
        Ok(())
    }

    /// Checks feature overlap and spacing rules, returning all violations.
    ///
    /// Uses a spatial grid; near-linear in layout size.
    pub fn validate(&self, rules: &DesignRules) -> Vec<LayoutViolation> {
        let grid = GridIndex::build(
            rules.min_feature_space.max(64) * 4,
            self.rects.iter().map(|r| {
                let probe = r.inflate(rules.min_feature_space);
                (probe.x_lo(), probe.y_lo(), probe.x_hi(), probe.y_hi())
            }),
        );
        let mut out = Vec::new();
        // Streaming traversal: the candidate set is never materialized.
        grid.for_each_candidate_pair(|a, b| {
            let (ra, rb) = (self.rects[a as usize], self.rects[b as usize]);
            if ra.overlaps(&rb) {
                out.push(LayoutViolation::Overlap {
                    a: a as usize,
                    b: b as usize,
                });
            } else {
                let gap_sq = ra.euclid_gap_sq(&rb);
                let s = rules.min_feature_space as i128;
                if gap_sq < s * s {
                    out.push(LayoutViolation::Spacing {
                        a: a as usize,
                        b: b as usize,
                        gap_sq,
                    });
                }
            }
        });
        out
    }
}

impl FromIterator<Rect> for Layout {
    fn from_iter<I: IntoIterator<Item = Rect>>(iter: I) -> Self {
        Layout {
            rects: iter.into_iter().collect(),
        }
    }
}

impl Extend<Rect> for Layout {
    fn extend<I: IntoIterator<Item = Rect>>(&mut self, iter: I) {
        self.rects.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_and_bbox() {
        let l = Layout::from_rects(vec![
            Rect::new(0, 0, 100, 400),
            Rect::new(500, 100, 600, 500),
        ]);
        let s = l.stats();
        assert_eq!(s.polygon_count, 2);
        assert_eq!(s.bbox, Some(Rect::new(0, 0, 600, 500)));
        assert_eq!(s.bbox_area, 600 * 500);
        assert!(Layout::new().bbox().is_none());
    }

    #[test]
    fn validation_finds_overlap_and_spacing() {
        let rules = DesignRules::default();
        let l = Layout::from_rects(vec![
            Rect::new(0, 0, 100, 400),
            Rect::new(50, 100, 150, 500),  // overlaps rect 0
            Rect::new(240, 0, 340, 400),   // 90 dbu from rect 1: spacing
            Rect::new(1000, 0, 1100, 400), // fine
        ]);
        let v = l.validate(&rules);
        assert!(v
            .iter()
            .any(|x| matches!(x, LayoutViolation::Overlap { a: 0, b: 1 })));
        assert!(v
            .iter()
            .any(|x| matches!(x, LayoutViolation::Spacing { a: 1, b: 2, .. })));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn clean_layout_validates() {
        let rules = DesignRules::default();
        let l = Layout::from_rects(vec![Rect::new(0, 0, 100, 400), Rect::new(400, 0, 500, 400)]);
        assert!(l.validate(&rules).is_empty());
    }

    #[test]
    fn sanitize_accepts_clean_and_rejects_bad_layouts() {
        let rules = DesignRules::default();
        let clean =
            Layout::from_rects(vec![Rect::new(0, 0, 100, 400), Rect::new(400, 0, 500, 400)]);
        assert_eq!(clean.sanitize(&rules), Ok(()));
        assert_eq!(Layout::new().sanitize(&rules), Ok(()));

        let dup = Layout::from_rects(vec![
            Rect::new(0, 0, 100, 400),
            Rect::new(400, 0, 500, 400),
            Rect::new(0, 0, 100, 400),
        ]);
        assert_eq!(
            dup.sanitize(&rules),
            Err(LayoutError::DuplicateRect {
                first: 0,
                second: 2
            })
        );

        let far = i64::from(i32::MAX) - 10;
        let out = Layout::from_rects(vec![Rect::new(far - 100, 0, far, 400)]);
        assert_eq!(
            out.sanitize(&rules),
            Err(LayoutError::CoordinateOutOfRange { index: 0 })
        );
        let neg = Layout::from_rects(vec![Rect::new(-far, 0, -far + 100, 400)]);
        assert_eq!(
            neg.sanitize(&rules),
            Err(LayoutError::CoordinateOutOfRange { index: 0 })
        );
    }

    #[test]
    fn collect_from_iterator() {
        let l: Layout = [Rect::new(0, 0, 1, 1), Rect::new(5, 5, 6, 6)]
            .into_iter()
            .collect();
        assert_eq!(l.len(), 2);
    }
}

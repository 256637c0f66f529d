use crate::DesignRules;
use aapsm_geom::{GridIndex, Rect};
use std::sync::OnceLock;

/// A polysilicon-layer layout: a set of non-overlapping axis-aligned
/// rectangles ("the layout is assumed to be composed of a set of
/// non-overlapping rectangles", §3.1.1 of the paper).
///
/// Equality and `Debug` read the rects only.
#[derive(Clone, Default)]
pub struct Layout {
    rects: Vec<Rect>,
    /// The duplicate scan of [`Layout::sanitize`], run once: it does not
    /// depend on the rules, and a stream reader and the flow sanitize the
    /// same layout. Reset by every change to `rects`.
    first_duplicate: OnceLock<Option<(usize, usize)>>,
}

impl PartialEq for Layout {
    fn eq(&self, other: &Layout) -> bool {
        self.rects == other.rects
    }
}

impl Eq for Layout {}

impl std::fmt::Debug for Layout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Layout")
            .field("rects", &self.rects)
            .finish()
    }
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
        Layout {
            rects,
            first_duplicate: OnceLock::new(),
        }
    }

    /// A layout of `rects`, which the caller has proved pairwise
    /// distinct: [`Layout::sanitize`] skips its duplicate scan.
    pub(crate) fn from_distinct_rects(rects: Vec<Rect>) -> Self {
        let layout = Layout::from_rects(rects);
        let _ = layout.first_duplicate.set(None);
        layout
    }

    /// Whether the duplicate scan of [`Layout::sanitize`] has run and
    /// found no two equal rects.
    pub(crate) fn known_distinct(&self) -> bool {
        self.first_duplicate.get() == Some(&None)
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
        let limit = sanitize_limit(rules);
        let bad_rect = self.rects.iter().enumerate().find_map(|(index, r)| {
            check_rect(index, r, limit)
                .err()
                .map(|error| (index, error))
        });
        // A duplicate of a bad rect is just as bad and comes later, so a
        // duplicate pair is the first error only if no bad rect precedes
        // its second index.
        let duplicate = *self
            .first_duplicate
            .get_or_init(|| first_duplicate(&self.rects));
        match (bad_rect, duplicate) {
            (Some((index, error)), Some((_, second))) if index < second => Err(error),
            (_, Some((first, second))) => Err(LayoutError::DuplicateRect { first, second }),
            (Some((_, error)), None) => Err(error),
            (None, None) => Ok(()),
        }
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
        Layout::from_rects(iter.into_iter().collect())
    }
}

impl Extend<Rect> for Layout {
    fn extend<I: IntoIterator<Item = Rect>>(&mut self, iter: I) {
        self.first_duplicate.take();
        self.rects.extend(iter);
    }
}

/// The duplicate pair `(first, second)` with the smallest `second`:
/// `second` is the first index whose rect occurs earlier, `first` that
/// rect's first index. Found by sorting `(rect, index)` rather than
/// hashing, since the rects may come from an adversarial stream.
fn first_duplicate(rects: &[Rect]) -> Option<(usize, usize)> {
    let mut keyed: Vec<(Rect, usize)> = rects.iter().copied().zip(0..).collect();
    keyed.sort_unstable();
    // Within a group of equal rects the indices ascend, so the window
    // with the smallest second index is a group's first two entries.
    keyed
        .windows(2)
        .filter(|w| w[0].0 == w[1].0)
        .map(|w| (w[0].1, w[1].1))
        .min_by_key(|&(_, second)| second)
}

/// Whether `rects` pass [`Layout::sanitize`]: each non-empty and within
/// `limit`, and no two equal.
pub(crate) fn rects_pass_sanitize(rects: &[Rect], limit: i64) -> bool {
    rects.iter().all(|r| check_rect(0, r, limit).is_ok()) && first_duplicate(rects).is_none()
}

/// The largest coordinate magnitude [`Layout::sanitize`] accepts: the
/// GDSII `i32` limit less every extent the rules add around a rect.
pub(crate) fn sanitize_limit(rules: &DesignRules) -> i64 {
    let margin = rules.shifter_width.max(0)
        + rules.shifter_overhang.max(0)
        + rules.shifter_spacing.max(0)
        + rules.min_feature_space.max(0);
    i64::from(i32::MAX) - margin
}

/// The per-rect checks of [`Layout::sanitize`]: a non-empty rect within
/// `limit` of the origin on both axes.
pub(crate) fn check_rect(index: usize, r: &Rect, limit: i64) -> Result<(), LayoutError> {
    if r.width() <= 0 || r.height() <= 0 {
        return Err(LayoutError::EmptyRect { index });
    }
    let reach = r
        .x_lo()
        .abs()
        .max(r.x_hi().abs())
        .max(r.y_lo().abs())
        .max(r.y_hi().abs());
    if reach > limit {
        return Err(LayoutError::CoordinateOutOfRange { index });
    }
    Ok(())
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
        // A far plate 5e8 dbu wide coarsens the grid; the answer stands.
        let mut plated = l.clone();
        plated.extend([Rect::new(
            -1_000_000_000,
            -1_000_000_000,
            -500_000_000,
            -500_000_000,
        )]);
        assert_eq!(plated.validate(&rules), v);
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

    /// The hash-map scan `Layout::sanitize` used before it sorted, kept
    /// as the oracle of its contract.
    fn sanitize_by_hashing(layout: &Layout, rules: &DesignRules) -> Result<(), LayoutError> {
        let limit = sanitize_limit(rules);
        let mut seen = std::collections::HashMap::new();
        for (i, r) in layout.rects().iter().enumerate() {
            check_rect(i, r, limit)?;
            if let Some(&first) = seen.get(r) {
                return Err(LayoutError::DuplicateRect { first, second: i });
            }
            seen.insert(*r, i);
        }
        Ok(())
    }

    /// Seeded layouts with duplicate groups of 2 to 5 copies and
    /// out-of-range rects scattered before and after them. `Rect`'s
    /// constructors reject empty rects, so `EmptyRect` cannot be built
    /// here; `check_rect` still tests for it first.
    #[test]
    fn sorted_sanitize_matches_the_hashing_oracle() {
        use rand::{Rng, SeedableRng};
        let rules = DesignRules::default();
        let far = sanitize_limit(&rules) + 1;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut kinds = std::collections::BTreeMap::new();
        for _ in 0..400 {
            let n = rng.gen_range(0..40);
            let mut rects: Vec<Rect> = (0..n)
                .map(|_| {
                    let (x, y) = (rng.gen_range(-50..50) * 10, rng.gen_range(-50..50) * 10);
                    Rect::new(
                        x,
                        y,
                        x + rng.gen_range(1..4) * 10,
                        y + rng.gen_range(1..4) * 10,
                    )
                })
                .collect();
            for _ in 0..rng.gen_range(0..3) {
                if rects.is_empty() {
                    break;
                }
                let copy = rects[rng.gen_range(0..rects.len())];
                for _ in 0..rng.gen_range(1..5) {
                    rects.insert(rng.gen_range(0..=rects.len()), copy);
                }
            }
            // Two of these may be equal: a duplicate of a bad rect.
            for _ in 0..rng.gen_range(0..3) {
                let x = if rng.gen_bool(0.5) { far } else { -far - 10 };
                rects.insert(rng.gen_range(0..=rects.len()), Rect::new(x, 0, x + 10, 10));
            }
            let layout = Layout::from_rects(rects);
            let expected = sanitize_by_hashing(&layout, &rules);
            assert_eq!(layout.sanitize(&rules), expected, "{layout:?}");
            let kind = match expected {
                Ok(()) => "ok",
                Err(LayoutError::DuplicateRect { .. }) => "duplicate",
                Err(LayoutError::CoordinateOutOfRange { .. }) => "out of range",
                Err(_) => "other",
            };
            *kinds.entry(kind).or_insert(0) += 1;
        }
        for kind in ["ok", "duplicate", "out of range"] {
            assert!(kinds.get(kind) > Some(&20), "{kinds:?}");
        }
    }

    /// The duplicate scan runs once per layout; the first error is the
    /// same on the first call, a second call and a clone, also under other
    /// rules, and a change to the rects scans again.
    #[test]
    fn the_remembered_duplicate_scan_keeps_the_first_error_contract() {
        let rules = DesignRules::default();
        let wide = DesignRules {
            shifter_spacing: 10_000,
            ..rules
        };
        let far = sanitize_limit(&rules) + 1;
        let layout = Layout::from_rects(vec![
            Rect::new(0, 0, 100, 400),
            Rect::new(400, 0, 500, 400),
            Rect::new(0, 0, 100, 400),
            Rect::new(far, 0, far + 10, 10),
        ]);
        let duplicate = Err(LayoutError::DuplicateRect {
            first: 0,
            second: 2,
        });
        assert_eq!(layout.sanitize(&rules), duplicate);
        assert_eq!(layout.sanitize(&rules), duplicate);
        let copy = layout.clone();
        assert_eq!(copy, layout);
        assert_eq!(
            format!("{copy:?}"),
            format!("{:?}", Layout::from_rects(copy.rects.clone()))
        );
        assert_eq!(copy.sanitize(&rules), duplicate);
        assert_eq!(copy.sanitize(&wide), duplicate);
        // An out-of-range rect before the duplicate comes first.
        let mut rects = layout.rects().to_vec();
        rects.swap(1, 3);
        let early = Layout::from_rects(rects);
        assert_eq!(early.sanitize(&rules), early.sanitize(&rules));
        assert_eq!(
            early.sanitize(&rules),
            Err(LayoutError::CoordinateOutOfRange { index: 1 })
        );
        // Growing a clean, scanned layout by a copy scans again.
        let clean = Layout::from_rects(layout.rects()[..2].to_vec());
        assert_eq!(clean.sanitize(&rules), Ok(()));
        let mut extended = clean.clone();
        extended.extend([Rect::new(400, 0, 500, 400)]);
        assert_eq!(
            extended.sanitize(&rules),
            Err(LayoutError::DuplicateRect {
                first: 1,
                second: 2
            })
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

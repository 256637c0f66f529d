// Whether a cut set keeps the features, their criticality and the
// shifter indices: fact (a) of the proof in `aapsm_layout`'s `certify`
// module. Shared by `derived_geometry.rs` and
// `incremental_equivalence.rs` (through `#[path]`, so plain comments
// here).

use aapsm_geom::Axis;
use aapsm_layout::{DesignRules, Layout, SpaceCut};

/// Whether fact (a) fails for `cuts` on `layout`, decided from the
/// layout's rects alone: a cut has a negative width, or lies strictly
/// inside the width span of a critical rect.
pub fn illegal(layout: &Layout, rules: &DesignRules, cuts: &[SpaceCut]) -> bool {
    cuts.iter().any(|c| {
        c.width < 0
            || layout.rects().iter().any(|r| {
                let width_axis = if r.height() >= r.width() {
                    Axis::X
                } else {
                    Axis::Y
                };
                let span = r.span(c.axis);
                rules.is_critical(r)
                    && width_axis == c.axis
                    && span.lo() < c.position
                    && c.position < span.hi()
            })
    })
}

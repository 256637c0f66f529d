// Seeded random legal cut sets: cuts the correction planner could place,
// shared by `certified_round.rs` and `derived_geometry.rs` (through
// `#[path]`, so plain comments here).

use aapsm_geom::Axis;
use aapsm_layout::{Layout, SpaceCut};
use rand::Rng;

/// A legal cut position on `axis` near `layout`: not strictly inside the
/// width span of any feature whose width runs along `axis`, the
/// correction planner's own rule.
fn legal_position(rng: &mut rand::rngs::StdRng, layout: &Layout, axis: Axis) -> i64 {
    let span = layout.bbox().expect("non-empty layout").span(axis);
    loop {
        let p = rng.gen_range(span.lo() - 200..=span.hi() + 200);
        let widens = |r: &aapsm_geom::Rect| {
            let width_axis = if r.height() >= r.width() {
                Axis::X
            } else {
                Axis::Y
            };
            let s = r.span(axis);
            width_axis == axis && s.lo() < p && p < s.hi()
        };
        if !layout.rects().iter().any(widens) {
            return p;
        }
    }
}

/// `count` cuts at legal positions near `layout`, each on a random axis
/// and 1 to 600 dbu wide.
pub fn random_cuts(rng: &mut rand::rngs::StdRng, layout: &Layout, count: usize) -> Vec<SpaceCut> {
    (0..count)
        .map(|_| {
            let axis = if rng.gen_bool(0.5) { Axis::X } else { Axis::Y };
            SpaceCut {
                axis,
                position: legal_position(rng, layout, axis),
                width: rng.gen_range(1..=600),
            }
        })
        .collect()
}

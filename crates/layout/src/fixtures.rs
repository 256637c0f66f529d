//! Deterministic layout fixtures used across tests, examples and figure
//! reproductions.

use crate::{DesignRules, Layout};
use aapsm_geom::Rect;

/// A single vertical critical wire — trivially phase-assignable.
pub fn single_wire(_rules: &DesignRules) -> Layout {
    Layout::from_rects(vec![Rect::new(0, 0, 100, 1000)])
}

/// A row of parallel critical wires at a safe pitch: a chain of merge
/// constraints, assignable by alternating phases.
pub fn wire_row(count: usize, pitch: i64) -> Layout {
    Layout::from_rects(
        (0..count as i64)
            .map(|i| Rect::new(i * pitch, 0, i * pitch + 100, 2000))
            .collect(),
    )
}

/// The paper's Figure 1 motif: a critical gate crossing over a strap, so
/// the strap's top shifter must merge with *both* of the gate's shifters —
/// an odd cycle of phase dependencies. Not phase-assignable.
pub fn gate_over_strap(_rules: &DesignRules) -> Layout {
    let strap = Rect::new(-1000, 0, 1000, 100);
    let gate = Rect::new(-50, 500, 50, 1500);
    Layout::from_rects(vec![strap, gate])
}

/// A line-end jog: two stacked vertical wires with a lateral offset in the
/// conflict window; the upper wire's low shifter reaches both shifters of
/// the lower wire corner-to-corner. Not phase-assignable; correctable by a
/// horizontal end-to-end space.
pub fn stacked_jog(_rules: &DesignRules) -> Layout {
    let lower = Rect::new(0, 0, 100, 1000);
    let upper = Rect::new(150, 1200, 250, 2200);
    Layout::from_rects(vec![lower, upper])
}

/// The short-middle-line motif: three parallel wires where the middle one
/// is short, so the outer shifters see each other past its line end. Not
/// phase-assignable; correctable by a vertical end-to-end space.
pub fn short_middle_wire(_rules: &DesignRules) -> Layout {
    let a = Rect::new(0, 0, 100, 2000);
    let b = Rect::new(340, 0, 440, 800); // short middle
    let c = Rect::new(680, 0, 780, 2000);
    Layout::from_rects(vec![a, b, c])
}

/// A bus of parallel wires crossed by one long strap below them: one odd
/// cycle per crossed wire, all sharing the strap's top shifter. The
/// Figure 5 motif — a single vertical... rather horizontal space corrects
/// many conflicts at once.
pub fn strap_under_bus(count: usize, _rules: &DesignRules) -> Layout {
    let mut rects = Vec::new();
    let pitch = 700i64;
    for i in 0..count as i64 {
        rects.push(Rect::new(i * pitch, 500, i * pitch + 100, 2500));
    }
    // Strap top at y=100; gate shifters reach down to y=400: gap 200+100
    // via shifter extents -> merges with every gate shifter above.
    rects.push(Rect::new(-500, 0, count as i64 * pitch + 500, 100));
    Layout::from_rects(rects)
}

/// The latent half of [`corridor_unblock_two_round`] on its own: two
/// stacked critical straps `H1`/`H2` that would merge top-to-bottom, and
/// a blocker strap `M` that fills their corridor except for a 150 dbu
/// sliver on the right — under the 2·overhang line-end exemption, so the
/// pair is blocked and the layout is phase-assignable. A vertical space
/// at x = 950 that stretches `H1`/`H2` but not `M` unblocks the corridor
/// and *creates* a conflict.
pub fn corridor_unblock_latent(_rules: &DesignRules) -> Layout {
    Layout::from_rects(vec![
        Rect::new(0, 0, 1000, 100),     // H1
        Rect::new(0, 600, 1000, 700),   // H2
        Rect::new(-150, 310, 950, 390), // M
    ])
}

/// A layout whose correction needs **two** rounds: the round-1 cut
/// *creates* a new conflict.
///
/// It is [`corridor_unblock_latent`] (blocked, so round 1 sees only the
/// short-middle-wire conflict of the lower-left wire trio) plus that
/// trio. That conflict's one legal correction line sits at x ≈ 950 (a
/// non-critical wall at x 951..1531 outlaws every other candidate), and
/// the inserted ~100 dbu space stretches `H1`/`H2`
/// (which straddle it) while leaving `M` (ending at x = 950) alone — the
/// sliver grows past the exemption, the corridor unblocks, `H1`/`H2`
/// merge, and the odd cycle through `M`'s flank becomes a fresh round-2
/// conflict that one horizontal space then corrects.
pub fn corridor_unblock_two_round(rules: &DesignRules) -> Layout {
    let mut rects = corridor_unblock_latent(rules).rects().to_vec();
    rects.extend([
        // The round-1 conflict: a short-middle trio far below, positioned
        // so its correction interval starts at x = 950.
        Rect::new(850, -4000, 950, -2000),   // A
        Rect::new(1190, -4000, 1290, -3200), // B (short middle)
        Rect::new(1530, -4000, 1630, -2000), // C
        // A wide (non-critical) wall whose x-span makes every correction
        // candidate except x ∈ {950, 951} illegal.
        Rect::new(951, -6000, 1531, -5000),
    ]);
    Layout::from_rects(rects)
}

/// Two stacked vertical wires offset so far diagonally that the *cheap*
/// conflicts are corner-to-corner: the upper wire's shifters see the lower
/// wire's same-side shifters across a positive gap on **both** axes
/// (`gap_x = 200`, `gap_y = 100` with default rules), while the crossing
/// pair (upper-left over lower-right) overlaps in x. The minimum odd-cycle
/// cover deletes the two diagonal edges (2 × weight 80 beats the single
/// crossing edge at 180), so the correction planner must size a cut for
/// genuinely diagonal pairs — where the per-axis deficit
/// `spacing − gap_axis` over-corrects and the Euclidean minimum
/// `ceil(√(spacing² − gap_perp²)) − gap_axis` is strictly narrower.
pub fn diagonal_jog(_rules: &DesignRules) -> Layout {
    Layout::from_rects(vec![
        Rect::new(0, 0, 100, 1000),      // lower wire
        Rect::new(400, 1300, 500, 2300), // upper wire, +400 x / +300 y away
    ])
}

/// A benign mix: rows of wires plus a far-away strap. Phase-assignable.
pub fn benign_block(_rules: &DesignRules) -> Layout {
    let mut rects = Vec::new();
    for i in 0..5i64 {
        rects.push(Rect::new(i * 600, 0, i * 600 + 100, 2000));
    }
    rects.push(Rect::new(-500, -1500, 3500, -1400));
    Layout::from_rects(rects)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_assignable, extract_phase_geometry};

    fn rules() -> DesignRules {
        DesignRules::default()
    }

    #[test]
    fn assignability_of_fixtures() {
        let r = rules();
        let assignable = |l: &Layout| check_assignable(&extract_phase_geometry(l, &r)).is_ok();
        assert!(assignable(&single_wire(&r)));
        assert!(assignable(&wire_row(6, 600)));
        assert!(assignable(&benign_block(&r)));
        assert!(assignable(&corridor_unblock_latent(&r)));
        assert!(!assignable(&gate_over_strap(&r)));
        assert!(!assignable(&stacked_jog(&r)));
        assert!(!assignable(&short_middle_wire(&r)));
        assert!(!assignable(&strap_under_bus(4, &r)));
    }

    #[test]
    fn fixtures_are_drc_clean() {
        let r = rules();
        for (name, l) in [
            ("single", single_wire(&r)),
            ("row", wire_row(6, 600)),
            ("gate_over_strap", gate_over_strap(&r)),
            ("jog", stacked_jog(&r)),
            ("short_middle", short_middle_wire(&r)),
            ("bus", strap_under_bus(4, &r)),
            ("benign", benign_block(&r)),
        ] {
            assert!(l.validate(&r).is_empty(), "{name} violates feature DRC");
        }
    }

    #[test]
    fn jog_conflict_is_horizontally_correctable() {
        let r = rules();
        let g = extract_phase_geometry(&stacked_jog(&r), &r);
        // At least one overlap in the odd cycle is correctable by a
        // horizontal space.
        assert!(g
            .overlaps
            .iter()
            .any(|o| o.correctable_by_horizontal_space()));
    }

    #[test]
    fn strap_under_bus_has_one_cycle_per_wire() {
        let r = rules();
        let g = extract_phase_geometry(&strap_under_bus(5, &r), &r);
        // The strap's high shifter merges with both shifters of each wire.
        let strap_high = g.features[5].shifters.expect("strap is critical").1;
        let deg = g
            .overlaps
            .iter()
            .filter(|o| o.a == strap_high || o.b == strap_high)
            .count();
        assert_eq!(deg, 10, "two merges per crossed wire");
    }
}

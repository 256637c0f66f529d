//! Synthetic industrial-like layout generation.
//!
//! The paper evaluates on proprietary 90 nm industrial designs (up to
//! ~160 K polygons). Those are not available, so this module generates
//! standard-cell-like polysilicon layouts with the same structural
//! ingredients:
//!
//! * rows of vertical gates at mixed pitches (chains of shifter merges),
//! * occasional wide (non-critical) features,
//! * routing straps between rows — some close enough to a row that the
//!   strap shifter is shared with gate shifters (odd cycles, the
//!   gate-over-strap class),
//! * stacked, laterally jogged gate pairs (line-end jog odd cycles),
//! * short middle lines in tight triples (sightline odd cycles).
//!
//! Everything is seeded and deterministic. Conflict density is controlled
//! by the motif fractions, so benchmark designs span "almost clean" to
//! "conflict rich" like the paper's Table 1 suite.

use crate::{DesignRules, Layout};
use aapsm_geom::Rect;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the synthetic generator.
#[derive(Clone, Debug)]
pub struct SynthParams {
    /// Cell rows.
    pub rows: usize,
    /// Gate sites per row.
    pub gates_per_row: usize,
    /// Probability that a row gets a close routing strap under a segment
    /// of it (each close strap yields odd cycles with the gates above).
    pub strap_frac: f64,
    /// Probability that a gate site hosts a stacked jogged pair instead of
    /// a single gate.
    pub jog_frac: f64,
    /// Probability that a gate site starts a short-middle triple.
    pub short_mid_frac: f64,
    /// Probability that a gate is wide (non-critical).
    pub wide_frac: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SynthParams {
    fn default() -> Self {
        SynthParams {
            rows: 4,
            gates_per_row: 40,
            strap_frac: 0.25,
            jog_frac: 0.03,
            short_mid_frac: 0.03,
            wide_frac: 0.08,
            seed: 1,
        }
    }
}

impl SynthParams {
    /// Approximate polygon count this configuration will produce.
    pub fn approx_polygons(&self) -> usize {
        // Gates plus ~jog extras plus straps.
        let gates = self.rows * self.gates_per_row;
        gates
            + (gates as f64 * self.jog_frac) as usize
            + (self.rows as f64 * self.strap_frac * 2.0) as usize
    }
}

const GATE_W: i64 = 100;
const WIDE_W: i64 = 320;
const GATE_H: i64 = 2000;
const ROW_PITCH: i64 = 3400;
/// Placement site pitch. Like real standard-cell rows, gates are placed on
/// a shared site grid so clear full-height columns exist in every row —
/// otherwise no legal end-to-end vertical space could ever be inserted.
/// Occupancy within a site never exceeds 460 dbu, so `[site+460, site+560]`
/// is clear across the whole chip.
const SITE: i64 = 560;

/// Generates a synthetic layout.
///
/// The result is feature-DRC-clean by construction (verified in tests):
/// pitches never drop below the minimum feature space and rows/straps
/// occupy disjoint bands.
pub fn generate(params: &SynthParams, rules: &DesignRules) -> Layout {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut rects: Vec<Rect> = Vec::new();
    for row in 0..params.rows {
        let y0 = row as i64 * ROW_PITCH;
        let mut site_idx = 0i64;
        let mut gates_placed = 0usize;
        while gates_placed < params.gates_per_row {
            let x = site_idx * SITE;
            let roll: f64 = rng.gen();
            if roll < params.jog_frac && site_idx > 0 {
                // Stacked jogged pair: lower + upper with lateral offset in
                // the conflict window. Occupancy stays within [0, 420] of
                // the site (offset <= 320 keeps next-site spacing legal).
                let lower = Rect::new(x, y0, x + GATE_W, y0 + 900);
                let offset = rng.gen_range(120..=320);
                let upper = Rect::new(x + offset, y0 + 1100, x + offset + GATE_W, y0 + GATE_H);
                rects.push(lower);
                rects.push(upper);
                gates_placed += 2;
                site_idx += 1;
            } else if roll < params.jog_frac + params.short_mid_frac {
                // Short-middle triple at tight pitch, spanning two sites.
                let a = Rect::new(x, y0, x + GATE_W, y0 + GATE_H);
                let b = Rect::new(x + 340, y0, x + 440, y0 + 800);
                let c = Rect::new(x + 680, y0, x + 780, y0 + GATE_H);
                rects.push(a);
                rects.push(b);
                rects.push(c);
                gates_placed += 3;
                site_idx += 2;
            } else if roll < params.jog_frac + params.short_mid_frac + params.wide_frac {
                let h = rng.gen_range(1200..GATE_H);
                rects.push(Rect::new(x, y0, x + WIDE_W, y0 + h));
                gates_placed += 1;
                site_idx += 1;
            } else {
                let h = rng.gen_range(1400..=GATE_H);
                rects.push(Rect::new(x, y0, x + GATE_W, y0 + h));
                gates_placed += 1;
                site_idx += 1;
            }
            // Occasional empty site for density variation.
            if rng.gen_bool(0.12) {
                site_idx += 1;
            }
        }
        let row_x_end = site_idx * SITE;
        // Routing straps in the inter-row band below this row.
        if rng.gen::<f64>() < params.strap_frac {
            // Close strap: top shifter merges with the gate shifters of a
            // random segment of this row.
            let seg_len = rng.gen_range(1500..4000.min(row_x_end.max(1600)));
            let seg_x = rng.gen_range(0..(row_x_end - seg_len).max(1));
            // Strap band 540 below the row: the strap's top shifter ends
            // 240 dbu short of the gate shifters — inside the 280 spacing
            // rule, so it merges with both shifters of every crossed gate
            // (odd cycles), while the needed correction space stays small.
            rects.push(Rect::new(seg_x, y0 - 640, seg_x + seg_len, y0 - 540));
        }
        if rng.gen::<f64>() < params.strap_frac {
            // Far strap: benign routing. The band sits 150 dbu above the
            // tallest gates of the previous row, clear of all rules.
            let seg_len = rng.gen_range(2000..6000.min(row_x_end.max(2100)));
            let seg_x = rng.gen_range(0..(row_x_end - seg_len).max(1));
            rects.push(Rect::new(seg_x, y0 - 1250, seg_x + seg_len, y0 - 1150));
        }
    }
    let _ = rules;
    Layout::from_rects(rects)
}

/// A named benchmark design.
#[derive(Clone, Debug)]
pub struct BenchDesign {
    /// Short name (Table 1 row label).
    pub name: &'static str,
    /// Generator configuration.
    pub params: SynthParams,
}

/// The Table 1 benchmark suite: nine designs from ~1 K to ~160 K polygons
/// (the paper's largest example is a full-chip layout with approximately
/// 160 K polygons).
pub fn standard_suite() -> Vec<BenchDesign> {
    let mk = |name, rows, gates, seed| BenchDesign {
        name,
        params: SynthParams {
            rows,
            gates_per_row: gates,
            seed,
            ..SynthParams::default()
        },
    };
    vec![
        mk("d1", 5, 200, 11),
        mk("d2", 8, 310, 12),
        mk("d3", 10, 500, 13),
        mk("d4", 16, 620, 14),
        mk("d5", 25, 800, 15),
        mk("d6", 40, 1000, 16),
        mk("d7", 50, 1600, 17),
        mk("d8", 80, 1400, 18),
        mk("fullchip", 128, 1250, 19),
    ]
}

/// The parallel-scaling suite: the same conflict-rich row recipe at 1×,
/// 4×, 16× and 64× row counts. Rows are independent conflict blocks, so
/// these designs scale the number of independent dual T-join instances
/// and the spatial extent the sharded front-end (crossing sweep,
/// merge-constraint scan) decomposes — the axis
/// `DetectConfig::parallelism` scales. `crates/core/tests/scaling_suite.rs`
/// pins each design's parallel == serial, incremental == scratch and
/// bipartization counts.
pub fn scaling_suite() -> Vec<BenchDesign> {
    let mk = |name, rows| BenchDesign {
        name,
        params: SynthParams {
            rows,
            gates_per_row: 120,
            strap_frac: 0.75,
            jog_frac: 0.08,
            short_mid_frac: 0.06,
            seed: 31,
            ..SynthParams::default()
        },
    };
    vec![
        mk("rows_x1", 4),
        mk("rows_x4", 16),
        mk("rows_x16", 64),
        mk("rows_x64", 256),
    ]
}

/// The Table 2 layout-modification suite: smaller designs with a healthy
/// conflict population.
pub fn modification_suite() -> Vec<BenchDesign> {
    let mk = |name, rows, gates, strap, jog, seed| BenchDesign {
        name,
        params: SynthParams {
            rows,
            gates_per_row: gates,
            strap_frac: strap,
            jog_frac: jog,
            short_mid_frac: 0.008,
            seed,
            ..SynthParams::default()
        },
    };
    vec![
        mk("m1", 4, 60, 0.30, 0.006, 21),
        mk("m2", 6, 90, 0.15, 0.004, 22),
        mk("m3", 7, 120, 0.25, 0.008, 23),
        mk("m4", 9, 150, 0.12, 0.004, 24),
        mk("m5", 11, 200, 0.22, 0.006, 25),
        mk("m6", 14, 260, 0.15, 0.004, 26),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_assignable, extract_phase_geometry};

    #[test]
    fn generation_is_deterministic() {
        let p = SynthParams::default();
        let r = DesignRules::default();
        assert_eq!(generate(&p, &r), generate(&p, &r));
        let p2 = SynthParams { seed: 2, ..p };
        assert_ne!(generate(&p2, &r), generate(&SynthParams::default(), &r));
    }

    #[test]
    fn generated_layouts_are_drc_clean() {
        let r = DesignRules::default();
        for seed in 0..5 {
            let p = SynthParams {
                seed,
                rows: 3,
                gates_per_row: 60,
                ..SynthParams::default()
            };
            let l = generate(&p, &r);
            let v = l.validate(&r);
            assert!(v.is_empty(), "seed {seed}: {v:?}");
        }
    }

    #[test]
    fn default_params_produce_conflicts() {
        let r = DesignRules::default();
        let l = generate(&SynthParams::default(), &r);
        let g = extract_phase_geometry(&l, &r);
        assert!(
            check_assignable(&g).is_err(),
            "default synth config should produce at least one phase conflict"
        );
        assert!(g.overlaps.len() > 50, "expected a rich constraint set");
    }

    #[test]
    fn zero_motif_fractions_are_assignable() {
        let r = DesignRules::default();
        let p = SynthParams {
            strap_frac: 0.0,
            jog_frac: 0.0,
            short_mid_frac: 0.0,
            rows: 3,
            gates_per_row: 50,
            ..SynthParams::default()
        };
        let l = generate(&p, &r);
        let g = extract_phase_geometry(&l, &r);
        assert!(check_assignable(&g).is_ok());
    }

    #[test]
    fn suites_scale_as_documented() {
        let suite = standard_suite();
        assert_eq!(suite.len(), 9);
        let sizes: Vec<usize> = suite
            .iter()
            .map(|d| d.params.rows * d.params.gates_per_row)
            .collect();
        assert!(sizes.windows(2).all(|w| w[0] < w[1]));
        assert!(sizes[0] >= 1000);
        assert!(*sizes.last().unwrap() >= 160_000);
    }
}

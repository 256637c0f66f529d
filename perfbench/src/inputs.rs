//! Seeded input generation: the workload recipes, the placement each
//! workload seed gives them, and input hashing.
//!
//! The *structure* of every input (and `service_eco`'s edit script) comes
//! from a fixed recipe seed (the repository's suite seeds), and the
//! workload seed places it: each input is translated by an offset drawn
//! from the workload seed. A design's
//! structure decides its cost, and for the correction planner that cost
//! is heavy-tailed — the exact cover's node-limited search can take 10×
//! longer on one block than on the next — so seeding the structure would
//! make a run measure which designs it drew rather than the program.
//! A translation changes every coordinate the program reads (and the
//! input hash) while keeping the work it does.

use crate::Scale;
use aapsm::gds::{write_gds, write_gds_hier};
use aapsm::geom::Rect;
use aapsm::layout::synth::{generate, SynthParams};
use aapsm::layout::{Cell, DesignRules, HierLayout, Instance, Layout, Orient, Placement};

/// 64-bit FNV-1a.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    /// A fresh hasher.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a of a byte string.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write(bytes);
    h.finish()
}

/// FNV-1a of a layout's rectangles, in order.
pub fn hash_layout(layout: &Layout) -> u64 {
    let mut h = Fnv::new();
    for r in layout.rects() {
        for v in [r.x_lo(), r.y_lo(), r.x_hi(), r.y_hi()] {
            h.write(&v.to_le_bytes());
        }
    }
    h.finish()
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seed of input `index` of stream `stream` (one stream per input
/// kind), derived from the workload seed.
pub fn derive_seed(seed: u64, stream: u64, index: u64) -> u64 {
    splitmix64(splitmix64(seed ^ splitmix64(stream)).wrapping_add(index))
}

/// Largest translation, per axis, in dbu: far inside the GDS i32 range.
const MAX_OFFSET: u64 = 1 << 20;

/// The offset the workload seed places input `index` of `stream` at.
fn offset(seed: u64, stream: u64, index: u64) -> (i64, i64) {
    let r = derive_seed(seed, stream, index);
    ((r % MAX_OFFSET) as i64, ((r >> 32) % MAX_OFFSET) as i64)
}

fn translate(layout: &Layout, (dx, dy): (i64, i64)) -> Layout {
    Layout::from_rects(
        layout
            .rects()
            .iter()
            .map(|r| Rect::new(r.x_lo() + dx, r.y_lo() + dy, r.x_hi() + dx, r.y_hi() + dy))
            .collect(),
    )
}

/// Recipe seed of the scaling suite (`rows_x*`); block `i` of a batch
/// uses this plus `i`.
const ROWS_SEED: u64 = 31;

/// The conflict-rich row recipe of the scaling suite (`rows_x*`).
fn rows_recipe(rows: usize, gates_per_row: usize, seed: u64) -> SynthParams {
    SynthParams {
        rows,
        gates_per_row,
        strap_frac: 0.75,
        jog_frac: 0.08,
        short_mid_frac: 0.06,
        seed,
        ..SynthParams::default()
    }
}

/// A generated flat input and its GDS stream.
pub struct FlatInput {
    /// Input name (for the hash list).
    pub name: String,
    /// The layout.
    pub layout: Layout,
    /// Its GDS stream: what the operation reads.
    pub gds: Vec<u8>,
}

fn flat_input(
    name: String,
    params: &SynthParams,
    at: (i64, i64),
    rules: &DesignRules,
) -> FlatInput {
    let layout = translate(&generate(params, rules), at);
    let gds = write_gds(&layout, "TOP");
    FlatInput { name, layout, gds }
}

/// `flow_fullchip`: the standard suite's `d6` layout (40 rows × 1000
/// gates, recipe seed 16, ≈40 K polygons).
pub fn fullchip(seed: u64, scale: Scale, rules: &DesignRules) -> Vec<FlatInput> {
    let (rows, gates) = match scale {
        Scale::Full => (40, 1000),
        Scale::Smoke => (3, 120),
    };
    let params = SynthParams {
        rows,
        gates_per_row: gates,
        seed: 16,
        ..SynthParams::default()
    };
    vec![flat_input(
        "d6".to_string(),
        &params,
        offset(seed, 1, 0),
        rules,
    )]
}

/// `flow_cover`: a batch of `rows_x4` blocks (16 rows × 120 gates,
/// ≈1.95 K polygons each; recipe seeds 31, 32, …).
pub fn cover_batch(seed: u64, scale: Scale, rules: &DesignRules) -> Vec<FlatInput> {
    let (designs, rows, gates) = match scale {
        Scale::Full => (8, 16, 120),
        Scale::Smoke => (2, 2, 60),
    };
    (0..designs)
        .map(|i| {
            let params = rows_recipe(rows, gates, ROWS_SEED + i as u64);
            flat_input(
                format!("rows_x4.{i}"),
                &params,
                offset(seed, 2, i as u64),
                rules,
            )
        })
        .collect()
}

/// `service_eco`: one `rows_x16` layout (64 rows × 120 gates, ≈7.8 K
/// polygons; recipe seeds 31, 32, …) per session.
pub fn service_sessions(seed: u64, scale: Scale, rules: &DesignRules) -> Vec<Layout> {
    let (sessions, rows) = match scale {
        Scale::Full => (4, 64),
        Scale::Smoke => (2, 4),
    };
    (0..sessions)
        .map(|i| {
            let layout = generate(&rows_recipe(rows, 120, ROWS_SEED + i as u64), rules);
            translate(&layout, offset(seed, 3, i as u64))
        })
        .collect()
}

/// A generated hierarchical library.
pub struct HierInput {
    /// The hierarchy.
    pub hier: HierLayout,
    /// Its GDS stream: what the operation reads.
    pub gds: Vec<u8>,
}

/// `hier_grid`: synthesized one-row leaf cells (recipe seeds 31, 32, …),
/// placed at the seeded offset on a square grid
/// that cycles all eight orientations, each leaf taking eight
/// consecutive slots, so every `(cell, orientation)` class recurs.
/// Slots are one interaction radius wider than the largest oriented
/// leaf: neighbours nearly abut, so instance-boundary interactions exist
/// and the boundary stitch runs.
pub fn hier_grid(seed: u64, scale: Scale, rules: &DesignRules) -> HierInput {
    let (leaves, gates, side) = match scale {
        Scale::Full => (4usize, 120, 16usize),
        Scale::Smoke => (2, 40, 4),
    };
    let mut hier = HierLayout::new();
    let mut leaf_ix = Vec::new();
    let mut extent = 0i64;
    for i in 0..leaves {
        let layout = generate(&rows_recipe(1, gates, ROWS_SEED + i as u64), rules);
        if let Some(bbox) = layout.bbox() {
            extent = extent.max(bbox.width()).max(bbox.height());
        }
        let mut cell = Cell::new(format!("LEAF{i}"));
        cell.rects = layout.rects().to_vec();
        leaf_ix.push(hier.add_cell(cell));
    }
    let pitch = extent + rules.interaction_radius();
    let (dx, dy) = offset(seed, 4, 0);
    let mut top = Cell::new("TOP");
    for slot in 0..side * side {
        let (row, col) = (slot / side, slot % side);
        let cell = leaf_ix[(slot / 8) % leaves];
        let orient = Orient::all()[slot % 8];
        // Anchor the oriented leaf's bounding box at the slot corner.
        let bbox = Layout::from_rects(hier.cells[cell].rects.clone())
            .bbox()
            .and_then(|b| orient.try_apply_rect(&b))
            .expect("synthesized leaves are non-empty and far inside the i32 range");
        top.instances.push(Instance {
            cell,
            placement: Placement::new(
                orient,
                dx + col as i64 * pitch - bbox.x_lo(),
                dy + row as i64 * pitch - bbox.y_lo(),
            ),
        });
    }
    let top_ix = hier.add_cell(top);
    hier.top = Some(top_ix);
    let gds = write_gds_hier(&hier, "PERFBENCH");
    HierInput { hier, gds }
}

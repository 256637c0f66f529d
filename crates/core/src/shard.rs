//! Tile-sharded conflict-graph construction — the full-chip scaling
//! primitive of the detection front-end.
//!
//! The layout bounding box (over shifter centers) is cut into a K×K tile
//! grid. Every graph *constraint* has a geometric **anchor point** — the
//! midpoint of its two shifter centers for an overlap, the feature center
//! for a flanking constraint — and is **owned** by the unique tile whose
//! core contains that anchor. Each tile builds its own node/edge lists
//! with dense local renumbering, in parallel, and the tiles are stitched
//! into one [`ConflictGraph`].
//!
//! # Tile / halo / stitching invariants
//!
//! 1. **Ownership partition.** Tile cores partition the bounding box
//!    (half-open in both axes, closed on the high boundary), so every
//!    constraint is owned by exactly one tile and no constraint is lost or
//!    duplicated — stitching needs no cross-tile dedup.
//! 2. **Halo locality.** A tile may reference shifters it does not own:
//!    the endpoints of an owned constraint. Overlapping shifters lie
//!    within [`aapsm_layout::DesignRules::shifter_spacing`] of each other
//!    and a feature's own shifters flank it directly, so every referenced
//!    shifter center lies within one constraint-interaction radius of the
//!    tile core — the tile's *halo*. Tile inputs are therefore local:
//!    a distributed implementation would ship each tile only its core
//!    plus halo geometry.
//! 3. **Dense local renumbering.** Within a tile, nodes get consecutive
//!    local ids in first-use order; edges reference local ids. Each local
//!    node records its canonical global id, which is closed-form from the
//!    serial construction order (shifter nodes first, then per-constraint
//!    nodes in constraint order), so local ids never leak across tiles.
//! 4. **Bit-identical stitching.** Stitching scatters each tile's edges
//!    into their canonical global edge slots and emits nodes and edges in
//!    exactly the serial order. The stitched graph — node ids, positions,
//!    edge ids, endpoint orientation, weights, constraints, adjacency —
//!    is **bit-identical** to [`crate::build_conflict_graph`] for every
//!    tile count and parallelism degree (property-tested in
//!    `tests/parallel_equivalence.rs`).
//!
//! # Incremental rebuild invariants ([`TileBuildState`])
//!
//! The retained decomposition supports cheap rebuilds after an
//! end-to-end-cut batch (the re-detect loop); exactness rests on four
//! more invariants:
//!
//! 5. **Partition-agnostic stitch.** The stitch never looks at tile
//!    geometry — *any* grouping of the constraints scatters to the same
//!    canonical graph. Incremental rounds may therefore keep the round-0
//!    grouping (routing cut-created constraints to groups by their
//!    anchor in the round-0 frame) instead of re-tiling the grown
//!    bounding box, and lose nothing but load balance.
//! 6. **Core+halo dirtiness test.** A group's stored box hulls every
//!    owned constraint's full geometry — endpoint shifter rects and
//!    feature bodies, i.e. core *plus* halo. If that box is rigid under
//!    the cuts (`DirtyRegions::rigid_shift_of`), every input of the
//!    group's slice translated by one shared vector, so the slice can be
//!    reused; any slab contact forces a rebuild of exactly that group.
//! 7. **Exact remap of reused slices.** A reused slice is translated by
//!    the group shift and index-remapped: shifter node ids are stable
//!    (criticality pattern unchanged on this path — enforced upstream by
//!    the extraction fallback), overlap nodes/edges follow the
//!    extraction's overlap index map, flank edges take the recomputed
//!    global flank weight. Remapping is arithmetic only — no hashing, no
//!    interning — and commutes with [`build_tile`].
//! 8. **Scope.** Only the phase conflict graph is remapped; the
//!    feature-graph ablation rebuilds from scratch (its conflict-node
//!    ids depend on same-side overlap ranks that have no stable prefix).
//!
//! # Instance-as-tile invariant (hierarchical detection)
//!
//! 9. **A placed instance is a tile.** Invariant 5 makes the grouping a
//!    free variable, so [`crate::detect_hier`] groups constraints by the
//!    top-level placed instance that owns them (the instance whose flat
//!    rect range contains the constraint's anchoring feature; boundary
//!    interactions between instances land in the owner of their `o.a`
//!    shifter's feature and stitch exactly like any cross-tile halo
//!    edge). Combined with the translation-invariant planarization order
//!    (weight then edge index, both per-component stable) and the
//!    coordinate-free dual-T-join instance key, a cell's **interior**
//!    components hash identically whether built standalone or inside the
//!    chip — which is what lets one primed per-cell solve be reused
//!    across every placement of that cell, while instance-boundary
//!    components simply miss the cache and solve fresh.

use crate::graphs::{flank_weight_for, ConflictGraph, EdgeConstraint, GraphKind};
use aapsm_fault::{Budget, BudgetExceeded, FaultSite, Stage};
use aapsm_geom::{resolve_workers, DirtyRegions, Point, Rect};
use aapsm_graph::EmbeddedGraph;
use aapsm_layout::PhaseGeometry;

/// Configuration of the tile-sharded build.
#[derive(Clone, Copy, Debug)]
pub struct TileConfig {
    /// Tiles per axis (K of the K×K grid); `0` = choose from the worker
    /// count (smallest K with K² ≥ 4·workers, capped at 64).
    pub tiles: usize,
    /// Worker threads: `0` = one per available CPU, `1` = build the tiles
    /// on the calling thread, `k` = at most `k` workers.
    pub parallelism: usize,
}

impl Default for TileConfig {
    fn default() -> Self {
        TileConfig {
            tiles: 0,
            parallelism: 1,
        }
    }
}

impl TileConfig {
    /// A configuration that auto-sizes the tile grid for `parallelism`
    /// workers.
    pub fn for_parallelism(parallelism: usize) -> Self {
        TileConfig {
            tiles: 0,
            parallelism,
        }
    }

    fn tiles_per_axis(&self) -> usize {
        if self.tiles > 0 {
            return self.tiles;
        }
        let workers = resolve_workers(self.parallelism);
        let mut k = 1usize;
        while k * k < 4 * workers && k < 64 {
            k += 1;
        }
        k
    }
}

/// A tile's locally-renumbered slice of the conflict graph.
#[derive(Clone, Debug)]
struct TileGraph {
    /// Canonical global node id per local id, in first-use order.
    global_of_local: Vec<u32>,
    /// Node position per local id.
    pos: Vec<Point>,
    /// Edges as `(local u, local v, weight, constraint)`, tile-local order.
    edges: Vec<(u32, u32, i64, EdgeConstraint)>,
    /// Canonical global edge id per tile edge.
    global_edge: Vec<u32>,
}

impl TileGraph {
    fn new() -> Self {
        TileGraph {
            global_of_local: Vec::new(),
            pos: Vec::new(),
            edges: Vec::new(),
            global_edge: Vec::new(),
        }
    }

    /// Dense local id of a global node, interning it on first use.
    fn local(
        &mut self,
        global: u32,
        pos: Point,
        interned: &mut aapsm_geom::FxHashMap<u32, u32>,
    ) -> u32 {
        *interned.entry(global).or_insert_with(|| {
            let l = self.global_of_local.len() as u32;
            self.global_of_local.push(global);
            self.pos.push(pos);
            l
        })
    }

    fn push_edge(&mut self, u: u32, v: u32, w: i64, c: EdgeConstraint, gid: u32) {
        self.edges.push((u, v, w, c));
        self.global_edge.push(gid);
    }
}

/// The K×K tiling of the shifter-center bounding box.
#[derive(Clone, Debug)]
struct Tiling {
    x0: i64,
    y0: i64,
    w: i64,
    h: i64,
    k: i64,
}

impl Tiling {
    fn over(centers: impl Iterator<Item = Point>, k: usize) -> Option<Tiling> {
        let mut bounds: Option<(i64, i64, i64, i64)> = None;
        for c in centers {
            let b = bounds.get_or_insert((c.x, c.y, c.x, c.y));
            b.0 = b.0.min(c.x);
            b.1 = b.1.min(c.y);
            b.2 = b.2.max(c.x);
            b.3 = b.3.max(c.y);
        }
        let (x0, y0, x1, y1) = bounds?;
        Some(Tiling {
            x0,
            y0,
            w: x1 - x0 + 1,
            h: y1 - y0 + 1,
            k: k as i64,
        })
    }

    fn tile_count(&self) -> usize {
        (self.k * self.k) as usize
    }

    /// The tile owning an anchor point (clamped to the grid, so anchors on
    /// the high boundary land in the last tile).
    fn tile_of(&self, p: Point) -> usize {
        let tx = ((p.x - self.x0) as i128 * self.k as i128 / self.w as i128)
            .clamp(0, self.k as i128 - 1) as i64;
        let ty = ((p.y - self.y0) as i128 * self.k as i128 / self.h as i128)
            .clamp(0, self.k as i128 - 1) as i64;
        (ty * self.k + tx) as usize
    }
}

/// Canonical global id layout of a conflict graph, precomputed so tiles
/// can emit global node/edge ids without coordination.
struct IdLayout {
    shifters: usize,
    node_count: usize,
    edge_count: usize,
    /// PCG: overlap node of `oi` = `shifters + oi`; first overlap edge =
    /// `2 * oi`; flank edge of the r-th critical feature = `flank_base + r`.
    /// FG: feature node of the r-th critical feature = `shifters + r`;
    /// conflict node of the r-th same-side overlap = `conflict_base + r`;
    /// overlap edges start at `overlap_edge_offset[oi]`.
    flank_base: u32,
    conflict_base: u32,
    crit_rank: Vec<u32>,
    overlap_edge_offset: Vec<u32>,
    /// FG only: same-side rank per overlap (undefined for opposite-side).
    ss_rank: Vec<u32>,
}

fn id_layout(geom: &PhaseGeometry, kind: GraphKind) -> IdLayout {
    let s = geom.shifters.len();
    let o = geom.overlaps.len();
    let mut crit_rank = vec![0u32; geom.features.len()];
    let mut criticals = 0u32;
    for (fi, f) in geom.features.iter().enumerate() {
        crit_rank[fi] = criticals;
        if f.shifters.is_some() {
            criticals += 1;
        }
    }
    match kind {
        GraphKind::PhaseConflict => IdLayout {
            shifters: s,
            node_count: s + o,
            edge_count: 2 * o + criticals as usize,
            flank_base: 2 * o as u32,
            conflict_base: 0,
            crit_rank,
            overlap_edge_offset: Vec::new(),
            ss_rank: Vec::new(),
        },
        GraphKind::Feature => {
            let mut overlap_edge_offset = vec![0u32; o];
            let mut ss_rank = vec![0u32; o];
            let mut cursor = 2 * criticals;
            let mut same_side = 0u32;
            for (oi, ov) in geom.overlaps.iter().enumerate() {
                overlap_edge_offset[oi] = cursor;
                ss_rank[oi] = same_side;
                let ss = geom.shifters[ov.a].side == geom.shifters[ov.b].side;
                cursor += if ss { 2 } else { 1 };
                same_side += ss as u32;
            }
            IdLayout {
                shifters: s,
                node_count: s + criticals as usize + same_side as usize,
                edge_count: cursor as usize,
                flank_base: 0,
                conflict_base: (s + criticals as usize) as u32,
                crit_rank,
                overlap_edge_offset,
                ss_rank,
            }
        }
    }
}

/// Builds the tile's slice: its owned overlaps and critical features, with
/// locally-renumbered nodes and canonical global ids.
///
/// Charges one [`Stage::GraphBuild`] tick per owned constraint to
/// `budget`; a tripped budget aborts the build (there is no cheaper way
/// to construct the graph, so callers surface the error instead of
/// degrading).
// Invariant, not an error path: owned feature lists are filtered to
// critical features (shifters present) at ownership-assignment time.
#[allow(clippy::expect_used)]
fn build_tile(
    geom: &PhaseGeometry,
    kind: GraphKind,
    ids: &IdLayout,
    flank_weight: i64,
    owned_overlaps: &[u32],
    owned_features: &[u32],
    budget: &Budget,
) -> Result<TileGraph, BudgetExceeded> {
    aapsm_fault::hit(FaultSite::TileBuild);
    budget.charge(
        Stage::GraphBuild,
        (owned_overlaps.len() + owned_features.len()) as u64,
    )?;
    let mut tg = TileGraph::new();
    let mut interned = aapsm_geom::FxHashMap::default();
    let s = ids.shifters as u32;
    let center = |si: usize| geom.shifters[si].rect.center();
    match kind {
        GraphKind::PhaseConflict => {
            for &oi in owned_overlaps {
                let o = &geom.overlaps[oi as usize];
                let (ca, cb) = (center(o.a), center(o.b));
                let la = tg.local(o.a as u32, ca, &mut interned);
                let lb = tg.local(o.b as u32, cb, &mut interned);
                let ln = tg.local(s + oi, ca.midpoint(cb), &mut interned);
                let c = EdgeConstraint::Overlap(oi as usize);
                tg.push_edge(la, ln, o.weight, c, 2 * oi);
                tg.push_edge(ln, lb, o.weight, c, 2 * oi + 1);
            }
            for &fi in owned_features {
                let (lo, hi) = geom.features[fi as usize]
                    .shifters
                    .expect("owned features are critical");
                let la = tg.local(lo as u32, center(lo), &mut interned);
                let lb = tg.local(hi as u32, center(hi), &mut interned);
                let gid = ids.flank_base + ids.crit_rank[fi as usize];
                tg.push_edge(
                    la,
                    lb,
                    flank_weight,
                    EdgeConstraint::Flank(fi as usize),
                    gid,
                );
            }
        }
        GraphKind::Feature => {
            for &fi in owned_features {
                let f = &geom.features[fi as usize];
                let (lo, hi) = f.shifters.expect("owned features are critical");
                let rank = ids.crit_rank[fi as usize];
                let la = tg.local(lo as u32, center(lo), &mut interned);
                let lf = tg.local(s + rank, f.rect.center(), &mut interned);
                let lb = tg.local(hi as u32, center(hi), &mut interned);
                let c = EdgeConstraint::Flank(fi as usize);
                tg.push_edge(la, lf, flank_weight, c, 2 * rank);
                tg.push_edge(lf, lb, flank_weight, c, 2 * rank + 1);
            }
            for &oi in owned_overlaps {
                let o = &geom.overlaps[oi as usize];
                let (sa, sb) = (&geom.shifters[o.a], &geom.shifters[o.b]);
                let la = tg.local(o.a as u32, center(o.a), &mut interned);
                let lb = tg.local(o.b as u32, center(o.b), &mut interned);
                let c = EdgeConstraint::Overlap(oi as usize);
                let gid = ids.overlap_edge_offset[oi as usize];
                if sa.side == sb.side {
                    let ln = tg.local(
                        ids.conflict_base + ids.ss_rank[oi as usize],
                        sa.rect.overlap_region_center(&sb.rect),
                        &mut interned,
                    );
                    tg.push_edge(la, ln, o.weight, c, gid);
                    tg.push_edge(ln, lb, o.weight, c, gid + 1);
                } else {
                    tg.push_edge(la, lb, o.weight, c, gid);
                }
            }
        }
    }
    Ok(tg)
}

/// Scatters tile slices into canonical slots and emits nodes and edges in
/// exactly the serial order — the partition-agnostic half of the tiled
/// build: *any* grouping of the constraints, built per group, stitches to
/// the canonical graph.
// Invariant, not an error path: the ownership partition (module invariant
// 1) fills every canonical edge slot exactly once.
#[allow(clippy::expect_used)]
fn stitch<'a>(
    geom: &PhaseGeometry,
    kind: GraphKind,
    ids: &IdLayout,
    flank_weight: i64,
    tiles: impl Iterator<Item = &'a TileGraph>,
) -> ConflictGraph {
    let mut positions: Vec<Point> = Vec::with_capacity(ids.node_count);
    positions.extend(geom.shifters.iter().map(|s| s.rect.center()));
    positions.resize(ids.node_count, Point::new(0, 0));
    let mut edge_slots: Vec<Option<(u32, u32, i64, EdgeConstraint)>> = vec![None; ids.edge_count];
    for tg in tiles {
        for (k, &(lu, lv, w, c)) in tg.edges.iter().enumerate() {
            let gu = tg.global_of_local[lu as usize];
            let gv = tg.global_of_local[lv as usize];
            let slot = &mut edge_slots[tg.global_edge[k] as usize];
            debug_assert!(slot.is_none(), "edge owned by two tiles");
            *slot = Some((gu, gv, w, c));
        }
        for (l, &g) in tg.global_of_local.iter().enumerate() {
            positions[g as usize] = tg.pos[l];
        }
    }
    let mut graph = EmbeddedGraph::new();
    graph.reserve(ids.node_count, ids.edge_count);
    for &p in &positions {
        graph.add_node(p);
    }
    let mut edge_constraint = Vec::with_capacity(ids.edge_count);
    for slot in edge_slots {
        let (u, v, w, c) = slot.expect("every canonical edge is owned by exactly one tile");
        graph.add_edge(aapsm_graph::NodeId(u), aapsm_graph::NodeId(v), w);
        edge_constraint.push(c);
    }
    graph.nudge_duplicate_positions();
    ConflictGraph {
        graph,
        kind,
        edge_constraint,
        flank_weight,
    }
}

/// One owned group of the tile decomposition, with its built slice and
/// the bounding box of everything the slice references (owned constraint
/// anchors *and* their endpoint shifters / feature bodies — the tile's
/// core plus halo).
#[derive(Clone, Debug)]
struct TileGroup {
    overlaps: Vec<u32>,
    features: Vec<u32>,
    bbox: Option<(i64, i64, i64, i64)>,
    graph: TileGraph,
}

impl TileGroup {
    fn is_empty(&self) -> bool {
        self.overlaps.is_empty() && self.features.is_empty()
    }
}

/// Retained tile decomposition of the last conflict-graph build, the
/// front-end half of the incremental re-detect (see the module docs'
/// *incremental rebuild* invariants).
#[derive(Clone, Debug)]
pub struct TileBuildState {
    kind: GraphKind,
    /// The round-0 tiling; new constraints of later rounds are routed to
    /// groups by their (clamped) anchor in this frame. `None` when the
    /// geometry had no shifters.
    tiling: Option<Tiling>,
    groups: Vec<TileGroup>,
}

/// Reuse counters of one incremental rebuild.
#[derive(Clone, Copy, Debug, Default)]
pub struct TileReuse {
    /// Groups whose slice was translated and remapped without rebuilding.
    pub reused: usize,
    /// Groups rebuilt because their core+halo box touched a dirty region
    /// (or absorbed a new constraint).
    pub rebuilt: usize,
}

/// Joint bounding box of a group's owned geometry: for an overlap both
/// endpoint shifter rects, for a flank the feature body plus both
/// shifters. This covers the tile core *and* halo, so a rigid box implies
/// every input of the group's slice translated by one vector.
// Invariant: owned feature lists only ever hold critical features.
#[allow(clippy::expect_used)]
fn group_bbox(geom: &PhaseGeometry, overlaps: &[u32], features: &[u32]) -> Option<Rect> {
    let mut acc: Option<Rect> = None;
    let mut grow = |r: Rect| {
        acc = Some(match acc {
            Some(a) => a.hull(&r),
            None => r,
        });
    };
    for &oi in overlaps {
        let o = &geom.overlaps[oi as usize];
        grow(geom.shifters[o.a].rect);
        grow(geom.shifters[o.b].rect);
    }
    for &fi in features {
        let f = &geom.features[fi as usize];
        grow(f.rect);
        let (lo, hi) = f.shifters.expect("owned features are critical");
        grow(geom.shifters[lo].rect);
        grow(geom.shifters[hi].rect);
    }
    acc
}

fn rect_tuple(r: Rect) -> (i64, i64, i64, i64) {
    (r.x_lo(), r.y_lo(), r.x_hi(), r.y_hi())
}

/// Builds a conflict graph by the tile-sharded pipeline under a
/// [`Budget`], retaining the tile decomposition for incremental rebuilds.
/// The graph is bit-identical to [`crate::build_conflict_graph`] for
/// every [`TileConfig`]; see the module docs for the invariants that make
/// the stitch exact. One [`Stage::GraphBuild`] tick is charged per
/// constraint; pass [`Budget::unlimited`] for an unbounded build.
///
/// # Errors
///
/// [`BudgetExceeded`] when the budget trips mid-build; the partial build
/// is discarded (a conflict graph has no cheaper degraded form).
pub fn build_conflict_graph_tiled_budgeted(
    geom: &PhaseGeometry,
    kind: GraphKind,
    config: &TileConfig,
    budget: &Budget,
) -> Result<(ConflictGraph, TileBuildState), BudgetExceeded> {
    let k = config.tiles_per_axis();
    let Some(tiling) = Tiling::over(geom.shifters.iter().map(|s| s.rect.center()), k) else {
        // No shifters — nothing to shard.
        let cg = crate::graphs::build_conflict_graph(geom, kind);
        return Ok((
            cg,
            TileBuildState {
                kind,
                tiling: None,
                groups: Vec::new(),
            },
        ));
    };
    let ids = id_layout(geom, kind);
    let flank_weight = flank_weight_for(geom);

    // ---- Ownership assignment (anchor point → tile). ----
    let mut tile_overlaps: Vec<Vec<u32>> = vec![Vec::new(); tiling.tile_count()];
    let mut tile_features: Vec<Vec<u32>> = vec![Vec::new(); tiling.tile_count()];
    for (oi, o) in geom.overlaps.iter().enumerate() {
        budget.charge(Stage::GraphBuild, 1)?;
        tile_overlaps[tiling.tile_of(overlap_anchor(geom, o))].push(oi as u32);
    }
    for (fi, f) in geom.features.iter().enumerate() {
        budget.charge(Stage::GraphBuild, 1)?;
        if f.shifters.is_some() {
            tile_features[tiling.tile_of(f.rect.center())].push(fi as u32);
        }
    }

    // ---- Per-tile builds (parallel). ----
    let (occupied, built) = build_groups_budgeted(
        geom,
        kind,
        &ids,
        flank_weight,
        (&tile_overlaps, &tile_features),
        config.parallelism,
        budget,
    )?;
    let cg = stitch(geom, kind, &ids, flank_weight, built.iter());

    // ---- Retain the decomposition. ----
    let mut groups: Vec<TileGroup> = tile_overlaps
        .into_iter()
        .zip(tile_features)
        .map(|(overlaps, features)| TileGroup {
            bbox: group_bbox(geom, &overlaps, &features).map(rect_tuple),
            overlaps,
            features,
            graph: TileGraph::new(),
        })
        .collect();
    for (slot, tg) in occupied.into_iter().zip(built) {
        budget.charge(Stage::GraphBuild, 1)?;
        groups[slot].graph = tg;
    }
    Ok((
        cg,
        TileBuildState {
            kind,
            tiling: Some(tiling),
            groups,
        },
    ))
}

/// Builds the slice of every non-empty group (`owned.0[g]` overlaps and
/// `owned.1[g]` features) on up to `parallelism` workers, returning the
/// built groups' indices and their slices in group order.
fn build_groups_budgeted(
    geom: &PhaseGeometry,
    kind: GraphKind,
    ids: &IdLayout,
    flank_weight: i64,
    (overlaps, features): (&[Vec<u32>], &[Vec<u32>]),
    parallelism: usize,
    budget: &Budget,
) -> Result<(Vec<usize>, Vec<TileGraph>), BudgetExceeded> {
    let occupied: Vec<usize> = (0..overlaps.len())
        .filter(|&g| !overlaps[g].is_empty() || !features[g].is_empty())
        .collect();
    let workers = resolve_workers(parallelism).min(occupied.len()).max(1);
    let built = aapsm_geom::par_map_indexed(
        occupied.len(),
        workers,
        || (),
        |(), i| {
            let g = occupied[i];
            build_tile(
                geom,
                kind,
                ids,
                flank_weight,
                &overlaps[g],
                &features[g],
                budget,
            )
        },
    )
    .into_iter()
    .collect::<Result<_, _>>()?;
    Ok((occupied, built))
}

fn overlap_anchor(geom: &PhaseGeometry, o: &aapsm_layout::OverlapPair) -> Point {
    geom.shifters[o.a]
        .rect
        .center()
        .midpoint(geom.shifters[o.b].rect.center())
}

impl TileBuildState {
    /// Rebuilds the conflict graph for `geom` (the post-cut geometry),
    /// recomputing only groups whose core+halo box touched a dirty
    /// region or received a constraint the cuts created, and translating
    /// plus index-remapping every other group's slice. The stitched
    /// graph is bit-identical to [`crate::build_conflict_graph`] on
    /// `geom`; the state is updated in place for the next round.
    ///
    /// `overlap_map` / `overlap_preimage` are the index mappings of the
    /// incremental extraction (`aapsm_layout::ExtractDelta`). When the
    /// extraction fell back (empty maps on non-empty overlap sets) or
    /// this state has no tiling, the whole decomposition is rebuilt from
    /// scratch.
    pub(crate) fn rebuild_incremental(
        &mut self,
        geom: &PhaseGeometry,
        dirty: &DirtyRegions,
        overlap_map: &[Option<u32>],
        overlap_preimage: &[Option<u32>],
        parallelism: usize,
        budget: &Budget,
    ) -> Result<(ConflictGraph, TileReuse), BudgetExceeded> {
        // Only the phase conflict graph has the stable shifter-id prefix
        // the remap arithmetic relies on; the FG baseline (an ablation,
        // never on the flow path) rebuilds from scratch.
        if self.kind == GraphKind::Feature {
            return self.rebuild_full(geom, parallelism, budget);
        }
        let Some(tiling) = self.tiling.clone() else {
            return self.rebuild_full(geom, parallelism, budget);
        };
        let ids = id_layout(geom, self.kind);
        let flank_weight = flank_weight_for(geom);

        // ---- Route the cut-created overlaps to their anchor's group
        // and decide which groups survive as rigid translations. ----
        let mut appended: Vec<Vec<u32>> = vec![Vec::new(); self.groups.len()];
        for (new_oi, pre) in overlap_preimage.iter().enumerate() {
            if pre.is_none() {
                let t = tiling.tile_of(overlap_anchor(geom, &geom.overlaps[new_oi]));
                appended[t].push(new_oi as u32);
            }
        }
        enum Plan {
            Keep((i64, i64)),
            Rebuild,
        }
        let plans: Vec<Plan> = self
            .groups
            .iter()
            .enumerate()
            .map(|(t, g)| {
                if !appended[t].is_empty() {
                    return Plan::Rebuild;
                }
                let Some(bbox) = g.bbox else {
                    return Plan::Keep((0, 0)); // empty group
                };
                match dirty.rigid_shift_of(bbox) {
                    Some(shift)
                        if g.overlaps
                            .iter()
                            .all(|&oi| overlap_map[oi as usize].is_some()) =>
                    {
                        Plan::Keep(shift)
                    }
                    _ => Plan::Rebuild,
                }
            })
            .collect();

        // ---- Remap kept groups, rebuild the rest (parallel). ----
        let work: Vec<usize> = (0..self.groups.len())
            .filter(|&t| !(self.groups[t].is_empty() && appended[t].is_empty()))
            .collect();
        let workers = resolve_workers(parallelism).min(work.len()).max(1);
        let reuse = TileReuse {
            reused: work
                .iter()
                .filter(|&&t| matches!(plans[t], Plan::Keep(_)))
                .count(),
            rebuilt: work
                .iter()
                .filter(|&&t| matches!(plans[t], Plan::Rebuild))
                .count(),
        };
        let groups = &self.groups;
        let kind = self.kind;
        let rebuilt: Vec<TileGroup> = aapsm_geom::par_map_indexed(
            work.len(),
            workers,
            || (),
            |(), i| {
                let t = work[i];
                let g = &groups[t];
                match plans[t] {
                    Plan::Keep(shift) => Ok(remap_group(g, &ids, flank_weight, overlap_map, shift)),
                    Plan::Rebuild => {
                        let mut overlaps: Vec<u32> = g
                            .overlaps
                            .iter()
                            .filter_map(|&oi| overlap_map[oi as usize])
                            .collect();
                        overlaps.extend_from_slice(&appended[t]);
                        let features = g.features.clone();
                        let graph = build_tile(
                            geom,
                            kind,
                            &ids,
                            flank_weight,
                            &overlaps,
                            &features,
                            budget,
                        )?;
                        Ok(TileGroup {
                            bbox: group_bbox(geom, &overlaps, &features).map(rect_tuple),
                            overlaps,
                            features,
                            graph,
                        })
                    }
                }
            },
        )
        .into_iter()
        .collect::<Result<_, BudgetExceeded>>()?;
        let cg = stitch(
            geom,
            kind,
            &ids,
            flank_weight,
            rebuilt.iter().map(|g| &g.graph),
        );
        for (t, g) in work.into_iter().zip(rebuilt) {
            self.groups[t] = g;
        }
        Ok((cg, reuse))
    }

    /// Full from-scratch rebuild of both the graph and the decomposition
    /// (extraction fallback, or no prior tiling).
    pub(crate) fn rebuild_full(
        &mut self,
        geom: &PhaseGeometry,
        parallelism: usize,
        budget: &Budget,
    ) -> Result<(ConflictGraph, TileReuse), BudgetExceeded> {
        let config = TileConfig {
            tiles: self.tiling.as_ref().map_or(0, |t| t.k as usize),
            parallelism,
        };
        let (cg, state) = build_conflict_graph_tiled_budgeted(geom, self.kind, &config, budget)?;
        let rebuilt = state.groups.iter().filter(|g| !g.is_empty()).count();
        *self = state;
        Ok((cg, TileReuse { reused: 0, rebuilt }))
    }
}

/// Translates and index-remaps a rigid group's slice (phase conflict
/// graph only): shifter node ids are unchanged, overlap nodes and edge
/// ids follow their overlap's new rank, positions shift by the group's
/// rigid vector, and flank edges pick up the (global) flank weight.
/// Equivalent to — but cheaper than — re-running [`build_tile`] on the
/// remapped owned lists: no hashing, no interning.
// Invariant: Plan::Keep requires every owned overlap to be mapped.
#[allow(clippy::expect_used)]
fn remap_group(
    g: &TileGroup,
    ids: &IdLayout,
    flank_weight: i64,
    overlap_map: &[Option<u32>],
    (dx, dy): (i64, i64),
) -> TileGroup {
    let s = ids.shifters as u32;
    let map_o = |oi: u32| overlap_map[oi as usize].expect("rigid group overlaps are mapped");
    let overlaps: Vec<u32> = g.overlaps.iter().map(|&oi| map_o(oi)).collect();
    let features = g.features.clone();
    let mut graph = TileGraph::new();
    graph.pos = g
        .graph
        .pos
        .iter()
        .map(|p| Point::new(p.x + dx, p.y + dy))
        .collect();
    // Node ids: shifters keep theirs (criticality is stable on this
    // path, so the shifter-id prefix length is frame-free); overlap
    // nodes sit at `s + oi` and follow the overlap's new index.
    graph.global_of_local = g
        .graph
        .global_of_local
        .iter()
        .map(|&gid| if gid < s { gid } else { s + map_o(gid - s) })
        .collect();
    for (k, &(lu, lv, w, c)) in g.graph.edges.iter().enumerate() {
        let (c_new, w_new, gid_new) = match c {
            EdgeConstraint::Overlap(oi) => {
                let oi_new = map_o(oi as u32);
                // The two halves of an overlap keep their parity.
                let gid = 2 * oi_new + (g.graph.global_edge[k] & 1);
                (EdgeConstraint::Overlap(oi_new as usize), w, gid)
            }
            EdgeConstraint::Flank(fi) => (
                EdgeConstraint::Flank(fi),
                flank_weight,
                ids.flank_base + ids.crit_rank[fi],
            ),
        };
        graph.push_edge(lu, lv, w_new, c_new, gid_new);
    }
    let bbox = g
        .bbox
        .map(|(x0, y0, x1, y1)| (x0 + dx, y0 + dy, x1 + dx, y1 + dy));
    TileGroup {
        overlaps,
        features,
        bbox,
        graph,
    }
}

/// Builds the conflict graph with constraints grouped by an arbitrary
/// feature-ownership function instead of a geometric tile grid — the
/// instance-as-tile build of invariant 9 — under an **explicit flank
/// weight**. `owner_of_feature[f]` assigns feature `f` (and every
/// constraint anchored on it: its flank edge, and any overlap whose `a`
/// shifter it owns) to a group in `0..group_count`. By invariant 5 the
/// stitched result is bit-identical to [`crate::build_conflict_graph`]
/// for **every** grouping when `flank_weight` is the geometry's own;
/// `detect_hier` primes per-cell solves (one group) with the chip's flank
/// weight so a cell's interior components produce byte-identical
/// dual-T-join instance keys standalone and in-chip.
pub(crate) fn build_conflict_graph_grouped(
    geom: &PhaseGeometry,
    kind: GraphKind,
    owner_of_feature: &[u32],
    group_count: usize,
    flank_weight: i64,
    parallelism: usize,
) -> ConflictGraph {
    let ids = id_layout(geom, kind);
    let mut group_overlaps: Vec<Vec<u32>> = vec![Vec::new(); group_count.max(1)];
    let mut group_features: Vec<Vec<u32>> = vec![Vec::new(); group_count.max(1)];
    for (oi, o) in geom.overlaps.iter().enumerate() {
        let owner = owner_of_feature[geom.shifters[o.a].feature] as usize;
        group_overlaps[owner].push(oi as u32);
    }
    for (fi, f) in geom.features.iter().enumerate() {
        if f.shifters.is_some() {
            group_features[owner_of_feature[fi] as usize].push(fi as u32);
        }
    }
    let owned = (group_overlaps.as_slice(), group_features.as_slice());
    let unlimited = Budget::unlimited();
    match build_groups_budgeted(
        geom,
        kind,
        &ids,
        flank_weight,
        owned,
        parallelism,
        &unlimited,
    ) {
        Ok((_, built)) => stitch(geom, kind, &ids, flank_weight, built.iter()),
        Err(_) => unreachable!("unlimited budget never trips"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphs::build_conflict_graph;
    use aapsm_layout::{extract_phase_geometry, fixtures, DesignRules};

    fn geoms() -> Vec<PhaseGeometry> {
        let r = DesignRules::default();
        let mut out = vec![
            extract_phase_geometry(&fixtures::single_wire(&r), &r),
            extract_phase_geometry(&fixtures::wire_row(6, 600), &r),
            extract_phase_geometry(&fixtures::gate_over_strap(&r), &r),
            extract_phase_geometry(&fixtures::strap_under_bus(5, &r), &r),
        ];
        let l = aapsm_layout::synth::generate(
            &aapsm_layout::synth::SynthParams {
                rows: 3,
                gates_per_row: 40,
                strap_frac: 0.6,
                jog_frac: 0.08,
                short_mid_frac: 0.05,
                ..Default::default()
            },
            &r,
        );
        out.push(extract_phase_geometry(&l, &r));
        out
    }

    #[test]
    fn tiled_build_is_bit_identical_to_serial() {
        for (gi, geom) in geoms().iter().enumerate() {
            for kind in [GraphKind::PhaseConflict, GraphKind::Feature] {
                let serial = build_conflict_graph(geom, kind);
                for tiles in [1usize, 2, 3, 7] {
                    for parallelism in [1usize, 0, 4] {
                        let cfg = TileConfig { tiles, parallelism };
                        let (tiled, _) = build_conflict_graph_tiled_budgeted(
                            geom,
                            kind,
                            &cfg,
                            &Budget::unlimited(),
                        )
                        .unwrap();
                        assert_eq!(
                            tiled, serial,
                            "geom {gi} {kind:?} tiles {tiles} parallelism {parallelism}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn empty_geometry_falls_back() {
        let geom = PhaseGeometry::default();
        let cfg = TileConfig::for_parallelism(4);
        let (cg, _) = build_conflict_graph_tiled_budgeted(
            &geom,
            GraphKind::PhaseConflict,
            &cfg,
            &Budget::unlimited(),
        )
        .unwrap();
        assert_eq!(cg.graph.node_count(), 0);
        assert_eq!(cg.graph.edge_count(), 0);
    }

    #[test]
    fn auto_tile_count_grows_with_workers() {
        assert_eq!(TileConfig::for_parallelism(1).tiles_per_axis(), 2);
        assert!(TileConfig::for_parallelism(4).tiles_per_axis() >= 4);
        assert_eq!(
            TileConfig {
                tiles: 5,
                parallelism: 1
            }
            .tiles_per_axis(),
            5
        );
    }
}

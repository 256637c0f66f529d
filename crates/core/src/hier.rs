//! Hierarchical detection: detect each repeated `(cell, orientation)`
//! class once and place its components wherever nothing else comes near.
//!
//! [`detect_hier`] accepts a [`HierLayout`] and reports exactly the
//! conflicts of
//! `detect_conflicts(&extract_phase_geometry(&hier.flatten()?, rules), config)`,
//! at any [`DetectConfig::parallelism`], on both [`GraphKind`]s, without
//! flattening the chip.
//!
//! # How
//!
//! The top cell's direct instances are grouped into classes by
//! `(cell, orientation)`; a class's geometry is the flattened subtree of
//! its first placement, and every other placement is that geometry
//! translated by a fixed offset. Each class with at least two placements
//! is extracted and its conflict graph built once, unless none of its
//! critical features keeps `2r` clear of other geometry (below) in any
//! placement: a group's hull holds its features, so such a class has no
//! safe group and goes to the rest whole, as if placed once. A class
//! pass merges the connected components into **groups**: components that share a
//! crossing (over the whole graph, bipartite components included), or
//! that [`aapsm_graph::EmbeddedGraph::nudge_duplicate_positions`] moved
//! apart (every component with a node, before or after the nudge, inside
//! the box a moved node searched). A group's **hull** is the bounding box
//! of its shifters and of those search boxes.
//!
//! A group is **safe** in a placement when its hull, inflated by twice
//! the interaction radius `r`, touches no other geometry: the bounding
//! box of every other placement and every top-cell rect, each inflated by
//! `m = max(shifter_width, shifter_overhang)`, which covers their
//! shifters. The **rest** is everything else: the unsafe groups' features,
//! every feature of a class without a pass, and the top cell's own rects.
//! It is extracted once as one sub-layout in flat order, together with
//! every other feature within `m + r` of a rest feature as a corridor
//! blocker (blockers get no shifters). The class passes and the rest pass
//! then each run the one detection pipeline of [`crate::detect_conflicts`]
//! with the whole chip's flank weight, and the safe groups' outcomes are
//! placed at every placement where they are safe.
//!
//! # Why the result is the flat one, bit for bit
//!
//! - **Translation invariance.** A placement's rects are its class's
//!   rects plus one offset. Classification, shifter rects, gaps, weights
//!   and corridor tests read only coordinate differences; node positions
//!   are rect centres and midpoints rounded by `div_euclid`, which
//!   commutes with an integer shift; the crossing predicate is exact. So
//!   a safe group's shifters, overlaps, nodes and crossings are its
//!   class's, shifted.
//! - **Halo bounds.** Two shifters interact only below the spacing rule
//!   `r`, and a corridor lies inside the hull of its two shifters, so a
//!   hull kept `2r` clear of every other geometry (inflated by `m`) gains
//!   no overlap and no blocking feature in the flat chip. Graph edges lie
//!   inside the hull of their end shifters, so a flank edge, or an edge
//!   of an overlap inside one other placement, never crosses a safe
//!   group's edges. An overlap inside the group's own placement is an
//!   overlap of its class; if it crosses the group, the class's
//!   crossings made it part of the group. The `2r` halo alone does not
//!   cover the rest's **cross-instance overlaps**: overlaps between two
//!   placements, a placement and a top rect, or two top rects. Their
//!   half-edges join shifter centres of two pieces of geometry that are
//!   each `2r` clear of a group and can still run across it, between
//!   them. Each such overlap's shifter hull, inflated by `r`, is tested
//!   against every safe group, and a group it touches turns unsafe; so
//!   does a safe group that a rest node's nudge search box, or an edge at
//!   a moved rest node, touches, and the owner of a blocker that forms an
//!   overlap with a rest shifter. Then the rest is built again. Every
//!   nudge moves a node by at most `r` (otherwise the chip is detected
//!   flat), so nudged nodes stay within those margins.
//!   **Blockers** include every feature within `m + r` of a critical rest
//!   feature, a superset of those that can enter a rest pair's corridor
//!   (a corridor lies within `r` of either shifter, a shifter within `m`
//!   of its feature), so the rest pass finds exactly the flat overlaps
//!   among rest shifters. Blockers may only add blocking, never remove
//!   it, so a safe group's pairs with an unsafe group's shifters stay
//!   non-overlaps.
//! - **Groups.** Components are grouped through every crossing of the
//!   class graph, bipartite components included: a bipartite component
//!   placed from its class next to a crossing partner that joins an odd
//!   component in the chip would hide the flat probe's fallback. A moved
//!   node's nudge depends on the nodes in its search box, so their
//!   components share its group; the other nodes of its placement keep
//!   their relative order in the flat node list, and foreign nodes keep
//!   out of the hull, so the flat nudge of a safe group is its class's.
//! - **Relative order.** Flattening keeps each top-level placement's
//!   features and shifters contiguous, and the rest sub-layout keeps flat
//!   order, so the map from a part's feature, shifter, overlap, node and
//!   edge ids to the flat ones is increasing. Planarization pops edges in
//!   a total order keyed by weight, crossing count and edge id, and a
//!   removal changes only its crossing partners' counts, all in the same
//!   group; each component is face-traced and solved on its own with
//!   ties broken by relative id order; the Step-3 recheck unions only
//!   within a component. So each group's victims, T-join and recheck hits
//!   are its class's. Components of safe groups are whole flat
//!   components, so their odd/bipartite status is their class's.
//! - **Flank weight.** Every part is built with the flat chip's flank
//!   weight, computed from the overlap weights of the placed groups and
//!   of the rest, so every edge weight and T-join instance is the flat
//!   one.
//! - **Conflict order.** The flat report lists the bipartization
//!   conflicts by the first deleted edge id of each constraint, then the
//!   Step-3 conflicts by (weight descending, edge id). The PCG numbers
//!   overlap half-edges `2·o` and `2·o + 1` before every flank edge; the
//!   FG numbers flank edges first, then each overlap's one or two edges,
//!   both in increasing overlap and feature order, and a constraint's
//!   edges are adjacent. So keys of (overlap-or-flank rank, flat index)
//!   give the flat order, and the parts' lists merge by them. Flat
//!   overlap indices come from counting the flat overlaps per first
//!   shifter: a shifter's overlaps all lie in one part, in `(a, b)`
//!   order.
//!
//! The crossing sweep of the flat pipeline falls back to the whole graph
//! when a bipartite component crosses an odd one. The odd/bipartite
//! crossings of the chip are the union of the parts', so when any part
//! falls back, or a part reports a same-feature direct conflict, or the
//! rules are invalid, or no group is safe in any placement (the rest
//! would be the whole chip), [`detect_hier`] detects the flat chip
//! instead, expanded without [`HierLayout::flatten`].
//!
//! # Parallelism
//!
//! [`DetectConfig::parallelism`] spreads whole classes, not the stages of
//! one class: a class is about one placement's worth of geometry, too
//! small to split. Two maps run on `aapsm_geom::par_map_indexed`, each
//! sized by `aapsm_geom::workers_for` over the classes and their rects:
//! the first builds the class passes (extraction, graph build, crossing
//! sweep and grouping), the second detects the passes some placement
//! uses. Inside a map every pass runs its stages at parallelism 1, so no
//! map starts another. Between the two maps the rest is settled,
//! extracted and detected alone, at `config.parallelism`. Every stage is
//! a pure function of its inputs, so the result is the same at every
//! setting, and a panicking pass is retried once by the map. The passes'
//! build and bipartize times are scaled by the share of their summed
//! times that their map's wall time covers, so the stage times of
//! [`DetectStats`] stay wall times.
//!
//! Like [`crate::detect_conflicts`], this entry point runs unbudgeted; route
//! hierarchical workloads through [`crate::run_flow`] for deadline
//! control (flatten first — the flow is flat-only).

use std::time::{Duration, Instant};

use aapsm_fault::Budget;
use aapsm_geom::{par_map_indexed, workers_for, GridIndex, Point, Rect};
use aapsm_graph::{
    connected_components, crossing_pairs_par, CrossingSet, NodeId, ParityUnionFind, UnionFind,
};
use aapsm_layout::{
    extract_phase_geometry_par, DesignRules, HierLayout, Layout, LayoutError, OverlapPair,
    PhaseGeometry, Side,
};

use crate::detect::{
    detect_built_graph, detect_geometry_budgeted, Conflict, ConflictSource, ConstraintKind,
    DetectConfig, DetectReport, DetectStats,
};
use crate::graphs::{
    build_unnudged, flank_weight_for, flank_weight_for_sum, ConflictGraph, GraphKind,
};

/// Accounting for one [`detect_hier`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HierDetectStats {
    /// `(cell, orientation)` classes detected on their own: those placed
    /// at least twice with a group that is safe in some placement. `0`
    /// when the chip was detected flat.
    pub cells_detected: usize,
    /// Placed-cell occurrences in the flattened hierarchy (all depths).
    pub instances_total: usize,
    /// Top-level placements that took at least one group from their
    /// class's detection instead of detecting it again.
    pub instances_reused: usize,
    /// Dual T-join instances solved: those of every class pass plus the
    /// rest pass's, or the flat chip's (`0` when every pass is
    /// bipartite).
    pub solve_misses: usize,
}

/// A [`DetectReport`] plus the hierarchy accounting.
#[derive(Clone, Debug)]
pub struct HierDetectReport {
    /// The flat-identical detection result.
    pub report: DetectReport,
    /// Occurrence and solve counts of the run.
    pub hier: HierDetectStats,
}

/// Detect phase conflicts in a hierarchical layout.
///
/// Bit-identical to flattening first: for every valid `hier` and every
/// `config.parallelism`, the conflicts equal those of the flat pipeline
/// (property-tested in `tests/hier_equivalence.rs`; the argument is in
/// the module docs):
///
/// ```
/// use aapsm_core::{detect_conflicts, detect_hier, DetectConfig};
/// use aapsm_layout::{
///     extract_phase_geometry, fixtures, Cell, DesignRules, HierLayout, Instance, Placement,
/// };
///
/// let rules = DesignRules::default();
/// let mut hier = HierLayout::new();
/// let mut leaf = Cell::new("GATE_OVER_STRAP");
/// leaf.rects = fixtures::gate_over_strap(&rules).rects().to_vec();
/// let leaf = hier.add_cell(leaf);
/// let mut top = Cell::new("TOP");
/// for x in [0, 5_000] {
///     let placement = Placement::at(x, 0);
///     top.instances.push(Instance { cell: leaf, placement });
/// }
/// hier.top = Some(hier.add_cell(top));
///
/// let config = DetectConfig::default();
/// let report = detect_hier(&hier, &rules, &config)?;
/// let flat = detect_conflicts(&extract_phase_geometry(&hier.flatten()?, &rules), &config);
/// assert!(!flat.conflicts.is_empty());
/// assert_eq!(report.report.conflicts, flat.conflicts);
/// assert_eq!(report.hier.instances_total, 2);
/// assert_eq!(report.hier.cells_detected, 1);
/// assert_eq!(report.hier.instances_reused, 2);
/// # Ok::<(), aapsm_layout::LayoutError>(())
/// ```
///
/// Errors are exactly those of [`HierLayout::flatten`]: unknown cells,
/// reference cycles, out-of-range placements, oversized expansions.
pub fn detect_hier(
    hier: &HierLayout,
    rules: &DesignRules,
    config: &DetectConfig,
) -> Result<HierDetectReport, LayoutError> {
    let chip = Chip::expand(hier, rules)?;
    let instances_total = hier.placed_instances()? as usize;
    let composed = if rules.validate().is_ok() && chip.repeats() {
        Composer::new(&chip, rules, config).and_then(Composer::run)
    } else {
        None
    };
    let (report, reuse) = composed.unwrap_or_else(|| detect_flat(&chip, rules, config));
    Ok(HierDetectReport {
        report,
        hier: HierDetectStats {
            instances_total,
            ..reuse
        },
    })
}

/// The flat pipeline on the expanded chip.
fn detect_flat(
    chip: &Chip,
    rules: &DesignRules,
    config: &DetectConfig,
) -> (DetectReport, HierDetectStats) {
    let geom = extract_phase_geometry_par(&chip.flat_layout(), rules, config.parallelism);
    let out = match detect_geometry_budgeted(&geom, config, None, &Budget::unlimited()) {
        Ok(out) => out,
        Err(e) => unreachable!("an unlimited budget never trips: {e}"),
    };
    let stats = HierDetectStats {
        solve_misses: out.activity.misses,
        ..HierDetectStats::default()
    };
    (out.report, stats)
}

/// The hierarchy expanded one level: the top cell's own rects, and its
/// direct instances grouped into `(cell, orientation)` classes.
struct Chip {
    top_rects: Vec<Rect>,
    /// `top_crit[j]`: critical rects among `top_rects[..j]`.
    top_crit: Vec<usize>,
    classes: Vec<Class>,
    placements: Vec<Placed>,
}

/// One `(cell, orientation)` class.
struct Class {
    /// The flattened rects of its first placement.
    rects: Vec<Rect>,
    /// `crit[j]`: critical rects among `rects[..j]`.
    crit: Vec<usize>,
    /// Bounding box of `rects`.
    bbox: Option<Bx>,
    /// Its placements, ascending.
    placements: Vec<usize>,
}

/// One direct instance of the top cell.
struct Placed {
    class: usize,
    /// Offset from its class's rects to its flat rects.
    delta: Point,
    /// Flat index of its first feature.
    feature_base: usize,
    /// Critical features before it in flat order.
    crit_base: usize,
}

impl Chip {
    /// Splits `hier` at the top cell's instances
    /// ([`HierLayout::split_top`]), with the errors of
    /// [`HierLayout::flatten`].
    fn expand(hier: &HierLayout, rules: &DesignRules) -> Result<Chip, LayoutError> {
        let split = hier.split_top()?;
        let crit_prefix = |rects: &[Rect]| {
            let mut crit = Vec::with_capacity(rects.len() + 1);
            crit.push(0);
            for r in rects {
                crit.push(crit[crit.len() - 1] + usize::from(rules.is_critical(r)));
            }
            crit
        };
        let top_crit = crit_prefix(&split.own_rects);
        let mut classes: Vec<Class> = split
            .classes
            .into_iter()
            .map(|rects| Class {
                crit: crit_prefix(&rects),
                bbox: rects.iter().map(bx).reduce(hull),
                rects,
                placements: Vec::new(),
            })
            .collect();
        let mut feature_base = split.own_rects.len();
        let mut crit_base = top_crit[top_crit.len() - 1];
        let mut placements = Vec::with_capacity(split.placed.len());
        for (p, &(class, delta)) in split.placed.iter().enumerate() {
            let c = &mut classes[class];
            c.placements.push(p);
            placements.push(Placed {
                class,
                delta,
                feature_base,
                crit_base,
            });
            feature_base += c.rects.len();
            crit_base += c.crit[c.rects.len()];
        }
        Ok(Chip {
            top_rects: split.own_rects,
            top_crit,
            classes,
            placements,
        })
    }

    /// Whether some class is placed at least twice.
    fn repeats(&self) -> bool {
        self.classes.iter().any(|c| c.placements.len() > 1)
    }

    /// The flat layout, in [`HierLayout::flatten`] order.
    fn flat_layout(&self) -> Layout {
        let mut rects = self.top_rects.clone();
        for p in &self.placements {
            // The flat rects were checked in range when the chip was
            // expanded, and each is its class rect plus the offset.
            let d = p.delta;
            rects.extend(
                self.classes[p.class]
                    .rects
                    .iter()
                    .map(|r| r.shift(d.x, d.y)),
            );
        }
        Layout::from_rects(rects)
    }

    /// Total critical features of the flat chip.
    fn critical_total(&self) -> usize {
        self.placements
            .last()
            .map_or(self.top_crit[self.top_crit.len() - 1], |p| {
                let c = &self.classes[p.class];
                p.crit_base + c.crit[c.rects.len()]
            })
    }
}

/// An inclusive box `(x_lo, y_lo, x_hi, y_hi)`; unlike [`Rect`] it may be
/// degenerate (the box of a horizontal edge). Its arithmetic saturates:
/// no geometry lies past the `i64` range, so a clipped box misses none.
type Bx = (i64, i64, i64, i64);

fn bx(r: &Rect) -> Bx {
    (r.x_lo(), r.y_lo(), r.x_hi(), r.y_hi())
}

fn hull(a: Bx, b: Bx) -> Bx {
    (a.0.min(b.0), a.1.min(b.1), a.2.max(b.2), a.3.max(b.3))
}

fn inflate(b: Bx, m: i64) -> Bx {
    (
        b.0.saturating_sub(m),
        b.1.saturating_sub(m),
        b.2.saturating_add(m),
        b.3.saturating_add(m),
    )
}

fn shift(b: Bx, d: Point) -> Bx {
    (
        b.0.saturating_add(d.x),
        b.1.saturating_add(d.y),
        b.2.saturating_add(d.x),
        b.3.saturating_add(d.y),
    )
}

fn touches(a: Bx, b: Bx) -> bool {
    a.0 <= b.2 && b.0 <= a.2 && a.1 <= b.3 && b.1 <= a.3
}

fn point_box(p: Point, m: i64) -> Bx {
    inflate((p.x, p.y, p.x, p.y), m)
}

/// Node positions before the nudge, and the nudge applied.
fn nudged(mut cg: ConflictGraph) -> (ConflictGraph, Vec<Point>) {
    let before: Vec<Point> = cg.graph.nodes().map(|n| cg.graph.pos(n)).collect();
    cg.graph.nudge_duplicate_positions();
    (cg, before)
}

/// The nodes the nudge moved, with the L∞ length of each move.
fn moved_nodes(cg: &ConflictGraph, before: &[Point]) -> Vec<(usize, i64)> {
    before
        .iter()
        .enumerate()
        .filter_map(|(i, &o)| {
            let f = cg.graph.pos(NodeId(i as u32));
            let step = f.x.abs_diff(o.x).max(f.y.abs_diff(o.y));
            (f != o).then(|| (i, i64::try_from(step).unwrap_or(i64::MAX)))
        })
        .collect()
}

/// [`par_map_indexed`] over `0..count`, with the share of the items' own
/// times that the map's wall time covers: about `1 / workers` when every
/// worker is busy, `1` when the map runs inline. Stage times scaled by it
/// add up to wall time, which is what [`DetectStats`] reports.
fn timed_map<T: Send>(
    count: usize,
    workers: usize,
    f: impl Fn(usize) -> T + Sync,
) -> (Vec<T>, f64) {
    let t0 = Instant::now();
    let timed = par_map_indexed(
        count,
        workers,
        || (),
        |(), k| {
            let t = Instant::now();
            let out = f(k);
            (out, t.elapsed())
        },
    );
    let wall = t0.elapsed().as_secs_f64();
    let busy: f64 = timed.iter().map(|(_, t)| t.as_secs_f64()).sum();
    let share = if busy > wall { wall / busy } else { 1.0 };
    (timed.into_iter().map(|(out, _)| out).collect(), share)
}

/// A class placed at least twice, extracted and grouped once.
struct ClassPass {
    geom: PhaseGeometry,
    /// Its conflict graph at the class's own flank weight. Each detection
    /// runs on a clone: a few flat arrays, incidence table included.
    graph: ConflictGraph,
    /// The whole class graph's crossing pairs.
    crossings: CrossingSet,
    /// Its graph build's share of the class-pass map's wall time.
    graph_time: Duration,
    group_of_shifter: Vec<u32>,
    group_of_edge: Vec<u32>,
    /// Per group: its hull and whether it holds an odd component.
    hulls: Vec<Bx>,
    odd: Vec<bool>,
    /// The hull of all groups.
    hull: Option<Bx>,
    features: GridIndex,
}

/// A class pass's pipeline outcome, split by group.
struct GroupOutcomes {
    /// Per group: crossings, planarization victims, bipartization and
    /// Step-3 conflicts.
    counts: Vec<[usize; 4]>,
    /// The class's conflicts with their groups.
    conflicts: Vec<(u32, Conflict)>,
    build_time: Duration,
    bipartize_time: Duration,
}

impl ClassPass {
    /// Extracts, builds and groups `class`; `None` when a nudge moves a
    /// node further than `max_nudge`.
    fn new(
        chip: &Chip,
        class: usize,
        rules: &DesignRules,
        config: &DetectConfig,
        max_nudge: i64,
    ) -> Option<ClassPass> {
        let rects = &chip.classes[class].rects;
        let geom = extract_phase_geometry_par(
            &Layout::from_rects(rects.clone()),
            rules,
            config.parallelism,
        );
        let t0 = Instant::now();
        let (cg, before) = nudged(build_unnudged(&geom, config.graph, flank_weight_for(&geom)));
        let graph_time = t0.elapsed();
        let g = &cg.graph;
        let comps = connected_components(g);
        let comp = |n: NodeId| comps.component(n) as usize;
        let mut uf = UnionFind::new(comps.count);
        let crossings = crossing_pairs_par(g, config.parallelism);
        for &(a, b) in &crossings.pairs {
            uf.union(comp(g.endpoints(a).0), comp(g.endpoints(b).0));
        }
        // A moved node's search box holds every position it tested; the
        // components with a node there, before or after the nudge, move
        // together.
        let moved = moved_nodes(&cg, &before);
        let mut search_boxes = Vec::with_capacity(moved.len());
        if !moved.is_empty() {
            let mut at: Vec<(Point, u32)> = (0..before.len() as u32)
                .flat_map(|i| [(before[i as usize], i), (g.pos(NodeId(i)), i)])
                .collect();
            at.sort_unstable_by_key(|&(p, i)| (p.x, p.y, i));
            for &(i, rho) in &moved {
                if rho > max_nudge {
                    return None;
                }
                let b = point_box(before[i], rho);
                let start = at.partition_point(|&(p, _)| p.x < b.0);
                for &(p, j) in at[start..].iter().take_while(|&&(p, _)| p.x <= b.2) {
                    if p.y >= b.1 && p.y <= b.3 {
                        uf.union(comp(NodeId(i as u32)), comp(NodeId(j)));
                    }
                }
                search_boxes.push((i, b));
            }
        }
        let mut parity = ParityUnionFind::new(g.node_count());
        let mut odd_comp = vec![false; comps.count];
        for e in g.all_edges() {
            let (u, v) = g.endpoints(e);
            if parity.union(u.index(), v.index(), 1).is_err() {
                odd_comp[comp(u)] = true;
            }
        }
        let mut group_of_root = vec![u32::MAX; comps.count];
        let mut group_of_comp = vec![0u32; comps.count];
        let mut groups = 0u32;
        for (c, group) in group_of_comp.iter_mut().enumerate() {
            let root = uf.find(c);
            if group_of_root[root] == u32::MAX {
                group_of_root[root] = groups;
                groups += 1;
            }
            *group = group_of_root[root];
        }
        let node_group = |n: usize| group_of_comp[comp(NodeId(n as u32))];
        let mut hulls: Vec<Option<Bx>> = vec![None; groups as usize];
        let mut odd = vec![false; groups as usize];
        for (c, &o) in odd_comp.iter().enumerate() {
            odd[group_of_comp[c] as usize] |= o;
        }
        let group_of_shifter: Vec<u32> = (0..geom.shifters.len()).map(node_group).collect();
        for (s, &group) in geom.shifters.iter().zip(&group_of_shifter) {
            let h = &mut hulls[group as usize];
            *h = Some(h.map_or(bx(&s.rect), |h| hull(h, bx(&s.rect))));
        }
        for &(i, b) in &search_boxes {
            let h = &mut hulls[node_group(i) as usize];
            *h = Some(h.map_or(b, |h| hull(h, b)));
        }
        let group_of_edge = g
            .all_edges()
            .map(|e| node_group(g.endpoints(e).0.index()))
            .collect();
        // Every component holds a shifter, so every group has a hull.
        let hulls: Vec<Bx> = hulls
            .into_iter()
            .map(|h| h.unwrap_or((0, 0, 0, 0)))
            .collect();
        let boxes: Vec<Bx> = rects.iter().map(bx).collect();
        let features = GridIndex::build(GridIndex::cell_for(&boxes), boxes);
        Some(ClassPass {
            hull: hulls.iter().copied().reduce(hull),
            geom,
            graph: cg,
            crossings,
            graph_time,
            group_of_shifter,
            group_of_edge,
            hulls,
            odd,
            features,
        })
    }

    /// The group of a constraint of this class's geometry.
    fn group_of(&self, c: ConstraintKind) -> Option<u32> {
        match c {
            ConstraintKind::Overlap(k) => Some(self.group_of_shifter[self.geom.overlaps[k].a]),
            ConstraintKind::Flank(j) => self.geom.features[j]
                .shifters
                .map(|(lo, _)| self.group_of_shifter[lo]),
            ConstraintKind::Direct(_) => None,
        }
    }

    /// Runs the pipeline on a clone of the class graph, rebuilt when its
    /// flank weight is not the chip's, and splits the outcome by group;
    /// with it, the dual T-join instances solved. `None` on the
    /// odd–bipartite fallback or a direct conflict.
    fn detect(&self, config: &DetectConfig, flank_weight: i64) -> Option<(GroupOutcomes, usize)> {
        let t0 = Instant::now();
        let cg = if self.graph.flank_weight == flank_weight {
            self.graph.clone()
        } else {
            nudged(build_unnudged(&self.geom, config.graph, flank_weight)).0
        };
        let graph_time = t0.elapsed();
        let out = detect_built_graph(
            &self.geom,
            cg,
            config,
            Instant::now(),
            Some(&self.crossings),
        );
        let round = out.round.as_ref()?;
        if round.whole_graph {
            return None;
        }
        let mut counts = vec![[0usize; 4]; self.hulls.len()];
        for &(e, _) in &round.crossings.pairs {
            counts[self.group_of_edge[e.index()] as usize][0] += 1;
        }
        for &e in &round.removed {
            counts[self.group_of_edge[e.index()] as usize][1] += 1;
        }
        let mut conflicts = Vec::with_capacity(out.report.conflicts.len());
        for &c in &out.report.conflicts {
            let group = self.group_of(c.constraint)?;
            let slot = if c.source == ConflictSource::Bipartization {
                2
            } else {
                3
            };
            counts[group as usize][slot] += 1;
            conflicts.push((group, c));
        }
        let outcome = GroupOutcomes {
            counts,
            conflicts,
            build_time: graph_time + out.report.stats.build_time,
            bipartize_time: out.report.stats.bipartize_time,
        };
        Some((outcome, out.activity.misses))
    }
}

/// The extracted rest: unsafe groups, classes without a pass, top rects,
/// and their corridor blockers.
struct Rest {
    /// Its geometry; blockers have no shifters.
    geom: PhaseGeometry,
    flat_feature: Vec<usize>,
    /// Per feature: its placement, or [`TOP`] for a top-cell rect.
    origin: Vec<usize>,
    flat_shifter: Vec<usize>,
}

/// The origin of a top-cell rect.
const TOP: usize = usize::MAX;

/// A feature of a placement of a detected class: not in the rest, a rest
/// feature, or a corridor blocker.
const OUT: u8 = 0;
const IN: u8 = 1;
const BLOCKER: u8 = 2;

/// The composition of class passes and the rest pass.
struct Composer<'a> {
    chip: &'a Chip,
    rules: &'a DesignRules,
    config: &'a DetectConfig,
    /// `config` at parallelism 1: the class passes run one per worker.
    pass_config: DetectConfig,
    /// `m = max(shifter_width, shifter_overhang)`.
    margin: i64,
    /// The interaction radius `r`.
    radius: i64,
    passes: Vec<ClassPass>,
    /// Class pass per class, if any.
    pass_of: Vec<Option<usize>>,
    /// Other geometry: each placement's bbox and each top rect, inflated
    /// by `margin`, with its placement (or [`TOP`]).
    others: GridIndex,
    other_boxes: Vec<(Bx, usize)>,
    /// Per placement: its groups' safety (empty without a class pass).
    safe: Vec<Vec<bool>>,
}

impl<'a> Composer<'a> {
    /// Runs the class passes and marks the safe groups; `None` when the
    /// chip must be detected flat.
    fn new(chip: &'a Chip, rules: &'a DesignRules, config: &'a DetectConfig) -> Option<Self> {
        let radius = rules.interaction_radius();
        let margin = rules.shifter_width.max(rules.shifter_overhang);
        let mut other_boxes = Vec::with_capacity(chip.placements.len() + chip.top_rects.len());
        for (p, placed) in chip.placements.iter().enumerate() {
            if let Some(b) = chip.classes[placed.class].bbox {
                other_boxes.push((inflate(shift(b, placed.delta), margin), p));
            }
        }
        other_boxes.extend(chip.top_rects.iter().map(|r| (inflate(bx(r), margin), TOP)));
        let boxes: Vec<Bx> = other_boxes.iter().map(|b| b.0).collect();
        let others = GridIndex::build(GridIndex::cell_for(&boxes), boxes);
        // A group's hull holds both shifters of each of its features, and
        // so the features: a class none of whose critical features keeps
        // `2r` clear of other geometry in any placement has no safe group,
        // and goes to the rest without a pass.
        let clear_somewhere = |class: &Class| {
            class.placements.iter().any(|&p| {
                let d = chip.placements[p].delta;
                class
                    .rects
                    .iter()
                    .filter(|r| rules.is_critical(r))
                    .any(|r| {
                        let b = inflate(shift(bx(r), d), 2 * radius);
                        let mut near = false;
                        others.query(b, |i| {
                            let (o, owner) = other_boxes[i as usize];
                            near |= owner != p && touches(b, o);
                        });
                        !near
                    })
            })
        };
        let mut with_pass = Vec::new();
        let mut pass_of = vec![None; chip.classes.len()];
        for (class, c) in chip.classes.iter().enumerate() {
            if c.placements.len() > 1 && clear_somewhere(c) {
                pass_of[class] = Some(with_pass.len());
                with_pass.push(class);
            }
        }
        let pass_config = DetectConfig {
            parallelism: 1,
            ..config.clone()
        };
        let work = with_pass.iter().map(|&c| chip.classes[c].rects.len()).sum();
        let workers = workers_for(config.parallelism, with_pass.len(), work);
        let (passes, share) = timed_map(with_pass.len(), workers, |k| {
            ClassPass::new(chip, with_pass[k], rules, &pass_config, radius)
        });
        let mut passes = passes.into_iter().collect::<Option<Vec<ClassPass>>>()?;
        for pass in &mut passes {
            pass.graph_time = pass.graph_time.mul_f64(share);
        }
        let mut composer = Composer {
            chip,
            rules,
            config,
            pass_config,
            margin,
            radius,
            passes,
            pass_of,
            others,
            other_boxes,
            safe: Vec::new(),
        };
        composer.safe = (0..chip.placements.len())
            .map(|p| composer.initial_safety(p))
            .collect();
        // With no safe group the rest is the whole chip.
        composer
            .safe
            .iter()
            .flatten()
            .any(|&s| s)
            .then_some(composer)
    }

    fn pass_at(&self, p: usize) -> Option<&ClassPass> {
        self.pass_of[self.chip.placements[p].class].map(|i| &self.passes[i])
    }

    /// Which of placement `p`'s groups keep `2r` clear of other geometry.
    fn initial_safety(&self, p: usize) -> Vec<bool> {
        let Some(pass) = self.pass_at(p) else {
            return Vec::new();
        };
        let Some(all) = pass.hull else {
            return Vec::new();
        };
        let d = self.chip.placements[p].delta;
        let reach = 2 * self.radius;
        let mut near = Vec::new();
        self.others.query(inflate(shift(all, d), reach), |i| {
            let (b, owner) = self.other_boxes[i as usize];
            if owner != p {
                near.push(b);
            }
        });
        pass.hulls
            .iter()
            .map(|&h| {
                let h = inflate(shift(h, d), reach);
                !near.iter().any(|&b| touches(h, b))
            })
            .collect()
    }

    /// Marks unsafe every safe group whose hull touches `b`; whether any
    /// was.
    fn unsafe_near(&mut self, b: Bx) -> bool {
        let mut near = Vec::new();
        // Hulls reach past the inflated placement boxes by at most one
        // nudge, which is at most `r`.
        self.others.query(inflate(b, self.radius), |i| {
            let owner = self.other_boxes[i as usize].1;
            if owner != TOP {
                near.push(owner);
            }
        });
        let mut hit = false;
        for p in near {
            let Some(pass) = self.pass_at(p) else {
                continue;
            };
            let d = self.chip.placements[p].delta;
            let hits: Vec<usize> = (0..pass.hulls.len())
                .filter(|&g| self.safe[p][g] && touches(shift(pass.hulls[g], d), b))
                .collect();
            for g in hits {
                self.safe[p][g] = false;
                hit = true;
            }
        }
        hit
    }

    /// The rest features of each placement of a detected class, with
    /// their blockers (`None` for a placement wholly in the rest).
    fn rest_flags(&self) -> Vec<Option<Vec<u8>>> {
        let chip = self.chip;
        let mut flags: Vec<Option<Vec<u8>>> = (0..chip.placements.len())
            .map(|p| {
                let pass = self.pass_at(p)?;
                let safe = &self.safe[p];
                let f = pass.geom.features.iter().map(|f| match f.shifters {
                    Some((lo, _)) if !safe[pass.group_of_shifter[lo] as usize] => IN,
                    _ => OUT,
                });
                Some(f.collect())
            })
            .collect();
        // Blockers: every feature of a detected class within `m + r` of a
        // critical rest feature (a superset of those that can enter the
        // corridor of a rest shifter pair).
        let reach = self.margin + self.radius;
        let mut rest_critical: Vec<Bx> = chip
            .top_rects
            .iter()
            .filter(|r| self.rules.is_critical(r))
            .map(bx)
            .collect();
        for (p, placed) in chip.placements.iter().enumerate() {
            let class = &chip.classes[placed.class];
            let d = placed.delta;
            for (j, r) in class.rects.iter().enumerate() {
                let rest = flags[p].as_ref().is_none_or(|f| f[j] == IN);
                if rest && self.rules.is_critical(r) {
                    rest_critical.push(shift(bx(r), d));
                }
            }
        }
        for b in rest_critical {
            let b = inflate(b, reach);
            let mut near = Vec::new();
            self.others.query(b, |i| {
                let owner = self.other_boxes[i as usize].1;
                if owner != TOP {
                    near.push(owner);
                }
            });
            for q in near {
                let (Some(pass), Some(f)) = (self.pass_at(q), flags.get_mut(q)) else {
                    continue;
                };
                let Some(f) = f.as_mut() else {
                    continue;
                };
                let d = chip.placements[q].delta;
                let local = (
                    b.0.saturating_sub(d.x),
                    b.1.saturating_sub(d.y),
                    b.2.saturating_sub(d.x),
                    b.3.saturating_sub(d.y),
                );
                pass.features.query(local, |j| {
                    let flag = &mut f[j as usize];
                    if *flag == OUT {
                        *flag = BLOCKER;
                    }
                });
            }
        }
        flags
    }

    /// Extracts the rest for the current safety marks.
    fn extract_rest(&self) -> (Rest, Vec<bool>) {
        let chip = self.chip;
        let flags = self.rest_flags();
        let mut rects = Vec::new();
        let mut flat_feature = Vec::new();
        let mut origin = Vec::new();
        let mut crit_rank = Vec::new();
        let mut blocker = Vec::new();
        for (j, r) in chip.top_rects.iter().enumerate() {
            rects.push(*r);
            flat_feature.push(j);
            origin.push(TOP);
            crit_rank.push(chip.top_crit[j]);
            blocker.push(false);
        }
        for (p, placed) in chip.placements.iter().enumerate() {
            let class = &chip.classes[placed.class];
            let d = placed.delta;
            for (j, r) in class.rects.iter().enumerate() {
                let flag = flags[p].as_ref().map_or(IN, |f| f[j]);
                if flag != OUT {
                    rects.push(r.shift(d.x, d.y));
                    flat_feature.push(placed.feature_base + j);
                    origin.push(p);
                    crit_rank.push(placed.crit_base + class.crit[j]);
                    blocker.push(flag == BLOCKER);
                }
            }
        }
        let raw = extract_phase_geometry_par(
            &Layout::from_rects(rects),
            self.rules,
            self.config.parallelism,
        );
        let mut geom = PhaseGeometry::default();
        let mut flat_shifter = Vec::new();
        let mut new_of_old = vec![usize::MAX; raw.shifters.len()];
        for (fi, f) in raw.features.iter().enumerate() {
            let mut f = *f;
            if blocker[fi] {
                f.critical = false;
                f.shifters = None;
            } else if let Some((lo, hi)) = f.shifters {
                let at = geom.shifters.len();
                for (k, old) in [lo, hi].into_iter().enumerate() {
                    new_of_old[old] = at + k;
                    geom.shifters.push(raw.shifters[old]);
                    let side = usize::from(raw.shifters[old].side == Side::High);
                    flat_shifter.push(2 * crit_rank[fi] + side);
                }
                f.shifters = Some((at, at + 1));
            }
            geom.features.push(f);
        }
        // An overlap between a rest shifter and a blocker's shifter means
        // the blocker's group interacts with the rest: its owner turns
        // unsafe (reported back as `touched`).
        let mut touched = vec![false; raw.features.len()];
        for o in &raw.overlaps {
            match (new_of_old[o.a], new_of_old[o.b]) {
                (usize::MAX, usize::MAX) => {}
                (usize::MAX, _) => touched[raw.shifters[o.a].feature] = true,
                (_, usize::MAX) => touched[raw.shifters[o.b].feature] = true,
                (a, b) => geom.overlaps.push(OverlapPair { a, b, ..*o }),
            }
        }
        geom.direct_conflicts = raw.direct_conflicts;
        let rest = Rest {
            geom,
            flat_feature,
            origin,
            flat_shifter,
        };
        (rest, touched)
    }

    /// The rest, grown until nothing in it comes near a safe group, with
    /// its conflict graph at the chip's flank weight, the chip totals and
    /// that flank weight. `None` when the chip must be detected flat.
    fn settle_rest(&mut self) -> Option<(Rest, ConflictGraph, Duration, Totals)> {
        'grow: loop {
            let (rest, touched) = self.extract_rest();
            let mut grew = false;
            for (fi, &t) in touched.iter().enumerate() {
                if t {
                    let r = rest.geom.features[fi].rect;
                    grew |= self.unsafe_near(bx(&r));
                }
            }
            // An overlap inside one placement is its class's overlap, and
            // its class's crossings joined it to every group it crosses.
            let g = &rest.geom;
            for o in &g.overlaps {
                let (sa, sb) = (&g.shifters[o.a], &g.shifters[o.b]);
                let origin = rest.origin[sa.feature];
                if origin == TOP || origin != rest.origin[sb.feature] {
                    let b = hull(bx(&sa.rect), bx(&sb.rect));
                    grew |= self.unsafe_near(inflate(b, self.radius));
                }
            }
            if grew {
                continue 'grow;
            }
            let totals = self.totals(&rest);
            let t0 = Instant::now();
            let (cg, before) = nudged(build_unnudged(
                &rest.geom,
                self.config.graph,
                totals.flank_weight,
            ));
            let graph_time = t0.elapsed();
            let graph = &cg.graph;
            for (i, rho) in moved_nodes(&cg, &before) {
                if rho > self.radius {
                    return None;
                }
                grew |= self.unsafe_near(point_box(before[i], rho));
                let n = NodeId(i as u32);
                for e in graph.incident(n) {
                    let (u, v) = graph.endpoints(e);
                    let (pu, pv) = (graph.pos(u), graph.pos(v));
                    grew |= self.unsafe_near(hull(point_box(pu, 0), point_box(pv, 0)));
                }
            }
            if !grew {
                return Some((rest, cg, graph_time, totals));
            }
        }
    }

    /// Counts the flat overlaps of the placed safe groups and the rest.
    fn totals(&self, rest: &Rest) -> Totals {
        let chip = self.chip;
        let mut per_shifter = vec![0u32; 2 * chip.critical_total() + 1];
        let (mut overlaps, mut weight, mut same_side) = (0usize, 0i64, 0usize);
        let mut count = |geom: &PhaseGeometry, o: &OverlapPair, flat_a: usize| {
            per_shifter[flat_a] += 1;
            overlaps += 1;
            weight += o.weight;
            same_side += usize::from(geom.shifters[o.a].side == geom.shifters[o.b].side);
        };
        for (p, placed) in chip.placements.iter().enumerate() {
            let Some(pass) = self.pass_at(p) else {
                continue;
            };
            for o in &pass.geom.overlaps {
                if self.safe[p][pass.group_of_shifter[o.a] as usize] {
                    count(&pass.geom, o, 2 * placed.crit_base + o.a);
                }
            }
        }
        for o in &rest.geom.overlaps {
            count(&rest.geom, o, rest.flat_shifter[o.a]);
        }
        // Exclusive prefix: the flat index of each shifter's first overlap.
        let mut start = 0u32;
        for c in &mut per_shifter {
            let n = *c;
            *c = start;
            start += n;
        }
        Totals {
            first_overlap: per_shifter,
            overlaps,
            same_side,
            flank_weight: flank_weight_for_sum(weight),
        }
    }

    /// Detects the parts and merges them; `None` when the chip must be
    /// detected flat.
    fn run(mut self) -> Option<(DetectReport, HierDetectStats)> {
        let (rest, rest_graph, rest_graph_time, totals) = self.settle_rest()?;
        let mut reuse = HierDetectStats::default();
        let mut is_used = vec![false; self.passes.len()];
        for (p, safe) in self.safe.iter().enumerate() {
            if safe.contains(&true) {
                reuse.instances_reused += 1;
                if let Some(i) = self.pass_of[self.chip.placements[p].class] {
                    is_used[i] = true;
                }
            }
        }
        let out = detect_built_graph(&rest.geom, rest_graph, self.config, Instant::now(), None);
        if out.round.as_ref().is_none_or(|r| r.whole_graph)
            || !rest.geom.direct_conflicts.is_empty()
        {
            return None;
        }
        reuse.solve_misses += out.activity.misses;
        let used: Vec<usize> = (0..is_used.len()).filter(|&i| is_used[i]).collect();
        let work = used
            .iter()
            .map(|&i| self.passes[i].geom.features.len())
            .sum();
        let workers = workers_for(self.config.parallelism, used.len(), work);
        let (detected, share) = timed_map(used.len(), workers, |k| {
            self.passes[used[k]].detect(&self.pass_config, totals.flank_weight)
        });
        let mut outcomes: Vec<Option<GroupOutcomes>> = self.passes.iter().map(|_| None).collect();
        for (&i, detected) in used.iter().zip(detected) {
            let (outcome, misses) = detected?;
            reuse.cells_detected += 1;
            reuse.solve_misses += misses;
            outcomes[i] = Some(outcome);
        }
        let mut stats = DetectStats::default();
        let rs = out.report.stats;
        stats.crossings = rs.crossings;
        stats.planarize_removed = rs.planarize_removed;
        stats.bipartize_conflicts = rs.bipartize_conflicts;
        stats.recheck_conflicts = rs.recheck_conflicts;
        stats.bipartite = rs.bipartite;
        stats.build_time = rest_graph_time + rs.build_time;
        stats.bipartize_time = rs.bipartize_time;

        let kind = self.config.graph;
        let mut bip: Vec<((usize, usize), Conflict)> = Vec::new();
        let mut rec: Vec<((i64, usize, usize), Conflict)> = Vec::new();
        let mut push = |c: Conflict| {
            let rank = |overlap: bool| usize::from(overlap == (kind == GraphKind::Feature));
            let key = match c.constraint {
                ConstraintKind::Overlap(o) => (rank(true), o),
                ConstraintKind::Flank(f) | ConstraintKind::Direct(f) => (rank(false), f),
            };
            if c.source == ConflictSource::Bipartization {
                bip.push((key, c));
            } else {
                rec.push(((-c.weight, key.0, key.1), c));
            }
        };
        for c in &out.report.conflicts {
            let constraint = match c.constraint {
                ConstraintKind::Overlap(k) => {
                    ConstraintKind::Overlap(
                        totals.flat_overlap(&rest.geom.overlaps, k, |a| rest.flat_shifter[a]),
                    )
                }
                ConstraintKind::Flank(f) => ConstraintKind::Flank(rest.flat_feature[f]),
                ConstraintKind::Direct(_) => return None,
            };
            push(Conflict { constraint, ..*c });
        }
        for (p, placed) in self.chip.placements.iter().enumerate() {
            let Some(i) = self.pass_of[placed.class] else {
                continue;
            };
            let (pass, Some(outcome)) = (&self.passes[i], &outcomes[i]) else {
                continue;
            };
            let safe = &self.safe[p];
            for (g, counts) in outcome.counts.iter().enumerate() {
                if safe[g] {
                    stats.crossings += counts[0];
                    stats.planarize_removed += counts[1];
                    stats.bipartize_conflicts += counts[2];
                    stats.recheck_conflicts += counts[3];
                    stats.bipartite &= !pass.odd[g];
                }
            }
            let base = 2 * placed.crit_base;
            for &(g, c) in &outcome.conflicts {
                if !safe[g as usize] {
                    continue;
                }
                let constraint = match c.constraint {
                    ConstraintKind::Overlap(k) => {
                        ConstraintKind::Overlap(
                            totals.flat_overlap(&pass.geom.overlaps, k, |a| base + a),
                        )
                    }
                    ConstraintKind::Flank(f) => ConstraintKind::Flank(placed.feature_base + f),
                    ConstraintKind::Direct(_) => return None,
                };
                push(Conflict { constraint, ..c });
            }
        }
        for (pass, outcome) in self.passes.iter().zip(&outcomes) {
            if let Some(outcome) = outcome {
                stats.build_time += pass.graph_time + outcome.build_time.mul_f64(share);
                stats.bipartize_time += outcome.bipartize_time.mul_f64(share);
            }
        }
        bip.sort_unstable_by_key(|&(k, _)| k);
        rec.sort_unstable_by_key(|&(k, _)| k);
        let crit = self.chip.critical_total();
        (stats.graph_nodes, stats.graph_edges) = match kind {
            GraphKind::PhaseConflict => (2 * crit + totals.overlaps, 2 * totals.overlaps + crit),
            GraphKind::Feature => (
                3 * crit + totals.same_side,
                2 * crit + totals.overlaps + totals.same_side,
            ),
        };
        let conflicts = bip
            .into_iter()
            .map(|(_, c)| c)
            .chain(rec.into_iter().map(|(_, c)| c))
            .collect();
        Some((DetectReport { conflicts, stats }, reuse))
    }
}

/// The flat overlap counts the merge needs.
struct Totals {
    /// Per flat shifter: the flat index of its first overlap.
    first_overlap: Vec<u32>,
    overlaps: usize,
    same_side: usize,
    flank_weight: i64,
}

impl Totals {
    /// The flat index of overlap `k` of a part, whose overlaps are in
    /// `(a, b)` order and whose shifter `a` is flat shifter `flat(a)`:
    /// all overlaps of one first shifter lie in one part, in order.
    fn flat_overlap(
        &self,
        overlaps: &[OverlapPair],
        k: usize,
        flat: impl Fn(usize) -> usize,
    ) -> usize {
        let a = overlaps[k].a;
        self.first_overlap[flat(a)] as usize + k - overlaps.partition_point(|o| o.a < a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aapsm_layout::{Cell, Instance, Placement};

    /// The group of each critical feature of a leaf's class pass.
    fn feature_groups(rects: Vec<Rect>) -> Vec<u32> {
        let mut hier = HierLayout::new();
        let mut leaf = Cell::new("LEAF");
        leaf.rects = rects;
        let leaf = hier.add_cell(leaf);
        let mut top = Cell::new("TOP");
        for y in [0, 100_000] {
            top.instances.push(Instance {
                cell: leaf,
                placement: Placement::at(0, y),
            });
        }
        hier.top = Some(hier.add_cell(top));
        let rules = DesignRules::default();
        let chip = Chip::expand(&hier, &rules).expect("valid hierarchy");
        let config = DetectConfig::default();
        let pass = ClassPass::new(&chip, 0, &rules, &config, rules.interaction_radius())
            .expect("nudges stay small");
        let groups = pass.geom.features.iter().filter_map(|f| f.shifters);
        groups.map(|(lo, _)| pass.group_of_shifter[lo]).collect()
    }

    /// A strap with a tall gate at its right end, an odd cycle whose
    /// overlap half-edges run from `(0, 200)` to `(7425, 5350)` and
    /// `(7575, 5350)`, plus one lone feature: its flank crossing the first
    /// half-edge, its high shifter centred on the first overlap node (so
    /// the nudge moves that node), or far from both. Only the last keeps
    /// a group of its own.
    #[test]
    fn crossing_and_nudged_components_share_a_group() {
        for (lone, joined) in [
            (Rect::new(3_650, 2_720, 3_750, 2_820), true),
            (Rect::new(7_225, 5_300, 7_325, 5_400), true),
            (Rect::new(7_225, 15_300, 7_325, 15_400), false),
        ] {
            let groups = feature_groups(vec![
                Rect::new(-20_000, 0, 20_000, 100),
                Rect::new(14_950, 500, 15_050, 20_500),
                lone,
            ]);
            assert_eq!(groups[0], groups[1], "{lone}: the odd cycle");
            assert_eq!(groups[2] == groups[0], joined, "{lone}");
        }
    }
}

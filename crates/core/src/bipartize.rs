//! Minimum-weight graph bipartization.
//!
//! The optimal method is the paper's: per component of the plane drawing,
//! trace faces, build the geometric dual, and solve the T-join with
//! T = odd faces — which is exact for embedded planar graphs (Hadlock /
//! Kahng et al.). Greedy baselines (the paper's GB column and its
//! parity-aware strengthening) and a brute-force reference are included.

use aapsm_fault::{Budget, BudgetExceeded};
use aapsm_geom::workers_for;
use aapsm_graph::{
    component_embeddings_budgeted, greedy_parity_subgraph, max_weight_spanning_forest,
    two_color_excluding, EdgeId, EmbeddedGraph,
};
use aapsm_tjoin::{solve_budgeted, MatchingContext, TJoinError, TJoinInstance, TJoinMethod};

/// Bipartization algorithm selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BipartizeMethod {
    /// Optimal planar bipartization via the dual T-join; the inner
    /// T-join/matching machinery is pluggable (O-gadget, G-gadget,
    /// shortest path).
    OptimalDual {
        /// How to solve the dual T-joins.
        tjoin: TJoinMethod,
    },
    /// Maximum-weight spanning forest; all leftover edges deleted (the
    /// paper's literal GB baseline).
    GreedySpanning,
    /// Greedy with parity union-find: delete only edges that close odd
    /// cycles.
    GreedyParity,
}

impl Default for BipartizeMethod {
    fn default() -> Self {
        BipartizeMethod::OptimalDual {
            tjoin: TJoinMethod::default(),
        }
    }
}

/// Result of bipartization.
#[derive(Clone, Debug)]
pub struct BipartizeOutcome {
    /// Deleted edges (ascending id).
    pub deleted: Vec<EdgeId>,
    /// Their total weight.
    pub weight: i64,
}

/// Computes an edge set whose removal makes the alive subgraph bipartite.
///
/// For [`BipartizeMethod::OptimalDual`] the graph must be a plane drawing
/// (planarize first); the result is then a *minimum-weight* such set.
/// Edges are **not** killed in `g`.
///
/// The optimal-dual path is a decompose-then-solve pipeline: every
/// independent dual T-join instance (one per connected component with odd
/// faces) is extracted first, then the instances are solved on
/// `parallelism` worker threads, each holding its own reusable
/// [`MatchingContext`] arena. Deleted-edge sets are merged in instance
/// order and sorted by [`EdgeId`], so the outcome is **bit-identical to
/// the serial path** for every parallelism degree.
///
/// `parallelism` semantics: `0` = one worker per available CPU, `1` =
/// solve inline on the calling thread, `k` = at most `k` workers. The
/// greedy methods are inherently sequential and ignore the knob.
///
/// # Panics
///
/// Panics if the optimal method is used on a drawing with crossings
/// (debug builds), or if an internal T-join turns out infeasible — which
/// cannot happen for duals of plane graphs.
pub fn bipartize(
    g: &EmbeddedGraph,
    method: BipartizeMethod,
    parallelism: usize,
) -> BipartizeOutcome {
    match method {
        BipartizeMethod::GreedySpanning => {
            let f = max_weight_spanning_forest(g);
            finish(g, f.leftover)
        }
        BipartizeMethod::GreedyParity => {
            let f = greedy_parity_subgraph(g);
            finish(g, f.leftover)
        }
        BipartizeMethod::OptimalDual { tjoin } => {
            let unlimited = Budget::unlimited();
            match bipartize_optimal_budgeted(g, tjoin, parallelism, &unlimited, None) {
                Ok((outcome, _)) => outcome,
                Err(_) => unreachable!("unlimited budget never trips"),
            }
        }
    }
}

/// Per-call solve-cache activity of one bipartization, for the caller's
/// statistics (every instance is a miss for uncached runs).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct CacheActivity {
    /// Instances answered from the cache in this call.
    pub hits: usize,
    /// Instances solved fresh in this call.
    pub misses: usize,
}

/// The one optimal-dual pipeline: extract → cache lookup → solve the
/// misses → cache commit → assemble. The face trace charges
/// `Stage::Embed`, the Blossom loop `Stage::Matching`; a trip aborts the
/// whole call (the caller degrades to [`BipartizeMethod::GreedyParity`]
/// and says so). Uncached runs (`cache == None`) skip the key work
/// entirely: every instance is a miss. The cache's lock is held for the
/// lookup and for the commit only — the solve (the dominant cost) runs
/// unlocked, so concurrent sessions never serialize on each other's
/// matching work.
///
/// The solve's worker count is decided by the **total** dual-edge work of
/// all the call's instances, never by the subset actually being solved:
/// basing it on the misses alone would let a warm cache fall back to
/// serial while the uncached path spawns workers for the byte-identical
/// input — same results (the policy is pure scheduling), but divergent
/// thread behavior on identical inputs is exactly what the parallel
/// property suite pins down.
pub(crate) fn bipartize_optimal_budgeted(
    g: &EmbeddedGraph,
    tjoin: TJoinMethod,
    parallelism: usize,
    budget: &Budget,
    cache: Option<&SolveCache>,
) -> Result<(BipartizeOutcome, CacheActivity), BudgetExceeded> {
    let instances = extract_component_instances(g, parallelism, budget)?;
    let mut split = match cache {
        None => CacheSplit::all_missing(instances.len()),
        Some(cache) => cache_lookup(&mut cache.lock(), &instances, tjoin),
    };
    let unsolved = &split.unsolved;
    let workers = workers_for(parallelism, unsolved.len(), total_dual_edges(&instances));
    // Each worker owns one arena for its whole batch; results merge in
    // instance order (see `par_map_indexed`), so the outcome is
    // independent of scheduling.
    let joins: Vec<Vec<usize>> =
        aapsm_geom::par_map_indexed(unsolved.len(), workers, MatchingContext::new, |ctx, k| {
            solve_dual_join(&instances[unsolved[k]].inst, tjoin, ctx, budget).map(|j| j.edges)
        })
        .into_iter()
        .collect::<Result<_, _>>()?;
    split.file_solved(&instances, &joins);
    let pending = std::mem::take(&mut split.pending);
    if let Some(cache) = cache {
        cache_commit(&mut cache.lock(), pending, joins);
    }
    let activity = CacheActivity {
        hits: split.hits,
        misses: split.unsolved.len(),
    };
    Ok((assemble(g, split), activity))
}

/// Total dual-edge count of a call's instances — the work measure of the
/// extract and solve scheduling decisions.
fn total_dual_edges(instances: &[DualTJoin]) -> usize {
    instances.iter().map(|dt| dt.inst.edges().len()).sum()
}

fn finish(g: &EmbeddedGraph, mut deleted: Vec<EdgeId>) -> BipartizeOutcome {
    deleted.sort_unstable();
    let weight = g.total_weight(deleted.iter().copied());
    debug_assert!(
        two_color_excluding(g, &deleted).is_ok(),
        "bipartization result must be bipartite"
    );
    BipartizeOutcome { deleted, weight }
}

/// One independent dual T-join to solve, with the mapping back from its
/// dense edge ids to primal conflict-graph edges.
struct DualTJoin {
    inst: TJoinInstance,
    primal_of_edge: Vec<EdgeId>,
}

/// Memoization key of a dual T-join instance: the configured method plus
/// the instance's full canonical bytes (T-set and dense edge list with
/// weights). Collisions are impossible — equal keys *are* equal instances
/// solved by the same method — so a hit may reuse the cached solution
/// unconditionally: each solver is a deterministic function of the
/// instance (property-tested parallel == serial), independent of the
/// worker arena it runs in. The method is part of the key because two
/// methods may return different joins of equal weight.
#[derive(Clone, PartialEq, Eq, Hash)]
struct InstanceKey {
    method: TJoinMethod,
    t: Vec<bool>,
    edges: Vec<(usize, usize, i64)>,
}

impl InstanceKey {
    fn of(inst: &TJoinInstance, method: TJoinMethod) -> InstanceKey {
        InstanceKey {
            method,
            t: inst.t_set().to_vec(),
            edges: inst.edges().to_vec(),
        }
    }
}

/// A cached solution: what the key's method returned for the key's
/// instance.
#[derive(Clone)]
struct CachedJoin {
    /// Local instance edge indices of the minimum T-join.
    edges: Vec<usize>,
    /// Monotone recency stamp of the last solve/hit (for LRU eviction).
    touched: u64,
}

/// Cumulative activity and occupancy of a [`SolveCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Retained solutions right now.
    pub entries: usize,
    /// The LRU capacity bound.
    pub capacity: usize,
    /// Lifetime instances answered from the cache.
    pub hits: u64,
    /// Lifetime instances solved fresh.
    pub misses: u64,
    /// Lifetime entries evicted by the LRU bound.
    pub evictions: u64,
}

/// A memo of dual T-join solutions, keyed by T-join method and exact
/// instance bytes, and shareable across engines, sessions and threads.
///
/// When a small edit is re-detected (the resident service's ECO loop
/// over a [`crate::RedetectEngine`]), most connected components are
/// untouched by it: their extracted instances — dense local renumbering,
/// weights, T-set — are byte-identical to the previous round's (the
/// flank weight is floored to one constant in `flank_weight_for`
/// precisely so a few removed overlaps elsewhere do not reweight every
/// flank edge). Those components replay their previous solutions instead
/// of solving again.
///
/// A `SolveCache` is a **handle**: cloning it shares the one underlying
/// map (an `Arc<Mutex>`). Keys are canonical instance bytes and the
/// solvers are deterministic, so a hit seeded by any other holder is
/// sound: a byte-equal instance's cached join is exactly what a fresh
/// solve would return, whoever solved it first. The lock is held only for
/// the lookup and the commit — the solve of the missing instances (the
/// dominant cost) runs unlocked, so concurrent holders never serialize on
/// each other's matching work. Two holders missing the same instance
/// concurrently both solve it; the duplicate insert is harmless
/// (identical deterministic solution).
///
/// The cache is **bounded**: the entry count never exceeds the capacity
/// given to [`SolveCache::new`] (the service uses
/// [`SolveCache::DEFAULT_CAPACITY`] unless configured otherwise); beyond
/// it the least-recently-touched entries go first, so a resident process
/// cannot grow the memo without bound. Lifetime hit/miss/eviction
/// counters are in [`SolveCache::stats`].
///
/// The configured [`TJoinMethod`] is part of every key: two methods may
/// return different joins of equal weight, so they never share an entry,
/// and every hit is bit-identical to what the caller's own configuration
/// would compute fresh. Engines with different `tjoin` configurations can
/// therefore share one cache.
#[derive(Clone)]
pub struct SolveCache {
    inner: std::sync::Arc<std::sync::Mutex<CacheMap>>,
}

/// The map and counters behind every handle of one [`SolveCache`].
struct CacheMap {
    map: std::collections::HashMap<InstanceKey, CachedJoin>,
    /// Monotone LRU clock; every hit or insert advances it.
    touch: u64,
    /// Maximum retained entries (≥ 1).
    capacity: usize,
    stat_hits: u64,
    stat_misses: u64,
    stat_evictions: u64,
}

impl SolveCache {
    /// Default capacity: generous for any single design (a round
    /// produces one instance per odd component), small enough that a
    /// resident process's memo stays bounded.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// Creates an empty cache bounded to `capacity` entries (clamped to
    /// ≥ 1).
    pub fn new(capacity: usize) -> SolveCache {
        SolveCache {
            inner: std::sync::Arc::new(std::sync::Mutex::new(CacheMap {
                map: std::collections::HashMap::new(),
                touch: 0,
                capacity: capacity.max(1),
                stat_hits: 0,
                stat_misses: 0,
                stat_evictions: 0,
            })),
        }
    }

    /// Lifetime hit/miss/eviction counters and current occupancy.
    pub fn stats(&self) -> CacheStats {
        let cache = self.lock();
        CacheStats {
            entries: cache.map.len(),
            capacity: cache.capacity,
            hits: cache.stat_hits,
            misses: cache.stat_misses,
            evictions: cache.stat_evictions,
        }
    }

    /// A poisoned lock only means a panicking thread died mid-access; the
    /// cache map itself is always structurally valid (no partial inserts
    /// escape), so recover the guard instead of propagating.
    fn lock(&self) -> std::sync::MutexGuard<'_, CacheMap> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl std::fmt::Debug for SolveCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolveCache")
            .field("stats", &self.stats())
            .finish()
    }
}

impl CacheMap {
    fn next_touch(&mut self) -> u64 {
        self.touch += 1;
        self.touch
    }

    /// Trims to capacity, least-recently-touched first, in one pass: the
    /// overflow-th smallest recency stamp is the cutoff, and every entry
    /// touched after it survives. Deterministic: recency stamps are
    /// unique, so exactly the overflow goes.
    fn evict(&mut self) {
        let overflow = self.map.len().saturating_sub(self.capacity);
        if overflow == 0 {
            return;
        }
        let mut stamps: Vec<u64> = self.map.values().map(|v| v.touched).collect();
        let cutoff = *stamps.select_nth_unstable(overflow - 1).1;
        self.map.retain(|_, v| v.touched > cutoff);
        self.stat_evictions += overflow as u64;
    }
}

/// The cached-vs-to-solve split of one call's instances, produced by
/// [`cache_lookup`] (under the cache's lock) and consumed lock-free
/// afterwards.
struct CacheSplit {
    /// Per-instance primal deleted edges; `Some` for hits, filled in for
    /// misses once solved.
    deleted_per_instance: Vec<Option<Vec<EdgeId>>>,
    /// Indices of instances that must be solved fresh.
    unsolved: Vec<usize>,
    /// Per miss, parallel to `unsolved`: its key, retained for the
    /// commit. Empty for uncached runs.
    pending: Vec<InstanceKey>,
    /// Hits answered in this lookup.
    hits: usize,
}

impl CacheSplit {
    /// The uncached split: every instance is a miss, with no keys built.
    fn all_missing(count: usize) -> CacheSplit {
        CacheSplit {
            deleted_per_instance: vec![None; count],
            unsolved: (0..count).collect(),
            pending: Vec::new(),
            hits: 0,
        }
    }

    /// Files the misses' solved joins (parallel to `unsolved`) as primal
    /// deleted edges.
    fn file_solved(&mut self, instances: &[DualTJoin], joins: &[Vec<usize>]) {
        for (&i, join) in self.unsolved.iter().zip(joins) {
            let primal = &instances[i].primal_of_edge;
            self.deleted_per_instance[i] = Some(join.iter().map(|&ei| primal[ei]).collect());
        }
    }
}

/// The lookup phase: answers hits from the cache, updates recency and
/// the lifetime counters, and returns the split. Short and
/// allocation-light — safe to run under the cache's lock.
fn cache_lookup(cache: &mut CacheMap, instances: &[DualTJoin], tjoin: TJoinMethod) -> CacheSplit {
    let mut split = CacheSplit {
        deleted_per_instance: vec![None; instances.len()],
        unsolved: Vec::new(),
        pending: Vec::new(),
        hits: 0,
    };
    for (i, dt) in instances.iter().enumerate() {
        let key = InstanceKey::of(&dt.inst, tjoin);
        let touched = cache.next_touch();
        match cache.map.get_mut(&key) {
            Some(entry) => {
                entry.touched = touched;
                split.deleted_per_instance[i] = Some(
                    entry
                        .edges
                        .iter()
                        .map(|&ei| dt.primal_of_edge[ei])
                        .collect(),
                );
                split.hits += 1;
            }
            None => {
                split.unsolved.push(i);
                split.pending.push(key);
            }
        }
    }
    cache.stat_hits += split.hits as u64;
    cache.stat_misses += split.unsolved.len() as u64;
    split
}

/// The commit phase: inserts the solved joins under their retained keys,
/// then evicts. Short — safe to run under the cache's
/// lock. A budget trip in the solve phase reaches neither this
/// nor eviction (nothing is inserted), so a tripped round can never
/// pollute later bit-identity.
fn cache_commit(cache: &mut CacheMap, pending: Vec<InstanceKey>, joins: Vec<Vec<usize>>) {
    for (key, edges) in pending.into_iter().zip(joins) {
        let touched = cache.next_touch();
        cache.map.insert(key, CachedJoin { edges, touched });
    }
    cache.evict();
}

// Invariant, not an error path: every instance is either solved or
// answered from cache.
#[allow(clippy::expect_used)]
fn assemble(g: &EmbeddedGraph, split: CacheSplit) -> BipartizeOutcome {
    let deleted: Vec<EdgeId> = split
        .deleted_per_instance
        .into_iter()
        .flat_map(|d| d.expect("every instance solved or cached"))
        .collect();
    finish(g, deleted)
}

/// Solves one dual T-join under the budget. Infeasibility cannot happen
/// here — odd faces come in even numbers per component — so only budget
/// trips surface as errors.
fn solve_dual_join(
    inst: &TJoinInstance,
    tjoin: TJoinMethod,
    ctx: &mut MatchingContext,
    budget: &Budget,
) -> Result<aapsm_tjoin::TJoin, BudgetExceeded> {
    match solve_budgeted(inst, tjoin, ctx, budget) {
        Ok(join) => Ok(join),
        Err(TJoinError::Budget(e)) => Err(e),
        Err(other) => unreachable!("dual T-join of a plane component is feasible: {other:?}"),
    }
}

/// Extracts one dual T-join instance per connected component that has odd
/// faces, on up to `parallelism` workers.
///
/// Faces are traced **per component**
/// ([`aapsm_graph::component_embeddings_budgeted`]): each worker traces one
/// component's rotation system and the dual T-join falls out of the
/// partition for free — local face ids are already dense, the T-set is
/// the local odd-face flags, and a second parallel pass classifies each
/// component's edges into dual edges (pushed with their local face
/// endpoints) and bridges (skipped — a bridge lies on no cycle). The
/// historical global-trace-then-regroup pass and its `comp_of_face` /
/// `local_of_face` remapping are gone, yet the extracted instances are
/// byte-identical to it at every parallelism degree: local face order
/// equals the serial trace order restricted to the component, and
/// component order is [`aapsm_graph::connected_components`] order either
/// way — which keeps [`SolveCache`] keys stable too.
// Invariant, not an error path: dual T-join instances are well-formed by
// construction.
#[allow(clippy::expect_used)]
fn extract_component_instances(
    g: &EmbeddedGraph,
    parallelism: usize,
    budget: &Budget,
) -> Result<Vec<DualTJoin>, BudgetExceeded> {
    debug_assert!(aapsm_graph::crossing_pairs_par(g, 1).is_planar());
    let embeddings = component_embeddings_budgeted(g, parallelism, budget)?;
    let with_odd: Vec<_> = embeddings.iter().filter(|e| e.has_odd_face()).collect();
    if with_odd.is_empty() {
        return Ok(Vec::new());
    }
    // The same policy and dual-edge work measure as the solve: under auto
    // parallelism, assembling a handful of tiny instances is microsecond
    // work and thread spawn/join would dominate.
    let total_dual_edges: usize = with_odd
        .iter()
        .map(|emb| {
            (0..emb.edges.len())
                .filter(|&i| emb.face_of[2 * i] != emb.face_of[2 * i + 1])
                .count()
        })
        .sum();
    let workers = workers_for(parallelism, with_odd.len(), total_dual_edges);
    Ok(aapsm_geom::par_map_indexed(
        with_odd.len(),
        workers,
        || (),
        |(), k| {
            let emb = with_odd[k];
            let mut edges = Vec::with_capacity(emb.edges.len());
            let mut primal = Vec::with_capacity(emb.edges.len());
            for (i, &e) in emb.edges.iter().enumerate() {
                let a = emb.face_of[2 * i];
                let b = emb.face_of[2 * i + 1];
                if a == b {
                    continue; // bridge: dual self-loop, never in a minimum cover
                }
                edges.push((a as usize, b as usize, g.weight(e)));
                primal.push(e);
            }
            let t: Vec<bool> = emb.face_len.iter().map(|&l| l % 2 == 1).collect();
            let inst =
                TJoinInstance::new(t.len(), edges, t).expect("dual T-join instance is well-formed");
            DualTJoin {
                inst,
                primal_of_edge: primal,
            }
        },
    ))
}

/// Per-reduction counts of a drawing's extracted dual T-join instances
/// under the default [`TJoinMethod`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MethodCensus {
    /// Instances the Edmonds–Johnson metric closure
    /// ([`TJoinMethod::ShortestPath`]) solves.
    pub closure: usize,
    /// Instances a gadget reduction solves.
    pub gadget: usize,
}

/// How the default [`TJoinMethod`] splits `g`'s dual T-join instances
/// (one per connected component with odd faces) between the metric
/// closure and the gadget reduction. The default solves every instance by
/// the closure, so this counts the extracted instances as `closure` and
/// reports `gadget: 0`. It keeps its two-way shape because the end-to-end
/// benchmark reports both fields as `tjoin.closure_picks` and
/// `tjoin.gadget_picks`; the scaling-suite test
/// (`crates/core/tests/scaling_suite.rs`) pins the counts per design.
///
/// `_blocks` is ignored: instances are always extracted per connected
/// component. The parameter stays only because the end-to-end benchmark
/// in `perfbench/` passes [`crate::DetectConfig::blocks`] here.
pub fn tjoin_method_census(g: &EmbeddedGraph, _blocks: bool) -> MethodCensus {
    match extract_component_instances(g, 1, &Budget::unlimited()) {
        Ok(instances) => MethodCensus {
            closure: instances.len(),
            gadget: 0,
        },
        Err(_) => unreachable!("unlimited budget never trips"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aapsm_geom::Point;
    use aapsm_graph::{planarize, PlanarizeOrder};
    use aapsm_tjoin::GadgetKind;
    use rand::{Rng, SeedableRng};

    /// The cached pipeline under an unlimited budget, with the call's
    /// cache activity.
    fn cached_bipartize(
        g: &EmbeddedGraph,
        tjoin: TJoinMethod,
        parallelism: usize,
        cache: &SolveCache,
    ) -> (BipartizeOutcome, CacheActivity) {
        let unlimited = Budget::unlimited();
        bipartize_optimal_budgeted(g, tjoin, parallelism, &unlimited, Some(cache)).unwrap()
    }

    /// Minimum bipartization weight by subset enumeration (≤ 20 alive
    /// edges): the oracle the optimal methods must match.
    fn brute_force_weight(g: &EmbeddedGraph) -> i64 {
        let alive: Vec<EdgeId> = g.alive_edges().collect();
        assert!(alive.len() <= 20, "brute force limited to 20 edges");
        (0u32..1 << alive.len())
            .filter_map(|mask| {
                let subset: Vec<EdgeId> = (0..alive.len())
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| alive[i])
                    .collect();
                two_color_excluding(g, &subset)
                    .is_ok()
                    .then(|| g.total_weight(subset.iter().copied()))
            })
            .min()
            .expect("deleting all edges is always bipartite")
    }

    fn methods() -> Vec<BipartizeMethod> {
        vec![
            BipartizeMethod::OptimalDual {
                tjoin: TJoinMethod::Gadget(GadgetKind::Complete),
            },
            BipartizeMethod::OptimalDual {
                tjoin: TJoinMethod::Gadget(GadgetKind::Optimized),
            },
            BipartizeMethod::OptimalDual {
                tjoin: TJoinMethod::Gadget(GadgetKind::default()),
            },
            BipartizeMethod::OptimalDual {
                tjoin: TJoinMethod::ShortestPath,
            },
        ]
    }

    #[test]
    fn triangle_deletes_cheapest_edge() {
        let mut g = EmbeddedGraph::new();
        let a = g.add_node(Point::new(0, 0));
        let b = g.add_node(Point::new(100, 0));
        let c = g.add_node(Point::new(50, 80));
        g.add_edge(a, b, 5);
        g.add_edge(b, c, 3);
        let cheap = g.add_edge(c, a, 2);
        for m in methods() {
            let out = bipartize(&g, m, 1);
            assert_eq!(out.deleted, vec![cheap], "{m:?}");
            assert_eq!(out.weight, 2);
        }
    }

    #[test]
    fn bipartite_graph_deletes_nothing() {
        let mut g = EmbeddedGraph::new();
        let n: Vec<_> = (0..4)
            .map(|i| g.add_node(Point::new([0, 100, 100, 0][i], [0, 0, 100, 100][i])))
            .collect();
        for i in 0..4 {
            g.add_edge(n[i], n[(i + 1) % 4], 1);
        }
        for m in methods() {
            assert!(bipartize(&g, m, 1).deleted.is_empty(), "{m:?}");
        }
    }

    #[test]
    fn two_fused_triangles_share_one_deletion() {
        // Two triangles sharing an edge: deleting the shared edge fixes
        // both odd cycles at once — optimal must find that.
        let mut g = EmbeddedGraph::new();
        let a = g.add_node(Point::new(0, 0));
        let b = g.add_node(Point::new(100, 0));
        let top = g.add_node(Point::new(50, 80));
        let bot = g.add_node(Point::new(50, -80));
        g.add_edge(a, top, 10);
        g.add_edge(top, b, 10);
        g.add_edge(a, bot, 10);
        g.add_edge(bot, b, 10);
        let shared = g.add_edge(a, b, 15);
        for m in methods() {
            let out = bipartize(&g, m, 1);
            assert_eq!(out.deleted, vec![shared], "{m:?}");
            assert_eq!(out.weight, 15);
        }
        // Greedy parity deletes one edge too (any closing edge).
        let gp = bipartize(&g, BipartizeMethod::GreedyParity, 1);
        assert!(gp.weight >= 15 || !gp.deleted.is_empty());
        // Literal spanning-forest GB deletes |E| - (V-1) = 2 edges.
        let gb = bipartize(&g, BipartizeMethod::GreedySpanning, 1);
        assert_eq!(gb.deleted.len(), 2);
    }

    #[test]
    fn optimal_matches_brute_force_on_random_plane_graphs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(321);
        for trial in 0..40 {
            let n = rng.gen_range(4..12);
            let mut g = EmbeddedGraph::new();
            let nodes: Vec<_> = (0..n)
                .map(|_| {
                    g.add_node(Point::new(
                        rng.gen_range(-300..300),
                        rng.gen_range(-300..300),
                    ))
                })
                .collect();
            g.nudge_duplicate_positions();
            for _ in 0..rng.gen_range(3..18) {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u != v {
                    g.add_edge(nodes[u], nodes[v], rng.gen_range(1..40));
                }
            }
            planarize(&mut g, PlanarizeOrder::MinWeightFirst, 1);
            if g.alive_edge_count() > 20 {
                continue;
            }
            let brute = brute_force_weight(&g);
            for m in methods() {
                let out = bipartize(&g, m, 1);
                assert_eq!(
                    out.weight, brute,
                    "trial {trial} {m:?}: optimal must match brute force"
                );
                assert!(two_color_excluding(&g, &out.deleted).is_ok());
            }
            // Greedy baselines are valid but possibly heavier.
            for m in [
                BipartizeMethod::GreedyParity,
                BipartizeMethod::GreedySpanning,
            ] {
                let out = bipartize(&g, m, 1);
                assert!(out.weight >= brute, "trial {trial} {m:?}");
            }
        }
    }

    #[test]
    fn cached_bipartize_is_bit_identical_and_hits_on_replay() {
        // Two far-apart triangles: two components, each with an odd face
        // forcing one deletion.
        let mut g = EmbeddedGraph::new();
        for ox in [0i64, 10_000] {
            let a = g.add_node(Point::new(ox, 0));
            let b = g.add_node(Point::new(ox + 100, 0));
            let c = g.add_node(Point::new(ox + 50, 80));
            g.add_edge(a, b, 5);
            g.add_edge(b, c, 3);
            g.add_edge(c, a, 2);
        }
        let tjoin = TJoinMethod::default();
        let plain = bipartize(&g, BipartizeMethod::OptimalDual { tjoin }, 1);
        let cache = SolveCache::new(SolveCache::DEFAULT_CAPACITY);
        let (first, a1) = cached_bipartize(&g, tjoin, 1, &cache);
        assert_eq!(first.deleted, plain.deleted);
        assert_eq!(first.weight, plain.weight);
        assert_eq!(a1.hits, 0);
        assert!(a1.misses > 0);
        // Replaying the identical graph answers everything from cache.
        let (second, a2) = cached_bipartize(&g, tjoin, 2, &cache);
        assert_eq!(second.deleted, plain.deleted);
        assert_eq!(a2.misses, 0);
        assert!(a2.hits > 0);
        // Parallel cached solve stays bit-identical too.
        let cache2 = SolveCache::new(SolveCache::DEFAULT_CAPACITY);
        let (par, _) = cached_bipartize(&g, tjoin, 4, &cache2);
        assert_eq!(par.deleted, plain.deleted);
    }

    #[test]
    fn solve_cache_capacity_bound_evicts_lru() {
        // Three distinct single-triangle graphs against a capacity-1
        // cache: each new solve evicts the previous entry, and lifetime
        // counters see every hit, miss and eviction.
        let graphs: Vec<EmbeddedGraph> = [(5, 3, 2), (9, 8, 7), (13, 12, 11)]
            .iter()
            .map(|&(w1, w2, w3)| {
                let mut g = EmbeddedGraph::new();
                let a = g.add_node(Point::new(0, 0));
                let b = g.add_node(Point::new(100, 0));
                let c = g.add_node(Point::new(50, 80));
                g.add_edge(a, b, w1);
                g.add_edge(b, c, w2);
                g.add_edge(c, a, w3);
                g
            })
            .collect();
        let cache = SolveCache::new(1);
        assert_eq!(cache.stats().capacity, 1);
        for g in &graphs {
            cached_bipartize(g, TJoinMethod::default(), 1, &cache);
            assert_eq!(cache.stats().entries, 1, "capacity bound must hold");
        }
        // Re-solving the most recent graph hits; an evicted one misses.
        let (_, hit) = cached_bipartize(&graphs[2], TJoinMethod::default(), 1, &cache);
        assert_eq!(hit.hits, 1);
        let (_, miss) = cached_bipartize(&graphs[0], TJoinMethod::default(), 1, &cache);
        assert_eq!(miss.misses, 1);
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.capacity, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.evictions, 3);
        // The capacity is the only eviction policy: an entry survives
        // arbitrarily many calls that do not use it as long as the cache
        // has room.
        let roomy = SolveCache::new(16);
        cached_bipartize(&graphs[0], TJoinMethod::default(), 1, &roomy);
        for _ in 0..4 {
            cached_bipartize(&graphs[1], TJoinMethod::default(), 1, &roomy);
        }
        assert_eq!(roomy.stats().entries, 2, "no eviction below capacity");
    }

    #[test]
    fn one_commit_past_capacity_keeps_the_most_recently_touched() {
        // Seven distinct instances (paths of 1..=7 edges) against a
        // capacity-4 cache: four are committed, two of them touched again,
        // then one commit of three more overflows by three at once.
        let method = TJoinMethod::default();
        let instances: Vec<DualTJoin> = (1..=7).flat_map(|len| synth_instances(1, len)).collect();
        let keys: Vec<InstanceKey> = instances
            .iter()
            .map(|dt| InstanceKey::of(&dt.inst, method))
            .collect();
        let cache = SolveCache::new(4);
        let commit = |range: std::ops::Range<usize>| {
            let joins = vec![Vec::new(); range.len()];
            cache_commit(&mut cache.lock(), keys[range].to_vec(), joins);
        };
        commit(0..4);
        // Touch instance 0, then instance 2: both are now more recent than
        // 1 and 3, and 2 more recent than 0.
        assert_eq!(
            cache_lookup(&mut cache.lock(), &instances[0..1], method).hits,
            1
        );
        assert_eq!(
            cache_lookup(&mut cache.lock(), &instances[2..3], method).hits,
            1
        );
        commit(4..7);
        let survivors: Vec<usize> = {
            let map = cache.lock();
            (0..keys.len())
                .filter(|&i| map.map.contains_key(&keys[i]))
                .collect()
        };
        assert_eq!(survivors, vec![2, 4, 5, 6]);
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (4, 3));
    }

    #[test]
    fn shared_cache_cross_session_hits_are_bit_identical() {
        // Two "sessions" solving the same graph through two handles of
        // one cache: the second session's instances are answered from
        // entries the first session seeded, and the outcome matches the
        // uncached path bit for bit.
        let mut g = EmbeddedGraph::new();
        for ox in [0i64, 10_000] {
            let a = g.add_node(Point::new(ox, 0));
            let b = g.add_node(Point::new(ox + 100, 0));
            let c = g.add_node(Point::new(ox + 50, 80));
            g.add_edge(a, b, 5);
            g.add_edge(b, c, 3);
            g.add_edge(c, a, 2);
        }
        let tjoin = TJoinMethod::default();
        let plain = bipartize(&g, BipartizeMethod::OptimalDual { tjoin }, 1);
        let shared = SolveCache::new(64);
        let other = shared.clone();
        let (first, a1) = cached_bipartize(&g, tjoin, 1, &shared);
        assert_eq!(first.deleted, plain.deleted);
        assert_eq!(a1.hits, 0);
        assert!(a1.misses > 0);
        let (second, a2) = cached_bipartize(&g, tjoin, 2, &other);
        assert_eq!(second.deleted, plain.deleted);
        assert_eq!(a2.misses, 0);
        assert!(a2.hits > 0);
        let stats = shared.stats();
        assert_eq!(stats.hits, a2.hits as u64);
        assert_eq!(stats.misses, a1.misses as u64);
    }

    /// Synthesizes `count` dual instances of `edges_each` path edges (no
    /// T-nodes; only the edge totals matter to the scheduling policy).
    fn synth_instances(count: usize, edges_each: usize) -> Vec<DualTJoin> {
        (0..count)
            .map(|_| {
                let edges: Vec<(usize, usize, i64)> =
                    (0..edges_each).map(|i| (i, i + 1, 1)).collect();
                let inst =
                    TJoinInstance::new(edges_each + 1, edges, vec![false; edges_each + 1]).unwrap();
                DualTJoin {
                    inst,
                    primal_of_edge: Vec::new(),
                }
            })
            .collect()
    }

    #[test]
    fn serial_fallback_decision_uses_total_work_not_the_solved_subset() {
        // The pipeline's solve schedule: `workers_for` over the batch
        // actually solved, with the work of *all* the call's instances.
        let solve_workers = |instances: &[DualTJoin], batch: usize, parallelism: usize| {
            workers_for(parallelism, batch, total_dual_edges(instances))
        };
        // Below the threshold: auto parallelism stays serial no matter
        // how many instances are actually being solved.
        let small = synth_instances(8, 100); // 800 dual edges < 2048
        assert_eq!(solve_workers(&small, small.len(), 0), 1);
        assert_eq!(solve_workers(&small, 2, 0), 1);
        // At/above the threshold: a warm cache (batch = few misses) and
        // the plain path (batch = all) make the same spawn decision —
        // this is the regression: the miss subset's own edge count (200,
        // far below the threshold) must not flip the cached path serial.
        let large = synth_instances(16, 200); // 3200 dual edges ≥ 2048
        let plain = solve_workers(&large, large.len(), 0);
        let cached = solve_workers(&large, 2, 0);
        assert_eq!(
            plain > 1,
            cached > 1,
            "warm cache must not flip the serial-fallback decision"
        );
        // Explicit worker counts bypass the fallback entirely.
        assert_eq!(solve_workers(&small, small.len(), 3), 3);
        assert_eq!(solve_workers(&large, 2, 3), 2);
    }

    #[test]
    fn methods_never_share_a_cache_entry() {
        // Two far-apart triangles: two instances, each a 3-edge dual
        // triangle with 2 odd faces.
        let mut g = EmbeddedGraph::new();
        for ox in [0i64, 10_000] {
            let a = g.add_node(Point::new(ox, 0));
            let b = g.add_node(Point::new(ox + 100, 0));
            let c = g.add_node(Point::new(ox + 50, 80));
            g.add_edge(a, b, 5);
            g.add_edge(b, c, 3);
            g.add_edge(c, a, 2);
        }
        let closure = TJoinMethod::ShortestPath;
        let gadget = TJoinMethod::Gadget(GadgetKind::default());
        let cache = SolveCache::new(64);
        let (first, a1) = cached_bipartize(&g, closure, 1, &cache);
        assert_eq!((a1.hits, a1.misses), (0, 2));
        // Same instances, another method: the closure's entries are not
        // served to a gadget-configured caller.
        let (second, a2) = cached_bipartize(&g, gadget, 1, &cache);
        assert_eq!((a2.hits, a2.misses), (0, 2), "methods must not share");
        let (third, a3) = cached_bipartize(&g, gadget, 1, &cache);
        assert_eq!((a3.hits, a3.misses), (2, 0));
        // The gadget's entry sits beside the closure's, not over it (the
        // two triangles are byte-equal instances: one entry per method).
        let (fourth, a4) = cached_bipartize(&g, closure, 1, &cache);
        assert_eq!((a4.hits, a4.misses), (2, 0));
        assert_eq!(cache.stats().entries, 2);
        for out in [&second, &third, &fourth] {
            assert_eq!(out.weight, first.weight);
        }
    }

    #[test]
    fn method_census_counts_auto_picks() {
        // The census counts every extracted instance as a closure solve:
        // one triangle component is one instance.
        let mut g = EmbeddedGraph::new();
        let a = g.add_node(Point::new(0, 0));
        let b = g.add_node(Point::new(100, 0));
        let c = g.add_node(Point::new(50, 80));
        g.add_edge(a, b, 5);
        g.add_edge(b, c, 3);
        g.add_edge(c, a, 2);
        let census = tjoin_method_census(&g, false);
        assert_eq!(
            census,
            MethodCensus {
                closure: 1,
                gadget: 0
            }
        );
        // A bipartite square extracts no instance at all.
        let mut sq = EmbeddedGraph::new();
        let n: Vec<_> = (0..4)
            .map(|i| sq.add_node(Point::new([0, 100, 100, 0][i], [0, 0, 100, 100][i])))
            .collect();
        for i in 0..4 {
            sq.add_edge(n[i], n[(i + 1) % 4], 1);
        }
        assert_eq!(tjoin_method_census(&sq, false), MethodCensus::default());
    }

    #[test]
    fn closure_matches_the_gadget_on_dense_t_duals() {
        // `flow_cover` blocks 1 and 3 (the rows_x4 recipe at seeds 32 and
        // 34) hold the dual instances with |T|² > 4·|E|, most faces odd.
        // The closure must find the generalized gadget's optimum there.
        let rules = aapsm_layout::DesignRules::default();
        let mut dense = 0;
        for seed in [32, 34] {
            let params = aapsm_layout::synth::SynthParams {
                rows: 16,
                gates_per_row: 120,
                strap_frac: 0.75,
                jog_frac: 0.08,
                short_mid_frac: 0.06,
                seed,
                ..aapsm_layout::synth::SynthParams::default()
            };
            let layout = aapsm_layout::synth::generate(&params, &rules);
            let geom = aapsm_layout::extract_phase_geometry(&layout, &rules);
            let mut cg = crate::build_conflict_graph(&geom, crate::GraphKind::PhaseConflict);
            planarize(&mut cg.graph, PlanarizeOrder::MinWeightFirst, 1);
            let instances =
                extract_component_instances(&cg.graph, 1, &Budget::unlimited()).unwrap();
            for dt in &instances {
                let t = dt.inst.t_set().iter().filter(|&&b| b).count();
                if t * t <= 4 * dt.inst.edges().len() {
                    continue;
                }
                dense += 1;
                let weight = |method| {
                    let budget = Budget::unlimited();
                    solve_dual_join(&dt.inst, method, &mut MatchingContext::new(), &budget)
                        .unwrap()
                        .weight
                };
                assert_eq!(
                    weight(TJoinMethod::ShortestPath),
                    weight(TJoinMethod::Gadget(GadgetKind::default())),
                    "seed {seed}: |T| = {t}, |E| = {}",
                    dt.inst.edges().len()
                );
            }
        }
        assert_eq!(dense, 3, "dense-T instances in blocks 1 and 3");
    }

    #[test]
    fn components_solve_independently() {
        // The decomposition is exact: solving each connected component
        // alone (every other edge killed) deletes exactly the edges the
        // whole-graph call deletes in that component.
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for _ in 0..15 {
            let n = rng.gen_range(6..25);
            let mut g = EmbeddedGraph::new();
            let nodes: Vec<_> = (0..n)
                .map(|_| {
                    g.add_node(Point::new(
                        rng.gen_range(-500..500),
                        rng.gen_range(-500..500),
                    ))
                })
                .collect();
            g.nudge_duplicate_positions();
            for _ in 0..rng.gen_range(5..40) {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u != v {
                    g.add_edge(nodes[u], nodes[v], rng.gen_range(1..40));
                }
            }
            planarize(&mut g, PlanarizeOrder::MinWeightFirst, 1);
            let method = BipartizeMethod::default();
            let whole = bipartize(&g, method, 1);
            let comps = aapsm_graph::connected_components(&g);
            let mut deleted = Vec::new();
            for c in 0..comps.count as u32 {
                let mut alone = g.clone();
                for e in g.alive_edges() {
                    if comps.component(g.endpoints(e).0) != c {
                        alone.kill_edge(e);
                    }
                }
                deleted.extend(bipartize(&alone, method, 1).deleted);
            }
            deleted.sort_unstable();
            assert_eq!(deleted, whole.deleted);
            assert_eq!(g.total_weight(deleted.iter().copied()), whole.weight);
        }
    }
}

use crate::fxhash::FxHashMap;

/// A uniform spatial hash over `i64` space.
///
/// Items are inserted with an axis-aligned bounding range and can then be
/// queried for candidate neighbours. The index is the backbone of both
/// overlapping-shifter extraction and edge-crossing detection, which would
/// otherwise be quadratic on full-chip inputs.
///
/// The cell size should be on the order of the query interaction distance
/// (e.g. the shifter spacing rule, or the typical edge length); queries then
/// touch O(1) cells per item in well-behaved layouts.
///
/// # Streaming pair enumeration
///
/// Pair traversal is *streaming*: [`GridIndex::for_each_candidate_pair`]
/// visits every intersecting pair exactly once without materializing the
/// pair set, and [`GridIndex::shards`] partitions the occupied cells into
/// contiguous bands so disjoint slices of the traversal can run on worker
/// threads ([`GridIndex::par_collect_pairs`]). Exactly-once reporting
/// needs no dedup set: a pair is *owned* by the single cell containing the
/// min-corner of its boxes' intersection, and only that cell reports it.
///
/// ```
/// use aapsm_geom::GridIndex;
/// let mut grid = GridIndex::new(256);
/// grid.insert(0, (0, 0, 100, 100));
/// grid.insert(1, (90, 90, 200, 200));
/// grid.insert(2, (10_000, 10_000, 10_100, 10_100));
/// let mut pairs = grid.candidate_pairs();
/// pairs.sort_unstable();
/// assert_eq!(pairs, vec![(0, 1)]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct GridIndex {
    cell: i64,
    cells: FxHashMap<(i64, i64), Vec<u32>>,
    /// Bounding ranges per inserted id, in insertion order.
    boxes: Vec<(i64, i64, i64, i64)>,
}

/// Reusable dedup scratch for repeated [`GridIndex::query_into`] calls:
/// an epoch-stamped per-item table, so consecutive queries cost nothing
/// to reset.
#[derive(Clone, Debug, Default)]
pub struct QueryScratch {
    stamp: Vec<u32>,
    epoch: u32,
}

/// A partition of a grid's occupied cells into contiguous bands, produced
/// by [`GridIndex::shards`].
///
/// Cells are ordered lexicographically by cell coordinate; a shard is a
/// contiguous range of that order. Every occupied cell belongs to exactly
/// one shard, and every candidate pair is owned by exactly one cell, so
/// the shards induce a disjoint, exhaustive partition of the pair
/// traversal — the basis of the parallel detection front-end.
#[derive(Clone, Debug)]
pub struct GridShards {
    keys: Vec<(i64, i64)>,
    /// `count() + 1` offsets into `keys`; shard `s` covers
    /// `keys[bounds[s]..bounds[s + 1]]`.
    bounds: Vec<usize>,
}

impl GridShards {
    /// Number of shards.
    pub fn count(&self) -> usize {
        self.bounds.len() - 1
    }
}

/// Resolves a `parallelism` knob: `0` = one worker per available CPU,
/// otherwise the value itself (at least 1).
pub fn resolve_workers(parallelism: usize) -> usize {
    if parallelism == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        parallelism
    }
}

/// Minimum work units before auto parallelism (`parallelism = 0`) spawns
/// threads — the one serial-fallback threshold of every parallel stage.
///
/// A unit is whatever a stage's per-item cost scales with: indexed boxes
/// of a pair sweep, primal edges of a face trace, dual edges of a
/// bipartization. Below this the whole stage takes well under a
/// millisecond and thread spawn/join overhead dominates any speedup. Purely a scheduling decision: results are bit-identical
/// either way.
pub const SERIAL_FALLBACK_WORK: usize = 2048;

/// The worker count of a stage splitting `items` independent items that
/// together cost `work` units: auto parallelism on less than
/// [`SERIAL_FALLBACK_WORK`] stays on the calling thread (`1`); otherwise
/// the knob resolves through [`resolve_workers`], capped at `items` and
/// at least 1. An explicit degree is always honored. Callers that only
/// need the serial-or-parallel verdict (or over-shard past the worker
/// count) pass `usize::MAX` as `items`.
pub fn workers_for(parallelism: usize, items: usize, work: usize) -> usize {
    if parallelism == 0 && work < SERIAL_FALLBACK_WORK {
        1
    } else {
        resolve_workers(parallelism).min(items).max(1)
    }
}

/// Maps `f` over `0..count` on at most `workers` scoped threads and
/// returns the results **in index order** — the shared worker-pool
/// scaffold of every parallel stage in this workspace.
///
/// Indices are handed out through an atomic cursor (self-balancing
/// without pre-sorting by size); each worker owns one `init()` state for
/// its whole batch (a solver arena, say) and buffers `(index, result)`
/// pairs locally, and the buffers are stitched by index afterwards, so
/// the output is independent of scheduling. `workers <= 1` (or a single
/// item) runs inline on the calling thread with the same one `init()`.
///
/// # Panic isolation
///
/// A panic in `f` is caught per item instead of taking down the whole
/// map: the panicking worker discards its (possibly poisoned) state,
/// re-`init()`s, and keeps draining the cursor; after the join, every
/// failed index is retried **once, serially, with a fresh state**. `f`
/// being a pure function of its index (the scaffold's standing
/// contract — worker state is reusable scratch that never influences
/// results), a transiently-injected panic heals to a bit-identical
/// output. A second panic on the retry is genuine and is propagated via
/// [`std::panic::resume_unwind`]. The serial path applies the same
/// catch-and-retry, so every parallelism degree has identical semantics.
///
/// # Panics
///
/// Propagates panics from `f` that recur on the retry, and any panic
/// from `init()`.
// Invariant, not an error path: the expects assert index-coverage of the
// batching (every slot filled exactly once) and deliberately re-raise
// worker panics per the documented # Panics contract.
#[allow(clippy::expect_used)]
pub fn par_map_indexed<T, S, I, F>(count: usize, workers: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

    // One guarded application. `AssertUnwindSafe` is sound here because a
    // failed state is thrown away, never observed again.
    let attempt = |state: &mut S, i: usize| catch_unwind(AssertUnwindSafe(|| f(state, i)));
    // Retry pass over the indices whose first attempt panicked: once,
    // serially, each with a pristine state; a second panic propagates.
    let retry = |slots: &mut [Option<T>], failed: Vec<usize>| {
        for i in failed {
            let mut state = init();
            match attempt(&mut state, i) {
                Ok(out) => slots[i] = Some(out),
                Err(payload) => resume_unwind(payload),
            }
        }
    };

    if workers <= 1 || count <= 1 {
        let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
        let mut failed = Vec::new();
        let mut state = init();
        for (i, slot) in slots.iter_mut().enumerate() {
            match attempt(&mut state, i) {
                Ok(out) => *slot = Some(out),
                Err(_) => {
                    failed.push(i);
                    state = init();
                }
            }
        }
        retry(&mut slots, failed);
        return slots
            .into_iter()
            .map(|s| s.expect("every index is produced exactly once"))
            .collect();
    }
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    let batches: Vec<Vec<(usize, Option<T>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(count))
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut batch = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        match attempt(&mut state, i) {
                            Ok(out) => batch.push((i, Some(out))),
                            Err(_) => {
                                batch.push((i, None));
                                state = init();
                            }
                        }
                    }
                    batch
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel map worker panicked"))
            .collect()
    });
    let mut failed = Vec::new();
    for (i, out) in batches.into_iter().flatten() {
        match out {
            Some(out) => slots[i] = Some(out),
            None => failed.push(i),
        }
    }
    failed.sort_unstable();
    retry(&mut slots, failed);
    slots
        .into_iter()
        .map(|s| s.expect("every index is produced exactly once"))
        .collect()
}

impl GridIndex {
    /// Creates an index with the given cell size (dbu).
    ///
    /// # Panics
    ///
    /// Panics if `cell_size <= 0`.
    pub fn new(cell_size: i64) -> Self {
        assert!(cell_size > 0, "cell size must be positive");
        GridIndex {
            cell: cell_size,
            cells: FxHashMap::default(),
            boxes: Vec::new(),
        }
    }

    /// Number of inserted items.
    pub fn len(&self) -> usize {
        self.boxes.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.boxes.is_empty()
    }

    fn cell_range(&self, bx: (i64, i64, i64, i64)) -> (i64, i64, i64, i64) {
        let (x_lo, y_lo, x_hi, y_hi) = bx;
        (
            x_lo.div_euclid(self.cell),
            y_lo.div_euclid(self.cell),
            x_hi.div_euclid(self.cell),
            y_hi.div_euclid(self.cell),
        )
    }

    /// Inserts an item with bounding range `(x_lo, y_lo, x_hi, y_hi)`.
    ///
    /// `id` is expected to be the next sequential id (`self.len()`); items
    /// are small integers so the pair enumeration can use dense bitsets.
    ///
    /// # Panics
    ///
    /// Panics if `id != self.len()` or the range is inverted.
    pub fn insert(&mut self, id: u32, bbox: (i64, i64, i64, i64)) {
        assert_eq!(id as usize, self.boxes.len(), "ids must be sequential");
        assert!(bbox.0 <= bbox.2 && bbox.1 <= bbox.3, "inverted bbox");
        let (cx_lo, cy_lo, cx_hi, cy_hi) = self.cell_range(bbox);
        for cx in cx_lo..=cx_hi {
            for cy in cy_lo..=cy_hi {
                self.cells.entry((cx, cy)).or_default().push(id);
            }
        }
        self.boxes.push(bbox);
    }

    /// The bounding range an item was inserted (or last updated) with.
    pub fn bbox(&self, id: u32) -> (i64, i64, i64, i64) {
        self.boxes[id as usize]
    }

    /// Hull of every item's bounding range (`None` when empty). Linear
    /// scan; callers clamping open-ended query regions pay it once per
    /// batch.
    pub fn bounds(&self) -> Option<(i64, i64, i64, i64)> {
        self.boxes
            .iter()
            .copied()
            .reduce(|a, b| (a.0.min(b.0), a.1.min(b.1), a.2.max(b.2), a.3.max(b.3)))
    }

    /// Moves an existing item to a new bounding range — the incremental
    /// maintenance primitive of the re-detection pipeline: after an
    /// end-to-end space insertion, only the boxes a cut shifts or
    /// stretches are re-bucketed; everything on the low side keeps its
    /// cells untouched. A no-op when the range (and thus the covered
    /// cell set) is unchanged.
    ///
    /// The per-cell id order after an update differs from a from-scratch
    /// build; queries and pair traversals are insensitive to it (queries
    /// dedup, traversals sort their output), which is the only contract
    /// callers get.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never inserted or the range is inverted.
    pub fn update(&mut self, id: u32, bbox: (i64, i64, i64, i64)) {
        assert!((id as usize) < self.boxes.len(), "unknown id {id}");
        assert!(bbox.0 <= bbox.2 && bbox.1 <= bbox.3, "inverted bbox");
        let old = self.boxes[id as usize];
        if old == bbox {
            return;
        }
        let old_range = self.cell_range(old);
        let new_range = self.cell_range(bbox);
        self.boxes[id as usize] = bbox;
        if old_range == new_range {
            return;
        }
        let (ox_lo, oy_lo, ox_hi, oy_hi) = old_range;
        for cx in ox_lo..=ox_hi {
            for cy in oy_lo..=oy_hi {
                // Invariant, not an error path: insert populated every cell of `old_range`.
                #[allow(clippy::expect_used)]
                let cell = self.cells.get_mut(&(cx, cy)).expect("inserted cell exists");
                #[allow(clippy::expect_used)] // Invariant: same insert-time coverage as above.
                let at = cell
                    .iter()
                    .position(|&i| i == id)
                    .expect("id present in covered cell");
                cell.swap_remove(at);
                if cell.is_empty() {
                    self.cells.remove(&(cx, cy));
                }
            }
        }
        let (nx_lo, ny_lo, nx_hi, ny_hi) = new_range;
        for cx in nx_lo..=nx_hi {
            for cy in ny_lo..=ny_hi {
                self.cells.entry((cx, cy)).or_default().push(id);
            }
        }
    }

    /// Ids of items whose bounding range intersects the query range
    /// (deduplicated, unsorted).
    ///
    /// Allocates one dense `bool` table per call — cheap enough for the
    /// extraction hot path; batch callers issuing many queries (the
    /// incremental re-detect's slab sweeps) should hold a
    /// [`QueryScratch`] and use [`GridIndex::query_into`] instead.
    pub fn query(&self, bbox: (i64, i64, i64, i64)) -> Vec<u32> {
        let (cx_lo, cy_lo, cx_hi, cy_hi) = self.cell_range(bbox);
        let mut out = Vec::new();
        let mut seen = vec![false; self.boxes.len()];
        for cx in cx_lo..=cx_hi {
            for cy in cy_lo..=cy_hi {
                if let Some(ids) = self.cells.get(&(cx, cy)) {
                    for &id in ids {
                        if !seen[id as usize] && ranges_touch(self.boxes[id as usize], bbox) {
                            seen[id as usize] = true;
                            out.push(id);
                        }
                    }
                }
            }
        }
        out
    }

    /// [`GridIndex::query`] into caller-owned buffers: `out` receives the
    /// deduplicated ids, `scratch` carries the epoch-stamped dedup table
    /// across calls so a query costs O(cells touched + hits) instead of
    /// O(items indexed) — the difference between an incremental re-detect
    /// sweep being linear in the dirty region vs quadratic in the chip.
    pub fn query_into(
        &self,
        bbox: (i64, i64, i64, i64),
        scratch: &mut QueryScratch,
        out: &mut Vec<u32>,
    ) {
        out.clear();
        if scratch.stamp.len() < self.boxes.len() {
            scratch.stamp.resize(self.boxes.len(), 0);
        }
        scratch.epoch = scratch.epoch.wrapping_add(1);
        if scratch.epoch == 0 {
            scratch.stamp.fill(0);
            scratch.epoch = 1;
        }
        let epoch = scratch.epoch;
        let (cx_lo, cy_lo, cx_hi, cy_hi) = self.cell_range(bbox);
        for cx in cx_lo..=cx_hi {
            for cy in cy_lo..=cy_hi {
                if let Some(ids) = self.cells.get(&(cx, cy)) {
                    for &id in ids {
                        if scratch.stamp[id as usize] != epoch
                            && ranges_touch(self.boxes[id as usize], bbox)
                        {
                            scratch.stamp[id as usize] = epoch;
                            out.push(id);
                        }
                    }
                }
            }
        }
    }

    /// The cell owning the pair `(a, b)`: the one containing the min-corner
    /// of the intersection of their bounding ranges. Both boxes cover that
    /// cell, so both ids appear in its list and the owner reports the pair
    /// exactly once across the whole traversal.
    fn owner_cell(&self, a: usize, b: usize) -> (i64, i64) {
        let (ba, bb) = (self.boxes[a], self.boxes[b]);
        (
            ba.0.max(bb.0).div_euclid(self.cell),
            ba.1.max(bb.1).div_euclid(self.cell),
        )
    }

    /// Partitions the occupied cells into at most `count` contiguous bands
    /// of near-equal cell population (lexicographic cell order).
    pub fn shards(&self, count: usize) -> GridShards {
        let mut keys: Vec<(i64, i64)> = self.cells.keys().copied().collect();
        keys.sort_unstable();
        let count = count.clamp(1, keys.len().max(1));
        let bounds = (0..=count).map(|s| s * keys.len() / count).collect();
        GridShards { keys, bounds }
    }

    /// Streams the candidate pairs owned by shard `shard` of `shards`, in
    /// deterministic (cell, insertion) order. Each intersecting pair `(i, j)`
    /// with `i < j` is reported by exactly one shard, exactly once.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shards.count()` or `shards` came from a
    /// different (or since-mutated) index.
    pub fn for_each_candidate_pair_in_shard(
        &self,
        shards: &GridShards,
        shard: usize,
        mut f: impl FnMut(u32, u32),
    ) {
        for key in &shards.keys[shards.bounds[shard]..shards.bounds[shard + 1]] {
            let ids = &self.cells[key];
            for (k, &i) in ids.iter().enumerate() {
                for &j in &ids[k + 1..] {
                    let (a, b) = if i < j { (i, j) } else { (j, i) };
                    if ranges_touch(self.boxes[a as usize], self.boxes[b as usize])
                        && self.owner_cell(a as usize, b as usize) == *key
                    {
                        f(a, b);
                    }
                }
            }
        }
    }

    /// Streams all unordered intersecting pairs `(i, j)` with `i < j`,
    /// each exactly once, without materializing the pair set.
    pub fn for_each_candidate_pair(&self, mut f: impl FnMut(u32, u32)) {
        let shards = self.shards(1);
        for s in 0..shards.count() {
            self.for_each_candidate_pair_in_shard(&shards, s, &mut f);
        }
    }

    /// All unordered pairs `(i, j)` with `i < j` whose bounding ranges
    /// intersect. Each pair is reported exactly once.
    ///
    /// Materializing convenience over [`GridIndex::for_each_candidate_pair`];
    /// hot paths should prefer the streaming or sharded traversal.
    pub fn candidate_pairs(&self) -> Vec<(u32, u32)> {
        let mut pairs = Vec::new();
        self.for_each_candidate_pair(|a, b| pairs.push((a, b)));
        pairs
    }

    /// Sharded parallel pair traversal: applies `map` to every candidate
    /// pair and collects the `Some` results **in shard order**, so the
    /// output is bit-identical for every `parallelism` degree (`0` = one
    /// worker per CPU, `1` = run on the calling thread, `k` = at most `k`
    /// workers).
    ///
    /// Shards are handed to workers through an atomic cursor
    /// (self-balancing); each worker buffers its `(shard, results)` pairs
    /// locally and the buffers are stitched by shard index afterwards.
    pub fn par_collect_pairs<T, F>(&self, parallelism: usize, map: F) -> Vec<T>
    where
        T: Send,
        F: Fn(u32, u32) -> Option<T> + Sync,
    {
        // The sweep over-shards past the worker count, so the count is
        // not capped by an item total.
        let workers = workers_for(parallelism, usize::MAX, self.len());
        if workers <= 1 || self.cells.len() <= 1 {
            let mut out = Vec::new();
            self.for_each_candidate_pair(|a, b| out.extend(map(a, b)));
            return out;
        }
        // Over-shard relative to the worker count so one dense band cannot
        // serialize the traversal; merge in shard order.
        let shards = self.shards(workers * 4);
        par_map_indexed(
            shards.count(),
            workers,
            || (),
            |(), s| {
                let mut out = Vec::new();
                self.for_each_candidate_pair_in_shard(&shards, s, |a, b| out.extend(map(a, b)));
                out
            },
        )
        .into_iter()
        .flatten()
        .collect()
    }
}

fn ranges_touch(a: (i64, i64, i64, i64), b: (i64, i64, i64, i64)) -> bool {
    a.0 <= b.2 && b.0 <= a.2 && a.1 <= b.3 && b.1 <= a.3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_pairs(boxes: &[(i64, i64, i64, i64)]) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for i in 0..boxes.len() {
            for j in i + 1..boxes.len() {
                if ranges_touch(boxes[i], boxes[j]) {
                    out.push((i as u32, j as u32));
                }
            }
        }
        out
    }

    fn random_boxes(seed: u64, n: usize) -> Vec<(i64, i64, i64, i64)> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let x = rng.gen_range(-1000..1000);
                let y = rng.gen_range(-1000..1000);
                let w = rng.gen_range(1..300);
                let h = rng.gen_range(1..300);
                (x, y, x + w, y + h)
            })
            .collect()
    }

    #[test]
    fn pairs_match_brute_force() {
        for seed in 0..20 {
            let boxes = random_boxes(seed, 60);
            let mut grid = GridIndex::new(128);
            for (i, b) in boxes.iter().enumerate() {
                grid.insert(i as u32, *b);
            }
            let mut got = grid.candidate_pairs();
            got.sort_unstable();
            let mut want = brute_pairs(&boxes);
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn streaming_reports_each_pair_exactly_once() {
        for seed in [3u64, 17, 40] {
            let boxes = random_boxes(seed, 80);
            let mut grid = GridIndex::new(100);
            for (i, b) in boxes.iter().enumerate() {
                grid.insert(i as u32, *b);
            }
            let mut counts: std::collections::HashMap<(u32, u32), usize> =
                std::collections::HashMap::new();
            grid.for_each_candidate_pair(|a, b| {
                assert!(a < b);
                *counts.entry((a, b)).or_default() += 1;
            });
            assert!(counts.values().all(|&c| c == 1), "seed {seed}");
            let mut got: Vec<_> = counts.into_keys().collect();
            got.sort_unstable();
            let mut want = brute_pairs(&boxes);
            want.sort_unstable();
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn shards_partition_the_traversal() {
        let boxes = random_boxes(11, 120);
        let mut grid = GridIndex::new(96);
        for (i, b) in boxes.iter().enumerate() {
            grid.insert(i as u32, *b);
        }
        let serial = grid.candidate_pairs();
        for count in [1, 2, 3, 5, 8, 1000] {
            let shards = grid.shards(count);
            assert!(shards.count() >= 1);
            let mut sharded = Vec::new();
            for s in 0..shards.count() {
                grid.for_each_candidate_pair_in_shard(&shards, s, |a, b| sharded.push((a, b)));
            }
            // Shard-order concatenation equals the serial streaming order.
            assert_eq!(sharded, serial, "shard count {count}");
        }
    }

    #[test]
    fn par_collect_is_bit_identical_to_serial() {
        let boxes = random_boxes(29, 150);
        let mut grid = GridIndex::new(128);
        for (i, b) in boxes.iter().enumerate() {
            grid.insert(i as u32, *b);
        }
        let serial = grid.par_collect_pairs(1, |a, b| Some((a, b)));
        assert_eq!(serial, grid.candidate_pairs());
        for parallelism in [0usize, 2, 4, 8] {
            let par = grid.par_collect_pairs(parallelism, |a, b| Some((a, b)));
            assert_eq!(par, serial, "parallelism {parallelism}");
        }
        // Filtering maps stay deterministic too.
        let odd = |a: u32, b: u32| ((a + b) % 2 == 1).then_some((a, b));
        assert_eq!(
            grid.par_collect_pairs(4, odd),
            grid.par_collect_pairs(1, odd)
        );
    }

    #[test]
    fn query_finds_touching_items() {
        let mut grid = GridIndex::new(100);
        grid.insert(0, (0, 0, 50, 50));
        grid.insert(1, (500, 500, 600, 600));
        let mut hits = grid.query((40, 40, 60, 60));
        hits.sort_unstable();
        assert_eq!(hits, vec![0]);
        // Touching at a corner counts.
        assert_eq!(grid.query((50, 50, 70, 70)), vec![0]);
        assert!(grid.query((200, 200, 210, 210)).is_empty());
    }

    #[test]
    fn negative_coordinates_work() {
        let mut grid = GridIndex::new(64);
        grid.insert(0, (-500, -500, -400, -400));
        grid.insert(1, (-450, -450, -300, -300));
        assert_eq!(grid.candidate_pairs(), vec![(0, 1)]);
    }

    #[test]
    #[should_panic(expected = "sequential")]
    fn rejects_nonsequential_ids() {
        let mut grid = GridIndex::new(10);
        grid.insert(3, (0, 0, 1, 1));
    }

    #[test]
    fn update_rebuckets_moved_items() {
        let boxes = random_boxes(51, 70);
        let mut grid = GridIndex::new(96);
        for (i, b) in boxes.iter().enumerate() {
            grid.insert(i as u32, *b);
        }
        // Shift the upper half as an end-to-end cut would, stretch one
        // straddler, leave the rest alone.
        let cut = 0i64;
        let width = 500i64;
        let moved: Vec<(i64, i64, i64, i64)> = boxes
            .iter()
            .map(|&(x0, y0, x1, y1)| {
                if x0 >= cut {
                    (x0 + width, y0, x1 + width, y1)
                } else if x1 > cut {
                    (x0, y0, x1 + width, y1)
                } else {
                    (x0, y0, x1, y1)
                }
            })
            .collect();
        for (i, b) in moved.iter().enumerate() {
            grid.update(i as u32, *b);
            assert_eq!(grid.bbox(i as u32), *b);
        }
        // The updated index answers pairs exactly like a fresh build.
        let mut fresh = GridIndex::new(96);
        for (i, b) in moved.iter().enumerate() {
            fresh.insert(i as u32, *b);
        }
        let mut got = grid.candidate_pairs();
        got.sort_unstable();
        let mut want = fresh.candidate_pairs();
        want.sort_unstable();
        assert_eq!(got, want);
        assert_eq!(want, {
            let mut brute = brute_pairs(&moved);
            brute.sort_unstable();
            brute
        });
        // Queries agree too (as sets).
        for probe in [(-400, -400, 0, 0), (600, -200, 900, 400)] {
            let mut a = grid.query(probe);
            let mut b = fresh.query(probe);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn par_map_heals_a_transient_panic_per_degree() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for workers in [1usize, 2, 4, 8] {
            // Each index panics exactly on its first attempt for one
            // chosen victim; the retry pass must heal it to the same
            // output the fault-free map produces.
            let victim = 7usize;
            let attempts = AtomicUsize::new(0);
            let out = par_map_indexed(
                16,
                workers,
                || (),
                |(), i| {
                    if i == victim && attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                        panic!("transient worker fault");
                    }
                    i * i
                },
            );
            assert_eq!(
                out,
                (0..16).map(|i| i * i).collect::<Vec<_>>(),
                "workers {workers}"
            );
            assert_eq!(attempts.load(Ordering::SeqCst), 2, "workers {workers}");
        }
    }

    #[test]
    fn par_map_propagates_a_persistent_panic() {
        for workers in [1usize, 4] {
            let caught = std::panic::catch_unwind(|| {
                par_map_indexed(
                    8,
                    workers,
                    || (),
                    |(), i| {
                        if i == 3 {
                            panic!("persistent worker fault");
                        }
                        i
                    },
                )
            });
            let payload = caught.expect_err("second failure must propagate");
            let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
            assert_eq!(msg, "persistent worker fault", "workers {workers}");
        }
    }

    #[test]
    fn par_map_reinits_state_after_a_panic() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // A panicking item must not leave its half-mutated state visible
        // to later items: the worker re-inits. We detect reuse of a
        // poisoned state by marking it before the panic.
        let attempts = AtomicUsize::new(0);
        let out = par_map_indexed(
            12,
            1,
            || false, // state: "poisoned" marker
            |poisoned, i| {
                assert!(
                    !*poisoned,
                    "item {i} saw a state poisoned by a caught panic"
                );
                if i == 5 && attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                    *poisoned = true;
                    panic!("poisoning fault");
                }
                i
            },
        );
        assert_eq!(out, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn workers_for_reproduces_every_retired_fallback_rule() {
        // The four per-site rules `workers_for` replaced, verbatim with
        // their retired thresholds: (site, stays serial?, count capped by
        // the item total?). A capped site passes its items; an uncapped
        // one passes `usize::MAX`.
        type Serial = fn(usize, usize) -> bool;
        let rules: [(&str, Serial, bool); 4] = [
            // Grid pair sweep over indexed boxes (over-shards, uncapped).
            (
                "grid items",
                |p, w| resolve_workers(p) <= 1 || (p == 0 && w < 2048),
                false,
            ),
            // Face trace and dual build over half-edges (2 per edge).
            ("embed half-edges", |p, w| p == 0 && 2 * w < 4096, true),
            // Bipartization extract and solve over total dual edges.
            ("bipartize dual edges", |p, w| p == 0 && w < 2048, true),
            // Conflict-graph build: serial builder vs the tiled one.
            (
                "graph constraints",
                |p, w| resolve_workers(p) <= 1 || (p == 0 && w < 2048),
                false,
            ),
        ];
        let work = [
            SERIAL_FALLBACK_WORK - 1,
            SERIAL_FALLBACK_WORK,
            SERIAL_FALLBACK_WORK + 1,
        ];
        for (name, serial, capped) in rules {
            for (p, w, items) in [0, 1, 2].into_iter().flat_map(|p| {
                work.into_iter()
                    .flat_map(move |w| [1usize, 64].map(|items| (p, w, items)))
            }) {
                let old = match (serial(p, w), capped) {
                    (true, _) => 1,
                    (false, true) => resolve_workers(p).min(items).max(1),
                    (false, false) => resolve_workers(p),
                };
                let site_items = if capped { items } else { usize::MAX };
                let context = format!("{name}: p={p} work={w} items={items}");
                assert_eq!(workers_for(p, site_items, w), old, "{context}");
            }
        }
        // Only auto parallelism falls back; an explicit degree is honored.
        assert_eq!(workers_for(0, 64, SERIAL_FALLBACK_WORK - 1), 1);
        assert_eq!(workers_for(2, 64, 0), 2);
        assert_eq!(workers_for(2, 1, 0), 1);
    }

    #[test]
    fn update_same_bbox_is_noop_and_bounds_track_hull() {
        let mut grid = GridIndex::new(64);
        grid.insert(0, (0, 0, 10, 10));
        grid.insert(1, (100, 100, 120, 130));
        assert_eq!(grid.bounds(), Some((0, 0, 120, 130)));
        grid.update(0, (0, 0, 10, 10));
        grid.update(1, (200, 100, 220, 130));
        assert_eq!(grid.bounds(), Some((0, 0, 220, 130)));
        assert_eq!(grid.query((205, 105, 210, 110)), vec![1]);
        assert!(grid.query((100, 100, 120, 130)).is_empty());
    }
}

use std::ops::Range;

/// A flat uniform-grid spatial index over `i64` space.
///
/// The index is built once from a list of axis-aligned bounding ranges
/// ([`GridIndex::build`]; item ids are positions in that list) and is
/// immutable afterwards. It is the backbone of both overlapping-shifter
/// extraction and edge-crossing detection, which would otherwise be
/// quadratic on full-chip inputs.
///
/// Pair-sweep grids take their cell size from [`GridIndex::cell_for`]:
/// twice the median long side of the indexed boxes. A typical box then
/// sits in one to two cells, so the build sorts about 1.7 entries per
/// item, and a cell still holds few enough boxes that the per-cell pair
/// loop stays cheap (the sweep behind this choice is in `CHANGES.md`).
///
/// # Bounded size
///
/// A grid holds at most `max(4 × boxes, 2^20)` entries: an outsized box
/// (a far plate, say) makes [`GridIndex::build`] coarsen the grid, never
/// a panic or an allocation sized by the box's span.
///
/// # Layout
///
/// The index is stored as compressed sparse rows: the occupied cells in
/// lexicographic `(cx, cy)` order, one offsets array, and one `ids` array
/// holding every cell's items in insertion order; a directory of the
/// occupied columns lets a query binary-search a column, then its rows,
/// instead of the whole cell list. The build sorts `(cell, id)` words by
/// a stable LSD radix sort on cell coordinates normalised to the lowest
/// occupied cell, skipping digits that are zero in every entry, so
/// nothing it allocates scales with the coordinate span, and a chip sorts
/// in about one pass per axis.
///
/// # Exactly-once reporting
///
/// Neither pairs nor queries need a dedup set. A pair is *owned* by the
/// single cell containing the min-corner of its boxes' intersection, and a
/// query hit by the cell containing the min-corner of the item's box ∩ the
/// query; only the owner reports it. A cell visited for a pair or a hit is
/// covered by both ranges, so the corner is never above its high corner,
/// and ownership is two comparisons with the cell's low corner, computed
/// once per cell. [`GridIndex::for_each_candidate_pair`] streams every
/// intersecting pair in (cell, insertion) order without materializing the
/// pair set, and [`GridIndex::par_collect_pairs`] runs contiguous bands of
/// the same traversal on worker threads.
///
/// ```
/// use aapsm_geom::GridIndex;
/// let grid = GridIndex::build(
///     256,
///     [
///         (0, 0, 100, 100),
///         (90, 90, 200, 200),
///         (10_000, 10_000, 10_100, 10_100),
///     ],
/// );
/// let mut pairs = Vec::new();
/// grid.for_each_candidate_pair(|a, b| pairs.push((a, b)));
/// assert_eq!(pairs, vec![(0, 1)]);
/// let mut hits = Vec::new();
/// grid.query((150, 150, 10_000, 10_000), |id| hits.push(id));
/// hits.sort_unstable();
/// assert_eq!(hits, vec![1, 2]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GridIndex {
    cell: i64,
    /// Bounding ranges per id, in insertion order.
    boxes: Vec<(i64, i64, i64, i64)>,
    /// Occupied cells, in lexicographic order.
    keys: Vec<(i64, i64)>,
    /// The distinct `cx` of `keys`, ascending, and `columns.len() + 1`
    /// offsets into `keys`: column `c` holds
    /// `keys[column_starts[c]..column_starts[c + 1]]`.
    columns: Vec<i64>,
    column_starts: Vec<usize>,
    /// `keys.len() + 1` offsets into `ids`: cell `k` holds
    /// `ids[offsets[k]..offsets[k + 1]]`.
    offsets: Vec<usize>,
    /// Every cell's items, ascending (insertion order) within a cell.
    ids: Vec<u32>,
}

/// Digit width of the build's radix sort: 2048 buckets, so a chip up to
/// 2048 cells across sorts in one pass per axis.
const RADIX_BITS: u32 = 11;
const RADIX_MASK: u32 = (1 << RADIX_BITS) - 1;

/// One `(cell, id)` entry of the build's sort: the cell, normalised to
/// the lowest occupied one, and the item id.
#[derive(Clone, Copy, Default)]
struct Entry {
    x: u32,
    y: u32,
    id: u32,
}

/// Resolves a `parallelism` knob: `0` = one worker per available CPU,
/// otherwise the value itself (at least 1).
pub(crate) fn resolve_workers(parallelism: usize) -> usize {
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
/// the knob resolves (`0` = one worker per available CPU), capped at
/// `items` and at least 1. An explicit degree is always honored. Callers
/// that only need the serial-or-parallel verdict (or over-shard past the
/// worker count) pass `usize::MAX` as `items`.
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
    /// Indexes `boxes` — inclusive bounding ranges `(x_lo, y_lo, x_hi,
    /// y_hi)`, item `i` being the `i`-th — under a grid of cells at least
    /// `cell` wide.
    ///
    /// While the entries (one per box per covered cell) would number more
    /// than `max(4 × boxes, 2^20)`, or the occupied cells would span more
    /// than `u32::MAX` cells on an axis, the cell doubles: the answers stay
    /// the same, only pairs and queries slow down. Four per box is the
    /// least bound every input meets, since a box no wider than the cell
    /// covers at most 2×2 cells. Under the 2^20 floor a grid keeps the cell
    /// it asked for, and the build's two sort buffers of 12-byte entries
    /// stay within 24 MB. No layout with `i32` coordinates spans more than
    /// `u32::MAX` cells. Only a box wider than `i64::MAX`, which no
    /// sanitized layout holds, can still cover 4×4 cells at the largest
    /// cell.
    ///
    /// The build emits each entry as its cell, normalised to the lowest
    /// occupied cell (two `u32`), and its id, in id order; a stable LSD
    /// radix sort orders the entries by cell, and a run-length pass over
    /// them lays out the cells. Every pass reads the cell from the entry
    /// itself, not from the entry's box.
    ///
    /// # Panics
    ///
    /// Panics if `cell <= 0`, a range is inverted, or there are more than
    /// `u32::MAX` boxes.
    pub fn build(cell: i64, boxes: impl IntoIterator<Item = (i64, i64, i64, i64)>) -> Self {
        assert!(cell > 0, "cell size must be positive");
        let boxes: Vec<(i64, i64, i64, i64)> = boxes.into_iter().collect();
        assert!(
            u32::try_from(boxes.len()).is_ok(),
            "more than u32::MAX boxes"
        );
        // The hull's cells bound every box's cells.
        let mut hull = (i64::MAX, i64::MAX, i64::MIN, i64::MIN);
        for b in &boxes {
            assert!(b.0 <= b.2 && b.1 <= b.3, "inverted bbox");
            hull = (
                hull.0.min(b.0),
                hull.1.min(b.1),
                hull.2.max(b.2),
                hull.3.max(b.3),
            );
        }
        let mut grid = GridIndex {
            cell,
            boxes,
            keys: Vec::new(),
            columns: Vec::new(),
            column_starts: Vec::new(),
            offsets: Vec::new(),
            ids: Vec::new(),
        };
        let bound = (4 * grid.boxes.len() as u64).max(1 << 20);
        // Every box's cell range normalised to the hull's lowest cell, and
        // the entries they make; the OR of every normalised coordinate
        // shows the digits that are zero in every entry, whose passes
        // would be the identity.
        let (low, ranges, total, or_x, or_y) = loop {
            let (low, high) = (grid.cell_of(hull.0, hull.1), grid.cell_of(hull.2, hull.3));
            let narrow = grid.boxes.is_empty()
                || high.0.abs_diff(low.0).max(high.1.abs_diff(low.1)) <= u64::from(u32::MAX);
            if narrow || grid.cell == i64::MAX {
                let (mut total, mut or_x, mut or_y) = (0u64, 0u32, 0u32);
                let ranges: Vec<[u32; 4]> = grid
                    .boxes
                    .iter()
                    .map(|&b| {
                        let r = grid.cell_range(b);
                        let n = [
                            r.0.abs_diff(low.0) as u32,
                            r.1.abs_diff(low.1) as u32,
                            r.2.abs_diff(low.0) as u32,
                            r.3.abs_diff(low.1) as u32,
                        ];
                        let cells = (u64::from(n[2] - n[0]) + 1) * (u64::from(n[3] - n[1]) + 1);
                        total = total.saturating_add(cells);
                        or_x |= range_or(n[0], n[2]);
                        or_y |= range_or(n[1], n[3]);
                        n
                    })
                    .collect();
                if total <= bound || grid.cell == i64::MAX {
                    break (low, ranges, total as usize, or_x, or_y);
                }
            }
            grid.cell = grid.cell.saturating_mul(2);
        };
        // LSD: y digits first, then x digits, so the final order is
        // lexicographic `(cx, cy)`; stability keeps ids ascending per cell.
        // With every digit skipped all entries share one cell, and one
        // all-zero pass keeps them in id order. A pass is its axis (x or
        // not) and the digit's shift.
        let digits = |or: u32, x_axis: bool| {
            (0..u32::BITS)
                .step_by(RADIX_BITS as usize)
                .filter(move |&shift| (or >> shift) & RADIX_MASK != 0)
                .map(move |shift| (x_axis, shift))
        };
        let mut passes: Vec<(bool, u32)> = digits(or_y, false).chain(digits(or_x, true)).collect();
        if passes.is_empty() {
            passes.push((false, 0));
        }
        let digit = |(x, y): (u32, u32), (x_axis, shift): (bool, u32)| {
            ((if x_axis { x } else { y }) >> shift & RADIX_MASK) as usize
        };
        // Every pass's bucket starts, counted per box column or row (a y
        // digit repeats across the box's columns) instead of per entry.
        let mut starts = vec![[0usize; 1 << RADIX_BITS]; passes.len()];
        for &[x0, y0, x1, y1] in &ranges {
            for (&pass, counts) in passes.iter().zip(&mut starts) {
                if pass.0 {
                    for x in x0..=x1 {
                        counts[digit((x, 0), pass)] += (y1 - y0) as usize + 1;
                    }
                } else {
                    for y in y0..=y1 {
                        counts[digit((0, y), pass)] += (x1 - x0) as usize + 1;
                    }
                }
            }
        }
        for counts in &mut starts {
            let mut sum = 0;
            for slot in counts.iter_mut() {
                (*slot, sum) = (sum, sum + *slot);
            }
        }
        // Emit every entry in id order straight into its first-pass
        // bucket, then run the remaining passes on the entries alone.
        let mut entries = vec![Entry::default(); total];
        for (id, &[x0, y0, x1, y1]) in ranges.iter().enumerate() {
            for x in x0..=x1 {
                for y in y0..=y1 {
                    let slot = &mut starts[0][digit((x, y), passes[0])];
                    entries[*slot] = Entry {
                        x,
                        y,
                        id: id as u32,
                    };
                    *slot += 1;
                }
            }
        }
        drop(ranges);
        let mut spare = Vec::new();
        for (&pass, counts) in passes.iter().zip(&mut starts).skip(1) {
            spare.resize(total, Entry::default());
            for &e in &entries {
                let slot = &mut counts[digit((e.x, e.y), pass)];
                spare[*slot] = e;
                *slot += 1;
            }
            std::mem::swap(&mut entries, &mut spare);
        }
        drop(spare);
        // Run-length the sorted entries into cells.
        let cells = entries
            .windows(2)
            .filter(|w| (w[0].x, w[0].y) != (w[1].x, w[1].y))
            .count()
            + usize::from(!entries.is_empty());
        grid.keys.reserve_exact(cells);
        grid.offsets.reserve_exact(cells + 1);
        grid.ids.reserve_exact(entries.len());
        let mut last = None;
        for e in &entries {
            if last != Some((e.x, e.y)) {
                last = Some((e.x, e.y));
                let key = (low.0 + i64::from(e.x), low.1 + i64::from(e.y));
                if grid.columns.last() != Some(&key.0) {
                    grid.columns.push(key.0);
                    grid.column_starts.push(grid.keys.len());
                }
                grid.keys.push(key);
                grid.offsets.push(grid.ids.len());
            }
            grid.ids.push(e.id);
        }
        grid.column_starts.push(grid.keys.len());
        grid.offsets.push(grid.ids.len());
        grid
    }

    /// The cell size of a grid over `boxes`: twice the (upper) median long
    /// side, at least 1. An empty list gets 1.
    ///
    /// Extraction's shifter and feature grids and the crossing sweep's
    /// edge grid are all sized here, so the boxes, not a rule distance,
    /// decide how many cells a box covers. Twice the median keeps a
    /// typical box in one or two cells per axis; long outliers cover more
    /// cells and are still found exactly.
    pub fn cell_for(boxes: &[(i64, i64, i64, i64)]) -> i64 {
        let mut extents: Vec<u64> = boxes
            .iter()
            .map(|b| b.2.abs_diff(b.0).max(b.3.abs_diff(b.1)))
            .collect();
        if extents.is_empty() {
            return 1;
        }
        let mid = extents.len() / 2;
        let median = *extents.select_nth_unstable(mid).1;
        i64::try_from(median.saturating_mul(2))
            .unwrap_or(i64::MAX)
            .max(1)
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.boxes.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.boxes.is_empty()
    }

    fn cell_of(&self, x: i64, y: i64) -> (i64, i64) {
        (x.div_euclid(self.cell), y.div_euclid(self.cell))
    }

    fn cell_range(&self, bx: (i64, i64, i64, i64)) -> (i64, i64, i64, i64) {
        let (cx_lo, cy_lo) = self.cell_of(bx.0, bx.1);
        let (cx_hi, cy_hi) = self.cell_of(bx.2, bx.3);
        (cx_lo, cy_lo, cx_hi, cy_hi)
    }

    /// The lowest point of cell `(cx, cy)`, clamped to `i64::MIN` (only
    /// the cell that holds `i64::MIN` itself can reach below it).
    fn low_corner(&self, (cx, cy): (i64, i64)) -> (i64, i64) {
        (cx.saturating_mul(self.cell), cy.saturating_mul(self.cell))
    }

    /// The items of occupied cell `k`.
    fn cell_ids(&self, k: usize) -> &[u32] {
        &self.ids[self.offsets[k]..self.offsets[k + 1]]
    }

    /// Calls `f` once with the id of every item whose bounding range
    /// touches `bbox`, in no particular order.
    ///
    /// Costs one binary search over the occupied columns, one within each
    /// occupied column `bbox` spans, and the items of the occupied cells it
    /// covers; empty columns and rows are skipped, and nothing is
    /// allocated.
    pub fn query(&self, bbox: (i64, i64, i64, i64), mut f: impl FnMut(u32)) {
        let (cx_lo, cy_lo, cx_hi, cy_hi) = self.cell_range(bbox);
        let first = self.columns.partition_point(|&cx| cx < cx_lo);
        for (c, &cx) in self.columns.iter().enumerate().skip(first) {
            if cx > cx_hi {
                break;
            }
            let column = self.column_starts[c]..self.column_starts[c + 1];
            let from =
                column.start + self.keys[column.clone()].partition_point(|&(_, cy)| cy < cy_lo);
            for k in from..column.end {
                let cy = self.keys[k].1;
                if cy > cy_hi {
                    break;
                }
                // The item and `bbox` both cover this cell, so the
                // min-corner of their intersection is at most its high
                // corner: the cell owns the hit iff the corner is at
                // least its low corner.
                let (x_lo, y_lo) = self.low_corner((cx, cy));
                for &id in self.cell_ids(k) {
                    let b = self.boxes[id as usize];
                    // Its own branch, as in `pairs_in_cells`.
                    if !ranges_touch(b, bbox) {
                        continue;
                    }
                    if b.0.max(bbox.0) >= x_lo && b.1.max(bbox.1) >= y_lo {
                        f(id);
                    }
                }
            }
        }
    }

    /// Streams the pairs owned by the occupied cells `cells` (key
    /// indices), in (cell, insertion) order.
    fn pairs_in_cells(&self, cells: Range<usize>, mut f: impl FnMut(u32, u32)) {
        for k in cells {
            // The owner cell: the one containing the min-corner of the
            // intersection. Both boxes cover this cell, so the corner is
            // at most its high corner, and the cell owns the pair iff the
            // corner is at least its low corner.
            let (x_lo, y_lo) = self.low_corner(self.keys[k]);
            let ids = self.cell_ids(k);
            for (n, &i) in ids.iter().enumerate() {
                let bi = self.boxes[i as usize];
                for &j in &ids[n + 1..] {
                    let bj = self.boxes[j as usize];
                    // Its own branch: in a crowded cell (a coarsened grid)
                    // most pairs are apart, and leaving at the first failed
                    // comparison halves the loop's time there.
                    if !ranges_touch(bi, bj) {
                        continue;
                    }
                    if bi.0.max(bj.0) >= x_lo && bi.1.max(bj.1) >= y_lo {
                        f(i, j);
                    }
                }
            }
        }
    }

    /// The number of box pairs [`Self::for_each_candidate_pair`] tests:
    /// `C(k, 2)` summed over the occupied cells, `k` being a cell's item
    /// count (saturating at `u64::MAX`). Read off the offsets, so a caller
    /// can refuse a traversal before it starts.
    pub fn pair_tests(&self) -> u64 {
        self.offsets
            .windows(2)
            .map(|w| {
                let k = (w[1] - w[0]) as u64;
                k * k.saturating_sub(1) / 2
            })
            .fold(0, u64::saturating_add)
    }

    /// Streams all unordered intersecting pairs `(i, j)` with `i < j`,
    /// each exactly once, without materializing the pair set: occupied
    /// cells in lexicographic order, and within a cell in insertion order.
    pub fn for_each_candidate_pair(&self, f: impl FnMut(u32, u32)) {
        self.pairs_in_cells(0..self.keys.len(), f);
    }

    /// Partitions the occupied cells into at most `count` contiguous bands
    /// of near-equal cell population (key-index ranges, in order).
    fn shards(&self, count: usize) -> Vec<Range<usize>> {
        let n = self.keys.len();
        let count = count.clamp(1, n.max(1));
        (0..count)
            .map(|s| s * n / count..(s + 1) * n / count)
            .collect()
    }

    /// Sharded parallel pair traversal: applies `map` to every candidate
    /// pair and collects the `Some` results **in shard order**, so the
    /// output is bit-identical for every `parallelism` degree (`0` = one
    /// worker per CPU, `1` = run on the calling thread, `k` = at most `k`
    /// workers).
    ///
    /// Shards — contiguous bands of the occupied cells — are handed to
    /// workers through an atomic cursor (self-balancing); each worker
    /// buffers its `(shard, results)` pairs locally and the buffers are
    /// stitched by shard index afterwards.
    pub fn par_collect_pairs<T, F>(&self, parallelism: usize, map: F) -> Vec<T>
    where
        T: Send,
        F: Fn(u32, u32) -> Option<T> + Sync,
    {
        // The sweep over-shards past the worker count, so the count is
        // not capped by an item total.
        let workers = workers_for(parallelism, usize::MAX, self.len());
        if workers <= 1 || self.keys.len() <= 1 {
            let mut out = Vec::new();
            self.for_each_candidate_pair(|a, b| out.extend(map(a, b)));
            return out;
        }
        // Over-shard relative to the worker count so one dense band cannot
        // serialize the traversal; merge in shard order.
        let shards = self.shards(workers * 4);
        par_map_indexed(
            shards.len(),
            workers,
            || (),
            |(), s| {
                let mut out = Vec::new();
                self.pairs_in_cells(shards[s].clone(), |a, b| out.extend(map(a, b)));
                out
            },
        )
        .into_iter()
        .flatten()
        .collect()
    }
}

/// Bitwise OR of every integer in `lo..=hi`: `hi` plus every bit below
/// the highest bit in which `lo` and `hi` differ.
fn range_or(lo: u32, hi: u32) -> u32 {
    match lo ^ hi {
        0 => hi,
        diff => hi | (u32::MAX >> diff.leading_zeros() >> 1),
    }
}

fn ranges_touch(a: (i64, i64, i64, i64), b: (i64, i64, i64, i64)) -> bool {
    a.0 <= b.2 && b.0 <= a.2 && a.1 <= b.3 && b.1 <= a.3
}

#[cfg(test)]
mod tests {
    use super::*;

    type Box4 = (i64, i64, i64, i64);

    fn brute_pairs(boxes: &[Box4]) -> Vec<(u32, u32)> {
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

    fn brute_query(boxes: &[Box4], q: Box4) -> Vec<u32> {
        (0..boxes.len() as u32)
            .filter(|&i| ranges_touch(boxes[i as usize], q))
            .collect()
    }

    fn pairs(grid: &GridIndex) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        grid.for_each_candidate_pair(|a, b| out.push((a, b)));
        out
    }

    /// Query hits in ascending id order, asserting each came back once.
    fn query(grid: &GridIndex, q: Box4) -> Vec<u32> {
        let mut hits = Vec::new();
        grid.query(q, |id| hits.push(id));
        hits.sort_unstable();
        let n = hits.len();
        hits.dedup();
        assert_eq!(hits.len(), n, "query {q:?} reported an id twice");
        hits
    }

    fn random_boxes(seed: u64, n: usize) -> Vec<Box4> {
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

    /// Checks pairs (as a set) and a batch of random queries against brute
    /// force.
    fn assert_matches_brute_force(cell: i64, boxes: &[Box4], seed: u64) {
        use rand::{Rng, SeedableRng};
        let grid = GridIndex::build(cell, boxes.iter().copied());
        let mut got = pairs(&grid);
        got.sort_unstable();
        assert_eq!(got, brute_pairs(boxes), "cell {cell} seed {seed}");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5eed);
        for _ in 0..40 {
            let x = rng.gen_range(-1500..1500);
            let y = rng.gen_range(-1500..1500);
            let q = (x, y, x + rng.gen_range(0..800), y + rng.gen_range(0..800));
            assert_eq!(query(&grid, q), brute_query(boxes, q), "query {q:?}");
        }
    }

    #[test]
    fn cell_for_is_twice_the_upper_median_long_side() {
        assert_eq!(GridIndex::cell_for(&[]), 1);
        assert_eq!(GridIndex::cell_for(&[(5, 5, 5, 5)]), 1);
        // Long sides 10, 40, 30, 300: the upper median is 40.
        let boxes = [
            (0, 0, 10, 3),
            (-50, 0, -10, 20),
            (0, -30, 1, 0),
            (0, 0, 300, 300),
        ];
        assert_eq!(GridIndex::cell_for(&boxes), 80);
        assert_eq!(GridIndex::cell_for(&[(i64::MIN, 0, i64::MAX, 0)]), i64::MAX);
    }

    #[test]
    fn pairs_match_brute_force() {
        for seed in 0..20 {
            let boxes = random_boxes(seed, 60);
            let grid = GridIndex::build(128, boxes.iter().copied());
            let mut got = pairs(&grid);
            got.sort_unstable();
            assert_eq!(got, brute_pairs(&boxes));
        }
    }

    #[test]
    fn random_boxes_and_queries_match_brute_force() {
        for seed in 0..12 {
            let boxes = random_boxes(seed, 90);
            for cell in [5, 64, 128, 1000, 1 << 20] {
                assert_matches_brute_force(cell, &boxes, seed);
            }
        }
    }

    #[test]
    fn streaming_reports_each_pair_exactly_once() {
        for seed in [3u64, 17, 40] {
            let boxes = random_boxes(seed, 80);
            let grid = GridIndex::build(100, boxes.iter().copied());
            let mut counts: std::collections::HashMap<(u32, u32), usize> =
                std::collections::HashMap::new();
            grid.for_each_candidate_pair(|a, b| {
                assert!(a < b);
                *counts.entry((a, b)).or_default() += 1;
            });
            assert!(counts.values().all(|&c| c == 1), "seed {seed}");
            let mut got: Vec<_> = counts.into_keys().collect();
            got.sort_unstable();
            assert_eq!(got, brute_pairs(&boxes), "seed {seed}");
        }
    }

    #[test]
    fn pair_order_is_owner_cell_then_insertion() {
        for (seed, cell) in [(5u64, 96), (6, 13), (7, 400)] {
            let boxes = random_boxes(seed, 100);
            let grid = GridIndex::build(cell, boxes.iter().copied());
            let mut want = brute_pairs(&boxes);
            want.sort_by_key(|&(a, b)| {
                let (ba, bb) = (boxes[a as usize], boxes[b as usize]);
                let owner = (
                    ba.0.max(bb.0).div_euclid(cell),
                    ba.1.max(bb.1).div_euclid(cell),
                );
                (owner, a, b)
            });
            assert_eq!(pairs(&grid), want, "seed {seed} cell {cell}");
        }
    }

    #[test]
    fn pair_tests_count_the_pairs_each_cell_tests() {
        for (seed, cell) in [(8u64, 64), (9, 300), (10, 1 << 20)] {
            let boxes = random_boxes(seed, 90);
            let grid = GridIndex::build(cell, boxes.iter().copied());
            let mut tests = 0u64;
            for k in 0..grid.keys.len() {
                let ids = grid.cell_ids(k);
                for (n, _) in ids.iter().enumerate() {
                    tests += ids[n + 1..].len() as u64;
                }
            }
            assert_eq!(grid.pair_tests(), tests, "seed {seed} cell {cell}");
        }
        // One cell holds every box: all pairs are tested.
        let boxes = random_boxes(12, 50);
        let grid = GridIndex::build(
            1 << 20,
            boxes
                .iter()
                .map(|b| (b.0 + 1000, b.1 + 1000, b.2 + 1000, b.3 + 1000)),
        );
        assert_eq!(grid.pair_tests(), 50 * 49 / 2);
        assert_eq!(GridIndex::build(64, std::iter::empty()).pair_tests(), 0);
    }

    #[test]
    fn shards_partition_the_traversal() {
        let boxes = random_boxes(11, 120);
        let grid = GridIndex::build(96, boxes.iter().copied());
        let serial = pairs(&grid);
        for count in [1, 2, 3, 5, 8, 1000] {
            let shards = grid.shards(count);
            assert!(!shards.is_empty());
            assert_eq!(shards[0].start, 0);
            assert_eq!(shards[shards.len() - 1].end, grid.keys.len());
            let mut sharded = Vec::new();
            for band in shards {
                grid.pairs_in_cells(band, |a, b| sharded.push((a, b)));
            }
            // Shard-order concatenation equals the serial streaming order.
            assert_eq!(sharded, serial, "shard count {count}");
        }
    }

    #[test]
    fn par_collect_is_bit_identical_to_serial() {
        let boxes = random_boxes(29, 150);
        let grid = GridIndex::build(128, boxes.iter().copied());
        let serial = grid.par_collect_pairs(1, |a, b| Some((a, b)));
        assert_eq!(serial, pairs(&grid));
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
        let grid = GridIndex::build(100, [(0, 0, 50, 50), (500, 500, 600, 600)]);
        assert_eq!(query(&grid, (40, 40, 60, 60)), vec![0]);
        // Touching at a corner counts.
        assert_eq!(query(&grid, (50, 50, 70, 70)), vec![0]);
        assert!(query(&grid, (200, 200, 210, 210)).is_empty());
        // A query spanning empty rows and columns between the items.
        assert_eq!(query(&grid, (-1000, -1000, 1000, 1000)), vec![0, 1]);
    }

    #[test]
    fn negative_coordinates_work() {
        let grid = GridIndex::build(64, [(-500, -500, -400, -400), (-450, -450, -300, -300)]);
        assert_eq!(pairs(&grid), vec![(0, 1)]);
        assert_eq!(query(&grid, (-1, -1, 0, 0)), Vec::<u32>::new());
        assert_eq!(query(&grid, (-420, -420, -420, -420)), vec![0, 1]);
    }

    #[test]
    fn far_apart_boxes_need_no_span_sized_buffers() {
        // 2^40 dbu apart at a 64-dbu cell is 2^34 cells: a sort or table
        // sized by the span could not even be allocated.
        let far = 1i64 << 40;
        let boxes = [
            (0, 0, 100, 100),
            (far, -far, far + 100, -far + 100),
            (50, 50, 60, 60),
            (-far, far, -far + 10, far + 10),
            (far + 90, -far + 90, far + 200, -far + 200),
        ];
        let grid = GridIndex::build(64, boxes.iter().copied());
        assert_eq!(pairs(&grid), vec![(0, 2), (1, 4)]);
        assert_eq!(query(&grid, (-far, -far, far, far)), vec![0, 1, 2, 3]);
        assert_eq!(query(&grid, (far, -far, far, -far)), vec![1]);
        // The extremes of `i64` at the smallest cell.
        let (lo, hi) = (i64::MIN, i64::MAX);
        let boxes = [
            (lo, lo, lo + 5, lo + 5),
            (hi - 5, hi - 5, hi, hi),
            (lo, hi - 1, lo + 1, hi),
        ];
        let grid = GridIndex::build(1, boxes.iter().copied());
        assert!(pairs(&grid).is_empty());
        assert_eq!(query(&grid, (lo, lo, hi, hi)), vec![0, 1, 2]);
        assert_eq!(query(&grid, (hi - 1, hi - 1, hi, hi)), vec![1]);
    }

    #[test]
    fn big_zero_area_and_empty_indices_match_brute_force() {
        // One box covering hundreds of cells among small ones.
        let mut boxes = random_boxes(71, 60);
        boxes.push((-900, -900, 900, 900));
        assert!(GridIndex::build(64, boxes.iter().copied()).keys.len() >= 800);
        assert_matches_brute_force(64, &boxes, 71);
        // One box 2^30 wide among small ones, at the `cell_for` cell: it
        // would cover about 10^13 cells there, so the grid coarsens to
        // stay within its bound, and still answers exactly.
        let mut boxes = random_boxes(73, 60);
        boxes.push((-(1 << 29), -(1 << 29), 1 << 29, 1 << 29));
        let cell = GridIndex::cell_for(&boxes);
        let grid = GridIndex::build(cell, boxes.iter().copied());
        assert!(grid.cell > cell);
        assert!(grid.ids.len() <= (4 * boxes.len()).max(1 << 20));
        assert_matches_brute_force(cell, &boxes, 73);
        // Zero-area boxes: points and segments, on and off cell lines.
        let degenerate = vec![
            (0, 0, 0, 0),
            (0, 0, 0, 0),
            (64, -64, 64, -64),
            (10, 0, 10, 500),
            (-300, 64, 300, 64),
            (63, 63, 63, 63),
            (64, 64, 64, 64),
        ];
        assert_matches_brute_force(64, &degenerate, 72);
        // An empty index answers nothing.
        let empty = GridIndex::build(64, std::iter::empty());
        assert!(empty.is_empty());
        assert!(pairs(&empty).is_empty());
        assert!(query(&empty, (i64::MIN, i64::MIN, i64::MAX, i64::MAX)).is_empty());
        assert!(empty.par_collect_pairs(4, |a, b| Some((a, b))).is_empty());
    }

    /// Checks a grid over `boxes` against brute force: pairs in owner-cell
    /// (at the grid's own, possibly coarsened, cell) then insertion order,
    /// and queries over random boxes and hulls of two, each side widened
    /// by up to `slack`.
    fn assert_exact(cell: i64, boxes: &[Box4], slack: i64, seed: u64) -> GridIndex {
        use rand::{Rng, SeedableRng};
        let grid = GridIndex::build(cell, boxes.iter().copied());
        let owner = |a: u32, b: u32| {
            let (ba, bb) = (boxes[a as usize], boxes[b as usize]);
            (
                ba.0.max(bb.0).div_euclid(grid.cell),
                ba.1.max(bb.1).div_euclid(grid.cell),
            )
        };
        let mut want = brute_pairs(boxes);
        want.sort_by_key(|&(a, b)| (owner(a, b), a, b));
        assert_eq!(pairs(&grid), want, "cell {cell} seed {seed}");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for n in 0..60 {
            let a = boxes[rng.gen_range(0..boxes.len())];
            // Every other query widens one box, the rest span two.
            let b = if n % 2 == 0 {
                a
            } else {
                boxes[rng.gen_range(0..boxes.len())]
            };
            let q = (
                a.0.min(b.0).saturating_sub(rng.gen_range(0..=slack)),
                a.1.min(b.1).saturating_sub(rng.gen_range(0..=slack)),
                a.2.max(b.2).saturating_add(rng.gen_range(0..=slack)),
                a.3.max(b.3).saturating_add(rng.gen_range(0..=slack)),
            );
            assert_eq!(query(&grid, q), brute_query(boxes, q), "query {q:?}");
        }
        grid
    }

    /// `n` random boxes up to `size` wide with low corners in
    /// `x0..x0 + spread`, `y0..y0 + spread`.
    fn boxes_at(seed: u64, n: usize, (x0, y0): (i64, i64), spread: i64, size: i64) -> Vec<Box4> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let x = x0 + rng.gen_range(0..spread);
                let y = y0 + rng.gen_range(0..spread);
                (x, y, x + rng.gen_range(0..size), y + rng.gen_range(0..size))
            })
            .collect()
    }

    #[test]
    fn negative_coordinates_match_brute_force() {
        for seed in 0..6 {
            // Wholly negative, and straddling both axes, with corners on
            // cell lines at the smaller cells.
            let mut boxes = boxes_at(seed, 70, (-5000, -4000), 3000, 400);
            boxes.extend(boxes_at(seed + 100, 30, (-300, -300), 600, 300));
            boxes.extend([(-128, -64, -64, 0), (-64, -128, 0, -64), (-1, -1, 0, 0)]);
            for cell in [1, 7, 64, 1000] {
                assert_exact(cell, &boxes, 200, seed);
            }
        }
    }

    #[test]
    fn an_axis_past_u32_cells_coarsens_and_stays_exact() {
        // Two clusters 2^40 dbu apart on one axis (then the other) are
        // 2^34 cells apart at a 64-dbu cell: the grid doubles its cell
        // until the span fits in `u32` cells.
        let far = 1i64 << 40;
        for (seed, (dx, dy)) in [(1u64, (far, 0)), (2, (0, far)), (3, (-far, far))] {
            let mut boxes = boxes_at(seed, 60, (-2000, -2000), 4000, 500);
            boxes.extend(boxes_at(seed + 10, 60, (dx - 2000, dy - 2000), 4000, 500));
            let grid = assert_exact(64, &boxes, 1000, seed);
            assert!(grid.cell > 64, "seed {seed}");
            // It coarsened until, and only until, 2^40 dbu fit in `u32`
            // cells.
            assert!(far / grid.cell < i64::from(u32::MAX), "seed {seed}");
            assert!(far / (grid.cell / 2) > i64::from(u32::MAX), "seed {seed}");
            assert!(grid.ids.len() <= 4 * boxes.len(), "seed {seed}");
        }
    }

    #[test]
    fn cells_at_the_i64_extremes_match_brute_force() {
        let (lo, hi) = (i64::MIN, i64::MAX);
        for seed in 0..4 {
            // Near `i64::MIN` at a cell that does not divide it: the lowest
            // cell's low corner lies below `i64::MIN`.
            let mut low = boxes_at(seed, 60, (lo, lo), 2000, 300);
            low.extend([
                (lo, lo, lo, lo),
                (lo, lo, lo + 2, lo + 5),
                (lo + 1, lo, lo + 4, lo),
            ]);
            for cell in [3, 64, 1000] {
                let grid = assert_exact(cell, &low, 100, seed);
                assert_eq!(grid.cell, cell);
            }
            // Near `i64::MAX`, with boxes ending on it.
            let mut high: Vec<Box4> = boxes_at(seed + 7, 60, (hi - 3000, hi - 3000), 2000, 300);
            high.extend([
                (hi, hi, hi, hi),
                (hi - 5, hi - 2, hi, hi),
                (hi - 1, hi - 9, hi, hi - 1),
            ]);
            for cell in [3, 64, 1000] {
                let grid = assert_exact(cell, &high, 100, seed);
                assert_eq!(grid.cell, cell);
            }
            // Both at once span the whole `i64` range: it coarsens.
            let both: Vec<Box4> = low.iter().chain(&high).copied().collect();
            let grid = assert_exact(3, &both, 100, seed);
            assert!(grid.cell > 3);
        }
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn rejects_inverted_boxes() {
        GridIndex::build(10, [(0, 0, 1, 1), (5, 0, 4, 1)]);
    }

    #[test]
    fn rebuilt_from_cut_moved_boxes_matches_fresh_and_brute_force() {
        let boxes = random_boxes(51, 70);
        let grid = GridIndex::build(96, boxes.iter().copied());
        // Shift the upper half as an end-to-end cut would, stretch the
        // straddlers, leave the rest alone — then build a second index
        // over the moved boxes, as extraction does for a cut layout.
        let (cut, width) = (0i64, 500i64);
        let apply_cut = |(x0, y0, x1, y1): Box4| {
            if x0 >= cut {
                (x0 + width, y0, x1 + width, y1)
            } else if x1 > cut {
                (x0, y0, x1 + width, y1)
            } else {
                (x0, y0, x1, y1)
            }
        };
        let moved: Vec<Box4> = boxes.iter().map(|&b| apply_cut(b)).collect();
        let rebuilt = GridIndex::build(96, boxes.iter().map(|&b| apply_cut(b)));
        let fresh = GridIndex::build(96, moved.iter().copied());
        assert_eq!(rebuilt.len(), grid.len());
        // Pairs in the same order as a fresh build, equal to brute force.
        assert_eq!(pairs(&rebuilt), pairs(&fresh));
        let mut got = pairs(&rebuilt);
        got.sort_unstable();
        assert_eq!(got, brute_pairs(&moved));
        // Queries agree too, including a slab-shaped one over the cut.
        for probe in [
            (-400, -400, 0, 0),
            (600, -200, 900, 400),
            (0, -2000, 500, 2000),
        ] {
            assert_eq!(query(&rebuilt, probe), query(&fresh, probe));
            assert_eq!(query(&rebuilt, probe), brute_query(&moved, probe));
        }
        assert_matches_brute_force(96, &moved, 51);
    }

    #[test]
    fn bounds_track_the_hull() {
        let grid = GridIndex::build(64, [(0, 0, 10, 10), (200, 100, 220, 130)]);
        // The hull finds both boxes; anything just outside it finds none.
        assert_eq!(query(&grid, (0, 0, 220, 130)), vec![0, 1]);
        assert!(query(&grid, (221, 131, 400, 400)).is_empty());
        assert!(query(&grid, (-50, -50, -1, -1)).is_empty());
        assert_eq!(query(&grid, (205, 105, 210, 110)), vec![1]);
        assert!(query(&grid, (100, 100, 120, 130)).is_empty());
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
}

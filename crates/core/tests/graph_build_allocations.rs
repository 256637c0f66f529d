//! The conflict-graph build makes a fixed handful of allocations whatever
//! the layout's size: its node, edge and constraint arrays are reserved
//! from counts known up front, and the graph's incidence lists are one
//! table built on the first traversal, not a list per node.
//!
//! A counting global allocator pins this without timing anything, which
//! is why the test is a binary of its own. Allocations are counted per
//! thread, so the test harness's other threads do not disturb the count.

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::cell::Cell;

use aapsm_core::{build_conflict_graph, detect_conflicts, DetectConfig, GraphKind};
use aapsm_layout::synth::{generate, SynthParams};
use aapsm_layout::{extract_phase_geometry, DesignRules};

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down, when there is nothing left to count into.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// [`System`], counting every allocation and reallocation of the calling
/// thread.
struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: AllocLayout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations it made on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn graph_build_allocations_do_not_grow_with_the_layout() {
    let rules = DesignRules::default();
    let geom = |rows| {
        let params = SynthParams {
            rows,
            ..SynthParams::default()
        };
        extract_phase_geometry(&generate(&params, &rules), &rules)
    };
    let (small, large) = (geom(1), geom(16));
    assert!(large.overlaps.len() > 10 * small.overlaps.len().max(1));
    for kind in [GraphKind::PhaseConflict, GraphKind::Feature] {
        let (g1, n1) = allocations(|| build_conflict_graph(&small, kind));
        let (g16, n16) = allocations(|| build_conflict_graph(&large, kind));
        assert!(g16.graph.node_count() > 10 * g1.graph.node_count());
        assert_eq!(n1, n16, "{kind:?}: 1 row vs 16 rows");
        assert!(n16 <= 8, "{kind:?}: {n16} allocations");
        // The first traversal builds the incidence table: two more
        // allocations, however many nodes there are.
        let (_, t1) = allocations(|| g1.graph.degree(aapsm_graph::NodeId(0)));
        let (_, t16) = allocations(|| g16.graph.degree(aapsm_graph::NodeId(0)));
        assert_eq!((t1, t16), (2, 2), "{kind:?}");
    }
}

/// The whole serial detection of the 16-row synth layout makes an exact
/// number of allocations. Face tracing takes its working buffers from
/// one scratch per worker, not five fresh ones per component; a change
/// that allocates per item again moves this count.
#[test]
fn serial_detection_allocations_are_pinned() {
    let rules = DesignRules::default();
    let params = SynthParams {
        rows: 16,
        ..SynthParams::default()
    };
    let geom = extract_phase_geometry(&generate(&params, &rules), &rules);
    let config = DetectConfig {
        parallelism: 1,
        ..DetectConfig::default()
    };
    let (report, n) = allocations(|| detect_conflicts(&geom, &config));
    assert!(report.conflict_count() > 0);
    // Debug builds run a few checks of their own that allocate. With a
    // fresh set of trace buffers per component the counts were 1689 and
    // 1622; before the recheck collected its hits into the buffer of its
    // sorted victims (three growth steps fewer) and the parity pass kept
    // a per-edge component table (one more), 1574 and 1507.
    let pinned = if cfg!(debug_assertions) { 1572 } else { 1505 };
    assert_eq!(n, pinned, "allocations of a serial detection");
}

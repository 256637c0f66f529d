//! Primal–dual Blossom algorithm for maximum weight matching, O(V³).
//!
//! This is a careful port of the classic dense-matrix contest formulation
//! (1-indexed node ids, `0` as a null sentinel, blossom ids above `n`,
//! doubled weights for integral slacks). Nodes `1..=n` are real; ids
//! `n+1..=2n` are (re)used for shrunken blossoms. The adjacency matrix
//! stores, for every pair of *surface* nodes, the best concrete real-node
//! edge connecting them, which makes blossom expansion bookkeeping local.
//!
//! The solver is an **arena**: [`Solver::reset`] rewinds it for a new
//! instance while keeping every buffer's capacity, so a solver reused
//! across the thousands of small gadget matchings of one AAPSM flow
//! allocates only when an instance exceeds all previous sizes. On reset,
//! only the `(n+1)²` real-node block of the matrix is sentinel-initialized;
//! the blossom rows and columns (`n+1..2n+1`) are left stale and are fully
//! (re)written by `add_blossom` before anything reads them, which is what
//! makes skipping the classic O(cap²) whole-matrix initialization sound.

use crate::Matching;
use aapsm_fault::{Budget, BudgetExceeded, Stage};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

const INF: i64 = i64::MAX / 4;

#[derive(Clone, Copy, Default)]
struct EdgeCell {
    u: u32,
    v: u32,
    w: i64,
}

pub(crate) struct Solver {
    n: usize,
    n_x: usize,
    cap: usize,
    g: Vec<EdgeCell>,
    lab: Vec<i64>,
    mate: Vec<usize>,
    slack: Vec<usize>,
    st: Vec<usize>,
    pa: Vec<usize>,
    flower: Vec<Vec<usize>>,
    flower_from: Vec<usize>, // cap x (n + 1)
    s: Vec<i8>,              // -1 unvisited, 0 even (S), 1 odd (T)
    vis: Vec<u32>,
    vis_t: u32,
    q: std::collections::VecDeque<usize>,
    w_max: i64,
    /// Lazy priority queue over the surface slack edges, keyed on
    /// *price* = effective delta + [`Solver::acc`]. The effective delta
    /// of a surface node's best slack edge (the full `e_delta` for an
    /// unvisited node, half of it for an S-node) decreases by exactly `d`
    /// under every dual adjustment by `d`, while `acc` increases by `d` —
    /// so a pushed price stays correct until the node's slack edge or
    /// class changes, and an entry is current iff its price equals the
    /// node's recomputed effective delta plus `acc` (stale entries are
    /// discarded on pop). This replaces the O(V) min-slack and
    /// tight-edge rescans per dual adjustment.
    heap: BinaryHeap<Reverse<(i64, usize)>>,
    /// Cumulative dual adjustment of the current phase (see
    /// [`Solver::heap`]).
    acc: i64,
}

impl Solver {
    pub(crate) fn new() -> Self {
        Solver {
            n: 0,
            n_x: 0,
            cap: 0,
            g: Vec::new(),
            lab: Vec::new(),
            mate: Vec::new(),
            slack: Vec::new(),
            st: Vec::new(),
            pa: Vec::new(),
            flower: Vec::new(),
            flower_from: Vec::new(),
            s: Vec::new(),
            vis: Vec::new(),
            vis_t: 0,
            q: std::collections::VecDeque::new(),
            w_max: 0,
            heap: BinaryHeap::new(),
            acc: 0,
        }
    }

    /// Largest node count an instance can have without forcing this solver
    /// to allocate.
    #[cfg(test)]
    pub(crate) fn node_capacity(&self) -> usize {
        self.lab.len().saturating_sub(1) / 2
    }

    /// Rewinds the arena for an `n`-node instance, growing buffers only
    /// when `n` exceeds every previously seen size.
    fn reset(&mut self, n: usize) {
        self.n = n;
        self.n_x = n;
        let cap = 2 * n + 1;
        self.cap = cap;
        if self.g.len() < cap * cap {
            self.g.resize(cap * cap, EdgeCell::default());
        }
        if self.lab.len() < cap {
            self.lab.resize(cap, 0);
            self.mate.resize(cap, 0);
            self.slack.resize(cap, 0);
            self.st.resize(cap, 0);
            self.pa.resize(cap, 0);
            self.s.resize(cap, -1);
            self.vis.resize(cap, 0);
            self.flower.resize_with(cap, Vec::new);
        }
        if self.flower_from.len() < cap * (n + 1) {
            self.flower_from.resize(cap * (n + 1), 0);
        }
        // Sentinel cells only for the real block (rows/cols 0..=n): an
        // absent pair must still expose its endpoints so slack arithmetic
        // (`e_delta`) sees lab[u] + lab[v]. Blossom rows/cols stay stale —
        // `add_blossom` rewrites row/col `b` in full (w-clear pass, then
        // the unconditional first-child copy) before any read.
        for u in 0..=n {
            let row = u * cap;
            for (v, cell) in self.g[row..row + n + 1].iter_mut().enumerate() {
                *cell = EdgeCell {
                    u: u as u32,
                    v: v as u32,
                    w: 0,
                };
            }
        }
        for x in 0..cap {
            self.lab[x] = 0;
            self.mate[x] = 0;
            self.slack[x] = 0;
            self.st[x] = x;
            self.pa[x] = 0;
            self.s[x] = -1;
            self.vis[x] = 0;
            self.flower[x].clear();
        }
        self.vis_t = 0;
        self.q.clear();
        self.w_max = 0;
        self.heap.clear();
        self.acc = 0;
    }

    #[inline]
    fn g_at(&self, u: usize, v: usize) -> EdgeCell {
        self.g[u * self.cap + v]
    }

    #[inline]
    fn g_set(&mut self, u: usize, v: usize, e: EdgeCell) {
        self.g[u * self.cap + v] = e;
    }

    #[inline]
    fn ff(&self, b: usize, x: usize) -> usize {
        self.flower_from[b * (self.n + 1) + x]
    }

    #[inline]
    fn ff_set(&mut self, b: usize, x: usize, val: usize) {
        self.flower_from[b * (self.n + 1) + x] = val;
    }

    #[inline]
    fn e_delta(&self, e: EdgeCell) -> i64 {
        self.lab[e.u as usize] + self.lab[e.v as usize] - e.w * 2
    }

    /// Price of surface node `x`'s current slack edge for the lazy heap,
    /// `None` when `x` has no heap-tracked slack (dead surface, no slack
    /// edge, or T-class — T-nodes never bound a dual adjustment and their
    /// slack edges never tighten under one).
    fn slack_price(&self, x: usize) -> Option<i64> {
        if self.st[x] != x || self.slack[x] == 0 {
            return None;
        }
        let delta = self.e_delta(self.g_at(self.slack[x], x));
        let eff = match self.s[x] {
            -1 => delta,
            0 => delta / 2,
            _ => return None,
        };
        Some(eff + self.acc)
    }

    fn heap_push(&mut self, x: usize) {
        if let Some(price) = self.slack_price(x) {
            self.heap.push(Reverse((price, x)));
        }
    }

    fn update_slack(&mut self, u: usize, x: usize) {
        if self.slack[x] == 0
            || self.e_delta(self.g_at(u, x)) < self.e_delta(self.g_at(self.slack[x], x))
        {
            self.slack[x] = u;
            self.heap_push(x);
        }
    }

    fn set_slack(&mut self, x: usize) {
        self.slack[x] = 0;
        for u in 1..=self.n {
            if self.g_at(u, x).w > 0 && self.st[u] != x && self.s[self.st[u]] == 0 {
                self.update_slack(u, x);
            }
        }
    }

    fn q_push(&mut self, x: usize) {
        if x <= self.n {
            self.q.push_back(x);
        } else {
            let children = self.flower[x].clone();
            for c in children {
                self.q_push(c);
            }
        }
    }

    fn set_st(&mut self, x: usize, b: usize) {
        self.st[x] = b;
        if x > self.n {
            let children = self.flower[x].clone();
            for c in children {
                self.set_st(c, b);
            }
        }
    }

    fn get_pr(&mut self, b: usize, xr: usize) -> usize {
        // Invariant, not an error path: callers pass xr straight out of
        // blossom b's flower list.
        #[allow(clippy::expect_used)]
        let pr = self.flower[b]
            .iter()
            .position(|&x| x == xr)
            .expect("xr is a child of blossom b");
        if pr % 2 == 1 {
            self.flower[b][1..].reverse();
            self.flower[b].len() - pr
        } else {
            pr
        }
    }

    fn set_match(&mut self, u: usize, v: usize) {
        let e = self.g_at(u, v);
        self.mate[u] = e.v as usize;
        if u > self.n {
            let xr = self.ff(u, e.u as usize);
            let pr = self.get_pr(u, xr);
            for i in 0..pr {
                let a = self.flower[u][i];
                let b = self.flower[u][i ^ 1];
                self.set_match(a, b);
            }
            self.set_match(xr, v);
            self.flower[u].rotate_left(pr);
        }
    }

    fn augment(&mut self, mut u: usize, mut v: usize) {
        loop {
            let xnv = self.st[self.mate[u]];
            self.set_match(u, v);
            if xnv == 0 {
                return;
            }
            let pa_xnv = self.st[self.pa[xnv]];
            self.set_match(xnv, pa_xnv);
            u = pa_xnv;
            v = xnv;
        }
    }

    fn get_lca(&mut self, mut u: usize, mut v: usize) -> usize {
        self.vis_t += 1;
        let t = self.vis_t;
        while u != 0 || v != 0 {
            if u != 0 {
                if self.vis[u] == t {
                    return u;
                }
                self.vis[u] = t;
                u = self.st[self.mate[u]];
                if u != 0 {
                    u = self.st[self.pa[u]];
                }
            }
            std::mem::swap(&mut u, &mut v);
        }
        0
    }

    fn add_blossom(&mut self, u: usize, lca: usize, v: usize) {
        let mut b = self.n + 1;
        while b <= self.n_x && self.st[b] != 0 {
            b += 1;
        }
        if b > self.n_x {
            self.n_x += 1;
        }
        self.lab[b] = 0;
        self.s[b] = 0;
        self.mate[b] = self.mate[lca];
        self.flower[b].clear();
        self.flower[b].push(lca);
        let mut x = u;
        while x != lca {
            self.flower[b].push(x);
            let y = self.st[self.mate[x]];
            self.flower[b].push(y);
            self.q_push(y);
            x = self.st[self.pa[y]];
        }
        self.flower[b][1..].reverse();
        let mut x = v;
        while x != lca {
            self.flower[b].push(x);
            let y = self.st[self.mate[x]];
            self.flower[b].push(y);
            self.q_push(y);
            x = self.st[self.pa[y]];
        }
        self.set_st(b, b);
        for x in 1..=self.n_x {
            let mut cell = self.g_at(b, x);
            cell.w = 0;
            self.g_set(b, x, cell);
            let mut cell = self.g_at(x, b);
            cell.w = 0;
            self.g_set(x, b, cell);
        }
        for x in 1..=self.n {
            self.ff_set(b, x, 0);
        }
        let children = self.flower[b].clone();
        for &xs in &children {
            for x in 1..=self.n_x {
                if self.g_at(b, x).w == 0
                    || self.e_delta(self.g_at(xs, x)) < self.e_delta(self.g_at(b, x))
                {
                    let e1 = self.g_at(xs, x);
                    let e2 = self.g_at(x, xs);
                    self.g_set(b, x, e1);
                    self.g_set(x, b, e2);
                }
            }
            for x in 1..=self.n {
                if xs <= self.n {
                    if xs == x {
                        self.ff_set(b, x, xs);
                    }
                } else if self.ff(xs, x) != 0 {
                    self.ff_set(b, x, xs);
                }
            }
        }
        self.set_slack(b);
    }

    fn expand_blossom(&mut self, b: usize) {
        let children = self.flower[b].clone();
        for &c in &children {
            self.set_st(c, c);
        }
        let xr = self.ff(b, self.g_at(b, self.pa[b]).u as usize);
        let pr = self.get_pr(b, xr);
        let mut i = 0;
        while i < pr {
            let xs = self.flower[b][i];
            let xns = self.flower[b][i + 1];
            self.pa[xs] = self.g_at(xns, xs).u as usize;
            self.s[xs] = 1;
            self.s[xns] = 0;
            self.slack[xs] = 0;
            self.set_slack(xns);
            self.q_push(xns);
            i += 2;
        }
        self.s[xr] = 1;
        self.pa[xr] = self.pa[b];
        for i in (pr + 1)..self.flower[b].len() {
            let xs = self.flower[b][i];
            self.s[xs] = -1;
            self.set_slack(xs);
        }
        self.st[b] = 0;
    }

    /// Processes a tight edge found during the search; returns `true` if an
    /// augmenting path was applied.
    fn on_found_edge(&mut self, e: EdgeCell) -> bool {
        let u = self.st[e.u as usize];
        let v = self.st[e.v as usize];
        if self.s[v] == -1 {
            self.pa[v] = e.u as usize;
            self.s[v] = 1;
            let nu = self.st[self.mate[v]];
            self.slack[v] = 0;
            self.slack[nu] = 0;
            self.s[nu] = 0;
            self.q_push(nu);
        } else if self.s[v] == 0 {
            let lca = self.get_lca(u, v);
            if lca == 0 {
                self.augment(u, v);
                self.augment(v, u);
                return true;
            }
            self.add_blossom(u, lca, v);
        }
        false
    }

    /// One phase: grows alternating trees from all unmatched surface nodes,
    /// adjusting duals, until an augmentation happens (true) or no further
    /// progress is possible (false). Each dual-adjustment iteration
    /// charges one [`Stage::Matching`] tick to `budget`, so a budgeted
    /// solve trips mid-search instead of running to completion.
    fn matching_phase(&mut self, budget: &Budget) -> Result<bool, BudgetExceeded> {
        for x in 0..=self.n_x {
            self.s[x] = -1;
            self.slack[x] = 0;
        }
        self.heap.clear();
        self.acc = 0;
        self.q.clear();
        for x in 1..=self.n_x {
            if self.st[x] == x && self.mate[x] == 0 {
                self.pa[x] = 0;
                self.s[x] = 0;
                self.q_push(x);
            }
        }
        if self.q.is_empty() {
            return Ok(false);
        }
        loop {
            budget.charge(Stage::Matching, 1)?;
            while let Some(u) = self.q.pop_front() {
                if self.s[self.st[u]] == 1 {
                    continue;
                }
                for v in 1..=self.n {
                    if self.g_at(u, v).w > 0 && self.st[u] != self.st[v] {
                        if self.e_delta(self.g_at(u, v)) == 0 {
                            if self.on_found_edge(self.g_at(u, v)) {
                                return Ok(true);
                            }
                        } else {
                            let stv = self.st[v];
                            self.update_slack(u, stv);
                        }
                    }
                }
            }
            let mut d = INF;
            for b in (self.n + 1)..=self.n_x {
                if self.st[b] == b && self.s[b] == 1 {
                    d = d.min(self.lab[b] / 2);
                }
            }
            // Lazy minimum over the surface slack edges: discard stale
            // tops (price no longer matches the node's current slack
            // state), then read the first current one. Every live slack
            // keeps an exact-price entry in the heap, so the surviving
            // top is the true minimum; it stays in the heap because any
            // adjustment by at most its effective delta keeps it current.
            while let Some(&Reverse((price, x))) = self.heap.peek() {
                if self.slack_price(x) == Some(price) {
                    d = d.min(price - self.acc);
                    break;
                }
                self.heap.pop();
            }
            #[cfg(test)]
            {
                let mut d_old = INF;
                for b in (self.n + 1)..=self.n_x {
                    if self.st[b] == b && self.s[b] == 1 {
                        d_old = d_old.min(self.lab[b] / 2);
                    }
                }
                for x in 1..=self.n_x {
                    if self.st[x] == x && self.slack[x] != 0 {
                        let delta = self.e_delta(self.g_at(self.slack[x], x));
                        if self.s[x] == -1 {
                            d_old = d_old.min(delta);
                        } else if self.s[x] == 0 {
                            d_old = d_old.min(delta / 2);
                        }
                    }
                }
                assert_eq!(d, d_old, "lazy heap min diverged from rescan min");
            }
            for u in 1..=self.n {
                match self.s[self.st[u]] {
                    0 => {
                        if self.lab[u] <= d {
                            return Ok(false);
                        }
                        self.lab[u] -= d;
                    }
                    1 => self.lab[u] += d,
                    _ => {}
                }
            }
            for b in (self.n + 1)..=self.n_x {
                if self.st[b] == b {
                    match self.s[b] {
                        0 => self.lab[b] += d * 2,
                        1 => self.lab[b] -= d * 2,
                        _ => {}
                    }
                }
            }
            self.acc += d;
            self.q.clear();
            // Newly tight slack edges are exactly the current entries
            // whose price has drifted down to `acc` (effective delta 0).
            // Processing one can push further tight entries (a new
            // blossom's fresh slack can already be tight); the loop keeps
            // draining until only strictly positive slack remains.
            while let Some(&Reverse((price, x))) = self.heap.peek() {
                if price > self.acc {
                    if self.slack_price(x) == Some(price) {
                        break; // current ⇒ true minimum ⇒ nothing tight left
                    }
                    self.heap.pop();
                    continue;
                }
                self.heap.pop();
                if self.slack_price(x) != Some(price) {
                    continue;
                }
                let e = self.g_at(self.slack[x], x);
                // Same guards as the historical rescan: the edge must be
                // *exactly* tight (an S-node's floored half-delta can hit
                // zero one adjustment before its delta does) and must
                // leave the surface node.
                if self.st[self.slack[x]] != x && self.e_delta(e) == 0 && self.on_found_edge(e) {
                    return Ok(true);
                }
            }
            for b in (self.n + 1)..=self.n_x {
                if self.st[b] == b && self.s[b] == 1 && self.lab[b] == 0 {
                    self.expand_blossom(b);
                }
            }
        }
    }

    fn run(&mut self, budget: &Budget) -> Result<(), BudgetExceeded> {
        // `flower_from` needs no eager setup: its real-node rows are never
        // read (every `ff` read is on a blossom id), and `add_blossom`
        // zeroes a blossom's row before filling it.
        for u in 1..=self.n {
            self.lab[u] = self.w_max;
        }
        while self.matching_phase(budget)? {}
        Ok(())
    }

    /// Computes a maximum weight matching on this arena (see
    /// [`max_weight_matching`] for the contract),
    /// charging dual-adjustment work to `budget`. A budget trip abandons
    /// the solve — partial matchings are never returned.
    pub(crate) fn solve_max_weight(
        &mut self,
        n: usize,
        edges: &[(usize, usize, i64)],
        budget: &Budget,
    ) -> Result<Matching, BudgetExceeded> {
        if n == 0 {
            return Ok(Matching {
                mate: Vec::new(),
                weight: 0,
            });
        }
        self.reset(n);
        for &(u, v, w) in edges {
            assert!(u < n && v < n, "edge endpoint out of range");
            assert_ne!(u, v, "self-loops are not allowed");
            if w <= 0 {
                continue;
            }
            let (iu, iv) = (u + 1, v + 1);
            if w > self.g_at(iu, iv).w {
                self.w_max = self.w_max.max(w);
                self.g_set(
                    iu,
                    iv,
                    EdgeCell {
                        u: iu as u32,
                        v: iv as u32,
                        w,
                    },
                );
                self.g_set(
                    iv,
                    iu,
                    EdgeCell {
                        u: iv as u32,
                        v: iu as u32,
                        w,
                    },
                );
            }
        }
        self.run(budget)?;
        let mut weight = 0i64;
        let mut mate = vec![None; n];
        for u in 1..=n {
            let m = self.mate[u];
            if m != 0 {
                mate[u - 1] = Some(m - 1);
                if m < u {
                    weight += self.g_at(u, m).w;
                }
            }
        }
        Ok(Matching { mate, weight })
    }
}

/// Computes a maximum weight matching (not necessarily perfect) among
/// edges with **positive** weight; zero- and negative-weight edges are
/// treated as absent.
///
/// Node ids are `0..n`. Duplicate edges keep the heaviest copy. Runs in
/// O(n³) with an O(n²) dense matrix — intended for the per-component
/// instances of the AAPSM flow (tens to a few hundred nodes each).
///
/// Solves on a fresh arena.
///
/// # Panics
///
/// Panics if an edge endpoint is out of range or a self-loop.
pub fn max_weight_matching(n: usize, edges: &[(usize, usize, i64)]) -> Matching {
    crate::unlimited(Solver::new().solve_max_weight(n, edges, &Budget::unlimited()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive;
    use rand::{Rng, SeedableRng};

    #[test]
    fn picks_heavier_disjoint_pairs() {
        // Triangle + pendant: max weight matching takes the two heavy
        // disjoint edges.
        let m = max_weight_matching(4, &[(0, 1, 10), (1, 2, 11), (2, 0, 1), (2, 3, 10)]);
        assert_eq!(m.weight, 20); // (0,1) + (2,3)
    }

    #[test]
    fn ignores_nonpositive_edges() {
        let m = max_weight_matching(2, &[(0, 1, 0)]);
        assert_eq!(m.weight, 0);
        assert_eq!(m.mate, vec![None, None]);
    }

    #[test]
    fn matches_brute_force_max_weight() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for trial in 0..200 {
            let n = rng.gen_range(1..9);
            let mut edges = Vec::new();
            for u in 0..n {
                for v in u + 1..n {
                    if rng.gen_bool(0.6) {
                        edges.push((u, v, rng.gen_range(1..50)));
                    }
                }
            }
            let fast = max_weight_matching(n, &edges);
            let brute = exhaustive::max_weight_matching(n, &edges);
            assert_eq!(fast.weight, brute, "trial {trial} n={n} edges={edges:?}");
        }
    }

    #[test]
    fn nested_blossoms() {
        // A 9-cycle with chords that force nested blossom shrinking.
        let mut edges = Vec::new();
        for i in 0..9usize {
            edges.push((i, (i + 1) % 9, 10));
        }
        edges.push((0, 2, 9));
        edges.push((3, 5, 9));
        let fast = max_weight_matching(9, &edges);
        let brute = exhaustive::max_weight_matching(9, &edges);
        assert_eq!(fast.weight, brute);
    }
}

#[cfg(test)]
mod stress_review {
    use super::*;
    use crate::exhaustive;
    use rand::{Rng, SeedableRng};

    #[test]
    fn heavy_randomized_vs_brute_force() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12345);
        for trial in 0..6000 {
            let n = rng.gen_range(2..12);
            let p = rng.gen_range(20u32..95) as f64 / 100.0;
            let wmax = *[3, 7, 15, 50, 999].get(trial % 5).unwrap();
            let mut edges = Vec::new();
            for u in 0..n {
                for v in u + 1..n {
                    if rng.gen_bool(p) {
                        edges.push((u, v, rng.gen_range(1..=wmax)));
                    }
                }
            }
            let fast = max_weight_matching(n, &edges);
            let brute = exhaustive::max_weight_matching(n, &edges);
            assert_eq!(fast.weight, brute, "trial {trial} n={n} edges={edges:?}");
        }
    }
}

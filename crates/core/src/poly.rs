//! Polynomial solver for near-complete candidate subgraphs — Lemma 3,
//! Observations 1–3 and Algorithm 2 (`dynamicMBB`) of the paper.
//!
//! When every candidate vertex misses at most two neighbours on the other
//! candidate side, the complement restricted to the candidates is a union of
//! paths and cycles (Observation 1). Choosing `(A' ⊆ CA, B' ⊆ CB)` with
//! `A' × B'` complete is then exactly choosing an *independent set* of each
//! complement component (complement edges always join `L` to `R`), so the
//! per-component maximal `(a, b)` instance lists are closed-form
//! (Observation 2; re-derived here because the published text is garbled,
//! and checked against brute force by this module's
//! `*_instances_match_brute_force` tests):
//!
//! * odd path (`p` odd, `s = (p+1)/2` vertices per side): `(k, s − k)`;
//! * even path (`p` even, endpoints on side `X` with `p/2 + 1` vertices):
//!   `(p/2 + 1, 0)` and `(p/2 − j, j)` for `j = 1..=p/2` (counts on `X`
//!   first);
//! * cycle (`p ≥ 4` even): `(p/2, 0)`, `(0, p/2)`, plus every `(x, y)` with
//!   `x, y ≥ 1`, `x + y = p/2 − 1` when `p > 4`.
//!
//! Combining components is the paper's staged table (Algorithm 2 lines
//! 5–10); we implement it as the equivalent one-dimensional knapsack DP
//! `f_p(a) = max b achievable with the first p components and left-count a`
//! — correct because the final objective `min(i, j)` is monotone in `j`, and
//! skipping a component is always dominated by taking one of its maximal
//! instances. Same `O(n²)` bound, simpler reconstruction.

use mbb_bigraph::bitset::BitSet;
use mbb_bigraph::complement::{Component, ComponentKind, Decomposition};
use mbb_bigraph::local::LocalGraph;

use crate::stats::SearchStats;

/// Appends to `out` the maximal `(left_count, right_count)` instances of
/// one complement component (Observation 2, corrected).
fn maximal_instances(component: Component<'_>, out: &mut Vec<(usize, usize)>) {
    let x_is_left = component.vertices[0].left;
    let translate = |x: usize, y: usize| if x_is_left { (x, y) } else { (y, x) };
    let p = component.length();
    match component.kind {
        ComponentKind::OddPath => {
            let s = p.div_ceil(2);
            out.extend((0..=s).map(|k| translate(k, s - k)));
        }
        ComponentKind::EvenPath => {
            // X = side of the endpoints = side of vertices[0], with
            // p/2 + 1 vertices; the other side has p/2.
            let sx = p / 2 + 1;
            let sy = p / 2;
            out.push(translate(sx, 0));
            for j in 1..=sy {
                out.push(translate(sy - j, j));
            }
        }
        ComponentKind::Cycle => {
            debug_assert!(p >= 4 && p.is_multiple_of(2));
            let half = p / 2;
            out.push(translate(half, 0));
            out.push(translate(0, half));
            if p > 4 {
                for x in 1..=(half - 2) {
                    out.push(translate(x, half - 1 - x));
                }
            }
        }
    }
}

/// Picks concrete vertices realising the instance `(left_count,
/// right_count)` from a component. The instance must come from
/// [`maximal_instances`].
fn realize_instance(
    component: Component<'_>,
    left_count: usize,
    right_count: usize,
    out_left: &mut Vec<u32>,
    out_right: &mut Vec<u32>,
) {
    let x_is_left = component.vertices[0].left;
    // Counts on the X side (even positions) and Y side (odd positions).
    let (need_even, need_odd) = if x_is_left {
        (left_count, right_count)
    } else {
        (right_count, left_count)
    };
    match component.kind {
        ComponentKind::OddPath | ComponentKind::EvenPath => {
            realize_on_path(component.vertices, need_even, need_odd, out_left, out_right);
        }
        ComponentKind::Cycle => {
            let m = component.vertices.len();
            if need_odd == 0 || need_even == 0 {
                // All-evens or all-odds are independent in an even cycle.
                realize_on_path(component.vertices, need_even, need_odd, out_left, out_right);
            } else {
                // Mixed: cut the cycle by dropping the last vertex; the
                // remaining path has p/2 even and p/2 − 1 odd positions,
                // enough for any x + y = p/2 − 1 split.
                realize_on_path(
                    &component.vertices[..m - 1],
                    need_even,
                    need_odd,
                    out_left,
                    out_right,
                );
            }
        }
    }
}

/// Chooses `need_even` even positions from the left end and `need_odd` odd
/// positions from the right end of a path — an independent set whenever the
/// request is feasible (which all maximal instances are).
fn realize_on_path(
    vertices: &[mbb_bigraph::local::LocalVertex],
    need_even: usize,
    need_odd: usize,
    out_left: &mut Vec<u32>,
    out_right: &mut Vec<u32>,
) {
    let m = vertices.len();
    let even_count = m.div_ceil(2);
    let odd_count = m / 2;
    assert!(need_even <= even_count && need_odd <= odd_count);
    if need_even > 0 && need_odd > 0 {
        let last_odd = if m.is_multiple_of(2) { m - 1 } else { m - 2 };
        let smallest_taken_odd = last_odd - 2 * (need_odd - 1);
        let largest_taken_even = 2 * (need_even - 1);
        assert!(
            smallest_taken_odd >= largest_taken_even + 2,
            "infeasible instance ({need_even}, {need_odd}) on path of {m}"
        );
    }
    let mut push = |position: usize| {
        let v = vertices[position];
        if v.left {
            out_left.push(v.index);
        } else {
            out_right.push(v.index);
        }
    };
    for k in 0..need_even {
        push(2 * k);
    }
    let last_odd = if m.is_multiple_of(2) { m - 1 } else { m - 2 };
    for k in 0..need_odd {
        push(last_odd - 2 * k);
    }
}

/// Algorithm 2 (`dynamicMBB`) together with the memory it runs in: the
/// complement decomposition and the DP table. Both are refilled in place,
/// so a search that keeps one `DynamicMbb` allocates for its first few
/// Lemma 3 leaves only.
#[derive(Debug, Clone, Default)]
pub struct DynamicMbb {
    decomposition: Decomposition,
    /// The instances of the component being folded into the table.
    instances: Vec<(usize, usize)>,
    /// `f[p][a]` row-major, `components + 1` rows of `width`: the max
    /// right-count with the first `p` components and exactly `a` chosen
    /// left vertices; −1 = unreachable.
    table: Vec<i64>,
    width: usize,
    /// The optimum's left-count `a` in the last row.
    best_a: usize,
}

impl DynamicMbb {
    /// Exact MBB over `(A, B) + (CA, CB)` when the candidate subgraph
    /// satisfies Lemma 3: returns the optimum's `(|A| + chosen left,
    /// |B| + chosen right)` — the `(i, j)` of the paper's table — or `None`
    /// when some candidate misses three or more neighbours (the caller must
    /// branch instead). [`DynamicMbb::realize`] then lists the chosen
    /// candidates.
    ///
    /// `base_left` / `base_right` are `|A|` / `|B|` of the partial result.
    pub fn solve(
        &mut self,
        graph: &LocalGraph,
        ca: &BitSet,
        cb: &BitSet,
        base_left: usize,
        base_right: usize,
        stats: &mut SearchStats,
    ) -> Option<(usize, usize)> {
        if !self.decomposition.decompose(graph, ca, cb) {
            return None;
        }
        stats.poly_solves += 1;
        let decomposition = &self.decomposition;
        let i0 = base_left + decomposition.trivial_left().len();
        let j0 = base_right + decomposition.trivial_right().len();

        let max_a: usize = decomposition.components().map(|c| c.left_count()).sum();
        let width = max_a + 1;
        let rows = decomposition.components().len() + 1;
        self.table.clear();
        self.table.resize(rows * width, -1);
        self.table[0] = 0;
        for (p, component) in decomposition.components().enumerate() {
            self.instances.clear();
            maximal_instances(component, &mut self.instances);
            let (done, rest) = self.table.split_at_mut((p + 1) * width);
            let prev = &done[p * width..];
            let next = &mut rest[..width];
            for (a, &reached) in prev.iter().enumerate() {
                if reached < 0 {
                    continue;
                }
                for &(x, y) in &self.instances {
                    let nb = reached + y as i64;
                    if next[a + x] < nb {
                        next[a + x] = nb;
                    }
                }
            }
        }

        // Best cell: maximise min(i, j), tie-break on total size.
        let last = &self.table[(rows - 1) * width..];
        let mut best: Option<(usize, (usize, usize))> = None;
        for (a, &reached) in last.iter().enumerate() {
            if reached < 0 {
                continue;
            }
            let (i, j) = (i0 + a, j0 + reached as usize);
            let key = (i.min(j), i + j);
            if best.is_none_or(|(_, best_key)| key > best_key) {
                best = Some((a, key));
            }
        }
        let (best_a, _) = best.expect("the base cell is always reachable");
        self.width = width;
        self.best_a = best_a;
        Some((i0 + best_a, j0 + last[best_a] as usize))
    }

    /// Appends the candidates the last successful [`DynamicMbb::solve`]
    /// chose — its trivial vertices plus one instance per component —
    /// each side's additions sorted ascending.
    pub fn realize(&mut self, left: &mut Vec<u32>, right: &mut Vec<u32>) {
        let (left_start, right_start) = (left.len(), right.len());
        left.extend_from_slice(self.decomposition.trivial_left());
        right.extend_from_slice(self.decomposition.trivial_right());
        let width = self.width;
        let components = self.decomposition.components();
        let mut a = self.best_a;
        let mut b = self.table[components.len() * width + a];
        for (p, component) in components.enumerate().rev() {
            let prev = &self.table[p * width..(p + 1) * width];
            self.instances.clear();
            maximal_instances(component, &mut self.instances);
            let (x, y) = self
                .instances
                .iter()
                .copied()
                .find(|&(x, y)| a >= x && prev[a - x] >= 0 && prev[a - x] + y as i64 == b)
                .expect("the DP backtrack finds a predecessor");
            realize_instance(component, x, y, left, right);
            a -= x;
            b -= y as i64;
        }
        debug_assert_eq!((a, b), (0, 0));
        left[left_start..].sort_unstable();
        right[right_start..].sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbb_bigraph::local::LocalVertex;

    /// A test component that owns its vertices.
    struct Owned {
        vertices: Vec<LocalVertex>,
        kind: ComponentKind,
    }

    impl Owned {
        fn view(&self) -> Component<'_> {
            Component {
                vertices: &self.vertices,
                kind: self.kind,
            }
        }
    }

    fn make_path(sides: &[bool]) -> Owned {
        let mut li = 0u32;
        let mut ri = 0u32;
        let vertices = sides
            .iter()
            .map(|&left| {
                if left {
                    li += 1;
                    LocalVertex::left(li - 1)
                } else {
                    ri += 1;
                    LocalVertex::right(ri - 1)
                }
            })
            .collect::<Vec<_>>();
        let edges = vertices.len() - 1;
        Owned {
            vertices,
            kind: if edges % 2 == 1 {
                ComponentKind::OddPath
            } else {
                ComponentKind::EvenPath
            },
        }
    }

    fn make_cycle(len: usize) -> Owned {
        assert!(len >= 4 && len.is_multiple_of(2));
        let vertices = (0..len)
            .map(|i| {
                if i % 2 == 0 {
                    LocalVertex::left((i / 2) as u32)
                } else {
                    LocalVertex::right((i / 2) as u32)
                }
            })
            .collect();
        Owned {
            vertices,
            kind: ComponentKind::Cycle,
        }
    }

    fn instances(c: &Owned) -> Vec<(usize, usize)> {
        let mut v = Vec::new();
        maximal_instances(c.view(), &mut v);
        v.sort_unstable();
        v
    }

    /// Exhaustive maximal (left, right) instances of a component: a chosen
    /// set is feasible iff it is an independent set of the path/cycle.
    fn brute_instances(c: &Owned) -> Vec<(usize, usize)> {
        let m = c.vertices.len();
        let mut feasible = std::collections::HashSet::new();
        for mask in 0u32..(1 << m) {
            let mut independent = true;
            for i in 0..m {
                if mask >> i & 1 == 0 {
                    continue;
                }
                let next = (i + 1) % m;
                let adjacent_wrap = c.kind == ComponentKind::Cycle || i + 1 < m;
                if i + 1 < m || (c.kind == ComponentKind::Cycle && m > 1) {
                    let _ = adjacent_wrap;
                }
                // Path adjacency.
                if i + 1 < m && mask >> (i + 1) & 1 == 1 {
                    independent = false;
                    break;
                }
                // Cycle wrap adjacency.
                if c.kind == ComponentKind::Cycle && i == m - 1 && mask & 1 == 1 && m > 2 {
                    independent = false;
                    break;
                }
                let _ = next;
            }
            if !independent {
                continue;
            }
            let mut l = 0;
            let mut r = 0;
            for i in 0..m {
                if mask >> i & 1 == 1 {
                    if c.vertices[i].left {
                        l += 1;
                    } else {
                        r += 1;
                    }
                }
            }
            feasible.insert((l, r));
        }
        // Keep only maximal pairs.
        feasible
            .iter()
            .copied()
            .filter(|&(a, b)| {
                !feasible
                    .iter()
                    .any(|&(a2, b2)| (a2, b2) != (a, b) && a2 >= a && b2 >= b)
            })
            .collect()
    }

    fn sorted(mut v: Vec<(usize, usize)>) -> Vec<(usize, usize)> {
        v.sort_unstable();
        v
    }

    #[test]
    fn odd_path_instances_match_brute_force() {
        for len in [2usize, 4, 6, 8, 10] {
            let sides: Vec<bool> = (0..len).map(|i| i % 2 == 0).collect();
            let c = make_path(&sides);
            assert_eq!(c.kind, ComponentKind::OddPath);
            assert_eq!(instances(&c), sorted(brute_instances(&c)), "length {len}");
        }
    }

    #[test]
    fn even_path_instances_match_brute_force() {
        for len in [3usize, 5, 7, 9] {
            // Endpoints on the left.
            let sides: Vec<bool> = (0..len).map(|i| i % 2 == 0).collect();
            let c = make_path(&sides);
            assert_eq!(c.kind, ComponentKind::EvenPath);
            assert_eq!(
                instances(&c),
                sorted(brute_instances(&c)),
                "length {len} endpoints-left"
            );
            // Endpoints on the right.
            let sides: Vec<bool> = (0..len).map(|i| i % 2 == 1).collect();
            let c = make_path(&sides);
            assert_eq!(
                instances(&c),
                sorted(brute_instances(&c)),
                "length {len} endpoints-right"
            );
        }
    }

    #[test]
    fn cycle_instances_match_brute_force() {
        for len in [4usize, 6, 8, 10, 12] {
            let c = make_cycle(len);
            assert_eq!(instances(&c), sorted(brute_instances(&c)), "cycle {len}");
        }
    }

    #[test]
    fn single_complement_edge() {
        // Path of length 1: instances (1,0) and (0,1).
        let c = make_path(&[true, false]);
        assert_eq!(instances(&c), vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn realize_yields_independent_sets() {
        let check = |c: &Owned| {
            for (a, b) in instances(c) {
                let mut left = Vec::new();
                let mut right = Vec::new();
                realize_instance(c.view(), a, b, &mut left, &mut right);
                assert_eq!(left.len(), a, "{:?} ({a},{b})", c.kind);
                assert_eq!(right.len(), b, "{:?} ({a},{b})", c.kind);
                // Chosen vertices must form an independent set: no two
                // consecutive component positions chosen.
                let chosen: Vec<bool> = c
                    .vertices
                    .iter()
                    .map(|v| {
                        if v.left {
                            left.contains(&v.index)
                        } else {
                            right.contains(&v.index)
                        }
                    })
                    .collect();
                let m = chosen.len();
                for i in 0..m - 1 {
                    assert!(
                        !(chosen[i] && chosen[i + 1]),
                        "{:?} ({a},{b}) pos {i}",
                        c.kind
                    );
                }
                if c.kind == ComponentKind::Cycle {
                    assert!(!(chosen[m - 1] && chosen[0]), "{:?} wrap ({a},{b})", c.kind);
                }
            }
        };
        for len in [2usize, 3, 4, 5, 6, 7, 8, 9, 10] {
            let sides: Vec<bool> = (0..len).map(|i| i % 2 == 0).collect();
            check(&make_path(&sides));
            let sides: Vec<bool> = (0..len).map(|i| i % 2 == 1).collect();
            check(&make_path(&sides));
        }
        for len in [4usize, 6, 8, 10] {
            check(&make_cycle(len));
        }
    }

    /// Brute-force optimum over a candidate LocalGraph: for every subset of
    /// CA, pick all CB vertices adjacent to the whole subset.
    fn brute_candidate_optimum(
        g: &LocalGraph,
        ca: &BitSet,
        cb: &BitSet,
        base_left: usize,
        base_right: usize,
    ) -> usize {
        let ca_list = ca.to_vec();
        let mut best = 0usize;
        for mask in 0u32..(1 << ca_list.len()) {
            let mut common = cb.clone();
            let mut size_a = 0usize;
            for (idx, &u) in ca_list.iter().enumerate() {
                if mask >> idx & 1 == 1 {
                    common.intersect_with(&g.left_row(u));
                    size_a += 1;
                }
            }
            let half = (base_left + size_a).min(base_right + common.len());
            best = best.max(half);
        }
        best
    }

    #[test]
    fn dynamic_mbb_matches_brute_force_on_near_complete_graphs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // One solver across every seed: each solve refills the buffers the
        // previous one, on a graph of another size, left behind.
        let mut solver = DynamicMbb::default();
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let nl = rng.gen_range(1..=7usize);
            let nr = rng.gen_range(1..=7usize);
            // Start complete, remove ≤ 2 per row/column.
            let mut g = LocalGraph::new(nl, nr);
            for u in 0..nl {
                for v in 0..nr {
                    g.add_edge(u as u32, v as u32);
                }
            }
            // Remove a random near-perfect matching-ish set of edges so
            // each vertex misses at most 2.
            let mut missing_l = vec![0usize; nl];
            let mut missing_r = vec![0usize; nr];
            let mut edges: Vec<(u32, u32)> = Vec::new();
            for u in 0..nl {
                for v in 0..nr {
                    edges.push((u as u32, v as u32));
                }
            }
            let mut removed = std::collections::HashSet::new();
            for _ in 0..rng.gen_range(0..=nl * nr / 2) {
                let &(u, v) = &edges[rng.gen_range(0..edges.len())];
                if missing_l[u as usize] < 2 && missing_r[v as usize] < 2 && removed.insert((u, v))
                {
                    missing_l[u as usize] += 1;
                    missing_r[v as usize] += 1;
                }
            }
            let mut g = LocalGraph::new(nl, nr);
            for u in 0..nl as u32 {
                for v in 0..nr as u32 {
                    if !removed.contains(&(u, v)) {
                        g.add_edge(u, v);
                    }
                }
            }
            let ca = BitSet::full(nl);
            let cb = BitSet::full(nr);
            let mut stats = SearchStats::default();
            let (left_total, right_total) = solver
                .solve(&g, &ca, &cb, 0, 0, &mut stats)
                .expect("graph satisfies Lemma 3 by construction");
            let brute = brute_candidate_optimum(&g, &ca, &cb, 0, 0);
            assert_eq!(left_total.min(right_total), brute, "seed {seed}");
            // The realised witness must be a biclique of the right size.
            let (mut left, mut right) = (Vec::new(), Vec::new());
            solver.realize(&mut left, &mut right);
            assert!(
                g.is_biclique(&left, &right),
                "seed {seed}: witness not a biclique"
            );
            assert_eq!(left.len(), left_total);
            assert_eq!(right.len(), right_total);
            assert!(left.is_sorted() && right.is_sorted());
        }
    }

    #[test]
    fn dynamic_mbb_with_base_offsets() {
        // Complete 2x2 candidates with |A| = 3, |B| = 1 already fixed.
        let mut g = LocalGraph::new(2, 2);
        for u in 0..2 {
            for v in 0..2 {
                g.add_edge(u, v);
            }
        }
        let ca = BitSet::full(2);
        let cb = BitSet::full(2);
        let mut stats = SearchStats::default();
        let totals = DynamicMbb::default().solve(&g, &ca, &cb, 3, 1, &mut stats);
        // Everything is trivial: totals are (3+2, 1+2) → half 3.
        assert_eq!(totals, Some((5, 3)));
    }

    #[test]
    fn dynamic_mbb_rejects_sparse_candidates() {
        let g = LocalGraph::new(3, 3); // empty: every vertex misses 3
        let ca = BitSet::full(3);
        let cb = BitSet::full(3);
        let mut stats = SearchStats::default();
        let mut solver = DynamicMbb::default();
        assert!(solver.solve(&g, &ca, &cb, 0, 0, &mut stats).is_none());
        assert_eq!(stats.poly_solves, 0);
    }

    #[test]
    fn dynamic_mbb_empty_candidates() {
        let g = LocalGraph::new(2, 2);
        let ca = BitSet::new(2);
        let cb = BitSet::new(2);
        let mut stats = SearchStats::default();
        let mut solver = DynamicMbb::default();
        assert_eq!(solver.solve(&g, &ca, &cb, 4, 2, &mut stats), Some((4, 2)));
        let (mut left, mut right) = (vec![7], vec![9]);
        solver.realize(&mut left, &mut right);
        assert_eq!((left, right), (vec![7], vec![9]));
    }
}

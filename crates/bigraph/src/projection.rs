//! One-mode projection of a bipartite graph.
//!
//! The projection onto a side connects two same-side vertices with weight
//! = their number of common neighbours. It is the bipartite analyst's
//! bridge to unipartite tooling, and inside this workspace it gives a
//! cheap certificate language: a balanced biclique of half-size `k` is a
//! `k`-clique in the left projection restricted to weights ≥ `k`, so
//! projection statistics bound the MBB from above.

use crate::graph::{BipartiteGraph, Side};
use crate::two_hop::for_each_pair;

/// A weighted undirected graph over one side of a bipartite graph,
/// stored as a sorted flat edge list (`u < v`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Projection {
    /// Number of vertices (the projected side's size).
    pub num_vertices: usize,
    /// `(u, v, weight)` triples with `u < v`, sorted lexicographically;
    /// `weight` = number of common neighbours in the bipartite graph.
    pub edges: Vec<(u32, u32, u32)>,
    /// Whether the underlying bipartite graph had any edge at all (a
    /// perfect matching projects to nothing yet still has MBB half 1).
    pub has_bipartite_edge: bool,
}

impl Projection {
    /// Number of projected edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Weight of the pair `(u, v)` (0 when not adjacent).
    pub fn weight(&self, u: u32, v: u32) -> u32 {
        let key = (u.min(v), u.max(v));
        self.edges
            .binary_search_by_key(&key, |&(a, b, _)| (a, b))
            .map(|i| self.edges[i].2)
            .unwrap_or(0)
    }

    /// Upper bound on the MBB half-size from this projection: the largest
    /// `k ≥ 2` with at least `C(k,2)` pairs of weight ≥ `k`, falling back
    /// to 1 when the bipartite graph has an edge and 0 otherwise. One
    /// count of the pairs per weight, `O(pairs + |side|)`.
    pub fn mbb_half_upper_bound(&self) -> usize {
        let n = self.num_vertices;
        // Weights above n count as n: k never exceeds n.
        let mut with_weight = vec![0usize; n + 1];
        for &(_, _, w) in &self.edges {
            with_weight[(w as usize).min(n)] += 1;
        }
        // Walking k down, `at_least` is the number of pairs of weight ≥ k.
        let mut at_least = 0;
        for k in (2..=n).rev() {
            at_least += with_weight[k];
            if at_least >= k * (k - 1) / 2 {
                return k;
            }
        }
        usize::from(self.has_bipartite_edge)
    }
}

/// Projects `graph` onto the given side: one run of the pair pass (see
/// [`two_hop`](crate::two_hop)) over that side, `O(Σ_other deg²)`, then a
/// sort of each vertex's partners.
///
/// ```
/// use mbb_bigraph::generators::complete;
/// use mbb_bigraph::graph::Side;
/// use mbb_bigraph::projection::project;
///
/// let g = complete(3, 4);
/// let p = project(&g, Side::Left);
/// assert_eq!(p.num_edges(), 3); // the 3 left pairs
/// assert_eq!(p.weight(0, 2), 4); // sharing all 4 right vertices
/// ```
pub fn project(graph: &BipartiteGraph, side: Side) -> Projection {
    let num_vertices = match side {
        Side::Left => graph.num_left(),
        Side::Right => graph.num_right(),
    };
    let mut edges: Vec<(u32, u32, u32)> = Vec::new();
    for_each_pair(graph, side, |u, v, weight| edges.push((u, v, weight)));
    // Sources ascend; sort each source's partners.
    for run in edges.chunk_by_mut(|x, y| x.0 == y.0) {
        run.sort_unstable_by_key(|&(_, v, _)| v);
    }
    Projection {
        num_vertices,
        edges,
        has_bipartite_edge: graph.num_edges() > 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::graph::sorted_intersection_len;

    fn brute_projection(graph: &BipartiteGraph, side: Side) -> Vec<(u32, u32, u32)> {
        let n = match side {
            Side::Left => graph.num_left(),
            Side::Right => graph.num_right(),
        } as u32;
        let neighbors = |u: u32| match side {
            Side::Left => graph.neighbors_left(u),
            Side::Right => graph.neighbors_right(u),
        };
        let mut edges = Vec::new();
        for u in 0..n {
            for v in u + 1..n {
                let w = sorted_intersection_len(neighbors(u), neighbors(v)) as u32;
                if w > 0 {
                    edges.push((u, v, w));
                }
            }
        }
        edges
    }

    #[test]
    fn matches_brute_force_both_sides() {
        for seed in 0..15u64 {
            let g = generators::uniform_edges(9, 7, 30, seed);
            assert_eq!(
                project(&g, Side::Left).edges,
                brute_projection(&g, Side::Left),
                "left seed {seed}"
            );
            assert_eq!(
                project(&g, Side::Right).edges,
                brute_projection(&g, Side::Right),
                "right seed {seed}"
            );
        }
    }

    #[test]
    fn complete_graph_projection() {
        let g = generators::complete(4, 3);
        let p = project(&g, Side::Left);
        assert_eq!(p.num_edges(), 6);
        assert!(p.edges.iter().all(|&(_, _, w)| w == 3));
        assert_eq!(p.weight(1, 3), 3);
        assert_eq!(p.weight(3, 1), 3, "weight is symmetric");
    }

    #[test]
    fn matching_projects_to_nothing() {
        let g = BipartiteGraph::from_edges(4, 4, (0..4).map(|i| (i, i))).unwrap();
        let p = project(&g, Side::Left);
        assert_eq!(p.num_edges(), 0);
        assert_eq!(p.weight(0, 1), 0);
        assert_eq!(p.mbb_half_upper_bound(), 1, "edges exist but no pair");
    }

    #[test]
    fn star_projects_to_clique() {
        // One right hub shared by all left vertices → complete projection
        // with weight 1.
        let g = BipartiteGraph::from_edges(4, 1, (0..4).map(|u| (u, 0))).unwrap();
        let p = project(&g, Side::Left);
        assert_eq!(p.num_edges(), 6);
        assert!(p.edges.iter().all(|&(_, _, w)| w == 1));
    }

    /// The number of vertex pairs with weight ≥ `threshold` — the edge
    /// count of the thresholded projection. A balanced biclique of
    /// half-size `k` needs `C(k,2)` pairs of weight ≥ `k` on each side,
    /// so `pairs_with_weight_at_least(p, k) < C(k,2)` refutes half-size
    /// `k`.
    fn pairs_with_weight_at_least(p: &Projection, threshold: u32) -> usize {
        p.edges.iter().filter(|&&(_, _, w)| w >= threshold).count()
    }

    /// The bound by its definition: for each `k` from `|side|` down,
    /// rescan every pair for weights ≥ `k`.
    fn half_bound_by_definition(p: &Projection) -> usize {
        let mut k = p.num_vertices;
        while k >= 2 {
            let needed = k * (k - 1) / 2;
            if pairs_with_weight_at_least(p, k as u32) >= needed {
                return k;
            }
            k -= 1;
        }
        usize::from(p.has_bipartite_edge)
    }

    #[test]
    fn half_bound_matches_its_definition() {
        let mut graphs = vec![
            BipartiteGraph::from_edges(0, 0, []).unwrap(),
            BipartiteGraph::from_edges(5, 3, []).unwrap(),
            BipartiteGraph::from_edges(4, 4, (0..4).map(|i| (i, i))).unwrap(),
            generators::complete(6, 3),
        ];
        for seed in 0..24u64 {
            let g = generators::uniform_edges(10, 7, 8 + 2 * seed as usize, seed);
            graphs.push(generators::plant_balanced_biclique(&g, seed as u32 % 5 + 1).0);
            graphs.push(g);
        }
        for g in &graphs {
            for side in [Side::Left, Side::Right] {
                let p = project(g, side);
                assert_eq!(
                    p.mbb_half_upper_bound(),
                    half_bound_by_definition(&p),
                    "{side:?} of {g:?}"
                );
            }
        }
    }

    #[test]
    fn mbb_bound_is_sound() {
        use crate::matching::maximum_vertex_biclique;
        for seed in 0..10u64 {
            let g = generators::uniform_edges(8, 8, 30, seed ^ 0x6);
            let p = project(&g, Side::Left);
            // Soundness against the exact optimum is checked in the
            // integration suite; here check internal consistency.
            let bound = p.mbb_half_upper_bound();
            if bound >= 2 {
                assert!(pairs_with_weight_at_least(&p, bound as u32) >= bound * (bound - 1) / 2);
            }
            let _ = maximum_vertex_biclique(&g);
        }
    }

    #[test]
    fn empty_graph_projection() {
        let g = BipartiteGraph::from_edges(0, 0, []).unwrap();
        let p = project(&g, Side::Left);
        assert_eq!(p.num_vertices, 0);
        assert_eq!(p.num_edges(), 0);
        assert_eq!(p.mbb_half_upper_bound(), 0);
    }

    #[test]
    fn planted_biclique_shows_up_as_heavy_pairs() {
        let noise = generators::uniform_edges(20, 20, 40, 5);
        let (g, left, _right) = generators::plant_balanced_biclique(&noise, 5);
        let p = project(&g, Side::Left);
        // Every pair of planted left vertices shares ≥ 5 right vertices.
        for (i, &u) in left.iter().enumerate() {
            for &v in &left[i + 1..] {
                assert!(p.weight(u, v) >= 5, "pair ({u}, {v})");
            }
        }
        assert!(p.mbb_half_upper_bound() >= 5);
    }
}

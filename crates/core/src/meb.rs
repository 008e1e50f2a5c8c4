//! Maximum **edge** biclique (MEB) — the related problem of §7.
//!
//! Maximise `|A| · |B|` over bicliques, with no balance constraint. NP-hard
//! like MBB; included as an extension because the three biclique objectives
//! (vertex / edge / balanced) are easy to confuse and instructive to
//! contrast:
//!
//! * MVB (max `|A| + |B|`) — polynomial, [`mbb_bigraph::matching`];
//! * MEB (max `|A| · |B|`) — NP-hard, this module;
//! * MBB (max `min(|A|, |B|)`) — NP-hard, the rest of this crate.
//!
//! The solver is a left-subset branch and bound with the product bound
//! `(|A| + |cand|) · |common|`, suitable for small and medium graphs.

use mbb_bigraph::graph::{sorted_intersection, BipartiteGraph};

use crate::budget::SearchBudget;

/// An edge-maximal biclique witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeBiclique {
    /// Left vertices, sorted.
    pub left: Vec<u32>,
    /// Right vertices, sorted.
    pub right: Vec<u32>,
}

impl EdgeBiclique {
    /// The edge count `|A| · |B|`.
    pub fn edges(&self) -> usize {
        self.left.len() * self.right.len()
    }
}

/// Exact maximum edge biclique by branch and bound over left subsets,
/// under a [`SearchBudget`]: returns the best edge biclique found before
/// the budget expired.
///
/// A biclique with one empty side has zero edges, so the empty biclique is
/// returned only for edgeless graphs.
///
/// ```
/// use mbb_bigraph::graph::BipartiteGraph;
/// use mbb_core::budget::SearchBudget;
/// use mbb_core::meb::maximum_edge_biclique_budgeted;
/// // A 1×4 star beats any balanced block on edges.
/// let g = BipartiteGraph::from_edges(2, 4, [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0)])?;
/// let found = maximum_edge_biclique_budgeted(&g, &SearchBudget::unlimited());
/// assert_eq!(found.edges(), 4);
/// # Ok::<(), mbb_bigraph::graph::GraphError>(())
/// ```
pub fn maximum_edge_biclique_budgeted(
    graph: &BipartiteGraph,
    budget: &SearchBudget,
) -> EdgeBiclique {
    let mut state = MebSearcher {
        graph,
        best: EdgeBiclique {
            left: Vec::new(),
            right: Vec::new(),
        },
        best_edges: 0,
        budget: budget.clone(),
    };
    // Left vertices in degree-descending order: large stars early give a
    // strong initial product bound.
    let mut candidates: Vec<u32> = (0..graph.num_left() as u32).collect();
    candidates.sort_by_key(|&u| std::cmp::Reverse(graph.degree_left(u)));
    let all_right: Vec<u32> = (0..graph.num_right() as u32).collect();
    state.expand(&mut Vec::new(), &all_right, &candidates);
    state.best
}

struct MebSearcher<'g> {
    graph: &'g BipartiteGraph,
    best: EdgeBiclique,
    best_edges: usize,
    budget: SearchBudget,
}

impl MebSearcher<'_> {
    fn expand(&mut self, chosen: &mut Vec<u32>, common: &[u32], candidates: &[u32]) {
        if self.budget.is_exhausted() {
            return;
        }
        let edges = chosen.len() * common.len();
        if edges > self.best_edges {
            self.best_edges = edges;
            let mut left = chosen.clone();
            left.sort_unstable();
            self.best = EdgeBiclique {
                left,
                right: common.to_vec(),
            };
        }
        // Product bound: even taking every remaining candidate cannot beat
        // the incumbent if the current common neighbourhood is too small.
        if (chosen.len() + candidates.len()) * common.len() <= self.best_edges {
            return;
        }
        for (i, &u) in candidates.iter().enumerate() {
            let next = sorted_intersection(common, self.graph.neighbors_left(u));
            if next.is_empty() {
                continue;
            }
            if (chosen.len() + candidates.len() - i) * next.len() <= self.best_edges {
                continue;
            }
            chosen.push(u);
            self.expand(chosen, &next, &candidates[i + 1..]);
            chosen.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MbbEngine;
    use mbb_bigraph::generators;

    fn brute_meb_edges(graph: &BipartiteGraph) -> usize {
        let nl = graph.num_left();
        assert!(nl <= 16);
        let mut best = 0usize;
        for mask in 1u32..(1 << nl) {
            let mut common: Option<Vec<u32>> = None;
            let mut size = 0usize;
            for u in 0..nl as u32 {
                if mask >> u & 1 == 1 {
                    size += 1;
                    let n = graph.neighbors_left(u);
                    common = Some(match common {
                        None => n.to_vec(),
                        Some(c) => sorted_intersection(&c, n),
                    });
                }
            }
            best = best.max(size * common.map_or(0, |c| c.len()));
        }
        best
    }

    #[test]
    fn matches_brute_force() {
        for seed in 0..12u64 {
            let g = generators::uniform_edges(10, 10, 45, seed);
            let found = maximum_edge_biclique_budgeted(&g, &SearchBudget::unlimited());
            assert_eq!(found.edges(), brute_meb_edges(&g), "seed {seed}");
            assert!(g.is_biclique(&found.left, &found.right));
        }
    }

    #[test]
    fn star_is_the_meb_of_a_star() {
        let g = BipartiteGraph::from_edges(1, 9, (0..9).map(|v| (0, v))).unwrap();
        let found = maximum_edge_biclique_budgeted(&g, &SearchBudget::unlimited());
        assert_eq!(found.edges(), 9);
        assert_eq!(found.left, vec![0]);
    }

    #[test]
    fn complete_graph_takes_everything() {
        let g = generators::complete(4, 6);
        let found = maximum_edge_biclique_budgeted(&g, &SearchBudget::unlimited());
        assert_eq!(found.edges(), 24);
    }

    #[test]
    fn empty_graph_has_empty_meb() {
        let g = BipartiteGraph::from_edges(3, 3, []).unwrap();
        assert_eq!(
            maximum_edge_biclique_budgeted(&g, &SearchBudget::unlimited()).edges(),
            0
        );
    }

    #[test]
    fn meb_dominates_mbb_in_edges() {
        // k×k balanced biclique has k² edges ≤ MEB edges.
        for seed in 0..8u64 {
            let g = generators::uniform_edges(12, 12, 70, seed);
            let mbb = MbbEngine::new(g.clone()).solve().value;
            let meb = maximum_edge_biclique_budgeted(&g, &SearchBudget::unlimited());
            assert!(
                meb.edges() >= mbb.half_size() * mbb.half_size(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn meb_vs_mvb_objectives_differ() {
        // A star maximises edges with a 1×n shape while MVB picks the same
        // set; on a star plus a separate 2×2 block the objectives diverge.
        let mut edges: Vec<(u32, u32)> = (0..6).map(|v| (0, v)).collect();
        edges.extend([(1, 6), (1, 7), (2, 6), (2, 7)]);
        let g = BipartiteGraph::from_edges(3, 8, edges).unwrap();
        let meb = maximum_edge_biclique_budgeted(&g, &SearchBudget::unlimited());
        assert_eq!(meb.edges(), 6, "star wins on edges");
        let mbb = MbbEngine::new(g.clone()).solve().value;
        assert_eq!(mbb.half_size(), 2, "2x2 block wins on balance");
    }
}

//! The biclique size frontier — the paper's "maximal instances of the
//! (a, b) biclique problem" (§4.2), lifted from paths/cycles to whole
//! graphs.
//!
//! A size pair `(a, b)` is *feasible* when the graph contains a biclique
//! with `|A| ≥ a` and `|B| ≥ b`; the frontier is the set of feasible
//! pairs not dominated by any other (the Pareto-maximal pairs). The
//! frontier answers every size-constrained existence query at once, and
//! its balanced corner `max min(a, b)` is the MBB half-size.

use std::ops::ControlFlow;

use mbb_bigraph::graph::BipartiteGraph;

use crate::budget::SearchBudget;
use crate::enumerate::{enumerate_budgeted, EnumConfig};

/// The biclique size frontier of a graph.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SizeFrontier {
    /// Pareto-maximal `(a, b)` pairs, sorted by `a` ascending (so `b`
    /// descends). Excludes the degenerate all-of-one-side pairs with an
    /// empty other side.
    pub pairs: Vec<(usize, usize)>,
    /// False when the underlying enumeration hit its budget — the
    /// frontier is then a lower-bound approximation.
    pub complete: bool,
}

impl SizeFrontier {
    /// Computes the frontier by enumerating maximal bicliques under a
    /// shared [`SearchBudget`] — the entry point behind
    /// [`MbbEngine::frontier`](crate::engine::MbbEngine::frontier), whose
    /// [`Termination`](crate::budget::Termination) says why an incomplete
    /// enumeration stopped. Worst-case exponential (the frontier itself
    /// has at most `min(|L|, |R|)` points, but certifying it needs all
    /// maximal bicliques); give large dense graphs a deadline.
    ///
    /// ```
    /// use mbb_bigraph::graph::BipartiteGraph;
    /// use mbb_core::budget::SearchBudget;
    /// use mbb_core::frontier::SizeFrontier;
    ///
    /// // A 1×3 star plus a 2×2 block sharing no vertices.
    /// let g = BipartiteGraph::from_edges(
    ///     3, 5,
    ///     [(0, 0), (0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4)],
    /// )?;
    /// let frontier = SizeFrontier::budgeted(&g, &SearchBudget::unlimited());
    /// assert_eq!(frontier.pairs, vec![(1, 3), (2, 2)]);
    /// assert_eq!(frontier.mbb_half(), 2);
    /// # Ok::<(), mbb_bigraph::graph::GraphError>(())
    /// ```
    pub fn budgeted(graph: &BipartiteGraph, budget: &SearchBudget) -> SizeFrontier {
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        let outcome = enumerate_budgeted(graph, &EnumConfig::default(), budget, |b| {
            pairs.push((b.left.len(), b.right.len()));
            ControlFlow::Continue(())
        });
        let complete = outcome.complete;
        pairs.sort_unstable();
        pairs.dedup();
        // Pareto filter: sorted by (a, b) ascending, scan from the right
        // keeping pairs whose b strictly exceeds every later-kept b.
        let mut frontier: Vec<(usize, usize)> = Vec::new();
        let mut best_b = 0usize;
        for &(a, b) in pairs.iter().rev() {
            if b > best_b {
                frontier.push((a, b));
                best_b = b;
            }
        }
        frontier.reverse();
        SizeFrontier {
            pairs: frontier,
            complete,
        }
    }

    /// True when a biclique with `|A| ≥ a` and `|B| ≥ b` exists (for a
    /// complete frontier; a lower bound otherwise). Pairs with a zero
    /// component are feasible iff the respective side has that many
    /// non-isolated vertices covered by some frontier point.
    pub fn is_feasible(&self, a: usize, b: usize) -> bool {
        self.pairs.iter().any(|&(fa, fb)| fa >= a && fb >= b)
    }

    /// The MBB half-size: the balanced corner `max min(a, b)`.
    pub fn mbb_half(&self) -> usize {
        self.pairs.iter().map(|&(a, b)| a.min(b)).max().unwrap_or(0)
    }

    /// The maximum-edge corner `max a·b` (the MEB objective).
    pub fn meb_edges(&self) -> usize {
        self.pairs.iter().map(|&(a, b)| a * b).max().unwrap_or(0)
    }

    /// The maximum-vertex corner `max a+b` (the MVB objective).
    pub fn mvb_total(&self) -> usize {
        self.pairs.iter().map(|&(a, b)| a + b).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MbbEngine;
    use crate::meb::maximum_edge_biclique_budgeted;
    use crate::size_constrained::find_size_constrained_budgeted;
    use mbb_bigraph::generators;
    use mbb_bigraph::matching::maximum_vertex_biclique;

    #[test]
    fn frontier_is_antichain_and_sorted() {
        for seed in 0..15u64 {
            let g = generators::uniform_edges(9, 9, 35, seed);
            let f = SizeFrontier::budgeted(&g, &SearchBudget::unlimited());
            assert!(f.complete);
            for w in f.pairs.windows(2) {
                assert!(w[0].0 < w[1].0, "a ascending: {:?}", f.pairs);
                assert!(w[0].1 > w[1].1, "b descending: {:?}", f.pairs);
            }
        }
    }

    #[test]
    fn corners_match_dedicated_solvers() {
        for seed in 0..12u64 {
            let g = generators::uniform_edges(8, 8, 30, seed ^ 0x20);
            let f = SizeFrontier::budgeted(&g, &SearchBudget::unlimited());
            assert_eq!(
                f.mbb_half(),
                MbbEngine::new(g.clone()).solve().value.half_size(),
                "seed {seed}"
            );
            let meb = maximum_edge_biclique_budgeted(&g, &SearchBudget::unlimited());
            assert_eq!(
                f.meb_edges(),
                meb.left.len() * meb.right.len(),
                "seed {seed}"
            );
            let (mvb_a, mvb_b) = maximum_vertex_biclique(&g);
            // MVB allows empty sides; the frontier excludes them, so it
            // can only be smaller or equal.
            assert!(f.mvb_total() <= mvb_a.len() + mvb_b.len(), "seed {seed}");
        }
    }

    #[test]
    fn feasibility_queries() {
        let g = generators::complete(3, 4);
        let f = SizeFrontier::budgeted(&g, &SearchBudget::unlimited());
        assert_eq!(f.pairs, vec![(3, 4)]);
        assert!(f.is_feasible(2, 2));
        assert!(f.is_feasible(3, 4));
        assert!(!f.is_feasible(4, 1));
        assert!(!f.is_feasible(1, 5));
    }

    #[test]
    fn empty_graph_has_empty_frontier() {
        let g = BipartiteGraph::from_edges(3, 3, []).unwrap();
        let f = SizeFrontier::budgeted(&g, &SearchBudget::unlimited());
        assert!(f.pairs.is_empty());
        assert_eq!(f.mbb_half(), 0);
        assert!(!f.is_feasible(1, 1));
    }

    #[test]
    fn frontier_points_are_realizable() {
        let g = generators::uniform_edges(8, 8, 30, 3);
        let f = SizeFrontier::budgeted(&g, &SearchBudget::unlimited());
        for &(a, b) in &f.pairs {
            let witness = find_size_constrained_budgeted(&g, a, b, &SearchBudget::unlimited());
            assert!(witness.is_some(), "({a}, {b}) should be realizable");
        }
    }

    #[test]
    fn dominated_points_are_infeasible_beyond_frontier() {
        let g = generators::uniform_edges(8, 8, 30, 7);
        let f = SizeFrontier::budgeted(&g, &SearchBudget::unlimited());
        // One past the frontier in each coordinate must be infeasible.
        for &(a, b) in &f.pairs {
            if !f.is_feasible(a + 1, b) {
                assert!(
                    find_size_constrained_budgeted(&g, a + 1, b, &SearchBudget::unlimited())
                        .is_none(),
                    "({},{b})",
                    a + 1
                );
            }
            if !f.is_feasible(a, b + 1) {
                assert!(
                    find_size_constrained_budgeted(&g, a, b + 1, &SearchBudget::unlimited())
                        .is_none(),
                    "({a},{})",
                    b + 1
                );
            }
        }
    }
}

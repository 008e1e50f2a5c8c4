//! Maximal biclique enumeration (MBE) with proper maximality checking.
//!
//! The paper's baselines strip maximality checking out of MBE engines
//! because MBB search only needs the best balanced biclique. A library
//! user, however, often wants the maximal bicliques themselves (biological
//! biclustering enumerates them directly), so this module exposes a real
//! enumerator: the consensus-expansion algorithm of iMBEA / MBEA
//! (Zhang et al. 2014, \[29\] in the paper), which reports every maximal
//! biclique `(A, B)` with `A, B ≠ ∅` exactly once.
//!
//! The enumerator is callback-driven ([`enumerate_budgeted`]) so
//! results can be streamed without materialising what may be an
//! exponential-size output; [`all_maximal_bicliques`] is a convenience
//! wrapper.

use std::cell::Cell;
use std::ops::ControlFlow;
use std::rc::Rc;

use mbb_bigraph::graph::{
    sorted_contains_all, sorted_intersection, sorted_intersects, sorted_overlap_with,
    BipartiteGraph, SortedOverlap,
};

use crate::budget::SearchBudget;

/// A maximal biclique in original graph indices: no vertex of either side
/// can be added without breaking completeness. Unlike
/// [`crate::Biclique`], the sides may have different sizes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct MaximalBiclique {
    /// Left-side vertex indices, sorted.
    pub left: Vec<u32>,
    /// Right-side vertex indices, sorted.
    pub right: Vec<u32>,
}

impl MaximalBiclique {
    /// The balanced size `min(|A|, |B|)` — the half-size of the largest
    /// balanced biclique contained in this maximal biclique.
    #[inline]
    pub fn balanced_size(&self) -> usize {
        self.left.len().min(self.right.len())
    }

    /// Total vertex count `|A| + |B|`.
    #[inline]
    pub fn total_size(&self) -> usize {
        self.left.len() + self.right.len()
    }

    /// Edge count `|A| · |B|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.left.len() * self.right.len()
    }

    /// Checks completeness and maximality against `graph`.
    pub fn is_maximal(&self, graph: &BipartiteGraph) -> bool {
        if self.left.is_empty() || self.right.is_empty() {
            return false;
        }
        if !graph.is_biclique(&self.left, &self.right) {
            return false;
        }
        // No left vertex outside `left` is adjacent to all of `right` …
        let extendable_left = (0..graph.num_left() as u32)
            .filter(|u| self.left.binary_search(u).is_err())
            .any(|u| sorted_contains_all(graph.neighbors_left(u), &self.right));
        // … and symmetrically for the right side.
        let extendable_right = (0..graph.num_right() as u32)
            .filter(|v| self.right.binary_search(v).is_err())
            .any(|v| sorted_contains_all(graph.neighbors_right(v), &self.left));
        !extendable_left && !extendable_right
    }
}

/// Filters and limits for the enumeration.
#[derive(Debug, Clone, Copy)]
pub struct EnumConfig {
    /// Report only bicliques with `|A| ≥ min_left`.
    pub min_left: usize,
    /// Report only bicliques with `|B| ≥ min_right`.
    pub min_right: usize,
    /// Stop after reporting this many bicliques.
    pub max_results: Option<u64>,
}

impl Default for EnumConfig {
    fn default() -> Self {
        EnumConfig {
            min_left: 1,
            min_right: 1,
            max_results: None,
        }
    }
}

/// Summary of an enumeration run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnumOutcome {
    /// Number of maximal bicliques reported to the callback.
    pub reported: u64,
    /// Number of maximal bicliques visited (including ones filtered out by
    /// the size thresholds).
    pub visited: u64,
    /// False when the run stopped early (budget, `max_results`, or the
    /// callback returning [`ControlFlow::Break`]).
    pub complete: bool,
}

struct Enumerator<'g, F> {
    graph: &'g BipartiteGraph,
    config: EnumConfig,
    visit: F,
    reported: u64,
    visited: u64,
    stopped: bool,
    /// The query's budget (deadline/cancellation shared with the caller).
    budget: SearchBudget,
    /// Dynamic balanced-size lower bound: branches whose best possible
    /// `min(|A|, |B|)` is strictly below the floor are skipped entirely.
    /// The top-k searcher raises it as its heap fills; `0` disables it.
    floor: Option<Rc<Cell<usize>>>,
}

impl<F: FnMut(&MaximalBiclique) -> ControlFlow<()>> Enumerator<'_, F> {
    fn out_of_time(&mut self) -> bool {
        if self.budget.is_exhausted() {
            self.stopped = true;
        }
        self.stopped
    }

    /// Consensus expansion. Invariant: `left` is exactly the set of left
    /// vertices adjacent to all of `right`; `cand`/`excluded` partition the
    /// right vertices that can still shrink `left` without emptying it.
    /// Every pair in `excluded` has been tried before (any extension of
    /// `right` absorbing one would be a duplicate).
    fn expand(&mut self, left: &[u32], right: &[u32], cand: &[u32], excluded: &[u32]) {
        let mut cand = cand.to_vec();
        let mut excluded = excluded.to_vec();
        while let Some(&x) = cand.first() {
            if self.out_of_time() {
                return;
            }
            cand.remove(0);

            // Tentatively add x: the left side shrinks to its x-neighbours.
            let new_left = sorted_intersection(left, self.graph.neighbors_right(x));
            if new_left.is_empty() {
                excluded.insert(excluded.binary_search(&x).unwrap_err(), x);
                continue;
            }

            // Floor prune: everything below this node has left ⊆ new_left
            // and right ⊆ {x} ∪ right ∪ cand, so its balanced size is at
            // most this bound. Anything pruned here (and anything a later
            // excluded-set check suppresses on its behalf) is strictly
            // below the floor, which only ever rises.
            if let Some(floor) = &self.floor {
                let bound = new_left.len().min(right.len() + 1 + cand.len());
                if bound < floor.get() {
                    excluded.insert(excluded.binary_search(&x).unwrap_err(), x);
                    continue;
                }
            }

            // Maximality check against the excluded set: if some excluded
            // right vertex is adjacent to all of new_left, this biclique
            // (and everything below it) has already been reported from the
            // branch that included that vertex.
            let dominated = excluded
                .iter()
                .any(|&q| sorted_contains_all(self.graph.neighbors_right(q), &new_left));
            if dominated {
                excluded.insert(excluded.binary_search(&x).unwrap_err(), x);
                continue;
            }

            // Expand the right side with every remaining candidate fully
            // adjacent to new_left; the rest stay candidates.
            let mut new_right = right.to_vec();
            new_right.insert(new_right.binary_search(&x).unwrap_err(), x);
            let mut new_cand = Vec::with_capacity(cand.len());
            for &v in &cand {
                match sorted_overlap_with(self.graph.neighbors_right(v), &new_left) {
                    SortedOverlap::All => {
                        new_right.insert(new_right.binary_search(&v).unwrap_err(), v);
                    }
                    SortedOverlap::Partial => new_cand.push(v),
                    SortedOverlap::Disjoint => {}
                }
            }

            // (new_left, new_right) is maximal: right-maximal by the
            // expansion above plus the excluded-set check, left-maximal
            // because new_left already holds *all* common neighbours.
            self.visited += 1;
            if new_left.len() >= self.config.min_left && new_right.len() >= self.config.min_right {
                let found = MaximalBiclique {
                    left: new_left.clone(),
                    right: new_right.clone(),
                };
                self.reported += 1;
                if (self.visit)(&found) == ControlFlow::Break(())
                    || self
                        .config
                        .max_results
                        .is_some_and(|limit| self.reported >= limit)
                {
                    self.stopped = true;
                    return;
                }
            }

            let new_excluded: Vec<u32> = excluded
                .iter()
                .copied()
                .filter(|&q| sorted_intersects(self.graph.neighbors_right(q), &new_left))
                .collect();
            if !new_cand.is_empty() {
                self.expand(&new_left, &new_right, &new_cand, &new_excluded);
                if self.stopped {
                    return;
                }
            }

            excluded.insert(excluded.binary_search(&x).unwrap_err(), x);
        }
    }
}

/// Enumerates every maximal biclique of `graph` (both sides non-empty),
/// each exactly once, streaming them to `visit`. Return
/// [`ControlFlow::Break`] from the callback to stop early. The
/// enumeration also stops (incomplete) once the budget's deadline passes
/// or its cancel token fires, and the budget's
/// [`termination`](SearchBudget::termination) then says which.
///
/// ```
/// use std::ops::ControlFlow;
/// use mbb_bigraph::graph::BipartiteGraph;
/// use mbb_core::budget::SearchBudget;
/// use mbb_core::enumerate::{enumerate_budgeted, EnumConfig};
///
/// // Two overlapping blocks: {0,1}×{0,1} and {1,2}×{1,2} minus (2,1).
/// let g = BipartiteGraph::from_edges(
///     3, 3,
///     [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 2)],
/// )?;
/// let mut found = Vec::new();
/// let budget = SearchBudget::unlimited();
/// let outcome = enumerate_budgeted(&g, &EnumConfig::default(), &budget, |b| {
///     found.push((b.left.clone(), b.right.clone()));
///     ControlFlow::Continue(())
/// });
/// assert!(outcome.complete);
/// assert!(found.contains(&(vec![0, 1], vec![0, 1])));
/// assert!(found.contains(&(vec![1, 2], vec![2])));
/// # Ok::<(), mbb_bigraph::graph::GraphError>(())
/// ```
pub fn enumerate_budgeted<F>(
    graph: &BipartiteGraph,
    config: &EnumConfig,
    budget: &SearchBudget,
    visit: F,
) -> EnumOutcome
where
    F: FnMut(&MaximalBiclique) -> ControlFlow<()>,
{
    enumerate_with_floor(graph, config, budget, None, visit)
}

/// Enumeration with an optional dynamic balanced-size floor (used by the
/// top-k searcher, which raises the floor as its heap fills). With a
/// floor, branches that cannot reach `min(|A|, |B|) ≥ floor` are skipped,
/// so the stream is no longer the complete set of maximal bicliques — only
/// those at or above the floor are guaranteed to appear.
pub(crate) fn enumerate_with_floor<F>(
    graph: &BipartiteGraph,
    config: &EnumConfig,
    budget: &SearchBudget,
    floor: Option<Rc<Cell<usize>>>,
    visit: F,
) -> EnumOutcome
where
    F: FnMut(&MaximalBiclique) -> ControlFlow<()>,
{
    let mut enumerator = Enumerator {
        graph,
        config: *config,
        visit,
        reported: 0,
        visited: 0,
        stopped: false,
        budget: budget.clone(),
        floor,
    };
    // Root: right side empty, left side = all non-isolated left vertices
    // (isolated ones can never survive an intersection and only slow the
    // root row down), all non-isolated right vertices candidates.
    let left_all: Vec<u32> = (0..graph.num_left() as u32)
        .filter(|&u| graph.degree_left(u) > 0)
        .collect();
    let cand: Vec<u32> = (0..graph.num_right() as u32)
        .filter(|&v| graph.degree_right(v) > 0)
        .collect();
    if !left_all.is_empty() && !cand.is_empty() {
        enumerator.expand(&left_all, &[], &cand, &[]);
    }
    EnumOutcome {
        reported: enumerator.reported,
        visited: enumerator.visited,
        complete: !enumerator.stopped,
    }
}

/// Collects all maximal bicliques into a vector. The boolean is `true`
/// when the enumeration ran to completion.
pub fn all_maximal_bicliques(
    graph: &BipartiteGraph,
    config: &EnumConfig,
) -> (Vec<MaximalBiclique>, bool) {
    let mut out = Vec::new();
    let outcome = enumerate_budgeted(graph, config, &SearchBudget::unlimited(), |b| {
        out.push(b.clone());
        ControlFlow::Continue(())
    });
    (out, outcome.complete)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts maximal bicliques (both sides non-empty) without storing
    /// them.
    fn count_maximal_bicliques(graph: &BipartiteGraph) -> u64 {
        let budget = SearchBudget::unlimited();
        enumerate_budgeted(graph, &EnumConfig::default(), &budget, |_| {
            ControlFlow::Continue(())
        })
        .reported
    }
    use mbb_bigraph::generators;
    use std::collections::HashSet;

    /// Brute-force reference: every closed pair (A = Γ(B), B = Γ(A)) with
    /// both sides non-empty, found by closing every right subset.
    fn brute_force_maximal(graph: &BipartiteGraph) -> HashSet<(Vec<u32>, Vec<u32>)> {
        let nr = graph.num_right();
        assert!(nr <= 16);
        let mut out = HashSet::new();
        for mask in 1u32..(1 << nr) {
            let b: Vec<u32> = (0..nr as u32).filter(|v| mask >> v & 1 == 1).collect();
            let mut a: Option<Vec<u32>> = None;
            for &v in &b {
                let n = graph.neighbors_right(v);
                a = Some(match a {
                    None => n.to_vec(),
                    Some(c) => sorted_intersection(&c, n),
                });
            }
            let a = a.unwrap_or_default();
            if a.is_empty() {
                continue;
            }
            // Close the right side: all right vertices adjacent to all of a.
            let closed_b: Vec<u32> = (0..nr as u32)
                .filter(|&v| sorted_contains_all(graph.neighbors_right(v), &a))
                .collect();
            out.insert((a, closed_b));
        }
        out
    }

    fn enumerated_set(graph: &BipartiteGraph) -> Vec<(Vec<u32>, Vec<u32>)> {
        let (all, complete) = all_maximal_bicliques(graph, &EnumConfig::default());
        assert!(complete);
        all.into_iter().map(|b| (b.left, b.right)).collect()
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        for seed in 0..25u64 {
            let g = generators::uniform_edges(8, 8, 28, seed);
            let got = enumerated_set(&g);
            let got_set: HashSet<_> = got.iter().cloned().collect();
            assert_eq!(got_set.len(), got.len(), "duplicates, seed {seed}");
            assert_eq!(got_set, brute_force_maximal(&g), "seed {seed}");
        }
    }

    #[test]
    fn every_result_is_maximal() {
        let g = generators::uniform_edges(10, 10, 45, 3);
        let (all, _) = all_maximal_bicliques(&g, &EnumConfig::default());
        for b in &all {
            assert!(b.is_maximal(&g), "{b:?}");
        }
    }

    #[test]
    fn complete_graph_has_one_maximal_biclique() {
        let g = generators::complete(4, 6);
        let (all, _) = all_maximal_bicliques(&g, &EnumConfig::default());
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].left.len(), 4);
        assert_eq!(all[0].right.len(), 6);
        assert_eq!(all[0].balanced_size(), 4);
        assert_eq!(all[0].edge_count(), 24);
    }

    #[test]
    fn perfect_matching_has_one_per_edge() {
        let g = BipartiteGraph::from_edges(4, 4, (0..4).map(|i| (i, i))).unwrap();
        assert_eq!(count_maximal_bicliques(&g), 4);
    }

    #[test]
    fn crown_graph_counts() {
        // Complete 3×3 minus the perfect matching: maximal bicliques are
        // exactly {u} × (R \ {u}) and (L \ {v}) × {v}... actually each pair
        // ({i,j}, {k}) with k ∉ {i,j}: enumerate and cross-check brute force.
        let mut edges = Vec::new();
        for u in 0..3u32 {
            for v in 0..3u32 {
                if u != v {
                    edges.push((u, v));
                }
            }
        }
        let g = BipartiteGraph::from_edges(3, 3, edges).unwrap();
        let got: HashSet<_> = enumerated_set(&g).into_iter().collect();
        assert_eq!(got, brute_force_maximal(&g));
    }

    #[test]
    fn size_filters_apply() {
        let g = generators::uniform_edges(8, 8, 30, 11);
        let config = EnumConfig {
            min_left: 2,
            min_right: 2,
            ..EnumConfig::default()
        };
        let (filtered, complete) = all_maximal_bicliques(&g, &config);
        assert!(complete);
        let (all, _) = all_maximal_bicliques(&g, &EnumConfig::default());
        let expected = all
            .iter()
            .filter(|b| b.left.len() >= 2 && b.right.len() >= 2)
            .count();
        assert_eq!(filtered.len(), expected);
        assert!(filtered
            .iter()
            .all(|b| b.left.len() >= 2 && b.right.len() >= 2));
    }

    #[test]
    fn max_results_stops_early() {
        let g = generators::uniform_edges(10, 10, 50, 2);
        let total = count_maximal_bicliques(&g);
        assert!(total > 3);
        let config = EnumConfig {
            max_results: Some(3),
            ..EnumConfig::default()
        };
        let (some, complete) = all_maximal_bicliques(&g, &config);
        assert_eq!(some.len(), 3);
        assert!(!complete);
    }

    #[test]
    fn callback_break_stops_early() {
        let g = generators::uniform_edges(10, 10, 50, 2);
        let mut seen = 0u64;
        let budget = SearchBudget::unlimited();
        let outcome = enumerate_budgeted(&g, &EnumConfig::default(), &budget, |_| {
            seen += 1;
            if seen == 2 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(seen, 2);
        assert!(!outcome.complete);
        assert_eq!(outcome.reported, 2);
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let g = BipartiteGraph::from_edges(0, 0, []).unwrap();
        assert_eq!(count_maximal_bicliques(&g), 0);
        let g = BipartiteGraph::from_edges(3, 3, []).unwrap();
        assert_eq!(count_maximal_bicliques(&g), 0);
    }

    #[test]
    fn single_edge() {
        let g = BipartiteGraph::from_edges(2, 2, [(0, 1)]).unwrap();
        let (all, _) = all_maximal_bicliques(&g, &EnumConfig::default());
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].left, vec![0]);
        assert_eq!(all[0].right, vec![1]);
    }

    #[test]
    fn star_graph() {
        // L0 adjacent to every right vertex: single maximal biclique.
        let g = BipartiteGraph::from_edges(1, 5, (0..5).map(|v| (0, v))).unwrap();
        let (all, _) = all_maximal_bicliques(&g, &EnumConfig::default());
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].right.len(), 5);
    }

    #[test]
    fn is_maximal_rejects_non_maximal() {
        let g = generators::complete(3, 3);
        let sub = MaximalBiclique {
            left: vec![0, 1],
            right: vec![0, 1, 2],
        };
        assert!(!sub.is_maximal(&g)); // vertex L2 extends it
        let full = MaximalBiclique {
            left: vec![0, 1, 2],
            right: vec![0, 1, 2],
        };
        assert!(full.is_maximal(&g));
    }

    #[test]
    fn is_maximal_rejects_incomplete() {
        let g = BipartiteGraph::from_edges(2, 2, [(0, 0), (1, 1)]).unwrap();
        let not_biclique = MaximalBiclique {
            left: vec![0, 1],
            right: vec![0, 1],
        };
        assert!(!not_biclique.is_maximal(&g));
    }

    #[test]
    fn figure_1b_maximal_bicliques() {
        // The paper's sparse example (0-based): MBB is ({2,3},{2,3}) here;
        // ({2,3,4},{2,3}) is the maximal biclique containing it.
        let g = BipartiteGraph::from_edges(
            6,
            6,
            [
                (0, 0),
                (1, 0),
                (1, 1),
                (2, 1),
                (2, 2),
                (2, 3),
                (3, 2),
                (3, 3),
                (4, 2),
                (4, 3),
                (5, 4),
                (5, 5),
            ],
        )
        .unwrap();
        let got = enumerated_set(&g);
        assert!(got.contains(&(vec![2, 3, 4], vec![2, 3])));
        let best = got.iter().map(|(a, b)| a.len().min(b.len())).max().unwrap();
        assert_eq!(best, 2);
    }
}

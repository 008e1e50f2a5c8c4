//! An independent maximal-biclique enumerator in the FMBE style (Das &
//! Tirthapura 2019, \[9\] in the paper): per-vertex, 2-hop-scoped
//! enumeration under a fixed total order. It is the test oracle for
//! `mbb_core::enumerate`, the consensus-expansion enumerator.
//!
//! FMBE's key idea — before enumerating the bicliques through a vertex,
//! restrict the scope to its 2-hop neighbourhood — is exactly the paper's
//! Observation 4, the same fact behind vertex-centred subgraphs. Each
//! root `r` (a left vertex) owns the maximal bicliques whose left side
//! has `r` as its minimum-rank member; within a root the enumeration is
//! consensus expansion over left candidates restricted to higher-ranked
//! 2-hop neighbours.
//!
//! Two structurally different enumerators must produce identical sets.
//! The integration tests check that, and derive the expected answer of
//! every engine query kind except `solve` from this module's output.

use std::ops::ControlFlow;

use mbb_bigraph::graph::{sorted_contains_all, sorted_intersection, BipartiteGraph, Vertex};
use mbb_bigraph::two_hop::n2_neighbors;
use mbb_core::enumerate::{EnumConfig, EnumOutcome, MaximalBiclique};

/// Enumerates every maximal biclique (both sides non-empty) exactly once,
/// routing each through the minimum-degree-rank vertex of its left side.
/// Must list the same set as `mbb_core::enumerate::enumerate_budgeted`.
pub fn visit_maximal_bicliques_scoped<F>(
    graph: &BipartiteGraph,
    config: &EnumConfig,
    mut visit: F,
) -> EnumOutcome
where
    F: FnMut(&MaximalBiclique) -> ControlFlow<()>,
{
    let nl = graph.num_left();

    // Fixed total order: non-decreasing degree (small scopes first), ties
    // by index. rank[u] = position of u in the order.
    let mut roots: Vec<u32> = (0..nl as u32).collect();
    roots.sort_by_key(|&u| (graph.degree_left(u), u));
    let mut rank = vec![0u32; nl];
    for (i, &u) in roots.iter().enumerate() {
        rank[u as usize] = i as u32;
    }

    let mut state = ScopedState {
        graph,
        config: *config,
        rank: &rank,
        reported: 0,
        visited: 0,
        stopped: false,
    };
    for &root in &roots {
        if state.stopped {
            break;
        }
        if graph.degree_left(root) == 0 {
            continue;
        }
        state.enumerate_root(root, &mut visit);
    }
    EnumOutcome {
        reported: state.reported,
        visited: state.visited,
        complete: !state.stopped,
    }
}

/// Enumerates the maximal bicliques whose left side *contains* `root`
/// (not only those where it is minimal): scope = `{root} ∪ N2(root)`,
/// right side ⊆ `N(root)`.
pub fn enumerate_through_vertex<F>(
    graph: &BipartiteGraph,
    root: u32,
    config: &EnumConfig,
    mut visit: F,
) -> EnumOutcome
where
    F: FnMut(&MaximalBiclique) -> ControlFlow<()>,
{
    // Rank everything above the root so no candidate is filtered: the
    // "minimal member" restriction disappears and every biclique through
    // the root is enumerated once (consensus expansion stays duplicate-free
    // within a single root call).
    let mut rank = vec![1u32; graph.num_left()];
    rank[root as usize] = 0;
    let mut state = ScopedState {
        graph,
        config: *config,
        rank: &rank,
        reported: 0,
        visited: 0,
        stopped: false,
    };
    if graph.degree_left(root) > 0 {
        state.enumerate_root(root, &mut visit);
    }
    EnumOutcome {
        reported: state.reported,
        visited: state.visited,
        complete: !state.stopped,
    }
}

struct ScopedState<'g> {
    graph: &'g BipartiteGraph,
    config: EnumConfig,
    rank: &'g [u32],
    reported: u64,
    visited: u64,
    stopped: bool,
}

impl ScopedState<'_> {
    /// Enumerates the maximal bicliques whose left side contains `root`
    /// and otherwise only vertices ranked strictly above it.
    fn enumerate_root<F>(&mut self, root: u32, visit: &mut F)
    where
        F: FnMut(&MaximalBiclique) -> ControlFlow<()>,
    {
        // Scope: higher-ranked left 2-hop neighbours of the root.
        let root_rank = self.rank[root as usize];
        let scope: Vec<u32> = n2_neighbors(self.graph, Vertex::left(root))
            .into_iter()
            .filter(|&w| self.rank[w as usize] > root_rank)
            .collect();

        // Within the root's scope, run consensus expansion over *left*
        // candidates: left = {root} (+ chosen), right = common
        // neighbourhood. Lower-ranked outside-scope vertices may still
        // appear in a closure; the maximality check handles them via the
        // full-graph closure test below.
        let right0: Vec<u32> = self.graph.neighbors_left(root).to_vec();
        self.expand(root, vec![root], right0, &scope, &[], visit);
    }

    /// `left` is the chosen left set (root first), `right` its exact
    /// common neighbourhood. `cand`/`excluded` partition the scope
    /// vertices that can still shrink `right` without emptying it.
    #[allow(clippy::too_many_arguments)]
    fn expand<F>(
        &mut self,
        root: u32,
        left: Vec<u32>,
        right: Vec<u32>,
        cand: &[u32],
        excluded: &[u32],
        visit: &mut F,
    ) where
        F: FnMut(&MaximalBiclique) -> ControlFlow<()>,
    {
        // Close the left side over the whole graph: every left vertex
        // adjacent to all of `right`. The closure decides both maximality
        // and ownership (the root must be the scope's representative:
        // no closure member may outrank... i.e. underrank the root).
        let closure: Vec<u32> = (0..self.graph.num_left() as u32)
            .filter(|&u| sorted_contains_all(self.graph.neighbors_left(u), &right))
            .collect();
        let owned = closure
            .iter()
            .all(|&u| self.rank[u as usize] >= self.rank[root as usize]);

        if owned {
            // (closure, right) is left-closed; it is a maximal biclique iff
            // no right vertex outside `right` is adjacent to all of the
            // closure — equivalently, no excluded/candidate/other vertex
            // survives. Check against the whole right side for safety.
            let right_closed = (0..self.graph.num_right() as u32)
                .filter(|v| right.binary_search(v).is_err())
                .all(|v| !sorted_contains_all(self.graph.neighbors_right(v), &closure));
            if right_closed {
                self.visited += 1;
                if closure.len() >= self.config.min_left && right.len() >= self.config.min_right {
                    let found = MaximalBiclique {
                        left: closure.clone(),
                        right: right.clone(),
                    };
                    self.reported += 1;
                    if visit(&found) == ControlFlow::Break(())
                        || self
                            .config
                            .max_results
                            .is_some_and(|limit| self.reported >= limit)
                    {
                        self.stopped = true;
                        return;
                    }
                }
            }
        }

        // Branch: add each scope candidate in turn (consensus expansion
        // over the left side; shrinking `right` de-duplicates via the
        // excluded check).
        let mut excluded = excluded.to_vec();
        for (i, &w) in cand.iter().enumerate() {
            if self.stopped {
                return;
            }
            let new_right = sorted_intersection(&right, self.graph.neighbors_left(w));
            if new_right.is_empty() || new_right.len() == right.len() {
                // Same closure (w is already in it) or empty: no new
                // biclique below this branch.
                continue;
            }
            // Duplicate suppression: if an excluded vertex keeps its full
            // adjacency under new_right, this sub-biclique was enumerated
            // when that vertex was chosen.
            let dominated = excluded
                .iter()
                .any(|&q| sorted_contains_all(self.graph.neighbors_left(q), &new_right));
            if dominated {
                excluded.push(w);
                continue;
            }
            let mut new_left = left.clone();
            new_left.push(w);
            let rest: Vec<u32> = cand[i + 1..].to_vec();
            self.expand(root, new_left, new_right, &rest, &excluded, visit);
            excluded.push(w);
        }
    }
}

/// Collects [`visit_maximal_bicliques_scoped`] into a vector, like
/// `mbb_core::enumerate::all_maximal_bicliques`.
pub fn all_maximal_bicliques_scoped(
    graph: &BipartiteGraph,
    config: &EnumConfig,
) -> (Vec<MaximalBiclique>, bool) {
    let mut out = Vec::new();
    let outcome = visit_maximal_bicliques_scoped(graph, config, |b| {
        out.push(b.clone());
        ControlFlow::Continue(())
    });
    (out, outcome.complete)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbb_bigraph::generators;
    use mbb_core::enumerate::all_maximal_bicliques;
    use std::collections::HashSet;

    fn as_set(bicliques: &[MaximalBiclique]) -> HashSet<(Vec<u32>, Vec<u32>)> {
        bicliques
            .iter()
            .map(|b| (b.left.clone(), b.right.clone()))
            .collect()
    }

    #[test]
    fn agrees_with_consensus_enumerator_on_random_graphs() {
        for seed in 0..25u64 {
            let g = generators::uniform_edges(9, 9, 32, seed);
            let (consensus, c1) = all_maximal_bicliques(&g, &EnumConfig::default());
            let (scoped, c2) = all_maximal_bicliques_scoped(&g, &EnumConfig::default());
            assert!(c1 && c2);
            assert_eq!(scoped.len(), consensus.len(), "count mismatch, seed {seed}");
            assert_eq!(as_set(&scoped), as_set(&consensus), "seed {seed}");
        }
    }

    #[test]
    fn agrees_on_asymmetric_and_dense_graphs() {
        for seed in 0..8u64 {
            let g = generators::uniform_edges(4, 12, 30, seed ^ 0x9);
            let (a, _) = all_maximal_bicliques(&g, &EnumConfig::default());
            let (b, _) = all_maximal_bicliques_scoped(&g, &EnumConfig::default());
            assert_eq!(as_set(&a), as_set(&b), "seed {seed}");
            let g = generators::dense_uniform(7, 7, 0.75, seed);
            let (a, _) = all_maximal_bicliques(&g, &EnumConfig::default());
            let (b, _) = all_maximal_bicliques_scoped(&g, &EnumConfig::default());
            assert_eq!(as_set(&a), as_set(&b), "dense seed {seed}");
        }
    }

    #[test]
    fn no_duplicates() {
        for seed in 0..10u64 {
            let g = generators::uniform_edges(10, 10, 45, seed);
            let (scoped, _) = all_maximal_bicliques_scoped(&g, &EnumConfig::default());
            assert_eq!(as_set(&scoped).len(), scoped.len(), "seed {seed}");
        }
    }

    #[test]
    fn through_vertex_finds_all_bicliques_containing_it() {
        for seed in 0..10u64 {
            let g = generators::uniform_edges(8, 8, 30, seed);
            let (all, _) = all_maximal_bicliques(&g, &EnumConfig::default());
            for root in 0..8u32 {
                let mut through = Vec::new();
                enumerate_through_vertex(&g, root, &EnumConfig::default(), |b| {
                    through.push(b.clone());
                    ControlFlow::Continue(())
                });
                let expected: HashSet<_> = all
                    .iter()
                    .filter(|b| b.left.contains(&root))
                    .map(|b| (b.left.clone(), b.right.clone()))
                    .collect();
                assert_eq!(as_set(&through), expected, "seed {seed} root {root}");
            }
        }
    }

    #[test]
    fn size_filters_and_limits_apply() {
        let g = generators::uniform_edges(9, 9, 36, 4);
        let config = EnumConfig {
            min_left: 2,
            min_right: 2,
            ..EnumConfig::default()
        };
        let (filtered, _) = all_maximal_bicliques_scoped(&g, &config);
        assert!(filtered
            .iter()
            .all(|b| b.left.len() >= 2 && b.right.len() >= 2));
        let config = EnumConfig {
            max_results: Some(2),
            ..EnumConfig::default()
        };
        let (some, complete) = all_maximal_bicliques_scoped(&g, &config);
        assert_eq!(some.len(), 2);
        assert!(!complete);
    }

    #[test]
    fn empty_and_star_graphs() {
        let g = mbb_bigraph::graph::BipartiteGraph::from_edges(3, 3, []).unwrap();
        let (all, _) = all_maximal_bicliques_scoped(&g, &EnumConfig::default());
        assert!(all.is_empty());
        let star =
            mbb_bigraph::graph::BipartiteGraph::from_edges(1, 5, (0..5).map(|v| (0, v))).unwrap();
        let (all, _) = all_maximal_bicliques_scoped(&star, &EnumConfig::default());
        assert_eq!(all.len(), 1);
    }
}

//! Top-k balanced biclique search.
//!
//! Applications rarely want just *one* optimum: defect-tolerant chip
//! mapping wants several alternative fabrics, biclustering wants the k
//! strongest biclusters. This module ranks maximal bicliques by the size
//! of the balanced biclique they contain — `min(|A|, |B|)` descending,
//! ties broken by total size, then lexicographically for determinism —
//! and returns the best `k`.
//!
//! The search reuses the maximal-biclique enumerator with a *dynamic
//! floor*: once `k` results are in hand, branches that cannot reach the
//! current k-th best balanced size are pruned, which makes top-k far
//! cheaper than full enumeration on graphs with many small maximal
//! bicliques.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::ControlFlow;
use std::rc::Rc;

use mbb_bigraph::graph::BipartiteGraph;

use crate::budget::SearchBudget;
use crate::enumerate::{enumerate_with_floor, EnumConfig, MaximalBiclique};

/// Ranking key: balanced size first, then total size, then the vertex
/// lists (smaller lexicographic wins ties so output is deterministic).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Ranked {
    biclique: MaximalBiclique,
}

impl Ranked {
    fn key(&self) -> (usize, usize, Reverse<&[u32]>, Reverse<&[u32]>) {
        (
            self.biclique.balanced_size(),
            self.biclique.total_size(),
            Reverse(self.biclique.left.as_slice()),
            Reverse(self.biclique.right.as_slice()),
        )
    }
}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Result of a top-k search.
#[derive(Debug, Clone)]
pub struct TopkOutcome {
    /// The best maximal bicliques, sorted best-first.
    pub bicliques: Vec<MaximalBiclique>,
    /// False when the search stopped on its time budget, in which case
    /// `bicliques` is the best of what was seen, not a guaranteed top-k.
    pub complete: bool,
}

/// Finds the `k` maximal bicliques with the largest balanced size
/// (`min(|A|, |B|)`, ties by total size) under a shared [`SearchBudget`];
/// the search behind [`MbbEngine::topk`](crate::engine::MbbEngine::topk).
/// Fewer than `k` are returned when the graph has fewer maximal
/// bicliques. An exhausted budget yields the best of what was seen
/// (`complete: false`).
///
/// ```
/// use mbb_bigraph::graph::BipartiteGraph;
/// use mbb_core::budget::SearchBudget;
/// use mbb_core::topk::topk_budgeted;
///
/// // A 3×3 block on {0,1,2} plus a pendant edge (3, 3).
/// let mut edges: Vec<(u32, u32)> = (0..3).flat_map(|u| (0..3).map(move |v| (u, v))).collect();
/// edges.push((3, 3));
/// let g = BipartiteGraph::from_edges(4, 4, edges)?;
/// let top = topk_budgeted(&g, 2, &SearchBudget::unlimited());
/// assert!(top.complete);
/// assert_eq!(top.bicliques[0].balanced_size(), 3); // the block
/// assert_eq!(top.bicliques[1].balanced_size(), 1); // the pendant edge
/// # Ok::<(), mbb_bigraph::graph::GraphError>(())
/// ```
pub fn topk_budgeted(graph: &BipartiteGraph, k: usize, budget: &SearchBudget) -> TopkOutcome {
    if k == 0 {
        return TopkOutcome {
            bicliques: Vec::new(),
            complete: true,
        };
    }
    let floor = Rc::new(Cell::new(0usize));
    // Min-heap of the current best k (Reverse flips the ordering).
    let mut heap: BinaryHeap<Reverse<Ranked>> = BinaryHeap::with_capacity(k + 1);
    let config = EnumConfig::default();
    let outcome = enumerate_with_floor(graph, &config, budget, Some(Rc::clone(&floor)), |b| {
        heap.push(Reverse(Ranked {
            biclique: b.clone(),
        }));
        if heap.len() > k {
            heap.pop();
        }
        if heap.len() == k {
            // Branches that cannot tie the current k-th best balanced size
            // can never displace it (ties are explored, not pruned, so a
            // same-size biclique with a better tiebreak still surfaces).
            let kth = heap.peek().expect("heap full").0.biclique.balanced_size();
            floor.set(kth);
        }
        ControlFlow::Continue(())
    });
    let mut ranked: Vec<Ranked> = heap.into_iter().map(|r| r.0).collect();
    ranked.sort_by(|x, y| y.cmp(x));
    TopkOutcome {
        bicliques: ranked.into_iter().map(|r| r.biclique).collect(),
        complete: outcome.complete,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MbbEngine;
    use crate::enumerate::all_maximal_bicliques;
    use mbb_bigraph::generators;

    /// Reference: full enumeration, same ranking, truncate to k.
    fn brute_topk(graph: &BipartiteGraph, k: usize) -> Vec<MaximalBiclique> {
        let (all, complete) = all_maximal_bicliques(graph, &EnumConfig::default());
        assert!(complete);
        let mut ranked: Vec<Ranked> = all
            .into_iter()
            .map(|biclique| Ranked { biclique })
            .collect();
        ranked.sort_by(|x, y| y.cmp(x));
        ranked.truncate(k);
        ranked.into_iter().map(|r| r.biclique).collect()
    }

    #[test]
    fn matches_full_enumeration_ranking() {
        for seed in 0..20u64 {
            let g = generators::uniform_edges(9, 9, 35, seed);
            for k in [1usize, 2, 5] {
                let got = topk_budgeted(&g, k, &SearchBudget::unlimited());
                assert!(got.complete, "seed {seed} k {k}");
                assert_eq!(got.bicliques, brute_topk(&g, k), "seed {seed} k {k}");
            }
        }
    }

    #[test]
    fn top1_matches_exact_mbb() {
        for seed in 0..15u64 {
            let g = generators::uniform_edges(10, 10, 40, seed ^ 0x5u64);
            let top = topk_budgeted(&g, 1, &SearchBudget::unlimited());
            let mbb = MbbEngine::new(g.clone()).solve().value;
            let top_half = top.bicliques.first().map_or(0, |b| b.balanced_size());
            assert_eq!(top_half, mbb.half_size(), "seed {seed}");
        }
    }

    #[test]
    fn k_zero_returns_nothing() {
        let g = generators::complete(3, 3);
        let out = topk_budgeted(&g, 0, &SearchBudget::unlimited());
        assert!(out.bicliques.is_empty());
        assert!(out.complete);
    }

    #[test]
    fn k_larger_than_count_returns_all() {
        let g = BipartiteGraph::from_edges(3, 3, [(0, 0), (1, 1), (2, 2)]).unwrap();
        let out = topk_budgeted(&g, 10, &SearchBudget::unlimited());
        assert_eq!(out.bicliques.len(), 3);
        assert!(out.complete);
    }

    #[test]
    fn results_are_sorted_best_first() {
        let g = generators::uniform_edges(10, 10, 45, 7);
        let out = topk_budgeted(&g, 6, &SearchBudget::unlimited());
        for w in out.bicliques.windows(2) {
            let a = (w[0].balanced_size(), w[0].total_size());
            let b = (w[1].balanced_size(), w[1].total_size());
            assert!(a >= b, "{a:?} before {b:?}");
        }
    }

    #[test]
    fn empty_graph() {
        let g = BipartiteGraph::from_edges(4, 4, []).unwrap();
        let out = topk_budgeted(&g, 3, &SearchBudget::unlimited());
        assert!(out.bicliques.is_empty());
        assert!(out.complete);
    }

    #[test]
    fn floor_pruning_never_loses_a_winner() {
        // Dense-ish graphs stress the floor logic: compare against the
        // unpruned reference on every seed.
        for seed in 100..115u64 {
            let g = generators::dense_uniform(8, 8, 0.7, seed);
            let got = topk_budgeted(&g, 3, &SearchBudget::unlimited());
            assert_eq!(got.bicliques, brute_topk(&g, 3), "seed {seed}");
        }
    }
}

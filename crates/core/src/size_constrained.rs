//! The size-constrained `(a, b)`-biclique problem (§4.2 of the paper).
//!
//! *Given `G` and integers `(a, b)`, decide whether `G` contains a biclique
//! `(A, B)` with `|A| ≥ a` and `|B| ≥ b`* — and produce a witness. The
//! paper uses the notion analytically (maximal `(a, b)` instances inside
//! the polynomial case); this module exposes it as a standalone query,
//! solved by side-aware peeling followed by branch and bound.

use mbb_bigraph::bitset::BitSet;
use mbb_bigraph::graph::BipartiteGraph;
use mbb_bigraph::local::LocalGraph;
use mbb_bigraph::subgraph::{induce_by_mask, InducedSubgraph};

use crate::budget::SearchBudget;

/// A witness for an `(a, b)`-biclique query: `left.len() ≥ a`,
/// `right.len() ≥ b`, complete between the sides.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SizeConstrainedBiclique {
    /// Left vertices (original graph ids, sorted).
    pub left: Vec<u32>,
    /// Right vertices.
    pub right: Vec<u32>,
}

/// Side-aware peeling: keep left vertices of degree ≥ `b` and right
/// vertices of degree ≥ `a`, to fixpoint. Every `(a, b)`-biclique survives.
fn peel(graph: &BipartiteGraph, a: usize, b: usize) -> InducedSubgraph {
    let mut keep_left: Vec<bool> = (0..graph.num_left() as u32)
        .map(|u| graph.degree_left(u) >= b)
        .collect();
    let mut keep_right: Vec<bool> = (0..graph.num_right() as u32)
        .map(|v| graph.degree_right(v) >= a)
        .collect();
    loop {
        let mut changed = false;
        for u in 0..graph.num_left() as u32 {
            if !keep_left[u as usize] {
                continue;
            }
            let degree = graph
                .neighbors_left(u)
                .iter()
                .filter(|&&v| keep_right[v as usize])
                .count();
            if degree < b {
                keep_left[u as usize] = false;
                changed = true;
            }
        }
        for v in 0..graph.num_right() as u32 {
            if !keep_right[v as usize] {
                continue;
            }
            let degree = graph
                .neighbors_right(v)
                .iter()
                .filter(|&&u| keep_left[u as usize])
                .count();
            if degree < a {
                keep_right[v as usize] = false;
                changed = true;
            }
        }
        if !changed {
            return induce_by_mask(graph, &keep_left, &keep_right);
        }
    }
}

/// Decides the `(a, b)`-biclique problem under a [`SearchBudget`] and
/// returns a witness when one exists. On exhaustion the query returns
/// `None` without having certified infeasibility — the engine's
/// [`Termination`](crate::budget::Termination) distinguishes the two
/// cases.
///
/// `(0, b)` and `(a, 0)` queries are answered by side sizes alone (an empty
/// side imposes no completeness constraint).
///
/// ```
/// use mbb_bigraph::generators::complete;
/// use mbb_core::budget::SearchBudget;
/// use mbb_core::size_constrained::find_size_constrained_budgeted;
/// let g = complete(3, 5);
/// let budget = SearchBudget::unlimited();
/// assert!(find_size_constrained_budgeted(&g, 3, 5, &budget).is_some());
/// assert!(find_size_constrained_budgeted(&g, 4, 1, &budget).is_none());
/// ```
pub fn find_size_constrained_budgeted(
    graph: &BipartiteGraph,
    a: usize,
    b: usize,
    budget: &SearchBudget,
) -> Option<SizeConstrainedBiclique> {
    if a == 0 || b == 0 {
        // One side empty: any `max(a, …)` vertices of the non-empty side do.
        if a == 0 && graph.num_right() >= b {
            return Some(SizeConstrainedBiclique {
                left: Vec::new(),
                right: (0..b as u32).collect(),
            });
        }
        if b == 0 && graph.num_left() >= a {
            return Some(SizeConstrainedBiclique {
                left: (0..a as u32).collect(),
                right: Vec::new(),
            });
        }
        return None;
    }

    let reduced = peel(graph, a, b);
    if reduced.graph.num_left() < a || reduced.graph.num_right() < b {
        return None;
    }
    let left_ids: Vec<u32> = (0..reduced.graph.num_left() as u32).collect();
    let right_ids: Vec<u32> = (0..reduced.graph.num_right() as u32).collect();
    let local = LocalGraph::induced(&reduced.graph, &left_ids, &right_ids);

    let mut chosen: Vec<u32> = Vec::new();
    let candidates: Vec<u32> = {
        // Degree-descending candidate order finds witnesses early.
        let mut c: Vec<u32> = left_ids.clone();
        c.sort_by_key(|&u| std::cmp::Reverse(reduced.graph.degree_left(u)));
        c
    };
    let common = BitSet::full(local.num_right());
    let mut budget = budget.clone();
    let witness = search(&local, &mut chosen, &common, &candidates, a, b, &mut budget)?;
    let (left_local, right_local) = witness;
    let mut left: Vec<u32> = left_local.iter().map(|&u| reduced.parent_left(u)).collect();
    let mut right: Vec<u32> = right_local
        .iter()
        .map(|&v| reduced.parent_right(v))
        .collect();
    left.sort_unstable();
    right.sort_unstable();
    debug_assert!(graph.is_biclique(&left, &right));
    Some(SizeConstrainedBiclique { left, right })
}

/// DFS over left subsets, keeping the common right-neighbourhood; stops at
/// the first witness.
#[allow(clippy::too_many_arguments)] // internal DFS state
fn search(
    local: &LocalGraph,
    chosen: &mut Vec<u32>,
    common: &BitSet,
    candidates: &[u32],
    a: usize,
    b: usize,
    budget: &mut SearchBudget,
) -> Option<(Vec<u32>, Vec<u32>)> {
    if budget.is_exhausted() {
        return None;
    }
    if chosen.len() >= a && common.len() >= b {
        return Some((chosen.clone(), common.to_vec()[..b].to_vec()));
    }
    if chosen.len() + candidates.len() < a || common.len() < b {
        return None;
    }
    for (i, &u) in candidates.iter().enumerate() {
        let mut next = common.clone();
        // Fused include step: one AND + popcount pass gives the new size.
        if next.and_assign_count(&local.left_row(u)) < b {
            continue;
        }
        chosen.push(u);
        if let Some(found) = search(local, chosen, &next, &candidates[i + 1..], a, b, budget) {
            return Some(found);
        }
        chosen.pop();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbb_bigraph::generators;

    /// Brute-force decision over left subsets.
    fn brute_decide(graph: &BipartiteGraph, a: usize, b: usize) -> bool {
        if a == 0 || b == 0 {
            return (a == 0 && graph.num_right() >= b) || (b == 0 && graph.num_left() >= a);
        }
        let nl = graph.num_left();
        for mask in 0u32..(1 << nl) {
            if (mask.count_ones() as usize) < a {
                continue;
            }
            let mut common: Option<Vec<u32>> = None;
            for u in 0..nl as u32 {
                if mask >> u & 1 == 1 {
                    let n = graph.neighbors_left(u);
                    common = Some(match common {
                        None => n.to_vec(),
                        Some(c) => mbb_bigraph::graph::sorted_intersection(&c, n),
                    });
                }
            }
            if common.is_some_and(|c| c.len() >= b) {
                return true;
            }
        }
        false
    }

    #[test]
    fn matches_brute_force_decision() {
        for seed in 0..10u64 {
            let g = generators::uniform_edges(8, 8, 35, seed);
            for a in 0..=4usize {
                for b in 0..=4usize {
                    let found =
                        find_size_constrained_budgeted(&g, a, b, &SearchBudget::unlimited());
                    assert_eq!(
                        found.is_some(),
                        brute_decide(&g, a, b),
                        "seed {seed} ({a},{b})"
                    );
                    if let Some(w) = found {
                        assert!(w.left.len() >= a);
                        assert!(w.right.len() >= b);
                        assert!(g.is_biclique(&w.left, &w.right), "seed {seed} ({a},{b})");
                    }
                }
            }
        }
    }

    #[test]
    fn zero_sided_queries() {
        let g = generators::uniform_edges(5, 7, 12, 1);
        let w = find_size_constrained_budgeted(&g, 0, 6, &SearchBudget::unlimited()).unwrap();
        assert_eq!(w.right.len(), 6);
        assert!(w.left.is_empty());
        let w = find_size_constrained_budgeted(&g, 5, 0, &SearchBudget::unlimited()).unwrap();
        assert_eq!(w.left.len(), 5);
        assert!(find_size_constrained_budgeted(&g, 0, 8, &SearchBudget::unlimited()).is_none());
        assert!(find_size_constrained_budgeted(&g, 6, 0, &SearchBudget::unlimited()).is_none());
    }

    #[test]
    fn complete_graph_answers_everything() {
        let g = generators::complete(4, 5);
        assert!(find_size_constrained_budgeted(&g, 4, 5, &SearchBudget::unlimited()).is_some());
        assert!(find_size_constrained_budgeted(&g, 4, 6, &SearchBudget::unlimited()).is_none());
        assert!(find_size_constrained_budgeted(&g, 1, 1, &SearchBudget::unlimited()).is_some());
    }

    #[test]
    fn unbalanced_witness_in_star() {
        let g = BipartiteGraph::from_edges(1, 20, (0..20).map(|v| (0, v))).unwrap();
        let w = find_size_constrained_budgeted(&g, 1, 20, &SearchBudget::unlimited()).unwrap();
        assert_eq!(w.left, vec![0]);
        assert_eq!(w.right.len(), 20);
        assert!(find_size_constrained_budgeted(&g, 2, 1, &SearchBudget::unlimited()).is_none());
    }

    #[test]
    fn peeling_preserves_witnesses_on_planted_instances() {
        let g = generators::uniform_edges(40, 40, 120, 5);
        let (planted, _, _) = generators::plant_balanced_biclique(&g, 6);
        let w = find_size_constrained_budgeted(&planted, 6, 6, &SearchBudget::unlimited()).unwrap();
        assert!(planted.is_biclique(&w.left, &w.right));
    }
}

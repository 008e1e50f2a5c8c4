//! Vertex-weighted maximum balanced biclique (an extension beyond the
//! paper).
//!
//! Every vertex carries a non-negative weight and the objective becomes
//! the total weight of `A ∪ B` subject to `|A| = |B|` and completeness.
//! With unit weights this is exactly the MBB problem; with non-uniform
//! weights it models prioritised defect-tolerance (cells with different
//! yields) and scored biclustering (genes with differential expression
//! strength).
//!
//! The solver is a branch-and-bound over a [`LocalGraph`]: at every node
//! the best *balanced sub-selection* of the current biclique is scored
//! (take the `min(|A|, |B|)` heaviest vertices of each side — optimal
//! because weights are non-negative), and branches are pruned with an
//! edge-blind relaxation (the heaviest reachable balanced selection if
//! every remaining candidate were compatible). Exact, intended for the
//! same graph sizes as `denseMBB` (whole dense inputs or vertex-centred
//! subgraphs, up to a few hundred vertices per side).

use mbb_bigraph::bitset::BitSet;
use mbb_bigraph::graph::BipartiteGraph;
use mbb_bigraph::local::LocalGraph;

use crate::budget::SearchBudget;
use crate::stats::SearchStats;

/// Result of a weighted search: the witness and its total weight. Indices
/// are in the ids of the graph the search ran on (local indices for
/// [`weighted_mbb_local_budgeted`], original side ids for the graph-level
/// [`weighted_mbb_budgeted`] — which induces the identity local graph, so
/// the two coincide there).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WeightedBiclique {
    /// Left vertex indices, sorted.
    pub left: Vec<u32>,
    /// Right vertex indices, sorted; same length as `left`.
    pub right: Vec<u32>,
    /// `Σ w(v)` over both sides.
    pub weight: u64,
}

/// Exact weighted MBB over a local graph under a [`SearchBudget`]: returns
/// the heaviest balanced biclique found before the budget expired.
/// `left_weights` / `right_weights` must match the side sizes.
///
/// ```
/// use mbb_bigraph::local::LocalGraph;
/// use mbb_core::budget::SearchBudget;
/// use mbb_core::weighted::weighted_mbb_local_budgeted;
///
/// // Two disjoint edges: (0,0) weighs 1+1, (1,1) weighs 10+10.
/// let g = LocalGraph::from_edges(2, 2, [(0, 0), (1, 1)]);
/// let budget = SearchBudget::unlimited();
/// let (best, _) = weighted_mbb_local_budgeted(&g, &[1, 10], &[1, 10], &budget);
/// assert_eq!(best.weight, 20);
/// assert_eq!(best.left, vec![1]);
/// ```
pub fn weighted_mbb_local_budgeted(
    graph: &LocalGraph,
    left_weights: &[u64],
    right_weights: &[u64],
    budget: &SearchBudget,
) -> (WeightedBiclique, SearchStats) {
    assert_eq!(left_weights.len(), graph.num_left(), "left weight count");
    assert_eq!(right_weights.len(), graph.num_right(), "right weight count");
    let mut searcher = WeightedSearcher {
        graph,
        left_weights,
        right_weights,
        best: WeightedBiclique::default(),
        stats: SearchStats::default(),
        budget: budget.clone(),
    };
    searcher.recurse(
        &mut Vec::new(),
        &mut Vec::new(),
        BitSet::full(graph.num_left()),
        BitSet::full(graph.num_right()),
        0,
    );
    let stats = searcher.stats;
    (searcher.best, stats)
}

/// The graph-level weighted search behind
/// [`MbbEngine::weighted`](crate::engine::MbbEngine::weighted). Weights
/// are indexed by global id (left vertices first, then right); the
/// returned [`WeightedBiclique`] is in original side ids. Materialises
/// the full adjacency as a bitset local graph, so intended for graphs up
/// to a few thousand vertices per side.
pub fn weighted_mbb_budgeted(
    graph: &BipartiteGraph,
    weights: &[u64],
    budget: &SearchBudget,
) -> (WeightedBiclique, SearchStats) {
    assert_eq!(weights.len(), graph.num_vertices(), "one weight per vertex");
    let left_ids: Vec<u32> = (0..graph.num_left() as u32).collect();
    let right_ids: Vec<u32> = (0..graph.num_right() as u32).collect();
    let local = LocalGraph::induced(graph, &left_ids, &right_ids);
    let (lw, rw) = weights.split_at(graph.num_left());
    weighted_mbb_local_budgeted(&local, lw, rw, budget)
}

struct WeightedSearcher<'g> {
    graph: &'g LocalGraph,
    left_weights: &'g [u64],
    right_weights: &'g [u64],
    best: WeightedBiclique,
    stats: SearchStats,
    budget: SearchBudget,
}

impl WeightedSearcher<'_> {
    /// Best balanced selection from fixed sides `a`, `b`: the k heaviest
    /// of each where `k = min(|a|, |b|)` — optimal for weights ≥ 0.
    fn record(&mut self, a: &[u32], b: &[u32]) {
        let k = a.len().min(b.len());
        if k == 0 {
            return;
        }
        let mut left: Vec<u32> = a.to_vec();
        let mut right: Vec<u32> = b.to_vec();
        left.sort_by_key(|&u| std::cmp::Reverse(self.left_weights[u as usize]));
        right.sort_by_key(|&v| std::cmp::Reverse(self.right_weights[v as usize]));
        left.truncate(k);
        right.truncate(k);
        let weight = left
            .iter()
            .map(|&u| self.left_weights[u as usize])
            .chain(right.iter().map(|&v| self.right_weights[v as usize]))
            .fold(0u64, u64::saturating_add);
        if weight > self.best.weight {
            left.sort_unstable();
            right.sort_unstable();
            self.best = WeightedBiclique {
                left,
                right,
                weight,
            };
        }
    }

    /// Edge-blind bound: the heaviest balanced selection from
    /// `(a ∪ ca, b ∪ cb)` assuming full compatibility.
    fn upper_bound(&self, a: &[u32], b: &[u32], ca: &BitSet, cb: &BitSet) -> u64 {
        let mut lw: Vec<u64> = a
            .iter()
            .map(|&u| self.left_weights[u as usize])
            .chain(ca.iter().map(|u| self.left_weights[u]))
            .collect();
        let mut rw: Vec<u64> = b
            .iter()
            .map(|&v| self.right_weights[v as usize])
            .chain(cb.iter().map(|v| self.right_weights[v]))
            .collect();
        let k = lw.len().min(rw.len());
        lw.sort_unstable_by_key(|&w| std::cmp::Reverse(w));
        rw.sort_unstable_by_key(|&w| std::cmp::Reverse(w));
        lw[..k]
            .iter()
            .chain(rw[..k].iter())
            .fold(0u64, |acc, &w| acc.saturating_add(w))
    }

    fn recurse(
        &mut self,
        a: &mut Vec<u32>,
        b: &mut Vec<u32>,
        mut ca: BitSet,
        mut cb: BitSet,
        mut depth: u64,
    ) {
        loop {
            self.stats.nodes += 1;
            self.stats.max_depth = self.stats.max_depth.max(depth);
            if self.budget.is_exhausted() {
                return;
            }
            self.record(a, b);

            if self.upper_bound(a, b, &ca, &cb) <= self.best.weight {
                self.stats.bound_prunes += 1;
                return;
            }

            // Branch on the heaviest candidate (most likely to appear in a
            // heavy solution, tightening the bound early). Prefer the side
            // with fewer fixed vertices to keep the selection near-balanced.
            let pick_left = match (ca.is_empty(), cb.is_empty()) {
                (true, true) => return,
                (false, true) => true,
                (true, false) => false,
                (false, false) => a.len() <= b.len(),
            };

            if pick_left {
                let u = ca
                    .iter()
                    .max_by_key(|&u| (self.left_weights[u], std::cmp::Reverse(u)))
                    .expect("ca non-empty") as u32;
                let mut ca_inc = ca.clone();
                ca_inc.remove(u as usize);
                let mut cb_inc = cb.clone();
                cb_inc.and_assign_count(&self.graph.left_row(u));
                a.push(u);
                self.recurse(a, b, ca_inc, cb_inc, depth + 1);
                a.pop();
                ca.remove(u as usize);
            } else {
                let v = cb
                    .iter()
                    .max_by_key(|&v| (self.right_weights[v], std::cmp::Reverse(v)))
                    .expect("cb non-empty") as u32;
                let mut cb_inc = cb.clone();
                cb_inc.remove(v as usize);
                let mut ca_inc = ca.clone();
                ca_inc.and_assign_count(&self.graph.right_row(v));
                b.push(v);
                self.recurse(a, b, ca_inc, cb_inc, depth + 1);
                b.pop();
                cb.remove(v as usize);
            }
            depth += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::biclique::Biclique;
    use crate::engine::MbbEngine;
    use mbb_bigraph::generators;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Brute force: every left subset, closed to its common neighbourhood,
    /// scored by the top-k weights of each side.
    fn brute_force(graph: &LocalGraph, lw: &[u64], rw: &[u64]) -> u64 {
        let nl = graph.num_left();
        assert!(nl <= 12);
        let mut best = 0u64;
        for mask in 1u32..(1 << nl) {
            let a: Vec<u32> = (0..nl as u32).filter(|u| mask >> u & 1 == 1).collect();
            let mut common = BitSet::full(graph.num_right());
            for &u in &a {
                common.intersect_with(&graph.left_row(u));
            }
            let k = a.len().min(common.len());
            if k == 0 {
                continue;
            }
            let mut aw: Vec<u64> = a.iter().map(|&u| lw[u as usize]).collect();
            let mut bw: Vec<u64> = common.iter().map(|v| rw[v]).collect();
            aw.sort_unstable_by_key(|&w| std::cmp::Reverse(w));
            bw.sort_unstable_by_key(|&w| std::cmp::Reverse(w));
            let weight: u64 = aw[..k].iter().sum::<u64>() + bw[..k].iter().sum::<u64>();
            best = best.max(weight);
        }
        best
    }

    fn random_instance(seed: u64) -> (LocalGraph, Vec<u64>, Vec<u64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let nl = rng.gen_range(1..=8usize);
        let nr = rng.gen_range(1..=8usize);
        let mut g = LocalGraph::new(nl, nr);
        for u in 0..nl as u32 {
            for v in 0..nr as u32 {
                if rng.gen_bool(0.5) {
                    g.add_edge(u, v);
                }
            }
        }
        let lw: Vec<u64> = (0..nl).map(|_| rng.gen_range(0..20)).collect();
        let rw: Vec<u64> = (0..nr).map(|_| rng.gen_range(0..20)).collect();
        (g, lw, rw)
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        for seed in 0..40u64 {
            let (g, lw, rw) = random_instance(seed);
            let (found, _) = weighted_mbb_local_budgeted(&g, &lw, &rw, &SearchBudget::unlimited());
            assert_eq!(found.weight, brute_force(&g, &lw, &rw), "seed {seed}");
            if found.weight > 0 {
                assert!(g.is_biclique(&found.left, &found.right), "seed {seed}");
                assert_eq!(found.left.len(), found.right.len());
                let check: u64 = found
                    .left
                    .iter()
                    .map(|&u| lw[u as usize])
                    .chain(found.right.iter().map(|&v| rw[v as usize]))
                    .sum();
                assert_eq!(check, found.weight, "declared weight is the real sum");
            }
        }
    }

    #[test]
    fn unit_weights_reduce_to_mbb() {
        for seed in 0..15u64 {
            let g = generators::uniform_edges(9, 9, 35, seed);
            let weights = vec![1u64; g.num_vertices()];
            let (found, _) = weighted_mbb_budgeted(&g, &weights, &SearchBudget::unlimited());
            let weight = found.weight;
            let biclique = Biclique::balanced(found.left, found.right);
            let unweighted = MbbEngine::new(g.clone()).solve().value;
            assert_eq!(weight as usize, 2 * unweighted.half_size(), "seed {seed}");
            assert!(biclique.is_valid(&g));
        }
    }

    #[test]
    fn heavy_small_beats_light_large() {
        // A light 2×2 block vs a heavy single edge.
        let mut g = LocalGraph::new(3, 3);
        for u in 0..2 {
            for v in 0..2 {
                g.add_edge(u, v);
            }
        }
        g.add_edge(2, 2);
        let lw = [1, 1, 100];
        let rw = [1, 1, 100];
        let (found, _) = weighted_mbb_local_budgeted(&g, &lw, &rw, &SearchBudget::unlimited());
        assert_eq!(found.weight, 200);
        assert_eq!(found.left, vec![2]);
    }

    #[test]
    fn zero_weights_allowed() {
        let g = LocalGraph::from_edges(2, 2, [(0, 0), (1, 1)]);
        let (found, _) =
            weighted_mbb_local_budgeted(&g, &[0, 0], &[0, 0], &SearchBudget::unlimited());
        assert_eq!(found.weight, 0);
    }

    #[test]
    fn empty_graph() {
        let g = LocalGraph::new(3, 3);
        let (found, _) =
            weighted_mbb_local_budgeted(&g, &[5, 5, 5], &[5, 5, 5], &SearchBudget::unlimited());
        assert_eq!(found.weight, 0);
        assert!(found.left.is_empty());
    }

    #[test]
    fn prefers_heavier_vertices_within_a_block() {
        // Complete 3×3; only 2×2 fits the weights' interest: all complete,
        // so the optimum is the full 3×3 with every weight.
        let g = LocalGraph::from_edges(3, 3, (0..3).flat_map(|u| (0..3).map(move |v| (u, v))));
        let (found, _) =
            weighted_mbb_local_budgeted(&g, &[3, 1, 2], &[1, 5, 1], &SearchBudget::unlimited());
        assert_eq!(found.weight, 3 + 1 + 2 + 1 + 5 + 1);
        assert_eq!(found.left.len(), 3);
    }

    #[test]
    #[should_panic(expected = "left weight count")]
    fn wrong_weight_count_panics() {
        let g = LocalGraph::new(2, 2);
        let _ = weighted_mbb_local_budgeted(&g, &[1], &[1, 1], &SearchBudget::unlimited());
    }

    #[test]
    fn graph_level_wrapper_splits_weights() {
        let g = generators::complete(2, 3);
        // Global layout: 2 left weights then 3 right weights.
        let (found, _) = weighted_mbb_budgeted(&g, &[10, 1, 1, 2, 30], &SearchBudget::unlimited());
        // Best: both left (10 + 1) + two heaviest right (30 + 2).
        assert_eq!(found.left, vec![0, 1]);
        assert_eq!(found.right, vec![1, 2]);
        assert_eq!(found.weight, 43);
    }
}

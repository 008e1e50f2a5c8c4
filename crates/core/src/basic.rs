//! `basicBB` — Algorithm 1 of the paper.
//!
//! The O*(2ⁿ) alternating enumeration that both the correctness proofs and
//! the complexity analysis of `denseMBB` build on. Each include-branch swaps
//! the roles of the two sides, so enumerated partial bicliques are always
//! near-balanced (`|A| − |B| ∈ {0, 1}` along any root path), and the simple
//! bounding condition `2·min(|A|+|CA|, |B|+|CB|) ≤ best` prunes.
//!
//! Exposed as a baseline (`mbb --algorithm basic`) and as a reference
//! oracle for `denseMBB`. The `bd3` ablation does not use it: it runs
//! `denseMBB` with the polynomial case and the max-missing branching
//! turned off.

use mbb_bigraph::bitset::BitSet;
use mbb_bigraph::local::LocalGraph;

use crate::budget::SearchBudget;
use crate::stats::SearchStats;

/// A biclique in local indices.
#[derive(Debug, Clone, Default)]
pub struct LocalBiclique {
    /// Left local indices.
    pub left: Vec<u32>,
    /// Right local indices.
    pub right: Vec<u32>,
}

impl LocalBiclique {
    /// `min(|A|, |B|)` — the balanced half-size this witness certifies.
    pub fn half(&self) -> usize {
        self.left.len().min(self.right.len())
    }

    /// Trims both sides to the half-size.
    pub fn balance(mut self) -> LocalBiclique {
        let k = self.half();
        self.left.truncate(k);
        self.right.truncate(k);
        self
    }
}

struct Searcher<'g> {
    graph: &'g LocalGraph,
    best: LocalBiclique,
    best_half: usize,
    stats: SearchStats,
    budget: SearchBudget,
}

/// Runs Algorithm 1 on a whole local graph. `initial_half` seeds the bound
/// (pass 0 when no incumbent exists); the returned biclique is balanced and
/// strictly larger than `initial_half` if one exists, empty otherwise.
///
/// The search checks `budget` at every node and returns the best so far
/// once it is exhausted.
pub fn basic_bb(
    graph: &LocalGraph,
    initial_half: usize,
    budget: &SearchBudget,
) -> (LocalBiclique, SearchStats) {
    // Entry is a coarse boundary: one unsampled probe, as in
    // `dense_mbb_graph`.
    if budget.probe() {
        return (LocalBiclique::default(), SearchStats::default());
    }
    let mut searcher = Searcher {
        graph,
        best: LocalBiclique::default(),
        best_half: initial_half,
        stats: SearchStats::default(),
        budget: budget.clone(),
    };
    let ca = BitSet::full(graph.num_left());
    let cb = BitSet::full(graph.num_right());
    // `a_is_left = true`: the (A, CA) slot starts on the left side.
    searcher.recurse(&mut Vec::new(), &mut Vec::new(), ca, cb, true, 0);
    let stats = searcher.stats;
    (searcher.best.balance(), stats)
}

impl Searcher<'_> {
    /// `a`/`ca` live on the left side iff `a_is_left`; the recursion swaps
    /// the pairs exactly as Algorithm 1 lines 7–8 do.
    fn recurse(
        &mut self,
        a: &mut Vec<u32>,
        b: &mut Vec<u32>,
        ca: BitSet,
        cb: BitSet,
        a_is_left: bool,
        depth: u64,
    ) {
        self.stats.nodes += 1;
        self.stats.max_depth = self.stats.max_depth.max(depth);
        if self.budget.is_exhausted() {
            return;
        }

        // Bounding (line 1): the reachable half-size is capped by both
        // sides' remaining material.
        let cap = (a.len() + ca.len()).min(b.len() + cb.len());
        if cap <= self.best_half {
            self.stats.bound_prunes += 1;
            self.stats.leaf_depth_sum += depth;
            self.stats.leaf_count += 1;
            return;
        }

        // Maximality check (lines 2–5).
        let Some(u) = ca.first() else {
            let half = a.len().min(b.len());
            if half > self.best_half {
                self.best_half = half;
                let (left, right) = if a_is_left {
                    (a.clone(), b.clone())
                } else {
                    (b.clone(), a.clone())
                };
                self.best = LocalBiclique { left, right };
            }
            self.stats.leaf_depth_sum += depth;
            self.stats.leaf_count += 1;
            return;
        };
        let u = u as u32;

        // Include branch (line 7): swap sides, extend the old A with u and
        // restrict the old CB to u's neighbours.
        let neighbor_row = if a_is_left {
            self.graph.left_row(u)
        } else {
            self.graph.right_row(u)
        };
        let mut new_ca = cb.clone();
        new_ca.intersect_with(&neighbor_row);
        let mut new_cb = ca.clone();
        new_cb.remove(u as usize);
        a.push(u);
        // After the swap the b-slot is the old a (now containing u).
        self.recurse(b, a, new_ca, new_cb, !a_is_left, depth + 1);
        a.pop();

        // Exclude branch (line 8).
        let mut rest = ca;
        rest.remove(u as usize);
        self.recurse(a, b, rest, cb, a_is_left, depth + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete(nl: usize, nr: usize) -> LocalGraph {
        let mut g = LocalGraph::new(nl, nr);
        for u in 0..nl as u32 {
            for v in 0..nr as u32 {
                g.add_edge(u, v);
            }
        }
        g
    }

    use crate::testutil::brute_force_half_local as brute_force_half;

    #[test]
    fn complete_graph_full_half() {
        let g = complete(4, 6);
        let (b, _) = basic_bb(&g, 0, &SearchBudget::unlimited());
        assert_eq!(b.half(), 4);
        assert!(g.is_biclique(&b.left, &b.right));
    }

    #[test]
    fn empty_graph_has_empty_result() {
        let g = LocalGraph::new(3, 3);
        let (b, _) = basic_bb(&g, 0, &SearchBudget::unlimited());
        assert_eq!(b.half(), 0);
    }

    #[test]
    fn single_edge() {
        let g = LocalGraph::from_edges(2, 2, [(1, 1)]);
        let (b, _) = basic_bb(&g, 0, &SearchBudget::unlimited());
        assert_eq!(b.half(), 1);
        assert_eq!(b.left, vec![1]);
        assert_eq!(b.right, vec![1]);
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..30u64 {
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
            let (found, _) = basic_bb(&g, 0, &SearchBudget::unlimited());
            assert_eq!(found.half(), brute_force_half(&g), "seed {seed}");
            assert!(g.is_biclique(&found.left, &found.right), "seed {seed}");
        }
    }

    #[test]
    fn initial_bound_filters_non_improving_results() {
        let g = complete(2, 2);
        // The graph's optimum half is 2; with initial_half = 2 nothing
        // strictly better exists, so the result is empty.
        let (b, _) = basic_bb(&g, 2, &SearchBudget::unlimited());
        assert_eq!(b.half(), 0);
        // With initial_half = 1 the full 2x2 is found.
        let (b, _) = basic_bb(&g, 1, &SearchBudget::unlimited());
        assert_eq!(b.half(), 2);
    }

    #[test]
    fn stats_count_nodes() {
        let g = complete(3, 3);
        let (_, stats) = basic_bb(&g, 0, &SearchBudget::unlimited());
        assert!(stats.nodes > 0);
        assert!(stats.leaf_count > 0);
        assert!(stats.max_depth > 0);
    }
}

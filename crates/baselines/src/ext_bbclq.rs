//! `extBBClq` — re-implementation of the state-of-the-art exact algorithm
//! of Zhou, Rossi and Hao (EJOR 2018), the paper's main baseline (§3).
//!
//! A branch-and-bound over vertices in non-increasing global degree order
//! with *precomputed* per-vertex upper bounds:
//!
//! * the bound `i_v` of `v ∈ L` is the largest integer such that `i_v`
//!   vertices of `L` (including `v`) share at least `i_v` common neighbours
//!   with `v` (an h-index over common-neighbour counts);
//! * the tight bound `t_u` is the largest `t` such that `t` neighbours of
//!   `u` have bound ≥ `t`.
//!
//! When branching at `u`, the include-branch is pruned if `2·t_u` cannot
//! exceed the incumbent. As §3 discusses, both weaknesses reproduced here
//! are intentional: on dense graphs every `t_u` looks promising, and the
//! static total order neither finds large incumbents early nor bounds the
//! search space — which is exactly what Tables 4 and 5 measure.

use mbb_bigraph::bitset::BitSet;
use mbb_bigraph::graph::{BipartiteGraph, Side, Vertex};
use mbb_core::biclique::Biclique;
use mbb_core::budget::SearchBudget;

use crate::common::RunOutcome;

/// h-index of a slice of counts: largest `h` with ≥ `h` entries ≥ `h`.
fn h_index(counts: &mut [u32]) -> u32 {
    counts.sort_unstable_by(|a, b| b.cmp(a));
    let mut h = 0u32;
    for (i, &c) in counts.iter().enumerate() {
        if c as usize > i {
            h = h.max((i + 1).min(c as usize) as u32);
        } else {
            break;
        }
    }
    h
}

/// Per-vertex upper bounds (`i_v` then `t_v`), indexed by global id.
/// Returns `None` when the budget runs out during precomputation: the
/// common-neighbour pass probes it once per vertex, and its first probe
/// is [`ext_bbclq`]'s entry probe.
fn tight_upper_bounds(graph: &BipartiteGraph, budget: &SearchBudget) -> Option<Vec<u32>> {
    let nl = graph.num_left();
    let nr = graph.num_right();
    let n = nl + nr;
    let mut i_bound = vec![0u32; n];

    // Common-neighbour counts per side via 2-hop accumulation.
    let mut side_bounds = |side: Side| -> Option<()> {
        let count = if side == Side::Left { nl } else { nr };
        let mut counter: Vec<u32> = vec![0; count];
        let mut touched: Vec<u32> = Vec::new();
        for idx in 0..count as u32 {
            if budget.probe() {
                return None;
            }
            let v = Vertex { side, index: idx };
            for &mid in graph.neighbors(v) {
                let mid_v = Vertex {
                    side: side.opposite(),
                    index: mid,
                };
                for &w in graph.neighbors(mid_v) {
                    if counter[w as usize] == 0 {
                        touched.push(w);
                    }
                    counter[w as usize] += 1;
                }
            }
            // counter[v] = deg(v): v's own entry participates (v is one of
            // the i_v vertices).
            let mut counts: Vec<u32> = touched.iter().map(|&w| counter[w as usize]).collect();
            i_bound[graph.global_id(v)] = h_index(&mut counts);
            for &w in &touched {
                counter[w as usize] = 0;
            }
            touched.clear();
        }
        Some(())
    };
    side_bounds(Side::Left)?;
    side_bounds(Side::Right)?;

    // Tight bounds from neighbours' i-bounds: a sort per neighbourhood,
    // cheap next to the 2-hop pass, so it runs to completion unprobed.
    let mut tight = vec![0u32; n];
    for v in graph.vertices() {
        let mut counts: Vec<u32> = graph
            .neighbors(v)
            .iter()
            .map(|&w| {
                let wv = Vertex {
                    side: v.side.opposite(),
                    index: w,
                };
                i_bound[graph.global_id(wv)]
            })
            .collect();
        tight[graph.global_id(v)] = h_index(&mut counts);
    }
    Some(tight)
}

struct ExtSearcher<'g> {
    graph: &'g BipartiteGraph,
    /// Global ids sorted by non-increasing degree; `rank[g]` is position.
    rank: Vec<u32>,
    tight: Vec<u32>,
    best: Biclique,
    best_half: usize,
    nodes: u64,
    budget: SearchBudget,
}

/// Runs `extBBClq`. The budget covers bound precomputation and search.
pub fn ext_bbclq(graph: &BipartiteGraph, budget: &SearchBudget) -> RunOutcome {
    let Some(tight) = tight_upper_bounds(graph, budget) else {
        return RunOutcome::new(Biclique::empty(), 0, budget);
    };

    let n = graph.num_vertices();
    let mut order: Vec<u32> = (0..n as u32).collect();
    let degree_of = |g: u32| {
        let v = graph.vertex_of_global(g as usize);
        graph.degree(v)
    };
    order.sort_by_key(|&g| (std::cmp::Reverse(degree_of(g)), g));
    let mut rank = vec![0u32; n];
    for (i, &g) in order.iter().enumerate() {
        rank[g as usize] = i as u32;
    }

    let mut searcher = ExtSearcher {
        graph,
        rank,
        tight,
        best: Biclique::empty(),
        best_half: 0,
        nodes: 0,
        budget: budget.clone(),
    };

    // Candidates sorted by rank (the paper's total search order).
    let mut ca: Vec<u32> = (0..graph.num_left() as u32).collect();
    ca.sort_by_key(|&u| searcher.rank[u as usize]);
    let mut cb: Vec<u32> = (0..graph.num_right() as u32).collect();
    cb.sort_by_key(|&v| searcher.rank[graph.num_left() + v as usize]);

    searcher.recurse(&mut Vec::new(), &mut Vec::new(), &ca, &cb);
    RunOutcome::new(searcher.best, searcher.nodes, budget)
}

impl ExtSearcher<'_> {
    fn record(&mut self, a: &[u32], b: &[u32]) {
        let half = a.len().min(b.len());
        if half > self.best_half {
            self.best_half = half;
            self.best = Biclique::balanced(a.to_vec(), b.to_vec());
        }
    }

    /// Exclude chains are a *loop* over the candidate suffix (the paper's
    /// total order walks one vertex at a time); only include branches
    /// recurse, so the stack depth is bounded by the biclique being built
    /// rather than by the candidate count.
    fn recurse(&mut self, a: &mut Vec<u32>, b: &mut Vec<u32>, ca: &[u32], cb: &[u32]) {
        let mut ca = ca;
        let mut cb = cb;
        loop {
            self.nodes += 1;
            if self.budget.is_exhausted() {
                return;
            }
            self.record(a, b);

            // Simple bounding.
            if (a.len() + ca.len()).min(b.len() + cb.len()) <= self.best_half {
                return;
            }

            // Next vertex in the global degree order.
            let next_left = ca.first().map(|&u| self.rank[u as usize]);
            let next_right = cb
                .first()
                .map(|&v| self.rank[self.graph.num_left() + v as usize]);
            let take_left = match (next_left, next_right) {
                (None, None) => return,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (Some(l), Some(r)) => l < r,
            };

            if take_left {
                let u = ca[0];
                let rest = &ca[1..];
                // Include u unless its tight bound cannot beat the incumbent.
                if self.tight[u as usize] as usize > self.best_half {
                    let neighbors = self.graph.neighbors_left(u);
                    let mut membership = BitSet::new(self.graph.num_right());
                    for &w in neighbors {
                        membership.insert(w as usize);
                    }
                    let new_cb: Vec<u32> = cb
                        .iter()
                        .copied()
                        .filter(|&v| membership.contains(v as usize))
                        .collect();
                    a.push(u);
                    self.recurse(a, b, rest, &new_cb);
                    a.pop();
                }
                ca = rest; // exclude u and continue in place
            } else {
                let v = cb[0];
                let rest = &cb[1..];
                let g = self.graph.num_left() + v as usize;
                if self.tight[g] as usize > self.best_half {
                    let neighbors = self.graph.neighbors_right(v);
                    let mut membership = BitSet::new(self.graph.num_left());
                    for &w in neighbors {
                        membership.insert(w as usize);
                    }
                    let new_ca: Vec<u32> = ca
                        .iter()
                        .copied()
                        .filter(|&u| membership.contains(u as usize))
                        .collect();
                    b.push(v);
                    self.recurse(a, b, &new_ca, rest);
                    b.pop();
                }
                cb = rest;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbb_bigraph::generators;
    use mbb_core::budget::PROBE_INTERVAL;
    use std::time::Duration;

    fn brute_half(graph: &BipartiteGraph) -> usize {
        let nl = graph.num_left();
        assert!(nl <= 16);
        let mut best = 0;
        for mask in 0u32..(1 << nl) {
            let mut common: Option<Vec<u32>> = None;
            let mut size = 0;
            for u in 0..nl as u32 {
                if mask >> u & 1 == 1 {
                    size += 1;
                    let n = graph.neighbors_left(u);
                    common = Some(match common {
                        None => n.to_vec(),
                        Some(c) => mbb_bigraph::graph::sorted_intersection(&c, n),
                    });
                }
            }
            best = best.max(size.min(common.map_or(0, |c| c.len())));
        }
        best
    }

    #[test]
    fn h_index_basics() {
        assert_eq!(h_index(&mut []), 0);
        assert_eq!(h_index(&mut [5, 5, 5]), 3);
        assert_eq!(h_index(&mut [1, 1, 1, 1]), 1);
        assert_eq!(h_index(&mut [4, 3, 2, 1]), 2);
        assert_eq!(h_index(&mut [10]), 1);
    }

    #[test]
    fn bounds_dominate_optimum() {
        // For every vertex in an optimum (k,k) biclique, t_v ≥ k.
        for seed in 0..8u64 {
            let g = generators::uniform_edges(10, 10, 50, seed);
            let tight = tight_upper_bounds(&g, &SearchBudget::unlimited()).unwrap();
            let opt = brute_half(&g);
            // At least the optimum's vertices have t ≥ opt, so the max does.
            let max_t = tight.iter().copied().max().unwrap_or(0);
            assert!(max_t as usize >= opt, "seed {seed}: max_t {max_t} < {opt}");
        }
    }

    #[test]
    fn exact_on_small_random_graphs() {
        for seed in 0..15u64 {
            let g = generators::uniform_edges(9, 9, 40, seed);
            let out = ext_bbclq(&g, &SearchBudget::unlimited());
            assert!(!out.timed_out);
            assert_eq!(out.biclique.half_size(), brute_half(&g), "seed {seed}");
            assert!(out.biclique.is_valid(&g), "seed {seed}");
        }
    }

    #[test]
    fn exact_on_dense_graphs() {
        for seed in 0..8u64 {
            let g = generators::dense_uniform(8, 8, 0.85, seed);
            let out = ext_bbclq(&g, &SearchBudget::unlimited());
            assert_eq!(out.biclique.half_size(), brute_half(&g), "seed {seed}");
        }
    }

    #[test]
    fn respects_timeout() {
        let g = generators::dense_uniform(64, 64, 0.9, 1);
        let out = ext_bbclq(&g, &SearchBudget::with_deadline(Duration::from_millis(30)));
        assert!(out.timed_out);
    }

    #[test]
    fn zero_budget_reports_timeout() {
        // The whole search is shorter than one sampling interval, so only
        // the entry probe can see the expired budget.
        let g = generators::uniform_edges(9, 9, 40, 0);
        assert!(ext_bbclq(&g, &SearchBudget::unlimited()).nodes < PROBE_INTERVAL);
        let out = ext_bbclq(&g, &SearchBudget::with_deadline(Duration::ZERO));
        assert!(out.timed_out);
    }

    #[test]
    fn empty_graph() {
        let g = BipartiteGraph::from_edges(0, 0, []).unwrap();
        let out = ext_bbclq(&g, &SearchBudget::unlimited());
        assert_eq!(out.biclique.half_size(), 0);
        assert!(!out.timed_out);
    }

    #[test]
    fn complete_graph() {
        let g = generators::complete(5, 5);
        let out = ext_bbclq(&g, &SearchBudget::unlimited());
        assert_eq!(out.biclique.half_size(), 5);
    }
}

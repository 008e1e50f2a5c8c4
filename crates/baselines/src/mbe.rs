//! Adapted maximal-biclique-enumeration engines — the `adp*` baselines'
//! step-3 searchers (Table 3).
//!
//! Following §6's protocol, the MBE algorithms iMBEA (Zhang et al. 2014)
//! and FMBE (Das & Tirthapura 2019) are adapted to MBB search by removing
//! maximality and duplication checking and adding two prunes: the incumbent
//! bound `min(|A| + |cand|, |B|) ≤ best_half`, and a core-number upper
//! bound (a vertex with core number ≤ `best_half` cannot participate in a
//! strictly larger balanced biclique).
//!
//! * [`imbea_adapted`] enumerates left-rooted subsets over the whole graph
//!   with candidates ordered by shrinking common neighbourhood (the iMBEA
//!   branching heuristic).
//! * [`fmbe_adapted`] adds FMBE's key improvement: before enumerating the
//!   bicliques through a vertex, the scope is reduced to its 2-hop
//!   neighbourhood (under a fixed total order to avoid duplicates).

use std::time::Duration;

use mbb_bigraph::core_decomp::core_decomposition;
use mbb_bigraph::graph::{sorted_intersection_exact, BipartiteGraph, Vertex};
use mbb_bigraph::two_hop::n2_neighbors;
use mbb_core::biclique::Biclique;

use crate::common::{Deadline, RunOutcome};

struct MbeSearcher<'g> {
    graph: &'g BipartiteGraph,
    core: Vec<u32>,
    best: Biclique,
    best_half: usize,
    nodes: u64,
    deadline: Deadline,
    timed_out: bool,
}

impl MbeSearcher<'_> {
    fn record(&mut self, a: &[u32], b: &[u32]) {
        let half = a.len().min(b.len());
        if half > self.best_half {
            self.best_half = half;
            self.best = Biclique::balanced(a.to_vec(), b.to_vec());
        }
    }

    /// Expands left-set `a` with common neighbourhood `b` and left
    /// candidates `cand` (each strictly extending per the root order).
    fn expand(&mut self, a: &mut Vec<u32>, b: &[u32], cand: &[u32]) {
        self.nodes += 1;
        if self.timed_out || (self.nodes.is_multiple_of(1024) && self.deadline.expired()) {
            self.timed_out = true;
            return;
        }
        self.record(a, b);
        if (a.len() + cand.len()).min(b.len()) <= self.best_half {
            return;
        }

        // iMBEA-style ordering: try candidates keeping the largest common
        // neighbourhood first.
        let mut scored: Vec<(usize, u32)> = cand
            .iter()
            .map(|&u| {
                let n = self.graph.neighbors_left(u);
                (mbb_bigraph::graph::sorted_intersection_len(b, n), u)
            })
            .collect();
        scored.sort_by_key(|&(overlap, u)| (std::cmp::Reverse(overlap), u));

        for (i, &(overlap, u)) in scored.iter().enumerate() {
            // Core upper bound + incumbent bound on the shrunk B side.
            if overlap <= self.best_half || self.core[u as usize] as usize <= self.best_half {
                continue;
            }
            // The scoring pass already computed |b ∩ N(u)|, so the merge can
            // preallocate exactly and stop as soon as the last hit lands.
            let new_b = sorted_intersection_exact(b, self.graph.neighbors_left(u), overlap);
            let rest: Vec<u32> = scored[i + 1..]
                .iter()
                .map(|&(_, w)| w)
                .filter(|&w| self.core[w as usize] as usize > self.best_half)
                .collect();
            a.push(u);
            self.expand(a, &new_b, &rest);
            a.pop();
            if self.timed_out {
                return;
            }
        }
    }
}

fn make_searcher<'g>(
    graph: &'g BipartiteGraph,
    initial: Biclique,
    deadline: Deadline,
) -> MbeSearcher<'g> {
    let core = core_decomposition(graph).core;
    let best_half = initial.half_size();
    MbeSearcher {
        graph,
        core,
        best: initial,
        best_half,
        nodes: 0,
        deadline,
        timed_out: false,
    }
}

/// Adapted iMBEA: whole-graph left-rooted enumeration.
pub fn imbea_adapted(
    graph: &BipartiteGraph,
    initial: Biclique,
    budget: Option<Duration>,
) -> RunOutcome {
    let deadline = Deadline::new(budget);
    let mut searcher = make_searcher(graph, initial, deadline);
    let cand: Vec<u32> = (0..graph.num_left() as u32)
        .filter(|&u| searcher.core[u as usize] as usize > searcher.best_half)
        .collect();
    let b_all: Vec<u32> = (0..graph.num_right() as u32).collect();
    searcher.expand(&mut Vec::new(), &b_all, &cand);
    RunOutcome {
        biclique: searcher.best,
        timed_out: searcher.timed_out,
        nodes: searcher.nodes,
    }
}

/// Adapted FMBE: per-vertex 2-hop-scoped enumeration under a fixed order.
pub fn fmbe_adapted(
    graph: &BipartiteGraph,
    initial: Biclique,
    budget: Option<Duration>,
) -> RunOutcome {
    let deadline = Deadline::new(budget);
    let mut searcher = make_searcher(graph, initial, deadline);
    let nl = graph.num_left();

    // Fixed total order over left vertices: non-decreasing degree (peeled
    // roots first keeps later scopes small); each root only sees
    // later-ordered 2-hop neighbours, so bicliques are enumerated once.
    let mut roots: Vec<u32> = (0..nl as u32).collect();
    roots.sort_by_key(|&u| (graph.degree_left(u), u));
    let mut rank = vec![0u32; nl];
    for (i, &u) in roots.iter().enumerate() {
        rank[u as usize] = i as u32;
    }

    for (i, &root) in roots.iter().enumerate() {
        if searcher.timed_out {
            break;
        }
        if searcher.core[root as usize] as usize <= searcher.best_half {
            continue;
        }
        let b: Vec<u32> = graph.neighbors_left(root).to_vec();
        if b.len() <= searcher.best_half {
            continue;
        }
        // Scope: later 2-hop left neighbours only.
        let cand: Vec<u32> = n2_neighbors(graph, Vertex::left(root))
            .into_iter()
            .filter(|&w| {
                rank[w as usize] as usize > i
                    && searcher.core[w as usize] as usize > searcher.best_half
            })
            .collect();
        let mut a = vec![root];
        searcher.expand(&mut a, &b, &cand);
    }
    // Right-rooted single vertices are covered by left enumeration except
    // the degenerate 1x1 case on isolated edges; the incumbent from step 1
    // handles those (half ≥ 1 whenever an edge exists).
    RunOutcome {
        biclique: searcher.best,
        timed_out: searcher.timed_out,
        nodes: searcher.nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbb_bigraph::generators;
    use mbb_bigraph::graph::sorted_intersection;

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
                        Some(c) => sorted_intersection(&c, n),
                    });
                }
            }
            best = best.max(size.min(common.map_or(0, |c| c.len())));
        }
        best
    }

    #[test]
    fn imbea_exact_on_random_graphs() {
        for seed in 0..12u64 {
            let g = generators::uniform_edges(10, 10, 45, seed);
            let out = imbea_adapted(&g, Biclique::empty(), None);
            assert!(!out.timed_out);
            assert_eq!(out.biclique.half_size(), brute_half(&g), "seed {seed}");
            assert!(out.biclique.is_valid(&g));
        }
    }

    #[test]
    fn fmbe_exact_on_random_graphs() {
        for seed in 0..12u64 {
            let g = generators::uniform_edges(10, 10, 45, seed);
            // FMBE relies on an initial incumbent for the 1x1 edge case.
            let seed_biclique = g
                .edges()
                .next()
                .map(|(u, v)| Biclique::balanced(vec![u], vec![v]))
                .unwrap_or_default();
            let out = fmbe_adapted(&g, seed_biclique, None);
            assert!(!out.timed_out);
            assert_eq!(out.biclique.half_size(), brute_half(&g), "seed {seed}");
            assert!(out.biclique.is_valid(&g));
        }
    }

    #[test]
    fn initial_incumbent_is_kept_when_optimal() {
        let g = generators::complete(4, 4);
        let opt = Biclique::balanced((0..4).collect(), (0..4).collect());
        let out = imbea_adapted(&g, opt.clone(), None);
        assert_eq!(out.biclique.half_size(), 4);
    }

    #[test]
    fn both_respect_timeouts() {
        let g = generators::dense_uniform(40, 40, 0.8, 2);
        let out = imbea_adapted(&g, Biclique::empty(), Some(Duration::from_millis(10)));
        assert!(out.timed_out || out.biclique.half_size() > 0);
        let out = fmbe_adapted(&g, Biclique::empty(), Some(Duration::from_millis(10)));
        assert!(out.timed_out || out.biclique.half_size() > 0);
    }

    #[test]
    fn empty_graph() {
        let g = BipartiteGraph::from_edges(0, 0, []).unwrap();
        assert_eq!(
            imbea_adapted(&g, Biclique::empty(), None)
                .biclique
                .half_size(),
            0
        );
        assert_eq!(
            fmbe_adapted(&g, Biclique::empty(), None)
                .biclique
                .half_size(),
            0
        );
    }
}

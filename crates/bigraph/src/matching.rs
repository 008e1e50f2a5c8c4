//! Maximum matching, minimum vertex cover and the maximum *vertex* biclique.
//!
//! Related-work substrate (§7 of the paper): the MVB problem — maximise
//! `|A| + |B|` over bicliques without the balance constraint — is polynomial
//! via König's theorem on the bipartite *complement*: a biclique of `G` is
//! an independent set of `Ḡ`, and a maximum independent set is the
//! complement of a minimum vertex cover, which equals a maximum matching.
//!
//! The repo uses MVB as a correctness oracle: for any balanced biclique of
//! half-size `k`, `2k ≤ MVB_total`. The same argument bounds `denseMBB`
//! at every search node: a biclique extending the node is an independent
//! set of its candidates' complement, so each edge of any matching of
//! that complement costs it a vertex. [`greedy_complement_matching`]
//! finds such a matching on bitset rows without building the complement.

use std::collections::VecDeque;

use crate::bitset::{BitSet, Bits};
use crate::graph::BipartiteGraph;
use crate::local::LocalGraph;

/// A maximum matching of a bipartite graph.
#[derive(Debug, Clone)]
pub struct Matching {
    /// `pair_left[u]` = matched right vertex of `u`, or `u32::MAX`.
    pub pair_left: Vec<u32>,
    /// `pair_right[v]` = matched left vertex of `v`, or `u32::MAX`.
    pub pair_right: Vec<u32>,
    /// Number of matched pairs.
    pub size: usize,
}

const UNMATCHED: u32 = u32::MAX;

/// Hopcroft–Karp maximum matching in `O(E √V)`.
pub fn hopcroft_karp(graph: &BipartiteGraph) -> Matching {
    let nl = graph.num_left();
    let mut pair_left = vec![UNMATCHED; nl];
    let mut pair_right = vec![UNMATCHED; graph.num_right()];
    let mut dist = vec![u32::MAX; nl];
    let mut size = 0usize;

    loop {
        // BFS layering from free left vertices.
        let mut queue = VecDeque::new();
        for u in 0..nl {
            if pair_left[u] == UNMATCHED {
                dist[u] = 0;
                queue.push_back(u as u32);
            } else {
                dist[u] = u32::MAX;
            }
        }
        let mut found_augmenting_layer = false;
        while let Some(u) = queue.pop_front() {
            for &v in graph.neighbors_left(u) {
                let w = pair_right[v as usize];
                if w == UNMATCHED {
                    found_augmenting_layer = true;
                } else if dist[w as usize] == u32::MAX {
                    dist[w as usize] = dist[u as usize] + 1;
                    queue.push_back(w);
                }
            }
        }
        if !found_augmenting_layer {
            break;
        }

        // Layered DFS augmentation.
        fn try_augment(
            u: u32,
            graph: &BipartiteGraph,
            pair_left: &mut [u32],
            pair_right: &mut [u32],
            dist: &mut [u32],
        ) -> bool {
            for &v in graph.neighbors_left(u) {
                let w = pair_right[v as usize];
                let extendable = w == UNMATCHED
                    || (dist[w as usize] == dist[u as usize] + 1
                        && try_augment(w, graph, pair_left, pair_right, dist));
                if extendable {
                    pair_left[u as usize] = v;
                    pair_right[v as usize] = u;
                    return true;
                }
            }
            dist[u as usize] = u32::MAX;
            false
        }

        for u in 0..nl as u32 {
            if pair_left[u as usize] == UNMATCHED
                && try_augment(u, graph, &mut pair_left, &mut pair_right, &mut dist)
            {
                size += 1;
            }
        }
    }

    Matching {
        pair_left,
        pair_right,
        size,
    }
}

/// Greedy matching of the bipartite complement of `ca × free` in `graph`:
/// each `u ∈ ca`, in ascending order, is paired with the first `v` still
/// in `free` that is not adjacent to `u`, and `v` leaves `free`. Stops
/// once it has `enough` pairs, and returns the number of pairs.
///
/// The matching is maximal, so it has at least half the pairs of a
/// maximum one. It reads the rows of `graph` and writes only `free`, so a
/// caller that refills one `free` set per call (`BitSet::clone_from`)
/// allocates nothing.
// `#[inline]` lets `denseMBB`, which runs it at every search node, inline
// it across the crate boundary.
#[inline]
pub fn greedy_complement_matching(
    graph: &LocalGraph,
    ca: &BitSet,
    free: &mut BitSet,
    enough: usize,
) -> usize {
    let mut size = 0;
    let mut left = ca.iter();
    while size < enough {
        let Some(u) = left.next() else { break };
        let row = graph.left_row(u as u32);
        // Both operands keep their tail bits clear, so `f & !r` does too.
        let words = free.words().iter().zip(row.words());
        let hit = words.enumerate().find_map(|(wi, (&f, &r))| {
            let w = f & !r;
            (w != 0).then(|| wi * 64 + w.trailing_zeros() as usize)
        });
        if let Some(v) = hit {
            free.remove(v);
            size += 1;
        }
    }
    size
}

/// König minimum vertex cover from a maximum matching.
///
/// Returns `(left_in_cover, right_in_cover)` boolean masks; the cover size
/// equals the matching size.
pub fn minimum_vertex_cover(graph: &BipartiteGraph, matching: &Matching) -> (Vec<bool>, Vec<bool>) {
    let nl = graph.num_left();
    let nr = graph.num_right();
    // Z = free left vertices plus everything reachable by alternating paths
    // (unmatched edge left→right, matched edge right→left).
    let mut z_left = vec![false; nl];
    let mut z_right = vec![false; nr];
    let mut queue: VecDeque<u32> = VecDeque::new();
    #[allow(clippy::needless_range_loop)] // `u` indexes matching and mask arrays
    for u in 0..nl {
        if matching.pair_left[u] == UNMATCHED {
            z_left[u] = true;
            queue.push_back(u as u32);
        }
    }
    while let Some(u) = queue.pop_front() {
        for &v in graph.neighbors_left(u) {
            if matching.pair_left[u as usize] == v {
                continue; // must leave L via a non-matching edge
            }
            if !z_right[v as usize] {
                z_right[v as usize] = true;
                let w = matching.pair_right[v as usize];
                if w != UNMATCHED && !z_left[w as usize] {
                    z_left[w as usize] = true;
                    queue.push_back(w);
                }
            }
        }
    }
    // Cover = (L \ Z) ∪ (R ∩ Z).
    let left_cover: Vec<bool> = z_left.iter().map(|&z| !z).collect();
    let right_cover = z_right;
    (left_cover, right_cover)
}

/// Maximum **vertex** biclique of `graph`: a biclique `(A, B)` maximising
/// `|A| + |B|` with no balance constraint.
///
/// Computed as the maximum independent set of the bipartite complement
/// (König). Builds the complement explicitly — `O(|L|·|R|)` — so intended
/// for small/medium graphs (oracle use).
///
/// ```
/// use mbb_bigraph::{generators::complete, matching::maximum_vertex_biclique};
/// let (a, b) = maximum_vertex_biclique(&complete(2, 6));
/// assert_eq!(a.len() + b.len(), 8);
/// ```
pub fn maximum_vertex_biclique(graph: &BipartiteGraph) -> (Vec<u32>, Vec<u32>) {
    let nl = graph.num_left() as u32;
    let nr = graph.num_right() as u32;
    let mut complement_edges = Vec::new();
    for u in 0..nl {
        let adj = graph.neighbors_left(u);
        let mut k = 0usize;
        for v in 0..nr {
            if k < adj.len() && adj[k] == v {
                k += 1;
            } else {
                complement_edges.push((u, v));
            }
        }
    }
    let complement = BipartiteGraph::from_edges(nl, nr, complement_edges)
        .expect("complement endpoints in range");
    let matching = hopcroft_karp(&complement);
    let (left_cover, right_cover) = minimum_vertex_cover(&complement, &matching);
    let a: Vec<u32> = (0..nl).filter(|&u| !left_cover[u as usize]).collect();
    let b: Vec<u32> = (0..nr).filter(|&v| !right_cover[v as usize]).collect();
    debug_assert!(graph.is_biclique(&a, &b));
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::graph::BipartiteGraph;

    /// Brute-force maximum matching by augmenting-path (Kuhn) for cross-check.
    fn kuhn_matching_size(graph: &BipartiteGraph) -> usize {
        let nl = graph.num_left();
        let nr = graph.num_right();
        let mut pair_right = vec![UNMATCHED; nr];
        fn dfs(u: u32, graph: &BipartiteGraph, seen: &mut [bool], pair_right: &mut [u32]) -> bool {
            for &v in graph.neighbors_left(u) {
                if seen[v as usize] {
                    continue;
                }
                seen[v as usize] = true;
                if pair_right[v as usize] == UNMATCHED
                    || dfs(pair_right[v as usize], graph, seen, pair_right)
                {
                    pair_right[v as usize] = u;
                    return true;
                }
            }
            false
        }
        let mut size = 0;
        for u in 0..nl as u32 {
            let mut seen = vec![false; nr];
            if dfs(u, graph, &mut seen, &mut pair_right) {
                size += 1;
            }
        }
        size
    }

    #[test]
    fn empty_graph_matching() {
        let g = BipartiteGraph::from_edges(0, 0, []).unwrap();
        assert_eq!(hopcroft_karp(&g).size, 0);
    }

    #[test]
    fn perfect_matching_on_complete_graph() {
        let g = generators::complete(5, 5);
        assert_eq!(hopcroft_karp(&g).size, 5);
    }

    #[test]
    fn unbalanced_complete_graph() {
        let g = generators::complete(3, 7);
        assert_eq!(hopcroft_karp(&g).size, 3);
    }

    #[test]
    fn matching_is_consistent() {
        let g = generators::uniform_edges(20, 20, 100, 5);
        let m = hopcroft_karp(&g);
        let mut count = 0;
        for u in 0..20u32 {
            let v = m.pair_left[u as usize];
            if v != UNMATCHED {
                assert_eq!(m.pair_right[v as usize], u);
                assert!(g.has_edge(u, v));
                count += 1;
            }
        }
        assert_eq!(count, m.size);
    }

    #[test]
    fn agrees_with_kuhn_on_random_graphs() {
        for seed in 0..10 {
            let g = generators::uniform_edges(15, 12, 50, seed);
            assert_eq!(
                hopcroft_karp(&g).size,
                kuhn_matching_size(&g),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn vertex_cover_covers_every_edge() {
        for seed in 0..8 {
            let g = generators::uniform_edges(12, 14, 45, seed);
            let m = hopcroft_karp(&g);
            let (lc, rc) = minimum_vertex_cover(&g, &m);
            for (u, v) in g.edges() {
                assert!(
                    lc[u as usize] || rc[v as usize],
                    "edge ({u},{v}) uncovered, seed {seed}"
                );
            }
            let cover_size = lc.iter().filter(|&&c| c).count() + rc.iter().filter(|&&c| c).count();
            assert_eq!(cover_size, m.size, "König size mismatch, seed {seed}");
        }
    }

    /// On random graphs and random candidate subsets, the greedy matching
    /// of the candidates' complement has at least half as many pairs as
    /// Hopcroft–Karp's maximum and at most as many, and a smaller
    /// `enough` stops it at `enough` pairs.
    #[test]
    fn greedy_complement_matching_is_maximal() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x6a7c);
            let nl = rng.gen_range(1..=140usize);
            let nr = rng.gen_range(1..=140usize);
            let density = rng.gen_range(0.3..0.98);
            let mut g = LocalGraph::new(nl, nr);
            for u in 0..nl as u32 {
                for v in 0..nr as u32 {
                    if rng.gen_bool(density) {
                        g.add_edge(u, v);
                    }
                }
            }
            let mut subset = |n: usize| {
                let keep = rng.gen_range(0.2..1.0);
                let mut set = BitSet::new(n);
                (0..n)
                    .filter(|_| rng.gen_bool(keep))
                    .for_each(|i| set.insert(i));
                set
            };
            let (ca, cb) = (subset(nl), subset(nr));
            let complement_edges = ca
                .iter()
                .flat_map(|u| cb.iter().map(move |v| (u as u32, v as u32)))
                .filter(|&(u, v)| !g.has_edge(u, v));
            let complement = BipartiteGraph::from_edges(nl as u32, nr as u32, complement_edges)
                .expect("complement endpoints in range");
            let maximum = hopcroft_karp(&complement).size;

            let mut free = cb.clone();
            let greedy = greedy_complement_matching(&g, &ca, &mut free, usize::MAX);
            assert!(2 * greedy >= maximum && greedy <= maximum, "seed {seed}");
            assert_eq!(cb.len() - free.len(), greedy, "seed {seed}");
            assert!(free.iter().all(|v| cb.contains(v)), "seed {seed}");

            if greedy > 0 {
                let enough = rng.gen_range(0..greedy);
                let mut free = cb.clone();
                let stopped = greedy_complement_matching(&g, &ca, &mut free, enough);
                assert_eq!(stopped, enough, "seed {seed}");
                assert_eq!(cb.len() - free.len(), enough, "seed {seed}");
            }
        }
    }

    #[test]
    fn mvb_on_complete_graph_is_everything() {
        let g = generators::complete(4, 6);
        let (a, b) = maximum_vertex_biclique(&g);
        assert_eq!(a.len(), 4);
        assert_eq!(b.len(), 6);
    }

    #[test]
    fn mvb_is_a_biclique_and_large() {
        for seed in 0..6 {
            let g = generators::uniform_edges(10, 10, 60, seed);
            let (a, b) = maximum_vertex_biclique(&g);
            assert!(g.is_biclique(&a, &b), "seed {seed}");
            // At least one side fully selectable: a single vertex plus all
            // its neighbours is always a biclique.
            let best_star = (0..10u32).map(|u| 1 + g.degree_left(u)).max().unwrap_or(0);
            assert!(a.len() + b.len() >= best_star, "seed {seed}");
        }
    }

    #[test]
    fn mvb_on_edgeless_graph_takes_all_vertices() {
        // No edges: complement is complete; biclique with one side empty.
        let g = BipartiteGraph::from_edges(3, 4, []).unwrap();
        let (a, b) = maximum_vertex_biclique(&g);
        assert_eq!(a.len() + b.len(), 4, "larger side wins: {a:?} {b:?}");
    }
}

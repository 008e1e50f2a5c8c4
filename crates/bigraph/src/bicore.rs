//! Bicore decomposition — Definitions 3–5 and Algorithm 7 of the paper.
//!
//! The *bicore number* `bc(u)` is the largest `k` such that some subgraph
//! `H ∋ u` has `min_v |N≤2(v, H)| ≥ k`; the *bidegeneracy* `δ̈(G)` is the
//! maximum bicore number, and the peel order is a *bidegeneracy order*
//! (Definition 5). Because `|N≤2(·, H)|` is monotone non-increasing under
//! vertex deletion, greedy min-value peeling computes bicore numbers exactly
//! (the same argument as for ordinary cores).
//!
//! # Construction
//!
//! Two same-side vertices stay 2-hop neighbours while they keep at least one
//! surviving common neighbour, so the peel tracks exact `|N≤2|` values
//! through one common-neighbour multiplicity per 2-hop pair. Unlike the
//! paper we do not *rely* on Lemma 10's "loses at most 1" claim.
//!
//! 1. **Two-hop CSR.** [`TwoHopIndex`], built by the pair pass in
//!    [`two_hop`](crate::two_hop): a symmetric CSR of same-side 2-hop
//!    neighbours with sorted rows, plus a multiplicity array that only the
//!    peel keeps. Each unordered pair `{a, b}` (`a < b`) keeps its
//!    multiplicity in one slot, next to `b` in row `a`; the entry for `a`
//!    in row `b` records where that slot is.
//! 2. **Peel.** Repeatedly remove the surviving vertex with the smallest
//!    `(|N≤2|, degree, id)`: Lemma 10's tie-break (min `|N≤2|`, then min
//!    degree), made total by the global id. Removing `v`
//!    * takes one from the degree and `|N≤2|` of each surviving neighbour;
//!    * drops `v` from the `N2` of each surviving 2-hop neighbour whose pair
//!      still has a common neighbour;
//!    * takes one from the multiplicity of every pair `a < b` of `v`'s
//!      surviving neighbours; a pair that reaches zero leaves both `N2`
//!      sets. For a fixed `a` the partners `b` ascend, so each is found by
//!      one galloping (exponential, then binary) search in the suffix of
//!      row `a` past the previous partner.
//!
//!    A lazy min-heap holds the keys. Each vertex whose key changed during a
//!    removal is pushed once, after the removal; older entries go stale.
//!    When the heap outgrows `2n` entries it is rebuilt from the survivors,
//!    so it stays `O(n)` and cache-resident.
//!
//! # Cost
//!
//! Let `P` be the number of 2-hop pairs (`P ≤ Σ_m deg(m)² / 2`) and `d₂` the
//! largest 2-hop degree. The build visits each wedge twice: `O(Σ deg²)`, the
//! Lemma 9 bound (see [`two_hop`](crate::two_hop)). The peel visits each
//! wedge once more, with one search in a row of at most `d₂` entries:
//! `O(Σ deg² · log d₂)`. Every heap push follows a key decrement, so heap
//! work adds `O((|E| + P) · log n)`.
//!
//! Memory is 16 bytes per 2-hop pair: the pair appears in two rows, each
//! entry a `u32` neighbour plus a `u32` holding the multiplicity (in the
//! smaller end's row) or the slot's position (in the larger end's).
//! Everything else is `O(n)`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::graph::BipartiteGraph;
use crate::two_hop::TwoHopIndex;

/// Result of a bicore decomposition.
#[derive(Debug, Clone)]
pub struct BicoreDecomposition {
    /// Bicore number per global vertex id.
    pub bicore: Vec<u32>,
    /// Global ids in peel order — a bidegeneracy order (Definition 5).
    pub order: Vec<u32>,
    /// `δ̈(G)`: the bidegeneracy (0 for empty graphs).
    pub bidegeneracy: u32,
}

/// Neighbours of global vertex `g` as global ids: the opposite side's local
/// ids (sorted) plus the offset that globalises them.
fn neighbors_global(graph: &BipartiteGraph, g: usize) -> (&[u32], usize) {
    let nl = graph.num_left();
    if g < nl {
        (graph.neighbors_left(g as u32), nl)
    } else {
        (graph.neighbors_right((g - nl) as u32), 0)
    }
}

/// Smallest index `≥ from` of `row` holding a value `≥ target` (or
/// `row.len()`): an exponential probe, then a binary search. Successive
/// targets of one row cost `O(log gap)` each.
fn gallop(row: &[u32], from: usize, target: u32) -> usize {
    let (mut lo, mut hi, mut step) = (from, from, 1);
    while hi < row.len() && row[hi] < target {
        lo = hi + 1;
        hi += step;
        step *= 2;
    }
    let hi = hi.min(row.len());
    lo + row[lo..hi].partition_point(|&x| x < target)
}

/// The vertices whose key changed during one removal, each listed once.
struct Changed {
    list: Vec<u32>,
    marked: Vec<bool>,
}

impl Changed {
    fn touch(&mut self, w: usize) {
        if !self.marked[w] {
            self.marked[w] = true;
            self.list.push(w as u32);
        }
    }
}

/// Runs the bicore decomposition (Algorithm 7).
///
/// ```
/// use mbb_bigraph::{graph::BipartiteGraph, bicore::bicore_decomposition};
/// // A 4-cycle: every vertex has one neighbour and one 2-hop neighbour.
/// let g = BipartiteGraph::from_edges(2, 2, [(0, 0), (0, 1), (1, 0)])?;
/// let d = bicore_decomposition(&g);
/// assert_eq!(d.bidegeneracy, 2);
/// # Ok::<(), mbb_bigraph::graph::GraphError>(())
/// ```
pub fn bicore_decomposition(graph: &BipartiteGraph) -> BicoreDecomposition {
    let n = graph.num_vertices();
    let (pairs, mut shared) = TwoHopIndex::build_counted(graph);

    let mut alive = vec![true; n];
    let mut deg: Vec<u32> = (0..n)
        .map(|g| neighbors_global(graph, g).0.len() as u32)
        .collect();
    // key[g] = |N≤2(g)| in the surviving graph.
    let mut key: Vec<u32> = (0..n).map(|g| deg[g] + pairs.row(g).len() as u32).collect();
    let entry = |g: usize, key: &[u32], deg: &[u32]| Reverse((key[g], deg[g], g as u32));
    let mut heap: BinaryHeap<Reverse<(u32, u32, u32)>> =
        (0..n).map(|g| entry(g, &key, &deg)).collect();

    let mut bicore = vec![0u32; n];
    let mut order = Vec::with_capacity(n);
    let mut running_max = 0u32;
    let mut alive_neighbors: Vec<u32> = Vec::new();
    let mut changed = Changed {
        list: Vec::new(),
        marked: vec![false; n],
    };

    while let Some(Reverse((k, d, v))) = heap.pop() {
        let v = v as usize;
        if !alive[v] || k != key[v] || d != deg[v] {
            continue; // stale entry
        }
        alive[v] = false;
        running_max = running_max.max(k);
        bicore[v] = running_max;
        order.push(v as u32);

        // 1. Surviving neighbours lose v from N(·).
        let (adj, offset) = neighbors_global(graph, v);
        alive_neighbors.clear();
        for &w in adj {
            let w = w as usize + offset;
            if alive[w] {
                alive_neighbors.push(w as u32);
                deg[w] -= 1;
                key[w] -= 1;
                changed.touch(w);
            }
        }

        // 2. Surviving 2-hop neighbours lose v from N2(·).
        for i in pairs.row(v) {
            let w = pairs.neighbors()[i] as usize;
            if !alive[w] {
                continue;
            }
            let slot = pairs.slot(&shared, v, i);
            if shared[slot] > 0 {
                shared[slot] = 0;
                key[w] -= 1;
                changed.touch(w);
            }
        }

        // 3. Each pair of surviving neighbours a < b loses the common
        // neighbour v; a pair left with none falls out of both N2 sets.
        // The pair still shares v, so b is in a's row, past a's previous
        // partner.
        for (i, &a) in alive_neighbors.iter().enumerate() {
            let a = a as usize;
            let base = pairs.row(a).start;
            let row = &pairs.neighbors()[pairs.row(a)];
            let mut from = row.partition_point(|&x| (x as usize) < a);
            for &b in &alive_neighbors[i + 1..] {
                let at = gallop(row, from, b);
                debug_assert_eq!(row[at], b);
                let multiplicity = &mut shared[base + at];
                *multiplicity -= 1;
                if *multiplicity == 0 {
                    key[a] -= 1;
                    key[b as usize] -= 1;
                    changed.touch(a);
                    changed.touch(b as usize);
                }
                from = at + 1;
            }
        }

        for w in changed.list.drain(..) {
            let w = w as usize;
            changed.marked[w] = false;
            heap.push(entry(w, &key, &deg));
        }
        // Stale entries outnumber live ones: rebuild with one entry per
        // surviving vertex, so the heap stays O(n) and cache-resident.
        if heap.len() > 2 * n {
            let mut entries = std::mem::take(&mut heap).into_vec();
            entries.clear();
            entries.extend((0..n).filter(|&g| alive[g]).map(|g| entry(g, &key, &deg)));
            heap = BinaryHeap::from(entries);
        }
    }

    BicoreDecomposition {
        bidegeneracy: running_max,
        bicore,
        order,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::graph::{BipartiteGraph, Vertex};
    use crate::two_hop;

    /// Brute-force bicore numbers straight from Definition 3: for each `k`,
    /// iteratively delete vertices whose `|N≤2|` (recomputed in the
    /// remaining induced subgraph) is below `k`; survivors have `bc ≥ k`.
    fn brute_bicore(graph: &BipartiteGraph) -> Vec<u32> {
        let n = graph.num_vertices();
        let nl = graph.num_left();
        let mut bicore = vec![0u32; n];
        for k in 1..=n {
            let mut alive = vec![true; n];
            loop {
                let mut removed = false;
                for g in 0..n {
                    if !alive[g] {
                        continue;
                    }
                    let v = graph.vertex_of_global(g);
                    // |N≤2(v)| within the alive-induced subgraph.
                    let opposite_offset = if g < nl { nl } else { 0 };
                    let alive_neighbors: Vec<u32> = graph
                        .neighbors(v)
                        .iter()
                        .copied()
                        .filter(|&w| alive[w as usize + opposite_offset])
                        .collect();
                    let mut two_hop = std::collections::HashSet::new();
                    for &mid in &alive_neighbors {
                        let mid_v = Vertex {
                            side: v.side.opposite(),
                            index: mid,
                        };
                        let same_offset = if g < nl { 0 } else { nl };
                        for &w in graph.neighbors(mid_v) {
                            if alive[w as usize + same_offset] && w != v.index {
                                two_hop.insert(w);
                            }
                        }
                    }
                    if alive_neighbors.len() + two_hop.len() < k {
                        alive[g] = false;
                        removed = true;
                    }
                }
                if !removed {
                    break;
                }
            }
            let mut any = false;
            for g in 0..n {
                if alive[g] {
                    bicore[g] = k as u32;
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
        bicore
    }

    #[test]
    fn empty_graph() {
        let g = BipartiteGraph::from_edges(0, 0, []).unwrap();
        let d = bicore_decomposition(&g);
        assert_eq!(d.bidegeneracy, 0);
        assert!(d.order.is_empty());
    }

    #[test]
    fn single_edge() {
        let g = BipartiteGraph::from_edges(1, 1, [(0, 0)]).unwrap();
        let d = bicore_decomposition(&g);
        // Each endpoint has |N≤2| = 1.
        assert_eq!(d.bicore, vec![1, 1]);
        assert_eq!(d.bidegeneracy, 1);
    }

    #[test]
    fn complete_bipartite() {
        let g = generators::complete(3, 4);
        let d = bicore_decomposition(&g);
        // Left vertex: 4 + 2 = 6; right: 3 + 3 = 6; all equal.
        assert_eq!(d.bidegeneracy, 6);
        assert!(d.bicore.iter().all(|&c| c == 6));
    }

    #[test]
    fn star_bicore() {
        // Star centre L0 with 4 leaves: leaves see 1 + 3 = 4, centre 4 + 0.
        let g = BipartiteGraph::from_edges(1, 4, (0..4).map(|v| (0, v))).unwrap();
        let d = bicore_decomposition(&g);
        assert_eq!(d.bidegeneracy, 4);
        assert!(d.bicore.iter().all(|&c| c == 4));
    }

    #[test]
    fn matches_brute_force_on_small_random_graphs() {
        for seed in 0..12 {
            let g = generators::uniform_edges(8, 8, 20, seed);
            let fast = bicore_decomposition(&g);
            let brute = brute_bicore(&g);
            assert_eq!(fast.bicore, brute, "seed {seed}");
        }
    }

    #[test]
    fn matches_brute_force_on_power_law_graphs() {
        for seed in 0..6 {
            let g = generators::chung_lu_bipartite(
                &generators::ChungLuParams {
                    num_left: 15,
                    num_right: 12,
                    num_edges: 35,
                    left_exponent: 0.8,
                    right_exponent: 0.8,
                },
                seed,
            );
            let fast = bicore_decomposition(&g);
            let brute = brute_bicore(&g);
            assert_eq!(fast.bicore, brute, "seed {seed}");
        }
    }

    #[test]
    fn bidegeneracy_upper_bounds_initial_min_nle2() {
        // δ̈ ≥ min over all vertices of |N≤2| in the full graph.
        let g = generators::uniform_edges(20, 20, 120, 5);
        let d = bicore_decomposition(&g);
        let sizes = two_hop::all_n_le2_sizes(&g);
        let min = sizes.iter().copied().min().unwrap();
        assert!(d.bidegeneracy as usize >= min);
    }

    #[test]
    fn order_is_permutation() {
        let g = generators::uniform_edges(25, 20, 100, 8);
        let d = bicore_decomposition(&g);
        let mut seen = vec![false; g.num_vertices()];
        for &v in &d.order {
            assert!(!seen[v as usize]);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn bicore_at_least_core() {
        // |N≤2| ≥ degree pointwise in every subgraph, so bc(u) ≥ core(u).
        let g = generators::uniform_edges(20, 20, 110, 9);
        let bi = bicore_decomposition(&g);
        let co = crate::core_decomp::core_decomposition(&g);
        for g_id in 0..g.num_vertices() {
            assert!(
                bi.bicore[g_id] >= co.core[g_id],
                "vertex {g_id}: bc {} < core {}",
                bi.bicore[g_id],
                co.core[g_id]
            );
        }
    }

    #[test]
    fn isolated_vertices_peel_first_with_zero() {
        let g = BipartiteGraph::from_edges(3, 3, [(0, 0)]).unwrap();
        let d = bicore_decomposition(&g);
        assert_eq!(d.bicore[1], 0);
        assert_eq!(d.bicore[2], 0);
        assert_eq!(d.bicore[0], 1);
    }
}

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
//! surviving common neighbour. The peel tracks exact `|N≤2|` values by
//! watching each 2-hop pair at one surviving common neighbour, its
//! witness, the way SAT solvers watch literals (Moskewicz et al., "Chaff",
//! DAC 2001): only a witness's death can end a pair. Unlike the paper we do
//! not *rely* on Lemma 10's "loses at most 1" claim.
//!
//! 1. **Witness store.** [`TwoHopIndex`], built by one run of the pair
//!    pass in [`two_hop`](crate::two_hop), keeps one bit per wedge
//!    `a – m – b`, set where `m` is the pair's witness: at first the
//!    common neighbour with the largest (core number, degree, id). It also
//!    counts each vertex's `|N2|`. The peel copies the adjacency in global
//!    ids, and compacts that copy as vertices die.
//! 2. **Peel.** Repeatedly remove the surviving vertex with the smallest
//!    `(|N≤2|, degree, id)`: Lemma 10's tie-break (min `|N≤2|`, then min
//!    degree), made total by the global id. Removing `v`
//!    * takes one from the degree and `|N≤2|` of each surviving neighbour;
//!    * takes one from the `|N≤2|` of each surviving 2-hop neighbour `w`,
//!      found by walking `v`'s surviving wedges `v – m – w`. Each walk drops
//!      the dead from the rows it reads;
//!    * scans `v`'s triangle for the pairs it witnesses. A pair whose ends
//!      both survive intersects their live rows. If they share a surviving
//!      neighbour, the one with the largest heap entry becomes the witness
//!      (its bit is found by a binary search of the ends in its row);
//!      otherwise the pair leaves both `N2` sets.
//!
//!    A pair with a dead end is never read again, so no bit is cleared.
//!    An indexed binary min-heap holds the keys, and each decrement sifts
//!    its vertex up at once. Sifting a removal's changed vertices only
//!    after the removal would break the heap wherever a vertex and its
//!    parent both dropped.
//!
//! The first witness is chosen by core number before degree because a
//! vertex of a high core tends to be peeled late, and the later a witness
//! dies the fewer pairs it hands on. Counted on the full gottron-trec
//! stand-in of perfbench's sparse set 3 (1.46 M pairs), witnesses picked
//! by degree alone take 38,199 re-examinations and 5.17 M merge steps;
//! core number first takes 12,607 and 0.21 M. 5,248 of those
//! re-examinations end in a pair's death, which no choice of witness
//! avoids.
//!
//! # Cost
//!
//! The build is one pass over every wedge, `O(Σ deg²)`, the Lemma 9
//! bound (see [`two_hop`](crate::two_hop)). The peel walks each wedge at
//! most once more, from the end that dies first while the middle
//! survives, and reads each triangle's words once, when its middle dies:
//! `O(Σ deg² / 64 + |E|)` beyond the walk. Each re-examination costs one
//! intersection of two live rows and two binary searches; it happens only
//! when a pair's witness dies, at most once per wedge. Dropping each dead
//! neighbour from a row costs `O(|E|)` in all. The heap sifts once per
//! decrement, `O((|E| + P) · log n)` for `P` pairs.
//!
//! Memory is one bit per wedge, `Σ_m C(deg m, 2) / 8` bytes, plus 8 bytes
//! per edge for the adjacency copy (4 per direction), plus `O(n)`. That is
//! below the 8 bytes a pair of a partner and a count whenever pairs share
//! fewer than 64 neighbours on average.

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

/// What one neighbour adds to a heap rank: one to `|N≤2|`, one to the
/// degree.
const NEIGHBOUR: u64 = (1 << 32) | 1;
/// What one 2-hop neighbour adds to a heap rank.
const TWO_HOP: u64 = 1 << 32;
/// The heap position of a peeled vertex.
const PEELED: u32 = u32::MAX;

/// An indexed binary min-heap of the surviving vertices. An entry is
/// `(|N≤2| << 32 | degree, id)`, so entries order as the triples
/// `(|N≤2|, degree, id)`.
struct PeelHeap {
    entries: Vec<(u64, u32)>,
    /// Each vertex's index in `entries`, or [`PEELED`].
    pos: Vec<u32>,
}

impl PeelHeap {
    /// A heap holding every vertex `g` at rank `ranks[g]`.
    fn new(ranks: Vec<u64>) -> PeelHeap {
        let entries: Vec<(u64, u32)> = ranks.into_iter().zip(0..).collect();
        let pos = (0..entries.len() as u32).collect();
        let mut heap = PeelHeap { entries, pos };
        for i in (0..heap.entries.len() / 2).rev() {
            heap.sift_down(i);
        }
        heap
    }

    fn is_live(&self, g: u32) -> bool {
        self.pos[g as usize] != PEELED
    }

    /// Surviving vertex `g`'s entry.
    fn entry(&self, g: u32) -> (u64, u32) {
        self.entries[self.pos[g as usize] as usize]
    }

    /// Removes the least entry and returns it.
    fn pop(&mut self) -> Option<(u64, u32)> {
        let mut top = self.entries.pop()?;
        if let Some(root) = self.entries.first_mut() {
            std::mem::swap(root, &mut top);
            self.sift_down(0);
        }
        self.pos[top.1 as usize] = PEELED;
        Some(top)
    }

    /// Takes `by` from surviving vertex `g`'s rank and sifts it up.
    #[inline]
    fn decrease(&mut self, g: u32, by: u64) {
        let mut i = self.pos[g as usize] as usize;
        let entry = (self.entries[i].0 - by, g);
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.entries[parent] < entry {
                break;
            }
            self.place(i, self.entries[parent]);
            i = parent;
        }
        self.place(i, entry);
    }

    fn sift_down(&mut self, mut i: usize) {
        let entry = self.entries[i];
        let len = self.entries.len();
        loop {
            let mut child = 2 * i + 1;
            if child >= len {
                break;
            }
            if child + 1 < len && self.entries[child + 1] < self.entries[child] {
                child += 1;
            }
            if entry < self.entries[child] {
                break;
            }
            self.place(i, self.entries[child]);
            i = child;
        }
        self.place(i, entry);
    }

    #[inline]
    fn place(&mut self, i: usize, entry: (u64, u32)) {
        self.entries[i] = entry;
        self.pos[entry.1 as usize] = i as u32;
    }
}

/// The graph's adjacency in global ids, compacted as the peel goes: row
/// `g` is `ids[start[g]..start[g] + len[g]]`, ascending. It holds every
/// surviving neighbour of `g`, and dead ones until a walk drops them.
struct LiveAdjacency {
    ids: Vec<u32>,
    start: Vec<usize>,
    len: Vec<u32>,
}

impl LiveAdjacency {
    fn new(graph: &BipartiteGraph) -> LiveAdjacency {
        let n = graph.num_vertices();
        let mut adjacency = LiveAdjacency {
            ids: Vec::with_capacity(2 * graph.num_edges()),
            start: Vec::with_capacity(n),
            len: Vec::with_capacity(n),
        };
        for g in 0..n {
            let (row, offset) = neighbors_global(graph, g);
            adjacency.start.push(adjacency.ids.len());
            adjacency.len.push(row.len() as u32);
            adjacency.ids.extend(row.iter().map(|&w| w + offset as u32));
        }
        adjacency
    }

    /// Drops the peeled vertices from row `g` and returns the rest: `g`'s
    /// surviving neighbours, ascending.
    fn compact(&mut self, g: usize, heap: &PeelHeap) -> &[u32] {
        let row = &mut self.ids[self.start[g]..][..self.len[g] as usize];
        let mut kept = 0;
        for i in 0..row.len() {
            let w = row[i];
            if heap.is_live(w) {
                row[kept] = w;
                kept += 1;
            }
        }
        self.len[g] = kept as u32;
        &row[..kept]
    }

    /// Row `g` as the last [`compact`](Self::compact) left it.
    fn row(&self, g: usize) -> &[u32] {
        &self.ids[self.start[g]..][..self.len[g] as usize]
    }
}

/// The common entry of two ascending rows of surviving vertices with the
/// largest heap entry, if they share one.
fn strongest_common(heap: &PeelHeap, a: &[u32], b: &[u32]) -> Option<u32> {
    let (mut i, mut j) = (0, 0);
    let mut best = None;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                best = best.max(Some(heap.entry(a[i])));
                i += 1;
                j += 1;
            }
        }
    }
    best.map(|(_, w)| w)
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
    let mut witnesses = TwoHopIndex::build(graph);
    let mut adjacency = LiveAdjacency::new(graph);

    let ranks = (0..n)
        .map(|g| {
            let two_hop = witnesses.two_hop_degree(g) as u64;
            NEIGHBOUR * adjacency.len[g] as u64 + TWO_HOP * two_hop
        })
        .collect();
    let mut heap = PeelHeap::new(ranks);

    let mut bicore = vec![0u32; n];
    let mut order = Vec::with_capacity(n);
    let mut running_max = 0u32;
    let mut live_neighbors: Vec<u32> = Vec::new();
    // reached[w] == v once v's wedge walk has reached w. It starts at w,
    // which is never a 2-hop neighbour of itself.
    let mut reached: Vec<u32> = (0..n as u32).collect();

    while let Some((rank, v)) = heap.pop() {
        running_max = running_max.max((rank >> 32) as u32);
        bicore[v as usize] = running_max;
        order.push(v);

        // 1. Surviving neighbours lose v from N(·).
        live_neighbors.clear();
        live_neighbors.extend_from_slice(adjacency.compact(v as usize, &heap));
        for &m in &live_neighbors {
            heap.decrease(m, NEIGHBOUR);
        }

        // 2. Surviving 2-hop neighbours lose v from N2(·): each w at the
        // far end of a surviving wedge v – m – w, once. This also
        // compacts the row of every surviving neighbour of v.
        for &m in &live_neighbors {
            for &w in adjacency.compact(m as usize, &heap) {
                if reached[w as usize] != v {
                    reached[w as usize] = v;
                    heap.decrease(w, TWO_HOP);
                }
            }
        }

        // 3. Each pair of surviving neighbours a < b that v witnessed
        // moves to its surviving common neighbour with the largest heap
        // entry; a pair left with none falls out of both N2 sets. Both
        // ends' rows were compacted in step 2.
        let (row, offset) = neighbors_global(graph, v as usize);
        let offset = offset as u32;
        for (j, &b) in row.iter().enumerate() {
            if !heap.is_live(b + offset) {
                continue;
            }
            let mut column = witnesses.column(v as usize, j);
            while let Some(i) = column.next_set(&witnesses) {
                let a = row[i as usize];
                if !heap.is_live(a + offset) {
                    continue;
                }
                let (a_row, b_row) = (
                    adjacency.row((a + offset) as usize),
                    adjacency.row((b + offset) as usize),
                );
                match strongest_common(&heap, a_row, b_row) {
                    Some(w) => {
                        let (w_row, _) = neighbors_global(graph, w as usize);
                        let at = |x: u32| {
                            w_row
                                .binary_search(&x)
                                .expect("a witness neighbours both ends")
                                as u32
                        };
                        witnesses.set(w as usize, at(a), at(b));
                    }
                    None => {
                        heap.decrease(a + offset, TWO_HOP);
                        heap.decrease(b + offset, TWO_HOP);
                    }
                }
            }
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
    fn heap_pops_the_least_live_triple_under_decrements() {
        // Several random decrements between pops, as one removal makes
        // them, often to a vertex and its heap parent alike; every pop is
        // checked against a linear scan of the survivors.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..16 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(1..80usize);
            // (|N≤2|, degree): the key never drops below the degree.
            let mut keys: Vec<(u64, u64)> = (0..n)
                .map(|_| {
                    let degree = rng.gen_range(0..8u64);
                    (degree + rng.gen_range(0..12u64), degree)
                })
                .collect();
            let rank = |(key, degree): (u64, u64)| key << 32 | degree;
            let mut heap = PeelHeap::new(keys.iter().map(|&k| rank(k)).collect());
            let mut live = vec![true; n];
            while let Some((popped, v)) = heap.pop() {
                let least = (0..n)
                    .filter(|&g| live[g])
                    .min_by_key(|&g| (keys[g], g))
                    .unwrap();
                assert_eq!(
                    (v as usize, popped),
                    (least, rank(keys[least])),
                    "seed {seed}"
                );
                live[least] = false;
                for _ in 0..rng.gen_range(0..12u32) {
                    let w = rng.gen_range(0..n);
                    let (key, degree) = &mut keys[w];
                    if !live[w] || *key == 0 {
                        continue;
                    }
                    if *degree > 0 && rng.gen_bool(0.5) {
                        *key -= 1;
                        *degree -= 1;
                        heap.decrease(w as u32, NEIGHBOUR);
                    } else if *key > *degree {
                        *key -= 1;
                        heap.decrease(w as u32, TWO_HOP);
                    }
                }
            }
            assert!(live.iter().all(|&l| !l), "seed {seed}");
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

//! Core decomposition (Batagelj–Zaversnik bucket peeling).
//!
//! Treats the bipartite graph as a general graph over global ids
//! (`L = 0..nl`, `R = nl..nl+nr`). Produces per-vertex core numbers, the
//! degeneracy `δ(G)` and the degeneracy (peel) order used by Lemma 7 and the
//! `bd5` ablation. The `k`-core extraction backs the Lemma 4 reduction: a
//! balanced biclique with half-size `k+1` is a `(k+1)`-core, so vertices
//! outside the `(|A*|+1)`-core can never improve the incumbent.
//!
//! One peel body serves both graph types: [`core_decomposition`] reads a
//! CSR [`BipartiteGraph`], [`local_core_decomposition`] the bitset rows of
//! a [`LocalGraph`] (bridging's centred subgraphs).

use crate::bitset::BitSet;
use crate::graph::BipartiteGraph;
use crate::local::LocalGraph;

/// Result of a core decomposition.
#[derive(Debug, Clone)]
pub struct CoreDecomposition {
    /// Core number per global vertex id.
    pub core: Vec<u32>,
    /// Global ids in peel order (non-decreasing core number); this is a
    /// degeneracy order of the graph.
    pub order: Vec<u32>,
    /// `δ(G)`: the maximum core number (0 for empty graphs).
    pub degeneracy: u32,
}

/// How the bucket peel reads a graph: its side sizes, each global id's
/// degree, and the neighbours of the vertex it removes. Implemented by the
/// CSR [`BipartiteGraph`] and the bitset [`LocalGraph`], so both run the
/// one peel body; both list neighbours in ascending order, so both give
/// the same peel order too.
///
/// A source may skip the neighbours the peel has already removed: a
/// removed vertex's degree is at most that of every vertex removed after
/// it, so the peel would leave it alone anyway. The bitset rows skip them
/// with one AND a word; the CSR walk visits every neighbour.
trait PeelSource {
    /// What the source keeps of the vertices not yet removed.
    type Live;
    /// `(|L|, |R|)`.
    fn sides(&self) -> (usize, usize);
    /// Degree of global id `g`.
    fn degree_of(&self, g: usize) -> usize;
    /// Every vertex, before the peel removes any.
    fn live(&self) -> Self::Live;
    /// Removes global id `g` from `live`, then calls `visit` with the
    /// other-side index of each of its neighbours, ascending; a source may
    /// skip the neighbours `live` no longer holds.
    fn remove(&self, live: &mut Self::Live, g: usize, visit: impl FnMut(usize));
}

impl PeelSource for BipartiteGraph {
    type Live = ();

    #[inline]
    fn sides(&self) -> (usize, usize) {
        (self.num_left(), self.num_right())
    }

    #[inline]
    fn degree_of(&self, g: usize) -> usize {
        self.degree(self.vertex_of_global(g))
    }

    #[inline]
    fn live(&self) {}

    #[inline]
    fn remove(&self, _: &mut (), g: usize, mut visit: impl FnMut(usize)) {
        for &w in self.neighbors(self.vertex_of_global(g)) {
            visit(w as usize);
        }
    }
}

impl PeelSource for LocalGraph {
    /// The live vertices of each side, left then right.
    type Live = [BitSet; 2];

    #[inline]
    fn sides(&self) -> (usize, usize) {
        (self.num_left(), self.num_right())
    }

    #[inline]
    fn degree_of(&self, g: usize) -> usize {
        self.row(g).len()
    }

    fn live(&self) -> [BitSet; 2] {
        [
            BitSet::full(self.num_left()),
            BitSet::full(self.num_right()),
        ]
    }

    #[inline]
    fn remove(&self, live: &mut [BitSet; 2], g: usize, mut visit: impl FnMut(usize)) {
        let nl = self.num_left();
        let (own, other, index) = if g < nl { (0, 1, g) } else { (1, 0, g - nl) };
        live[own].remove(index);
        for w in live[other].iter_and(&self.row(g)) {
            visit(w);
        }
    }
}

/// Runs the `O(n + m)` bucket-based core decomposition.
pub fn core_decomposition(graph: &BipartiteGraph) -> CoreDecomposition {
    peel(graph)
}

/// [`core_decomposition`] of a bitset [`LocalGraph`], in the same global
/// ids (left `0..nl`, then right). The peel reads each row's bits that
/// are still live, so it costs `O(n · n/64 + m)`; bridging peels its
/// centred subgraphs this way.
pub fn local_core_decomposition(graph: &LocalGraph) -> CoreDecomposition {
    peel(graph)
}

/// The Batagelj–Zaversnik bucket peel behind both entry points.
fn peel(graph: &impl PeelSource) -> CoreDecomposition {
    let (nl, nr) = graph.sides();
    let n = nl + nr;
    if n == 0 {
        return CoreDecomposition {
            core: Vec::new(),
            order: Vec::new(),
            degeneracy: 0,
        };
    }

    let mut degree: Vec<usize> = (0..n).map(|g| graph.degree_of(g)).collect();
    let max_degree = degree.iter().copied().max().unwrap_or(0);

    // Bucket sort vertices by degree.
    let mut bin = vec![0usize; max_degree + 2];
    for &d in &degree {
        bin[d] += 1;
    }
    let mut start = 0usize;
    for b in bin.iter_mut() {
        let count = *b;
        *b = start;
        start += count;
    }
    let mut pos = vec![0usize; n]; // position of vertex in `vert`
    let mut vert = vec![0u32; n]; // vertices sorted by current degree
    for v in 0..n {
        pos[v] = bin[degree[v]];
        vert[pos[v]] = v as u32;
        bin[degree[v]] += 1;
    }
    // Restore bin starts.
    for d in (1..bin.len()).rev() {
        bin[d] = bin[d - 1];
    }
    bin[0] = 0;

    let mut core = vec![0u32; n];
    let mut degeneracy = 0u32;
    let mut live = graph.live();
    for i in 0..n {
        let v = vert[i] as usize;
        let dv = degree[v];
        core[v] = dv as u32;
        degeneracy = degeneracy.max(core[v]);
        // A left vertex's neighbours are right indices, whose global ids
        // start at `nl`.
        let base = if v < nl { nl } else { 0 };
        graph.remove(&mut live, v, |w| {
            let w = base + w;
            if degree[w] > dv {
                // Swap w with the first vertex of its degree bucket, then
                // shrink its degree by one.
                let dw = degree[w];
                let pw = pos[w];
                let pfirst = bin[dw];
                let wfirst = vert[pfirst] as usize;
                if w != wfirst {
                    vert.swap(pw, pfirst);
                    pos[w] = pfirst;
                    pos[wfirst] = pw;
                }
                bin[dw] += 1;
                degree[w] -= 1;
            }
        });
    }

    CoreDecomposition {
        core,
        order: vert,
        degeneracy,
    }
}

/// Global-id membership mask of the `k`-core: `mask[g]` is true iff vertex
/// `g` has core number ≥ `k`.
pub fn k_core_mask(decomposition: &CoreDecomposition, k: u32) -> Vec<bool> {
    decomposition.core.iter().map(|&c| c >= k).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::graph::BipartiteGraph;

    /// Brute-force core numbers by repeated min-degree peeling per k.
    fn brute_core(graph: &BipartiteGraph) -> Vec<u32> {
        let n = graph.num_vertices();
        let nl = graph.num_left();
        let mut core = vec![0u32; n];
        for k in 1..=n as u32 {
            // Iteratively remove vertices with degree < k; survivors have
            // core >= k.
            let mut alive = vec![true; n];
            loop {
                let mut changed = false;
                for g in 0..n {
                    if !alive[g] {
                        continue;
                    }
                    let deg = if g < nl {
                        graph
                            .neighbors_left(g as u32)
                            .iter()
                            .filter(|&&w| alive[nl + w as usize])
                            .count()
                    } else {
                        graph
                            .neighbors_right((g - nl) as u32)
                            .iter()
                            .filter(|&&w| alive[w as usize])
                            .count()
                    };
                    if deg < k as usize {
                        alive[g] = false;
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
            for g in 0..n {
                if alive[g] {
                    core[g] = k;
                }
            }
            if alive.iter().all(|&a| !a) {
                break;
            }
        }
        core
    }

    #[test]
    fn empty_graph() {
        let g = BipartiteGraph::from_edges(0, 0, []).unwrap();
        let d = core_decomposition(&g);
        assert_eq!(d.degeneracy, 0);
        assert!(d.order.is_empty());
    }

    #[test]
    fn isolated_vertices_have_core_zero() {
        let g = BipartiteGraph::from_edges(3, 3, [(0, 0)]).unwrap();
        let d = core_decomposition(&g);
        assert_eq!(d.core[1], 0);
        assert_eq!(d.core[0], 1);
        assert_eq!(d.core[3], 1); // R0 global id = 3
        assert_eq!(d.degeneracy, 1);
    }

    #[test]
    fn complete_bipartite_core() {
        let g = generators::complete(4, 6);
        let d = core_decomposition(&g);
        // K(4,6): every left vertex has degree 6, right degree 4; the
        // whole graph is a 4-core.
        assert_eq!(d.degeneracy, 4);
        for u in 0..4 {
            assert_eq!(d.core[u], 4);
        }
        for v in 4..10 {
            assert_eq!(d.core[v], 4);
        }
    }

    #[test]
    fn star_has_core_one() {
        let g = BipartiteGraph::from_edges(1, 5, (0..5).map(|v| (0, v))).unwrap();
        let d = core_decomposition(&g);
        assert_eq!(d.degeneracy, 1);
        assert!(d.core.iter().all(|&c| c == 1));
    }

    #[test]
    fn path_has_core_one() {
        // L0-R0, R0-L1, L1-R1: a path of length 3.
        let g = BipartiteGraph::from_edges(2, 2, [(0, 0), (1, 0), (1, 1)]).unwrap();
        let d = core_decomposition(&g);
        assert_eq!(d.degeneracy, 1);
    }

    #[test]
    fn cycle_has_core_two() {
        // 4-cycle: L0-R0, R0-L1, L1-R1, R1-L0.
        let g = BipartiteGraph::from_edges(2, 2, [(0, 0), (1, 0), (1, 1), (0, 1)]).unwrap();
        let d = core_decomposition(&g);
        assert_eq!(d.degeneracy, 2);
        assert!(d.core.iter().all(|&c| c == 2));
    }

    #[test]
    fn peel_order_contains_every_vertex_once() {
        let g = generators::uniform_edges(30, 30, 200, 9);
        let d = core_decomposition(&g);
        let mut seen = vec![false; g.num_vertices()];
        for &v in &d.order {
            assert!(!seen[v as usize], "duplicate {v}");
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        for seed in 0..8 {
            let g = generators::uniform_edges(12, 10, 40, seed);
            let fast = core_decomposition(&g);
            let brute = brute_core(&g);
            assert_eq!(fast.core, brute, "seed {seed}");
        }
    }

    #[test]
    fn local_peel_matches_the_csr_peel() {
        for seed in 0..30u64 {
            let nl = 5 + (seed as u32 * 7) % 60;
            let nr = 3 + (seed as u32 * 11) % 70;
            let g = if seed % 3 == 0 {
                generators::dense_uniform(nl, nr, 0.2 + 0.025 * seed as f64, seed)
            } else {
                let edges = (nl * nr) as usize / (2 + seed as usize % 5);
                generators::uniform_edges(nl, nr, edges, seed)
            };
            let left: Vec<u32> = (0..nl).collect();
            let right: Vec<u32> = (0..nr).collect();
            let local = local_core_decomposition(&LocalGraph::induced(&g, &left, &right));
            let csr = core_decomposition(&g);
            assert_eq!(local.core, csr.core, "seed {seed}");
            assert_eq!(local.degeneracy, csr.degeneracy, "seed {seed}");
            assert_eq!(local.order, csr.order, "seed {seed}");
        }
    }

    #[test]
    fn degeneracy_is_max_core() {
        let g = generators::uniform_edges(40, 40, 300, 4);
        let d = core_decomposition(&g);
        assert_eq!(d.degeneracy, d.core.iter().copied().max().unwrap());
    }

    #[test]
    fn k_core_mask_matches_core_numbers() {
        let g = generators::uniform_edges(20, 20, 100, 2);
        let d = core_decomposition(&g);
        let mask = k_core_mask(&d, 2);
        for (g_id, &m) in mask.iter().enumerate() {
            assert_eq!(m, d.core[g_id] >= 2);
        }
    }

    #[test]
    fn order_is_valid_degeneracy_order() {
        // In a degeneracy order, each vertex's later-neighbour count is at
        // most the degeneracy.
        let g = generators::uniform_edges(25, 25, 180, 13);
        let d = core_decomposition(&g);
        let nl = g.num_left();
        let mut rank = vec![0usize; g.num_vertices()];
        for (i, &v) in d.order.iter().enumerate() {
            rank[v as usize] = i;
        }
        for (i, &v) in d.order.iter().enumerate() {
            let v = v as usize;
            let later = if v < nl {
                g.neighbors_left(v as u32)
                    .iter()
                    .filter(|&&w| rank[nl + w as usize] > i)
                    .count()
            } else {
                g.neighbors_right((v - nl) as u32)
                    .iter()
                    .filter(|&&w| rank[w as usize] > i)
                    .count()
            };
            assert!(
                later <= d.degeneracy as usize,
                "vertex {v} has {later} later neighbours > degeneracy {}",
                d.degeneracy
            );
        }
    }
}

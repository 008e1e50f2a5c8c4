//! Test-only oracle for `mbb_bigraph::bicore`.
//!
//! [`hashmap_bicore_decomposition`] is the original bicore peel, kept
//! verbatim: common-neighbour multiplicities in a `HashMap<u64, u32>`,
//! 2-hop lists in a `Vec<Vec<u32>>`, and a lazy `BinaryHeap` pushed on every
//! decrement. It picks the same vertex as the flat-array peel at every step
//! (min `|N≤2|`, then degree, then id), so the two must agree on `bicore`,
//! `order` and `bidegeneracy` exactly.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use mbb_bigraph::bicore::BicoreDecomposition;
use mbb_bigraph::graph::BipartiteGraph;

#[inline]
fn pair_key(a: u32, b: u32) -> u64 {
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    ((hi as u64) << 32) | lo as u64
}

/// The original `HashMap` bicore peel (Algorithm 7).
#[allow(clippy::needless_range_loop)] // index loops mirror the array-based peeling
pub fn hashmap_bicore_decomposition(graph: &BipartiteGraph) -> BicoreDecomposition {
    let nl = graph.num_left();
    let n = graph.num_vertices();
    if n == 0 {
        return BicoreDecomposition {
            bicore: Vec::new(),
            order: Vec::new(),
            bidegeneracy: 0,
        };
    }

    // Global-id adjacency accessor.
    let neighbors_global = |g: usize| -> (&[u32], usize) {
        // Returns (opposite-side local indices, offset to globalise them).
        if g < nl {
            (graph.neighbors_left(g as u32), nl)
        } else {
            (graph.neighbors_right((g - nl) as u32), 0)
        }
    };

    // Common-neighbour multiplicities for same-side pairs at distance 2,
    // plus the distinct 2-hop adjacency lists.
    let mut cn: HashMap<u64, u32> = HashMap::new();
    for mid in 0..n {
        let (adj, offset) = neighbors_global(mid);
        for i in 0..adj.len() {
            for j in (i + 1)..adj.len() {
                let a = adj[i] + offset as u32;
                let b = adj[j] + offset as u32;
                *cn.entry(pair_key(a, b)).or_insert(0) += 1;
            }
        }
    }
    let mut two_hop_adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for &key in cn.keys() {
        let a = (key & 0xffff_ffff) as u32;
        let b = (key >> 32) as u32;
        two_hop_adj[a as usize].push(b);
        two_hop_adj[b as usize].push(a);
    }

    let mut alive = vec![true; n];
    let mut deg: Vec<usize> = (0..n).map(|g| neighbors_global(g).0.len()).collect();
    let mut n2count: Vec<usize> = two_hop_adj.iter().map(|v| v.len()).collect();
    let mut nle2: Vec<usize> = (0..n).map(|g| deg[g] + n2count[g]).collect();

    // Lazy min-heap keyed by (|N≤2|, degree) per Lemma 10's tie-break.
    let mut heap: BinaryHeap<Reverse<(usize, usize, u32)>> = (0..n)
        .map(|g| Reverse((nle2[g], deg[g], g as u32)))
        .collect();

    let mut bicore = vec![0u32; n];
    let mut order = Vec::with_capacity(n);
    let mut running_max = 0u32;
    let mut scratch_alive_neighbors: Vec<u32> = Vec::new();

    while let Some(Reverse((val, d, v))) = heap.pop() {
        let v = v as usize;
        if !alive[v] || val != nle2[v] || d != deg[v] {
            continue; // stale entry
        }
        alive[v] = false;
        running_max = running_max.max(nle2[v] as u32);
        bicore[v] = running_max;
        order.push(v as u32);

        // 1. Direct neighbours lose v from N(·).
        let (adj, offset) = neighbors_global(v);
        scratch_alive_neighbors.clear();
        for &w_local in adj {
            let w = w_local as usize + offset;
            if alive[w] {
                scratch_alive_neighbors.push(w as u32);
            }
        }
        for &w in &scratch_alive_neighbors {
            let w = w as usize;
            deg[w] -= 1;
            nle2[w] -= 1;
            heap.push(Reverse((nle2[w], deg[w], w as u32)));
        }

        // 2. Same-side 2-hop neighbours lose v from N2(·).
        for &w in &two_hop_adj[v] {
            let w = w as usize;
            if !alive[w] {
                continue;
            }
            let key = pair_key(v as u32, w as u32);
            if cn.get(&key).copied().unwrap_or(0) > 0 {
                cn.remove(&key);
                n2count[w] -= 1;
                nle2[w] -= 1;
                heap.push(Reverse((nle2[w], deg[w], w as u32)));
            }
        }

        // 3. Pairs of v's surviving neighbours lose a common neighbour; a
        // pair whose count hits zero falls out of each other's N2.
        for i in 0..scratch_alive_neighbors.len() {
            for j in (i + 1)..scratch_alive_neighbors.len() {
                let a = scratch_alive_neighbors[i];
                let b = scratch_alive_neighbors[j];
                let key = pair_key(a, b);
                if let Some(count) = cn.get_mut(&key) {
                    *count -= 1;
                    if *count == 0 {
                        cn.remove(&key);
                        let (a, b) = (a as usize, b as usize);
                        n2count[a] -= 1;
                        nle2[a] -= 1;
                        n2count[b] -= 1;
                        nle2[b] -= 1;
                        heap.push(Reverse((nle2[a], deg[a], a as u32)));
                        heap.push(Reverse((nle2[b], deg[b], b as u32)));
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

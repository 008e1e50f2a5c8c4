//! Shared brute-force oracles for unit tests.

use mbb_bigraph::bitset::BitSet;
use mbb_bigraph::graph::BipartiteGraph;
use mbb_bigraph::local::LocalGraph;

/// Brute-force optimum half-size of a [`LocalGraph`]: every subset of the
/// left side paired with all its common neighbours.
pub(crate) fn brute_force_half_local(g: &LocalGraph) -> usize {
    let nl = g.num_left();
    assert!(nl <= 20, "brute force limited to small graphs");
    let mut best = 0usize;
    for mask in 0u32..(1u32 << nl) {
        let chosen: Vec<u32> = (0..nl as u32).filter(|u| mask >> u & 1 == 1).collect();
        let mut common = BitSet::full(g.num_right());
        for &u in &chosen {
            common.intersect_with(&g.left_row(u));
        }
        best = best.max(chosen.len().min(common.len()));
    }
    best
}

/// Brute-force optimum half-size of a [`BipartiteGraph`].
pub(crate) fn brute_force_half_graph(g: &BipartiteGraph) -> usize {
    let nl = g.num_left();
    assert!(nl <= 20, "brute force limited to small graphs");
    let mut best = 0usize;
    for mask in 0u32..(1u32 << nl) {
        let mut common: Option<Vec<u32>> = None;
        let mut size = 0usize;
        for u in 0..nl as u32 {
            if mask >> u & 1 == 1 {
                size += 1;
                let n = g.neighbors_left(u);
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

//! Brute-force exact MBB — the correctness oracle.
//!
//! Enumerates every subset of the smaller side (≤ 2^min(|L|, |R|) states)
//! and pairs it with its full common neighbourhood; only usable on tiny
//! graphs, but unarguably correct, which is what integration and property
//! tests need.

use mbb_bigraph::graph::{sorted_intersection, BipartiteGraph};
use mbb_core::biclique::Biclique;

/// Exact maximum balanced biclique by subset enumeration. Panics if the
/// smaller side exceeds 24 vertices.
pub fn brute_force_mbb(graph: &BipartiteGraph) -> Biclique {
    let nl = graph.num_left();
    let nr = graph.num_right();
    let flip = nr < nl;
    let side = nl.min(nr);
    assert!(side <= 24, "brute force is for tiny graphs (side = {side})");

    let neighbors = |i: u32| -> &[u32] {
        if flip {
            graph.neighbors_right(i)
        } else {
            graph.neighbors_left(i)
        }
    };

    let mut best = Biclique::empty();
    for mask in 0u64..(1u64 << side) {
        let mut chosen: Vec<u32> = Vec::new();
        let mut common: Option<Vec<u32>> = None;
        let mut dead = false;
        for i in 0..side as u32 {
            if mask >> i & 1 == 1 {
                chosen.push(i);
                common = Some(match common {
                    None => neighbors(i).to_vec(),
                    Some(c) => sorted_intersection(&c, neighbors(i)),
                });
                if common.as_ref().is_some_and(|c| c.is_empty()) {
                    dead = true;
                    break;
                }
            }
        }
        if dead {
            continue;
        }
        let other = common.unwrap_or_default();
        let half = chosen.len().min(other.len());
        if half > best.half_size() {
            let (left, right) = if flip {
                (other, chosen)
            } else {
                (chosen, other)
            };
            best = Biclique::balanced(left, right);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbb_bigraph::generators;

    #[test]
    fn complete_graph() {
        let g = generators::complete(4, 7);
        let b = brute_force_mbb(&g);
        assert_eq!(b.half_size(), 4);
        assert!(b.is_valid(&g));
    }

    #[test]
    fn empty_graph() {
        let g = BipartiteGraph::from_edges(0, 0, []).unwrap();
        assert_eq!(brute_force_mbb(&g).half_size(), 0);
    }

    #[test]
    fn uses_smaller_side() {
        // 30 left but only 6 right: enumeration must flip sides.
        let g = generators::uniform_edges(30, 6, 100, 1);
        let b = brute_force_mbb(&g);
        assert!(b.is_valid(&g));
        assert!(b.half_size() >= 1);
    }

    #[test]
    fn agrees_with_core_solver() {
        for seed in 0..10u64 {
            let g = generators::uniform_edges(11, 11, 55, seed);
            let brute = brute_force_mbb(&g);
            let solved = mbb_core::MbbEngine::new(g.clone()).solve().value;
            assert_eq!(brute.half_size(), solved.half_size(), "seed {seed}");
        }
    }

    #[test]
    fn single_edge() {
        let g = BipartiteGraph::from_edges(1, 1, [(0, 0)]).unwrap();
        let b = brute_force_mbb(&g);
        assert_eq!(b.half_size(), 1);
    }
}

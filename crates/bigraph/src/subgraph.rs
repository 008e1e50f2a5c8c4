//! Induced subgraphs with original-id maps.
//!
//! Reductions (Lemma 4) and vertex-centred decomposition both shrink the
//! working graph while results must be reported in original vertex ids, so
//! every extraction carries `left_ids` / `right_ids` translation tables.

use crate::graph::BipartiteGraph;

/// An induced subgraph plus the maps from its local indices back to the
/// indices of the parent graph.
#[derive(Debug, Clone)]
pub struct InducedSubgraph {
    /// The induced graph.
    pub graph: BipartiteGraph,
    /// `left_ids[i]` = parent left index of local left vertex `i` (sorted).
    pub left_ids: Vec<u32>,
    /// `right_ids[j]` = parent right index of local right vertex `j`.
    pub right_ids: Vec<u32>,
}

impl InducedSubgraph {
    /// Translates a local-left index to the parent index.
    #[inline]
    pub fn parent_left(&self, local: u32) -> u32 {
        self.left_ids[local as usize]
    }

    /// Translates a local-right index to the parent index.
    #[inline]
    pub fn parent_right(&self, local: u32) -> u32 {
        self.right_ids[local as usize]
    }

    /// The identity embedding of a graph into itself.
    pub fn identity(graph: &BipartiteGraph) -> InducedSubgraph {
        InducedSubgraph {
            left_ids: (0..graph.num_left() as u32).collect(),
            right_ids: (0..graph.num_right() as u32).collect(),
            graph: graph.clone(),
        }
    }
}

/// Extracts the subgraph induced by boolean keep-masks over each side.
pub fn induce_by_mask(
    graph: &BipartiteGraph,
    keep_left: &[bool],
    keep_right: &[bool],
) -> InducedSubgraph {
    debug_assert_eq!(keep_left.len(), graph.num_left());
    debug_assert_eq!(keep_right.len(), graph.num_right());
    let left_ids: Vec<u32> = (0..graph.num_left() as u32)
        .filter(|&u| keep_left[u as usize])
        .collect();
    let right_ids: Vec<u32> = (0..graph.num_right() as u32)
        .filter(|&v| keep_right[v as usize])
        .collect();
    induce_by_ids(graph, left_ids, right_ids)
}

/// Extracts the subgraph induced by explicit (sorted or unsorted) id lists.
///
/// Each kept left row is the parent's sorted row filtered to the kept
/// right ids and renumbered in their (sorted) order, so it stays sorted
/// and goes to [`BipartiteGraph::from_left_rows`] as it is.
pub fn induce_by_ids(
    graph: &BipartiteGraph,
    mut left_ids: Vec<u32>,
    mut right_ids: Vec<u32>,
) -> InducedSubgraph {
    left_ids.sort_unstable();
    left_ids.dedup();
    right_ids.sort_unstable();
    right_ids.dedup();

    let mut right_map = vec![u32::MAX; graph.num_right()];
    for (j, &r) in right_ids.iter().enumerate() {
        right_map[r as usize] = j as u32;
    }
    let mut left_offsets = Vec::with_capacity(left_ids.len() + 1);
    left_offsets.push(0);
    let mut left_neighbors = Vec::new();
    for &l in &left_ids {
        let row = graph
            .neighbors_left(l)
            .iter()
            .map(|&r| right_map[r as usize]);
        left_neighbors.extend(row.filter(|&j| j != u32::MAX));
        left_offsets.push(left_neighbors.len());
    }
    let graph =
        BipartiteGraph::from_left_rows(right_ids.len() as u32, left_offsets, left_neighbors)
            .expect("a sorted parent row renumbered in sorted order stays a valid row");
    InducedSubgraph {
        graph,
        left_ids,
        right_ids,
    }
}

/// Projects a total search order of a parent graph onto an induced
/// subgraph: the subgraph's global ids, sorted by their parent's rank.
///
/// Vertex-centred decomposition is correct under *any* total order, so a
/// session that cached an order for the full graph can restrict it to a
/// reduced residual instead of recomputing a peel order from scratch —
/// the index-reuse hook behind `MbbEngine`.
///
/// `parent_rank[g]` is the position of parent global id `g` in the parent
/// order; `parent_num_left` is the parent's left-side size (global ids are
/// left-then-right).
pub fn project_order(
    parent_rank: &[u32],
    parent_num_left: usize,
    sub: &InducedSubgraph,
) -> Vec<u32> {
    let nl = sub.graph.num_left();
    let mut ids: Vec<u32> = (0..sub.graph.num_vertices() as u32).collect();
    ids.sort_by_key(|&g| {
        let g = g as usize;
        let parent_global = if g < nl {
            sub.left_ids[g] as usize
        } else {
            parent_num_left + sub.right_ids[g - nl] as usize
        };
        parent_rank[parent_global]
    });
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn identity_preserves_everything() {
        let g = generators::uniform_edges(10, 10, 40, 1);
        let s = InducedSubgraph::identity(&g);
        assert_eq!(s.graph.num_edges(), g.num_edges());
        assert_eq!(s.parent_left(3), 3);
        assert_eq!(s.parent_right(7), 7);
    }

    #[test]
    fn mask_induction_keeps_internal_edges_only() {
        let g = generators::uniform_edges(12, 12, 70, 2);
        let keep_left: Vec<bool> = (0..12).map(|u| u % 2 == 0).collect();
        let keep_right: Vec<bool> = (0..12).map(|v| v < 6).collect();
        let s = induce_by_mask(&g, &keep_left, &keep_right);
        assert_eq!(s.left_ids, vec![0, 2, 4, 6, 8, 10]);
        assert_eq!(s.right_ids, vec![0, 1, 2, 3, 4, 5]);
        for (i, &l) in s.left_ids.iter().enumerate() {
            for (j, &r) in s.right_ids.iter().enumerate() {
                assert_eq!(s.graph.has_edge(i as u32, j as u32), g.has_edge(l, r));
            }
        }
    }

    #[test]
    fn id_induction_sorts_and_dedups() {
        let g = generators::uniform_edges(8, 8, 30, 3);
        let s = induce_by_ids(&g, vec![5, 1, 5, 3], vec![7, 0]);
        assert_eq!(s.left_ids, vec![1, 3, 5]);
        assert_eq!(s.right_ids, vec![0, 7]);
    }

    #[test]
    fn empty_induction() {
        let g = generators::uniform_edges(5, 5, 10, 4);
        let s = induce_by_ids(&g, vec![], vec![]);
        assert_eq!(s.graph.num_vertices(), 0);
        assert_eq!(s.graph.num_edges(), 0);
    }

    #[test]
    fn projected_order_is_a_rank_sorted_permutation() {
        let g = generators::uniform_edges(10, 10, 45, 6);
        // Parent order: reversed global ids.
        let n = g.num_vertices();
        let parent_order: Vec<u32> = (0..n as u32).rev().collect();
        let mut parent_rank = vec![0u32; n];
        for (i, &gid) in parent_order.iter().enumerate() {
            parent_rank[gid as usize] = i as u32;
        }
        let s = induce_by_ids(&g, vec![1, 4, 7], vec![0, 2, 9]);
        let projected = project_order(&parent_rank, g.num_left(), &s);
        assert_eq!(projected.len(), s.graph.num_vertices());
        // Permutation of the subgraph's global ids.
        let mut sorted = projected.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (0..s.graph.num_vertices() as u32).collect::<Vec<_>>()
        );
        // Ranks strictly decrease in the parent order's reversal.
        let parent_global = |g: u32| {
            let g = g as usize;
            if g < s.graph.num_left() {
                s.left_ids[g] as usize
            } else {
                10 + s.right_ids[g - s.graph.num_left()] as usize
            }
        };
        for w in projected.windows(2) {
            assert!(parent_rank[parent_global(w[0])] < parent_rank[parent_global(w[1])]);
        }
    }
}

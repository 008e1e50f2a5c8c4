//! Connected components of a bipartite graph.
//!
//! A biclique with both sides non-empty is connected, so every biclique
//! lies inside a single component.

use crate::graph::{BipartiteGraph, Side, Vertex};

/// Component labelling of a bipartite graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnectedComponents {
    /// Component id per left vertex (`u32::MAX` for isolated vertices —
    /// they belong to no edge and thus to no useful component).
    pub left_label: Vec<u32>,
    /// Component id per right vertex (`u32::MAX` when isolated).
    pub right_label: Vec<u32>,
    /// Number of components with at least one edge.
    pub count: u32,
}

impl ConnectedComponents {
    /// The component of a vertex, `None` when it is isolated.
    pub fn component_of(&self, v: Vertex) -> Option<u32> {
        let label = match v.side {
            Side::Left => self.left_label[v.index as usize],
            Side::Right => self.right_label[v.index as usize],
        };
        (label != u32::MAX).then_some(label)
    }
}

/// Labels the connected components (BFS over the bipartite adjacency).
/// Isolated vertices are left unlabelled; `count` counts only components
/// containing an edge.
///
/// ```
/// use mbb_bigraph::components::connected_components;
/// use mbb_bigraph::graph::BipartiteGraph;
///
/// // Two disjoint edges and an isolated right vertex.
/// let g = BipartiteGraph::from_edges(2, 3, [(0, 0), (1, 1)])?;
/// let cc = connected_components(&g);
/// assert_eq!(cc.count, 2);
/// assert_ne!(cc.left_label[0], cc.left_label[1]);
/// assert_eq!(cc.right_label[2], u32::MAX);
/// # Ok::<(), mbb_bigraph::graph::GraphError>(())
/// ```
pub fn connected_components(graph: &BipartiteGraph) -> ConnectedComponents {
    let nl = graph.num_left();
    let nr = graph.num_right();
    let mut left_label = vec![u32::MAX; nl];
    let mut right_label = vec![u32::MAX; nr];
    let mut count = 0u32;
    let mut queue: Vec<Vertex> = Vec::new();

    for start in 0..nl as u32 {
        if left_label[start as usize] != u32::MAX || graph.degree_left(start) == 0 {
            continue;
        }
        let label = count;
        count += 1;
        left_label[start as usize] = label;
        queue.push(Vertex::left(start));
        while let Some(v) = queue.pop() {
            for &w in graph.neighbors(v) {
                let (labels, side) = match v.side {
                    Side::Left => (&mut right_label, Side::Right),
                    Side::Right => (&mut left_label, Side::Left),
                };
                if labels[w as usize] == u32::MAX {
                    labels[w as usize] = label;
                    queue.push(Vertex { side, index: w });
                }
            }
        }
    }
    ConnectedComponents {
        left_label,
        right_label,
        count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    /// Reachability oracle: same component iff connected by a path.
    fn reachable(graph: &BipartiteGraph, from: Vertex, to: Vertex) -> bool {
        let mut seen_left = vec![false; graph.num_left()];
        let mut seen_right = vec![false; graph.num_right()];
        let mut queue = vec![from];
        match from.side {
            Side::Left => seen_left[from.index as usize] = true,
            Side::Right => seen_right[from.index as usize] = true,
        }
        while let Some(v) = queue.pop() {
            if v == to {
                return true;
            }
            for &w in graph.neighbors(v) {
                let (seen, side) = match v.side {
                    Side::Left => (&mut seen_right, Side::Right),
                    Side::Right => (&mut seen_left, Side::Left),
                };
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    queue.push(Vertex { side, index: w });
                }
            }
        }
        false
    }

    #[test]
    fn labels_match_reachability() {
        for seed in 0..10u64 {
            let g = generators::uniform_edges(10, 10, 14, seed);
            let cc = connected_components(&g);
            for u in 0..10u32 {
                for v in 0..10u32 {
                    let same = cc.component_of(Vertex::left(u)).is_some()
                        && cc.component_of(Vertex::left(u)) == cc.component_of(Vertex::right(v));
                    assert_eq!(
                        same,
                        reachable(&g, Vertex::left(u), Vertex::right(v)),
                        "seed {seed} L{u} R{v}"
                    );
                }
            }
        }
    }

    #[test]
    fn disjoint_blocks_are_separate_components() {
        // Block A on L{0,1}×R{0,1}, block B on L{2,3}×R{2,3}.
        let mut edges = Vec::new();
        for u in 0..2u32 {
            for v in 0..2u32 {
                edges.push((u, v));
                edges.push((u + 2, v + 2));
            }
        }
        let g = BipartiteGraph::from_edges(4, 4, edges).unwrap();
        let cc = connected_components(&g);
        assert_eq!(cc.count, 2);
        assert_eq!(cc.left_label, vec![0, 0, 1, 1]);
        assert_eq!(cc.right_label, vec![0, 0, 1, 1]);
    }

    #[test]
    fn isolated_vertices_are_unlabelled_and_dropped() {
        let g = BipartiteGraph::from_edges(3, 3, [(0, 0)]).unwrap();
        let cc = connected_components(&g);
        assert_eq!(cc.count, 1);
        assert_eq!(cc.component_of(Vertex::left(1)), None);
        assert_eq!(cc.component_of(Vertex::right(2)), None);
        assert_eq!(cc.component_of(Vertex::left(0)), Some(0));
        assert_eq!(cc.component_of(Vertex::right(0)), Some(0));
    }

    #[test]
    fn component_edges_partition_graph_edges() {
        for seed in 0..8u64 {
            // Both endpoints of every edge carry the same label, so the
            // labels split the edge set into `count` non-empty parts.
            let g = generators::uniform_edges(15, 15, 25, seed ^ 0x3);
            let cc = connected_components(&g);
            let mut per_component = vec![0usize; cc.count as usize];
            for (u, v) in g.edges() {
                let label = cc.left_label[u as usize];
                assert_eq!(label, cc.right_label[v as usize], "seed {seed}");
                per_component[label as usize] += 1;
            }
            assert!(per_component.iter().all(|&m| m > 0), "seed {seed}");
            assert_eq!(per_component.iter().sum::<usize>(), g.num_edges());
        }
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let g = BipartiteGraph::from_edges(0, 0, []).unwrap();
        assert_eq!(connected_components(&g).count, 0);
        let g = BipartiteGraph::from_edges(4, 4, []).unwrap();
        assert_eq!(connected_components(&g).count, 0);
    }

    #[test]
    fn connected_graph_is_one_component() {
        let g = generators::complete(3, 4);
        let cc = connected_components(&g);
        assert_eq!(cc.count, 1);
        assert!(cc.left_label.iter().all(|&l| l == 0));
        assert!(cc.right_label.iter().all(|&l| l == 0));
    }
}

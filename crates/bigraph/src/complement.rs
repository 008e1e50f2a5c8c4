//! Path/cycle decomposition of near-complete candidate subgraphs
//! (Observation 1 of the paper).
//!
//! When every candidate vertex misses at most two neighbours on the other
//! candidate side, the bipartite complement restricted to the candidates has
//! maximum degree ≤ 2, so its non-trivial part is a disjoint union of paths
//! and (even-length) cycles. [`Decomposition::decompose`] performs this
//! decomposition, failing the moment any vertex misses three or more
//! neighbours — i.e. when the Lemma 3 polynomial case does not apply.
//!
//! A [`Decomposition`] keeps its buffers between calls: the search runs it
//! at every Lemma 3 leaf, and after the first few leaves a decomposition
//! allocates nothing.

use crate::bitset::{BitSet, Bits};
use crate::local::{LocalGraph, LocalVertex};

/// Kind of a complement component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComponentKind {
    /// A path with an odd number of edges (equal side counts).
    OddPath,
    /// A path with an even number of edges (side counts differ by one).
    EvenPath,
    /// An (even-length) cycle.
    Cycle,
}

/// A single path or cycle of the complement graph.
#[derive(Debug, Clone, Copy)]
pub struct Component<'a> {
    /// Path order (for cycles, a cyclic order starting anywhere).
    pub vertices: &'a [LocalVertex],
    /// Component kind.
    pub kind: ComponentKind,
}

impl Component<'_> {
    /// Number of edges `p` of the path/cycle (the paper's component length).
    pub fn length(&self) -> usize {
        match self.kind {
            ComponentKind::Cycle => self.vertices.len(),
            _ => self.vertices.len() - 1,
        }
    }

    /// Count of left-side vertices in the component.
    pub fn left_count(&self) -> usize {
        self.vertices.iter().filter(|v| v.left).count()
    }

    /// Count of right-side vertices.
    pub fn right_count(&self) -> usize {
        self.vertices.len() - self.left_count()
    }
}

/// One candidate's complement adjacency: its ≤ 2 missing neighbours.
#[derive(Debug, Clone, Copy, Default)]
struct Missing {
    others: [u32; 2],
    count: u8,
    visited: bool,
}

impl Missing {
    /// The members of `candidates \ row`, read straight from the words, or
    /// `None` as soon as a third one turns up.
    fn of(candidates: &[u64], row: &[u64]) -> Option<Missing> {
        let mut missing = Missing::default();
        for (wi, (&c, &r)) in candidates.iter().zip(row).enumerate() {
            let mut bits = c & !r;
            while bits != 0 {
                if missing.count == 2 {
                    return None;
                }
                missing.others[missing.count as usize] =
                    (wi * 64 + bits.trailing_zeros() as usize) as u32;
                missing.count += 1;
                bits &= bits - 1;
            }
        }
        Some(missing)
    }

    fn others(&self) -> &[u32] {
        &self.others[..self.count as usize]
    }
}

/// The decomposition of the candidate-restricted complement, refilled in
/// place by [`Decomposition::decompose`].
#[derive(Debug, Clone, Default)]
pub struct Decomposition {
    /// Every component's vertices, concatenated in discovery order.
    vertices: Vec<LocalVertex>,
    /// `(start, end, kind)` of each component within `vertices`.
    spans: Vec<(usize, usize, ComponentKind)>,
    trivial_left: Vec<u32>,
    trivial_right: Vec<u32>,
    /// Complement adjacency, indexed by local vertex; only the entries of
    /// the current candidates are meaningful.
    left: Vec<Missing>,
    right: Vec<Missing>,
}

impl Decomposition {
    /// Decomposes the complement of `graph[ca ∪ cb]` into paths and cycles,
    /// replacing the previous contents.
    ///
    /// Returns false if any candidate misses more than two neighbours on
    /// the other candidate side (Lemma 3 precondition violated); the
    /// contents are then unspecified. For an empty candidate pair the
    /// decomposition is trivially empty.
    pub fn decompose(&mut self, graph: &LocalGraph, ca: &BitSet, cb: &BitSet) -> bool {
        self.vertices.clear();
        self.spans.clear();
        self.trivial_left.clear();
        self.trivial_right.clear();
        if self.left.len() < graph.num_left() {
            self.left.resize(graph.num_left(), Missing::default());
        }
        if self.right.len() < graph.num_right() {
            self.right.resize(graph.num_right(), Missing::default());
        }
        for u in ca.iter() {
            match Missing::of(cb.words(), graph.left_row(u as u32).words()) {
                Some(missing) => self.left[u] = missing,
                None => return false,
            }
        }
        for v in cb.iter() {
            match Missing::of(ca.words(), graph.right_row(v as u32).words()) {
                Some(missing) => self.right[v] = missing,
                None => return false,
            }
        }

        // Candidates in a fixed order: left ascending, then right
        // ascending. Trivial part first (complement degree 0), then paths
        // from every unvisited endpoint (degree 1), then cycles —
        // everything left has degree 2.
        let candidates = || {
            ca.iter()
                .map(|u| LocalVertex::left(u as u32))
                .chain(cb.iter().map(|v| LocalVertex::right(v as u32)))
        };
        for vertex in candidates() {
            if self.slot(vertex).count == 0 {
                self.slot_mut(vertex).visited = true;
                if vertex.left {
                    self.trivial_left.push(vertex.index);
                } else {
                    self.trivial_right.push(vertex.index);
                }
            }
        }
        for vertex in candidates() {
            if !self.slot(vertex).visited && self.slot(vertex).count == 1 {
                let (start, end) = self.walk(vertex);
                let kind = if (end - start - 1) % 2 == 1 {
                    ComponentKind::OddPath
                } else {
                    ComponentKind::EvenPath
                };
                self.spans.push((start, end, kind));
            }
        }
        for vertex in candidates() {
            if !self.slot(vertex).visited {
                debug_assert_eq!(self.slot(vertex).count, 2);
                let (start, end) = self.walk(vertex);
                self.spans.push((start, end, ComponentKind::Cycle));
            }
        }
        true
    }

    fn slot(&self, vertex: LocalVertex) -> Missing {
        let side = if vertex.left { &self.left } else { &self.right };
        side[vertex.index as usize]
    }

    fn slot_mut(&mut self, vertex: LocalVertex) -> &mut Missing {
        let side = if vertex.left {
            &mut self.left
        } else {
            &mut self.right
        };
        &mut side[vertex.index as usize]
    }

    /// Follows unvisited complement edges from `start`, appending the
    /// vertices it passes to `vertices`; returns their range there.
    fn walk(&mut self, start: LocalVertex) -> (usize, usize) {
        let begin = self.vertices.len();
        let mut current = Some(start);
        while let Some(vertex) = current {
            self.slot_mut(vertex).visited = true;
            self.vertices.push(vertex);
            current = self
                .slot(vertex)
                .others()
                .iter()
                .map(|&index| LocalVertex {
                    left: !vertex.left,
                    index,
                })
                .find(|&n| !self.slot(n).visited);
        }
        (begin, self.vertices.len())
    }

    /// The path/cycle components of the non-trivial part.
    pub fn components(
        &self,
    ) -> impl DoubleEndedIterator<Item = Component<'_>> + ExactSizeIterator + '_ {
        self.spans.iter().map(|&(start, end, kind)| Component {
            vertices: &self.vertices[start..end],
            kind,
        })
    }

    /// Left candidates with no missing neighbour (complement degree 0).
    pub fn trivial_left(&self) -> &[u32] {
        &self.trivial_left
    }

    /// Right candidates with no missing neighbour.
    pub fn trivial_right(&self) -> &[u32] {
        &self.trivial_right
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_sets(nl: usize, nr: usize) -> (BitSet, BitSet) {
        (BitSet::full(nl), BitSet::full(nr))
    }

    fn decompose(g: &LocalGraph, ca: &BitSet, cb: &BitSet) -> Option<Decomposition> {
        let mut d = Decomposition::default();
        d.decompose(g, ca, cb).then_some(d)
    }

    fn components(d: &Decomposition) -> Vec<Component<'_>> {
        d.components().collect()
    }

    #[test]
    fn complete_graph_is_all_trivial() {
        let g = LocalGraph::from_edges(3, 3, (0..3).flat_map(|u| (0..3).map(move |v| (u, v))));
        let (ca, cb) = full_sets(3, 3);
        let d = decompose(&g, &ca, &cb).unwrap();
        assert!(components(&d).is_empty());
        assert_eq!(d.trivial_left(), [0, 1, 2]);
        assert_eq!(d.trivial_right(), [0, 1, 2]);
    }

    #[test]
    fn single_missing_edge_is_odd_path() {
        // Complete 2x2 minus edge (0,0): complement is a single edge
        // L0-R0, an odd path of length 1.
        let g = LocalGraph::from_edges(2, 2, [(0, 1), (1, 0), (1, 1)]);
        let (ca, cb) = full_sets(2, 2);
        let d = decompose(&g, &ca, &cb).unwrap();
        assert_eq!(components(&d).len(), 1);
        assert_eq!(components(&d)[0].kind, ComponentKind::OddPath);
        assert_eq!(components(&d)[0].length(), 1);
        assert_eq!(d.trivial_left(), [1]);
        assert_eq!(d.trivial_right(), [1]);
    }

    #[test]
    fn even_path_detection() {
        // Complement edges: L0-R0, R0-L1 → even path with 2 edges.
        // Build complete 2x1 graph then remove nothing... easier: start
        // complete 2x2 and remove (0,0),(1,0): complement = L0-R0-L1 path.
        let g = LocalGraph::from_edges(2, 2, [(0, 1), (1, 1)]);
        let (ca, cb) = full_sets(2, 2);
        let d = decompose(&g, &ca, &cb).unwrap();
        assert_eq!(components(&d).len(), 1);
        let c = components(&d)[0];
        assert_eq!(c.kind, ComponentKind::EvenPath);
        assert_eq!(c.length(), 2);
        assert_eq!(c.left_count(), 2);
        assert_eq!(c.right_count(), 1);
        assert_eq!(d.trivial_right(), [1]);
    }

    #[test]
    fn four_cycle_detection() {
        // Complement = 4-cycle on 2+2 vertices ⇔ graph has no edges on
        // a 2x2... complement of empty 2x2 is complete 2x2 which is a
        // 4-cycle: L0-R0-L1-R1-L0.
        let g = LocalGraph::new(2, 2);
        let (ca, cb) = full_sets(2, 2);
        let d = decompose(&g, &ca, &cb).unwrap();
        assert_eq!(components(&d).len(), 1);
        assert_eq!(components(&d)[0].kind, ComponentKind::Cycle);
        assert_eq!(components(&d)[0].length(), 4);
    }

    #[test]
    fn rejects_three_missing() {
        // L0 misses all of 3 right vertices.
        let g = LocalGraph::from_edges(2, 3, [(1, 0), (1, 1), (1, 2)]);
        let (ca, cb) = full_sets(2, 3);
        assert!(decompose(&g, &ca, &cb).is_none());
    }

    #[test]
    fn respects_candidate_restriction() {
        // L0 misses 3 right vertices overall but only 2 inside CB.
        let g = LocalGraph::from_edges(1, 4, [(0, 3)]);
        let ca = BitSet::full(1);
        let mut cb = BitSet::new(4);
        cb.insert(0);
        cb.insert(1);
        cb.insert(3);
        let d = decompose(&g, &ca, &cb).unwrap();
        // Complement inside candidates: L0-R0, L0-R1 → even path R0-L0-R1.
        assert_eq!(components(&d).len(), 1);
        assert_eq!(components(&d)[0].kind, ComponentKind::EvenPath);
        assert_eq!(components(&d)[0].left_count(), 1);
        assert_eq!(components(&d)[0].right_count(), 2);
        assert_eq!(d.trivial_right(), [3]);
    }

    #[test]
    fn empty_candidates() {
        let g = LocalGraph::new(3, 3);
        let ca = BitSet::new(3);
        let cb = BitSet::new(3);
        let d = decompose(&g, &ca, &cb).unwrap();
        assert!(components(&d).is_empty());
        assert!(d.trivial_left().is_empty());
        assert!(d.trivial_right().is_empty());
    }

    #[test]
    fn path_order_is_consecutive() {
        // Complement path of length 3: complete 2x2 minus edges
        // (0,0),(1,0),(1,1) → complement edges L0-R0, R0-L1, L1-R1.
        let g = LocalGraph::from_edges(2, 2, [(0, 1)]);
        let (ca, cb) = full_sets(2, 2);
        let d = decompose(&g, &ca, &cb).unwrap();
        assert_eq!(components(&d).len(), 1);
        let c = components(&d)[0];
        assert_eq!(c.kind, ComponentKind::OddPath);
        // Adjacent path vertices must be complement edges, i.e. NON-edges
        // of the graph.
        for w in c.vertices.windows(2) {
            let (a, b) = (w[0], w[1]);
            assert_ne!(a.left, b.left);
            let (u, v) = if a.left {
                (a.index, b.index)
            } else {
                (b.index, a.index)
            };
            assert!(!g.has_edge(u, v), "path edge {a:?}-{b:?} should be missing");
        }
    }

    #[test]
    fn reused_decomposition_matches_a_fresh_one() {
        // Complement of C6 on 3+3 (see `six_cycle`), decomposed under
        // shrinking candidate sets into one reused decomposition: each
        // result must equal a fresh decomposition of the same sets.
        let mut g = LocalGraph::new(3, 3);
        for u in 0..3u32 {
            for v in 0..3u32 {
                if v != u && v != (u + 1) % 3 {
                    g.add_edge(u, v);
                }
            }
        }
        let shape = |d: &Decomposition| {
            let parts: Vec<_> = d
                .components()
                .map(|c| (c.kind, c.vertices.to_vec()))
                .collect();
            (parts, d.trivial_left().to_vec(), d.trivial_right().to_vec())
        };
        let mut reused = Decomposition::default();
        let (mut ca, mut cb) = full_sets(3, 3);
        for (left, drop) in [(true, 0), (false, 2), (true, 1), (false, 0)] {
            assert!(reused.decompose(&g, &ca, &cb));
            let fresh = decompose(&g, &ca, &cb).unwrap();
            assert_eq!(shape(&reused), shape(&fresh));
            if left { &mut ca } else { &mut cb }.remove(drop);
        }
    }

    #[test]
    fn six_cycle() {
        // Complement of C6: graph on 3+3 where each left i connects to
        // right j except j ∈ {i, i+1 mod 3} → complement is a 6-cycle.
        let mut g = LocalGraph::new(3, 3);
        for u in 0..3u32 {
            for v in 0..3u32 {
                if v != u && v != (u + 1) % 3 {
                    g.add_edge(u, v);
                }
            }
        }
        let (ca, cb) = full_sets(3, 3);
        let d = decompose(&g, &ca, &cb).unwrap();
        assert_eq!(components(&d).len(), 1);
        assert_eq!(components(&d)[0].kind, ComponentKind::Cycle);
        assert_eq!(components(&d)[0].length(), 6);
        assert_eq!(components(&d)[0].left_count(), 3);
    }
}

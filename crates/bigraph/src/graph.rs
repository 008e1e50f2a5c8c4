//! Compressed-sparse-row bipartite graph.
//!
//! The global graph `G = (L, R, E)` of the paper (§2). Vertices on each side
//! are dense `u32` indices (`0..num_left()`, `0..num_right()`); adjacency is
//! stored twice (once per side) with sorted neighbour slices so that
//! membership tests are binary searches and set intersections are linear
//! merges.
//!
//! Algorithms that need a *total* order over `L ∪ R` (core decomposition,
//! the search orders of Lemmas 6–8) address vertices through [`Vertex`],
//! which packs a [`Side`] and a per-side index, or through the dense
//! *global id* mapping `L = 0..nl`, `R = nl..nl+nr`.

use std::fmt;

/// Which side of the bipartition a vertex belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Side {
    /// The `L` vertex set.
    Left,
    /// The `R` vertex set.
    Right,
}

impl Side {
    /// The other side.
    #[inline]
    pub fn opposite(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }
}

/// A vertex of the bipartite graph: a side plus the index within that side.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Vertex {
    /// Side of the bipartition.
    pub side: Side,
    /// Index within the side (`0..num_left()` or `0..num_right()`).
    pub index: u32,
}

impl Vertex {
    /// A vertex on the left side.
    #[inline]
    pub fn left(index: u32) -> Vertex {
        Vertex {
            side: Side::Left,
            index,
        }
    }

    /// A vertex on the right side.
    #[inline]
    pub fn right(index: u32) -> Vertex {
        Vertex {
            side: Side::Right,
            index,
        }
    }
}

impl fmt::Display for Vertex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.side {
            Side::Left => write!(f, "L{}", self.index),
            Side::Right => write!(f, "R{}", self.index),
        }
    }
}

/// Errors raised while constructing a [`BipartiteGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint was outside the declared side size.
    EndpointOutOfRange {
        /// Offending endpoint.
        vertex: Vertex,
        /// Declared size of that side.
        side_size: u32,
    },
    /// CSR rows handed to [`BipartiteGraph::from_left_rows`] (or decoded
    /// from a graph cache) violate a structural invariant: offsets that do
    /// not run from 0 to the adjacency length, unsorted or duplicate rows,
    /// out-of-range ids.
    InvalidCsr {
        /// Which invariant failed.
        reason: &'static str,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::EndpointOutOfRange { vertex, side_size } => write!(
                f,
                "edge endpoint {vertex} out of range (side has {side_size} vertices)"
            ),
            GraphError::InvalidCsr { reason } => write!(f, "invalid CSR arrays: {reason}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// An immutable CSR bipartite graph. Two graphs are equal when all four
/// CSR arrays are, which is byte identity.
#[derive(Clone, PartialEq, Eq)]
pub struct BipartiteGraph {
    left_offsets: Box<[usize]>,
    left_neighbors: Box<[u32]>,
    right_offsets: Box<[usize]>,
    right_neighbors: Box<[u32]>,
}

impl BipartiteGraph {
    /// Builds a graph from an edge list. Duplicate edges are collapsed.
    ///
    /// `edges` pairs are `(left_index, right_index)`.
    pub fn from_edges(
        num_left: u32,
        num_right: u32,
        edges: impl IntoIterator<Item = (u32, u32)>,
    ) -> Result<BipartiteGraph, GraphError> {
        let mut builder = Builder::new(num_left, num_right);
        for (u, v) in edges {
            builder.add_edge(u, v)?;
        }
        Ok(builder.build())
    }

    /// Builds a graph from the CSR rows of its left side and derives the
    /// right side from them, the one place any graph's right side is made.
    ///
    /// `left_offsets` must run from 0 to `left_neighbors.len()` without
    /// decreasing, and each row must be strictly increasing (so free of
    /// duplicates) with every id below `num_right`; anything else is a
    /// [`GraphError::InvalidCsr`]. One counting sort over the rows, in left
    /// order, writes every right row already sorted. Every way of building
    /// a graph ([`Builder::build`], the edge-list readers, induced
    /// subgraphs, the `.mbbg` cache) ends here, so equal left rows always
    /// give byte-identical graphs.
    pub fn from_left_rows(
        num_right: u32,
        left_offsets: Vec<usize>,
        left_neighbors: Vec<u32>,
    ) -> Result<BipartiteGraph, GraphError> {
        let invalid = |reason: &'static str| Err(GraphError::InvalidCsr { reason });
        if left_offsets.first() != Some(&0) {
            return invalid("offsets must start with 0");
        }
        if left_offsets.len() - 1 > u32::MAX as usize {
            return invalid("more left vertices than u32 ids");
        }
        if left_offsets.windows(2).any(|w| w[0] > w[1]) {
            return invalid("offsets must be non-decreasing");
        }
        if left_offsets.last() != Some(&left_neighbors.len()) {
            return invalid("last offset must equal the adjacency length");
        }
        let nr = num_right as usize;
        let mut right_offsets = vec![0usize; nr + 1];
        for w in left_offsets.windows(2) {
            let row = &left_neighbors[w[0]..w[1]];
            if row.windows(2).any(|p| p[0] >= p[1]) {
                return invalid("rows must be strictly increasing");
            }
            if row.last().is_some_and(|&v| v >= num_right) {
                return invalid("neighbor id out of range");
            }
            for &v in row {
                right_offsets[v as usize + 1] += 1;
            }
        }
        for v in 0..nr {
            right_offsets[v + 1] += right_offsets[v];
        }
        let mut cursor = right_offsets[..nr].to_vec();
        let mut right_neighbors = vec![0u32; left_neighbors.len()];
        for (u, w) in left_offsets.windows(2).enumerate() {
            for &v in &left_neighbors[w[0]..w[1]] {
                right_neighbors[cursor[v as usize]] = u as u32;
                cursor[v as usize] += 1;
            }
        }
        Ok(BipartiteGraph {
            left_offsets: left_offsets.into_boxed_slice(),
            left_neighbors: left_neighbors.into_boxed_slice(),
            right_offsets: right_offsets.into_boxed_slice(),
            right_neighbors: right_neighbors.into_boxed_slice(),
        })
    }

    /// Raw CSR offset array of the left side (`num_left() + 1` entries).
    ///
    /// With [`left_neighbors`](Self::left_neighbors) and `num_right()`
    /// this is all a graph needs to be rebuilt byte-identically: feeding
    /// them back through [`from_left_rows`](Self::from_left_rows)
    /// reproduces it.
    #[inline]
    pub fn left_offsets(&self) -> &[usize] {
        &self.left_offsets
    }

    /// Raw left→right CSR adjacency (see [`left_offsets`](Self::left_offsets)).
    #[inline]
    pub fn left_neighbors(&self) -> &[u32] {
        &self.left_neighbors
    }

    /// Raw CSR offset array of the right side (`num_right() + 1` entries).
    #[inline]
    pub fn right_offsets(&self) -> &[usize] {
        &self.right_offsets
    }

    /// Raw right→left CSR adjacency (see [`left_offsets`](Self::left_offsets)).
    #[inline]
    pub fn right_neighbors(&self) -> &[u32] {
        &self.right_neighbors
    }

    /// Number of vertices in `L`.
    #[inline]
    pub fn num_left(&self) -> usize {
        self.left_offsets.len() - 1
    }

    /// Number of vertices in `R`.
    #[inline]
    pub fn num_right(&self) -> usize {
        self.right_offsets.len() - 1
    }

    /// `|L| + |R|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_left() + self.num_right()
    }

    /// Number of (deduplicated) edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.left_neighbors.len()
    }

    /// Edge density `|E| / (|L| · |R|)`; 0 for degenerate shapes.
    pub fn density(&self) -> f64 {
        let denom = self.num_left() as f64 * self.num_right() as f64;
        if denom == 0.0 {
            0.0
        } else {
            self.num_edges() as f64 / denom
        }
    }

    /// Sorted neighbours (right indices) of left vertex `u`.
    #[inline]
    pub fn neighbors_left(&self, u: u32) -> &[u32] {
        let u = u as usize;
        &self.left_neighbors[self.left_offsets[u]..self.left_offsets[u + 1]]
    }

    /// Sorted neighbours (left indices) of right vertex `v`.
    #[inline]
    pub fn neighbors_right(&self, v: u32) -> &[u32] {
        let v = v as usize;
        &self.right_neighbors[self.right_offsets[v]..self.right_offsets[v + 1]]
    }

    /// Sorted neighbours of a [`Vertex`] (indices on the opposite side).
    #[inline]
    pub fn neighbors(&self, v: Vertex) -> &[u32] {
        match v.side {
            Side::Left => self.neighbors_left(v.index),
            Side::Right => self.neighbors_right(v.index),
        }
    }

    /// Degree of left vertex `u`.
    #[inline]
    pub fn degree_left(&self, u: u32) -> usize {
        self.neighbors_left(u).len()
    }

    /// Degree of right vertex `v`.
    #[inline]
    pub fn degree_right(&self, v: u32) -> usize {
        self.neighbors_right(v).len()
    }

    /// Degree of a [`Vertex`].
    #[inline]
    pub fn degree(&self, v: Vertex) -> usize {
        self.neighbors(v).len()
    }

    /// Maximum degree over `L ∪ R` (`d_max` of the paper).
    pub fn max_degree(&self) -> usize {
        let l = (0..self.num_left() as u32)
            .map(|u| self.degree_left(u))
            .max()
            .unwrap_or(0);
        let r = (0..self.num_right() as u32)
            .map(|v| self.degree_right(v))
            .max()
            .unwrap_or(0);
        l.max(r)
    }

    /// Membership test via binary search on the smaller-degree endpoint.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        let lu = self.neighbors_left(u);
        let rv = self.neighbors_right(v);
        if lu.len() <= rv.len() {
            lu.binary_search(&v).is_ok()
        } else {
            rv.binary_search(&u).is_ok()
        }
    }

    /// Iterates all edges as `(left, right)` pairs in CSR order.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.num_left() as u32)
            .flat_map(move |u| self.neighbors_left(u).iter().map(move |&v| (u, v)))
    }

    /// Iterates every vertex, left side first.
    pub fn vertices(&self) -> impl Iterator<Item = Vertex> + '_ {
        let nl = self.num_left() as u32;
        let nr = self.num_right() as u32;
        (0..nl).map(Vertex::left).chain((0..nr).map(Vertex::right))
    }

    /// Dense global id of a vertex: `L = 0..nl`, `R = nl..nl+nr`.
    #[inline]
    pub fn global_id(&self, v: Vertex) -> usize {
        match v.side {
            Side::Left => v.index as usize,
            Side::Right => self.num_left() + v.index as usize,
        }
    }

    /// Inverse of [`global_id`](Self::global_id).
    #[inline]
    pub fn vertex_of_global(&self, g: usize) -> Vertex {
        if g < self.num_left() {
            Vertex::left(g as u32)
        } else {
            Vertex::right((g - self.num_left()) as u32)
        }
    }

    /// Checks whether `(A, B)` (as side-local index slices) is a biclique.
    pub fn is_biclique(&self, a: &[u32], b: &[u32]) -> bool {
        a.iter().all(|&u| b.iter().all(|&v| self.has_edge(u, v)))
    }
}

impl fmt::Debug for BipartiteGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BipartiteGraph(|L|={}, |R|={}, |E|={})",
            self.num_left(),
            self.num_right(),
            self.num_edges()
        )
    }
}

/// Incremental edge-list builder for [`BipartiteGraph`].
pub struct Builder {
    num_left: u32,
    num_right: u32,
    edges: Vec<(u32, u32)>,
}

impl Builder {
    /// Starts a builder for sides of the given sizes.
    pub fn new(num_left: u32, num_right: u32) -> Builder {
        Builder {
            num_left,
            num_right,
            edges: Vec::new(),
        }
    }

    /// Reserves capacity for `n` additional edges.
    pub fn reserve(&mut self, n: usize) {
        self.edges.reserve(n);
    }

    /// Records the edge `(u ∈ L, v ∈ R)`.
    pub fn add_edge(&mut self, u: u32, v: u32) -> Result<(), GraphError> {
        if u >= self.num_left {
            return Err(GraphError::EndpointOutOfRange {
                vertex: Vertex::left(u),
                side_size: self.num_left,
            });
        }
        if v >= self.num_right {
            return Err(GraphError::EndpointOutOfRange {
                vertex: Vertex::right(v),
                side_size: self.num_right,
            });
        }
        self.edges.push((u, v));
        Ok(())
    }

    /// Number of edges recorded so far (before dedup).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True if no edge has been recorded.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Finalises the CSR arrays, sorting and deduplicating edges.
    pub fn build(mut self) -> BipartiteGraph {
        self.edges.sort_unstable();
        self.edges.dedup();
        let mut left_offsets = vec![0usize; self.num_left as usize + 1];
        for &(u, _) in &self.edges {
            left_offsets[u as usize + 1] += 1;
        }
        for u in 0..self.num_left as usize {
            left_offsets[u + 1] += left_offsets[u];
        }
        let left_neighbors = self.edges.iter().map(|&(_, v)| v).collect();
        drop(self.edges);
        BipartiteGraph::from_left_rows(self.num_right, left_offsets, left_neighbors)
            .expect("range-checked, sorted and deduplicated edges make valid rows")
    }
}

/// Intersection size of two sorted `u32` slices (linear merge).
pub fn sorted_intersection_len(a: &[u32], b: &[u32]) -> usize {
    let mut i = 0;
    let mut j = 0;
    let mut count = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// Intersection of two sorted `u32` slices.
pub fn sorted_intersection(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let mut i = 0;
    let mut j = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Intersection of two sorted `u32` slices whose size is already known
/// (e.g. from a prior [`sorted_intersection_len`] scoring pass). The fused
/// follow-up: allocates exactly `len` and stops merging once every match is
/// collected, instead of re-walking both slices to their ends.
pub fn sorted_intersection_exact(a: &[u32], b: &[u32], len: usize) -> Vec<u32> {
    let mut out = Vec::with_capacity(len);
    let mut i = 0;
    let mut j = 0;
    while out.len() < len && i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    debug_assert_eq!(out.len(), len, "len hint must match the true overlap");
    out
}

/// How a sorted `needles` slice overlaps a sorted `haystack` slice.
///
/// Produced by [`sorted_overlap_with`] in a single early-exiting merge —
/// the fused replacement for comparing `sorted_intersection_len` against
/// `needles.len()` and `0` in two separate full passes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SortedOverlap {
    /// No needle occurs in the haystack.
    Disjoint,
    /// Some but not all needles occur in the haystack.
    Partial,
    /// Every needle occurs in the haystack (vacuously true when empty).
    All,
}

/// Classifies `needles ∩ haystack` as [`SortedOverlap::Disjoint`],
/// [`SortedOverlap::Partial`] or [`SortedOverlap::All`] in one merge pass,
/// returning `Partial` as soon as both a hit and a miss have been seen.
pub fn sorted_overlap_with(haystack: &[u32], needles: &[u32]) -> SortedOverlap {
    let mut hit = false;
    let mut miss = false;
    let mut i = 0;
    for &n in needles {
        while i < haystack.len() && haystack[i] < n {
            i += 1;
        }
        if i < haystack.len() && haystack[i] == n {
            hit = true;
            i += 1;
        } else {
            miss = true;
        }
        if hit && miss {
            return SortedOverlap::Partial;
        }
    }
    if miss {
        SortedOverlap::Disjoint
    } else {
        SortedOverlap::All
    }
}

/// True when every element of sorted `needles` occurs in sorted `haystack`
/// (prefix-pruned: exits at the first missing needle).
pub fn sorted_contains_all(haystack: &[u32], needles: &[u32]) -> bool {
    if needles.len() > haystack.len() {
        return false;
    }
    let mut i = 0;
    for &n in needles {
        while i < haystack.len() && haystack[i] < n {
            i += 1;
        }
        if i >= haystack.len() || haystack[i] != n {
            return false;
        }
        i += 1;
    }
    true
}

/// True when two sorted slices share at least one element (exits at the
/// first hit — the fused replacement for `sorted_intersection_len(..) > 0`).
pub fn sorted_intersects(a: &[u32], b: &[u32]) -> bool {
    let mut i = 0;
    let mut j = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sparse example of Figure 1(b): L = {1..6}, R = {7..12}, 0-indexed
    /// here as L = {0..5}, R = {0..5} (vertex 7 → R0, … 12 → R5).
    pub(crate) fn figure_1b() -> BipartiteGraph {
        // Edges from the paper's figure: 1-7, 2-7, 2-8, 3-8, 3-9, 3-10,
        // 4-9, 4-10, 5-9, 5-10, 6-11, 6-12, 5-11? — we use the edge set
        // consistent with the stated bicliques ({1,2},{7}), ({3,4,5},{9,10})
        // and MBB ({3,4},{9,10}) of size 4, core numbers of Table 2.
        BipartiteGraph::from_edges(
            6,
            6,
            [
                (0, 0), // 1-7
                (1, 0), // 2-7
                (1, 1), // 2-8
                (2, 1), // 3-8
                (2, 2), // 3-9
                (2, 3), // 3-10
                (3, 2), // 4-9
                (3, 3), // 4-10
                (4, 2), // 5-9
                (4, 3), // 5-10
                (5, 4), // 6-11
                (5, 5), // 6-12
                (4, 4), // 5-11
            ],
        )
        .unwrap()
    }

    #[test]
    fn empty_graph() {
        let g = BipartiteGraph::from_edges(0, 0, []).unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.density(), 0.0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn vertices_without_edges() {
        let g = BipartiteGraph::from_edges(3, 4, []).unwrap();
        assert_eq!(g.num_left(), 3);
        assert_eq!(g.num_right(), 4);
        assert_eq!(g.degree_left(2), 0);
        assert_eq!(g.degree_right(3), 0);
    }

    #[test]
    fn duplicate_edges_are_collapsed() {
        let g = BipartiteGraph::from_edges(2, 2, [(0, 0), (0, 0), (1, 1), (0, 0)]).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(0, 0));
        assert!(g.has_edge(1, 1));
        assert!(!g.has_edge(0, 1));
    }

    #[test]
    fn adjacency_is_sorted_both_sides() {
        let g = BipartiteGraph::from_edges(3, 3, [(2, 1), (0, 2), (0, 0), (2, 0), (1, 1)]).unwrap();
        for u in 0..3 {
            let n = g.neighbors_left(u);
            assert!(
                n.windows(2).all(|w| w[0] < w[1]),
                "left {u} unsorted: {n:?}"
            );
        }
        for v in 0..3 {
            let n = g.neighbors_right(v);
            assert!(
                n.windows(2).all(|w| w[0] < w[1]),
                "right {v} unsorted: {n:?}"
            );
        }
    }

    #[test]
    fn out_of_range_edge_is_rejected() {
        let err = BipartiteGraph::from_edges(2, 2, [(2, 0)]).unwrap_err();
        assert!(matches!(err, GraphError::EndpointOutOfRange { .. }));
        let err = BipartiteGraph::from_edges(2, 2, [(0, 5)]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "edge endpoint R5 out of range (side has 2 vertices)"
        );
    }

    #[test]
    fn figure_1b_basic_properties() {
        let g = figure_1b();
        assert_eq!(g.num_left(), 6);
        assert_eq!(g.num_right(), 6);
        assert_eq!(g.num_edges(), 13);
        // ({3,4},{9,10}) → L{2,3} × R{2,3} is a biclique.
        assert!(g.is_biclique(&[2, 3], &[2, 3]));
        assert!(g.is_biclique(&[2, 3, 4], &[2, 3]));
        assert!(!g.is_biclique(&[0, 2], &[0]));
    }

    #[test]
    fn global_id_roundtrip() {
        let g = figure_1b();
        for v in g.vertices() {
            assert_eq!(g.vertex_of_global(g.global_id(v)), v);
        }
        assert_eq!(g.global_id(Vertex::left(0)), 0);
        assert_eq!(g.global_id(Vertex::right(0)), 6);
    }

    #[test]
    fn degrees_and_max_degree() {
        let g = figure_1b();
        assert_eq!(g.degree_left(2), 3); // vertex 3 → 8,9,10
        assert_eq!(g.degree_right(2), 3); // vertex 9 → 3,4,5
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn density_of_complete_graph_is_one() {
        let mut b = Builder::new(4, 5);
        for u in 0..4 {
            for v in 0..5 {
                b.add_edge(u, v).unwrap();
            }
        }
        let g = b.build();
        assert_eq!(g.density(), 1.0);
        assert_eq!(g.num_edges(), 20);
    }

    #[test]
    fn edges_iterator_matches_num_edges() {
        let g = figure_1b();
        assert_eq!(g.edges().count(), g.num_edges());
        for (u, v) in g.edges() {
            assert!(g.has_edge(u, v));
        }
    }

    #[test]
    fn sorted_intersection_helpers() {
        let a = [1u32, 3, 5, 7];
        let b = [2u32, 3, 4, 5, 8];
        assert_eq!(sorted_intersection_len(&a, &b), 2);
        assert_eq!(sorted_intersection(&a, &b), vec![3, 5]);
        assert_eq!(sorted_intersection_len(&a, &[]), 0);
        assert_eq!(sorted_intersection(&[], &b), Vec::<u32>::new());
    }

    #[test]
    fn fused_sorted_kernels_match_full_merges() {
        let a = [1u32, 3, 5, 7];
        let b = [2u32, 3, 4, 5, 8];
        assert_eq!(sorted_intersection_exact(&a, &b, 2), vec![3, 5]);
        assert_eq!(sorted_intersection_exact(&a, &[], 0), Vec::<u32>::new());
        assert!(sorted_intersects(&a, &b));
        assert!(!sorted_intersects(&a, &[2, 4, 8]));
        assert!(!sorted_intersects(&a, &[]));
        assert!(sorted_contains_all(&b, &[3, 5]));
        assert!(sorted_contains_all(&b, &[]));
        assert!(!sorted_contains_all(&b, &[3, 6]));
        assert!(!sorted_contains_all(&[3], &[3, 6]));
        assert_eq!(sorted_overlap_with(&b, &[3, 5]), SortedOverlap::All);
        assert_eq!(sorted_overlap_with(&b, &[3, 6]), SortedOverlap::Partial);
        assert_eq!(sorted_overlap_with(&b, &[1, 6]), SortedOverlap::Disjoint);
        assert_eq!(sorted_overlap_with(&b, &[]), SortedOverlap::All);
        // Exhaustive differential check against the unfused merges on
        // every small subset pair of a fixed universe.
        let universe: Vec<u32> = vec![0, 1, 2, 3, 4, 5, 6];
        let subsets: Vec<Vec<u32>> = (0u32..128)
            .map(|mask| {
                universe
                    .iter()
                    .copied()
                    .filter(|&x| mask >> x & 1 == 1)
                    .collect()
            })
            .collect();
        for x in &subsets {
            for y in &subsets {
                let len = sorted_intersection_len(x, y);
                assert_eq!(
                    sorted_intersection_exact(x, y, len),
                    sorted_intersection(x, y)
                );
                assert_eq!(sorted_intersects(x, y), len > 0);
                assert_eq!(sorted_contains_all(x, y), len == y.len());
                let expect = if len == y.len() {
                    SortedOverlap::All
                } else if len == 0 {
                    SortedOverlap::Disjoint
                } else {
                    SortedOverlap::Partial
                };
                assert_eq!(sorted_overlap_with(x, y), expect, "{x:?} vs {y:?}");
            }
        }
    }

    #[test]
    fn from_left_rows_roundtrips_raw_arrays() {
        let g = figure_1b();
        let back = BipartiteGraph::from_left_rows(
            g.num_right() as u32,
            g.left_offsets().to_vec(),
            g.left_neighbors().to_vec(),
        )
        .unwrap();
        assert_eq!(back.right_offsets(), g.right_offsets());
        assert_eq!(back.right_neighbors(), g.right_neighbors());
        assert_eq!(back, g);
    }

    #[test]
    fn from_left_rows_accepts_empty_graph() {
        let g = BipartiteGraph::from_left_rows(0, vec![0], vec![]).unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        let isolated = BipartiteGraph::from_left_rows(4, vec![0, 0, 0], vec![]).unwrap();
        assert_eq!(isolated, BipartiteGraph::from_edges(2, 4, []).unwrap());
    }

    #[test]
    fn from_left_rows_rejects_broken_invariants() {
        let g = figure_1b();
        let rows = || (g.left_offsets().to_vec(), g.left_neighbors().to_vec());
        let reject = |offsets: Vec<usize>, neighbors: Vec<u32>| {
            let err = BipartiteGraph::from_left_rows(6, offsets, neighbors).unwrap_err();
            assert!(matches!(err, GraphError::InvalidCsr { .. }), "{err}");
            err.to_string()
        };
        // Non-monotone offsets.
        let (mut lo, ln) = rows();
        lo[1] = lo[2] + 1;
        assert!(reject(lo, ln).contains("non-decreasing"));
        // Unsorted row.
        let (lo, mut ln) = rows();
        ln.swap(4, 5); // vertex 3's row {1,2,3} becomes {1,3,2}
        assert!(reject(lo, ln).contains("strictly increasing"));
        // Duplicate id in a row.
        let (lo, mut ln) = rows();
        ln[5] = ln[4];
        assert!(reject(lo, ln).contains("strictly increasing"));
        // Out-of-range neighbor.
        let (lo, mut ln) = rows();
        let last = ln.len() - 1;
        ln[last] = 99;
        assert!(reject(lo, ln).contains("out of range"));
        // Offsets that stop short of the adjacency.
        let (mut lo, ln) = rows();
        lo.pop();
        assert!(reject(lo, ln).contains("adjacency length"));
        // Truncated offsets.
        assert!(reject(vec![], vec![]).contains("start with 0"));
        assert!(reject(vec![1], vec![0]).contains("start with 0"));
    }

    #[test]
    fn side_opposite() {
        assert_eq!(Side::Left.opposite(), Side::Right);
        assert_eq!(Side::Right.opposite(), Side::Left);
    }

    #[test]
    fn vertex_display() {
        assert_eq!(Vertex::left(3).to_string(), "L3");
        assert_eq!(Vertex::right(0).to_string(), "R0");
    }
}

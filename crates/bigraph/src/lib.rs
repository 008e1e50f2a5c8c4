//! Bipartite-graph substrate for maximum balanced biclique (MBB) search.
//!
//! This crate provides every graph-side building block the MBB paper
//! ("Efficient Exact Algorithms for Maximum Balanced Biclique Search in
//! Bipartite Graphs", Chen et al.) relies on:
//!
//! * [`graph::BipartiteGraph`] — immutable CSR bipartite graphs;
//! * [`bitset::BitSet`] / [`local::LocalGraph`] — dense bitset subgraphs for
//!   the exhaustive-search kernels;
//! * [`core_decomp`] — core numbers, degeneracy `δ(G)`, degeneracy order;
//! * [`two_hop`] / [`bicore`] — `N≤2` neighbourhoods, bicore numbers and the
//!   bidegeneracy `δ̈(G)` (the paper's novel sparsity measure, §5.3.1);
//! * [`order`] — the three total search orders of Lemmas 6–8;
//! * [`complement`] — path/cycle decomposition of near-complete subgraphs
//!   (Observation 1, feeding the polynomial solver);
//! * [`generators`] / [`io`] — seeded workloads and KONECT edge-list I/O;
//! * [`matching`] — Hopcroft–Karp / König / maximum vertex biclique, used as
//!   a polynomial oracle in tests.
//!
//! # Example
//!
//! ```
//! use mbb_bigraph::graph::BipartiteGraph;
//! use mbb_bigraph::bicore::bicore_decomposition;
//!
//! let g = BipartiteGraph::from_edges(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])?;
//! let d = bicore_decomposition(&g);
//! assert_eq!(d.bidegeneracy, 3); // each vertex sees 2 + 1 others
//! # Ok::<(), mbb_bigraph::graph::GraphError>(())
//! ```

#![warn(missing_docs)]

pub mod bicore;
pub mod bitset;
pub mod butterfly;
pub mod complement;
pub mod core_decomp;
pub mod generators;
pub mod graph;
pub mod io;
pub mod kernels;
pub mod local;
pub mod matching;
pub mod metrics;
pub mod order;
pub mod projection;
pub mod subgraph;
pub mod two_hop;

pub use bitset::{BitSet, Bits};
pub use graph::{BipartiteGraph, Side, Vertex};
pub use local::{LocalGraph, LocalVertex, RowRef};

//! Exact maximum balanced biclique (MBB) search.
//!
//! Implementation of "Efficient Exact Algorithms for Maximum Balanced
//! Biclique Search in Bipartite Graphs" (Chen, Liu, Zhou, Xu, Li —
//! SIGMOD/PVLDB 2021):
//!
//! * [`basic::basic_bb`] — Algorithm 1, the O*(2ⁿ) alternating enumeration;
//! * [`poly::DynamicMbb`] — Algorithm 2, the polynomial solver for
//!   near-complete subgraphs (Lemma 3);
//! * [`dense::dense_mbb_budgeted`] — Algorithm 3, `denseMBB`, O*(1.3803ⁿ);
//! * [`heuristic::hmbb`] — Algorithm 5, heuristics + Lemma 4/5 reduction;
//! * [`bridge::bridge_mbb_budgeted`] — Algorithm 6, vertex-centred
//!   decomposition; each survivor carries its core numbers;
//! * [`verify::verify_mbb_budgeted`] — Algorithm 8, maximality
//!   verification, cutting each survivor by those core numbers;
//! * [`QueryBuilder::solve`] — Algorithm 4, the `hbvMBB` framework,
//!   O*(1.3803^δ̈), with every Table 3 ablation exposed through
//!   [`SolverConfig`].
//!
//! Beyond the paper: [`enumerate`] (maximal biclique enumeration with
//! real maximality checking), [`topk`], [`anchored`] (per-vertex and
//! per-edge queries), [`incremental`] (warm-started maintenance over edge
//! streams), [`weighted`] (vertex-weighted variant), [`frontier`] (the
//! feasible-size Pareto frontier), [`size_constrained`] and [`meb`].
//!
//! All of these are served by one session object, [`engine::MbbEngine`]:
//! build it once per graph and it caches the expensive shared index (the
//! search order's rank and δ̈) across every solve, with deadlines and
//! cancellation threaded through the hot search loops ([`budget`]). The
//! engine is the one public path per query kind; the `*_budgeted`
//! functions in the extension modules are the searches it runs.
//!
//! # Quickstart
//!
//! ```
//! use std::time::Duration;
//! use mbb_bigraph::graph::BipartiteGraph;
//! use mbb_core::engine::MbbEngine;
//!
//! // The sparse example of the paper's Figure 1(b): the MBB is
//! // ({3, 4}, {9, 10}) — half-size 2.
//! let g = BipartiteGraph::from_edges(
//!     6, 6,
//!     [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (2, 3),
//!      (3, 2), (3, 3), (4, 2), (4, 3), (5, 4), (5, 5)],
//! )?;
//! let engine = MbbEngine::new(g);
//! let mbb = engine.query().deadline(Duration::from_secs(10)).solve();
//! assert!(mbb.termination.is_complete());
//! assert_eq!(mbb.value.half_size(), 2);
//! // Follow-up queries run on the same session.
//! let top2 = engine.topk(2);
//! assert_eq!(top2.value[0].balanced_size(), 2);
//! # Ok::<(), mbb_bigraph::graph::GraphError>(())
//! ```

#![warn(missing_docs)]

pub mod anchored;
pub mod basic;
pub mod biclique;
pub mod bridge;
pub mod budget;
pub mod dense;
pub mod engine;
pub mod enumerate;
pub mod frontier;
pub mod heuristic;
pub mod incremental;
pub mod meb;
pub mod poly;
mod reduce;
pub mod size_constrained;
pub mod solver;
pub mod stats;
#[cfg(test)]
pub(crate) mod testutil;
pub mod topk;
pub mod verify;
pub mod weighted;

pub use biclique::Biclique;
pub use budget::{CancelToken, SearchBudget, Termination};
pub use engine::{Enumeration, MbbEngine, QueryBuilder, QueryResult};
pub use enumerate::{EnumConfig, MaximalBiclique};
pub use frontier::SizeFrontier;
pub use incremental::IncrementalMbb;
pub use solver::{dense_mbb_graph, resolve_threads, SolverConfig};
pub use stats::{IndexStats, SolveStats, Stage};

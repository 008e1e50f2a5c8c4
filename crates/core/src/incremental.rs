//! Incremental MBB maintenance over an evolving edge set.
//!
//! Real bipartite graphs (author–paper, user–item) change constantly.
//! Re-running the full solver from scratch after every batch of updates
//! wastes the strongest pruning signal available: the previous optimum.
//! [`IncrementalMbb`] tracks an edge set, remembers the last solution,
//! and warm-starts an [`MbbEngine`] session with it whenever it is still
//! a biclique of the current graph:
//!
//! * **insertions** never invalidate the cached solution (edges are only
//!   added), so it always seeds the next solve;
//! * **deletions** invalidate it only when a cached pair loses its edge,
//!   which is checked eagerly on removal;
//! * while the edge set is unchanged, the same engine session is reused,
//!   so its cached search order amortises across repeated
//!   [`solve`](IncrementalMbb::solve) calls and any ad-hoc solves made
//!   through [`engine`](IncrementalMbb::engine).

use std::collections::HashSet;

use mbb_bigraph::graph::{BipartiteGraph, Builder, GraphError};

use crate::biclique::Biclique;
use crate::engine::{MbbEngine, QueryResult};

/// An evolving bipartite graph with warm-started MBB re-solving.
#[derive(Debug)]
pub struct IncrementalMbb {
    num_left: u32,
    num_right: u32,
    edges: HashSet<(u32, u32)>,
    /// Engine over the last materialised snapshot; dropped when the edge
    /// set changes (its cached indices describe the old graph).
    engine: Option<MbbEngine>,
    /// Last solve's result; `None` until the first solve or after a
    /// deletion that broke its biclique.
    cached: Option<QueryResult<Biclique>>,
    /// True when the edge set changed since `cached` was computed.
    dirty: bool,
}

impl Clone for IncrementalMbb {
    /// Clones the tracked edge set and cache; the engine session is not
    /// cloned (the clone rebuilds its own on the next solve).
    fn clone(&self) -> IncrementalMbb {
        IncrementalMbb {
            num_left: self.num_left,
            num_right: self.num_right,
            edges: self.edges.clone(),
            engine: None,
            cached: self.cached.clone(),
            dirty: self.dirty,
        }
    }
}

impl IncrementalMbb {
    /// An empty evolving graph with fixed side sizes.
    pub fn new(num_left: u32, num_right: u32) -> IncrementalMbb {
        IncrementalMbb {
            num_left,
            num_right,
            edges: HashSet::new(),
            engine: None,
            cached: None,
            dirty: false,
        }
    }

    /// Seeds the edge set from an existing graph.
    pub fn from_graph(graph: &BipartiteGraph) -> IncrementalMbb {
        let mut inc = IncrementalMbb::new(graph.num_left() as u32, graph.num_right() as u32);
        inc.edges.extend(graph.edges());
        inc
    }

    /// Inserts edge `(u, v)`; returns `false` when it was already present.
    ///
    /// # Errors
    ///
    /// Fails when an endpoint is out of range.
    pub fn insert_edge(&mut self, u: u32, v: u32) -> Result<bool, GraphError> {
        self.check_bounds(u, v)?;
        let added = self.edges.insert((u, v));
        if added {
            self.dirty = true;
            self.engine = None; // session indices describe the old graph
        }
        Ok(added)
    }

    /// Removes edge `(u, v)`; returns `false` when it was absent.
    pub fn remove_edge(&mut self, u: u32, v: u32) -> bool {
        let removed = self.edges.remove(&(u, v));
        if removed {
            self.dirty = true;
            self.engine = None; // session indices describe the old graph

            // Deletion can break the cached biclique; drop it eagerly if
            // the removed edge spans two cached vertices.
            if let Some(cached) = &self.cached {
                let (left, right) = (&cached.value.left, &cached.value.right);
                if left.binary_search(&u).is_ok() && right.binary_search(&v).is_ok() {
                    self.cached = None;
                }
            }
        }
        removed
    }

    /// Number of edges currently present.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Edge membership test.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.edges.contains(&(u, v))
    }

    /// Materialises the current graph (CSR snapshot).
    pub fn snapshot(&self) -> BipartiteGraph {
        let mut builder = Builder::new(self.num_left, self.num_right);
        builder.reserve(self.edges.len());
        for &(u, v) in &self.edges {
            builder
                .add_edge(u, v)
                .expect("edges were bounds-checked on insert");
        }
        builder.build()
    }

    /// Solves the current graph, warm-starting with the cached previous
    /// optimum when it is still valid. The result is cached for the next
    /// call; repeated calls without modifications return it, stats
    /// included, without re-solving.
    ///
    /// ```
    /// use mbb_core::incremental::IncrementalMbb;
    ///
    /// let mut inc = IncrementalMbb::new(3, 3);
    /// for u in 0..2 {
    ///     for v in 0..2 {
    ///         inc.insert_edge(u, v)?;
    ///     }
    /// }
    /// assert_eq!(inc.solve().value.half_size(), 2);
    /// inc.insert_edge(2, 2)?; // pendant edge: optimum unchanged
    /// assert_eq!(inc.solve().value.half_size(), 2);
    /// # Ok::<(), mbb_bigraph::graph::GraphError>(())
    /// ```
    pub fn solve(&mut self) -> QueryResult<Biclique> {
        if !self.dirty {
            if let Some(cached) = &self.cached {
                // Nothing changed: the cache is the optimum.
                return cached.clone();
            }
        }
        let incumbent = self.cached.take().map(|cached| cached.value);
        let engine = self.refresh_engine();
        let incumbent = match incumbent {
            Some(cached) if cached.is_valid(engine.graph()) => cached,
            _ => Biclique::empty(),
        };
        let result = engine.query().warm_start(incumbent).solve();
        self.cached = Some(result.clone());
        self.dirty = false;
        result
    }

    /// The engine session over the *current* snapshot, (re)built only when
    /// the edge set changed since the last solve. Use it for ad-hoc
    /// queries (top-k, anchored, …) between updates; a solve made through
    /// it shares the session's cached order with the warm-started solves.
    pub fn engine(&mut self) -> &MbbEngine {
        self.refresh_engine()
    }

    fn refresh_engine(&mut self) -> &MbbEngine {
        if self.engine.is_none() {
            let graph = self.snapshot();
            self.engine = Some(MbbEngine::new(graph));
        }
        self.engine.as_ref().expect("engine just ensured")
    }

    fn check_bounds(&self, u: u32, v: u32) -> Result<(), GraphError> {
        // Reuse the builder's validation by constructing a throwaway; the
        // check itself is trivial, so do it inline instead.
        if u >= self.num_left || v >= self.num_right {
            // Build the same error the Builder reports for consistency.
            let mut builder = Builder::new(self.num_left, self.num_right);
            return builder.add_edge(u, v).map(|_| ());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{SolveStats, Stage};

    use mbb_bigraph::generators;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn matches_from_scratch_under_insertions() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut inc = IncrementalMbb::new(10, 10);
        for _ in 0..60 {
            let u = rng.gen_range(0..10);
            let v = rng.gen_range(0..10);
            inc.insert_edge(u, v).unwrap();
            let fresh = MbbEngine::new(inc.snapshot()).solve().value;
            let warm = inc.solve();
            assert_eq!(warm.value.half_size(), fresh.half_size());
            assert!(warm.value.is_valid(&inc.snapshot()));
        }
    }

    #[test]
    fn matches_from_scratch_under_mixed_updates() {
        let mut rng = StdRng::seed_from_u64(23);
        let g = generators::uniform_edges(10, 10, 45, 5);
        let mut inc = IncrementalMbb::from_graph(&g);
        for step in 0..40 {
            let u = rng.gen_range(0..10u32);
            let v = rng.gen_range(0..10u32);
            if rng.gen_bool(0.4) {
                inc.remove_edge(u, v);
            } else {
                inc.insert_edge(u, v).unwrap();
            }
            let fresh = MbbEngine::new(inc.snapshot()).solve().value;
            let warm = inc.solve();
            assert_eq!(warm.value.half_size(), fresh.half_size(), "step {step}");
        }
    }

    #[test]
    fn deletion_inside_cached_solution_invalidates() {
        let mut inc = IncrementalMbb::new(2, 2);
        for u in 0..2 {
            for v in 0..2 {
                inc.insert_edge(u, v).unwrap();
            }
        }
        assert_eq!(inc.solve().value.half_size(), 2);
        inc.remove_edge(0, 0);
        assert!(inc.cached.is_none(), "cache dropped eagerly");
        assert_eq!(inc.solve().value.half_size(), 1);
    }

    #[test]
    fn deletion_outside_cached_solution_keeps_cache() {
        let mut inc = IncrementalMbb::new(3, 3);
        for u in 0..2 {
            for v in 0..2 {
                inc.insert_edge(u, v).unwrap();
            }
        }
        inc.insert_edge(2, 2).unwrap();
        assert_eq!(inc.solve().value.half_size(), 2);
        inc.remove_edge(2, 2);
        assert!(inc.cached.is_some());
        assert_eq!(inc.solve().value.half_size(), 2);
    }

    /// The fields a cached solve must report as the solve that found it.
    fn solve_fields(stats: &SolveStats) -> (Stage, usize, usize, usize, [u64; 3]) {
        let search = &stats.search;
        (
            stats.stage,
            stats.heuristic_global_half,
            stats.heuristic_local_half,
            stats.optimum_half,
            [search.nodes, search.poly_solves, search.bound_prunes],
        )
    }

    #[test]
    fn repeated_solves_use_cache() {
        let mut inc = IncrementalMbb::new(4, 4);
        inc.insert_edge(0, 0).unwrap();
        let first = inc.solve();
        let second = inc.solve();
        assert_eq!(first.value, second.value);
        assert_eq!(first.stats.stage, Stage::S1);
        assert_eq!(solve_fields(&second.stats), solve_fields(&first.stats));

        // A graph that reaches verification, so the search counters the
        // cached result repeats are not zero.
        let mut inc = IncrementalMbb::from_graph(&generators::uniform_edges(30, 30, 260, 17));
        let first = inc.solve();
        assert_eq!(first.stats.stage, Stage::S3);
        assert!(first.stats.search.nodes > 0);
        let second = inc.solve();
        assert_eq!(first.value, second.value);
        assert_eq!(solve_fields(&second.stats), solve_fields(&first.stats));
        assert_eq!(second.stats.index, first.stats.index);
    }

    #[test]
    fn duplicate_insert_reports_false() {
        let mut inc = IncrementalMbb::new(2, 2);
        assert!(inc.insert_edge(0, 0).unwrap());
        assert!(!inc.insert_edge(0, 0).unwrap());
        assert!(!inc.remove_edge(1, 1));
    }

    #[test]
    fn out_of_range_insert_fails() {
        let mut inc = IncrementalMbb::new(2, 2);
        assert!(inc.insert_edge(2, 0).is_err());
        assert!(inc.insert_edge(0, 2).is_err());
        assert_eq!(inc.num_edges(), 0);
    }

    #[test]
    fn empty_graph_solves_empty() {
        let mut inc = IncrementalMbb::new(5, 5);
        assert_eq!(inc.solve().value.half_size(), 0);
    }

    #[test]
    fn snapshot_matches_edge_set() {
        let mut inc = IncrementalMbb::new(3, 3);
        inc.insert_edge(0, 1).unwrap();
        inc.insert_edge(2, 0).unwrap();
        let g = inc.snapshot();
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(2, 0));
        assert!(inc.has_edge(0, 1));
        assert!(!inc.has_edge(1, 1));
    }
}

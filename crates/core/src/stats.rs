//! Instrumentation for the breaking-down experiments (§6.3, Figures 4–6).

/// Counters collected by one branch-and-bound search
/// ([`basicBB`](crate::basic::basic_bb) or [`denseMBB`](crate::dense)).
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct SearchStats {
    /// Number of recursive calls.
    pub nodes: u64,
    /// Number of branches cut by the bounding condition.
    pub bound_prunes: u64,
    /// Number of `dynamicMBB` polynomial solves.
    pub poly_solves: u64,
    /// Candidate vertices removed by Lemma 1/2 reductions.
    pub reduced_vertices: u64,
    /// Deepest recursion reached.
    pub max_depth: u64,
    /// Sum of depths at which subtrees terminated (leaf or poly solve).
    pub leaf_depth_sum: u64,
    /// Number of terminating subtrees (denominator for the average depth).
    pub leaf_count: u64,
    /// Search nodes explored by each verification worker, indexed by
    /// worker id. Empty when verification ran on one worker;
    /// [`merge`](Self::merge) leaves it alone.
    pub worker_nodes: Vec<u64>,
}

impl SearchStats {
    /// Average depth at which the search terminated branches — the
    /// "search depth" series of Figure 5.
    pub fn average_depth(&self) -> f64 {
        if self.leaf_count == 0 {
            0.0
        } else {
            self.leaf_depth_sum as f64 / self.leaf_count as f64
        }
    }

    /// Accumulates another search's counters into this one.
    pub fn merge(&mut self, other: &SearchStats) {
        self.nodes += other.nodes;
        self.bound_prunes += other.bound_prunes;
        self.poly_solves += other.poly_solves;
        self.reduced_vertices += other.reduced_vertices;
        self.max_depth = self.max_depth.max(other.max_depth);
        self.leaf_depth_sum += other.leaf_depth_sum;
        self.leaf_count += other.leaf_count;
    }
}

/// Which stage of the `hbvMBB` framework produced the final answer
/// (Table 5's `S1`/`S2`/`S3` column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Stage {
    /// Heuristic + reduction proved optimality (Lemma 5 early termination
    /// or the graph reduced to nothing).
    S1,
    /// All vertex-centred subgraphs were pruned during bridging.
    S2,
    /// Exhaustive verification ran.
    S3,
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Stage::S1 => write!(f, "S1"),
            Stage::S2 => write!(f, "S2"),
            Stage::S3 => write!(f, "S3"),
        }
    }
}

/// Shared-index bookkeeping of an engine session: how often each cached
/// structure was computed versus served from the session cache, plus the
/// wall-clock cost of the computations. Everything is zero outside an
/// engine session.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct IndexStats {
    /// Search orders computed from scratch this session.
    pub orders_computed: u64,
    /// Queries served from the cached search order.
    pub orders_reused: u64,
    /// Two-hop indices computed from scratch this session.
    pub two_hops_computed: u64,
    /// Queries served from the cached two-hop index.
    pub two_hops_reused: u64,
    /// Total seconds spent building cached indices this session.
    pub preprocess_seconds: f64,
}

/// End-to-end statistics of one `hbvMBB` solve.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SolveStats {
    /// Stage at which the solver stopped.
    pub stage: Stage,
    /// Degeneracy `δ` of the (reduced) graph, if computed.
    pub degeneracy: u32,
    /// Bidegeneracy `δ̈` of the session graph, kept with the engine's
    /// cached order that stage 2 restricts to the Lemma 4-reduced
    /// residual; it bounds the residual's own `δ̈` from above. `None`
    /// when the solve ended in stage 1 or the order is not bidegeneracy.
    pub bidegeneracy: Option<u32>,
    /// Half-size found by the global heuristic (`heuGlobal` of Figure 4).
    pub heuristic_global_half: usize,
    /// Half-size after the bridging stage's local heuristics (`heuLocal`).
    pub heuristic_local_half: usize,
    /// Final optimum half-size.
    pub optimum_half: usize,
    /// Vertex-centred subgraphs generated.
    pub subgraphs_generated: usize,
    /// Subgraphs surviving all bridging prunes (handed to verification).
    pub subgraphs_verified: usize,
    /// Mean density of the vertex-centred subgraphs that pass bridging's
    /// size prune (Figure 6); size-pruned subgraphs are never induced, so
    /// they are not in the mean. 0 when none passes.
    pub avg_subgraph_density: f64,
    /// Mean vertex count of generated subgraphs.
    pub avg_subgraph_size: f64,
    /// Largest generated vertex-centred subgraph (Lemma 8 bounds this by
    /// δ̈ + 1 under bidegeneracy order).
    pub max_subgraph_size: usize,
    /// Aggregated exhaustive-search counters (Figure 5's depth data).
    pub search: SearchStats,
    /// Session index-reuse counters (cumulative over the owning
    /// `MbbEngine`; all zero outside an engine session).
    pub index: IndexStats,
}

impl Default for SolveStats {
    fn default() -> Self {
        SolveStats {
            stage: Stage::S3,
            degeneracy: 0,
            bidegeneracy: None,
            heuristic_global_half: 0,
            heuristic_local_half: 0,
            optimum_half: 0,
            subgraphs_generated: 0,
            subgraphs_verified: 0,
            avg_subgraph_density: 0.0,
            avg_subgraph_size: 0.0,
            max_subgraph_size: 0,
            search: SearchStats::default(),
            index: IndexStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_depth_handles_zero_leaves() {
        let s = SearchStats::default();
        assert_eq!(s.average_depth(), 0.0);
    }

    #[test]
    fn average_depth_is_mean() {
        let s = SearchStats {
            leaf_depth_sum: 30,
            leaf_count: 4,
            ..Default::default()
        };
        assert_eq!(s.average_depth(), 7.5);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = SearchStats {
            nodes: 5,
            max_depth: 3,
            ..Default::default()
        };
        let b = SearchStats {
            nodes: 7,
            max_depth: 9,
            leaf_count: 2,
            leaf_depth_sum: 4,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.nodes, 12);
        assert_eq!(a.max_depth, 9);
        assert_eq!(a.leaf_count, 2);
    }

    #[test]
    fn stage_display() {
        assert_eq!(Stage::S1.to_string(), "S1");
        assert_eq!(Stage::S2.to_string(), "S2");
        assert_eq!(Stage::S3.to_string(), "S3");
    }
}

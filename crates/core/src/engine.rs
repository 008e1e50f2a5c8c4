//! `MbbEngine` — the unified query session over one bipartite graph.
//!
//! The paper's `hbvMBB` is one algorithm, but this crate grew ~10 sibling
//! workloads (top-k, anchored, weighted, MEB, frontier, size-constrained,
//! enumeration, incremental). A service answering many queries against one
//! graph should not re-derive the expensive per-graph structure on every
//! call.
//!
//! [`MbbEngine`] owns the CSR graph plus one cached structure, computed
//! lazily on first use and kept for the session: the total **search
//! order** for the configured [`SearchOrder`] (projected onto each solve's
//! reduced residual instead of re-peeled), built on the first solve that
//! enters stage 2 — a solve that stage 1 settles never peels; the
//! bidegeneracy order is the bicore peel's order, and the session keeps
//! that peel's δ̈ with it. Anchored queries cache nothing: by
//! Observation 4 each one is a single vertex-centred problem on
//! `{v} ∪ N≤2(v)`, and walking `N≤2(v)` reads no more of the graph than
//! inducing that subgraph does.
//!
//! Every query goes through one builder with shared budget plumbing:
//!
//! ```
//! use std::time::Duration;
//! use mbb_core::engine::MbbEngine;
//!
//! let graph = mbb_bigraph::generators::uniform_edges(50, 50, 300, 7);
//! let engine = MbbEngine::new(graph);
//! let result = engine
//!     .query()
//!     .deadline(Duration::from_secs(5))
//!     .threads(2)
//!     .solve();
//! assert!(result.termination.is_complete());
//! assert!(result.value.is_valid(engine.graph()));
//! // This graph reaches stage 2, so the solve built the order; a second
//! // query reuses it instead of recomputing it.
//! assert_eq!(result.stats.index.orders_computed, 1);
//! let again = engine.query().solve();
//! assert_eq!(again.stats.index.orders_computed, 0);
//! assert_eq!(again.stats.index.orders_reused, 1);
//! ```
//!
//! All nine query kinds return a [`QueryResult`]: the typed payload, a
//! consolidated [`SolveStats`] (including the query's own use of the
//! cached order), and a [`Termination`] that replaces the old scattered
//! `complete: bool` flags — `DeadlineExceeded` and `Cancelled` results
//! carry the best answer found so far (anytime semantics), never a
//! silent truncation.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use mbb_bigraph::bicore::bicore_decomposition;
use mbb_bigraph::graph::{BipartiteGraph, Vertex};
use mbb_bigraph::order::{compute_order, SearchOrder};

use crate::anchored::{anchored_budgeted, anchored_edge_budgeted};
use crate::biclique::Biclique;
use crate::budget::{CancelToken, SearchBudget, Termination};
use crate::enumerate::{enumerate_budgeted, EnumConfig, EnumOutcome, MaximalBiclique};
use crate::frontier::SizeFrontier;
use crate::meb::{maximum_edge_biclique_budgeted, EdgeBiclique};
use crate::size_constrained::{find_size_constrained_budgeted, SizeConstrainedBiclique};
use crate::solver::{hbv_mbb, SolverConfig};
use crate::stats::{IndexStats, SolveStats};
use crate::topk::topk_budgeted;
use crate::weighted::{weighted_mbb_budgeted, WeightedBiclique};

/// The outcome of any engine query: a typed payload, consolidated solver
/// statistics (with the query's own use of the cached order), and how the
/// query ended. Non-`Complete` terminations still carry the best answer
/// found before the budget ran out.
#[derive(Debug, Clone)]
pub struct QueryResult<T> {
    /// The query's typed payload.
    pub value: T,
    /// This query's solver statistics.
    pub stats: SolveStats,
    /// Whether the answer is exact (`Complete`) or best-so-far.
    pub termination: Termination,
}

/// The collected output of an enumeration query.
#[derive(Debug, Clone)]
pub struct Enumeration {
    /// The maximal bicliques reported under the configured filters.
    pub bicliques: Vec<MaximalBiclique>,
    /// The enumerator's own outcome (visited/reported counts; `complete`
    /// is false for *any* early stop, including `max_results`).
    pub outcome: EnumOutcome,
}

/// Cached session order: the permutation's rank table, and the session
/// graph's bidegeneracy when the order is [`SearchOrder::Bidegeneracy`].
#[derive(Debug)]
pub(crate) struct OrderIndex {
    /// `rank[g]` = position of session global id `g` in the order.
    pub(crate) rank: Vec<u32>,
    /// δ̈ of the session graph; `None` unless the order is bidegeneracy.
    pub(crate) bidegeneracy: Option<u32>,
}

/// A query session over one bipartite graph. Build once per graph, run
/// any number of queries; see the [module docs](self) for the full story.
///
/// The engine is `Sync`: queries take `&self`, so one engine can serve
/// concurrent readers (each query may additionally parallelise its own
/// verification stage via [`QueryBuilder::threads`]).
#[derive(Debug)]
pub struct MbbEngine {
    graph: Arc<BipartiteGraph>,
    config: SolverConfig,
    order: OnceLock<OrderIndex>,
}

impl MbbEngine {
    /// An engine with the paper's default solver configuration.
    pub fn new(graph: BipartiteGraph) -> MbbEngine {
        MbbEngine::with_config(graph, SolverConfig::default())
    }

    /// An engine with an explicit solver configuration (search order,
    /// ablations, default verification threads).
    pub fn with_config(graph: BipartiteGraph, config: SolverConfig) -> MbbEngine {
        MbbEngine::from_arc(Arc::new(graph), config)
    }

    /// An engine sharing an already-`Arc`ed graph (for services that keep
    /// the graph alive across many engines or hand it to other readers).
    pub fn from_arc(graph: Arc<BipartiteGraph>, config: SolverConfig) -> MbbEngine {
        MbbEngine {
            graph,
            config,
            order: OnceLock::new(),
        }
    }

    /// The session graph.
    pub fn graph(&self) -> &BipartiteGraph {
        &self.graph
    }

    /// The session solver configuration.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Starts a query: chain budget/thread options, then call one of the
    /// terminal methods (`solve`, `topk(k)`, `anchored(v)`, …).
    pub fn query(&self) -> QueryBuilder<'_> {
        QueryBuilder {
            engine: self,
            deadline: None,
            cancel: None,
            threads: None,
            incumbent: Biclique::empty(),
        }
    }

    // ---- Convenience one-liners (default budget/threads). ----

    /// The maximum balanced biclique (Algorithm 4 over the session state).
    pub fn solve(&self) -> QueryResult<Biclique> {
        self.query().solve()
    }

    /// The `k` best balanced bicliques.
    pub fn topk(&self, k: usize) -> QueryResult<Vec<MaximalBiclique>> {
        self.query().topk(k)
    }

    /// The largest balanced biclique through `anchor`.
    ///
    /// ```
    /// use mbb_bigraph::graph::{BipartiteGraph, Vertex};
    /// use mbb_core::engine::MbbEngine;
    ///
    /// // L0 is pendant; the 2×2 block lives on {1,2}×{1,2}.
    /// let g = BipartiteGraph::from_edges(
    ///     3, 3,
    ///     [(0, 0), (1, 1), (1, 2), (2, 1), (2, 2)],
    /// )?;
    /// let engine = MbbEngine::new(g);
    /// let through_pendant = engine.anchored(Vertex::left(0)).value;
    /// assert_eq!(through_pendant.half_size(), 1);
    /// assert_eq!(through_pendant.left, vec![0]);
    /// let through_block = engine.anchored(Vertex::left(1)).value;
    /// assert_eq!(through_block.half_size(), 2);
    /// # Ok::<(), mbb_bigraph::graph::GraphError>(())
    /// ```
    pub fn anchored(&self, anchor: Vertex) -> QueryResult<Biclique> {
        self.query().anchored(anchor)
    }

    /// The largest balanced biclique through edge `(u, v)`, or `None` when
    /// the edge is absent.
    pub fn anchored_edge(&self, u: u32, v: u32) -> QueryResult<Option<Biclique>> {
        self.query().anchored_edge(u, v)
    }

    /// The heaviest balanced biclique under per-vertex weights.
    pub fn weighted(&self, weights: &[u64]) -> QueryResult<WeightedBiclique> {
        self.query().weighted(weights)
    }

    /// The maximum edge biclique.
    pub fn meb(&self) -> QueryResult<EdgeBiclique> {
        self.query().meb()
    }

    /// The Pareto frontier of feasible biclique sizes.
    pub fn frontier(&self) -> QueryResult<SizeFrontier> {
        self.query().frontier()
    }

    /// A witness for the `(a, b)`-biclique problem, if one exists.
    pub fn size_constrained(
        &self,
        a: usize,
        b: usize,
    ) -> QueryResult<Option<SizeConstrainedBiclique>> {
        self.query().size_constrained(a, b)
    }

    /// All maximal bicliques under `config`'s filters.
    pub fn enumerate(&self, config: EnumConfig) -> QueryResult<Enumeration> {
        self.query().enumerate(config)
    }

    // ---- The cached order. ----

    // The call that runs the build reports it as computed, with its
    // seconds; every other call reports one reuse, including a call that
    // blocked on another query's in-flight build: that query is served
    // from the cache too, so summed over queries `computed + reused`
    // equals the number of uses under any schedule.
    pub(crate) fn order_index(&self) -> (&OrderIndex, IndexStats) {
        let mut use_stats = IndexStats {
            orders_reused: 1,
            ..IndexStats::default()
        };
        let index = self.order.get_or_init(|| {
            let _span = mbb_obs::span(mbb_obs::Stage::PreprocessOrder);
            let start = Instant::now();
            // The bidegeneracy order *is* the bicore peel order; only the
            // order and δ̈ outlive the peel.
            let (order, bidegeneracy) = match self.config.order {
                SearchOrder::Bidegeneracy => {
                    let _span = mbb_obs::span(mbb_obs::Stage::PreprocessBicore);
                    let bicore = bicore_decomposition(&self.graph);
                    (bicore.order, Some(bicore.bidegeneracy))
                }
                other => (compute_order(&self.graph, other), None),
            };
            let mut rank = vec![0u32; order.len()];
            for (i, &g) in order.iter().enumerate() {
                rank[g as usize] = i as u32;
            }
            use_stats = IndexStats {
                orders_computed: 1,
                orders_reused: 0,
                preprocess_seconds: start.elapsed().as_secs_f64(),
            };
            OrderIndex { rank, bidegeneracy }
        });
        (index, use_stats)
    }
}

/// Wraps a query's payload and stats with how its budget ended.
fn finish<T>(value: T, stats: SolveStats, budget: &SearchBudget) -> QueryResult<T> {
    QueryResult {
        value,
        stats,
        termination: budget.termination(),
    }
}

/// Builder for one engine query: budget and thread options first, then a
/// terminal method naming the query kind.
#[derive(Debug)]
pub struct QueryBuilder<'e> {
    engine: &'e MbbEngine,
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    threads: Option<usize>,
    incumbent: Biclique,
}

impl<'e> QueryBuilder<'e> {
    /// Abandon the search `limit` from now, returning the best so far
    /// with [`Termination::DeadlineExceeded`]. The budget is checked per
    /// search node inside the exponential phases; polynomial
    /// preprocessing (the stage-1 heuristic, the order build) is not
    /// interrupted, so the worst-case overshoot includes one such pass.
    pub fn deadline(mut self, limit: Duration) -> Self {
        self.deadline = Some(Instant::now() + limit);
        self
    }

    /// Like [`deadline`](Self::deadline) with an absolute instant.
    pub fn deadline_at(mut self, at: Instant) -> Self {
        self.deadline = Some(at);
        self
    }

    /// Attach a [`CancelToken`]; calling
    /// [`cancel`](CancelToken::cancel) on any clone stops the query at its
    /// next budget check with [`Termination::Cancelled`].
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Worker threads for this query's parallel stages — the bridging
    /// generation loop and the verification of the surviving subgraphs,
    /// which the workers split between them: `0` = one per available
    /// core, unset = the engine config's default (`1`, the paper's
    /// sequential algorithm).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Warm-start `solve` with a known balanced biclique of the session
    /// graph (e.g. the previous optimum in an incremental setting); it
    /// seeds every pruning bound.
    pub fn warm_start(mut self, incumbent: Biclique) -> Self {
        self.incumbent = incumbent;
        self
    }

    fn budget(&self) -> SearchBudget {
        SearchBudget::new(self.deadline, self.cancel.clone())
    }

    // ---- Terminal methods: the nine query kinds. ----

    /// The maximum balanced biclique of the session graph (the `hbvMBB`
    /// framework, Algorithm 4). The session's cached order is read —
    /// built on first use — only if the solve enters stage 2.
    ///
    /// ```
    /// use mbb_core::MbbEngine;
    /// let g = mbb_bigraph::generators::uniform_edges(50, 50, 300, 7);
    /// let engine = MbbEngine::new(g);
    /// let result = engine.query().solve();
    /// assert!(result.value.is_valid(engine.graph()));
    /// assert_eq!(result.stats.optimum_half, result.value.half_size());
    /// ```
    ///
    /// # Panics
    ///
    /// Panics when the [`warm_start`](Self::warm_start) incumbent is not
    /// a balanced biclique of the session graph.
    pub fn solve(self) -> QueryResult<Biclique> {
        let budget = self.budget();
        let mut config = self.engine.config;
        if let Some(threads) = self.threads {
            config.threads = threads;
        }
        let (biclique, stats) = hbv_mbb(self.engine, config, self.incumbent, &budget);
        finish(biclique, stats, &budget)
    }

    /// The `k` maximal bicliques with the largest balanced size, best
    /// first.
    pub fn topk(self, k: usize) -> QueryResult<Vec<MaximalBiclique>> {
        let budget = self.budget();
        let outcome = topk_budgeted(&self.engine.graph, k, &budget);
        finish(outcome.bicliques, SolveStats::default(), &budget)
    }

    /// The largest balanced biclique containing `anchor` (empty only when
    /// the anchor has no incident edge).
    ///
    /// # Panics
    ///
    /// Panics when `anchor` is out of range for the session graph.
    pub fn anchored(self, anchor: Vertex) -> QueryResult<Biclique> {
        let budget = self.budget();
        let (biclique, search) = anchored_budgeted(&self.engine.graph, anchor, &budget);
        let stats = SolveStats {
            search,
            optimum_half: biclique.half_size(),
            ..SolveStats::default()
        };
        finish(biclique, stats, &budget)
    }

    /// The largest balanced biclique containing edge `(u, v)` (left `u`,
    /// right `v`), or `None` when the edge is absent from the graph.
    pub fn anchored_edge(self, u: u32, v: u32) -> QueryResult<Option<Biclique>> {
        let budget = self.budget();
        let found = anchored_edge_budgeted(&self.engine.graph, u, v, &budget);
        let (value, search) = match found {
            Some((biclique, search)) => (Some(biclique), search),
            None => (None, Default::default()),
        };
        let stats = SolveStats {
            search,
            optimum_half: value.as_ref().map_or(0, Biclique::half_size),
            ..SolveStats::default()
        };
        finish(value, stats, &budget)
    }

    /// The heaviest balanced biclique under per-vertex `weights` (indexed
    /// by global id: left vertices first, then right).
    ///
    /// # Panics
    ///
    /// Panics when `weights.len() != graph.num_vertices()`.
    pub fn weighted(self, weights: &[u64]) -> QueryResult<WeightedBiclique> {
        let budget = self.budget();
        let (found, search) = weighted_mbb_budgeted(&self.engine.graph, weights, &budget);
        let stats = SolveStats {
            search,
            optimum_half: found.left.len(),
            ..SolveStats::default()
        };
        finish(found, stats, &budget)
    }

    /// The maximum **edge** biclique (`max |A| · |B|`).
    pub fn meb(self) -> QueryResult<EdgeBiclique> {
        let budget = self.budget();
        let found = maximum_edge_biclique_budgeted(&self.engine.graph, &budget);
        finish(found, SolveStats::default(), &budget)
    }

    /// The Pareto frontier of feasible biclique sizes. On a
    /// non-`Complete` termination the frontier is a lower-bound
    /// approximation (its `complete` field mirrors the termination).
    pub fn frontier(self) -> QueryResult<SizeFrontier> {
        let budget = self.budget();
        let frontier = SizeFrontier::budgeted(&self.engine.graph, &budget);
        finish(frontier, SolveStats::default(), &budget)
    }

    /// A witness for the size-constrained `(a, b)`-biclique problem.
    /// `None` under a non-`Complete` termination means "not found in
    /// time", not certified infeasibility.
    pub fn size_constrained(
        self,
        a: usize,
        b: usize,
    ) -> QueryResult<Option<SizeConstrainedBiclique>> {
        let budget = self.budget();
        let witness = find_size_constrained_budgeted(&self.engine.graph, a, b, &budget);
        finish(witness, SolveStats::default(), &budget)
    }

    /// Collects every maximal biclique passing `config`'s filters. For
    /// streams too large to materialise, use
    /// [`enumerate_budgeted`] directly with a callback.
    pub fn enumerate(self, config: EnumConfig) -> QueryResult<Enumeration> {
        let budget = self.budget();
        let mut bicliques = Vec::new();
        let outcome = enumerate_budgeted(&self.engine.graph, &config, &budget, |b| {
            bicliques.push(b.clone());
            std::ops::ControlFlow::Continue(())
        });
        finish(
            Enumeration { bicliques, outcome },
            SolveStats::default(),
            &budget,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Stage;
    use crate::testutil::brute_force_half_graph as brute_half;
    use mbb_bigraph::generators;

    #[test]
    fn shared_indices_are_computed_exactly_once() {
        let g = generators::uniform_edges(30, 30, 140, 5);
        let engine = MbbEngine::new(g);
        let solved = engine.solve();
        let top = engine.topk(3);
        let anchored = engine.anchored(Vertex::left(0));
        assert!(solved.termination.is_complete());
        assert!(top.termination.is_complete());
        assert!(anchored.termination.is_complete());
        // One order build serves the whole session; only solves read it.
        assert_eq!(solved.stats.index.orders_computed, 1);
        assert_eq!(top.stats.index, IndexStats::default());
        assert_eq!(anchored.stats.index, IndexStats::default());
        // A second solve reuses the cached order.
        let again = engine.solve();
        assert_eq!(again.stats.index.orders_computed, 0);
        assert_eq!(again.stats.index.orders_reused, 1);
        assert_eq!(solved.value.half_size(), again.value.half_size());
    }

    #[test]
    fn anchored_kinds_build_no_index() {
        // Every anchored query walks N≤2 itself: a session answering many
        // of them builds no index, and each answer is the free function's.
        let g = generators::uniform_edges(20, 20, 90, 2);
        let engine = MbbEngine::new(g.clone());
        let budget = SearchBudget::unlimited();
        for anchor in [
            Vertex::left(1),
            Vertex::left(2),
            Vertex::right(3),
            Vertex::left(1),
        ] {
            let session = engine.anchored(anchor);
            assert!(session.termination.is_complete());
            assert_eq!(session.value, anchored_budgeted(&g, anchor, &budget).0);
            assert_eq!(session.stats.index, IndexStats::default());
        }
        for (u, v) in g.edges().step_by(7).chain([(0, 0), (3, 5)]) {
            let session = engine.anchored_edge(u, v);
            assert!(session.termination.is_complete());
            let free = anchored_edge_budgeted(&g, u, v, &budget).map(|(b, _)| b);
            assert_eq!(session.value, free, "edge ({u},{v})");
            assert_eq!(session.stats.index, IndexStats::default());
        }
        assert!(engine.order.get().is_none());
    }

    /// Reaches stage 3, so its solves build (then reuse) the order.
    fn stage3_graph() -> BipartiteGraph {
        generators::uniform_edges(30, 30, 260, 17)
    }

    #[test]
    fn stage1_exit_never_builds_the_order() {
        let engine = MbbEngine::new(generators::uniform_edges(40, 40, 200, 11));
        let solved = engine.solve();
        assert_eq!(solved.stats.stage, Stage::S1);
        assert!(solved.termination.is_complete());
        assert_eq!(solved.stats.bidegeneracy, None);
        let index = solved.stats.index;
        assert_eq!(index.orders_computed, 0);
        assert_eq!(index.orders_reused, 0);
    }

    #[test]
    fn stage3_solve_builds_the_order_once_and_reuses_it() {
        let engine = MbbEngine::new(stage3_graph());
        let first = engine.solve();
        assert_eq!(first.stats.stage, Stage::S3);
        assert_eq!(first.stats.index.orders_computed, 1);
        let bidegeneracy = bicore_decomposition(engine.graph()).bidegeneracy;
        assert_eq!(first.stats.bidegeneracy, Some(bidegeneracy));
        let again = engine.solve();
        assert_eq!(again.value.half_size(), first.value.half_size());
        assert_eq!(again.stats.bidegeneracy, Some(bidegeneracy));
        assert_eq!(again.stats.index.orders_computed, 0);
        assert_eq!(again.stats.index.orders_reused, 1);
    }

    #[test]
    fn concurrent_solves_count_every_order_use() {
        // Solves that start together race for the first order build; the
        // losers block until it is published and must still count as
        // reuses, whatever the schedule.
        let engine = MbbEngine::new(stage3_graph());
        let uses: Vec<IndexStats> = std::thread::scope(|scope| {
            let solves: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| engine.solve().stats))
                .collect();
            solves
                .into_iter()
                .map(|solve| {
                    let stats = solve.join().expect("solve thread");
                    assert_eq!(stats.stage, Stage::S3);
                    stats.index
                })
                .collect()
        });
        let computed: u64 = uses.iter().map(|u| u.orders_computed).sum();
        let reused: u64 = uses.iter().map(|u| u.orders_reused).sum();
        assert_eq!((computed, reused), (1, 3));
    }

    #[test]
    fn expired_deadline_skips_the_order_build() {
        let engine = MbbEngine::new(stage3_graph());
        let result = engine.query().deadline(Duration::ZERO).solve();
        assert_eq!(result.termination, Termination::DeadlineExceeded);
        assert!(result.value.is_valid(engine.graph()));
        assert_eq!(result.stats.bidegeneracy, None);
        assert_eq!(result.stats.index.orders_computed, 0);
        // Unbudgeted, the same graph does need the order.
        assert_eq!(engine.solve().stats.index.orders_computed, 1);
    }

    #[test]
    fn session_solve_matches_fresh_solver_on_random_graphs() {
        for seed in 0..10u64 {
            let g = generators::uniform_edges(14, 14, 75, seed);
            let expected = brute_half(&g);
            let engine = MbbEngine::new(g);
            let session = engine.solve();
            assert_eq!(session.value.half_size(), expected, "seed {seed}");
            assert!(session.value.is_valid(engine.graph()));
        }
    }

    #[test]
    fn ablation_configs_run_through_the_session_path() {
        for config in [
            SolverConfig::bd2(),
            SolverConfig::bd4(),
            SolverConfig::bd5(),
        ] {
            for seed in 0..4u64 {
                let g = generators::uniform_edges(11, 11, 55, seed);
                let expected = brute_half(&g);
                let engine = MbbEngine::with_config(g, config);
                let session = engine.solve();
                assert_eq!(session.value.half_size(), expected);
            }
        }
    }

    #[test]
    fn cancelled_token_terminates_immediately() {
        let g = generators::dense_uniform(40, 40, 0.8, 3);
        let engine = MbbEngine::new(g);
        let token = CancelToken::new();
        token.cancel();
        let result = engine.query().cancel_token(token).solve();
        assert_eq!(result.termination, Termination::Cancelled);
    }

    #[test]
    fn warm_start_solves_through_the_builder() {
        let g = generators::complete(4, 4);
        let engine = MbbEngine::new(g);
        let incumbent = Biclique::balanced(vec![0], vec![0]);
        let result = engine.query().warm_start(incumbent).solve();
        assert_eq!(result.value.half_size(), 4);
    }

    #[test]
    fn every_query_kind_answers_on_one_session() {
        let g = generators::uniform_edges(12, 12, 55, 9);
        let engine = MbbEngine::new(g);
        let solve = engine.solve();
        assert!(solve.termination.is_complete());
        assert_eq!(engine.topk(2).value.len().min(2), 2);
        let (u, v) = engine.graph().edges().next().expect("has edges");
        assert!(engine.anchored(Vertex::left(u)).value.left.contains(&u));
        assert!(engine.anchored_edge(u, v).value.is_some());
        let weights = vec![1u64; engine.graph().num_vertices()];
        assert_eq!(
            engine.weighted(&weights).value.weight as usize,
            2 * solve.value.half_size()
        );
        assert!(engine.meb().value.edges() >= solve.value.half_size().pow(2));
        let frontier = engine.frontier();
        assert_eq!(frontier.value.mbb_half(), solve.value.half_size());
        let half = solve.value.half_size();
        assert!(engine.size_constrained(half, half).value.is_some());
        assert!(engine.size_constrained(13, 13).value.is_none());
        let enumeration = engine.enumerate(EnumConfig::default());
        assert!(enumeration.value.outcome.complete);
        assert_eq!(
            enumeration
                .value
                .bicliques
                .iter()
                .map(MaximalBiclique::balanced_size)
                .max()
                .unwrap_or(0),
            solve.value.half_size()
        );
    }
}

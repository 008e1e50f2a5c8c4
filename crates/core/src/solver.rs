//! `hbvMBB` — Algorithm 4: the heuristic / bridge / verify framework for
//! large sparse bipartite graphs, with every ablation of Table 3 exposed
//! through [`SolverConfig`].

use std::time::Instant;

use mbb_obs as obs;

use mbb_bigraph::bitset::BitSet;
use mbb_bigraph::graph::BipartiteGraph;
use mbb_bigraph::local::LocalGraph;
use mbb_bigraph::order::SearchOrder;
use mbb_bigraph::subgraph::{project_order, InducedSubgraph};

use crate::basic::LocalBiclique;
use crate::biclique::Biclique;
use crate::bridge::{bridge_mbb_budgeted, BridgeConfig};
use crate::budget::SearchBudget;
use crate::dense::{dense_mbb_budgeted, DenseConfig};
use crate::engine::MbbEngine;
use crate::heuristic::{greedy_balanced, hmbb, map_to_parent, DEFAULT_SEEDS};
use crate::stats::{SearchStats, SolveStats, Stage};
use crate::verify::{verify_mbb_budgeted, ParallelMode, VerifyConfig};

/// Resolves a thread-count knob: `0` means "one worker per available
/// core" ([`std::thread::available_parallelism`]), anything else is taken
/// literally.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    }
}

/// Runs `work(w)` for each worker index `w` in `0..workers` and returns
/// the results in worker order: inline on the calling thread when
/// `workers` is 1, otherwise one thread per worker on a
/// `std::thread::scope` pool. The one spawn site of the two parallel
/// stages, bridging and verification. A worker's panic resumes on the
/// caller after the join.
pub(crate) fn run_workers<T: Send>(workers: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if workers <= 1 {
        return vec![work(0)];
    }
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = (0..workers).map(|w| scope.spawn(move || work(w))).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

/// Configuration of the `hbvMBB` framework. The defaults are the paper's
/// full algorithm; each `bd*` constructor disables one ingredient for the
/// §6.3 breaking-down experiments.
#[derive(Debug, Clone, Copy)]
pub struct SolverConfig {
    /// Run the `hMBB` heuristic-and-reduce stage (off = `bd1`).
    pub use_heuristic_stage: bool,
    /// Use core/bicore machinery: Lemma 4 reductions, degeneracy pruning,
    /// Lemma 5 early termination (off = `bd2`; the order falls back to
    /// degree order since bidegeneracy is itself a bicore optimisation).
    pub use_core_optimizations: bool,
    /// Use the §4 branching technique (polynomial case + triviality-last
    /// branching) in verification (off = `bd3`).
    pub use_dense_branching: bool,
    /// Total search order for the vertex-centred decomposition
    /// (`bd4` = degree, `bd5` = degeneracy, default bidegeneracy).
    pub order: SearchOrder,
    /// Seeds for the global and local greedy heuristics.
    pub heuristic_seeds: usize,
    /// Worker threads for the parallel stages (bridging's per-centre
    /// generation loop and the verification search): `1` = the paper's
    /// sequential algorithm, `0` = one worker per available core (see
    /// [`resolve_threads`]).
    pub threads: usize,
    /// Read by nothing: verification always splits the surviving
    /// subgraphs across the workers. Kept only because
    /// `perfbench/src/layers.rs` copies it into a [`VerifyConfig`] that
    /// names every field.
    pub parallel_mode: ParallelMode,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            use_heuristic_stage: true,
            use_core_optimizations: true,
            use_dense_branching: true,
            order: SearchOrder::Bidegeneracy,
            heuristic_seeds: DEFAULT_SEEDS,
            threads: 1,
            parallel_mode: ParallelMode::Subgraph,
        }
    }
}

impl SolverConfig {
    /// `bd1`: framework without step 1 (no global heuristic/reduction).
    pub fn bd1() -> Self {
        SolverConfig {
            use_heuristic_stage: false,
            ..Default::default()
        }
    }

    /// `bd2`: without core and bicore based optimisations.
    pub fn bd2() -> Self {
        SolverConfig {
            use_core_optimizations: false,
            order: SearchOrder::Degree,
            ..Default::default()
        }
    }

    /// `bd3`: without the §4 branching technique.
    pub fn bd3() -> Self {
        SolverConfig {
            use_dense_branching: false,
            ..Default::default()
        }
    }

    /// `bd4`: degree order instead of bidegeneracy order.
    pub fn bd4() -> Self {
        SolverConfig {
            order: SearchOrder::Degree,
            ..Default::default()
        }
    }

    /// `bd5`: degeneracy order instead of bidegeneracy order.
    pub fn bd5() -> Self {
        SolverConfig {
            order: SearchOrder::Degeneracy,
            ..Default::default()
        }
    }
}

/// Finds a maximum balanced biclique of `engine`'s session graph
/// (Algorithm 4) under `config`, warm-started with `incumbent` and
/// stopped early by `budget` (checked at stage boundaries, per bridged
/// centre and per `denseMBB` node). [`QueryBuilder::solve`] is its one
/// caller.
///
/// Stage 2 reads the session's cached order, building it on first use,
/// and restricts it to the Lemma 4-reduced residual rather than peeling
/// the residual: vertex-centred decomposition is correct under any total
/// order. A solve that stage 1 settles never builds the order.
///
/// # Panics
///
/// Panics when `incumbent` is neither empty nor a balanced biclique of
/// the session graph.
///
/// [`QueryBuilder::solve`]: crate::engine::QueryBuilder::solve
pub(crate) fn hbv_mbb(
    engine: &MbbEngine,
    config: SolverConfig,
    incumbent: Biclique,
    budget: &SearchBudget,
) -> (Biclique, SolveStats) {
    let graph = engine.graph();
    assert!(
        incumbent.is_empty() || incumbent.is_valid(graph),
        "warm-start incumbent must be a balanced biclique of the graph"
    );
    let mut stats = SolveStats::default();

    // ---- Step 1: heuristic + reduction (Algorithm 5). ----
    // mbb-lint: allow(hot-clock) per-stage timing, taken once per solve outside the search loops
    let stage1_start = Instant::now();
    let (mut best, reduced) = if config.use_heuristic_stage {
        let outcome = hmbb(graph, config.heuristic_seeds, config.use_core_optimizations);
        stats.degeneracy = outcome.degeneracy;
        if outcome.proven_optimal
            && config.use_core_optimizations
            && outcome.best.half_size() >= incumbent.half_size()
        {
            stats.stage = Stage::S1;
            stats.heuristic_global_half = outcome.best.half_size();
            stats.heuristic_local_half = outcome.best.half_size();
            stats.optimum_half = outcome.best.half_size();
            // mbb-lint: allow(hot-clock) stage-boundary timestamp for the obs span
            obs::record(obs::Stage::SolveHeuristic, stage1_start, Instant::now());
            return (outcome.best, stats);
        }
        let best = if incumbent.half_size() > outcome.best.half_size() {
            incumbent
        } else {
            outcome.best
        };
        (best, outcome.reduced)
    } else {
        (incumbent, InducedSubgraph::identity(graph))
    };
    stats.heuristic_global_half = best.half_size();
    // mbb-lint: allow(hot-clock) stage-boundary timestamp for the obs span
    obs::record(obs::Stage::SolveHeuristic, stage1_start, Instant::now());

    // An empty reduced graph means the incumbent is optimal; an
    // exhausted budget means stage 1's best is all we may report.
    if reduced.graph.num_left() == 0 || reduced.graph.num_right() == 0 || budget.probe() {
        stats.stage = Stage::S1;
        stats.heuristic_local_half = best.half_size();
        stats.optimum_half = best.half_size();
        return (best, stats);
    }

    // ---- Step 2: bridge to maximality (Algorithms 6 and 7). ----
    // The session order is read only now that stage 1 has failed to
    // settle the solve, and before the stage-2 timestamp, so a first
    // read's `preprocess.*` build stays out of `solve.bridge`.
    let session_order = engine.order_index();
    // mbb-lint: allow(hot-clock) per-stage timing, taken once per solve outside the search loops
    let stage2_start = Instant::now();
    let order = project_order(&session_order.rank, graph.num_left(), &reduced);
    stats.bidegeneracy = session_order.bidegeneracy;
    // Translate the incumbent into reduced-graph ids for local pruning;
    // its vertices may have been reduced away, but only its *size*
    // matters for pruning, so a placeholder of equal size suffices.
    let incumbent_local = Biclique {
        left: vec![u32::MAX; best.half_size()],
        right: vec![u32::MAX; best.half_size()],
    };
    let bridged = bridge_mbb_budgeted(
        &reduced.graph,
        &order,
        incumbent_local,
        BridgeConfig {
            use_core_pruning: config.use_core_optimizations,
            heuristic_seeds: config.heuristic_seeds.min(4),
            threads: config.threads,
        },
        budget,
    );
    stats.subgraphs_generated = bridged.stats.generated;
    stats.avg_subgraph_density = bridged.stats.average_density();
    stats.avg_subgraph_size = bridged.stats.average_size();
    stats.max_subgraph_size = bridged.stats.max_size;
    if bridged.best.half_size() > best.half_size() {
        best = map_to_parent(&bridged.best, &reduced);
    }
    stats.heuristic_local_half = best.half_size();
    stats.subgraphs_verified = bridged.survivors.len();
    // mbb-lint: allow(hot-clock) stage-boundary timestamp for the obs span
    obs::record(obs::Stage::SolveBridge, stage2_start, Instant::now());

    if bridged.survivors.is_empty() || budget.probe() {
        stats.stage = Stage::S2;
        stats.optimum_half = best.half_size();
        return (best, stats);
    }

    // ---- Step 3: maximality verification (Algorithm 8). ----
    // mbb-lint: allow(hot-clock) per-stage timing, taken once per solve outside the search loops
    let stage3_start = Instant::now();
    let dense_config = DenseConfig {
        use_polynomial_case: config.use_dense_branching,
        branch_max_missing: config.use_dense_branching,
        use_reductions: true,
    };
    let incumbent_local = Biclique {
        left: vec![u32::MAX; best.half_size()],
        right: vec![u32::MAX; best.half_size()],
    };
    let (verified, search_stats) = verify_mbb_budgeted(
        &reduced.graph,
        &bridged.survivors,
        incumbent_local,
        VerifyConfig {
            use_core_reduction: config.use_core_optimizations,
            dense: dense_config,
            threads: config.threads,
            ..VerifyConfig::default()
        },
        budget,
    );
    stats.search = search_stats;
    if verified.half_size() > best.half_size() {
        best = map_to_parent(&verified, &reduced);
    }
    stats.stage = Stage::S3;
    stats.optimum_half = best.half_size();
    // mbb-lint: allow(hot-clock) stage-boundary timestamp for the obs span
    obs::record(obs::Stage::SolveVerify, stage3_start, Instant::now());
    (best, stats)
}

/// Runs `denseMBB` (Algorithm 3) directly on a whole graph — the §6.1 dense
/// workload entry point. A degree-greedy warm start seeds the bound.
///
/// The search stops once `budget` is exhausted and returns the best so far
/// (at least the warm start); `budget.termination()` then says why. Entry
/// is a coarse boundary: one unsampled probe, so an expired budget skips
/// the search.
pub fn dense_mbb_graph(graph: &BipartiteGraph, budget: &SearchBudget) -> (Biclique, SolveStats) {
    let score: Vec<u64> = graph.vertices().map(|v| graph.degree(v) as u64).collect();
    let warm = greedy_balanced(graph, &score, 16);
    let warm_half = warm.half_size();
    let (found, search) = if budget.probe() {
        (LocalBiclique::default(), SearchStats::default())
    } else {
        let local = LocalGraph::induced(
            graph,
            &(0..graph.num_left() as u32).collect::<Vec<_>>(),
            &(0..graph.num_right() as u32).collect::<Vec<_>>(),
        );
        let (ca, cb) = (
            BitSet::full(local.num_left()),
            BitSet::full(local.num_right()),
        );
        let config = DenseConfig::default();
        dense_mbb_budgeted(&local, vec![], vec![], ca, cb, warm_half, config, budget)
    };
    let best = if found.half() > warm_half {
        Biclique::balanced(found.left, found.right)
    } else {
        warm
    };
    let stats = SolveStats {
        stage: Stage::S3,
        heuristic_global_half: warm_half,
        optimum_half: best.half_size(),
        search,
        ..SolveStats::default()
    };
    (best, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbb_bigraph::generators;

    use crate::testutil::brute_force_half_graph as brute_half;

    #[test]
    fn default_solver_is_exact() {
        for seed in 0..20u64 {
            let engine = MbbEngine::new(generators::uniform_edges(12, 12, 60, seed));
            let result = engine.solve();
            let g = engine.graph();
            assert_eq!(result.value.half_size(), brute_half(g), "seed {seed}");
            assert!(result.value.is_valid(g), "seed {seed}");
            assert_eq!(result.stats.optimum_half, result.value.half_size());
        }
    }

    #[test]
    fn all_ablations_are_exact() {
        let configs = [
            SolverConfig::bd1(),
            SolverConfig::bd2(),
            SolverConfig::bd3(),
            SolverConfig::bd4(),
            SolverConfig::bd5(),
        ];
        for seed in 0..6u64 {
            let g = generators::uniform_edges(11, 11, 55, seed);
            let expected = brute_half(&g);
            for (i, config) in configs.iter().enumerate() {
                let result = MbbEngine::with_config(g.clone(), *config).solve();
                assert_eq!(
                    result.value.half_size(),
                    expected,
                    "bd{} seed {seed}",
                    i + 1
                );
                assert!(result.value.is_valid(&g));
            }
        }
    }

    #[test]
    fn dense_entry_point_is_exact() {
        for seed in 0..10u64 {
            let g = generators::dense_uniform(10, 10, 0.8, seed);
            let (biclique, _) = dense_mbb_graph(&g, &SearchBudget::unlimited());
            assert_eq!(biclique.half_size(), brute_half(&g), "seed {seed}");
            assert!(biclique.is_valid(&g));
        }
    }

    #[test]
    fn dense_entry_point_stops_at_its_deadline() {
        // Unbudgeted, every 128×128 cell at 80% density in Table 4 runs
        // past 10 s.
        use crate::budget::Termination;
        use std::time::Duration;
        let g = generators::dense_uniform(128, 128, 0.8, 1);
        let budget = SearchBudget::with_deadline(Duration::from_millis(100));
        let start = Instant::now();
        let (biclique, _) = dense_mbb_graph(&g, &budget);
        assert!(start.elapsed() < Duration::from_secs(2));
        assert_eq!(budget.termination(), Termination::DeadlineExceeded);
        assert!(biclique.is_valid(&g));
    }

    #[test]
    fn solver_finds_planted_optimum() {
        let g = generators::chung_lu_bipartite(
            &generators::ChungLuParams {
                num_left: 500,
                num_right: 400,
                num_edges: 2000,
                left_exponent: 0.7,
                right_exponent: 0.7,
            },
            17,
        );
        let (planted, _, _) = generators::plant_balanced_biclique(&g, 7);
        let engine = MbbEngine::new(planted);
        let result = engine.solve();
        assert!(result.value.half_size() >= 7);
        assert!(result.value.is_valid(engine.graph()));
    }

    #[test]
    fn empty_graph_solves_to_empty() {
        let g = BipartiteGraph::from_edges(0, 0, []).unwrap();
        let result = MbbEngine::new(g).solve();
        assert_eq!(result.value.half_size(), 0);
    }

    #[test]
    fn edgeless_graph_solves_to_empty() {
        let g = BipartiteGraph::from_edges(5, 5, []).unwrap();
        let result = MbbEngine::new(g).solve();
        assert_eq!(result.value.half_size(), 0);
    }

    #[test]
    fn complete_graph_early_terminates() {
        let result = MbbEngine::new(generators::complete(6, 6)).solve();
        assert_eq!(result.value.half_size(), 6);
        // δ(K6,6) = 6 = half: Lemma 5 fires in stage 1 as soon as the
        // greedy finds the full biclique.
        assert_eq!(result.stats.stage, Stage::S1);
    }

    #[test]
    fn parallel_verification_matches() {
        for seed in 0..5u64 {
            let engine = MbbEngine::new(generators::uniform_edges(14, 14, 95, seed));
            let sequential = engine.solve();
            let parallel = engine.query().threads(4).solve();
            assert_eq!(
                sequential.value.half_size(),
                parallel.value.half_size(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn warm_start_with_optimum_still_returns_optimum() {
        for seed in 0..10u64 {
            let engine = MbbEngine::new(generators::uniform_edges(12, 12, 60, seed ^ 0x31));
            let cold = engine.solve();
            let warm = engine.query().warm_start(cold.value.clone()).solve();
            assert_eq!(warm.value.half_size(), cold.value.half_size());
            assert!(warm.value.is_valid(engine.graph()));
        }
    }

    #[test]
    fn warm_start_with_suboptimal_incumbent_improves() {
        let engine = MbbEngine::new(generators::complete(4, 4));
        let incumbent = Biclique::balanced(vec![0], vec![0]);
        let result = engine.query().warm_start(incumbent).solve();
        assert_eq!(result.value.half_size(), 4);
    }

    #[test]
    #[should_panic(expected = "warm-start incumbent")]
    fn warm_start_rejects_invalid_incumbent() {
        let g = BipartiteGraph::from_edges(2, 2, [(0, 0)]).unwrap();
        let bogus = Biclique::balanced(vec![0, 1], vec![0, 1]);
        let _ = MbbEngine::new(g).query().warm_start(bogus).solve();
    }

    #[test]
    fn warm_start_without_heuristic_stage() {
        for seed in 0..6u64 {
            let g = generators::uniform_edges(10, 10, 45, seed ^ 0x91);
            let engine = MbbEngine::with_config(g, SolverConfig::bd1());
            let cold = engine.solve();
            let warm = engine.query().warm_start(cold.value.clone()).solve();
            assert_eq!(warm.value.half_size(), cold.value.half_size());
        }
    }

    #[test]
    fn stage_statistics_are_populated() {
        let result = MbbEngine::new(generators::uniform_edges(20, 20, 140, 3)).solve();
        if result.stats.stage == Stage::S3 {
            assert!(result.stats.subgraphs_generated > 0);
        }
    }
}

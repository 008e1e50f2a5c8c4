//! `verifyMBB` — Algorithm 8: maximality verification.
//!
//! Each surviving vertex-centred subgraph is cut to its
//! `(best_half + 1)`-core (Lemma 4 applied locally) by the core numbers
//! bridging computed for it, built once as a bitset [`LocalGraph`], and
//! searched with `denseMBB` seeded with the centre vertex fixed in the
//! result. Improvements immediately tighten the prunes of later subgraphs.
//!
//! One worker loop walks the survivors. With `threads > 1` the workers
//! split them through a shared cursor: each searches whole subgraphs on
//! its own thread and prunes against one [`SharedIncumbent`]. A
//! subgraph has at most δ̈ + 1 vertices and is verified on its own, so
//! it is the natural unit of parallel work. The paper's implementation
//! is single-threaded (`threads = 1`).

// The survivor cursor goes through the mbb-conc facade, as in `dense.rs`.
use mbb_conc::sync::atomic::{AtomicUsize, Ordering};

use mbb_bigraph::bitset::BitSet;
use mbb_bigraph::graph::{BipartiteGraph, Side};
use mbb_bigraph::local::LocalGraph;
use mbb_obs as obs;

use crate::biclique::Biclique;
use crate::bridge::CenteredSubgraph;
use crate::budget::SearchBudget;
use crate::dense::{dense_mbb_budgeted, DenseConfig, SharedIncumbent};
use crate::solver::{resolve_threads, run_workers};
use crate::stats::SearchStats;

/// How a multi-threaded verification stage spends its workers. There is
/// one way: [`ParallelMode::Subgraph`]. Nothing reads this type; it is
/// kept only because `perfbench/src/layers.rs` names every field of
/// [`VerifyConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParallelMode {
    /// Split the surviving subgraphs across workers (each searched
    /// serially), racing on a shared incumbent.
    #[default]
    Subgraph,
}

/// Knobs for the verification stage.
#[derive(Debug, Clone, Copy)]
pub struct VerifyConfig {
    /// Reduce each subgraph to the `(best_half+1)`-core before searching
    /// (off in the `bd2` ablation).
    pub use_core_reduction: bool,
    /// Exhaustive-search configuration (the `bd3` ablation turns the
    /// polynomial case and missing-most branching off).
    pub dense: DenseConfig,
    /// Number of worker threads; `1` = the paper's sequential algorithm,
    /// `0` = one per available core.
    pub threads: usize,
    /// Read by nothing: the workers always split the survivors. Kept
    /// only because `perfbench/src/layers.rs` names every field.
    pub mode: ParallelMode,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            use_core_reduction: true,
            dense: DenseConfig::default(),
            threads: 1,
            mode: ParallelMode::default(),
        }
    }
}

/// Algorithm 8 under a [`SearchBudget`]: returns the final optimum (in
/// the ids of `graph`) and the aggregated search statistics. The budget
/// is checked between subgraphs and inside every `denseMBB` node, so an
/// expiring deadline surfaces the best verified incumbent within a
/// bounded overshoot.
///
/// Workers claim survivors from a shared cursor and prune against one
/// [`SharedIncumbent`]; each keeps its own best witness, and the largest
/// is returned after the join (or `incumbent`, if none beats it). The
/// exhausted state of the budget is shared, so one worker observing the
/// deadline stops the whole pool at its next check.
pub fn verify_mbb_budgeted(
    graph: &BipartiteGraph,
    survivors: &[CenteredSubgraph],
    incumbent: Biclique,
    config: VerifyConfig,
    budget: &SearchBudget,
) -> (Biclique, SearchStats) {
    // A lone survivor leaves nothing to split.
    let workers = if survivors.len() > 1 {
        resolve_threads(config.threads)
    } else {
        1
    };
    let shared = SharedIncumbent::new(incumbent.half_size());
    let cursor = AtomicUsize::new(0);
    let outputs = run_workers(workers, |_| {
        let budget = budget.clone();
        let mut best = Biclique::empty();
        let mut stats = SearchStats::default();
        loop {
            // relaxed: the fetch_add's atomicity alone hands each survivor
            // index to exactly one worker; the survivors slice is
            // immutable and published by the spawn.
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(subgraph) = survivors.get(index) else {
                break;
            };
            // Per-subgraph boundary: pay the unsampled probe so an expired
            // deadline never survives into another subgraph's search.
            if budget.probe() {
                break;
            }
            let bound = shared.bound();
            // One span per surviving subgraph's cut-and-search.
            let _span = obs::span(obs::Stage::DenseSearch);
            if let Some((candidate, search_stats)) =
                verify_one(graph, subgraph, bound, config, &budget)
            {
                stats.merge(&search_stats);
                if candidate.half_size() > bound {
                    shared.publish(candidate.half_size());
                    best = candidate;
                }
            }
        }
        (best, stats)
    });

    let mut best = incumbent;
    let mut stats = SearchStats::default();
    for (worker_best, worker_stats) in outputs {
        if worker_best.half_size() > best.half_size() {
            best = worker_best;
        }
        stats.merge(&worker_stats);
        // Surface per-worker load balance alongside the totals.
        if workers > 1 {
            stats.worker_nodes.push(worker_stats.nodes);
        }
    }
    (best, stats)
}

/// Verifies one centred subgraph against the bound; returns an improving
/// biclique (graph ids) if found.
fn verify_one(
    graph: &BipartiteGraph,
    centered: &CenteredSubgraph,
    best_half: usize,
    config: VerifyConfig,
    budget: &SearchBudget,
) -> Option<(Biclique, SearchStats)> {
    let center = centered.center;
    debug_assert_eq!(
        centered.core.len(),
        centered.left_ids.len() + centered.right_ids.len()
    );
    // Lemma 4 locally: keep the (best_half + 1)-core, read off the core
    // numbers bridging computed for this subgraph.
    let (left_core, right_core) = centered.core.split_at(centered.left_ids.len());
    let cut = |ids: &[u32], core: &[u32]| -> Vec<u32> {
        ids.iter()
            .zip(core)
            .filter(|&(_, &c)| !config.use_core_reduction || c as usize > best_half)
            .map(|(&id, _)| id)
            .collect()
    };
    let left = cut(&centered.left_ids, left_core);
    let right = cut(&centered.right_ids, right_core);
    if left.len().min(right.len()) <= best_half {
        return None;
    }

    // Locate the centre inside the cut; if the cut removed it, no
    // biclique containing it can beat the bound.
    let center_local = match center.side {
        Side::Left => left.binary_search(&center.index).ok()?,
        Side::Right => right.binary_search(&center.index).ok()?,
    } as u32;

    let local = LocalGraph::induced(graph, &left, &right);

    // Seed the search with the centre fixed (Algorithm 8 line 4): the
    // centre's side candidates exclude it; the other side is already all
    // neighbours of the centre by vertex-centred construction, minus any
    // non-neighbours the core reduction could not remove.
    let (a, b, ca, cb) = match center.side {
        Side::Left => {
            let mut ca = BitSet::full(local.num_left());
            ca.remove(center_local as usize);
            let cb = local.left_row(center_local).to_bitset();
            (vec![center_local], Vec::new(), ca, cb)
        }
        Side::Right => {
            let ca = local.right_row(center_local).to_bitset();
            let mut cb = BitSet::full(local.num_right());
            cb.remove(center_local as usize);
            (Vec::new(), vec![center_local], ca, cb)
        }
    };

    let (found, stats) = dense_mbb_budgeted(&local, a, b, ca, cb, best_half, config.dense, budget);
    if found.half() <= best_half {
        // No improvement; still surface the stats for aggregation.
        return Some((Biclique::empty(), stats));
    }
    let left = found.left.iter().map(|&i| left[i as usize]).collect();
    let right = found.right.iter().map(|&i| right[i as usize]).collect();
    Some((Biclique::balanced(left, right), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bridge::{bridge_mbb_budgeted, BridgeConfig, BridgeOutcome};
    use mbb_bigraph::generators;
    use mbb_bigraph::order::{compute_order, SearchOrder};

    fn full_pipeline(graph: &BipartiteGraph, threads: usize) -> Biclique {
        let bridged = bridge(graph);
        let config = VerifyConfig {
            threads,
            ..Default::default()
        };
        verify(graph, &bridged.survivors, bridged.best, config).0
    }

    /// Bridging at one thread under the bidegeneracy order, from an empty
    /// incumbent.
    fn bridge(graph: &BipartiteGraph) -> BridgeOutcome {
        let order = compute_order(graph, SearchOrder::Bidegeneracy);
        let unlimited = SearchBudget::unlimited();
        bridge_mbb_budgeted(
            graph,
            &order,
            Biclique::empty(),
            BridgeConfig::default(),
            &unlimited,
        )
    }

    fn verify(
        graph: &BipartiteGraph,
        survivors: &[CenteredSubgraph],
        incumbent: Biclique,
        config: VerifyConfig,
    ) -> (Biclique, SearchStats) {
        verify_mbb_budgeted(
            graph,
            survivors,
            incumbent,
            config,
            &SearchBudget::unlimited(),
        )
    }

    /// An 80×80 skewed Chung–Lu instance, by seed.
    fn chung_lu_80(seed: u64) -> BipartiteGraph {
        generators::chung_lu_bipartite(
            &generators::ChungLuParams {
                num_left: 80,
                num_right: 80,
                num_edges: 4_200,
                left_exponent: 0.55,
                right_exponent: 0.55,
            },
            seed,
        )
    }

    use crate::testutil::brute_force_half_graph as brute_half;

    #[test]
    fn pipeline_is_exact_on_small_random_graphs() {
        for seed in 0..15u64 {
            let g = generators::uniform_edges(10, 10, 45, seed);
            let found = full_pipeline(&g, 1);
            assert_eq!(found.half_size(), brute_half(&g), "seed {seed}");
            assert!(found.is_valid(&g), "seed {seed}");
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        for seed in 0..8u64 {
            let g = generators::uniform_edges(14, 14, 90, seed);
            let sequential = full_pipeline(&g, 1);
            let parallel = full_pipeline(&g, 4);
            assert_eq!(sequential.half_size(), parallel.half_size(), "seed {seed}");
        }
    }

    #[test]
    fn subgraph_mode_reports_per_worker_nodes() {
        for seed in 0..4u64 {
            let g = chung_lu_80(seed ^ 0x17);
            let bridged = bridge(&g);
            assert!(bridged.survivors.len() > 1, "seed {seed}");
            let config = VerifyConfig {
                threads: 2,
                ..Default::default()
            };
            let (best, stats) = verify(&g, &bridged.survivors, bridged.best, config);
            assert_eq!(stats.worker_nodes.len(), 2, "seed {seed}");
            assert_eq!(
                stats.worker_nodes.iter().sum::<u64>(),
                stats.nodes,
                "seed {seed}"
            );
            assert_eq!(
                best.half_size(),
                full_pipeline(&g, 1).half_size(),
                "seed {seed}"
            );
            assert!(best.is_valid(&g), "seed {seed}");
        }
    }

    #[test]
    fn finds_planted_biclique_exactly() {
        for seed in 0..6u64 {
            let g = generators::uniform_edges(30, 30, 120, seed);
            let (planted, _, _) = generators::plant_balanced_biclique(&g, 5);
            let found = full_pipeline(&planted, 1);
            assert!(found.half_size() >= 5, "seed {seed}: {}", found.half_size());
            assert!(found.is_valid(&planted));
        }
    }

    #[test]
    fn empty_survivor_list_returns_incumbent() {
        let g = generators::uniform_edges(5, 5, 10, 0);
        let incumbent = Biclique::balanced(vec![0], vec![0]);
        let (best, stats) = verify(&g, &[], incumbent.clone(), VerifyConfig::default());
        assert_eq!(best, incumbent);
        assert_eq!(stats.nodes, 0);
    }

    /// FNV-1a over every survivor's centre and id lists, in order.
    fn survivor_digest(survivors: &[CenteredSubgraph]) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |word: u64| hash = (hash ^ word).wrapping_mul(0x0100_0000_01b3);
        for s in survivors {
            eat(u64::from(s.center.side == Side::Right));
            eat(u64::from(s.center.index));
            for ids in [&s.left_ids, &s.right_ids] {
                eat(ids.len() as u64);
                ids.iter().for_each(|&id| eat(u64::from(id)));
            }
        }
        hash
    }

    /// Pins stages 2–3 at one thread: bridging's counters
    /// `[generated, pruned_size, pruned_degeneracy, size_sum, max_size]`,
    /// the survivor count and a digest of every survivor's centre and id
    /// lists, the bridged and verified half-sizes, and the verification
    /// search tree `[nodes, poly_solves, bound_prunes, reduced_vertices,
    /// leaf_count, max_depth]`. Recorded before verification took its core
    /// numbers from bridging; any change to generation, pruning, the local
    /// core cut or the search shows here.
    #[test]
    fn pipeline_is_pinned() {
        let run = |g: &BipartiteGraph, order: SearchOrder, use_core: bool| {
            let order = compute_order(g, order);
            let unlimited = SearchBudget::unlimited();
            let bridge_config = BridgeConfig {
                use_core_pruning: use_core,
                ..BridgeConfig::default()
            };
            let bridged =
                bridge_mbb_budgeted(g, &order, Biclique::empty(), bridge_config, &unlimited);
            let s = &bridged.stats;
            let counters = [
                s.generated,
                s.pruned_size,
                s.pruned_degeneracy,
                s.size_sum,
                s.max_size,
            ];
            let survivors = (bridged.survivors.len(), survivor_digest(&bridged.survivors));
            let bridged_half = bridged.best.half_size();
            let verify_config = VerifyConfig {
                use_core_reduction: use_core,
                ..VerifyConfig::default()
            };
            let (verified, stats) = verify_mbb_budgeted(
                g,
                &bridged.survivors,
                bridged.best,
                verify_config,
                &unlimited,
            );
            assert!(verified.is_valid(g));
            let tree = [
                stats.nodes,
                stats.poly_solves,
                stats.bound_prunes,
                stats.reduced_vertices,
                stats.leaf_count,
                stats.max_depth,
            ];
            (
                counters,
                survivors,
                bridged_half,
                verified.half_size(),
                tree,
            )
        };
        let sparse = generators::uniform_edges(30, 30, 260, 17);
        let got = [
            run(&sparse, SearchOrder::Bidegeneracy, true),
            run(&chung_lu_80(0x17), SearchOrder::Bidegeneracy, true),
            run(
                &generators::dense_uniform(40, 40, 0.7, 5),
                SearchOrder::Bidegeneracy,
                true,
            ),
            // The `bd2` pair: degree order, no core pruning or reduction.
            run(&sparse, SearchOrder::Degree, false),
        ];
        let want = [
            (
                [60, 18, 38, 1119, 28],
                (4, 6187856770241500379),
                3,
                3,
                [8, 0, 5, 41, 5, 2],
            ),
            (
                [160, 99, 1, 10680, 114],
                (60, 5510664475569524384),
                19,
                20,
                [37273, 705, 17961, 533432, 18666, 36],
            ),
            (
                [80, 46, 2, 2735, 62],
                (32, 8364967652061363313),
                9,
                9,
                [6980, 120, 3386, 70951, 3506, 21],
            ),
            (
                [60, 3, 0, 1119, 31],
                (57, 10056960689962292296),
                0,
                3,
                [57, 3, 48, 967, 51, 3],
            ),
        ];
        assert_eq!(got, want);
    }
}

//! `bridgeMBB` — Algorithm 6: vertex-centred subgraph generation and
//! pruning ("bridging to maximality", §5.3).
//!
//! Given a total search order `o`, the subgraph centred at `v_i` is induced
//! by `{v_i} ∪ (N≤2(v_i) ∩ {v_{i+1}, …})` (Definition 6). By Observations
//! 4–5 every biclique strictly larger than the incumbent is contained in the
//! subgraph centred at its order-earliest vertex, so searching each centred
//! subgraph for bicliques *containing its centre* is complete and
//! duplicate-free.
//!
//! Each generated subgraph is pruned by side size and degeneracy against the
//! incumbent, and a local core-greedy heuristic tries to grow the incumbent
//! before the expensive verification stage. Every subgraph that passes the
//! size prune is built once as a bitset [`LocalGraph`] (Lemma 8 keeps it
//! within δ̈ + 1 vertices), and the core peel and the greedy run on its
//! rows. A survivor carries its sorted id lists and core numbers to
//! verification, which cuts its local `(|A*|+1)`-core from them instead
//! of peeling it again.

use mbb_obs as obs;

use mbb_bigraph::core_decomp::local_core_decomposition;
use mbb_bigraph::graph::{BipartiteGraph, Side, Vertex};
use mbb_bigraph::local::LocalGraph;
use mbb_bigraph::two_hop::n2_neighbors;

use crate::biclique::Biclique;
use crate::budget::SearchBudget;
use crate::heuristic::greedy_balanced_local;
use crate::solver::{claim_loop, resolve_threads};

/// A surviving vertex-centred subgraph, in the ids of the graph the bridge
/// ran on.
#[derive(Debug, Clone)]
pub struct CenteredSubgraph {
    /// The centre vertex.
    pub center: Vertex,
    /// Left-side vertex ids of the subgraph (includes the centre when it is
    /// a left vertex).
    pub left_ids: Vec<u32>,
    /// Right-side vertex ids.
    pub right_ids: Vec<u32>,
    /// Each vertex's core number in the subgraph itself, `left_ids` first,
    /// then `right_ids`. Verification keeps the vertices whose number
    /// beats the incumbent (Lemma 4, applied locally).
    pub core: Vec<u32>,
}

/// Aggregates of the bridging stage (feed Figures 5 and 6).
#[derive(Debug, Clone, Default)]
pub struct BridgeStats {
    /// Subgraphs generated (before pruning).
    pub generated: usize,
    /// Subgraphs pruned by the side-size test.
    pub pruned_size: usize,
    /// Subgraphs pruned by the degeneracy test.
    pub pruned_degeneracy: usize,
    /// Σ density over the centred subgraphs that pass the size prune
    /// (size-pruned subgraphs are never induced, so they are not in it).
    pub density_sum: f64,
    /// The number of centred subgraphs that pass the size prune, the
    /// count behind `density_sum`.
    pub density_count: usize,
    /// Σ vertex count over generated subgraphs.
    pub size_sum: usize,
    /// Largest generated subgraph (vertex count). Under bidegeneracy order
    /// this is bounded by δ̈ + 1 (Lemma 8); under degree order it can reach
    /// d_max² — the quantity Figure 6 actually separates on.
    pub max_size: usize,
}

impl BridgeStats {
    /// Mean density of the centred subgraphs that pass the size prune
    /// (Figure 6); 0 when none does.
    pub fn average_density(&self) -> f64 {
        if self.density_count == 0 {
            0.0
        } else {
            self.density_sum / self.density_count as f64
        }
    }

    /// Mean vertex count of generated subgraphs.
    pub fn average_size(&self) -> f64 {
        if self.generated == 0 {
            0.0
        } else {
            self.size_sum as f64 / self.generated as f64
        }
    }

    /// Accumulates another worker's counters into this one (sums, except
    /// `max_size` which takes the max).
    pub fn merge(&mut self, other: &BridgeStats) {
        self.generated += other.generated;
        self.pruned_size += other.pruned_size;
        self.pruned_degeneracy += other.pruned_degeneracy;
        self.density_sum += other.density_sum;
        self.density_count += other.density_count;
        self.size_sum += other.size_sum;
        self.max_size = self.max_size.max(other.max_size);
    }
}

/// Outcome of [`bridge_mbb_budgeted`].
#[derive(Debug)]
pub struct BridgeOutcome {
    /// Best biclique known after local heuristics (ids of the bridged
    /// graph).
    pub best: Biclique,
    /// Subgraphs that survived every prune, in generation order.
    pub survivors: Vec<CenteredSubgraph>,
    /// Aggregated statistics.
    pub stats: BridgeStats,
}

/// Knobs for [`bridge_mbb_budgeted`].
#[derive(Debug, Clone, Copy)]
pub struct BridgeConfig {
    /// Apply the degeneracy prune and the local core-greedy heuristic
    /// (off in the `bd2` ablation). Survivors carry their core numbers
    /// either way.
    pub use_core_pruning: bool,
    /// Seeds for the local heuristic.
    pub heuristic_seeds: usize,
    /// Worker threads for the per-centre generation loop: `1` = the
    /// paper's sequential Algorithm 6, `0` = one worker per available
    /// core ([`crate::solver::resolve_threads`]). Graphs with fewer than
    /// [`PARALLEL_MIN_CENTERS`] vertices always run on one worker — the
    /// thread spawn would cost more than the loop.
    pub threads: usize,
}

impl Default for BridgeConfig {
    fn default() -> Self {
        BridgeConfig {
            use_core_pruning: true,
            heuristic_seeds: 4,
            threads: 1,
        }
    }
}

/// Below this many centres the generation loop runs on one worker:
/// spawning a `std::thread::scope` pool costs tens of microseconds, more
/// than generating a few hundred small subgraphs.
pub const PARALLEL_MIN_CENTERS: usize = 256;

/// Centres claimed per cursor increment — coarse enough to keep cursor
/// contention negligible, fine enough that the tail imbalance stays under
/// a chunk per worker.
const CENTER_CHUNK: usize = 64;

/// Algorithm 6 under a [`SearchBudget`]. `order` is a permutation of the
/// graph's global ids; `incumbent` is the best biclique so far (in the
/// same graph's ids). The per-centre generation loop stops once the
/// budget is exhausted, returning the survivors admitted so far (the
/// caller's termination state records that the decomposition is partial).
///
/// Workers claim chunks of `CENTER_CHUNK` consecutive centres from a
/// shared cursor; a centre's subgraph depends only on the (immutable)
/// order ranks, so centres are embarrassingly parallel. The incumbent
/// half-size is shared through a [`SharedIncumbent`]: an improvement the
/// local heuristic finds on any worker at once strengthens every worker's
/// size and degeneracy prunes. Survivors are re-assembled in generation
/// order.
///
/// [`SharedIncumbent`]: crate::solver::SharedIncumbent
pub fn bridge_mbb_budgeted(
    graph: &BipartiteGraph,
    order: &[u32],
    incumbent: Biclique,
    config: BridgeConfig,
    budget: &SearchBudget,
) -> BridgeOutcome {
    let n = graph.num_vertices();
    debug_assert_eq!(order.len(), n);
    let mut rank = vec![0u32; n];
    for (i, &g) in order.iter().enumerate() {
        rank[g as usize] = i as u32;
    }

    let workers = if n >= PARALLEL_MIN_CENTERS {
        resolve_threads(config.threads)
    } else {
        1
    };
    let (best, outputs) = claim_loop(
        workers,
        n,
        CENTER_CHUNK,
        incumbent,
        budget,
        |(stats, survivors): &mut (BridgeStats, Vec<(usize, CenteredSubgraph)>), i, bound| {
            // One span per centre: cheap next to the per-centre induction
            // work, and the per-centre cost profile is exactly what the
            // bridging-stage analysis needs (dropped on overflow, never
            // blocking — see mbb_obs::ring).
            let _span = obs::span(obs::Stage::BridgeCentre);
            let (survivor, improvement) =
                process_center(graph, &rank, i, order[i], bound, config, stats);
            survivors.extend(survivor.map(|s| (i, s)));
            improvement
        },
    );

    let mut stats = BridgeStats::default();
    let mut indexed = Vec::new();
    for (worker_stats, worker_survivors) in outputs {
        stats.merge(&worker_stats);
        indexed.extend(worker_survivors);
    }
    indexed.sort_by_key(|&(i, _)| i);
    // Subgraphs admitted before a later improvement may now be prunable
    // by size.
    let best_half = best.half_size();
    let survivors = indexed
        .into_iter()
        .map(|(_, s)| s)
        .filter(|s| s.left_ids.len().min(s.right_ids.len()) > best_half)
        .collect();
    BridgeOutcome {
        best,
        survivors,
        stats,
    }
}

/// Generates, measures and prunes the subgraph centred at `order[i]`
/// against `best_half`, updating `stats` in place. Returns the surviving
/// subgraph (if not pruned) and any incumbent improvement the local
/// heuristic found.
fn process_center(
    graph: &BipartiteGraph,
    rank: &[u32],
    i: usize,
    center_global: u32,
    best_half: usize,
    config: BridgeConfig,
    stats: &mut BridgeStats,
) -> (Option<CenteredSubgraph>, Option<Biclique>) {
    let center = graph.vertex_of_global(center_global as usize);
    // Assemble {centre} ∪ (N≤2(centre) ∩ later).
    let later = |side: Side, idx: u32| -> bool {
        rank[graph.global_id(Vertex { side, index: idx })] as usize > i
    };
    let opposite: Vec<u32> = graph
        .neighbors(center)
        .iter()
        .copied()
        .filter(|&w| later(center.side.opposite(), w))
        .collect();
    let mut same: Vec<u32> = n2_neighbors(graph, center)
        .into_iter()
        .filter(|&w| later(center.side, w))
        .collect();
    same.push(center.index);

    let (mut left_ids, mut right_ids) = match center.side {
        Side::Left => (same, opposite),
        Side::Right => (opposite, same),
    };

    stats.generated += 1;
    stats.size_sum += left_ids.len() + right_ids.len();
    stats.max_size = stats.max_size.max(left_ids.len() + right_ids.len());
    let min_side = left_ids.len().min(right_ids.len());

    // Size prune: a strictly larger balanced biclique needs
    // best_half + 1 vertices on each side.
    if min_side <= best_half {
        stats.pruned_size += 1;
        return (None, None);
    }

    // Local index i on each side is the i-th smallest id.
    left_ids.sort_unstable();
    right_ids.sort_unstable();
    let local = LocalGraph::induced(graph, &left_ids, &right_ids);
    // Both sides are non-empty past the size prune.
    stats.density_sum += local.density();
    stats.density_count += 1;

    let cores = local_core_decomposition(&local);
    let mut improvement = None;
    if config.use_core_pruning {
        if cores.degeneracy as usize <= best_half {
            stats.pruned_degeneracy += 1;
            return (None, None);
        }
        // Local heuristic (maximum core-number greedy).
        let score: Vec<u64> = cores.core.iter().map(|&c| c as u64).collect();
        let found = greedy_balanced_local(&local, &score, config.heuristic_seeds);
        if found.half_size() > best_half {
            let left = found.left.iter().map(|&i| left_ids[i as usize]).collect();
            let right = found.right.iter().map(|&i| right_ids[i as usize]).collect();
            improvement = Some(Biclique::balanced(left, right));
        }
    }

    (
        Some(CenteredSubgraph {
            center,
            left_ids,
            right_ids,
            core: cores.core,
        }),
        improvement,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbb_bigraph::core_decomp::core_decomposition;
    use mbb_bigraph::generators;
    use mbb_bigraph::order::{compute_order, SearchOrder};
    use mbb_bigraph::subgraph::induce_by_ids;

    fn bridge(
        graph: &BipartiteGraph,
        order: &[u32],
        incumbent: Biclique,
        config: BridgeConfig,
    ) -> BridgeOutcome {
        bridge_mbb_budgeted(graph, order, incumbent, config, &SearchBudget::unlimited())
    }

    fn run(graph: &BipartiteGraph, incumbent_half: usize) -> BridgeOutcome {
        let order = compute_order(graph, SearchOrder::Bidegeneracy);
        // Fabricate an incumbent of the requested half-size on a complete
        // sub-block if possible, else empty.
        let incumbent = if incumbent_half == 0 {
            Biclique::empty()
        } else {
            Biclique::balanced(
                (0..incumbent_half as u32).collect(),
                (0..incumbent_half as u32).collect(),
            )
        };
        bridge(graph, &order, incumbent, BridgeConfig::default())
    }

    #[test]
    fn complete_graph_survivors_contain_biclique_space() {
        let g = generators::complete(4, 4);
        let out = run(&g, 0);
        // With an empty incumbent nothing is pruned by size except empty
        // sides; survivors must be non-empty and the local heuristic should
        // already find the 4x4 optimum.
        assert_eq!(out.best.half_size(), 4);
        assert!(out.stats.generated == 8);
    }

    #[test]
    fn survivors_cover_planted_biclique() {
        // If the incumbent is smaller than the planted biclique, the
        // earliest planted vertex's subgraph must contain the whole plant —
        // unless the local heuristic already found it.
        let g = generators::uniform_edges(40, 40, 160, 3);
        let (planted, left, right) = generators::plant_balanced_biclique(&g, 6);
        let order = compute_order(&planted, SearchOrder::Bidegeneracy);
        let out = bridge(&planted, &order, Biclique::empty(), BridgeConfig::default());
        if out.best.half_size() < 6 {
            let mut rank = vec![0u32; planted.num_vertices()];
            for (i, &gid) in order.iter().enumerate() {
                rank[gid as usize] = i as u32;
            }
            let earliest = left
                .iter()
                .map(|&u| planted.global_id(Vertex::left(u)))
                .chain(right.iter().map(|&v| planted.global_id(Vertex::right(v))))
                .min_by_key(|&gid| rank[gid])
                .unwrap();
            let center = planted.vertex_of_global(earliest);
            let hit = out.survivors.iter().any(|s| {
                s.center == center
                    && left
                        .iter()
                        .all(|u| s.left_ids.contains(u) || s.center == Vertex::left(*u))
                    && right
                        .iter()
                        .all(|v| s.right_ids.contains(v) || s.center == Vertex::right(*v))
            });
            assert!(hit, "no survivor covers the planted biclique");
        }
    }

    #[test]
    fn high_incumbent_prunes_everything_on_sparse_graph() {
        let g = generators::uniform_edges(50, 50, 100, 8);
        let out = run(&g, 10); // no 11x11 biclique in 100 random edges
        assert!(out.survivors.is_empty());
        assert!(out.stats.pruned_size + out.stats.pruned_degeneracy > 0);
    }

    #[test]
    fn stats_average_density_is_sane() {
        let g = generators::uniform_edges(30, 30, 200, 4);
        let out = run(&g, 0);
        let d = out.stats.average_density();
        assert!((0.0..=1.0).contains(&d), "density {d}");
        assert!(out.stats.average_size() >= 1.0);
    }

    #[test]
    fn parallel_generation_is_exact_after_verification() {
        use crate::verify::{verify_mbb_budgeted, VerifyConfig};
        // Big enough to clear PARALLEL_MIN_CENTERS so the pool really
        // runs. Survivor lists and incumbents may differ from the serial
        // loop (heuristic improvements race, so prune timing differs) —
        // the guaranteed property is that verification over the parallel
        // survivors reaches the same optimum.
        for seed in 0..3u64 {
            let g = generators::uniform_edges(220, 220, 1400, seed);
            assert!(g.num_vertices() >= PARALLEL_MIN_CENTERS);
            let order = compute_order(&g, SearchOrder::Bidegeneracy);
            let serial = bridge(&g, &order, Biclique::empty(), BridgeConfig::default());
            let parallel = bridge(
                &g,
                &order,
                Biclique::empty(),
                BridgeConfig {
                    threads: 4,
                    ..BridgeConfig::default()
                },
            );
            // Every centre is processed in both loops.
            assert_eq!(
                parallel.stats.generated, serial.stats.generated,
                "seed {seed}"
            );
            assert!(parallel.best.is_valid(&g), "seed {seed}");
            let finish = |out: BridgeOutcome| {
                let unlimited = SearchBudget::unlimited();
                verify_mbb_budgeted(
                    &g,
                    &out.survivors,
                    out.best,
                    VerifyConfig::default(),
                    &unlimited,
                )
                .0
                .half_size()
            };
            assert_eq!(finish(parallel), finish(serial), "seed {seed}");
        }
    }

    #[test]
    fn best_is_always_valid() {
        for seed in 0..5 {
            let g = generators::uniform_edges(25, 25, 170, seed);
            let out = run(&g, 0);
            assert!(out.best.is_valid(&g), "seed {seed}");
        }
    }

    #[test]
    fn survivor_cores_match_a_fresh_peel() {
        let g = generators::uniform_edges(40, 40, 330, 21);
        let order = compute_order(&g, SearchOrder::Bidegeneracy);
        for use_core_pruning in [true, false] {
            let config = BridgeConfig {
                use_core_pruning,
                ..BridgeConfig::default()
            };
            let out = bridge(&g, &order, Biclique::empty(), config);
            assert!(!out.survivors.is_empty(), "pruning {use_core_pruning}");
            for s in &out.survivors {
                let sub = induce_by_ids(&g, s.left_ids.clone(), s.right_ids.clone());
                assert_eq!(
                    s.core,
                    core_decomposition(&sub.graph).core,
                    "centre {:?}, pruning {use_core_pruning}",
                    s.center
                );
            }
        }
    }
}

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
//!
//! # One bitset copy of the residual
//!
//! Bridging runs on the Lemma 4 residual, which is small and dense: on
//! the sparse stand-ins of perfbench it has at most a few hundred
//! vertices a side, at density 0.3–0.8. When the residual's bitset rows
//! take no more 8-byte words than it has edges, `residual_rows` builds
//! them once and every centre is cut from them:
//!
//! * each worker keeps two `later` masks, the vertices after its current
//!   centre in the order (a worker's centres only ascend, so the masks
//!   only shrink);
//! * `N(c) ∩ later` is the centre's row ANDed with the mask, and
//!   `N≤2(c) ∩ later` the OR of the rows of all of its neighbours, ANDed
//!   with the mask;
//! * the survivor's id lists are the masks' members, already sorted, and
//!   its [`LocalGraph`] is gathered from the rows
//!   ([`LocalGraph::restrict`]).
//!
//! A residual whose rows would be larger than its CSR walks the CSR
//! instead ([`n2_neighbors`] and [`LocalGraph::induced`]). Both paths give
//! the same survivors and counters.

use mbb_obs as obs;

use mbb_bigraph::bitset::BitSet;
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
#[derive(Debug, Clone, PartialEq, Eq)]
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
/// The centred subgraphs are cut from the graph's bitset rows when they
/// take no more 8-byte words than it has edges, and from its CSR
/// otherwise; both give the same survivors and counters.
///
/// [`SharedIncumbent`]: crate::solver::SharedIncumbent
pub fn bridge_mbb_budgeted(
    graph: &BipartiteGraph,
    order: &[u32],
    incumbent: Biclique,
    config: BridgeConfig,
    budget: &SearchBudget,
) -> BridgeOutcome {
    let rows = residual_rows(graph);
    bridge_on(graph, rows.as_ref(), order, incumbent, config, budget)
}

/// The bitset rows of a Lemma 4 residual, when they take no more 8-byte
/// words than it has edges, so that they are never larger than the CSR
/// they stand for; `None` otherwise. Bridging and verification cut every
/// centred subgraph from these rows instead of walking the CSR again.
pub(crate) fn residual_rows(graph: &BipartiteGraph) -> Option<LocalGraph> {
    let (nl, nr) = (graph.num_left(), graph.num_right());
    let words = nl * nr.div_ceil(64) + nr * nl.div_ceil(64);
    (words <= graph.num_edges()).then(|| LocalGraph::from_graph(graph))
}

/// [`bridge_mbb_budgeted`] with the residual's rows chosen by the caller:
/// each centred subgraph is gathered from `rows` when given, and induced
/// from the CSR otherwise.
pub(crate) fn bridge_on(
    graph: &BipartiteGraph,
    rows: Option<&LocalGraph>,
    order: &[u32],
    incumbent: Biclique,
    config: BridgeConfig,
    budget: &SearchBudget,
) -> BridgeOutcome {
    let n = graph.num_vertices();
    debug_assert_eq!(order.len(), n);
    // The CSR path tests `later` by rank; the rows path keeps masks.
    let mut rank = Vec::new();
    if rows.is_none() {
        rank = vec![0u32; n];
        for (i, &g) in order.iter().enumerate() {
            rank[g as usize] = i as u32;
        }
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
        |worker: &mut Worker, i, bound| {
            // One span per centre: cheap next to the per-centre induction
            // work, and the per-centre cost profile is exactly what the
            // bridging-stage analysis needs (dropped on overflow, never
            // blocking — see mbb_obs::ring).
            let _span = obs::span(obs::Stage::BridgeCentre);
            let center = graph.vertex_of_global(order[i] as usize);
            let stats = &mut worker.stats;
            let centred = match rows {
                Some(rows) => {
                    let later = worker.later.get_or_insert_with(|| Later::new(rows));
                    later.advance(graph, order, i);
                    later.gather(rows, graph, center, bound, stats)
                }
                None => induce(graph, &rank, i, center, bound, stats),
            };
            let (survivor, improvement) = match centred {
                Some((left_ids, right_ids, local)) => {
                    prune_and_grow(center, left_ids, right_ids, local, bound, config, stats)
                }
                None => (None, None),
            };
            worker.survivors.extend(survivor.map(|s| (i, s)));
            improvement
        },
    );

    let mut stats = BridgeStats::default();
    let mut indexed = Vec::new();
    for worker in outputs {
        stats.merge(&worker.stats);
        indexed.extend(worker.survivors);
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

/// One bridging worker's state: its counters, its survivors by centre
/// position, and (on the rows path) its `later` masks, built at its first
/// centre.
#[derive(Default)]
struct Worker {
    stats: BridgeStats,
    survivors: Vec<(usize, CenteredSubgraph)>,
    later: Option<Later>,
}

/// A worker's view of the residual's rows: the vertices after its current
/// centre in the order, one mask per side, and the two sides of the
/// subgraph it last gathered. A worker's centres only ascend (its chunks
/// come from `claim_loop`'s one cursor), so the masks only shrink.
struct Later {
    /// Per side (left, right): the vertices after the current centre.
    later: [BitSet; 2],
    /// The order position of the first vertex the masks still hold.
    next: usize,
    /// Per side: the centred subgraph's vertices.
    sides: [BitSet; 2],
}

/// The index of a side in `Later`'s arrays.
fn slot(side: Side) -> usize {
    match side {
        Side::Left => 0,
        Side::Right => 1,
    }
}

impl Later {
    fn new(rows: &LocalGraph) -> Later {
        let (nl, nr) = (rows.num_left(), rows.num_right());
        Later {
            later: [BitSet::full(nl), BitSet::full(nr)],
            next: 0,
            sides: [BitSet::new(nl), BitSet::new(nr)],
        }
    }

    /// Drops the vertices up to order position `i` from the masks.
    #[inline]
    fn advance(&mut self, graph: &BipartiteGraph, order: &[u32], i: usize) {
        debug_assert!(i >= self.next, "a worker's centres must ascend");
        for &g in &order[self.next..=i] {
            let v = graph.vertex_of_global(g as usize);
            self.later[slot(v.side)].remove(v.index as usize);
        }
        self.next = i + 1;
    }

    /// [`induce`] on the rows: `N(centre) ∩ later` is the centre's row
    /// masked, and `N≤2(centre) ∩ later` the OR of the rows of all of the
    /// centre's neighbours, masked. The id lists are the masks' members,
    /// already sorted, and the subgraph is gathered from the rows.
    #[inline]
    fn gather(
        &mut self,
        rows: &LocalGraph,
        graph: &BipartiteGraph,
        center: Vertex,
        best_half: usize,
        stats: &mut BridgeStats,
    ) -> Option<(Vec<u32>, Vec<u32>, LocalGraph)> {
        let (own, other) = (slot(center.side), slot(center.side.opposite()));
        let row = rows.row(graph.global_id(center));
        // A neighbour `w`'s row is at global id `w` (left) or `nl + w`.
        let other_base = if own == 0 { rows.num_left() } else { 0 };
        self.sides[other].clone_from(&self.later[other]);
        self.sides[other].intersect_with(&row);
        let middles = row.iter().map(|w| rows.row(other_base + w));
        self.sides[own].assign_union_in(middles, &self.later[own]);
        self.sides[own].insert(center.index as usize);

        let [left, right] = &self.sides;
        if !admit(stats, left.len(), right.len(), best_half) {
            return None;
        }
        Some((left.to_vec(), right.to_vec(), rows.restrict(left, right)))
    }
}

/// Assembles `{centre} ∪ (N≤2(centre) ∩ later)` for the centre at order
/// position `i` from the CSR, and induces it as a [`LocalGraph`] if it
/// passes the size prune: its sorted left and right ids and the subgraph.
/// `later` is a rank test; the residual's rows, when built, give the same
/// result through [`Later::gather`].
fn induce(
    graph: &BipartiteGraph,
    rank: &[u32],
    i: usize,
    center: Vertex,
    best_half: usize,
    stats: &mut BridgeStats,
) -> Option<(Vec<u32>, Vec<u32>, LocalGraph)> {
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
    if !admit(stats, left_ids.len(), right_ids.len(), best_half) {
        return None;
    }
    // Local index i on each side is the i-th smallest id.
    left_ids.sort_unstable();
    right_ids.sort_unstable();
    let local = LocalGraph::induced(graph, &left_ids, &right_ids);
    Some((left_ids, right_ids, local))
}

/// Counts a generated subgraph with sides of `left` and `right` vertices
/// in `stats`, and applies the size prune: true when the subgraph
/// survives it.
#[inline]
fn admit(stats: &mut BridgeStats, left: usize, right: usize, best_half: usize) -> bool {
    stats.generated += 1;
    stats.size_sum += left + right;
    stats.max_size = stats.max_size.max(left + right);
    // Size prune: a strictly larger balanced biclique needs
    // best_half + 1 vertices on each side.
    if left.min(right) <= best_half {
        stats.pruned_size += 1;
        return false;
    }
    true
}

/// Measures and prunes a centred subgraph that passed the size prune
/// against `best_half`, updating `stats` in place. Returns the surviving
/// subgraph (if not pruned) and any incumbent improvement the local
/// heuristic found.
#[inline]
fn prune_and_grow(
    center: Vertex,
    left_ids: Vec<u32>,
    right_ids: Vec<u32>,
    local: LocalGraph,
    best_half: usize,
    config: BridgeConfig,
    stats: &mut BridgeStats,
) -> (Option<CenteredSubgraph>, Option<Biclique>) {
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
    fn residual_rows_follow_the_words_to_edges_rule() {
        // 64 × 64: one word a row, 128 words on the two sides.
        let block = |edges: u32| {
            let edges = (0..edges).map(|e| (e / 2, e % 2));
            BipartiteGraph::from_edges(64, 64, edges).unwrap()
        };
        assert!(residual_rows(&block(128)).is_some());
        assert!(residual_rows(&block(127)).is_none());
        // A sparse residual takes the CSR path: 2 × 300 × 5 words of rows
        // against 2,000 edges.
        let sparse = generators::uniform_edges(300, 300, 2_000, 1);
        assert!(residual_rows(&sparse).is_none());
        let rows = residual_rows(&generators::dense_uniform(300, 300, 0.1, 1));
        assert_eq!(rows.map(|r| r.num_vertices()), Some(600));
    }

    /// One run of bridging then verification on `rows` (or the CSR),
    /// reduced to what the two paths must agree on: every survivor, the
    /// bridged half-size, every `BridgeStats` counter, and the verified
    /// biclique and search counters. `density_sum` comes back on its own.
    #[allow(clippy::type_complexity)]
    fn both_stages(
        g: &BipartiteGraph,
        rows: Option<&LocalGraph>,
        order: &[u32],
        threads: usize,
        incumbent: &Biclique,
        use_core_pruning: bool,
        verify_from: Option<&Biclique>,
    ) -> (
        (Vec<CenteredSubgraph>, usize, [usize; 6], Biclique, [u64; 7]),
        f64,
    ) {
        use crate::verify::{verify_on, VerifyConfig};
        let unlimited = SearchBudget::unlimited();
        let config = BridgeConfig {
            use_core_pruning,
            threads,
            ..BridgeConfig::default()
        };
        let bridged = bridge_on(g, rows, order, incumbent.clone(), config, &unlimited);
        let s = &bridged.stats;
        let counters = [
            s.generated,
            s.pruned_size,
            s.pruned_degeneracy,
            s.density_count,
            s.size_sum,
            s.max_size,
        ];
        let verify_config = VerifyConfig {
            use_core_reduction: use_core_pruning,
            threads,
            ..VerifyConfig::default()
        };
        let from = verify_from.unwrap_or(&bridged.best).clone();
        let (verified, t) = verify_on(g, rows, &bridged.survivors, from, verify_config, &unlimited);
        let tree = [
            t.nodes,
            t.bound_prunes,
            t.poly_solves,
            t.reduced_vertices,
            t.max_depth,
            t.leaf_depth_sum,
            t.leaf_count,
        ];
        let half = bridged.best.half_size();
        (
            (bridged.survivors, half, counters, verified, tree),
            s.density_sum,
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        // The rows path and the CSR path give the same outcome, at one
        // thread and at two. At two threads a heuristic improvement on one
        // worker races the other's prunes, so those runs start from the
        // optimum, which nothing beats: both paths then prune against one
        // fixed bound. The `bd2` run (no core pruning, so no heuristic)
        // bridges from an empty incumbent at two threads too. Workers sum
        // their densities in whatever chunks they claimed, so at two
        // threads `density_sum` agrees up to rounding.
        #[test]
        fn rows_and_csr_paths_agree(
            sides in (100..=200u32, 100..=200u32),
            degree in 2..=14usize,
            seed in 0..1_000_000u64,
        ) {
            let (nl, nr) = sides;
            let edges = (nl + nr) as usize * degree / 2;
            let g = if seed % 2 == 0 {
                generators::uniform_edges(nl, nr, edges, seed)
            } else {
                generators::chung_lu_bipartite(
                    &generators::ChungLuParams {
                        num_left: nl,
                        num_right: nr,
                        num_edges: edges,
                        left_exponent: 0.6,
                        right_exponent: 0.6,
                    },
                    seed,
                )
            };
            let rows = LocalGraph::from_graph(&g);
            let order = compute_order(&g, SearchOrder::Bidegeneracy);
            let empty = Biclique::empty();

            let (serial, density) = both_stages(&g, Some(&rows), &order, 1, &empty, true, None);
            let (csr, csr_density) = both_stages(&g, None, &order, 1, &empty, true, None);
            proptest::prop_assert_eq!(&serial, &csr);
            proptest::prop_assert_eq!(density.to_bits(), csr_density.to_bits());

            let optimum = serial.3.clone();
            for (incumbent, use_core) in [(&optimum, true), (&empty, false)] {
                let run = |rows| both_stages(&g, rows, &order, 2, incumbent, use_core, Some(&optimum));
                let ((got, density), (want, csr_density)) = (run(Some(&rows)), run(None));
                proptest::prop_assert_eq!(&got, &want);
                proptest::prop_assert!((density - csr_density).abs() <= 1e-9 * csr_density.max(1.0));
            }
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

//! `hMBB` — Algorithm 5: fast heuristics plus graph reduction.
//!
//! As §5.2 stresses, these heuristics exist to *prune*, not to be clever:
//! they must run in near-linear time and produce a large enough incumbent
//! that the Lemma 4 core reduction collapses the graph. Two greedy passes
//! are made — one prioritised by degree, one by core number — each followed
//! by a reduction to the `(|A*|+1)`-core, with the Lemma 5 early-termination
//! check (`half == δ` proves optimality) in between.
//!
//! Bridging runs the core-number greedy once more inside every centred
//! subgraph, on its bitset rows: `greedy_balanced_local` makes exactly the
//! choices [`greedy_balanced`] makes on the CSR form of the graph.

use mbb_bigraph::bitset::BitSet;
use mbb_bigraph::core_decomp::{core_decomposition, k_core_mask};
use mbb_bigraph::graph::{BipartiteGraph, Side, Vertex};
use mbb_bigraph::local::LocalGraph;
use mbb_bigraph::subgraph::{induce_by_mask, InducedSubgraph};

use crate::biclique::Biclique;

/// How many high-score vertices each greedy pass grows from.
pub const DEFAULT_SEEDS: usize = 8;

/// Per-step cap on candidate-scoring work inside the greedy growth; keeps
/// `hMBB` near-linear on hub-heavy graphs. A step walks `C` in ascending
/// order, each vertex `mid` adding its `deg(mid) − |A|` neighbours outside
/// `A` to the scan, and stops after the first `mid` at which the running
/// sum exceeds the cap. Candidates are counted over that prefix of `C`.
const SCAN_CAP: usize = 4_000;

/// Grows a balanced biclique greedily from `seed`, guided by `score`
/// (higher = grown first).
///
/// Maintains `(A, C)` with `A × C` complete; each step adds the same-side
/// vertex `w ∉ A` adjacent to the most vertices of the capped prefix of
/// `C` (see `SCAN_CAP`; the `C` update itself is exact), then the one
/// with the higher score. A remaining tie goes to the candidate the scan
/// touches last: the one whose first neighbour in the prefix is latest,
/// then the larger index. It records the first largest `min(|A|, |C|)`
/// snapshot. Bridging's `greedy_balanced_local` makes the same choices on
/// bitset rows.
fn grow_from_seed(graph: &BipartiteGraph, seed: Vertex, score: &[u64]) -> Biclique {
    let mut a: Vec<u32> = vec![seed.index];
    let mut c: Vec<u32> = graph.neighbors(seed).to_vec();
    let seed_side = seed.side;

    let mut best = snapshot(&a, &c, seed_side);
    let same_side_count = match seed_side {
        Side::Left => graph.num_left(),
        Side::Right => graph.num_right(),
    };
    let mut counter: Vec<u32> = vec![0; same_side_count];
    let mut in_a: Vec<bool> = vec![false; same_side_count];
    in_a[seed.index as usize] = true;

    loop {
        if c.is_empty() {
            break;
        }
        // Score same-side extension candidates by |N(w) ∩ C| over a capped
        // scan of C (counts are a guide only; the C update below is exact).
        let mut touched: Vec<u32> = Vec::new();
        let mut scanned = 0usize;
        for &mid in &c {
            let mid_v = Vertex {
                side: seed_side.opposite(),
                index: mid,
            };
            for &w in graph.neighbors(mid_v) {
                if in_a[w as usize] {
                    continue;
                }
                if counter[w as usize] == 0 {
                    touched.push(w);
                }
                counter[w as usize] += 1;
                scanned += 1;
            }
            if scanned > SCAN_CAP {
                break;
            }
        }
        // `max_by_key` keeps the last maximum in first-touch order.
        let choice = touched
            .iter()
            .copied()
            .max_by_key(|&w| (counter[w as usize], score[global(graph, seed_side, w)]));
        for &w in &touched {
            counter[w as usize] = 0;
        }
        let Some(w) = choice else { break };

        // Exact update: C ← C ∩ N(w).
        let w_v = Vertex {
            side: seed_side,
            index: w,
        };
        let wn = graph.neighbors(w_v);
        let new_c = mbb_bigraph::graph::sorted_intersection(&c, wn);
        if new_c.is_empty() {
            break;
        }
        a.push(w);
        in_a[w as usize] = true;
        c = new_c;
        let cur = snapshot(&a, &c, seed_side);
        if cur.half_size() > best.half_size() {
            best = cur;
        }
        // Once |C| ≤ |A|, further growth can only shrink min(|A|, |C|).
        if c.len() <= a.len() {
            break;
        }
    }
    best
}

fn global(graph: &BipartiteGraph, side: Side, index: u32) -> usize {
    graph.global_id(Vertex { side, index })
}

fn snapshot(a: &[u32], c: &[u32], a_side: Side) -> Biclique {
    let (left, right) = match a_side {
        Side::Left => (a.to_vec(), c.to_vec()),
        Side::Right => (c.to_vec(), a.to_vec()),
    };
    Biclique::balanced(left, right)
}

/// One greedy pass: grow from the `seeds` highest-score vertices and keep
/// the best result.
pub fn greedy_balanced(graph: &BipartiteGraph, score: &[u64], seeds: usize) -> Biclique {
    best_of_seeds(
        graph.num_vertices(),
        score,
        seeds,
        |g| graph.degree(graph.vertex_of_global(g)),
        |g| grow_from_seed(graph, graph.vertex_of_global(g), score),
    )
}

/// [`greedy_balanced`] on a bitset [`LocalGraph`], with the same choices:
/// the same seeds, and at every step the vertex [`grow_from_seed`] picks,
/// so the result equals `greedy_balanced` on the same graph in CSR form.
/// `score` is indexed by global id (left `0..nl`, then right) and the
/// biclique is in local ids. Bridging runs it on every centred subgraph,
/// which Lemma 8 keeps within δ̈ + 1 vertices.
pub(crate) fn greedy_balanced_local(graph: &LocalGraph, score: &[u64], seeds: usize) -> Biclique {
    let degree: Vec<usize> = (0..graph.num_vertices())
        .map(|g| graph.row(g).len())
        .collect();
    best_of_seeds(
        graph.num_vertices(),
        score,
        seeds,
        |g| degree[g],
        |g| grow_local(graph, g, score, &degree),
    )
}

/// The seed loop both greedies share: grows from the first `seeds` (at
/// least one) global ids in a stable sort by descending `score`, skips a
/// seed whose degree cannot beat the best so far, and keeps the first
/// strictly larger result.
fn best_of_seeds(
    num_vertices: usize,
    score: &[u64],
    seeds: usize,
    degree: impl Fn(usize) -> usize,
    mut grow: impl FnMut(usize) -> Biclique,
) -> Biclique {
    let mut order: Vec<u32> = (0..num_vertices as u32).collect();
    order.sort_by_key(|&g| std::cmp::Reverse(score[g as usize]));
    let mut best = Biclique::empty();
    for &g in order.iter().take(seeds.max(1)) {
        if degree(g as usize) <= best.half_size() {
            continue; // cannot beat the incumbent from this seed
        }
        let found = grow(g as usize);
        if found.half_size() > best.half_size() {
            best = found;
        }
    }
    best
}

/// [`grow_from_seed`] on bitset rows, from global id `seed`. `C` and the
/// scanned prefix of `C` are bitsets over the other side, so a
/// candidate's count is one fused AND + popcount of its row against the
/// prefix. The sets are allocated once per seed; no step allocates.
fn grow_local(graph: &LocalGraph, seed: usize, score: &[u64], degree: &[usize]) -> Biclique {
    let nl = graph.num_left();
    // The seed side's global ids start at `base`, the other side's at
    // `other_base`.
    let (base, side_len, other_base) = if seed < nl {
        (0, nl, nl)
    } else {
        (nl, graph.num_right(), 0)
    };
    let mut a: Vec<u32> = Vec::with_capacity(side_len);
    a.push((seed - base) as u32);
    let mut in_a = BitSet::new(side_len);
    in_a.insert(seed - base);
    let mut c = graph.row(seed).to_bitset();
    let mut prefix = BitSet::new(c.capacity());
    // The best snapshot so far: |A| when it was taken, and a copy of C.
    let mut best_half = c.len().min(1);
    let mut best_a = 1;
    let mut best_c = c.clone();
    let first_touch = |prefix: &BitSet, w: usize| prefix.first_intersection(&graph.row(base + w));

    while !c.is_empty() {
        // The part of C the capped CSR scan reaches.
        prefix.clear();
        let mut scanned = 0usize;
        for mid in c.iter() {
            prefix.insert(mid);
            scanned += degree[other_base + mid] - a.len();
            if scanned > SCAN_CAP {
                break;
            }
        }
        // The largest (count, score); a tie goes to the candidate the scan
        // touches last. `w` ascends, so a tied `w` wins unless its first
        // prefix neighbour comes before the current choice's.
        let mut choice: Option<(usize, (usize, u64))> = None;
        for w in (0..side_len).filter(|&w| !in_a.contains(w)) {
            let count = prefix.intersection_len(&graph.row(base + w));
            if count == 0 {
                continue;
            }
            let key = (count, score[base + w]);
            let take = match choice {
                None => true,
                Some((chosen, chosen_key)) => {
                    key > chosen_key
                        || (key == chosen_key
                            && first_touch(&prefix, w) >= first_touch(&prefix, chosen))
                }
            };
            if take {
                choice = Some((w, key));
            }
        }
        let Some((w, _)) = choice else { break };

        // Exact update: C ← C ∩ N(w), never empty since w touches the
        // prefix.
        c.and_assign_count(&graph.row(base + w));
        a.push(w as u32);
        in_a.insert(w);
        let half = a.len().min(c.len());
        if half > best_half {
            best_half = half;
            best_a = a.len();
            best_c.clone_from(&c);
        }
        // Once |C| ≤ |A|, further growth can only shrink min(|A|, |C|).
        if c.len() <= a.len() {
            break;
        }
    }
    a.truncate(best_a);
    if seed < nl {
        Biclique::balanced(a, best_c.to_vec())
    } else {
        Biclique::balanced(best_c.to_vec(), a)
    }
}

/// Result of the `hMBB` stage.
#[derive(Debug, Clone)]
pub struct HmbbOutcome {
    /// Best balanced biclique found, in the *input graph's* vertex ids.
    pub best: Biclique,
    /// The Lemma 4-reduced graph with maps back to the input graph.
    pub reduced: InducedSubgraph,
    /// Degeneracy of the reduced graph.
    pub degeneracy: u32,
    /// True when Lemma 5 proved `best` optimal (early termination).
    pub proven_optimal: bool,
}

/// Algorithm 5. `seeds` controls both greedy passes; `use_reduction`
/// disables Lemma 4/5 for the `bd2` ablation (the returned "reduced" graph
/// is then the input itself).
///
/// ```
/// use mbb_bigraph::generators::complete;
/// use mbb_core::heuristic::hmbb;
/// let outcome = hmbb(&complete(5, 5), 4, true);
/// assert_eq!(outcome.best.half_size(), 5);
/// assert!(outcome.proven_optimal); // Lemma 5: δ of the reduced graph ≤ 5
/// ```
pub fn hmbb(graph: &BipartiteGraph, seeds: usize, use_reduction: bool) -> HmbbOutcome {
    // Pass 1: maximum-degree-based greedy.
    let degree_score: Vec<u64> = graph.vertices().map(|v| graph.degree(v) as u64).collect();
    let mut best = greedy_balanced(graph, &degree_score, seeds);

    if !use_reduction {
        return HmbbOutcome {
            best,
            reduced: InducedSubgraph::identity(graph),
            degeneracy: core_decomposition(graph).degeneracy,
            proven_optimal: false,
        };
    }

    // Reduction to the (|A*|+1)-core, then the Lemma 5 check.
    let cores = core_decomposition(graph);
    let reduced = reduce_to_core(graph, &cores, best.half_size() as u32 + 1);
    let cores_reduced = core_decomposition(&reduced.graph);
    // Lemma 5 (strengthened): any balanced biclique strictly larger than
    // the incumbent survives the reduction as a (half+1)-core, so
    // δ(G') ≤ half proves optimality. The paper's `2δ = |A*|+|B*|` check is
    // the equality special case.
    if cores_reduced.degeneracy as usize <= best.half_size() {
        return HmbbOutcome {
            best,
            degeneracy: cores_reduced.degeneracy,
            reduced,
            proven_optimal: true,
        };
    }

    // Pass 2: core-number-based greedy on the reduced graph.
    let core_score: Vec<u64> = cores_reduced.core.iter().map(|&c| c as u64).collect();
    let local_best = greedy_balanced(&reduced.graph, &core_score, seeds);
    if local_best.half_size() > best.half_size() {
        best = map_to_parent(&local_best, &reduced);
        let rereduced = reduce_to_core(&reduced.graph, &cores_reduced, best.half_size() as u32 + 1);
        // Compose the two reductions' id maps.
        let composed = InducedSubgraph {
            left_ids: rereduced
                .left_ids
                .iter()
                .map(|&l| reduced.left_ids[l as usize])
                .collect(),
            right_ids: rereduced
                .right_ids
                .iter()
                .map(|&r| reduced.right_ids[r as usize])
                .collect(),
            graph: rereduced.graph,
        };
        let degeneracy = core_decomposition(&composed.graph).degeneracy;
        let proven_optimal = degeneracy as usize <= best.half_size();
        return HmbbOutcome {
            best,
            reduced: composed,
            degeneracy,
            proven_optimal,
        };
    }

    HmbbOutcome {
        best,
        degeneracy: cores_reduced.degeneracy,
        reduced,
        proven_optimal: false,
    }
}

/// Lemma 4: keep only the `k`-core.
fn reduce_to_core(
    graph: &BipartiteGraph,
    cores: &mbb_bigraph::core_decomp::CoreDecomposition,
    k: u32,
) -> InducedSubgraph {
    let mask = k_core_mask(cores, k);
    let nl = graph.num_left();
    let keep_left = &mask[..nl];
    let keep_right = &mask[nl..];
    induce_by_mask(graph, keep_left, keep_right)
}

/// Translates a biclique from subgraph-local ids to the parent graph's ids.
pub fn map_to_parent(biclique: &Biclique, subgraph: &InducedSubgraph) -> Biclique {
    Biclique::balanced(
        biclique
            .left
            .iter()
            .map(|&l| subgraph.parent_left(l))
            .collect(),
        biclique
            .right
            .iter()
            .map(|&r| subgraph.parent_right(r))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbb_bigraph::generators;

    #[test]
    fn greedy_finds_full_biclique_on_complete_graph() {
        let g = generators::complete(5, 5);
        let score: Vec<u64> = g.vertices().map(|v| g.degree(v) as u64).collect();
        let b = greedy_balanced(&g, &score, 4);
        assert_eq!(b.half_size(), 5);
        assert!(b.is_valid(&g));
    }

    #[test]
    fn greedy_on_empty_graph() {
        let g = BipartiteGraph::from_edges(3, 3, []).unwrap();
        let score = vec![0u64; 6];
        let b = greedy_balanced(&g, &score, 4);
        assert_eq!(b.half_size(), 0);
    }

    #[test]
    fn local_greedy_makes_the_csr_greedys_choices() {
        let mut graphs = Vec::new();
        for s in 0..4u64 {
            // Wide enough that SCAN_CAP cuts the scan of C.
            graphs.push(generators::dense_uniform(160, 160, 0.6, s));
            graphs.push(generators::dense_uniform(200, 90, 0.7, s));
            graphs.push(generators::dense_uniform(120, 200, 0.5, s));
            // Small, so that ties decide.
            graphs.push(generators::dense_uniform(30, 30, 0.3, s));
        }
        graphs.push(generators::complete(8, 8));
        graphs.push(BipartiteGraph::from_edges(6, 4, []).unwrap());
        graphs.push(BipartiteGraph::from_edges(5, 0, []).unwrap());
        for (i, g) in graphs.iter().enumerate() {
            let left: Vec<u32> = (0..g.num_left() as u32).collect();
            let right: Vec<u32> = (0..g.num_right() as u32).collect();
            let local = LocalGraph::induced(g, &left, &right);
            let degree: Vec<u64> = g.vertices().map(|v| g.degree(v) as u64).collect();
            let core: Vec<u64> = core_decomposition(g)
                .core
                .iter()
                .map(|&c| c as u64)
                .collect();
            for (name, score) in [("degree", &degree), ("core", &core)] {
                for seeds in [1, 4, 8] {
                    assert_eq!(
                        greedy_balanced_local(&local, score, seeds),
                        greedy_balanced(g, score, seeds),
                        "graph {i}, {name} score, {seeds} seeds"
                    );
                }
            }
        }
    }

    #[test]
    fn greedy_finds_planted_biclique() {
        for seed in 0..5 {
            let g = generators::chung_lu_bipartite(
                &generators::ChungLuParams {
                    num_left: 300,
                    num_right: 300,
                    num_edges: 1200,
                    left_exponent: 0.8,
                    right_exponent: 0.8,
                },
                seed,
            );
            let (planted, _, _) = generators::plant_balanced_biclique(&g, 6);
            let score: Vec<u64> = planted
                .vertices()
                .map(|v| planted.degree(v) as u64)
                .collect();
            let b = greedy_balanced(&planted, &score, 8);
            assert!(b.is_valid(&planted), "seed {seed}");
            assert!(
                b.half_size() >= 5,
                "seed {seed}: found only {} of planted 6",
                b.half_size()
            );
        }
    }

    #[test]
    fn hmbb_terminates_early_on_planted_core() {
        // A clean complete 6x6 planted into a very sparse background has
        // degeneracy exactly 6, so Lemma 5 fires as soon as greedy finds it.
        let g = generators::chung_lu_bipartite(
            &generators::ChungLuParams {
                num_left: 400,
                num_right: 400,
                num_edges: 800,
                left_exponent: 0.6,
                right_exponent: 0.6,
            },
            3,
        );
        let (planted, _, _) = generators::plant_balanced_biclique(&g, 6);
        let outcome = hmbb(&planted, 8, true);
        assert!(outcome.best.is_valid(&planted));
        assert!(outcome.best.half_size() >= 5);
        if outcome.proven_optimal {
            // Strengthened Lemma 5: δ of the reduced graph cannot exceed
            // the incumbent half-size.
            assert!(outcome.degeneracy as usize <= outcome.best.half_size());
        }
    }

    #[test]
    fn hmbb_reduction_keeps_better_bicliques() {
        // Any biclique strictly larger than the incumbent survives the
        // (|A*|+1)-core reduction: check the planted one is intact when
        // the heuristic undershoots.
        let g = generators::uniform_edges(60, 60, 240, 7);
        let (planted, left, right) = generators::plant_balanced_biclique(&g, 8);
        let outcome = hmbb(&planted, 8, true);
        if outcome.best.half_size() < 8 {
            // Planted vertices must still be present in the reduced graph.
            for &u in &left {
                assert!(
                    outcome.reduced.left_ids.contains(&u),
                    "planted L{u} was reduced away"
                );
            }
            for &v in &right {
                assert!(outcome.reduced.right_ids.contains(&v));
            }
        }
    }

    #[test]
    fn hmbb_without_reduction_returns_identity() {
        let g = generators::uniform_edges(20, 20, 80, 1);
        let outcome = hmbb(&g, 4, false);
        assert_eq!(outcome.reduced.graph.num_edges(), g.num_edges());
        assert!(!outcome.proven_optimal);
    }

    #[test]
    fn map_to_parent_translates_ids() {
        let g = generators::uniform_edges(10, 10, 50, 2);
        let sub = mbb_bigraph::subgraph::induce_by_ids(&g, vec![2, 4, 6], vec![1, 3, 5]);
        let local = Biclique::balanced(vec![0, 2], vec![1, 2]);
        let mapped = map_to_parent(&local, &sub);
        assert_eq!(mapped.left, vec![2, 6]);
        assert_eq!(mapped.right, vec![3, 5]);
    }

    #[test]
    fn grow_from_seed_respects_biclique_property() {
        let g = generators::uniform_edges(30, 30, 250, 9);
        let score: Vec<u64> = g.vertices().map(|v| g.degree(v) as u64).collect();
        for seed_idx in 0..5u32 {
            let b = grow_from_seed(&g, Vertex::left(seed_idx), &score);
            assert!(b.is_valid(&g), "seed L{seed_idx}");
        }
    }
}

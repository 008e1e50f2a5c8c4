//! Heuristic MBB algorithms used as step-1 substitutes in the `adp*`
//! baselines (Table 3): POLS (Wang, Cai, Yin 2018) and SBMNAS (Li, Hao, Wu
//! 2020).
//!
//! Both are local-search metaheuristics re-implemented at the level the MBB
//! paper relies on — producing a large incumbent for pruning, quickly:
//!
//! * **POLS** — pair-operation local search: states are balanced bicliques;
//!   moves add a pair `(u, v)`, swap a pair in/out, or drop a pair; greedy
//!   with random restarts.
//! * **SBMNAS** — swap-based multiple-neighbourhood adaptive search:
//!   generalises the moves to multi-vertex add/swap/drop batches and
//!   adaptively prefers the neighbourhood that has recently improved.
//!
//! Neither guarantees optimality (§7 of the paper).

use mbb_bigraph::graph::{sorted_intersection, BipartiteGraph};
use mbb_core::biclique::Biclique;
use mbb_core::budget::SearchBudget;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A mutable balanced-biclique state for local search.
#[derive(Clone, Debug, Default)]
struct State {
    a: Vec<u32>,
    b: Vec<u32>,
}

impl State {
    fn half(&self) -> usize {
        self.a.len().min(self.b.len())
    }

    /// Common right-neighbourhood of `a` (whole right side when empty).
    fn common_right(&self, graph: &BipartiteGraph) -> Vec<u32> {
        common_neighbors_left(graph, &self.a)
    }

    fn common_left(&self, graph: &BipartiteGraph) -> Vec<u32> {
        common_neighbors_right(graph, &self.b)
    }
}

fn common_neighbors_left(graph: &BipartiteGraph, a: &[u32]) -> Vec<u32> {
    match a.split_first() {
        None => (0..graph.num_right() as u32).collect(),
        Some((&first, rest)) => {
            let mut c = graph.neighbors_left(first).to_vec();
            for &u in rest {
                c = sorted_intersection(&c, graph.neighbors_left(u));
                if c.is_empty() {
                    break;
                }
            }
            c
        }
    }
}

fn common_neighbors_right(graph: &BipartiteGraph, b: &[u32]) -> Vec<u32> {
    match b.split_first() {
        None => (0..graph.num_left() as u32).collect(),
        Some((&first, rest)) => {
            let mut c = graph.neighbors_right(first).to_vec();
            for &v in rest {
                c = sorted_intersection(&c, graph.neighbors_right(v));
                if c.is_empty() {
                    break;
                }
            }
            c
        }
    }
}

/// Tries to extend the state by one `(u, v)` pair; true on success.
fn add_pair(graph: &BipartiteGraph, state: &mut State, rng: &mut StdRng) -> bool {
    // u must be adjacent to all of B, v to all of A ∪ {u}.
    let left_candidates: Vec<u32> = state
        .common_left(graph)
        .into_iter()
        .filter(|u| !state.a.contains(u))
        .collect();
    if left_candidates.is_empty() {
        return false;
    }
    // Scan a random rotation so restarts explore different pairs.
    let common = state.common_right(graph);
    let start = rng.gen_range(0..left_candidates.len());
    for offset in 0..left_candidates.len() {
        let u = left_candidates[(start + offset) % left_candidates.len()];
        let with_u = sorted_intersection(&common, graph.neighbors_left(u));
        if let Some(&v) = with_u.iter().find(|v| !state.b.contains(v)) {
            state.a.push(u);
            state.b.push(v);
            return true;
        }
    }
    false
}

/// Drops a random pair (perturbation).
fn drop_pair(state: &mut State, rng: &mut StdRng) {
    if state.a.is_empty() {
        return;
    }
    let i = rng.gen_range(0..state.a.len());
    state.a.swap_remove(i);
    let j = rng.gen_range(0..state.b.len());
    state.b.swap_remove(j);
}

/// Swap: drop one pair, then greedily re-add up to two pairs.
fn swap_pair(graph: &BipartiteGraph, state: &mut State, rng: &mut StdRng) -> bool {
    drop_pair(state, rng);
    let mut grew = false;
    for _ in 0..2 {
        grew |= add_pair(graph, state, rng);
    }
    grew
}

fn greedy_seed(graph: &BipartiteGraph, rng: &mut StdRng) -> State {
    let nl = graph.num_left();
    if nl == 0 || graph.num_right() == 0 || graph.num_edges() == 0 {
        return State::default();
    }
    // Seed from a random reasonably-high-degree left vertex.
    let mut candidates: Vec<u32> = (0..nl as u32)
        .filter(|&u| graph.degree_left(u) > 0)
        .collect();
    if candidates.is_empty() {
        return State::default();
    }
    candidates.sort_by_key(|&u| std::cmp::Reverse(graph.degree_left(u)));
    candidates.truncate((candidates.len() / 4).max(1));
    let u = candidates[rng.gen_range(0..candidates.len())];
    let v = graph.neighbors_left(u)[0];
    let mut state = State {
        a: vec![u],
        b: vec![v],
    };
    while add_pair(graph, &mut state, rng) {}
    state
}

/// POLS: greedy construction plus pair add/swap/drop local search with
/// random restarts until the budget or `max_iterations` is exhausted.
/// The budget is probed once per restart and once per move.
pub fn pols(graph: &BipartiteGraph, seed: u64, budget: &SearchBudget) -> Biclique {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut best = Biclique::empty();
    let restarts = 6usize;
    for _ in 0..restarts {
        if budget.probe() {
            break;
        }
        let mut state = greedy_seed(graph, &mut rng);
        let mut stall = 0usize;
        while stall < 20 && !budget.probe() {
            let improved = if rng.gen_bool(0.5) {
                add_pair(graph, &mut state, &mut rng)
            } else {
                swap_pair(graph, &mut state, &mut rng)
            };
            if state.half() > best.half_size() {
                best = Biclique::balanced(state.a.clone(), state.b.clone());
                stall = 0;
            } else if !improved {
                stall += 1;
            }
        }
    }
    debug_assert!(best.is_valid(graph));
    best
}

/// SBMNAS: multi-vertex moves with adaptive neighbourhood weights,
/// probing the budget as [`pols`] does.
pub fn sbmnas(graph: &BipartiteGraph, seed: u64, budget: &SearchBudget) -> Biclique {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5b3a);
    let mut best = Biclique::empty();
    // Adaptive weights over three neighbourhoods: add-batch, swap, drop.
    let mut weights = [1.0f64; 3];
    let restarts = 6usize;
    for _ in 0..restarts {
        if budget.probe() {
            break;
        }
        let mut state = greedy_seed(graph, &mut rng);
        let mut stall = 0usize;
        while stall < 25 && !budget.probe() {
            let total: f64 = weights.iter().sum();
            let mut pick = rng.gen_range(0.0..total);
            let mut move_index = 0usize;
            for (i, &w) in weights.iter().enumerate() {
                if pick < w {
                    move_index = i;
                    break;
                }
                pick -= w;
            }
            let before = state.half();
            match move_index {
                0 => {
                    // Add a batch of up to 3 pairs.
                    for _ in 0..3 {
                        if !add_pair(graph, &mut state, &mut rng) {
                            break;
                        }
                    }
                }
                1 => {
                    let _ = swap_pair(graph, &mut state, &mut rng);
                }
                _ => {
                    // Drop two pairs and rebuild greedily.
                    drop_pair(&mut state, &mut rng);
                    drop_pair(&mut state, &mut rng);
                    while add_pair(graph, &mut state, &mut rng) {}
                }
            }
            let gained = state.half() > before;
            // Adaptive update: reinforce neighbourhoods that help.
            weights[move_index] =
                (weights[move_index] * if gained { 1.3 } else { 0.9 }).clamp(0.2, 8.0);
            if state.half() > best.half_size() {
                best = Biclique::balanced(state.a.clone(), state.b.clone());
                stall = 0;
            } else {
                stall += 1;
            }
        }
    }
    debug_assert!(best.is_valid(graph));
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbb_bigraph::generators;

    #[test]
    fn pols_finds_complete_graph() {
        let g = generators::complete(5, 5);
        let b = pols(&g, 1, &SearchBudget::unlimited());
        assert_eq!(b.half_size(), 5);
        assert!(b.is_valid(&g));
    }

    #[test]
    fn sbmnas_finds_complete_graph() {
        let g = generators::complete(5, 5);
        let b = sbmnas(&g, 1, &SearchBudget::unlimited());
        assert_eq!(b.half_size(), 5);
        assert!(b.is_valid(&g));
    }

    #[test]
    fn both_return_valid_bicliques_on_random_graphs() {
        for seed in 0..8u64 {
            let g = generators::uniform_edges(30, 30, 200, seed);
            let p = pols(&g, seed, &SearchBudget::unlimited());
            assert!(p.is_valid(&g), "pols seed {seed}");
            let s = sbmnas(&g, seed, &SearchBudget::unlimited());
            assert!(s.is_valid(&g), "sbmnas seed {seed}");
            // With 200 edges on 30x30 some 2x2 exists almost surely; at
            // minimum a 1x1 must be found.
            assert!(p.half_size() >= 1);
            assert!(s.half_size() >= 1);
        }
    }

    #[test]
    fn heuristics_find_planted_bicliques_approximately() {
        let g = generators::uniform_edges(60, 60, 300, 4);
        let (planted, _, _) = generators::plant_balanced_biclique(&g, 8);
        let p = pols(&planted, 2, &SearchBudget::unlimited());
        let s = sbmnas(&planted, 2, &SearchBudget::unlimited());
        assert!(p.half_size() >= 4, "pols found {}", p.half_size());
        assert!(s.half_size() >= 4, "sbmnas found {}", s.half_size());
    }

    #[test]
    fn empty_graph_yields_empty() {
        let g = BipartiteGraph::from_edges(4, 4, []).unwrap();
        assert_eq!(pols(&g, 0, &SearchBudget::unlimited()).half_size(), 0);
        assert_eq!(sbmnas(&g, 0, &SearchBudget::unlimited()).half_size(), 0);
    }

    #[test]
    fn deterministic_in_seed() {
        let g = generators::uniform_edges(25, 25, 160, 7);
        let unlimited = SearchBudget::unlimited();
        assert_eq!(pols(&g, 3, &unlimited), pols(&g, 3, &unlimited));
        assert_eq!(sbmnas(&g, 3, &unlimited), sbmnas(&g, 3, &unlimited));
    }
}

//! Property-based invariants across the workspace.

use mbb_baselines::exhaustive::brute_force_mbb;
use mbb_bigraph::bicore::bicore_decomposition;
use mbb_bigraph::core_decomp::core_decomposition;
use mbb_bigraph::generators;
use mbb_bigraph::graph::BipartiteGraph;
use mbb_bigraph::matching::maximum_vertex_biclique;
use mbb_core::budget::SearchBudget;
use mbb_core::MbbEngine;
use proptest::prelude::*;

/// Strategy: a random bipartite graph with sides ≤ 10 and arbitrary edges.
fn small_graph() -> impl Strategy<Value = BipartiteGraph> {
    (1u32..=10, 1u32..=10).prop_flat_map(|(nl, nr)| {
        proptest::collection::vec((0..nl, 0..nr), 0..=((nl * nr) as usize))
            .prop_map(move |edges| BipartiteGraph::from_edges(nl, nr, edges).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn solver_matches_brute_force(g in small_graph()) {
        let exact = MbbEngine::new(g.clone()).solve();
        let brute = brute_force_mbb(&g);
        prop_assert_eq!(exact.value.half_size(), brute.half_size());
        prop_assert!(exact.value.is_valid(&g));
    }

    #[test]
    fn mbb_bounded_by_mvb(g in small_graph()) {
        // A balanced biclique is a biclique: 2·half ≤ MVB total.
        let exact = MbbEngine::new(g.clone()).solve();
        let (a, b) = maximum_vertex_biclique(&g);
        prop_assert!(2 * exact.value.half_size() <= a.len() + b.len());
    }

    #[test]
    fn mbb_half_bounded_by_degeneracy(g in small_graph()) {
        // A (k,k) biclique is a k-core, so half ≤ δ(G).
        let exact = MbbEngine::new(g.clone()).solve();
        let degeneracy = core_decomposition(&g).degeneracy as usize;
        prop_assert!(exact.value.half_size() <= degeneracy);
    }

    #[test]
    fn bicore_dominates_core(g in small_graph()) {
        let cores = core_decomposition(&g);
        let bicores = bicore_decomposition(&g);
        for v in 0..g.num_vertices() {
            prop_assert!(bicores.bicore[v] >= cores.core[v]);
        }
    }

    #[test]
    fn biclique_witness_is_sorted_and_unique(g in small_graph()) {
        let exact = MbbEngine::new(g.clone()).solve();
        let b = &exact.value;
        prop_assert!(b.left.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(b.right.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn solver_is_deterministic(g in small_graph()) {
        let a = MbbEngine::new(g.clone()).solve();
        let b = MbbEngine::new(g.clone()).solve();
        prop_assert_eq!(a.value, b.value);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn enumeration_best_equals_mbb(g in small_graph()) {
        use mbb_core::enumerate::{all_maximal_bicliques, EnumConfig};
        let (all, complete) = all_maximal_bicliques(&g, &EnumConfig::default());
        prop_assert!(complete);
        let best = all.iter().map(|b| b.balanced_size()).max().unwrap_or(0);
        prop_assert_eq!(best, brute_force_mbb(&g).half_size());
    }

    #[test]
    fn enumeration_has_no_duplicates(g in small_graph()) {
        use mbb_core::enumerate::{all_maximal_bicliques, EnumConfig};
        use std::collections::HashSet;
        let (all, _) = all_maximal_bicliques(&g, &EnumConfig::default());
        let set: HashSet<_> = all.iter().map(|b| (b.left.clone(), b.right.clone())).collect();
        prop_assert_eq!(set.len(), all.len());
        for b in &all {
            prop_assert!(b.is_maximal(&g));
        }
    }

    #[test]
    fn topk_is_a_sorted_prefix_of_enumeration(g in small_graph(), k in 1usize..5) {
        use mbb_core::topk::topk_budgeted;
        let out = topk_budgeted(&g, k, &SearchBudget::unlimited());
        prop_assert!(out.complete);
        for w in out.bicliques.windows(2) {
            let a = (w[0].balanced_size(), w[0].total_size());
            let b = (w[1].balanced_size(), w[1].total_size());
            prop_assert!(a >= b);
        }
        let top1 = out.bicliques.first().map_or(0, |b| b.balanced_size());
        prop_assert_eq!(top1, brute_force_mbb(&g).half_size());
    }

    #[test]
    fn anchored_is_bounded_and_achieved(g in small_graph()) {
        use mbb_core::anchored::anchored_budgeted;
        use mbb_bigraph::graph::Vertex;
        let global = brute_force_mbb(&g).half_size();
        let mut best = 0;
        for u in 0..g.num_left() as u32 {
            let (b, _) = anchored_budgeted(&g, Vertex::left(u), &SearchBudget::unlimited());
            prop_assert!(b.half_size() <= global);
            prop_assert!(b.is_empty() || b.is_valid(&g));
            best = best.max(b.half_size());
        }
        if g.num_edges() > 0 {
            prop_assert_eq!(best, global);
        }
    }

    #[test]
    fn butterflies_match_brute_force(g in small_graph()) {
        use mbb_bigraph::butterfly::count_butterflies;
        let nl = g.num_left() as u32;
        let nr = g.num_right() as u32;
        let mut brute = 0u64;
        for u1 in 0..nl {
            for u2 in u1 + 1..nl {
                for v1 in 0..nr {
                    for v2 in v1 + 1..nr {
                        if g.has_edge(u1, v1) && g.has_edge(u1, v2)
                            && g.has_edge(u2, v1) && g.has_edge(u2, v2) {
                            brute += 1;
                        }
                    }
                }
            }
        }
        prop_assert_eq!(count_butterflies(&g), brute);
    }

    #[test]
    fn scoped_and_consensus_enumerators_agree(g in small_graph()) {
        use mbb_core::enumerate::{all_maximal_bicliques, EnumConfig};
        use mbb_tests::enumerate_scoped::all_maximal_bicliques_scoped;
        use std::collections::HashSet;
        let (a, c1) = all_maximal_bicliques(&g, &EnumConfig::default());
        let (b, c2) = all_maximal_bicliques_scoped(&g, &EnumConfig::default());
        prop_assert!(c1 && c2);
        let sa: HashSet<_> = a.iter().map(|x| (x.left.clone(), x.right.clone())).collect();
        let sb: HashSet<_> = b.iter().map(|x| (x.left.clone(), x.right.clone())).collect();
        prop_assert_eq!(sa, sb);
    }

    #[test]
    fn projection_bound_is_sound(g in small_graph()) {
        use mbb_bigraph::graph::Side;
        use mbb_bigraph::projection::project;
        let half = brute_force_mbb(&g).half_size();
        prop_assert!(project(&g, Side::Left).mbb_half_upper_bound() >= half);
        prop_assert!(project(&g, Side::Right).mbb_half_upper_bound() >= half);
    }

    #[test]
    fn weighted_with_unit_weights_is_mbb(g in small_graph()) {
        use mbb_core::weighted::weighted_mbb_budgeted;
        let weights = vec![1u64; g.num_vertices()];
        let (found, _) = weighted_mbb_budgeted(&g, &weights, &SearchBudget::unlimited());
        prop_assert_eq!(found.weight as usize, 2 * brute_force_mbb(&g).half_size());
    }

    #[test]
    fn frontier_corners_are_consistent(g in small_graph()) {
        use mbb_core::frontier::SizeFrontier;
        let f = SizeFrontier::budgeted(&g, &SearchBudget::unlimited());
        prop_assert!(f.complete);
        prop_assert_eq!(f.mbb_half(), brute_force_mbb(&g).half_size());
        // Every frontier pair is feasible by definition and undominated.
        for (i, &(a, b)) in f.pairs.iter().enumerate() {
            prop_assert!(f.is_feasible(a, b));
            for (j, &(a2, b2)) in f.pairs.iter().enumerate() {
                if i != j {
                    prop_assert!(!(a2 >= a && b2 >= b), "dominated pair in frontier");
                }
            }
        }
    }

    #[test]
    fn warm_start_never_changes_the_answer(g in small_graph()) {
        let cold = MbbEngine::new(g.clone()).solve();
        let warm = MbbEngine::new(g.clone())
            .query()
            .warm_start(cold.value.clone())
            .solve();
        prop_assert_eq!(warm.value.half_size(), cold.value.half_size());
    }

    #[test]
    fn incremental_matches_cold_after_one_update(
        g in small_graph(),
        u in 0u32..10,
        v in 0u32..10,
        delete in proptest::bool::ANY,
    ) {
        use mbb_core::incremental::IncrementalMbb;
        let mut inc = IncrementalMbb::from_graph(&g);
        inc.solve();
        let u = u % g.num_left() as u32;
        let v = v % g.num_right() as u32;
        if delete {
            inc.remove_edge(u, v);
        } else {
            inc.insert_edge(u, v).unwrap();
        }
        let warm = inc.solve().value;
        let cold = brute_force_mbb(&inc.snapshot());
        prop_assert_eq!(warm.half_size(), cold.half_size());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn planted_biclique_is_found(
        seed in 0u64..1000,
        half in 3u32..6,
        noise in 20usize..80,
    ) {
        let g = generators::uniform_edges(20, 20, noise, seed);
        let (planted, _, _) = generators::plant_balanced_biclique(&g, half);
        let exact = MbbEngine::new(planted.clone()).solve();
        prop_assert!(exact.value.half_size() >= half as usize);
        prop_assert!(exact.value.is_valid(&planted));
    }

    #[test]
    fn subgraph_optimum_never_exceeds_graph_optimum(
        seed in 0u64..1000,
    ) {
        // Monotonicity: deleting vertices cannot grow the MBB.
        let g = generators::uniform_edges(10, 10, 45, seed);
        let full = MbbEngine::new(g.clone()).solve().value.half_size();
        let sub = mbb_bigraph::subgraph::induce_by_ids(
            &g,
            (0..8).collect(),
            (0..8).collect(),
        );
        let reduced = MbbEngine::new(sub.graph.clone()).solve().value.half_size();
        prop_assert!(reduced <= full);
    }
}

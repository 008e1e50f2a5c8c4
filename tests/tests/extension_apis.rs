//! Cross-crate agreement tests for the extension APIs: maximal-biclique
//! enumeration, top-k, anchored search, incremental maintenance, and the
//! analysis metrics. Each API is checked against an independent oracle —
//! usually the exact solver or full enumeration.

use std::ops::ControlFlow;

use mbb_bigraph::butterfly::count_butterflies;
use mbb_bigraph::generators;
use mbb_bigraph::graph::{BipartiteGraph, Vertex};
use mbb_bigraph::metrics::GraphProfile;
use mbb_core::budget::SearchBudget;
use mbb_core::enumerate::{all_maximal_bicliques, enumerate_budgeted, EnumConfig};
use mbb_core::incremental::IncrementalMbb;
use mbb_core::MbbEngine;

fn random_graphs(count: u64) -> impl Iterator<Item = BipartiteGraph> {
    (0..count).map(|seed| generators::uniform_edges(12, 12, 55, seed * 31 + 5))
}

/// The MBB half-size, through a one-query engine session.
fn mbb_half(g: &BipartiteGraph) -> usize {
    MbbEngine::new(g.clone()).solve().value.half_size()
}

#[test]
fn enumeration_best_matches_solver() {
    // The best balanced size over all maximal bicliques IS the MBB size.
    for g in random_graphs(12) {
        let (all, complete) = all_maximal_bicliques(&g, &EnumConfig::default());
        assert!(complete);
        let best_balanced = all.iter().map(|b| b.balanced_size()).max().unwrap_or(0);
        assert_eq!(best_balanced, mbb_half(&g));
    }
}

#[test]
fn every_enumerated_biclique_is_maximal_and_complete() {
    for g in random_graphs(6) {
        let (all, _) = all_maximal_bicliques(&g, &EnumConfig::default());
        for b in &all {
            assert!(g.is_biclique(&b.left, &b.right));
            assert!(b.is_maximal(&g));
        }
    }
}

#[test]
fn topk_heads_agree_with_solver_across_datasets() {
    use mbb_datasets::{stand_in, ScaleCaps};
    for name in ["unicodelang", "dbpedia-writer"] {
        let spec = mbb_datasets::find(name).expect("catalog entry");
        let stand_in = stand_in(spec, ScaleCaps::small(), 1);
        let solved = MbbEngine::new(stand_in.graph.clone()).solve();
        let top = MbbEngine::new(stand_in.graph).topk(1);
        assert!(top.termination.is_complete(), "{name}");
        let top_half = top.value.first().map_or(0, |b| b.balanced_size());
        assert_eq!(top_half, solved.value.half_size(), "{name}");
    }
}

#[test]
fn anchored_covers_the_global_optimum() {
    // Anchoring at every vertex of the optimum must reproduce its size.
    for g in random_graphs(8) {
        let engine = MbbEngine::new(g);
        let best = engine.solve().value;
        for &u in &best.left {
            let through_u = engine.anchored(Vertex::left(u)).value;
            assert_eq!(through_u.half_size(), best.half_size());
        }
        for &v in &best.right {
            let through_v = engine.anchored(Vertex::right(v)).value;
            assert_eq!(through_v.half_size(), best.half_size());
        }
    }
}

#[test]
fn edge_anchored_is_consistent_with_vertex_anchored() {
    for g in random_graphs(5) {
        let engine = MbbEngine::new(g.clone());
        for (u, v) in g.edges().take(8) {
            let through_edge = engine.anchored_edge(u, v).value.expect("edge exists");
            let through_u = engine.anchored(Vertex::left(u)).value;
            // The edge constraint is stronger than the vertex constraint.
            assert!(through_edge.half_size() <= through_u.half_size());
            assert!(through_edge.half_size() >= 1);
        }
    }
}

#[test]
fn incremental_tracks_scratch_solver_on_a_stream() {
    let g = generators::uniform_edges(15, 15, 60, 77);
    let mut inc = IncrementalMbb::from_graph(&g);
    // Stream in a growing block, interleaved with deletions of its corner.
    for k in 0..6u32 {
        for i in 0..=k {
            inc.insert_edge(i, k).unwrap();
            inc.insert_edge(k, i).unwrap();
        }
        if k % 2 == 1 {
            inc.remove_edge(0, 0);
        }
        let warm = inc.solve().value;
        let cold = MbbEngine::new(inc.snapshot()).solve().value;
        assert_eq!(warm.half_size(), cold.half_size(), "k = {k}");
    }
}

#[test]
fn butterfly_count_respects_planted_biclique() {
    // A planted k×k block guarantees at least C(k,2)² butterflies.
    let noise = generators::uniform_edges(40, 40, 100, 9);
    for k in [3u32, 5, 7] {
        let (g, _, _) = generators::plant_balanced_biclique(&noise, k);
        let pairs = (k as u64) * (k as u64 - 1) / 2;
        assert!(
            count_butterflies(&g) >= pairs * pairs,
            "k = {k}: {} < {}",
            count_butterflies(&g),
            pairs * pairs
        );
    }
}

#[test]
fn butterfly_upper_bound_dominates_mbb() {
    for g in random_graphs(10) {
        let profile = GraphProfile::of(&g);
        let half = mbb_half(&g);
        assert!(
            profile.butterfly_half_upper_bound() >= half.max(1),
            "butterfly bound {} < MBB half {half}",
            profile.butterfly_half_upper_bound()
        );
        assert!(profile.mbb_half_upper_bound() >= half);
    }
}

#[test]
fn enumeration_budget_is_honoured_and_partial_results_valid() {
    let g = generators::dense_uniform(30, 30, 0.6, 4);
    let config = EnumConfig {
        max_results: Some(50),
        ..EnumConfig::default()
    };
    let mut count = 0u64;
    let outcome = enumerate_budgeted(&g, &config, &SearchBudget::unlimited(), |b| {
        assert!(g.is_biclique(&b.left, &b.right));
        count += 1;
        ControlFlow::Continue(())
    });
    assert_eq!(count, 50);
    assert!(!outcome.complete);
}

#[test]
fn projection_bound_dominates_exact_mbb() {
    use mbb_bigraph::graph::Side;
    use mbb_bigraph::projection::project;
    for g in random_graphs(12) {
        let half = mbb_half(&g);
        for side in [Side::Left, Side::Right] {
            let p = project(&g, side);
            assert!(
                p.mbb_half_upper_bound() >= half,
                "{side:?} bound {} < optimum {half}",
                p.mbb_half_upper_bound()
            );
        }
    }
}

#[test]
fn both_enumerators_agree_on_stand_ins() {
    use mbb_datasets::{stand_in, ScaleCaps};
    use mbb_tests::enumerate_scoped::all_maximal_bicliques_scoped;
    use std::collections::HashSet;
    let spec = mbb_datasets::find("unicodelang").expect("catalog entry");
    let g = stand_in(spec, ScaleCaps::small(), 1).graph;
    let (consensus, c1) = all_maximal_bicliques(&g, &EnumConfig::default());
    let (scoped, c2) = all_maximal_bicliques_scoped(&g, &EnumConfig::default());
    assert!(c1 && c2);
    let a: HashSet<_> = consensus
        .iter()
        .map(|b| (b.left.clone(), b.right.clone()))
        .collect();
    let b: HashSet<_> = scoped
        .iter()
        .map(|b| (b.left.clone(), b.right.clone()))
        .collect();
    assert_eq!(a, b);
}

#[test]
fn result_types_round_trip_through_json() {
    use mbb_core::frontier::SizeFrontier;
    let g = generators::uniform_edges(8, 8, 30, 21);

    let result = MbbEngine::new(g.clone()).solve();
    let json = serde_json::to_string(&result.value).unwrap();
    let back: mbb_core::Biclique = serde_json::from_str(&json).unwrap();
    assert_eq!(back, result.value);
    let stats_json = serde_json::to_string(&result.stats).unwrap();
    assert!(stats_json.contains("stage"));

    let (all, _) = all_maximal_bicliques(&g, &EnumConfig::default());
    if let Some(first) = all.first() {
        let json = serde_json::to_string(first).unwrap();
        let back: mbb_core::enumerate::MaximalBiclique = serde_json::from_str(&json).unwrap();
        assert_eq!(&back, first);
    }

    let frontier = MbbEngine::new(g.clone()).frontier().value;
    let json = serde_json::to_string(&frontier).unwrap();
    let back: SizeFrontier = serde_json::from_str(&json).unwrap();
    assert_eq!(back, frontier);

    let profile = GraphProfile::of(&g);
    let json = serde_json::to_string(&profile).unwrap();
    let back: mbb_bigraph::metrics::GraphProfile = serde_json::from_str(&json).unwrap();
    assert_eq!(back, profile);
}

#[test]
fn profile_matches_graph_counters_on_stand_ins() {
    use mbb_datasets::{stand_in, ScaleCaps};
    let spec = mbb_datasets::find("moreno-crime-crime").expect("catalog entry");
    let g = stand_in(spec, ScaleCaps::small(), 1).graph;
    let profile = GraphProfile::cheap(&g);
    assert_eq!(profile.num_left, g.num_left());
    assert_eq!(profile.num_right, g.num_right());
    assert_eq!(profile.num_edges, g.num_edges());
    assert_eq!(profile.left_degrees.max, {
        (0..g.num_left() as u32)
            .map(|u| g.degree_left(u))
            .max()
            .unwrap_or(0)
    });
}

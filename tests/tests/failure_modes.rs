//! Failure injection and degenerate-shape coverage.

use mbb_bigraph::graph::{BipartiteGraph, GraphError};
use mbb_bigraph::io;
use mbb_core::budget::SearchBudget;
use mbb_core::{Biclique, MbbEngine};
use std::io::Cursor;

/// The MBB, through a one-query engine session.
fn engine_mbb(g: &BipartiteGraph) -> Biclique {
    let result = MbbEngine::new(g.clone()).solve();
    assert!(result.termination.is_complete());
    result.value
}

#[test]
fn empty_graph_is_handled_by_everything() {
    let g = BipartiteGraph::from_edges(0, 0, []).unwrap();
    assert_eq!(engine_mbb(&g).half_size(), 0);
    let unlimited = SearchBudget::unlimited();
    assert_eq!(mbb_core::dense_mbb_graph(&g, &unlimited).0.half_size(), 0);
    assert_eq!(
        mbb_baselines::ext_bbclq(&g, &unlimited)
            .biclique
            .half_size(),
        0
    );
    assert_eq!(
        mbb_bigraph::bicore::bicore_decomposition(&g).bidegeneracy,
        0
    );
}

#[test]
fn one_sided_graphs() {
    let left_only = BipartiteGraph::from_edges(5, 0, []).unwrap();
    assert_eq!(engine_mbb(&left_only).half_size(), 0);
    let right_only = BipartiteGraph::from_edges(0, 5, []).unwrap();
    assert_eq!(engine_mbb(&right_only).half_size(), 0);
}

#[test]
fn isolated_vertices_do_not_crash_anything() {
    let g = BipartiteGraph::from_edges(100, 100, [(0, 0), (1, 1)]).unwrap();
    let result = MbbEngine::new(g).solve();
    assert_eq!(result.value.half_size(), 1);
}

#[test]
fn self_loop_impossible_by_construction() {
    // Bipartite graphs cannot have same-side edges; the builder's type
    // system enforces it. This documents the invariant.
    let g = BipartiteGraph::from_edges(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)]).unwrap();
    assert_eq!(g.num_edges(), 4);
}

#[test]
fn out_of_range_edges_are_rejected_not_ignored() {
    let err = BipartiteGraph::from_edges(2, 2, [(7, 0)]).unwrap_err();
    assert!(matches!(err, GraphError::EndpointOutOfRange { .. }));
}

#[test]
fn malformed_edge_lists_are_rejected() {
    for bad in ["a b\n", "1\n", "1 2 extra is ok\n0 1\n", "-1 2\n"] {
        let result = io::read_edge_list(Cursor::new(bad));
        if bad.starts_with("1 2") {
            // Extra columns are fine; the 0-id line must fail.
            assert!(result.is_err(), "{bad:?} should fail on the 0 id");
        } else {
            assert!(result.is_err(), "{bad:?} should fail");
        }
    }
}

#[test]
fn duplicate_heavy_input_collapses() {
    let edges: Vec<(u32, u32)> = (0..1000).map(|_| (0, 0)).collect();
    let g = BipartiteGraph::from_edges(1, 1, edges).unwrap();
    assert_eq!(g.num_edges(), 1);
    assert_eq!(engine_mbb(&g).half_size(), 1);
}

#[test]
fn path_and_cycle_shapes() {
    // Long path: optimum is 1x1... actually a path L0-R0-L1-R1-... has
    // 2x2 bicliques? No: each left vertex sees ≤ 2 rights but two lefts
    // share at most one right. Optimum half = 1.
    let mut edges = Vec::new();
    for i in 0..20u32 {
        edges.push((i, i));
        if i + 1 < 20 {
            edges.push((i + 1, i));
        }
    }
    let path = BipartiteGraph::from_edges(20, 20, edges).unwrap();
    assert_eq!(engine_mbb(&path).half_size(), 1);

    // Even cycle: same.
    let mut edges = Vec::new();
    for i in 0..10u32 {
        edges.push((i, i));
        edges.push(((i + 1) % 10, i));
    }
    let cycle = BipartiteGraph::from_edges(10, 10, edges).unwrap();
    assert_eq!(engine_mbb(&cycle).half_size(), 1);
}

#[test]
fn complete_bipartite_extremes() {
    let g = mbb_bigraph::generators::complete(1, 50);
    assert_eq!(engine_mbb(&g).half_size(), 1);
    let g = mbb_bigraph::generators::complete(30, 30);
    assert_eq!(engine_mbb(&g).half_size(), 30);
}

#[test]
fn crown_graph() {
    // Complete minus a perfect matching (each left i misses right i): the
    // complement is a perfect matching — the Lemma 3 polynomial case with
    // n odd paths of length 1, each contributing (1,0) or (0,1). Chosen
    // lefts and rights must use disjoint matching pairs, so a + b ≤ n and
    // the optimum half-size is ⌊n/2⌋.
    for n in [2u32, 3, 5, 8] {
        let mut edges = Vec::new();
        for u in 0..n {
            for v in 0..n {
                if u != v {
                    edges.push((u, v));
                }
            }
        }
        let g = BipartiteGraph::from_edges(n, n, edges).unwrap();
        let found = engine_mbb(&g);
        assert_eq!(found.half_size(), (n / 2) as usize, "crown n={n}");
        assert!(found.is_valid(&g));
    }
}

#[test]
fn zero_budget_baselines_report_timeout() {
    let g = mbb_bigraph::generators::dense_uniform(30, 30, 0.8, 1);
    let zero = SearchBudget::with_deadline(std::time::Duration::ZERO);
    let out = mbb_baselines::ext_bbclq(&g, &zero);
    assert!(out.timed_out);
}

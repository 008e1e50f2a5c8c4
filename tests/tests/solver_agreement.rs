//! Cross-crate agreement: every exact algorithm in the workspace must
//! report the same optimum half-size on the same graph.

use mbb_baselines::exhaustive::brute_force_mbb;
use mbb_baselines::{all_adapted, ext_bbclq};
use mbb_bigraph::generators;
use mbb_core::{dense_mbb_graph, MbbEngine, SolverConfig};

fn all_exact_halves(graph: &mbb_bigraph::BipartiteGraph) -> Vec<(String, usize)> {
    let mut results = Vec::new();
    results.push(("brute".to_string(), brute_force_mbb(graph).half_size()));
    results.push((
        "hbvMBB".to_string(),
        MbbEngine::new(graph.clone()).solve().value.half_size(),
    ));
    for (name, config) in [
        ("bd1", SolverConfig::bd1()),
        ("bd2", SolverConfig::bd2()),
        ("bd3", SolverConfig::bd3()),
        ("bd4", SolverConfig::bd4()),
        ("bd5", SolverConfig::bd5()),
    ] {
        results.push((
            name.to_string(),
            MbbEngine::with_config(graph.clone(), config)
                .solve()
                .value
                .half_size(),
        ));
    }
    results.push(("denseMBB".to_string(), dense_mbb_graph(graph).0.half_size()));
    results.push(("extBBClq".to_string(), {
        let out = ext_bbclq(graph, None);
        assert!(!out.timed_out);
        out.biclique.half_size()
    }));
    for baseline in all_adapted() {
        let out = baseline.run(graph, None);
        assert!(!out.timed_out);
        results.push((baseline.name().to_string(), out.biclique.half_size()));
    }
    results
}

fn assert_agreement(graph: &mbb_bigraph::BipartiteGraph, label: &str) {
    let results = all_exact_halves(graph);
    let expected = results[0].1;
    for (name, half) in &results {
        assert_eq!(
            *half, expected,
            "{label}: {name} found {half}, brute force found {expected}"
        );
    }
}

#[test]
fn agreement_on_uniform_random_graphs() {
    for seed in 0..10u64 {
        let g = generators::uniform_edges(12, 12, 60, seed);
        assert_agreement(&g, &format!("uniform seed {seed}"));
    }
}

#[test]
fn agreement_on_dense_graphs() {
    for seed in 0..6u64 {
        for density in [0.7, 0.85, 0.95] {
            let g = generators::dense_uniform(10, 10, density, seed);
            assert_agreement(&g, &format!("dense {density} seed {seed}"));
        }
    }
}

#[test]
fn agreement_on_power_law_graphs() {
    for seed in 0..6u64 {
        let g = generators::chung_lu_bipartite(
            &generators::ChungLuParams {
                num_left: 14,
                num_right: 12,
                num_edges: 55,
                left_exponent: 0.75,
                right_exponent: 0.75,
            },
            seed,
        );
        assert_agreement(&g, &format!("power-law seed {seed}"));
    }
}

#[test]
fn agreement_on_lopsided_graphs() {
    for seed in 0..5u64 {
        let g = generators::uniform_edges(6, 20, 50, seed);
        assert_agreement(&g, &format!("lopsided seed {seed}"));
    }
}

#[test]
fn agreement_on_structured_graphs() {
    // Complete graph.
    assert_agreement(&generators::complete(6, 6), "complete 6x6");
    // Star.
    let star = mbb_bigraph::BipartiteGraph::from_edges(1, 10, (0..10).map(|v| (0, v))).unwrap();
    assert_agreement(&star, "star");
    // Perfect matching (disjoint edges).
    let matching = mbb_bigraph::BipartiteGraph::from_edges(8, 8, (0..8).map(|i| (i, i))).unwrap();
    assert_agreement(&matching, "matching");
    // Planted biclique in noise.
    let g = generators::uniform_edges(12, 12, 30, 3);
    let (planted, _, _) = generators::plant_balanced_biclique(&g, 4);
    assert_agreement(&planted, "planted");
}

//! End-to-end runs over the KONECT stand-ins at test scale.

use mbb_core::{MbbEngine, Stage};
use mbb_datasets::{catalog, find, stand_in, ScaleCaps};

/// Golden round trip: every generator family, written with
/// `write_edge_list` and re-read through the streaming two-pass builder,
/// reproduces the buffered reader's CSR arrays exactly — and the re-read
/// graph carries the original edge set (trailing isolated vertices are
/// the one lossy aspect of the text format, by design).
#[test]
fn generator_write_streaming_read_round_trip() {
    use mbb_bigraph::generators;

    let graphs: Vec<(&str, mbb_bigraph::BipartiteGraph)> = vec![
        ("uniform", generators::uniform_edges(40, 30, 220, 3)),
        ("complete", generators::complete(9, 7)),
        ("dense", generators::dense_uniform(24, 24, 0.8, 5)),
        (
            "chung-lu",
            generators::chung_lu_bipartite(
                &generators::ChungLuParams {
                    num_left: 80,
                    num_right: 60,
                    num_edges: 500,
                    left_exponent: 0.75,
                    right_exponent: 0.75,
                },
                11,
            ),
        ),
        (
            "stand-in",
            stand_in(find("unicodelang").unwrap(), ScaleCaps::small(), 21).graph,
        ),
    ];

    for (name, graph) in graphs {
        let mut text = Vec::new();
        mbb_bigraph::io::write_edge_list(&graph, &mut text).unwrap();
        let streamed =
            mbb_bigraph::io::read_edge_list_streaming(std::io::Cursor::new(&text)).unwrap();
        let buffered = mbb_bigraph::io::read_edge_list(std::io::Cursor::new(&text)).unwrap();

        assert_eq!(
            streamed.left_offsets(),
            buffered.left_offsets(),
            "{name}: left offsets"
        );
        assert_eq!(
            streamed.left_neighbors(),
            buffered.left_neighbors(),
            "{name}: left adjacency"
        );
        assert_eq!(
            streamed.right_offsets(),
            buffered.right_offsets(),
            "{name}: right offsets"
        );
        assert_eq!(
            streamed.right_neighbors(),
            buffered.right_neighbors(),
            "{name}: right adjacency"
        );

        assert_eq!(
            streamed.num_edges(),
            graph.num_edges(),
            "{name}: edge count"
        );
        for (u, v) in graph.edges() {
            assert!(streamed.has_edge(u, v), "{name}: lost edge ({u}, {v})");
        }
    }
}

#[test]
fn every_standin_solves_and_meets_the_plant() {
    for spec in catalog() {
        let standin = stand_in(spec, ScaleCaps::small(), 11);
        let result = MbbEngine::new(standin.graph.clone()).solve();
        assert!(
            result.value.is_valid(&standin.graph),
            "{}: invalid witness",
            spec.name
        );
        assert!(
            result.value.half_size() >= standin.planted_half as usize,
            "{}: found {} < planted {}",
            spec.name,
            result.value.half_size(),
            standin.planted_half
        );
    }
}

#[test]
fn standins_are_deterministic_across_calls() {
    let spec = find("github").unwrap();
    let a = stand_in(spec, ScaleCaps::small(), 3);
    let b = stand_in(spec, ScaleCaps::small(), 3);
    assert_eq!(a.graph.num_edges(), b.graph.num_edges());
    let ra = MbbEngine::new(a.graph.clone()).solve();
    let rb = MbbEngine::new(b.graph.clone()).solve();
    assert_eq!(ra.value, rb.value);
}

#[test]
fn tough_standins_exercise_later_stages() {
    // At default caps the tough datasets carry a core inflater that defeats
    // the Lemma 5 early exit; at least some of them must reach S2/S3.
    let mut later_stage = 0;
    for name in ["github", "pics-ut", "reuters"] {
        let spec = find(name).unwrap();
        let standin = stand_in(spec, ScaleCaps::default(), 42);
        let result = MbbEngine::new(standin.graph.clone()).solve();
        assert!(result.value.half_size() >= standin.planted_half as usize);
        if result.stats.stage != Stage::S1 {
            later_stage += 1;
        }
    }
    assert!(later_stage >= 1, "all tough stand-ins exited at stage S1");
}

#[test]
fn stage_statistics_are_consistent() {
    let spec = find("escorts").unwrap();
    let standin = stand_in(spec, ScaleCaps::small(), 5);
    let result = MbbEngine::new(standin.graph.clone()).solve();
    let stats = &result.stats;
    assert_eq!(stats.optimum_half, result.value.half_size());
    assert!(stats.heuristic_global_half <= stats.heuristic_local_half);
    assert!(stats.heuristic_local_half <= stats.optimum_half);
    if stats.stage == Stage::S3 {
        assert!(stats.subgraphs_generated >= stats.subgraphs_verified);
    }
}

#[test]
fn parallel_and_sequential_agree_on_standins() {
    use mbb_core::SolverConfig;
    let spec = find("opsahl-ucforum").unwrap();
    let standin = stand_in(spec, ScaleCaps::small(), 9);
    let sequential = MbbEngine::new(standin.graph.clone()).solve();
    let parallel = MbbEngine::with_config(
        standin.graph,
        SolverConfig {
            threads: 4,
            ..Default::default()
        },
    )
    .solve();
    assert_eq!(sequential.value.half_size(), parallel.value.half_size());
}

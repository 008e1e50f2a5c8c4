//! Parallel-search properties: the intra-subgraph worker pool must agree
//! with the serial algorithm on every input, and a cancelled parallel
//! search must still hand back a verified (possibly empty) biclique —
//! never a torn or invalid one.

use std::time::Duration;

use mbb_bigraph::bitset::BitSet;
use mbb_bigraph::generators;
use mbb_bigraph::local::LocalGraph;
use mbb_core::budget::{CancelToken, SearchBudget, Termination};
use mbb_core::dense::{dense_mbb_budgeted, dense_mbb_parallel, DenseConfig};
use mbb_core::engine::MbbEngine;
use mbb_core::verify::ParallelMode;
use mbb_core::SolverConfig;
use proptest::prelude::*;

/// Strategy: a random local (bitset) bipartite graph with sides ≤ 11.
fn small_local_graph() -> impl Strategy<Value = LocalGraph> {
    (2usize..=11, 2usize..=11).prop_flat_map(|(nl, nr)| {
        proptest::collection::vec((0..nl as u32, 0..nr as u32), 0..=(nl * nr))
            .prop_map(move |edges| LocalGraph::from_edges(nl, nr, edges))
    })
}

fn run_parallel(g: &LocalGraph, workers: usize, budget: &SearchBudget) -> (Vec<u32>, Vec<u32>) {
    let (found, _) = dense_mbb_parallel(
        g,
        Vec::new(),
        Vec::new(),
        BitSet::full(g.num_left()),
        BitSet::full(g.num_right()),
        0,
        DenseConfig::default(),
        budget,
        workers,
    );
    (found.left, found.right)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Parallel `denseMBB` at 2 and 4 workers finds the same optimum
    // half-size as the serial search on arbitrary small graphs, and its
    // witness is a real biclique.
    #[test]
    fn parallel_dense_matches_serial(g in small_local_graph()) {
        let (ca, cb) = (BitSet::full(g.num_left()), BitSet::full(g.num_right()));
        let config = DenseConfig::default();
        let unlimited = SearchBudget::unlimited();
        let (serial, _) = dense_mbb_budgeted(&g, vec![], vec![], ca, cb, 0, config, &unlimited);
        for workers in [2usize, 4] {
            let (left, right) = run_parallel(&g, workers, &SearchBudget::unlimited());
            prop_assert_eq!(left.len().min(right.len()), serial.half(), "workers {}", workers);
            prop_assert!(g.is_biclique(&left, &right), "workers {}", workers);
        }
    }

    // A parallel search whose budget is cancelled from the start still
    // returns a verified biclique (the trivial empty one at worst).
    #[test]
    fn cancelled_parallel_dense_is_verified(g in small_local_graph()) {
        let token = CancelToken::new();
        token.cancel();
        let budget = SearchBudget::with_cancel_token(token);
        let (left, right) = run_parallel(&g, 4, &budget);
        prop_assert!(g.is_biclique(&left, &right));
    }
}

/// A deadline that expires mid-search stops the pool promptly and the
/// best-so-far result is a valid biclique of the input graph.
#[test]
fn deadline_mid_search_returns_valid_biclique() {
    // Dense enough that the serial search takes well beyond the deadline.
    let graph = generators::dense_uniform(48, 48, 0.72, 9);
    let left_ids: Vec<u32> = (0..48).collect();
    let right_ids: Vec<u32> = (0..48).collect();
    let local = LocalGraph::induced(&graph, &left_ids, &right_ids);
    let budget = SearchBudget::with_deadline(Duration::from_millis(10));
    let (left, right) = run_parallel(&local, 4, &budget);
    assert!(local.is_biclique(&left, &right));
}

/// Cancelling an engine query that runs a multi-threaded intra-subgraph
/// verification surfaces `Termination::Cancelled` with a valid
/// best-so-far payload.
#[test]
fn cancelled_parallel_engine_query_is_valid() {
    let graph = generators::chung_lu_bipartite(
        &generators::ChungLuParams {
            num_left: 200,
            num_right: 200,
            num_edges: 17_000,
            left_exponent: 0.55,
            right_exponent: 0.55,
        },
        42,
    );
    let engine = MbbEngine::new(graph);
    let token = CancelToken::new();
    let canceller = token.clone();
    let handle = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(30));
        canceller.cancel();
    });
    let result = engine.query().threads(4).cancel_token(token).solve();
    handle.join().unwrap();
    assert!(result.value.is_empty() || result.value.is_valid(engine.graph()));
    // The solve takes well over 30 ms serial on any machine this suite
    // runs on; if it somehow finished first, Complete is the honest
    // answer, so accept (but do not require) it.
    assert!(matches!(
        result.termination,
        Termination::Cancelled | Termination::Complete
    ));
}

/// The two parallel modes and the serial path agree end-to-end through
/// the engine on random sparse graphs.
#[test]
fn engine_modes_agree_on_random_graphs() {
    for seed in 0..6u64 {
        let g = generators::uniform_edges(16, 16, 100, seed ^ 0x7a11);
        let engine = MbbEngine::new(g);
        let serial = engine.query().threads(1).solve();
        let intra = engine
            .query()
            .threads(4)
            .parallel_mode(ParallelMode::IntraSubgraph)
            .solve();
        let subgraph = engine
            .query()
            .threads(4)
            .parallel_mode(ParallelMode::Subgraph)
            .solve();
        assert_eq!(
            serial.value.half_size(),
            intra.value.half_size(),
            "seed {seed}"
        );
        assert_eq!(
            serial.value.half_size(),
            subgraph.value.half_size(),
            "seed {seed}"
        );
        assert!(intra.value.is_valid(engine.graph()));
        assert!(subgraph.value.is_valid(engine.graph()));
    }
}

/// `SolverConfig::threads = 0` resolves to the available cores in both
/// modes and stays exact.
#[test]
fn auto_threads_is_exact() {
    for mode in [ParallelMode::IntraSubgraph, ParallelMode::Subgraph] {
        let g = generators::uniform_edges(14, 14, 80, 3);
        let engine = MbbEngine::with_config(
            g,
            SolverConfig {
                threads: 0,
                parallel_mode: mode,
                ..SolverConfig::default()
            },
        );
        let auto = engine.solve();
        let one = engine.query().threads(1).solve();
        assert_eq!(auto.value.half_size(), one.value.half_size());
    }
}

//! Parallel-search properties: a solve whose workers split the surviving
//! vertex-centred subgraphs must agree with the serial algorithm, and a
//! cancelled or expired multi-worker solve must still hand back a
//! verified (possibly empty) biclique — never a torn or invalid one.

use std::time::{Duration, Instant};

use mbb_bigraph::generators;
use mbb_bigraph::graph::BipartiteGraph;
use mbb_core::budget::{CancelToken, Termination};
use mbb_core::engine::MbbEngine;
use mbb_core::{SolverConfig, Stage};

/// The 200×200 skewed Chung–Lu instance: its solve reaches stage 3 and
/// takes well over 30 ms serial on any machine this suite runs on.
fn chung_lu_200() -> BipartiteGraph {
    generators::chung_lu_bipartite(
        &generators::ChungLuParams {
            num_left: 200,
            num_right: 200,
            num_edges: 17_000,
            left_exponent: 0.55,
            right_exponent: 0.55,
        },
        42,
    )
}

/// A deadline that expires mid-search stops every worker, and the
/// best-so-far result is a valid biclique of the input graph.
#[test]
fn deadline_mid_search_returns_valid_biclique() {
    let engine = MbbEngine::new(chung_lu_200());
    // The graph reaches verification, so a deadline can land among
    // several workers' searches.
    let start = Instant::now();
    assert_eq!(engine.solve().stats.stage, Stage::S3);
    let serial = start.elapsed();
    // 10 ms expires before or while the bridging workers run; a quarter
    // of the serial solve, past bridging, while the verification workers
    // run.
    for limit in [Duration::from_millis(10), serial / 4] {
        let result = engine.query().threads(4).deadline(limit).solve();
        let valid = result.value.is_empty() || result.value.is_valid(engine.graph());
        assert!(valid, "deadline {limit:?}");
        // A machine fast enough to finish within the deadline gives the
        // honest Complete, so accept (but do not require) it.
        assert!(
            matches!(
                result.termination,
                Termination::DeadlineExceeded | Termination::Complete
            ),
            "deadline {limit:?}"
        );
    }
}

/// Cancelling an engine query that runs a multi-threaded verification
/// surfaces `Termination::Cancelled` with a valid best-so-far payload.
#[test]
fn cancelled_parallel_engine_query_is_valid() {
    let engine = MbbEngine::new(chung_lu_200());
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

/// The serial path and four workers agree end-to-end through the engine
/// on random sparse graphs.
#[test]
fn engine_modes_agree_on_random_graphs() {
    for seed in 0..6u64 {
        let g = generators::uniform_edges(16, 16, 100, seed ^ 0x7a11);
        let engine = MbbEngine::new(g);
        let serial = engine.query().threads(1).solve();
        let parallel = engine.query().threads(4).solve();
        assert_eq!(
            serial.value.half_size(),
            parallel.value.half_size(),
            "seed {seed}"
        );
        assert!(parallel.value.is_valid(engine.graph()));
    }
}

/// `SolverConfig::threads = 0` resolves to the available cores and stays
/// exact.
#[test]
fn auto_threads_is_exact() {
    let g = generators::uniform_edges(14, 14, 80, 3);
    let engine = MbbEngine::with_config(
        g,
        SolverConfig {
            threads: 0,
            ..SolverConfig::default()
        },
    );
    let auto = engine.solve();
    let one = engine.query().threads(1).solve();
    assert_eq!(auto.value.half_size(), one.value.half_size());
}

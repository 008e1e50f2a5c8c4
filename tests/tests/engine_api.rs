//! The unified `MbbEngine` query API, cross-checked against the legacy
//! one-shot entry points it replaces.
//!
//! Three concerns:
//!
//! 1. **equivalence** — every engine query kind must agree with its legacy
//!    free-function counterpart on random graphs (the deprecated wrappers
//!    are called here deliberately, as the reference);
//! 2. **budgets** — `DeadlineExceeded` / `Cancelled` terminations must
//!    return the best-so-far biclique and fire within a bounded overshoot;
//! 3. **index reuse** — one session computes the bidegeneracy order and
//!    bicore decomposition exactly once across query kinds.
#![allow(deprecated)]

use std::time::{Duration, Instant};

use mbb_bigraph::generators;
use mbb_bigraph::graph::Vertex;
use mbb_core::anchored::{anchored_mbb, anchored_mbb_edge};
use mbb_core::budget::{CancelToken, Termination};
use mbb_core::engine::MbbEngine;
use mbb_core::enumerate::{all_maximal_bicliques, EnumConfig};
use mbb_core::frontier::SizeFrontier;
use mbb_core::meb::maximum_edge_biclique;
use mbb_core::size_constrained::find_size_constrained;
use mbb_core::stats::Stage;
use mbb_core::weighted::weighted_mbb;
use mbb_core::{solve_mbb, topk_balanced_bicliques};

/// Every engine query kind equals its legacy counterpart, seed by seed.
#[test]
fn engine_queries_match_legacy_free_functions() {
    for seed in 0..12u64 {
        let g = generators::uniform_edges(10, 10, 42, seed);
        let engine = MbbEngine::new(g.clone());

        // solve
        assert_eq!(
            engine.solve().value.half_size(),
            solve_mbb(&g).half_size(),
            "solve seed {seed}"
        );

        // topk
        for k in [1usize, 3] {
            let legacy = topk_balanced_bicliques(&g, k, None);
            assert!(legacy.complete);
            assert_eq!(
                engine.topk(k).value,
                legacy.bicliques,
                "topk {k} seed {seed}"
            );
        }

        // anchored (vertex and edge)
        for u in 0..4u32 {
            let (legacy, _) = anchored_mbb(&g, Vertex::left(u));
            let session = engine.anchored(Vertex::left(u));
            assert_eq!(
                session.value.half_size(),
                legacy.half_size(),
                "anchored L{u} seed {seed}"
            );
        }
        if let Some((u, v)) = g.edges().next() {
            let legacy = anchored_mbb_edge(&g, u, v).expect("edge exists").0;
            let session = engine.anchored_edge(u, v).value.expect("edge exists");
            assert_eq!(session.half_size(), legacy.half_size(), "edge seed {seed}");
        }

        // weighted (pseudo-random but deterministic weights)
        let weights: Vec<u64> = (0..g.num_vertices() as u64)
            .map(|i| (i * 7 + seed) % 13)
            .collect();
        let (_, legacy_weight) = weighted_mbb(&g, &weights);
        assert_eq!(
            engine.weighted(&weights).value.weight,
            legacy_weight,
            "weighted seed {seed}"
        );

        // meb
        assert_eq!(
            engine.meb().value.edges(),
            maximum_edge_biclique(&g).edges(),
            "meb seed {seed}"
        );

        // frontier
        let legacy = SizeFrontier::of(&g, None);
        assert!(legacy.complete);
        assert_eq!(engine.frontier().value, legacy, "frontier seed {seed}");

        // size-constrained (existence must agree; witnesses may differ)
        for (a, b) in [(1usize, 1usize), (2, 2), (3, 2), (4, 4)] {
            assert_eq!(
                engine.size_constrained(a, b).value.is_some(),
                find_size_constrained(&g, a, b).is_some(),
                "size ({a},{b}) seed {seed}"
            );
        }

        // enumerate
        let (legacy, complete) = all_maximal_bicliques(&g, &EnumConfig::default());
        assert!(complete);
        assert_eq!(
            engine.enumerate(EnumConfig::default()).value.bicliques,
            legacy,
            "enumerate seed {seed}"
        );
    }
}

/// One engine, three query kinds, the bidegeneracy order and bicore
/// decomposition computed exactly once. The graph's solve goes past
/// stage 1; a solve that stage 1 settles would never build the order.
#[test]
fn one_session_builds_shared_indices_once() {
    let g = generators::uniform_edges(50, 50, 300, 7);
    let engine = MbbEngine::new(g);
    assert_ne!(engine.solve().stats.stage, Stage::S1);
    engine.topk(3);
    engine.anchored(Vertex::left(0));
    let index = engine.index_stats();
    assert_eq!(index.orders_computed, 1, "{index:?}");
    assert_eq!(index.bicores_computed, 1, "{index:?}");
    // Re-solving reuses instead of recomputing.
    let again = engine.solve();
    assert_eq!(again.stats.index.orders_computed, 1);
    assert!(again.stats.index.orders_reused >= 1);
}

/// A Table-4-scale dense instance (256×256, 80% density) cannot finish in
/// 50 ms; the deadline must surface `DeadlineExceeded` with a non-empty
/// best-so-far biclique, within a bounded overshoot.
#[test]
fn deadline_on_dense_instance_returns_best_so_far() {
    let g = generators::dense_uniform(256, 256, 0.8, 4);
    let engine = MbbEngine::new(g);
    let deadline = Duration::from_millis(50);
    let start = Instant::now();
    let result = engine.query().deadline(deadline).solve();
    let elapsed = start.elapsed();
    assert_eq!(result.termination, Termination::DeadlineExceeded);
    assert!(
        !result.value.is_empty(),
        "stage-1 heuristic guarantees a non-empty incumbent"
    );
    assert!(result.value.is_valid(engine.graph()));
    // Bounded overshoot: the budget is checked per search node and per
    // bridged centre; allow generous slack for slow CI machines, but the
    // 256×256 solve would take far longer than this uncapped.
    assert!(
        elapsed < deadline + Duration::from_secs(5),
        "overshoot: {elapsed:?}"
    );
}

/// Cancellation from another thread stops a running solve promptly and
/// reports `Termination::Cancelled` with a valid best-so-far result.
#[test]
fn cancellation_mid_solve_returns_best_so_far() {
    let g = generators::dense_uniform(256, 256, 0.8, 9);
    let engine = MbbEngine::new(g);
    let token = CancelToken::new();
    let canceller = token.clone();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            canceller.cancel();
        });
        let start = Instant::now();
        let result = engine.query().cancel_token(token).solve();
        let elapsed = start.elapsed();
        assert_eq!(result.termination, Termination::Cancelled);
        assert!(!result.value.is_empty());
        assert!(result.value.is_valid(engine.graph()));
        assert!(
            elapsed < Duration::from_secs(10),
            "hung after cancel: {elapsed:?}"
        );
    });
}

/// Budgets flow through non-solve queries too: an expired deadline on an
/// enumeration-backed query terminates as `DeadlineExceeded`, never hangs.
#[test]
fn deadline_applies_to_enumeration_backed_queries() {
    let g = generators::dense_uniform(28, 28, 0.75, 2);
    let engine = MbbEngine::new(g);
    let result = engine
        .query()
        .deadline(Duration::from_millis(10))
        .frontier();
    if !result.termination.is_complete() {
        assert!(!result.value.complete);
    }
    let topk = engine.query().deadline(Duration::from_millis(10)).topk(5);
    // Either it finished in 10ms or it reports the deadline — both fine;
    // what must never happen is a silent "complete" truncation.
    if !topk.termination.is_complete() {
        assert_eq!(topk.termination, Termination::DeadlineExceeded);
    }
}

/// Warm starts through the builder match the legacy incumbent path.
#[test]
fn warm_started_session_solves_are_exact() {
    for seed in 0..8u64 {
        let g = generators::uniform_edges(12, 12, 60, seed);
        let engine = MbbEngine::new(g.clone());
        let cold = engine.solve();
        let warm = engine.query().warm_start(cold.value.clone()).solve();
        assert_eq!(
            warm.value.half_size(),
            cold.value.half_size(),
            "seed {seed}"
        );
        assert!(warm.value.is_valid(&g));
    }
}

//! The unified `MbbEngine` query API, checked against independent
//! oracles.
//!
//! Three concerns:
//!
//! 1. **correctness** — every engine query kind must agree, on random
//!    graphs, with an oracle that shares no search code with it: brute
//!    force for `solve`, and for every other kind a value derived from
//!    the maximal bicliques that the FMBE-style scoped enumerator
//!    (`mbb_tests::enumerate_scoped`) lists;
//! 2. **budgets** — `DeadlineExceeded` / `Cancelled` terminations must
//!    return the best-so-far biclique, fire within a bounded overshoot,
//!    and never pass off a truncated answer as complete;
//! 3. **index reuse** — one session computes the bidegeneracy order and
//!    bicore decomposition exactly once across query kinds, and each
//!    query reports its own use of it.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use mbb_baselines::exhaustive::brute_force_mbb;
use mbb_bigraph::generators;
use mbb_bigraph::graph::{BipartiteGraph, Vertex};
use mbb_core::budget::{CancelToken, Termination};
use mbb_core::engine::MbbEngine;
use mbb_core::enumerate::{EnumConfig, MaximalBiclique};
use mbb_core::stats::{IndexStats, Stage};
use mbb_tests::enumerate_scoped::all_maximal_bicliques_scoped;

/// The best `min(|A|, |B|)` over the maximal bicliques `keep` accepts.
/// Every balanced biclique lies inside a maximal one, and a maximal
/// `(A, B)` holds a balanced biclique of half-size `min(|A|, |B|)`
/// through any of its vertices.
fn best_half(maximal: &[MaximalBiclique], keep: impl Fn(&MaximalBiclique) -> bool) -> usize {
    maximal
        .iter()
        .filter(|b| keep(b))
        .map(MaximalBiclique::balanced_size)
        .max()
        .unwrap_or(0)
}

/// The heaviest balanced biclique's weight. Inside a maximal `(A, B)` the
/// best balanced choice is the `m = min(|A|, |B|)` heaviest vertices of
/// each side (weights are non-negative); maximise over all of them.
/// Weights are indexed by global id: left vertices first, then right.
fn heaviest_balanced(g: &BipartiteGraph, maximal: &[MaximalBiclique], weights: &[u64]) -> u64 {
    let top = |mut side: Vec<u64>, m: usize| -> u64 {
        side.sort_unstable_by(|a, b| b.cmp(a));
        side[..m].iter().sum()
    };
    maximal
        .iter()
        .map(|b| {
            let m = b.balanced_size();
            let left = b.left.iter().map(|&u| weights[u as usize]).collect();
            let right = b
                .right
                .iter()
                .map(|&v| weights[g.num_left() + v as usize])
                .collect();
            top(left, m) + top(right, m)
        })
        .max()
        .unwrap_or(0)
}

/// The `(|A|, |B|)` pairs no other maximal biclique dominates, sorted by
/// `|A|`.
fn pareto_pairs(maximal: &[MaximalBiclique]) -> Vec<(usize, usize)> {
    let sizes: Vec<(usize, usize)> = maximal
        .iter()
        .map(|b| (b.left.len(), b.right.len()))
        .collect();
    let mut pairs: Vec<(usize, usize)> = sizes
        .iter()
        .copied()
        .filter(|&(a, b)| {
            !sizes
                .iter()
                .any(|&(a2, b2)| (a2, b2) != (a, b) && a2 >= a && b2 >= b)
        })
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// Every engine query kind equals its independent oracle, seed by seed.
#[test]
fn engine_queries_match_independent_oracles() {
    for seed in 0..12u64 {
        let g = generators::uniform_edges(10, 10, 42, seed);
        let engine = MbbEngine::new(g.clone());
        let (maximal, complete) = all_maximal_bicliques_scoped(&g, &EnumConfig::default());
        assert!(complete);

        // solve
        assert_eq!(
            engine.solve().value.half_size(),
            brute_force_mbb(&g).half_size(),
            "solve seed {seed}"
        );

        // topk: the k largest balanced sizes
        let mut sizes: Vec<usize> = maximal.iter().map(MaximalBiclique::balanced_size).collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        for k in [1usize, 3] {
            let top: Vec<usize> = engine
                .topk(k)
                .value
                .iter()
                .map(MaximalBiclique::balanced_size)
                .collect();
            assert_eq!(top, sizes[..k.min(sizes.len())], "topk {k} seed {seed}");
        }

        // anchored (vertex and edge)
        for i in 0..4u32 {
            assert_eq!(
                engine.anchored(Vertex::left(i)).value.half_size(),
                best_half(&maximal, |b| b.left.contains(&i)),
                "anchored L{i} seed {seed}"
            );
            assert_eq!(
                engine.anchored(Vertex::right(i)).value.half_size(),
                best_half(&maximal, |b| b.right.contains(&i)),
                "anchored R{i} seed {seed}"
            );
        }
        for (u, v) in g.edges().take(4) {
            let session = engine.anchored_edge(u, v).value.expect("edge exists");
            assert_eq!(
                session.half_size(),
                best_half(&maximal, |b| b.left.contains(&u) && b.right.contains(&v)),
                "edge ({u},{v}) seed {seed}"
            );
        }

        // weighted (pseudo-random but deterministic weights)
        let weights: Vec<u64> = (0..g.num_vertices() as u64)
            .map(|i| (i * 7 + seed) % 13)
            .collect();
        assert_eq!(
            engine.weighted(&weights).value.weight,
            heaviest_balanced(&g, &maximal, &weights),
            "weighted seed {seed}"
        );

        // meb: the largest |A|·|B|
        assert_eq!(
            engine.meb().value.edges(),
            maximal
                .iter()
                .map(MaximalBiclique::edge_count)
                .max()
                .unwrap_or(0),
            "meb seed {seed}"
        );

        // frontier
        let frontier = engine.frontier().value;
        assert!(frontier.complete);
        assert_eq!(
            frontier.pairs,
            pareto_pairs(&maximal),
            "frontier seed {seed}"
        );

        // size-constrained (existence must agree; any witness must be one)
        for (a, b) in [(1usize, 1usize), (2, 2), (3, 2), (2, 4), (4, 4)] {
            let exists = maximal
                .iter()
                .any(|m| m.left.len() >= a && m.right.len() >= b);
            let witness = engine.size_constrained(a, b).value;
            assert_eq!(witness.is_some(), exists, "size ({a},{b}) seed {seed}");
            if let Some(w) = witness {
                assert!(w.left.len() >= a && w.right.len() >= b);
                assert!(
                    g.is_biclique(&w.left, &w.right),
                    "size ({a},{b}) seed {seed}"
                );
            }
        }

        // enumerate: the same set, each biclique once
        let listed = engine.enumerate(EnumConfig::default()).value.bicliques;
        let as_set = |all: &[MaximalBiclique]| all.iter().cloned().collect::<HashSet<_>>();
        assert_eq!(listed.len(), maximal.len(), "enumerate seed {seed}");
        assert_eq!(as_set(&listed), as_set(&maximal), "enumerate seed {seed}");
    }
}

/// One engine, three query kinds, the bidegeneracy order computed exactly
/// once. The graph's solve goes past
/// stage 1; a solve that stage 1 settles would never build the order.
#[test]
fn one_session_builds_shared_indices_once() {
    let g = generators::uniform_edges(50, 50, 300, 7);
    let engine = MbbEngine::new(g);
    let first = engine.solve().stats;
    assert_ne!(first.stage, Stage::S1);
    assert_eq!(first.index.orders_computed, 1, "{:?}", first.index);
    // Only solves read the order.
    assert_eq!(engine.topk(3).stats.index, IndexStats::default());
    let anchored = engine.anchored(Vertex::left(0));
    assert_eq!(anchored.stats.index, IndexStats::default());
    // Re-solving reuses instead of recomputing.
    let again = engine.solve();
    assert_eq!(again.stats.index.orders_computed, 0);
    assert_eq!(again.stats.index.orders_reused, 1);
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

/// Budgets flow through the enumeration-backed queries, and a cut is
/// never silent: each payload's own `complete` flag agrees with its
/// termination. Enumerating every maximal biclique of this graph takes
/// far longer than 1 ms, so at least one of the queries must be cut.
#[test]
fn deadline_applies_to_enumeration_backed_queries() {
    let g = generators::uniform_edges(60, 60, 2200, 3);
    let engine = MbbEngine::new(g);
    let deadline = Duration::from_millis(1);
    let frontier = engine.query().deadline(deadline).frontier();
    assert_eq!(frontier.value.complete, frontier.termination.is_complete());
    let enumeration = engine
        .query()
        .deadline(deadline)
        .enumerate(EnumConfig::default());
    assert_eq!(
        enumeration.value.outcome.complete,
        enumeration.termination.is_complete()
    );
    assert!(
        !frontier.termination.is_complete() || !enumeration.termination.is_complete(),
        "a 1 ms deadline cut neither query"
    );
    let topk = engine.query().deadline(deadline).topk(5);
    if !topk.termination.is_complete() {
        assert_eq!(topk.termination, Termination::DeadlineExceeded);
    }
}

/// A warm start through the builder never changes the optimum.
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

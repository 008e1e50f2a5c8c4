//! End-to-end coverage of the `mbb-serve` front-end: batch answers must
//! equal direct per-engine queries, terminations must be honest under
//! mixed budgets, and routing must be deterministic.

use std::time::Duration;

use mbb_bigraph::generators;
use mbb_bigraph::graph::{BipartiteGraph, Vertex};
use mbb_core::budget::{CancelToken, Termination};
use mbb_core::engine::MbbEngine;
use mbb_core::enumerate::EnumConfig;
use mbb_serve::jsonl::{encode_report, parse_requests};
use mbb_serve::{BatchExecutor, QueryKind, QueryOutcome, QueryRequest, ShardedFleet};
use proptest::prelude::*;
use serde_json::Value;

/// The three shard graphs used by the acceptance test. Regenerating
/// from the same seeds gives the "direct" comparison engines identical
/// graphs without sharing any state with the fleet. Each one's solve
/// reaches stage 2, so the repeated solve reuses the session order.
fn shard_graphs() -> Vec<(&'static str, BipartiteGraph)> {
    vec![
        ("alpha", generators::uniform_edges(15, 15, 70, 8)),
        ("beta", generators::uniform_edges(12, 15, 58, 22)),
        ("gamma", generators::uniform_edges(16, 11, 55, 23)),
    ]
}

/// All nine query kinds against one shard. `(u, v)` is a known edge of
/// the shard graph so the anchored-edge query has a witness.
fn all_kinds(graph: &BipartiteGraph) -> Vec<QueryKind> {
    let (u, v) = graph.edges().next().expect("test graphs have edges");
    vec![
        QueryKind::Solve,
        QueryKind::Topk { k: 3 },
        QueryKind::Anchored {
            vertex: Vertex::left(u),
        },
        QueryKind::AnchoredEdge { u, v },
        QueryKind::Weighted {
            weights: vec![1; graph.num_vertices()],
        },
        QueryKind::Meb,
        QueryKind::Frontier,
        QueryKind::SizeConstrained { a: 2, b: 2 },
        QueryKind::Enumerate {
            min_left: 1,
            min_right: 1,
            max_results: None,
        },
        // A repeat solve: same answer, but served from the session's
        // cached indices — the reuse the batch report must surface.
        QueryKind::Solve,
    ]
}

/// Runs `kind` directly on `engine` (no service in between) and returns
/// `(headline size, termination)` in the same normalisation the batch
/// outcome uses.
fn direct(engine: &MbbEngine, kind: &QueryKind) -> (usize, Termination) {
    match kind {
        QueryKind::Solve => {
            let r = engine.solve();
            (r.value.half_size(), r.termination)
        }
        QueryKind::Topk { k } => {
            let r = engine.topk(*k);
            (
                r.value.iter().map(|b| b.balanced_size()).max().unwrap_or(0),
                r.termination,
            )
        }
        QueryKind::Anchored { vertex } => {
            let r = engine.anchored(*vertex);
            (r.value.half_size(), r.termination)
        }
        QueryKind::AnchoredEdge { u, v } => {
            let r = engine.anchored_edge(*u, *v);
            (r.value.map_or(0, |b| b.half_size()), r.termination)
        }
        QueryKind::Weighted { weights } => {
            let r = engine.weighted(weights);
            (r.value.weight as usize, r.termination)
        }
        QueryKind::Meb => {
            let r = engine.meb();
            (r.value.edges(), r.termination)
        }
        QueryKind::Frontier => {
            let r = engine.frontier();
            (r.value.mbb_half(), r.termination)
        }
        QueryKind::SizeConstrained { a, b } => {
            let r = engine.size_constrained(*a, *b);
            (
                r.value.map_or(0, |w| w.left.len().min(w.right.len())),
                r.termination,
            )
        }
        QueryKind::Enumerate { .. } => {
            let r = engine.enumerate(EnumConfig::default());
            (
                r.value
                    .bicliques
                    .iter()
                    .map(|b| b.balanced_size())
                    .max()
                    .unwrap_or(0),
                r.termination,
            )
        }
    }
}

/// The acceptance bar: a 3-shard fleet batch of ≥ 20 mixed-kind,
/// unbudgeted requests returns results identical — headline sizes and
/// `Termination` — to sequential calls against fresh single engines on
/// the same graphs.
#[test]
fn three_shard_mixed_batch_matches_sequential_single_engine_calls() {
    let mut fleet = ShardedFleet::new();
    for (id, graph) in shard_graphs() {
        fleet.add_shard(id, graph).unwrap();
    }
    let mut requests = Vec::new();
    let mut expected = Vec::new();
    for (id, graph) in shard_graphs() {
        // An isolated engine per shard: the sequential reference path.
        let engine = MbbEngine::new(graph);
        for kind in all_kinds(engine.graph()) {
            expected.push(direct(&engine, &kind));
            requests.push(QueryRequest::new(requests.len() as u64, kind).on_graph(id));
        }
    }
    assert!(requests.len() >= 20, "30 mixed requests expected");

    let executor = BatchExecutor::new(fleet, 3);
    let report = executor.run_batch(requests);
    assert_eq!(report.responses.len(), expected.len());
    for (response, (size, termination)) in report.responses.iter().zip(&expected) {
        assert!(
            !response.outcome.is_rejected(),
            "id {}: {:?}",
            response.id,
            response.outcome
        );
        assert_eq!(
            response.outcome.headline_size(),
            *size,
            "id {} ({})",
            response.id,
            response.kind
        );
        // Unbudgeted requests must agree on termination too (Complete).
        assert_eq!(response.termination, *termination, "id {}", response.id);
        assert!(response.termination.is_complete(), "id {}", response.id);
    }
    // Every shard served its ten requests (nine kinds + repeat solve).
    for shard in &report.stats.per_shard {
        assert_eq!(shard.requests, 10, "shard {}", shard.shard);
    }
    // Repeated queries on one session scored index reuse.
    assert!(report.stats.index_reuse_hits >= 3);
}

/// Solved payloads coming out of a batch are valid bicliques of the
/// shard graph they were routed to.
#[test]
fn batch_payloads_are_valid_bicliques() {
    let mut fleet = ShardedFleet::new();
    for (id, graph) in shard_graphs() {
        fleet.add_shard(id, graph).unwrap();
    }
    let executor = BatchExecutor::new(fleet, 2);
    let requests: Vec<QueryRequest> = shard_graphs()
        .iter()
        .enumerate()
        .map(|(i, (id, _))| QueryRequest::new(i as u64, QueryKind::Solve).on_graph(*id))
        .collect();
    let report = executor.run_batch(requests);
    for (i, response) in report.responses.iter().enumerate() {
        let engine = executor.fleet().engine(i);
        let graph = engine.graph();
        match &response.outcome {
            QueryOutcome::Solve(b) => assert!(b.is_valid(graph), "shard {i}"),
            other => panic!("unexpected outcome {other:?}"),
        }
    }
}

/// One batch whose requests end in all three `Termination` variants:
/// unbudgeted → `Complete`, an already-expired deadline →
/// `DeadlineExceeded`, an already-fired cancel token → `Cancelled`.
#[test]
fn mixed_deadline_batch_hits_all_three_terminations() {
    // Dense enough that stage 1 cannot prove optimality, so budget
    // checks actually observe the expired deadline / fired token.
    let mut fleet = ShardedFleet::new();
    fleet
        .add_shard("dense", generators::dense_uniform(40, 40, 0.8, 3))
        .unwrap();
    let token = CancelToken::new();
    token.cancel();
    let executor = BatchExecutor::new(fleet, 2);
    let report = executor.run_batch(vec![
        QueryRequest::new(0, QueryKind::Solve).on_graph("dense"),
        QueryRequest::new(1, QueryKind::Solve)
            .on_graph("dense")
            .with_deadline(Duration::ZERO),
        QueryRequest::new(2, QueryKind::Solve)
            .on_graph("dense")
            .with_cancel(token),
    ]);
    let terminations: Vec<Termination> = report.responses.iter().map(|r| r.termination).collect();
    assert_eq!(
        terminations,
        vec![
            Termination::Complete,
            Termination::DeadlineExceeded,
            Termination::Cancelled,
        ]
    );
    // Anytime semantics: the complete solve dominates the budgeted ones.
    let complete = report.responses[0].outcome.headline_size();
    for r in &report.responses[1..] {
        assert!(r.outcome.headline_size() <= complete);
    }
}

/// A real batch's JSONL output round-trips: every line parses as one
/// JSON object, ids come back in request order, and terminations use
/// the documented wire strings.
#[test]
fn jsonl_batch_output_round_trips() {
    let text = r#"
{"id": 1, "graph": "a", "kind": "solve"}
{"id": 2, "graph": "a", "kind": "topk", "k": 2}
{"id": 3, "graph": "b", "kind": "frontier", "deadline_ms": 5000}
{"id": 4, "kind": "meb"}
{"id": 5, "graph": "nowhere", "kind": "solve"}
"#;
    let requests = parse_requests(text).unwrap();
    assert_eq!(requests.len(), 5);

    let mut fleet = ShardedFleet::new();
    fleet
        .add_shard("a", generators::uniform_edges(10, 10, 45, 31))
        .unwrap()
        .add_shard("b", generators::uniform_edges(10, 10, 45, 32))
        .unwrap();
    let executor = BatchExecutor::new(fleet, 2);
    let report = executor.run_batch(requests);
    let output = encode_report(&report, true);
    let lines: Vec<&str> = output.lines().collect();
    assert_eq!(lines.len(), 6, "5 responses + stats line");

    for (line, expected_id) in lines[..5].iter().zip(1u64..) {
        let value: Value = serde_json::from_str(line).unwrap();
        assert_eq!(value["id"].as_u64(), Some(expected_id));
        if expected_id == 5 {
            assert!(value["error"].as_str().unwrap().contains("nowhere"));
        } else {
            let termination = value["termination"].as_str().unwrap();
            assert!(termination.parse::<Termination>().is_ok(), "{termination}");
        }
    }
    let stats: Value = serde_json::from_str(lines[5]).unwrap();
    assert_eq!(stats["batch"]["requests"].as_u64(), Some(5));
    assert_eq!(stats["batch"]["rejected"].as_u64(), Some(1));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Batch execution is a pure scheduling layer: for any small random
    // graphs, batch answers equal direct engine answers, at any worker
    // count.
    #[test]
    fn batch_results_equal_direct_engine_queries(
        seed_a in 0u64..500,
        seed_b in 0u64..500,
        workers in 1usize..4,
    ) {
        let graph_a = generators::uniform_edges(9, 9, 36, seed_a);
        let graph_b = generators::uniform_edges(8, 10, 34, seed_b);
        let mut fleet = ShardedFleet::new();
        fleet
            .add_shard("a", graph_a.clone())
            .unwrap()
            .add_shard("b", graph_b.clone())
            .unwrap();
        let executor = BatchExecutor::new(fleet, workers);

        let kinds = [
            QueryKind::Solve,
            QueryKind::Topk { k: 2 },
            QueryKind::Frontier,
            QueryKind::Meb,
        ];
        let mut requests = Vec::new();
        let mut expected = Vec::new();
        for (shard, graph) in [("a", &graph_a), ("b", &graph_b)] {
            let engine = MbbEngine::new(graph.clone());
            for kind in &kinds {
                expected.push(direct(&engine, kind));
                requests.push(
                    QueryRequest::new(requests.len() as u64, kind.clone()).on_graph(shard),
                );
            }
        }
        let report = executor.run_batch(requests);
        for (response, (size, termination)) in report.responses.iter().zip(&expected) {
            prop_assert_eq!(response.outcome.headline_size(), *size);
            prop_assert_eq!(response.termination, *termination);
        }
    }

    // Shard routing is deterministic: the same request routes to the
    // same shard across repeated calls and across separately-built
    // fleets with the same shard layout.
    #[test]
    fn shard_routing_is_deterministic(
        ids in proptest::collection::vec(0u64..10_000, 1..30),
        shards in 1usize..5,
    ) {
        let build = || {
            let mut fleet = ShardedFleet::new();
            for s in 0..shards {
                fleet
                    .add_shard(format!("shard-{s}"), generators::uniform_edges(4, 4, 8, s as u64))
                    .unwrap();
            }
            fleet
        };
        let first = build();
        let second = build();
        for &id in &ids {
            let hashed = QueryRequest::new(id, QueryKind::Solve);
            let route = first.route(&hashed).unwrap();
            prop_assert!(route < shards);
            prop_assert_eq!(first.route(&hashed).unwrap(), route);
            prop_assert_eq!(second.route(&hashed).unwrap(), route);
            // Explicit graph ids override the hash and hit exactly.
            let explicit = QueryRequest::new(id, QueryKind::Solve)
                .on_graph(format!("shard-{}", id as usize % shards));
            prop_assert_eq!(first.route(&explicit).unwrap(), id as usize % shards);
        }
    }
}

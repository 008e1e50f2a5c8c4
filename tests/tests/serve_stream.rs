//! Service-level coverage of resident mode (`StreamServer`): streamed
//! answers must equal sequential fresh-engine calls regardless of
//! arrival order, cross-batch EDF must let a late tight deadline
//! overtake queued slack, blown budgets must be shed (never executed,
//! never perturbing others), and a reload must drop zero responses while
//! old-session queries finish on the old graph.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

use mbb_bigraph::generators;
use mbb_bigraph::graph::{BipartiteGraph, Vertex};
use mbb_core::budget::Termination;
use mbb_core::engine::MbbEngine;
use mbb_core::enumerate::EnumConfig;
use mbb_serve::jsonl::encode_request;
use mbb_serve::{
    QueryKind, QueryRequest, ServeStats, ShardedFleet, StreamConfig, StreamEvent, StreamServer,
};
use proptest::prelude::*;

/// The two shard graphs of the equivalence suite; regenerating from the
/// same seeds gives "direct" comparison engines identical graphs with no
/// shared state.
fn shard_graphs() -> Vec<(&'static str, BipartiteGraph)> {
    vec![
        ("alpha", generators::uniform_edges(14, 14, 62, 31)),
        ("beta", generators::uniform_edges(12, 15, 58, 32)),
    ]
}

/// All nine query kinds against one shard graph.
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
    ]
}

/// Runs `kind` directly on `engine` (no service in between), returning
/// `(headline size, termination)` in the batch outcome's normalisation.
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

/// Streams `requests` (as JSONL, in the given order) through a fresh
/// server and returns the collected events plus the final stats.
fn stream(
    config: StreamConfig,
    requests: &[QueryRequest],
) -> (Vec<StreamEvent>, mbb_serve::ServeStats) {
    let mut fleet = ShardedFleet::new();
    for (id, graph) in shard_graphs() {
        fleet.add_shard(id, graph).unwrap();
    }
    let server = StreamServer::new(fleet, config);
    let input: String = requests.iter().map(|r| encode_request(r) + "\n").collect();
    let events = Mutex::new(Vec::new());
    let stats = server.serve_with(input.as_bytes(), |e| events.lock().unwrap().push(e));
    (events.into_inner().unwrap(), stats)
}

/// Fisher–Yates with an LCG: a deterministic arrival-order permutation
/// from one seed (the vendored proptest has no shuffle strategy).
fn permute<T>(items: &mut [T], seed: u64) {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    for i in (1..items.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        items.swap(i, j);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // The tentpole equivalence bar: any arrival order of the full
    // mixed-kind request set over both shards produces responses
    // identical — headline size and `Termination` — to sequential calls
    // on fresh single engines, under a concurrent worker pool.
    #[test]
    fn streamed_responses_match_sequential_fresh_engines(seed in 0u64..10_000) {
        // The expected answer per request id, from fresh engines.
        let mut requests = Vec::new();
        let mut expected = HashMap::new();
        let mut next_id = 1u64;
        for (shard, graph) in shard_graphs() {
            let engine = MbbEngine::new(graph.clone());
            for kind in all_kinds(&graph) {
                expected.insert(next_id, direct(&engine, &kind));
                requests.push(QueryRequest::new(next_id, kind).on_graph(shard));
                next_id += 1;
            }
        }
        permute(&mut requests, seed);

        let (events, stats) = stream(
            StreamConfig { workers: 3, ..StreamConfig::default() },
            &requests,
        );
        prop_assert_eq!(stats.completed, expected.len() as u64);
        prop_assert_eq!(stats.shed, 0);
        prop_assert_eq!(stats.rejected, 0);

        let mut seen = 0usize;
        for event in &events {
            let StreamEvent::Response(response) = event else { continue };
            seen += 1;
            let (size, termination) = expected[&response.id];
            prop_assert!(!response.outcome.is_rejected(), "id {}", response.id);
            prop_assert_eq!(
                response.outcome.headline_size(), size,
                "id {} ({})", response.id, response.kind
            );
            prop_assert_eq!(response.termination, termination, "id {}", response.id);
        }
        prop_assert_eq!(seen, expected.len());
    }
}

/// A long-running request that pins the single worker for its whole
/// `deadline_ms`: full enumeration of a dense 40×40 graph cannot finish,
/// so the engine runs to the deadline and returns a partial result.
fn pin_worker(id: u64, deadline_ms: u64) -> QueryRequest {
    QueryRequest::new(
        id,
        QueryKind::Enumerate {
            min_left: 1,
            min_right: 1,
            max_results: None,
        },
    )
    .on_graph("dense")
    .with_deadline(Duration::from_millis(deadline_ms))
}

/// Streams over a fleet with one dense shard (for `pin_worker`) plus the
/// `alpha` shard, single worker. `queue_depth` is the backpressure bound:
/// 1 forces each admission to wait until the previous request was popped,
/// which pins down *when* requests enter the queue relative to the
/// in-flight one.
fn stream_pinned(
    requests: &[QueryRequest],
    queue_depth: usize,
) -> (Vec<StreamEvent>, mbb_serve::ServeStats) {
    let mut fleet = ShardedFleet::new();
    fleet
        .add_shard("dense", generators::uniform_edges(40, 40, 800, 7))
        .unwrap()
        .add_shard("alpha", generators::uniform_edges(14, 14, 62, 31))
        .unwrap();
    let server = StreamServer::new(
        fleet,
        StreamConfig {
            workers: 1,
            queue_depth,
            ..StreamConfig::default()
        },
    );
    let input: String = requests.iter().map(|r| encode_request(r) + "\n").collect();
    let events = Mutex::new(Vec::new());
    let stats = server.serve_with(input.as_bytes(), |e| events.lock().unwrap().push(e));
    (events.into_inner().unwrap(), stats)
}

/// Cross-batch EDF: while the single worker is pinned, a tight-deadline
/// request arriving *after* a slack one overtakes it.
#[test]
fn later_tight_deadline_overtakes_queued_slack_requests() {
    let requests = vec![
        pin_worker(1, 400),
        // Queued while 1 is in flight, in this arrival order:
        QueryRequest::new(2, QueryKind::Solve)
            .on_graph("dense")
            .with_deadline(Duration::from_secs(30)), // slack
        QueryRequest::new(3, QueryKind::Solve).on_graph("dense"), // no deadline
        QueryRequest::new(4, QueryKind::Solve)
            .on_graph("dense")
            .with_deadline(Duration::from_secs(5)), // tight, arrives last
    ];
    let (events, stats) = stream_pinned(&requests, 1024);
    assert_eq!(stats.completed, 4, "nothing may be dropped or shed");
    assert_eq!(stats.shed, 0);

    let order: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            StreamEvent::Response(r) => Some(r.id),
            _ => None,
        })
        .collect();
    let pos = |id: u64| order.iter().position(|&x| x == id).unwrap();
    // The late-arriving 5s deadline beats the earlier 30s one, which
    // beats the deadline-free request.
    assert!(
        pos(4) < pos(2),
        "tight deadline must overtake slack: {order:?}"
    );
    assert!(pos(2) < pos(3), "any deadline beats none: {order:?}");
}

/// Load shedding, both shed points: a zero budget is refused at
/// admission, an expired-while-queued budget at dispatch — neither is
/// ever executed, and untouched requests come back with exactly the
/// fresh-engine answer.
#[test]
fn blown_budgets_are_shed_without_perturbing_other_responses() {
    let alpha = generators::uniform_edges(14, 14, 62, 31);
    let want = direct(&MbbEngine::new(alpha), &QueryKind::Solve);
    let requests = vec![
        pin_worker(1, 300),
        // Dead on arrival: zero budget.
        QueryRequest::new(2, QueryKind::Solve)
            .on_graph("alpha")
            .with_deadline(Duration::ZERO),
        // Dies in the queue: 50ms budget behind a 300ms pin.
        QueryRequest::new(3, QueryKind::Solve)
            .on_graph("dense")
            .with_deadline(Duration::from_millis(50)),
        // Must be answered exactly as a fresh engine would.
        QueryRequest::new(4, QueryKind::Solve).on_graph("alpha"),
    ];
    // queue_depth 1: request 3 cannot even be admitted until the worker
    // has picked up the pin, so its 50ms budget deterministically expires
    // behind the pin's 300ms of service.
    let (events, stats) = stream_pinned(&requests, 1);
    assert_eq!(stats.shed, 2);
    assert_eq!(stats.completed, 2); // the pin and request 4

    let mut shed_reasons = HashMap::new();
    for event in &events {
        match event {
            StreamEvent::Shed { id, reason, .. } => {
                shed_reasons.insert(*id, reason.clone());
            }
            StreamEvent::Response(r) => {
                assert!(
                    r.id != 2 && r.id != 3,
                    "shed request {} must never produce a response",
                    r.id
                );
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
    assert!(shed_reasons[&2].contains("arrival"), "{shed_reasons:?}");
    assert!(shed_reasons[&3].contains("queued"), "{shed_reasons:?}");

    let survivor = events
        .iter()
        .find_map(|e| match e {
            StreamEvent::Response(r) if r.id == 4 => Some(r.clone()),
            _ => None,
        })
        .expect("request 4 must be answered");
    assert_eq!(
        (survivor.outcome.headline_size(), survivor.termination),
        want,
        "shedding must not perturb other responses"
    );
}

/// Graceful reload: swap a shard's graph while a query is in flight on
/// it. Zero dropped responses; the in-flight query and everything
/// admitted before the control line finish on the old session (old
/// graph's answer), everything after sees the new graph.
#[test]
fn reload_while_in_flight_drops_nothing_and_splits_old_from_new() {
    let dir = std::env::temp_dir().join(format!("mbb-serve-stream-reload-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Old graph: K3,3 (solve half = 3). New graph: K5,5 (solve half = 5).
    let old_graph =
        BipartiteGraph::from_edges(3, 3, (0u32..3).flat_map(|u| (0u32..3).map(move |v| (u, v))))
            .unwrap();
    let new_graph =
        BipartiteGraph::from_edges(5, 5, (0u32..5).flat_map(|u| (0u32..5).map(move |v| (u, v))))
            .unwrap();
    let new_path = dir.join("k55.txt");
    mbb_bigraph::io::write_edge_list_file(&new_graph, &new_path).unwrap();

    let mut fleet = ShardedFleet::new();
    fleet
        .add_shard("g", old_graph)
        .unwrap()
        .add_shard("dense", generators::uniform_edges(40, 40, 800, 7))
        .unwrap();
    let server = StreamServer::new(
        fleet,
        StreamConfig {
            workers: 1,
            ..StreamConfig::default()
        },
    )
    .with_store(mbb_store::GraphStore::new());

    // Single worker: the pin is in flight on "dense" while everything
    // after it — two old-graph solves, the reload, two post-reload
    // solves — is admitted. The queued pre-reload solves bound the old
    // session at admission, so the reload cannot retroactively change
    // their answer.
    let mut input = String::new();
    input.push_str(&(encode_request(&pin_worker(1, 300)) + "\n"));
    for id in [2, 3] {
        input.push_str(
            &(encode_request(&QueryRequest::new(id, QueryKind::Solve).on_graph("g")) + "\n"),
        );
    }
    input.push_str(&format!(
        "{{\"control\": \"reload\", \"graph\": \"g\", \"source\": {:?}}}\n",
        new_path.to_str().unwrap()
    ));
    for id in [4, 5] {
        input.push_str(
            &(encode_request(&QueryRequest::new(id, QueryKind::Solve).on_graph("g")) + "\n"),
        );
    }
    input.push_str("{\"control\": \"drain\"}\n");

    let events = Mutex::new(Vec::new());
    let stats = server.serve_with(input.as_bytes(), |e| events.lock().unwrap().push(e));
    let events = events.into_inner().unwrap();

    // Zero dropped: every admitted request completed, none shed.
    assert_eq!(stats.admitted, 5);
    assert_eq!(stats.completed, 5);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.reloads, 1);
    assert!(events
        .iter()
        .any(|e| matches!(e, StreamEvent::Drained { completed: 5 })));

    // The reload was acknowledged as a fresh (non-forked) session.
    let ack = events
        .iter()
        .find_map(|e| match e {
            StreamEvent::ReloadAck { graph, result } => Some((graph.clone(), result.clone())),
            _ => None,
        })
        .expect("reload must be acknowledged");
    assert_eq!(ack.0, "g");
    assert!(!ack.1.expect("reload must succeed").forked);

    // Pre-reload queries answered on the old graph, post-reload on the
    // new one.
    let half = |id: u64| {
        events
            .iter()
            .find_map(|e| match e {
                StreamEvent::Response(r) if r.id == id => Some(r.outcome.headline_size()),
                _ => None,
            })
            .unwrap_or_else(|| panic!("response {id} dropped"))
    };
    assert_eq!(half(2), 3, "queued pre-reload query must see the old graph");
    assert_eq!(half(3), 3, "queued pre-reload query must see the old graph");
    assert_eq!(half(4), 5, "post-reload query must see the new graph");
    assert_eq!(half(5), 5, "post-reload query must see the new graph");

    // The per-shard stats surface the swap.
    let shard_g = stats.per_shard.iter().find(|s| s.shard == "g").unwrap();
    assert_eq!(shard_g.reloads, 1);
    assert_eq!(shard_g.served, 4);
    std::fs::remove_dir_all(&dir).ok();
}

/// `index_reuse_hits` counts the run's solves that read a cached order. A
/// reload of an identical graph keeps the shard's session, so the count
/// goes on rising across it.
#[test]
fn identical_reload_keeps_the_session_and_its_reuse_hits() {
    let dir = std::env::temp_dir().join(format!("mbb-serve-stream-reuse-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // Its solve reaches stage 2, so a second solve reuses the order the
    // first one built.
    let graph = generators::uniform_edges(15, 15, 70, 8);
    let path = dir.join("g.txt");
    mbb_bigraph::io::write_edge_list_file(&graph, &path).unwrap();

    let mut fleet = ShardedFleet::new();
    fleet.add_shard("g", graph).unwrap();
    let server = StreamServer::new(
        fleet,
        StreamConfig {
            workers: 1,
            ..StreamConfig::default()
        },
    )
    .with_store(mbb_store::GraphStore::new());
    let session = server.fleet().engine(0);

    let solve = |id| encode_request(&QueryRequest::new(id, QueryKind::Solve).on_graph("g")) + "\n";
    let stats = "{\"control\": \"drain\"}\n{\"control\": \"stats\"}\n";
    let mut input = solve(1) + &solve(2) + stats;
    input.push_str(&format!(
        "{{\"control\": \"reload\", \"graph\": \"g\", \"source\": {:?}}}\n",
        path.to_str().unwrap()
    ));
    input.push_str(stats);
    input.push_str(&(solve(3) + &solve(4) + stats));

    let events = Mutex::new(Vec::new());
    server.serve_with(input.as_bytes(), |e| events.lock().unwrap().push(e));
    let events = events.into_inner().unwrap();
    let hits: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            StreamEvent::Stats(s) => Some(s.index_reuse_hits),
            _ => None,
        })
        .collect();
    // Solve 2 reuses solve 1's order. The reload keeps the session, order
    // and all, so solves 3 and 4 reuse it too.
    assert_eq!(hits, [1, 1, 3]);
    assert!(events.iter().any(|e| matches!(
        e,
        StreamEvent::ReloadAck { result: Ok(outcome), .. } if outcome.forked
    )));
    assert!(std::sync::Arc::ptr_eq(&session, &server.fleet().engine(0)));
    std::fs::remove_dir_all(&dir).ok();
}

/// `reloads` counts the run's own reloads: a later run on the same server
/// starts from zero, whatever earlier runs reloaded.
#[test]
fn reloads_count_only_the_runs_own_reloads() {
    let dir = std::env::temp_dir().join(format!("mbb-serve-stream-reloads-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let graph = generators::uniform_edges(15, 15, 70, 8);
    let path = dir.join("g.txt");
    mbb_bigraph::io::write_edge_list_file(&graph, &path).unwrap();

    let mut fleet = ShardedFleet::new();
    fleet.add_shard("g", graph).unwrap();
    let server =
        StreamServer::new(fleet, StreamConfig::default()).with_store(mbb_store::GraphStore::new());
    let reload = format!(
        "{{\"control\": \"reload\", \"graph\": \"g\", \"source\": {:?}}}\n",
        path.to_str().unwrap()
    );
    let read = |stats: ServeStats| (stats.reloads, stats.per_shard[0].reloads);
    let runs = [
        read(server.serve_with(reload.as_bytes(), |_| {})),
        read(server.serve_with(&b""[..], |_| {})),
        read(server.run_batch(Vec::new()).stats),
    ];
    assert_eq!(runs, [(1, 1), (0, 0), (0, 0)]);
    std::fs::remove_dir_all(&dir).ok();
}

/// A run counts only its own requests: solves made directly on the fleet
/// while the run is open do not reach its `index_reuse_hits`.
#[test]
fn direct_solves_during_a_run_do_not_count_as_its_reuse() {
    let mut fleet = ShardedFleet::new();
    fleet
        .add_shard("g", generators::uniform_edges(15, 15, 70, 8))
        .unwrap();
    let server = StreamServer::new(fleet, StreamConfig::default());
    // Warm the shard: this solve reaches stage 2 and builds the order.
    let warm = server.fleet().engine(0).solve();
    assert_eq!(warm.stats.index.orders_computed, 1);

    let anchored = encode_request(
        &QueryRequest::new(
            1,
            QueryKind::Anchored {
                vertex: Vertex::left(0),
            },
        )
        .on_graph("g"),
    ) + "\n";
    let direct = Mutex::new(0);
    let stats = server.serve_with(anchored.as_bytes(), |event| {
        if matches!(event, StreamEvent::Response(_)) {
            for _ in 0..3 {
                let solved = server.fleet().engine(0).solve();
                *direct.lock().unwrap() += solved.stats.index.orders_reused;
            }
        }
    });
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.index_reuse_hits, 0);
    assert_eq!(stats.per_shard[0].index_reuse_hits, 0);
    assert_eq!(*direct.lock().unwrap(), 3, "the direct solves did reuse");
}

/// `{"control": "metrics"}` round trip: after a drain, the metrics
/// event must carry (a) the same counter snapshot the `stats` verb
/// reports, (b) latency histograms whose counts equal the completed
/// requests, with monotone quantiles, and (c) a wire encoding exposing
/// the quantile fields in milliseconds under the frozen `"metrics"`
/// envelope — while the `stats` sub-object stays byte-compatible with
/// the standalone verb (same builder, so they cannot drift).
#[test]
fn metrics_control_reports_quantiles_and_matches_stats() {
    let graph =
        BipartiteGraph::from_edges(3, 3, (0u32..3).flat_map(|u| (0u32..3).map(move |v| (u, v))))
            .unwrap();
    let mut fleet = ShardedFleet::new();
    fleet.add_shard("g", graph).unwrap();
    let server = StreamServer::new(
        fleet,
        StreamConfig {
            workers: 1,
            ..StreamConfig::default()
        },
    );

    let mut input = String::new();
    for id in [1, 2, 3] {
        input.push_str(
            &(encode_request(&QueryRequest::new(id, QueryKind::Solve).on_graph("g")) + "\n"),
        );
    }
    // Drain first so the worker has retired everything: the metrics
    // snapshot that follows is then deterministic.
    input.push_str("{\"control\": \"drain\"}\n");
    input.push_str("{\"control\": \"metrics\"}\n");
    input.push_str("{\"control\": \"stats\"}\n");

    let events = Mutex::new(Vec::new());
    server.serve_with(input.as_bytes(), |e| events.lock().unwrap().push(e));
    let events = events.into_inner().unwrap();

    let report = events
        .iter()
        .find_map(|e| match e {
            StreamEvent::Metrics(m) => Some(m.clone()),
            _ => None,
        })
        .expect("metrics control must be answered");
    let stats = events
        .iter()
        .find_map(|e| match e {
            StreamEvent::Stats(s) => Some(s.clone()),
            _ => None,
        })
        .expect("stats control must be answered");

    // (a) The embedded counters match the standalone stats verb.
    assert_eq!(report.stats.admitted, 3);
    assert_eq!(report.stats.completed, 3);
    assert_eq!(report.stats.admitted, stats.admitted);
    assert_eq!(report.stats.completed, stats.completed);
    assert_eq!(report.stats.shed, stats.shed);

    // (b) Histogram counts reconcile with the counters; quantiles are
    // monotone and the top quantile covers the recorded max.
    for (name, h) in [
        ("queue_wait", &report.queue_wait),
        ("service", &report.service),
    ] {
        assert_eq!(h.count, 3, "{name}: one sample per completed request");
        assert!(h.p50() <= h.p90(), "{name}");
        assert!(h.p90() <= h.p99(), "{name}");
        assert!(
            h.quantile(1.0) >= h.max,
            "{name}: q1.0 covers the max bucket"
        );
    }
    assert!(report.service.sum > 0, "three solves take nonzero time");

    // (c) Wire shape: quantile fields in ms under "metrics", stats
    // sub-object identical to the standalone verb's payload.
    let line = mbb_serve::jsonl::encode_stream_event(&StreamEvent::Metrics(report));
    let value: serde_json::Value = serde_json::from_str(&line).unwrap();
    let metrics = &value["metrics"];
    assert_eq!(metrics["stats"]["admitted"].as_u64(), Some(3));
    assert_eq!(metrics["stats"]["completed"].as_u64(), Some(3));
    assert!(metrics["spans_dropped"].as_u64().is_some());
    for hist in ["queue_wait_ms", "service_ms"] {
        let h = &metrics["histograms"][hist];
        assert_eq!(h["count"].as_u64(), Some(3), "{hist}");
        for field in ["mean_ms", "p50_ms", "p90_ms", "p99_ms", "max_ms"] {
            assert!(
                h[field].as_f64().is_some(),
                "{hist}.{field} missing: {line}"
            );
        }
        assert!(
            h["p50_ms"].as_f64() <= h["p99_ms"].as_f64(),
            "{hist}: wire quantiles monotone"
        );
    }

    // The nested stats object is rendered by the same builder as the
    // standalone verb — the metrics line must contain the standalone
    // line's `"stats":{...}` payload byte for byte (the wire-compat
    // freeze: adding metrics must not perturb the stats schema).
    let standalone = mbb_serve::jsonl::encode_stream_event(&StreamEvent::Stats(stats));
    let standalone_body = standalone
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .expect("stats line is one object");
    assert!(
        line.contains(standalone_body),
        "metrics must embed the exact stats payload:\n  metrics: {line}\n  stats:  {standalone}"
    );
}

//! Batch service: drive a mixed top-k / anchored / solve batch across
//! two graph shards through the `mbb-serve` front-end.
//!
//! The scenario: a recommendation service holds two regional
//! interaction graphs ("west", "east"), each served by one warm
//! `MbbEngine` session, and answers client queries in batches — many
//! queries, few sessions, shared cached indices. A batch runs through
//! the same admission queue as the resident `mbb serve` loop: deadlined
//! requests are scheduled first (deadline-soonest), a request whose
//! budget expires mid-query comes back best-so-far instead of late, and
//! one whose budget is already gone is shed without running.
//!
//! ```text
//! cargo run -p mbb-examples --release --example batch_service
//! ```

use std::time::Duration;

use mbb_bigraph::generators::{self, ChungLuParams};
use mbb_bigraph::graph::Vertex;
use mbb_serve::{
    QueryKind, QueryOutcome, QueryRequest, ShardedFleet, StreamConfig, StreamEvent, StreamServer,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two shards with different shapes: a skewed power-law region and a
    // flatter uniform one.
    let west = generators::chung_lu_bipartite(
        &ChungLuParams {
            num_left: 120,
            num_right: 120,
            num_edges: 900,
            left_exponent: 0.7,
            right_exponent: 0.7,
        },
        7,
    );
    let east = generators::uniform_edges(100, 100, 700, 11);

    let mut fleet = ShardedFleet::new();
    fleet.add_shard("west", west)?.add_shard("east", east)?;
    let config = StreamConfig {
        workers: 2,
        ..StreamConfig::default()
    };
    let server = StreamServer::new(fleet, config);

    // A mixed batch: exact solves, rankings, per-vertex/per-edge
    // queries, one deliberately unroutable request to show the
    // rejection path, and one with a zero budget to show shedding. Ids
    // are client-chosen and echoed in responses.
    let batch = vec![
        QueryRequest::new(1, QueryKind::Solve).on_graph("west"),
        QueryRequest::new(2, QueryKind::Topk { k: 3 })
            .on_graph("west")
            .with_deadline(Duration::from_secs(5)),
        QueryRequest::new(
            3,
            QueryKind::Anchored {
                vertex: Vertex::left(0),
            },
        )
        .on_graph("west"),
        QueryRequest::new(4, QueryKind::Solve)
            .on_graph("east")
            .with_deadline(Duration::from_secs(5)),
        QueryRequest::new(5, QueryKind::Topk { k: 2 }).on_graph("east"),
        QueryRequest::new(6, QueryKind::AnchoredEdge { u: 0, v: 0 }).on_graph("east"),
        QueryRequest::new(7, QueryKind::SizeConstrained { a: 2, b: 2 }).on_graph("east"),
        QueryRequest::new(8, QueryKind::Frontier).on_graph("east"),
        QueryRequest::new(9, QueryKind::Solve), // no graph id: hash-routed
        QueryRequest::new(10, QueryKind::Solve).on_graph("north"), // no such shard
        QueryRequest::new(11, QueryKind::Meb)
            .on_graph("west")
            .with_deadline(Duration::ZERO), // budget gone on arrival
    ];

    let report = server.run_batch(batch);

    println!("events (request order):");
    for event in &report.events {
        let response = match event {
            StreamEvent::Response(response) => response,
            StreamEvent::Shed {
                id, kind, reason, ..
            } => {
                println!("  #{id:<2} {kind:<12} SHED: {reason}");
                continue;
            }
            other => unreachable!("a batch slot holds a response or a shed, not {other:?}"),
        };
        match &response.outcome {
            QueryOutcome::Rejected { reason } => {
                println!(
                    "  #{:<2} {:<12} REJECTED: {reason}",
                    response.id, response.kind
                );
            }
            outcome => {
                println!(
                    "  #{:<2} {:<12} shard={:<5} answer-size={:<3} {} ({} nodes, waited {:.2} ms, ran {:.2} ms)",
                    response.id,
                    response.kind,
                    response.shard.as_deref().unwrap_or("-"),
                    outcome.headline_size(),
                    response.termination,
                    response.search_nodes(),
                    response.queue_wait.as_secs_f64() * 1e3,
                    response.service.as_secs_f64() * 1e3,
                );
            }
        }
    }

    let stats = &report.stats;
    println!(
        "\nbatch: {} executed, {} rejected, {} shed",
        stats.completed, stats.rejected, stats.shed
    );
    println!(
        "       {} index-reuse hits, max queue wait {:.2} ms, total service {:.2} ms",
        stats.index_reuse_hits,
        stats.max_queue_wait.as_secs_f64() * 1e3,
        stats.total_service.as_secs_f64() * 1e3
    );
    for shard in &stats.per_shard {
        println!(
            "       shard {:<5} served {} requests, {} search nodes, {} reuse hits",
            shard.shard, shard.served, shard.search_nodes, shard.index_reuse_hits
        );
    }

    // The invariants the service relies on.
    assert_eq!(report.events.len(), 11);
    assert_eq!((stats.completed, stats.rejected, stats.shed), (9, 1, 1));
    assert!(matches!(
        report.events[10],
        StreamEvent::Shed { id: 11, .. }
    ));
    assert!(report.events.iter().all(|event| match event {
        StreamEvent::Response(r) => r.outcome.is_rejected() || r.termination.is_complete(),
        _ => true,
    }));
    // The repeated solves on each shard reused the session indices.
    assert!(stats.index_reuse_hits >= 1);
    println!("\nall invariants hold");
    Ok(())
}

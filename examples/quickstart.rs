//! Quickstart: build a bipartite graph, open an engine session, and ask
//! for its maximum balanced biclique (plus a couple of sibling queries —
//! the point of the session API is that they share one session).
//!
//! ```text
//! cargo run -p mbb-examples --release --example quickstart
//! ```

use std::time::Duration;

use mbb_bigraph::graph::BipartiteGraph;
use mbb_core::engine::MbbEngine;
use mbb_core::stats::Stage;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's Figure 1(b): users 1..6 on the left, items 7..12 on the
    // right (0-indexed here). The maximum balanced biclique is
    // ({3, 4}, {9, 10}) — users 3 and 4 both connected to items 9 and 10.
    let graph = BipartiteGraph::from_edges(
        6,
        6,
        [
            (0, 0), // 1-7
            (1, 0), // 2-7
            (1, 1), // 2-8
            (2, 1), // 3-8
            (2, 2), // 3-9
            (2, 3), // 3-10
            (3, 2), // 4-9
            (3, 3), // 4-10
            (4, 2), // 5-9
            (4, 3), // 5-10
            (5, 4), // 6-11
            (5, 5), // 6-12
        ],
    )?;

    println!("graph: {graph:?}");

    // One session per graph; every query below runs on it.
    let engine = MbbEngine::new(graph);

    // The full builder: deadline, threads, then the query kind.
    let result = engine
        .query()
        .deadline(Duration::from_secs(10))
        .threads(0) // 0 = one verification worker per core
        .solve();
    let mbb = &result.value;
    println!(
        "maximum balanced biclique: L = {:?}, R = {:?} (total size {})",
        mbb.left,
        mbb.right,
        mbb.total_size()
    );
    assert!(result.termination.is_complete(), "10s is plenty here");
    assert!(mbb.is_valid(engine.graph()));
    assert_eq!(mbb.half_size(), 2);
    // δ̈ is reported only when the solve built the bidegeneracy order,
    // which happens on entering stage 2.
    let bidegeneracy = result
        .stats
        .bidegeneracy
        .map_or_else(|| "n/a".to_string(), |d| d.to_string());
    println!(
        "solved in stage {} (δ = {}, δ̈ = {bidegeneracy}, {} vertex-centred subgraphs)",
        result.stats.stage, result.stats.degeneracy, result.stats.subgraphs_generated,
    );

    // Sibling queries on the same session: top-k and the size frontier.
    let top = engine.topk(2);
    println!(
        "top-2 balanced bicliques: sizes {:?}",
        top.value
            .iter()
            .map(|b| b.balanced_size())
            .collect::<Vec<_>>()
    );
    let frontier = engine.frontier();
    println!("feasible size frontier: {:?}", frontier.value.pairs);
    assert_eq!(frontier.value.mbb_half(), 2);

    // Stage 1 proves this optimum, so the solve never built the session's
    // search order: the peel is paid only by solves that reach stage 2,
    // once per session. The solve's own index stats show it.
    let index = result.stats.index;
    println!(
        "search order: {} build(s), {} reuse(s), {:.1}ms preprocessing",
        index.orders_computed,
        index.orders_reused,
        index.preprocess_seconds * 1e3
    );
    assert_eq!(result.stats.stage, Stage::S1);
    assert_eq!(index.orders_computed, 0);
    Ok(())
}

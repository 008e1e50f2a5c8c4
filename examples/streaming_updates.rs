//! Incremental MBB maintenance on a streaming author–venue graph.
//!
//! Bipartite graphs in the wild are append-mostly streams (papers get
//! published, users rate items). This example feeds a stream of edge
//! insertions — with occasional retractions — through
//! [`mbb_core::incremental::IncrementalMbb`] and shows how the warm-started
//! re-solve tracks the growing optimum.
//!
//! ```text
//! cargo run -p mbb-examples --release --example streaming_updates
//! ```

use mbb_core::incremental::IncrementalMbb;
use mbb_core::MbbEngine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(7);
    let (authors, venues) = (300u32, 120u32);
    let mut tracker = IncrementalMbb::new(authors, venues);

    // A "collaboration cluster" that keeps densifying over time: authors
    // 0..10 publishing at venues 0..10, edges arriving interleaved with
    // background noise.
    let mut cluster_edges: Vec<(u32, u32)> = (0..10u32)
        .flat_map(|a| (0..10u32).map(move |v| (a, v)))
        .collect();
    // Deterministic shuffle by sort-by-random-key.
    let mut keyed: Vec<(u64, (u32, u32))> = cluster_edges
        .drain(..)
        .map(|e| (rng.gen::<u64>(), e))
        .collect();
    keyed.sort_unstable();
    let cluster_stream: Vec<(u32, u32)> = keyed.into_iter().map(|(_, e)| e).collect();

    let mut history = Vec::new();
    for (step, &(a, v)) in cluster_stream.iter().enumerate() {
        tracker.insert_edge(a, v)?;
        // Two noise edges per cluster edge (kept clear of the cluster's
        // author block so retractions can never break the planted optimum).
        for _ in 0..2 {
            let edge = (rng.gen_range(10..authors), rng.gen_range(0..venues));
            tracker.insert_edge(edge.0, edge.1)?;
            history.push(edge);
        }
        // Every 10 steps, retract one random earlier noise edge.
        if step % 10 == 9 {
            if let Some(&(a, v)) = history.get(rng.gen_range(0..history.len())) {
                tracker.remove_edge(a, v);
            }
        }
        if step % 20 == 19 || step + 1 == cluster_stream.len() {
            let result = tracker.solve();
            println!(
                "after {:4} edges: MBB is {}x{} (stage {})",
                tracker.num_edges(),
                result.value.half_size(),
                result.value.half_size(),
                result.stats.stage,
            );
        }
    }

    // After the full 10×10 cluster streamed in, the optimum is 10.
    let final_result = tracker.solve();
    println!(
        "\nfinal: {} authors x {} venues — MBB {}x{}",
        authors,
        venues,
        final_result.value.half_size(),
        final_result.value.half_size()
    );
    assert!(final_result.value.half_size() >= 10);
    assert!(final_result.value.is_valid(&tracker.snapshot()));

    // Warm restarts are exact: compare against a cold solve on a fresh
    // engine session.
    let cold = MbbEngine::new(tracker.snapshot()).solve().value;
    assert_eq!(cold.half_size(), final_result.value.half_size());
    println!(
        "warm-started result matches cold solve: {}x{}",
        cold.half_size(),
        cold.half_size()
    );

    // Between updates the tracker exposes its engine session, so ad-hoc
    // queries (here: top-3) share the indices the solve already built.
    let top = tracker.engine().topk(3);
    println!(
        "top-3 author cliques right now: {:?}",
        top.value
            .iter()
            .map(|b| b.balanced_size())
            .collect::<Vec<_>>()
    );
    assert_eq!(top.value[0].balanced_size(), 10);
    Ok(())
}

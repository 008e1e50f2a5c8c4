//! Top-k and anchored search on a user–item recommendation graph.
//!
//! A user–item bipartite graph drives two product questions:
//!
//! * "what are the strongest co-purchase communities?" — the top-k
//!   balanced bicliques, each a group of users agreeing on a group of
//!   items;
//! * "which community does *this* user belong to?" — the anchored MBB
//!   through that user.
//!
//! ```text
//! cargo run -p mbb-examples --release --example recommendation_topk
//! ```

use std::ops::ControlFlow;

use mbb_bigraph::generators::{chung_lu_bipartite, plant_balanced_biclique, ChungLuParams};
use mbb_bigraph::graph::Vertex;
use mbb_core::budget::SearchBudget;
use mbb_core::engine::MbbEngine;
use mbb_core::enumerate::{enumerate_budgeted, EnumConfig};

fn main() {
    // A synthetic store: 2 000 users, 800 items, power-law activity, with
    // two planted communities (sizes 8 and 6) hiding in the noise.
    let noise = chung_lu_bipartite(
        &ChungLuParams {
            num_left: 2_000,
            num_right: 800,
            num_edges: 10_000,
            left_exponent: 0.8,
            right_exponent: 0.8,
        },
        42,
    );
    let (with_first, first_users, first_items) = plant_balanced_biclique(&noise, 8);
    let (graph, _, _) = plant_balanced_biclique(&with_first, 6);
    println!(
        "store: {} users x {} items, {} interactions",
        graph.num_left(),
        graph.num_right(),
        graph.num_edges()
    );

    // One engine session serves every product question below.
    let engine = MbbEngine::new(graph);

    // --- Question 1: the three strongest communities. ---
    let top = engine.topk(3);
    assert!(top.termination.is_complete());
    println!("\ntop-3 co-purchase communities:");
    for (rank, community) in top.value.iter().enumerate() {
        println!(
            "  #{}: {} users x {} items (balanced size {})",
            rank + 1,
            community.left.len(),
            community.right.len(),
            community.balanced_size()
        );
    }
    assert!(top.value[0].balanced_size() >= 8, "planted community found");

    // --- Question 2: the community of one specific user. ---
    let user = first_users[0];
    let anchored = engine.anchored(Vertex::left(user));
    let community = &anchored.value;
    println!(
        "\nuser {user}'s community: {} users x {} items ({} search nodes)",
        community.left.len(),
        community.right.len(),
        anchored.stats.search.nodes
    );
    assert!(community.half_size() >= 8);
    assert!(community.left.contains(&user));
    // The planted items are all in the community the anchor search found.
    let planted_covered = first_items
        .iter()
        .filter(|item| community.right.contains(item))
        .count();
    println!(
        "  covers {planted_covered}/{} of the planted items",
        first_items.len()
    );

    // --- Bonus: stream the large maximal bicliques (≥ 4 on each side). ---
    println!("\nmaximal bicliques with at least 4 users and 4 items:");
    let config = EnumConfig {
        min_left: 4,
        min_right: 4,
        max_results: Some(10),
    };
    enumerate_budgeted(engine.graph(), &config, &SearchBudget::unlimited(), |b| {
        println!(
            "  {} users x {} items (e.g. users {:?}...)",
            b.left.len(),
            b.right.len(),
            &b.left[..b.left.len().min(4)]
        );
        ControlFlow::Continue(())
    });

    // --- Cross-check: the exact maximum balanced biclique. ---
    // Its half-size is the best balanced size top-k found. Only a solve
    // reads the session's search order, and only once it reaches stage 2;
    // its own index stats say whether it built the order.
    let solved = engine.solve();
    assert!(solved.termination.is_complete());
    assert_eq!(solved.value.half_size(), top.value[0].balanced_size());
    let index = solved.stats.index;
    println!(
        "\nmaximum balanced biclique: {0} x {0} (stage {1}; {2} order build(s), {3} reuse(s))",
        solved.value.half_size(),
        solved.stats.stage,
        index.orders_computed,
        index.orders_reused
    );
}

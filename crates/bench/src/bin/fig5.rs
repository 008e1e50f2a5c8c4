//! Figure 5 — evaluation of the search depth: average exhaustive-search
//! depth over `δ̈(·)` for the three total orders (maxDeg, degeneracy,
//! bidegeneracy) on the tough datasets.
//!
//! ```text
//! cargo run -p mbb-bench --release --bin fig5 -- [--caps default] [--budget-secs 60]
//! ```

use mbb_bench::{Args, Table};
use mbb_bigraph::bicore::bicore_decomposition;
use mbb_bigraph::order::SearchOrder;
use mbb_core::{MbbEngine, SolverConfig};
use mbb_datasets::{stand_in, tough_datasets};

fn main() {
    let args = Args::from_env();
    let budget = args.budget(60);
    let caps = args.caps();
    let seed = args.seed();

    println!("# Figure 5 — average search depth over δ̈(·) per search order\n");

    let orders = [
        ("maxDeg", SearchOrder::Degree),
        ("degeneracy", SearchOrder::Degeneracy),
        ("bidegeneracy", SearchOrder::Bidegeneracy),
    ];

    let mut table = Table::new(&[
        "Dataset",
        "δ̈",
        "depth maxDeg",
        "depth degeneracy",
        "depth bidegeneracy",
        "ratio maxDeg",
        "ratio degeneracy",
        "ratio bidegeneracy",
    ]);

    for spec in tough_datasets() {
        let graph = stand_in(spec, caps, seed).graph;
        let bidegeneracy = bicore_decomposition(&graph).bidegeneracy.max(1);

        // One average depth per order; `None` when the solve ran out of
        // budget.
        let mut depths = Vec::new();
        for (_, order) in orders {
            let config = SolverConfig {
                order,
                ..Default::default()
            };
            let engine = MbbEngine::with_config(graph.clone(), config);
            let result = engine.query().deadline(budget).solve();
            depths.push(
                result
                    .termination
                    .is_complete()
                    .then(|| result.stats.search.average_depth()),
            );
        }
        let depth = |d: &Option<f64>| d.map_or("-".into(), |d| format!("{d:.2}"));
        let ratio =
            |d: &Option<f64>| d.map_or("-".into(), |d| format!("{:.3}", d / bidegeneracy as f64));

        let mut row = vec![
            format!("{} ({})", spec.name, spec.tough_label().unwrap_or_default()),
            bidegeneracy.to_string(),
        ];
        row.extend(depths.iter().map(depth));
        row.extend(depths.iter().map(ratio));
        table.row(row);
    }
    table.print();
    println!("\nDepth 0 means verification never branched (stage S1/S2 exit).");
}

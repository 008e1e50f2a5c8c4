//! Figure 6 — evaluation of vertex-centred subgraphs: the average density
//! of the centred subgraphs that pass the size prune (size-pruned ones are
//! never induced), under the three total orders, per tough dataset.
//!
//! ```text
//! cargo run -p mbb-bench --release --bin fig6 -- [--caps default] [--budget-secs 60]
//! ```

use mbb_bench::{Args, Table};
use mbb_bigraph::order::SearchOrder;
use mbb_core::{MbbEngine, SolverConfig};
use mbb_datasets::{stand_in, tough_datasets};

fn main() {
    let args = Args::from_env();
    let budget = args.budget(60);
    let caps = args.caps();
    let seed = args.seed();

    println!("# Figure 6 — average density of the vertex-centred subgraphs that pass the size prune, per order\n");

    let orders = [
        ("maxDeg", SearchOrder::Degree),
        ("degeneracy", SearchOrder::Degeneracy),
        ("bidegeneracy", SearchOrder::Bidegeneracy),
    ];

    let mut table = Table::new(&[
        "Dataset",
        "density maxDeg",
        "density degeneracy",
        "density bidegeneracy",
        "max size maxDeg",
        "max size degeneracy",
        "max size bidegeneracy",
    ]);

    for spec in tough_datasets() {
        let graph = stand_in(spec, caps, seed).graph;
        // One (density, max size) pair per order; `None` when the solve
        // ran out of budget.
        let mut runs = Vec::new();
        for (_, order) in orders {
            let config = SolverConfig {
                order,
                ..Default::default()
            };
            let engine = MbbEngine::with_config(graph.clone(), config);
            let result = engine.query().deadline(budget).solve();
            let stats = &result.stats;
            runs.push(
                result
                    .termination
                    .is_complete()
                    .then_some((stats.avg_subgraph_density, stats.max_subgraph_size as f64)),
            );
        }
        let mut row = vec![format!(
            "{} ({})",
            spec.name,
            spec.tough_label().unwrap_or_default()
        )];
        let density = |r: &Option<(f64, f64)>| r.map_or("-".into(), |(d, _)| format!("{d:.4}"));
        let size = |r: &Option<(f64, f64)>| r.map_or("-".into(), |(_, s)| format!("{s:.0}"));
        row.extend(runs.iter().map(density));
        row.extend(runs.iter().map(size));
        table.row(row);
    }
    table.print();
    println!("\nDensity 0 means the solve exited at S1 or no subgraph passed the size prune.");
}

//! Figure 6 — evaluation of vertex-centred subgraphs: the average density
//! of the centred subgraphs that pass the size prune (size-pruned ones are
//! never induced), under the three total orders, per tough dataset.
//!
//! ```text
//! cargo run -p mbb-bench --release --bin fig6 -- [--caps default]
//! ```

use mbb_bench::{Args, StandInCache, Table};
use mbb_bigraph::order::SearchOrder;
use mbb_core::{MbbEngine, SolverConfig};
use mbb_datasets::tough_datasets;

fn main() {
    let args = Args::from_env();
    let cache = StandInCache::from_env();
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
        let standin = cache.get(spec, caps, seed);
        let mut densities = Vec::new();
        let mut sizes = Vec::new();
        for (_, order) in orders {
            let config = SolverConfig {
                order,
                ..Default::default()
            };
            let result = MbbEngine::with_config(standin.graph.clone(), config).solve();
            densities.push(result.stats.avg_subgraph_density);
            sizes.push(result.stats.max_subgraph_size as f64);
        }
        table.row(vec![
            format!("{} ({})", spec.name, spec.tough_label().unwrap_or_default()),
            format!("{:.4}", densities[0]),
            format!("{:.4}", densities[1]),
            format!("{:.4}", densities[2]),
            format!("{:.0}", sizes[0]),
            format!("{:.0}", sizes[1]),
            format!("{:.0}", sizes[2]),
        ]);
    }
    table.print();
    println!("\nDensity 0 means the solve exited at S1 or no subgraph passed the size prune.");
    eprintln!("{}", cache.summary());
}

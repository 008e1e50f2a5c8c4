//! Figure 4 — effectiveness of heuristics: gap between the heuristic
//! results (`heuGlobal` = step 1, `heuLocal` = after step 2) and the true
//! optimum, per tough dataset.
//!
//! ```text
//! cargo run -p mbb-bench --release --bin fig4 -- [--caps default] [--budget-secs 60]
//! ```

use mbb_bench::{Args, Table};
use mbb_core::MbbEngine;
use mbb_datasets::{stand_in, tough_datasets};

fn main() {
    let args = Args::from_env();
    let budget = args.budget(60);
    let caps = args.caps();
    let seed = args.seed();

    println!("# Figure 4 — gap of heuristic results to the optimum MBB\n");

    let mut table = Table::new(&[
        "Dataset",
        "optimum",
        "heuGlobal",
        "heuLocal",
        "gapGlobal",
        "gapLocal",
    ]);
    for spec in tough_datasets() {
        let graph = stand_in(spec, caps, seed).graph;
        let result = MbbEngine::new(graph).query().deadline(budget).solve();
        let mut row = vec![format!(
            "{} ({})",
            spec.name,
            spec.tough_label().unwrap_or_default()
        )];
        if result.termination.is_complete() {
            let optimum = result.stats.optimum_half;
            let global = result.stats.heuristic_global_half;
            let local = result.stats.heuristic_local_half;
            row.extend(
                [optimum, global, local, optimum - global, optimum - local].map(|n| n.to_string()),
            );
        }
        row.resize(6, "-".into());
        table.row(row);
    }
    table.print();
    println!("\nGaps are in half-size units (the paper plots size gap to MBB).");
}

//! Table 6 — breaking-down evaluation on the tough datasets: per-technique
//! times for `hMBB`, `degOrder`, `bdegOrder`, the `bd1`–`bd5` ablations and
//! full `hbvMBB`.
//!
//! ```text
//! cargo run -p mbb-bench --release --bin table6 -- \
//!     [--budget-secs 60] [--caps default] [--datasets jester,...]
//! ```

use std::sync::Arc;

use mbb_bench::{exit_usage, fmt_seconds, run_timed, Args, Table};
use mbb_bigraph::bicore::bicore_decomposition;
use mbb_bigraph::core_decomp::core_decomposition;
use mbb_core::heuristic::hmbb;
use mbb_core::{MbbEngine, SolverConfig};
use mbb_datasets::{stand_in, tough_datasets};

fn main() {
    let args = Args::from_env();
    let budget = args.budget(60).unwrap_or_else(exit_usage);
    let caps = args.caps().unwrap_or_else(exit_usage);
    let seed = args.seed().unwrap_or_else(exit_usage);
    let filter = args.get_list("datasets");

    println!("# Table 6 — efficiency of the techniques on tough datasets\n");
    println!("budget = {}s per run, times in seconds\n", budget.as_secs());

    let mut table = Table::new(&[
        "Dataset",
        "hMBB",
        "degOrder",
        "bdegOrder",
        "bd1",
        "bd2",
        "bd3",
        "bd4",
        "bd5",
        "hbvMBB",
    ]);

    for spec in tough_datasets() {
        if let Some(filter) = &filter {
            if !filter.iter().any(|f| f == spec.name) {
                continue;
            }
        }
        let standin = stand_in(spec, caps, seed);
        let graph = Arc::new(standin.graph);

        // Heuristic stage alone.
        let (_, hmbb_secs) = run_timed(|| hmbb(&graph, 8, true));
        // Order computations alone.
        let (_, deg_secs) = run_timed(|| core_decomposition(&graph));
        let (_, bdeg_secs) = run_timed(|| bicore_decomposition(&graph));

        let variants: [(&str, SolverConfig); 6] = [
            ("bd1", SolverConfig::bd1()),
            ("bd2", SolverConfig::bd2()),
            ("bd3", SolverConfig::bd3()),
            ("bd4", SolverConfig::bd4()),
            ("bd5", SolverConfig::bd5()),
            ("hbvMBB", SolverConfig::default()),
        ];
        let mut cells: Vec<String> = Vec::new();
        let mut halves: Vec<String> = Vec::new();
        for (name, config) in variants {
            let (result, seconds) = run_timed(|| {
                let engine = MbbEngine::from_arc(Arc::clone(&graph), config);
                engine.query().deadline(budget).solve()
            });
            let complete = result.termination.is_complete();
            cells.push(fmt_seconds(complete.then_some(seconds)));
            if complete {
                halves.push(format!("{name}={}", result.value.half_size()));
            }
        }
        eprintln!("  [{}] optima: {}", spec.name, halves.join(" "));

        table.row(vec![
            format!("{} ({})", spec.name, spec.tough_label().unwrap_or_default()),
            fmt_seconds(Some(hmbb_secs)),
            fmt_seconds(Some(deg_secs)),
            fmt_seconds(Some(bdeg_secs)),
            cells[0].clone(),
            cells[1].clone(),
            cells[2].clone(),
            cells[3].clone(),
            cells[4].clone(),
            cells[5].clone(),
        ]);
    }

    table.print();
    println!("\n`-` = budget exceeded.");
}

//! Table 5 — efficiency on (stand-ins of) the 30 sparse KONECT datasets:
//! `adp1`–`adp4`, `extBBClq` and `hbvMBB` running times plus the stage at
//! which `hbvMBB` terminates.
//!
//! ```text
//! cargo run -p mbb-bench --release --bin table5 -- \
//!     [--budget-secs 30] [--caps small|default|large] [--datasets a,b,...]
//! ```

use std::sync::Arc;

use mbb_baselines::{all_adapted, ext_bbclq};
use mbb_bench::{exit_usage, fmt_seconds, run_timed, Args, Table};
use mbb_core::budget::SearchBudget;
use mbb_core::{MbbEngine, SolverConfig};
use mbb_datasets::{catalog, stand_in};

fn main() {
    let args = Args::from_env(&["budget-secs", "datasets"], &[]);
    let budget = args.budget(30).unwrap_or_else(exit_usage);
    let caps = args.caps().unwrap_or_else(exit_usage);
    let seed = args.seed().unwrap_or_else(exit_usage);
    let filter = args.get_list("datasets");

    println!("# Table 5 — sparse bipartite graphs (synthetic stand-ins)\n");
    println!(
        "budget = {}s per run, caps = ({} edges, {} vertices), seed = {seed}\n",
        budget.as_secs(),
        caps.max_edges,
        caps.max_vertices
    );

    let mut table = Table::new(&[
        "Dataset",
        "|L|",
        "|R|",
        "Dens.e-4",
        "Paper opt",
        "Found opt",
        "adp1",
        "adp2",
        "adp3",
        "adp4",
        "extBBCl",
        "hbvMBB",
        "Stage",
    ]);

    for spec in catalog() {
        if let Some(filter) = &filter {
            if !filter.iter().any(|f| f == spec.name) {
                continue;
            }
        }
        let graph = Arc::new(stand_in(spec, caps, seed).graph);

        // hbvMBB (ours) — also establishes the stand-in's true optimum.
        let (hbv, hbv_secs) = run_timed(|| {
            let engine = MbbEngine::from_arc(Arc::clone(&graph), SolverConfig::default());
            engine.query().deadline(budget).solve()
        });
        let hbv_complete = hbv.termination.is_complete();
        let (found_opt, stage) = if hbv_complete {
            (
                hbv.value.half_size().to_string(),
                hbv.stats.stage.to_string(),
            )
        } else {
            ("?".into(), "-".into())
        };

        // Baselines, each under the same budget.
        let mut adp_secs: Vec<Option<f64>> = Vec::new();
        for baseline in all_adapted() {
            let (out, secs) = run_timed(|| baseline.run(&graph, Some(budget)));
            adp_secs.push((!out.timed_out).then_some(secs));
        }
        let ext_budget = SearchBudget::with_deadline(budget);
        let (ext, ext_secs) = run_timed(|| ext_bbclq(&graph, &ext_budget));
        let ext_cell = (!ext.timed_out).then_some(ext_secs);

        table.row(vec![
            spec.name.to_string(),
            graph.num_left().to_string(),
            graph.num_right().to_string(),
            format!("{:.3}", graph.density() * 1e4),
            spec.optimum.to_string(),
            found_opt,
            fmt_seconds(adp_secs[0]),
            fmt_seconds(adp_secs[1]),
            fmt_seconds(adp_secs[2]),
            fmt_seconds(adp_secs[3]),
            fmt_seconds(ext_cell),
            fmt_seconds(hbv_complete.then_some(hbv_secs)),
            stage,
        ]);
    }

    table.print();
    println!("\n`-` = budget exceeded (the paper's 4 h timeout, scaled).");
    println!("`Paper opt` is the real-dataset optimum; `Found opt` is the stand-in's.");
}

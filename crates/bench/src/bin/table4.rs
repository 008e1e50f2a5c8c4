//! Table 4 — efficiency on dense bipartite graphs: `extBBClq` vs
//! `denseMBB` over the size × density grid.
//!
//! ```text
//! cargo run -p mbb-bench --release --bin table4 -- \
//!     [--sizes 128,256,512] [--reps 3] [--budget-secs 60] [--full]
//! ```
//!
//! `--full` runs the paper's complete grid (128…2048 — slow; see
//! EXPERIMENTS.md for why uniform dense instances are harder for this
//! implementation than the paper's testbed numbers suggest); the default
//! grid is 64/128/256 with a per-run budget.

use mbb_baselines::ext_bbclq;
use mbb_bench::{fmt_seconds, run_timed, Args, Table};
use mbb_core::budget::SearchBudget;
use mbb_core::dense_mbb_graph;
use mbb_datasets::dense::{DenseCell, TABLE4_DENSITIES, TABLE4_SIZES};

fn main() {
    let args = Args::from_env();
    let budget = args.budget(60);
    let reps = args.get_u64("reps", 3);

    let sizes: Vec<u32> = if let Some(list) = args.get_list("sizes") {
        list.iter().filter_map(|s| s.parse().ok()).collect()
    } else if args.flag("full") {
        TABLE4_SIZES.to_vec()
    } else {
        vec![64, 128, 256]
    };

    println!("# Table 4 — dense bipartite graphs\n");
    println!(
        "budget = {}s per run, {} instance(s) per cell (paper: 100), times in seconds\n",
        budget.as_secs(),
        reps
    );

    let mut table = {
        let mut headers: Vec<String> = vec!["density".into()];
        for &side in &sizes {
            headers.push(format!("{side}x{side} extBBCl"));
            headers.push(format!("{side}x{side} denseMBB"));
        }
        Table::new(&headers.iter().map(String::as_str).collect::<Vec<_>>())
    };

    for &density in &TABLE4_DENSITIES {
        let mut row = vec![format!("{:.0}%", density * 100.0)];
        for &side in &sizes {
            let cell = DenseCell { side, density };

            let mut ext_total = 0.0;
            let mut ext_timeout = false;
            for rep in 0..reps {
                let graph = cell.instance(rep);
                let run_budget = SearchBudget::with_deadline(budget);
                let (out, seconds) = run_timed(|| ext_bbclq(&graph, &run_budget));
                if out.timed_out {
                    ext_timeout = true;
                    break;
                }
                ext_total += seconds;
            }
            row.push(fmt_seconds(
                (!ext_timeout).then_some(ext_total / reps as f64),
            ));

            let mut dense_total = 0.0;
            let mut dense_timeout = false;
            let mut halves = Vec::new();
            for rep in 0..reps {
                let graph = cell.instance(rep);
                let run_budget = SearchBudget::with_deadline(budget);
                let ((biclique, _), seconds) = run_timed(|| dense_mbb_graph(&graph, &run_budget));
                if !run_budget.termination().is_complete() {
                    dense_timeout = true;
                    break;
                }
                dense_total += seconds;
                halves.push(biclique.half_size());
            }
            row.push(fmt_seconds(
                (!dense_timeout).then_some(dense_total / reps as f64),
            ));
            if !halves.is_empty() {
                eprintln!(
                    "  [{}x{} @ {:.0}%] MBB half sizes: {:?}",
                    side,
                    side,
                    density * 100.0,
                    halves
                );
            }
        }
        table.row(row);
    }

    table.print();
    println!("\n`-` = budget exceeded.");
}

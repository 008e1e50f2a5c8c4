//! Table 6 — breaking-down evaluation on the tough datasets: per-technique
//! times for `hMBB`, `degOrder`, `bdegOrder`, the `bd1`–`bd5` ablations and
//! full `hbvMBB`.
//!
//! ```text
//! cargo run -p mbb-bench --release --bin table6 -- \
//!     [--budget-secs 60] [--caps default] [--datasets jester,...]
//! ```
//!
//! Every cell is the median of [`RUNS`] runs, so that two runs of the
//! binary agree on how the columns compare; a cell in which any run
//! exceeds the budget prints `-`.

use std::sync::Arc;

use mbb_bench::{exit_usage, fmt_seconds, run_timed, Args, Table};
use mbb_bigraph::bicore::bicore_decomposition;
use mbb_bigraph::core_decomp::core_decomposition;
use mbb_core::heuristic::hmbb;
use mbb_core::{MbbEngine, SolverConfig};
use mbb_datasets::{stand_in, tough_datasets};

/// Runs behind each cell.
const RUNS: usize = 5;

/// Median seconds of [`RUNS`] calls of `run`, or `None` as soon as one
/// returns `None` (a run past its budget).
fn median_secs(mut run: impl FnMut() -> Option<f64>) -> Option<f64> {
    let mut secs = (0..RUNS).map(|_| run()).collect::<Option<Vec<f64>>>()?;
    secs.sort_by(f64::total_cmp);
    Some(secs[RUNS / 2])
}

/// Median seconds of [`RUNS`] calls of `f`, which has no budget.
fn median_timed<T>(mut f: impl FnMut() -> T) -> Option<f64> {
    median_secs(|| Some(run_timed(&mut f).1))
}

fn main() {
    let args = Args::from_env(&["budget-secs", "datasets"], &[]);
    let budget = args.budget(60).unwrap_or_else(exit_usage);
    let caps = args.caps().unwrap_or_else(exit_usage);
    let seed = args.seed().unwrap_or_else(exit_usage);
    let filter = args.get_list("datasets");

    println!("# Table 6 — efficiency of the techniques on tough datasets\n");
    println!(
        "budget = {}s per run, times in seconds, each the median of {RUNS} runs\n",
        budget.as_secs()
    );

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
        let hmbb_secs = median_timed(|| hmbb(&graph, 8, true));
        // Order computations alone.
        let deg_secs = median_timed(|| core_decomposition(&graph));
        let bdeg_secs = median_timed(|| bicore_decomposition(&graph));

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
            let mut half = 0;
            let seconds = median_secs(|| {
                let (result, secs) = run_timed(|| {
                    let engine = MbbEngine::from_arc(Arc::clone(&graph), config);
                    engine.query().deadline(budget).solve()
                });
                half = result.value.half_size();
                result.termination.is_complete().then_some(secs)
            });
            cells.push(fmt_seconds(seconds));
            if seconds.is_some() {
                halves.push(format!("{name}={half}"));
            }
        }
        eprintln!("  [{}] optima: {}", spec.name, halves.join(" "));

        table.row(vec![
            format!("{} ({})", spec.name, spec.tough_label().unwrap_or_default()),
            fmt_seconds(hmbb_secs),
            fmt_seconds(deg_secs),
            fmt_seconds(bdeg_secs),
            cells[0].clone(),
            cells[1].clone(),
            cells[2].clone(),
            cells[3].clone(),
            cells[4].clone(),
            cells[5].clone(),
        ]);
    }

    table.print();
    println!("\n`-` = budget exceeded in at least one of the {RUNS} runs.");
}

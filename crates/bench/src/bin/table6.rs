//! Table 6 and Figures 4–6 — §6.3's evaluation of the techniques on the
//! tough datasets, from one set of runs. Table 6 times `hMBB`, `degOrder`,
//! `bdegOrder`, the `bd1`–`bd5` ablations and full `hbvMBB`; the figures
//! read the [`SolveStats`] of the order variants among those solves
//! (maxDeg is `bd4`, degeneracy `bd5`, bidegeneracy `hbvMBB`):
//!
//! * Figure 4: the gap between the heuristic results (`heuGlobal` = step
//!   1, `heuLocal` = after step 2) and the optimum, under `hbvMBB`;
//! * Figure 5: the average exhaustive-search depth over `δ̈(·)` per order,
//!   with `δ̈` from the `bdegOrder` peel;
//! * Figure 6: the average density of the centred subgraphs that pass the
//!   size prune (size-pruned ones are never induced), per order.
//!
//! ```text
//! cargo run -p mbb-bench --release --bin table6 -- \
//!     [--budget-secs 60] [--caps default] [--datasets jester,...]
//! ```
//!
//! Every Table 6 cell is the median of [`RUNS`] runs, so that two runs of
//! the binary agree on how the columns compare; a cell in which any run
//! exceeds the budget prints `-`, and so does every figure cell read from
//! it. A one-thread solve is deterministic, so every completed run of a
//! variant has the same stats.

use std::sync::Arc;

use mbb_bench::{exit_usage, fmt_seconds, median_secs, run_timed, Args, Table, RUNS};
use mbb_bigraph::bicore::bicore_decomposition;
use mbb_bigraph::core_decomp::core_decomposition;
use mbb_core::heuristic::hmbb;
use mbb_core::{MbbEngine, SolveStats, SolverConfig};
use mbb_datasets::{stand_in, tough_datasets};

/// Median seconds of [`RUNS`] calls of `f`, which has no budget.
fn median_timed<T>(mut f: impl FnMut() -> T) -> Option<f64> {
    median_secs(|| Some(run_timed(&mut f).1))
}

/// One figure cell per search order: `show` of the order's stats, or `-`
/// when its Table 6 cell is `-`.
fn per_order(orders: &[Option<SolveStats>], show: impl Fn(&SolveStats) -> String) -> Vec<String> {
    orders
        .iter()
        .map(|stats| stats.as_ref().map_or("-".into(), &show))
        .collect()
}

/// Prints a figure after the table before it: title, table and footer.
fn print_figure(title: &str, table: &Table, footer: &str) {
    println!("\n---\n\n# {title}\n");
    table.print();
    println!("\n{footer}");
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
    let mut fig4 = Table::new(&[
        "Dataset",
        "optimum",
        "heuGlobal",
        "heuLocal",
        "gapGlobal",
        "gapLocal",
    ]);
    let mut fig5 = Table::new(&[
        "Dataset",
        "δ̈",
        "depth maxDeg",
        "depth degeneracy",
        "depth bidegeneracy",
        "ratio maxDeg",
        "ratio degeneracy",
        "ratio bidegeneracy",
    ]);
    let mut fig6 = Table::new(&[
        "Dataset",
        "density maxDeg",
        "density degeneracy",
        "density bidegeneracy",
        "max size maxDeg",
        "max size degeneracy",
        "max size bidegeneracy",
    ]);

    for spec in tough_datasets() {
        if let Some(filter) = &filter {
            if !filter.iter().any(|f| f == spec.name) {
                continue;
            }
        }
        let standin = stand_in(spec, caps, seed);
        let graph = Arc::new(standin.graph);
        let label = format!("{} ({})", spec.name, spec.tough_label().unwrap_or_default());

        // Heuristic stage alone.
        let hmbb_secs = median_timed(|| hmbb(&graph, 8, true));
        // Order computations alone; the bicore peel also gives Figure 5 δ̈.
        let deg_secs = median_timed(|| core_decomposition(&graph));
        let mut bidegeneracy = 1;
        let bdeg_secs = median_secs(|| {
            let (bicore, secs) = run_timed(|| bicore_decomposition(&graph));
            bidegeneracy = bicore.bidegeneracy.max(1);
            Some(secs)
        });

        let variants: [(&str, SolverConfig); 6] = [
            ("bd1", SolverConfig::bd1()),
            ("bd2", SolverConfig::bd2()),
            ("bd3", SolverConfig::bd3()),
            ("bd4", SolverConfig::bd4()),
            ("bd5", SolverConfig::bd5()),
            ("hbvMBB", SolverConfig::default()),
        ];
        // Per variant: the median seconds and the stats of a completed
        // run, or `None` when a run exceeded the budget.
        let runs = variants.map(|(_, config)| {
            let mut stats = None;
            let seconds = median_secs(|| {
                let (result, secs) = run_timed(|| {
                    let engine = MbbEngine::from_arc(Arc::clone(&graph), config);
                    engine.query().deadline(budget).solve()
                });
                result.termination.is_complete().then(|| {
                    stats = Some(result.stats);
                    secs
                })
            });
            seconds.zip(stats)
        });
        let optima: Vec<String> = variants
            .iter()
            .zip(&runs)
            .filter_map(|((name, _), run)| {
                let (_, stats) = run.as_ref()?;
                Some(format!("{name}={}", stats.optimum_half))
            })
            .collect();
        eprintln!("  [{}] optima: {}", spec.name, optima.join(" "));

        let mut row = vec![
            label.clone(),
            fmt_seconds(hmbb_secs),
            fmt_seconds(deg_secs),
            fmt_seconds(bdeg_secs),
        ];
        row.extend(
            runs.iter()
                .map(|run| fmt_seconds(run.as_ref().map(|(secs, _)| *secs))),
        );
        table.row(row);

        // The figures read the order variants: maxDeg, degeneracy, bidegeneracy.
        let [.., bd4, bd5, hbv] = runs.map(|run| run.map(|(_, stats)| stats));
        let mut row = vec![label.clone()];
        if let Some(stats) = &hbv {
            let optimum = stats.optimum_half;
            let global = stats.heuristic_global_half;
            let local = stats.heuristic_local_half;
            row.extend(
                [optimum, global, local, optimum - global, optimum - local].map(|n| n.to_string()),
            );
        }
        row.resize(6, "-".into());
        fig4.row(row);

        let orders = [bd4, bd5, hbv];
        let depth = |stats: &SolveStats| stats.search.average_depth();
        let mut row = vec![label.clone(), bidegeneracy.to_string()];
        row.extend(per_order(&orders, |s| format!("{:.2}", depth(s))));
        row.extend(per_order(&orders, |s| {
            format!("{:.3}", depth(s) / bidegeneracy as f64)
        }));
        fig5.row(row);

        let mut row = vec![label];
        row.extend(per_order(&orders, |s| {
            format!("{:.4}", s.avg_subgraph_density)
        }));
        row.extend(per_order(&orders, |s| s.max_subgraph_size.to_string()));
        fig6.row(row);
    }

    table.print();
    println!("\n`-` = budget exceeded in at least one of the {RUNS} runs.");
    print_figure(
        "Figure 4 — gap of heuristic results to the optimum MBB",
        &fig4,
        "Gaps are in half-size units (the paper plots size gap to MBB).",
    );
    print_figure(
        "Figure 5 — average search depth over δ̈(·) per search order",
        &fig5,
        "Depth 0 means verification never branched (stage S1/S2 exit).",
    );
    print_figure(
        "Figure 6 — average density of the vertex-centred subgraphs that pass the size prune, per order",
        &fig6,
        "Density 0 means the solve exited at S1 or no subgraph passed the size prune.",
    );
}

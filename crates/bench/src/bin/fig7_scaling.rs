//! Extension experiment ("Figure 7") — thread scaling of the `hbvMBB`
//! solve through the `MbbEngine` query API.
//!
//! With `threads > 1` the workers split the bridging stage's centres and
//! then the surviving vertex-centred subgraphs between them; each
//! subgraph (at most δ̈ + 1 vertices) is verified on one thread, as in the
//! paper. The instances are skewed Chung–Lu graphs whose solve is
//! dominated by stage-3 verification, so the split is tested where one
//! hub-centred subgraph could carry most of the search.
//!
//! One engine is built per instance and pre-warmed, so the cached
//! bidegeneracy order is shared by every timed solve; speedups isolate
//! the parallel search stages rather than re-measuring preprocessing.
//! Each row is the median of [`RUNS`] solves. Every solve's MBB size
//! must be identical at every thread count (the workers prune only
//! against realised bicliques; the binary exits non-zero if sizes ever
//! disagree, which CI exercises).
//!
//! ```text
//! cargo run -p mbb-bench --release --bin fig7_scaling -- [--seed 42]
//!     [--caps small|default|large] [--threads 1,2,4,8]
//! ```

use mbb_bench::{exit_usage, fmt_seconds, median_secs, run_timed, Args, Table, RUNS};
use mbb_bigraph::bicore::bicore_decomposition;
use mbb_bigraph::generators::{chung_lu_bipartite, ChungLuParams};
use mbb_core::MbbEngine;

fn main() {
    let args = Args::from_env(&["threads"], &[]);
    let seed = args.seed().unwrap_or_else(exit_usage);
    let small = args.caps().unwrap_or_else(exit_usage).max_edges <= 50_000;
    let threads: Vec<usize> = args
        .get_numbers("threads")
        .unwrap_or_else(exit_usage)
        .unwrap_or_else(|| vec![1, 2, 4, 8]);

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("# Figure 7 (extension) — thread scaling of subgraph verification\n");
    println!("{cores} core(s) available to this run.\n");

    let mut table = Table::new(&[
        "n/side", "|E|", "δ̈", "threads", "MBB", "seconds", "speedup", "nodes",
    ]);

    // Skewed, verify-dominated instances: steep power-law weights
    // concentrate the edges on a dense hub region, so ≥ 85% of the solve
    // is stage-3 exhaustive search.
    let shapes: &[(u32, usize, f64)] = if small {
        &[(180, 15_500, 0.55)]
    } else {
        &[(350, 49_000, 0.9), (400, 60_000, 0.8)]
    };

    let mut size_mismatch = false;
    // (threads, speedup) of the fastest multi-threaded row.
    let mut best_speedup: Option<(usize, f64)> = None;
    for &(n, edges, exponent) in shapes {
        let graph = chung_lu_bipartite(
            &ChungLuParams {
                num_left: n,
                num_right: n,
                num_edges: edges,
                left_exponent: exponent,
                right_exponent: exponent,
            },
            seed,
        );
        let bidegeneracy = bicore_decomposition(&graph).bidegeneracy;
        let engine = MbbEngine::new(graph);
        // Warm the session so every timed solve sees the cached indices.
        engine.solve();

        // Every solve's MBB size, over all rows of this instance.
        let mut halves = Vec::new();
        // One row: the median seconds and nodes of `RUNS` solves at `t`
        // threads.
        let mut row = |t: usize, baseline: Option<f64>| {
            let mut nodes = Vec::with_capacity(RUNS);
            let seconds = median_secs(|| {
                let (result, seconds) = run_timed(|| engine.query().threads(t).solve());
                halves.push(result.value.half_size());
                nodes.push(result.stats.search.nodes);
                Some(seconds)
            })
            .expect("a solve without a budget always completes");
            nodes.sort_unstable();
            let speedup = baseline.map_or(1.0, |b| b / seconds.max(1e-9));
            table.row(vec![
                n.to_string(),
                edges.to_string(),
                bidegeneracy.to_string(),
                t.to_string(),
                halves[halves.len() - 1].to_string(),
                fmt_seconds(Some(seconds)),
                format!("{speedup:.2}x"),
                nodes[RUNS / 2].to_string(),
            ]);
            (seconds, speedup)
        };
        let (baseline, _) = row(1, None);
        for &t in threads.iter().filter(|&&t| t > 1) {
            let (_, speedup) = row(t, Some(baseline));
            if best_speedup.is_none_or(|(_, s)| speedup > s) {
                best_speedup = Some((t, speedup));
            }
        }
        size_mismatch |= halves.iter().any(|&h| h != halves[0]);
    }
    table.print();
    println!(
        "\nReading: all rows of an instance share one pre-warmed engine session.\n\
         A row with `threads` > 1 splits bridging's centres and then the\n\
         surviving vertex-centred subgraphs across that many workers, each\n\
         subgraph searched on one thread against a shared incumbent. A row's\n\
         seconds and nodes are each the median of its {RUNS} solves; the\n\
         speedup is the serial row's seconds over the row's own. Every solve\n\
         must find the same MBB size, so the MBB column is identical in every row."
    );
    match best_speedup {
        Some((t, speedup)) => println!(
            "Measured here: the fastest multi-threaded row ran {speedup:.2}x the serial \
             solve, at {t} threads on {cores} core(s); each row the median of {RUNS} solves."
        ),
        None => println!("Measured here: the serial rows only (no --threads value above 1)."),
    }
    if size_mismatch {
        eprintln!("ERROR: parallel solve reported a different MBB size than serial");
        std::process::exit(1);
    }
}

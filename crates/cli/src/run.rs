//! Solver dispatch for the CLI.

use std::time::Instant;

use mbb_bigraph::local::LocalGraph;
use mbb_core::basic::basic_bb;
use mbb_core::biclique::Biclique;
use mbb_core::stats::SolveStats;
use mbb_core::{dense_mbb_graph, MbbEngine, SolverConfig};

use crate::options::{Algorithm, Options};

/// What the CLI reports.
#[derive(Debug)]
pub struct Report {
    /// The optimum balanced biclique (1-based ids on output).
    pub biclique: Biclique,
    /// Graph shape.
    pub num_left: usize,
    /// Graph shape.
    pub num_right: usize,
    /// Graph shape.
    pub num_edges: usize,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// True when the run hit the budget (hbv or ext) — result is a bound.
    pub timed_out: bool,
    /// Solver statistics when available (`hbv`/`dense`).
    pub stats: Option<SolveStats>,
    /// Algorithm label.
    pub algorithm: &'static str,
}

/// Loads the graph (through the store, so warm `.mbbg` caches are used)
/// and runs the selected solver.
pub fn run(options: &Options) -> Result<Report, String> {
    let graph = crate::commands::load_graph(&options.input)?.graph;
    let start = Instant::now();
    let (biclique, stats, timed_out, algorithm) = match options.algorithm {
        Algorithm::Hbv => {
            // Arc-share the graph with the engine: no CSR copy.
            let engine = MbbEngine::from_arc(
                graph.clone(),
                SolverConfig {
                    order: options.order,
                    threads: options.threads,
                    parallel_mode: options.parallel_mode,
                    ..Default::default()
                },
            );
            let mut query = engine.query();
            if let Some(budget) = options.budget {
                query = query.deadline(budget);
            }
            let result = query.solve();
            (
                result.value,
                Some(result.stats),
                !result.termination.is_complete(),
                "hbvMBB",
            )
        }
        Algorithm::Dense => {
            let (biclique, stats) = dense_mbb_graph(&graph);
            (biclique, Some(stats), false, "denseMBB")
        }
        Algorithm::Basic => {
            let left_ids: Vec<u32> = (0..graph.num_left() as u32).collect();
            let right_ids: Vec<u32> = (0..graph.num_right() as u32).collect();
            let local = LocalGraph::induced(&graph, &left_ids, &right_ids);
            let (found, _) = basic_bb(&local, 0);
            (
                Biclique::balanced(found.left, found.right),
                None,
                false,
                "basicBB",
            )
        }
        Algorithm::Ext => {
            let out = mbb_baselines::ext_bbclq(&graph, options.budget);
            (out.biclique, None, out.timed_out, "extBBClq")
        }
    };
    let seconds = start.elapsed().as_secs_f64();
    debug_assert!(biclique.is_valid(&graph));
    Ok(Report {
        biclique,
        num_left: graph.num_left(),
        num_right: graph.num_right(),
        num_edges: graph.num_edges(),
        seconds,
        timed_out,
        stats,
        algorithm,
    })
}

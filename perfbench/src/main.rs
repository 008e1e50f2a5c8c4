//! End-to-end and per-layer benchmark of the MBB solver and its resident
//! service; see `README.md` beside this crate for the workloads and
//! metrics.
//!
//! ```text
//! perfbench --workload sparse-cold|dense-verify|serve-open \
//!           --seed N --seconds S --trace 0|1
//! perfbench --record        # regenerate reference.tsv (parent commit)
//! ```
//!
//! Human-readable notes go to stdout first; the last line is the JSON
//! result object.

mod batch;
mod inputs;
mod layers;
mod serve;
mod stats;

use std::process::ExitCode;

use mbb_core::MbbEngine;
use mbb_store::GraphStore;

use crate::inputs::{
    dense_graph, dense_name, describe, generate, graph_path, write_graph, Reference,
    ReferenceTable, Set, DENSE_CANDIDATES, POOL, REFERENCE_HEADER,
};
use crate::layers::{solve_record, staged_query};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        if flag == "--record" {
            return Ok(None);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    }))
}

/// Prints `reference.tsv`: every sparse set's graphs and every dense
/// candidate, described and solved cold, with the staged chain's residual
/// size.
fn record() -> Result<(), String> {
    println!("# Reference optima, solve counters and input descriptors, one row per graph.");
    println!("# Regenerate with: cargo run --release --manifest-path perfbench/Cargo.toml -- --record > perfbench/reference.tsv");
    println!("{REFERENCE_HEADER}");
    let store = GraphStore::new();
    let none = ReferenceTable::parse("");
    let sparse = (0..POOL).map(|pool| (Set::Sparse, pool, generate(Set::Sparse, pool, &none)));
    let dense =
        (0..DENSE_CANDIDATES).map(|rep| (Set::Dense, 0, vec![(dense_name(rep), dense_graph(rep))]));
    for (set, pool, graphs) in sparse.chain(dense) {
        for (name, graph) in graphs {
            let path = graph_path(set, pool, &name);
            write_graph(&graph, &path).map_err(|e| e.to_string())?;
            let descriptor = describe(&graph);
            let solve = solve_record(&MbbEngine::new(graph).solve());
            let (_, staged, times, _) = staged_query(&store, &path)?;
            if staged != solve {
                return Err(format!("{name}: staged chain disagrees with solve()"));
            }
            let reference = Reference {
                descriptor,
                solve,
                residual_edges: times.residual_edges,
            };
            println!("{}", inputs::reference_row(set, pool, &name, &reference));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            return match record() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "sparse-cold" => batch::run(Set::Sparse, args.seed, args.seconds, args.trace),
        "dense-verify" => batch::run(Set::Dense, args.seed, args.seconds, args.trace),
        "serve-open" => serve::run(args.seed, args.seconds, args.trace),
        other => Err(format!("unknown workload {other}")),
    };
    match report {
        Ok(report) => {
            for note in &report.notes {
                println!("# {note}");
            }
            for error in &report.errors {
                println!("# ERROR {error}");
            }
            println!("{}", report.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

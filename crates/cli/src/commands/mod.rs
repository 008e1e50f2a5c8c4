//! Subcommand implementations.
//!
//! `mbb` dispatches on its first argument: a known subcommand name routes
//! here, anything else is treated as an input path for the default
//! `solve` behaviour (back-compatible with the original single-command
//! interface).

pub mod anchored;
pub mod bench_obs;
pub mod enumerate;
pub mod frontier;
pub mod generate;
pub mod ingest;
pub mod serve;
pub mod serve_batch;
pub mod stats;
pub mod topk;
pub mod trace;

use mbb_store::{GraphStore, LoadedGraph};

/// Loads a graph through the [`GraphStore`] — every subcommand's input
/// path goes through here, so warm `.mbbg` caches are used (and
/// written/refreshed) everywhere. `MBB_CACHE=off|ro` opts out.
pub fn load_graph(spec: &str) -> Result<LoadedGraph, String> {
    GraphStore::from_env()
        .load(spec)
        .map_err(|e| format!("{spec}: {e}"))
}

/// Top-level usage text.
pub const USAGE: &str = "\
usage: mbb <command> [args]   (or: mbb <edge-list-file> [solve options])

commands:
  solve      find the maximum balanced biclique (default command)
  stats      structural profile: density, degrees, δ, δ̈, butterflies
  generate   write a seeded synthetic bipartite graph
  ingest     pre-build the .mbbg binary cache for edge-list files
  enumerate  stream maximal bicliques
  topk       the k best balanced bicliques
  anchored   largest balanced biclique through a given vertex
  frontier   Pareto frontier of feasible biclique sizes
  serve-batch  run a JSONL query batch over sharded engine sessions
  serve      resident JSONL stream service with admission control
  trace      replay a request file with spans on, print per-stage times
  bench-obs  measure span-instrumentation overhead, write BENCH_obs.json

Graph inputs accept an edge list or a .mbbg binary cache; a fresh cache
next to an edge list is used automatically (MBB_CACHE=off disables).

`mbb <command> --help` prints per-command options.";

/// Dispatch result: rendered output or an error message.
pub fn dispatch(command: &str, args: &[String]) -> Result<String, String> {
    let wants_help = args.iter().any(|a| a == "--help" || a == "-h");
    match command {
        "stats" => {
            if wants_help {
                return Ok(format!("{}\n", stats::USAGE));
            }
            stats::run(&stats::StatsOptions::parse(args)?)
        }
        "generate" => {
            if wants_help {
                return Ok(format!("{}\n", generate::USAGE));
            }
            generate::run(&generate::GenerateOptions::parse(args)?)
        }
        "ingest" => {
            if wants_help {
                return Ok(format!("{}\n", ingest::USAGE));
            }
            ingest::run(&ingest::IngestOptions::parse(args)?)
        }
        "enumerate" => {
            if wants_help {
                return Ok(format!("{}\n", enumerate::USAGE));
            }
            enumerate::run(&enumerate::EnumerateOptions::parse(args)?)
        }
        "topk" => {
            if wants_help {
                return Ok(format!("{}\n", topk::USAGE));
            }
            topk::run(&topk::TopkOptions::parse(args)?)
        }
        "anchored" => {
            if wants_help {
                return Ok(format!("{}\n", anchored::USAGE));
            }
            anchored::run(&anchored::AnchoredOptions::parse(args)?)
        }
        "frontier" => {
            if wants_help {
                return Ok(format!("{}\n", frontier::USAGE));
            }
            frontier::run(&frontier::FrontierOptions::parse(args)?)
        }
        "serve-batch" => {
            if wants_help {
                return Ok(format!("{}\n", serve_batch::USAGE));
            }
            serve_batch::run(&serve_batch::ServeBatchOptions::parse(args)?)
        }
        "serve" => {
            if wants_help {
                return Ok(format!("{}\n", serve::USAGE));
            }
            serve::run(&serve::ServeOptions::parse(args)?)
        }
        "trace" => {
            if wants_help {
                return Ok(format!("{}\n", trace::USAGE));
            }
            trace::run(&trace::TraceOptions::parse(args)?)
        }
        "bench-obs" => {
            if wants_help {
                return Ok(format!("{}\n", bench_obs::USAGE));
            }
            bench_obs::run(&bench_obs::BenchObsOptions::parse(args)?)
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

/// True when `name` is a recognised subcommand.
pub fn is_command(name: &str) -> bool {
    matches!(
        name,
        "solve"
            | "stats"
            | "generate"
            | "ingest"
            | "enumerate"
            | "topk"
            | "anchored"
            | "frontier"
            | "serve-batch"
            | "serve"
            | "trace"
            | "bench-obs"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recognises_commands() {
        assert!(is_command("stats"));
        assert!(is_command("solve"));
        assert!(!is_command("graph.txt"));
        assert!(!is_command("--help"));
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(dispatch("quantum", &[]).is_err());
    }

    #[test]
    fn per_command_help() {
        for cmd in [
            "stats",
            "generate",
            "ingest",
            "enumerate",
            "topk",
            "anchored",
            "frontier",
            "serve-batch",
            "serve",
            "trace",
            "bench-obs",
        ] {
            let text = dispatch(cmd, &["--help".to_string()]).unwrap();
            assert!(text.contains("usage:"), "{cmd}");
        }
    }
}

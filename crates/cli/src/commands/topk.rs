//! `mbb topk` — the k best balanced bicliques of an edge list.

use std::time::Duration;

use mbb_core::MbbEngine;
use serde::Serialize;

use crate::args::{self, Arg, ArgError, Args};

/// Usage text for the subcommand.
pub const USAGE: &str = "\
usage: mbb topk <edge-list-file> --k <N> [--budget-secs <N>] [--json]

Prints the N maximal bicliques with the largest balanced size
min(|A|, |B|), best first, 1-based ids matching the input file.";

/// Parsed `topk` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopkOptions {
    /// Input path.
    pub input: String,
    /// How many results.
    pub k: usize,
    /// Time budget in seconds.
    pub budget_secs: Option<u64>,
    /// Emit JSON.
    pub json: bool,
}

impl TopkOptions {
    /// Parses the subcommand's argv (after `topk`).
    pub fn parse(args: &[String]) -> Result<TopkOptions, ArgError> {
        let mut options = TopkOptions {
            input: String::new(),
            k: 0,
            budget_secs: None,
            json: false,
        };
        let mut args = Args::new(args);
        while let Some(arg) = args.next() {
            match arg {
                Arg::Flag("--json") => options.json = true,
                Arg::Flag("--k") => options.k = args.number()?,
                Arg::Flag("--budget-secs") => options.budget_secs = Some(args.number()?),
                Arg::Positional(path) => args::set_once(&mut options.input, path)?,
                other => return Err(other.unknown()),
            }
        }
        args::require_input(&options.input)?;
        if options.k == 0 {
            return Err("--k is required and must be positive".into());
        }
        Ok(options)
    }
}

#[derive(Serialize)]
struct JsonResult {
    complete: bool,
    bicliques: Vec<JsonBiclique>,
}

#[derive(Serialize)]
struct JsonBiclique {
    rank: usize,
    balanced_size: usize,
    left: Vec<u32>,
    right: Vec<u32>,
}

/// Runs the subcommand, returning the rendered output.
pub fn run(options: &TopkOptions) -> Result<String, String> {
    let loaded = crate::commands::load_graph(&options.input)?;
    let graph = loaded.graph;
    let engine = MbbEngine::from_arc(graph, Default::default());
    let mut query = engine.query();
    if let Some(secs) = options.budget_secs {
        query = query.deadline(Duration::from_secs(secs));
    }
    let result = query.topk(options.k);
    let complete = result.termination.is_complete();
    let rows: Vec<JsonBiclique> = result
        .value
        .iter()
        .enumerate()
        .map(|(i, b)| JsonBiclique {
            rank: i + 1,
            balanced_size: b.balanced_size(),
            left: b.left.iter().map(|&u| u + 1).collect(),
            right: b.right.iter().map(|&v| v + 1).collect(),
        })
        .collect();
    if options.json {
        let mut out = serde_json::to_string_pretty(&JsonResult {
            complete,
            bicliques: rows,
        })
        .expect("result serialises");
        out.push('\n');
        return Ok(out);
    }
    let mut out = String::new();
    for row in &rows {
        out.push_str(&format!(
            "#{} balanced {}: {:?} x {:?}\n",
            row.rank, row.balanced_size, row.left, row.right
        ));
    }
    if !complete {
        out.push_str("[stopped early — ranking may be incomplete]\n");
    }
    if rows.is_empty() {
        out.push_str("no bicliques found\n");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<TopkOptions, ArgError> {
        TopkOptions::parse(&s.split_whitespace().map(str::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn parses_k() {
        let o = parse("g.txt --k 5 --json").unwrap();
        assert_eq!(o.k, 5);
        assert!(o.json);
    }

    #[test]
    fn rejects_threads() {
        let err = parse("g.txt --k 2 --threads 0").unwrap_err();
        assert_eq!(err, ArgError::Unknown("--threads".to_string()));
    }

    #[test]
    fn k_is_required() {
        assert!(parse("g.txt").is_err());
        assert!(parse("g.txt --k 0").is_err());
    }

    #[test]
    fn requires_input() {
        assert!(parse("--k 3").is_err());
    }
}

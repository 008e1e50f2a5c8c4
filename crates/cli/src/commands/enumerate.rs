//! `mbb enumerate` — stream maximal bicliques of an edge list.

use std::time::Duration;

use mbb_core::enumerate::EnumConfig;
use mbb_core::MbbEngine;
use serde::Serialize;

use crate::args::{self, Arg, ArgError, Args};

/// Usage text for the subcommand.
pub const USAGE: &str = "\
usage: mbb enumerate <edge-list-file> [options]

Enumerates maximal bicliques (each exactly once, both sides non-empty),
one per output line, 1-based ids matching the input file.

options:
  --min-left <N>     only bicliques with |A| >= N (default 1)
  --min-right <N>    only bicliques with |B| >= N (default 1)
  --max-results <N>  stop after N bicliques
  --budget-secs <N>  stop after N seconds
  --json             one JSON object per line (JSONL)";

/// Parsed `enumerate` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnumerateOptions {
    /// Input path.
    pub input: String,
    /// Minimum `|A|`.
    pub min_left: usize,
    /// Minimum `|B|`.
    pub min_right: usize,
    /// Result cap.
    pub max_results: Option<u64>,
    /// Time budget in seconds.
    pub budget_secs: Option<u64>,
    /// Emit JSONL.
    pub json: bool,
}

impl EnumerateOptions {
    /// Parses the subcommand's argv (after `enumerate`).
    pub fn parse(args: &[String]) -> Result<EnumerateOptions, ArgError> {
        let mut options = EnumerateOptions {
            input: String::new(),
            min_left: 1,
            min_right: 1,
            max_results: None,
            budget_secs: None,
            json: false,
        };
        let mut args = Args::new(args);
        while let Some(arg) = args.next() {
            match arg {
                Arg::Flag("--json") => options.json = true,
                Arg::Flag("--min-left") => options.min_left = args.number()?,
                Arg::Flag("--min-right") => options.min_right = args.number()?,
                Arg::Flag("--max-results") => options.max_results = Some(args.number()?),
                Arg::Flag("--budget-secs") => options.budget_secs = Some(args.number()?),
                Arg::Positional(path) => args::set_once(&mut options.input, path)?,
                other => return Err(other.unknown()),
            }
        }
        args::require_input(&options.input)?;
        Ok(options)
    }
}

#[derive(Serialize)]
struct JsonLine {
    left: Vec<u32>,
    right: Vec<u32>,
    balanced_size: usize,
}

/// Runs the subcommand, returning the rendered output.
pub fn run(options: &EnumerateOptions) -> Result<String, String> {
    let loaded = crate::commands::load_graph(&options.input)?;
    let graph = loaded.graph;
    let config = EnumConfig {
        min_left: options.min_left,
        min_right: options.min_right,
        max_results: options.max_results,
    };
    let engine = MbbEngine::from_arc(graph, Default::default());
    let mut query = engine.query();
    if let Some(secs) = options.budget_secs {
        query = query.deadline(Duration::from_secs(secs));
    }
    let result = query.enumerate(config);
    let mut out = String::new();
    for b in &result.value.bicliques {
        let left: Vec<u32> = b.left.iter().map(|&u| u + 1).collect();
        let right: Vec<u32> = b.right.iter().map(|&v| v + 1).collect();
        if options.json {
            let line = JsonLine {
                balanced_size: b.balanced_size(),
                left,
                right,
            };
            out.push_str(&serde_json::to_string(&line).expect("line serialises"));
            out.push('\n');
        } else {
            out.push_str(&format!("{left:?} x {right:?}\n"));
        }
    }
    let outcome = result.value.outcome;
    if !options.json {
        out.push_str(&format!(
            "{} maximal biclique(s){}\n",
            outcome.reported,
            if outcome.complete {
                ""
            } else {
                " [stopped early]"
            }
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<EnumerateOptions, ArgError> {
        EnumerateOptions::parse(&s.split_whitespace().map(str::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn parses_filters() {
        let o = parse("g.txt --min-left 2 --min-right 3 --max-results 10 --json").unwrap();
        assert_eq!(o.min_left, 2);
        assert_eq!(o.min_right, 3);
        assert_eq!(o.max_results, Some(10));
        assert!(o.json);
    }

    #[test]
    fn rejects_threads() {
        let err = parse("g.txt --threads 0").unwrap_err();
        assert_eq!(err, ArgError::Unknown("--threads".to_string()));
    }

    #[test]
    fn requires_input() {
        assert!(parse("--json").is_err());
    }

    #[test]
    fn bad_number_rejected() {
        assert!(parse("g.txt --min-left many").is_err());
    }
}

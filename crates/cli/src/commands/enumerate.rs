//! `mbb enumerate` — stream maximal bicliques of an edge list.

use std::time::Duration;

use mbb_core::enumerate::EnumConfig;
use mbb_core::MbbEngine;
use serde::Serialize;

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
  --threads <N>      reserved for the engine's parallel stages; the
                     enumeration itself is currently sequential
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
    /// Engine worker threads (0 = one per core).
    pub threads: usize,
    /// Emit JSONL.
    pub json: bool,
}

impl EnumerateOptions {
    /// Parses the subcommand's argv (after `enumerate`).
    pub fn parse(args: &[String]) -> Result<EnumerateOptions, String> {
        let mut options = EnumerateOptions {
            input: String::new(),
            min_left: 1,
            min_right: 1,
            max_results: None,
            budget_secs: None,
            threads: 1,
            json: false,
        };
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            let mut value_of = |flag: &str| {
                iter.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match arg.as_str() {
                "--json" => options.json = true,
                "--min-left" => {
                    options.min_left = parse_number(&value_of("--min-left")?, "--min-left")?;
                }
                "--min-right" => {
                    options.min_right = parse_number(&value_of("--min-right")?, "--min-right")?;
                }
                "--max-results" => {
                    options.max_results =
                        Some(parse_number(&value_of("--max-results")?, "--max-results")?);
                }
                "--budget-secs" => {
                    options.budget_secs =
                        Some(parse_number(&value_of("--budget-secs")?, "--budget-secs")?);
                }
                "--threads" => {
                    options.threads = parse_number(&value_of("--threads")?, "--threads")?;
                }
                other if other.starts_with('-') => {
                    return Err(format!("unknown option {other:?}"));
                }
                path => {
                    if !options.input.is_empty() {
                        return Err(format!("unexpected extra argument {path:?}"));
                    }
                    options.input = path.to_string();
                }
            }
        }
        if options.input.is_empty() {
            return Err("missing input file".to_string());
        }
        Ok(options)
    }
}

fn parse_number<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: bad number {value:?}"))
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
    let mut query = engine.query().threads(options.threads);
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

    fn parse(s: &str) -> Result<EnumerateOptions, String> {
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
    fn parses_threads() {
        let o = parse("g.txt --threads 0").unwrap();
        assert_eq!(o.threads, 0);
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

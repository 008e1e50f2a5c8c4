//! `mbb frontier` — the Pareto frontier of feasible biclique sizes.

use std::time::Duration;

use mbb_core::MbbEngine;
use serde::Serialize;

use crate::args::{self, Arg, ArgError, Args};

/// Usage text for the subcommand.
pub const USAGE: &str = "\
usage: mbb frontier <edge-list-file> [--budget-secs <N>] [--json]

Prints the Pareto-maximal feasible biclique size pairs (a, b): a biclique
with |A| >= a and |B| >= b exists iff some frontier point dominates
(a, b). The balanced corner is the MBB, the max-product corner the MEB,
the max-sum corner the MVB.";

/// Parsed `frontier` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontierOptions {
    /// Input path.
    pub input: String,
    /// Time budget in seconds.
    pub budget_secs: Option<u64>,
    /// Emit JSON.
    pub json: bool,
}

impl FrontierOptions {
    /// Parses the subcommand's argv (after `frontier`).
    pub fn parse(args: &[String]) -> Result<FrontierOptions, ArgError> {
        let mut options = FrontierOptions {
            input: String::new(),
            budget_secs: None,
            json: false,
        };
        let mut args = Args::new(args);
        while let Some(arg) = args.next() {
            match arg {
                Arg::Flag("--json") => options.json = true,
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
struct JsonFrontier {
    complete: bool,
    pairs: Vec<[usize; 2]>,
    mbb_half: usize,
    meb_edges: usize,
    mvb_total: usize,
}

/// Runs the subcommand, returning the rendered output.
pub fn run(options: &FrontierOptions) -> Result<String, String> {
    let loaded = crate::commands::load_graph(&options.input)?;
    let graph = loaded.graph;
    let engine = MbbEngine::from_arc(graph, Default::default());
    let mut query = engine.query();
    if let Some(secs) = options.budget_secs {
        query = query.deadline(Duration::from_secs(secs));
    }
    let frontier = query.frontier().value;
    if options.json {
        let mut out = serde_json::to_string_pretty(&JsonFrontier {
            complete: frontier.complete,
            pairs: frontier.pairs.iter().map(|&(a, b)| [a, b]).collect(),
            mbb_half: frontier.mbb_half(),
            meb_edges: frontier.meb_edges(),
            mvb_total: frontier.mvb_total(),
        })
        .expect("frontier serialises");
        out.push('\n');
        return Ok(out);
    }
    let mut out = String::new();
    out.push_str("feasible size frontier (a, b):\n");
    for &(a, b) in &frontier.pairs {
        out.push_str(&format!("  {a} x {b}\n"));
    }
    if frontier.pairs.is_empty() {
        out.push_str("  (no bicliques — edgeless graph)\n");
    }
    out.push_str(&format!(
        "corners: MBB half = {}, MEB edges = {}, MVB total = {}\n",
        frontier.mbb_half(),
        frontier.meb_edges(),
        frontier.mvb_total()
    ));
    if !frontier.complete {
        out.push_str("[stopped early — frontier is a lower bound]\n");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<FrontierOptions, ArgError> {
        FrontierOptions::parse(&s.split_whitespace().map(str::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn parses_options() {
        let o = parse("g.txt --budget-secs 10 --json").unwrap();
        assert_eq!(o.budget_secs, Some(10));
        assert!(o.json);
    }

    #[test]
    fn requires_input() {
        assert!(parse("--json").is_err());
    }

    #[test]
    fn rejects_unknown_option() {
        assert!(parse("g.txt --fast").is_err());
    }
}

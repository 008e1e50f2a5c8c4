//! `mbb stats` — structural profile of an edge list.

use mbb_bigraph::metrics::GraphProfile;
use serde::Serialize;

use crate::args::{self, Arg, ArgError, Args};

/// Usage text for the subcommand.
pub const USAGE: &str = "\
usage: mbb stats <edge-list-file> [--full] [--json]

Prints a structural profile: sizes, density, degree summaries and the
degeneracy, plus how the graph was loaded (parsed vs. binary cache hit,
with the load time). With --full, also the bidegeneracy (the paper's
sparsity measure) and the butterfly count — these cost O(Σ deg²), so use
them on graphs that fit that budget.";

/// Parsed `stats` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsOptions {
    /// Input path.
    pub input: String,
    /// Also compute bidegeneracy and butterflies.
    pub full: bool,
    /// Emit JSON.
    pub json: bool,
}

impl StatsOptions {
    /// Parses the subcommand's argv (after `stats`).
    pub fn parse(args: &[String]) -> Result<StatsOptions, ArgError> {
        let mut options = StatsOptions {
            input: String::new(),
            full: false,
            json: false,
        };
        for arg in Args::new(args) {
            match arg {
                Arg::Flag("--full") => options.full = true,
                Arg::Flag("--json") => options.json = true,
                Arg::Positional(path) => args::set_once(&mut options.input, path)?,
                other => return Err(other.unknown()),
            }
        }
        args::require_input(&options.input)?;
        Ok(options)
    }
}

#[derive(Serialize)]
struct JsonProfile {
    num_left: usize,
    num_right: usize,
    num_edges: usize,
    density: f64,
    left_max_degree: usize,
    left_mean_degree: f64,
    right_max_degree: usize,
    right_mean_degree: f64,
    degeneracy: u32,
    #[serde(skip_serializing_if = "Option::is_none")]
    bidegeneracy: Option<u32>,
    #[serde(skip_serializing_if = "Option::is_none")]
    butterflies: Option<u64>,
    mbb_half_upper_bound: usize,
    load_provenance: &'static str,
    load_ms: f64,
}

/// Runs the subcommand, returning the rendered output.
pub fn run(options: &StatsOptions) -> Result<String, String> {
    let loaded = crate::commands::load_graph(&options.input)?;
    let graph = &*loaded.graph;
    let profile = if options.full {
        GraphProfile::of(graph)
    } else {
        GraphProfile::cheap(graph)
    };
    if options.json {
        let json = JsonProfile {
            num_left: profile.num_left,
            num_right: profile.num_right,
            num_edges: profile.num_edges,
            density: profile.density,
            left_max_degree: profile.left_degrees.max,
            left_mean_degree: profile.left_degrees.mean,
            right_max_degree: profile.right_degrees.max,
            right_mean_degree: profile.right_degrees.mean,
            degeneracy: profile.degeneracy,
            bidegeneracy: options.full.then_some(profile.bidegeneracy),
            butterflies: options.full.then_some(profile.butterflies),
            mbb_half_upper_bound: profile.mbb_half_upper_bound(),
            load_provenance: loaded.provenance.label(),
            load_ms: loaded.load_time.as_secs_f64() * 1e3,
        };
        let mut out = serde_json::to_string_pretty(&json).expect("profile serialises");
        out.push('\n');
        return Ok(out);
    }
    let mut out = profile.to_string();
    if !options.full {
        out = out.replace(
            ", δ̈ = 0, butterflies = 0",
            " (use --full for δ̈/butterflies)",
        );
    }
    out.push_str(&format!(
        "\nMBB half-size upper bound: {}\n",
        profile.mbb_half_upper_bound()
    ));
    out.push_str(&format!("load: {}\n", loaded.describe()));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<StatsOptions, ArgError> {
        StatsOptions::parse(&s.split_whitespace().map(str::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn parses_flags() {
        let o = parse("g.txt --full --json").unwrap();
        assert!(o.full && o.json);
        assert_eq!(o.input, "g.txt");
    }

    #[test]
    fn requires_input() {
        assert!(parse("--json").is_err());
    }

    #[test]
    fn rejects_unknown_flags() {
        assert!(parse("g.txt --verbose").is_err());
    }

    #[test]
    fn rejects_two_inputs() {
        assert!(parse("a.txt b.txt").is_err());
    }
}

//! Text and JSON rendering for the CLI.

use serde::Serialize;

use crate::options::Options;
use crate::run::Report;

#[derive(Serialize)]
struct JsonReport<'a> {
    algorithm: &'a str,
    num_left: usize,
    num_right: usize,
    num_edges: usize,
    half_size: usize,
    total_size: usize,
    /// 1-based, matching the KONECT input ids.
    left: Vec<u32>,
    right: Vec<u32>,
    seconds: f64,
    timed_out: bool,
    #[serde(skip_serializing_if = "Option::is_none")]
    stage: Option<String>,
    #[serde(skip_serializing_if = "Option::is_none")]
    degeneracy: Option<u32>,
    #[serde(skip_serializing_if = "Option::is_none")]
    bidegeneracy: Option<u32>,
}

/// Renders the report per the output options.
pub fn render(report: &Report, options: &Options) -> String {
    // Back to the input file's 1-based ids.
    let left: Vec<u32> = report.biclique.left.iter().map(|&u| u + 1).collect();
    let right: Vec<u32> = report.biclique.right.iter().map(|&v| v + 1).collect();

    if options.json {
        let json = JsonReport {
            algorithm: report.algorithm,
            num_left: report.num_left,
            num_right: report.num_right,
            num_edges: report.num_edges,
            half_size: report.biclique.half_size(),
            total_size: report.biclique.total_size(),
            left,
            right,
            seconds: report.seconds,
            timed_out: report.timed_out,
            stage: report.stats.as_ref().map(|s| s.stage.to_string()),
            degeneracy: report.stats.as_ref().map(|s| s.degeneracy),
            bidegeneracy: report.stats.as_ref().and_then(|s| s.bidegeneracy),
        };
        let mut out = serde_json::to_string_pretty(&json).expect("report serialises");
        out.push('\n');
        return out;
    }

    let mut out = String::new();
    out.push_str(&format!(
        "graph: |L|={} |R|={} |E|={}\n",
        report.num_left, report.num_right, report.num_edges
    ));
    out.push_str(&format!(
        "maximum balanced biclique ({}): {}x{} in {:.3}s{}\n",
        report.algorithm,
        report.biclique.half_size(),
        report.biclique.half_size(),
        report.seconds,
        if report.timed_out {
            " [TIMED OUT — lower bound only]"
        } else {
            ""
        }
    ));
    out.push_str(&format!("left:  {left:?}\nright: {right:?}\n"));
    if options.stats {
        if let Some(stats) = &report.stats {
            out.push_str(&format!(
                "stage: {} | δ = {} | δ̈ = {} | subgraphs: {} generated, {} verified\n",
                stats.stage,
                stats.degeneracy,
                stats
                    .bidegeneracy
                    .map_or_else(|| "n/a".to_string(), |d| d.to_string()),
                stats.subgraphs_generated,
                stats.subgraphs_verified
            ));
            out.push_str(&format!(
                "search: {} nodes, {} poly solves, max depth {}\n",
                stats.search.nodes, stats.search.poly_solves, stats.search.max_depth
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::Options;
    use mbb_core::biclique::Biclique;

    fn sample_report() -> Report {
        Report {
            biclique: Biclique::balanced(vec![0, 2], vec![1, 3]),
            num_left: 5,
            num_right: 5,
            num_edges: 9,
            seconds: 0.012,
            timed_out: false,
            stats: None,
            algorithm: "hbvMBB",
        }
    }

    fn options(extra: &str) -> Options {
        let mut args = vec!["g.txt".to_string()];
        args.extend(extra.split_whitespace().map(str::to_string));
        Options::parse(&args).unwrap()
    }

    #[test]
    fn text_output_uses_one_based_ids() {
        let text = render(&sample_report(), &options(""));
        assert!(text.contains("left:  [1, 3]"), "{text}");
        assert!(text.contains("right: [2, 4]"), "{text}");
        assert!(text.contains("2x2"));
    }

    #[test]
    fn json_output_is_valid_json() {
        let text = render(&sample_report(), &options("--json"));
        let value: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(value["half_size"], 2);
        assert_eq!(value["left"][0], 1);
        assert_eq!(value["algorithm"], "hbvMBB");
    }

    #[test]
    fn timeout_is_flagged() {
        let mut report = sample_report();
        report.timed_out = true;
        let text = render(&report, &options(""));
        assert!(text.contains("TIMED OUT"));
    }
}

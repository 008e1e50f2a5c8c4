//! `mbb anchored` — the largest balanced biclique through a given vertex.

use mbb_bigraph::graph::Vertex;
use mbb_core::MbbEngine;
use serde::Serialize;

use crate::args::{self, Arg, ArgError, Args};

/// Usage text for the subcommand.
pub const USAGE: &str = "\
usage: mbb anchored <edge-list-file> --vertex <L<id>|R<id>> [--json]

Finds the maximum balanced biclique containing the given vertex
(1-based ids matching the input file), e.g. --vertex L3 or --vertex R12.";

/// Parsed `anchored` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnchoredOptions {
    /// Input path.
    pub input: String,
    /// True when the anchor is on the left side.
    pub left_side: bool,
    /// 1-based anchor id within its side.
    pub id: u32,
    /// Emit JSON.
    pub json: bool,
}

impl AnchoredOptions {
    /// Parses the subcommand's argv (after `anchored`).
    pub fn parse(args: &[String]) -> Result<AnchoredOptions, ArgError> {
        let mut options = AnchoredOptions {
            input: String::new(),
            left_side: true,
            id: 0,
            json: false,
        };
        let mut args = Args::new(args);
        while let Some(arg) = args.next() {
            match arg {
                Arg::Flag("--json") => options.json = true,
                Arg::Flag("--vertex") => {
                    let value = args.value()?;
                    let side = value
                        .chars()
                        .next()
                        .ok_or_else(|| format!("--vertex: bad value {value:?}"))?;
                    let digits = &value[side.len_utf8()..];
                    options.left_side = match side {
                        'L' | 'l' => true,
                        'R' | 'r' => false,
                        _ => {
                            return Err(format!("--vertex must start with L or R: {value:?}").into())
                        }
                    };
                    options.id = digits
                        .parse()
                        .map_err(|_| format!("--vertex: bad id {digits:?}"))?;
                    if options.id == 0 {
                        return Err("--vertex ids are 1-based".into());
                    }
                }
                Arg::Positional(path) => args::set_once(&mut options.input, path)?,
                other => return Err(other.unknown()),
            }
        }
        args::require_input(&options.input)?;
        if options.id == 0 {
            return Err("--vertex is required".into());
        }
        Ok(options)
    }
}

#[derive(Serialize)]
struct JsonAnchored {
    anchor: String,
    half_size: usize,
    left: Vec<u32>,
    right: Vec<u32>,
}

/// Runs the subcommand, returning the rendered output.
pub fn run(options: &AnchoredOptions) -> Result<String, String> {
    let loaded = crate::commands::load_graph(&options.input)?;
    let graph = loaded.graph;
    let zero_based = options.id - 1;
    let side_size = if options.left_side {
        graph.num_left()
    } else {
        graph.num_right()
    };
    if zero_based as usize >= side_size {
        return Err(format!(
            "vertex {}{} out of range (side has {side_size} vertices)",
            if options.left_side { 'L' } else { 'R' },
            options.id
        ));
    }
    let anchor = if options.left_side {
        Vertex::left(zero_based)
    } else {
        Vertex::right(zero_based)
    };
    let engine = MbbEngine::from_arc(graph, Default::default());
    let biclique = engine.anchored(anchor).value;
    let left: Vec<u32> = biclique.left.iter().map(|&u| u + 1).collect();
    let right: Vec<u32> = biclique.right.iter().map(|&v| v + 1).collect();
    let anchor_label = format!(
        "{}{}",
        if options.left_side { 'L' } else { 'R' },
        options.id
    );
    if options.json {
        let mut out = serde_json::to_string_pretty(&JsonAnchored {
            anchor: anchor_label,
            half_size: biclique.half_size(),
            left,
            right,
        })
        .expect("result serialises");
        out.push('\n');
        return Ok(out);
    }
    if biclique.is_empty() {
        return Ok(format!(
            "{anchor_label} has no incident edge: empty result\n"
        ));
    }
    Ok(format!(
        "largest balanced biclique through {anchor_label}: {}x{}\nleft:  {left:?}\nright: {right:?}\n",
        biclique.half_size(),
        biclique.half_size()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<AnchoredOptions, ArgError> {
        AnchoredOptions::parse(&s.split_whitespace().map(str::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn parses_left_and_right_anchors() {
        let o = parse("g.txt --vertex L3").unwrap();
        assert!(o.left_side);
        assert_eq!(o.id, 3);
        let o = parse("g.txt --vertex R12 --json").unwrap();
        assert!(!o.left_side);
        assert_eq!(o.id, 12);
        assert!(o.json);
    }

    #[test]
    fn rejects_threads() {
        let err = parse("g.txt --vertex L1 --threads 4").unwrap_err();
        assert_eq!(err, ArgError::Unknown("--threads".to_string()));
    }

    #[test]
    fn vertex_is_required() {
        assert!(parse("g.txt").is_err());
    }

    #[test]
    fn rejects_bad_vertex_syntax() {
        assert!(parse("g.txt --vertex 3").is_err());
        assert!(parse("g.txt --vertex X3").is_err());
        assert!(parse("g.txt --vertex L0").is_err());
        assert!(parse("g.txt --vertex L").is_err());
    }
}

//! `mbb generate` — write a synthetic bipartite graph as an edge list.

use mbb_bigraph::generators::{
    chung_lu_bipartite, complete, dense_uniform, plant_balanced_biclique, uniform_edges,
    ChungLuParams,
};
use mbb_bigraph::graph::BipartiteGraph;
use mbb_bigraph::io::write_edge_list_file;

use crate::args::{self, Arg, ArgError, Args};

/// Usage text for the subcommand.
pub const USAGE: &str = "\
usage: mbb generate <out-file> --kind <dense|sparse|uniform|complete> [options]

Writes a seeded synthetic bipartite graph as a KONECT-style edge list.

options:
  --kind dense      uniform G(L, R, p): needs --density (the Table 4 workload)
  --kind sparse     Chung–Lu power law: needs --edges (the Table 5 stand-in)
  --kind uniform    exactly --edges uniform random edges
  --kind complete   complete bipartite graph K(L, R)
  --left <N>        left side size (default 128)
  --right <N>       right side size (default 128)
  --density <P>     edge probability for dense (default 0.85)
  --edges <M>       edge count for sparse/uniform (default 4x sides)
  --exponent <X>    power-law exponent for sparse (default 0.75)
  --seed <S>        RNG seed (default 1)
  --plant <K>       additionally plant a K x K balanced biclique";

/// Graph family to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `dense_uniform` with an edge probability.
    Dense,
    /// Chung–Lu power-law graph with a target edge count.
    Sparse,
    /// Exactly `edges` uniform random edges.
    Uniform,
    /// Complete bipartite graph.
    Complete,
}

/// Parsed `generate` options.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerateOptions {
    /// Output path.
    pub output: String,
    /// Family.
    pub kind: Kind,
    /// `|L|`.
    pub left: u32,
    /// `|R|`.
    pub right: u32,
    /// Density for [`Kind::Dense`].
    pub density: f64,
    /// Edge count for [`Kind::Sparse`] / [`Kind::Uniform`].
    pub edges: Option<usize>,
    /// Power-law exponent for [`Kind::Sparse`].
    pub exponent: f64,
    /// Seed.
    pub seed: u64,
    /// Planted balanced-biclique half-size.
    pub plant: Option<u32>,
}

impl GenerateOptions {
    /// Parses the subcommand's argv (after `generate`).
    pub fn parse(args: &[String]) -> Result<GenerateOptions, ArgError> {
        let mut options = GenerateOptions {
            output: String::new(),
            kind: Kind::Sparse,
            left: 128,
            right: 128,
            density: 0.85,
            edges: None,
            exponent: 0.75,
            seed: 1,
            plant: None,
        };
        let mut kind_given = false;
        let mut args = Args::new(args);
        while let Some(arg) = args.next() {
            match arg {
                Arg::Flag("--kind") => {
                    options.kind = match args.value()? {
                        "dense" => Kind::Dense,
                        "sparse" => Kind::Sparse,
                        "uniform" => Kind::Uniform,
                        "complete" => Kind::Complete,
                        other => return Err(format!("unknown kind {other:?}").into()),
                    };
                    kind_given = true;
                }
                Arg::Flag("--left") => options.left = args.number()?,
                Arg::Flag("--right") => options.right = args.number()?,
                Arg::Flag("--density") => {
                    let value = args.value()?;
                    options.density = args::parse_number("--density", value)?;
                    if !(0.0..=1.0).contains(&options.density) {
                        return Err(format!("--density must be in [0, 1], got {value}").into());
                    }
                }
                Arg::Flag("--edges") => options.edges = Some(args.number()?),
                Arg::Flag("--exponent") => options.exponent = args.number()?,
                Arg::Flag("--seed") => options.seed = args.number()?,
                Arg::Flag("--plant") => options.plant = Some(args.number()?),
                Arg::Positional(path) => args::set_once(&mut options.output, path)?,
                other => return Err(other.unknown()),
            }
        }
        if options.output.is_empty() {
            return Err("missing output file".into());
        }
        if !kind_given {
            return Err("--kind is required".into());
        }
        Ok(options)
    }

    /// Builds the graph described by the options (no I/O).
    pub fn build(&self) -> BipartiteGraph {
        let default_edges = (self.left as usize + self.right as usize) * 2;
        let graph = match self.kind {
            Kind::Dense => dense_uniform(self.left, self.right, self.density, self.seed),
            Kind::Sparse => chung_lu_bipartite(
                &ChungLuParams {
                    num_left: self.left,
                    num_right: self.right,
                    num_edges: self.edges.unwrap_or(default_edges),
                    left_exponent: self.exponent,
                    right_exponent: self.exponent,
                },
                self.seed,
            ),
            Kind::Uniform => uniform_edges(
                self.left,
                self.right,
                self.edges.unwrap_or(default_edges),
                self.seed,
            ),
            Kind::Complete => complete(self.left, self.right),
        };
        match self.plant {
            Some(k) => plant_balanced_biclique(&graph, k).0,
            None => graph,
        }
    }
}

/// Runs the subcommand, returning a one-line summary.
pub fn run(options: &GenerateOptions) -> Result<String, String> {
    let graph = options.build();
    write_edge_list_file(&graph, &options.output)
        .map_err(|e| format!("{}: {e}", options.output))?;
    Ok(format!(
        "wrote {}: |L|={} |R|={} |E|={}\n",
        options.output,
        graph.num_left(),
        graph.num_right(),
        graph.num_edges()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<GenerateOptions, ArgError> {
        GenerateOptions::parse(&s.split_whitespace().map(str::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn parses_dense_invocation() {
        let o = parse("out.txt --kind dense --left 64 --right 32 --density 0.9 --seed 7").unwrap();
        assert_eq!(o.kind, Kind::Dense);
        assert_eq!(o.left, 64);
        assert_eq!(o.right, 32);
        assert_eq!(o.seed, 7);
    }

    #[test]
    fn kind_is_required() {
        assert!(parse("out.txt").is_err());
    }

    #[test]
    fn density_range_checked() {
        assert!(parse("out.txt --kind dense --density 1.5").is_err());
    }

    #[test]
    fn build_complete() {
        let o = parse("out.txt --kind complete --left 3 --right 4").unwrap();
        let g = o.build();
        assert_eq!(g.num_edges(), 12);
    }

    #[test]
    fn build_uniform_edge_count() {
        let o = parse("out.txt --kind uniform --left 10 --right 10 --edges 25").unwrap();
        assert_eq!(o.build().num_edges(), 25);
    }

    #[test]
    fn build_is_deterministic_per_seed() {
        let o = parse("out.txt --kind sparse --left 50 --right 50 --edges 200 --seed 3").unwrap();
        let g1 = o.build();
        let g2 = o.build();
        assert_eq!(
            g1.edges().collect::<Vec<_>>(),
            g2.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn plant_guarantees_biclique() {
        let o = parse("out.txt --kind sparse --left 40 --right 40 --edges 100 --plant 5 --seed 2")
            .unwrap();
        let g = o.build();
        let best = mbb_core::MbbEngine::new(g).solve().value;
        assert!(best.half_size() >= 5);
    }

    #[test]
    fn unknown_kind_rejected() {
        assert!(parse("out.txt --kind fractal").is_err());
    }
}

//! The `solve` command's options.

use std::time::Duration;

use mbb_bigraph::order::SearchOrder;
use mbb_core::verify::ParallelMode;

use crate::args::{self, Arg, ArgError, Args};

/// Usage text.
pub const USAGE: &str = "\
usage: mbb <edge-list-file> [options]

Finds the maximum balanced biclique of a bipartite graph given as a
KONECT-style edge list (whitespace-separated 1-based `left right` pairs;
lines starting with % or # are comments).

options:
  --algorithm <hbv|dense|basic|ext>  solver to use (default: hbv)
      hbv    the hbvMBB framework (Algorithm 4) — for sparse graphs
      dense  denseMBB directly (Algorithm 3)    — for dense graphs
      basic  basicBB (Algorithm 1)              — reference, tiny graphs
      ext    extBBClq baseline (Zhou et al. 2018)
  --order <bidegeneracy|degeneracy|degree>  hbv search order (default: bidegeneracy)
  --threads <N>        worker threads for the parallel search stages;
                       0 = one per core (default: 1, the paper's
                       sequential algorithm)
  --parallel-mode <auto|intra|subgraph>  how verification spends the
                       workers (default: auto — pick intra or subgraph per
                       solve from the bridge skew stats; intra = split the
                       branch-and-bound inside each vertex-centred
                       subgraph; subgraph = split the subgraphs across
                       workers)
  --budget-secs <N>    stop hbv or ext after N seconds and report the
                       best-so-far biclique, marked as a lower bound
                       (default: none; dense and basic ignore it)
  --json               machine-readable output
  --stats              include solver statistics
  --help               this text";

/// Which solver to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// `hbvMBB` (Algorithm 4).
    Hbv,
    /// `denseMBB` on the whole graph (Algorithm 3).
    Dense,
    /// `basicBB` (Algorithm 1).
    Basic,
    /// The `extBBClq` baseline.
    Ext,
}

/// Parsed options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Input path.
    pub input: String,
    /// Selected algorithm.
    pub algorithm: Algorithm,
    /// Search order for `hbv`.
    pub order: SearchOrder,
    /// Worker threads for `hbv`'s parallel stages (0 = one per available
    /// core).
    pub threads: usize,
    /// How `hbv` verification spends its workers.
    pub parallel_mode: ParallelMode,
    /// Time limit: the `hbv` query's deadline (best-so-far on expiry) and
    /// the `ext` baseline's budget.
    pub budget: Option<Duration>,
    /// Emit JSON.
    pub json: bool,
    /// Emit statistics.
    pub stats: bool,
}

impl Options {
    /// Parses argv (without the program name).
    pub fn parse(args: &[String]) -> Result<Options, ArgError> {
        let mut options = Options {
            input: String::new(),
            algorithm: Algorithm::Hbv,
            order: SearchOrder::Bidegeneracy,
            threads: 1,
            parallel_mode: ParallelMode::default(),
            budget: None,
            json: false,
            stats: false,
        };
        let mut args = Args::new(args);
        while let Some(arg) = args.next() {
            match arg {
                Arg::Flag("--json") => options.json = true,
                Arg::Flag("--stats") => options.stats = true,
                Arg::Flag("--algorithm") => {
                    options.algorithm = match args.value()? {
                        "hbv" => Algorithm::Hbv,
                        "dense" => Algorithm::Dense,
                        "basic" => Algorithm::Basic,
                        "ext" => Algorithm::Ext,
                        other => return Err(format!("unknown algorithm {other:?}").into()),
                    };
                }
                Arg::Flag("--order") => {
                    options.order = match args.value()? {
                        "bidegeneracy" => SearchOrder::Bidegeneracy,
                        "degeneracy" => SearchOrder::Degeneracy,
                        "degree" => SearchOrder::Degree,
                        other => return Err(format!("unknown order {other:?}").into()),
                    };
                }
                Arg::Flag("--threads") => options.threads = args.threads()?,
                Arg::Flag("--parallel-mode") => {
                    options.parallel_mode = match args.value()? {
                        "auto" => ParallelMode::Auto,
                        "intra" => ParallelMode::IntraSubgraph,
                        "subgraph" => ParallelMode::Subgraph,
                        other => return Err(format!("unknown parallel mode {other:?}").into()),
                    };
                }
                Arg::Flag("--budget-secs") => {
                    options.budget = Some(Duration::from_secs(args.number()?));
                }
                Arg::Positional(path) => args::set_once(&mut options.input, path)?,
                other => return Err(other.unknown()),
            }
        }
        args::require_input(&options.input)?;
        Ok(options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Options, ArgError> {
        Options::parse(&s.split_whitespace().map(str::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn minimal_invocation() {
        let o = parse("graph.txt").unwrap();
        assert_eq!(o.input, "graph.txt");
        assert_eq!(o.algorithm, Algorithm::Hbv);
        assert!(!o.json);
    }

    #[test]
    fn full_invocation() {
        let o = parse(
            "g.txt --algorithm dense --order degree --threads 4 --budget-secs 30 --json --stats",
        )
        .unwrap();
        assert_eq!(o.algorithm, Algorithm::Dense);
        assert_eq!(o.order, SearchOrder::Degree);
        assert_eq!(o.threads, 4);
        assert_eq!(o.budget, Some(Duration::from_secs(30)));
        assert!(o.json && o.stats);
    }

    #[test]
    fn missing_input_is_an_error() {
        assert!(parse("--json").is_err());
    }

    #[test]
    fn help_without_input_is_fine() {
        let text = crate::commands::dispatch("solve", &["--help".to_string()]).unwrap();
        assert_eq!(text, format!("{USAGE}\n"));
    }

    #[test]
    fn deadline_and_auto_threads_parse() {
        let o = parse("g.txt --threads 0 --budget-secs 2").unwrap();
        assert_eq!(o.threads, 0);
        assert_eq!(o.budget, Some(Duration::from_secs(2)));
        assert!(parse("g.txt --deadline-secs 2").is_err());
    }

    #[test]
    fn parallel_mode_parses() {
        let o = parse("g.txt").unwrap();
        assert_eq!(o.parallel_mode, ParallelMode::Auto);
        let o = parse("g.txt --parallel-mode subgraph").unwrap();
        assert_eq!(o.parallel_mode, ParallelMode::Subgraph);
        let o = parse("g.txt --parallel-mode intra").unwrap();
        assert_eq!(o.parallel_mode, ParallelMode::IntraSubgraph);
        let o = parse("g.txt --parallel-mode auto").unwrap();
        assert_eq!(o.parallel_mode, ParallelMode::Auto);
        assert!(parse("g.txt --parallel-mode sideways").is_err());
    }

    #[test]
    fn unknown_algorithm_rejected() {
        assert!(parse("g.txt --algorithm quantum").is_err());
    }

    #[test]
    fn unknown_flag_rejected() {
        assert!(parse("g.txt --frobnicate").is_err());
    }

    #[test]
    fn double_input_rejected() {
        assert!(parse("a.txt b.txt").is_err());
    }
}

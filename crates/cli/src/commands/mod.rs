//! The command table and the subcommand implementations.
//!
//! `mbb` dispatches on its first argument: a command name in [`COMMANDS`]
//! runs that command, anything else is taken as the input path of the
//! default command, [`SOLVE`] (the original single-command interface).

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

use crate::args::ArgError;
use crate::{options, output, run};

/// Loads a graph through the [`GraphStore`] — every subcommand's input
/// path goes through here, so warm `.mbbg` caches are used (and
/// written/refreshed) everywhere. `MBB_CACHE=off|ro` opts out.
pub fn load_graph(spec: &str) -> Result<LoadedGraph, String> {
    GraphStore::from_env()
        .load(spec)
        .map_err(|e| format!("{spec}: {e}"))
}

/// A failed command: the text printed after `error: `, and the exit code.
#[derive(Debug)]
pub struct Failure {
    /// What went wrong.
    pub message: String,
    /// The process exit code.
    pub code: u8,
}

/// Bad arguments exit 2.
impl From<ArgError> for Failure {
    fn from(error: ArgError) -> Failure {
        Failure {
            message: error.to_string(),
            code: 2,
        }
    }
}

/// Every command but `solve` also exits 2 when its run fails.
impl From<String> for Failure {
    fn from(message: String) -> Failure {
        Failure { message, code: 2 }
    }
}

/// One `mbb` command.
pub struct Command {
    /// The name that selects it: `mbb <name> [args]`.
    pub name: &'static str,
    /// Its line in the top-level usage.
    pub summary: &'static str,
    /// What `mbb <name> --help` prints.
    pub usage: &'static str,
    /// Parses the arguments after the name and runs the command,
    /// returning what it prints on stdout.
    pub run: fn(&[String]) -> Result<String, Failure>,
}

/// The default command: `mbb <edge-list-file> [options]` runs it too.
pub const SOLVE: Command = Command {
    name: "solve",
    summary: "find the maximum balanced biclique (default command)",
    usage: options::USAGE,
    run: solve,
};

/// Every command, in the order the top-level usage lists them.
static COMMANDS: [Command; 12] = [
    SOLVE,
    Command {
        name: "stats",
        summary: "structural profile: density, degrees, δ, δ̈, butterflies",
        usage: stats::USAGE,
        run: |args| Ok(stats::run(&stats::StatsOptions::parse(args)?)?),
    },
    Command {
        name: "generate",
        summary: "write a seeded synthetic bipartite graph",
        usage: generate::USAGE,
        run: |args| Ok(generate::run(&generate::GenerateOptions::parse(args)?)?),
    },
    Command {
        name: "ingest",
        summary: "pre-build the .mbbg binary cache for edge-list files",
        usage: ingest::USAGE,
        run: |args| Ok(ingest::run(&ingest::IngestOptions::parse(args)?)?),
    },
    Command {
        name: "enumerate",
        summary: "stream maximal bicliques",
        usage: enumerate::USAGE,
        run: |args| Ok(enumerate::run(&enumerate::EnumerateOptions::parse(args)?)?),
    },
    Command {
        name: "topk",
        summary: "the k best balanced bicliques",
        usage: topk::USAGE,
        run: |args| Ok(topk::run(&topk::TopkOptions::parse(args)?)?),
    },
    Command {
        name: "anchored",
        summary: "largest balanced biclique through a given vertex",
        usage: anchored::USAGE,
        run: |args| Ok(anchored::run(&anchored::AnchoredOptions::parse(args)?)?),
    },
    Command {
        name: "frontier",
        summary: "Pareto frontier of feasible biclique sizes",
        usage: frontier::USAGE,
        run: |args| Ok(frontier::run(&frontier::FrontierOptions::parse(args)?)?),
    },
    Command {
        name: "serve-batch",
        summary: "run a JSONL query batch over sharded engine sessions",
        usage: serve_batch::USAGE,
        run: |args| {
            Ok(serve_batch::run(&serve_batch::ServeBatchOptions::parse(
                args,
            )?)?)
        },
    },
    Command {
        name: "serve",
        summary: "resident JSONL stream service with admission control",
        usage: serve::USAGE,
        run: |args| Ok(serve::run(&serve::ServeOptions::parse(args)?)?),
    },
    Command {
        name: "trace",
        summary: "replay a request file with spans on, print per-stage times",
        usage: trace::USAGE,
        run: |args| Ok(trace::run(&trace::TraceOptions::parse(args)?)?),
    },
    Command {
        name: "bench-obs",
        summary: "measure span-instrumentation overhead, write BENCH_obs.json",
        usage: bench_obs::USAGE,
        run: |args| Ok(bench_obs::run(&bench_obs::BenchObsOptions::parse(args)?)?),
    },
];

/// `solve` reports bad arguments with its usage text, and a failed run
/// with exit code 1.
fn solve(args: &[String]) -> Result<String, Failure> {
    let options = options::Options::parse(args).map_err(|error| Failure {
        message: format!("{error}\n{}", options::USAGE),
        code: 2,
    })?;
    let report = run::run(&options).map_err(|message| Failure { message, code: 1 })?;
    Ok(output::render(&report, &options))
}

/// The top-level usage text.
pub fn usage() -> String {
    let mut out = String::from(
        "usage: mbb <command> [args]   (or: mbb <edge-list-file> [solve options])\n\ncommands:\n",
    );
    for command in &COMMANDS {
        out.push_str(&format!("  {:<9}  {}\n", command.name, command.summary));
    }
    out.push_str(
        "\n\
         Graph inputs accept an edge list or a .mbbg binary cache; a fresh cache\n\
         next to an edge list is used automatically (MBB_CACHE=off disables).\n\
         \n\
         `mbb <command> --help` prints per-command options.",
    );
    out
}

/// Runs the command `name` on `args` (the arguments after the name):
/// its usage text when any of them is `--help` or `-h`.
pub fn dispatch(name: &str, args: &[String]) -> Result<String, Failure> {
    let command = find(name).ok_or_else(|| format!("unknown command {name:?}"))?;
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(format!("{}\n", command.usage));
    }
    (command.run)(args)
}

/// True when `name` is a recognised subcommand.
pub fn is_command(name: &str) -> bool {
    find(name).is_some()
}

fn find(name: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|command| command.name == name)
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

    #[test]
    fn failures_carry_their_exit_codes() {
        let args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        // Bad arguments exit 2; `solve` adds its usage text.
        let failure = dispatch("solve", &args("g.txt --frob")).unwrap_err();
        assert_eq!(failure.code, 2);
        assert_eq!(
            failure.message,
            format!("unknown option \"--frob\"\n{}", options::USAGE)
        );
        let failure = dispatch("stats", &args("g.txt --frob")).unwrap_err();
        assert_eq!(
            (failure.code, failure.message.as_str()),
            (2, "unknown option \"--frob\"")
        );
        // A failed run exits 1 for `solve` and 2 for every other command.
        let missing = "/nonexistent/mbb-cli-graph.txt";
        assert_eq!(dispatch("solve", &args(missing)).unwrap_err().code, 1);
        assert_eq!(dispatch("stats", &args(missing)).unwrap_err().code, 2);
    }

    #[test]
    fn top_level_usage_lists_every_command_once() {
        let text = usage();
        let names: Vec<&str> = text
            .lines()
            .skip_while(|line| *line != "commands:")
            .skip(1)
            .take_while(|line| !line.is_empty())
            .filter_map(|line| line.split_whitespace().next())
            .collect();
        let table: Vec<&str> = COMMANDS.iter().map(|command| command.name).collect();
        assert_eq!(names, table);
        // Names of up to nine characters are padded to one column; longer
        // ones get two spaces.
        for row in [
            "\n  solve      find the maximum balanced biclique (default command)\n",
            "\n  enumerate  stream maximal bicliques\n",
            "\n  serve-batch  run a JSONL query batch over sharded engine sessions\n",
        ] {
            assert!(text.contains(row), "{row:?} in {text}");
        }
        assert!(text.ends_with("`mbb <command> --help` prints per-command options."));
    }
}

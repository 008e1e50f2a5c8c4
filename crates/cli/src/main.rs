//! `mbb` — command-line maximum balanced biclique toolkit.
//!
//! ```text
//! mbb <command> [args]            a command of the table in
//!                                 `commands`; `mbb --help` lists them
//! mbb <edge-list> [solve options] back-compatible default (= solve)
//! ```
//!
//! Edge lists are KONECT-style: 1-based `left right` pairs, `%`/`#`
//! comments. All output ids are 1-based, matching the input file.

use std::process::ExitCode;

mod args;
mod commands;
mod options;
mod output;
mod run;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        None => {
            eprintln!("{}", commands::usage());
            return ExitCode::from(2);
        }
        Some("--help" | "-h") => Ok(format!(
            "{}\n\n{} options:\n{}\n",
            commands::usage(),
            commands::SOLVE.name,
            commands::SOLVE.usage
        )),
        Some(first) if commands::is_command(first) => commands::dispatch(first, &args[1..]),
        Some(_) => commands::dispatch(commands::SOLVE.name, &args),
    };
    match result {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(failure) => {
            eprintln!("error: {}", failure.message);
            ExitCode::from(failure.code)
        }
    }
}

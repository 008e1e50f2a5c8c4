//! Experiment harness regenerating every table and figure of the MBB paper.
//!
//! One binary per artefact:
//!
//! | Binary   | Paper artefact | What it prints |
//! |----------|----------------|----------------|
//! | `table4` | Table 4        | dense grid: extBBClq vs denseMBB seconds |
//! | `table5` | Table 5        | 30 datasets: adp1–4, extBBClq, hbvMBB (+stage) |
//! | `table6` | Table 6        | tough datasets: hMBB/degOrder/bdegOrder/bd1–bd5/hbvMBB |
//! | `fig4`   | Figure 4       | heuristic gap to optimum (heuGlobal, heuLocal) |
//! | `fig5`   | Figure 5       | average search depth over δ̈ per order |
//! | `fig6`   | Figure 6       | average density of the centred subgraphs that pass the size prune, per order |
//!
//! All binaries accept `--caps small|default|large` and `--seed N`, and
//! print GitHub-flavoured Markdown so results paste straight into
//! `EXPERIMENTS.md`. Every binary except `fig7_scaling` and `all` also
//! takes `--budget-secs N`: each solve runs on the calling thread under a
//! deadline N seconds after it starts (the solver's own `SearchBudget`),
//! and a run that does not complete prints `-`. `all` forwards the flag
//! to every binary it runs but `fig7_scaling`. A flag a binary does not
//! take, or a positional argument, exits with status 2 and a message
//! naming it before any work. Stand-ins come straight from
//! [`mbb_datasets::stand_in`].

#![warn(missing_docs)]

pub mod args;
pub mod obs;
pub mod report;
pub mod runner;

pub use args::{exit_usage, Args};
pub use obs::{run_obs_bench, ObsBenchOptions, MAX_OVERHEAD_PCT};
pub use report::{fmt_seconds, ObsBenchReport, Table};
pub use runner::run_timed;

pub use mbb_datasets::ScaleCaps;

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
//! All binaries accept `--budget-secs N`, `--caps small|default|large`,
//! `--seed N` and print GitHub-flavoured Markdown so results paste straight
//! into `EXPERIMENTS.md`.
//!
//! Stand-ins load through [`StandInCache`] — a `.mbbg` binary cache under
//! `target/standin-cache` (override with `MBB_STANDIN_CACHE`, `off`
//! disables) — so repeated sweeps skip regeneration; each binary prints a
//! hit/miss summary to stderr.

#![warn(missing_docs)]

pub mod args;
pub mod obs;
pub mod report;
pub mod runner;
pub mod standin_cache;

pub use args::Args;
pub use obs::{run_obs_bench, ObsBenchOptions, MAX_OVERHEAD_PCT};
pub use report::{fmt_seconds, ObsBenchReport, Table};
pub use runner::{run_timed, run_with_timeout, TimedOutcome};
pub use standin_cache::StandInCache;

pub use mbb_datasets::ScaleCaps;

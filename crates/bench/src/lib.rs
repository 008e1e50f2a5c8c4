//! Experiment harness regenerating every table and figure of the MBB paper.
//!
//! One binary per set of runs:
//!
//! | Binary         | Paper artefact    | What it prints |
//! |----------------|-------------------|----------------|
//! | `table4`       | Table 4           | dense grid: extBBClq vs denseMBB seconds |
//! | `table5`       | Table 5           | 30 datasets: adp1–4, extBBClq, hbvMBB (+stage) |
//! | `table6`       | Table 6, Figs 4–6 | tough datasets: hMBB/degOrder/bdegOrder/bd1–bd5/hbvMBB seconds, then the heuristic gap (Fig. 4), search depth over δ̈ (Fig. 5) and centred-subgraph density (Fig. 6) of those solves |
//! | `fig7_scaling` | extension         | thread scaling of subgraph verification |
//!
//! All binaries accept `--caps small|default|large` and `--seed N`, and
//! print GitHub-flavoured Markdown so results paste straight into
//! `EXPERIMENTS.md`. Every binary except `fig7_scaling` also takes
//! `--budget-secs N`: each solve runs on the calling thread under a
//! deadline N seconds after it starts (the solver's own `SearchBudget`),
//! and a run that does not complete prints `-`. A flag a binary does not
//! take, or a positional argument, exits with status 2 and a message
//! naming it before any work. Stand-ins come straight from
//! [`mbb_datasets::stand_in`].

#![warn(missing_docs)]

pub mod args;
pub mod report;
pub mod runner;

pub use args::{exit_usage, Args};
pub use report::{fmt_seconds, Table};
pub use runner::{median_secs, run_timed, RUNS};

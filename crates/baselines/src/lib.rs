//! Baseline MBB algorithms the paper compares against (§3, §6, Table 3):
//!
//! * [`ext_bbclq`](crate::ext_bbclq()) — the state-of-the-art exact
//!   algorithm of Zhou, Rossi and Hao (2018);
//! * [`mbe`] — adapted maximal-biclique-enumeration engines (iMBEA, FMBE)
//!   with incumbent/core pruning;
//! * [`heur`] — the POLS and SBMNAS heuristic MBB algorithms;
//! * [`adapted`] — the `adp1`–`adp4` pipelines combining them;
//! * [`exhaustive`] — a brute-force oracle for testing.
//!
//! Every search stops on the solver's own [`SearchBudget`](mbb_core::budget::SearchBudget):
//! per-node loops call `is_exhausted`; entry points, per-vertex loops,
//! restart loops and local-search moves call `probe`.

#![warn(missing_docs)]

pub mod adapted;
pub mod common;
pub mod exhaustive;
pub mod ext_bbclq;
pub mod heur;
pub mod mbe;

pub use adapted::{all_adapted, AdaptedBaseline};
pub use common::RunOutcome;
pub use ext_bbclq::ext_bbclq;

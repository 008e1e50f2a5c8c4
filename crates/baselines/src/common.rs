//! Shared plumbing for the baseline algorithms: the run outcome.

use mbb_core::biclique::Biclique;
use mbb_core::budget::SearchBudget;

/// Outcome of a baseline run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Best balanced biclique found (optimal unless `timed_out`).
    pub biclique: Biclique,
    /// True when the [`SearchBudget`] ran out before the search finished;
    /// the biclique is then only a lower bound (the paper reports these
    /// runs as `-`).
    pub timed_out: bool,
    /// Search-tree nodes explored.
    pub nodes: u64,
}

impl RunOutcome {
    /// The outcome of a search that ran under `budget`: timed out unless
    /// the budget's sticky state says the search completed.
    pub(crate) fn new(biclique: Biclique, nodes: u64, budget: &SearchBudget) -> RunOutcome {
        RunOutcome {
            biclique,
            timed_out: !budget.termination().is_complete(),
            nodes,
        }
    }
}

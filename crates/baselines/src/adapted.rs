//! The `adp1`–`adp4` non-trivial baselines of Table 3: state-of-the-art
//! heuristics plugged into step 1 of the framework, adapted MBE engines
//! replacing steps 2–3.
//!
//! | Baseline | Step-1 heuristic | Step-3 enumerator |
//! |----------|------------------|-------------------|
//! | `adp1`   | POLS             | FMBE              |
//! | `adp2`   | POLS             | iMBEA             |
//! | `adp3`   | SBMNAS           | FMBE              |
//! | `adp4`   | SBMNAS           | iMBEA             |
//!
//! All four share the Lemma 4 core reduction between the stages and the
//! core-number upper bound inside the enumerators, exactly as §6 describes
//! ("the heuristic algorithms that we used are for pruning purpose only").

use std::time::{Duration, Instant};

use mbb_bigraph::core_decomp::{core_decomposition, k_core_mask};
use mbb_bigraph::graph::BipartiteGraph;
use mbb_bigraph::subgraph::induce_by_mask;
use mbb_core::biclique::Biclique;
use mbb_core::budget::SearchBudget;
use mbb_core::heuristic::map_to_parent;

use crate::common::RunOutcome;
use crate::heur::{pols, sbmnas};
use crate::mbe::{fmbe_adapted, imbea_adapted};

/// Which heuristic fills step 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOneHeuristic {
    /// Pair-operation local search.
    Pols,
    /// Swap-based multiple-neighbourhood adaptive search.
    Sbmnas,
}

/// Which adapted MBE engine fills step 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepThreeEngine {
    /// 2-hop-scoped enumeration.
    Fmbe,
    /// Whole-graph enumeration.
    Imbea,
}

/// One of the four adapted baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptedBaseline {
    /// Step-1 heuristic.
    pub heuristic: StepOneHeuristic,
    /// Step-3 enumerator.
    pub engine: StepThreeEngine,
}

impl AdaptedBaseline {
    /// `adp1`: POLS + FMBE.
    pub fn adp1() -> Self {
        AdaptedBaseline {
            heuristic: StepOneHeuristic::Pols,
            engine: StepThreeEngine::Fmbe,
        }
    }

    /// `adp2`: POLS + iMBEA.
    pub fn adp2() -> Self {
        AdaptedBaseline {
            heuristic: StepOneHeuristic::Pols,
            engine: StepThreeEngine::Imbea,
        }
    }

    /// `adp3`: SBMNAS + FMBE.
    pub fn adp3() -> Self {
        AdaptedBaseline {
            heuristic: StepOneHeuristic::Sbmnas,
            engine: StepThreeEngine::Fmbe,
        }
    }

    /// `adp4`: SBMNAS + iMBEA.
    pub fn adp4() -> Self {
        AdaptedBaseline {
            heuristic: StepOneHeuristic::Sbmnas,
            engine: StepThreeEngine::Imbea,
        }
    }

    /// The Table 3 label.
    pub fn name(&self) -> &'static str {
        match (self.heuristic, self.engine) {
            (StepOneHeuristic::Pols, StepThreeEngine::Fmbe) => "adp1",
            (StepOneHeuristic::Pols, StepThreeEngine::Imbea) => "adp2",
            (StepOneHeuristic::Sbmnas, StepThreeEngine::Fmbe) => "adp3",
            (StepOneHeuristic::Sbmnas, StepThreeEngine::Imbea) => "adp4",
        }
    }

    /// Runs the baseline. The whole pipeline shares one budget, `None`
    /// meaning unlimited.
    pub fn run(&self, graph: &BipartiteGraph, budget: Option<Duration>) -> RunOutcome {
        // Each stage's budget ends at a fraction of the duration after
        // `start`: step 3 may run until the whole budget is spent.
        let start = Instant::now();
        let until = |fraction: u32| SearchBudget::new(budget.map(|b| start + b / fraction), None);
        // Step 1: heuristic incumbent (¼ of the budget, like the paper's
        // "pruning purpose only" role).
        let incumbent = match self.heuristic {
            StepOneHeuristic::Pols => pols(graph, 0xadb1, &until(4)),
            StepOneHeuristic::Sbmnas => sbmnas(graph, 0xadb1, &until(4)),
        };

        // Lemma 4 reduction with the incumbent.
        let cores = core_decomposition(graph);
        let mask = k_core_mask(&cores, incumbent.half_size() as u32 + 1);
        let nl = graph.num_left();
        let reduced = induce_by_mask(graph, &mask[..nl], &mask[nl..]);

        if reduced.graph.num_left() == 0 || reduced.graph.num_right() == 0 {
            return RunOutcome {
                biclique: incumbent,
                timed_out: false,
                nodes: 0,
            };
        }

        // Step 3: adapted MBE on the reduced graph; the incumbent prunes
        // but lives in original ids, so pass only its size as a
        // placeholder and map any improvement back.
        let placeholder = Biclique {
            left: vec![u32::MAX; incumbent.half_size()],
            right: vec![u32::MAX; incumbent.half_size()],
        };
        let out = match self.engine {
            StepThreeEngine::Fmbe => fmbe_adapted(&reduced.graph, placeholder, &until(1)),
            StepThreeEngine::Imbea => imbea_adapted(&reduced.graph, placeholder, &until(1)),
        };
        let best = if out.biclique.half_size() > incumbent.half_size() {
            map_to_parent(&out.biclique, &reduced)
        } else {
            incumbent
        };
        RunOutcome {
            biclique: best,
            timed_out: out.timed_out,
            nodes: out.nodes,
        }
    }
}

/// All four baselines in Table 3 order.
pub fn all_adapted() -> [AdaptedBaseline; 4] {
    [
        AdaptedBaseline::adp1(),
        AdaptedBaseline::adp2(),
        AdaptedBaseline::adp3(),
        AdaptedBaseline::adp4(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbb_bigraph::generators;

    fn brute_half(graph: &BipartiteGraph) -> usize {
        let nl = graph.num_left();
        assert!(nl <= 16);
        let mut best = 0;
        for mask in 0u32..(1 << nl) {
            let mut common: Option<Vec<u32>> = None;
            let mut size = 0;
            for u in 0..nl as u32 {
                if mask >> u & 1 == 1 {
                    size += 1;
                    let n = graph.neighbors_left(u);
                    common = Some(match common {
                        None => n.to_vec(),
                        Some(c) => mbb_bigraph::graph::sorted_intersection(&c, n),
                    });
                }
            }
            best = best.max(size.min(common.map_or(0, |c| c.len())));
        }
        best
    }

    #[test]
    fn names_match_table3() {
        assert_eq!(AdaptedBaseline::adp1().name(), "adp1");
        assert_eq!(AdaptedBaseline::adp2().name(), "adp2");
        assert_eq!(AdaptedBaseline::adp3().name(), "adp3");
        assert_eq!(AdaptedBaseline::adp4().name(), "adp4");
    }

    #[test]
    fn all_four_are_exact_on_small_graphs() {
        for seed in 0..6u64 {
            let g = generators::uniform_edges(10, 10, 50, seed);
            let expected = brute_half(&g);
            for baseline in all_adapted() {
                let out = baseline.run(&g, None);
                assert!(!out.timed_out);
                assert_eq!(
                    out.biclique.half_size(),
                    expected,
                    "{} seed {seed}",
                    baseline.name()
                );
                assert!(out.biclique.is_valid(&g), "{} seed {seed}", baseline.name());
            }
        }
    }

    #[test]
    fn finds_planted_biclique() {
        let g = generators::uniform_edges(40, 40, 150, 9);
        let (planted, _, _) = generators::plant_balanced_biclique(&g, 6);
        for baseline in all_adapted() {
            let out = baseline.run(&planted, None);
            assert!(
                out.biclique.half_size() >= 6,
                "{}: {}",
                baseline.name(),
                out.biclique.half_size()
            );
        }
    }

    #[test]
    fn empty_graph() {
        let g = BipartiteGraph::from_edges(3, 3, []).unwrap();
        for baseline in all_adapted() {
            assert_eq!(baseline.run(&g, None).biclique.half_size(), 0);
        }
    }
}

//! The Table 4 dense workload: uniform random bipartite graphs across a
//! size × density grid, 100 instances per cell in the paper (configurable
//! here).

use mbb_bigraph::generators::dense_uniform;
use mbb_bigraph::graph::BipartiteGraph;
use serde::{Deserialize, Serialize};

/// Side sizes used in Table 4.
pub const TABLE4_SIZES: [u32; 5] = [128, 256, 512, 1024, 2048];

/// Edge densities used in Table 4 (70 % … 95 %).
pub const TABLE4_DENSITIES: [f64; 6] = [0.70, 0.75, 0.80, 0.85, 0.90, 0.95];

/// One cell of the dense grid.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq)]
pub struct DenseCell {
    /// Vertices per side.
    pub side: u32,
    /// Edge density.
    pub density: f64,
}

impl DenseCell {
    /// Generates the `rep`-th instance of this cell, deterministically.
    pub fn instance(&self, rep: u64) -> BipartiteGraph {
        let seed = (self.side as u64) << 32
            ^ ((self.density * 100.0) as u64) << 16
            ^ rep.wrapping_mul(0x9e37_79b9);
        dense_uniform(self.side, self.side, self.density, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_full_table() {
        let grid: Vec<DenseCell> = TABLE4_SIZES
            .iter()
            .flat_map(|&side| TABLE4_DENSITIES.map(|density| DenseCell { side, density }))
            .collect();
        assert_eq!(grid.len(), 30);
        assert_eq!(
            grid[0],
            DenseCell {
                side: 128,
                density: 0.70
            }
        );
        assert_eq!(
            *grid.last().unwrap(),
            DenseCell {
                side: 2048,
                density: 0.95
            }
        );
    }

    #[test]
    fn instances_match_cell_parameters() {
        let cell = DenseCell {
            side: 64,
            density: 0.8,
        };
        let g = cell.instance(0);
        assert_eq!(g.num_left(), 64);
        assert_eq!(g.num_right(), 64);
        assert!((g.density() - 0.8).abs() < 0.05);
    }

    #[test]
    fn different_reps_differ() {
        let cell = DenseCell {
            side: 32,
            density: 0.75,
        };
        let a = cell.instance(0);
        let b = cell.instance(1);
        assert_ne!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
    }

    #[test]
    fn same_rep_is_deterministic() {
        let cell = DenseCell {
            side: 32,
            density: 0.9,
        };
        assert_eq!(
            cell.instance(5).edges().collect::<Vec<_>>(),
            cell.instance(5).edges().collect::<Vec<_>>()
        );
    }
}

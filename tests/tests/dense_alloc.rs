//! Heap allocations of one `denseMBB` search.
//!
//! The searcher owns every per-node buffer — candidate sets with their
//! degree arrays, the Lemma 3 decomposition and DP table — so a search
//! allocates while its include chain first deepens and when the incumbent
//! improves, never per node. This binary installs a counting global
//! allocator, which is why it is a test binary of its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mbb_bigraph::bitset::BitSet;
use mbb_bigraph::generators::dense_uniform;
use mbb_bigraph::local::LocalGraph;
use mbb_core::budget::SearchBudget;
use mbb_core::dense::{dense_mbb_budgeted, DenseConfig};
use mbb_core::stats::SearchStats;

/// Counts the allocations of the current thread only, so that the test
/// harness and tests running in parallel do not add to a measurement.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// The default `alloc_zeroed` and `realloc` go through `alloc`, so they are
// counted too.
// SAFETY: every block comes from `System` and goes back to it unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn dense_graph(n: u32, density: f64, seed: u64) -> LocalGraph {
    let ids: Vec<u32> = (0..n).collect();
    LocalGraph::induced(&dense_uniform(n, n, density, seed), &ids, &ids)
}

/// Runs one full search and returns its stats and the allocations it made,
/// the initial candidate sets included.
fn search(g: &LocalGraph, config: DenseConfig) -> (SearchStats, u64) {
    let before = allocations();
    let ca = BitSet::full(g.num_left());
    let cb = BitSet::full(g.num_right());
    let budget = SearchBudget::unlimited();
    let (found, stats) = dense_mbb_budgeted(g, Vec::new(), Vec::new(), ca, cb, 0, config, &budget);
    let made = allocations() - before;
    assert!(g.is_biclique(&found.left, &found.right));
    (stats, made)
}

#[test]
fn allocations_do_not_grow_with_search_nodes() {
    // 64k search nodes and 2,130 Lemma 3 leaves with the §4 branching
    // technique; the `bd3` ablation, without it, searches a tree of its
    // own. The König bound leaves too few nodes and leaves to tell at 70%
    // density.
    let g = dense_graph(64, 0.95, 1);
    for use_branching_technique in [true, false] {
        let config = DenseConfig {
            use_branching_technique,
        };
        let (stats, made) = search(&g, config);
        assert!(stats.nodes >= 10_000, "too small to tell: {stats:?}");
        assert!(
            made < stats.nodes / 100,
            "branching technique {use_branching_technique}: {made} allocations for {} nodes",
            stats.nodes
        );
        if use_branching_technique {
            assert!(stats.poly_solves >= 300, "{stats:?}");
            assert!(
                made < stats.poly_solves / 4,
                "{made} allocations for {} Lemma 3 leaves",
                stats.poly_solves
            );
        }
    }
}

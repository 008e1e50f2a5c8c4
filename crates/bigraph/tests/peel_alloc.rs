//! Peak heap memory of one bicore peel.
//!
//! The peel stores each same-side 2-hop pair once, as a `u32` partner and a
//! `u32` common-neighbour count, next to an adjacency copy of 8 bytes per
//! edge and `O(n)` arrays. This binary installs a global allocator that
//! tracks live and peak bytes, which is why it is a test binary of its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mbb_bigraph::bicore::bicore_decomposition;
use mbb_bigraph::generators::{self, ChungLuParams};
use mbb_bigraph::graph::BipartiteGraph;
use mbb_bigraph::two_hop::all_n_le2_sizes;

/// Tracks the bytes of the current thread only, so that the test harness
/// and tests running in parallel do not add to a measurement. A block freed
/// on another thread than the one that allocated it skews both threads'
/// counts, which is why `LIVE` is signed.
struct TrackingAlloc;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn track(delta: isize) {
    // `try_with` fails only while the thread is being torn down.
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// The default `alloc_zeroed` and `realloc` go through `alloc` and
// `dealloc`, so they are tracked too; a `realloc` briefly holds both
// blocks.
// SAFETY: every block comes from `System` and goes back to it unchanged.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            track(layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as isize));
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

/// Bytes the peel of `g` holds at its peak, above what was live before it,
/// with the decomposition it returns counted.
fn peel_peak_bytes(g: &BipartiteGraph) -> usize {
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    let d = bicore_decomposition(g);
    let peak = PEAK.with(Cell::get);
    assert_eq!(d.order.len(), g.num_vertices());
    (peak - start) as usize
}

/// Same-side 2-hop pairs `P = Σ|N2| / 2`.
fn two_hop_pairs(g: &BipartiteGraph) -> usize {
    let n_le2: usize = all_n_le2_sizes(g).iter().sum();
    (n_le2 - 2 * g.num_edges()) / 2
}

#[test]
fn peel_peaks_near_eight_bytes_per_pair() {
    let chung_lu = ChungLuParams {
        num_left: 600,
        num_right: 400,
        num_edges: 6_000,
        left_exponent: 0.8,
        right_exponent: 0.7,
    };
    let graphs = [
        (
            "uniform 1500x40",
            generators::uniform_edges(1500, 40, 9_000, 7),
        ),
        (
            "Chung-Lu 600x400",
            generators::chung_lu_bipartite(&chung_lu, 7),
        ),
    ];
    for (name, g) in &graphs {
        let pairs = two_hop_pairs(g);
        let (n, edges) = (g.num_vertices(), g.num_edges());
        assert!(
            pairs >= 10 * (n + edges),
            "{name}: too few pairs to tell: {pairs}"
        );
        let peak = peel_peak_bytes(g);
        let bound = 10 * pairs + 64 * n + 16 * edges;
        assert!(
            peak <= bound,
            "{name}: peak {peak} bytes over the bound {bound} \
             ({pairs} pairs, {n} vertices, {edges} edges; {:.1} bytes per pair)",
            peak as f64 / pairs as f64
        );
    }
}

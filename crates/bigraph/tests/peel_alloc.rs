//! Peak heap memory of one bicore peel.
//!
//! The peel watches each same-side 2-hop pair at one common neighbour,
//! which takes one bit per wedge `a – m – b` (`Σ_m C(deg m, 2)` bits),
//! next to an adjacency copy of 8 bytes per edge and `O(n)` arrays; while
//! the witness store builds, a copy of one side's rows adds 4 bytes per
//! edge. This binary installs a global allocator that tracks live and peak
//! bytes, which is why it is a test binary of its own.

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

/// Wedges `a – m – b`, `Σ_m C(deg m, 2)`: the witness store's bits.
fn wedges(g: &BipartiteGraph) -> usize {
    g.vertices()
        .map(|v| g.degree(v) * g.degree(v).saturating_sub(1) / 2)
        .sum()
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

#[test]
fn peel_peaks_near_one_bit_per_wedge() {
    // The sparse graphs above, where 8 bytes a pair would be 16 and 5.6
    // times this bound, and a 64×64 graph at 70% density, whose pairs
    // share about 31 neighbours: the most bits per pair of the three,
    // still under the 64 that a partner and a count would take.
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
        (
            "dense 64x64 at 70%",
            generators::dense_uniform(64, 64, 0.70, 7),
        ),
    ];
    for (name, g) in &graphs {
        let (wedges, pairs) = (wedges(g), two_hop_pairs(g));
        let (n, edges) = (g.num_vertices(), g.num_edges());
        let peak = peel_peak_bytes(g);
        let bound = wedges / 8 + 64 * n + 12 * edges;
        assert!(
            peak <= bound,
            "{name}: peak {peak} bytes over the bound {bound} \
             ({wedges} wedges, {pairs} pairs, {n} vertices, {edges} edges)"
        );
    }
}

//! Heap the `.mbbg` decoder allocates: never more than the file's own
//! length backs, so a short file cannot make it ask for gigabytes. This
//! binary installs a global allocator that tracks peak bytes, which is why
//! it is a test binary of its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mbb_bigraph::generators::uniform_edges;
use mbb_bigraph::graph::BipartiteGraph;
use mbb_store::binfmt::{decode_graph, encode_graph};
use mbb_store::{SourceStamp, StoreError};

/// Tracks the bytes of the current thread only, so that tests running in
/// parallel do not add to a measurement.
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

/// Blocks above this size are refused, so a decoder that trusts a header's
/// counts aborts this test instead of touching gigabytes.
const REFUSE_ABOVE: usize = 256 << 20;

// The default `alloc_zeroed` and `realloc` go through `alloc` and
// `dealloc`, so they are tracked (and capped) too.
// SAFETY: every block comes from `System` and goes back to it unchanged;
// a refused block is a null pointer, which `alloc` may return.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() > REFUSE_ABOVE {
            return std::ptr::null_mut();
        }
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

/// Decodes `bytes` and returns the result with the peak bytes the decode
/// held above what was live before it, the returned graph counted.
fn decode_peak(bytes: &[u8]) -> (Result<BipartiteGraph, StoreError>, usize) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    let decoded = decode_graph(bytes).map(|(graph, _)| graph);
    let peak = PEAK.with(Cell::get);
    (decoded, (peak - start) as usize)
}

/// The 72-byte file of the empty graph with its header's count at `at`
/// (32 `num_left`, 36 `num_right`, 40 `num_edges`) patched.
fn empty_claiming(at: usize, count: &[u8]) -> Vec<u8> {
    let empty = BipartiteGraph::from_edges(0, 0, []).unwrap();
    let mut bytes = encode_graph(&empty, SourceStamp::default());
    bytes[at..at + count.len()].copy_from_slice(count);
    bytes
}

#[test]
fn a_short_file_cannot_claim_billions_of_vertices() {
    let mut files = vec![
        empty_claiming(32, &u32::MAX.to_le_bytes()),
        empty_claiming(36, &u32::MAX.to_le_bytes()),
        empty_claiming(40, &u64::MAX.to_le_bytes()),
    ];
    // The 60-byte file: four billion right vertices, no room for them.
    let mut short = empty_claiming(36, &u32::MAX.to_le_bytes());
    short.truncate(60);
    files.push(short);
    for bytes in files {
        let (decoded, peak) = decode_peak(&bytes);
        assert!(
            matches!(decoded, Err(StoreError::Truncated { .. })),
            "{decoded:?}"
        );
        assert!(peak < 1024, "{} bytes claimed {peak} bytes", bytes.len());
    }
}

#[test]
fn a_decode_allocates_at_most_twice_the_file() {
    for g in [
        uniform_edges(200, 150, 1_500, 7),
        uniform_edges(20, 3_000, 400, 8),
        BipartiteGraph::from_edges(0, 0, []).unwrap(),
    ] {
        let bytes = encode_graph(&g, SourceStamp::default());
        let (decoded, peak) = decode_peak(&bytes);
        assert_eq!(decoded.unwrap(), g);
        assert!(
            peak <= 2 * bytes.len(),
            "{peak} bytes for a {}-byte file",
            bytes.len()
        );
    }
}

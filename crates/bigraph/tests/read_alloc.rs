//! Heap the edge-list readers allocate: a short file whose ids claim
//! billions of vertices is an error before any array sized by those ids
//! exists. This binary installs a global allocator that refuses large
//! blocks and tracks peak bytes, which is why it is a test binary of its
//! own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Cursor;

use mbb_bigraph::graph::BipartiteGraph;
use mbb_bigraph::io::{read_edge_list, read_edge_list_streaming, IoError};

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

/// Blocks above this size are refused, so a reader that sizes an array by
/// an unchecked id aborts this test instead of touching gigabytes.
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

/// Runs `read` and returns its result with the peak bytes it held above
/// what was live before it.
fn read_peak(
    read: impl FnOnce() -> Result<BipartiteGraph, IoError>,
) -> (Result<BipartiteGraph, IoError>, usize) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    let read = read();
    let peak = PEAK.with(Cell::get);
    (read, (peak - start) as usize)
}

#[test]
fn a_one_line_file_cannot_claim_billions_of_vertices() {
    for text in ["4294967295 1\n", "1 4294967295\n"] {
        let buffered = read_peak(|| read_edge_list(Cursor::new(text)));
        let streamed = read_peak(|| read_edge_list_streaming(Cursor::new(text)));
        for (read, peak) in [buffered, streamed] {
            assert!(
                matches!(
                    read,
                    Err(IoError::IdOutOfRange {
                        line: 1,
                        id: u32::MAX,
                        ..
                    })
                ),
                "{text:?}: {read:?}"
            );
            assert!(peak < 4096, "{text:?} claimed {peak} bytes");
        }
    }
}

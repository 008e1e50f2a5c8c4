//! The span facade: global enable flag, per-thread ring registration,
//! RAII guards, and the collector drain.
//!
//! Clock discipline: a [`SpanGuard`] takes exactly one
//! `Instant::now()` pair — one at construction, one at drop. The
//! [`record`]/[`record_for`] entry points take *zero* clock reads: they
//! re-use `Instant`s the caller already holds (queue-wait spans are
//! built from the admission timestamps the serve loop measures anyway).
//! While recording is disabled, every entry point costs one relaxed load
//! of the runtime switch and takes no clock reads.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::ring::{SpanRecord, SpanRing};
use crate::Stage;

/// Per-thread ring capacity (records). 4096 × 48 B = 192 KiB per
/// instrumented thread, drained every few milliseconds by a trace
/// collector; overflow drops (counted) rather than blocks.
pub const RING_CAPACITY: usize = 4096;

// The runtime switch lives outside the collector so the disabled fast
// path is a single relaxed load with no lazy-init branch. Std atomics
// on purpose: this flag must be readable outside `model::explore` even
// under `--cfg mbb_conc` builds (the facade stays disabled there).
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns span recording on.
pub fn enable() {
    // Pin the epoch no later than the first span.
    collector();
    // relaxed: independent flag; recording threads observe it
    // eventually, which is all a sampling switch needs.
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns span recording off.
pub fn disable() {
    // relaxed: see `enable`.
    ENABLED.store(false, Ordering::Relaxed);
}

/// True when spans are being recorded.
pub fn is_enabled() -> bool {
    // relaxed: see `enable`.
    ENABLED.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------
// Collector.

struct Collector {
    /// Every thread's ring, in registration order. Rings are never
    /// removed: a dead thread's undrained records still drain.
    rings: Mutex<Vec<Arc<SpanRing>>>,
    /// All `start_nanos` are relative to this.
    epoch: Instant,
    /// Global sequence stamp allocator.
    seq: AtomicU64,
    /// Thread id allocator.
    threads: AtomicU32,
}

fn collector() -> &'static Collector {
    static COLLECTOR: OnceLock<Collector> = OnceLock::new();
    COLLECTOR.get_or_init(|| Collector {
        rings: Mutex::new(Vec::new()),
        epoch: Instant::now(),
        seq: AtomicU64::new(0),
        threads: AtomicU32::new(0),
    })
}

thread_local! {
    /// This thread's (id, ring), registered on first use.
    static LOCAL: RefCell<Option<(u32, Arc<SpanRing>)>> = const { RefCell::new(None) };
    /// The (request, conn) ids spans on this thread inherit.
    static CONTEXT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn emit(stage: Stage, start: Instant, end: Instant, request: u64, conn: u64) {
    let collector = collector();
    let start_nanos = u64::try_from(start.saturating_duration_since(collector.epoch).as_nanos())
        .unwrap_or(u64::MAX);
    let duration_nanos =
        u64::try_from(end.saturating_duration_since(start).as_nanos()).unwrap_or(u64::MAX);
    let record = SpanRecord {
        // relaxed: the stamp only needs to be unique and roughly
        // allocation-ordered; readers sort drained records by time.
        seq: collector.seq.fetch_add(1, Ordering::Relaxed),
        stage: stage as u16,
        thread: 0, // filled below from the thread registration
        request,
        conn,
        start_nanos,
        duration_nanos,
    };
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        let (thread, ring) = local.get_or_insert_with(|| {
            // relaxed: unique-id allocation, no ordering dependency.
            let id = collector.threads.fetch_add(1, Ordering::Relaxed);
            let ring = Arc::new(SpanRing::with_capacity(RING_CAPACITY));
            collector.rings.lock().unwrap().push(Arc::clone(&ring));
            (id, ring)
        });
        ring.push(&SpanRecord {
            thread: *thread,
            ..record
        });
    });
}

// ---------------------------------------------------------------------
// Public facade.

/// Sets this thread's span context (request id, connection id) until
/// the returned guard drops; spans opened meanwhile inherit the ids.
/// Nests: the guard restores the previous context.
pub fn context(request: u64, conn: u64) -> ContextGuard {
    let previous = CONTEXT.with(|c| c.replace((request, conn)));
    ContextGuard { previous }
}

/// Restores the previous span context on drop. See [`context`].
#[must_use = "the context lasts until the guard drops"]
#[derive(Debug)]
pub struct ContextGuard {
    previous: (u64, u64),
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CONTEXT.with(|c| c.set(self.previous));
    }
}

/// Opens a span for `stage` with the thread's current [`context`] ids;
/// the span closes (and its record is pushed) when the guard drops.
/// One `Instant::now()` here, one at drop; nothing at all when
/// recording is disabled.
#[inline]
pub fn span(stage: Stage) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard { armed: None };
    }
    let (request, conn) = CONTEXT.with(Cell::get);
    SpanGuard {
        armed: Some((stage, Instant::now(), request, conn)),
    }
}

/// [`span`] with explicit request/conn ids (overrides the context).
#[inline]
pub fn span_for(stage: Stage, request: u64, conn: u64) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard { armed: None };
    }
    SpanGuard {
        armed: Some((stage, Instant::now(), request, conn)),
    }
}

/// An open span; pushes its record when dropped.
#[must_use = "the span closes when the guard drops"]
#[derive(Debug)]
pub struct SpanGuard {
    armed: Option<(Stage, Instant, u64, u64)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((stage, start, request, conn)) = self.armed.take() {
            emit(stage, start, Instant::now(), request, conn);
        }
    }
}

/// Records a span from `Instant`s the caller already measured — zero
/// clock reads (cross-thread spans like queue wait are built from the
/// timestamps the serve loop takes anyway). Uses the thread context's
/// (request, conn).
#[inline]
pub fn record(stage: Stage, start: Instant, end: Instant) {
    if is_enabled() {
        let (request, conn) = CONTEXT.with(Cell::get);
        emit(stage, start, end, request, conn);
    }
}

/// [`record`] with explicit request/conn ids.
#[inline]
pub fn record_for(stage: Stage, start: Instant, end: Instant, request: u64, conn: u64) {
    if is_enabled() {
        emit(stage, start, end, request, conn);
    }
}

/// Drains every thread's ring into `f` (collector side; call from one
/// thread at a time). Records from one thread arrive in push order;
/// across threads, interleave by ring — sort by `start_nanos` or `seq`
/// if a global timeline is needed.
pub fn drain(mut f: impl FnMut(SpanRecord)) {
    let rings: Vec<Arc<SpanRing>> = collector().rings.lock().unwrap().clone();
    for ring in rings {
        ring.drain(&mut f);
    }
}

/// Total records dropped on full rings since process start.
pub fn dropped_records() -> u64 {
    collector()
        .rings
        .lock()
        .unwrap()
        .iter()
        .map(|ring| ring.dropped())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The facade is process-global; tests that enable/drain serialize
    // on this so they cannot steal each other's records.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
        GATE.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _gate = lock();
        disable();
        drain(|_| {}); // flush leftovers from other tests
        {
            let _span = span(Stage::Execute);
        }
        let mut n = 0;
        drain(|_| n += 1);
        assert_eq!(n, 0);
    }

    #[test]
    fn spans_inherit_context_and_nest() {
        let _gate = lock();
        enable();
        drain(|_| {});
        {
            let _ctx = context(77, 9);
            let _outer = span(Stage::Execute);
            {
                let _inner_ctx = context(78, 9);
                let _inner = span(Stage::SolveVerify);
            }
            // Restored after the inner guard dropped.
            let _tail = span(Stage::Encode);
        }
        disable();
        let mut got = Vec::new();
        drain(|r| got.push((r.stage, r.request, r.conn)));
        got.sort_unstable();
        assert_eq!(
            got,
            vec![
                (Stage::SolveVerify as u16, 78, 9),
                (Stage::Execute as u16, 77, 9),
                (Stage::Encode as u16, 77, 9),
            ]
        );
    }

    #[test]
    fn record_uses_caller_instants() {
        let _gate = lock();
        enable();
        drain(|_| {});
        let start = Instant::now();
        let end = start + std::time::Duration::from_millis(5);
        record_for(Stage::QueueWait, start, end, 5, 2);
        disable();
        let mut got = Vec::new();
        drain(|r| got.push(r));
        let r = got
            .iter()
            .find(|r| r.stage == Stage::QueueWait as u16)
            .expect("queue-wait record");
        assert_eq!(r.duration_nanos, 5_000_000);
        assert_eq!((r.request, r.conn), (5, 2));
    }
}

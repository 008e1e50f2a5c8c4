//! Trace export: Chrome `trace_event` JSON (the array format that
//! `chrome://tracing` and Perfetto load directly) and per-stage
//! aggregation for the `mbb trace` table.

use std::io::{self, Write};

use crate::ring::SpanRecord;
use crate::Stage;

/// Microseconds with nanosecond precision, as Chrome's `ts`/`dur`
/// fields expect.
fn micros(nanos: u64) -> String {
    format!("{:.3}", nanos as f64 / 1000.0)
}

/// Streams [`SpanRecord`]s as one Chrome `trace_event` JSON array of
/// complete (`"ph":"X"`) events. Stable fields per event: `name`
/// (stage label), `cat`, `ph`, `ts`/`dur` (µs since the collector
/// epoch), `pid`, `tid` (obs thread id), and `args` with `seq`,
/// `request`, `conn`.
///
/// ```
/// use mbb_obs::{SpanRecord, Stage, TraceWriter};
/// let mut out = Vec::new();
/// let mut w = TraceWriter::new(&mut out)?;
/// w.write(&SpanRecord {
///     seq: 0, stage: Stage::Execute as u16, thread: 1, request: 42, conn: 0,
///     start_nanos: 1_500, duration_nanos: 2_000,
/// })?;
/// w.finish()?;
/// assert!(String::from_utf8(out)?.contains("\"serve.execute\""));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct TraceWriter<W: Write> {
    out: W,
    events: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Opens the JSON array.
    pub fn new(mut out: W) -> io::Result<TraceWriter<W>> {
        out.write_all(b"[")?;
        Ok(TraceWriter { out, events: 0 })
    }

    /// Appends one span as a complete event.
    pub fn write(&mut self, record: &SpanRecord) -> io::Result<()> {
        let name = Stage::from_u16(record.stage).map_or("unknown", Stage::label);
        let sep = if self.events == 0 { "\n" } else { ",\n" };
        write!(
            self.out,
            "{sep}{{\"name\":\"{name}\",\"cat\":\"mbb\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\
             \"pid\":1,\"tid\":{tid},\"args\":{{\"seq\":{seq},\"request\":{request},\"conn\":{conn}}}}}",
            ts = micros(record.start_nanos),
            dur = micros(record.duration_nanos),
            tid = record.thread,
            seq = record.seq,
            request = record.request,
            conn = record.conn,
        )?;
        self.events += 1;
        Ok(())
    }

    /// Events written so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Closes the array and flushes; returns the writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.out.write_all(b"\n]\n")?;
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Per-stage rollup of a drained record set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageAgg {
    /// The stage.
    pub stage: Stage,
    /// Spans recorded for it.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_nanos: u64,
    /// Summed self time, nanoseconds: each span's duration minus the
    /// same-thread spans nested directly inside it. Self times of a
    /// thread's spans never overlap, so they add up without counting a
    /// nested span twice (e.g. `preprocess.bicore` inside
    /// `preprocess.order`). `serve.queue` times a request's wait, not
    /// its thread's work, so it neither nests nor holds nested spans.
    pub self_nanos: u64,
    /// Longest single span, nanoseconds.
    pub max_nanos: u64,
}

impl StageAgg {
    /// Mean span duration, nanoseconds.
    pub fn mean_nanos(&self) -> u64 {
        self.total_nanos.checked_div(self.count).unwrap_or(0)
    }
}

/// Self time of every record, by index: its duration minus the durations
/// of the same-thread records nested directly inside it.
///
/// Per thread, records are visited by start time, outer before inner (a
/// longer span first; at equal bounds the later-recorded one, since a span
/// records when it closes and so after everything nested in it). A stack
/// of open spans then names each record's direct parent.
///
/// `serve.queue` takes no part: the worker that dequeues a request records
/// it, but it times the request's wait, which overlaps whatever that worker
/// ran before. Its self time is its duration.
fn self_times(records: &[SpanRecord]) -> Vec<u64> {
    let end = |r: &SpanRecord| r.start_nanos.saturating_add(r.duration_nanos);
    let mut visit: Vec<usize> = (0..records.len())
        .filter(|&i| records[i].stage != Stage::QueueWait as u16)
        .collect();
    visit.sort_by_key(|&i| {
        let r = &records[i];
        (
            r.thread,
            r.start_nanos,
            std::cmp::Reverse(end(r)),
            std::cmp::Reverse(r.seq),
        )
    });
    let mut self_nanos: Vec<u64> = records.iter().map(|r| r.duration_nanos).collect();
    let mut open: Vec<usize> = Vec::new();
    for i in visit {
        let r = &records[i];
        while let Some(&top) = open.last() {
            let parent = &records[top];
            if parent.thread == r.thread && end(r) <= end(parent) {
                break;
            }
            open.pop();
        }
        if let Some(&parent) = open.last() {
            self_nanos[parent] = self_nanos[parent].saturating_sub(r.duration_nanos);
        }
        open.push(i);
    }
    self_nanos
}

/// Rolls records up per stage, in [`Stage::ALL`] order, skipping
/// stages with no spans.
pub fn aggregate(records: &[SpanRecord]) -> Vec<StageAgg> {
    let self_nanos = self_times(records);
    let mut per_stage: Vec<StageAgg> = Stage::ALL
        .iter()
        .map(|&stage| StageAgg {
            stage,
            count: 0,
            total_nanos: 0,
            self_nanos: 0,
            max_nanos: 0,
        })
        .collect();
    for (r, own) in records.iter().zip(self_nanos) {
        if let Some(agg) = per_stage.get_mut(r.stage as usize) {
            agg.count += 1;
            agg.total_nanos = agg.total_nanos.saturating_add(r.duration_nanos);
            agg.self_nanos = agg.self_nanos.saturating_add(own);
            agg.max_nanos = agg.max_nanos.max(r.duration_nanos);
        }
    }
    per_stage.retain(|agg| agg.count > 0);
    per_stage
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(stage: Stage, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            seq: start,
            stage: stage as u16,
            thread: 2,
            request: 11,
            conn: 1,
            start_nanos: start,
            duration_nanos: dur,
        }
    }

    #[test]
    fn golden_trace_event_json() {
        let mut out = Vec::new();
        let mut w = TraceWriter::new(&mut out).unwrap();
        w.write(&rec(Stage::QueueWait, 1_000, 2_500)).unwrap();
        w.write(&rec(Stage::Execute, 3_500, 10_000)).unwrap();
        assert_eq!(w.events(), 2);
        w.finish().unwrap();
        let text = String::from_utf8(out).unwrap();
        // Byte-stable golden for the first event: downstream tooling
        // keys on these exact fields.
        assert!(text.contains(
            "{\"name\":\"serve.queue\",\"cat\":\"mbb\",\"ph\":\"X\",\"ts\":1.000,\"dur\":2.500,\
             \"pid\":1,\"tid\":2,\"args\":{\"seq\":1000,\"request\":11,\"conn\":1}}"
        ));
        // And the whole file is valid JSON of the expected shape.
        let parsed: serde_json::Value = serde_json::from_str(&text).unwrap();
        let events = parsed.as_array().expect("top-level array");
        assert_eq!(events.len(), 2);
        for event in events {
            assert_eq!(event.get("ph").and_then(|v| v.as_str()), Some("X"));
            assert_eq!(event.get("cat").and_then(|v| v.as_str()), Some("mbb"));
            assert!(event.get("ts").and_then(|v| v.as_f64()).is_some());
            assert!(event.get("dur").and_then(|v| v.as_f64()).is_some());
            let args = event.get("args").expect("args object");
            assert!(args.get("request").and_then(|v| v.as_u64()).is_some());
        }
        assert_eq!(
            events[1].get("name").and_then(|v| v.as_str()),
            Some("serve.execute")
        );
    }

    #[test]
    fn empty_trace_is_valid_json() {
        let mut out = Vec::new();
        TraceWriter::new(&mut out).unwrap().finish().unwrap();
        let parsed: serde_json::Value =
            serde_json::from_str(std::str::from_utf8(&out).unwrap()).unwrap();
        assert_eq!(parsed.as_array().map(Vec::len), Some(0));
    }

    #[test]
    fn unknown_stage_is_labelled_not_dropped() {
        let mut out = Vec::new();
        let mut w = TraceWriter::new(&mut out).unwrap();
        let mut r = rec(Stage::Parse, 0, 1);
        r.stage = 999;
        w.write(&r).unwrap();
        w.finish().unwrap();
        assert!(String::from_utf8(out).unwrap().contains("\"unknown\""));
    }

    #[test]
    fn aggregate_rolls_up_per_stage_in_taxonomy_order() {
        let records = vec![
            rec(Stage::Execute, 0, 10),
            rec(Stage::QueueWait, 0, 5),
            rec(Stage::Execute, 20, 30),
        ];
        let agg = aggregate(&records);
        assert_eq!(agg.len(), 2);
        assert_eq!(agg[0].stage, Stage::QueueWait);
        assert_eq!((agg[0].count, agg[0].total_nanos), (1, 5));
        assert_eq!(agg[1].stage, Stage::Execute);
        assert_eq!(
            (agg[1].count, agg[1].total_nanos, agg[1].max_nanos),
            (2, 40, 30)
        );
        assert_eq!(agg[1].mean_nanos(), 20);
        assert!(aggregate(&[]).is_empty());
    }

    #[test]
    fn self_time_subtracts_directly_nested_same_thread_spans() {
        let on_thread = |stage, start, dur, seq, thread| SpanRecord {
            seq,
            thread,
            ..rec(stage, start, dur)
        };
        let records = vec![
            // A nested pair: bicore [10, 90) inside order [0, 100), which
            // records last because it closes last.
            on_thread(Stage::PreprocessBicore, 10, 80, 1, 2),
            on_thread(Stage::PreprocessOrder, 0, 100, 2, 2),
            // A sibling after the pair on the same thread: not nested.
            on_thread(Stage::SolveHeuristic, 100, 30, 3, 2),
            // Overlapping the order span on another thread: not nested.
            on_thread(Stage::DenseSearch, 20, 50, 4, 3),
        ];
        let agg = aggregate(&records);
        let of = |stage| *agg.iter().find(|a| a.stage == stage).unwrap();
        let order = of(Stage::PreprocessOrder);
        assert_eq!((order.total_nanos, order.self_nanos), (100, 20));
        let bicore = of(Stage::PreprocessBicore);
        assert_eq!((bicore.total_nanos, bicore.self_nanos), (80, 80));
        let sibling = of(Stage::SolveHeuristic);
        assert_eq!((sibling.total_nanos, sibling.self_nanos), (30, 30));
        let other_thread = of(Stage::DenseSearch);
        assert_eq!(other_thread.self_nanos, 50);
        // Self times never double-count: they sum to the busy time.
        let busy: u64 = agg.iter().map(|a| a.self_nanos).sum();
        assert_eq!(busy, 100 + 30 + 50);
    }

    #[test]
    fn queue_wait_neither_contains_nor_nests_in_worker_spans() {
        let on_worker = |stage, start, dur, seq| SpanRecord {
            seq,
            ..rec(stage, start, dur)
        };
        let records = vec![
            // Job 1 runs [10, 50) with its heuristic [12, 40) inside.
            on_worker(Stage::SolveHeuristic, 12, 28, 1),
            on_worker(Stage::Execute, 10, 40, 2),
            // Job 2 was admitted at 20 and dequeued at 50 by the same
            // worker, which records its wait then: [20, 50) overlaps job 1.
            on_worker(Stage::QueueWait, 20, 30, 3),
            on_worker(Stage::Execute, 50, 10, 4),
        ];
        let agg = aggregate(&records);
        let of = |stage| *agg.iter().find(|a| a.stage == stage).unwrap();
        assert_eq!(of(Stage::Execute).self_nanos, (40 - 28) + 10);
        assert_eq!(of(Stage::SolveHeuristic).self_nanos, 28);
        assert_eq!(of(Stage::QueueWait).self_nanos, 30);
    }
}

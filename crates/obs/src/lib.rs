//! `mbb-obs` — the workspace observability layer: structured spans,
//! metrics, and trace export, with zero external dependencies (the
//! vendored-offline constraint applies here like everywhere else).
//!
//! Three pieces:
//!
//! * **Spans** ([`span`], [`record`], [`SpanGuard`]): cheap RAII timers
//!   writing fixed-size [`SpanRecord`]s into lock-free per-thread
//!   [`SpanRing`]s. The hot path never blocks and never allocates: a
//!   full ring counts a drop instead of waiting, and a collector
//!   ([`drain`]) pulls completed records out of band. Each span costs
//!   exactly one `Instant::now()` pair, taken at the facade — never
//!   inside solver inner loops (the `obs-hot-clock` lint rule enforces
//!   this for the enumeration kernels).
//! * **Metrics** ([`hist`]): HDR-style log-bucketed [`Histogram`]s
//!   (base-2 octaves split into 16 linear sub-buckets, ≤ 6.25 % relative
//!   error) with p50/p90/p99/max readout.
//! * **Trace export** ([`trace`]): drained records serialise as Chrome
//!   `trace_event` JSON (loadable in `chrome://tracing` / Perfetto) or
//!   aggregate into a per-stage table.
//!
//! Instrumentation is switched at runtime: until [`enable`] is called,
//! each span site costs one relaxed atomic load, with no clock reads and
//! no ring traffic.
//!
//! ```
//! use mbb_obs::{Stage, enable, drain, span};
//!
//! enable();
//! {
//!     let _guard = mbb_obs::context(42, 1); // request 42, connection 1
//!     let _span = span(Stage::Execute);
//!     // ... work ...
//! }
//! let mut stages = Vec::new();
//! drain(|record| stages.push(record.stage));
//! assert!(stages.contains(&(Stage::Execute as u16)));
//! ```

#![warn(missing_docs)]

pub mod hist;
pub mod ring;
mod span;
pub mod trace;

pub use hist::{Histogram, HistogramSnapshot};
pub use ring::{SpanRecord, SpanRing};
pub use span::{
    context, disable, drain, dropped_records, enable, is_enabled, record, record_for, span,
    span_for, ContextGuard, SpanGuard,
};
pub use trace::{aggregate, StageAgg, TraceWriter};

/// The span taxonomy: every instrumentation site names one of these.
/// Values are stable wire/trace identifiers (stored as `u16` in
/// [`SpanRecord::stage`]); labels are the dotted names that appear in
/// trace files and the `mbb trace` table.
#[repr(u16)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Bidegeneracy peel-order construction (engine index build).
    PreprocessOrder = 0,
    /// Bicore decomposition (engine index build).
    PreprocessBicore = 1,
    /// Two-hop index construction (engine index build).
    PreprocessTwoHop = 2,
    /// Solver stage 1: heuristic + reduction (`hmbb`).
    SolveHeuristic = 3,
    /// Solver stage 2: vertex-centred bridging, whole stage.
    SolveBridge = 4,
    /// One centre's bridging subproblem inside stage 2.
    BridgeCentre = 5,
    /// Solver stage 3: candidate verification.
    SolveVerify = 6,
    /// One dense branch-and-bound search (inside verification).
    DenseSearch = 7,
    /// Wire-line parse in the serve reader.
    Parse = 8,
    /// Admission processing incl. backpressure wait for a queue slot.
    AdmissionWait = 9,
    /// Admission-to-dispatch wait in the EDF queue.
    QueueWait = 10,
    /// Dispatch-to-response execution on a worker.
    Execute = 11,
    /// Response encoding to a JSONL line.
    Encode = 12,
    /// Per-connection outbox write (socket mode).
    Outbox = 13,
}

impl Stage {
    /// Every stage, in discriminant order (table/report iteration).
    pub const ALL: [Stage; 14] = [
        Stage::PreprocessOrder,
        Stage::PreprocessBicore,
        Stage::PreprocessTwoHop,
        Stage::SolveHeuristic,
        Stage::SolveBridge,
        Stage::BridgeCentre,
        Stage::SolveVerify,
        Stage::DenseSearch,
        Stage::Parse,
        Stage::AdmissionWait,
        Stage::QueueWait,
        Stage::Execute,
        Stage::Encode,
        Stage::Outbox,
    ];

    /// The stage's stable dotted name (trace `name` field, table rows).
    pub fn label(self) -> &'static str {
        match self {
            Stage::PreprocessOrder => "preprocess.order",
            Stage::PreprocessBicore => "preprocess.bicore",
            Stage::PreprocessTwoHop => "preprocess.two_hop",
            Stage::SolveHeuristic => "solve.heuristic",
            Stage::SolveBridge => "solve.bridge",
            Stage::BridgeCentre => "solve.bridge_centre",
            Stage::SolveVerify => "solve.verify",
            Stage::DenseSearch => "solve.dense",
            Stage::Parse => "serve.parse",
            Stage::AdmissionWait => "serve.admission_wait",
            Stage::QueueWait => "serve.queue",
            Stage::Execute => "serve.execute",
            Stage::Encode => "serve.encode",
            Stage::Outbox => "serve.outbox",
        }
    }

    /// Decodes a [`SpanRecord::stage`] discriminant.
    pub fn from_u16(value: u16) -> Option<Stage> {
        Stage::ALL.get(value as usize).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_discriminants_round_trip() {
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(*stage as u16 as usize, i);
            assert_eq!(Stage::from_u16(*stage as u16), Some(*stage));
        }
        assert_eq!(Stage::from_u16(Stage::ALL.len() as u16), None);
    }

    #[test]
    fn stage_labels_are_unique() {
        let mut labels: Vec<&str> = Stage::ALL.iter().map(|s| s.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Stage::ALL.len());
    }
}

//! The one scheduler of the service: an EDF admission queue with
//! per-tenant fairness, bounded-depth backpressure, load-shedding, and
//! graceful drain/reload, and the [`StreamServer`] that feeds it.
//!
//! Every request enters the same way — through the server's admission
//! path into one [`Admission`] queue drained by [`worker_loop`]
//! threads — whether it arrives as a JSONL line on stdin
//! ([`StreamServer::serve`]), on one of N concurrent socket connections
//! ([`crate::socket`]), or as one element of a finite batch
//! ([`StreamServer::run_batch`]). Responses are emitted as they
//! complete; the socket mux and `run_batch` route each one back to its
//! origin by the job's connection key. The admission queue is where the
//! service semantics live:
//!
//! * **Cross-batch EDF.** The queue is ordered by absolute deadline
//!   (admission instant + `deadline_ms`), earliest first; deadline-free
//!   requests run after every deadlined one, FIFO among themselves. A
//!   tight-deadline request admitted *later* overtakes slack requests
//!   already queued.
//! * **Per-tenant fairness.** EDF alone lets one hot shard starve the
//!   rest (its requests can always carry the soonest deadlines). The
//!   queue therefore keys sub-queues by shard and caps how many
//!   *consecutive* pops one shard may win while another shard has work
//!   waiting ([`StreamConfig::fairness_burst`]); when the cap trips, the
//!   best other shard's head runs next.
//! * **Bounded depth + backpressure.** The queue holds at most
//!   [`StreamConfig::queue_depth`] requests; when full, admission blocks,
//!   which propagates backpressure to the input (a pipe writer stalls).
//!   Memory is bounded no matter how fast requests arrive.
//! * **Load-shedding.** A request whose deadline budget is already
//!   exhausted — zero on arrival, or expired while queued — is **shed**:
//!   rejected with a typed wire error (`"error_kind": "shed"`), never
//!   executed, and never allowed to perturb other requests.
//! * **Drain/reload.** Control lines swap a shard's graph without
//!   dropping anything: requests bind to their shard's engine session
//!   *at admission*, so everything admitted before the reload finishes
//!   on the old session while later admissions see the new graph (see
//!   [`ShardedFleet::reload_shard_from_store`]).
//!
//! The wire schema (request, control, error, ack and stats lines) is
//! implemented in [`crate::jsonl`] and documented in `docs/SERVING.md`.

use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::io::{BufRead, Write};
use std::time::{Duration, Instant};

// Synchronisation goes through the mbb-conc facade: std-backed in
// normal builds, model-checked under `RUSTFLAGS="--cfg mbb_conc"`
// (see tests/conc_models.rs and docs/CONCURRENCY.md).
use mbb_conc::sync::{Condvar, Mutex};

use mbb_core::engine::MbbEngine;
use mbb_core::resolve_threads;
use mbb_obs as obs;
use mbb_store::GraphStore;
use std::sync::Arc;

use crate::fleet::ShardedFleet;
use crate::jsonl::{encode_stream_event, parse_stream_line, ControlRequest, StreamLine};
use crate::request::{execute_guarded, rejected, validate, QueryRequest, QueryResponse};

// ---------------------------------------------------------------------
// Configuration.

/// Tuning knobs of a [`StreamServer`].
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Worker threads executing queries (`0` = one per core, the
    /// workspace-wide thread-knob convention).
    pub workers: usize,
    /// Maximum queued (admitted but not yet executing) requests.
    /// Admission blocks when the queue is full — backpressure, not
    /// unbounded memory. Clamped to at least 1.
    pub queue_depth: usize,
    /// Maximum consecutive pops one shard may win while another shard
    /// has queued work; `0` disables the fairness cap (pure EDF).
    pub fairness_burst: usize,
    /// Emit a final [`StreamEvent::Stats`] when the input ends.
    pub stats_on_exit: bool,
}

impl Default for StreamConfig {
    fn default() -> StreamConfig {
        StreamConfig {
            workers: 1,
            queue_depth: 1024,
            fairness_burst: 8,
            stats_on_exit: false,
        }
    }
}

// ---------------------------------------------------------------------
// Events.

/// What a reload actually did, for the ack line.
#[derive(Debug, Clone)]
pub struct ReloadOutcome {
    /// Load provenance + timing, as rendered by `LoadedGraph::describe`.
    pub detail: String,
    /// True when the loaded graph was identical to the served one and the
    /// shard kept its warm session instead of building a new one.
    pub forked: bool,
}

/// One output event of a serve run or batch — each becomes exactly one
/// JSONL line on the wire ([`crate::jsonl::encode_stream_event`]).
#[derive(Debug, Clone)]
pub enum StreamEvent {
    /// An executed request's response — or a validation/routing
    /// rejection ([`QueryOutcome::Rejected`](crate::QueryOutcome::Rejected),
    /// wire `"error_kind": "invalid"`).
    Response(Box<QueryResponse>),
    /// A request shed by admission control: its deadline budget was
    /// already exhausted, so it was never executed.
    Shed {
        /// The request's id, echoed.
        id: u64,
        /// The shard it would have run on.
        graph: Option<String>,
        /// The request's kind label.
        kind: &'static str,
        /// Why it was shed.
        reason: String,
    },
    /// An input line that was not valid JSON / not a valid request.
    ParseError {
        /// 1-based input line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// A queued request cancelled because its originating connection
    /// disconnected before dispatch (socket mode). Never executed; in
    /// practice the line is undeliverable (the connection is gone), so
    /// this event mostly feeds the `disconnected` counter and embedded
    /// sinks.
    Disconnected {
        /// The request's id, echoed.
        id: u64,
        /// The shard it would have run on.
        graph: Option<String>,
        /// The request's kind label.
        kind: &'static str,
        /// Why it was dropped.
        reason: String,
    },
    /// Answer to a `reload` control line.
    ReloadAck {
        /// The shard that was (or failed to be) reloaded.
        graph: String,
        /// The swap outcome, or the load error.
        result: Result<ReloadOutcome, String>,
    },
    /// Answer to a `drain` control line: everything admitted before it
    /// has completed.
    Drained {
        /// Requests retired (executed, shed, or disconnected) so far.
        completed: u64,
    },
    /// Answer to a `stats` control line (or the final end-of-input
    /// snapshot when [`StreamConfig::stats_on_exit`] is set).
    Stats(ServeStats),
    /// Answer to a `metrics` control line: the full observability
    /// snapshot — counters plus latency histogram quantiles.
    Metrics(Box<MetricsReport>),
}

// ---------------------------------------------------------------------
// Stats.

/// Per-shard slice of [`ServeStats`].
#[derive(Debug, Clone)]
pub struct ShardServeStats {
    /// The shard's graph id.
    pub shard: String,
    /// Requests executed on this shard.
    pub served: u64,
    /// Requests shed that were routed to this shard.
    pub shed: u64,
    /// Search nodes explored by this shard's executed requests.
    pub search_nodes: u64,
    /// This run's executed requests on this shard that read a cached
    /// search order instead of building it.
    pub index_reuse_hits: u64,
    /// This run's successful reloads of this shard.
    pub reloads: u64,
}

/// Snapshot of one serve run's counters: the `stats` control verb, the
/// final `--stats` line, and a [`BatchReport`] all carry this, built
/// from one source: the run's admission queue, which counts each request
/// as it retires and each reload as it succeeds.
#[derive(Debug, Clone)]
pub struct ServeStats {
    /// Requests admitted to the queue (excludes rejects and sheds at
    /// admission).
    pub admitted: u64,
    /// Requests executed to a response.
    pub completed: u64,
    /// Requests shed (admission or dispatch) — never executed.
    pub shed: u64,
    /// Requests rejected before queueing (routing/validation).
    pub rejected: u64,
    /// Input lines that failed to parse.
    pub parse_errors: u64,
    /// This run's successful shard reloads: the sum of the per-shard
    /// [`ShardServeStats::reloads`].
    pub reloads: u64,
    /// Requests cancelled (queued or popped, never executed) because
    /// their originating connection disconnected.
    pub disconnected: u64,
    /// Socket connections accepted since server start (0 in stdin mode).
    pub connections: u64,
    /// Socket connections currently open.
    pub active_conns: u64,
    /// Connections that ended abruptly (read error, or a write failure
    /// detected by the connection's pump) rather than by a clean EOF.
    pub disconnects: u64,
    /// Requests queued at snapshot time.
    pub queue_depth: usize,
    /// High-water mark of the queue depth.
    pub max_queue_depth: usize,
    /// Sum of per-request queue waits (the queue-wait histogram's sum).
    pub total_queue_wait: Duration,
    /// The worst single queue wait (the queue-wait histogram's max).
    pub max_queue_wait: Duration,
    /// Sum of per-request service times (the service histogram's sum).
    pub total_service: Duration,
    /// The run's executed requests that read a cached search order: the
    /// sum of the per-shard [`ShardServeStats::index_reuse_hits`]. Only
    /// this run's requests count, and the total never falls.
    pub index_reuse_hits: u64,
    /// Per-shard breakdown, in fleet shard order.
    pub per_shard: Vec<ShardServeStats>,
}

/// The `{"control": "metrics"}` payload: the plain [`ServeStats`]
/// counters (wire-compatible with the `stats` verb) plus the
/// log-bucketed latency distributions the totals can't express. The
/// histograms live on the [`Admission`] queue and are recorded by
/// [`Admission::finish`]; `total_queue_wait`, `max_queue_wait` and
/// `total_service` are read from them, so the two views agree.
#[derive(Debug, Clone)]
pub struct MetricsReport {
    /// The counter snapshot, identical to a `stats` answer.
    pub stats: ServeStats,
    /// Admission-to-dispatch wait distribution (nanosecond values).
    pub queue_wait: obs::HistogramSnapshot,
    /// Dispatch-to-response service-time distribution (nanosecond
    /// values).
    pub service: obs::HistogramSnapshot,
    /// Span records dropped by full per-thread rings since tracing was
    /// enabled (0 when tracing is off).
    pub spans_dropped: u64,
}

/// Everything [`StreamServer::run_batch`] returns.
///
/// ```
/// use mbb_serve::{QueryKind, QueryRequest, ShardedFleet, StreamConfig, StreamServer};
///
/// let mut fleet = ShardedFleet::new();
/// fleet.add_shard("only", mbb_bigraph::generators::uniform_edges(15, 15, 70, 8))?;
/// let server = StreamServer::new(fleet, StreamConfig::default());
/// let report = server.run_batch(vec![
///     QueryRequest::new(0, QueryKind::Solve).on_graph("only"),
///     QueryRequest::new(1, QueryKind::Solve).on_graph("only"),
/// ]);
/// // Both solves reach stage 2, where the first builds the session's
/// // order and the second reuses it: that is the amortisation a batch
/// // buys, and the report shows it.
/// assert_eq!(report.stats.index_reuse_hits, 1);
/// assert_eq!(report.stats.per_shard[0].served, 2);
/// assert_eq!(report.stats.rejected, 0);
/// # Ok::<(), mbb_serve::ServeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// One event per request, in request order: a
    /// [`StreamEvent::Response`] (executed, or rejected by routing or
    /// validation) or a [`StreamEvent::Shed`] (budget exhausted before
    /// execution).
    pub events: Vec<StreamEvent>,
    /// The batch's counters, exactly as the `stats` verb reports them.
    pub stats: ServeStats,
}

// ---------------------------------------------------------------------
// The admission queue.

/// One admitted request, bound to the engine session that was current at
/// admission time (reload safety: the binding never changes afterwards).
///
/// Public but `#[doc(hidden)]`: the `conc_models` interleaving tests
/// construct jobs directly to drive the real queue under the model
/// scheduler.
#[doc(hidden)]
pub struct StreamJob {
    request: QueryRequest,
    shard: usize,
    shard_id: String,
    engine: Arc<MbbEngine>,
    deadline: Option<Instant>,
    admitted: Instant,
    seq: u64,
    /// The originating connection ([`crate::mux::LOCAL_CONN`] for the
    /// local stdin stream, the batch position under `run_batch`) — the
    /// response sink routes by this.
    conn: u64,
}

impl StreamJob {
    /// Builds a job directly, bypassing routing/validation — model-check
    /// and unit-test harness only. Timing fields are caller-fixed so
    /// model closures stay schedule-deterministic.
    #[doc(hidden)]
    pub fn synthetic(
        request: QueryRequest,
        shard: usize,
        shard_id: String,
        engine: Arc<MbbEngine>,
        deadline: Option<Instant>,
        admitted: Instant,
    ) -> StreamJob {
        StreamJob {
            request,
            shard,
            shard_id,
            engine,
            deadline,
            admitted,
            seq: 0, // assigned under the queue lock
            conn: crate::mux::LOCAL_CONN,
        }
    }

    /// Re-binds a synthetic job to a connection id (tests/models only —
    /// the serve paths set the id at admission).
    #[doc(hidden)]
    pub fn with_conn(mut self, conn: u64) -> StreamJob {
        self.conn = conn;
        self
    }

    /// The request id this job carries.
    #[doc(hidden)]
    pub fn id(&self) -> u64 {
        self.request.id
    }

    /// The shard index the job is routed to.
    #[doc(hidden)]
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The absolute deadline, if the request carried a budget.
    #[doc(hidden)]
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The originating connection id.
    #[doc(hidden)]
    pub fn conn(&self) -> u64 {
        self.conn
    }

    /// The typed event reporting this job as cancelled-by-disconnect.
    #[doc(hidden)]
    pub fn disconnect_event(&self) -> StreamEvent {
        StreamEvent::Disconnected {
            id: self.request.id,
            graph: Some(self.shard_id.clone()),
            kind: self.request.kind.label(),
            reason: "originating connection disconnected".to_string(),
        }
    }
}

/// Heap entry: max-heap orders "greater = scheduled sooner", so soonest
/// deadline wins, `None` deadlines run after every armed one, and ties
/// fall back to admission order.
struct Pending(StreamJob);

impl Pending {
    fn key(&self) -> (Option<Instant>, u64) {
        (self.0.deadline, self.0.seq)
    }
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == CmpOrdering::Equal
    }
}

impl Eq for Pending {}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        match (self.0.deadline, other.0.deadline) {
            (Some(a), Some(b)) => b.cmp(&a),
            (Some(_), None) => CmpOrdering::Greater,
            (None, Some(_)) => CmpOrdering::Less,
            (None, None) => CmpOrdering::Equal,
        }
        .then_with(|| other.0.seq.cmp(&self.0.seq))
    }
}

/// True when head key `a` schedules before head key `b` (EDF with `None`
/// last, FIFO tie-break).
fn schedules_before(a: (Option<Instant>, u64), b: (Option<Instant>, u64)) -> bool {
    match (a.0, b.0) {
        (Some(x), Some(y)) => (x, a.1) < (y, b.1),
        (Some(_), None) => true,
        (None, Some(_)) => false,
        (None, None) => a.1 < b.1,
    }
}

struct QueueState {
    /// One EDF sub-queue per shard (the fairness key is the tenant =
    /// graph id = shard).
    heaps: Vec<BinaryHeap<Pending>>,
    depth: usize,
    in_flight: usize,
    closed: bool,
    seq: u64,
    /// Fairness bookkeeping: the shard that won the last pop and how
    /// many consecutive pops it has won.
    last_shard: usize,
    run_length: usize,
    // Counters (all mutated under this one lock; the loop is I/O- and
    // solver-bound, so contention here is negligible).
    admitted: u64,
    completed: u64,
    shed: u64,
    rejected: u64,
    parse_errors: u64,
    /// Requests cancelled because their connection disconnected.
    disconnected: u64,
    /// Connection lifecycle counters (socket mode; zero over stdin).
    connections: u64,
    closed_conns: u64,
    disconnects: u64,
    max_depth: usize,
    /// Per shard, in fleet order.
    shards: Vec<ShardCounts>,
}

/// One shard's counters for the run: the per-shard half of a
/// [`ShardServeStats`].
#[derive(Debug, Clone, Copy, Default)]
struct ShardCounts {
    served: u64,
    shed: u64,
    search_nodes: u64,
    orders_reused: u64,
    reloads: u64,
}

/// How a popped job retired — applied to the queue counters by
/// [`Admission::finish`]. A typed enum (not a closure over the private
/// `QueueState`) so the model-check tests can finish jobs the same way
/// the real workers do.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub enum Completion {
    /// Retired without touching counters (synthetic pops in tests).
    Untracked,
    /// Shed at dispatch: the deadline expired while queued.
    Shed {
        /// The shard the job was routed to.
        shard: usize,
    },
    /// Executed to a response.
    Executed {
        /// The shard the job ran on.
        shard: usize,
        /// Search nodes the solver explored.
        search_nodes: u64,
        /// The response's `stats.index.orders_reused`: 1 when it read a
        /// cached search order.
        orders_reused: u64,
        /// Admission-to-dispatch wait.
        queue_wait: Duration,
        /// Dispatch-to-response time.
        service: Duration,
    },
    /// Popped with a dead originating connection: never executed, its
    /// would-be response had nowhere to go.
    Disconnected,
}

/// Observable queue counters for tests and model checks (the public
/// [`ServeStats`] is the wire-facing superset).
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueSnapshot {
    pub admitted: u64,
    pub completed: u64,
    pub shed: u64,
    pub rejected: u64,
    pub disconnected: u64,
    pub depth: usize,
    pub in_flight: usize,
    pub max_depth: usize,
}

impl QueueSnapshot {
    /// The conservation law every snapshot must satisfy: everything
    /// admitted is either retired (completed, shed, or cancelled by a
    /// disconnect) or still inside the queue/workers. `rejected` is
    /// deliberately absent — rejection happens *before* admission.
    /// Model-checked at every quiescent point in
    /// `tests/conc_models.rs`.
    pub fn is_balanced(&self) -> bool {
        self.admitted
            == self.completed + self.shed + self.disconnected + (self.depth + self.in_flight) as u64
    }
}

/// The shared state of one `serve` call: the bounded admission queue
/// plus its three wait conditions.
///
/// `#[doc(hidden)]` public: the `conc_models` tests model-check this
/// exact type (not a copy) under `--cfg mbb_conc`.
#[doc(hidden)]
pub struct Admission {
    state: Mutex<QueueState>,
    /// Admission waits here when the queue is full (backpressure).
    space: Condvar,
    /// Workers wait here when the queue is empty.
    work: Condvar,
    /// Drain waits here for `depth == 0 && in_flight == 0`.
    idle: Condvar,
    depth_limit: usize,
    fairness_burst: usize,
    /// Latency distributions, the one store of per-request queue waits
    /// and service times: [`finish`](Self::finish) records each executed
    /// request under the `state` lock, so a snapshot taken under that
    /// lock agrees with `completed`.
    hist_queue_wait: obs::Histogram,
    hist_service: obs::Histogram,
}

impl Admission {
    #[doc(hidden)]
    pub fn new(shards: usize, config: &StreamConfig) -> Admission {
        Admission {
            state: Mutex::new(QueueState {
                heaps: (0..shards).map(|_| BinaryHeap::new()).collect(),
                depth: 0,
                in_flight: 0,
                closed: false,
                seq: 0,
                last_shard: usize::MAX,
                run_length: 0,
                admitted: 0,
                completed: 0,
                shed: 0,
                rejected: 0,
                parse_errors: 0,
                disconnected: 0,
                connections: 0,
                closed_conns: 0,
                disconnects: 0,
                max_depth: 0,
                shards: vec![ShardCounts::default(); shards],
            }),
            space: Condvar::new(),
            work: Condvar::new(),
            idle: Condvar::new(),
            depth_limit: config.queue_depth.max(1),
            fairness_burst: config.fairness_burst,
            hist_queue_wait: obs::Histogram::new(),
            hist_service: obs::Histogram::new(),
        }
    }

    /// Blocks until the queue has space, then enqueues (backpressure).
    #[doc(hidden)]
    pub fn push(&self, mut job: StreamJob) {
        let mut state = self.state.lock();
        while state.depth >= self.depth_limit {
            state = self.space.wait(state);
        }
        job.seq = state.seq;
        state.seq += 1;
        state.depth += 1;
        state.admitted += 1;
        state.max_depth = state.max_depth.max(state.depth);
        let shard = job.shard;
        state.heaps[shard].push(Pending(job));
        drop(state);
        self.work.notify_one();
    }

    /// Picks the next shard to serve: the one whose head schedules
    /// first, unless that shard has exhausted its fairness burst while
    /// another shard waits — then the best *other* shard wins the slot.
    fn pick_shard(&self, state: &mut QueueState) -> Option<usize> {
        let head = |state: &QueueState, i: usize| state.heaps[i].peek().map(Pending::key);
        let best_of = |state: &QueueState, skip: Option<usize>| -> Option<usize> {
            let mut best: Option<(usize, (Option<Instant>, u64))> = None;
            for i in 0..state.heaps.len() {
                if Some(i) == skip {
                    continue;
                }
                if let Some(key) = head(state, i) {
                    if best.is_none_or(|(_, b)| schedules_before(key, b)) {
                        best = Some((i, key));
                    }
                }
            }
            best.map(|(i, _)| i)
        };
        let mut pick = best_of(state, None)?;
        if self.fairness_burst > 0
            && pick == state.last_shard
            && state.run_length >= self.fairness_burst
        {
            if let Some(other) = best_of(state, Some(pick)) {
                pick = other;
            }
        }
        if pick == state.last_shard {
            state.run_length += 1;
        } else {
            state.last_shard = pick;
            state.run_length = 1;
        }
        Some(pick)
    }

    /// Blocks for the next job; `None` means closed-and-empty (worker
    /// exits).
    #[doc(hidden)]
    pub fn pop(&self) -> Option<StreamJob> {
        let mut state = self.state.lock();
        loop {
            if let Some(shard) = self.pick_shard(&mut state) {
                // `pick_shard` only returns shards with a non-empty
                // heap, but a wire-facing worker must not panic on the
                // impossible case — re-evaluate instead.
                let Some(pending) = state.heaps[shard].pop() else {
                    continue;
                };
                state.depth -= 1;
                state.in_flight += 1;
                drop(state);
                self.space.notify_one();
                return Some(pending.0);
            }
            if state.closed {
                return None;
            }
            state = self.work.wait(state);
        }
    }

    /// Marks one popped job finished, applies its counter updates, and
    /// wakes any drain waiter.
    #[doc(hidden)]
    pub fn finish(&self, completion: Completion) {
        let mut state = self.state.lock();
        match completion {
            Completion::Untracked => {}
            Completion::Shed { shard } => {
                state.shed += 1;
                state.shards[shard].shed += 1;
            }
            Completion::Executed {
                shard,
                search_nodes,
                orders_reused,
                queue_wait,
                service,
            } => {
                state.completed += 1;
                let counts = &mut state.shards[shard];
                counts.served += 1;
                counts.search_nodes += search_nodes;
                counts.orders_reused += orders_reused;
                self.hist_queue_wait.record_duration(queue_wait);
                self.hist_service.record_duration(service);
            }
            Completion::Disconnected => {
                state.disconnected += 1;
            }
        }
        state.in_flight -= 1;
        if state.depth == 0 && state.in_flight == 0 {
            self.idle.notify_all();
        }
    }

    /// Removes every queued (not yet popped) job admitted by `conn` and
    /// returns them — called when a connection disconnects abruptly.
    /// The cancelled jobs count as `disconnected`, their queue slots
    /// free immediately (waking blocked producers), and a drain waiting
    /// on quiescence observes them as retired. In-flight jobs are *not*
    /// touched: they finish on their worker and the response mux drops
    /// the undeliverable lines.
    #[doc(hidden)]
    pub fn cancel_conn(&self, conn: u64) -> Vec<StreamJob> {
        let mut state = self.state.lock();
        let mut cancelled = Vec::new();
        let shard_count = state.heaps.len();
        for shard in 0..shard_count {
            let heap = std::mem::take(&mut state.heaps[shard]);
            let (gone, keep): (Vec<Pending>, Vec<Pending>) =
                heap.into_vec().into_iter().partition(|p| p.0.conn == conn);
            state.heaps[shard] = keep.into_iter().collect();
            cancelled.extend(gone.into_iter().map(|p| p.0));
        }
        // Cancellation preserves EDF order among survivors (heap rebuilt
        // from the same keys); only the counters change.
        let n = cancelled.len();
        state.depth -= n;
        state.disconnected += n as u64;
        let quiescent = state.depth == 0 && state.in_flight == 0;
        drop(state);
        if n > 0 {
            self.space.notify_all();
            if quiescent {
                self.idle.notify_all();
            }
        }
        cancelled.sort_by_key(|job| job.seq);
        cancelled
    }

    /// Connection lifecycle accounting (socket front-end).
    #[doc(hidden)]
    pub fn note_conn_opened(&self) {
        self.state.lock().connections += 1;
    }

    /// Marks one connection closed; `abrupt` distinguishes a detected
    /// disconnect from a clean EOF.
    #[doc(hidden)]
    pub fn note_conn_closed(&self, abrupt: bool) {
        let mut state = self.state.lock();
        state.closed_conns += 1;
        if abrupt {
            state.disconnects += 1;
        }
    }

    /// Counts one unparseable input line (the reader emits the event).
    #[doc(hidden)]
    pub fn note_parse_error(&self) {
        self.state.lock().parse_errors += 1;
    }

    /// Blocks until everything admitted so far has completed.
    #[doc(hidden)]
    pub fn drain(&self) -> u64 {
        let mut state = self.state.lock();
        while state.depth > 0 || state.in_flight > 0 {
            state = self.idle.wait(state);
        }
        state.completed + state.shed + state.disconnected
    }

    #[doc(hidden)]
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.work.notify_all();
    }

    /// Counter snapshot for tests and model checks.
    #[doc(hidden)]
    pub fn queue_snapshot(&self) -> QueueSnapshot {
        let state = self.state.lock();
        QueueSnapshot {
            admitted: state.admitted,
            completed: state.completed,
            shed: state.shed,
            rejected: state.rejected,
            disconnected: state.disconnected,
            depth: state.depth,
            in_flight: state.in_flight,
            max_depth: state.max_depth,
        }
    }
}

// ---------------------------------------------------------------------
// The server.

/// A resident query server over a [`ShardedFleet`]: feed it a JSONL
/// request stream and it emits one JSONL event per request (plus control
/// acks), applying cross-batch EDF admission, per-tenant fairness,
/// bounded-depth backpressure, load-shedding and hot shard reloads.
///
/// ```
/// use mbb_serve::stream::{StreamConfig, StreamEvent, StreamServer};
/// use mbb_serve::ShardedFleet;
///
/// let mut fleet = ShardedFleet::new();
/// fleet.add_shard("g", mbb_bigraph::generators::uniform_edges(12, 12, 55, 1))?;
/// let server = StreamServer::new(fleet, StreamConfig::default());
///
/// let input = "{\"id\": 1, \"graph\": \"g\", \"kind\": \"solve\"}\n";
/// let mut out = Vec::new();
/// let stats = server.serve(input.as_bytes(), &mut out)?;
/// assert_eq!(stats.completed, 1);
/// assert!(String::from_utf8(out)?.contains("\"half_size\""));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct StreamServer {
    fleet: Arc<ShardedFleet>,
    store: GraphStore,
    config: StreamConfig,
}

impl StreamServer {
    /// A server over `fleet`. Reload control lines resolve graph sources
    /// through a [`GraphStore::from_env`] store;
    /// [`with_store`](Self::with_store) overrides it.
    pub fn new(fleet: ShardedFleet, config: StreamConfig) -> StreamServer {
        StreamServer {
            fleet: Arc::new(fleet),
            store: GraphStore::from_env(),
            config,
        }
    }

    /// Replaces the store used by `reload` control lines.
    pub fn with_store(mut self, store: GraphStore) -> StreamServer {
        self.store = store;
        self
    }

    /// The fleet this server schedules over.
    pub fn fleet(&self) -> &ShardedFleet {
        &self.fleet
    }

    /// The server's configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Runs the resident loop over `input`, writing one JSONL line per
    /// [`StreamEvent`] to `output` as events complete (completion order,
    /// not admission order — each line carries its request `id`). Returns
    /// the final stats snapshot; the first write error (if any) is
    /// reported after the stream has been drained.
    pub fn serve<R: BufRead, W: Write + Send>(
        &self,
        input: R,
        output: W,
    ) -> std::io::Result<ServeStats> {
        let sink = Mutex::new((output, None::<std::io::Error>));
        let stats = self.serve_with(input, |event| {
            // Runs on the worker that completed the request, inside its
            // span context — the encode span inherits the request ids.
            let encode_span = obs::span(obs::Stage::Encode);
            let line = encode_stream_event(&event);
            drop(encode_span);
            let mut guard = sink.lock();
            if guard.1.is_none() {
                let result = guard
                    .0
                    .write_all(line.as_bytes())
                    .and_then(|()| guard.0.write_all(b"\n"))
                    .and_then(|()| guard.0.flush());
                if let Err(e) = result {
                    guard.1 = Some(e);
                }
            }
        });
        match sink.into_inner().1 {
            Some(e) => Err(e),
            None => Ok(stats),
        }
    }

    /// Runs the resident loop over `input`, delivering typed
    /// [`StreamEvent`]s to `sink` (called concurrently from worker
    /// threads — completion order). This is [`serve`](Self::serve)
    /// without the wire encoding; tests and embedding services use it to
    /// observe responses directly.
    pub fn serve_with<R: BufRead>(
        &self,
        input: R,
        sink: impl Fn(StreamEvent) + Sync,
    ) -> ServeStats {
        // Local mode: one implicit connection.
        let conn_sink = |_conn: u64, event: StreamEvent| sink(event);
        let stats = self.run_queue(&conn_sink, |admission| {
            self.reader_loop(input, admission, &conn_sink)
        });
        if self.config.stats_on_exit {
            sink(StreamEvent::Stats(stats.clone()));
        }
        stats
    }

    /// Runs a finite batch through the admission queue and waits for all
    /// of it: each request is admitted in order (routing, validation and
    /// shedding as for a stream line), the configured workers drain the
    /// queue, and the call returns once every request has retired. Each
    /// request's batch position is its connection key, so its event
    /// lands in its own slot — [`BatchReport::events`] is in request
    /// order even when ids repeat. Workers live for this call only;
    /// [`StreamConfig::stats_on_exit`] is ignored (the stats are in the
    /// report).
    ///
    /// ```
    /// use mbb_serve::{QueryKind, QueryRequest, ShardedFleet, StreamConfig, StreamEvent, StreamServer};
    ///
    /// let mut fleet = ShardedFleet::new();
    /// fleet
    ///     .add_shard("west", mbb_bigraph::generators::uniform_edges(15, 15, 70, 3))?
    ///     .add_shard("east", mbb_bigraph::generators::uniform_edges(15, 15, 70, 4))?;
    /// let config = StreamConfig { workers: 2, ..StreamConfig::default() };
    /// let server = StreamServer::new(fleet, config);
    ///
    /// let report = server.run_batch(vec![
    ///     QueryRequest::new(0, QueryKind::Solve).on_graph("west"),
    ///     QueryRequest::new(1, QueryKind::Topk { k: 2 }).on_graph("east"),
    ///     QueryRequest::new(2, QueryKind::Frontier), // hash-routed
    /// ]);
    /// assert_eq!(report.events.len(), 3);
    /// assert!(report.events.iter().all(
    ///     |e| matches!(e, StreamEvent::Response(r) if r.termination.is_complete())
    /// ));
    /// # Ok::<(), mbb_serve::ServeError>(())
    /// ```
    pub fn run_batch(&self, requests: Vec<QueryRequest>) -> BatchReport {
        let slots: Mutex<Vec<Option<StreamEvent>>> = Mutex::new(vec![None; requests.len()]);
        let sink = |position: u64, event: StreamEvent| {
            if let Some(slot) = slots.lock().get_mut(position as usize) {
                *slot = Some(event);
            }
        };
        let stats = self.run_queue(&sink, |admission| {
            for (position, request) in requests.into_iter().enumerate() {
                self.admit(request, position as u64, admission, &sink);
            }
        });
        BatchReport {
            // Every admitted request retires with exactly one event, so
            // no slot is empty here.
            events: slots.into_inner().into_iter().flatten().collect(),
            stats,
        }
    }

    /// One serve run over a fresh admission queue: `feed` admits requests
    /// on this thread while the configured workers drain the queue into
    /// `sink`. Returns the run's stats once every admitted request has
    /// retired.
    fn run_queue(
        &self,
        sink: &(impl Fn(u64, StreamEvent) + Sync),
        feed: impl FnOnce(&Admission),
    ) -> ServeStats {
        let admission = self.new_admission();
        let workers = resolve_threads(self.config.workers);
        let alive = |_conn: u64| true;
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| worker_loop(&admission, sink, &alive));
            }
            feed(&admission);
            admission.close();
            // Scope exit joins the workers: they drain the queue first.
        });
        self.snapshot(&admission).stats
    }

    /// The admission queue a serve loop (stdin or socket) runs over.
    pub(crate) fn new_admission(&self) -> Admission {
        Admission::new(self.fleet.len(), &self.config)
    }

    /// The admission thread: parses lines, routes/validates/sheds, and
    /// handles control requests inline (control lines take effect in
    /// input order relative to the admissions around them).
    fn reader_loop<R: BufRead>(
        &self,
        input: R,
        admission: &Admission,
        sink: &(impl Fn(u64, StreamEvent) + Sync),
    ) {
        for (index, raw) in input.split(b'\n').enumerate() {
            let line_no = index + 1;
            // Only an I/O error ends the loop (EOF semantics; everything
            // admitted still completes). A line that is not UTF-8 is
            // decoded lossily, as the socket reader does, and fails to
            // parse like any other bad line.
            let Ok(raw) = raw else { break };
            self.process_line(
                &String::from_utf8_lossy(&raw),
                line_no,
                crate::mux::LOCAL_CONN,
                admission,
                sink,
                || {},
            );
        }
    }

    /// Handles one input line on behalf of connection `conn`: comments
    /// and blanks are skipped, parse failures become typed events,
    /// control verbs run inline, and requests are admitted.
    /// `on_request` runs for request lines *before* admission (and
    /// before any synchronous rejection/shed event) — the socket reader
    /// uses it to open the connection's outstanding-event bracket
    /// race-free.
    pub(crate) fn process_line(
        &self,
        line: &str,
        line_no: usize,
        conn: u64,
        admission: &Admission,
        sink: &(impl Fn(u64, StreamEvent) + Sync),
        on_request: impl FnOnce(),
    ) {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            return;
        }
        // Request id is not known until the line parses; the parse span
        // is keyed by connection alone (request 0).
        let parse_span = obs::span_for(obs::Stage::Parse, 0, conn);
        let parsed = parse_stream_line(trimmed, line_no);
        drop(parse_span);
        match parsed {
            Err(e) => {
                admission.note_parse_error();
                sink(
                    conn,
                    StreamEvent::ParseError {
                        line: line_no,
                        message: e.to_string(),
                    },
                );
            }
            Ok(StreamLine::Control(control)) => self.handle_control(control, conn, admission, sink),
            Ok(StreamLine::Request(request)) => {
                on_request();
                self.admit(request, conn, admission, sink)
            }
        }
    }

    fn admit(
        &self,
        request: QueryRequest,
        conn: u64,
        admission: &Admission,
        sink: &(impl Fn(u64, StreamEvent) + Sync),
    ) {
        let arrived = Instant::now();
        let shard = match self.fleet.route(&request) {
            Ok(shard) => shard,
            Err(e) => {
                admission.state.lock().rejected += 1;
                sink(
                    conn,
                    StreamEvent::Response(Box::new(rejected(&request, None, e.to_string()))),
                );
                return;
            }
        };
        // Binding happens here: the engine current at admission serves
        // this request, whatever reloads happen while it is queued.
        let engine = self.fleet.engine(shard);
        let shard_id = self.fleet.shards()[shard].id().to_string();
        if let Err(reason) = validate(engine.graph(), &request) {
            admission.state.lock().rejected += 1;
            sink(
                conn,
                StreamEvent::Response(Box::new(rejected(&request, Some(shard_id), reason))),
            );
            return;
        }
        // Admission-time shedding: a zero budget can never be met — the
        // request is dead on arrival and must not consume a queue slot.
        if request.deadline.is_some_and(|d| d.is_zero()) {
            let mut state = admission.state.lock();
            state.shed += 1;
            state.shards[shard].shed += 1;
            drop(state);
            sink(
                conn,
                StreamEvent::Shed {
                    id: request.id,
                    graph: Some(shard_id),
                    kind: request.kind.label(),
                    reason: "deadline budget exhausted on arrival".to_string(),
                },
            );
            return;
        }
        let deadline = request.deadline.map(|d| arrived + d);
        // The admission-wait span covers the backpressure block inside
        // `push` (plus the negligible enqueue itself).
        let wait_span = obs::span_for(obs::Stage::AdmissionWait, request.id, conn);
        admission.push(StreamJob {
            request,
            shard,
            shard_id,
            engine,
            deadline,
            admitted: arrived,
            seq: 0, // assigned under the queue lock
            conn,
        });
        drop(wait_span);
    }

    fn handle_control(
        &self,
        control: ControlRequest,
        conn: u64,
        admission: &Admission,
        sink: &(impl Fn(u64, StreamEvent) + Sync),
    ) {
        match control {
            ControlRequest::Stats => {
                let stats = self.snapshot(admission).stats;
                sink(conn, StreamEvent::Stats(stats));
            }
            ControlRequest::Metrics => {
                let report = self.snapshot(admission);
                sink(conn, StreamEvent::Metrics(Box::new(report)));
            }
            ControlRequest::Drain => {
                let completed = admission.drain();
                sink(conn, StreamEvent::Drained { completed });
            }
            ControlRequest::Reload { graph, source } => {
                let result = self
                    .fleet
                    .reload_shard_from_store(&graph, &self.store, &source)
                    .map(|(loaded, forked)| ReloadOutcome {
                        detail: loaded.describe(),
                        forked,
                    })
                    .map_err(|e| e.to_string());
                if let (Ok(_), Ok(shard)) = (&result, self.fleet.route_id(&graph)) {
                    admission.state.lock().shards[shard].reloads += 1;
                }
                sink(conn, StreamEvent::ReloadAck { graph, result });
            }
        }
    }

    /// The counters of a `stats` answer with the two latency histograms
    /// of a `metrics` answer, all read under one admission lock, so the
    /// histograms count exactly the completed requests.
    pub(crate) fn snapshot(&self, admission: &Admission) -> MetricsReport {
        let state = admission.state.lock();
        // Read under the state lock: `finish` records under it too.
        let queue_wait = admission.hist_queue_wait.snapshot();
        let service = admission.hist_service.snapshot();
        let per_shard: Vec<ShardServeStats> = self
            .fleet
            .shards()
            .iter()
            .zip(&state.shards)
            .map(|(shard, counts)| ShardServeStats {
                shard: shard.id().to_string(),
                served: counts.served,
                shed: counts.shed,
                search_nodes: counts.search_nodes,
                index_reuse_hits: counts.orders_reused,
                reloads: counts.reloads,
            })
            .collect();
        let stats = ServeStats {
            admitted: state.admitted,
            completed: state.completed,
            shed: state.shed,
            rejected: state.rejected,
            parse_errors: state.parse_errors,
            reloads: per_shard.iter().map(|s| s.reloads).sum(),
            disconnected: state.disconnected,
            connections: state.connections,
            active_conns: state.connections - state.closed_conns,
            disconnects: state.disconnects,
            queue_depth: state.depth,
            max_queue_depth: state.max_depth,
            total_queue_wait: Duration::from_nanos(queue_wait.sum),
            max_queue_wait: Duration::from_nanos(queue_wait.max),
            total_service: Duration::from_nanos(service.sum),
            index_reuse_hits: per_shard.iter().map(|s| s.index_reuse_hits).sum(),
            per_shard,
        };
        MetricsReport {
            stats,
            queue_wait,
            service,
            spans_dropped: obs::dropped_records(),
        }
    }
}

/// One worker: pop, shed-or-execute, finish — until closed-and-empty.
///
/// `#[doc(hidden)]` public so the `conc_models` tests can run the real
/// worker body on model threads.
#[doc(hidden)]
pub fn worker_loop(
    admission: &Admission,
    sink: &(impl Fn(u64, StreamEvent) + Sync),
    alive: &(impl Fn(u64) -> bool + Sync),
) {
    while let Some(job) = admission.pop() {
        let started = Instant::now();
        // A job whose originating connection died while it was queued
        // is cancelled, not executed: the response could never be
        // delivered, so the cycles would be pure waste. The typed
        // event still flows to the sink for accounting.
        if !alive(job.conn) {
            let conn = job.conn;
            let event = job.disconnect_event();
            sink(conn, event);
            admission.finish(Completion::Disconnected);
            continue;
        }
        // Dispatch-time shedding: the budget expired while queued. The
        // engine would only return an empty DeadlineExceeded shell, so
        // the service refuses the work outright — cheaper, and a typed
        // signal the client can react to (back off, re-submit).
        if job.deadline.is_some_and(|d| d <= started) {
            let shard = job.shard;
            sink(
                job.conn,
                StreamEvent::Shed {
                    id: job.request.id,
                    graph: Some(job.shard_id),
                    kind: job.request.kind.label(),
                    reason: "deadline budget exhausted while queued".to_string(),
                },
            );
            admission.finish(Completion::Shed { shard });
            continue;
        }
        let queue_wait = started.duration_since(job.admitted);
        // All spans this worker emits while the job runs — including the
        // solver-stage spans inside `execute_guarded` — carry the
        // request/connection ids via the thread-local context.
        let ctx = obs::context(job.request.id, job.conn);
        obs::record(obs::Stage::QueueWait, job.admitted, started);
        let (outcome, termination, stats) =
            execute_guarded(&job.engine, &job.request, job.deadline);
        let finished = Instant::now();
        obs::record(obs::Stage::Execute, started, finished);
        let response = QueryResponse {
            id: job.request.id,
            shard: Some(job.shard_id),
            kind: job.request.kind.label(),
            outcome,
            termination,
            queue_wait,
            service: finished.duration_since(started),
            stats,
        };
        let shard = job.shard;
        let conn = job.conn;
        let search_nodes = response.search_nodes();
        let orders_reused = response.stats.index.orders_reused;
        let service = response.service;
        // The context outlives the sink call so the encode span (taken
        // inside wire-encoding sinks) inherits the ids too.
        sink(conn, StreamEvent::Response(Box::new(response)));
        drop(ctx);
        admission.finish(Completion::Executed {
            shard,
            search_nodes,
            orders_reused,
            queue_wait,
            service,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::QueryKind;
    use mbb_bigraph::generators;

    fn job(shard: usize, id: u64, deadline: Option<Duration>, now: Instant) -> StreamJob {
        StreamJob {
            request: QueryRequest::new(id, QueryKind::Solve),
            shard,
            shard_id: format!("s{shard}"),
            engine: Arc::new(MbbEngine::new(generators::uniform_edges(
                4,
                4,
                8,
                shard as u64,
            ))),
            deadline: deadline.map(|d| now + d),
            admitted: now,
            seq: 0,
            conn: crate::mux::LOCAL_CONN,
        }
    }

    fn pop_ids(admission: &Admission, n: usize) -> Vec<u64> {
        (0..n)
            .map(|_| {
                let job = admission.pop().unwrap();
                admission.finish(Completion::Untracked);
                job.request.id
            })
            .collect()
    }

    #[test]
    fn queue_is_edf_with_fifo_ties_across_admissions() {
        let config = StreamConfig::default();
        let admission = Admission::new(1, &config);
        let now = Instant::now();
        admission.push(job(0, 1, None, now));
        admission.push(job(0, 2, Some(Duration::from_secs(30)), now));
        // Later arrival, tighter deadline: must overtake both.
        admission.push(job(0, 3, Some(Duration::from_secs(1)), now));
        admission.push(job(0, 4, None, now));
        assert_eq!(pop_ids(&admission, 4), vec![3, 2, 1, 4]);
    }

    #[test]
    fn deadline_soonest_pops_first() {
        // A batch spreads over shards, and each shard has its own heap:
        // the soonest deadline must still win across them, with
        // unbudgeted work last.
        let config = StreamConfig::default();
        let admission = Admission::new(3, &config);
        let now = Instant::now();
        admission.push(job(0, 0, None, now));
        admission.push(job(1, 1, Some(Duration::from_secs(5)), now));
        admission.push(job(2, 2, Some(Duration::from_secs(1)), now));
        assert_eq!(pop_ids(&admission, 3), vec![2, 1, 0]);
    }

    #[test]
    fn fairness_burst_caps_consecutive_pops_per_shard() {
        let config = StreamConfig {
            fairness_burst: 2,
            ..StreamConfig::default()
        };
        let admission = Admission::new(2, &config);
        let now = Instant::now();
        // Shard 0 floods with the tightest deadlines; shard 1 queues two
        // slack requests that pure EDF would starve until the end.
        for i in 0..6u64 {
            admission.push(job(0, i, Some(Duration::from_millis(10 + i)), now));
        }
        admission.push(job(1, 100, Some(Duration::from_secs(5)), now));
        admission.push(job(1, 101, Some(Duration::from_secs(6)), now));
        let order = pop_ids(&admission, 8);
        let first_tenant_1 = order.iter().position(|&id| id >= 100).unwrap();
        assert!(
            first_tenant_1 <= 2,
            "shard 1 must be served after at most fairness_burst=2 consecutive shard-0 pops: {order:?}"
        );
        // All eight still run, and shard 0's internal order stays EDF.
        let shard0: Vec<u64> = order.iter().copied().filter(|&id| id < 100).collect();
        assert_eq!(shard0, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn fairness_zero_disables_the_cap() {
        let config = StreamConfig {
            fairness_burst: 0,
            ..StreamConfig::default()
        };
        let admission = Admission::new(2, &config);
        let now = Instant::now();
        for i in 0..4u64 {
            admission.push(job(0, i, Some(Duration::from_millis(10 + i)), now));
        }
        admission.push(job(1, 100, Some(Duration::from_secs(5)), now));
        assert_eq!(pop_ids(&admission, 5), vec![0, 1, 2, 3, 100]);
    }

    #[test]
    fn server_serves_a_small_stream_end_to_end() {
        let mut fleet = ShardedFleet::new();
        fleet
            .add_shard("g", generators::uniform_edges(10, 10, 45, 3))
            .unwrap();
        let server = StreamServer::new(fleet, StreamConfig::default());
        let input = "\
{\"id\": 1, \"graph\": \"g\", \"kind\": \"solve\"}\n\
# a comment line\n\
{\"id\": 2, \"graph\": \"g\", \"kind\": \"topk\", \"k\": 2}\n\
not json\n\
{\"id\": 3, \"graph\": \"nowhere\", \"kind\": \"solve\"}\n\
{\"control\": \"drain\"}\n\
{\"control\": \"stats\"}\n";
        let events = Mutex::new(Vec::new());
        let stats = server.serve_with(input.as_bytes(), |e| events.lock().push(e));
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.parse_errors, 1);
        assert_eq!(stats.shed, 0);
        assert_eq!(stats.queue_depth, 0);
        let events = events.into_inner();
        assert!(events
            .iter()
            .any(|e| matches!(e, StreamEvent::Drained { completed: 2 })));
        assert!(events.iter().any(|e| matches!(e, StreamEvent::Stats(_))));
        assert!(events
            .iter()
            .any(|e| matches!(e, StreamEvent::ParseError { line: 4, .. })));
    }

    #[test]
    fn cancel_conn_removes_only_that_connections_queued_jobs() {
        let config = StreamConfig::default();
        let admission = Admission::new(2, &config);
        let now = Instant::now();
        admission.push(job(0, 1, None, now).with_conn(7));
        admission.push(job(1, 2, None, now).with_conn(7));
        admission.push(job(0, 3, None, now).with_conn(8));
        admission.push(job(1, 4, Some(Duration::from_secs(1)), now).with_conn(7));
        let cancelled = admission.cancel_conn(7);
        let ids: Vec<u64> = cancelled.iter().map(|j| j.request.id).collect();
        assert_eq!(ids, vec![1, 2, 4], "cancelled in admission order");
        // The survivor still pops, EDF/queue accounting intact.
        assert_eq!(pop_ids(&admission, 1), vec![3]);
        let state = admission.state.lock();
        assert_eq!(state.disconnected, 3);
        assert_eq!(state.depth, 0);
    }

    #[test]
    fn cancel_conn_wakes_drain_waiters() {
        let config = StreamConfig::default();
        let admission = Admission::new(1, &config);
        let now = Instant::now();
        admission.push(job(0, 1, None, now).with_conn(5));
        std::thread::scope(|scope| {
            let drainer = scope.spawn(|| admission.drain());
            // Give the drainer a moment to block on the idle condvar.
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(admission.cancel_conn(5).len(), 1);
            assert_eq!(drainer.join().unwrap(), 1, "disconnected counts as retired");
        });
    }

    #[test]
    fn worker_skips_jobs_whose_connection_died() {
        let config = StreamConfig::default();
        let admission = Admission::new(1, &config);
        let now = Instant::now();
        admission.push(job(0, 1, None, now).with_conn(3));
        admission.push(job(0, 2, None, now).with_conn(4));
        admission.close();
        let events = Mutex::new(Vec::new());
        let sink = |conn: u64, event: StreamEvent| events.lock().push((conn, event));
        // Connection 3 is dead; 4 is alive.
        worker_loop(&admission, &sink, &|conn| conn != 3);
        let events = events.into_inner();
        assert_eq!(events.len(), 2);
        assert!(events
            .iter()
            .any(|(conn, e)| *conn == 3 && matches!(e, StreamEvent::Disconnected { id: 1, .. })));
        assert!(events
            .iter()
            .any(|(conn, e)| *conn == 4 && matches!(e, StreamEvent::Response(r) if r.id == 2)));
        let state = admission.state.lock();
        assert_eq!(state.disconnected, 1);
        assert_eq!(state.completed, 1);
    }

    #[test]
    fn bounded_queue_applies_backpressure_without_losing_requests() {
        let mut fleet = ShardedFleet::new();
        fleet
            .add_shard("g", generators::uniform_edges(10, 10, 45, 4))
            .unwrap();
        let server = StreamServer::new(
            fleet,
            StreamConfig {
                queue_depth: 1,
                ..StreamConfig::default()
            },
        );
        let input: String = (1..=6)
            .map(|i| format!("{{\"id\": {i}, \"graph\": \"g\", \"kind\": \"solve\"}}\n"))
            .collect();
        let responses = Mutex::new(0u64);
        let stats = server.serve_with(input.as_bytes(), |e| {
            if matches!(e, StreamEvent::Response(_)) {
                *responses.lock() += 1;
            }
        });
        assert_eq!(stats.completed, 6);
        assert_eq!(*responses.lock(), 6);
        assert!(stats.max_queue_depth <= 1, "{}", stats.max_queue_depth);
    }

    #[test]
    fn non_utf8_line_is_a_parse_error_not_end_of_input() {
        let mut fleet = ShardedFleet::new();
        fleet
            .add_shard("g", generators::uniform_edges(10, 10, 45, 3))
            .unwrap();
        let server = StreamServer::new(fleet, StreamConfig::default());
        let mut input = b"{\"id\": 1, \"graph\": \"g\", \"kind\": \"solve\"}\n".to_vec();
        input.extend_from_slice(b"\xff\xfe bad\n");
        input.extend_from_slice(b"{\"id\": 2, \"graph\": \"g\", \"kind\": \"solve\"}\n");
        input.extend_from_slice(b"{\"control\": \"drain\"}\n");
        let events = Mutex::new(Vec::new());
        let stats = server.serve_with(input.as_slice(), |e| events.lock().push(e));
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.parse_errors, 1);
        let events = events.into_inner();
        assert!(events
            .iter()
            .any(|e| matches!(e, StreamEvent::ParseError { line: 2, .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, StreamEvent::Response(r) if r.id == 2)));
        assert!(events
            .iter()
            .any(|e| matches!(e, StreamEvent::Drained { completed: 2 })));
    }

    // -----------------------------------------------------------------
    // run_batch.

    fn batch_server(fleet: ShardedFleet, workers: usize) -> StreamServer {
        StreamServer::new(
            fleet,
            StreamConfig {
                workers,
                ..StreamConfig::default()
            },
        )
    }

    fn small_fleet() -> ShardedFleet {
        let mut fleet = ShardedFleet::new();
        fleet
            .add_shard("a", generators::uniform_edges(12, 12, 55, 1))
            .unwrap()
            .add_shard("b", generators::uniform_edges(10, 10, 45, 2))
            .unwrap();
        fleet
    }

    /// The response in a batch slot; any other event fails the test.
    fn response(event: &StreamEvent) -> &QueryResponse {
        match event {
            StreamEvent::Response(r) => r,
            other => panic!("expected a response, got {other:?}"),
        }
    }

    #[test]
    fn responses_come_back_in_request_order() {
        let requests: Vec<QueryRequest> = (0..10)
            .map(|i| {
                QueryRequest::new(100 + i, QueryKind::Solve).on_graph(if i % 2 == 0 {
                    "a"
                } else {
                    "b"
                })
            })
            .collect();
        let report = batch_server(small_fleet(), 2).run_batch(requests);
        let ids: Vec<u64> = report.events.iter().map(|e| response(e).id).collect();
        assert_eq!(ids, (100..110).collect::<Vec<u64>>());
        assert_eq!(report.stats.admitted, 10);
        assert_eq!(report.stats.completed, 10);
        assert_eq!(report.stats.rejected, 0);
    }

    #[test]
    fn invalid_requests_are_rejected_not_executed() {
        use crate::request::{MAX_REQUEST_THREADS, MAX_REQUEST_TOPK};
        use mbb_bigraph::graph::Vertex;
        let report = batch_server(small_fleet(), 1).run_batch(vec![
            QueryRequest::new(0, QueryKind::Solve).on_graph("nowhere"),
            QueryRequest::new(1, QueryKind::Topk { k: 0 }).on_graph("a"),
            QueryRequest::new(
                2,
                QueryKind::Anchored {
                    vertex: Vertex::left(99),
                },
            )
            .on_graph("a"),
            QueryRequest::new(3, QueryKind::AnchoredEdge { u: 99, v: 0 }).on_graph("a"),
            QueryRequest::new(4, QueryKind::Weighted { weights: vec![1] }).on_graph("a"),
            QueryRequest::new(5, QueryKind::Solve)
                .on_graph("a")
                .with_threads(MAX_REQUEST_THREADS + 1),
            QueryRequest::new(
                6,
                QueryKind::Topk {
                    k: MAX_REQUEST_TOPK + 1,
                },
            )
            .on_graph("a"),
            QueryRequest::new(7, QueryKind::Solve).on_graph("a"),
        ]);
        assert_eq!(report.stats.rejected, 7);
        assert_eq!(report.stats.admitted, 1);
        let responses: Vec<&QueryResponse> = report.events.iter().map(response).collect();
        for r in &responses[..7] {
            assert!(r.outcome.is_rejected(), "id {}", r.id);
        }
        assert!(!responses[7].outcome.is_rejected());
        // Routing failures carry no shard; validation failures name the
        // shard that would have served the request.
        assert_eq!(responses[0].shard, None);
        assert_eq!(responses[1].shard.as_deref(), Some("a"));
        // Rejected requests burn no engine time.
        assert_eq!(responses[0].service, Duration::ZERO);
    }

    #[test]
    fn stats_latency_totals_match_the_responses() {
        let requests: Vec<QueryRequest> = (0..8)
            .map(|i| QueryRequest::new(i, QueryKind::Solve).on_graph(["a", "b"][i as usize % 2]))
            .collect();
        let report = batch_server(small_fleet(), 2).run_batch(requests);
        let responses: Vec<&QueryResponse> = report.events.iter().map(response).collect();
        let service: Duration = responses.iter().map(|r| r.service).sum();
        let max_wait = responses.iter().map(|r| r.queue_wait).max().unwrap();
        assert_eq!(report.stats.total_service, service);
        assert_eq!(report.stats.max_queue_wait, max_wait);
    }

    /// A `metrics` answer taken while workers finish requests is one
    /// snapshot: each histogram counts exactly the completed requests and
    /// sums to the total beside it.
    #[test]
    fn metrics_answer_taken_mid_run_agrees_with_itself() {
        let server = batch_server(small_fleet(), 2);
        let admission = server.new_admission();
        let reports = Mutex::new(Vec::new());
        let sink = |_conn: u64, event: StreamEvent| {
            if let StreamEvent::Metrics(report) = event {
                reports.lock().push(*report);
            }
        };
        let now = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| worker_loop(&admission, &sink, &|_conn: u64| true));
            }
            scope.spawn(|| {
                for id in 0..300u64 {
                    admission.push(job((id % 2) as usize, id, None, now));
                }
                admission.close();
            });
            for _ in 0..300 {
                server.handle_control(ControlRequest::Metrics, 0, &admission, &sink);
            }
        });
        let reports = reports.into_inner();
        assert_eq!(reports.len(), 300);
        for report in &reports {
            let stats = &report.stats;
            assert_eq!(report.service.count, stats.completed, "{stats:?}");
            assert_eq!(report.queue_wait.count, stats.completed, "{stats:?}");
            assert_eq!(report.service.sum, stats.total_service.as_nanos() as u64);
            assert_eq!(
                report.queue_wait.sum,
                stats.total_queue_wait.as_nanos() as u64
            );
        }
    }

    #[test]
    fn empty_batch_returns_immediately() {
        let report = batch_server(small_fleet(), 1).run_batch(Vec::new());
        assert!(report.events.is_empty());
        assert_eq!(report.stats.admitted, 0);
        assert_eq!(report.stats.max_queue_wait, Duration::ZERO);
    }

    #[test]
    fn server_survives_multiple_batches() {
        // A graph whose solve reaches stage 2, so the first batch builds
        // the session order for the second to reuse.
        let mut fleet = ShardedFleet::new();
        fleet
            .add_shard("a", generators::uniform_edges(15, 15, 70, 8))
            .unwrap();
        let server = batch_server(fleet, 2);
        let first = server.run_batch(vec![QueryRequest::new(0, QueryKind::Solve).on_graph("a")]);
        let second = server.run_batch(vec![QueryRequest::new(1, QueryKind::Solve).on_graph("a")]);
        assert_eq!(
            response(&first.events[0]).outcome.headline_size(),
            response(&second.events[0]).outcome.headline_size()
        );
        // Each batch counts only its own requests: the first built the
        // order, the second reused it.
        assert_eq!(first.stats.index_reuse_hits, 0);
        assert_eq!(second.stats.index_reuse_hits, 1);
    }

    #[test]
    fn cancelled_request_reports_cancelled() {
        use mbb_core::budget::{CancelToken, Termination};
        // Dense enough that stage 1 cannot prove optimality, so the
        // budget check after it observes the already-fired token. (On
        // trivial graphs a cancelled solve may legitimately finish
        // `Complete` before any check — anytime semantics.)
        let mut fleet = ShardedFleet::new();
        fleet
            .add_shard("dense", generators::dense_uniform(40, 40, 0.8, 3))
            .unwrap();
        let token = CancelToken::new();
        token.cancel();
        let report = batch_server(fleet, 1).run_batch(vec![QueryRequest::new(0, QueryKind::Solve)
            .on_graph("dense")
            .with_cancel(token)]);
        assert_eq!(
            response(&report.events[0]).termination,
            Termination::Cancelled
        );
    }
}

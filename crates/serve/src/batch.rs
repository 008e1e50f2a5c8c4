//! The batch executor: a persistent worker pool running typed query
//! batches over a [`ShardedFleet`] with deadline-soonest-first
//! scheduling.
//!
//! # Scheduling model
//!
//! One global priority queue feeds all workers. A request's priority is
//! its **absolute deadline** (batch submission instant + its
//! [`QueryRequest::deadline`]): the queue pops the soonest deadline
//! first, ties broken by submission order, and requests without a
//! deadline run after every deadlined one, in submission order. This is
//! earliest-deadline-first, the fairness policy that minimises deadline
//! misses when queries are short relative to their budgets; because the
//! deadline clock starts at submission, queue wait counts against the
//! budget and an overloaded batch degrades to best-so-far answers
//! ([`Termination::DeadlineExceeded`]) instead of unbounded latency.
//!
//! # What a batch amortises
//!
//! All requests routed to one shard share that shard's engine session:
//! the first query pays for the cached indices (peel order, bicore
//! decomposition, two-hop index) and every later one reuses them. The
//! [`BatchReport`] surfaces exactly that — per-shard index-reuse hits,
//! queue-wait and search-node totals — so a service can see the
//! amortisation it is getting.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mbb_bigraph::graph::Side;
use mbb_core::budget::Termination;
use mbb_core::engine::MbbEngine;
use mbb_core::enumerate::EnumConfig;
use mbb_core::resolve_threads;
use mbb_core::stats::SolveStats;

use crate::fleet::ShardedFleet;
use crate::request::{QueryKind, QueryOutcome, QueryRequest, QueryResponse};

// ---------------------------------------------------------------------
// Worker pool plumbing.

/// A scheduled unit of work: one routed request plus its batch handle.
struct Job {
    /// Absolute deadline (= priority; `None` schedules last).
    deadline: Option<Instant>,
    /// Position in the submitted batch (response slot + FIFO tie-break).
    seq: usize,
    request: QueryRequest,
    shard: usize,
    submitted: Instant,
    batch: Arc<BatchState>,
}

impl PartialEq for Job {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Job {}

impl PartialOrd for Job {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Job {
    /// Max-heap order: "greater" = scheduled sooner. Soonest deadline
    /// wins; `None` deadlines run after every armed one; ties fall back
    /// to submission order.
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.deadline, other.deadline) {
            (Some(a), Some(b)) => b.cmp(&a),
            (Some(_), None) => Ordering::Greater,
            (None, Some(_)) => Ordering::Less,
            (None, None) => Ordering::Equal,
        }
        .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The queue shared by the workers.
struct PoolShared {
    queue: Mutex<PoolQueue>,
    available: Condvar,
}

struct PoolQueue {
    jobs: BinaryHeap<Job>,
    shutdown: bool,
}

/// Per-batch completion state: one response slot per request plus a
/// countdown the submitting thread waits on.
struct BatchState {
    slots: Mutex<BatchSlots>,
    done: Condvar,
}

struct BatchSlots {
    responses: Vec<Option<QueryResponse>>,
    remaining: usize,
}

impl BatchState {
    fn new(n: usize) -> BatchState {
        BatchState {
            slots: Mutex::new(BatchSlots {
                responses: (0..n).map(|_| None).collect(),
                remaining: n,
            }),
            done: Condvar::new(),
        }
    }

    fn complete(&self, seq: usize, response: QueryResponse) {
        let mut slots = self.slots.lock().unwrap();
        debug_assert!(slots.responses[seq].is_none(), "slot {seq} filled twice");
        slots.responses[seq] = Some(response);
        slots.remaining -= 1;
        if slots.remaining == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) -> Vec<QueryResponse> {
        let mut slots = self.slots.lock().unwrap();
        while slots.remaining > 0 {
            slots = self.done.wait(slots).unwrap();
        }
        slots
            .responses
            .drain(..)
            .map(|slot| slot.expect("all slots filled when remaining == 0"))
            .collect()
    }
}

// ---------------------------------------------------------------------
// The executor.

/// A persistent worker pool executing [`QueryRequest`] batches against a
/// [`ShardedFleet`]. Workers are spawned once at construction and reused
/// by every [`run_batch`](Self::run_batch) call; dropping the executor
/// drains outstanding work and joins them.
///
/// ```
/// use mbb_serve::{BatchExecutor, QueryKind, QueryRequest, ShardedFleet};
///
/// let mut fleet = ShardedFleet::new();
/// fleet
///     .add_shard("west", mbb_bigraph::generators::uniform_edges(15, 15, 70, 3))?
///     .add_shard("east", mbb_bigraph::generators::uniform_edges(15, 15, 70, 4))?;
/// let executor = BatchExecutor::new(fleet, 2);
///
/// let report = executor.run_batch(vec![
///     QueryRequest::new(0, QueryKind::Solve).on_graph("west"),
///     QueryRequest::new(1, QueryKind::Topk { k: 2 }).on_graph("east"),
///     QueryRequest::new(2, QueryKind::Frontier), // hash-routed
/// ]);
/// assert_eq!(report.responses.len(), 3);
/// assert!(report.responses.iter().all(|r| r.termination.is_complete()));
/// # Ok::<(), mbb_serve::ServeError>(())
/// ```
#[derive(Debug)]
pub struct BatchExecutor {
    fleet: Arc<ShardedFleet>,
    shared: Arc<PoolShared>,
    workers: usize,
    handles: Vec<JoinHandle<()>>,
}

impl BatchExecutor {
    /// Spawns a pool of `workers` threads over `fleet` (`0` = one per
    /// available core, the workspace-wide thread-knob convention).
    pub fn new(fleet: ShardedFleet, workers: usize) -> BatchExecutor {
        let fleet = Arc::new(fleet);
        let workers = resolve_threads(workers);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue {
                jobs: BinaryHeap::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|_| {
                let fleet = Arc::clone(&fleet);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&fleet, &shared))
            })
            .collect();
        BatchExecutor {
            fleet,
            shared,
            workers,
            handles,
        }
    }

    /// The fleet this executor schedules over.
    pub fn fleet(&self) -> &ShardedFleet {
        &self.fleet
    }

    /// The resolved worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs one batch to completion: routes and validates every request,
    /// enqueues the valid ones deadline-soonest first, and blocks until
    /// all responses are in. Responses come back **in request order**
    /// regardless of execution order; requests that fail routing or
    /// validation come back as [`QueryOutcome::Rejected`] without
    /// touching an engine.
    ///
    /// The report's index-reuse and node counters are diffs of the fleet
    /// counters across this call, so they attribute correctly only when
    /// batches on one fleet run one at a time (concurrent `run_batch`
    /// calls are safe — responses never mix — but those counters would
    /// blend).
    pub fn run_batch(&self, requests: Vec<QueryRequest>) -> BatchReport {
        let submitted = Instant::now();
        let before = self.fleet.index_stats();
        let batch = Arc::new(BatchState::new(requests.len()));
        let total = requests.len();
        {
            let mut queue = self.shared.queue.lock().unwrap();
            for (seq, request) in requests.into_iter().enumerate() {
                let shard = match self.fleet.route(&request) {
                    Ok(shard) => shard,
                    // Routing itself failed: no shard to attribute to.
                    Err(e) => {
                        batch.complete(seq, rejected(&request, None, e.to_string()));
                        continue;
                    }
                };
                if let Err(reason) = validate(self.fleet.engine(shard).graph(), &request) {
                    let shard_id = self.fleet.shards()[shard].id().to_string();
                    batch.complete(seq, rejected(&request, Some(shard_id), reason));
                    continue;
                }
                queue.jobs.push(Job {
                    deadline: request.deadline.map(|d| submitted + d),
                    seq,
                    request,
                    shard,
                    submitted,
                    batch: Arc::clone(&batch),
                });
            }
        }
        self.shared.available.notify_all();
        let responses = batch.wait();
        BatchReport::assemble(&self.fleet, responses, total, before, submitted.elapsed())
    }
}

impl Drop for BatchExecutor {
    fn drop(&mut self) {
        self.shared.queue.lock().unwrap().shutdown = true;
        self.shared.available.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(fleet: &ShardedFleet, shared: &PoolShared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = queue.jobs.pop() {
                    break job;
                }
                if queue.shutdown {
                    return;
                }
                queue = shared.available.wait(queue).unwrap();
            }
        };
        run_job(fleet, job);
    }
}

/// A routed request may not ask for more worker threads than this. The
/// engine takes non-zero thread counts literally (`0` = one per core is
/// fine), so an unchecked wire value could ask a serving endpoint to
/// spawn millions of OS threads.
pub const MAX_REQUEST_THREADS: usize = 256;

/// A `topk` request may not ask for more than this many results. The
/// ranker pre-allocates a heap of `k + 1` entries, so an unchecked wire
/// value would turn one request line into a multi-gigabyte allocation
/// (and allocation failure aborts, which `catch_unwind` cannot contain).
pub const MAX_REQUEST_TOPK: usize = 100_000;

/// The parameter checks that would otherwise panic inside the engine
/// (anchors out of range, mismatched weight vectors) or abuse the host
/// (absurd thread counts, allocation-sized `k`). Shared with the
/// resident stream loop, which applies the same admission validation.
pub(crate) fn validate(
    graph: &mbb_bigraph::graph::BipartiteGraph,
    request: &QueryRequest,
) -> Result<(), String> {
    if request.threads.is_some_and(|t| t > MAX_REQUEST_THREADS) {
        return Err(format!(
            "threads: at most {MAX_REQUEST_THREADS} per request (0 = one per core)"
        ));
    }
    match &request.kind {
        QueryKind::Topk { k } if *k == 0 => Err("topk: k must be positive".into()),
        QueryKind::Topk { k } if *k > MAX_REQUEST_TOPK => {
            Err(format!("topk: k at most {MAX_REQUEST_TOPK} per request"))
        }
        QueryKind::Anchored { vertex } => {
            let bound = match vertex.side {
                Side::Left => graph.num_left(),
                Side::Right => graph.num_right(),
            };
            if vertex.index as usize >= bound {
                return Err(format!(
                    "anchored: vertex index {} out of range (side has {bound})",
                    vertex.index
                ));
            }
            Ok(())
        }
        QueryKind::AnchoredEdge { u, v }
            if *u as usize >= graph.num_left() || *v as usize >= graph.num_right() =>
        {
            Err(format!(
                "anchored_edge: ({u}, {v}) out of range for {}x{} graph",
                graph.num_left(),
                graph.num_right()
            ))
        }
        QueryKind::Weighted { weights } if weights.len() != graph.num_vertices() => Err(format!(
            "weighted: {} weights for {} vertices",
            weights.len(),
            graph.num_vertices()
        )),
        _ => Ok(()),
    }
}

/// `shard` is the routed shard's id for validation failures, `None`
/// when routing itself failed (matching `QueryResponse::shard`'s
/// contract — never the unroutable graph id the request named).
pub(crate) fn rejected(
    request: &QueryRequest,
    shard: Option<String>,
    reason: String,
) -> QueryResponse {
    QueryResponse {
        id: request.id,
        shard,
        kind: request.kind.label(),
        outcome: QueryOutcome::Rejected { reason },
        termination: Termination::Complete,
        queue_wait: Duration::ZERO,
        service: Duration::ZERO,
        stats: SolveStats::default(),
    }
}

fn run_job(fleet: &ShardedFleet, job: Job) {
    let started = Instant::now();
    let queue_wait = started.duration_since(job.submitted);
    let engine = fleet.engine(job.shard);
    let shard_id = fleet.shards()[job.shard].id().to_string();
    let request = &job.request;

    let (outcome, termination, stats) = execute_guarded(&engine, request, job.deadline);
    job.batch.complete(
        job.seq,
        QueryResponse {
            id: request.id,
            shard: Some(shard_id),
            kind: request.kind.label(),
            outcome,
            termination,
            queue_wait,
            service: started.elapsed(),
            stats,
        },
    );
}

/// [`execute`] behind a panic guard: a panicking query must not wedge
/// the batch (or kill a resident server's worker) — it is reported as a
/// rejection and the worker keeps draining the queue. Shared by the
/// batch executor and the resident stream loop.
pub(crate) fn execute_guarded(
    engine: &MbbEngine,
    request: &QueryRequest,
    deadline: Option<Instant>,
) -> (QueryOutcome, Termination, SolveStats) {
    match catch_unwind(AssertUnwindSafe(|| execute(engine, request, deadline))) {
        Ok(result) => result,
        Err(panic) => {
            let reason = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "query panicked".to_string());
            (
                QueryOutcome::Rejected {
                    reason: format!("query panicked: {reason}"),
                },
                Termination::Complete,
                SolveStats::default(),
            )
        }
    }
}

/// Dispatches one request on one engine session.
fn execute(
    engine: &MbbEngine,
    request: &QueryRequest,
    deadline: Option<Instant>,
) -> (QueryOutcome, Termination, SolveStats) {
    let builder = || {
        let mut q = engine.query();
        if let Some(at) = deadline {
            q = q.deadline_at(at);
        }
        if let Some(threads) = request.threads {
            q = q.threads(threads);
        }
        if let Some(token) = &request.cancel {
            q = q.cancel_token(token.clone());
        }
        q
    };
    match &request.kind {
        QueryKind::Solve => {
            let r = builder().solve();
            (QueryOutcome::Solve(r.value), r.termination, r.stats)
        }
        QueryKind::Topk { k } => {
            let r = builder().topk(*k);
            (QueryOutcome::Topk(r.value), r.termination, r.stats)
        }
        QueryKind::Anchored { vertex } => {
            let r = builder().anchored(*vertex);
            (QueryOutcome::Anchored(r.value), r.termination, r.stats)
        }
        QueryKind::AnchoredEdge { u, v } => {
            let r = builder().anchored_edge(*u, *v);
            (QueryOutcome::AnchoredEdge(r.value), r.termination, r.stats)
        }
        QueryKind::Weighted { weights } => {
            let r = builder().weighted(weights);
            (QueryOutcome::Weighted(r.value), r.termination, r.stats)
        }
        QueryKind::Meb => {
            let r = builder().meb();
            (QueryOutcome::Meb(r.value), r.termination, r.stats)
        }
        QueryKind::Frontier => {
            let r = builder().frontier();
            (QueryOutcome::Frontier(r.value), r.termination, r.stats)
        }
        QueryKind::SizeConstrained { a, b } => {
            let r = builder().size_constrained(*a, *b);
            (
                QueryOutcome::SizeConstrained(r.value),
                r.termination,
                r.stats,
            )
        }
        QueryKind::Enumerate {
            min_left,
            min_right,
            max_results,
        } => {
            let config = EnumConfig {
                min_left: *min_left,
                min_right: *min_right,
                max_results: *max_results,
                budget: None,
            };
            let r = builder().enumerate(config);
            (QueryOutcome::Enumerate(r.value), r.termination, r.stats)
        }
    }
}

// ---------------------------------------------------------------------
// The consolidated report.

/// Per-shard slice of a [`BatchReport`].
#[derive(Debug, Clone)]
pub struct ShardBatchStats {
    /// The shard's graph id.
    pub shard: String,
    /// Requests this shard served in the batch.
    pub requests: usize,
    /// Search nodes explored by those requests.
    pub search_nodes: u64,
    /// Cached-index reuse hits (order + bicore + two-hop) this batch
    /// scored on this shard's engine session.
    pub index_reuse_hits: u64,
}

/// Fleet-level aggregates of one batch.
#[derive(Debug, Clone)]
pub struct BatchStats {
    /// Requests submitted.
    pub requests: usize,
    /// Requests rejected before execution (routing/validation).
    pub rejected: usize,
    /// Wall-clock time from submission to the last response.
    pub wall_clock: Duration,
    /// Sum of per-request queue waits.
    pub total_queue_wait: Duration,
    /// The worst single queue wait.
    pub max_queue_wait: Duration,
    /// Sum of per-request service times (> `wall_clock` means the pool
    /// actually overlapped work).
    pub total_service: Duration,
    /// Cached-index reuse hits across all shards (see
    /// [`ShardBatchStats::index_reuse_hits`]).
    pub index_reuse_hits: u64,
    /// Per-shard breakdown, in fleet shard order.
    pub per_shard: Vec<ShardBatchStats>,
}

/// Everything [`BatchExecutor::run_batch`] returns: per-request
/// [`QueryResponse`]s in request order plus the fleet-level
/// [`BatchStats`].
///
/// ```
/// use mbb_serve::{BatchExecutor, QueryKind, QueryRequest, ShardedFleet};
///
/// let mut fleet = ShardedFleet::new();
/// fleet.add_shard("only", mbb_bigraph::generators::uniform_edges(15, 15, 70, 8))?;
/// let executor = BatchExecutor::new(fleet, 1);
/// let report = executor.run_batch(vec![
///     QueryRequest::new(0, QueryKind::Solve).on_graph("only"),
///     QueryRequest::new(1, QueryKind::Solve).on_graph("only"),
/// ]);
/// // Both solves reach stage 2, where the first builds the session's
/// // order and the second reuses it: that is the amortisation a batch
/// // buys, and the report shows it.
/// assert!(report.stats.index_reuse_hits >= 1);
/// assert_eq!(report.stats.per_shard[0].requests, 2);
/// assert_eq!(report.stats.rejected, 0);
/// # Ok::<(), mbb_serve::ServeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// One response per request, in request order.
    pub responses: Vec<QueryResponse>,
    /// Fleet-level aggregates.
    pub stats: BatchStats,
}

impl BatchReport {
    fn assemble(
        fleet: &ShardedFleet,
        responses: Vec<QueryResponse>,
        requests: usize,
        before: Vec<mbb_core::IndexStats>,
        wall_clock: Duration,
    ) -> BatchReport {
        let after = fleet.index_stats();
        // One pass over the responses, accumulating per shard index
        // (shard ids are unique, so the id → index map is exact).
        let shard_index: std::collections::HashMap<&str, usize> = fleet
            .shards()
            .iter()
            .enumerate()
            .map(|(i, s)| (s.id(), i))
            .collect();
        let mut served = vec![(0usize, 0u64); fleet.len()];
        for response in responses.iter().filter(|r| !r.outcome.is_rejected()) {
            let index = response
                .shard
                .as_deref()
                .and_then(|id| shard_index.get(id))
                .expect("executed responses carry a fleet shard id");
            served[*index].0 += 1;
            served[*index].1 += response.search_nodes();
        }
        let per_shard: Vec<ShardBatchStats> = fleet
            .shards()
            .iter()
            .zip(before.iter().zip(&after))
            .zip(&served)
            .map(|((shard, (b, a)), &(requests, search_nodes))| {
                let reuse = |b: u64, a: u64| a.saturating_sub(b);
                ShardBatchStats {
                    shard: shard.id().to_string(),
                    requests,
                    search_nodes,
                    index_reuse_hits: reuse(b.orders_reused, a.orders_reused)
                        + reuse(b.bicores_reused, a.bicores_reused)
                        + reuse(b.two_hops_reused, a.two_hops_reused),
                }
            })
            .collect();
        let stats = BatchStats {
            requests,
            rejected: responses.iter().filter(|r| r.outcome.is_rejected()).count(),
            wall_clock,
            total_queue_wait: responses.iter().map(|r| r.queue_wait).sum(),
            max_queue_wait: responses
                .iter()
                .map(|r| r.queue_wait)
                .max()
                .unwrap_or(Duration::ZERO),
            total_service: responses.iter().map(|r| r.service).sum(),
            index_reuse_hits: per_shard.iter().map(|s| s.index_reuse_hits).sum(),
            per_shard,
        };
        BatchReport { responses, stats }
    }
}

impl std::fmt::Debug for PoolShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolShared").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbb_bigraph::generators;
    use mbb_bigraph::graph::Vertex;
    use mbb_core::budget::CancelToken;

    fn small_fleet() -> ShardedFleet {
        let mut fleet = ShardedFleet::new();
        fleet
            .add_shard("a", generators::uniform_edges(12, 12, 55, 1))
            .unwrap()
            .add_shard("b", generators::uniform_edges(10, 10, 45, 2))
            .unwrap();
        fleet
    }

    #[test]
    fn responses_come_back_in_request_order() {
        let executor = BatchExecutor::new(small_fleet(), 2);
        let requests: Vec<QueryRequest> = (0..10)
            .map(|i| {
                QueryRequest::new(100 + i, QueryKind::Solve).on_graph(if i % 2 == 0 {
                    "a"
                } else {
                    "b"
                })
            })
            .collect();
        let report = executor.run_batch(requests);
        let ids: Vec<u64> = report.responses.iter().map(|r| r.id).collect();
        assert_eq!(ids, (100..110).collect::<Vec<u64>>());
        assert_eq!(report.stats.requests, 10);
        assert_eq!(report.stats.rejected, 0);
    }

    #[test]
    fn deadline_soonest_pops_first() {
        // Pure heap-order test: no workers involved.
        let now = Instant::now();
        let batch = Arc::new(BatchState::new(3));
        let job = |seq: usize, deadline: Option<Duration>| Job {
            deadline: deadline.map(|d| now + d),
            seq,
            request: QueryRequest::new(seq as u64, QueryKind::Solve),
            shard: 0,
            submitted: now,
            batch: Arc::clone(&batch),
        };
        let mut heap = BinaryHeap::new();
        heap.push(job(0, None));
        heap.push(job(1, Some(Duration::from_secs(5))));
        heap.push(job(2, Some(Duration::from_secs(1))));
        assert_eq!(heap.pop().unwrap().seq, 2);
        assert_eq!(heap.pop().unwrap().seq, 1);
        assert_eq!(heap.pop().unwrap().seq, 0);
    }

    #[test]
    fn invalid_requests_are_rejected_not_executed() {
        let executor = BatchExecutor::new(small_fleet(), 1);
        let report = executor.run_batch(vec![
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
        for r in &report.responses[..7] {
            assert!(r.outcome.is_rejected(), "id {}", r.id);
        }
        assert!(!report.responses[7].outcome.is_rejected());
        // Routing failures carry no shard; validation failures name the
        // shard that would have served the request.
        assert_eq!(report.responses[0].shard, None);
        assert_eq!(report.responses[1].shard.as_deref(), Some("a"));
        // Rejected requests burn no engine time.
        assert_eq!(report.responses[0].service, Duration::ZERO);
    }

    #[test]
    fn empty_batch_returns_immediately() {
        let executor = BatchExecutor::new(small_fleet(), 1);
        let report = executor.run_batch(Vec::new());
        assert!(report.responses.is_empty());
        assert_eq!(report.stats.requests, 0);
        assert_eq!(report.stats.max_queue_wait, Duration::ZERO);
    }

    #[test]
    fn executor_survives_multiple_batches() {
        // A graph whose solve reaches stage 2, so the first batch builds
        // the session order for the second to reuse.
        let mut fleet = ShardedFleet::new();
        fleet
            .add_shard("a", generators::uniform_edges(15, 15, 70, 8))
            .unwrap();
        let executor = BatchExecutor::new(fleet, 2);
        let first = executor.run_batch(vec![QueryRequest::new(0, QueryKind::Solve).on_graph("a")]);
        let second = executor.run_batch(vec![QueryRequest::new(1, QueryKind::Solve).on_graph("a")]);
        assert_eq!(
            first.responses[0].outcome.headline_size(),
            second.responses[0].outcome.headline_size()
        );
        // The second batch reused the indices the first one built.
        assert!(second.stats.index_reuse_hits >= 1);
    }

    #[test]
    fn cancelled_request_reports_cancelled() {
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
        let executor = BatchExecutor::new(fleet, 1);
        let report = executor.run_batch(vec![QueryRequest::new(0, QueryKind::Solve)
            .on_graph("dense")
            .with_cancel(token)]);
        assert_eq!(report.responses[0].termination, Termination::Cancelled);
    }

    #[test]
    fn workers_zero_resolves_to_cores() {
        let executor = BatchExecutor::new(small_fleet(), 0);
        assert!(executor.workers() >= 1);
        assert_eq!(executor.fleet().len(), 2);
    }
}

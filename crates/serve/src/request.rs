//! Typed requests and responses, and the per-request work every serve
//! path shares.
//!
//! A [`QueryRequest`] names one of the engine's nine query kinds
//! ([`QueryKind`]) plus the service-level envelope around it: which graph
//! shard it targets, its deadline, its thread budget, and an optional
//! cancellation token. The matching [`QueryResponse`] carries the typed
//! payload ([`QueryOutcome`]), the query's [`Termination`], and the two
//! service-side timings a caller needs — queue wait and service time.
//!
//! The admission checks (`validate`, with the [`MAX_REQUEST_THREADS`]
//! and [`MAX_REQUEST_TOPK`] limits) and the dispatch onto an engine
//! session (`execute_guarded`) live here too: every request the
//! [`StreamServer`](crate::StreamServer) admits runs through them.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use mbb_bigraph::graph::{BipartiteGraph, Side, Vertex};
use mbb_core::budget::{CancelToken, Termination};
use mbb_core::engine::{Enumeration, MbbEngine};
use mbb_core::enumerate::EnumConfig;
use mbb_core::frontier::SizeFrontier;
use mbb_core::meb::EdgeBiclique;
use mbb_core::size_constrained::SizeConstrainedBiclique;
use mbb_core::stats::SolveStats;
use mbb_core::weighted::WeightedBiclique;
use mbb_core::{Biclique, MaximalBiclique};

/// One of the engine's nine query kinds, with its kind-specific
/// parameters. This is the typed payload of a [`QueryRequest`]; the
/// JSONL wire spelling of each variant is documented in
/// [`crate::jsonl`] and `docs/SERVING.md`.
///
/// ```
/// use mbb_serve::QueryKind;
/// let kind = QueryKind::Topk { k: 3 };
/// assert_eq!(kind.label(), "topk");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum QueryKind {
    /// The maximum balanced biclique of the shard graph.
    Solve,
    /// The `k` best balanced bicliques.
    Topk {
        /// How many results to rank.
        k: usize,
    },
    /// The largest balanced biclique through one vertex.
    Anchored {
        /// The anchor vertex (side + 0-based side index).
        vertex: Vertex,
    },
    /// The largest balanced biclique through one edge.
    AnchoredEdge {
        /// Left endpoint (0-based).
        u: u32,
        /// Right endpoint (0-based).
        v: u32,
    },
    /// The heaviest balanced biclique under per-vertex weights.
    Weighted {
        /// Weights indexed by global id (left vertices first).
        weights: Vec<u64>,
    },
    /// The maximum edge biclique.
    Meb,
    /// The Pareto frontier of feasible biclique sizes.
    Frontier,
    /// A witness for the `(a, b)`-biclique problem.
    SizeConstrained {
        /// Required left side size.
        a: usize,
        /// Required right side size.
        b: usize,
    },
    /// All maximal bicliques passing the filters.
    Enumerate {
        /// Report only bicliques with `|A| ≥ min_left`.
        min_left: usize,
        /// Report only bicliques with `|B| ≥ min_right`.
        min_right: usize,
        /// Stop (incomplete) after this many results.
        max_results: Option<u64>,
    },
}

impl QueryKind {
    /// The wire name of the kind — the `"kind"` field of the JSONL
    /// schema.
    pub fn label(&self) -> &'static str {
        match self {
            QueryKind::Solve => "solve",
            QueryKind::Topk { .. } => "topk",
            QueryKind::Anchored { .. } => "anchored",
            QueryKind::AnchoredEdge { .. } => "anchored_edge",
            QueryKind::Weighted { .. } => "weighted",
            QueryKind::Meb => "meb",
            QueryKind::Frontier => "frontier",
            QueryKind::SizeConstrained { .. } => "size_constrained",
            QueryKind::Enumerate { .. } => "enumerate",
        }
    }
}

/// One request of a batch: a [`QueryKind`] plus the service envelope.
///
/// Built with [`new`](Self::new) and the chainable `with_*` setters:
///
/// ```
/// use std::time::Duration;
/// use mbb_serve::{QueryKind, QueryRequest};
///
/// let request = QueryRequest::new(7, QueryKind::Topk { k: 5 })
///     .on_graph("reviews")
///     .with_deadline(Duration::from_millis(200));
/// assert_eq!(request.id, 7);
/// assert_eq!(request.graph.as_deref(), Some("reviews"));
/// ```
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// Caller-chosen request id, echoed in the response. Need not be
    /// unique; a batch returns its events in request order.
    pub id: u64,
    /// Target shard by graph id. `None` routes deterministically by
    /// hashing the request id (see
    /// [`ShardedFleet::route`](crate::ShardedFleet::route)).
    pub graph: Option<String>,
    /// The query itself.
    pub kind: QueryKind,
    /// Per-request deadline, measured **from admission** — it covers
    /// queue wait plus service time, and doubles as the request's
    /// scheduling priority (deadline-soonest first). A zero budget, or
    /// one that runs out while the request is queued, gets the request
    /// shed instead of executed.
    pub deadline: Option<Duration>,
    /// Worker threads for the query's parallel stages (`0` = one per
    /// core). `None` = the shard engine's configured default.
    pub threads: Option<usize>,
    /// Cooperative cancellation handle; not representable on the JSONL
    /// wire (library callers only).
    pub cancel: Option<CancelToken>,
}

impl QueryRequest {
    /// A request with no graph id (hash-routed), no deadline, default
    /// threads and no cancellation token.
    pub fn new(id: u64, kind: QueryKind) -> QueryRequest {
        QueryRequest {
            id,
            graph: None,
            kind,
            deadline: None,
            threads: None,
            cancel: None,
        }
    }

    /// Targets a shard by its graph id.
    pub fn on_graph(mut self, graph: impl Into<String>) -> Self {
        self.graph = Some(graph.into());
        self
    }

    /// Sets the deadline (from admission; also the scheduling
    /// priority).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the per-query worker thread count (`0` = one per core).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Attaches a cancellation token; cancelling it stops the request at
    /// its next budget check (a still-queued request stops at its first).
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }
}

/// The typed payload of one executed request — the per-kind mirror of
/// what `engine.query().<kind>()` returns, plus [`Rejected`]
/// (`Rejected`) for requests that failed validation or routing and never
/// reached an engine.
///
/// [`Rejected`]: QueryOutcome::Rejected
#[derive(Debug, Clone)]
pub enum QueryOutcome {
    /// `solve` payload.
    Solve(Biclique),
    /// `topk` payload, best first.
    Topk(Vec<MaximalBiclique>),
    /// `anchored` payload (empty iff the anchor has no incident edge).
    Anchored(Biclique),
    /// `anchored_edge` payload (`None` when the edge is absent).
    AnchoredEdge(Option<Biclique>),
    /// `weighted` payload.
    Weighted(WeightedBiclique),
    /// `meb` payload.
    Meb(EdgeBiclique),
    /// `frontier` payload.
    Frontier(SizeFrontier),
    /// `size_constrained` payload (`None` = no witness found).
    SizeConstrained(Option<SizeConstrainedBiclique>),
    /// `enumerate` payload.
    Enumerate(Enumeration),
    /// The request never executed: bad routing or invalid parameters.
    Rejected {
        /// Human-readable reason, echoed on the wire as `"error"`.
        reason: String,
    },
}

impl QueryOutcome {
    /// The headline size of the answer, for logging and quick
    /// comparisons. Per kind: balanced half-size (`solve`, `anchored`,
    /// `anchored_edge`, `size_constrained` — 0 when absent), best
    /// balanced size (`topk`, `enumerate` — over the reported set),
    /// total weight (`weighted`), edge count (`meb`), MBB half
    /// (`frontier`), and 0 for rejected requests.
    pub fn headline_size(&self) -> usize {
        match self {
            QueryOutcome::Solve(b) | QueryOutcome::Anchored(b) => b.half_size(),
            QueryOutcome::AnchoredEdge(found) => found.as_ref().map_or(0, |b| b.half_size()),
            QueryOutcome::Topk(list) => list
                .iter()
                .map(MaximalBiclique::balanced_size)
                .max()
                .unwrap_or(0),
            QueryOutcome::Weighted(w) => w.weight as usize,
            QueryOutcome::Meb(m) => m.edges(),
            QueryOutcome::Frontier(f) => f.mbb_half(),
            QueryOutcome::SizeConstrained(found) => found
                .as_ref()
                .map_or(0, |w| w.left.len().min(w.right.len())),
            QueryOutcome::Enumerate(e) => e
                .bicliques
                .iter()
                .map(MaximalBiclique::balanced_size)
                .max()
                .unwrap_or(0),
            QueryOutcome::Rejected { .. } => 0,
        }
    }

    /// True for [`QueryOutcome::Rejected`].
    pub fn is_rejected(&self) -> bool {
        matches!(self, QueryOutcome::Rejected { .. })
    }
}

/// The service's answer to one [`QueryRequest`].
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The request's id, echoed.
    pub id: u64,
    /// The shard that served the request (`None` when routing itself
    /// failed).
    pub shard: Option<String>,
    /// The wire kind label of the request.
    pub kind: &'static str,
    /// The typed payload.
    pub outcome: QueryOutcome,
    /// How the query ended. Rejected requests report
    /// [`Termination::Complete`] (they consumed no budget); check
    /// [`QueryOutcome::is_rejected`] first.
    pub termination: Termination,
    /// Time between admission and a worker picking the request up.
    pub queue_wait: Duration,
    /// Time the worker spent executing the query.
    pub service: Duration,
    /// Full solver statistics of the query (zeroed for rejected
    /// requests and kinds that report no solver stats).
    pub stats: SolveStats,
}

impl QueryResponse {
    /// Search nodes the query explored (shorthand for
    /// `stats.search.nodes`).
    pub fn search_nodes(&self) -> u64 {
        self.stats.search.nodes
    }
}

/// A request may not ask for more worker threads than this. The engine
/// takes non-zero thread counts literally (`0` = one per core is fine),
/// so an unchecked wire value could ask a serving endpoint to spawn
/// millions of OS threads.
pub const MAX_REQUEST_THREADS: usize = 256;

/// A `topk` request may not ask for more than this many results. The
/// ranker keeps up to `k` maximal bicliques and the response carries them
/// all, and a graph can have exponentially many, so an unchecked wire
/// value would let one request line hold and encode an unbounded answer.
pub const MAX_REQUEST_TOPK: usize = 100_000;

/// The parameter checks that would otherwise panic inside the engine
/// (anchors out of range, mismatched weight vectors) or abuse the host
/// (absurd thread counts, allocation-sized `k`). Applied at admission,
/// before a request takes a queue slot.
pub(crate) fn validate(graph: &BipartiteGraph, request: &QueryRequest) -> Result<(), String> {
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

/// The response to a request that never reached an engine. `shard` is
/// the routed shard's id for validation failures, `None` when routing
/// itself failed (matching `QueryResponse::shard`'s contract — never the
/// unroutable graph id the request named).
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

/// [`execute`] behind a panic guard: a panicking query must not kill a
/// worker — it is reported as a rejection and the worker keeps draining
/// the queue.
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
            };
            let r = builder().enumerate(config);
            (QueryOutcome::Enumerate(r.value), r.termination, r.stats)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_cover_all_nine_kinds() {
        let kinds = [
            QueryKind::Solve,
            QueryKind::Topk { k: 1 },
            QueryKind::Anchored {
                vertex: Vertex::left(0),
            },
            QueryKind::AnchoredEdge { u: 0, v: 0 },
            QueryKind::Weighted { weights: vec![] },
            QueryKind::Meb,
            QueryKind::Frontier,
            QueryKind::SizeConstrained { a: 1, b: 1 },
            QueryKind::Enumerate {
                min_left: 1,
                min_right: 1,
                max_results: None,
            },
        ];
        let labels: std::collections::HashSet<&str> = kinds.iter().map(QueryKind::label).collect();
        assert_eq!(labels.len(), 9);
    }

    #[test]
    fn builder_chains() {
        let token = CancelToken::new();
        let r = QueryRequest::new(3, QueryKind::Meb)
            .on_graph("g")
            .with_deadline(Duration::from_secs(1))
            .with_threads(2)
            .with_cancel(token);
        assert_eq!(r.graph.as_deref(), Some("g"));
        assert_eq!(r.deadline, Some(Duration::from_secs(1)));
        assert_eq!(r.threads, Some(2));
        assert!(r.cancel.is_some());
    }

    #[test]
    fn headline_sizes() {
        assert_eq!(
            QueryOutcome::Solve(Biclique::balanced(vec![0, 1], vec![0, 1])).headline_size(),
            2
        );
        assert_eq!(QueryOutcome::AnchoredEdge(None).headline_size(), 0);
        assert_eq!(
            QueryOutcome::Rejected { reason: "x".into() }.headline_size(),
            0
        );
        assert!(QueryOutcome::Rejected { reason: "x".into() }.is_rejected());
    }
}

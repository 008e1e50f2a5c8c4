//! `mbb-serve` — the sharded query service front-end over
//! [`MbbEngine`](mbb_core::engine::MbbEngine) sessions.
//!
//! `mbb-core` answers one query at a time against one graph. A service
//! answering heavy traffic wants three more layers, and this crate is
//! exactly those three:
//!
//! * a [`ShardedFleet`] — N persistent engine sessions, one per graph
//!   shard, with deterministic request routing by graph id (exact) or
//!   request id (FNV-1a hash);
//! * a [`StreamServer`] — the one scheduler: typed [`QueryRequest`]s
//!   (any of the nine query kinds) enter a global EDF admission queue
//!   (earliest deadline first) with bounded depth and backpressure,
//!   load-shedding of blown-budget requests, per-tenant fairness, and
//!   graceful drain/reload; a pool of workers runs each request with its
//!   own budget. Requests arrive as a JSONL stream on stdin
//!   ([`StreamServer::serve`], `mbb serve`), on many concurrent TCP /
//!   Unix-domain connections ([`socket`], routed back by the [`mux`]
//!   registry), or as a finite batch ([`StreamServer::run_batch`],
//!   `mbb serve-batch`) that returns a [`BatchReport`] — one
//!   [`StreamEvent`] per request in request order, plus the
//!   [`ServeStats`] counters;
//! * a [`jsonl`] wire layer — requests in, events out, one JSON object
//!   per line — shared by the CLI subcommands and any embedding service.
//!
//! The semantics (fairness, deadlines that include queue wait, the
//! amortisation argument, the wire schema) are documented in
//! `docs/SERVING.md`.
//!
//! # Quickstart
//!
//! ```
//! use std::time::Duration;
//! use mbb_serve::{
//!     QueryKind, QueryOutcome, QueryRequest, ShardedFleet, StreamConfig, StreamEvent,
//!     StreamServer,
//! };
//!
//! // Two graph shards, one engine session each.
//! let mut fleet = ShardedFleet::new();
//! fleet
//!     .add_shard("users", mbb_bigraph::generators::uniform_edges(20, 20, 90, 1))?
//!     .add_shard("items", mbb_bigraph::generators::uniform_edges(20, 20, 90, 2))?;
//!
//! // Sessions persist across batches: build the server once, run many.
//! let config = StreamConfig { workers: 2, ..StreamConfig::default() };
//! let server = StreamServer::new(fleet, config);
//! let report = server.run_batch(vec![
//!     QueryRequest::new(0, QueryKind::Solve).on_graph("users"),
//!     QueryRequest::new(1, QueryKind::Topk { k: 3 }).on_graph("users"),
//!     QueryRequest::new(2, QueryKind::Frontier)
//!         .on_graph("items")
//!         .with_deadline(Duration::from_secs(5)),
//!     QueryRequest::new(3, QueryKind::Solve).on_graph("users"),
//! ]);
//!
//! assert_eq!(report.events.len(), 4);
//! let StreamEvent::Response(solve) = &report.events[0] else {
//!     panic!("request 0 has no deadline, so it is never shed");
//! };
//! assert!(solve.termination.is_complete());
//! if let QueryOutcome::Solve(biclique) = &solve.outcome {
//!     assert!(biclique.is_valid(server.fleet().engine(0).graph()));
//! }
//! // One of the two "users" solves built the session's search order;
//! // the other reused it.
//! assert_eq!(report.stats.index_reuse_hits, 1);
//! # Ok::<(), mbb_serve::ServeError>(())
//! ```

#![warn(missing_docs)]

pub mod fleet;
pub mod jsonl;
pub mod mux;
pub mod request;
pub mod socket;
pub mod stream;

pub use fleet::{ServeError, Shard, ShardedFleet};
pub use request::{QueryKind, QueryOutcome, QueryRequest, QueryResponse};
pub use stream::{
    BatchReport, ServeStats, ShardServeStats, StreamConfig, StreamEvent, StreamServer,
};

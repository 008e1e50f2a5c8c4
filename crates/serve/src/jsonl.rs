//! The JSONL wire format: one JSON object per line, requests in,
//! responses out. The full schema with a worked example lives in
//! `docs/SERVING.md`; this module is the single implementation of it
//! (the CLI `serve` and `serve-batch` subcommands and the tests all go
//! through here).
//!
//! Conventions, matching the rest of the `mbb` CLI:
//!
//! * vertex ids are **1-based** on the wire (KONECT convention) and
//!   0-based in memory;
//! * field names are `snake_case`; the `kind` field carries the
//!   [`QueryKind::label`] names;
//! * terminations use the [`Termination`](mbb_core::budget::Termination)
//!   display form (`"complete"`, `"deadline-exceeded"`, `"cancelled"`);
//! * rejected requests come back as `{"id": …, "kind": …, "error": …}` —
//!   the presence of `"error"` is the discriminator.

use std::time::Duration;

use mbb_bigraph::graph::Vertex;
use mbb_core::{Biclique, MaximalBiclique};
use serde_json::Value;

use crate::fleet::ServeError;
use crate::request::{QueryKind, QueryOutcome, QueryRequest, QueryResponse};
use crate::stream::{MetricsReport, ServeStats, StreamEvent};

// ---------------------------------------------------------------------
// Request parsing.

/// Parses a whole JSONL request document (one request per non-empty
/// line; `#`-prefixed lines are comments). Line numbers in errors are
/// 1-based.
///
/// ```
/// use mbb_serve::jsonl::parse_requests;
/// let text = r#"
/// {"id": 1, "graph": "a", "kind": "solve", "deadline_ms": 500}
/// {"kind": "topk", "k": 3}
/// "#;
/// let requests = parse_requests(text)?;
/// assert_eq!(requests.len(), 2);
/// assert_eq!(requests[0].id, 1);
/// assert_eq!(requests[1].id, 3); // defaults to its 1-based line number
/// # Ok::<(), mbb_serve::ServeError>(())
/// ```
pub fn parse_requests(text: &str) -> Result<Vec<QueryRequest>, ServeError> {
    let mut requests = Vec::new();
    for (index, line) in text.lines().enumerate() {
        let line_no = index + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        requests.push(parse_request_line(trimmed, line_no)?);
    }
    Ok(requests)
}

/// Parses one request line. `line_no` (1-based) seeds error messages and
/// the default `id` for requests that omit one.
pub fn parse_request_line(line: &str, line_no: usize) -> Result<QueryRequest, ServeError> {
    let value: Value = serde_json::from_str(line).map_err(|e| ServeError::BadRequest {
        line: line_no,
        message: format!("invalid JSON: {e}"),
    })?;
    request_from_value(&value, line_no)
}

/// The request a parsed line describes; `line_no` as for
/// [`parse_request_line`].
fn request_from_value(value: &Value, line_no: usize) -> Result<QueryRequest, ServeError> {
    let bad = |message: String| ServeError::BadRequest {
        line: line_no,
        message,
    };
    if value.get("kind").is_none() {
        return Err(bad("missing \"kind\"".into()));
    }
    let kind_name = value["kind"]
        .as_str()
        .ok_or_else(|| bad("\"kind\" must be a string".into()))?
        .to_string();

    let u64_field = |key: &str| -> Result<Option<u64>, ServeError> {
        match value.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_u64()
                .map(Some)
                .ok_or_else(|| bad(format!("{key:?} must be a non-negative integer"))),
        }
    };
    let required_u64 = |key: &str| -> Result<u64, ServeError> {
        u64_field(key)?.ok_or_else(|| bad(format!("{kind_name}: missing {key:?}")))
    };
    // 1-based on the wire → 0-based in memory.
    let vertex_index = |key: &str| -> Result<u32, ServeError> {
        let raw = required_u64(key)?;
        if raw == 0 {
            return Err(bad(format!("{key:?} is 1-based; 0 is out of range")));
        }
        u32::try_from(raw - 1).map_err(|_| bad(format!("{key:?} out of range")))
    };

    let kind = match kind_name.as_str() {
        "solve" => QueryKind::Solve,
        "topk" => QueryKind::Topk {
            k: required_u64("k")? as usize,
        },
        "anchored" => {
            let index = vertex_index("vertex")?;
            let side = match value.get("side") {
                None => "left",
                Some(v) => v
                    .as_str()
                    .ok_or_else(|| bad("\"side\" must be a string".into()))?,
            };
            let vertex = match side {
                "left" => Vertex::left(index),
                "right" => Vertex::right(index),
                other => return Err(bad(format!("\"side\" must be left|right, got {other:?}"))),
            };
            QueryKind::Anchored { vertex }
        }
        "anchored_edge" => QueryKind::AnchoredEdge {
            u: vertex_index("u")?,
            v: vertex_index("v")?,
        },
        "weighted" => {
            let weights = value
                .get("weights")
                .and_then(Value::as_array)
                .ok_or_else(|| bad("weighted: missing \"weights\" array".into()))?
                .iter()
                .map(|w| {
                    w.as_u64()
                        .ok_or_else(|| bad("weights must be non-negative integers".into()))
                })
                .collect::<Result<Vec<u64>, ServeError>>()?;
            QueryKind::Weighted { weights }
        }
        "meb" => QueryKind::Meb,
        "frontier" => QueryKind::Frontier,
        "size_constrained" => QueryKind::SizeConstrained {
            a: required_u64("a")? as usize,
            b: required_u64("b")? as usize,
        },
        "enumerate" => QueryKind::Enumerate {
            min_left: u64_field("min_left")?.unwrap_or(1) as usize,
            min_right: u64_field("min_right")?.unwrap_or(1) as usize,
            max_results: u64_field("max_results")?,
        },
        other => return Err(bad(format!("unknown kind {other:?}"))),
    };

    let mut request = QueryRequest::new(u64_field("id")?.unwrap_or(line_no as u64), kind);
    if let Some(graph) = value.get("graph") {
        let graph = graph
            .as_str()
            .ok_or_else(|| bad("\"graph\" must be a string".into()))?;
        request = request.on_graph(graph);
    }
    if let Some(ms) = u64_field("deadline_ms")? {
        request = request.with_deadline(Duration::from_millis(ms));
    }
    if let Some(threads) = u64_field("threads")? {
        request = request.with_threads(threads as usize);
    }
    Ok(request)
}

// ---------------------------------------------------------------------
// Stream lines: requests plus control verbs (resident mode).

/// A control verb of the resident stream — a line with a `"control"`
/// field instead of a `"kind"`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlRequest {
    /// `{"control": "stats"}` — emit a [`ServeStats`] snapshot line.
    Stats,
    /// `{"control": "metrics"}` — emit a full observability snapshot:
    /// the `stats` counters plus latency histogram quantiles.
    Metrics,
    /// `{"control": "drain"}` — block admission until everything
    /// admitted so far has completed, then acknowledge.
    Drain,
    /// `{"control": "reload", "graph": …, "source": …}` — swap the
    /// shard's engine for a freshly store-loaded graph.
    Reload {
        /// The shard (graph id) to reload.
        graph: String,
        /// The path the store loads the new graph from.
        source: String,
    },
}

/// One parsed line of the resident request stream.
#[derive(Debug, Clone)]
pub enum StreamLine {
    /// An admissible query request.
    Request(QueryRequest),
    /// A control verb.
    Control(ControlRequest),
}

/// Parses one resident-stream line: a control line when a `"control"`
/// field is present, otherwise a request line per [`parse_request_line`].
///
/// ```
/// use mbb_serve::jsonl::{parse_stream_line, ControlRequest, StreamLine};
/// let line = parse_stream_line(r#"{"control": "reload", "graph": "a", "source": "a2.txt"}"#, 1)?;
/// assert!(matches!(
///     line,
///     StreamLine::Control(ControlRequest::Reload { .. })
/// ));
/// # Ok::<(), mbb_serve::ServeError>(())
/// ```
pub fn parse_stream_line(line: &str, line_no: usize) -> Result<StreamLine, ServeError> {
    let bad = |message: String| ServeError::BadRequest {
        line: line_no,
        message,
    };
    let value: Value = serde_json::from_str(line).map_err(|e| bad(format!("invalid JSON: {e}")))?;
    let Some(control) = value.get("control") else {
        return request_from_value(&value, line_no).map(StreamLine::Request);
    };
    let verb = control
        .as_str()
        .ok_or_else(|| bad("\"control\" must be a string".into()))?;
    let string_field = |key: &str| -> Result<String, ServeError> {
        value
            .get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| bad(format!("control {verb:?}: missing string {key:?}")))
    };
    let control = match verb {
        "stats" => ControlRequest::Stats,
        "metrics" => ControlRequest::Metrics,
        "drain" => ControlRequest::Drain,
        "reload" => ControlRequest::Reload {
            graph: string_field("graph")?,
            source: string_field("source")?,
        },
        other => return Err(bad(format!("unknown control {other:?}"))),
    };
    Ok(StreamLine::Control(control))
}

// ---------------------------------------------------------------------
// Request encoding (round-trip support for tooling and tests).

/// Encodes a request as one JSONL line — the inverse of
/// [`parse_request_line`] for everything the wire can carry (a
/// [`CancelToken`](mbb_core::budget::CancelToken) cannot cross the
/// wire and is dropped).
pub fn encode_request(request: &QueryRequest) -> String {
    let mut fields = vec![
        ("id".to_string(), Value::UInt(request.id)),
        (
            "kind".to_string(),
            Value::String(request.kind.label().to_string()),
        ),
    ];
    if let Some(graph) = &request.graph {
        fields.push(("graph".into(), Value::String(graph.clone())));
    }
    match &request.kind {
        QueryKind::Solve | QueryKind::Meb | QueryKind::Frontier => {}
        QueryKind::Topk { k } => fields.push(("k".into(), Value::UInt(*k as u64))),
        QueryKind::Anchored { vertex } => {
            let side = match vertex.side {
                mbb_bigraph::graph::Side::Left => "left",
                mbb_bigraph::graph::Side::Right => "right",
            };
            fields.push(("side".into(), Value::String(side.into())));
            fields.push(("vertex".into(), Value::UInt(u64::from(vertex.index) + 1)));
        }
        QueryKind::AnchoredEdge { u, v } => {
            fields.push(("u".into(), Value::UInt(u64::from(*u) + 1)));
            fields.push(("v".into(), Value::UInt(u64::from(*v) + 1)));
        }
        QueryKind::Weighted { weights } => fields.push((
            "weights".into(),
            Value::Array(weights.iter().map(|&w| Value::UInt(w)).collect()),
        )),
        QueryKind::SizeConstrained { a, b } => {
            fields.push(("a".into(), Value::UInt(*a as u64)));
            fields.push(("b".into(), Value::UInt(*b as u64)));
        }
        QueryKind::Enumerate {
            min_left,
            min_right,
            max_results,
        } => {
            fields.push(("min_left".into(), Value::UInt(*min_left as u64)));
            fields.push(("min_right".into(), Value::UInt(*min_right as u64)));
            if let Some(max) = max_results {
                fields.push(("max_results".into(), Value::UInt(*max)));
            }
        }
    }
    if let Some(deadline) = request.deadline {
        fields.push((
            "deadline_ms".into(),
            Value::UInt(deadline.as_millis() as u64),
        ));
    }
    if let Some(threads) = request.threads {
        fields.push(("threads".into(), Value::UInt(threads as u64)));
    }
    Value::Object(fields).to_string()
}

// ---------------------------------------------------------------------
// Response encoding.

/// 1-based id list.
fn ids(side: &[u32]) -> Value {
    Value::Array(
        side.iter()
            .map(|&v| Value::UInt(u64::from(v) + 1))
            .collect(),
    )
}

fn biclique(b: &Biclique) -> Vec<(String, Value)> {
    vec![
        ("left".into(), ids(&b.left)),
        ("right".into(), ids(&b.right)),
        ("half_size".into(), Value::UInt(b.half_size() as u64)),
    ]
}

fn maximal(list: &[MaximalBiclique]) -> Value {
    Value::Array(
        list.iter()
            .enumerate()
            .map(|(i, b)| {
                Value::Object(vec![
                    ("rank".into(), Value::UInt(i as u64 + 1)),
                    (
                        "balanced_size".into(),
                        Value::UInt(b.balanced_size() as u64),
                    ),
                    ("left".into(), ids(&b.left)),
                    ("right".into(), ids(&b.right)),
                ])
            })
            .collect(),
    )
}

/// `{"found": bool, …payload}` for the two witness-or-nothing kinds.
fn optional(found: Option<Vec<(String, Value)>>) -> Value {
    match found {
        Some(mut fields) => {
            fields.insert(0, ("found".into(), Value::Bool(true)));
            Value::Object(fields)
        }
        None => Value::Object(vec![("found".into(), Value::Bool(false))]),
    }
}

fn millis(d: Duration) -> Value {
    // Three decimals is plenty for service timings and keeps lines tidy.
    Value::Float((d.as_secs_f64() * 1e3 * 1e3).round() / 1e3)
}

fn outcome_value(outcome: &QueryOutcome) -> Value {
    match outcome {
        QueryOutcome::Solve(b) | QueryOutcome::Anchored(b) => Value::Object(biclique(b)),
        QueryOutcome::AnchoredEdge(found) => optional(found.as_ref().map(biclique)),
        QueryOutcome::SizeConstrained(found) => optional(found.as_ref().map(|w| {
            vec![
                ("left".into(), ids(&w.left)),
                ("right".into(), ids(&w.right)),
            ]
        })),
        QueryOutcome::Topk(list) => Value::Object(vec![("bicliques".into(), maximal(list))]),
        QueryOutcome::Weighted(w) => Value::Object(vec![
            ("left".into(), ids(&w.left)),
            ("right".into(), ids(&w.right)),
            ("weight".into(), Value::UInt(w.weight)),
        ]),
        QueryOutcome::Meb(m) => Value::Object(vec![
            ("left".into(), ids(&m.left)),
            ("right".into(), ids(&m.right)),
            ("edges".into(), Value::UInt(m.edges() as u64)),
        ]),
        QueryOutcome::Frontier(f) => Value::Object(vec![
            (
                "pairs".into(),
                Value::Array(
                    f.pairs
                        .iter()
                        .map(|&(a, b)| {
                            Value::Array(vec![Value::UInt(a as u64), Value::UInt(b as u64)])
                        })
                        .collect(),
                ),
            ),
            ("complete".into(), Value::Bool(f.complete)),
        ]),
        QueryOutcome::Enumerate(e) => Value::Object(vec![
            ("bicliques".into(), maximal(&e.bicliques)),
            ("reported".into(), Value::UInt(e.outcome.reported)),
            ("visited".into(), Value::UInt(e.outcome.visited)),
            ("complete".into(), Value::Bool(e.outcome.complete)),
        ]),
        QueryOutcome::Rejected { .. } => Value::Null,
    }
}

/// Encodes one response as one JSONL line.
pub fn encode_response(response: &QueryResponse) -> String {
    let mut fields = vec![("id".to_string(), Value::UInt(response.id))];
    if let Some(shard) = &response.shard {
        fields.push(("graph".into(), Value::String(shard.clone())));
    }
    fields.push(("kind".into(), Value::String(response.kind.to_string())));
    if let QueryOutcome::Rejected { reason } = &response.outcome {
        fields.push(("error".into(), Value::String(reason.clone())));
        fields.push(("error_kind".into(), Value::String("invalid".into())));
        return Value::Object(fields).to_string();
    }
    fields.push((
        "termination".into(),
        Value::String(response.termination.to_string()),
    ));
    fields.push(("queue_wait_ms".into(), millis(response.queue_wait)));
    fields.push(("service_ms".into(), millis(response.service)));
    fields.push(("search_nodes".into(), Value::UInt(response.search_nodes())));
    fields.push(("result".into(), outcome_value(&response.outcome)));
    Value::Object(fields).to_string()
}

// ---------------------------------------------------------------------
// Stream event encoding (resident mode).

fn serve_stats_value(stats: &ServeStats) -> Value {
    let shards = Value::Array(
        stats
            .per_shard
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("graph".into(), Value::String(s.shard.clone())),
                    ("served".into(), Value::UInt(s.served)),
                    ("shed".into(), Value::UInt(s.shed)),
                    ("search_nodes".into(), Value::UInt(s.search_nodes)),
                    ("index_reuse_hits".into(), Value::UInt(s.index_reuse_hits)),
                    ("reloads".into(), Value::UInt(s.reloads)),
                ])
            })
            .collect(),
    );
    Value::Object(vec![
        ("admitted".into(), Value::UInt(stats.admitted)),
        ("completed".into(), Value::UInt(stats.completed)),
        ("shed".into(), Value::UInt(stats.shed)),
        ("rejected".into(), Value::UInt(stats.rejected)),
        ("parse_errors".into(), Value::UInt(stats.parse_errors)),
        ("reloads".into(), Value::UInt(stats.reloads)),
        ("disconnected".into(), Value::UInt(stats.disconnected)),
        ("connections".into(), Value::UInt(stats.connections)),
        ("active_conns".into(), Value::UInt(stats.active_conns)),
        ("disconnects".into(), Value::UInt(stats.disconnects)),
        ("queue_depth".into(), Value::UInt(stats.queue_depth as u64)),
        (
            "max_queue_depth".into(),
            Value::UInt(stats.max_queue_depth as u64),
        ),
        ("total_queue_wait_ms".into(), millis(stats.total_queue_wait)),
        ("max_queue_wait_ms".into(), millis(stats.max_queue_wait)),
        ("total_service_ms".into(), millis(stats.total_service)),
        (
            "index_reuse_hits".into(),
            Value::UInt(stats.index_reuse_hits),
        ),
        ("shards".into(), shards),
    ])
}

/// Encodes one resident-stream event as one JSONL line. Error-bearing
/// lines carry an `"error"` message plus a machine-readable
/// `"error_kind"` discriminator: `"invalid"` (validation/routing
/// rejection), `"shed"` (admission control refused to execute),
/// `"parse"` (unparseable input line), `"reload"` (a reload that
/// failed), `"disconnected"` (the originating socket connection went
/// away before the request could execute).
pub fn encode_stream_event(event: &StreamEvent) -> String {
    match event {
        StreamEvent::Response(response) => encode_response(response),
        StreamEvent::Shed {
            id,
            graph,
            kind,
            reason,
        } => {
            let mut fields = vec![("id".to_string(), Value::UInt(*id))];
            if let Some(graph) = graph {
                fields.push(("graph".into(), Value::String(graph.clone())));
            }
            fields.push(("kind".into(), Value::String((*kind).to_string())));
            fields.push(("error".into(), Value::String(reason.clone())));
            fields.push(("error_kind".into(), Value::String("shed".into())));
            Value::Object(fields).to_string()
        }
        StreamEvent::Disconnected {
            id,
            graph,
            kind,
            reason,
        } => {
            let mut fields = vec![("id".to_string(), Value::UInt(*id))];
            if let Some(graph) = graph {
                fields.push(("graph".into(), Value::String(graph.clone())));
            }
            fields.push(("kind".into(), Value::String((*kind).to_string())));
            fields.push(("error".into(), Value::String(reason.clone())));
            fields.push(("error_kind".into(), Value::String("disconnected".into())));
            Value::Object(fields).to_string()
        }
        StreamEvent::ParseError { line, message } => Value::Object(vec![
            ("line".into(), Value::UInt(*line as u64)),
            ("error".into(), Value::String(message.clone())),
            ("error_kind".into(), Value::String("parse".into())),
        ])
        .to_string(),
        StreamEvent::ReloadAck { graph, result } => {
            let mut fields = vec![
                ("control".to_string(), Value::String("reload".into())),
                ("graph".to_string(), Value::String(graph.clone())),
            ];
            match result {
                Ok(outcome) => {
                    fields.push(("ok".into(), Value::Bool(true)));
                    fields.push(("forked".into(), Value::Bool(outcome.forked)));
                    fields.push(("detail".into(), Value::String(outcome.detail.clone())));
                }
                Err(message) => {
                    fields.push(("ok".into(), Value::Bool(false)));
                    fields.push(("error".into(), Value::String(message.clone())));
                    fields.push(("error_kind".into(), Value::String("reload".into())));
                }
            }
            Value::Object(fields).to_string()
        }
        StreamEvent::Drained { completed } => Value::Object(vec![
            ("control".into(), Value::String("drain".into())),
            ("completed".into(), Value::UInt(*completed)),
        ])
        .to_string(),
        StreamEvent::Stats(stats) => {
            Value::Object(vec![("stats".into(), serve_stats_value(stats))]).to_string()
        }
        StreamEvent::Metrics(report) => {
            Value::Object(vec![("metrics".into(), metrics_value(report))]).to_string()
        }
    }
}

/// Milliseconds (3 decimals) from a nanosecond count — histogram values
/// are recorded in nanoseconds, the wire speaks milliseconds like every
/// other timing field.
fn nanos_ms(nanos: u64) -> Value {
    Value::Float((nanos as f64 / 1e6 * 1e3).round() / 1e3)
}

fn histogram_value(h: &mbb_obs::HistogramSnapshot) -> Value {
    Value::Object(vec![
        ("count".into(), Value::UInt(h.count)),
        ("mean_ms".into(), nanos_ms(h.mean() as u64)),
        ("p50_ms".into(), nanos_ms(h.p50())),
        ("p90_ms".into(), nanos_ms(h.p90())),
        ("p99_ms".into(), nanos_ms(h.p99())),
        ("max_ms".into(), nanos_ms(h.max)),
    ])
}

/// The `{"metrics": …}` payload: the exact `stats` object (same builder,
/// so the two verbs can never drift), plus latency quantiles and the
/// span-drop counter.
fn metrics_value(report: &MetricsReport) -> Value {
    Value::Object(vec![
        ("stats".into(), serve_stats_value(&report.stats)),
        (
            "histograms".into(),
            Value::Object(vec![
                ("queue_wait_ms".into(), histogram_value(&report.queue_wait)),
                ("service_ms".into(), histogram_value(&report.service)),
            ]),
        ),
        ("spans_dropped".into(), Value::UInt(report.spans_dropped)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_kind() {
        let text = r#"
{"id": 1, "graph": "g", "kind": "solve"}
{"id": 2, "kind": "topk", "k": 4}
{"id": 3, "kind": "anchored", "side": "right", "vertex": 5}
{"id": 4, "kind": "anchored_edge", "u": 2, "v": 3}
{"id": 5, "kind": "weighted", "weights": [1, 2, 3]}
{"id": 6, "kind": "meb"}
{"id": 7, "kind": "frontier"}
{"id": 8, "kind": "size_constrained", "a": 2, "b": 3}
{"id": 9, "kind": "enumerate", "min_left": 2, "max_results": 10}
"#;
        let requests = parse_requests(text).unwrap();
        assert_eq!(requests.len(), 9);
        assert_eq!(requests[0].kind, QueryKind::Solve);
        assert_eq!(requests[1].kind, QueryKind::Topk { k: 4 });
        assert_eq!(
            requests[2].kind,
            QueryKind::Anchored {
                vertex: Vertex::right(4) // 1-based wire → 0-based memory
            }
        );
        assert_eq!(requests[3].kind, QueryKind::AnchoredEdge { u: 1, v: 2 });
        assert_eq!(
            requests[4].kind,
            QueryKind::Weighted {
                weights: vec![1, 2, 3]
            }
        );
        assert_eq!(
            requests[8].kind,
            QueryKind::Enumerate {
                min_left: 2,
                min_right: 1,
                max_results: Some(10)
            }
        );
    }

    #[test]
    fn envelope_fields_parse() {
        let r = parse_request_line(
            r#"{"id": 9, "graph": "a", "kind": "solve", "deadline_ms": 250, "threads": 2}"#,
            1,
        )
        .unwrap();
        assert_eq!(r.id, 9);
        assert_eq!(r.graph.as_deref(), Some("a"));
        assert_eq!(r.deadline, Some(Duration::from_millis(250)));
        assert_eq!(r.threads, Some(2));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_requests("{\"kind\": \"solve\"}\nnot json\n").unwrap_err();
        assert_eq!(
            match err {
                ServeError::BadRequest { line, .. } => line,
                other => panic!("unexpected {other:?}"),
            },
            2
        );
        assert!(parse_request_line("{}", 1).is_err());
        assert!(parse_request_line(r#"{"kind": "quantum"}"#, 1).is_err());
        assert!(parse_request_line(r#"{"kind": "topk"}"#, 1).is_err());
        assert!(parse_request_line(r#"{"kind": "anchored", "vertex": 0}"#, 1).is_err());
        // A malformed side must be rejected, never silently defaulted.
        assert!(parse_request_line(r#"{"kind": "anchored", "vertex": 1, "side": 2}"#, 1).is_err());
    }

    #[test]
    fn requests_round_trip() {
        let originals = vec![
            QueryRequest::new(1, QueryKind::Solve).on_graph("g"),
            QueryRequest::new(2, QueryKind::Topk { k: 3 })
                .with_deadline(Duration::from_millis(100)),
            QueryRequest::new(
                3,
                QueryKind::Anchored {
                    vertex: Vertex::left(7),
                },
            )
            .with_threads(4),
            QueryRequest::new(
                4,
                QueryKind::Enumerate {
                    min_left: 2,
                    min_right: 3,
                    max_results: Some(5),
                },
            ),
        ];
        for original in &originals {
            let line = encode_request(original);
            let parsed = parse_request_line(&line, 1).unwrap();
            assert_eq!(parsed.id, original.id);
            assert_eq!(parsed.graph, original.graph);
            assert_eq!(parsed.kind, original.kind);
            assert_eq!(parsed.deadline, original.deadline);
            assert_eq!(parsed.threads, original.threads);
        }
    }

    #[test]
    fn response_lines_are_one_json_object() {
        use mbb_core::budget::Termination;
        use mbb_core::stats::SolveStats;
        let response = QueryResponse {
            id: 7,
            shard: Some("g".into()),
            kind: "solve",
            outcome: QueryOutcome::Solve(Biclique::balanced(vec![0, 2], vec![1, 3])),
            termination: Termination::Complete,
            queue_wait: Duration::from_micros(1500),
            service: Duration::from_millis(2),
            stats: SolveStats::default(),
        };
        let line = encode_response(&response);
        let value: Value = serde_json::from_str(&line).unwrap();
        assert_eq!(value["id"].as_u64(), Some(7));
        assert_eq!(value["termination"].as_str(), Some("complete"));
        // 1-based ids on the wire.
        assert_eq!(
            value["result"]["left"].as_array().unwrap()[0].as_u64(),
            Some(1)
        );
        assert_eq!(value["result"]["half_size"].as_u64(), Some(2));
        assert_eq!(value["queue_wait_ms"].as_f64(), Some(1.5));
    }

    #[test]
    fn rejected_responses_encode_the_error() {
        use mbb_core::budget::Termination;
        use mbb_core::stats::SolveStats;
        let response = QueryResponse {
            id: 3,
            shard: None,
            kind: "solve",
            outcome: QueryOutcome::Rejected {
                reason: "unknown shard \"zz\"".into(),
            },
            termination: Termination::Complete,
            queue_wait: Duration::ZERO,
            service: Duration::ZERO,
            stats: SolveStats::default(),
        };
        let line = encode_response(&response);
        let value: Value = serde_json::from_str(&line).unwrap();
        assert!(value["error"].as_str().unwrap().contains("zz"));
        assert_eq!(value["error_kind"].as_str(), Some("invalid"));
        assert!(value.get("termination").is_none());
    }

    #[test]
    fn stream_lines_split_requests_from_controls() {
        assert!(matches!(
            parse_stream_line(r#"{"id": 1, "kind": "solve"}"#, 1).unwrap(),
            StreamLine::Request(r) if r.id == 1
        ));
        assert!(matches!(
            parse_stream_line(r#"{"control": "stats"}"#, 1).unwrap(),
            StreamLine::Control(ControlRequest::Stats)
        ));
        assert!(matches!(
            parse_stream_line(r#"{"control": "drain"}"#, 1).unwrap(),
            StreamLine::Control(ControlRequest::Drain)
        ));
        let reload = parse_stream_line(
            r#"{"control": "reload", "graph": "a", "source": "next.txt"}"#,
            1,
        )
        .unwrap();
        assert!(matches!(
            reload,
            StreamLine::Control(ControlRequest::Reload { graph, source })
                if graph == "a" && source == "next.txt"
        ));
        // Malformed controls are typed errors with the line number.
        assert!(parse_stream_line(r#"{"control": "restart"}"#, 7).is_err());
        assert!(parse_stream_line(r#"{"control": "reload", "graph": "a"}"#, 7).is_err());
        assert!(parse_stream_line(r#"{"control": 3}"#, 7).is_err());
    }

    #[test]
    fn stream_events_encode_with_error_kinds() {
        use crate::stream::ReloadOutcome;
        let shed = encode_stream_event(&StreamEvent::Shed {
            id: 4,
            graph: Some("g".into()),
            kind: "solve",
            reason: "deadline budget exhausted on arrival".into(),
        });
        let value: Value = serde_json::from_str(&shed).unwrap();
        assert_eq!(value["error_kind"].as_str(), Some("shed"));
        assert_eq!(value["id"].as_u64(), Some(4));

        let parse = encode_stream_event(&StreamEvent::ParseError {
            line: 9,
            message: "invalid JSON".into(),
        });
        let value: Value = serde_json::from_str(&parse).unwrap();
        assert_eq!(value["error_kind"].as_str(), Some("parse"));
        assert_eq!(value["line"].as_u64(), Some(9));

        let ack = encode_stream_event(&StreamEvent::ReloadAck {
            graph: "g".into(),
            result: Ok(ReloadOutcome {
                detail: "parsed in 1ms".into(),
                forked: true,
            }),
        });
        let value: Value = serde_json::from_str(&ack).unwrap();
        assert_eq!(value["control"].as_str(), Some("reload"));
        assert_eq!(value["ok"].as_bool(), Some(true));
        assert_eq!(value["forked"].as_bool(), Some(true));

        let failed = encode_stream_event(&StreamEvent::ReloadAck {
            graph: "g".into(),
            result: Err("no such file".into()),
        });
        let value: Value = serde_json::from_str(&failed).unwrap();
        assert_eq!(value["ok"].as_bool(), Some(false));
        assert_eq!(value["error_kind"].as_str(), Some("reload"));

        let drained = encode_stream_event(&StreamEvent::Drained { completed: 12 });
        let value: Value = serde_json::from_str(&drained).unwrap();
        assert_eq!(value["control"].as_str(), Some("drain"));
        assert_eq!(value["completed"].as_u64(), Some(12));

        let disconnected = encode_stream_event(&StreamEvent::Disconnected {
            id: 9,
            graph: Some("g".into()),
            kind: "solve",
            reason: "originating connection disconnected".into(),
        });
        let value: Value = serde_json::from_str(&disconnected).unwrap();
        assert_eq!(value["id"].as_u64(), Some(9));
        assert_eq!(value["graph"].as_str(), Some("g"));
        assert_eq!(value["error_kind"].as_str(), Some("disconnected"));
    }

    #[test]
    fn stats_events_carry_the_counters() {
        use crate::stream::{ServeStats, ShardServeStats};
        let stats = ServeStats {
            admitted: 10,
            completed: 8,
            shed: 1,
            rejected: 1,
            parse_errors: 2,
            reloads: 1,
            disconnected: 1,
            connections: 3,
            active_conns: 2,
            disconnects: 1,
            queue_depth: 0,
            max_queue_depth: 5,
            total_queue_wait: Duration::from_millis(30),
            max_queue_wait: Duration::from_millis(9),
            total_service: Duration::from_millis(80),
            index_reuse_hits: 6,
            per_shard: vec![ShardServeStats {
                shard: "g".into(),
                served: 8,
                shed: 1,
                search_nodes: 1234,
                index_reuse_hits: 6,
                reloads: 1,
            }],
        };
        let line = encode_stream_event(&StreamEvent::Stats(stats));
        let value: Value = serde_json::from_str(&line).unwrap();
        let stats = &value["stats"];
        assert_eq!(stats["completed"].as_u64(), Some(8));
        assert_eq!(stats["shed"].as_u64(), Some(1));
        assert_eq!(stats["reloads"].as_u64(), Some(1));
        assert_eq!(stats["disconnected"].as_u64(), Some(1));
        assert_eq!(stats["connections"].as_u64(), Some(3));
        assert_eq!(stats["active_conns"].as_u64(), Some(2));
        assert_eq!(stats["disconnects"].as_u64(), Some(1));
        assert_eq!(stats["max_queue_depth"].as_u64(), Some(5));
        let shard = &stats["shards"].as_array().unwrap()[0];
        assert_eq!(shard["graph"].as_str(), Some("g"));
        assert_eq!(shard["search_nodes"].as_u64(), Some(1234));
    }
}

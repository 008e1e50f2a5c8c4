//! The serving workload, `serve-open`: open-loop arrivals at a fixed rate
//! into `StreamServer::serve_with` over three warmed shards, with periodic
//! reloads that rebuild a shard's indices on the request path. The same
//! runner, fed a closed schedule, is the serve-layer probe of the batch
//! workloads' traced runs.

use std::fmt::Write as _;
use std::hint::black_box;
use std::io::{BufRead, Read};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use mbb_bigraph::graph::{BipartiteGraph, Side, Vertex};
use mbb_core::budget::Termination;
use mbb_serve::jsonl::encode_stream_event;
use mbb_serve::{QueryOutcome, ShardedFleet, StreamConfig, StreamEvent, StreamServer};
use mbb_store::GraphStore;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::batch::{layer_metrics, staged_pass, Input};
use crate::inputs::{graph_path, sparse_graph, write_graph, ReferenceTable, Set};
use crate::layers::{cold_query, load, wire_us};
use crate::stats::{mean, median, ms, percentile, status_mb, Report};

/// Arrivals per second of the open loop.
const RATE: f64 = 100.0;
/// A reload control line after every this many requests.
const RELOAD_EVERY: usize = 700;
const SOLVE_DEADLINE_MS: u64 = 500;
const QUERY_DEADLINE_MS: u64 = 100;
/// The served stand-ins; the last one is the shard that reloads.
const SHARDS: [&str; 3] = ["pics-ut", "github", "reuters"];
const KINDS: [&str; 4] = ["solve", "anchored", "size_constrained", "anchored_edge"];

/// Set-ups per run (shard loads plus warm-up queries, about 0.5 s each);
/// `setup_s` is their median.
const SETUPS: usize = 5;

/// An anchored request's anchor is drawn from this many ranks on either
/// side of its degree rank.
const ANCHOR_BAND: usize = 8;

/// One graph a shard can serve.
struct Version {
    path: PathBuf,
    graph: Arc<BipartiteGraph>,
    optimum: usize,
    /// Left and right vertices in increasing order of degree.
    by_degree: [Vec<u32>; 2],
}

impl Version {
    fn new(path: PathBuf, graph: Arc<BipartiteGraph>, optimum: usize) -> Version {
        let ranked = |count: usize, side: fn(u32) -> Vertex| {
            let mut ids: Vec<u32> = (0..count as u32).collect();
            ids.sort_by_key(|&v| (graph.degree(side(v)), v));
            ids
        };
        let by_degree = [
            ranked(graph.num_left(), Vertex::left),
            ranked(graph.num_right(), Vertex::right),
        ];
        Version {
            path,
            graph,
            optimum,
            by_degree,
        }
    }
}

/// A shard and the graphs its reloads alternate between.
struct Shard {
    name: String,
    versions: Vec<Version>,
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Solve,
    Anchored(Vertex),
    SizeConstrained(usize, usize),
    AnchoredEdge(u32, u32),
}

impl Kind {
    fn index(self) -> usize {
        match self {
            Kind::Solve => 0,
            Kind::Anchored(_) => 1,
            Kind::SizeConstrained(..) => 2,
            Kind::AnchoredEdge(..) => 3,
        }
    }
}

enum Planned {
    Request {
        shard: usize,
        version: usize,
        kind: Kind,
        deadline_ms: Option<u64>,
    },
    Reload {
        shard: usize,
    },
    Control,
}

/// One line of a schedule: when it is due (from the schedule start), its
/// wire text, and what it asks for.
struct Line {
    due: Duration,
    text: String,
    planned: Planned,
}

/// Draws one request of kind index `kind` against `version`'s graph.
/// An anchor is a uniform vertex (hubs, whose searches run to the
/// deadline, stay rare): `sequence` draws its side and degree rank, and
/// `rng` the vertex among the [`ANCHOR_BAND`] ranks on either side, so
/// every seed asks about vertices of the same degrees. With the anchor
/// drawn by `rng` alone, the number of searches that ran to their
/// deadline went from 26 to 54 between seeds and moved mean latency with
/// it. `(a, b)` stays within a third of the optimum, and `anchored_edge`
/// takes a uniform vertex pair — usually absent, so it exposes
/// per-request overhead rather than solver work.
fn draw(kind: usize, version: &Version, sequence: &mut StdRng, rng: &mut StdRng) -> Kind {
    let graph = &version.graph;
    let left = |rng: &mut StdRng| rng.gen_range(0..graph.num_left() as u32);
    let right = |rng: &mut StdRng| rng.gen_range(0..graph.num_right() as u32);
    match kind {
        0 => Kind::Solve,
        1 => {
            let side: usize = sequence.gen_range(0..2);
            let ranked = &version.by_degree[side];
            let rank = sequence.gen_range(0..ranked.len());
            let near =
                rank.saturating_sub(ANCHOR_BAND)..=(rank + ANCHOR_BAND).min(ranked.len() - 1);
            let anchor = ranked[rng.gen_range(near)];
            Kind::Anchored(if side == 0 {
                Vertex::left(anchor)
            } else {
                Vertex::right(anchor)
            })
        }
        2 => {
            let hi = (version.optimum / 3).max(2);
            Kind::SizeConstrained(rng.gen_range(2..=hi), rng.gen_range(2..=hi))
        }
        _ => Kind::AnchoredEdge(left(rng), right(rng)),
    }
}

fn request_text(id: u64, shard: &str, kind: Kind, deadline_ms: Option<u64>) -> String {
    let mut text = format!(
        "{{\"id\": {id}, \"graph\": \"{shard}\", \"kind\": \"{}\"",
        KINDS[kind.index()]
    );
    let _ = match kind {
        Kind::Solve => Ok(()),
        Kind::Anchored(v) => {
            let side = if v.side == Side::Left {
                "left"
            } else {
                "right"
            };
            write!(text, ", \"side\": \"{side}\", \"vertex\": {}", v.index + 1)
        }
        Kind::SizeConstrained(a, b) => write!(text, ", \"a\": {a}, \"b\": {b}"),
        Kind::AnchoredEdge(u, v) => write!(text, ", \"u\": {}, \"v\": {}", u + 1, v + 1),
    };
    if let Some(ms) = deadline_ms {
        let _ = write!(text, ", \"deadline_ms\": {ms}");
    }
    text.push('}');
    text
}

struct Builder<'a> {
    shards: &'a [Shard],
    versions: Vec<usize>,
    lines: Vec<Line>,
    next_id: u64,
}

impl Builder<'_> {
    fn request(&mut self, due: Duration, shard: usize, kind: Kind, deadline_ms: Option<u64>) {
        self.next_id += 1;
        let text = request_text(self.next_id, &self.shards[shard].name, kind, deadline_ms);
        self.lines.push(Line {
            due,
            text,
            planned: Planned::Request {
                shard,
                version: self.versions[shard],
                kind,
                deadline_ms,
            },
        });
    }

    fn reload(&mut self, due: Duration, shard: usize) {
        let count = self.shards[shard].versions.len();
        self.versions[shard] = (self.versions[shard] + 1) % count;
        let version = &self.shards[shard].versions[self.versions[shard]];
        let text = format!(
            "{{\"control\": \"reload\", \"graph\": \"{}\", \"source\": \"{}\"}}",
            self.shards[shard].name,
            version.path.display()
        );
        self.lines.push(Line {
            due,
            text,
            planned: Planned::Reload { shard },
        });
    }

    fn control(&mut self, due: Duration, verb: &str) {
        self.lines.push(Line {
            due,
            text: format!("{{\"control\": \"{verb}\"}}"),
            planned: Planned::Control,
        });
    }
}

/// Kind indices of one block of twenty requests: 10% `solve`, 45%
/// `anchored`, 20% `size_constrained`, 25% `anchored_edge`.
const MIX: [usize; 20] = [0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 3];

/// `seconds × RATE` requests at fixed spacing, in blocks of [`MIX`]
/// shuffled, on uniformly drawn shards; `solve` has a 500 ms deadline,
/// the rest 100 ms. The last shard reloads to its other graph every
/// [`RELOAD_EVERY`] requests; a `stats` line closes the schedule.
///
/// The kind and shard sequence, and each anchor's degree rank, come from
/// a constant seed, so every `--seed` offers the same load at the same
/// moments: queueing delay then tracks the program, not the luck of the
/// draw. The seed picks each anchor among its rank's neighbours and each
/// `(a, b)`.
fn open_loop(shards: &[Shard], seconds: f64, seed: u64) -> Vec<Line> {
    let mut sequence = StdRng::seed_from_u64(0x5e4e_0be0);
    let mut rng = StdRng::seed_from_u64(seed);
    let count = ((seconds * RATE).round() as usize).max(1);
    let gap = Duration::from_secs_f64(1.0 / RATE);
    let mut b = Builder {
        shards,
        versions: vec![0; shards.len()],
        lines: Vec::new(),
        next_id: 0,
    };
    let mut block = MIX;
    for i in 0..count {
        let due = gap * i as u32;
        if i > 0 && i % RELOAD_EVERY == 0 {
            b.reload(due, shards.len() - 1);
        }
        if i % MIX.len() == 0 {
            for j in (1..block.len()).rev() {
                block.swap(j, sequence.gen_range(0..=j));
            }
        }
        let shard = sequence.gen_range(0..shards.len());
        let kind = block[i % MIX.len()];
        let version = &shards[shard].versions[b.versions[shard]];
        let kind = draw(kind, version, &mut sequence, &mut rng);
        let deadline = match kind {
            Kind::Solve => SOLVE_DEADLINE_MS,
            _ => QUERY_DEADLINE_MS,
        };
        b.request(due, shard, kind, Some(deadline));
    }
    b.control(gap * count as u32, "stats");
    b.lines
}

/// The batch workloads' serve probe, for a closed loop with one request
/// outstanding: per graph a cold `solve`, one request of each other kind
/// (100 ms deadlines), a reload of the shard from its own file (a warm
/// fork), and one more `solve`; then `stats`.
fn closed_probe(shards: &[Shard], seed: u64) -> Vec<Line> {
    let mut sequence = StdRng::seed_from_u64(seed ^ 0x5e4e_0be0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = Builder {
        shards,
        versions: vec![0; shards.len()],
        lines: Vec::new(),
        next_id: 0,
    };
    for (shard, served) in shards.iter().enumerate() {
        b.request(Duration::ZERO, shard, Kind::Solve, None);
        for kind in 1..KINDS.len() {
            let kind = draw(kind, &served.versions[0], &mut sequence, &mut rng);
            b.request(Duration::ZERO, shard, kind, Some(QUERY_DEADLINE_MS));
        }
        b.reload(Duration::ZERO, shard);
        b.request(Duration::ZERO, shard, Kind::Solve, None);
    }
    b.control(Duration::ZERO, "stats");
    b.lines
}

/// A closed loop's turnstile: how many requests the sink has answered,
/// and when the last answer arrived.
#[derive(Default)]
struct Gate {
    answered: Mutex<(usize, Option<Instant>)>,
    turn: Condvar,
}

impl Gate {
    fn answer(&self, at: Instant) {
        let mut state = self.answered.lock().expect("gate mutex poisoned");
        state.0 += 1;
        state.1 = Some(at);
        self.turn.notify_all();
    }

    /// Blocks until `released` requests are answered (or a minute passes:
    /// a request that is never answered is reported, not waited on
    /// forever); returns the last answer's instant.
    fn wait(&self, released: usize) -> Option<Instant> {
        let state = self.answered.lock().expect("gate mutex poisoned");
        let (state, _) = self
            .turn
            .wait_timeout_while(state, Duration::from_secs(60), |s| s.0 < released)
            .expect("gate mutex poisoned");
        state.1
    }
}

/// Feeds a schedule to the server's reader. Open loop: each line is
/// released at its due time. Closed loop (`gate`): a line is due once
/// every earlier request has been answered. Records when each line was
/// due and when it was handed over.
struct ScheduleReader<'a> {
    lines: &'a [Line],
    gate: Option<&'a Gate>,
    start: Instant,
    next: usize,
    released: usize,
    buf: Vec<u8>,
    pos: usize,
    due: Vec<Instant>,
    sent: Vec<Instant>,
}

impl Read for ScheduleReader<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(out.len());
        out[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for ScheduleReader<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos == self.buf.len() && self.next < self.lines.len() {
            let line = &self.lines[self.next];
            let due = match self.gate {
                Some(gate) => {
                    let last = gate.wait(self.released);
                    let previous = self.sent.last().copied().unwrap_or(self.start);
                    last.map_or(previous, |at| at.max(previous))
                }
                None => {
                    // Sleep to within a millisecond of the due time, then
                    // spin: a sleep alone overshoots by a scheduler tick,
                    // which would land in every request's latency.
                    let due = self.start + line.due;
                    let early = due.checked_sub(Duration::from_millis(1)).unwrap_or(due);
                    let now = Instant::now();
                    if early > now {
                        std::thread::sleep(early - now);
                    }
                    while Instant::now() < due {
                        std::hint::spin_loop();
                    }
                    due
                }
            };
            if matches!(line.planned, Planned::Request { .. }) {
                self.released += 1;
            }
            self.due.push(due);
            self.sent.push(Instant::now());
            self.buf.clear();
            self.buf.extend_from_slice(line.text.as_bytes());
            self.buf.push(b'\n');
            self.pos = 0;
            self.next += 1;
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

/// What one schedule run measured.
#[derive(Default)]
pub struct ServeRun {
    /// Per request: due time to its final event at the sink.
    latency_ms: Vec<f64>,
    sent: usize,
    ontime: usize,
    completed: usize,
    shed: usize,
    deadline_exceeded: usize,
    rejected: usize,
    queue_wait_ms: Vec<f64>,
    service_ms: [Vec<f64>; 4],
    reload_ms: Vec<f64>,
    first_solve_ms: Vec<f64>,
    gen_lag_ms: Vec<f64>,
    queue_depth_end: usize,
    index_reuse_hits: u64,
    /// First request due to the last event, seconds.
    makespan_s: f64,
    /// Mean µs per `encode_stream_event` call made inside the sink.
    encode_us: f64,
    lines: Vec<String>,
}

/// Checks one response payload against the graph it was bound to.
fn validate(
    kind: Kind,
    outcome: &QueryOutcome,
    complete: bool,
    version: &Version,
) -> Result<(), String> {
    let graph = &*version.graph;
    match (kind, outcome) {
        (Kind::Solve, QueryOutcome::Solve(b)) => {
            if !b.is_valid(graph) {
                return Err("solve: invalid biclique".into());
            }
            if complete && b.half_size() != version.optimum {
                return Err(format!(
                    "solve: optimum {} != reference {}",
                    b.half_size(),
                    version.optimum
                ));
            }
        }
        (Kind::Anchored(anchor), QueryOutcome::Anchored(b)) => {
            let side = match anchor.side {
                Side::Left => &b.left,
                Side::Right => &b.right,
            };
            if !b.is_empty() && (!b.is_valid(graph) || !side.contains(&anchor.index)) {
                return Err("anchored: invalid biclique or anchor missing".into());
            }
            if complete && b.is_empty() && graph.degree(anchor) > 0 {
                return Err("anchored: empty answer for a connected anchor".into());
            }
        }
        (Kind::SizeConstrained(a, want_b), QueryOutcome::SizeConstrained(found)) => match found {
            Some(w)
                if w.left.len() < a
                    || w.right.len() < want_b
                    || !graph.is_biclique(&w.left, &w.right) =>
            {
                return Err("size_constrained: invalid witness".into());
            }
            None if complete => return Err("size_constrained: no witness below the optimum".into()),
            _ => {}
        },
        (Kind::AnchoredEdge(u, v), QueryOutcome::AnchoredEdge(found)) => match found {
            Some(b) if !b.is_valid(graph) || !b.left.contains(&u) || !b.right.contains(&v) => {
                return Err("anchored_edge: invalid biclique or edge missing".into());
            }
            Some(_) if !graph.has_edge(u, v) => {
                return Err("anchored_edge: answer for an absent edge".into())
            }
            None if complete && graph.has_edge(u, v) => {
                return Err("anchored_edge: no answer for a present edge".into())
            }
            _ => {}
        },
        (_, QueryOutcome::Rejected { reason }) => return Err(format!("rejected: {reason}")),
        _ => return Err("response kind does not match the request".into()),
    }
    Ok(())
}

/// Runs `lines` through `server.serve_with` and checks every answer.
/// `closed` sends each line only after every earlier request has been
/// answered; `encode` wire-encodes every event inside the sink, timed.
fn run_schedule(
    server: &StreamServer,
    shards: &[Shard],
    lines: &[Line],
    closed: bool,
    encode: bool,
    report: &mut Report,
) -> ServeRun {
    let events: Mutex<Vec<(Instant, StreamEvent)>> = Mutex::new(Vec::new());
    let encode_nanos = AtomicU64::new(0);
    let encode_calls = AtomicU64::new(0);
    let gate = Gate::default();
    let mut reader = ScheduleReader {
        lines,
        gate: closed.then_some(&gate),
        start: Instant::now(),
        next: 0,
        released: 0,
        buf: Vec::new(),
        pos: 0,
        due: Vec::with_capacity(lines.len()),
        sent: Vec::with_capacity(lines.len()),
    };
    let stats = server.serve_with(&mut reader, |event| {
        let at = Instant::now();
        if encode {
            black_box(encode_stream_event(black_box(&event)));
            // relaxed: benchmark-local tallies read after serve_with joins
            // its workers.
            encode_nanos.fetch_add(at.elapsed().as_nanos() as u64, Ordering::Relaxed);
            encode_calls.fetch_add(1, Ordering::Relaxed);
        }
        let answers = matches!(
            event,
            StreamEvent::Response(_) | StreamEvent::Shed { .. } | StreamEvent::ParseError { .. }
        );
        events
            .lock()
            .expect("sink mutex poisoned")
            .push((at, event));
        if answers {
            gate.answer(at);
        }
    });
    let events = events.into_inner().expect("sink mutex poisoned");
    let start = reader.start;
    let (due, sent) = (reader.due, reader.sent);

    let mut run = ServeRun {
        lines: lines.iter().map(|l| l.text.clone()).collect(),
        index_reuse_hits: stats.index_reuse_hits,
        // How late the generator handed each line over: against the
        // schedule (open loop), or against the previous answer (closed).
        gen_lag_ms: due.iter().zip(&sent).map(|(&d, &s)| ms(s - d)).collect(),
        ..ServeRun::default()
    };
    let calls = encode_calls.into_inner();
    run.encode_us = encode_nanos.into_inner() as f64 / 1e3 / calls.max(1) as f64;

    // Request ids are issued in schedule order, from 1.
    let request_lines: Vec<usize> = (0..lines.len())
        .filter(|&i| matches!(lines[i].planned, Planned::Request { .. }))
        .collect();
    let reload_lines: Vec<usize> = (0..lines.len())
        .filter(|&i| matches!(lines[i].planned, Planned::Reload { .. }))
        .collect();
    run.sent = request_lines.len();
    let mut answered = vec![false; request_lines.len()];
    let mut service_by_id = vec![None; request_lines.len()];
    let mut acks = 0usize;
    let mut last = start;
    for (at, event) in &events {
        last = last.max(*at);
        match event {
            StreamEvent::Response(response) => {
                let Some(&line) = request_lines.get((response.id as usize).wrapping_sub(1)) else {
                    report.error(format!("response for unknown id {}", response.id));
                    continue;
                };
                let Planned::Request {
                    shard,
                    version,
                    kind,
                    deadline_ms,
                } = lines[line].planned
                else {
                    continue;
                };
                let index = response.id as usize - 1;
                answered[index] = true;
                let latency = ms(*at - due[line]);
                run.latency_ms.push(latency);
                let complete = response.termination.is_complete();
                if let Err(e) = validate(
                    kind,
                    &response.outcome,
                    complete,
                    &shards[shard].versions[version],
                ) {
                    report.error(format!("request {}: {e}", response.id));
                }
                if response.outcome.is_rejected() {
                    run.rejected += 1;
                    continue;
                }
                if response.termination == Termination::DeadlineExceeded {
                    run.deadline_exceeded += 1;
                }
                if complete {
                    run.completed += 1;
                    if deadline_ms.is_none_or(|d| latency <= d as f64) {
                        run.ontime += 1;
                    }
                }
                run.queue_wait_ms.push(ms(response.queue_wait));
                run.service_ms[kind.index()].push(ms(response.service));
                service_by_id[index] = Some(ms(response.service));
            }
            StreamEvent::Shed { id, .. } => {
                match request_lines.get((*id as usize).wrapping_sub(1)) {
                    Some(&line) => {
                        answered[*id as usize - 1] = true;
                        run.latency_ms.push(ms(*at - due[line]));
                    }
                    None => report.error(format!("shed event for unknown id {id}")),
                }
                run.shed += 1;
            }
            StreamEvent::ReloadAck { graph, result } => {
                match (reload_lines.get(acks), result) {
                    (Some(&line), Ok(_)) => run.reload_ms.push(ms(*at - due[line])),
                    (_, Err(e)) => report.error(format!("reload of {graph} failed: {e}")),
                    (None, Ok(_)) => report.error("unexpected reload ack"),
                }
                acks += 1;
            }
            StreamEvent::Stats(s) => run.queue_depth_end = s.queue_depth,
            StreamEvent::Drained { .. } | StreamEvent::Metrics(_) => {}
            StreamEvent::ParseError { line, message } => {
                report.error(format!("schedule line {line} did not parse: {message}"))
            }
            StreamEvent::Disconnected { id, .. } => {
                report.error(format!("request {id} disconnected"))
            }
        }
    }
    if let Some(missing) = answered.iter().position(|&a| !a) {
        report.error(format!("request {} never answered", missing + 1));
    }
    if stats.queue_depth != 0 {
        report.error(format!(
            "queue depth {} after the final drain",
            stats.queue_depth
        ));
    }
    // The first solve on each reloaded shard rebuilds its session order.
    for &r in &reload_lines {
        let Planned::Reload { shard: reloaded } = lines[r].planned else {
            continue;
        };
        let first = request_lines.iter().enumerate().find(|&(_, &line)| {
            line > r && matches!(lines[line].planned, Planned::Request { shard, kind: Kind::Solve, .. } if shard == reloaded)
        });
        if let Some(service) = first.and_then(|(index, _)| service_by_id[index]) {
            run.first_solve_ms.push(service);
        }
    }
    if let Some(&first_request) = request_lines.first() {
        run.makespan_s = (last - due[first_request]).as_secs_f64();
    }
    report.attempted += run.sent as u64;
    run
}

/// Loads every shard's first graph into a fleet and, when `warm`, runs the
/// warm-up queries that build each session's order (`solve`) and two-hop
/// index (the second `anchored` query builds it; a 1 ms deadline keeps
/// the searches themselves out of set-up).
fn build_server(shards: &[Shard], warm: bool) -> Result<StreamServer, String> {
    let store = GraphStore::new();
    let mut fleet = ShardedFleet::new();
    for shard in shards {
        let path = &shard.versions[0].path;
        let spec = path.to_str().ok_or("non-UTF-8 input path")?;
        fleet
            .add_shard_from_store(shard.name.clone(), &store, spec)
            .map_err(|e| e.to_string())?;
    }
    if warm {
        for i in 0..fleet.len() {
            let engine = fleet.engine(i);
            black_box(engine.solve());
            let edge = engine.graph().edges().next();
            if let Some((u, v)) = edge {
                let probe = || engine.query().deadline(Duration::from_millis(1));
                black_box(probe().anchored(Vertex::left(u)));
                black_box(probe().anchored(Vertex::right(v)));
            }
        }
    }
    Ok(StreamServer::new(fleet, StreamConfig::default()).with_store(GraphStore::new()))
}

fn describe(run: &ServeRun) -> String {
    let counts: Vec<String> = KINDS
        .iter()
        .zip(&run.service_ms)
        .map(|(k, v)| format!("{k}={}", v.len()))
        .collect();
    let max = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
    let busy: f64 = run.service_ms.iter().flatten().sum::<f64>() / 1e3;
    format!(
        "sent {} completed {} on-time {} shed {} deadline-exceeded {} rejected {}; \
         latency samples {} (p50 {:.3} ms, mean {:.3} ms, p99 {:.3} ms); worker busy \
         {:.1}%; per-kind service samples [{}]; reloads {} (median {:.3} ms, \
         max {:.3} ms); first solves after reload {} (median {:.3} ms, max {:.3} ms); \
         queue depth at end of schedule {}; generator lag max {:.3} ms",
        run.sent,
        run.completed,
        run.ontime,
        run.shed,
        run.deadline_exceeded,
        run.rejected,
        run.latency_ms.len(),
        percentile(&run.latency_ms, 50.0),
        mean(&run.latency_ms),
        percentile(&run.latency_ms, 99.0),
        100.0 * busy / run.makespan_s.max(f64::MIN_POSITIVE),
        counts.join(" "),
        run.reload_ms.len(),
        median(&run.reload_ms),
        max(&run.reload_ms),
        run.first_solve_ms.len(),
        median(&run.first_solve_ms),
        max(&run.first_solve_ms),
        run.queue_depth_end,
        max(&run.gen_lag_ms)
    )
}

/// The serve-layer per-layer metrics of one schedule run.
pub fn serve_layer_metrics(report: &mut Report, run: &ServeRun) {
    // Parsing runs inside the server's reader; it is timed here over the
    // same lines. Encoding was timed inside the sink.
    let (parse_us, _) = wire_us(&run.lines, &[]);
    report.metric("serve.parse_us", parse_us, "us");
    report.metric("serve.encode_us", run.encode_us, "us");
    report.metric(
        "serve.queue_wait_p50_ms",
        percentile(&run.queue_wait_ms, 50.0),
        "ms",
    );
    report.metric(
        "serve.queue_wait_p99_ms",
        percentile(&run.queue_wait_ms, 99.0),
        "ms",
    );
    for (kind, service) in KINDS.iter().zip(&run.service_ms) {
        report.metric(
            format!("serve.service_p50_ms.{kind}"),
            percentile(service, 50.0),
            "ms",
        );
        report.metric(
            format!("serve.service_p99_ms.{kind}"),
            percentile(service, 99.0),
            "ms",
        );
    }
    report.metric("serve.reload_ms", median(&run.reload_ms), "ms");
    report.metric("serve.first_solve_ms", median(&run.first_solve_ms), "ms");
    report.metric("serve.sent", run.sent as f64, "count");
    report.metric("serve.completed", run.completed as f64, "count");
    report.metric("serve.shed", run.shed as f64, "count");
    report.metric(
        "serve.deadline_exceeded",
        run.deadline_exceeded as f64,
        "count",
    );
    report.metric("serve.rejected", run.rejected as f64, "count");
    report.metric(
        "serve.index_reuse_hits",
        run.index_reuse_hits as f64,
        "count",
    );
    report.metric("serve.queue_depth_end", run.queue_depth_end as f64, "count");
    report.metric("serve.gen_lag_ms", percentile(&run.gen_lag_ms, 99.0), "ms");
    report.note(describe(run));
}

/// The batch workloads' serve probe: every input graph becomes a cold
/// shard and receives the closed probe schedule, encoded in the sink.
pub fn probe(inputs: &[Input], seed: u64, report: &mut Report) -> Result<ServeRun, String> {
    let store = GraphStore::new();
    let mut shards = Vec::new();
    for input in inputs {
        shards.push(Shard {
            name: input.name.clone(),
            versions: vec![Version::new(
                input.path.clone(),
                load(&store, &input.path)?,
                input.reference.solve.optimum,
            )],
        });
    }
    let server = build_server(&shards, false)?;
    let lines = closed_probe(&shards, seed);
    Ok(run_schedule(&server, &shards, &lines, true, true, report))
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let table = ReferenceTable::recorded();
    // The served dataset is fixed — sparse set 0's stand-ins, the
    // reloading shard alternating with set 1's — because queueing delay
    // amplifies any change in per-request cost: with shards redrawn per
    // seed, the median latency moved more between seeds than any change
    // worth detecting. The seed draws the traffic.
    let pool = 0;
    let mut report = Report::default();
    let mut shards = Vec::new();
    let mut inputs = Vec::new();
    for (i, name) in SHARDS.iter().enumerate() {
        let pools: &[u64] = if i + 1 == SHARDS.len() {
            &[pool, pool + 1]
        } else {
            &[pool]
        };
        let mut versions = Vec::new();
        for &p in pools {
            let graph = sparse_graph(name, p).ok_or_else(|| format!("unknown stand-in {name}"))?;
            let path = graph_path(Set::Sparse, p, name);
            write_graph(&graph, &path).map_err(|e| format!("{}: {e}", path.display()))?;
            let reference = table
                .get(Set::Sparse, p, name)
                .ok_or_else(|| format!("no reference row for sparse p{p} {name}"))?
                .clone();
            versions.push(Version::new(
                path.clone(),
                Arc::new(graph),
                reference.solve.optimum,
            ));
            inputs.push(Input {
                name: format!("{name}@p{p}"),
                path,
                reference,
            });
        }
        shards.push(Shard {
            name: name.to_string(),
            versions,
        });
    }

    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..SETUPS {
        drop(server.take());
        let start = Instant::now();
        server = Some(build_server(&shards, true)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let server = server.expect("at least one set-up");
    report.note(format!(
        "shards {SHARDS:?} from sparse set p{pool}; set-up {setups:?} s"
    ));
    let lines = open_loop(&shards, seconds, seed);
    let untraced = run_schedule(&server, &shards, &lines, false, false, &mut report);
    drop(server);

    if !trace {
        report.note(describe(&untraced));
        report.metric("wall_s", untraced.makespan_s, "s");
        report.metric("peak_rss_mb", status_mb("VmHWM"), "MB");
        report.metric("setup_s", median(&setups), "s");
        report.metric("mean_ms", mean(&untraced.latency_ms), "ms");
        report.metric("p99_ms", percentile(&untraced.latency_ms, 99.0), "ms");
        report.metric(
            "ontime_pct",
            100.0 * untraced.ontime as f64 / untraced.sent as f64,
            "%",
        );
        return Ok(report);
    }

    // Traced: the same schedule again on a fresh warm fleet, with every
    // event encoded in the sink; then the staged chain over the graphs
    // the shards serve.
    let server = build_server(&shards, true)?;
    let traced = run_schedule(&server, &shards, &lines, false, true, &mut report);
    drop(server);
    let store = GraphStore::new();
    let mut expected = Vec::new();
    for input in &inputs {
        let (_, record, valid) = cold_query(&store, &input.path)?;
        if !valid || record.optimum != input.reference.solve.optimum {
            report.error(format!(
                "{}: cold solve disagrees with the reference",
                input.name
            ));
        }
        expected.push(record);
    }
    let (pass, graphs) = staged_pass(&store, &inputs, &expected, &mut report)?;
    layer_metrics(&mut report, &[pass], &graphs);
    serve_layer_metrics(&mut report, &traced);
    let base = mean(&untraced.latency_ms);
    report.metric(
        "trace_overhead_pct",
        100.0 * (mean(&traced.latency_ms) - base) / base,
        "%",
    );
    Ok(report)
}

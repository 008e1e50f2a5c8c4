//! The traced run's view of the program: the engine's Algorithm 4 chain
//! called one public stage function at a time, plus the extra per-layer
//! probes (core decomposition, two-hop index, bitset kernels, wire
//! parse/encode). Every timer here is the benchmark's own; the program
//! runs with its span collector off.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mbb_bigraph::bicore::bicore_decomposition;
use mbb_bigraph::core_decomp::core_decomposition;
use mbb_bigraph::graph::BipartiteGraph;
use mbb_bigraph::kernels;
use mbb_bigraph::subgraph::project_order;
use mbb_bigraph::two_hop::TwoHopIndex;
use mbb_core::bridge::{bridge_mbb_budgeted, BridgeConfig};
use mbb_core::budget::SearchBudget;
use mbb_core::dense::DenseConfig;
use mbb_core::heuristic::{hmbb, map_to_parent};
use mbb_core::verify::{verify_mbb_budgeted, VerifyConfig};
use mbb_core::{Biclique, MbbEngine, QueryResult, SolverConfig, Stage};
use mbb_serve::jsonl::{encode_stream_event, parse_stream_line};
use mbb_serve::StreamEvent;
use mbb_store::GraphStore;

use crate::inputs::SolveRecord;
use crate::stats::{reset_peak_rss, status_mb};

fn stage_number(stage: Stage) -> u8 {
    match stage {
        Stage::S1 => 1,
        Stage::S2 => 2,
        Stage::S3 => 3,
    }
}

pub fn solve_record(result: &QueryResult<Biclique>) -> SolveRecord {
    SolveRecord {
        optimum: result.value.half_size(),
        stage: stage_number(result.stats.stage),
        search_nodes: result.stats.search.nodes,
        poly_solves: result.stats.search.poly_solves,
        generated: result.stats.subgraphs_generated,
        verified: result.stats.subgraphs_verified,
    }
}

/// Loads a `.mbbg` file through the store the CLI uses.
pub fn load(store: &GraphStore, path: &Path) -> Result<Arc<BipartiteGraph>, String> {
    let spec = path.to_str().ok_or("non-UTF-8 input path")?;
    store
        .load(spec)
        .map(|loaded| loaded.graph)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// One cold query — `GraphStore::load`, a fresh `MbbEngine`, `solve()` —
/// timed end to end. Returns the time, the solve record, and whether the
/// returned biclique is valid on its graph.
pub fn cold_query(
    store: &GraphStore,
    path: &Path,
) -> Result<(Duration, SolveRecord, bool), String> {
    let start = Instant::now();
    let graph = load(store, path)?;
    let engine = MbbEngine::from_arc(graph, SolverConfig::default());
    let result = engine.solve();
    let elapsed = start.elapsed();
    let valid = result.value.is_valid(engine.graph());
    Ok((elapsed, solve_record(&result), valid))
}

/// Per-layer times of one graph's staged solve.
#[derive(Debug, Clone, Copy, Default)]
pub struct StagedTimes {
    pub load: Duration,
    pub bicore: Duration,
    pub rank: Duration,
    pub heuristic: Duration,
    pub bridge: Duration,
    pub verify: Duration,
    /// Peak-RSS growth across the bicore call, MiB.
    pub bicore_peak_mb: f64,
    /// Edges left by the Lemma 4 reduction.
    pub residual_edges: usize,
}

impl StagedTimes {
    /// The chain an untraced `solve()` runs, summed.
    pub fn chain(&self) -> Duration {
        self.load + self.bicore + self.rank + self.heuristic + self.bridge + self.verify
    }
}

/// The cold query of [`cold_query`] rebuilt from the engine's own stage
/// functions, in the engine's order: load, bicore decomposition (the
/// session order), `hmbb`, bridging under the order projected onto the
/// residual, verification. Mirrors `MbbEngine::solve` with the default
/// configuration at one thread.
pub fn staged_query(
    store: &GraphStore,
    path: &Path,
) -> Result<(Biclique, SolveRecord, StagedTimes, Arc<BipartiteGraph>), String> {
    let config = SolverConfig::default();
    let budget = SearchBudget::unlimited();
    let mut times = StagedTimes::default();

    let start = Instant::now();
    let graph = load(store, path)?;
    times.load = start.elapsed();

    let peak_reset = reset_peak_rss();
    let rss_before = status_mb("VmRSS");
    let start = Instant::now();
    let bicore = bicore_decomposition(&graph);
    times.bicore = start.elapsed();
    if peak_reset {
        times.bicore_peak_mb = (status_mb("VmHWM") - rss_before).max(0.0);
    }

    let start = Instant::now();
    let mut rank = vec![0u32; bicore.order.len()];
    for (i, &g) in bicore.order.iter().enumerate() {
        rank[g as usize] = i as u32;
    }
    drop(bicore);
    times.rank = start.elapsed();

    let start = Instant::now();
    let outcome = hmbb(&graph, config.heuristic_seeds, true);
    times.heuristic = start.elapsed();
    times.residual_edges = outcome.reduced.graph.num_edges();
    let mut record = SolveRecord {
        optimum: 0,
        stage: 1,
        search_nodes: 0,
        poly_solves: 0,
        generated: 0,
        verified: 0,
    };
    let reduced = outcome.reduced;
    let mut best = outcome.best;
    if outcome.proven_optimal || reduced.graph.num_left() == 0 || reduced.graph.num_right() == 0 {
        record.optimum = best.half_size();
        return Ok((best, record, times, graph));
    }

    let start = Instant::now();
    let order = project_order(&rank, graph.num_left(), &reduced);
    let placeholder = |half: usize| Biclique {
        left: vec![u32::MAX; half],
        right: vec![u32::MAX; half],
    };
    let bridged = bridge_mbb_budgeted(
        &reduced.graph,
        &order,
        placeholder(best.half_size()),
        BridgeConfig {
            use_core_pruning: true,
            heuristic_seeds: config.heuristic_seeds.min(4),
            threads: config.threads,
        },
        &budget,
    );
    times.bridge = start.elapsed();
    record.stage = 2;
    record.generated = bridged.stats.generated;
    record.verified = bridged.survivors.len();
    if bridged.best.half_size() > best.half_size() {
        best = map_to_parent(&bridged.best, &reduced);
    }
    if bridged.survivors.is_empty() {
        record.optimum = best.half_size();
        return Ok((best, record, times, graph));
    }

    let start = Instant::now();
    let (verified, search) = verify_mbb_budgeted(
        &reduced.graph,
        &bridged.survivors,
        placeholder(best.half_size()),
        VerifyConfig {
            use_core_reduction: true,
            dense: DenseConfig::default(),
            threads: config.threads,
            mode: config.parallel_mode,
        },
        &budget,
    );
    times.verify = start.elapsed();
    if verified.half_size() > best.half_size() {
        best = map_to_parent(&verified, &reduced);
    }
    record.stage = 3;
    record.search_nodes = search.nodes;
    record.poly_solves = search.poly_solves;
    record.optimum = best.half_size();
    Ok((best, record, times, graph))
}

/// Time of the standalone layer calls the chain does not make directly:
/// `core_decomposition` (which `hmbb` runs inside) and
/// `TwoHopIndex::build` (which anchored serving builds).
pub fn side_layers(graph: &BipartiteGraph) -> (Duration, Duration) {
    let start = Instant::now();
    black_box(core_decomposition(black_box(graph)));
    let core = start.elapsed();
    let start = Instant::now();
    black_box(TwoHopIndex::build(black_box(graph)).entries());
    (core, start.elapsed())
}

/// Left-side adjacency rows of `graph` as bitsets over the right side
/// (at most `MAX_ROWS` rows), flattened, with the row width in words.
fn adjacency_rows(graph: &BipartiteGraph) -> (Vec<u64>, usize, usize) {
    const MAX_ROWS: usize = 1024;
    let words = graph.num_right().div_ceil(64).max(1);
    let rows = graph.num_left().min(MAX_ROWS);
    let mut flat = vec![0u64; rows * words];
    for u in 0..rows {
        for &v in graph.neighbors_left(u as u32) {
            flat[u * words + v as usize / 64] |= 1 << (v % 64);
        }
    }
    (flat, words, rows)
}

/// Mean ns per `kernels::and_popcount` and `kernels::first_and` call
/// over consecutive pairs of each graph's own adjacency rows.
pub fn kernel_ns(graphs: &[Arc<BipartiteGraph>]) -> (f64, f64) {
    const CALLS_PER_GRAPH: usize = 200_000;
    let (mut and_time, mut first_time, mut calls) = (Duration::ZERO, Duration::ZERO, 0usize);
    for graph in graphs {
        let (flat, words, rows) = adjacency_rows(graph);
        if rows < 2 {
            continue;
        }
        let row = |i: usize| &flat[(i % rows) * words..(i % rows + 1) * words];
        let mut sink = 0usize;
        let start = Instant::now();
        for i in 0..CALLS_PER_GRAPH {
            sink += kernels::and_popcount(black_box(row(i)), black_box(row(i + 1)));
        }
        and_time += start.elapsed();
        let start = Instant::now();
        for i in 0..CALLS_PER_GRAPH {
            sink += kernels::first_and(black_box(row(i)), black_box(row(i + 1))).unwrap_or(0);
        }
        first_time += start.elapsed();
        black_box(sink);
        calls += CALLS_PER_GRAPH;
    }
    let per_call = |t: Duration| t.as_nanos() as f64 / calls.max(1) as f64;
    (per_call(and_time), per_call(first_time))
}

/// Mean µs per `jsonl::parse_stream_line` over `lines`, and per
/// `jsonl::encode_stream_event` over `events`, each swept until at least
/// `MIN_CALLS` calls.
pub fn wire_us(lines: &[String], events: &[StreamEvent]) -> (f64, f64) {
    const MIN_CALLS: usize = 20_000;
    let sweep = |count: usize, mut call: Box<dyn FnMut(usize) + '_>| {
        if count == 0 {
            return 0.0;
        }
        let rounds = MIN_CALLS.div_ceil(count);
        let start = Instant::now();
        for _ in 0..rounds {
            for i in 0..count {
                call(i);
            }
        }
        start.elapsed().as_secs_f64() * 1e6 / (rounds * count) as f64
    };
    let parse = sweep(
        lines.len(),
        Box::new(|i| {
            black_box(parse_stream_line(black_box(&lines[i]), i + 1).is_ok());
        }),
    );
    let encode = sweep(
        events.len(),
        Box::new(|i| {
            black_box(encode_stream_event(black_box(&events[i])));
        }),
    );
    (parse, encode)
}

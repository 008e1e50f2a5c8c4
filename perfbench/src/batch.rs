//! The batch workloads, `sparse-cold` and `dense-verify`: a fixed set of
//! graphs, each answered by one cold query per pass.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mbb_bigraph::graph::BipartiteGraph;
use mbb_store::GraphStore;

use crate::inputs::{
    generate, graph_path, pool_index, write_graph, Reference, ReferenceTable, Set, SolveRecord,
};
use crate::layers::{cold_query, kernel_ns, side_layers, staged_query, StagedTimes};
use crate::serve;
use crate::stats::{mean, median, ms, percentile, status_mb, Report};

/// Set-ups per run; `setup_s` is their median. A batch set-up takes 1 ms
/// (dense) to 40 ms (sparse), and with five of them the median of a
/// dense run ranged over 0.7–2 ms between runs.
const SETUPS: usize = 15;

/// How many times a run measures its slowest query, at least.
const TAIL_SAMPLES: usize = 5;

/// A query's latency: its best time over the run. Interference from other
/// tenants of the machine only ever adds time and comes in bursts that
/// slowed single passes by up to 2x, so the minimum is the estimate that
/// repeats across runs; the query set's time is the sum.
fn best(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Index of the query with the largest best time so far.
fn slowest(per_query: &[Vec<f64>]) -> usize {
    (0..per_query.len())
        .max_by(|&a, &b| best(&per_query[a]).total_cmp(&best(&per_query[b])))
        .unwrap_or(0)
}

/// One workload graph: its name, `.mbbg` path and recorded reference.
pub struct Input {
    pub name: String,
    pub path: PathBuf,
    pub reference: Reference,
}

/// Generates the workload's graphs and writes their `.mbbg` files,
/// [`SETUPS`] times; returns the inputs and each set-up's seconds.
fn set_up(set: Set, pool: u64, table: &ReferenceTable) -> Result<(Vec<Input>, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut inputs = Vec::new();
    for _ in 0..SETUPS {
        let start = Instant::now();
        inputs.clear();
        for (name, graph) in generate(set, pool, table) {
            let path = graph_path(set, pool, &name);
            write_graph(&graph, &path).map_err(|e| format!("{}: {e}", path.display()))?;
            let reference = table
                .get(set, pool, &name)
                .ok_or_else(|| format!("no reference row for {} p{pool} {name}", set.label()))?
                .clone();
            inputs.push(Input {
                name,
                path,
                reference,
            });
        }
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((inputs, times))
}

/// Checks one answer against the graph's reference and the first pass.
fn check(
    report: &mut Report,
    input: &Input,
    record: &SolveRecord,
    valid: bool,
    first: Option<&SolveRecord>,
) {
    if !valid {
        report.error(format!("{}: returned biclique is not valid", input.name));
    }
    if record.optimum != input.reference.solve.optimum {
        report.error(format!(
            "{}: optimum {} != reference {}",
            input.name, record.optimum, input.reference.solve.optimum
        ));
    }
    if let Some(first) = first {
        if first != record {
            report.error(format!(
                "{}: solve counters drifted between passes at one thread: {first:?} vs {record:?}",
                input.name
            ));
        }
    }
}

/// One untraced pass: each input answered by one cold query.
fn cold_pass(
    store: &GraphStore,
    inputs: &[Input],
    report: &mut Report,
    first: Option<&[SolveRecord]>,
) -> Result<(f64, Vec<f64>, Vec<SolveRecord>), String> {
    let mut times = Vec::with_capacity(inputs.len());
    let mut records = Vec::with_capacity(inputs.len());
    for (i, input) in inputs.iter().enumerate() {
        let (elapsed, record, valid) = cold_query(store, &input.path)?;
        check(report, input, &record, valid, first.map(|f| &f[i]));
        times.push(ms(elapsed));
        records.push(record);
    }
    report.attempted += inputs.len() as u64;
    Ok((times.iter().sum::<f64>() / 1e3, times, records))
}

pub fn run(set: Set, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let table = ReferenceTable::recorded();
    let pool = pool_index(seed);
    let (inputs, setup_times) = set_up(set, pool, &table)?;
    let mut report = Report::default();
    report.note(format!(
        "{} set p{pool}: {} graphs; set-up {:?} s",
        set.label(),
        inputs.len(),
        setup_times
    ));
    if trace {
        traced(&inputs, seed, seconds, &mut report)?;
        return Ok(report);
    }

    let store = GraphStore::new();
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut per_query: Vec<Vec<f64>> = vec![Vec::new(); inputs.len()];
    let mut first: Option<Vec<SolveRecord>> = None;
    // At least three passes, so every query has a best-of-three and the
    // determinism guard something to compare; then as many as fit in the
    // measuring window. From the second pass on, the query that is slowest
    // so far is answered once more after each pass until it has
    // `TAIL_SAMPLES` times: `p99_ms` rests on that one query, while the
    // sums average over all of them.
    loop {
        let (wall, times, records) = cold_pass(&store, &inputs, &mut report, first.as_deref())?;
        walls.push(wall);
        for (samples, t) in per_query.iter_mut().zip(times) {
            samples.push(t);
        }
        let first = &*first.get_or_insert(records);
        let tail = slowest(&per_query);
        if walls.len() > 1 && per_query[tail].len() < TAIL_SAMPLES {
            let (elapsed, record, valid) = cold_query(&store, &inputs[tail].path)?;
            check(
                &mut report,
                &inputs[tail],
                &record,
                valid,
                Some(&first[tail]),
            );
            report.attempted += 1;
            per_query[tail].push(ms(elapsed));
        }
        let sampled = per_query[slowest(&per_query)].len() >= TAIL_SAMPLES;
        if walls.len() >= 3 && sampled && start.elapsed().as_secs_f64() + wall > seconds {
            break;
        }
    }
    let latency: Vec<f64> = per_query.iter().map(|samples| best(samples)).collect();
    report.note(format!(
        "passes: {walls:?} s; {} queries × {} passes",
        inputs.len(),
        walls.len()
    ));
    let tail = slowest(&per_query);
    report.note(format!(
        "slowest query {}: samples {:?} ms",
        inputs[tail].name, per_query[tail]
    ));
    report.metric("wall_s", latency.iter().sum::<f64>() / 1e3, "s");
    report.metric("peak_rss_mb", status_mb("VmHWM"), "MB");
    report.metric("setup_s", median(&setup_times), "s");
    report.note(format!(
        "per-query p50 {:.3} ms",
        percentile(&latency, 50.0)
    ));
    report.metric("mean_ms", mean(&latency), "ms");
    report.metric("p99_ms", percentile(&latency, 99.0), "ms");
    Ok(report)
}

/// Layer totals of one staged pass over the inputs.
#[derive(Default)]
pub struct LayerPass {
    pub times: Vec<StagedTimes>,
    pub records: Vec<SolveRecord>,
    pub core: Duration,
    pub two_hop: Duration,
}

impl LayerPass {
    fn sum(&self, f: impl Fn(&StagedTimes) -> Duration) -> f64 {
        ms(self.times.iter().map(f).sum())
    }
}

/// Runs the staged chain over `inputs`, checking each answer against the
/// untraced cold query's record (`expected`) — the traced run must
/// describe the same program.
pub fn staged_pass(
    store: &GraphStore,
    inputs: &[Input],
    expected: &[SolveRecord],
    report: &mut Report,
) -> Result<(LayerPass, Vec<Arc<BipartiteGraph>>), String> {
    let mut pass = LayerPass::default();
    let mut graphs = Vec::new();
    for (input, expected) in inputs.iter().zip(expected) {
        let (biclique, record, times, graph) = staged_query(store, &input.path)?;
        if !biclique.is_valid(&graph) {
            report.error(format!("{}: staged biclique is not valid", input.name));
        }
        if record != *expected {
            report.error(format!(
                "{}: staged calls do not reproduce solve(): {record:?} vs {expected:?}",
                input.name
            ));
        }
        let (core, two_hop) = side_layers(&graph);
        pass.core += core;
        pass.two_hop += two_hop;
        pass.times.push(times);
        pass.records.push(record);
        graphs.push(graph);
    }
    Ok((pass, graphs))
}

/// Emits the store, bigraph and core per-layer metrics (medians over
/// the staged passes) plus the kernel probes.
pub fn layer_metrics(report: &mut Report, passes: &[LayerPass], graphs: &[Arc<BipartiteGraph>]) {
    let med = |f: &dyn Fn(&LayerPass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    report.metric("store.load_ms", med(&|p| p.sum(|t| t.load)), "ms");
    report.metric("bigraph.core_ms", med(&|p| ms(p.core)), "ms");
    report.metric("bigraph.bicore_ms", med(&|p| p.sum(|t| t.bicore)), "ms");
    report.metric(
        "bigraph.bicore_peak_mb",
        med(&|p| p.times.iter().map(|t| t.bicore_peak_mb).fold(0.0, f64::max)),
        "MB",
    );
    report.metric("bigraph.two_hop_ms", med(&|p| ms(p.two_hop)), "ms");
    let (and_ns, first_ns) = kernel_ns(graphs);
    report.metric("kernels.and_popcount_ns", and_ns, "ns");
    report.metric("kernels.first_and_ns", first_ns, "ns");
    let verify_ms = med(&|p| p.sum(|t| t.verify));
    report.metric("core.heuristic_ms", med(&|p| p.sum(|t| t.heuristic)), "ms");
    report.metric("core.bridge_ms", med(&|p| p.sum(|t| t.bridge)), "ms");
    report.metric("core.verify_ms", verify_ms, "ms");
    // The counts are exact and identical in every pass (checked).
    let records = &passes[0].records;
    let total = |f: &dyn Fn(&SolveRecord) -> u64| records.iter().map(f).sum::<u64>();
    let nodes = total(&|r| r.search_nodes);
    let generated = total(&|r| r.generated as u64);
    let verified = total(&|r| r.verified as u64);
    report.metric("core.search_nodes", nodes as f64, "count");
    report.metric(
        "core.poly_solves",
        total(&|r| r.poly_solves) as f64,
        "count",
    );
    report.metric(
        "core.nodes_per_ms",
        if verify_ms > 0.0 {
            nodes as f64 / verify_ms
        } else {
            0.0
        },
        "1/ms",
    );
    report.metric("core.subgraphs_generated", generated as f64, "count");
    report.metric("core.subgraphs_verified", verified as f64, "count");
    report.metric(
        "core.survivor_ratio",
        if generated > 0 {
            verified as f64 / generated as f64
        } else {
            0.0
        },
        "ratio",
    );
    for stage in 1..=3u8 {
        let exits = records.iter().filter(|r| r.stage == stage).count();
        report.metric(format!("core.exit_s{stage}"), exits as f64, "count");
    }
    let residual: usize = passes[0].times.iter().map(|t| t.residual_edges).sum();
    report.metric("core.residual_edges", residual as f64, "count");
}

/// The traced run of a batch workload: untraced and staged passes
/// alternate for the measuring window, then the workload's own graphs go
/// through the serve layer once.
fn traced(inputs: &[Input], seed: u64, seconds: f64, report: &mut Report) -> Result<(), String> {
    let store = GraphStore::new();
    let start = Instant::now();
    let mut untraced = Vec::new();
    let mut chains = Vec::new();
    let mut passes = Vec::new();
    let mut graphs = Vec::new();
    let mut first: Option<Vec<SolveRecord>> = None;
    let mut round = 0.0;
    while passes.is_empty() || start.elapsed().as_secs_f64() + round <= seconds {
        let round_start = Instant::now();
        let (wall, _, records) = cold_pass(&store, inputs, report, first.as_deref())?;
        untraced.push(wall);
        let expected = first.get_or_insert(records).clone();
        let (pass, loaded) = staged_pass(&store, inputs, &expected, report)?;
        chains.push(
            pass.times
                .iter()
                .map(StagedTimes::chain)
                .sum::<Duration>()
                .as_secs_f64(),
        );
        passes.push(pass);
        graphs = loaded;
        round = round_start.elapsed().as_secs_f64();
    }
    for (input, record) in inputs.iter().zip(&passes[0].records) {
        if input.reference.solve != *record {
            report.note(format!(
                "{}: counters differ from the recorded reference {:?} (now {record:?})",
                input.name, input.reference.solve
            ));
        }
    }
    report.note(format!(
        "untraced passes {untraced:?} s, staged chains {chains:?} s"
    ));
    layer_metrics(report, &passes, &graphs);
    drop(graphs);
    let probe = serve::probe(inputs, seed, report)?;
    serve::serve_layer_metrics(report, &probe);
    let base = median(&untraced);
    report.metric(
        "trace_overhead_pct",
        100.0 * (median(&chains) - base) / base,
        "%",
    );
    Ok(())
}

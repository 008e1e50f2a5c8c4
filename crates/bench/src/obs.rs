//! The `bench-obs` runner: the observability overhead gate.
//!
//! Measures full end-to-end solves on seeded stand-ins twice — spans
//! **disabled** (the production default: every instrumentation point is
//! one relaxed load) and spans **enabled** (records flowing into the
//! per-thread rings, drained between timed runs) — and reports the
//! relative overhead. [`ObsBenchReport::validate`] enforces the gate:
//! the aggregate enabled-vs-disabled overhead must stay at or below
//! [`MAX_OVERHEAD_PCT`], so a regression that makes instrumentation
//! expensive fails `mbb bench-obs --check` in CI.
//!
//! Timing uses min-of-N wall clocks per mode (the standard robust
//! estimator for "how fast can this go"), with modes interleaved so a
//! frequency-governor drift hits both sides equally.

use std::time::Instant;

use mbb_core::MbbEngine;
use mbb_datasets::{catalog, stand_in, tough_datasets, ScaleCaps};
use mbb_obs as obs;

use crate::report::{ObsBenchReport, ObsOverheadRun, OBS_BENCH_SCHEMA_VERSION};

/// The overhead gate, in percent: enabled-spans solves may cost at most
/// this much more wall clock than disabled-spans solves, in aggregate.
pub const MAX_OVERHEAD_PCT: f64 = 3.0;

/// Options for [`run_obs_bench`].
#[derive(Debug, Clone)]
pub struct ObsBenchOptions {
    /// Base RNG seed for stand-in generation.
    pub seed: u64,
    /// Scale caps for the stand-ins.
    pub caps: ScaleCaps,
    /// Human label for `caps`, recorded in the report.
    pub caps_label: String,
    /// Fewer datasets and repetitions; for CI smoke runs.
    pub quick: bool,
}

impl ObsBenchOptions {
    /// Full-fidelity run at default caps.
    pub fn full(seed: u64) -> ObsBenchOptions {
        ObsBenchOptions {
            seed,
            caps: ScaleCaps::default(),
            caps_label: "default".into(),
            quick: false,
        }
    }

    /// Smoke-test run: small caps, fewer repetitions.
    pub fn quick(seed: u64) -> ObsBenchOptions {
        ObsBenchOptions {
            seed,
            caps: ScaleCaps::small(),
            caps_label: "small".into(),
            quick: true,
        }
    }
}

/// One timed solve; the spans the run recorded are drained (outside the
/// timed region, as the resident collector would) and counted.
fn timed_solve(graph: &mbb_bigraph::BipartiteGraph, spans: &mut u64) -> (f64, u64) {
    let engine = MbbEngine::new(graph.clone());
    let start = Instant::now();
    let result = engine.solve();
    let seconds = start.elapsed().as_secs_f64();
    obs::drain(|_record| *spans += 1);
    (seconds, result.stats.optimum_half as u64)
}

/// Runs the overhead benchmark and returns a validated report.
///
/// Flips the global span switch ([`mbb_obs::enable`]/[`mbb_obs::disable`]);
/// callers in a threaded test harness must serialise against other
/// span-toggling code. Spans are left disabled on return.
pub fn run_obs_bench(opts: &ObsBenchOptions) -> ObsBenchReport {
    let mut specs: Vec<&'static mbb_datasets::DatasetSpec> = tough_datasets()
        .into_iter()
        .take(if opts.quick { 1 } else { 2 })
        .collect();
    specs.extend(catalog().iter().take(if opts.quick { 2 } else { 3 }));
    let reps = if opts.quick { 5 } else { 3 };

    let mut runs = Vec::new();
    for spec in specs {
        let standin = stand_in(spec, opts.caps, opts.seed);
        let mut base_seconds = f64::INFINITY;
        let mut instrumented_seconds = f64::INFINITY;
        let mut base_optimum = 0;
        let mut instrumented_optimum = 0;
        let mut spans_recorded = 0u64;
        // Warm-up solve: page in the stand-in, build nothing persistent
        // (each timed solve constructs its own engine).
        let mut sink = 0u64;
        let _ = timed_solve(&standin.graph, &mut sink);
        for _ in 0..reps {
            obs::disable();
            let (seconds, optimum) = timed_solve(&standin.graph, &mut sink);
            base_seconds = base_seconds.min(seconds);
            base_optimum = optimum;
            obs::enable();
            let (seconds, optimum) = timed_solve(&standin.graph, &mut spans_recorded);
            instrumented_seconds = instrumented_seconds.min(seconds);
            instrumented_optimum = optimum;
        }
        obs::disable();
        runs.push(ObsOverheadRun {
            dataset: spec.name.into(),
            base_seconds,
            instrumented_seconds,
            base_optimum,
            instrumented_optimum,
            spans_recorded,
        });
    }

    let base_total: f64 = runs.iter().map(|r| r.base_seconds).sum();
    let instrumented_total: f64 = runs.iter().map(|r| r.instrumented_seconds).sum();
    let report = ObsBenchReport {
        schema_version: OBS_BENCH_SCHEMA_VERSION,
        seed: opts.seed,
        caps: opts.caps_label.clone(),
        max_overhead_pct: MAX_OVERHEAD_PCT,
        overhead_pct: (instrumented_total - base_total) / base_total * 100.0,
        runs,
    };
    report
        .validate()
        .expect("freshly generated report must validate");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One quick run end to end: the report validates, spans were
    /// actually recorded in the enabled half, and the switch is left
    /// off. Serialised by being the only test in this crate that
    /// touches the global span switch.
    #[test]
    fn quick_obs_bench_produces_a_valid_report() {
        let opts = ObsBenchOptions::quick(42);
        let report = run_obs_bench(&opts);
        assert!(!obs::is_enabled(), "bench must leave spans disabled");
        assert_eq!(report.schema_version, OBS_BENCH_SCHEMA_VERSION);
        assert!(!report.runs.is_empty());
        for run in &report.runs {
            assert_eq!(
                run.base_optimum, run.instrumented_optimum,
                "{}",
                run.dataset
            );
            assert!(
                run.spans_recorded > 0,
                "{}: enabled solves must record spans",
                run.dataset
            );
        }
    }
}

//! `mbb bench-obs` — measure the wall-clock overhead of span
//! instrumentation (enabled vs disabled) and write `BENCH_obs.json`.

use mbb_bench::{run_obs_bench, ObsBenchOptions, ObsBenchReport, ScaleCaps, Table};

use crate::args::{Arg, ArgError, Args};

/// Usage text for the subcommand.
pub const USAGE: &str = "\
usage: mbb bench-obs [--out FILE] [--caps small|default|large]
                     [--seed N] [--quick] [--check FILE]

Times full end-to-end solves on seeded stand-ins twice — with span
recording disabled (the production default) and enabled (records
flowing into the per-thread rings) — and reports the relative overhead.
The report embeds its gate: aggregate overhead must stay at or below
3% (mbb_bench::obs::MAX_OVERHEAD_PCT).

options:
  --out FILE    output JSON path (default BENCH_obs.json)
  --caps C      stand-in scale caps (default: default)
  --seed N      workload seed (default 42)
  --quick       fewer datasets, more repetitions per mode (CI smoke)
  --check FILE  validate an existing report instead of benchmarking:
                parse FILE, re-run the schema/consistency checks AND
                the overhead gate, exit non-zero on any violation";

/// Parsed `bench-obs` options.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchObsOptions {
    /// Output JSON path.
    pub out: String,
    /// Caps label (`small`/`default`/`large`).
    pub caps: String,
    /// Workload seed.
    pub seed: u64,
    /// Quick (smoke) mode.
    pub quick: bool,
    /// Validate this file instead of running.
    pub check: Option<String>,
}

impl BenchObsOptions {
    /// Parses the subcommand's argv (after `bench-obs`).
    pub fn parse(args: &[String]) -> Result<BenchObsOptions, ArgError> {
        let mut options = BenchObsOptions {
            out: "BENCH_obs.json".to_string(),
            caps: "default".to_string(),
            seed: 42,
            quick: false,
            check: None,
        };
        let mut args = Args::new(args);
        while let Some(arg) = args.next() {
            match arg {
                Arg::Flag("--out") => options.out = args.value()?.to_string(),
                Arg::Flag("--caps") => {
                    let value = args.value()?;
                    if !matches!(value, "small" | "default" | "large") {
                        return Err(
                            format!("--caps must be small|default|large, got {value:?}").into()
                        );
                    }
                    options.caps = value.to_string();
                }
                Arg::Flag("--seed") => options.seed = args.number()?,
                Arg::Flag("--quick") => options.quick = true,
                Arg::Flag("--check") => options.check = Some(args.value()?.to_string()),
                other => return Err(other.unknown()),
            }
        }
        Ok(options)
    }

    fn bench_options(&self) -> ObsBenchOptions {
        let caps = match self.caps.as_str() {
            "small" => ScaleCaps::small(),
            "large" => ScaleCaps {
                max_edges: 200_000,
                max_vertices: 150_000,
            },
            _ => ScaleCaps::default(),
        };
        ObsBenchOptions {
            seed: self.seed,
            caps,
            caps_label: self.caps.clone(),
            quick: self.quick,
        }
    }
}

/// Renders the per-dataset overhead table.
fn summarise(report: &ObsBenchReport) -> String {
    let mut out = String::new();
    let mut table = Table::new(&["dataset", "base s", "instrumented s", "overhead", "spans"]);
    for run in &report.runs {
        let pct = (run.instrumented_seconds - run.base_seconds) / run.base_seconds * 100.0;
        table.row(vec![
            run.dataset.clone(),
            format!("{:.4}", run.base_seconds),
            format!("{:.4}", run.instrumented_seconds),
            format!("{pct:+.2}%"),
            run.spans_recorded.to_string(),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "\naggregate overhead: {:+.2}% (gate: {:.1}%)\n",
        report.overhead_pct, report.max_overhead_pct
    ));
    out
}

/// Runs the subcommand.
pub fn run(options: &BenchObsOptions) -> Result<String, String> {
    if let Some(path) = &options.check {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let report: ObsBenchReport =
            serde_json::from_str(&text).map_err(|e| format!("{path}: bad JSON: {e}"))?;
        report
            .validate()
            .map_err(|e| format!("{path}: invalid report: {e}"))?;
        report.check_gate().map_err(|e| format!("{path}: {e}"))?;
        return Ok(format!(
            "{path}: valid obs bench report ({} runs, overhead {:+.2}% within the {:.1}% gate)\n",
            report.runs.len(),
            report.overhead_pct,
            report.max_overhead_pct
        ));
    }

    let report = run_obs_bench(&options.bench_options());
    let json =
        serde_json::to_string_pretty(&report).map_err(|e| format!("serialise report: {e}"))?;
    std::fs::write(&options.out, json.as_bytes()).map_err(|e| format!("{}: {e}", options.out))?;

    let gate = match report.check_gate() {
        Ok(()) => String::new(),
        Err(e) => format!("warning: {e}\n"),
    };
    Ok(format!(
        "{}{}\nwrote {} ({} runs)\n",
        gate,
        summarise(&report),
        options.out,
        report.runs.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<BenchObsOptions, ArgError> {
        BenchObsOptions::parse(&s.split_whitespace().map(str::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn defaults_and_options() {
        let o = parse("").unwrap();
        assert_eq!(o.out, "BENCH_obs.json");
        assert_eq!(o.caps, "default");
        assert_eq!(o.seed, 42);
        assert!(!o.quick);

        let o = parse("--out /tmp/o.json --caps small --seed 7 --quick").unwrap();
        assert_eq!(o.out, "/tmp/o.json");
        assert_eq!(o.caps, "small");
        assert_eq!(o.seed, 7);
        assert!(o.quick);

        assert!(parse("--caps huge").is_err());
        assert!(parse("--frobnicate").is_err());
    }

    #[test]
    fn check_mode_rejects_missing_and_malformed_files() {
        let missing = BenchObsOptions {
            check: Some("/nonexistent/obs.json".into()),
            ..parse("").unwrap()
        };
        assert!(run(&missing).is_err());

        let dir = std::env::temp_dir().join("mbb-bench-obs-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.json");
        std::fs::write(&bad, b"{\"schema_version\": 999}").unwrap();
        let malformed = BenchObsOptions {
            check: Some(bad.to_string_lossy().into_owned()),
            ..parse("").unwrap()
        };
        assert!(run(&malformed).is_err());
        let _ = std::fs::remove_dir_all(dir);
    }

    /// The committed artefact must pass the gate it documents.
    #[test]
    fn check_mode_accepts_the_committed_report() {
        let committed =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_obs.json");
        let check = BenchObsOptions {
            check: Some(committed.to_string_lossy().into_owned()),
            ..parse("").unwrap()
        };
        let text = run(&check).expect("the committed report must validate");
        assert!(text.contains("within the"), "{text}");
    }

    /// An over-gate report must be rejected by `--check` — the gate is
    /// enforced on the file, not just printed at generation time.
    #[test]
    fn check_mode_rejects_excess_overhead() {
        let committed =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_obs.json");
        let text = std::fs::read_to_string(committed).unwrap();
        let mut report: ObsBenchReport = serde_json::from_str(&text).unwrap();
        let base: f64 = report.runs.iter().map(|r| r.base_seconds).sum();
        for run in &mut report.runs {
            run.instrumented_seconds = run.base_seconds * 1.10;
        }
        let instrumented: f64 = report.runs.iter().map(|r| r.instrumented_seconds).sum();
        report.overhead_pct = (instrumented - base) / base * 100.0;

        let dir = std::env::temp_dir().join("mbb-bench-obs-gate-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("slow.json");
        std::fs::write(&path, serde_json::to_string_pretty(&report).unwrap()).unwrap();
        let check = BenchObsOptions {
            check: Some(path.to_string_lossy().into_owned()),
            ..parse("").unwrap()
        };
        let err = run(&check).expect_err("10% overhead must fail the gate");
        assert!(err.contains("exceeds"), "{err}");
        let _ = std::fs::remove_dir_all(dir);
    }
}

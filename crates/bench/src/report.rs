//! Markdown table rendering and the `BENCH_obs.json` report schema.

use serde::{Deserialize, Serialize};

/// Formats seconds the way the paper's tables do: 3 significant-ish digits,
/// `-` for timeouts.
pub fn fmt_seconds(seconds: Option<f64>) -> String {
    match seconds {
        None => "-".to_string(),
        Some(s) if s < 0.01 => format!("{:.4}", s),
        Some(s) if s < 1.0 => format!("{:.3}", s),
        Some(s) if s < 100.0 => format!("{:.2}", s),
        Some(s) => format!("{:.0}", s),
    }
}

/// A Markdown table builder.
#[derive(Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Renders GitHub-flavoured Markdown.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let padded: Vec<String> = cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            format!("| {} |\n", padded.join(" | "))
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&fmt_row(&sep, &widths));
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Schema version stamped into `BENCH_obs.json`; bump on layout changes.
pub const OBS_BENCH_SCHEMA_VERSION: u64 = 1;

/// One dataset's spans-enabled vs spans-disabled solve comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsOverheadRun {
    /// Stand-in dataset name.
    pub dataset: String,
    /// Min-of-N full-solve wall clock with spans disabled (seconds).
    pub base_seconds: f64,
    /// Min-of-N full-solve wall clock with spans enabled (seconds).
    pub instrumented_seconds: f64,
    /// Optimum half-size of the disabled solves.
    pub base_optimum: u64,
    /// Optimum half-size of the enabled solves; must equal
    /// `base_optimum` — instrumentation must never change results.
    pub instrumented_optimum: u64,
    /// Span records drained from the enabled solves.
    pub spans_recorded: u64,
}

/// The full `BENCH_obs.json` document: the observability overhead gate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsBenchReport {
    /// [`OBS_BENCH_SCHEMA_VERSION`] at write time.
    pub schema_version: u64,
    /// Base RNG seed the stand-ins were generated from.
    pub seed: u64,
    /// Scale-caps label (`small`/`default`/`large`).
    pub caps: String,
    /// The gate this file was produced under (percent).
    pub max_overhead_pct: f64,
    /// Aggregate overhead: `(Σ instrumented − Σ base) / Σ base × 100`.
    /// Negative values (noise in instrumentation's favour) are fine.
    pub overhead_pct: f64,
    /// Per-dataset comparisons.
    pub runs: Vec<ObsOverheadRun>,
}

impl ObsBenchReport {
    /// Structural validity: finite timings, matching optima, spans
    /// actually recorded, and an `overhead_pct` that agrees with the
    /// per-run timings it claims to summarise.
    ///
    /// The overhead *gate* is separate — [`check_gate`](Self::check_gate)
    /// — so a freshly generated report on a noisy machine is still a
    /// well-formed artefact; only `--check` enforces the threshold.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema_version != OBS_BENCH_SCHEMA_VERSION {
            return Err(format!(
                "schema_version {} != supported {OBS_BENCH_SCHEMA_VERSION}",
                self.schema_version
            ));
        }
        if self.runs.is_empty() {
            return Err("no overhead runs recorded".into());
        }
        if !self.max_overhead_pct.is_finite() || self.max_overhead_pct <= 0.0 {
            return Err(format!("bad max_overhead_pct {}", self.max_overhead_pct));
        }
        if !self.overhead_pct.is_finite() {
            return Err(format!(
                "overhead_pct is not finite ({})",
                self.overhead_pct
            ));
        }
        for run in &self.runs {
            if run.dataset.is_empty() {
                return Err("run with empty dataset name".into());
            }
            for (what, v) in [
                ("base_seconds", run.base_seconds),
                ("instrumented_seconds", run.instrumented_seconds),
            ] {
                if !v.is_finite() || v <= 0.0 {
                    return Err(format!("{}: bad {what} {v}", run.dataset));
                }
            }
            if run.base_optimum != run.instrumented_optimum {
                return Err(format!(
                    "{}: optimum changed under instrumentation: {} vs {}",
                    run.dataset, run.base_optimum, run.instrumented_optimum
                ));
            }
            if run.spans_recorded == 0 {
                return Err(format!(
                    "{}: no spans recorded — the enabled half measured nothing",
                    run.dataset
                ));
            }
        }
        let base: f64 = self.runs.iter().map(|r| r.base_seconds).sum();
        let instrumented: f64 = self.runs.iter().map(|r| r.instrumented_seconds).sum();
        let expected = (instrumented - base) / base * 100.0;
        if (expected - self.overhead_pct).abs() > 0.05 {
            return Err(format!(
                "overhead_pct {} disagrees with per-run timings (expected {expected:.3})",
                self.overhead_pct
            ));
        }
        Ok(())
    }

    /// The gate itself: fails when the measured aggregate overhead
    /// exceeds the report's threshold.
    pub fn check_gate(&self) -> Result<(), String> {
        if self.overhead_pct > self.max_overhead_pct {
            return Err(format!(
                "span overhead {:.2}% exceeds the {:.1}% gate",
                self.overhead_pct, self.max_overhead_pct
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_formatting() {
        assert_eq!(fmt_seconds(None), "-");
        assert_eq!(fmt_seconds(Some(0.001234)), "0.0012");
        assert_eq!(fmt_seconds(Some(0.123)), "0.123");
        assert_eq!(fmt_seconds(Some(3.456)), "3.46");
        assert_eq!(fmt_seconds(Some(217.4)), "217");
    }

    #[test]
    fn renders_aligned_markdown() {
        let mut t = Table::new(&["name", "t"]);
        t.row(vec!["abc".into(), "1.0".into()]);
        t.row(vec!["a".into(), "12.5".into()]);
        let r = t.render();
        assert!(r.starts_with("| name | t    |\n| ---- | ---- |\n"));
        assert!(r.contains("| abc  | 1.0  |\n"));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_width_is_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["x".into()]);
    }

    fn sample_obs_report() -> ObsBenchReport {
        ObsBenchReport {
            schema_version: OBS_BENCH_SCHEMA_VERSION,
            seed: 42,
            caps: "small".into(),
            max_overhead_pct: 3.0,
            overhead_pct: (2.02 - 2.0) / 2.0 * 100.0,
            runs: vec![ObsOverheadRun {
                dataset: "dbpedia".into(),
                base_seconds: 2.0,
                instrumented_seconds: 2.02,
                base_optimum: 7,
                instrumented_optimum: 7,
                spans_recorded: 123,
            }],
        }
    }

    #[test]
    fn obs_report_round_trips_through_json() {
        let report = sample_obs_report();
        report.validate().expect("sample is valid");
        report.check_gate().expect("1% is inside the gate");
        let text = serde_json::to_string_pretty(&report).unwrap();
        let back: ObsBenchReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back, report);
        back.validate().expect("round-tripped report is valid");
    }

    #[test]
    fn obs_report_rejects_structural_problems() {
        let mut bad_schema = sample_obs_report();
        bad_schema.schema_version = 999;
        assert!(bad_schema
            .validate()
            .unwrap_err()
            .contains("schema_version"));

        let mut changed_optimum = sample_obs_report();
        changed_optimum.runs[0].instrumented_optimum = 9;
        assert!(changed_optimum
            .validate()
            .unwrap_err()
            .contains("optimum changed"));

        let mut no_spans = sample_obs_report();
        no_spans.runs[0].spans_recorded = 0;
        assert!(no_spans.validate().unwrap_err().contains("no spans"));

        let mut drifted = sample_obs_report();
        drifted.overhead_pct = 50.0;
        assert!(drifted.validate().unwrap_err().contains("disagrees"));

        let mut nan = sample_obs_report();
        nan.runs[0].base_seconds = f64::NAN;
        assert!(nan.validate().is_err());
    }

    #[test]
    fn obs_gate_trips_on_excess_overhead() {
        let mut report = sample_obs_report();
        report.runs[0].instrumented_seconds = 2.2; // +10%
        report.overhead_pct = (2.2 - 2.0) / 2.0 * 100.0;
        report.validate().expect("structurally fine");
        let err = report.check_gate().unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
    }
}

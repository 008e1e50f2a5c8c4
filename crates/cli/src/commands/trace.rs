//! `mbb trace` — run a JSONL request file through a resident server
//! with span recording on, then print the aggregated per-stage time
//! table (and optionally dump the raw Chrome trace).

use std::io::BufWriter;

use mbb_bench::Table;
use mbb_obs as obs;

use super::serve::{build_server, ServeOptions};
use crate::args::{Arg, ArgError, Args};

/// Usage text for the subcommand.
pub const USAGE: &str = "\
usage: mbb trace --shard <id>=<edge-list-file> [--shard ...]
                 --requests <jsonl-file>
                 [--workers <N>] [--trace-file <out.json>]

Replays the request file through the resident serve loop (same admission
control as `mbb serve`) with span recording enabled, then prints one row
per pipeline stage — parse, admission wait, queue, the solver stages,
encode — with count, total, self, mean and max wall clock. Self time
leaves out the same-thread spans nested inside a stage, so the self
column adds up without counting nested work twice. Stage names match
docs/OBSERVABILITY.md.

  --requests FILE    JSONL request/control lines, as `mbb serve` reads
                     them from stdin
  --workers N        worker threads (default 1; 0 = one per core)
  --trace-file FILE  also write the raw spans as a Chrome trace_event
                     JSON array (load via chrome://tracing or Perfetto)

Shards resolve through the graph store (.mbbg caches apply).";

/// Parsed `trace` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceOptions {
    /// The serve fleet/loop configuration (shards, workers).
    pub serve: ServeOptions,
    /// The JSONL request file to replay.
    pub requests: String,
    /// Optional Chrome trace output path.
    pub trace_file: Option<String>,
}

impl TraceOptions {
    /// Parses the subcommand's argv (after `trace`).
    pub fn parse(args: &[String]) -> Result<TraceOptions, ArgError> {
        let mut requests = None;
        let mut trace_file = None;
        let mut serve_args = Vec::new();
        let mut args = Args::new(args);
        while let Some(arg) = args.next() {
            match arg {
                Arg::Flag("--requests") => requests = Some(args.value()?.to_string()),
                Arg::Flag("--trace-file") => trace_file = Some(args.value()?.to_string()),
                Arg::Flag(flag @ ("--shard" | "--workers")) => {
                    serve_args.extend([flag.to_string(), args.value()?.to_string()]);
                }
                other => return Err(other.unknown()),
            }
        }
        let requests = requests.ok_or("--requests <jsonl-file> is required")?;
        Ok(TraceOptions {
            serve: ServeOptions::parse(&serve_args)?,
            requests,
            trace_file,
        })
    }
}

/// Renders the per-stage aggregation table.
fn stage_table(aggregates: &[obs::StageAgg]) -> String {
    let ms = |nanos: u64| format!("{:.3}", nanos as f64 / 1e6);
    let mut table = Table::new(&["stage", "count", "total ms", "self ms", "mean ms", "max ms"]);
    for agg in aggregates {
        table.row(vec![
            agg.stage.label().to_string(),
            agg.count.to_string(),
            ms(agg.total_nanos),
            ms(agg.self_nanos),
            ms(agg.mean_nanos()),
            ms(agg.max_nanos),
        ]);
    }
    table.render()
}

/// Runs the subcommand.
pub fn run(options: &TraceOptions) -> Result<String, String> {
    let input = std::fs::read_to_string(&options.requests)
        .map_err(|e| format!("{}: {e}", options.requests))?;
    let server = build_server(&options.serve)?;

    obs::enable();
    obs::drain(|_| {}); // discard spans left over from fleet construction
    let stats = server.serve_with(input.as_bytes(), |_event| {
        // Events are discarded; per-event lines are what `mbb serve`
        // is for — this command reports the span timeline instead.
    });
    let mut records: Vec<obs::SpanRecord> = Vec::new();
    obs::drain(|record| records.push(record));
    let dropped = obs::dropped_records();
    obs::disable();
    records.sort_by_key(|r| (r.start_nanos, r.seq));

    if let Some(path) = &options.trace_file {
        let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
        let mut writer =
            obs::TraceWriter::new(BufWriter::new(file)).map_err(|e| format!("{path}: {e}"))?;
        for record in &records {
            writer.write(record).map_err(|e| format!("{path}: {e}"))?;
        }
        writer.finish().map_err(|e| format!("{path}: {e}"))?;
    }

    let aggregates = obs::aggregate(&records);
    let mut out = stage_table(&aggregates);
    out.push_str(&format!(
        "\n{} spans from {} completed / {} admitted requests",
        records.len(),
        stats.completed,
        stats.admitted
    ));
    if dropped > 0 {
        out.push_str(&format!(" ({dropped} spans dropped by full rings)"));
    }
    out.push('\n');
    if let Some(path) = &options.trace_file {
        out.push_str(&format!("wrote {path} ({} spans)\n", records.len()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<TraceOptions, ArgError> {
        TraceOptions::parse(&s.split_whitespace().map(str::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn parses_options() {
        let o = parse("--shard g=x.txt --requests q.jsonl").unwrap();
        assert_eq!(o.requests, "q.jsonl");
        assert_eq!(o.trace_file, None);
        assert_eq!(o.serve.shards.len(), 1);
        assert_eq!(o.serve.workers, 1);

        let o =
            parse("--shard g=x.txt --requests q.jsonl --workers 2 --trace-file t.json").unwrap();
        assert_eq!(o.serve.workers, 2);
        assert_eq!(o.trace_file.as_deref(), Some("t.json"));
    }

    #[test]
    fn rejects_missing_requests_and_unknown_flags() {
        assert!(parse("--shard g=x.txt").is_err());
        assert!(parse("--requests q.jsonl").is_err()); // no shard
        assert!(parse("--shard g=x.txt --requests q.jsonl --listen :0").is_err());
    }

    #[test]
    fn traces_a_request_file_end_to_end() {
        let dir = std::env::temp_dir().join("mbb-trace-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let graph_path = dir.join("g.txt");
        std::fs::write(&graph_path, "1 1\n1 2\n2 1\n2 2\n3 3\n").unwrap();
        let requests_path = dir.join("q.jsonl");
        std::fs::write(
            &requests_path,
            "{\"id\": 1, \"graph\": \"g\", \"kind\": \"solve\"}\n\
             {\"id\": 2, \"graph\": \"g\", \"kind\": \"solve\"}\n",
        )
        .unwrap();
        let trace_path = dir.join("t.json");
        let options = parse(&format!(
            "--shard g={} --requests {} --trace-file {}",
            graph_path.display(),
            requests_path.display(),
            trace_path.display()
        ))
        .unwrap();
        let out = run(&options).unwrap();
        assert!(out.contains("serve.execute"), "{out}");
        assert!(out.contains("self ms"), "{out}");
        assert!(out.contains("solve.heuristic"), "{out}");
        assert!(out.contains("serve.queue"), "{out}");
        assert!(out.contains("2 completed"), "{out}");

        let trace = std::fs::read_to_string(&trace_path).unwrap();
        let value: serde_json::Value = serde_json::from_str(&trace).unwrap();
        let events = value.as_array().expect("trace is a JSON array");
        assert!(!events.is_empty());
        assert_eq!(events[0].get("ph").and_then(|v| v.as_str()), Some("X"));
        std::fs::remove_dir_all(&dir).ok();
    }
}

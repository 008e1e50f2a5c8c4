//! `mbb serve` — resident mode: serve a JSONL request stream from stdin
//! until EOF, with cross-batch EDF admission control.

use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use mbb_obs as obs;
use mbb_serve::{ShardedFleet, StreamConfig, StreamServer};
use mbb_store::GraphStore;

/// Usage text for the subcommand.
pub const USAGE: &str = "\
usage: mbb serve --shard <id>=<edge-list-file> [--shard ...]
                 [--workers <N>] [--queue-depth <N>] [--fairness-burst <N>]
                 [--stats] [--trace-file <out.json>]
                 [--listen <addr>] [--unix <path>] [--max-conns <N>]

Builds one engine session per --shard (routable by its <id>), then stays
resident: one JSON request per stdin line, one JSON event per stdout
line as requests complete, until stdin closes. Requests are admitted to
a global deadline-soonest queue as they arrive — a later tight-deadline
request overtakes queued slack ones — with:

  backpressure   the queue holds at most --queue-depth requests
                 (default 1024); when full, reading stdin pauses
  load-shedding  a request whose deadline budget is already blown is
                 answered with {\"error_kind\": \"shed\"}, never executed
  fairness       one shard wins at most --fairness-burst consecutive
                 slots while another has queued work (default 8; 0 = off)

`mbb serve-batch` runs one request file through this same queue and
exits.

Control lines manage the resident fleet without a restart:

  {\"control\": \"stats\"}                           counters snapshot
  {\"control\": \"drain\"}                           wait for quiescence
  {\"control\": \"reload\", \"graph\": <id>, \"source\": <file>}
                                  swap a shard's graph; in-flight and
                                  already-queued requests finish on the
                                  old session, later ones see the new one

--workers 0 uses one worker per core (default 1). --stats prints a final
stats line at EOF. Shards and reload sources resolve through the graph
store (.mbbg caches apply; MBB_CACHE=off disables). The wire schema is
documented in docs/SERVING.md (\"Resident mode\").

--trace-file turns span recording on and streams every completed span —
parse, admission wait, queue, the solver stages, encode, outbox — to
FILE as a Chrome trace_event JSON array (load via chrome://tracing or
Perfetto). The array is closed at EOF; in socket mode the server runs
until killed, so the trailing `]` may be missing — both viewers accept
that. A `{\"control\": \"metrics\"}` line answers with latency histogram
quantiles; see docs/OBSERVABILITY.md.

Socket mode: --listen binds a TCP address (port 0 picks a free port),
--unix a Unix-domain socket path; both may be given. Each client
connection carries its own JSONL stream into the same shared admission
queue — EDF, backpressure, shedding and fairness hold across
connections — and responses return on the originating connection. At
most --max-conns clients are served concurrently (default 64; later
clients get one {\"error_kind\": \"overloaded\"} line). On startup a
single {\"listening\": ...} line reports the resolved address; the
server then runs until killed. stdin is not read in socket mode. See
docs/SERVING.md (\"Socket mode\").";

/// Parsed `serve` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOptions {
    /// `(shard id, graph source)` pairs, in registration order.
    pub shards: Vec<(String, String)>,
    /// Worker pool size (0 = one per core).
    pub workers: usize,
    /// Admission queue bound.
    pub queue_depth: usize,
    /// Consecutive-pop cap per shard (0 disables).
    pub fairness_burst: usize,
    /// Emit a final stats line at EOF.
    pub stats: bool,
    /// TCP listen address (socket mode).
    pub listen: Option<String>,
    /// Unix-domain socket path (socket mode).
    pub unix: Option<String>,
    /// Concurrent-connection cap in socket mode.
    pub max_conns: usize,
    /// Stream completed spans to this path as Chrome trace_event JSON.
    pub trace_file: Option<String>,
}

impl ServeOptions {
    /// Parses the subcommand's argv (after `serve`).
    pub fn parse(args: &[String]) -> Result<ServeOptions, String> {
        let defaults = StreamConfig::default();
        let mut options = ServeOptions {
            shards: Vec::new(),
            workers: defaults.workers,
            queue_depth: defaults.queue_depth,
            fairness_burst: defaults.fairness_burst,
            stats: false,
            listen: None,
            unix: None,
            max_conns: 64,
            trace_file: None,
        };
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            let mut value_of = |flag: &str| {
                iter.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            let number = |flag: &str, value: String| {
                value
                    .parse::<usize>()
                    .map_err(|_| format!("{flag}: bad number {value:?}"))
            };
            match arg.as_str() {
                "--stats" => options.stats = true,
                "--shard" => {
                    let value = value_of("--shard")?;
                    let (id, path) = value
                        .split_once('=')
                        .ok_or_else(|| format!("--shard: expected <id>=<file>, got {value:?}"))?;
                    if id.is_empty() || path.is_empty() {
                        return Err(format!("--shard: expected <id>=<file>, got {value:?}"));
                    }
                    options.shards.push((id.to_string(), path.to_string()));
                }
                "--workers" => options.workers = number("--workers", value_of("--workers")?)?,
                "--queue-depth" => {
                    options.queue_depth = number("--queue-depth", value_of("--queue-depth")?)?;
                    if options.queue_depth == 0 {
                        return Err("--queue-depth must be at least 1".to_string());
                    }
                }
                "--fairness-burst" => {
                    options.fairness_burst =
                        number("--fairness-burst", value_of("--fairness-burst")?)?;
                }
                "--listen" => options.listen = Some(value_of("--listen")?),
                "--unix" => options.unix = Some(value_of("--unix")?),
                "--trace-file" => options.trace_file = Some(value_of("--trace-file")?),
                "--max-conns" => {
                    options.max_conns = number("--max-conns", value_of("--max-conns")?)?;
                    if options.max_conns == 0 {
                        return Err("--max-conns must be at least 1".to_string());
                    }
                }
                other => return Err(format!("unknown option {other:?}")),
            }
        }
        if options.shards.is_empty() {
            return Err("at least one --shard <id>=<file> is required".to_string());
        }
        Ok(options)
    }
}

/// Builds the configured fleet + server (shared by the stdin and
/// socket front-ends, and by `mbb trace`).
pub(crate) fn build_server(options: &ServeOptions) -> Result<StreamServer, String> {
    let store = GraphStore::from_env();
    let mut fleet = ShardedFleet::new();
    for (id, path) in &options.shards {
        fleet
            .add_shard_from_store(id.clone(), &store, path)
            .map_err(|e| e.to_string())?;
    }
    let config = StreamConfig {
        workers: options.workers,
        queue_depth: options.queue_depth,
        fairness_burst: options.fairness_burst,
        stats_on_exit: options.stats,
    };
    Ok(StreamServer::new(fleet, config).with_store(store))
}

/// Background collector for `--trace-file`: enables span recording and
/// streams completed spans to a Chrome trace_event JSON file while the
/// serve loop runs.
struct TraceFileWorker {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<std::io::Result<u64>>,
    path: String,
}

impl TraceFileWorker {
    /// Creates the file, turns span recording on, and starts the drain
    /// thread (~5 ms cadence — rings hold 4096 records per thread, so
    /// even a busy fleet is drained long before overflow).
    fn start(path: &str) -> Result<TraceFileWorker, String> {
        let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
        let mut writer = obs::TraceWriter::new(std::io::BufWriter::new(file))
            .map_err(|e| format!("{path}: {e}"))?;
        obs::enable();
        let stop = Arc::new(AtomicBool::new(false));
        let observed = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut failed: Option<std::io::Error> = None;
            loop {
                // Order matters: read the flag *before* draining, so the
                // final pass (after the serve loop emitted its last
                // span) still sweeps every ring.
                let stopping = observed.load(Ordering::SeqCst);
                obs::drain(|record| {
                    if failed.is_none() {
                        if let Err(e) = writer.write(&record) {
                            failed = Some(e);
                        }
                    }
                });
                if stopping {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            if let Some(e) = failed {
                return Err(e);
            }
            let spans = writer.events();
            writer.finish()?;
            Ok(spans)
        });
        Ok(TraceFileWorker {
            stop,
            handle,
            path: path.to_string(),
        })
    }

    /// Stops recording, joins the drain thread (one final sweep), and
    /// reports the span count on stderr — stdout belongs to the wire.
    fn finish(self) -> Result<(), String> {
        obs::disable();
        self.stop.store(true, Ordering::SeqCst);
        match self.handle.join() {
            Ok(Ok(spans)) => {
                eprintln!("trace: wrote {spans} spans to {}", self.path);
                Ok(())
            }
            Ok(Err(e)) => Err(format!("{}: {e}", self.path)),
            Err(_) => Err(format!("{}: trace collector panicked", self.path)),
        }
    }
}

/// Runs the resident loop over explicit input/output streams — the
/// testable core of [`run`].
pub fn run_with<R: BufRead, W: Write + Send>(
    options: &ServeOptions,
    input: R,
    output: W,
) -> Result<(), String> {
    let server = build_server(options)?;
    let tracer = options
        .trace_file
        .as_deref()
        .map(TraceFileWorker::start)
        .transpose()?;
    let served = server.serve(input, output).map_err(|e| e.to_string());
    // Always join the collector (the final drain closes the JSON
    // array), but a serve-loop error outranks a trace-file one.
    let traced = tracer.map(TraceFileWorker::finish).transpose();
    served?;
    traced?;
    Ok(())
}

/// Socket mode: bind the configured listeners, announce them on one
/// stdout line, and serve until killed.
fn run_socket(options: &ServeOptions) -> Result<(), String> {
    use mbb_serve::socket::SocketFrontEnd;
    let server = build_server(options)?;
    let mut front = SocketFrontEnd::new(server).with_max_conns(options.max_conns);
    if let Some(addr) = &options.listen {
        front = front.with_tcp(addr.clone());
    }
    if let Some(path) = &options.unix {
        front = front.with_unix(path.clone());
    }
    let bound = front.bind().map_err(|e| e.to_string())?;
    let tracer = options
        .trace_file
        .as_deref()
        .map(TraceFileWorker::start)
        .transpose()?;
    // One machine-readable announcement so clients (and the CI smoke)
    // can discover the resolved address — essential with port 0.
    let mut announce = Vec::new();
    if let Some(addr) = bound.tcp_addr() {
        announce.push(format!("\"listening\":\"{addr}\""));
    }
    if let Some(path) = bound.unix_path() {
        announce.push(format!("\"unix\":{:?}", path.display().to_string()));
    }
    let shards: Vec<String> = options
        .shards
        .iter()
        .map(|(id, _)| format!("{id:?}"))
        .collect();
    announce.push(format!("\"shards\":[{}]", shards.join(",")));
    println!("{{{}}}", announce.join(","));
    // Flush so a piped consumer sees the line before the first client.
    let _ = std::io::stdout().flush();
    bound.serve();
    // serve() runs until the process is killed; if it ever returns,
    // close the trace cleanly.
    tracer.map(TraceFileWorker::finish).transpose()?;
    Ok(())
}

/// Runs the subcommand: socket mode when `--listen`/`--unix` is given,
/// otherwise resident on stdin/stdout until EOF. Events are written as
/// they happen, so the returned string is empty.
pub fn run(options: &ServeOptions) -> Result<String, String> {
    if options.listen.is_some() || options.unix.is_some() {
        run_socket(options)?;
    } else {
        run_with(options, std::io::stdin().lock(), std::io::stdout())?;
    }
    Ok(String::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<ServeOptions, String> {
        ServeOptions::parse(&s.split_whitespace().map(str::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn parses_options_with_defaults() {
        let o = parse("--shard a=x.txt").unwrap();
        assert_eq!(o.shards, vec![("a".to_string(), "x.txt".to_string())]);
        assert_eq!(o.workers, 1);
        assert_eq!(o.queue_depth, 1024);
        assert_eq!(o.fairness_burst, 8);
        assert!(!o.stats);

        let o = parse(
            "--shard a=x.txt --shard b=y.txt --workers 0 --queue-depth 4 \
             --fairness-burst 0 --stats",
        )
        .unwrap();
        assert_eq!(o.shards.len(), 2);
        assert_eq!(o.workers, 0);
        assert_eq!(o.queue_depth, 4);
        assert_eq!(o.fairness_burst, 0);
        assert!(o.stats);
    }

    #[test]
    fn rejects_bad_options() {
        assert!(parse("").is_err());
        assert!(parse("--shard ax.txt").is_err());
        assert!(parse("--shard a=x.txt --queue-depth 0").is_err());
        assert!(parse("--shard a=x.txt --workers many").is_err());
        assert!(parse("--shard a=x.txt --frobnicate").is_err());
        assert!(parse("--shard a=x.txt --max-conns 0").is_err());
        assert!(parse("--shard a=x.txt --listen").is_err());
    }

    #[test]
    fn parses_socket_options() {
        let o = parse("--shard a=x.txt").unwrap();
        assert_eq!(o.listen, None);
        assert_eq!(o.unix, None);
        assert_eq!(o.max_conns, 64);

        let o = parse("--shard a=x.txt --listen 127.0.0.1:0 --unix /tmp/mbb.sock --max-conns 2")
            .unwrap();
        assert_eq!(o.listen.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(o.unix.as_deref(), Some("/tmp/mbb.sock"));
        assert_eq!(o.max_conns, 2);
    }

    #[test]
    fn resident_loop_end_to_end_over_pipes() {
        let dir = std::env::temp_dir().join("mbb-serve-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let graph_path = dir.join("g.txt");
        std::fs::write(&graph_path, "1 1\n1 2\n2 1\n2 2\n3 3\n").unwrap();
        let options = parse(&format!("--shard g={} --stats", graph_path.display())).unwrap();
        let input = "{\"id\": 1, \"graph\": \"g\", \"kind\": \"solve\"}\n\
                     {\"id\": 2, \"graph\": \"g\", \"kind\": \"solve\", \"deadline_ms\": 0}\n\
                     {\"control\": \"drain\"}\n";
        let mut output = Vec::new();
        run_with(&options, input.as_bytes(), &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines.len(),
            4,
            "response + shed + drain ack + stats:\n{text}"
        );
        assert!(text.contains("\"half_size\":2"), "{text}");
        assert!(text.contains("\"error_kind\":\"shed\""), "{text}");
        assert!(text.contains("\"control\":\"drain\""), "{text}");
        assert!(lines[3].contains("\"stats\""), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

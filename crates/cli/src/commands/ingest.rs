//! `mbb ingest` — pre-build the `.mbbg` binary cache for edge lists.

use mbb_bigraph::io::read_edge_list_file;
use mbb_store::{GraphStore, Provenance};

use crate::args::{Arg, ArgError, Args};

/// Usage text for the subcommand.
pub const USAGE: &str = "\
usage: mbb ingest <edge-list-file>... [--force] [--verify]

Parses each edge list through the streaming two-pass builder and writes
(or refreshes) the binary graph cache next to it (<file>.mbbg). Later
loads of the same file — every mbb subcommand, serve-batch shards, the
bench harness — hit the cache instead of re-parsing.

A fresh cache is left untouched unless --force. With --verify, each
written cache is re-loaded and compared byte-for-byte (CSR offsets and
adjacency) against a straight text parse before success is reported.";

/// Parsed `ingest` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestOptions {
    /// Input paths, in argument order.
    pub inputs: Vec<String>,
    /// Rebuild even when the cache is fresh.
    pub force: bool,
    /// Re-load each cache and compare against a text parse.
    pub verify: bool,
}

impl IngestOptions {
    /// Parses the subcommand's argv (after `ingest`).
    pub fn parse(args: &[String]) -> Result<IngestOptions, ArgError> {
        let mut options = IngestOptions {
            inputs: Vec::new(),
            force: false,
            verify: false,
        };
        for arg in Args::new(args) {
            match arg {
                Arg::Flag("--force") => options.force = true,
                Arg::Flag("--verify") => options.verify = true,
                Arg::Positional(path) => options.inputs.push(path.to_string()),
                other => return Err(other.unknown()),
            }
        }
        if options.inputs.is_empty() {
            return Err("at least one edge-list file is required".into());
        }
        Ok(options)
    }
}

/// Runs the subcommand, returning the rendered output.
pub fn run(options: &IngestOptions) -> Result<String, String> {
    let store = GraphStore::from_env();
    let mut out = String::new();
    for input in &options.inputs {
        let loaded = store
            .ingest(input, options.force)
            .map_err(|e| format!("{input}: {e}"))?;
        let g = &loaded.graph;
        match loaded.provenance {
            Provenance::CacheHit => out.push_str(&format!(
                "{input}: cache fresh ({}, |L|={} |R|={} |E|={}, loaded in {:.3}ms)\n",
                loaded
                    .cache
                    .as_deref()
                    .unwrap_or(loaded.source.as_path())
                    .display(),
                g.num_left(),
                g.num_right(),
                g.num_edges(),
                loaded.load_time.as_secs_f64() * 1e3,
            )),
            _ => {
                let cache = loaded
                    .cache
                    .as_ref()
                    .ok_or_else(|| format!("{input}: caching disabled (MBB_CACHE=off?)"))?;
                if loaded.provenance != Provenance::ParsedAndCached {
                    return Err(format!(
                        "{input}: cache write failed{}",
                        loaded
                            .note
                            .as_deref()
                            .map(|n| format!(" [{n}]"))
                            .unwrap_or_default()
                    ));
                }
                out.push_str(&format!(
                    "{input}: parsed |L|={} |R|={} |E|={} in {:.3}ms, wrote {} ({} bytes) in {:.3}ms\n",
                    g.num_left(),
                    g.num_right(),
                    g.num_edges(),
                    loaded.load_time.as_secs_f64() * 1e3,
                    cache.display(),
                    std::fs::metadata(cache).map(|m| m.len()).unwrap_or(0),
                    loaded
                        .cache_write_time
                        .map(|d| d.as_secs_f64() * 1e3)
                        .unwrap_or(0.0),
                ));
            }
        }
        if options.verify {
            let cache = loaded
                .cache
                .as_ref()
                .ok_or_else(|| format!("{input}: nothing to verify"))?;
            if *cache == loaded.source {
                // The input *is* the cache (a .mbbg file): there is no
                // source text to re-parse, and the load above already ran
                // the checksum + CSR-invariant validation.
                out.push_str(&format!(
                    "{input}: verified (checksum and CSR invariants; no source text to compare)\n"
                ));
                continue;
            }
            let (cached, _) =
                mbb_store::binfmt::load_graph(cache).map_err(|e| format!("{input}: {e}"))?;
            let parsed =
                read_edge_list_file(&loaded.source).map_err(|e| format!("{input}: {e}"))?;
            if cached != parsed {
                return Err(format!(
                    "{input}: cache does not match a fresh parse — please report"
                ));
            }
            out.push_str(&format!(
                "{input}: verified byte-identical to a fresh parse\n"
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<IngestOptions, ArgError> {
        IngestOptions::parse(&s.split_whitespace().map(str::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn parses_inputs_and_flags() {
        let o = parse("a.txt b.txt --force --verify").unwrap();
        assert_eq!(o.inputs, vec!["a.txt", "b.txt"]);
        assert!(o.force && o.verify);
    }

    #[test]
    fn requires_an_input() {
        assert!(parse("--force").is_err());
        assert!(parse("a.txt --wat").is_err());
    }

    #[test]
    fn ingest_end_to_end() {
        let dir = std::env::temp_dir().join(format!("mbb-ingest-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        std::fs::write(&path, "1 1\n1 2\n2 1\n2 2\n3 3\n").unwrap();
        let spec = path.to_str().unwrap().to_string();

        let first = run(&parse(&format!("{spec} --verify")).unwrap()).unwrap();
        assert!(first.contains("wrote"), "{first}");
        assert!(first.contains("verified byte-identical"), "{first}");
        let second = run(&parse(&spec).unwrap()).unwrap();
        assert!(second.contains("cache fresh"), "{second}");
        let forced = run(&parse(&format!("{spec} --force")).unwrap()).unwrap();
        assert!(forced.contains("wrote"), "{forced}");
        // Ingesting the .mbbg itself validates it instead of text-parsing
        // binary bytes.
        let direct = run(&parse(&format!("{spec}.mbbg --verify")).unwrap()).unwrap();
        assert!(direct.contains("cache fresh"), "{direct}");
        assert!(direct.contains("verified (checksum"), "{direct}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

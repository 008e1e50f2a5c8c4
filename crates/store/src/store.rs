//! [`GraphStore`] — the catalog that loads a graph from its path, keeping a
//! binary cache warm next to each source file.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mbb_bigraph::graph::BipartiteGraph;
use mbb_bigraph::io::read_edge_list_file;

use crate::binfmt::{self, SourceStamp, StoreError};

/// File extension of the binary cache format.
pub const CACHE_EXTENSION: &str = "mbbg";

/// What the store is allowed to do with caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheMode {
    /// Use fresh caches and write/refresh them after a parse (default).
    #[default]
    ReadWrite,
    /// Use fresh caches but never write to disk.
    ReadOnly,
    /// Ignore caches entirely; always parse the source text.
    Off,
}

/// Where a loaded graph actually came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Provenance {
    /// Parsed from the source text; no cache was written (mode
    /// [`CacheMode::ReadOnly`]/[`CacheMode::Off`], or the write failed).
    Parsed,
    /// Parsed from the source text and a fresh cache written beside it.
    ParsedAndCached,
    /// Loaded from a warm binary cache — no text parsing happened.
    CacheHit,
}

impl Provenance {
    /// Short human label: `parsed`, `parsed+cached` or `cache`.
    pub fn label(&self) -> &'static str {
        match self {
            Provenance::Parsed => "parsed",
            Provenance::ParsedAndCached => "parsed+cached",
            Provenance::CacheHit => "cache",
        }
    }
}

/// A graph resolved through the store, with full load provenance.
#[derive(Debug, Clone)]
pub struct LoadedGraph {
    /// The graph, ready to share with engine sessions.
    pub graph: Arc<BipartiteGraph>,
    /// The file the bytes actually came from (source text or `.mbbg`).
    pub source: PathBuf,
    /// The cache file consulted/written, when caching was in play.
    pub cache: Option<PathBuf>,
    /// Parsed, parsed-and-cached, or cache hit.
    pub provenance: Provenance,
    /// Wall-clock time of the load (parse or cache read), excluding any
    /// cache write.
    pub load_time: Duration,
    /// Wall-clock time spent writing the cache, when one was written.
    pub cache_write_time: Option<Duration>,
    /// Why the cache was not used, when it existed but was skipped
    /// (stale, corrupt, unreadable) or could not be written.
    pub note: Option<String>,
}

impl LoadedGraph {
    /// One-line description: provenance, file, timing — what `mbb stats`
    /// and `mbb ingest` print.
    pub fn describe(&self) -> String {
        let mut out = format!(
            "{} {} in {:.3}ms",
            self.provenance.label(),
            self.source.display(),
            self.load_time.as_secs_f64() * 1e3
        );
        if let Some(w) = self.cache_write_time {
            out.push_str(&format!(
                " (cache written in {:.3}ms)",
                w.as_secs_f64() * 1e3
            ));
        }
        if let Some(note) = &self.note {
            out.push_str(&format!(" [{note}]"));
        }
        out
    }
}

/// The graph catalog: loads graphs by path, transparently maintaining a
/// `.mbbg` binary cache next to each source file.
///
/// [`load`](Self::load) reads the file at the path it is given (relative
/// paths against the working directory); no other name resolves, and a
/// path with no file behind it is [`StoreError::NotFound`]. A path ending
/// in `.mbbg` (or whose bytes start with the `MBBG` magic) is loaded as a
/// binary cache directly.
///
/// Freshness: a cache embeds the length and mtime of the source it was
/// built from ([`SourceStamp`]); it is used only when both still match.
/// Stale, corrupt, truncated or version-mismatched caches fall back to a
/// parse and — in [`CacheMode::ReadWrite`] — are rewritten in place.
///
/// The environment variable `MBB_CACHE` (`off`, `ro`/`readonly`, or
/// `rw`/`readwrite`) overrides the mode in
/// [`from_env`](Self::from_env)-constructed stores, which is what the CLI
/// uses.
#[derive(Debug, Clone, Default)]
pub struct GraphStore {
    mode: CacheMode,
}

impl GraphStore {
    /// A store with the default [`CacheMode::ReadWrite`] policy.
    pub fn new() -> GraphStore {
        GraphStore::default()
    }

    /// A store with an explicit cache policy.
    pub fn with_mode(mode: CacheMode) -> GraphStore {
        GraphStore { mode }
    }

    /// A store whose mode honours the `MBB_CACHE` environment variable
    /// (`off` | `ro`/`readonly` | `rw`/`readwrite`; default read-write).
    pub fn from_env() -> GraphStore {
        let mode = match std::env::var("MBB_CACHE").as_deref() {
            Ok("off") | Ok("0") | Ok("none") => CacheMode::Off,
            Ok("ro") | Ok("readonly") => CacheMode::ReadOnly,
            _ => CacheMode::ReadWrite,
        };
        GraphStore::with_mode(mode)
    }

    /// The active cache policy.
    pub fn mode(&self) -> CacheMode {
        self.mode
    }

    /// The cache path for a source file: `graph.txt` → `graph.txt.mbbg`
    /// (appended, so distinct sources never share a cache).
    pub fn cache_path_for(source: &Path) -> PathBuf {
        let mut name = source.file_name().unwrap_or_default().to_os_string();
        name.push(".");
        name.push(CACHE_EXTENSION);
        source.with_file_name(name)
    }

    /// The file [`load`](Self::load) would read for `spec`, a path:
    /// [`StoreError::NotFound`] when no file is there.
    pub fn resolve(&self, spec: &str) -> Result<PathBuf, StoreError> {
        let path = Path::new(spec);
        if path.exists() {
            Ok(path.to_path_buf())
        } else {
            Err(StoreError::NotFound { spec: spec.into() })
        }
    }

    /// Resolves and loads a graph, consulting/refreshing the binary cache
    /// per the store's [`CacheMode`]. Returns the graph together with its
    /// provenance and timings.
    pub fn load(&self, spec: &str) -> Result<LoadedGraph, StoreError> {
        let source = self.resolve(spec)?;
        if is_cache_file(&source) {
            let start = Instant::now();
            let (graph, _) = binfmt::load_graph(&source)?;
            return Ok(LoadedGraph {
                graph: Arc::new(graph),
                cache: Some(source.clone()),
                source,
                provenance: Provenance::CacheHit,
                load_time: start.elapsed(),
                cache_write_time: None,
                note: None,
            });
        }
        self.load_source(&source, false)
    }

    /// Pre-builds (or refreshes) the cache for a source file — the
    /// `mbb ingest` entry point. With `force`, the cache is rebuilt even
    /// when fresh. Note ingest always writes, regardless of
    /// [`CacheMode::ReadOnly`]; only [`CacheMode::Off`] suppresses it.
    pub fn ingest(&self, spec: &str, force: bool) -> Result<LoadedGraph, StoreError> {
        let source = self.resolve(spec)?;
        if is_cache_file(&source) {
            // Ingesting a cache file is just validating it.
            return self.load(spec);
        }
        if force {
            return self.parse_and_cache(&source, self.mode != CacheMode::Off, None);
        }
        self.load_source(&source, true)
    }

    /// Loads from a text source: warm cache if fresh, else parse (and
    /// rewrite the cache when allowed). `write_even_readonly` is the
    /// ingest path, where writing is the point.
    fn load_source(
        &self,
        source: &Path,
        write_even_readonly: bool,
    ) -> Result<LoadedGraph, StoreError> {
        let cache = GraphStore::cache_path_for(source);
        let mut note = None;
        if self.mode != CacheMode::Off && cache.exists() {
            let start = Instant::now();
            // Freshness first, from the 48-byte header alone — a stale
            // cache of a big graph must not cost a full read + checksum +
            // validation before being thrown away.
            match (binfmt::load_stamp(&cache), SourceStamp::of_path(source)) {
                (Ok(stamp), Ok(current)) if stamp == current => match binfmt::load_graph(&cache) {
                    Ok((graph, _)) => {
                        return Ok(LoadedGraph {
                            graph: Arc::new(graph),
                            source: source.to_path_buf(),
                            cache: Some(cache),
                            provenance: Provenance::CacheHit,
                            load_time: start.elapsed(),
                            cache_write_time: None,
                            note: None,
                        });
                    }
                    Err(e) => note = Some(format!("cache unusable: {e}")),
                },
                (Ok(_), Ok(_)) => note = Some("cache stale: source modified".to_string()),
                (Err(e), _) => note = Some(format!("cache unusable: {e}")),
                (_, Err(e)) => note = Some(format!("source unreadable: {e}")),
            }
        }
        let write = match self.mode {
            CacheMode::ReadWrite => true,
            CacheMode::ReadOnly => write_even_readonly,
            CacheMode::Off => false,
        };
        self.parse_and_cache(source, write, note)
    }

    /// Parses the source text (streaming two-pass builder) and optionally
    /// writes the cache beside it. A failed cache write degrades to
    /// [`Provenance::Parsed`] with a note — never a load error.
    fn parse_and_cache(
        &self,
        source: &Path,
        write: bool,
        mut note: Option<String>,
    ) -> Result<LoadedGraph, StoreError> {
        // Stamp BEFORE parsing: if the source is replaced while (or right
        // after) we parse it, the cache carries the pre-parse identity and
        // the next load sees a mismatch and re-parses — the race fails
        // safe instead of pinning a wrong graph as "fresh".
        let stamp = SourceStamp::of_path(source).unwrap_or_default();
        let start = Instant::now();
        let graph = read_edge_list_file(source)?;
        let load_time = start.elapsed();
        let cache = GraphStore::cache_path_for(source);
        let mut provenance = Provenance::Parsed;
        let mut cache_write_time = None;
        if write {
            let write_start = Instant::now();
            match binfmt::save_graph(&graph, stamp, &cache) {
                Ok(()) => {
                    provenance = Provenance::ParsedAndCached;
                    cache_write_time = Some(write_start.elapsed());
                }
                Err(e) => note = Some(format!("cache write failed: {e}")),
            }
        }
        Ok(LoadedGraph {
            graph: Arc::new(graph),
            source: source.to_path_buf(),
            cache: (self.mode != CacheMode::Off).then_some(cache),
            provenance,
            load_time,
            cache_write_time,
            note,
        })
    }
}

/// True when `path` should be treated as a binary cache: `.mbbg`
/// extension, or an existing file starting with the format magic.
fn is_cache_file(path: &Path) -> bool {
    if path.extension().is_some_and(|e| e == CACHE_EXTENSION) {
        return true;
    }
    let mut magic = [0u8; 4];
    std::fs::File::open(path)
        .and_then(|mut f| std::io::Read::read_exact(&mut f, &mut magic))
        .map(|()| magic == crate::binfmt::MAGIC)
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbb_bigraph::generators::uniform_edges;
    use mbb_bigraph::io::write_edge_list_file;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir = std::env::temp_dir().join(format!("mbb-store-{tag}-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }

        fn path(&self, name: &str) -> PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    fn write_sample(path: &Path) -> BipartiteGraph {
        let g = uniform_edges(12, 10, 40, 3);
        write_edge_list_file(&g, path).unwrap();
        g
    }

    fn assert_same_csr(a: &BipartiteGraph, b: &BipartiteGraph) {
        assert_eq!(a.left_offsets(), b.left_offsets());
        assert_eq!(a.left_neighbors(), b.left_neighbors());
        assert_eq!(a.right_offsets(), b.right_offsets());
        assert_eq!(a.right_neighbors(), b.right_neighbors());
    }

    /// The version 1 file of `g`: version 2's bytes with the right
    /// adjacency before the checksum.
    fn v1_bytes(g: &BipartiteGraph, stamp: SourceStamp) -> Vec<u8> {
        let mut bytes = binfmt::encode_graph(g, stamp);
        bytes.truncate(bytes.len() - 8);
        bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
        for &u in g.right_neighbors() {
            bytes.extend_from_slice(&u.to_le_bytes());
        }
        let checksum = binfmt::fnv1a64(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        bytes
    }

    #[test]
    fn version_1_cache_is_rebuilt_as_version_2() {
        let dir = TempDir::new("v1");
        let path = dir.path("g.txt");
        let g = write_sample(&path);
        let cache = GraphStore::cache_path_for(&path);
        let fresh_stamp = SourceStamp::of_path(&path).unwrap();
        std::fs::write(&cache, v1_bytes(&g, fresh_stamp)).unwrap();
        let store = GraphStore::new();
        let spec = path.to_str().unwrap();

        let rebuilt = store.load(spec).unwrap();
        assert_eq!(rebuilt.provenance, Provenance::ParsedAndCached);
        let note = rebuilt.note.unwrap();
        assert!(note.contains("version 1"), "{note}");
        assert_eq!(*rebuilt.graph, g);
        let version = &std::fs::read(&cache).unwrap()[4..6];
        assert_eq!(version, binfmt::FORMAT_VERSION.to_le_bytes());
        assert_eq!(store.load(spec).unwrap().provenance, Provenance::CacheHit);
    }

    #[test]
    fn bare_version_1_cache_is_unsupported() {
        let dir = TempDir::new("v1-bare");
        let path = dir.path("g.mbbg");
        let g = uniform_edges(12, 10, 40, 3);
        std::fs::write(&path, v1_bytes(&g, SourceStamp::default())).unwrap();
        let err = GraphStore::new().load(path.to_str().unwrap()).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::UnsupportedVersion {
                    found: 1,
                    supported: 2
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn cold_then_warm_load_provenance() {
        let dir = TempDir::new("warm");
        let path = dir.path("g.txt");
        write_sample(&path);
        let store = GraphStore::new();
        let spec = path.to_str().unwrap();

        let cold = store.load(spec).unwrap();
        assert_eq!(cold.provenance, Provenance::ParsedAndCached);
        assert!(cold.cache_write_time.is_some());
        assert!(cold.cache.as_ref().unwrap().exists());

        let warm = store.load(spec).unwrap();
        assert_eq!(warm.provenance, Provenance::CacheHit);
        assert!(warm.note.is_none());
        assert_same_csr(&cold.graph, &warm.graph);
        assert!(warm.describe().contains("cache"));
    }

    #[test]
    fn warm_cache_is_byte_identical_to_text_parse() {
        let dir = TempDir::new("identical");
        let path = dir.path("g.txt");
        write_sample(&path);
        let store = GraphStore::new();
        let spec = path.to_str().unwrap();
        store.load(spec).unwrap(); // builds the cache
        let warm = store.load(spec).unwrap();
        assert_eq!(warm.provenance, Provenance::CacheHit);
        let parsed = read_edge_list_file(&path).unwrap();
        assert_same_csr(&warm.graph, &parsed);
    }

    #[test]
    fn modified_source_invalidates_the_cache() {
        let dir = TempDir::new("stale");
        let path = dir.path("g.txt");
        write_sample(&path);
        let store = GraphStore::new();
        let spec = path.to_str().unwrap();
        store.load(spec).unwrap();

        // Append an edge: length changes, so the stamp mismatches even on
        // coarse-mtime filesystems.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("12 10\n");
        std::fs::write(&path, text).unwrap();

        let reloaded = store.load(spec).unwrap();
        assert_eq!(reloaded.provenance, Provenance::ParsedAndCached);
        assert!(reloaded.note.as_deref().unwrap().contains("stale"));
        assert!(reloaded.graph.has_edge(11, 9));
        // And the refreshed cache serves the new graph.
        let warm = store.load(spec).unwrap();
        assert_eq!(warm.provenance, Provenance::CacheHit);
        assert!(warm.graph.has_edge(11, 9));
    }

    #[test]
    fn corrupt_cache_falls_back_to_parse_and_heals() {
        let dir = TempDir::new("corrupt");
        let path = dir.path("g.txt");
        let g = write_sample(&path);
        let store = GraphStore::new();
        let spec = path.to_str().unwrap();
        let cache = store.load(spec).unwrap().cache.unwrap();

        let mut bytes = std::fs::read(&cache).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&cache, bytes).unwrap();

        let healed = store.load(spec).unwrap();
        assert_eq!(healed.provenance, Provenance::ParsedAndCached);
        assert!(healed.note.as_deref().unwrap().contains("cache unusable"));
        assert_same_csr(&healed.graph, &g);
        assert_eq!(store.load(spec).unwrap().provenance, Provenance::CacheHit);
    }

    #[test]
    fn cache_modes_are_respected() {
        let dir = TempDir::new("modes");
        let path = dir.path("g.txt");
        write_sample(&path);
        let spec = path.to_str().unwrap();
        let cache = GraphStore::cache_path_for(&path);

        let off = GraphStore::with_mode(CacheMode::Off);
        assert_eq!(off.load(spec).unwrap().provenance, Provenance::Parsed);
        assert!(!cache.exists());

        let ro = GraphStore::with_mode(CacheMode::ReadOnly);
        assert_eq!(ro.load(spec).unwrap().provenance, Provenance::Parsed);
        assert!(!cache.exists());

        // ReadWrite writes; ReadOnly then reads the now-warm cache.
        GraphStore::new().load(spec).unwrap();
        assert!(cache.exists());
        assert_eq!(ro.load(spec).unwrap().provenance, Provenance::CacheHit);
        // Off ignores the warm cache.
        assert_eq!(off.load(spec).unwrap().provenance, Provenance::Parsed);
    }

    #[test]
    fn direct_mbbg_path_loads_without_source() {
        let dir = TempDir::new("direct");
        let path = dir.path("g.txt");
        let g = write_sample(&path);
        let store = GraphStore::new();
        let cache = store.load(path.to_str().unwrap()).unwrap().cache.unwrap();
        std::fs::remove_file(&path).unwrap(); // source gone, cache stands alone
        let loaded = store.load(cache.to_str().unwrap()).unwrap();
        assert_eq!(loaded.provenance, Provenance::CacheHit);
        assert_same_csr(&loaded.graph, &g);
        // Only paths resolve, so the source's is no graph once it is gone.
        assert!(matches!(
            store.load(path.to_str().unwrap()),
            Err(StoreError::NotFound { .. })
        ));
    }

    #[test]
    fn ingest_builds_refreshes_and_forces() {
        let dir = TempDir::new("ingest");
        let path = dir.path("g.txt");
        write_sample(&path);
        let store = GraphStore::new();
        let spec = path.to_str().unwrap();

        let first = store.ingest(spec, false).unwrap();
        assert_eq!(first.provenance, Provenance::ParsedAndCached);
        // Fresh cache: a second ingest is a no-op cache hit…
        let second = store.ingest(spec, false).unwrap();
        assert_eq!(second.provenance, Provenance::CacheHit);
        // …unless forced.
        let forced = store.ingest(spec, true).unwrap();
        assert_eq!(forced.provenance, Provenance::ParsedAndCached);
        // Read-only stores still write on explicit ingest.
        let ro = GraphStore::with_mode(CacheMode::ReadOnly);
        let ro_forced = ro.ingest(spec, true).unwrap();
        assert_eq!(ro_forced.provenance, Provenance::ParsedAndCached);
    }

    #[test]
    fn cache_path_is_appended_not_substituted() {
        assert_eq!(
            GraphStore::cache_path_for(Path::new("/data/g.txt")),
            PathBuf::from("/data/g.txt.mbbg")
        );
        assert_eq!(
            GraphStore::cache_path_for(Path::new("bare")),
            PathBuf::from("bare.mbbg")
        );
    }
}

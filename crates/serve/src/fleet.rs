//! The sharded engine fleet: one warm [`MbbEngine`] session per graph
//! shard, with deterministic request routing and hot engine swaps.
//!
//! Engine slots are interior-mutable: [`ShardedFleet::reload_shard_from_store`]
//! swaps a shard's session for a freshly loaded graph through a shared
//! reference, so a resident server (see [`crate::stream`]) can reload a
//! shard while workers execute against it. Callers hold `Arc` clones of
//! the session they are using, so in-flight queries always finish on the
//! engine they started on; only queries admitted after the swap see the
//! new graph.

use std::sync::Arc;

// Engine-slot synchronisation goes through the mbb-conc facade so the
// reload path can be model-checked under `--cfg mbb_conc` (see
// docs/CONCURRENCY.md).
use mbb_conc::sync::RwLock;

use mbb_bigraph::graph::BipartiteGraph;
use mbb_core::engine::MbbEngine;
use mbb_core::SolverConfig;

use crate::request::QueryRequest;

/// Service-level errors: routing failures, malformed requests, fleet
/// misconfiguration. Execution-level problems (a deadline expiring, a
/// query finding nothing) are **not** errors — they are typed results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The fleet has no shards; nothing can be routed.
    EmptyFleet,
    /// A request named a graph id no shard carries.
    UnknownShard(String),
    /// Two shards were registered under the same graph id.
    DuplicateShard(String),
    /// A JSONL request line failed to parse or validate. `line` is
    /// 1-based.
    BadRequest {
        /// 1-based line number in the request stream.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// A store-resolved shard failed to load (flattened to a message so
    /// the error stays `Clone + Eq`).
    ShardLoad {
        /// The path as handed to the store.
        source: String,
        /// The underlying `StoreError`, rendered.
        message: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::EmptyFleet => write!(f, "the fleet has no shards"),
            ServeError::UnknownShard(id) => write!(f, "unknown shard {id:?}"),
            ServeError::DuplicateShard(id) => write!(f, "duplicate shard {id:?}"),
            ServeError::BadRequest { line, message } => {
                write!(f, "request line {line}: {message}")
            }
            ServeError::ShardLoad { source, message } => {
                write!(f, "shard {source}: {message}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// One shard: a graph id and the warm engine session serving it. The
/// session slot is swappable ([`ShardedFleet::reload_shard_from_store`]);
/// callers get an `Arc` clone of whatever session is current, so a swap
/// never invalidates a session already handed out.
#[derive(Debug)]
pub struct Shard {
    id: String,
    engine: RwLock<Arc<MbbEngine>>,
}

impl Shard {
    /// The shard's graph id (the routing key requests name).
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The shard's current engine session (an `Arc` clone — keep it for
    /// the duration of one query and it survives a concurrent reload).
    pub fn engine(&self) -> Arc<MbbEngine> {
        Arc::clone(&self.engine.read())
    }
}

/// A fixed set of graph shards, each served by one persistent
/// [`MbbEngine`] session, with deterministic routing from requests to
/// shards. The fleet is the state a [`StreamServer`](crate::StreamServer)
/// schedules over; it can also be queried directly (each engine is
/// `Sync`).
///
/// Routing is two-level and deterministic:
///
/// * a request with a `graph` id goes to the shard registered under
///   exactly that id (unknown ids are [`ServeError::UnknownShard`]);
/// * a request without one is assigned by FNV-1a hashing its request id
///   — stable across runs and across fleets with the same shard count.
///
/// ```
/// use mbb_serve::{QueryKind, QueryRequest, ShardedFleet};
///
/// let mut fleet = ShardedFleet::new();
/// fleet
///     .add_shard("a", mbb_bigraph::generators::uniform_edges(10, 10, 40, 1))?
///     .add_shard("b", mbb_bigraph::generators::uniform_edges(12, 12, 50, 2))?;
/// assert_eq!(fleet.len(), 2);
///
/// // Explicit routing by graph id…
/// let explicit = QueryRequest::new(1, QueryKind::Solve).on_graph("b");
/// assert_eq!(fleet.route(&explicit)?, 1);
/// // …and deterministic hash routing without one.
/// let hashed = QueryRequest::new(1, QueryKind::Solve);
/// assert_eq!(fleet.route(&hashed)?, fleet.route(&hashed)?);
/// # Ok::<(), mbb_serve::ServeError>(())
/// ```
#[derive(Debug, Default)]
pub struct ShardedFleet {
    shards: Vec<Shard>,
}

impl ShardedFleet {
    /// An empty fleet; add shards before routing anything.
    pub fn new() -> ShardedFleet {
        ShardedFleet::default()
    }

    /// Registers a shard with the default solver configuration. Returns
    /// `&mut self` so registrations chain.
    pub fn add_shard(
        &mut self,
        id: impl Into<String>,
        graph: BipartiteGraph,
    ) -> Result<&mut Self, ServeError> {
        self.add_engine(id, MbbEngine::new(graph))
    }

    /// Registers a shard by loading a path through a
    /// [`GraphStore`](mbb_store::GraphStore): warm `.mbbg` caches load
    /// without re-parsing, cold sources are parsed (and cached, per the
    /// store's mode). Returns the load provenance so callers can report
    /// how each shard came up.
    ///
    /// ```no_run
    /// use mbb_serve::ShardedFleet;
    /// use mbb_store::GraphStore;
    ///
    /// let store = GraphStore::new();
    /// let mut fleet = ShardedFleet::new();
    /// let loaded = fleet.add_shard_from_store("a", &store, "data/github.txt")?;
    /// println!("shard a: {}", loaded.describe());
    /// # Ok::<(), mbb_serve::ServeError>(())
    /// ```
    pub fn add_shard_from_store(
        &mut self,
        id: impl Into<String>,
        store: &mbb_store::GraphStore,
        source: &str,
    ) -> Result<mbb_store::LoadedGraph, ServeError> {
        let loaded = store.load(source).map_err(|e| ServeError::ShardLoad {
            source: source.to_string(),
            message: e.to_string(),
        })?;
        let engine = MbbEngine::from_arc(loaded.graph.clone(), SolverConfig::default());
        self.add_engine(id, engine)?;
        Ok(loaded)
    }

    /// Registers an already-built engine session as a shard — the path
    /// for pre-warmed engines.
    pub fn add_engine(
        &mut self,
        id: impl Into<String>,
        engine: MbbEngine,
    ) -> Result<&mut Self, ServeError> {
        let id = id.into();
        if self.shards.iter().any(|s| s.id == id) {
            return Err(ServeError::DuplicateShard(id));
        }
        self.shards.push(Shard {
            id,
            engine: RwLock::new(Arc::new(engine)),
        });
        Ok(self)
    }

    /// Reloads shard `id` from a store-resolved `source` without dropping
    /// in-flight queries: the new graph is loaded (warm `.mbbg` caches
    /// apply), a fresh session is built for it, and the shard's engine
    /// slot is swapped atomically.
    ///
    /// When the loaded graph is byte-identical to the one already being
    /// served (a reload of an unchanged source), the shard keeps its
    /// current session instead — the reload then costs no index
    /// recomputation at all. The returned flag says which path was taken
    /// (`true` = session kept).
    pub fn reload_shard_from_store(
        &self,
        id: &str,
        store: &mbb_store::GraphStore,
        source: &str,
    ) -> Result<(mbb_store::LoadedGraph, bool), ServeError> {
        let index = self.route_id(id)?;
        let loaded = store.load(source).map_err(|e| ServeError::ShardLoad {
            source: source.to_string(),
            message: e.to_string(),
        })?;
        let current = self.shards[index].engine();
        let kept = *loaded.graph == *current.graph();
        if !kept {
            let engine = MbbEngine::from_arc(loaded.graph.clone(), *current.config());
            *self.shards[index].engine.write() = Arc::new(engine);
        }
        Ok((loaded, kept))
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True when no shard is registered.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The shards, in registration order (the order shard indices refer
    /// to).
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// The current engine of shard `index` (an `Arc` clone — see
    /// [`Shard::engine`] for the reload semantics).
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn engine(&self, index: usize) -> Arc<MbbEngine> {
        self.shards[index].engine()
    }

    /// Resolves a graph id to its shard index.
    pub fn route_id(&self, graph_id: &str) -> Result<usize, ServeError> {
        if self.shards.is_empty() {
            return Err(ServeError::EmptyFleet);
        }
        self.shards
            .iter()
            .position(|s| s.id == graph_id)
            .ok_or_else(|| ServeError::UnknownShard(graph_id.to_string()))
    }

    /// Deterministically assigns an arbitrary routing key to a shard:
    /// 64-bit FNV-1a of the key, modulo the shard count. Stable across
    /// runs, processes and fleets with equal shard counts.
    fn route_key(&self, key: &str) -> Result<usize, ServeError> {
        if self.shards.is_empty() {
            return Err(ServeError::EmptyFleet);
        }
        Ok((fnv1a(key.as_bytes()) % self.shards.len() as u64) as usize)
    }

    /// Routes a request: by its `graph` id when present, else by hashing
    /// its request id — 64-bit FNV-1a of the decimal id, modulo the shard
    /// count, which is stable across runs, processes and fleets with
    /// equal shard counts.
    pub fn route(&self, request: &QueryRequest) -> Result<usize, ServeError> {
        match &request.graph {
            Some(id) => self.route_id(id),
            None => self.route_key(&request.id.to_string()),
        }
    }
}

/// 64-bit FNV-1a — tiny, dependency-free, and stable, which is all the
/// routing hash needs (this is placement, not security).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::QueryKind;
    use mbb_bigraph::generators;
    use mbb_store::Provenance;

    fn two_shards() -> ShardedFleet {
        let mut fleet = ShardedFleet::new();
        fleet
            .add_shard("a", generators::uniform_edges(8, 8, 30, 1))
            .unwrap()
            .add_shard("b", generators::uniform_edges(8, 8, 30, 2))
            .unwrap();
        fleet
    }

    #[test]
    fn explicit_routing_is_exact() {
        let fleet = two_shards();
        assert_eq!(fleet.route_id("a").unwrap(), 0);
        assert_eq!(fleet.route_id("b").unwrap(), 1);
        assert_eq!(
            fleet.route_id("c"),
            Err(ServeError::UnknownShard("c".into()))
        );
    }

    #[test]
    fn hash_routing_is_deterministic_and_total() {
        let fleet = two_shards();
        for id in 0..50u64 {
            let request = QueryRequest::new(id, QueryKind::Solve);
            let first = fleet.route(&request).unwrap();
            assert_eq!(fleet.route(&request).unwrap(), first);
            assert!(first < fleet.len());
        }
        // Both shards receive some hash-routed traffic.
        let hits: std::collections::HashSet<usize> = (0..50u64)
            .map(|id| {
                fleet
                    .route(&QueryRequest::new(id, QueryKind::Solve))
                    .unwrap()
            })
            .collect();
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn duplicate_and_empty_are_errors() {
        let mut fleet = two_shards();
        assert_eq!(
            fleet
                .add_shard("a", generators::uniform_edges(4, 4, 8, 3))
                .err(),
            Some(ServeError::DuplicateShard("a".into()))
        );
        let empty = ShardedFleet::new();
        assert_eq!(empty.route_id("a"), Err(ServeError::EmptyFleet));
        assert_eq!(empty.route_key("a"), Err(ServeError::EmptyFleet));
    }

    #[test]
    fn store_resolved_shards_load_and_route() {
        let dir = std::env::temp_dir().join(format!("mbb-fleet-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard.txt");
        mbb_bigraph::io::write_edge_list_file(&generators::uniform_edges(6, 6, 20, 4), &path)
            .unwrap();
        let store = mbb_store::GraphStore::new();
        let mut fleet = ShardedFleet::new();
        let cold = fleet
            .add_shard_from_store("s", &store, path.to_str().unwrap())
            .unwrap();
        assert_ne!(cold.provenance, Provenance::CacheHit);
        assert_eq!(fleet.route_id("s").unwrap(), 0);
        // A second fleet over the same source comes up from the cache.
        let mut warm_fleet = ShardedFleet::new();
        let warm = warm_fleet
            .add_shard_from_store("s", &store, path.to_str().unwrap())
            .unwrap();
        assert_eq!(warm.provenance, Provenance::CacheHit);
        assert_eq!(
            warm_fleet.engine(0).graph().num_edges(),
            fleet.engine(0).graph().num_edges()
        );
        // Unresolvable sources surface as ShardLoad.
        assert!(matches!(
            fleet.add_shard_from_store("t", &store, "no-such-file.txt"),
            Err(ServeError::ShardLoad { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reload_swaps_engine_but_not_sessions_already_held() {
        let dir = std::env::temp_dir().join(format!("mbb-fleet-reload-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let old_graph = generators::uniform_edges(8, 8, 30, 1);
        let new_graph = generators::uniform_edges(12, 12, 60, 2);
        let path = dir.join("next.txt");
        mbb_bigraph::io::write_edge_list_file(&new_graph, &path).unwrap();

        let mut fleet = ShardedFleet::new();
        fleet.add_shard("a", old_graph.clone()).unwrap();
        let held = fleet.engine(0); // a session in flight across the swap

        let store = mbb_store::GraphStore::new();
        let (loaded, kept) = fleet
            .reload_shard_from_store("a", &store, path.to_str().unwrap())
            .unwrap();
        assert!(!kept, "different graph must build a fresh session");
        assert_eq!(loaded.graph.num_edges(), new_graph.num_edges());
        // The held session still serves the old graph; new fetches see
        // the new one.
        assert_eq!(held.graph().num_edges(), old_graph.num_edges());
        assert_eq!(fleet.engine(0).graph().num_edges(), new_graph.num_edges());

        // Reloading the unchanged source keeps the warm session instead.
        let warm = fleet.engine(0);
        warm.solve(); // warm the order cache
        let (_, kept) = fleet
            .reload_shard_from_store("a", &store, path.to_str().unwrap())
            .unwrap();
        assert!(kept, "identical graph must keep the warm session");
        assert!(Arc::ptr_eq(&warm, &fleet.engine(0)));
        let again = fleet.engine(0).solve();
        assert_eq!(again.stats.index.orders_computed, 0);
        assert_eq!(again.stats.index.orders_reused, 1);

        // Unknown shards and unloadable sources are typed errors.
        assert!(matches!(
            fleet.reload_shard_from_store("zz", &store, path.to_str().unwrap()),
            Err(ServeError::UnknownShard(_))
        ));
        assert!(matches!(
            fleet.reload_shard_from_store("a", &store, "no-such.txt"),
            Err(ServeError::ShardLoad { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn error_display_is_informative() {
        assert!(ServeError::UnknownShard("x".into())
            .to_string()
            .contains("x"));
        assert!(ServeError::BadRequest {
            line: 3,
            message: "no kind".into()
        }
        .to_string()
        .contains("line 3"));
    }
}

//! Graph storage layer: a versioned binary cache format and a catalog
//! that resolves names or paths to ready-to-serve graphs.
//!
//! The paper's sparse experiments (§6.2) run on KONECT edge lists of up to
//! millions of edges. Text parsing — even through the streaming two-pass
//! builder in `mbb_bigraph::io` — is the dominant startup cost for a
//! serving fleet that reloads the same graphs on every boot. This crate
//! removes it:
//!
//! * [`binfmt`] — the `.mbbg` on-disk format: magic + version + source
//!   stamp + both CSR offset arrays + the left adjacency + checksum.
//!   Loading checks the length and checksum, then rebuilds the graph from
//!   its left rows; saving is atomic (temp file + rename).
//! * [`store`] — [`GraphStore`], the catalog front-end. It resolves a name
//!   or path, transparently writes/refreshes the cache next to the source
//!   file, and reports provenance ([`Provenance`]) and load timings so
//!   callers can tell a cold parse from a warm cache hit.
//!
//! A graph loaded from a warm cache is **byte-identical** (CSR offsets and
//! adjacency) to one parsed from the source text: both end in
//! `BipartiteGraph::from_left_rows`, which validates the left rows and
//! derives the right side from them, and the decoder also checks the
//! derived right offsets against the stored ones.
//!
//! # Example
//!
//! ```no_run
//! use mbb_store::GraphStore;
//!
//! let store = GraphStore::new();
//! let loaded = store.load("data/github.txt")?;
//! println!(
//!     "{}: {:?} in {:.1?}",
//!     loaded.source.display(),
//!     loaded.provenance,
//!     loaded.load_time
//! );
//! println!("|E| = {}", loaded.graph.num_edges());
//! # Ok::<(), mbb_store::StoreError>(())
//! ```

#![warn(missing_docs)]

pub mod binfmt;
pub mod store;

pub use binfmt::{SourceStamp, StoreError, FORMAT_VERSION, MAGIC};
pub use store::{CacheMode, GraphStore, LoadedGraph, Provenance};

//! The storage subsystem end to end: streaming reader vs. buffered
//! reader, binary cache round trips, rejection of damaged caches, and
//! `GraphStore` provenance.

use std::io::Cursor;
use std::path::PathBuf;

use mbb_bigraph::graph::BipartiteGraph;
use mbb_bigraph::io::{
    read_edge_list, read_edge_list_file, read_edge_list_streaming, write_edge_list,
    write_edge_list_file,
};
use mbb_store::binfmt::{decode_graph, encode_graph};
use mbb_store::{CacheMode, GraphStore, Provenance, SourceStamp, StoreError};
use proptest::prelude::*;

/// A scratch directory that cleans up after itself.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("mbb-store-it-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn assert_same_csr(a: &BipartiteGraph, b: &BipartiteGraph, context: &str) {
    assert_eq!(
        a.left_offsets(),
        b.left_offsets(),
        "{context}: left offsets"
    );
    assert_eq!(
        a.left_neighbors(),
        b.left_neighbors(),
        "{context}: left adjacency"
    );
    assert_eq!(
        a.right_offsets(),
        b.right_offsets(),
        "{context}: right offsets"
    );
    assert_eq!(
        a.right_neighbors(),
        b.right_neighbors(),
        "{context}: right adjacency"
    );
}

fn edge_list_strategy() -> impl Strategy<Value = (u32, u32, Vec<(u32, u32)>)> {
    (1..30u32, 1..30u32).prop_flat_map(|(nl, nr)| {
        proptest::collection::vec((0..nl, 0..nr), 0..200).prop_map(move |edges| (nl, nr, edges))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Acceptance criterion, end to end: text → streaming reader →
    // binary cache → decode is byte-identical to the buffered reader at
    // every step (duplicate edges included — the writer emits the
    // deduplicated graph, the readers dedup the raw text).
    #[test]
    fn text_to_cache_to_csr_is_byte_identical(case in edge_list_strategy()) {
        let (nl, nr, edges) = case;
        let graph = BipartiteGraph::from_edges(nl, nr, edges.clone()).unwrap();
        let mut text = Vec::new();
        write_edge_list(&graph, &mut text).unwrap();
        // Duplicate a prefix of the raw edges at the end of the file to
        // exercise dedup in both readers.
        for (u, v) in edges.iter().take(7) {
            text.extend_from_slice(format!("{} {}\n", u + 1, v + 1).as_bytes());
        }

        let buffered = read_edge_list(Cursor::new(&text)).unwrap();
        let streamed = read_edge_list_streaming(Cursor::new(&text)).unwrap();
        assert_same_csr(&buffered, &streamed, "streaming vs buffered");

        let bytes = encode_graph(&streamed, SourceStamp::default());
        let (decoded, _) = decode_graph(&bytes).unwrap();
        assert_same_csr(&buffered, &decoded, "cache decode vs buffered");
    }

    // Any single corrupted byte in the cache is rejected, never decoded
    // into a wrong graph.
    #[test]
    fn corrupted_cache_never_decodes(case in edge_list_strategy(), pos_seed in 0usize..10_000, bit in 0u8..8) {
        let (nl, nr, edges) = case;
        let graph = BipartiteGraph::from_edges(nl, nr, edges).unwrap();
        let mut bytes = encode_graph(&graph, SourceStamp::default());
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= 1 << bit;
        match decode_graph(&bytes) {
            Err(_) => {}
            Ok((back, stamp)) => {
                // Flips inside the source stamp leave the graph intact but
                // must still fail the checksum… unless the flip targets the
                // checksum-covered region, which always errors. A decode
                // that *succeeds* can therefore never happen.
                prop_assert!(false, "corrupt byte {pos} decoded: {back:?} stamp {stamp:?}");
            }
        }
    }
}

#[test]
fn warm_cache_load_is_byte_identical_to_text_parse() {
    let dir = TempDir::new("acceptance");
    let path = dir.0.join("graph.txt");
    let graph = mbb_bigraph::generators::chung_lu_bipartite(
        &mbb_bigraph::generators::ChungLuParams {
            num_left: 150,
            num_right: 120,
            num_edges: 900,
            left_exponent: 0.7,
            right_exponent: 0.7,
        },
        99,
    );
    write_edge_list_file(&graph, &path).unwrap();
    let store = GraphStore::new();
    let spec = path.to_str().unwrap();

    let cold = store.load(spec).unwrap();
    assert_eq!(cold.provenance, Provenance::ParsedAndCached);
    let warm = store.load(spec).unwrap();
    assert_eq!(warm.provenance, Provenance::CacheHit);

    let parsed = read_edge_list_file(&path).unwrap();
    assert_same_csr(&warm.graph, &parsed, "warm cache vs read_edge_list_file");
    assert_same_csr(
        &cold.graph,
        &parsed,
        "cold store load vs read_edge_list_file",
    );
}

#[test]
fn truncation_version_bump_and_magic_are_rejected() {
    let graph = mbb_bigraph::generators::uniform_edges(25, 25, 120, 8);
    let bytes = encode_graph(&graph, SourceStamp::default());

    for cut in [0, 2, 10, 47, bytes.len() / 3, bytes.len() - 1] {
        assert!(
            matches!(
                decode_graph(&bytes[..cut]),
                Err(StoreError::Truncated { .. }) | Err(StoreError::BadMagic { .. })
            ),
            "cut at {cut} must be rejected"
        );
    }

    let mut bumped = bytes.clone();
    bumped[4] = 0x7f;
    assert!(matches!(
        decode_graph(&bumped),
        Err(StoreError::UnsupportedVersion { found: 0x7f, .. })
    ));

    let mut alien = bytes.clone();
    alien[..4].copy_from_slice(b"PNG\0");
    assert!(matches!(
        decode_graph(&alien),
        Err(StoreError::BadMagic { .. })
    ));
}

#[test]
fn store_reports_provenance_across_the_cache_lifecycle() {
    let dir = TempDir::new("lifecycle");
    let path = dir.0.join("g.txt");
    std::fs::write(&path, "1 1\n1 2\n2 1\n2 2\n").unwrap();
    let spec = path.to_str().unwrap();

    // Off: always a parse, no cache file appears.
    let off = GraphStore::with_mode(CacheMode::Off);
    assert_eq!(off.load(spec).unwrap().provenance, Provenance::Parsed);
    assert!(!path.with_file_name("g.txt.mbbg").exists());

    // ReadWrite: parse+cache, then hit; timings are populated.
    let store = GraphStore::new();
    let cold = store.load(spec).unwrap();
    assert_eq!(cold.provenance, Provenance::ParsedAndCached);
    assert!(cold.cache_write_time.is_some());
    let warm = store.load(spec).unwrap();
    assert_eq!(warm.provenance, Provenance::CacheHit);
    assert!(warm.load_time.as_nanos() > 0);

    // Touching the source (content change) invalidates; the store heals.
    std::fs::write(&path, "1 1\n1 2\n2 1\n2 2\n3 1\n").unwrap();
    let refreshed = store.load(spec).unwrap();
    assert_eq!(refreshed.provenance, Provenance::ParsedAndCached);
    assert_eq!(refreshed.graph.num_edges(), 5);
    assert_eq!(store.load(spec).unwrap().provenance, Provenance::CacheHit);

    // A parse failure in the source surfaces as a Parse error, cache or
    // not.
    std::fs::write(&path, "1 1\nbroken line\n").unwrap();
    assert!(matches!(store.load(spec), Err(StoreError::Parse(_))));
}

#[test]
fn streaming_reader_handles_dirty_real_world_files() {
    // Mixed comments, blank lines, extra columns, duplicates, unsorted.
    let text = "\
% KONECT-style header
# another comment style
5 5 3.5 1370000000

1 2
5 5
1 2
3 1 77
2 4
";
    let streamed = read_edge_list_streaming(Cursor::new(text)).unwrap();
    let buffered = read_edge_list(Cursor::new(text)).unwrap();
    assert_same_csr(&streamed, &buffered, "dirty file");
    // Six data lines, two of them duplicates.
    assert_eq!(streamed.num_edges(), 4);
    assert_eq!(streamed.num_left(), 5);
    assert_eq!(streamed.num_right(), 5);
}

//! The `.mbbg` binary graph cache format.
//!
//! Layout (all integers little-endian):
//!
//! | offset | size          | field                                    |
//! |--------|---------------|------------------------------------------|
//! | 0      | 4             | magic `MBBG`                             |
//! | 4      | 2             | format version (currently 1)             |
//! | 6      | 2             | reserved flags (must be 0)               |
//! | 8      | 8             | source file length (bytes)               |
//! | 16     | 8             | source mtime, seconds since epoch        |
//! | 24     | 4             | source mtime, subsecond nanos            |
//! | 28     | 4             | reserved (must be 0)                     |
//! | 32     | 4             | `num_left` (u32)                         |
//! | 36     | 4             | `num_right` (u32)                        |
//! | 40     | 8             | `num_edges` (u64)                        |
//! | 48     | 8·(nl+1)      | left CSR offsets (u64 each)              |
//! | …      | 8·(nr+1)      | right CSR offsets (u64 each)             |
//! | …      | 4·m           | left→right adjacency (u32 ids)           |
//! | …      | 4·m           | right→left adjacency (u32 ids)           |
//! | end−8  | 8             | FNV-1a 64 checksum of all prior bytes    |
//!
//! The source stamp (length + mtime) is how [`crate::GraphStore`] decides
//! whether a cache is still fresh without reading the source text. The
//! checksum guards against torn writes and bit rot; version and magic guard
//! against format drift — each failure mode maps to its own
//! [`StoreError`] variant so callers can distinguish "rebuild the cache"
//! from "this is not a cache file at all".

use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::time::UNIX_EPOCH;

use mbb_bigraph::graph::{BipartiteGraph, GraphError};
use mbb_bigraph::io::IoError;

/// File magic: the first four bytes of every `.mbbg` file.
pub const MAGIC: [u8; 4] = *b"MBBG";

/// Current format version. Bump on any layout change; older readers
/// reject newer files with [`StoreError::UnsupportedVersion`].
pub const FORMAT_VERSION: u16 = 1;

/// Fixed-size header length in bytes (everything before the offset
/// arrays).
const HEADER_LEN: usize = 48;

/// Trailing checksum length in bytes.
const CHECKSUM_LEN: usize = 8;

/// Identity stamp of the source text file a cache was built from.
///
/// Two stamps compare equal iff length and mtime match — the cheap
/// freshness test `GraphStore` uses before trusting a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SourceStamp {
    /// Source file length in bytes.
    pub len: u64,
    /// Source mtime: whole seconds since the Unix epoch (0 if unknown).
    pub mtime_secs: u64,
    /// Source mtime: subsecond nanoseconds.
    pub mtime_nanos: u32,
}

impl SourceStamp {
    /// Stamp of a filesystem entry. Mtime falls back to 0 on filesystems
    /// that do not report one.
    pub fn of(meta: &fs::Metadata) -> SourceStamp {
        let (mtime_secs, mtime_nanos) = meta
            .modified()
            .ok()
            .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
            .map(|d| (d.as_secs(), d.subsec_nanos()))
            .unwrap_or((0, 0));
        SourceStamp {
            len: meta.len(),
            mtime_secs,
            mtime_nanos,
        }
    }

    /// Stamp of the file at `path`, if it exists.
    pub fn of_path(path: &Path) -> io::Result<SourceStamp> {
        Ok(SourceStamp::of(&fs::metadata(path)?))
    }
}

/// Errors raised by the storage layer.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with the `MBBG` magic — not a cache file.
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The file claims a format version this build cannot read.
    UnsupportedVersion {
        /// Version in the file.
        found: u16,
        /// Newest version this build understands.
        supported: u16,
    },
    /// A reserved field is non-zero — written by a future build
    /// signalling a layout variant this build does not understand.
    UnsupportedFlags {
        /// Flag bits found in the file.
        found: u32,
    },
    /// The file is shorter than its own header promises.
    Truncated {
        /// Bytes the header implies.
        expected: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// The trailing checksum does not match the content.
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum computed over the content.
        computed: u64,
    },
    /// The CSR arrays decoded from the file violate a graph invariant.
    InvalidGraph(GraphError),
    /// Parsing the source text (during a cache build/refresh) failed.
    Parse(IoError),
    /// A name could not be resolved to any existing file.
    NotFound {
        /// The name or path as given.
        spec: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::BadMagic { found } => {
                write!(f, "not a .mbbg graph cache (magic {found:02x?})")
            }
            StoreError::UnsupportedVersion { found, supported } => write!(
                f,
                "graph cache version {found} is newer than supported version {supported}"
            ),
            StoreError::UnsupportedFlags { found } => {
                write!(f, "graph cache carries unsupported flag bits {found:#06x}")
            }
            StoreError::Truncated { expected, actual } => write!(
                f,
                "graph cache truncated: {actual} bytes present, {expected} expected"
            ),
            StoreError::ChecksumMismatch { stored, computed } => write!(
                f,
                "graph cache corrupt: checksum {computed:016x} != stored {stored:016x}"
            ),
            StoreError::InvalidGraph(e) => write!(f, "graph cache decoded invalid CSR: {e}"),
            StoreError::Parse(e) => write!(f, "{e}"),
            StoreError::NotFound { spec } => write!(f, "graph {spec:?} not found"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::InvalidGraph(e) => Some(e),
            StoreError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<GraphError> for StoreError {
    fn from(e: GraphError) -> Self {
        StoreError::InvalidGraph(e)
    }
}

impl From<IoError> for StoreError {
    fn from(e: IoError) -> Self {
        StoreError::Parse(e)
    }
}

/// 64-bit FNV-1a over a byte slice — tiny, dependency-free, stable. This
/// is an integrity check against torn writes, not a cryptographic seal.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn push_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Serialises a graph (plus its source stamp) into the `.mbbg` byte
/// layout, checksum included.
pub fn encode_graph(graph: &BipartiteGraph, stamp: SourceStamp) -> Vec<u8> {
    let nl = graph.num_left();
    let nr = graph.num_right();
    let m = graph.num_edges();
    let total = HEADER_LEN + 8 * (nl + 1 + nr + 1) + 4 * (m + m) + CHECKSUM_LEN;
    let mut buf = Vec::with_capacity(total);
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    buf.extend_from_slice(&0u16.to_le_bytes());
    push_u64(&mut buf, stamp.len);
    push_u64(&mut buf, stamp.mtime_secs);
    push_u32(&mut buf, stamp.mtime_nanos);
    push_u32(&mut buf, 0);
    push_u32(&mut buf, nl as u32);
    push_u32(&mut buf, nr as u32);
    push_u64(&mut buf, m as u64);
    for &o in graph.left_offsets() {
        push_u64(&mut buf, o as u64);
    }
    for &o in graph.right_offsets() {
        push_u64(&mut buf, o as u64);
    }
    for &v in graph.left_neighbors() {
        push_u32(&mut buf, v);
    }
    for &u in graph.right_neighbors() {
        push_u32(&mut buf, u);
    }
    let checksum = fnv1a64(&buf);
    push_u64(&mut buf, checksum);
    debug_assert_eq!(buf.len(), total);
    buf
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> &'a [u8] {
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        out
    }

    fn u16(&mut self) -> u16 {
        u16::from_le_bytes(self.take(2).try_into().expect("2 bytes"))
    }

    fn u32(&mut self) -> u32 {
        u32::from_le_bytes(self.take(4).try_into().expect("4 bytes"))
    }

    fn u64(&mut self) -> u64 {
        u64::from_le_bytes(self.take(8).try_into().expect("8 bytes"))
    }
}

/// Decodes a `.mbbg` byte buffer back into a graph and the stamp of the
/// source it was built from.
///
/// Validation happens outside-in: magic, version, self-declared length
/// (truncation), checksum, then the full CSR invariants via
/// [`BipartiteGraph::from_csr`] — so a corrupt file can never produce a
/// structurally broken graph.
pub fn decode_graph(bytes: &[u8]) -> Result<(BipartiteGraph, SourceStamp), StoreError> {
    if bytes.len() < MAGIC.len() {
        return Err(StoreError::Truncated {
            expected: (HEADER_LEN + CHECKSUM_LEN) as u64,
            actual: bytes.len() as u64,
        });
    }
    if bytes[..4] != MAGIC {
        return Err(StoreError::BadMagic {
            found: bytes[..4].try_into().expect("4 bytes"),
        });
    }
    if bytes.len() < HEADER_LEN + CHECKSUM_LEN {
        return Err(StoreError::Truncated {
            expected: (HEADER_LEN + CHECKSUM_LEN) as u64,
            actual: bytes.len() as u64,
        });
    }
    let mut r = Reader { bytes, pos: 4 };
    let version = r.u16();
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    // Reserved fields must be zero: a future writer that sets them is
    // signalling a layout this build cannot interpret.
    let flags = r.u16();
    if flags != 0 {
        return Err(StoreError::UnsupportedFlags {
            found: u32::from(flags),
        });
    }
    let stamp = SourceStamp {
        len: r.u64(),
        mtime_secs: r.u64(),
        mtime_nanos: r.u32(),
    };
    let reserved = r.u32();
    if reserved != 0 {
        return Err(StoreError::UnsupportedFlags { found: reserved });
    }
    let nl = r.u32() as usize;
    let nr = r.u32() as usize;
    let m = r.u64() as usize;
    // Saturating: a corrupt header must produce a mismatch, not overflow.
    let expected = (HEADER_LEN + CHECKSUM_LEN)
        .saturating_add(8usize.saturating_mul(nl + 1 + nr + 1))
        .saturating_add(4usize.saturating_mul(m.saturating_mul(2)));
    if bytes.len() != expected {
        return Err(StoreError::Truncated {
            expected: expected as u64,
            actual: bytes.len() as u64,
        });
    }
    let stored = u64::from_le_bytes(
        bytes[bytes.len() - CHECKSUM_LEN..]
            .try_into()
            .expect("8 bytes"),
    );
    let computed = fnv1a64(&bytes[..bytes.len() - CHECKSUM_LEN]);
    if stored != computed {
        return Err(StoreError::ChecksumMismatch { stored, computed });
    }
    let read_offsets =
        |r: &mut Reader<'_>, n: usize| -> Vec<usize> { (0..n).map(|_| r.u64() as usize).collect() };
    let read_ids = |r: &mut Reader<'_>, n: usize| -> Vec<u32> { (0..n).map(|_| r.u32()).collect() };
    let left_offsets = read_offsets(&mut r, nl + 1);
    let right_offsets = read_offsets(&mut r, nr + 1);
    let left_neighbors = read_ids(&mut r, m);
    let right_neighbors = read_ids(&mut r, m);
    let graph =
        BipartiteGraph::from_csr(left_offsets, left_neighbors, right_offsets, right_neighbors)?;
    Ok((graph, stamp))
}

/// Writes a graph to `path` in `.mbbg` format, atomically: the bytes go to
/// a `.tmp` sibling first and are renamed into place, so a crashed writer
/// never leaves a half-written cache where a reader will trust it.
pub fn save_graph(graph: &BipartiteGraph, stamp: SourceStamp, path: &Path) -> io::Result<()> {
    let bytes = encode_graph(graph, stamp);
    let tmp = path.with_extension("mbbg.tmp");
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_all()?;
    }
    match fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Loads a `.mbbg` file from disk.
pub fn load_graph(path: &Path) -> Result<(BipartiteGraph, SourceStamp), StoreError> {
    let bytes = fs::read(path)?;
    decode_graph(&bytes)
}

/// Reads only the source stamp from a `.mbbg` file — the 48-byte header,
/// with magic/version/flags validated but no checksum pass.
///
/// This is the cheap freshness probe: deciding that a multi-hundred-MB
/// cache is stale must not cost reading and checksumming the whole file.
/// A stamp match is always followed by a full (checksummed, validated)
/// [`load_graph`] before any graph is served.
pub fn load_stamp(path: &Path) -> Result<SourceStamp, StoreError> {
    use std::io::Read;
    let mut header = [0u8; HEADER_LEN];
    let mut file = fs::File::open(path)?;
    file.read_exact(&mut header).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            StoreError::Truncated {
                expected: (HEADER_LEN + CHECKSUM_LEN) as u64,
                actual: fs::metadata(path).map(|m| m.len()).unwrap_or(0),
            }
        } else {
            StoreError::Io(e)
        }
    })?;
    if header[..4] != MAGIC {
        return Err(StoreError::BadMagic {
            found: header[..4].try_into().expect("4 bytes"),
        });
    }
    let mut r = Reader {
        bytes: &header,
        pos: 4,
    };
    let version = r.u16();
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let flags = r.u16();
    if flags != 0 {
        return Err(StoreError::UnsupportedFlags {
            found: u32::from(flags),
        });
    }
    Ok(SourceStamp {
        len: r.u64(),
        mtime_secs: r.u64(),
        mtime_nanos: r.u32(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbb_bigraph::generators::uniform_edges;

    fn sample() -> BipartiteGraph {
        uniform_edges(20, 15, 80, 7)
    }

    fn stamp() -> SourceStamp {
        SourceStamp {
            len: 1234,
            mtime_secs: 1_700_000_000,
            mtime_nanos: 42,
        }
    }

    #[test]
    fn encode_decode_roundtrip_is_byte_identical() {
        let g = sample();
        let bytes = encode_graph(&g, stamp());
        let (back, s) = decode_graph(&bytes).unwrap();
        assert_eq!(s, stamp());
        assert_eq!(back.left_offsets(), g.left_offsets());
        assert_eq!(back.left_neighbors(), g.left_neighbors());
        assert_eq!(back.right_offsets(), g.right_offsets());
        assert_eq!(back.right_neighbors(), g.right_neighbors());
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = BipartiteGraph::from_edges(0, 0, []).unwrap();
        let bytes = encode_graph(&g, SourceStamp::default());
        let (back, _) = decode_graph(&bytes).unwrap();
        assert_eq!(back.num_vertices(), 0);
        assert_eq!(back.num_edges(), 0);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = encode_graph(&sample(), stamp());
        bytes[0] = b'X';
        assert!(matches!(
            decode_graph(&bytes),
            Err(StoreError::BadMagic { .. })
        ));
    }

    #[test]
    fn version_bump_is_rejected() {
        let mut bytes = encode_graph(&sample(), stamp());
        bytes[4] = FORMAT_VERSION as u8 + 1;
        assert!(matches!(
            decode_graph(&bytes),
            Err(StoreError::UnsupportedVersion { found, .. }) if found == FORMAT_VERSION + 1
        ));
    }

    #[test]
    fn nonzero_reserved_fields_are_rejected() {
        // Rebuild the checksum so the flags check itself is what fires.
        let reject = |patch: fn(&mut [u8])| {
            let mut bytes = encode_graph(&sample(), stamp());
            patch(&mut bytes);
            let body = bytes.len() - CHECKSUM_LEN;
            let checksum = fnv1a64(&bytes[..body]);
            bytes[body..].copy_from_slice(&checksum.to_le_bytes());
            decode_graph(&bytes).unwrap_err()
        };
        assert!(matches!(
            reject(|b| b[6] = 1),
            StoreError::UnsupportedFlags { found: 1 }
        ));
        assert!(matches!(
            reject(|b| b[29] = 2),
            StoreError::UnsupportedFlags { .. }
        ));
    }

    #[test]
    fn load_stamp_reads_only_the_header() {
        let dir = std::env::temp_dir().join(format!("mbb-binfmt-stamp-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.mbbg");
        save_graph(&sample(), stamp(), &path).unwrap();
        assert_eq!(load_stamp(&path).unwrap(), stamp());
        // A file that is all header and no payload still yields its stamp
        // (the full load is what validates) — but a shorter one errors.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..HEADER_LEN]).unwrap();
        assert_eq!(load_stamp(&path).unwrap(), stamp());
        fs::write(&path, &bytes[..10]).unwrap();
        assert!(matches!(
            load_stamp(&path),
            Err(StoreError::Truncated { .. })
        ));
        fs::write(&path, b"JUNKJUNKJUNK".repeat(10)).unwrap();
        assert!(matches!(
            load_stamp(&path),
            Err(StoreError::BadMagic { .. })
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncation_is_rejected_at_any_cut() {
        let bytes = encode_graph(&sample(), stamp());
        for cut in [3, 20, HEADER_LEN, bytes.len() / 2, bytes.len() - 1] {
            let err = decode_graph(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, StoreError::Truncated { .. }),
                "cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn corruption_anywhere_in_the_payload_is_caught() {
        let clean = encode_graph(&sample(), stamp());
        // Flip one bit in each region: offsets, adjacency, checksum.
        for pos in [HEADER_LEN + 3, clean.len() / 2, clean.len() - 2] {
            let mut bytes = clean.clone();
            bytes[pos] ^= 0x40;
            let err = decode_graph(&bytes).unwrap_err();
            assert!(
                matches!(err, StoreError::ChecksumMismatch { .. }),
                "pos {pos}: {err}"
            );
        }
    }

    #[test]
    fn save_and_load_via_files() {
        let dir = std::env::temp_dir().join("mbb-binfmt-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.mbbg");
        let g = sample();
        save_graph(&g, stamp(), &path).unwrap();
        let (back, s) = load_graph(&path).unwrap();
        assert_eq!(s, stamp());
        assert_eq!(back.num_edges(), g.num_edges());
        assert!(!path.with_extension("mbbg.tmp").exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn error_display_names_the_failure() {
        let e = StoreError::UnsupportedVersion {
            found: 9,
            supported: 1,
        };
        assert!(e.to_string().contains("version 9"));
        let e = StoreError::ChecksumMismatch {
            stored: 1,
            computed: 2,
        };
        assert!(e.to_string().contains("corrupt"));
        let e = StoreError::NotFound { spec: "g".into() };
        assert!(e.to_string().contains("\"g\""));
    }
}

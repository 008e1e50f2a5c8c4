//! The `.mbbg` binary graph cache format.
//!
//! Layout of version 2 (all integers little-endian):
//!
//! | offset | size          | field                                    |
//! |--------|---------------|------------------------------------------|
//! | 0      | 4             | magic `MBBG`                             |
//! | 4      | 2             | format version (currently 2)             |
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
//! | end−8  | 8             | FNV-1a 64 checksum of all prior bytes    |
//!
//! The right adjacency is not stored: [`decode_graph`] derives it from the
//! left rows with [`BipartiteGraph::from_left_rows`], the constructor every
//! graph goes through, and rejects a file whose stored right offsets differ
//! from the derived ones. The right offsets stay in the file so that its
//! length backs every allocation the decoder makes: the header's three
//! counts must agree with the length before anything is read, so a short
//! file cannot claim billions of vertices. Version 1 also stored the right
//! adjacency; it is not read any more (see [`FORMAT_VERSION`]).
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

/// Current format version. Bump on any layout change: a reader rejects
/// every other version with [`StoreError::UnsupportedVersion`], and
/// [`crate::GraphStore`] then rebuilds the cache from its source text.
pub const FORMAT_VERSION: u16 = 2;

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
        /// The one version this build reads.
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
    /// No file exists at the path given.
    NotFound {
        /// The path as given.
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
                "graph cache version {found} is not supported (this build reads version {supported})"
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
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
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
    let total = HEADER_LEN + 8 * (nl + 1 + nr + 1) + 4 * m + CHECKSUM_LEN;
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
    let checksum = fnv1a64(&buf);
    push_u64(&mut buf, checksum);
    debug_assert_eq!(buf.len(), total);
    buf
}

/// A cursor over `.mbbg` bytes; reading past the end is
/// [`StoreError::Truncated`], never a panic.
struct Reader<'a> {
    rest: &'a [u8],
    len: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader {
            rest: bytes,
            len: bytes.len(),
        }
    }

    fn truncated(&self, wanted: usize) -> StoreError {
        let read = self.len - self.rest.len();
        StoreError::Truncated {
            expected: read.saturating_add(wanted) as u64,
            actual: self.len as u64,
        }
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], StoreError> {
        let (head, rest) = self
            .rest
            .split_first_chunk::<N>()
            .ok_or_else(|| self.truncated(N))?;
        self.rest = rest;
        Ok(*head)
    }

    fn u16(&mut self) -> Result<u16, StoreError> {
        self.array().map(u16::from_le_bytes)
    }

    fn u32(&mut self) -> Result<u32, StoreError> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, StoreError> {
        self.array().map(u64::from_le_bytes)
    }

    /// The next `count` words of `N` bytes each.
    fn words<const N: usize>(&mut self, count: usize) -> Result<&'a [[u8; N]], StoreError> {
        let size = count.saturating_mul(N);
        let (head, rest) = self
            .rest
            .split_at_checked(size)
            .ok_or_else(|| self.truncated(size))?;
        self.rest = rest;
        Ok(head.as_chunks::<N>().0)
    }
}

/// The fixed header's contents, after magic, version and the reserved
/// fields were checked.
struct Header {
    stamp: SourceStamp,
    num_left: u32,
    num_right: u32,
    num_edges: u64,
}

fn read_header(r: &mut Reader<'_>) -> Result<Header, StoreError> {
    let found = r.array()?;
    if found != MAGIC {
        return Err(StoreError::BadMagic { found });
    }
    let version = r.u16()?;
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    // Reserved fields must be zero: a future writer that sets them is
    // signalling a layout this build cannot interpret.
    let flags = r.u16()?;
    if flags != 0 {
        return Err(StoreError::UnsupportedFlags {
            found: u32::from(flags),
        });
    }
    let stamp = SourceStamp {
        len: r.u64()?,
        mtime_secs: r.u64()?,
        mtime_nanos: r.u32()?,
    };
    let reserved = r.u32()?;
    if reserved != 0 {
        return Err(StoreError::UnsupportedFlags { found: reserved });
    }
    Ok(Header {
        stamp,
        num_left: r.u32()?,
        num_right: r.u32()?,
        num_edges: r.u64()?,
    })
}

/// Decodes a `.mbbg` byte buffer back into a graph and the stamp of the
/// source it was built from.
///
/// Validation happens outside-in: magic, version, the file length the
/// header's counts imply (so nothing is allocated that the file does not
/// back), checksum, then [`BipartiteGraph::from_left_rows`], which checks
/// the left rows and derives the right side, and last the stored right
/// offsets against the derived ones — so a corrupt file can never produce
/// a structurally broken graph.
pub fn decode_graph(bytes: &[u8]) -> Result<(BipartiteGraph, SourceStamp), StoreError> {
    let mut r = Reader::new(bytes);
    let header = read_header(&mut r)?;
    // Saturating: a corrupt header must produce a mismatch, not overflow.
    let offsets = 8 * (u64::from(header.num_left) + 1 + u64::from(header.num_right) + 1);
    let expected = ((HEADER_LEN + CHECKSUM_LEN) as u64 + offsets)
        .saturating_add(header.num_edges.saturating_mul(4));
    if bytes.len() as u64 != expected {
        return Err(StoreError::Truncated {
            expected,
            actual: bytes.len() as u64,
        });
    }
    // The length matched, so the counts fit in memory as `usize`.
    let left_offsets = r.words::<8>(header.num_left as usize + 1)?;
    let right_offsets = r.words::<8>(header.num_right as usize + 1)?;
    let left_neighbors = r.words::<4>(header.num_edges as usize)?;
    let stored = r.u64()?;
    let computed = fnv1a64(&bytes[..bytes.len() - CHECKSUM_LEN]);
    if stored != computed {
        return Err(StoreError::ChecksumMismatch { stored, computed });
    }
    // An offset beyond `usize` becomes one that fails the offset checks.
    let offset = |w: &[u8; 8]| usize::try_from(u64::from_le_bytes(*w)).unwrap_or(usize::MAX);
    let graph = BipartiteGraph::from_left_rows(
        header.num_right,
        left_offsets.iter().map(offset).collect(),
        left_neighbors
            .iter()
            .map(|&w| u32::from_le_bytes(w))
            .collect(),
    )?;
    if !graph
        .right_offsets()
        .iter()
        .copied()
        .eq(right_offsets.iter().map(offset))
    {
        return Err(StoreError::InvalidGraph(GraphError::InvalidCsr {
            reason: "stored right offsets differ from the left rows'",
        }));
    }
    Ok((graph, header.stamp))
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
/// with magic/version/reserved fields validated but no checksum pass.
///
/// This is the cheap freshness probe: deciding that a multi-hundred-MB
/// cache is stale must not cost reading and checksumming the whole file.
/// A stamp match is always followed by a full (checksummed, validated)
/// [`load_graph`] before any graph is served.
pub fn load_stamp(path: &Path) -> Result<SourceStamp, StoreError> {
    use std::io::Read;
    let mut header = Vec::with_capacity(HEADER_LEN);
    fs::File::open(path)?
        .take(HEADER_LEN as u64)
        .read_to_end(&mut header)?;
    Ok(read_header(&mut Reader::new(&header))?.stamp)
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

    /// Re-seals `bytes` after a patch, so that only the checks behind the
    /// checksum can catch it.
    fn reseal(bytes: &mut [u8]) {
        let body = bytes.len() - CHECKSUM_LEN;
        let checksum = fnv1a64(&bytes[..body]);
        bytes[body..].copy_from_slice(&checksum.to_le_bytes());
    }

    #[test]
    fn rows_the_checksum_does_not_catch_are_rejected() {
        let g = sample();
        let clean = encode_graph(&g, stamp());
        let right_offsets = HEADER_LEN + 8 * (g.num_left() + 1);
        let left_neighbors = right_offsets + 8 * (g.num_right() + 1);
        let reject = |patch: &dyn Fn(&mut Vec<u8>)| {
            let mut bytes = clean.clone();
            patch(&mut bytes);
            reseal(&mut bytes);
            let err = decode_graph(&bytes).unwrap_err();
            assert!(
                matches!(err, StoreError::InvalidGraph(GraphError::InvalidCsr { .. })),
                "{err}"
            );
            err.to_string()
        };
        // A stored right offset one higher than the left rows give.
        let err = reject(&|b| {
            let at = right_offsets + 8;
            let moved = g.right_offsets()[1] as u64 + 1;
            b[at..at + 8].copy_from_slice(&moved.to_le_bytes());
        });
        assert!(err.contains("right offsets"), "{err}");
        // A left row out of order: its first two ids swapped.
        let u = (0..g.num_left()).find(|&u| g.degree_left(u as u32) >= 2);
        let first = left_neighbors + 4 * g.left_offsets()[u.unwrap()];
        let err = reject(&|b| {
            for i in first..first + 4 {
                b.swap(i, i + 4);
            }
        });
        assert!(err.contains("strictly increasing"), "{err}");
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

//! Edge-list I/O in the KONECT bipartite format.
//!
//! The paper's sparse experiments (§6.2) use 30 datasets from the Koblenz
//! Network Collection. KONECT ships bipartite graphs as whitespace-separated
//! `left right` pairs, 1-based, with `%`-prefixed comment lines. This module
//! reads and writes that format so synthetic stand-ins can be persisted and
//! real KONECT files can be dropped in unchanged if available.
//!
//! Side sizes come from the largest ids, so an id is bounded by the
//! input's length ([`max_vertex_id`]) before any per-id array is sized:
//! the one-line file `1 4294967295` is an [`IoError::IdOutOfRange`], not a
//! request for 32 GiB of offsets.

use std::fmt;
use std::io::{self, BufRead, Seek, SeekFrom, Write};
use std::path::Path;

use crate::graph::{BipartiteGraph, Builder, GraphError};

/// Parse-error line content is truncated to this many bytes so a bad
/// million-column line cannot explode the error message.
const MAX_ERROR_CONTENT: usize = 120;

/// The largest vertex id an edge list of `len` bytes may use: `len`, or
/// 65,536 if that is larger.
///
/// An edge list numbers its vertices from 1 with few gaps, so its ids stay
/// below its line count, and each line takes at least 4 bytes. The bound
/// keeps every array sized by the ids (degrees, CSR offsets, and what the
/// solver builds on them) within a constant times the input.
pub fn max_vertex_id(len: u64) -> u64 {
    len.max(1 << 16)
}

/// Errors raised while parsing an edge list.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A data line did not contain two integer fields.
    Parse {
        /// 1-based line number.
        line: usize,
        /// The offending line content, truncated to a readable length
        /// (with a `… (N bytes)` suffix) when the line is oversized.
        content: String,
    },
    /// An endpoint index was 0 (KONECT ids are 1-based) or out of range.
    Graph(GraphError),
    /// A vertex id past [`max_vertex_id`] of the input's length.
    IdOutOfRange {
        /// 1-based line number.
        line: usize,
        /// The id as written (1-based).
        id: u32,
        /// The largest id the input's length allows.
        max: u64,
    },
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse { line, content } => {
                write!(f, "line {line}: expected `left right`, got {content:?}")
            }
            IoError::Graph(e) => write!(f, "invalid edge: {e}"),
            IoError::IdOutOfRange { line, id, max } => write!(
                f,
                "line {line}: vertex id {id} is past {max}, the largest an input of this length may use"
            ),
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            IoError::Graph(e) => Some(e),
            IoError::Parse { .. } | IoError::IdOutOfRange { .. } => None,
        }
    }
}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

impl From<GraphError> for IoError {
    fn from(e: GraphError) -> Self {
        IoError::Graph(e)
    }
}

/// Builds the [`IoError::Parse`] for a bad line, truncating oversized
/// content at a char boundary so the message stays readable.
fn parse_error(line: usize, content: &str) -> IoError {
    let content = if content.len() > MAX_ERROR_CONTENT {
        let mut cut = MAX_ERROR_CONTENT;
        while !content.is_char_boundary(cut) {
            cut -= 1;
        }
        format!("{}… ({} bytes)", &content[..cut], content.len())
    } else {
        content.to_string()
    };
    IoError::Parse { line, content }
}

/// Scans a KONECT-style edge list line by line, calling `edge` with each
/// line number and 0-based `(left, right)` pair, and returns the bytes
/// read. Comments (`%`/`#`) and blank lines are skipped; malformed lines
/// abort with a per-line [`IoError::Parse`].
///
/// The line buffer is reused across lines, so one scan allocates O(longest
/// line), not O(file).
fn scan_edges<R: BufRead>(
    reader: &mut R,
    mut edge: impl FnMut(usize, u32, u32) -> Result<(), IoError>,
) -> Result<u64, IoError> {
    let mut line = String::new();
    let mut line_no = 0usize;
    let mut bytes = 0u64;
    loop {
        line.clear();
        let read = reader.read_line(&mut line)?;
        if read == 0 {
            return Ok(bytes);
        }
        bytes += read as u64;
        line_no += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') || trimmed.starts_with('#') {
            continue;
        }
        let mut fields = trimmed.split_whitespace();
        let (Some(a), Some(b)) = (fields.next(), fields.next()) else {
            return Err(parse_error(line_no, trimmed));
        };
        let parse = |s: &str| -> Option<u32> { s.parse::<u32>().ok().filter(|&v| v >= 1) };
        let (Some(u), Some(v)) = (parse(a), parse(b)) else {
            return Err(parse_error(line_no, trimmed));
        };
        edge(line_no, u - 1, v - 1)?;
    }
}

/// The [`IoError::IdOutOfRange`] for a 0-based id on `line`, if it is
/// past [`max_vertex_id`] of an input of `len` bytes.
fn check_id(line: usize, id: u32, len: u64) -> Result<(), IoError> {
    let max = max_vertex_id(len);
    // `id` is a 1-based id minus one, so `id + 1` cannot overflow.
    if u64::from(id) < max {
        return Ok(());
    }
    Err(IoError::IdOutOfRange {
        line,
        id: id + 1,
        max,
    })
}

/// Reads a KONECT-style bipartite edge list from any reader, buffering the
/// edge list before building CSR.
///
/// Lines starting with `%` or `#` are comments; blank lines are skipped.
/// Vertex ids are 1-based and the side sizes are inferred from the maxima;
/// an id past [`max_vertex_id`] of the input's length is an error.
///
/// For seekable inputs (files, cursors) prefer
/// [`read_edge_list_streaming`], which builds the identical graph in two
/// passes without materialising the edge `Vec`;
/// [`read_edge_list_file`] already does.
pub fn read_edge_list<R: BufRead>(mut reader: R) -> Result<BipartiteGraph, IoError> {
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut max_l = 0u32;
    let mut max_r = 0u32;
    // The largest id of either side and its line: the input's length is
    // known only at its end.
    let mut largest = (0u32, 0usize);
    let len = scan_edges(&mut reader, |line, u, v| {
        max_l = max_l.max(u + 1);
        max_r = max_r.max(v + 1);
        if u.max(v) > largest.0 {
            largest = (u.max(v), line);
        }
        edges.push((u, v));
        Ok(())
    })?;
    check_id(largest.1, largest.0, len)?;
    let mut builder = Builder::new(max_l, max_r);
    builder.reserve(edges.len());
    for (u, v) in edges {
        builder.add_edge(u, v)?;
    }
    Ok(builder.build())
}

/// Reads a KONECT-style bipartite edge list in two streaming passes,
/// producing a graph byte-identical (CSR offsets and adjacency) to
/// [`read_edge_list`] without ever materialising the full edge `Vec`.
///
/// Pass 1 checks each id against [`max_vertex_id`] of the input's length
/// (taken by seeking to its end) and counts left degrees, the edge total
/// and the right side's size;
/// pass 2 rewinds and writes each edge directly into its final left-row
/// slot, then sorts and deduplicates each row in place and hands the rows
/// to [`BipartiteGraph::from_left_rows`], which derives the right side.
///
/// Peak transient memory is one `u32` per raw (pre-dedup) edge plus the
/// left degree array, roughly half of what the buffered reader's
/// `(u32, u32)` edge buffer costs on top of the final graph, and no global
/// edge sort is performed (per-row sorts touch `O(d log d)` each).
pub fn read_edge_list_streaming<R: BufRead + Seek>(
    mut reader: R,
) -> Result<BipartiteGraph, IoError> {
    let changed = || {
        IoError::Io(io::Error::new(
            io::ErrorKind::InvalidData,
            "input changed between passes",
        ))
    };

    // Pass 1: left degrees. Side sizes are inferred from the maxima, so the
    // degree array grows on demand, up to the bound the length allows.
    let len = reader.seek(SeekFrom::End(0))?;
    reader.seek(SeekFrom::Start(0))?;
    let mut left_deg: Vec<usize> = Vec::new();
    let mut num_right = 0u32;
    let mut raw_edges = 0usize;
    scan_edges(&mut reader, |line, u, v| {
        check_id(line, u.max(v), len)?;
        let u = u as usize;
        if u >= left_deg.len() {
            left_deg.resize(u + 1, 0);
        }
        left_deg[u] += 1;
        // `v` is a 1-based id minus one, so `v + 1` cannot overflow.
        num_right = num_right.max(v + 1);
        raw_edges += 1;
        Ok(())
    })?;
    let nl = left_deg.len();

    // Pass 2: place every edge into its left-row slot in file order.
    let mut left_offsets = vec![0usize; nl + 1];
    for u in 0..nl {
        left_offsets[u + 1] = left_offsets[u] + left_deg[u];
    }
    let mut cursor: Vec<usize> = left_offsets[..nl].to_vec();
    let mut left_neighbors = vec![0u32; raw_edges];
    reader.seek(SeekFrom::Start(0))?;
    let mut seen = 0usize;
    scan_edges(&mut reader, |_, u, v| {
        let u = u as usize;
        if u >= nl || v >= num_right || cursor[u] == left_offsets[u + 1] {
            return Err(changed());
        }
        left_neighbors[cursor[u]] = v;
        cursor[u] += 1;
        seen += 1;
        Ok(())
    })?;
    if seen != raw_edges {
        return Err(changed());
    }

    // Sort + dedup each left row in place, compacting downward (the write
    // cursor never overtakes a row's start, so rows are read before they
    // are overwritten).
    let mut write = 0usize;
    let mut deduped_offsets = vec![0usize; nl + 1];
    for u in 0..nl {
        let (start, end) = (left_offsets[u], left_offsets[u + 1]);
        left_neighbors[start..end].sort_unstable();
        let mut prev = None;
        for i in start..end {
            let v = left_neighbors[i];
            if prev != Some(v) {
                left_neighbors[write] = v;
                write += 1;
                prev = Some(v);
            }
        }
        deduped_offsets[u + 1] = write;
    }
    left_neighbors.truncate(write);

    Ok(BipartiteGraph::from_left_rows(
        num_right,
        deduped_offsets,
        left_neighbors,
    )?)
}

/// Reads a bipartite edge list from a file path via the two-pass streaming
/// builder ([`read_edge_list_streaming`]) — the graph is identical to the
/// buffered [`read_edge_list`], without the transient edge buffer.
pub fn read_edge_list_file(path: impl AsRef<Path>) -> Result<BipartiteGraph, IoError> {
    let file = std::fs::File::open(path)?;
    read_edge_list_streaming(io::BufReader::new(file))
}

/// Writes a graph as a KONECT-style edge list (1-based ids, `%` header).
pub fn write_edge_list<W: Write>(graph: &BipartiteGraph, mut writer: W) -> io::Result<()> {
    writeln!(
        writer,
        "% bip |L|={} |R|={} |E|={}",
        graph.num_left(),
        graph.num_right(),
        graph.num_edges()
    )?;
    let mut buf = io::BufWriter::new(&mut writer);
    for (u, v) in graph.edges() {
        writeln!(buf, "{} {}", u + 1, v + 1)?;
    }
    buf.flush()
}

/// Writes a graph to a file path.
pub fn write_edge_list_file(graph: &BipartiteGraph, path: impl AsRef<Path>) -> io::Result<()> {
    let file = std::fs::File::create(path)?;
    write_edge_list(graph, io::BufWriter::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_simple_list_with_comments() {
        let text = "% bip comment\n# another\n1 1\n2 3\n\n3 2\n";
        let g = read_edge_list(Cursor::new(text)).unwrap();
        assert_eq!(g.num_left(), 3);
        assert_eq!(g.num_right(), 3);
        assert_eq!(g.num_edges(), 3);
        assert!(g.has_edge(0, 0));
        assert!(g.has_edge(1, 2));
        assert!(g.has_edge(2, 1));
    }

    #[test]
    fn ignores_extra_columns() {
        // KONECT files often carry weight/timestamp columns.
        let text = "1 1 1 1370000000\n2 2 5 1370000001\n";
        let g = read_edge_list(Cursor::new(text)).unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn rejects_garbage_line() {
        let err = read_edge_list(Cursor::new("1 x\n")).unwrap_err();
        assert!(matches!(err, IoError::Parse { line: 1, .. }), "{err}");
    }

    #[test]
    fn rejects_zero_based_id() {
        let err = read_edge_list(Cursor::new("0 1\n")).unwrap_err();
        assert!(matches!(err, IoError::Parse { .. }));
    }

    #[test]
    fn rejects_single_field_line() {
        let err = read_edge_list(Cursor::new("42\n")).unwrap_err();
        assert!(matches!(err, IoError::Parse { .. }));
    }

    #[test]
    fn empty_input_gives_empty_graph() {
        let g = read_edge_list(Cursor::new("% nothing\n")).unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    fn assert_same_csr(a: &BipartiteGraph, b: &BipartiteGraph) {
        assert_eq!(a.left_offsets(), b.left_offsets());
        assert_eq!(a.left_neighbors(), b.left_neighbors());
        assert_eq!(a.right_offsets(), b.right_offsets());
        assert_eq!(a.right_neighbors(), b.right_neighbors());
    }

    #[test]
    fn streaming_matches_buffered_reader() {
        // Comments, duplicates, out-of-order edges, extra columns.
        let text = "% header\n3 2\n1 1\n3 2\n# mid comment\n2 3 77 1370000000\n\n1 2\n2 1\n";
        let buffered = read_edge_list(Cursor::new(text)).unwrap();
        let streamed = read_edge_list_streaming(Cursor::new(text)).unwrap();
        assert_same_csr(&buffered, &streamed);
        assert_eq!(streamed.num_edges(), 5); // the duplicate collapsed
    }

    #[test]
    fn streaming_rejects_what_buffered_rejects() {
        for bad in ["1 x\n", "0 1\n", "42\n", "zz\n"] {
            assert!(
                read_edge_list_streaming(Cursor::new(bad)).is_err(),
                "{bad:?}"
            );
        }
        let empty = read_edge_list_streaming(Cursor::new("% nothing\n")).unwrap();
        assert_eq!(empty.num_vertices(), 0);
    }

    #[test]
    fn oversized_bad_line_is_truncated_in_the_error() {
        // A million-byte line of garbage must not explode the message.
        let long = format!("1 x{}\n", "y".repeat(1_000_000));
        let err = read_edge_list_streaming(Cursor::new(long.as_str())).unwrap_err();
        let IoError::Parse { line, content } = err else {
            panic!("expected parse error");
        };
        assert_eq!(line, 1);
        assert!(
            content.len() < 160,
            "error content too long: {} bytes",
            content.len()
        );
        assert!(content.contains("bytes)"), "{content}");
        // Short lines still appear verbatim.
        let err = read_edge_list(Cursor::new("1 x\n")).unwrap_err();
        let IoError::Parse { content, .. } = err else {
            panic!("expected parse error");
        };
        assert_eq!(content, "1 x");
    }

    /// `text` through the buffered and the streaming reader.
    fn read_both(text: &str) -> [Result<BipartiteGraph, IoError>; 2] {
        [
            read_edge_list(Cursor::new(text)),
            read_edge_list_streaming(Cursor::new(text)),
        ]
    }

    #[test]
    fn ids_may_reach_the_input_length() {
        // Below the 65,536 floor any id is accepted; past it, a comment
        // line that lengthens the input admits larger ids.
        let long = format!("%{}\n100000 1\n", " ".repeat(99_989));
        assert_eq!(long.len(), 100_000);
        let fits: [(&str, usize, usize); 3] = [
            ("65536 1\n", 65_536, 1),
            ("1 65536\n", 1, 65_536),
            (&long, 100_000, 1),
        ];
        for (text, left, right) in fits {
            for read in read_both(text) {
                let g = read.unwrap();
                assert_eq!((g.num_left(), g.num_right()), (left, right));
            }
        }
        // One past the bound: past the floor, and the long input without
        // its `%`, one byte short of its id.
        let past = [
            ("1 1\n1 65537\n", 65_537, 65_536),
            (&long[1..], 100_000, 99_999),
        ];
        for (text, id, max) in past {
            for read in read_both(text) {
                let err = read.unwrap_err();
                let IoError::IdOutOfRange {
                    line,
                    id: got,
                    max: bound,
                } = err
                else {
                    panic!("expected an id out of range: {err}");
                };
                assert_eq!((line, got, bound), (2, id, max));
            }
        }
    }

    #[test]
    fn roundtrip_preserves_graph() {
        let g = BipartiteGraph::from_edges(4, 3, [(0, 0), (1, 2), (3, 1), (2, 2)]).unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(Cursor::new(buf)).unwrap();
        assert_eq!(g2.num_edges(), g.num_edges());
        for (u, v) in g.edges() {
            assert!(g2.has_edge(u, v));
        }
    }
}

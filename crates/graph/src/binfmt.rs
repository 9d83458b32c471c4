//! The versioned binary on-disk graph format.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//!      0     8  magic  b"LNKCLSTG"
//!      8     4  format version (currently 1)
//!     12     4  flags (reserved, must be 0)
//!     16     8  vertex count n (u64)
//!     24     8  edge count m (u64)
//!     32  16*m  edge records: u32 source, u32 target, f64 weight
//! ```
//!
//! A record is 16 bytes, so a 10⁷-edge graph is a 160 MB file that
//! [`GraphFile::read_streamed`] loads through a fixed ~1 MB chunk
//! buffer straight into [`CsrGraph`] arrays — the reader never holds
//! the raw file in memory. Records are validated (endpoints in range
//! and distinct, weights finite and positive); duplicate edges are
//! **not** detected, since writers only emit deduplicated graphs and a
//! set probe per edge would dominate the load.

use std::io::{Read, Write};

use crate::view::GraphView;
use crate::{CsrGraph, GraphError, VertexId};

/// The 8-byte magic at offset 0.
pub const MAGIC: [u8; 8] = *b"LNKCLSTG";

/// The current format version.
pub const FORMAT_VERSION: u32 = 1;

/// Edges per streaming chunk (~1 MB of records).
const CHUNK_EDGES: usize = 64 * 1024;

/// Bytes per edge record.
const RECORD_BYTES: usize = 16;

/// Header length in bytes.
const HEADER_BYTES: usize = 32;

/// Errors raised while reading the binary graph format.
#[derive(Debug)]
#[non_exhaustive]
pub enum BinGraphError {
    /// An I/O failure from the underlying reader.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is newer than this reader.
    UnsupportedVersion(u32),
    /// The reserved flags field is non-zero.
    UnsupportedFlags(u32),
    /// The header declares a graph too large for `u32` ids.
    TooLarge {
        /// Declared vertex count.
        vertices: u64,
        /// Declared edge count.
        edges: u64,
    },
    /// The stream ended before the declared edge count was read.
    Truncated {
        /// Edges the header declared.
        declared: u64,
        /// Edges actually read.
        read: u64,
    },
    /// Bytes remain after the declared edge count.
    TrailingData,
    /// An edge record is structurally invalid.
    InvalidEdge {
        /// 0-based record index.
        index: u64,
        /// The underlying validation failure.
        source: GraphError,
    },
}

impl std::fmt::Display for BinGraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinGraphError::Io(e) => write!(f, "i/o error while reading binary graph: {e}"),
            BinGraphError::BadMagic => write!(f, "not a binary graph file (bad magic)"),
            BinGraphError::UnsupportedVersion(v) => {
                write!(f, "unsupported format version {v} (reader supports {FORMAT_VERSION})")
            }
            BinGraphError::UnsupportedFlags(flags) => {
                write!(f, "reserved flags field is non-zero: {flags:#x}")
            }
            BinGraphError::TooLarge { vertices, edges } => {
                write!(f, "graph too large for u32 ids: {vertices} vertices, {edges} edges")
            }
            BinGraphError::Truncated { declared, read } => {
                write!(f, "file truncated: header declares {declared} edges, read {read}")
            }
            BinGraphError::TrailingData => {
                write!(f, "trailing bytes after the declared edge records")
            }
            BinGraphError::InvalidEdge { index, source } => {
                write!(f, "edge record {index}: {source}")
            }
        }
    }
}

impl std::error::Error for BinGraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BinGraphError::Io(e) => Some(e),
            BinGraphError::InvalidEdge { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<std::io::Error> for BinGraphError {
    fn from(e: std::io::Error) -> Self {
        BinGraphError::Io(e)
    }
}

/// Reader/writer for the binary graph format.
///
/// # Examples
///
/// ```
/// use linkclust_graph::{GraphBuilder, GraphFile, GraphView};
///
/// let g = GraphBuilder::from_edges(3, &[(0, 1, 1.0), (1, 2, 0.5)])?.build();
/// let mut bytes = Vec::new();
/// GraphFile::write(&g, &mut bytes)?;
/// let csr = GraphFile::read_streamed(bytes.as_slice()).unwrap();
/// assert_eq!(csr.vertex_count(), 3);
/// assert_eq!(csr.edge_count(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct GraphFile;

impl GraphFile {
    /// Writes `g` in the binary format, buffering a fixed-size chunk of
    /// records between writes.
    ///
    /// # Errors
    ///
    /// Propagates writer failures.
    pub fn write<G: GraphView + ?Sized, W: Write>(g: &G, mut writer: W) -> std::io::Result<()> {
        let mut header = [0u8; HEADER_BYTES];
        header[..8].copy_from_slice(&MAGIC);
        header[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        header[12..16].copy_from_slice(&0u32.to_le_bytes());
        header[16..24].copy_from_slice(&(g.vertex_count() as u64).to_le_bytes());
        header[24..32].copy_from_slice(&(g.edge_count() as u64).to_le_bytes());
        writer.write_all(&header)?;

        let mut buf = Vec::with_capacity(CHUNK_EDGES.min(g.edge_count().max(1)) * RECORD_BYTES);
        for e in 0..g.edge_count() {
            let id = crate::EdgeId::new(e);
            let (s, t) = g.edge_endpoints(id);
            buf.extend_from_slice(&(s.index() as u32).to_le_bytes());
            buf.extend_from_slice(&(t.index() as u32).to_le_bytes());
            buf.extend_from_slice(&g.edge_weight(id).to_le_bytes());
            if buf.len() >= CHUNK_EDGES * RECORD_BYTES {
                writer.write_all(&buf)?;
                buf.clear();
            }
        }
        writer.write_all(&buf)?;
        writer.flush()
    }

    /// Reads a binary graph into a [`CsrGraph`], streaming the records
    /// through a fixed-size chunk buffer.
    ///
    /// # Errors
    ///
    /// Returns [`BinGraphError`] on I/O failure, a bad or unsupported
    /// header, a short or overlong stream, or an invalid edge record.
    pub fn read_streamed<R: Read>(mut reader: R) -> Result<CsrGraph, BinGraphError> {
        let mut header = [0u8; HEADER_BYTES];
        reader.read_exact(&mut header).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                BinGraphError::BadMagic
            } else {
                BinGraphError::Io(e)
            }
        })?;
        if header[..8] != MAGIC {
            return Err(BinGraphError::BadMagic);
        }
        let version = le_u32(&header[8..12]);
        if version != FORMAT_VERSION {
            return Err(BinGraphError::UnsupportedVersion(version));
        }
        let flags = le_u32(&header[12..16]);
        if flags != 0 {
            return Err(BinGraphError::UnsupportedFlags(flags));
        }
        let n = le_u64(&header[16..24]);
        let m = le_u64(&header[24..32]);
        if n > u64::from(u32::MAX) || m.saturating_mul(2) > u64::from(u32::MAX) {
            return Err(BinGraphError::TooLarge { vertices: n, edges: m });
        }
        let (n, m) = (n as usize, m as usize);

        // `m` is untrusted: reserve at most one chunk up front and grow as
        // records arrive, so a short file that claims 2³¹ edges fails with
        // `Truncated` instead of aborting on a huge allocation.
        let mut source = Vec::with_capacity(CHUNK_EDGES.min(m));
        let mut target = Vec::with_capacity(CHUNK_EDGES.min(m));
        let mut weight = Vec::with_capacity(CHUNK_EDGES.min(m));
        let mut buf = vec![0u8; CHUNK_EDGES.min(m.max(1)) * RECORD_BYTES];
        let mut read_edges = 0usize;
        while read_edges < m {
            let chunk = CHUNK_EDGES.min(m - read_edges);
            let bytes = &mut buf[..chunk * RECORD_BYTES];
            reader.read_exact(bytes).map_err(|e| {
                if e.kind() == std::io::ErrorKind::UnexpectedEof {
                    BinGraphError::Truncated { declared: m as u64, read: read_edges as u64 }
                } else {
                    BinGraphError::Io(e)
                }
            })?;
            for (i, record) in bytes.chunks_exact(RECORD_BYTES).enumerate() {
                let index = (read_edges + i) as u64;
                let u = le_u32(&record[..4]);
                let v = le_u32(&record[4..8]);
                let w = f64::from_bits(le_u64(&record[8..16]));
                let invalid = |source: GraphError| BinGraphError::InvalidEdge { index, source };
                if u as usize >= n || v as usize >= n {
                    let bad = if u as usize >= n { u } else { v };
                    return Err(invalid(GraphError::UnknownVertex {
                        vertex: VertexId::new(bad as usize),
                        vertex_count: n,
                    }));
                }
                if u == v {
                    return Err(invalid(GraphError::SelfLoop {
                        vertex: VertexId::new(u as usize),
                    }));
                }
                if !w.is_finite() || w <= 0.0 {
                    return Err(invalid(GraphError::InvalidWeight { weight: w }));
                }
                source.push(u);
                target.push(v);
                weight.push(w);
            }
            read_edges += chunk;
        }
        if reader.read(&mut [0u8; 1])? != 0 {
            return Err(BinGraphError::TrailingData);
        }
        Ok(CsrGraph::from_edge_arrays(n, &source, &target, &weight))
    }
}

/// Little-endian u32 from the first 4 bytes of `b` (zero-extended if
/// shorter — callers always pass exactly 4).
#[inline]
fn le_u32(b: &[u8]) -> u32 {
    let mut a = [0u8; 4];
    for (dst, src) in a.iter_mut().zip(b) {
        *dst = *src;
    }
    u32::from_le_bytes(a)
}

/// Little-endian u64 from the first 8 bytes of `b` (zero-extended if
/// shorter — callers always pass exactly 8).
#[inline]
fn le_u64(b: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    for (dst, src) in a.iter_mut().zip(b) {
        *dst = *src;
    }
    u64::from_le_bytes(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{barabasi_albert, gnm, WeightMode};
    use crate::GraphBuilder;

    fn roundtrip(g: &crate::WeightedGraph) -> CsrGraph {
        let mut bytes = Vec::new();
        GraphFile::write(g, &mut bytes).unwrap();
        assert_eq!(bytes.len(), HEADER_BYTES + g.edge_count() * RECORD_BYTES);
        GraphFile::read_streamed(bytes.as_slice()).unwrap()
    }

    #[test]
    fn roundtrip_preserves_graph_bit_exactly() {
        for seed in 0..3 {
            let g = gnm(50, 200, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, seed);
            assert_eq!(roundtrip(&g), CsrGraph::from_weighted(&g));
        }
        let g = barabasi_albert(70, 3, WeightMode::Uniform { lo: 0.5, hi: 1.5 }, 1);
        assert_eq!(roundtrip(&g), CsrGraph::from_weighted(&g));
    }

    #[test]
    fn roundtrip_spans_multiple_chunks() {
        // More edges than one chunk holds, to cross the chunk boundary.
        let g = gnm(600, CHUNK_EDGES + 1000, WeightMode::Unit, 7);
        assert_eq!(roundtrip(&g), CsrGraph::from_weighted(&g));
    }

    #[test]
    fn csr_roundtrips_too() {
        let g = gnm(40, 150, WeightMode::Uniform { lo: 0.3, hi: 1.7 }, 5);
        let csr = CsrGraph::from_weighted(&g);
        let mut bytes = Vec::new();
        GraphFile::write(&csr, &mut bytes).unwrap();
        assert_eq!(GraphFile::read_streamed(bytes.as_slice()).unwrap(), csr);
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = GraphBuilder::new().build();
        assert_eq!(roundtrip(&g).vertex_count(), 0);
        let g = GraphBuilder::with_vertices(5).build();
        let back = roundtrip(&g);
        assert_eq!(back.vertex_count(), 5);
        assert_eq!(back.edge_count(), 0);
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert!(matches!(
            GraphFile::read_streamed(&b"not a graph file at all..........."[..]),
            Err(BinGraphError::BadMagic)
        ));
        // Shorter than a header.
        assert!(matches!(GraphFile::read_streamed(&b"LNKCL"[..]), Err(BinGraphError::BadMagic)));
    }

    fn valid_bytes() -> Vec<u8> {
        let g = GraphBuilder::from_edges(3, &[(0, 1, 1.0), (1, 2, 0.5)]).unwrap().build();
        let mut bytes = Vec::new();
        GraphFile::write(&g, &mut bytes).unwrap();
        bytes
    }

    #[test]
    fn corrupt_header_fields_are_rejected() {
        let mut bad_version = valid_bytes();
        bad_version[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            GraphFile::read_streamed(bad_version.as_slice()),
            Err(BinGraphError::UnsupportedVersion(99))
        ));

        let mut bad_flags = valid_bytes();
        bad_flags[12..16].copy_from_slice(&7u32.to_le_bytes());
        assert!(matches!(
            GraphFile::read_streamed(bad_flags.as_slice()),
            Err(BinGraphError::UnsupportedFlags(7))
        ));

        let mut too_large = valid_bytes();
        too_large[16..24].copy_from_slice(&(u64::from(u32::MAX) + 1).to_le_bytes());
        assert!(matches!(
            GraphFile::read_streamed(too_large.as_slice()),
            Err(BinGraphError::TooLarge { .. })
        ));
    }

    #[test]
    fn truncated_body_is_rejected() {
        let bytes = valid_bytes();
        let cut = bytes.len() - 5;
        match GraphFile::read_streamed(&bytes[..cut]).unwrap_err() {
            BinGraphError::Truncated { declared: 2, read } => assert!(read < 2),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn inflated_edge_count_without_body_is_truncated_not_aborted() {
        let mut header = valid_bytes();
        header.truncate(HEADER_BYTES);
        let claimed = u64::from(u32::MAX) / 2;
        header[24..32].copy_from_slice(&claimed.to_le_bytes());
        match GraphFile::read_streamed(header.as_slice()).unwrap_err() {
            BinGraphError::Truncated { declared, read: 0 } => assert_eq!(declared, claimed),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = valid_bytes();
        bytes.push(0xAB);
        assert!(matches!(
            GraphFile::read_streamed(bytes.as_slice()),
            Err(BinGraphError::TrailingData)
        ));
    }

    #[test]
    fn invalid_records_are_rejected_with_index() {
        let write_record = |bytes: &mut Vec<u8>, u: u32, v: u32, w: f64| {
            bytes.extend_from_slice(&u.to_le_bytes());
            bytes.extend_from_slice(&v.to_le_bytes());
            bytes.extend_from_slice(&w.to_le_bytes());
        };
        let header = |m: u64| {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&MAGIC);
            bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
            bytes.extend_from_slice(&0u32.to_le_bytes());
            bytes.extend_from_slice(&3u64.to_le_bytes());
            bytes.extend_from_slice(&m.to_le_bytes());
            bytes
        };

        let mut self_loop = header(2);
        write_record(&mut self_loop, 0, 1, 1.0);
        write_record(&mut self_loop, 2, 2, 1.0);
        match GraphFile::read_streamed(self_loop.as_slice()).unwrap_err() {
            BinGraphError::InvalidEdge { index: 1, source: GraphError::SelfLoop { .. } } => {}
            other => panic!("unexpected error {other}"),
        }

        let mut out_of_range = header(1);
        write_record(&mut out_of_range, 0, 9, 1.0);
        assert!(matches!(
            GraphFile::read_streamed(out_of_range.as_slice()).unwrap_err(),
            BinGraphError::InvalidEdge { index: 0, source: GraphError::UnknownVertex { .. } }
        ));

        let mut bad_weight = header(1);
        write_record(&mut bad_weight, 0, 1, -1.0);
        assert!(matches!(
            GraphFile::read_streamed(bad_weight.as_slice()).unwrap_err(),
            BinGraphError::InvalidEdge { index: 0, source: GraphError::InvalidWeight { .. } }
        ));
    }

    #[test]
    fn error_messages_render() {
        let e = BinGraphError::Truncated { declared: 10, read: 3 };
        assert!(e.to_string().contains("truncated"));
        assert!(BinGraphError::BadMagic.to_string().contains("magic"));
        assert!(BinGraphError::UnsupportedVersion(9).to_string().contains('9'));
        let e = BinGraphError::InvalidEdge {
            index: 4,
            source: GraphError::InvalidWeight { weight: f64::NAN },
        };
        assert!(e.to_string().contains("record 4"));
        assert!(std::error::Error::source(&e).is_some());
    }
}

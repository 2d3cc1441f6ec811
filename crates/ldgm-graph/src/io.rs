//! Graph I/O: Matrix Market exchange format and a binary CSR cache.
//!
//! The paper's comparison baselines consume Matrix Market (§IV-D notes
//! SR-OMP "requires graphs to be in Matrix Market native data format"), so
//! we support reading and writing `matrix coordinate
//! {real,integer,pattern} {general,symmetric}` headers. Pattern matrices
//! (no stored values) receive uniform 3-decimal weights, exactly like the
//! paper's preprocessing of weightless datasets.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::builder::GraphBuilder;
use crate::csr::{CsrGraph, VertexId};

#[cfg(test)]
mod fuzz;
mod scan;

/// Errors from graph I/O.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem in the input file (message, 1-based line).
    Parse(String, usize),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse(msg, line) => write!(f, "parse error at line {line}: {msg}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Value kind of a Matrix Market file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MtxField {
    Real,
    Integer,
    Pattern,
}

/// Input bytes the reader holds at once. Lines are parsed a buffer at a
/// time, on every pool thread; the input is never copied whole.
const BLOCK_BYTES: usize = 1 << 20;

/// Read a Matrix Market graph from a reader.
///
/// Rectangular matrices are rejected (matching is defined on square
/// adjacency structure); `general` matrices are symmetrized; self loops
/// (diagonal entries) are dropped; pattern files get hash-derived uniform
/// weights seeded by `pattern_weight_seed`.
pub fn read_mtx<R: Read>(reader: R, pattern_weight_seed: u64) -> Result<CsrGraph, IoError> {
    read_mtx_blocks(reader, pattern_weight_seed, BLOCK_BYTES)
}

/// [`read_mtx`] through a buffer of `block` bytes.
fn read_mtx_blocks<R: Read>(
    reader: R,
    pattern_weight_seed: u64,
    block: usize,
) -> Result<CsrGraph, IoError> {
    let mut src = Blocks::new(reader, block);
    let mut lineno = 0usize;

    // Header line.
    let field = loop {
        let Some(l) = src.next_line()? else {
            return Err(IoError::Parse("empty file".into(), lineno));
        };
        lineno += 1;
        let l = utf8(l)?;
        if !l.trim().is_empty() {
            break parse_header(l, lineno)?;
        }
    };

    // Size line (skip comments).
    let (n, nnz) = loop {
        let Some(l) = src.next_line()? else {
            return Err(IoError::Parse("missing size line".into(), lineno));
        };
        lineno += 1;
        let t = utf8(l)?.trim();
        if !t.is_empty() && !t.starts_with('%') {
            break parse_size(t, lineno)?;
        }
    };

    let ctx = scan::Entries { field, n: n as u64, pattern_weight_seed };
    let mut b = GraphBuilder::new(n);
    let mut entries = 0usize;
    // Reserve for the promised entries once, so the edge list is never
    // copied to grow. An input that ends within the first buffer caps the
    // reservation at what its bytes can hold. A longer one asks for the
    // promised count without aborting on a refusal (`try_reserve_exact`);
    // the list then grows as entries arrive.
    let promised = if src.eof { nnz.min(scan::bytes_bound(src.bytes_read)) } else { nnz };
    let _ = b.edges_mut().try_reserve_exact(promised);
    let mut spare = Vec::new();
    while let Some(run) = src.next_run()? {
        let parts = scan::parse_run(run, &ctx, b.edges_mut(), &mut spare);
        for (k, part) in parts.into_iter().enumerate() {
            if let Some((i, bad)) = part.error {
                return Err(match bad {
                    scan::Bad::Utf8 => IoError::Io(invalid_utf8()),
                    scan::Bad::Parse(msg) => IoError::Parse(msg, lineno + i + 1),
                });
            }
            lineno += part.lines;
            entries += part.entries;
            if k > 0 {
                b.edges_mut().append(&mut spare[k - 1]);
            }
        }
    }
    // Free the buffers before the build allocates the CSR arrays.
    drop((src, spare));
    if entries != nnz {
        return Err(IoError::Parse(
            format!("header promised {nnz} entries, found {entries}"),
            lineno,
        ));
    }
    Ok(b.build())
}

/// The field of a `%%MatrixMarket matrix coordinate <field> <symmetry>`
/// header.
fn parse_header(header: &str, lineno: usize) -> Result<MtxField, IoError> {
    let toks: Vec<String> = header.split_whitespace().map(|t| t.to_ascii_lowercase()).collect();
    if toks.len() < 5 || toks[0] != "%%matrixmarket" || toks[1] != "matrix" {
        return Err(IoError::Parse("expected '%%MatrixMarket matrix ...' header".into(), lineno));
    }
    if toks[2] != "coordinate" {
        return Err(IoError::Parse(format!("unsupported format '{}'", toks[2]), lineno));
    }
    let field = match toks[3].as_str() {
        "real" => MtxField::Real,
        "integer" => MtxField::Integer,
        "pattern" => MtxField::Pattern,
        other => return Err(IoError::Parse(format!("unsupported field '{other}'"), lineno)),
    };
    match toks[4].as_str() {
        "general" | "symmetric" => Ok(field),
        other => Err(IoError::Parse(format!("unsupported symmetry '{other}'"), lineno)),
    }
}

/// `(vertices, entries)` of a `rows cols nnz` size line.
fn parse_size(line: &str, lineno: usize) -> Result<(usize, usize), IoError> {
    let dims: Vec<&str> = line.split_whitespace().collect();
    if dims.len() != 3 {
        return Err(IoError::Parse("size line must be 'rows cols nnz'".into(), lineno));
    }
    let rows: usize =
        dims[0].parse().map_err(|_| IoError::Parse("bad row count".into(), lineno))?;
    let cols: usize =
        dims[1].parse().map_err(|_| IoError::Parse("bad col count".into(), lineno))?;
    let nnz: usize = dims[2].parse().map_err(|_| IoError::Parse("bad nnz count".into(), lineno))?;
    if rows != cols {
        return Err(IoError::Parse(
            format!("matrix must be square for matching, got {rows}x{cols}"),
            lineno,
        ));
    }
    if rows > VertexId::MAX as usize {
        return Err(IoError::Parse(
            format!("{rows} vertices exceed the 32-bit vertex id space"),
            lineno,
        ));
    }
    Ok((rows, nnz))
}

/// The error `BufRead::lines` gives for a line that is not UTF-8.
fn invalid_utf8() -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, "stream did not contain valid UTF-8")
}

fn utf8(line: &[u8]) -> io::Result<&str> {
    std::str::from_utf8(line).map_err(|_| invalid_utf8())
}

/// A bounded window on the input: lines are handed out of one buffer,
/// refilled as they are consumed. Only an unfinished line is carried
/// over a refill; the buffer grows only to hold a line longer than it.
struct Blocks<R> {
    src: R,
    buf: Vec<u8>,
    /// Unconsumed bytes are `buf[lo..hi]`.
    lo: usize,
    hi: usize,
    eof: bool,
    bytes_read: usize,
    /// A read error held back until the lines read before it are used up,
    /// as `BufRead::lines` reports it only at the line it interrupts.
    err: Option<io::Error>,
}

impl<R: Read> Blocks<R> {
    fn new(src: R, block: usize) -> Self {
        let buf = vec![0; block.max(1)];
        Blocks { src, buf, lo: 0, hi: 0, eof: false, bytes_read: 0, err: None }
    }

    /// Move the unconsumed bytes to the front and read until the buffer
    /// is full or the input ends. A failed read ends the fill; its error
    /// is returned by the next one.
    fn fill(&mut self) -> io::Result<()> {
        if let Some(e) = self.err.take() {
            return Err(e);
        }
        self.buf.copy_within(self.lo..self.hi, 0);
        self.hi -= self.lo;
        self.lo = 0;
        if self.hi == self.buf.len() {
            self.buf.resize(2 * self.buf.len(), 0);
        }
        while self.hi < self.buf.len() {
            match self.src.read(&mut self.buf[self.hi..]) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(k) => {
                    self.hi += k;
                    self.bytes_read += k;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.err = Some(e);
                    break;
                }
            }
        }
        Ok(())
    }

    /// The next line without its `'\n'`, or `None` at the end of input.
    fn next_line(&mut self) -> io::Result<Option<&[u8]>> {
        let nl = loop {
            if let Some(p) = self.buf[self.lo..self.hi].iter().position(|&b| b == b'\n') {
                break Some(self.lo + p);
            }
            if self.eof {
                break None;
            }
            self.fill()?;
        };
        let start = self.lo;
        Ok(match nl {
            Some(p) => {
                self.lo = p + 1;
                Some(&self.buf[start..p])
            }
            None => {
                self.lo = self.hi;
                (start < self.hi).then(|| &self.buf[start..self.hi])
            }
        })
    }

    /// Every whole line in the buffer, or at the end of input whatever
    /// is left; `None` once the input is exhausted.
    fn next_run(&mut self) -> io::Result<Option<&[u8]>> {
        let end = loop {
            if let Some(p) = self.buf[self.lo..self.hi].iter().rposition(|&b| b == b'\n') {
                break self.lo + p + 1;
            }
            if self.eof {
                break self.hi;
            }
            self.fill()?;
        };
        let start = self.lo;
        self.lo = end;
        Ok((start < end).then(|| &self.buf[start..end]))
    }
}

/// Read a Matrix Market graph from a file path.
pub fn read_mtx_file(
    path: impl AsRef<Path>,
    pattern_weight_seed: u64,
) -> Result<CsrGraph, IoError> {
    read_mtx(File::open(path)?, pattern_weight_seed)
}

/// Write `g` as a symmetric real coordinate Matrix Market file (lower
/// triangle, 1-indexed).
pub fn write_mtx<W: Write>(g: &CsrGraph, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "%%MatrixMarket matrix coordinate real symmetric")?;
    writeln!(w, "% written by ldgm-graph")?;
    writeln!(w, "{} {} {}", g.num_vertices(), g.num_vertices(), g.num_edges())?;
    for (u, v, wt) in g.iter_edges() {
        // Symmetric MM stores the lower triangle: row >= col.
        writeln!(w, "{} {} {}", v + 1, u + 1, wt)?;
    }
    w.flush()
}

/// Write `g` to a file path in Matrix Market format.
pub fn write_mtx_file(g: &CsrGraph, path: impl AsRef<Path>) -> io::Result<()> {
    write_mtx(g, File::create(path)?)
}

const BIN_MAGIC: &[u8; 8] = b"LDGMCSR1";

/// Write `g` in the compact binary CSR cache format (little endian:
/// magic, n, 2m, offsets, adjacency, weights).
pub fn write_bin<W: Write>(g: &CsrGraph, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    w.write_all(BIN_MAGIC)?;
    w.write_all(&(g.num_vertices() as u64).to_le_bytes())?;
    w.write_all(&(g.num_directed_edges() as u64).to_le_bytes())?;
    for &o in g.offsets() {
        w.write_all(&o.to_le_bytes())?;
    }
    for &a in g.adjacency() {
        w.write_all(&a.to_le_bytes())?;
    }
    for &wt in g.weight_array() {
        w.write_all(&wt.to_le_bytes())?;
    }
    w.flush()
}

/// Read a graph from the binary CSR cache format.
pub fn read_bin<R: Read>(reader: R) -> Result<CsrGraph, IoError> {
    let mut r = BufReader::new(reader);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != BIN_MAGIC {
        return Err(IoError::Parse("bad magic".into(), 0));
    }
    let mut buf8 = [0u8; 8];
    r.read_exact(&mut buf8)?;
    let n = u64::from_le_bytes(buf8) as usize;
    r.read_exact(&mut buf8)?;
    let m2 = u64::from_le_bytes(buf8) as usize;
    let mut offsets = Vec::with_capacity(n + 1);
    for _ in 0..=n {
        r.read_exact(&mut buf8)?;
        offsets.push(u64::from_le_bytes(buf8));
    }
    let mut adj = Vec::with_capacity(m2);
    let mut buf4 = [0u8; 4];
    for _ in 0..m2 {
        r.read_exact(&mut buf4)?;
        adj.push(u32::from_le_bytes(buf4));
    }
    let mut weights = Vec::with_capacity(m2);
    for _ in 0..m2 {
        r.read_exact(&mut buf8)?;
        weights.push(f64::from_le_bytes(buf8));
    }
    let g = CsrGraph::from_raw(offsets, adj, weights);
    g.validate().map_err(|e| IoError::Parse(e, 0))?;
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::gen::urand;

    fn sample() -> CsrGraph {
        GraphBuilder::new(4)
            .add_edge(0, 1, 0.5)
            .add_edge(1, 2, 0.25)
            .add_edge(2, 3, 0.75)
            .add_edge(0, 3, 1.0)
            .build()
    }

    #[test]
    fn mtx_roundtrip() {
        let g = sample();
        let mut buf = Vec::new();
        write_mtx(&g, &mut buf).unwrap();
        let back = read_mtx(&buf[..], 0).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn mtx_roundtrip_random() {
        let g = urand(200, 1000, 3);
        let mut buf = Vec::new();
        write_mtx(&g, &mut buf).unwrap();
        let back = read_mtx(&buf[..], 0).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn pattern_gets_weights() {
        let s = "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 2\n";
        let g = read_mtx(s.as_bytes(), 42).unwrap();
        assert_eq!(g.num_edges(), 2);
        for (_, _, w) in g.iter_edges() {
            assert!(w > 0.0 && w <= 1.0);
        }
    }

    #[test]
    fn general_symmetrizes_and_drops_diagonal() {
        let s = "%%MatrixMarket matrix coordinate real general\n% comment\n3 3 4\n1 2 5.0\n2 1 5.0\n1 1 9.0\n3 1 -2.0\n";
        let g = read_mtx(s.as_bytes(), 0).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge_weight(0, 1), Some(5.0));
        assert_eq!(g.edge_weight(0, 2), Some(2.0)); // magnitude of -2
    }

    #[test]
    fn rejects_rectangular() {
        let s = "%%MatrixMarket matrix coordinate real general\n3 4 0\n";
        assert!(read_mtx(s.as_bytes(), 0).is_err());
    }

    #[test]
    fn rejects_wrong_nnz() {
        let s = "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 2 1.0\n";
        assert!(read_mtx(s.as_bytes(), 0).is_err());
    }

    #[test]
    fn rejects_out_of_range_index() {
        let s = "%%MatrixMarket matrix coordinate real general\n3 3 1\n1 7 1.0\n";
        assert!(read_mtx(s.as_bytes(), 0).is_err());
    }

    #[test]
    fn rejects_bad_header() {
        let s = "%%MatrixMarket tensor coordinate real general\n1 1 0\n";
        assert!(read_mtx(s.as_bytes(), 0).is_err());
        let s2 = "%%MatrixMarket matrix array real general\n1 1 0\n";
        assert!(read_mtx(s2.as_bytes(), 0).is_err());
    }

    #[test]
    fn bin_roundtrip() {
        let g = urand(300, 2000, 5);
        let mut buf = Vec::new();
        write_bin(&g, &mut buf).unwrap();
        let back = read_bin(&buf[..]).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn bin_rejects_garbage() {
        assert!(read_bin(&b"NOTAGRAPH"[..]).is_err());
    }
}

//! Differential fuzz of the block reader against the line-based reader
//! it replaced: on every generated file both must return a bit-identical
//! graph or the same error (variant, message and line, or `io::ErrorKind`
//! for an I/O error), and neither may panic.

use std::io::BufRead;

use proptest::prelude::*;

use super::*;
use crate::rng::Xoshiro256;
use crate::weights::edge_hash_weight;

/// The line-based reader: `BufRead::lines`, `str::trim`,
/// `split_whitespace` and `str::parse`. It differs from the reader it
/// was only in refusing a size line beyond the 32-bit id space and in
/// reserving nothing up front, which made hostile headers panic.
fn oracle<R: Read>(reader: R, pattern_weight_seed: u64) -> Result<CsrGraph, IoError> {
    let mut lines = BufReader::new(reader).lines();
    let mut lineno = 0usize;

    let header = loop {
        match lines.next() {
            Some(l) => {
                lineno += 1;
                let l = l?;
                if !l.trim().is_empty() {
                    break l;
                }
            }
            None => return Err(IoError::Parse("empty file".into(), lineno)),
        }
    };
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
        "general" | "symmetric" => {}
        other => return Err(IoError::Parse(format!("unsupported symmetry '{other}'"), lineno)),
    }

    let size_line = loop {
        match lines.next() {
            Some(l) => {
                lineno += 1;
                let l = l?;
                let t = l.trim();
                if t.is_empty() || t.starts_with('%') {
                    continue;
                }
                break l;
            }
            None => return Err(IoError::Parse("missing size line".into(), lineno)),
        }
    };
    let dims: Vec<&str> = size_line.split_whitespace().collect();
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

    let mut b = GraphBuilder::new(rows);
    let mut entries = 0usize;
    for l in lines {
        lineno += 1;
        let l = l?;
        let t = l.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let i: u64 = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| IoError::Parse("bad row index".into(), lineno))?;
        let j: u64 = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| IoError::Parse("bad col index".into(), lineno))?;
        if i == 0 || j == 0 || i > rows as u64 || j > cols as u64 {
            return Err(IoError::Parse(format!("index ({i},{j}) out of range"), lineno));
        }
        let u = (i - 1) as VertexId;
        let v = (j - 1) as VertexId;
        let w = match field {
            MtxField::Pattern => edge_hash_weight(u, v, pattern_weight_seed),
            MtxField::Real | MtxField::Integer => {
                let raw: f64 = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| IoError::Parse("missing value".into(), lineno))?;
                if raw == 0.0 {
                    edge_hash_weight(u, v, pattern_weight_seed)
                } else {
                    raw.abs()
                }
            }
        };
        entries += 1;
        b.push_edge(u, v, w);
    }
    if entries != nnz {
        return Err(IoError::Parse(
            format!("header promised {nnz} entries, found {entries}"),
            lineno,
        ));
    }
    Ok(b.build())
}

/// Bit-level equality of two reads.
fn same(a: &Result<CsrGraph, IoError>, b: &Result<CsrGraph, IoError>) -> bool {
    match (a, b) {
        (Ok(x), Ok(y)) => {
            x.offsets() == y.offsets()
                && x.adjacency() == y.adjacency()
                && x.weight_array()
                    .iter()
                    .map(|w| w.to_bits())
                    .eq(y.weight_array().iter().map(|w| w.to_bits()))
        }
        (Err(IoError::Parse(m, l)), Err(IoError::Parse(n, k))) => m == n && l == k,
        (Err(IoError::Io(e)), Err(IoError::Io(f))) => e.kind() == f.kind(),
        _ => false,
    }
}

/// Panic with the file read on any difference between the reader (through
/// `block`-byte buffers) and the oracle.
fn assert_same(
    got: &Result<CsrGraph, IoError>,
    want: &Result<CsrGraph, IoError>,
    block: usize,
    bytes: &[u8],
) {
    assert!(
        same(got, want),
        "block {block}: reader {:?} != oracle {:?} on\n{}",
        got.as_ref().map(|g| g.num_edges()),
        want.as_ref().map(|g| g.num_edges()),
        String::from_utf8_lossy(bytes)
    );
}

/// Read `bytes` with both readers, the new one through `block`-byte
/// buffers, and panic with the file on any difference.
fn check(bytes: &[u8], block: usize) {
    assert_same(&read_mtx_blocks(bytes, 9, block), &oracle(bytes, 9), block, bytes);
}

fn pick<'a, T>(r: &mut Xoshiro256, xs: &'a [T]) -> &'a T {
    &xs[r.below(xs.len() as u64) as usize]
}

/// Token separators: every ASCII byte `char::is_whitespace` accepts
/// except the line end, runs of them, and Unicode spaces.
const SEPS: &[&str] =
    &[" ", " ", " ", "\t", "  ", "\x0b", "\x0c", "\r", " \t ", "\u{3000}", "\u{a0}"];

/// Value tokens on and off the fast path; `noisy` adds tokens that are
/// not numbers.
fn value(r: &mut Xoshiro256, noisy: bool) -> String {
    match r.below(if noisy { 16 } else { 15 }) {
        0 => format!("{}", r.below(1000)),
        1..=4 => format!("{:.3}", r.next_f64()),
        5 => format!("-{:.*}", r.below(8) as usize, r.next_f64() * 100.0),
        6 => format!("+{:.2}", r.next_f64()),
        7 => format!("{:e}", r.next_f64() * 1e6),
        8 => {
            // A mantissa either side of 2^53, the point k digits from its end.
            let m = ((1u64 << 53) - 1000 + r.below(2000)).to_string();
            let k = 1 + r.below(15) as usize;
            format!("{}.{}", &m[..m.len() - k], &m[m.len() - k..])
        }
        9 => format!("0.{:025}", r.below(u64::MAX)),
        10 => format!("0.{:022}", r.below(u64::MAX)),
        11 => pick(r, &["inf", "-inf", "NaN", "nan", "infinity", "1.", ".5"]).to_string(),
        12 => pick(r, &["0", "-0", "0.000", "-0.0", "00.0"]).to_string(),
        13 => format!("{}", r.next_f64() * 1e-300),
        14 => format!("{}", r.next_f64()),
        _ => pick(r, &["-", "1.2.3", "1e", "0x1", "\u{ff11}", "1\u{e9}"]).to_string(),
    }
}

/// Index tokens for `n` vertices; `noisy` adds ones out of range or not
/// numbers.
fn index(r: &mut Xoshiro256, n: u64, noisy: bool) -> String {
    match r.below(if noisy { 24 } else { 20 }) {
        0 => format!("+{}", 1 + r.below(n)),
        1 => format!("00{}", 1 + r.below(n)),
        2 => format!("00000000000000000000{}", 1 + r.below(n)),
        3..=19 => format!("{}", 1 + r.below(n)),
        20 => format!("{}", n + 1 + r.below(3)),
        _ => pick(r, &["0", "-1", "+", "x", "18446744073709551616"]).to_string(),
    }
}

/// One line of the body; `noisy` adds lines the reader refuses.
fn body_line(r: &mut Xoshiro256, n: u64, pattern: bool, noisy: bool) -> Vec<u8> {
    let sep = |r: &mut Xoshiro256| pick(r, SEPS).as_bytes().to_vec();
    let mut line = Vec::new();
    match r.below(if noisy { 40 } else { 38 }) {
        0 => line.extend(b"% a comment"),
        1 => line.extend("  % n\u{f3}n-ASCII comment".as_bytes()),
        2 => {}
        3 => line.extend(b" \t\r"),
        38 => line.extend(b"1 2 \xff 3"),
        39 => line.extend(b"% \xc3 broken"),
        _ => {
            if r.below(4) == 0 {
                line.extend(sep(r));
            }
            line.extend(index(r, n, noisy).as_bytes());
            line.extend(sep(r));
            line.extend(index(r, n, noisy).as_bytes());
            if !pattern || r.below(8) == 0 {
                line.extend(sep(r));
                line.extend(value(r, noisy).as_bytes());
            }
            if r.below(8) == 0 {
                line.extend(sep(r));
                line.extend(b"extra");
            }
            if r.below(4) == 0 {
                line.extend(sep(r));
            }
        }
    }
    line
}

/// A generated file of `lines` body lines with a few random byte flips
/// and, sometimes, a truncation on top.
fn gen_file(seed: u64, lines: usize, noisy: bool) -> Vec<u8> {
    let mut r = Xoshiro256::seed_from_u64(seed);
    let field = *pick(&mut r, &["real", "integer", "pattern", "Real", "PATTERN"]);
    let symmetry = *pick(&mut r, &["general", "symmetric", "Symmetric"]);
    let pattern = field.eq_ignore_ascii_case("pattern");
    let n = 1 + r.below(60);
    let eol: &[u8] = if r.below(3) == 0 { b"\r\n" } else { b"\n" };
    let body: Vec<Vec<u8>> = (0..lines).map(|_| body_line(&mut r, n, pattern, noisy)).collect();
    let entries = body
        .iter()
        .filter(|l| {
            let t = String::from_utf8_lossy(l);
            let t = t.trim();
            !t.is_empty() && !t.starts_with('%')
        })
        .count();
    let nnz = if r.below(6) == 0 { entries + 1 } else { entries };

    let mut out = Vec::new();
    if r.below(8) == 0 {
        out.extend(eol);
    }
    out.extend(format!("%%MatrixMarket matrix coordinate {field} {symmetry}").as_bytes());
    out.extend(eol);
    if r.below(2) == 0 {
        out.extend(b"% written by the fuzzer");
        out.extend(eol);
    }
    out.extend(format!("{n} {n} {nnz}").as_bytes());
    out.extend(eol);
    for l in &body {
        out.extend(l);
        out.extend(eol);
    }
    if r.below(4) == 0 {
        out.truncate(out.len() - eol.len());
    }
    for _ in 0..r.below(3) {
        if !out.is_empty() {
            let at = r.below(out.len() as u64) as usize;
            out[at] = *pick(&mut r, b"\n \t0123456789%-.+e\xff\x80\xc3");
        }
    }
    if r.below(8) == 0 && !out.is_empty() {
        let at = r.below(out.len() as u64) as usize;
        out.truncate(at);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn block_reader_matches_line_reader(seed in 0u64..u64::MAX) {
        let file = gen_file(seed, (seed % 40) as usize, true);
        for block in [1, 2, 5, 16, 97, BLOCK_BYTES] {
            check(&file, block);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Files several blocks long whose runs are split across the pool,
    /// so lines straddle both block and part boundaries.
    #[test]
    fn parallel_parts_match_line_reader(seed in 0u64..u64::MAX) {
        let file = gen_file(seed, 80_000, false);
        check(&file, 2 * scan::MIN_PARALLEL_BYTES + (seed % 1000) as usize);
    }
}

/// A reader that hands out `bytes` at most `chunk` bytes a call and then
/// fails, as a file on a failing device would.
struct Failing<'a> {
    bytes: &'a [u8],
    chunk: usize,
}

impl Read for Failing<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.bytes.is_empty() {
            return Err(io::Error::other("device failed"));
        }
        let k = buf.len().min(self.chunk).min(self.bytes.len());
        buf[..k].copy_from_slice(&self.bytes[..k]);
        self.bytes = &self.bytes[k..];
        Ok(k)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A read that fails partway: the lines read before it still count,
    /// so an error among them wins over the read error.
    #[test]
    fn read_errors_surface_where_the_line_reader_meets_them(seed in 0u64..u64::MAX) {
        let file = gen_file(seed, (seed % 40) as usize, true);
        let cut = &file[..(seed >> 8) as usize % (file.len() + 1)];
        let chunk = 1 + (seed >> 32) as usize % 13;
        let want = oracle(Failing { bytes: cut, chunk }, 9);
        for block in [1, 5, 97, BLOCK_BYTES] {
            let got = read_mtx_blocks(Failing { bytes: cut, chunk }, 9, block);
            assert_same(&got, &want, block, cut);
        }
    }
}

#[test]
fn hostile_headers_are_parse_errors() {
    for size in ["5000000000 5000000000 0", "3 3 18446744073709551615", "3 3 1000000000000"] {
        let file = format!("%%MatrixMarket matrix coordinate real general\n{size}\n1 2 1.0\n");
        let err = read_mtx(file.as_bytes(), 0).expect_err(size);
        assert!(matches!(err, IoError::Parse(_, 2 | 3)), "{size}: {err}");
        check(file.as_bytes(), BLOCK_BYTES);
    }
}

#[test]
fn lines_are_counted_as_buf_read_lines_counts_them() {
    // Blank and CRLF lines, and a missing final newline, move the line
    // of the end-of-input count check.
    for file in [
        "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 2 1.0\n",
        "%%MatrixMarket matrix coordinate real general\r\n3 3 2\r\n1 2 1.0\r\n\r\n",
        "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 2 1.0",
        "\n\n%%MatrixMarket matrix coordinate real general\n3 3 2\n\n1 2 1.0\n\n\n",
    ] {
        for block in [1, 3, BLOCK_BYTES] {
            check(file.as_bytes(), block);
        }
    }
}

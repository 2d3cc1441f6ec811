//! Byte scanning of Matrix Market entry lines.
//!
//! A run of whole lines is cut at line ends into one part per pool
//! thread, and each part is parsed into canonical edge tuples with the
//! same outcome, line for line, as `str::trim` + `split_whitespace` +
//! `str::parse` on the lines `BufRead::lines` yields. The usual entry
//! line (ASCII whitespace, plain indices and decimal values) is parsed in
//! one pass over its bytes; every other line is checked for UTF-8 and read
//! by `str::trim`, `split_whitespace` and `str::parse` themselves.

use rayon::prelude::*;

use crate::builder::{canonical, Edge};
use crate::csr::VertexId;
use crate::weights::edge_hash_weight;

use super::MtxField;

/// Runs shorter than this are parsed on the calling thread.
pub(super) const MIN_PARALLEL_BYTES: usize = 1 << 18;

/// Powers of ten up to the largest one an `f64` holds exactly.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// What entry lines need from the header.
pub(super) struct Entries {
    pub field: MtxField,
    /// Rows (= columns); indices are 1-based and at most this.
    pub n: u64,
    pub pattern_weight_seed: u64,
}

/// Why a line was refused.
#[derive(Debug)]
pub(super) enum Bad {
    /// The line is not UTF-8.
    Utf8,
    /// The line is not a valid entry; the message `read_mtx` reports.
    Parse(String),
}

/// The outcome of parsing one part of a run.
pub(super) struct Part {
    /// Entry lines parsed, self loops and dropped weights included.
    pub entries: usize,
    /// Lines parsed, not counting a refused one.
    pub lines: usize,
    /// The first refused line, as its index within the part.
    pub error: Option<(usize, Bad)>,
}

/// Parse a run of whole lines (the last may lack its `'\n'` at the end of
/// input) in one part per pool thread; parts come back in file order.
/// The first part's canonical tuples are appended to `out`, and part
/// `k > 0`'s to `spare[k - 1]`, which must be empty.
pub(super) fn parse_run(
    run: &[u8],
    ctx: &Entries,
    out: &mut Vec<Edge>,
    spare: &mut Vec<Vec<Edge>>,
) -> Vec<Part> {
    let parts = if run.len() < MIN_PARALLEL_BYTES { 1 } else { rayon::current_num_threads() };
    if spare.len() < parts - 1 {
        spare.resize_with(parts - 1, Vec::new);
    }
    let mut items = Vec::with_capacity(parts);
    let mut outs = std::iter::once(out).chain(spare.iter_mut());
    let mut start = 0;
    for k in 1..=parts {
        let mut end = run.len();
        if k < parts {
            let target = (run.len() / parts * k).max(start);
            if let Some(p) = run[target..].iter().position(|&b| b == b'\n') {
                end = target + p + 1;
            }
        }
        let edges = outs.next().expect("one vector per part");
        if k > 1 {
            // Room for the part's most entries, reserved here so that no
            // pool thread grows a vector (and its own allocator arena).
            edges.reserve(bytes_bound(end - start));
        }
        items.push((&run[start..end], edges));
        start = end;
    }
    items.into_par_iter().map(|(bytes, edges)| parse_part(bytes, ctx, edges)).collect()
}

/// The most entry lines `bytes` bytes can hold: each takes at least
/// `"1 1"` and a line end.
pub(super) fn bytes_bound(bytes: usize) -> usize {
    bytes / 4 + 1
}

/// Parse whole lines, appending their canonical tuples to `edges`, up to
/// the first refused one.
fn parse_part(bytes: &[u8], ctx: &Entries, edges: &mut Vec<Edge>) -> Part {
    let valued = ctx.field != MtxField::Pattern;
    let (mut entries, mut lines, mut pos) = (0, 0, 0);
    while pos < bytes.len() {
        let parsed = match plain_entry(bytes, pos, valued) {
            Some((i, j, raw, next)) => {
                pos = next;
                ctx.ids(i, j).map(|(u, v)| Some(ctx.edge(u, v, raw)))
            }
            None => {
                let end =
                    bytes[pos..].iter().position(|&b| b == b'\n').map_or(bytes.len(), |p| pos + p);
                let line = &bytes[pos..end];
                pos = bytes.len().min(end + 1);
                parse_line(line, ctx)
            }
        };
        match parsed {
            Ok(None) => {}
            Ok(Some((u, v, w))) => {
                entries += 1;
                edges.extend(canonical(u, v, w));
            }
            Err(bad) => return Part { entries, lines, error: Some((lines, bad)) },
        }
        lines += 1;
    }
    Part { entries, lines, error: None }
}

/// The usual entry line at `bytes[pos..]` in one pass: `i j w`, or `i j`
/// when not `valued`, with indices of at most 19 digits, a value that
/// [`decimal`] reads and [`clinger`] converts, and only ASCII whitespace
/// around them. Returns `(i, j, w, start of the next line)`, or `None` for
/// any other line, which [`parse_line`] then reads.
#[inline]
fn plain_entry(bytes: &[u8], mut pos: usize, valued: bool) -> Option<(u64, u64, f64, usize)> {
    let gap = |pos: &mut usize, needed: bool| {
        let start = *pos;
        while *pos < bytes.len() && bytes[*pos] != b'\n' && is_space(bytes[*pos]) {
            *pos += 1;
        }
        !needed || *pos > start
    };
    gap(&mut pos, false);
    let i = digits(bytes, &mut pos)?;
    gap(&mut pos, true).then_some(())?;
    let j = digits(bytes, &mut pos)?;
    let mut w = 0.0;
    if valued {
        gap(&mut pos, true).then_some(())?;
        let (m, k, neg, end) = decimal(bytes, pos)?;
        w = clinger(m, k, neg)?;
        pos = end;
    }
    gap(&mut pos, false);
    match bytes.get(pos) {
        None => Some((i, j, w, pos)),
        Some(b'\n') => Some((i, j, w, pos + 1)),
        Some(_) => None,
    }
}

/// The run of at most 19 digits at `bytes[*pos..]` (less than 10^19
/// cannot overflow), moving `pos` past it; `None` for no digits or more
/// than 19.
#[inline]
fn digits(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let start = *pos;
    let mut x = 0u64;
    while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
        x = x.wrapping_mul(10).wrapping_add(u64::from(bytes[*pos] - b'0'));
        *pos += 1;
    }
    (1..=19).contains(&(*pos - start)).then_some(x)
}

/// A line [`plain_entry`] did not take: `None` for a blank or comment
/// line, else the entry.
fn parse_line(line: &[u8], ctx: &Entries) -> Result<Option<Edge>, Bad> {
    let bad = |msg: &str| Bad::Parse(msg.into());
    let t = std::str::from_utf8(line).map_err(|_| Bad::Utf8)?.trim();
    if t.is_empty() || t.starts_with('%') {
        return Ok(None);
    }
    let mut it = t.split_whitespace();
    let i: u64 = it.next().and_then(|s| s.parse().ok()).ok_or_else(|| bad("bad row index"))?;
    let j: u64 = it.next().and_then(|s| s.parse().ok()).ok_or_else(|| bad("bad col index"))?;
    let (u, v) = ctx.ids(i, j)?;
    let mut raw = 0.0;
    if ctx.field != MtxField::Pattern {
        raw = it.next().and_then(|s| s.parse().ok()).ok_or_else(|| bad("missing value"))?;
    }
    Ok(Some(ctx.edge(u, v, raw)))
}

/// The ASCII bytes `char::is_whitespace` accepts: tab, LF, VT, FF, CR and
/// space.
#[inline]
fn is_space(b: u8) -> bool {
    b == b' ' || (b'\t'..=b'\r').contains(&b)
}

impl Entries {
    /// 0-based ids of the 1-based indices `(i, j)`, if in range.
    #[inline]
    fn ids(&self, i: u64, j: u64) -> Result<(VertexId, VertexId), Bad> {
        if i == 0 || j == 0 || i > self.n || j > self.n {
            return Err(Bad::Parse(format!("index ({i},{j}) out of range")));
        }
        Ok(((i - 1) as VertexId, (j - 1) as VertexId))
    }

    /// The entry `(u, v)` with stored value `raw` (ignored for pattern
    /// files).
    #[inline]
    fn edge(&self, u: VertexId, v: VertexId, raw: f64) -> Edge {
        // Matching needs positive weights; matrices store signed values,
        // so take magnitudes (the convention used by matching-based
        // pivoting/ordering in numerical LA). Pattern files and zero
        // entries get a hash weight.
        let w = if self.field == MtxField::Pattern || raw == 0.0 {
            edge_hash_weight(u, v, self.pattern_weight_seed)
        } else {
            raw.abs()
        };
        (u, v, w)
    }
}

/// The decimal `[-]digits[.digits]` at `bytes[pos..]` as
/// `(m, k, negative, end)`: the digits read as one integer `m`, `k` of
/// them after the point. `None` for another shape, or once `m` reaches
/// 2^53.
#[inline]
fn decimal(bytes: &[u8], mut pos: usize) -> Option<(u64, usize, bool, usize)> {
    let neg = bytes.get(pos) == Some(&b'-');
    pos += usize::from(neg);
    let mut m = 0u64;
    let mut run = |pos: &mut usize| {
        let start = *pos;
        while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
            // m < 2^53 before this step, so m * 10 + 9 cannot overflow.
            m = m * 10 + u64::from(bytes[*pos] - b'0');
            if m >= 1 << 53 {
                return None;
            }
            *pos += 1;
        }
        Some(*pos - start).filter(|&n| n > 0)
    };
    run(&mut pos)?;
    let mut k = 0;
    if bytes.get(pos) == Some(&b'.') {
        pos += 1;
        k = run(&mut pos)?;
    }
    Some((m, k, neg, pos))
}

/// Clinger's fast path: for `m < 2^53` and `k <= 22`, `m` and `10^k` are
/// exact doubles, so `m / 10^k` is one correctly rounded division, the
/// value `str::parse` returns for the decimal. `None` for larger `k`.
#[inline]
fn clinger(m: u64, k: usize, neg: bool) -> Option<f64> {
    let x = m as f64 / *POW10.get(k)?;
    Some(if neg { -x } else { x })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clinger_agrees_with_str_parse() {
        let toks = "0 -0 1 0.5 -2.25 007.0700 9007199254740991 9007199254740992 0.1 0.2 0.3 \
            123456789.123456789 1.0000000000000000000001 0.0000000000000000000001 \
            0.00000000000000000000001 4.35 1e3 +1 1. .5 - --1 1.2.3 inf NaN 1_0";
        let fast = |t: &str| match decimal(t.as_bytes(), 0) {
            Some((m, k, neg, end)) if end == t.len() => clinger(m, k, neg),
            _ => None,
        };
        for t in toks.split_whitespace() {
            let slow: Option<f64> = t.parse().ok();
            if let Some(x) = fast(t) {
                assert_eq!(Some(x.to_bits()), slow.map(f64::to_bits), "{t}");
            }
        }
        // Mantissas at 2^53 and 23 fraction digits leave the fast path.
        assert!(fast("9007199254740991").is_some());
        assert!(fast("9007199254740992").is_none());
        assert!(fast("0.0000000000000000000001").is_some());
        assert!(fast("0.00000000000000000000001").is_none());
    }

    #[test]
    fn digits_agree_with_str_parse() {
        let toks = "0 1 0042 +7 -1 + 1a 9999999999999999999 18446744073709551615 \
            18446744073709551616 000000000000000000000001";
        for t in toks.split_whitespace() {
            let mut pos = 0;
            if let Some(x) = digits(t.as_bytes(), &mut pos).filter(|_| pos == t.len()) {
                assert_eq!(Some(x), t.parse::<u64>().ok(), "{t}");
            }
        }
        // A sign, or a 20th digit, leaves the fast path.
        assert_eq!(digits(b"+7", &mut 0), None);
        assert_eq!(digits(b"9999999999999999999", &mut 0), Some(9_999_999_999_999_999_999));
        assert_eq!(digits(b"00000000000000000001", &mut 0), None);
    }

    #[test]
    fn whitespace_is_char_is_whitespace_on_ascii() {
        for b in 0u8..128 {
            assert_eq!(is_space(b), (b as char).is_whitespace(), "byte {b:#04x}");
        }
    }
}

//! Request-parser fuzz.
//!
//! Every frame a client sends reaches [`ParsedRequest::parse`] unless the
//! reactor's `mate` fast path ([`wire::parse_mate_fast`]) claims it first.
//! Starting from valid lines of every op, seeded mutations (byte flips,
//! truncation, insertion, deletion and deep nesting) must never make the
//! parser panic or overflow its stack, and the fast path must accept only
//! lines the full parser reads as the same `mate` query with no dataset
//! route — so the fast path can never answer differently from the slow one.

use proptest::prelude::*;

use ldgm_serve::protocol::wire;
use ldgm_serve::{ParsedRequest, Request};

/// One valid line per op (and the routed and extreme `mate` forms).
const LINES: &[&str] = &[
    r#"{"op":"hello","tenant":"t1"}"#,
    r#"{"op":"mate","v":7}"#,
    r#"{"op":"mate","v":4294967295}"#,
    r#"{"op":"mate","v":0,"dataset":"g"}"#,
    r#"{"op": "mate", "v": 12}"#,
    r#"{"op":"match-info"}"#,
    r#"{"op":"update","kind":"insert","u":1,"v":2,"w":0.5}"#,
    r#"{"op":"update","kind":"delete","u":3,"v":4}"#,
    r#"{"op":"update-batch","updates":[{"kind":"insert","u":0,"v":1,"w":2.0},{"kind":"delete","u":1,"v":2}]}"#,
    r#"{"op":"subscribe","v":9}"#,
    r#"{"op":"flush"}"#,
    r#"{"op":"stats"}"#,
    r#"{"op":"shutdown"}"#,
];

/// Bytes an insertion or flip draws from most of the time: the ones that
/// steer a JSON parser.
const ALPHABET: &[u8] = b"{}[]\":,.-+eE0123456789 \\u\tnulltruefalse";

/// Apply one mutation `(kind, at, byte)` to `line`.
fn mutate(line: &mut Vec<u8>, (kind, at, byte): (u8, usize, u8)) {
    let at = at % (line.len() + 1);
    let pick = if byte < 192 { ALPHABET[byte as usize % ALPHABET.len()] } else { byte };
    match kind {
        0 if at < line.len() => line[at] ^= byte | 1,
        1 => line.truncate(at),
        2 => line.insert(at, pick),
        3 if at < line.len() => {
            line.remove(at);
        }
        4 => {
            // Nesting from under the parser's cap to far past it.
            let depth = 64 + byte as usize * 40;
            let open: &[u8] = if byte % 2 == 0 { b"[" } else { br#"{"a":"# };
            let deep: Vec<u8> = open.iter().copied().cycle().take(depth * open.len()).collect();
            line.splice(at..at, deep);
        }
        _ => {
            // Wrap the whole line, so it stays well-formed when shallow.
            let depth = 64 + byte as usize * 40;
            let mut wrapped = vec![b'['; depth];
            wrapped.append(line);
            wrapped.resize(wrapped.len() + depth, b']');
            *line = wrapped;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn parser_never_panics_and_fast_path_agrees(
        which in 0usize..LINES.len(),
        edits in prop::collection::vec((0u8..6, 0usize..4096, 0u8..=255), 0..5),
    ) {
        let mut line = LINES[which].as_bytes().to_vec();
        for &e in &edits {
            mutate(&mut line, e);
        }
        let full = std::str::from_utf8(&line).ok().map(ParsedRequest::parse);
        if edits.is_empty() {
            prop_assert!(matches!(full, Some(Ok(_))), "{} must parse", LINES[which]);
        }
        if let Some(v) = wire::parse_mate_fast(&line) {
            let want = ParsedRequest { dataset: None, request: Request::Mate { v } };
            prop_assert_eq!(full, Some(Ok(want)), "{}", String::from_utf8_lossy(&line));
        }
    }
}

#[test]
fn deep_nesting_is_a_parse_error() {
    for open in ["[", "{\"a\":"] {
        let err = ParsedRequest::parse(&open.repeat(10_000)).unwrap_err();
        assert!(err.contains("nesting too deep"), "{err}");
    }
}

//! JSONL metrics export, a dependency-free JSON validator, and a minimal
//! JSON value parser.
//!
//! The emitter side is deliberately trivial: every [`RoundSnapshot`] field
//! is an unsigned integer, so one `format!` per line produces valid JSON
//! with no escaping concerns. The validator side is a minimal
//! recursive-descent checker (not a parser — it builds nothing) used by the
//! unit tests, `obs_report`, and CI to prove exported files are well-formed
//! without pulling in a JSON crate. The parser side ([`parse`] /
//! [`JsonValue`]) is the read path the multi-run aggregator
//! ([`agg`](super::agg)) and the repo benchmark use to consume the
//! files this repo itself emits — same RFC 8259 grammar, but it builds a
//! value tree. Integers are kept exact up to the full `u64`/`i64` range
//! (`lvt` is `u64::MAX` on idle PEs; an f64 round-trip would corrupt it).

use std::io::{BufWriter, Write};
use std::path::Path;

use super::{RoundSnapshot, Telemetry};

/// Render one snapshot as a single-line JSON object (no trailing newline).
pub fn snapshot_json(s: &RoundSnapshot) -> String {
    format!(
        concat!(
            "{{\"round\":{},\"pe\":{},\"wall_us\":{},\"gvt\":{},\"lvt\":{},",
            "\"queue_depth\":{},\"uncommitted\":{},\"inbox_depth\":{},",
            "\"ring_full_stalls\":{},\"events_committed\":{},",
            "\"events_processed\":{},\"events_rolled_back\":{},\"rollbacks\":{},",
            "\"pool_hits\":{},\"pool_misses\":{},\"phase_ns\":{},",
            "\"checkpoints_written\":{},\"checkpoint_bytes\":{},",
            "\"cascades\":{},\"cascade_undone\":{},\"cascade_reexec\":{}}}"
        ),
        s.round,
        s.pe,
        s.wall_us,
        s.gvt,
        s.lvt,
        s.queue_depth,
        s.uncommitted,
        s.inbox_depth,
        s.ring_full_stalls,
        s.events_committed,
        s.events_processed,
        s.events_rolled_back,
        s.rollbacks,
        s.pool_hits,
        s.pool_misses,
        phase_ns_json(&s.phase_ns),
        s.checkpoints_written,
        s.checkpoint_bytes,
        s.cascades,
        s.cascade_undone,
        s.cascade_reexec,
    )
}

/// Render the cumulative per-phase nanosecond array as a JSON array in
/// [`Phase::ALL`](super::prof::Phase::ALL) order.
fn phase_ns_json(phase_ns: &[u64; super::prof::N_PHASES]) -> String {
    let mut out = String::with_capacity(2 + phase_ns.len() * 12);
    out.push('[');
    for (i, ns) in phase_ns.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&ns.to_string());
    }
    out.push(']');
    out
}

/// Write a telemetry's retained snapshot series to `path` as JSONL (one
/// object per line, `(round, pe)` order).
pub fn write_metrics_jsonl(telemetry: &Telemetry, path: impl AsRef<Path>) -> std::io::Result<()> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for snap in &telemetry.rounds {
        writeln!(out, "{}", snapshot_json(snap))?;
    }
    out.flush()
}

/// Validate that `text` is exactly one well-formed JSON value (RFC 8259
/// grammar; rejects trailing garbage). Returns the byte offset of the first
/// error.
pub fn validate(text: &str) -> Result<(), JsonError> {
    let mut v = Validator {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    v.skip_ws();
    v.value()?;
    v.skip_ws();
    if v.pos != v.bytes.len() {
        return Err(v.err("trailing characters after JSON value"));
    }
    Ok(())
}

/// Validate JSONL: every non-empty line must be a well-formed JSON value.
/// Returns the number of valid lines.
pub fn validate_jsonl(text: &str) -> Result<usize, JsonError> {
    let mut n = 0;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        validate(line).map_err(|e| JsonError {
            offset: e.offset,
            line: Some(i + 1),
            message: e.message,
        })?;
        n += 1;
    }
    Ok(n)
}

/// A validation failure: what went wrong and where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset within the value (or line, for JSONL).
    pub offset: usize,
    /// 1-based line number (JSONL validation only).
    pub line: Option<usize>,
    /// What the validator expected.
    pub message: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.line {
            Some(line) => write!(f, "line {}, byte {}: {}", line, self.offset, self.message),
            None => write!(f, "byte {}: {}", self.offset, self.message),
        }
    }
}

impl std::error::Error for JsonError {}

/// Nesting bound: deep enough for any real export, shallow enough that a
/// hostile input cannot overflow the validator's stack.
const MAX_DEPTH: usize = 128;

struct Validator<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Validator<'_> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            line: None,
            message,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn value(&mut self) -> Result<(), JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(b't') => self.literal(b"true"),
            Some(b'f') => self.literal(b"false"),
            Some(b'n') => self.literal(b"null"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &[u8]) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn object(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        self.eat(b'{', "expected '{'")?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        self.eat(b'[', "expected '['")?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<(), JsonError> {
        self.eat(b'"', "expected '\"'")?;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.pos += 1;
                        }
                        Some(b'u') => {
                            self.pos += 1;
                            for _ in 0..4 {
                                match self.peek() {
                                    Some(c) if c.is_ascii_hexdigit() => self.pos += 1,
                                    _ => return Err(self.err("invalid \\u escape")),
                                }
                            }
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => self.pos += 1,
            }
        }
    }

    fn number(&mut self) -> Result<(), JsonError> {
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("expected digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected digit after '.'"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected digit in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Value parser
// ---------------------------------------------------------------------------

/// A parsed JSON value.
///
/// Numbers that are written as integers and fit `i128` are kept exact in
/// [`Int`](JsonValue::Int) (covering the full `u64` range — snapshot fields
/// like an idle PE's `lvt = u64::MAX` survive the round trip); everything
/// else lands in [`Float`](JsonValue::Float). Object members preserve their
/// source order.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal (no fraction, no exponent) in `i128` range.
    Int(i128),
    /// Any other number.
    Float(f64),
    /// A string, with escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, members in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object member lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative in-range integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as an `f64` (integers convert; may round beyond 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(i) => Some(*i as f64),
            JsonValue::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Shorthand: `self.get(key).and_then(JsonValue::as_u64)`.
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        self.get(key).and_then(JsonValue::as_u64)
    }

    /// Shorthand: `self.get(key).and_then(JsonValue::as_str)`.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(JsonValue::as_str)
    }
}

/// Parse `text` as exactly one JSON value (same grammar and limits as
/// [`validate`], including the [`MAX_DEPTH`] recursion bound and the
/// trailing-garbage rejection).
pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        v: Validator {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        },
    };
    p.v.skip_ws();
    let value = p.value()?;
    p.v.skip_ws();
    if p.v.pos != p.v.bytes.len() {
        return Err(p.v.err("trailing characters after JSON value"));
    }
    Ok(value)
}

/// Recursive-descent value builder layered over the validator's cursor
/// (same error offsets/messages, one extra allocation per node).
struct Parser<'a> {
    v: Validator<'a>,
}

impl Parser<'_> {
    fn value(&mut self) -> Result<JsonValue, JsonError> {
        if self.v.depth >= MAX_DEPTH {
            return Err(self.v.err("nesting too deep"));
        }
        match self.v.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(b't') => self.v.literal(b"true").map(|()| JsonValue::Bool(true)),
            Some(b'f') => self.v.literal(b"false").map(|()| JsonValue::Bool(false)),
            Some(b'n') => self.v.literal(b"null").map(|()| JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.v.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.v.depth += 1;
        self.v.eat(b'{', "expected '{'")?;
        let mut members = Vec::new();
        self.v.skip_ws();
        if self.v.peek() == Some(b'}') {
            self.v.pos += 1;
            self.v.depth -= 1;
            return Ok(JsonValue::Obj(members));
        }
        loop {
            self.v.skip_ws();
            let key = match self.string()? {
                JsonValue::Str(s) => s,
                _ => unreachable!("string() returns Str"),
            };
            self.v.skip_ws();
            self.v.eat(b':', "expected ':' after object key")?;
            self.v.skip_ws();
            members.push((key, self.value()?));
            self.v.skip_ws();
            match self.v.peek() {
                Some(b',') => self.v.pos += 1,
                Some(b'}') => {
                    self.v.pos += 1;
                    self.v.depth -= 1;
                    return Ok(JsonValue::Obj(members));
                }
                _ => return Err(self.v.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.v.depth += 1;
        self.v.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.v.skip_ws();
        if self.v.peek() == Some(b']') {
            self.v.pos += 1;
            self.v.depth -= 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.v.skip_ws();
            items.push(self.value()?);
            self.v.skip_ws();
            match self.v.peek() {
                Some(b',') => self.v.pos += 1,
                Some(b']') => {
                    self.v.pos += 1;
                    self.v.depth -= 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.v.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.v.pos;
        self.v.string()?;
        // Validated span including quotes; decode the escapes.
        let raw = &self.v.bytes[start + 1..self.v.pos - 1];
        let mut out = String::with_capacity(raw.len());
        let mut i = 0;
        while i < raw.len() {
            if raw[i] != b'\\' {
                // Multi-byte UTF-8 passes through untouched; the input was a
                // &str so the bytes are valid UTF-8.
                let s = std::str::from_utf8(&raw[i..]).expect("validated UTF-8");
                let ch = s.chars().next().expect("non-empty");
                out.push(ch);
                i += ch.len_utf8();
                continue;
            }
            i += 1;
            match raw[i] {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let hex = |b: &[u8]| {
                        u32::from_str_radix(std::str::from_utf8(b).expect("hex digits"), 16)
                            .expect("validated hex")
                    };
                    let mut code = hex(&raw[i + 1..i + 5]);
                    i += 4;
                    // Surrogate pair: a high surrogate followed by an escaped
                    // low surrogate combines; anything unpaired degrades to
                    // U+FFFD rather than failing the whole document.
                    if (0xD800..0xDC00).contains(&code)
                        && raw.get(i + 1..i + 3) == Some(b"\\u")
                        && raw.len() >= i + 7
                    {
                        let low = hex(&raw[i + 3..i + 7]);
                        if (0xDC00..0xE000).contains(&low) {
                            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            i += 6;
                        }
                    }
                    out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                }
                _ => unreachable!("validator rejects unknown escapes"),
            }
            i += 1;
        }
        Ok(JsonValue::Str(out))
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.v.pos;
        self.v.number()?;
        let text = std::str::from_utf8(&self.v.bytes[start..self.v.pos]).expect("ASCII number");
        if !text.contains(['.', 'e', 'E']) {
            if let Ok(i) = text.parse::<i128>() {
                return Ok(JsonValue::Int(i));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| JsonError {
                offset: start,
                line: None,
                message: "number out of range",
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_json_is_valid_and_roundtrips_fields() {
        let snap = RoundSnapshot {
            round: 7,
            pe: 2,
            wall_us: 1234,
            gvt: 5_000_000,
            lvt: 6_000_000,
            queue_depth: 10,
            uncommitted: 3,
            inbox_depth: 1,
            ring_full_stalls: 0,
            events_committed: 400,
            events_processed: 450,
            events_rolled_back: 50,
            rollbacks: 5,
            pool_hits: 90,
            pool_misses: 10,
            phase_ns: [1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
            checkpoints_written: 2,
            checkpoint_bytes: 4096,
            cascades: 6,
            cascade_undone: 48,
            cascade_reexec: 33,
        };
        let line = snapshot_json(&snap);
        validate(&line).unwrap();
        assert!(line.contains("\"round\":7"));
        assert!(line.contains("\"lvt\":6000000"));
        assert!(line.contains("\"pool_misses\":10"));
        assert!(line.contains("\"phase_ns\":[1,2,3,4,5,6,7,8,9,10]"));
        assert!(line.contains("\"checkpoints_written\":2"));
        assert!(line.contains("\"checkpoint_bytes\":4096"));
        assert!(line.contains("\"cascades\":6"));
        assert!(line.contains("\"cascade_undone\":48"));
        assert!(line.contains("\"cascade_reexec\":33"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn validator_accepts_well_formed_json() {
        for ok in [
            "{}",
            "[]",
            "null",
            "true",
            "-12.5e+3",
            "\"a \\\"quoted\\\" \\u00e9 string\"",
            "{\"a\": [1, 2, {\"b\": null}], \"c\": false}",
            "  [1, 2, 3]  ",
            "0.5",
        ] {
            assert!(validate(ok).is_ok(), "rejected valid JSON: {ok}");
        }
    }

    #[test]
    fn validator_rejects_malformed_json() {
        for bad in [
            "",
            "{",
            "[1, 2,]",
            "{\"a\": 1,}",
            "{'a': 1}",
            "01",
            "1.",
            "1e",
            "nul",
            "\"unterminated",
            "\"bad \\x escape\"",
            "[1] trailing",
            "{\"a\" 1}",
            "+1",
        ] {
            assert!(validate(bad).is_err(), "accepted invalid JSON: {bad}");
        }
    }

    #[test]
    fn validator_bounds_recursion_depth() {
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        let err = validate(&deep).unwrap_err();
        assert_eq!(err.message, "nesting too deep");
    }

    #[test]
    fn jsonl_validation_counts_lines_and_locates_errors() {
        assert_eq!(validate_jsonl("{\"a\":1}\n\n{\"b\":2}\n").unwrap(), 2);
        let err = validate_jsonl("{\"a\":1}\nnot json\n").unwrap_err();
        assert_eq!(err.line, Some(2));
    }

    #[test]
    fn parser_builds_values_and_keeps_u64_exact() {
        let v = parse(&format!(
            "{{\"lvt\":{},\"neg\":-3,\"f\":1.5,\"s\":\"a\\nb\",\"arr\":[1,true,null]}}",
            u64::MAX
        ))
        .unwrap();
        assert_eq!(v.u64_field("lvt"), Some(u64::MAX));
        assert_eq!(v.get("neg"), Some(&JsonValue::Int(-3)));
        assert_eq!(v.get("f").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.str_field("s"), Some("a\nb"));
        let arr = v.get("arr").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[1].as_bool(), Some(true));
        assert_eq!(arr[2], JsonValue::Null);
        // Exponent / fraction forms land in Float even when integral.
        assert_eq!(parse("1e3").unwrap(), JsonValue::Float(1000.0));
        assert_eq!(parse("2.0").unwrap(), JsonValue::Float(2.0));
    }

    #[test]
    fn parser_decodes_escapes_and_surrogate_pairs() {
        assert_eq!(
            parse("\"\\u00e9 \\uD83D\\uDE00 \\\\ \\\" \\u0041\"").unwrap(),
            JsonValue::Str("é 😀 \\ \" A".to_string())
        );
        // Unpaired surrogate degrades to U+FFFD instead of erroring.
        assert_eq!(
            parse("\"\\uD800x\"").unwrap(),
            JsonValue::Str("\u{FFFD}x".to_string())
        );
    }

    #[test]
    fn parser_rejects_what_the_validator_rejects() {
        for bad in ["", "{", "[1, 2,]", "1.", "[1] trailing", "{\"a\" 1}"] {
            assert!(parse(bad).is_err(), "parsed invalid JSON: {bad}");
        }
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        assert_eq!(parse(&deep).unwrap_err().message, "nesting too deep");
        // Every snapshot line the emitter writes parses back.
        let snap = RoundSnapshot {
            round: 3,
            pe: 1,
            lvt: u64::MAX,
            ..Default::default()
        };
        let v = parse(&snapshot_json(&snap)).unwrap();
        assert_eq!(v.u64_field("round"), Some(3));
        assert_eq!(v.u64_field("lvt"), Some(u64::MAX));
    }

    #[test]
    fn write_metrics_jsonl_emits_one_valid_line_per_snapshot() {
        let mut t = Telemetry::default();
        t.rounds.push(RoundSnapshot {
            round: 1,
            pe: 0,
            ..Default::default()
        });
        t.rounds.push(RoundSnapshot {
            round: 1,
            pe: 1,
            lvt: u64::MAX,
            ..Default::default()
        });
        let path = std::env::temp_dir().join("pdes_obs_json_test.jsonl");
        write_metrics_jsonl(&t, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(validate_jsonl(&text).unwrap(), 2);
        assert!(text.contains(&format!("\"lvt\":{}", u64::MAX)));
    }
}

//! A minimal in-tree JSON reader/writer — the workspace's only one.
//!
//! The workspace builds with zero external dependencies, so everything that
//! speaks JSON goes through this module: the JSONL trace records this crate
//! emits and `apf-obs`'s `/snapshot` documents are built with [`write_str`]
//! and [`write_f64`], the experiment logs and the run ledger (`apf-fedsim`,
//! which re-exports the module as `apf_fedsim::json`) with [`Value`], and
//! every reader uses [`parse`]. It lives here because `apf-trace` is the
//! bottom of the dependency graph and already the JSONL emitter.
//! The writer emits standard, pretty-printed JSON; the parser is a small
//! recursive-descent reader that is tolerant of whitespace and key order and
//! covers the full JSON grammar (objects, arrays, strings with escapes,
//! numbers, booleans, null).
//!
//! Numbers keep their source text ([`Value::Num`] stores the raw token), so
//! `u64` counters round-trip exactly even beyond 2^53, and floats are parsed
//! on demand. Non-finite floats serialize as `null` — JSON has no NaN/inf
//! literals, and a log that produced one should still be readable.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token text.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Key order is not preserved (sorted map).
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Builds a number value from an `f64`; non-finite maps to `null`.
    pub fn from_f64(x: f64) -> Value {
        if x.is_finite() {
            Value::Num(format!("{x}"))
        } else {
            Value::Null
        }
    }

    /// Builds a number value from an `f32`; non-finite maps to `null`.
    pub fn from_f32(x: f32) -> Value {
        if x.is_finite() {
            Value::Num(format!("{x}"))
        } else {
            Value::Null
        }
    }

    /// Builds a number value from a `u64` (exact).
    pub fn from_u64(x: u64) -> Value {
        Value::Num(x.to_string())
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as `f32`, if it is a number.
    pub fn as_f32(&self) -> Option<f32> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer number (exact, no
    /// float detour).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as `bool`, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v.as_slice()),
            _ => None,
        }
    }

    /// Looks up a key, if the value is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Pretty-prints with 2-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    /// Serializes on a single line with no whitespace — the JSONL form the
    /// run ledger appends (one record per line).
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(raw) => out.push_str(raw),
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Value::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(raw) => out.push_str(raw),
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Value::Obj(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

/// Appends `x` as a JSON number that round-trips exactly through parsing
/// (Rust's shortest-representation `Display`); `null` when non-finite.
pub fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

/// Appends `s` as a JSON string — quoted, with `"`, `\\` and control
/// characters escaped — to `out`.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON document (trailing whitespace allowed).
///
/// # Errors
/// Returns a [`ParseError`] with the byte offset on malformed input.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_owned(),
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogates are replaced; the writer never emits
                            // them and the logs never contain them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through verbatim.
                    let start = self.pos;
                    let rest = std::str::from_utf8(&self.bytes[start..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if raw.parse::<f64>().is_err() {
            return Err(self.err("malformed number"));
        }
        Ok(Value::Num(raw.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        for src in [
            "null", "true", "false", "0", "-17", "3.25", "1e-3", "\"hi\"",
        ] {
            let v = parse(src).unwrap();
            assert_eq!(parse(&v.pretty()).unwrap(), v, "{src}");
        }
    }

    #[test]
    fn compact_is_single_line_and_roundtrips() {
        let v = parse("{\"a\": [1, 2.5, null], \"b\": {\"c\": \"x y\"}}").unwrap();
        let line = v.compact();
        assert_eq!(line, "{\"a\":[1,2.5,null],\"b\":{\"c\":\"x y\"}}");
        assert!(!line.contains('\n'));
        assert_eq!(parse(&line).unwrap(), v);
    }

    #[test]
    fn nested_roundtrip() {
        let src = r#"{"name": "a/b", "records": [{"x": 1, "y": [1, 2.5, null]}, {}], "ok": true}"#;
        let v = parse(src).unwrap();
        let back = parse(&v.pretty()).unwrap();
        assert_eq!(back, v);
        assert_eq!(v.get("name").unwrap().as_str(), Some("a/b"));
        assert_eq!(v.get("records").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn u64_counters_are_exact() {
        let big = u64::MAX - 3;
        let v = Value::from_u64(big);
        assert_eq!(parse(&v.pretty()).unwrap().as_u64(), Some(big));
    }

    #[test]
    fn float_shortest_repr_roundtrips() {
        for x in [0.1f32, 1.0 / 3.0, f32::MIN_POSITIVE, -1234.5678] {
            let v = Value::from_f32(x);
            let back = parse(&v.pretty()).unwrap().as_f32().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x}");
        }
        for x in [0.1f64, std::f64::consts::PI, 1e-300] {
            let v = Value::from_f64(x);
            let back = parse(&v.pretty()).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x}");
        }
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Value::from_f32(f32::NAN), Value::Null);
        assert_eq!(Value::from_f64(f64::INFINITY), Value::Null);
        assert_eq!(Value::from_f64(f64::NEG_INFINITY), Value::Null);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "line\nquote\"back\\slash\ttab\u{1}end é";
        let v = Value::Str(s.to_owned());
        assert_eq!(parse(&v.pretty()).unwrap().as_str(), Some(s));
    }

    #[test]
    fn write_str_escapes_exact_bytes() {
        let mut out = String::new();
        write_str(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn tolerant_of_whitespace() {
        let v = parse("  { \"a\" :\n[ 1 ,\t2 ] }  ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn malformed_inputs_error() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"oops",
            "{\"a\" 1}",
            "nul",
            "1.2.3",
            "[1] x",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }
}

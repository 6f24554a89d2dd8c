//! A minimal hand-rolled JSON value and writer.
//!
//! The harness emits machine-readable sweep reports (the PCS follow-up
//! work on job prediction consumes exactly this kind of structured
//! output). The build environment has no registry access, so rather than
//! vendoring serde the harness writes JSON by hand — the surface needed
//! is tiny, and hand-rolling keeps rendering fully deterministic:
//!
//! * objects preserve insertion order (no hash-map iteration order),
//! * floats use Rust's shortest round-trip `Display` (stable across
//!   platforms and runs),
//! * non-finite floats render as `null` (JSON has no NaN/∞).
//!
//! Byte-identical reports for identical results are a load-bearing
//! property: the determinism suite compares rendered sweeps across runs
//! and thread counts.

use std::fmt;

/// A JSON value with insertion-ordered objects.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (kept exact; JSON numbers are not split by sign here).
    Int(i64),
    /// A floating-point number; non-finite values render as `null`.
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, rendered in insertion order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from ordered key/value pairs.
    pub fn object(pairs: Vec<(String, Json)>) -> Json {
        Json::Object(pairs)
    }

    /// Renders the value as a compact JSON document.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Appends the compact rendering to `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{i}"));
            }
            Json::Num(v) => write_f64(*v, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// The value as `f64` if it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `&str` if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// A plain-text rendering for table cells: strings unquoted, the rest
    /// as their JSON form.
    pub fn to_cell_string(&self) -> String {
        match self {
            Json::Str(s) => s.clone(),
            other => other.render(),
        }
    }

    /// Looks up a key in an object (insertion order, first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document (strict grammar, one top-level value).
    ///
    /// The inverse of [`Json::render`]: everything the writer emits parses
    /// back to an equal value (objects keep their key order; numbers
    /// written with a `.`/exponent come back as [`Json::Num`], bare
    /// integers as [`Json::Int`]). Its callers read back the repo's own
    /// output — the CLI's Chrome-trace round-trip check, the trace tests and
    /// perfbench's `BENCHMARK.json` — so a full serde stack stays
    /// unnecessary.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }
}

/// A minimal recursive-descent JSON parser over raw bytes.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // The scanned run is valid UTF-8 because the input is a &str
            // and the run stops before any ASCII control/quote byte.
            out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                _ => return Err(format!("unterminated string at byte {}", self.pos)),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), String> {
        let c = self
            .peek()
            .ok_or_else(|| format!("dangling escape at byte {}", self.pos))?;
        self.pos += 1;
        match c {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xd800..0xdc00).contains(&hi) {
                    // Surrogate pair: the low half must follow.
                    if self.peek() != Some(b'\\') {
                        return Err(format!("lone surrogate at byte {}", self.pos));
                    }
                    self.pos += 1;
                    self.expect(b'u')?;
                    let lo = self.hex4()?;
                    if !(0xdc00..0xe000).contains(&lo) {
                        return Err(format!("invalid low surrogate at byte {}", self.pos));
                    }
                    0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                } else {
                    hi
                };
                out.push(
                    char::from_u32(code)
                        .ok_or_else(|| format!("invalid code point at byte {}", self.pos))?,
                );
            }
            other => return Err(format!("bad escape `\\{}`", other as char)),
        }
        Ok(())
    }

    /// Exactly four ASCII hex digits (`u32::from_str_radix` would also
    /// take a leading `+`).
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| format!("truncated \\u escape at byte {}", self.pos))?;
        let mut v = 0;
        for &b in hex {
            let digit = char::from(b)
                .to_digit(16)
                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
            v = v * 16 + digit;
        }
        self.pos += 4;
        Ok(v)
    }

    /// Advances over a run of ASCII digits and returns its length.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// JSON's number grammar, `-?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?`,
    /// checked here so leading zeros and empty fractions or exponents never
    /// reach Rust's more lenient numeric parsers.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        let int_digits = self.digits();
        let mut ok = int_digits == 1 || (int_digits > 1 && self.bytes[int_start] != b'0');
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            is_float = true;
            ok &= self.digits() > 0;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            is_float = true;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            ok &= self.digits() > 0;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !ok {
            return Err(format!("bad number `{text}` at byte {start}"));
        }
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        let v: f64 = text
            .parse()
            .map_err(|e| format!("bad number `{text}`: {e}"))?;
        Ok(Json::Num(v))
    }
}

/// Writes a float in JSON-safe, deterministic form.
///
/// Rust's `Display` for `f64` emits the shortest decimal string that
/// round-trips, which is a pure function of the bit pattern — exactly the
/// determinism the reports need. Exponent forms are expanded by `Display`
/// for the magnitudes experiments produce; non-finite values become
/// `null`; an integral float gets an explicit `.0` so the value reads
/// back as a float.
fn write_f64(v: f64, out: &mut String) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let s = format!("{v}");
    out.push_str(&s);
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        // Sweep counters stay far below 2^63; saturate rather than wrap if
        // one ever does not.
        Json::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::from(v as u64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::Int(-7).render(), "-7");
        assert_eq!(Json::Num(1.5).render(), "1.5");
        assert_eq!(Json::Num(2.0).render(), "2.0");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
        assert_eq!(
            Json::Str("a\"b\\c\nd".into()).render(),
            "\"a\\\"b\\\\c\\nd\""
        );
    }

    #[test]
    fn containers_preserve_order() {
        let v = Json::object(vec![
            ("b".into(), Json::Int(1)),
            ("a".into(), Json::Array(vec![Json::Null, Json::Bool(false)])),
        ]);
        assert_eq!(v.render(), r#"{"b":1,"a":[null,false]}"#);
    }

    #[test]
    fn float_rendering_is_shortest_round_trip() {
        assert_eq!(Json::Num(0.1).render(), "0.1");
        assert_eq!(Json::Num(1.0 / 3.0).render(), "0.3333333333333333");
        let parsed: f64 = "0.3333333333333333".parse().unwrap();
        assert_eq!(parsed, 1.0 / 3.0);
    }

    #[test]
    fn control_chars_escape() {
        assert_eq!(Json::Str("\u{1}".into()).render(), "\"\\u0001\"");
    }

    #[test]
    fn accessors() {
        assert_eq!(Json::Int(3).as_f64(), Some(3.0));
        assert_eq!(Json::Num(2.5).as_f64(), Some(2.5));
        assert_eq!(Json::Str("x".into()).as_str(), Some("x"));
        assert_eq!(Json::Null.as_f64(), None);
        assert_eq!(Json::Str("x".into()).to_cell_string(), "x");
        assert_eq!(Json::Num(2.5).to_cell_string(), "2.5");
        let obj = Json::object(vec![("k".into(), Json::Int(1))]);
        assert_eq!(obj.get("k"), Some(&Json::Int(1)));
        assert_eq!(obj.get("missing"), None);
        assert_eq!(
            Json::Array(vec![Json::Null]).as_array(),
            Some(&[Json::Null][..])
        );
    }

    #[test]
    fn parse_round_trips_rendered_reports() {
        let doc = Json::object(vec![
            ("scenario".into(), Json::from("fig6")),
            ("seed".into(), Json::from(62015u64)),
            ("smoke".into(), Json::Bool(true)),
            ("rates".into(), Json::Null),
            (
                "cells".into(),
                Json::Array(vec![Json::object(vec![
                    ("label".into(), Json::from("Basic @ 80 req/s")),
                    ("p99_ms".into(), Json::Num(1.25)),
                    ("neg".into(), Json::Num(-0.5)),
                    ("int".into(), Json::Int(-3)),
                    ("weird\"key\n".into(), Json::Num(1e-9)),
                ])]),
            ),
        ]);
        let parsed = Json::parse(&doc.render()).expect("own output parses");
        assert_eq!(parsed, doc);
        // And the round trip is byte-stable.
        assert_eq!(parsed.render(), doc.render());
    }

    #[test]
    fn parse_accepts_whitespace_and_escapes() {
        let parsed =
            Json::parse(" { \"a\" : [ 1 , 2.5e1 , \"\\u0041\\ud83d\\ude00\" ] } ").expect("parses");
        assert_eq!(
            parsed,
            Json::object(vec![(
                "a".into(),
                Json::Array(vec![
                    Json::Int(1),
                    Json::Num(25.0),
                    Json::Str("A\u{1f600}".into())
                ])
            )])
        );
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "nul",
            "\"unterminated",
            "1 2",
            "{\"a\":1,}",
            "[1e]",
            "\"\\q\"",
            "\"\\ud800x\"",
            "\"\\u+041\"",
            "01",
            "-01",
            "1.",
        ] {
            assert!(Json::parse(bad).is_err(), "`{bad}` must be rejected");
        }
    }
}

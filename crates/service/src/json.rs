//! A minimal in-tree JSON value type with **both** a parser and an emitter
//! (the bench crate's `json` module only emits). No serde in this build
//! environment — and none needed: the wire protocol is a handful of flat
//! shapes.
//!
//! The parser is written for untrusted input: it never panics, it bounds
//! recursion depth ([`MAX_DEPTH`]) so a deeply-nested body cannot overflow
//! a worker's stack, and every failure is a typed [`JsonError`] carrying
//! the byte offset. Integers without a fractional part parse as exact
//! [`Json::Int`] (`i64`), everything else as [`Json::Num`] (`f64`) —
//! relation impacts survive the wire bit-exactly for the magnitudes this
//! system uses, and the authoritative byte-identity check rides on the
//! server-computed fingerprint anyway.

use std::fmt;

/// Maximum nesting depth the parser accepts. The wire protocol needs 5;
/// 64 leaves headroom without letting adversarial nesting near the stack
/// limit.
pub const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written without fraction or exponent, in `i64` range.
    Int(i64),
    /// Any other number (non-finite values emit as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: what went wrong and the byte offset it was noticed at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Adds (or replaces) a key in an object, builder-style. A no-op with a
    /// debug assertion on non-objects (the emitter never constructs those).
    pub fn set(mut self, key: &str, value: impl Into<Json>) -> Json {
        if let Json::Obj(entries) = &mut self {
            let value = value.into();
            if let Some(slot) = entries.iter_mut().find(|(k, _)| k == key) {
                slot.1 = value;
            } else {
                entries.push((key.to_string(), value));
            }
        } else {
            debug_assert!(false, "Json::set on a non-object");
        }
        self
    }

    /// Looks up a key of an object (`None` for absent keys or non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64` (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an exact `i64` (floats only when integral and in range).
    pub fn as_i64(&self) -> Option<i64> {
        // The exact representable window is `-(2^63) <= n < 2^63`: both
        // bounds are exact `f64` values, `i64::MIN` itself is representable
        // (and convertible), while `2^63` is the first integer that is not.
        // An approximate guard like `n.abs() < 9.22e18` wrongly rejects the
        // whole `[9.22e18, 2^63)` band — and `i64::MIN` with it.
        const I64_LO: f64 = -9_223_372_036_854_775_808.0; // -(2^63), exact
        const I64_HI: f64 = 9_223_372_036_854_775_808.0; // 2^63, exact
        match self {
            Json::Int(i) => Some(*i),
            Json::Num(n) if n.fract() == 0.0 && *n >= I64_LO && *n < I64_HI => Some(*n as i64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialises with two-space indentation (for human-readable output
    /// that should diff cleanly across runs).
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        let indent = |out: &mut String, depth: usize| {
            for _ in 0..depth {
                out.push_str("  ");
            }
        };
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(entries) if !entries.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write(out),
        }
    }

    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(value)
    }
}

/// Compact serialisation (`{"k":1}`).
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

impl Json {
    fn write(&self, out: &mut String) {
        use fmt::Write as _;
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(n) => {
                if n.is_finite() {
                    // Rust's shortest round-trip f64 formatting. An
                    // integral float emits as `2` and re-parses as Int —
                    // acceptable: the server-side fingerprint, not the
                    // wire text, is the authority for bit-exactness.
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    use fmt::Write as _;
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

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<i64> for Json {
    fn from(i: i64) -> Json {
        Json::Int(i)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        i64::try_from(n).map(Json::Int).unwrap_or(Json::Num(n as f64))
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError { message: message.to_string(), offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes.get(self.pos..).is_some_and(|rest| rest.starts_with(lit.as_bytes())) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {lit:?}")))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect_byte(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"')?;
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let unit = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&unit) {
                                let next_is_escape = self
                                    .bytes
                                    .get(self.pos..)
                                    .is_some_and(|rest| rest.starts_with(b"\\u"));
                                if next_is_escape {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let combined = 0x10000
                                        + ((u32::from(unit) - 0xD800) << 10)
                                        + (u32::from(low) - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&unit) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(u32::from(unit))
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid unicode escape")),
                            }
                            // hex4 advanced pos past the digits already.
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(b) => {
                    // Consume one UTF-8 scalar (input is &str, so slicing
                    // on a char boundary is guaranteed to exist).
                    let len = utf8_len(b);
                    let chunk = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .and_then(|c| std::str::from_utf8(c).ok())
                        .ok_or_else(|| self.err("invalid utf-8"))?;
                    out.push_str(chunk);
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|d| std::str::from_utf8(d).ok())
            .ok_or_else(|| self.err("truncated unicode escape"))?;
        let unit =
            u16::from_str_radix(digits, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.pos += 4;
        Ok(unit)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = self
            .bytes
            .get(start..self.pos)
            .and_then(|t| std::str::from_utf8(t).ok())
            .ok_or_else(|| self.err("invalid number"))?;
        if integral {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => Err(self.err("invalid number")),
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_wire_shapes() {
        let doc = r#"{"name":"Q1","rows":[{"values":["CS \u00e9",1999],"impact":2.5}],"ok":true,"none":null,"neg":-3}"#;
        let parsed = Json::parse(doc).unwrap();
        assert_eq!(parsed.get("name").and_then(Json::as_str), Some("Q1"));
        assert_eq!(parsed.get("neg").and_then(Json::as_i64), Some(-3));
        let rows = parsed.get("rows").and_then(Json::as_arr).unwrap();
        let values = rows[0].get("values").and_then(Json::as_arr).unwrap();
        assert_eq!(values[0].as_str(), Some("CS é"));
        assert_eq!(values[1].as_i64(), Some(1999));
        assert_eq!(rows[0].get("impact").and_then(Json::as_f64), Some(2.5));
        // Emit → parse is stable.
        let reparsed = Json::parse(&parsed.to_string()).unwrap();
        assert_eq!(parsed, reparsed);
    }

    #[test]
    fn integers_parse_exactly() {
        assert_eq!(Json::parse("9007199254740993").unwrap(), Json::Int(9007199254740993));
        assert_eq!(Json::parse("1.5").unwrap(), Json::Num(1.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
    }

    #[test]
    fn as_i64_accepts_the_exact_i64_window() {
        // Floats in [9.22e18, 2^63): representable, integral, in range —
        // these were wrongly rejected by the old approximate guard.
        assert_eq!(Json::Num(9.22e18).as_i64(), Some(9_220_000_000_000_000_000));
        let near_max = 9_223_372_036_854_774_784.0_f64; // largest f64 < 2^63
        assert_eq!(Json::Num(near_max).as_i64(), Some(9_223_372_036_854_774_784));
        // i64::MIN is exactly representable and must round-trip.
        assert_eq!(Json::Num(-9_223_372_036_854_775_808.0).as_i64(), Some(i64::MIN));
        // 2^63 itself (and anything beyond either bound) is out of range.
        assert_eq!(Json::Num(9_223_372_036_854_775_808.0).as_i64(), None);
        assert_eq!(Json::Num(-9.3e18).as_i64(), None);
        assert_eq!(Json::Num(f64::NAN).as_i64(), None);
        assert_eq!(Json::Num(f64::INFINITY).as_i64(), None);
        assert_eq!(Json::Num(1.5).as_i64(), None);
        // Wire round-trip: scientific notation lands as Num and converts.
        assert_eq!(Json::parse("9.22e18").unwrap().as_i64(), Some(9_220_000_000_000_000_000));
        assert_eq!(
            Json::parse("-9223372036854775808").unwrap().as_i64(),
            Some(i64::MIN),
            "i64::MIN round-trips through the parser"
        );
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "nul",
            "\"unterminated",
            "01a",
            "--1",
            "1 2",
            "{\"a\":1,}",
            "\"\\q\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\u{1}",
            "1e999",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_depth_is_bounded() {
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.message.contains("deep"));
        // A reasonable depth still parses.
        let ok = "[".repeat(32) + &"]".repeat(32);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(Json::parse(r#""\ud83d\ude00""#).unwrap(), Json::Str("😀".to_string()));
    }

    #[test]
    fn set_and_get_build_objects() {
        let j = Json::obj().set("a", 1i64).set("b", "x").set("a", 2i64);
        assert_eq!(j.get("a").and_then(Json::as_i64), Some(2));
        assert_eq!(j.to_string(), r#"{"a":2,"b":"x"}"#);
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn pretty_output_is_indented_and_reparses_identically() {
        let j = Json::obj()
            .set("a", 1usize)
            .set("b", vec![Json::Bool(false)])
            .set("nested", Json::obj().set("pi", 0.25));
        let pretty = j.to_pretty_string();
        assert!(pretty.contains("\n  \"a\": 1"));
        assert!(pretty.ends_with("}\n"));
        assert_eq!(Json::parse(&pretty).unwrap(), j);
    }
}

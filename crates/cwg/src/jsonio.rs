//! Minimal JSON reading and writing for incident artifacts.
//!
//! Hand-rolled on purpose (the build environment has no serializer
//! dependency): a small value tree, a recursive-descent parser, a
//! writer, and the typed field accessors every decoder above this crate
//! shares (`flexsim::jsonio` re-exports them). Integers are kept as `u64` so message ids, cycles, seeds, and
//! fingerprints survive a round trip bit-exactly; floats are printed with
//! Rust's shortest-round-trip formatting, so they round-trip too.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Non-negative integer token (the common case for ids and counters).
    U64(u64),
    /// Any other numeric token (negative, fractional, exponent).
    F64(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key order is preserved, which keeps serialization deterministic.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            Json::F64(v) if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 => Some(v as u64),
            _ => None,
        }
    }

    /// The value as a float (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
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
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
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

/// Compact serialization (`value.to_string()` via [`std::fmt::Display`]).
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

/// A parse failure with a byte offset into the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    pub offset: usize,
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

/// Deepest nesting of arrays and objects [`parse`] accepts. The parser
/// recurses once per level, and every reader shares it — grids and lease
/// bodies off the network, checkpoint lines, cache entries and incidents
/// off disk — so an unbounded depth would let one crafted document
/// overflow the stack and abort the process. The deepest document any
/// writer here emits (a forensic run's checkpoint line) is 9 levels.
pub const MAX_DEPTH: usize = 64;

/// Parses one JSON document (trailing whitespace allowed, nothing else).
/// A document nested deeper than [`MAX_DEPTH`] is an error.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
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
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: msg.to_string(),
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

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nested deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy the run of plain bytes in one go.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| ParseError {
                    offset: start,
                    message: "invalid UTF-8".into(),
                })?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates are not produced by our writer;
                            // map them to the replacement character.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if integral && !text.starts_with('-') {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| self.err("bad number"))
    }
}

/// Convenience constructor for an object.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Convenience constructor for an array of `u64`s.
pub fn u64_arr(values: impl IntoIterator<Item = u64>) -> Json {
    Json::Arr(values.into_iter().map(Json::U64).collect())
}

/// A parse error with no meaningful offset (field-level validation).
pub fn bad(message: &str) -> ParseError {
    ParseError {
        offset: 0,
        message: message.to_string(),
    }
}

/// Required object field.
pub fn get<'a>(v: &'a Json, key: &str) -> Result<&'a Json, ParseError> {
    v.get(key).ok_or_else(|| bad(&format!("missing `{key}`")))
}

/// Required `u64` field.
pub fn get_u64(v: &Json, key: &str) -> Result<u64, ParseError> {
    get(v, key)?
        .as_u64()
        .ok_or_else(|| bad(&format!("`{key}` must be an unsigned integer")))
}

/// Required boolean field.
pub fn get_bool(v: &Json, key: &str) -> Result<bool, ParseError> {
    get(v, key)?
        .as_bool()
        .ok_or_else(|| bad(&format!("`{key}` must be a bool")))
}

/// Required array-of-`u64` field.
pub fn get_u64_vec(v: &Json, key: &str) -> Result<Vec<u64>, ParseError> {
    get(v, key)?
        .as_arr()
        .ok_or_else(|| bad(&format!("`{key}` must be an array")))?
        .iter()
        .map(|x| {
            x.as_u64()
                .ok_or_else(|| bad(&format!("`{key}` holds a non-u64 element")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for text in ["null", "true", "false", "0", "42", "18446744073709551615"] {
            let v = parse(text).unwrap();
            assert_eq!(v.to_string(), text);
        }
        assert_eq!(parse("-1.5").unwrap(), Json::F64(-1.5));
        assert_eq!(parse("1e3").unwrap(), Json::F64(1000.0));
    }

    #[test]
    fn u64_is_exact() {
        let big = u64::MAX - 1;
        let v = parse(&format!("{big}")).unwrap();
        assert_eq!(v.as_u64(), Some(big));
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "a\"b\\c\nd\te\u{1}f";
        let v = Json::Str(s.to_string());
        let text = v.to_string();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn nested_structure_round_trips() {
        let v = obj(vec![
            ("id", Json::U64(7)),
            ("label", Json::Str("uni-8ary2 \"DOR\"".into())),
            ("chain", u64_arr([1, 2, 3])),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            (
                "nested",
                Json::Arr(vec![obj(vec![("x", Json::F64(0.5))]), Json::U64(9)]),
            ),
        ]);
        let text = v.to_string();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn whitespace_tolerated() {
        let v = parse(" { \"a\" : [ 1 , 2 ] , \"b\" : { } } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("b"), Some(&Json::Obj(vec![])));
    }

    #[test]
    fn errors_carry_position() {
        let e = parse("{\"a\": }").unwrap_err();
        assert_eq!(e.offset, 6);
        assert!(parse("[1, 2").is_err());
        assert!(parse("12 34").is_err());
    }

    /// Nesting is bounded, so a hostile document is an error with its
    /// offset instead of a stack overflow that aborts the process.
    #[test]
    fn nesting_past_the_bound_is_an_error_not_a_crash() {
        for deep in ["[".repeat(100_000), "{\"a\":".repeat(100_000)] {
            let e = parse(&deep).unwrap_err();
            assert!(e.message.contains("nested deeper than 64"), "{e}");
            assert!(e.offset <= 5 * MAX_DEPTH, "{e}");
        }
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert_eq!(parse(&deepest).unwrap().to_string(), deepest);
        let over = format!("[{deepest}]");
        assert!(parse(&over).is_err());
    }

    #[test]
    fn accessors() {
        let v = parse("{\"n\": 3, \"f\": 2.5, \"s\": \"x\"}").unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(3.0));
        assert_eq!(v.get("f").unwrap().as_u64(), None);
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("missing"), None);
    }
}

//! A minimal hand-rolled JSON value type with writer and parser.
//!
//! The run-report serializer needs exactly this much JSON and nothing
//! more: objects with string keys, arrays, strings (fully escaped),
//! finite numbers, booleans, and null. The parser exists so tests can
//! round-trip reports (`--report` file → [`Json`] → field checks)
//! without an external crate.

use std::fmt;

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so without a cap a request body of a few
/// kilobytes of `[` could overflow a thread's stack; every document
/// this project writes nests a handful of levels.
pub const MAX_DEPTH: usize = 128;

/// A JSON document fragment.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number. Integral values print without a fraction so
    /// counters round-trip exactly (up to 2^53).
    Num(f64),
    /// A string (escaped on output).
    Str(String),
    /// An ordered array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on output.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for string values.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience constructor for `u64` counters. Values above 2^53
    /// would lose precision in an `f64`; panic loudly instead of
    /// corrupting a report (unreachable for realistic run lengths).
    pub fn uint(v: u64) -> Json {
        assert!(v <= (1 << 53), "counter too large for JSON number: {v}");
        Json::Num(v as f64)
    }

    /// Looks up a key in an object; `None` for missing keys or
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
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

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes into `out` as compact single-line JSON.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_number(*n, out),
            Json::Str(s) => write_escaped(s, out),
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
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document (rejects trailing garbage and
    /// nesting deeper than [`MAX_DEPTH`]).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

fn write_number(n: f64, out: &mut String) {
    use fmt::Write;
    if !n.is_finite() {
        // JSON has no NaN/Inf; null is the conventional stand-in.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_escaped(s: &str, out: &mut String) {
    use fmt::Write;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure with byte offset context.
#[derive(Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected character '{}'", other as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses an array or object one level deeper than the caller.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, JsonError> {
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
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
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
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast-path a run of plain UTF-8 up to the next quote/escape.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{08}'),
                        b'f' => s.push('\u{0c}'),
                        b'u' => {
                            let cp = self.hex4()?;
                            if (0xd800..0xdc00).contains(&cp) {
                                // High surrogate: must be followed by \uXXXX low half.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                                s.push(
                                    char::from_u32(combined)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?,
                                );
                            } else {
                                s.push(
                                    char::from_u32(cp)
                                        .ok_or_else(|| self.err("invalid code point"))?,
                                );
                            }
                        }
                        other => {
                            return Err(self.err(format!("invalid escape '\\{}'", other as char)))
                        }
                    }
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut cp = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit in \\u escape"))?;
            cp = cp * 16 + digit;
            self.pos += 1;
        }
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9') | Some(b'.') | Some(b'e') | Some(b'E') | Some(b'+') | Some(b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("invalid number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_compact_documents() {
        let doc = Json::Obj(vec![
            ("name".into(), Json::str("rmrls")),
            ("count".into(), Json::uint(42)),
            ("ok".into(), Json::Bool(true)),
            ("items".into(), Json::Arr(vec![Json::Null, Json::Num(1.5)])),
        ]);
        assert_eq!(
            doc.to_string(),
            r#"{"name":"rmrls","count":42,"ok":true,"items":[null,1.5]}"#
        );
    }

    #[test]
    fn escapes_strings_correctly() {
        let mut out = String::new();
        Json::str("a\"b\\c\nd\te\r\u{08}\u{0c}\u{01}z").write(&mut out);
        assert_eq!(out, r#""a\"b\\c\nd\te\r\b\f\u0001z""#);
    }

    #[test]
    fn escape_round_trips_through_parser() {
        let original = "quote\" backslash\\ newline\n tab\t ctrl\u{01} unicode λ→∮";
        let serialized = Json::str(original).to_string();
        let parsed = Json::parse(&serialized).unwrap();
        assert_eq!(parsed.as_str(), Some(original));
    }

    #[test]
    fn parses_nested_documents() {
        let doc =
            Json::parse(r#" { "a" : [ 1 , -2.5 , true , null ] , "b" : { "c" : "x" } } "#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap().len(), 4);
        assert_eq!(
            doc.get("a").unwrap().as_arr().unwrap()[1].as_f64(),
            Some(-2.5)
        );
        assert_eq!(doc.get("b").unwrap().get("c").unwrap().as_str(), Some("x"));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn parses_surrogate_pairs() {
        let doc = Json::parse(r#""\ud83d\ude00 \u00e9""#).unwrap();
        assert_eq!(doc.as_str(), Some("😀 é"));
    }

    #[test]
    fn integral_numbers_round_trip_exactly() {
        let doc = Json::uint(9_007_199_254_740_992); // 2^53
        let parsed = Json::parse(&doc.to_string()).unwrap();
        assert_eq!(parsed.as_u64(), Some(9_007_199_254_740_992));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"abc",
            "{\"a\" 1}",
            "12 34",
            "nul",
            "\"\\q\"",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(
            Json::parse(&nested(MAX_DEPTH)).is_ok(),
            "the cap itself parses"
        );

        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH, "{err}");
        assert!(err.message.contains("nesting"), "{err}");
        let err = Json::parse(&"{\"a\":".repeat(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // About one serve body's worth of `[`: a parser without the cap
        // overflows the stack of an ordinary spawned thread long
        // before reaching the end.
        let body = "[".repeat(262_000);
        let result = std::thread::spawn(move || Json::parse(&body))
            .join()
            .expect("parser thread survives");
        assert!(result.unwrap_err().message.contains("nesting"));
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-3.0).as_u64(), None);
        assert_eq!(Json::Num(7.0).as_u64(), Some(7));
    }
}

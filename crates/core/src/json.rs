//! The workspace's one JSON codec: the [`Json`] value, the tolerant reader
//! [`parse`], and the string [`escape`] every renderer uses.
//!
//! Hand-rolled because the workspace deliberately has no serde dependency. Every
//! reader of JSON bytes — wire requests and responses ([`crate::server::wire`]),
//! durable batch records ([`crate::durable`]) and the bench harness's baseline
//! reports — goes through [`parse`]; renderers stay `format!`-based and call
//! [`escape`] for every string they embed. [`parse`] accepts RFC 8259 input,
//! including every string escape and surrogate pairs. It is lenient in two
//! places: raw control characters inside strings are accepted, and number
//! syntax is left to Rust's own integer and float parsers (so `01` and `1.`
//! are read as numbers).

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any integer (i128 covers the full u64 and i64 ranges).
    Int(i128),
    /// A number with a fraction or an exponent.
    Float(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The value of the first field named `key`, when this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The string, when this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer, when this is one that fits a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The integer, when this is one that fits an `i64`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => i64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The number, integer or not, as an `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The boolean, when this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, when this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields in source order, when this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. Real messages nest a few
/// levels; the cap keeps the recursive-descent parser from overflowing its stack on
/// hostile input such as a line of a million `[`.
pub const MAX_NESTING: usize = 128;

/// Parse one JSON document (and nothing else) from `text`.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at offset {}", p.pos));
    }
    Ok(value)
}

/// Escape a string for embedding in a JSON string literal: `"` and `\`, the
/// control characters (`\n`, `\r`, `\t` by name, the rest as `\u00XX`); every
/// other character is written as is.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Decode the body of a JSON string literal: every RFC 8259 escape, with a
/// `\uD8xx\uDCxx` surrogate pair combined into one character. `None` on a
/// malformed escape, including a lone surrogate.
fn unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        out.push(match chars.next()? {
            '"' => '"',
            '\\' => '\\',
            '/' => '/',
            'b' => '\u{8}',
            'f' => '\u{c}',
            'n' => '\n',
            'r' => '\r',
            't' => '\t',
            'u' => match hex4(&mut chars)? {
                high @ 0xd800..=0xdbff => {
                    if chars.next()? != '\\' || chars.next()? != 'u' {
                        return None;
                    }
                    let low = hex4(&mut chars)?;
                    if !(0xdc00..=0xdfff).contains(&low) {
                        return None;
                    }
                    char::from_u32(0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00))?
                }
                code => char::from_u32(code)?,
            },
            _ => return None,
        });
    }
    Some(out)
}

/// The four hex digits of a `\u` escape.
fn hex4(chars: &mut std::str::Chars<'_>) -> Option<u32> {
    let mut code = 0;
    for _ in 0..4 {
        code = code * 16 + chars.next()?.to_digit(16)?;
    }
    Some(code)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open (bounded by [`MAX_NESTING`]).
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
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
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_NESTING {
                    return Err(format!(
                        "nesting deeper than {MAX_NESTING} levels at offset {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let value = if open == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(b) => Err(format!("unexpected character '{}' at offset {}", b as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid number".to_string())?;
        if float {
            text.parse().map(Json::Float).map_err(|_| format!("invalid number '{text}'"))
        } else {
            text.parse().map(Json::Int).map_err(|_| format!("invalid number '{text}'"))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.pos;
        let mut escaped = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                let raw = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid utf-8 in string".to_string())?;
                self.pos += 1;
                return unescape(raw)
                    .ok_or_else(|| format!("malformed escape in string at offset {start}"));
            }
            self.pos += 1;
        }
        Err("unterminated string".to_string())
    }

    fn object(&mut self) -> Result<Json, String> {
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
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
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
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_parser_handles_the_basics() {
        let json =
            parse(r#"{"a": 1, "b": [true, null, "x\n"], "c": {"d": -7}, "e": 1.5}"#).unwrap();
        assert_eq!(json.get("a").and_then(Json::as_u64), Some(1));
        let arr = json.get("b").and_then(Json::as_array).unwrap();
        assert_eq!(arr[0].as_bool(), Some(true));
        assert_eq!(arr[1], Json::Null);
        assert_eq!(arr[2].as_str(), Some("x\n"));
        assert_eq!(json.get("c").unwrap().get("d").and_then(Json::as_i64), Some(-7));
        assert_eq!(json.get("e"), Some(&Json::Float(1.5)));
        assert_eq!(json.get("e").and_then(Json::as_f64), Some(1.5));
        assert_eq!(json.get("a").and_then(Json::as_f64), Some(1.0));
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a": 1} trailing"#).is_err());
        assert!(parse("not json").is_err());
    }

    #[test]
    fn json_nesting_is_capped() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_NESTING)).is_ok());
        let err = parse(&nested(MAX_NESTING + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        assert!(parse(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn every_rfc8259_escape_is_accepted() {
        let u = |hex: &str| format!("\\u{hex}");
        let cases = [
            (r#"\""#.to_string(), "\""),
            (r"\\".to_string(), "\\"),
            (r"\/".to_string(), "/"),
            (r"\b".to_string(), "\u{8}"),
            (r"\f".to_string(), "\u{c}"),
            (r"\n".to_string(), "\n"),
            (r"\r".to_string(), "\r"),
            (r"\t".to_string(), "\t"),
            (u("0000"), "\0"),
            (u("0041"), "A"),
            (u("00e9"), "\u{e9}"),
            (u("00E9"), "\u{e9}"),
            (u("20ac"), "\u{20ac}"),
            (u("d83d") + &u("de00"), "\u{1f600}"),
            (u("D83D") + &u("DE00"), "\u{1f600}"),
            (u("dbff") + &u("dfff"), "\u{10ffff}"),
            (format!(r"a\/b{}{}c", u("d83d"), u("de00")), "a/b\u{1f600}c"),
        ];
        for (escaped, expected) in cases {
            let parsed =
                parse(&format!("\"{escaped}\"")).unwrap_or_else(|e| panic!("{escaped}: {e}"));
            assert_eq!(parsed.as_str(), Some(expected), "{escaped}");
        }
        // A lone or mispaired surrogate, a short or non-hex `\u`, and an unknown
        // escape are all errors.
        for bad in [
            u("d83d"),
            u("d83d") + "x",
            u("d83d") + r"\n",
            u("d83d") + &u("0041"),
            u("de00"),
            u("de00") + &u("d83d"),
            u("12"),
            u("12g4"),
            u("+041"),
            r"\x41".to_string(),
            r"\a".to_string(),
            r"\".to_string(),
        ] {
            assert!(parse(&format!("\"{bad}\"")).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn json_escaping_roundtrips() {
        for s in ["plain", "with \"quotes\"", "back\\slash", "tab\there\nnewline", "\u{1}ctrl"] {
            assert_eq!(unescape(&escape(s)).as_deref(), Some(s), "{s:?}");
        }
    }
}

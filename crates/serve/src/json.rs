//! A minimal, dependency-free JSON value: parser and writer.
//!
//! The serve protocol is line-delimited JSON; the workspace deliberately
//! carries no third-party dependencies, so this module implements the
//! subset of JSON the protocol needs — full parsing of any well-formed
//! value, and string escaping for the hand-assembled writers in
//! [`crate::render`].
//!
//! Numbers are held as `f64` (plenty for request ids, sink counts and
//! budgets; the protocol never round-trips 64-bit identifiers through
//! floats beyond 2^53). Object keys keep their input order.

use std::fmt;

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep input order, duplicates keep the first value.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON value from `s`; trailing non-whitespace is
    /// an error. Errors carry a byte offset and a short reason.
    pub fn parse(s: &str) -> Result<Json, JsonError> {
        let mut p = Parser { text: s, bytes: s.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(v)
    }

    /// Looks up `key` in an object; `None` for other variants or a missing
    /// key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The numeric payload as a non-negative integer, if this is a number
    /// with an exact `u64` value.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// A JSON syntax error: byte offset plus reason.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// Short human-readable reason.
    pub reason: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for JsonError {}

/// Maximum container nesting depth. The parser recurses per `[`/`{`, so
/// without a bound a line of a few thousand brackets would overflow the
/// stack; 128 is far beyond anything the protocol produces.
const MAX_DEPTH: usize = 128;

struct Parser<'s> {
    text: &'s str,
    bytes: &'s [u8],
    pos: usize,
    depth: usize,
}

impl<'s> Parser<'s> {
    fn err(&self, reason: &'static str) -> JsonError {
        JsonError { offset: self.pos, reason }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, reason: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(reason))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    /// Runs one container parser with the depth bound enforced.
    fn nested(
        &mut self,
        f: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{', "expected '{'")?;
        let mut pairs: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':' after object key")?;
            self.skip_ws();
            let val = self.value()?;
            if !pairs.iter().any(|(k, _)| *k == key) {
                pairs.push((key, val));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[', "expected '['")?;
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

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast-forward over the unescaped run. It ends at an ASCII byte
            // or the end of input, so it is whole UTF-8 and needs no
            // re-validation.
            self.pos += plain_run(&self.bytes[start..]);
            out.push_str(
                self.text
                    .get(start..self.pos)
                    .ok_or_else(|| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
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
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let cp =
                                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(cp)
                                } else {
                                    return Err(self.err("unpaired surrogate"));
                                }
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid unicode escape"))?);
                            // hex4 leaves pos one past the last digit and the
                            // `self.pos += 1` below is for single-char escapes.
                            self.pos -= 1;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// Parses exactly four hex digits at `pos`, leaving `pos` after them.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        let n: f64 = text.parse().map_err(|_| {
            self.pos = start;
            self.err("invalid number")
        })?;
        if !n.is_finite() {
            self.pos = start;
            return Err(self.err("non-finite number"));
        }
        Ok(Json::Num(n))
    }
}

/// Length of the leading run of `bytes` a string literal copies verbatim:
/// no quote, backslash or control byte. Inline designs make request lines
/// tens of kilobytes of such runs, so this scans eight bytes per step.
/// Within a word, the lowest flagged byte is exact (the borrows of the
/// subtractions only reach higher bytes), so the first match is too.
fn plain_run(bytes: &[u8]) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let mut words = bytes.chunks_exact(8);
    let mut run = 0;
    for word in &mut words {
        let w = u64::from_le_bytes(word.try_into().expect("chunks are eight bytes"));
        let quote = w ^ (ONES * u64::from(b'"'));
        let slash = w ^ (ONES * u64::from(b'\\'));
        let flags = ((quote.wrapping_sub(ONES) & !quote)
            | (slash.wrapping_sub(ONES) & !slash)
            | (w.wrapping_sub(ONES * 0x20) & !w))
            & HIGH;
        if flags != 0 {
            return run + (flags.trailing_zeros() / 8) as usize;
        }
        run += 8;
    }
    let tail = words.remainder();
    run + tail
        .iter()
        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
        .unwrap_or(tail.len())
}

/// Escapes `s` for use inside a JSON string literal. This is the one
/// escaper shared by every hand-assembled JSON writer in the workspace
/// (CLI `--json` output and the serve protocol), so the two cannot drift.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The word-at-a-time scan agrees with a byte-at-a-time one for every
    /// byte value at every position of a word, behind fillers that sit
    /// next to the special bytes (and high UTF-8 bytes).
    #[test]
    fn plain_run_matches_bytewise_scan() {
        let naive = |b: &[u8]| {
            b.iter()
                .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
                .unwrap_or(b.len())
        };
        for filler in [b'a', b' ', b'!', b'#', b'[', b']', 0x7f, 0x80, 0xc3, 0xff] {
            for stop in 0..=255u8 {
                for at in 0..20 {
                    let mut bytes = [filler; 20];
                    bytes[at] = stop;
                    for start in 0..3 {
                        let b = &bytes[start..];
                        assert_eq!(plain_run(b), naive(b), "filler {filler:#x} stop {stop:#x} at {at}");
                    }
                }
            }
        }
        // Several specials in one word: the first one wins.
        assert_eq!(plain_run(b"ab\\c\"d\nefghij"), 2);
        assert_eq!(plain_run(b""), 0);
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-2.5e1").unwrap(), Json::Num(-25.0));
        assert_eq!(Json::parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".into()));
    }

    #[test]
    fn parses_nested_and_preserves_key_order() {
        let v = Json::parse(r#"{"b": [1, {"x": null}], "a": "s", "b": 9}"#).unwrap();
        let Json::Obj(pairs) = &v else { panic!("not an object") };
        assert_eq!(pairs[0].0, "b");
        assert_eq!(pairs[1].0, "a");
        assert_eq!(pairs.len(), 2, "duplicate key keeps first value");
        assert!(matches!(v.get("b"), Some(Json::Arr(_))));
    }

    #[test]
    fn unicode_escapes_round_trip() {
        assert_eq!(Json::parse(r#""é😀""#).unwrap(), Json::Str("é😀".into()));
        let escaped = json_escape("tab\there \"q\" \\");
        assert_eq!(escaped, "tab\\u0009here \\\"q\\\" \\\\");
        let reparsed = Json::parse(&format!("\"{escaped}\"")).unwrap();
        assert_eq!(reparsed, Json::Str("tab\there \"q\" \\".into()));
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["", "{", "[1,", "\"unterminated", "{\"a\" 1}", "nul", "1 2", "1e999"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn integer_accessor_guards_range() {
        assert_eq!(Json::parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Json::parse("1.5").unwrap().as_u64(), None);
    }

    #[test]
    fn nesting_is_bounded_not_stack_fatal() {
        // At the bound: parses.
        let ok = format!("{}{}", "[".repeat(128), "]".repeat(128));
        assert!(Json::parse(&ok).is_ok());
        // One past the bound: a typed error, not a stack overflow.
        let deep = format!("{}{}", "[".repeat(129), "]".repeat(129));
        assert_eq!(Json::parse(&deep).unwrap_err().reason, "nesting too deep");
        // Far past the bound — a hostile line of brackets — still an error.
        let hostile = format!("{}1{}", "[".repeat(100_000), "]".repeat(100_000));
        assert_eq!(Json::parse(&hostile).unwrap_err().reason, "nesting too deep");
        // Objects count against the same bound.
        let objs =
            format!("{}1{}", "{\"k\": ".repeat(200), "}".repeat(200));
        assert_eq!(Json::parse(&objs).unwrap_err().reason, "nesting too deep");
        // The depth resets between siblings: wide is fine, only deep is not.
        let wide = format!("[{}]", vec!["[1]"; 1000].join(", "));
        assert!(Json::parse(&wide).is_ok());
    }

    #[test]
    fn surrogate_pairs_decode_and_half_pairs_fail() {
        // A surrogate pair decodes to one astral-plane character...
        assert_eq!(Json::parse(r#""😀""#).unwrap(), Json::Str("😀".into()));
        // ...and composes with neighbors on both sides.
        assert_eq!(
            Json::parse(r#""a😀z""#).unwrap(),
            Json::Str("a😀z".into())
        );
        // A high surrogate missing its partner is rejected, whatever follows.
        for bad in [r#""\ud83d""#, r#""\ud83dx""#, r#""\ud83d\n""#, r#""\ud83dA""#] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
        // A lone low surrogate is not a character.
        assert!(Json::parse(r#""\ude00""#).is_err());
    }

    #[test]
    fn duplicate_keys_keep_the_first_value() {
        let v = Json::parse(r#"{"id": 1, "id": 2, "op": "stats", "op": null}"#).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("op").and_then(Json::as_str), Some("stats"));
        let Json::Obj(pairs) = v else { panic!("not an object") };
        assert_eq!(pairs.len(), 2, "duplicates must not accumulate");
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        for bad in ["{} x", "{}{}", "null,", "[1] [2]", "7 //c", "true\u{0}"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
        // Trailing whitespace alone is fine.
        assert!(Json::parse("{\"a\": 1} \t\r\n").is_ok());
    }
}

//! A minimal recursive-descent JSON parser.
//!
//! The workspace writes all of its JSON by hand (zero registry
//! dependencies), and with the trajectory gate (`exp_report`) and the
//! serving round-trip tests it now needs to *read* some back: committed
//! `BENCH_*.json` baselines and the `fgnn-serve-v1` / `fgnn-serve-trace-v1`
//! JSONL streams. This parser covers exactly the JSON those exporters
//! emit — objects, arrays, strings with the exporter's escape set,
//! numbers, booleans and null — and reports errors with a byte offset.
//!
//! Numbers are kept as `f64`; the exporters only emit integers that are
//! exactly representable (u64 counters below 2^53 in practice), and
//! [`JsonValue::as_u64`] round-trips them losslessly or returns `None`.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string (escapes resolved).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; key order is normalized (BTreeMap) since the exporters
    /// never rely on duplicate keys.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a number exactly representing one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(a) => Some(a.as_slice()),
            _ => None,
        }
    }

    /// The value as an object map, if it is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Member `key` of an object value.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object().and_then(|o| o.get(key))
    }
}

/// A parse failure, carrying the byte offset it occurred at.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

/// Deepest array/object nesting [`parse`] accepts. The exporters nest four
/// levels at most; the cap turns hostile input (`[[[[…`) into a
/// [`JsonError`] instead of a stack overflow.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

/// Parse one JSON document; trailing whitespace is allowed, trailing
/// content is an error.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after document"));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            msg: msg.into(),
        }
    }

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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(self.err(format!("unexpected byte '{}'", b as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<JsonValue, JsonError>,
    ) -> Result<JsonValue, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
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
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            // Exactly four hex digits (`from_str_radix` would
                            // also take a sign: `\u+041`).
                            let code = hex
                                .iter()
                                .try_fold(0, |code, &h| {
                                    Some(code << 4 | char::from(h).to_digit(16)?)
                                })
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // The exporters only escape control chars, so
                            // surrogate pairs never occur in our streams.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u code point"))?,
                            );
                        }
                        _ => return Err(self.err(format!("unknown escape '\\{}'", esc as char))),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so byte
                    // boundaries are valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|&b| (b & 0xC0) == 0x80)
                    {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| {
            b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-'
        }) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        match text.parse::<f64>() {
            // `1e999` parses to infinity, which no exporter can have written.
            Ok(n) if n.is_finite() && is_json_number(text.as_bytes()) => Ok(JsonValue::Number(n)),
            _ => Err(self.err(format!("bad number '{text}'"))),
        }
    }
}

/// Whether `text` is a number by JSON's grammar,
/// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?` — stricter than
/// `f64::from_str`, which also takes `1.`, `01` and `-.5`.
fn is_json_number(text: &[u8]) -> bool {
    let digits = |s: &[u8]| s.iter().take_while(|b| b.is_ascii_digit()).count();
    let s = text.strip_prefix(b"-").unwrap_or(text);
    let int = digits(s);
    if int == 0 || (int > 1 && s[0] == b'0') {
        return false;
    }
    let mut s = &s[int..];
    if let Some(frac) = s.strip_prefix(b".") {
        let n = digits(frac);
        if n == 0 {
            return false;
        }
        s = &frac[n..];
    }
    if let Some(exp) = s.strip_prefix(b"e").or_else(|| s.strip_prefix(b"E")) {
        let exp = exp
            .strip_prefix(b"+")
            .or_else(|| exp.strip_prefix(b"-"))
            .unwrap_or(exp);
        let n = digits(exp);
        if n == 0 {
            return false;
        }
        s = &exp[n..];
    }
    s.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_exporter_shapes() {
        let doc = r#"{"schemaVersion":"fgnn-serve-v1","kind":"bench","runs":[{"label":"load=1x cap=16 none","p99Ms":2.0816,"served":1688,"ok":true,"none":null}]}"#;
        let v = parse(doc).unwrap();
        assert_eq!(
            v.get("schemaVersion").unwrap().as_str(),
            Some("fgnn-serve-v1")
        );
        let runs = v.get("runs").unwrap().as_array().unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].get("served").unwrap().as_u64(), Some(1688));
        assert_eq!(runs[0].get("p99Ms").unwrap().as_f64(), Some(2.0816));
        assert_eq!(runs[0].get("ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(runs[0].get("none"), Some(&JsonValue::Null));
    }

    #[test]
    fn round_trips_escapes_and_unicode() {
        let v = parse("{\"a\\n\\\"b\":\"c\\u0001d\",\"s\":\"héllo\"}").unwrap();
        assert_eq!(v.get("a\n\"b").unwrap().as_str(), Some("c\u{1}d"));
        assert_eq!(v.get("s").unwrap().as_str(), Some("héllo"));
    }

    #[test]
    fn numbers_parse_including_negatives_and_exponents() {
        let v = parse("[-1.5,2e3,0,18446744073709551615]").unwrap();
        let a = v.as_array().unwrap();
        assert_eq!(a[0].as_f64(), Some(-1.5));
        assert_eq!(a[1].as_f64(), Some(2000.0));
        assert_eq!(a[2].as_u64(), Some(0));
        assert_eq!(a[3].as_u64(), None, "beyond 2^53: not exactly a u64");
        assert_eq!(a[0].as_u64(), None, "negative is not a u64");
    }

    #[test]
    fn errors_carry_offsets() {
        let e = parse("{\"a\":}").unwrap_err();
        assert_eq!(e.at, 5);
        assert!(parse("[1,2").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"open").is_err());
        assert!(e.to_string().contains("byte 5"));
    }

    #[test]
    fn nesting_past_the_cap_is_an_error_not_a_stack_overflow() {
        let e = parse(&"[".repeat(200_000)).unwrap_err();
        assert_eq!(e.at, MAX_DEPTH, "{e}");
        let e = parse(&"{\"a\":".repeat(200_000)).unwrap_err();
        assert_eq!(e.at, MAX_DEPTH * 5, "{e}");
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_cap).is_ok(), "the cap itself is accepted");
        // Depth counts open containers, not containers seen.
        let wide = format!("[{}[]]", "[],".repeat(4 * MAX_DEPTH));
        assert!(parse(&wide).is_ok());
    }

    #[test]
    fn numbers_that_overflow_f64_are_rejected() {
        let e = parse("{\"a\":1e999}").unwrap_err();
        assert_eq!(e.at, 10, "{e}");
        assert!(parse("[-1e999]").is_err());
        assert_eq!(parse("[1e308]").unwrap().as_array().unwrap().len(), 1);
    }

    #[test]
    fn a_unicode_escape_is_four_hex_digits_not_a_signed_number() {
        assert!(parse("\"\\u+041\"").is_err());
        assert!(parse("\"\\u-041\"").is_err());
        assert_eq!(parse("\"\\u0041\"").unwrap().as_str(), Some("A"));
    }

    #[test]
    fn numbers_follow_the_json_grammar_not_f64_from_str() {
        // No trailing point, leading zero or bare fraction.
        for bad in ["1.", "01", "-.5", "-", "1e", "1e+", "-01", "1.e3", "00"] {
            let e = parse(&format!("[{bad}]")).unwrap_err();
            assert_eq!(e.at, 1 + bad.len(), "{bad}: {e}");
        }
        assert!(parse("[.5]").is_err());
        for (good, want) in [
            ("-0", 0.0),
            ("0.5e-3", 0.5e-3),
            ("1E+2", 100.0),
            ("10", 10.0),
        ] {
            assert_eq!(parse(good).unwrap().as_f64(), Some(want), "{good}");
        }
    }

    #[test]
    fn whitespace_is_tolerated_everywhere() {
        let v = parse(" { \"a\" : [ 1 , 2 ] , \"b\" : { } } \n").unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
        assert!(v.get("b").unwrap().as_object().unwrap().is_empty());
    }
}

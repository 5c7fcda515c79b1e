//! A minimal, dependency-free JSON value, parser and writer.
//!
//! The container this workspace builds in has no network access, so the
//! wire tier cannot pull in `serde`; this module implements exactly the
//! JSON surface the protocol needs. Design points:
//!
//! * **Deterministic output** — objects keep insertion order ([`Json::Obj`]
//!   is a `Vec`, not a map), so encoding the same value twice yields
//!   byte-identical text. The wire-equivalence suite leans on this.
//! * **Bounded parsing** — the parser enforces a nesting-depth cap so a
//!   hostile body (`[[[[…`) cannot blow the worker's stack, and it never
//!   panics on malformed input: every failure is a typed
//!   [`JsonError`] with a byte position.
//! * **Integer-exact numbers** — numbers are stored as `f64` but
//!   integers up to 2⁵³ round-trip exactly, which covers every id,
//!   counter and byte budget the protocol carries. One integer writer
//!   (`int_text`) renders them, for [`Json::Num`] and for the answer
//!   encoder alike, so the two cannot disagree on a number's text. It
//!   takes four digits per lookup from a compile-time table of the
//!   10,000 four-digit texts and stores eight at a time. JSON has no
//!   NaN or infinity, so a non-finite [`Json::Num`] encodes as `null`,
//!   as serde_json writes it.
//! * **Pre-encoded fragments** — [`Json::Fragment`] carries text that an
//!   encoder in this crate already wrote (a certain-answer body, written
//!   in one pass over the engine's pairs with no tree, or the text a
//!   cached answer kept from its first encode). The text is shared, so a
//!   fragment is cloned and moved without copying it. It is private and
//!   only this crate can build one, so every `Json` still encodes to
//!   valid JSON. [`parse`] never produces a fragment, and the
//!   accessors ([`Json::get`], `as_*`) see nothing inside one: to read a
//!   fragment's fields, encode it and parse the text, as a client does.

use std::fmt;
use std::sync::Arc;

/// Maximum nesting depth the parser accepts (arrays + objects combined).
pub const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number (integers ≤ 2⁵³ are exact).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order (later duplicates win on lookup is
    /// **not** implemented — first key wins, duplicates are kept as-is).
    Obj(Vec<(String, Json)>),
    /// One complete JSON value that an encoder in this crate already
    /// wrote as text; encoding copies it verbatim. Equality compares the
    /// text, so a fragment never equals a tree with the same encoding.
    Fragment(Fragment),
}

/// The text of a [`Json::Fragment`]: exactly one JSON value, shared. The
/// field is private to this crate, so only its encoders build one.
#[derive(Clone, Debug, PartialEq)]
pub struct Fragment(pub(crate) Arc<String>);

impl Json {
    /// Build an object from key/value pairs.
    pub fn obj<I>(pairs: I) -> Json
    where
        I: IntoIterator<Item = (&'static str, Json)>,
    {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Build a string value.
    pub fn str(s: impl AsRef<str>) -> Json {
        Json::Str(s.as_ref().to_string())
    }

    /// Build a number from any integer that fits `f64` exactly.
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// Object field lookup (first match).
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

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The number as a signed integer, if it is one exactly.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) => Some(*n as i64),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serialise to compact JSON text (no whitespace).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// [`Json::encode`] for an owned value: a fragment's shared text is
    /// handed out rather than copied.
    pub(crate) fn into_text(self) -> Arc<String> {
        match self {
            Json::Fragment(Fragment(text)) => text,
            other => Arc::new(other.encode()),
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                if !n.is_finite() {
                    out.push_str("null");
                } else if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
                    // 17 characters at most, plus the writer's 7 bytes of room
                    let mut buf = [0u8; 24];
                    let end = int_text(*n as i64, &mut buf, 0);
                    out.extend(buf[..end].iter().map(|&b| char::from(b)));
                } else {
                    out.push_str(&format!("{n}"));
                }
            }
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
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
            Json::Fragment(Fragment(text)) => out.push_str(text),
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
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

/// The zero-padded text of every number below 10,000, built at compile
/// time (40 KB): `QUADS[42]` is `*b"0042"`.
static QUADS: [[u8; 4]; 10_000] = {
    let mut table = [[0u8; 4]; 10_000];
    let mut n = 0;
    while n < 10_000 {
        table[n] = [
            b'0' + (n / 1000) as u8,
            b'0' + (n / 100 % 10) as u8,
            b'0' + (n / 10 % 10) as u8,
            b'0' + (n % 10) as u8,
        ];
        n += 1;
    }
    table
};

const E8: u64 = 100_000_000;

/// The eight-digit, zero-padded text of `n < 10⁸` as a little-endian
/// word: the first digit is the low byte.
fn eight(n: u64) -> u64 {
    let [a, b, c, d] = QUADS[(n / 10_000) as usize];
    let [e, f, g, h] = QUADS[(n % 10_000) as usize];
    u64::from_le_bytes([a, b, c, d, e, f, g, h])
}

/// Write the decimal text of `n` from `buf[at]` on and return where it
/// ends. The text is byte-equal to `format!("{n}")`; this is the one
/// integer writer behind [`Json::Num`] and the answer encoder.
///
/// Digits go out as eight-byte words: the leading group with its zeros
/// shifted off, then every further group of eight whole. A word may run
/// up to seven bytes past the end of the text, so `buf` needs that much
/// room; those bytes are left for the caller to overwrite.
#[inline]
pub(crate) fn int_text(n: i64, buf: &mut [u8], mut at: usize) -> usize {
    if n < 0 {
        buf[at] = b'-';
        at += 1;
    }
    let m = n.unsigned_abs();
    // |n| ≤ 2⁶³ < 10¹⁹: a leading group of one to eight digits, then
    // `whole` groups of exactly eight, at most two
    let mut lead = m;
    let mut whole = 0;
    while lead >= E8 {
        lead /= E8;
        whole += 1;
    }
    let digits = lead.checked_ilog10().unwrap_or(0) as usize + 1;
    buf[at..at + 8].copy_from_slice(&(eight(lead) >> (8 * (8 - digits))).to_le_bytes());
    at += digits;
    while whole > 0 {
        whole -= 1;
        // `whole` more groups follow this one
        let group = if whole == 1 { m / E8 % E8 } else { m % E8 };
        buf[at..at + 8].copy_from_slice(&eight(group).to_le_bytes());
        at += 8;
    }
    at
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: byte position + message. Never a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub pos: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Parse a complete JSON document. Trailing non-whitespace is an error;
/// nesting beyond [`MAX_DEPTH`] is an error; invalid UTF-8 is an error.
pub fn parse(bytes: &[u8]) -> Result<Json, JsonError> {
    let text = std::str::from_utf8(bytes).map_err(|e| JsonError {
        pos: e.valid_up_to(),
        msg: "invalid UTF-8",
    })?;
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    /// The input, validated as UTF-8 once at entry; string runs are
    /// copied out of it as slices.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &'static str) -> JsonError {
        JsonError { pos: self.pos, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8, msg: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[', "expected '['")?;
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{', "expected '{'")?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected string")?;
        let mut out = String::new();
        loop {
            // copy the run of plain bytes up to the next quote, backslash
            // or control byte as one slice: all three are ASCII, so both
            // ends of the run are char boundaries of the validated text
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(self.bytes.len() - self.pos);
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
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
                            self.pos += 1; // past 'u'; pos is the first hex digit
                            let cp = self.hex4()?;
                            // surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                self.eat(b'\\', "expected low surrogate")?;
                                self.eat(b'u', "expected low surrogate")?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(cp)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid unicode escape")),
                            }
                            continue; // hex4 consumed its digits already
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("unescaped control character")),
            }
        }
    }

    /// Read 4 hex digits starting at `pos`; advances `pos` past them.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v: u32 = 0;
        for i in 0..4 {
            let d = self
                .bytes
                .get(self.pos + i)
                .and_then(|b| (*b as char).to_digit(16))
                .ok_or_else(|| self.err("invalid \\u escape"))?;
            v = (v << 4) | d;
        }
        self.pos += 4;
        Ok(v)
    }

    /// Advance past a run of ASCII digits; was there at least one?
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    /// An RFC 8259 number, `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`,
    /// checked by hand before `f64::from_str`, which also accepts forms
    /// JSON forbids (`01`, `1.`, `-.5`, `1.e5`).
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.peek(), Some(b'0'..=b'9')) {
                    return Err(self.err("leading zero in number"));
                }
            }
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(self.err("expected digit after '-'")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !self.digits() {
                return Err(self.err("expected digit after '.'"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.digits() {
                return Err(self.err("expected digit in exponent"));
            }
        }
        let n: f64 = self.text[start..self.pos]
            .parse()
            .map_err(|_| self.err("invalid number"))?;
        if !n.is_finite() {
            return Err(self.err("number out of range"));
        }
        Ok(Json::Num(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trips_basic_values() {
        for src in [
            "null",
            "true",
            "false",
            "0",
            "-17",
            "3.5",
            "\"hello\"",
            "[]",
            "[1,2,3]",
            "{}",
            "{\"a\":1,\"b\":[true,null]}",
        ] {
            let v = parse(src.as_bytes()).unwrap();
            assert_eq!(parse(v.encode().as_bytes()).unwrap(), v, "{src}");
        }
    }

    #[test]
    fn object_order_is_preserved() {
        let v = Json::obj([("z", Json::num(1.0)), ("a", Json::num(2.0))]);
        assert_eq!(v.encode(), "{\"z\":1,\"a\":2}");
    }

    #[test]
    fn escapes_round_trip() {
        let v = Json::str("a\"b\\c\nd\te\u{1}");
        let enc = v.encode();
        assert_eq!(parse(enc.as_bytes()).unwrap(), v);
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(parse(b"\"\\u0041\\u00e9\"").unwrap(), Json::str("A\u{e9}"));
        // surrogate pair
        assert_eq!(
            parse(b"\"\\ud83d\\ude00\"").unwrap(),
            Json::str("\u{1F600}")
        );
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(parse(deep.as_bytes()).is_err());
        let ok = "[".repeat(8) + &"]".repeat(8);
        assert!(parse(ok.as_bytes()).is_ok());
    }

    #[test]
    fn malformed_inputs_error_not_panic() {
        for bad in [
            &b"{"[..],
            b"[1,",
            b"\"unterminated",
            b"nul",
            b"{\"a\"}",
            b"{\"a\":}",
            b"01x",
            b"1 2",
            b"[1]]",
            b"\xff\xfe",
            b"",
            b"\"\\q\"",
            b"\"\\u12\"",
            b"{1:2}",
            // RFC 8259 numbers: f64::from_str accepts all of these
            b"01",
            b"-01",
            b"00",
            b"1.",
            b"-.5",
            b"1.e5",
        ] {
            assert!(parse(bad).is_err());
        }
    }

    #[test]
    fn non_rfc_numbers_name_the_broken_rule() {
        for (bad, pos, msg) in [
            (&b"01"[..], 1, "leading zero in number"),
            (b"-01", 2, "leading zero in number"),
            (b"00", 1, "leading zero in number"),
            (b"[1,007]", 4, "leading zero in number"),
            (b"1.", 2, "expected digit after '.'"),
            (b"1.e5", 2, "expected digit after '.'"),
            (b"-.5", 1, "expected digit after '-'"),
            (b"-", 1, "expected digit after '-'"),
            (b"{\"a\":-x}", 6, "expected digit after '-'"),
            (b"1e", 2, "expected digit in exponent"),
            (b"1e+", 3, "expected digit in exponent"),
        ] {
            assert_eq!(parse(bad), Err(JsonError { pos, msg }), "{bad:?}");
        }
        for (good, n) in [
            ("0", 0.0),
            ("-0", 0.0),
            ("0.5", 0.5),
            ("-0.25e-2", -0.0025),
            ("1E+2", 100.0),
            ("10", 10.0),
            ("120.5e1", 1205.0),
        ] {
            assert_eq!(parse(good.as_bytes()), Ok(Json::Num(n)), "{good}");
        }
    }

    #[test]
    fn unescaped_control_bytes_error_at_their_position() {
        for (bad, pos) in [
            (&b"\"ab\x01c\""[..], 3),
            (b"\"\xc3\xa9\x1f\"", 3),
            (b"\"\\n\n\"", 3),
            (b"{\"k\x00\":1}", 3),
        ] {
            assert_eq!(
                parse(bad),
                Err(JsonError {
                    pos,
                    msg: "unescaped control character"
                }),
                "{bad:?}"
            );
        }
        // DEL is not a control character in JSON
        assert_eq!(parse(b"\"\x7f\"").unwrap(), Json::str("\u{7f}"));
    }

    #[test]
    fn invalid_utf8_is_rejected_at_valid_up_to() {
        for (bad, pos) in [
            (&b"\"ab\xffcd\""[..], 3),
            (b"\"\xc3\xa9\xc3\"", 3),
            (b"{\"\xe4\xb8\":1}", 2),
            (b"[\"ok\",\"\xf0\x9f\x98\"]", 7),
        ] {
            assert_eq!(
                parse(bad),
                Err(JsonError {
                    pos,
                    msg: "invalid UTF-8"
                }),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn multibyte_runs_decode_exactly_between_escapes() {
        let src = "\"h\u{e9}llo \u{4e16}\u{754c}\\n\u{1F600}\\\"q\\u00e9\u{65e5}\\ud83d\\ude00\u{672c}\\t\"";
        assert_eq!(
            parse(src.as_bytes()).unwrap(),
            Json::str("h\u{e9}llo \u{4e16}\u{754c}\n\u{1F600}\"q\u{e9}\u{65e5}\u{1F600}\u{672c}\t")
        );
        // a string that is one long multi-byte run, and an empty one
        let long = "\u{e9}\u{4e16}\u{1F600}".repeat(500);
        assert_eq!(
            parse(format!("\"{long}\"").as_bytes()).unwrap(),
            Json::str(&long)
        );
        assert_eq!(parse(b"\"\"").unwrap(), Json::str(""));
    }

    #[test]
    fn object_keys_decode_like_strings() {
        let v = parse(
            "{\"cl\u{e9}\\n\u{4e16}\":1,\"\\ud83d\\ude00\u{1F600}\":[\"\u{e9}\"]}".as_bytes(),
        )
        .unwrap();
        assert_eq!(
            v,
            Json::Obj(vec![
                ("cl\u{e9}\n\u{4e16}".to_string(), Json::num(1.0)),
                (
                    "\u{1F600}\u{1F600}".to_string(),
                    Json::Arr(vec![Json::str("\u{e9}")])
                ),
            ])
        );
    }

    /// One random char, drawn evenly from the four UTF-8 widths (the
    /// one-byte class includes the control bytes, quote and backslash
    /// that the encoder must escape).
    fn arb_char() -> impl Strategy<Value = char> {
        prop_oneof![
            (0u32..0x80).prop_map(|c| char::from_u32(c).expect("ASCII")),
            (0x80u32..0x800).prop_map(|c| char::from_u32(c).expect("two-byte")),
            // the surrogate block is not chars: fold it onto Hangul
            (0x800u32..0x10000).prop_map(|c| {
                char::from_u32(c).unwrap_or_else(|| char::from_u32(c - 0x1000).expect("Hangul"))
            }),
            (0x10000u32..0x110000).prop_map(|c| char::from_u32(c).expect("astral")),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn encoded_strings_round_trip(chars in prop::collection::vec(arb_char(), 0..48)) {
            let s: String = chars.into_iter().collect();
            let v = Json::Str(s.clone());
            prop_assert_eq!(parse(v.encode().as_bytes()), Ok(v));
            let obj = Json::Obj(vec![(s.clone(), Json::Str(s))]);
            prop_assert_eq!(parse(obj.encode().as_bytes()), Ok(obj));
        }
    }

    #[test]
    fn integer_writer_matches_format() {
        for n in [
            0i64,
            1,
            -1,
            9,
            10,
            i64::from(u32::MAX),
            1 << 53,
            -(1 << 53),
            i64::MIN,
            i64::MAX,
        ] {
            let mut buf = [0u8; 27];
            let end = int_text(n, &mut buf, 0);
            assert_eq!(&buf[..end], format!("{n}").as_bytes());
        }
        for n in [0i64, 1, -1, 9, 10, i64::from(u32::MAX), 1 << 53, -(1 << 53)] {
            assert_eq!(Json::Num(n as f64).encode(), format!("{n}"));
        }
        // both sides of every digit-width step up to 10¹⁵, where the
        // writer's group count changes
        for k in 0..=15 {
            let p = 10i64.pow(k);
            for n in [p - 1, p, p + 1] {
                for n in [n, -n] {
                    assert_eq!(Json::Num(n as f64).encode(), format!("{n}"));
                }
            }
        }
        assert_eq!(Json::Num(-0.0).encode(), "0");
        assert_eq!(Json::Num(0.5).encode(), "0.5");
    }

    #[test]
    fn every_number_encodes_as_valid_json() {
        for (n, text) in [
            (f64::NAN, "null"),
            (f64::INFINITY, "null"),
            (f64::NEG_INFINITY, "null"),
            (2f64.powi(53), "9007199254740992"),
            (-(2f64.powi(53)), "-9007199254740992"),
            (0.5, "0.5"),
            (-0.0, "0"),
        ] {
            let encoded = Json::Num(n).encode();
            assert_eq!(encoded, text, "{n}");
            assert!(
                parse(encoded.as_bytes()).is_ok(),
                "{n} encodes as {encoded}"
            );
        }
    }

    #[test]
    fn fragments_encode_verbatim_and_hide_their_fields() {
        let frag = Json::Fragment(Fragment(Arc::new("{\"a\":[1,2]}".to_string())));
        assert_eq!(frag.encode(), "{\"a\":[1,2]}");
        assert_eq!(frag.get("a"), None);
        assert_eq!(frag.as_arr(), None);
        assert_eq!(frag.as_u64(), None);
        let nested = Json::obj([("x", frag.clone()), ("y", Json::Arr(vec![frag]))]);
        assert_eq!(
            nested.encode(),
            "{\"x\":{\"a\":[1,2]},\"y\":[{\"a\":[1,2]}]}"
        );
        // the parser only builds trees
        assert_eq!(
            parse(nested.encode().as_bytes()).unwrap().get("x"),
            Some(&Json::obj([(
                "a",
                Json::Arr(vec![Json::num(1.0), Json::num(2.0)])
            )]))
        );
    }

    #[test]
    fn integers_are_exact() {
        let v = parse(b"9007199254740992").unwrap(); // 2^53
        assert_eq!(v.as_u64(), Some(1u64 << 53));
        assert_eq!(v.encode(), "9007199254740992");
    }
}

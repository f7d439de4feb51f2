//! Offline stand-in for `serde_json`.
//!
//! [`to_string`] hands a value a fresh [`serde::JsonWriter`] and returns
//! the compact text it wrote — strings escaped per RFC 8259, non-finite
//! floats as `null`. [`to_string_pretty`] is that same text passed through
//! one re-indent pass, so there is one renderer. [`from_str`] parses JSON
//! text into a [`Value`] tree — enough for tools that re-read the run
//! reports the workspace emits.

pub use serde::Value;

/// Parse error: the byte offset where the input stopped being JSON.
/// Rendering is infallible.
#[derive(Debug)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Result alias mirroring `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Serializes `value` as a compact JSON string.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut w = serde::JsonWriter::new();
    value.serialize(&mut w);
    Ok(w.into_string())
}

/// Serializes `value` as pretty-printed JSON (2-space indent).
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    to_string(value).map(|compact| reindent(&compact))
}

/// Re-indents compact JSON: a line per element and member, `": "` after
/// keys, empty containers left closed. Compact text has no whitespace
/// outside strings, so every structural byte met outside one is
/// structure; strings are copied through whole.
fn reindent(compact: &str) -> String {
    fn newline(out: &mut String, depth: usize) {
        out.push('\n');
        out.extend(std::iter::repeat_n("  ", depth));
    }
    let bytes = compact.as_bytes();
    let mut out = String::with_capacity(compact.len() + compact.len() / 2);
    let mut depth = 0usize;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        let next = i + 1;
        match b {
            b'"' => {
                let mut end = next;
                while bytes.get(end).is_some_and(|&c| c != b'"') {
                    end += if bytes[end] == b'\\' { 2 } else { 1 };
                }
                let end = end.min(bytes.len() - 1);
                out.push_str(&compact[i..=end]);
                i = end;
            }
            b'{' | b'[' if matches!(bytes.get(next), Some(b'}' | b']')) => {
                out.push_str(&compact[i..=next]);
                i = next;
            }
            b'{' | b'[' => {
                out.push(char::from(b));
                depth += 1;
                newline(&mut out, depth);
            }
            b'}' | b']' => {
                depth = depth.saturating_sub(1);
                newline(&mut out, depth);
                out.push(char::from(b));
            }
            b',' => {
                out.push(',');
                newline(&mut out, depth);
            }
            b':' => out.push_str(": "),
            // A number or literal: ASCII, so a `char` apiece is exact.
            _ => out.push(char::from(b)),
        }
        i += 1;
    }
    out
}

/// Parses JSON text into a [`Value`] tree.
///
/// Numbers parse as `U64` when non-negative integral, `I64` when negative
/// integral, `F64` otherwise — the same partition [`to_string`] renders
/// from, so a rendered document round-trips. Duplicate object keys are
/// kept in document order (last-reader-wins is left to the caller, like
/// upstream's `preserve_order` mode).
pub fn from_str(s: &str) -> Result<Value> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &str) -> Error {
        Error(format!("{what} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> Result<()> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err("unexpected token"))
        }
    }

    fn value(&mut self) -> Result<Value> {
        match self.peek() {
            Some(b'n') => self.eat("null").map(|()| Value::Null),
            Some(b't') => self.eat("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Value> {
        self.pos += 1; // [
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value> {
        self.pos += 1; // {
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':'"));
            }
            self.pos += 1;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected a string"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid utf-8"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.hex4()?;
                            // Surrogate pair: a high surrogate must be
                            // followed by \uDC00..DFFF.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                self.eat("\\u")
                                    .map_err(|_| self.err("unpaired surrogate"))?;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let n = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(n)
                            } else {
                                char::from_u32(code)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid codepoint"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ascii");
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::I64(n));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| self.err("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::FnStrategy;

    #[test]
    fn compact_and_pretty_agree_on_structure() {
        let v = Value::Object(vec![
            ("name".into(), Value::Str("a\"b".into())),
            ("xs".into(), Value::Array(vec![Value::U64(1), Value::Null])),
            ("none".into(), Value::Object(vec![])),
            (
                "deep".into(),
                Value::Array(vec![Value::Array(vec![]), Value::Object(vec![])]),
            ),
        ]);
        assert_eq!(
            to_string(&v).unwrap(),
            r#"{"name":"a\"b","xs":[1,null],"none":{},"deep":[[],{}]}"#
        );
        assert_eq!(
            to_string_pretty(&v).unwrap(),
            r#"{
  "name": "a\"b",
  "xs": [
    1,
    null
  ],
  "none": {},
  "deep": [
    [],
    {}
  ]
}"#
        );
        assert_eq!(to_string_pretty(&Value::Array(vec![])).unwrap(), "[]");
        assert_eq!(to_string_pretty(&-7i64).unwrap(), "-7");
        // Structural bytes inside a string are not structure.
        assert_eq!(
            to_string_pretty(&vec!["{[,:]}\\\""]).unwrap(),
            "[\n  \"{[,:]}\\\\\\\"\"\n]"
        );
    }

    #[test]
    fn control_chars_escaped() {
        assert_eq!(to_string("a\nb\u{1}").unwrap(), "\"a\\nb\\u0001\"");
    }

    #[test]
    fn non_finite_floats_render_null() {
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        assert_eq!(to_string(&2.5f64).unwrap(), "2.5");
    }

    #[test]
    fn parser_round_trips_rendered_documents() {
        let v = Value::Object(vec![
            ("name".into(), Value::Str("a\"b\n\u{1}".into())),
            (
                "xs".into(),
                Value::Array(vec![
                    Value::U64(1),
                    Value::I64(-2),
                    Value::F64(2.5),
                    Value::Null,
                    Value::Bool(true),
                ]),
            ),
            ("empty".into(), Value::Object(vec![])),
        ]);
        assert_eq!(from_str(&to_string(&v).unwrap()).unwrap(), v);
        assert_eq!(from_str(&to_string_pretty(&v).unwrap()).unwrap(), v);
    }

    #[test]
    fn parser_handles_escapes_and_surrogates() {
        assert_eq!(
            from_str(r#""aA😀\/""#).unwrap(),
            Value::Str("aA\u{1F600}/".into())
        );
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in ["", "{", "[1,", "\"abc", "{\"a\":}", "01x", "nul", "1 2"] {
            assert!(from_str(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn numbers_partition_like_rendering() {
        assert_eq!(
            from_str("18446744073709551615").unwrap(),
            Value::U64(u64::MAX)
        );
        assert_eq!(from_str("-5").unwrap(), Value::I64(-5));
        assert_eq!(from_str("1e3").unwrap(), Value::F64(1000.0));
    }

    /// Splits JSON text into its string tokens (quotes included) and
    /// everything else with whitespace dropped.
    fn strings_and_structure(text: &str) -> (Vec<&str>, String) {
        let bytes = text.as_bytes();
        let (mut strings, mut structure) = (Vec::new(), String::new());
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] == b'"' {
                let start = i;
                i += 1;
                while bytes[i] != b'"' {
                    i += if bytes[i] == b'\\' { 2 } else { 1 };
                }
                strings.push(&text[start..=i]);
                structure.push('"');
            } else if !bytes[i].is_ascii_whitespace() {
                structure.push(char::from(bytes[i]));
            }
            i += 1;
        }
        (strings, structure)
    }

    fn arb_string(rng: &mut TestRng) -> String {
        const ALPHABET: [&str; 24] = [
            "\"",
            "\\",
            "\n",
            "\r",
            "\t",
            "\u{0}",
            "\u{1}",
            "\u{1f}",
            "\u{7f}",
            "{",
            "}",
            "[",
            "]",
            ",",
            ":",
            " ",
            "/",
            "a",
            "Z",
            "0",
            "é",
            "\u{2028}",
            "字",
            "\u{1F600}",
        ];
        (0..rng.below(9))
            .map(|_| ALPHABET[rng.below(ALPHABET.len() as u64) as usize])
            .collect()
    }

    /// A tree of every node kind; containers may be empty at any depth.
    fn arb_value(rng: &mut TestRng, depth: u32) -> Value {
        let kinds = if depth == 0 { 6 } else { 8 };
        match rng.below(kinds) {
            0 => Value::Null,
            1 => Value::Bool(rng.below(2) == 0),
            2 => Value::U64([0, 9, 10, 99, 100, u64::MAX, rng.next_u64()][rng.below(7) as usize]),
            // Non-negative integers parse back as `U64`.
            3 => Value::I64(
                [-1, -10, i64::MIN, -((rng.next_u64() >> 1) as i64) - 1][rng.below(4) as usize],
            ),
            // Integral floats print without a point and parse back as
            // integers, so stay off them below 2^64.
            4 => Value::F64(
                [
                    f64::NAN,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    0.1,
                    -2.5e-7,
                    1e300,
                    f64::MIN_POSITIVE,
                    (rng.next_u64() >> 12) as f64 + 0.5,
                ][rng.below(8) as usize],
            ),
            5 => Value::Str(arb_string(rng)),
            6 => Value::Array(
                (0..rng.below(4))
                    .map(|_| arb_value(rng, depth - 1))
                    .collect(),
            ),
            _ => Value::Object(
                (0..rng.below(4))
                    .map(|_| (arb_string(rng), arb_value(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    /// What `v` reads back as: non-finite floats were written as `null`.
    fn as_parsed(v: &Value) -> Value {
        match v {
            Value::F64(x) if !x.is_finite() => Value::Null,
            Value::Array(items) => Value::Array(items.iter().map(as_parsed).collect()),
            Value::Object(fields) => Value::Object(
                fields
                    .iter()
                    .map(|(k, v)| (k.clone(), as_parsed(v)))
                    .collect(),
            ),
            other => other.clone(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn rendered_trees_round_trip_compact_and_pretty(
            v in FnStrategy(|rng: &mut TestRng| arb_value(rng, 4)),
        ) {
            let compact = to_string(&v).unwrap();
            let pretty = to_string_pretty(&v).unwrap();
            prop_assert_eq!(from_str(&compact).unwrap(), as_parsed(&v));
            prop_assert_eq!(from_str(&pretty).unwrap(), as_parsed(&v));
            // Re-indenting adds whitespace between tokens and nothing else:
            // every string survives byte for byte.
            let (strings, structure) = strings_and_structure(&pretty);
            prop_assert_eq!(strings, strings_and_structure(&compact).0);
            prop_assert_eq!(structure, strings_and_structure(&compact).1);
        }
    }
}

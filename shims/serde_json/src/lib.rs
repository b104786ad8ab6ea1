//! Vendored, API-compatible shim for the slice of `serde_json` this
//! workspace uses: [`to_string_pretty`], [`from_str`], and [`Error`].
//!
//! Works over the serde shim's concrete [`Value`] tree: serialization
//! pretty-prints it (2-space indent, insertion-ordered objects);
//! deserialization runs a small recursive-descent JSON parser that
//! accepts the full JSON grammar (nested values, string escapes,
//! `\uXXXX`, exponent-form numbers) and rejects trailing garbage.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize, Value};

/// Serialization/deserialization error.
///
/// Re-exported from the serde shim so that derive-generated code and this
/// crate share one error type, like the real `serde_json::Error`.
pub use serde::DeError as Error;

/// Serializes `value` as pretty JSON (2-space indent).
///
/// # Errors
///
/// Never fails for the shim's data model; the `Result` mirrors the real
/// `serde_json` signature.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), 0, &mut out);
    Ok(out)
}

/// Parses a `T` from JSON text.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON or on a shape mismatch with `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser::new(s);
    p.skip_ws();
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::custom(format!(
            "trailing characters at byte {}",
            p.pos
        )));
    }
    T::from_value(&value)
}

fn write_value(v: &Value, indent: usize, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Number(n) => write_number(*n, out),
        Value::String(s) => write_string(s, out),
        Value::Array(items) if items.is_empty() => out.push_str("[]"),
        Value::Array(items) => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                push_indent(indent + 1, out);
                write_value(item, indent + 1, out);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            push_indent(indent, out);
            out.push(']');
        }
        Value::Object(entries) if entries.is_empty() => out.push_str("{}"),
        Value::Object(entries) => {
            out.push_str("{\n");
            for (i, (k, item)) in entries.iter().enumerate() {
                push_indent(indent + 1, out);
                write_string(k, out);
                out.push_str(": ");
                write_value(item, indent + 1, out);
                if i + 1 < entries.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            push_indent(indent, out);
            out.push('}');
        }
    }
}

fn push_indent(level: usize, out: &mut String) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        // Real serde_json errors on non-finite floats; nothing in this
        // workspace produces them, so degrade to null defensively.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n:?}"));
    }
}

fn write_string(s: &str, out: &mut String) {
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

/// Deepest array/object nesting the parser accepts (real `serde_json`'s
/// limit). It recurses once per level and its input comes from user
/// files, so unbounded nesting would overflow the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
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

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::custom(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(Error::custom(format!(
                        "recursion limit exceeded at byte {}",
                        self.pos
                    )));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.parse_object()
                } else {
                    self.parse_array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            Some(b) => Err(Error::custom(format!(
                "unexpected character `{}` at byte {}",
                b as char, self.pos
            ))),
            None => Err(Error::custom("unexpected end of input")),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(Error::custom(format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => {
                    return Err(Error::custom(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => {
                    return Err(Error::custom(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::custom("unterminated string")),
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
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let code = self.parse_hex4(self.pos + 1)?;
                            self.pos += 4;
                            let code = if (0xD800..0xDC00).contains(&code) {
                                // High surrogate: must be followed by
                                // `\uDC00`-`\uDFFF`; combine into one char.
                                if self.bytes.get(self.pos + 1) != Some(&b'\\')
                                    || self.bytes.get(self.pos + 2) != Some(&b'u')
                                {
                                    return Err(Error::custom("unpaired surrogate"));
                                }
                                let low = self.parse_hex4(self.pos + 3)?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(Error::custom("invalid low surrogate"));
                                }
                                self.pos += 6;
                                0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                code
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::custom("invalid \\u code point"))?,
                            );
                        }
                        other => return Err(Error::custom(format!("invalid escape {other:?}"))),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (multi-byte safe).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| Error::custom("invalid UTF-8 in string"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_hex4(&self, at: usize) -> Result<u32, Error> {
        let hex = self
            .bytes
            .get(at..at + 4)
            .ok_or_else(|| Error::custom("truncated \\u escape"))?;
        let hex = std::str::from_utf8(hex).map_err(|_| Error::custom("invalid \\u escape"))?;
        u32::from_str_radix(hex, 16).map_err(|_| Error::custom("invalid \\u escape"))
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let mut integral = true;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::custom("invalid number"))?;
        if integral {
            if let Ok(i) = text.parse::<i128>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| Error::custom(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let v = Value::Object(vec![
            (
                "a".into(),
                Value::Array(vec![Value::Int(1), Value::Number(2.5)]),
            ),
            ("s".into(), Value::String("he\"llo\n".into())),
            ("n".into(), Value::Null),
            ("b".into(), Value::Bool(true)),
        ]);
        struct Raw(Value);
        impl Serialize for Raw {
            fn to_value(&self) -> Value {
                self.0.clone()
            }
        }
        let text = to_string_pretty(&Raw(v.clone())).unwrap();
        let mut p = Parser::new(&text);
        p.skip_ws();
        assert_eq!(p.parse_value().unwrap(), v);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_str::<bool>("{nope").is_err());
        assert!(from_str::<bool>("true garbage").is_err());
        assert!(from_str::<Vec<u32>>("[1, 2").is_err());
    }

    #[test]
    fn nesting_is_capped_at_the_recursion_limit() {
        let parse = |text: &str| {
            let mut p = Parser::new(text);
            p.parse_value().map(drop)
        };
        let arrays = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        let objects = |depth: usize| r#"{"a":"#.repeat(depth) + "null" + &"}".repeat(depth);
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        for text in [arrays(MAX_DEPTH + 1), objects(MAX_DEPTH + 1)] {
            let err = parse(&text).unwrap_err().to_string();
            assert!(err.contains("recursion limit exceeded at byte"), "{err}");
        }
        // Unclosed and far past any stack: an error, not an abort.
        assert!(parse(&"[".repeat(200_000)).is_err());
        assert!(parse(&r#"{"a":"#.repeat(200_000)).is_err());
        // Siblings do not accumulate depth.
        assert!(from_str::<Vec<Vec<u32>>>(&format!("[{}[]]", "[1],".repeat(300))).is_ok());
    }

    #[test]
    fn parses_escapes_and_exponents() {
        let v: Vec<f64> = from_str("[1e3, -2.5E-1, 0.0]").unwrap();
        assert_eq!(v, vec![1000.0, -0.25, 0.0]);
        let s: String = from_str(r#""aA\n\t\"""#).unwrap();
        assert_eq!(s, "aA\n\t\"");
    }

    #[test]
    fn parses_surrogate_pairs() {
        // `caf\u00e9 \ud83d\ude00` == "café 😀" via an escaped surrogate pair.
        let s: String = from_str(r#""caf\u00e9 \ud83d\ude00""#).unwrap();
        assert_eq!(s, "café 😀");
        // Literal multi-byte UTF-8 passes through untouched.
        let raw: String = from_str(r#""café 😀""#).unwrap();
        assert_eq!(raw, "café 😀");
        assert!(from_str::<String>(r#""\ud83d oops""#).is_err());
        assert!(from_str::<String>(r#""\ud83dA""#).is_err());
    }

    #[test]
    fn large_integers_round_trip_exactly() {
        let big: u64 = (1 << 53) + 1; // not representable as f64
        let text = to_string_pretty(&vec![big]).unwrap();
        assert!(text.contains("9007199254740993"));
        let back: Vec<u64> = from_str(&text).unwrap();
        assert_eq!(back, vec![big]);
        assert!(from_str::<u8>("300").is_err());
    }
}

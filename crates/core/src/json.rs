//! A small recursive-descent JSON reader for the documents this
//! workspace writes: `pdc-trace` snapshots (read back by
//! [`crate::merge`]) and `pdc-check/1` schedules.
//!
//! It covers objects, arrays, strings (with `\" \\ \n \t \u` escapes,
//! matching [`crate::report::json_escape`]), numbers, and
//! `true`/`false`/`null`. A plain non-negative integer literal reads
//! exactly as a `u64` — trace payloads such as
//! [`crate::trace::MARK_STEPS`] sit above 2^53, where an `f64` would
//! round them — and only fractions, exponents and negative numbers
//! read as `f64`.

use std::collections::BTreeMap;

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An object; keys are unique (a repeated key keeps its last value).
    Object(BTreeMap<String, Value>),
    /// An array.
    Array(Vec<Value>),
    /// A string, escapes resolved.
    Str(String),
    /// A plain non-negative integer literal that fits in a `u64`.
    U64(u64),
    /// Any other number: a fraction, an exponent, a negative number, or
    /// an integer beyond `u64::MAX`.
    Num(f64),
    /// `true` or `false`.
    Bool(bool),
    /// `null`.
    Null,
}

/// Parse one JSON value from `text`.
pub fn parse(text: &str) -> Result<Value, String> {
    Parser::new(text).value()
}

impl Value {
    /// The fields, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The text, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer, if this is a plain integer literal within `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(n) => Some(*n),
            _ => None,
        }
    }
}

/// How deeply arrays and objects may nest. The workspace's documents
/// nest a few levels; the cap turns hostile input (a schedule file is
/// outside input) into an error instead of a stack overflow.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if b" \t\r\n".contains(b) {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}",
                b as char,
                self.pos.min(self.bytes.len())
            ))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nested deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                other => return Err(format!("bad object separator {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(out));
        }
        loop {
            out.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(out));
                }
                other => return Err(format!("bad array separator {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(&b) => {
                    // Multi-byte UTF-8 sequences pass through verbatim.
                    let start = self.pos;
                    let len = match b {
                        _ if b < 0x80 => 1,
                        _ if b >> 5 == 0b110 => 2,
                        _ if b >> 4 == 0b1110 => 3,
                        _ => 4,
                    };
                    let chunk = self
                        .bytes
                        .get(start..start + len)
                        .ok_or("truncated utf-8")?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        self.skip_ws();
        let start = self.pos;
        while let Some(b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || b"+-.eE".contains(b) {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Value::U64(n));
        }
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_read_exactly_and_other_numbers_as_f64() {
        let doc = parse(&format!(
            "[0, {}, {}, 1.5, 2e3, -4, 18446744073709551616]",
            u64::MAX - 1,
            u64::MAX
        ))
        .unwrap();
        let items = doc.as_array().unwrap();
        assert_eq!(items[0], Value::U64(0));
        assert_eq!(items[1].as_u64(), Some(u64::MAX - 1), "no f64 rounding");
        assert_eq!(items[2].as_u64(), Some(u64::MAX));
        assert_eq!(items[3], Value::Num(1.5));
        assert_eq!(items[4], Value::Num(2000.0));
        assert_eq!(items[5], Value::Num(-4.0));
        assert_eq!(items[6].as_u64(), None, "beyond u64 is not a u64");
    }

    #[test]
    fn objects_strings_and_literals() {
        let doc = parse(r#" {"a": "x\"y\u0041", "b": [true, false, null], "a": "z"} "#).unwrap();
        let obj = doc.as_object().unwrap();
        assert_eq!(
            obj["a"].as_str(),
            Some("z"),
            "a repeated key keeps the last"
        );
        assert_eq!(
            obj["b"],
            Value::Array(vec![Value::Bool(true), Value::Bool(false), Value::Null])
        );
        assert_eq!(parse(r#""x\"y\u0041""#).unwrap().as_str(), Some("x\"yA"));
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("[1,").is_err());
        assert!(
            parse(&"[".repeat(1 << 20)).is_err(),
            "deep nesting is an error"
        );
    }
}

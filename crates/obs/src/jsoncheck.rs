//! A dependency-free JSON parser used as a validity gate.
//!
//! Every exposition path in this workspace hand-writes JSON (the build
//! environment is offline — no serde), so the trace exporter needs an
//! independent check that what it emits actually *parses*: the ring's,
//! the global shell's and `tests/observation.rs`'s tests and the quickstart
//! run the exported document through [`validate_chrome_trace`].
//! The parser is strict RFC-8259: it rejects trailing commas, unquoted
//! keys, bare NaN/Infinity (which is exactly the bug class
//! [`crate::json::num`] exists to prevent) and trailing garbage.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Number(f64),
    /// A string, with escapes resolved.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object (key order not preserved).
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Member lookup on an object; `None` on other kinds.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parses one complete JSON document; trailing garbage is an error.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

/// Parses a JSON-lines document: one JSON value per non-empty line.
pub fn parse_lines(input: &str) -> Result<Vec<JsonValue>, String> {
    input
        .lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| parse(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// The chrome-trace validity gate: parses `doc`, requires a `traceEvents`
/// array, requires every element to carry string `name`/`ph` and (for
/// `ph:"X"` slices) numeric `ts`/`dur`, and returns the number of slice
/// events (the count CI compares against its floor).
pub fn validate_chrome_trace(doc: &str) -> Result<usize, String> {
    let root = parse(doc)?;
    let events = root
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .ok_or("no traceEvents array")?;
    let mut slices = 0;
    for (i, ev) in events.iter().enumerate() {
        let name = ev.get("name").and_then(JsonValue::as_str);
        let ph = ev.get("ph").and_then(JsonValue::as_str);
        let (Some(_), Some(ph)) = (name, ph) else {
            return Err(format!("event {i} missing name/ph"));
        };
        if ph == "X" {
            let ts = ev.get("ts").and_then(JsonValue::as_f64);
            let dur = ev.get("dur").and_then(JsonValue::as_f64);
            if ts.is_none() || dur.is_none() {
                return Err(format!("slice {i} missing numeric ts/dur"));
            }
            slices += 1;
        }
    }
    Ok(slices)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn literal(&mut self, text: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
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
            self.skip_ws();
            map.insert(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(out));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
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
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let cp = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            // Surrogate pairs are accepted but folded to
                            // the replacement character; the expositions
                            // under test never emit astral-plane escapes.
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(format!("bad escape '\\{}'", other as char));
                        }
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("raw control byte 0x{b:02x} in string"));
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8 by construction).
                    let s = &self.bytes[self.pos..];
                    let ch = std::str::from_utf8(s)
                        .ok()
                        .and_then(|s| s.chars().next())
                        .ok_or("invalid utf-8")?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(format!("number with no digits at byte {start}"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac {
                return Err(format!("number with empty fraction at byte {start}"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp {
                return Err(format!("number with empty exponent at byte {start}"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|e| format!("unparsable number {text:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_basic_kinds() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("-12.5e2").unwrap(), JsonValue::Number(-1250.0));
        assert_eq!(
            parse("\"a\\n\\\"b\\u0041\"").unwrap(),
            JsonValue::String("a\n\"bA".into())
        );
        let doc = parse("{\"a\":[1,2,{\"b\":false}],\"c\":\"\"}").unwrap();
        assert_eq!(
            doc.get("a").unwrap().as_array().unwrap()[2]
                .get("b")
                .unwrap(),
            &JsonValue::Bool(false)
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{a:1}",
            "NaN",
            "Infinity",
            "1 2",
            "\"\\x\"",
            "\"unterminated",
            "01x",
            "[1][2]",
            "{\"a\":1,}",
            "\"raw\ncontrol\"",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn obs_json_helpers_survive_the_parser() {
        // The cross-check the ISSUE asks for: nbbs-obs's hand-rolled
        // escaping must produce documents this strict parser accepts.
        let hostile = "a\"b\\c\nd\te\u{1}f";
        let doc = format!("{{\"s\":\"{}\"}}", crate::json::esc(hostile));
        assert_eq!(
            parse(&doc).unwrap().get("s").unwrap().as_str().unwrap(),
            hostile
        );
        let doc = format!("{{\"n\":{}}}", crate::json::num(f64::NAN));
        assert_eq!(parse(&doc).unwrap().get("n").unwrap(), &JsonValue::Null);
    }

    #[test]
    fn chrome_gate_counts_slices_and_rejects_shapeless_docs() {
        let good = "{\"traceEvents\":[\
            {\"name\":\"process_name\",\"ph\":\"M\",\"args\":{}},\
            {\"name\":\"alloc\",\"ph\":\"X\",\"ts\":1.5,\"dur\":0.2}]}";
        assert_eq!(validate_chrome_trace(good), Ok(1));
        assert!(validate_chrome_trace("{}").is_err());
        assert!(
            validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err(),
            "nameless event"
        );
        assert!(
            validate_chrome_trace("{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\",\"ts\":1}]}")
                .is_err(),
            "slice without dur"
        );
    }

    #[test]
    fn json_lines_parse_per_line() {
        let ok = parse_lines("{\"a\":1}\n\n{\"a\":2}\n").unwrap();
        assert_eq!(ok.len(), 2);
        assert!(parse_lines("{\"a\":1}\n{oops}").is_err());
    }
}

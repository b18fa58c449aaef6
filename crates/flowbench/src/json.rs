//! Hand-written JSON: the result emitter and the small reader the
//! comparison commands use. `serde_json` is a typecheck-only stub in the
//! registry-less container, so the benchmark cannot call it.

use std::fmt::Write as _;

/// A parsed JSON value. Objects keep their keys in file order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn members(&self) -> &[(String, Value)] {
        match self {
            Value::Obj(members) => members,
            _ => &[],
        }
    }

    pub fn items(&self) -> &[Value] {
        match self {
            Value::Arr(items) => items,
            _ => &[],
        }
    }
}

/// Appends `s` as a JSON string literal.
pub fn push_str_literal(out: &mut String, s: &str) {
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

/// Appends a number with every digit it was measured with (the shortest
/// text that reads back to the same `f64`). JSON has no NaN or infinity;
/// a non-finite measurement is written as 0 and is a bug upstream.
pub fn push_num(out: &mut String, n: f64) {
    if n.is_finite() {
        let _ = write!(out, "{n}");
    } else {
        out.push('0');
    }
}

/// One `"name": {"value": v, "unit": "u"}` member list, in the given order.
pub fn metrics_object(metrics: &[(&str, f64, &str)]) -> String {
    let mut out = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_str_literal(&mut out, name);
        out.push_str(": {\"value\": ");
        push_num(&mut out, *value);
        out.push_str(", \"unit\": ");
        push_str_literal(&mut out, unit);
        out.push('}');
    }
    out.push('}');
    out
}

/// Parses one JSON document.
///
/// # Errors
///
/// Returns the byte offset and a reason for malformed input.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("JSON error at byte {}: {what}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("unknown literal"))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        // Result files come from disk: bound the nesting a file can ask for.
        if self.depth > 32 {
            return Err(self.err("nested too deeply"));
        }
        match self.bytes.get(self.pos) {
            Some(b'{') => {
                self.pos += 1;
                self.depth += 1;
                let mut members = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                } else {
                    loop {
                        self.skip_ws();
                        let key = self.string()?;
                        self.skip_ws();
                        self.eat(b':')?;
                        members.push((key, self.value()?));
                        self.skip_ws();
                        if self.bytes.get(self.pos) == Some(&b',') {
                            self.pos += 1;
                        } else {
                            self.eat(b'}')?;
                            break;
                        }
                    }
                }
                self.depth -= 1;
                Ok(Value::Obj(members))
            }
            Some(b'[') => {
                self.pos += 1;
                self.depth += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                } else {
                    loop {
                        items.push(self.value()?);
                        self.skip_ws();
                        if self.bytes.get(self.pos) == Some(&b',') {
                            self.pos += 1;
                        } else {
                            self.eat(b']')?;
                            break;
                        }
                    }
                }
                self.depth -= 1;
                Ok(Value::Arr(items))
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => {
                let start = self.pos;
                while matches!(
                    self.bytes.get(self.pos),
                    Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                ) {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Value::Num)
                    .ok_or_else(|| self.err("malformed number"))
            }
            _ => Err(self.err("expected a value")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' | b'\\' | b'/' => out.push(esc),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("malformed \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs never occur in our own
                            // output; a lone one reads as U+FFFD.
                            let c = char::from_u32(hex).unwrap_or('\u{fffd}');
                            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                b => out.push(b),
            }
        }
        String::from_utf8(out).map_err(|_| self.err("string is not UTF-8"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emitter_output_reads_back_digit_for_digit() {
        let text = metrics_object(&[
            ("delay_p50_ms", 0.034_217_5, "ms"),
            ("items_per_s", 10_000.25, "1/s"),
            ("tiny", 1.0e-9, "s"),
        ]);
        let v = parse(&text).expect("emitter writes valid JSON");
        let m = v.get("delay_p50_ms").expect("member present");
        assert_eq!(m.get("value").and_then(Value::as_f64), Some(0.034_217_5));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some("ms"));
        assert_eq!(
            v.get("tiny")
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64),
            Some(1.0e-9)
        );
        assert_eq!(v.members().len(), 3);
        assert!(!text.contains("e-"), "plain decimals only: {text}");
    }

    #[test]
    fn strings_escape_and_unescape() {
        let mut out = String::new();
        push_str_literal(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(parse(&out), Ok(Value::Str("a\"b\\c\nd\u{1}".to_owned())));
    }

    #[test]
    fn non_finite_numbers_never_reach_the_file() {
        let mut out = String::new();
        push_num(&mut out, f64::NAN);
        assert_eq!(out, "0");
    }

    #[test]
    fn parser_reads_nested_documents_and_rejects_garbage() {
        let v = parse(r#" {"a": [1, 2.5, -3e2, true, null], "b": {"c": "x"}} "#).expect("valid");
        assert_eq!(v.get("a").map(|a| a.items().len()), Some(5));
        assert_eq!(v.get("a").and_then(|a| a.items()[2].as_f64()), Some(-300.0));
        assert_eq!(v.get("a").and_then(|a| a.items()[3].as_bool()), Some(true));
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(Value::as_str),
            Some("x")
        );
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("{} x").is_err());
        assert!(parse(&"[".repeat(100)).is_err());
    }
}

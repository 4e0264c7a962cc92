//! A minimal JSON reader (no registry access, so no serde): enough to
//! read `BENCHMARK.json`, a run's result line, and a trace file.

use std::collections::BTreeMap;

#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(BTreeMap<String, Value>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(text) => Some(text),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(number) => Some(*number),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(flag) => Some(*flag),
            _ => None,
        }
    }
}

/// Parses one JSON document; `None` on any syntax error or trailing
/// garbage.
pub fn parse(text: &str) -> Option<Value> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        at: 0,
    };
    let value = parser.value()?;
    parser.skip_space();
    (parser.at == parser.bytes.len()).then_some(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_space(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> Option<()> {
        let end = self.at + literal.len();
        (self.bytes.get(self.at..end)? == literal.as_bytes()).then(|| self.at = end)
    }

    fn value(&mut self) -> Option<Value> {
        self.skip_space();
        match *self.bytes.get(self.at)? {
            b'n' => self.eat("null").map(|()| Value::Null),
            b't' => self.eat("true").map(|()| Value::Bool(true)),
            b'f' => self.eat("false").map(|()| Value::Bool(false)),
            b'"' => self.string().map(Value::String),
            b'[' => {
                self.at += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_space();
                    if self.eat("]").is_some() {
                        return Some(Value::Array(items));
                    }
                    if !items.is_empty() {
                        self.eat(",")?;
                    }
                    items.push(self.value()?);
                }
            }
            b'{' => {
                self.at += 1;
                let mut map = BTreeMap::new();
                loop {
                    self.skip_space();
                    if self.eat("}").is_some() {
                        return Some(Value::Object(map));
                    }
                    if !map.is_empty() {
                        self.eat(",")?;
                        self.skip_space();
                    }
                    let key = self.string()?;
                    self.skip_space();
                    self.eat(":")?;
                    map.insert(key, self.value()?);
                }
            }
            _ => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.at])
                    .ok()?
                    .parse()
                    .ok()
                    .map(Value::Number)
            }
        }
    }

    fn string(&mut self) -> Option<String> {
        self.eat("\"")?;
        let mut out = Vec::new();
        loop {
            match *self.bytes.get(self.at)? {
                b'"' => {
                    self.at += 1;
                    return String::from_utf8(out).ok();
                }
                b'\\' => {
                    let escaped = *self.bytes.get(self.at + 1)?;
                    self.at += 2;
                    match escaped {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex =
                                std::str::from_utf8(self.bytes.get(self.at..self.at + 4)?).ok()?;
                            let code = u32::from_str_radix(hex, 16).ok()?;
                            let mut buffer = [0u8; 4];
                            out.extend_from_slice(
                                char::from_u32(code)?.encode_utf8(&mut buffer).as_bytes(),
                            );
                            self.at += 4;
                        }
                        other => out.push(other),
                    }
                }
                byte => {
                    out.push(byte);
                    self.at += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_shapes_the_benchmark_reads() {
        let value = parse(
            r#"{"correct": true, "attempted": 12, "metrics": {"a_ms": {"value": 1.5e-3, "unit": "ms"}},
               "list": [1, -2.5, "x\"y", null, false]}"#,
        )
        .unwrap();
        assert_eq!(value.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(value.get("attempted").and_then(Value::as_f64), Some(12.0));
        let metric = value.get("metrics").and_then(|m| m.get("a_ms")).unwrap();
        assert_eq!(metric.get("value").and_then(Value::as_f64), Some(0.0015));
        assert_eq!(metric.get("unit").and_then(Value::as_str), Some("ms"));
        let list = value.get("list").and_then(Value::as_array).unwrap();
        assert_eq!(list[2].as_str(), Some("x\"y"));
        assert_eq!(list[3], Value::Null);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "{} x", "\"open"] {
            assert_eq!(parse(bad), None, "{bad}");
        }
    }
}

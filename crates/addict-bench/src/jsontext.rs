//! Minimal hand-rolled JSON text layer for job specs and results.
//!
//! The workspace is offline (vendor/ carries stand-ins, not real serde),
//! so the service protocol hand-rolls its wire format: a strict subset of
//! JSON — objects, arrays, strings, integers/floats, booleans, null —
//! parsed by a ~150-line recursive-descent reader. Numbers keep their raw
//! token so integer fields (`n_xcts`, seeds) never round-trip through an
//! `f64`. This is deliberately *not* a general JSON library: duplicate
//! keys are rejected (a job spec with two `n_xcts` fields is as ambiguous
//! as two `--xcts` flags), `\uXXXX` escapes are out of scope for the
//! ASCII identifiers the protocol carries, and nesting deeper than
//! [`MAX_DEPTH`] is an error rather than a stack overflow.

/// Deepest accepted nesting of arrays and objects. Protocol documents nest
/// at most a few levels (a job spec three); the limit keeps a body of
/// nothing but `[` from recursing the reader off its thread's stack.
pub const MAX_DEPTH: usize = 32;

/// A parsed JSON value. Numbers keep their raw text.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its raw token (`"60"`, `"1.5e3"`).
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in declaration order (keys are unique).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parse a complete JSON document (trailing garbage is an error).
    pub fn parse(s: &str) -> Result<JsonValue, String> {
        let b = s.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(b, &mut pos, 0)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing characters at byte {pos}"));
        }
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object's fields, or an error naming `what`.
    pub fn as_obj(&self, what: &str) -> Result<&[(String, JsonValue)], String> {
        match self {
            JsonValue::Obj(f) => Ok(f),
            _ => Err(format!("{what} must be an object")),
        }
    }

    /// The array's elements, or an error naming `what`.
    pub fn as_arr(&self, what: &str) -> Result<&[JsonValue], String> {
        match self {
            JsonValue::Arr(v) => Ok(v),
            _ => Err(format!("{what} must be an array")),
        }
    }

    /// The string's contents, or an error naming `what`.
    pub fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            JsonValue::Str(s) => Ok(s),
            _ => Err(format!("{what} must be a string")),
        }
    }

    /// The boolean, or an error naming `what`.
    pub fn as_bool(&self, what: &str) -> Result<bool, String> {
        match self {
            JsonValue::Bool(b) => Ok(*b),
            _ => Err(format!("{what} must be a boolean")),
        }
    }

    /// The number as a non-negative integer, or an error naming `what`
    /// (floats and negatives are rejected — sizes and seeds are counts).
    pub fn as_u64(&self, what: &str) -> Result<u64, String> {
        match self {
            JsonValue::Num(raw) => raw
                .parse::<u64>()
                .map_err(|_| format!("{what} must be a non-negative integer, got {raw:?}")),
            _ => Err(format!("{what} must be a number")),
        }
    }

    /// The number as an `f64`, or an error naming `what`.
    pub fn as_f64(&self, what: &str) -> Result<f64, String> {
        match self {
            JsonValue::Num(raw) => raw
                .parse::<f64>()
                .map_err(|_| format!("{what} is not a valid number: {raw:?}")),
            _ => Err(format!("{what} must be a number")),
        }
    }
}

/// Escape a string for embedding in JSON output.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected {:?} at byte {}, found {:?}",
            c as char,
            *pos,
            b.get(*pos).map(|&x| x as char)
        ))
    }
}

/// Parse one value; `depth` counts the arrays and objects enclosing it.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        )),
        Some(b'{') => parse_obj(b, pos, depth + 1),
        Some(b'[') => parse_arr(b, pos, depth + 1),
        Some(b'"') => Ok(JsonValue::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", JsonValue::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_num(b, pos),
        Some(&c) => Err(format!("unexpected {:?} at byte {}", c as char, *pos)),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("malformed literal at byte {}", *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let raw = std::str::from_utf8(&b[start..*pos]).expect("ascii number token");
    // Validate the token now so `Num` always holds something parseable.
    raw.parse::<f64>()
        .map_err(|_| format!("malformed number {raw:?} at byte {start}"))?;
    Ok(JsonValue::Num(raw.to_owned()))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = Vec::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_owned()),
            Some(b'"') => {
                *pos += 1;
                return String::from_utf8(out).map_err(|_| "invalid UTF-8 in string".to_owned());
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = b.get(*pos).ok_or("unterminated escape")?;
                out.push(match esc {
                    b'"' => b'"',
                    b'\\' => b'\\',
                    b'/' => b'/',
                    b'n' => b'\n',
                    b'r' => b'\r',
                    b't' => b'\t',
                    c => return Err(format!("unsupported escape \\{}", *c as char)),
                });
                *pos += 1;
            }
            Some(&c) => {
                out.push(c);
                *pos += 1;
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    expect(b, pos, b'{')?;
    let mut fields: Vec<(String, JsonValue)> = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        if fields.iter().any(|(k, _)| *k == key) {
            return Err(format!("duplicate key {key:?}"));
        }
        expect(b, pos, b':')?;
        let value = parse_value(b, pos, depth)?;
        fields.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = JsonValue::parse(
            r#" { "a": [1, 2.5, -3], "b": "x\"y\n", "c": true, "d": null, "e": {} } "#,
        )
        .unwrap();
        assert_eq!(v.get("a").unwrap().as_arr("a").unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_arr("a").unwrap()[0]
                .as_u64("a[0]")
                .unwrap(),
            1
        );
        assert_eq!(v.get("b").unwrap().as_str("b").unwrap(), "x\"y\n");
        assert!(v.get("c").unwrap().as_bool("c").unwrap());
        assert_eq!(v.get("d"), Some(&JsonValue::Null));
        assert_eq!(v.get("e").unwrap().as_obj("e").unwrap().len(), 0);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "{\"a\": 1} extra",
            "{\"a\": 1, \"a\": 2}", // duplicate keys are ambiguous
            "\"\\u0041\"",          // \u escapes are out of protocol scope
            "{'a': 1}",
            "01a",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_limited_not_a_stack_overflow() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(JsonValue::parse(&nested(MAX_DEPTH)).is_ok());
        let err = JsonValue::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(JsonValue::parse(&objects).is_err());
        // A whole maximum-size request body of `[` is one short error.
        let err = JsonValue::parse(&"[".repeat(1 << 20)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
    }

    #[test]
    fn integers_do_not_round_trip_through_f64() {
        let v = JsonValue::parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64("n").unwrap(), u64::MAX);
        assert!(JsonValue::parse("1.5").unwrap().as_u64("n").is_err());
        assert!(JsonValue::parse("-1").unwrap().as_u64("n").is_err());
    }

    #[test]
    fn escape_round_trips() {
        // Protocol strings are ASCII identifiers plus the odd quote,
        // backslash, or whitespace escape.
        let t = "TPC-B baseline \"x\" \\ tab\t line\n";
        let doc = format!("\"{}\"", escape(t));
        assert_eq!(JsonValue::parse(&doc).unwrap().as_str("t").unwrap(), t);
    }
}

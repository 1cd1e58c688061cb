//! A minimal JSON layer for the serving stack.
//!
//! The build environment is offline (no serde), so the wire protocol
//! and the load-generator artifact share this hand-rolled
//! parser/renderer. It covers the whole JSON grammar —
//! objects, arrays, strings, numbers, booleans, null — which is what
//! lets the protocol accept *batch* request lines (a JSON array of
//! request objects) next to plain flat objects.
//!
//! Rendering is deterministic: objects render in insertion order and
//! integral numbers render without a fractional part, so a value that
//! round-trips through [`parse`] and [`Json::render`] is byte-stable.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers included).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (keys are not deduplicated; lookups
    /// find the first occurrence).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first occurrence), `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a `u32`, when it is a non-negative integer in
    /// range.
    pub fn as_u32(&self) -> Option<u32> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u32::MAX as f64 => {
                Some(*n as u32)
            }
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// True for `Json::Obj`.
    pub fn is_obj(&self) -> bool {
        matches!(self, Json::Obj(_))
    }

    /// Renders the value back to compact JSON (insertion-ordered keys,
    /// integral numbers without a fraction).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => out.push_str(&escape(s)),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&escape(k));
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Escapes a string as a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Parses one complete JSON value; trailing non-whitespace is an error.
///
/// # Errors
///
/// A human-readable message with the byte offset of the problem.
pub fn parse(text: &str) -> Result<Json, String> {
    let b = text.as_bytes();
    let mut i = 0usize;
    skip_ws(b, &mut i);
    let v = parse_value(b, &mut i, 0)?;
    skip_ws(b, &mut i);
    if i != b.len() {
        return Err(err("trailing bytes after value", i));
    }
    Ok(v)
}

/// Nesting depth cap: the protocol is flat-plus-batches, so anything
/// deeper than this is garbage (and a stack-overflow guard besides).
const MAX_DEPTH: usize = 32;

fn err(msg: &str, at: usize) -> String {
    format!("{msg} at byte {at}")
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && (b[*i] as char).is_ascii_whitespace() {
        *i += 1;
    }
}

fn parse_value(b: &[u8], i: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(err("value nested too deeply", *i));
    }
    match b.get(*i) {
        Some(b'{') => parse_obj(b, i, depth),
        Some(b'[') => parse_arr(b, i, depth),
        Some(b'"') => Ok(Json::Str(parse_string(b, i)?)),
        Some(b't') if b[*i..].starts_with(b"true") => {
            *i += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*i..].starts_with(b"false") => {
            *i += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*i..].starts_with(b"null") => {
            *i += 4;
            Ok(Json::Null)
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_num(b, i),
        _ => Err(err("expected a value", *i)),
    }
}

fn parse_obj(b: &[u8], i: &mut usize, depth: usize) -> Result<Json, String> {
    *i += 1; // consume `{`
    let mut fields = Vec::new();
    skip_ws(b, i);
    if b.get(*i) == Some(&b'}') {
        *i += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, i);
        let key = parse_string(b, i)?;
        skip_ws(b, i);
        if b.get(*i) != Some(&b':') {
            return Err(err("expected `:`", *i));
        }
        *i += 1;
        skip_ws(b, i);
        let val = parse_value(b, i, depth + 1)?;
        fields.push((key, val));
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b'}') => {
                *i += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(err("expected `,` or `}`", *i)),
        }
    }
}

fn parse_arr(b: &[u8], i: &mut usize, depth: usize) -> Result<Json, String> {
    *i += 1; // consume `[`
    let mut items = Vec::new();
    skip_ws(b, i);
    if b.get(*i) == Some(&b']') {
        *i += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        skip_ws(b, i);
        items.push(parse_value(b, i, depth + 1)?);
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b']') => {
                *i += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err("expected `,` or `]`", *i)),
        }
    }
}

fn parse_num(b: &[u8], i: &mut usize) -> Result<Json, String> {
    let start = *i;
    while *i < b.len()
        && (b[*i].is_ascii_digit()
            || b[*i] == b'-'
            || b[*i] == b'+'
            || b[*i] == b'.'
            || b[*i] == b'e'
            || b[*i] == b'E')
    {
        *i += 1;
    }
    std::str::from_utf8(&b[start..*i])
        .ok()
        .and_then(|s| s.parse().ok())
        .map(Json::Num)
        .ok_or_else(|| err("bad number", start))
}

fn parse_string(b: &[u8], i: &mut usize) -> Result<String, String> {
    if b.get(*i) != Some(&b'"') {
        return Err(err("expected string", *i));
    }
    *i += 1;
    let mut s = String::new();
    loop {
        match b.get(*i) {
            None => return Err(err("unterminated string", *i)),
            Some(b'"') => {
                *i += 1;
                return Ok(s);
            }
            Some(b'\\') => {
                *i += 1;
                match b.get(*i) {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'n') => s.push('\n'),
                    Some(b'r') => s.push('\r'),
                    Some(b't') => s.push('\t'),
                    Some(b'u') => {
                        let hex = b
                            .get(*i + 1..*i + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| err("bad \\u escape", *i))?;
                        let v =
                            u32::from_str_radix(hex, 16).map_err(|_| err("bad \\u escape", *i))?;
                        s.push(char::from_u32(v).ok_or_else(|| err("bad \\u escape", *i))?);
                        *i += 4;
                    }
                    _ => return Err(err("bad escape", *i)),
                }
                *i += 1;
            }
            Some(&c) => {
                // Collect the full UTF-8 sequence.
                let ch_len = match c {
                    0x00..=0x7f => 1,
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                let chunk = b
                    .get(*i..*i + ch_len)
                    .and_then(|ch| std::str::from_utf8(ch).ok())
                    .ok_or_else(|| err("bad UTF-8", *i))?;
                s.push_str(chunk);
                *i += ch_len;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "42", "-7", "3.5", "\"hi\""] {
            let v = parse(text).unwrap();
            assert_eq!(v.render(), text, "{text}");
        }
    }

    #[test]
    fn objects_and_arrays_round_trip_in_order() {
        let text = r#"{"b":1,"a":[{"x":null},true,"s"],"c":{"d":2.5}}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.render(), text);
        assert_eq!(v.get("b").unwrap().as_u32(), Some(1));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn strings_escape_and_unescape() {
        let v = parse(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA"));
        assert_eq!(v.render(), r#""a\"b\\c\ndA""#);
    }

    #[test]
    fn errors_carry_offsets() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "1 2", "{\"a\":}"] {
            let e = parse(bad).unwrap_err();
            assert!(e.contains("at byte"), "{bad}: {e}");
        }
    }

    #[test]
    fn depth_is_bounded() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        let e = parse(&deep).unwrap_err();
        assert!(e.contains("too deeply"), "{e}");
        let ok = "[".repeat(10) + &"]".repeat(10);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn integral_floats_render_as_integers() {
        assert_eq!(parse("2.0").unwrap().render(), "2");
        assert_eq!(parse("1e3").unwrap().render(), "1000");
    }
}

//! The workspace's one JSON reader and writer.
//!
//! Every artifact that carries a run's measurements is JSON — the
//! Chrome trace, [`RunReport::to_json`](crate::telemetry::RunReport::to_json),
//! the structured log lines, the bench documents, and the `linkclustd`
//! line protocol and its stats — and all of them are written with
//! [`write_escaped`] and [`write_f64`] and read back with [`parse`]
//! (the daemon's ingress, the trace analyzer and the `xtask` gates).
//! The workspace policy forbids external dependencies, so the crate
//! carries its own codec. It is deliberately small and strict: the RFC
//! 8259 value grammar (numbers without leading zeros and with at least
//! one digit after `.` and after the exponent), full `\u` escape and
//! surrogate-pair decoding, and no extensions (no comments, no trailing
//! commas, no NaN/Infinity). Protocol requests are untrusted input —
//! every malformed byte sequence must come back as `Err`, never a panic.

use std::fmt::Write as _;

/// A parsed JSON value. Object member order is preserved.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object; `None` for missing keys or
    /// non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric value as a non-negative integer, if this is a number
    /// that is a whole number in `[0, 2^53]` (exactly representable).
    #[must_use]
    pub fn as_index(&self) -> Option<u64> {
        let x = self.as_f64()?;
        // float-cmp: exact range/wholeness test (NaN fails `contains`) —
        // any rounding would silently accept a different id than the
        // client sent.
        #[allow(clippy::float_cmp)]
        if (0.0..=9_007_199_254_740_992.0).contains(&x) && x.trunc() == x {
            // cast: x is a whole number in [0, 2^53], exact in u64
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Some(x as u64)
        } else {
            None
        }
    }
}

/// Parses one JSON document, requiring it to span the whole input
/// (ignoring surrounding whitespace).
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error.
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(value)
}

/// Nesting depth limit: hostile inputs must not overflow the stack.
const MAX_DEPTH: usize = 64;

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(&b) = bytes.get(*pos) {
        if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err("nesting too deep".to_owned());
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Json,
) -> Result<Json, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |bytes: &[u8], pos: &mut usize| {
        let s = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > s
    };
    // Integer part: a lone 0, or a nonzero-led digit run.
    match bytes.get(*pos) {
        Some(b'0') => *pos += 1,
        Some(b'1'..=b'9') => {
            digits(bytes, pos);
        }
        _ => return Err(format!("invalid number at byte {start}")),
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(bytes, pos) {
            return Err(format!("invalid number at byte {start}"));
        }
    }
    if matches!(bytes.get(*pos), Some(&b'e' | &b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(&b'+' | &b'-')) {
            *pos += 1;
        }
        if !digits(bytes, pos) {
            return Err(format!("invalid number at byte {start}"));
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "non-utf8 number")?;
    let x: f64 = text.parse().map_err(|_| format!("unparsable number {text:?}"))?;
    if !x.is_finite() {
        return Err(format!("number out of range: {text}"));
    }
    Ok(Json::Num(x))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_owned()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = bytes.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
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
                        let cp = parse_hex4(bytes, pos)?;
                        let ch = if (0xD800..0xDC00).contains(&cp) {
                            // High surrogate: require a following \uXXXX low half.
                            if bytes.get(*pos) != Some(&b'\\') || bytes.get(*pos + 1) != Some(&b'u')
                            {
                                return Err("lone high surrogate".to_owned());
                            }
                            *pos += 2;
                            let low = parse_hex4(bytes, pos)?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err("invalid low surrogate".to_owned());
                            }
                            let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                            char::from_u32(combined).ok_or("invalid surrogate pair")?
                        } else {
                            char::from_u32(cp).ok_or("lone low surrogate")?
                        };
                        out.push(ch);
                    }
                    other => return Err(format!("invalid escape \\{}", *other as char)),
                }
            }
            Some(&b) if b < 0x20 => return Err("control character in string".to_owned()),
            Some(_) => {
                // Copy one run of plain bytes up to the next quote,
                // backslash or control byte. All three are ASCII, so the
                // run ends on a char boundary of the `&str` input and
                // validating it costs time linear in the run alone.
                let start = *pos;
                while bytes.get(*pos).is_some_and(|&b| b != b'"' && b != b'\\' && b >= 0x20) {
                    *pos += 1;
                }
                out.push_str(
                    std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "invalid utf-8")?,
                );
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
    let mut cp = 0u32;
    for _ in 0..4 {
        let b = bytes.get(*pos).ok_or("unterminated \\u escape")?;
        let digit = match b {
            b'0'..=b'9' => u32::from(b - b'0'),
            b'a'..=b'f' => u32::from(b - b'a') + 10,
            b'A'..=b'F' => u32::from(b - b'A') + 10,
            _ => return Err("invalid hex digit in \\u escape".to_owned()),
        };
        cp = cp * 16 + digit;
        *pos += 1;
    }
    Ok(cp)
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        skip_ws(bytes, pos);
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // consume '{'
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {}", *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {}", *pos));
        }
        *pos += 1;
        skip_ws(bytes, pos);
        let value = parse_value(bytes, pos, depth + 1)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

/// Appends `s` to `out` as a JSON string literal (quoted and escaped).
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            // cast: char scalar values are at most 0x10FFFF, lossless in u32
            c if (c as u32) < 0x20 => {
                // cast: same lossless char-to-u32 widening as the guard above
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `x` to `out` as a JSON number: `{:?}`, the shortest form that
/// parses back to the same bits (`1.0`, `0.1`, `1e-7`, `-0.0`), which is
/// valid JSON for every finite value. Non-finite values, which JSON
/// cannot represent, render as `null`.
pub fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x:?}");
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_request_objects() {
        let v = parse(r#"{"op":"cut","theta":0.25}"#).unwrap();
        assert_eq!(v.get("op").unwrap().as_str(), Some("cut"));
        assert_eq!(v.get("theta").unwrap().as_f64(), Some(0.25));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn parses_nested_values_and_escapes() {
        let v =
            parse(r#"{"a":[1,2.5,-3e2,true,false,null],"s":"x\n\"\u0041\ud83d\ude00"}"#).unwrap();
        let Json::Arr(items) = v.get("a").unwrap() else { panic!("not an array") };
        assert_eq!(items.len(), 6);
        assert_eq!(items[2].as_f64(), Some(-300.0));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x\n\"A\u{1F600}"));
    }

    #[test]
    fn accepts_well_formed_documents() {
        for ok in [
            "null",
            " true ",
            "-0.5e+10",
            "[]",
            "{}",
            "{\"a\":[1,2,{\"b\":null}],\"c\":\"x\\u00e9\\n\"}",
            "3",
            "0",
            "-0",
            "0.5",
            "10",
            "1E-2",
        ] {
            parse(ok).unwrap_or_else(|e| panic!("rejected {ok:?}: {e}"));
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "NaN",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "{'a':1}",
            "{a:1}",
            "{\"a\":1,}",
            "01x",
            "1.2.3",
            "\"unterminated",
            "\"\\u12\"",
            "\"\\ud800\"",
            "nul",
            "truefalse",
            "{\"a\":1} extra",
            "[1] trailing",
            "1e999",
            // RFC 8259 numbers: no leading zeros, a digit on both sides
            // of the point, a digit after the exponent.
            "01",
            "-01",
            "[01]",
            "{\"a\":007}",
            "1.",
            "-.5",
            ".5",
            "1e",
            "1e+",
            "-",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_rejected_without_stack_overflow() {
        let hostile = "[".repeat(10_000) + &"]".repeat(10_000);
        assert!(parse(&hostile).is_err());
    }

    #[test]
    fn as_index_accepts_exact_whole_numbers_only() {
        assert_eq!(parse("7").unwrap().as_index(), Some(7));
        assert_eq!(parse("0").unwrap().as_index(), Some(0));
        assert_eq!(parse("7.5").unwrap().as_index(), None);
        assert_eq!(parse("-1").unwrap().as_index(), None);
        assert_eq!(parse("1e300").unwrap().as_index(), None);
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // One MiB of ASCII, then one MiB of 2-, 3- and 4-byte scalars
        // with escapes mixed in. Re-validating the rest of the input per
        // scalar made this quadratic (30 s and 150 s in a debug build);
        // linear takes milliseconds, so the bound only trips on a
        // regression.
        let ascii = "a".repeat(1 << 20);
        let multi = "é€😀\\n".repeat((1 << 20) / 12);
        for (body, expected) in
            [(ascii.clone(), ascii), (multi.clone(), multi.replace("\\n", "\n"))]
        {
            let start = std::time::Instant::now();
            let parsed = parse(&format!("\"{body}\"")).unwrap();
            assert_eq!(parsed.as_str(), Some(expected.as_str()));
            assert!(start.elapsed().as_secs() < 5, "took {:?}", start.elapsed());
        }
    }

    #[test]
    fn writer_escapes_and_round_trips() {
        let mut out = String::new();
        write_escaped(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(parse(&out).unwrap().as_str(), Some("a\"b\\c\nd\u{1}"));
        let mut num = String::new();
        write_f64(&mut num, 0.1);
        assert_eq!(parse(&num).unwrap().as_f64(), Some(0.1));
        num.clear();
        write_f64(&mut num, 2.0);
        assert_eq!(num, "2.0");
        let mut nan = String::new();
        write_f64(&mut nan, f64::NAN);
        assert_eq!(nan, "null");
    }
}

//! The one JSON codec of the workspace.
//!
//! The repository is dependency-free by policy, so every JSON string it
//! writes goes through [`escape_json`], every JSON string it reads back
//! through [`unquote`], and every flat request-style object through
//! [`flat_object`]. [`validate_json`] checks whole documents in tests and
//! the CI harnesses.

/// Escapes a string for a JSON string literal (quotes not included).
pub fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Decodes the JSON string literal at the head of `s` (opening quote
/// included); returns the decoded text and the rest after the closing
/// quote. A `\u` escape of a UTF-16 high surrogate must be followed by
/// one of a low surrogate, and the pair decodes to one character; a lone
/// or reversed surrogate is malformed.
pub fn unquote(s: &str) -> Option<(String, &str)> {
    let rest = s.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Some((out, &rest[i + 1..])),
            '\\' => match chars.next()?.1 {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                '/' => out.push('/'),
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'r' => out.push('\r'),
                'b' => out.push('\u{8}'),
                'f' => out.push('\u{c}'),
                'u' => {
                    let code = match hex4(&mut chars)? {
                        high @ 0xD800..=0xDBFF => {
                            if chars.next()?.1 != '\\' || chars.next()?.1 != 'u' {
                                return None;
                            }
                            let low = hex4(&mut chars)?;
                            if !(0xDC00..=0xDFFF).contains(&low) {
                                return None;
                            }
                            0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
                        }
                        code => code,
                    };
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            _ => out.push(c),
        }
    }
    None
}

/// The four hex digits of a `\u` escape.
fn hex4(chars: &mut std::str::CharIndices<'_>) -> Option<u32> {
    let mut code = 0;
    for _ in 0..4 {
        code = code * 16 + chars.next()?.1.to_digit(16)?;
    }
    Some(code)
}

/// One value of a [`flat_object`].
#[derive(Debug, PartialEq, Eq)]
pub enum Value {
    /// A JSON string.
    Str(String),
    /// A non-negative JSON integer.
    Num(u64),
}

/// Reads one flat JSON object whose values are strings or non-negative
/// integers — the shape of serve requests — and returns its fields in
/// order. A repeated key is an error: the two values would
/// otherwise silently resolve to whichever the caller reads last.
pub fn flat_object(s: &str) -> Result<Vec<(String, Value)>, String> {
    let rest = s
        .trim()
        .strip_prefix('{')
        .ok_or("request must be a JSON object")?;
    let mut rest = rest.trim_start();
    let mut fields = Vec::new();
    // Keys seen so far: a line from a client may carry any number of them.
    let mut seen = std::collections::HashSet::new();
    if let Some(r) = rest.strip_prefix('}') {
        return if r.trim().is_empty() {
            Ok(fields)
        } else {
            Err("trailing data after object".to_string())
        };
    }
    loop {
        let (key, r) = unquote(rest.trim_start()).ok_or("expected a string key")?;
        if !seen.insert(key.clone()) {
            return Err(format!("duplicate field `{key}`"));
        }
        let r = r
            .trim_start()
            .strip_prefix(':')
            .ok_or("expected `:` after key")?;
        let r = r.trim_start();
        let (val, r) = if r.starts_with('"') {
            let (v, r) = unquote(r).ok_or("unterminated string value")?;
            (Value::Str(v), r)
        } else {
            let end = r.find(|c: char| !c.is_ascii_digit()).unwrap_or(r.len());
            if end == 0 {
                return Err(format!("unsupported value for `{key}`"));
            }
            let n = r[..end]
                .parse()
                .map_err(|e| format!("bad number for `{key}`: {e}"))?;
            (Value::Num(n), &r[end..])
        };
        fields.push((key, val));
        let r = r.trim_start();
        if let Some(r2) = r.strip_prefix(',') {
            rest = r2;
            continue;
        }
        return match r.strip_prefix('}') {
            Some(r2) if r2.trim().is_empty() => Ok(fields),
            Some(_) => Err("trailing data after object".to_string()),
            None => Err("expected `,` or `}`".to_string()),
        };
    }
}

/// Checks that `s` is one well-formed JSON document (objects, arrays,
/// strings, numbers, booleans, null). Used by the trace, event and
/// diagnostics tests and the CI `trace_check`/`obs_check` harnesses; this
/// is a validator, not a parser — it builds no value tree.
///
/// # Errors
///
/// Returns a byte offset and message for the first violation.
pub fn validate_json(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut i = 0usize;
    skip_ws(b, &mut i);
    validate_value(b, &mut i)?;
    skip_ws(b, &mut i);
    if i != b.len() {
        return Err(format!("trailing data at byte {i}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn validate_value(b: &[u8], i: &mut usize) -> Result<(), String> {
    let Some(&c) = b.get(*i) else {
        return Err(format!("unexpected end of input at byte {i}"));
    };
    match c {
        b'{' => {
            *i += 1;
            skip_ws(b, i);
            if b.get(*i) == Some(&b'}') {
                *i += 1;
                return Ok(());
            }
            loop {
                skip_ws(b, i);
                validate_string(b, i)?;
                skip_ws(b, i);
                if b.get(*i) != Some(&b':') {
                    return Err(format!("expected `:` at byte {i}"));
                }
                *i += 1;
                skip_ws(b, i);
                validate_value(b, i)?;
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b'}') => {
                        *i += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {i}")),
                }
            }
        }
        b'[' => {
            *i += 1;
            skip_ws(b, i);
            if b.get(*i) == Some(&b']') {
                *i += 1;
                return Ok(());
            }
            loop {
                skip_ws(b, i);
                validate_value(b, i)?;
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b']') => {
                        *i += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {i}")),
                }
            }
        }
        b'"' => validate_string(b, i),
        b't' => validate_lit(b, i, "true"),
        b'f' => validate_lit(b, i, "false"),
        b'n' => validate_lit(b, i, "null"),
        b'-' | b'0'..=b'9' => validate_number(b, i),
        other => Err(format!("unexpected byte `{}` at byte {i}", other as char)),
    }
}

fn validate_lit(b: &[u8], i: &mut usize, lit: &str) -> Result<(), String> {
    if b[*i..].starts_with(lit.as_bytes()) {
        *i += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {i}"))
    }
}

fn validate_string(b: &[u8], i: &mut usize) -> Result<(), String> {
    if b.get(*i) != Some(&b'"') {
        return Err(format!("expected string at byte {i}"));
    }
    *i += 1;
    while let Some(&c) = b.get(*i) {
        match c {
            b'"' => {
                *i += 1;
                return Ok(());
            }
            b'\\' => {
                *i += 1;
                match b.get(*i) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *i += 1,
                    Some(b'u') => {
                        if b.len() < *i + 5 || !b[*i + 1..*i + 5].iter().all(u8::is_ascii_hexdigit)
                        {
                            return Err(format!("bad \\u escape at byte {i}"));
                        }
                        *i += 5;
                    }
                    _ => return Err(format!("bad escape at byte {i}")),
                }
            }
            0x00..=0x1f => return Err(format!("unescaped control byte at {i}")),
            _ => *i += 1,
        }
    }
    Err("unterminated string".to_string())
}

fn validate_number(b: &[u8], i: &mut usize) -> Result<(), String> {
    let start = *i;
    if b.get(*i) == Some(&b'-') {
        *i += 1;
    }
    let digits = |b: &[u8], i: &mut usize| {
        let s = *i;
        while b.get(*i).is_some_and(u8::is_ascii_digit) {
            *i += 1;
        }
        *i > s
    };
    if !digits(b, i) {
        return Err(format!("bad number at byte {start}"));
    }
    if b.get(*i) == Some(&b'.') {
        *i += 1;
        if !digits(b, i) {
            return Err(format!("bad number at byte {start}"));
        }
    }
    if matches!(b.get(*i), Some(b'e' | b'E')) {
        *i += 1;
        if matches!(b.get(*i), Some(b'+' | b'-')) {
            *i += 1;
        }
        if !digits(b, i) {
            return Err(format!("bad number at byte {start}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unquote_handles_escapes() {
        let (s, rest) = unquote(r#""a\"b\\c\nA\/\b\f\u00e9" tail"#).unwrap();
        assert_eq!(s, "a\"b\\c\nA/\u{8}\u{c}é");
        assert_eq!(rest, " tail");
        assert!(unquote("\"unterminated").is_none());
        assert!(unquote("no quote").is_none());
        assert!(unquote(r#""\x""#).is_none(), "unknown escape");
        assert!(unquote(r#""\u00g1""#).is_none(), "non-hex digit");
        assert!(unquote(r#""\u+0e9""#).is_none(), "sign is not a hex digit");
    }

    #[test]
    fn unquote_joins_surrogate_pairs_and_rejects_lone_halves() {
        // What Python's `json.dumps` writes for U+1F642.
        assert_eq!(
            unquote(r#""\ud83d\ude42!""#),
            Some(("\u{1F642}!".to_string(), ""))
        );
        assert_eq!(
            unquote(r#""\uD83D\uDE42""#),
            Some(("\u{1F642}".to_string(), ""))
        );
        for bad in [
            r#""\ud83d""#,       // lone high
            r#""\ud83dx""#,      // high, then a plain char
            r#""\ud83d\n""#,     // high, then another escape
            r#""\ud83d\u0041""#, // high, then a non-surrogate
            r#""\ude42""#,       // lone low
            r#""\ude42\ud83d""#, // reversed pair
            r#""\ud83d\ud83d""#, // two highs
        ] {
            assert!(unquote(bad).is_none(), "{bad}");
        }
    }

    #[test]
    fn escape_round_trips_through_unquote() {
        let text = "q\"b\\s\n\r\t\u{1}\u{1f}é\u{1F642}";
        let mut quoted = String::from("\"");
        escape_json(text, &mut quoted);
        quoted.push('"');
        assert_eq!(quoted, "\"q\\\"b\\\\s\\n\\r\\t\\u0001\\u001fé\u{1F642}\"");
        assert_eq!(unquote(&quoted), Some((text.to_string(), "")));
        assert!(validate_json(&quoted).is_ok());
    }

    #[test]
    fn flat_object_reads_fields_in_order_and_rejects_repeats() {
        assert_eq!(
            flat_object(r#" {"job":3, "worker":"w\"1","deadline_ms":17} "#).unwrap(),
            vec![
                ("job".to_string(), Value::Num(3)),
                ("worker".to_string(), Value::Str("w\"1".to_string())),
                ("deadline_ms".to_string(), Value::Num(17)),
            ]
        );
        assert_eq!(flat_object("{}").unwrap(), Vec::new());
        let err = flat_object(r#"{"id":"a","id":"b"}"#).unwrap_err();
        assert!(err.contains("duplicate field `id`"), "{err}");
        // Keys compare decoded, so an escaped spelling is still a repeat.
        assert!(flat_object(r#"{"id":"a","\u0069d":"b"}"#).is_err());
        for bad in [
            "",
            "[]",
            r#"{"a":}"#,
            r#"{"a":-1}"#,
            r#"{"a":1.5}"#,
            r#"{"a":1"#,
            r#"{"a":1} x"#,
            r#"{a:1}"#,
            r#"{"a":99999999999999999999}"#,
        ] {
            assert!(flat_object(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn json_validator_accepts_and_rejects() {
        for good in [
            "{}",
            "[]",
            "null",
            "-1.5e+3",
            r#"{"a":[1,2,{"b":"c\n"}],"d":true}"#,
            "  [1]  ",
        ] {
            assert!(validate_json(good).is_ok(), "{good}");
        }
        for bad in [
            "", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"\\x\"", "{1:2}",
        ] {
            assert!(validate_json(bad).is_err(), "{bad}");
        }
    }
}

//! A minimal reader for the flat JSONL emitted by [`crate::JsonlSink`].
//!
//! The event schema is intentionally flat — one object per line, string
//! keys, scalar values — so a tiny hand-rolled parser suffices and the
//! crate stays zero-dependency.  Supported value forms: strings (with the
//! escapes [`crate::Event::to_jsonl`] produces plus `\/`, `\b`, `\f`, and
//! `\uXXXX`), numbers (parsed as `f64`), `true`, `false`, and `null`
//! (which marks a non-finite measurement and parses to an *absent*
//! field).  Nested objects and arrays are rejected: nothing in the schema
//! produces them.

use std::collections::{BTreeMap, BTreeSet};

/// One parsed trace line.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedEvent {
    name: String,
    fields: BTreeMap<String, ParsedValue>,
}

/// A scalar value read back from a trace line.
#[derive(Debug, Clone, PartialEq)]
pub enum ParsedValue {
    /// Any JSON number (integers included).
    Num(f64),
    /// A JSON string.
    Str(String),
    /// A JSON boolean.
    Bool(bool),
}

impl ParsedEvent {
    /// The event name (the reserved `"event"` key).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All fields except the name, keyed by field name.
    pub fn fields(&self) -> &BTreeMap<String, ParsedValue> {
        &self.fields
    }

    /// Numeric field, if present and numeric.
    pub fn num(&self, key: &str) -> Option<f64> {
        match self.fields.get(key) {
            Some(ParsedValue::Num(v)) => Some(*v),
            _ => None,
        }
    }

    /// Numeric field truncated to `u64` (counts are emitted as integers
    /// well below 2^53, where `f64` is exact).
    pub fn u64(&self, key: &str) -> Option<u64> {
        self.num(key).map(|v| v as u64)
    }

    /// String field, if present and a string.
    pub fn str(&self, key: &str) -> Option<&str> {
        match self.fields.get(key) {
            Some(ParsedValue::Str(v)) => Some(v),
            _ => None,
        }
    }

    /// Boolean field, if present and boolean.
    pub fn bool(&self, key: &str) -> Option<bool> {
        match self.fields.get(key) {
            Some(ParsedValue::Bool(v)) => Some(*v),
            _ => None,
        }
    }
}

/// Parses one trace line into a [`ParsedEvent`].
///
/// Returns a human-readable error description on malformed input,
/// including a key that appears twice (even if one of its values is
/// `null`): a writer that stamps a field the event already carries loses
/// one of the two values, and a replay must not pick one silently.
pub fn parse_line(line: &str) -> Result<ParsedEvent, String> {
    let line = line.trim();
    let mut p = Parser {
        chars: line.char_indices().peekable(),
        src: line,
    };
    p.expect('{')?;
    let mut name = None;
    let mut fields = BTreeMap::new();
    let mut keys = BTreeSet::new();
    let mut first = true;
    loop {
        p.skip_ws();
        if p.eat('}') {
            break;
        }
        // Not "is anything stored yet": a leading null stores nothing.
        if !std::mem::take(&mut first) {
            p.expect(',')?;
            p.skip_ws();
        }
        let key = p.string()?;
        if !keys.insert(key.clone()) {
            return Err(format!("repeated key \"{key}\""));
        }
        p.skip_ws();
        p.expect(':')?;
        p.skip_ws();
        let value = p.value()?;
        if key == "event" {
            match value {
                Some(ParsedValue::Str(s)) => name = Some(s),
                other => return Err(format!("\"event\" must be a string, got {other:?}")),
            }
        } else if let Some(v) = value {
            fields.insert(key, v);
        }
        // null values fall through: the field is simply absent
    }
    p.skip_ws();
    if p.chars.next().is_some() {
        return Err("trailing characters after object".to_string());
    }
    Ok(ParsedEvent {
        name: name.ok_or("missing \"event\" key")?,
        fields,
    })
}

struct Parser<'a> {
    chars: std::iter::Peekable<std::str::CharIndices<'a>>,
    src: &'a str,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some((_, c)) if c.is_ascii_whitespace()) {
            self.chars.next();
        }
    }

    fn eat(&mut self, want: char) -> bool {
        if matches!(self.chars.peek(), Some((_, c)) if *c == want) {
            self.chars.next();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, want: char) -> Result<(), String> {
        self.skip_ws();
        match self.chars.next() {
            Some((_, c)) if c == want => Ok(()),
            Some((i, c)) => Err(format!("expected '{want}' at byte {i}, found '{c}'")),
            None => Err(format!("expected '{want}', found end of line")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.chars.next() {
                Some((_, '"')) => return Ok(out),
                Some((i, '\\')) => match self.chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, '/')) => out.push('/'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, 'b')) => out.push('\u{8}'),
                    Some((_, 'f')) => out.push('\u{c}'),
                    Some((_, 'u')) => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let (_, c) = self
                                .chars
                                .next()
                                .ok_or("truncated \\u escape".to_string())?;
                            code = code * 16
                                + c.to_digit(16)
                                    .ok_or(format!("bad hex digit '{c}' in \\u escape"))?;
                        }
                        out.push(
                            char::from_u32(code)
                                .ok_or(format!("\\u{code:04x} is not a scalar value"))?,
                        );
                    }
                    Some((_, c)) => return Err(format!("unknown escape '\\{c}' at byte {i}")),
                    None => return Err("truncated escape".to_string()),
                },
                Some((_, c)) => out.push(c),
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    /// One scalar value; `Ok(None)` for JSON `null`.
    fn value(&mut self) -> Result<Option<ParsedValue>, String> {
        match self.chars.peek() {
            Some((_, '"')) => Ok(Some(ParsedValue::Str(self.string()?))),
            Some((_, 't')) => {
                self.literal("true")?;
                Ok(Some(ParsedValue::Bool(true)))
            }
            Some((_, 'f')) => {
                self.literal("false")?;
                Ok(Some(ParsedValue::Bool(false)))
            }
            Some((_, 'n')) => {
                self.literal("null")?;
                Ok(None)
            }
            Some((_, '{')) | Some((_, '[')) => {
                Err("nested objects/arrays are not part of the schema".to_string())
            }
            Some((start, _)) => {
                let start = *start;
                let mut end = self.src.len();
                while let Some((i, c)) = self.chars.peek() {
                    if matches!(c, ',' | '}' | ']') || c.is_ascii_whitespace() {
                        end = *i;
                        break;
                    }
                    self.chars.next();
                }
                let text = &self.src[start..end];
                text.parse::<f64>()
                    .map(|v| Some(ParsedValue::Num(v)))
                    .map_err(|_| format!("bad number `{text}`"))
            }
            None => Err("expected a value, found end of line".to_string()),
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        for want in word.chars() {
            match self.chars.next() {
                Some((_, c)) if c == want => {}
                other => return Err(format!("bad literal, expected `{word}`, got {other:?}")),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Event;

    #[test]
    fn round_trips_an_event() {
        let line = Event::new("exec.step")
            .u64("step", 12)
            .f64("importance", 0.03125)
            .f64("bound", 1.5e-7)
            .bool("exact", false)
            .str("key", "(3, 4)")
            .to_jsonl();
        let parsed = parse_line(&line).unwrap();
        assert_eq!(parsed.name(), "exec.step");
        assert_eq!(parsed.u64("step"), Some(12));
        assert_eq!(parsed.num("importance"), Some(0.03125));
        assert_eq!(parsed.num("bound"), Some(1.5e-7));
        assert_eq!(parsed.bool("exact"), Some(false));
        assert_eq!(parsed.str("key"), Some("(3, 4)"));
    }

    #[test]
    fn null_fields_parse_as_absent() {
        let line = Event::new("t").f64("nan", f64::NAN).u64("k", 1).to_jsonl();
        let parsed = parse_line(&line).unwrap();
        assert_eq!(parsed.num("nan"), None);
        assert_eq!(parsed.u64("k"), Some(1));
        // A null ahead of every stored field still needs its comma.
        let parsed = parse_line(r#"{"a":null,"event":"t","k":1}"#).unwrap();
        assert_eq!((parsed.name(), parsed.u64("k")), ("t", Some(1)));
        assert!(parse_line(r#"{"a":null "event":"t"}"#).is_err());
    }

    #[test]
    fn escapes_round_trip() {
        let weird = "a\"b\\c\nd\te\u{1}f/g";
        let line = Event::new("t").str("s", weird).to_jsonl();
        assert_eq!(parse_line(&line).unwrap().str("s"), Some(weird));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_line("").is_err());
        assert!(parse_line("{").is_err());
        assert!(parse_line("{}").is_err()); // no "event"
        assert!(parse_line(r#"{"event":7}"#).is_err());
        assert!(parse_line(r#"{"event":"x","a":[1]}"#).is_err());
        assert!(parse_line(r#"{"event":"x","a":{"b":1}}"#).is_err());
        assert!(parse_line(r#"{"event":"x","a":bogus}"#).is_err());
        assert!(parse_line(r#"{"event":"x"} trailing"#).is_err());
    }

    #[test]
    fn rejects_a_repeated_key() {
        assert!(parse_line(r#"{"event":"x","batch":4,"batch":0}"#).is_err());
        assert!(parse_line(r#"{"event":"x","a":null,"a":1}"#).is_err());
        assert!(parse_line(r#"{"event":"x","event":"y"}"#).is_err());
        assert!(parse_line(r#"{"event":"x","a":1,"b":1}"#).is_ok());
    }

    #[test]
    fn whitespace_is_tolerated() {
        let parsed = parse_line("  { \"event\" : \"x\" , \"n\" : 4 }  ").unwrap();
        assert_eq!(parsed.name(), "x");
        assert_eq!(parsed.u64("n"), Some(4));
    }

    #[test]
    fn negative_and_exponent_numbers() {
        let parsed = parse_line(r#"{"event":"x","a":-3.5,"b":2e10,"c":1e-300}"#).unwrap();
        assert_eq!(parsed.num("a"), Some(-3.5));
        assert_eq!(parsed.num("b"), Some(2e10));
        assert_eq!(parsed.num("c"), Some(1e-300));
    }
}

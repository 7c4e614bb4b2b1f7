//! JSON text ↔ [`serde::Value`] — the workspace's one text codec.
//!
//! The vendored `serde` is a value-tree stand-in with no text format of
//! its own, so this module carries one: a writer and a recursive-descent
//! parser covering exactly the JSON subset the workspace needs. It
//! started life inside `mps-serve` as the wire codec for the
//! newline-delimited protocol; persistent artifacts (see
//! [`crate::artifact`]) travel through the same parser, which is why it
//! now lives here in core where both layers can reach it. The mapping is
//! the obvious one — [`Value::Unit`] ↔ `null`, [`Value::Map`] ↔ object
//! (field order preserved), numbers classed on parse as unsigned /
//! signed / float by shape. Round-tripping is pinned by the tests below;
//! emitted text never contains a raw newline, which is what makes
//! one-line-per-message framing safe.
//!
//! ## Number overflow policy
//!
//! Artifact files are parsed on trust boundaries (a cache directory
//! surviving across builds), so out-of-range numbers are **rejected with
//! a [`ParseError`], never silently wrapped or saturated**:
//!
//! * `18446744073709551616` (one past `u64::MAX`) and any other
//!   unsigned-shaped literal too large for `u64` → error;
//! * `-9223372036854775809` (one past `i64::MIN`) → error;
//! * float-shaped literals whose magnitude overflows `f64` (`1e400`) →
//!   error — Rust's `str::parse::<f64>` would happily return `inf`,
//!   which this writer cannot even re-emit (non-finite renders as
//!   `null`), so it is refused on the way in;
//! * `-0` is signed-shaped and parses to [`Value::I64`]`(0)` — the sign
//!   is not preserved (integers have no negative zero);
//! * tiny magnitudes are *not* errors: `1e-400` underflows gracefully to
//!   `0.0`, exactly as `str::parse::<f64>` defines it.
//!
//! ## Nesting limit
//!
//! The parser recurses once per nested array or object, and its input
//! comes from outside the process (request lines, cache files, peers'
//! `artifact_put` payloads). Nesting deeper than [`MAX_DEPTH`] is a
//! [`ParseError`], so a line like `[[[[…]]]]` cannot overflow the stack.

use serde::Value;
use std::fmt::Write as _;

/// Render a value as compact single-line JSON.
///
/// Strings escape `"`, `\` and all control characters (`\n`, `\t`, … and
/// `\u00XX` for the rest), so the output is always newline-free. `NaN`
/// and infinities have no JSON spelling; they render as `null`, like
/// `serde_json` does.
pub fn write(value: &Value) -> String {
    let mut out = String::new();
    write_into(&mut out, value);
    out
}

fn write_into(out: &mut String, value: &Value) {
    match value {
        Value::Unit => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::I64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::F64(x) => {
            if x.is_finite() {
                // `{x:?}` is shortest-round-trip and always keeps a `.0`
                // or exponent on integral values, so the reader classes
                // it back as a float.
                let _ = write!(out, "{x:?}");
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_str(out, s),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_into(out, item);
            }
            out.push(']');
        }
        Value::Map(fields) => {
            out.push('{');
            for (i, (key, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_str(out, key);
                out.push(':');
                write_into(out, item);
            }
            out.push('}');
        }
    }
}

fn write_str(out: &mut String, s: &str) {
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

/// Deepest nesting of arrays and objects [`parse`] accepts: 128, the
/// recursion limit `serde_json` defaults to. The workspace's own
/// documents (wire messages, artifact envelopes) nest a handful of
/// levels deep.
pub const MAX_DEPTH: usize = 128;

/// Parse one JSON document into a [`Value`].
///
/// Numbers are classed by shape: a mantissa dot or exponent makes an
/// [`Value::F64`], a leading minus an [`Value::I64`], anything else a
/// [`Value::U64`]. Out-of-range literals are a [`ParseError`], never a
/// silent wrap — see the module docs for the exact policy. Nesting
/// deeper than [`MAX_DEPTH`] is an error too. Errors carry a byte
/// offset and a short description.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(value)
}

/// A JSON syntax error: what went wrong and the byte offset it went
/// wrong at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Short description of the failure.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Unit),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.nested(Parser::seq),
            Some(b'{') => self.nested(Parser::map),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parse one array or object, one level deeper.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn seq(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn map(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogates don't occur in our own output;
                            // map them to the replacement character
                            // rather than rejecting foreign input.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar, not one byte. Decoding
                    // from the already-valid input keeps a long string
                    // linear; re-validating the rest per character made
                    // a 1 MiB line cost ~20 s.
                    let c = self
                        .text
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or_else(|| self.err("invalid UTF-8"))?;
                    if (c as u32) < 0x20 {
                        return Err(self.err("raw control character in string"));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        if float {
            // `str::parse::<f64>` accepts overflowing literals and hands
            // back ±inf; that would wrap silently through this codec
            // (the writer spells non-finite as null), so refuse it here.
            // Graceful underflow to 0.0 stays accepted.
            match text.parse::<f64>() {
                Ok(x) if x.is_finite() => Ok(Value::F64(x)),
                Ok(_) => Err(self.err("number overflows f64")),
                Err(_) => Err(self.err("invalid number")),
            }
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::I64)
                .map_err(|_| self.err("number out of range for i64"))
        } else {
            text.parse::<u64>()
                .map(Value::U64)
                .map_err(|_| self.err("number out of range for u64"))
        }
    }
}

/// Field lookup on a parsed object, for hand-rolled decoders.
pub fn field<'v>(value: &'v Value, name: &str) -> Option<&'v Value> {
    match value {
        Value::Map(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for (v, text) in [
            (Value::Unit, "null"),
            (Value::Bool(true), "true"),
            (Value::Bool(false), "false"),
            (Value::U64(42), "42"),
            (Value::I64(-7), "-7"),
            (Value::Str("a\"b\\c\nd".into()), r#""a\"b\\c\nd""#),
        ] {
            assert_eq!(write(&v), text);
            assert_eq!(parse(text).unwrap(), v);
        }
        // Floats keep their float-ness through the round trip.
        assert_eq!(write(&Value::F64(1.0)), "1.0");
        assert_eq!(parse("1.0").unwrap(), Value::F64(1.0));
        assert_eq!(parse("2.5e-3").unwrap(), Value::F64(0.0025));
        assert_eq!(write(&Value::F64(f64::NAN)), "null");
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Value::Map(vec![
            ("op".into(), Value::Str("compile".into())),
            ("span".into(), Value::Unit),
            (
                "sizes".into(),
                Value::Seq(vec![Value::U64(1), Value::U64(2)]),
            ),
            (
                "nested".into(),
                Value::Map(vec![("x".into(), Value::F64(0.25))]),
            ),
        ]);
        let text = write(&v);
        assert_eq!(
            text,
            r#"{"op":"compile","span":null,"sizes":[1,2],"nested":{"x":0.25}}"#
        );
        assert_eq!(parse(&text).unwrap(), v);
        // Whitespace-tolerant on the way in.
        let spaced = "{ \"op\" : \"compile\" ,\t\"span\": null , \"sizes\": [ 1 , 2 ] , \"nested\": { \"x\" : 0.25 } }";
        assert_eq!(parse(spaced).unwrap(), v);
    }

    #[test]
    fn output_is_single_line_even_for_wild_strings() {
        let v = Value::Str("line1\nline2\r\tcontrol:\u{1}".into());
        let text = write(&v);
        assert!(!text.contains('\n') && !text.contains('\r'), "{text}");
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn errors_carry_offsets() {
        let e = parse("{\"a\": }").unwrap_err();
        assert_eq!(e.offset, 6);
        assert!(parse("").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("12 34").unwrap_err().message.contains("trailing"));
        assert!(parse("\"\u{1}\"").is_err(), "raw control char rejected");
    }

    #[test]
    fn nesting_is_bounded_by_max_depth() {
        let nest = |depth: usize, open: &str, close: &str| {
            format!("{}{}", open.repeat(depth), close.repeat(depth))
        };
        assert!(parse(&nest(MAX_DEPTH, "[", "]")).is_ok());
        assert!(parse(&nest(MAX_DEPTH, "{\"a\":", "}").replace(":}", ":1}")).is_ok());
        for (open, close) in [("[", "]"), ("{\"a\":", "}"), ("[{\"a\":", "}]")] {
            let e = parse(&nest(MAX_DEPTH + 1, open, close)).unwrap_err();
            assert!(e.message.contains("nesting deeper"), "{e}");
        }
        // Far past the limit (a line that used to overflow the stack)
        // fails fast at the first level too deep.
        let e = parse(&nest(200_000, "[", "]")).unwrap_err();
        assert_eq!(e.offset, MAX_DEPTH);
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // A line-cap-sized string with multi-byte characters in it. The
        // bound is two orders of magnitude above a linear scan, even
        // unoptimised; the old per-character re-validation took minutes.
        let long = "aé€".repeat(1 << 18);
        let t0 = std::time::Instant::now();
        let parsed = parse(&format!("[\"{long}\"]")).unwrap();
        assert!(t0.elapsed() < std::time::Duration::from_secs(10));
        assert_eq!(parsed, Value::Seq(vec![Value::Str(long)]));
    }

    #[test]
    fn out_of_range_integers_are_rejected_not_wrapped() {
        // Exactly representable extremes still parse…
        assert_eq!(parse("18446744073709551615").unwrap(), Value::U64(u64::MAX));
        assert_eq!(parse("-9223372036854775808").unwrap(), Value::I64(i64::MIN));
        // …one past them is a ParseError, not a silent wrap.
        let e = parse("18446744073709551616").unwrap_err();
        assert!(e.message.contains("u64"), "{e}");
        let e = parse("-9223372036854775809").unwrap_err();
        assert!(e.message.contains("i64"), "{e}");
        // Inside a document, the offset points at the bad literal's end.
        assert!(parse(r#"{"n":18446744073709551616}"#).is_err());
    }

    #[test]
    fn overflowing_floats_are_rejected_tiny_ones_underflow() {
        // 1e400 parses to inf via str::parse::<f64>; the codec refuses it.
        let e = parse("1e400").unwrap_err();
        assert!(e.message.contains("overflows"), "{e}");
        assert!(parse("-1e400").is_err());
        assert!(parse(r#"[1.0,1e999]"#).is_err());
        // Large *negative* exponents underflow gracefully to zero.
        assert_eq!(parse("1e-400").unwrap(), Value::F64(0.0));
        // -0 is signed-shaped: the sign is dropped on an integer zero.
        assert_eq!(parse("-0").unwrap(), Value::I64(0));
        // -0.0 keeps the float sign bit (floats do have negative zero).
        match parse("-0.0").unwrap() {
            Value::F64(x) => assert!(x == 0.0 && x.is_sign_negative()),
            other => panic!("expected F64, got {other:?}"),
        }
    }

    #[test]
    fn derived_structs_serialize_through_to_value() {
        #[derive(serde::Serialize)]
        struct Probe {
            name: String,
            count: u64,
            span: Option<u32>,
        }
        let text = write(&serde::to_value(&Probe {
            name: "fig2".into(),
            count: 3,
            span: None,
        }));
        assert_eq!(text, r#"{"name":"fig2","count":3,"span":null}"#);
    }

    #[test]
    fn field_lookup() {
        let v = parse(r#"{"a":1,"b":"x"}"#).unwrap();
        assert_eq!(field(&v, "a"), Some(&Value::U64(1)));
        assert_eq!(field(&v, "b"), Some(&Value::Str("x".into())));
        assert_eq!(field(&v, "c"), None);
        assert_eq!(field(&Value::U64(1), "a"), None);
    }
}

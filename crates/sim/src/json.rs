//! A minimal deterministic JSON writer.
//!
//! The benchmark harness serializes metrics and span summaries to
//! `results/*.json`; byte-identical output across same-seed runs is a
//! hard requirement, so this writer has no map reordering, no
//! locale-dependent number formatting and no timestamps — fields appear
//! exactly in the order the caller emits them.

/// Escapes `s` for inclusion in a JSON string literal (without quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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

/// Formats an `f64` deterministically; non-finite values become `null`
/// (JSON has no NaN/Infinity).
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        // Rust's shortest round-trip formatting is deterministic across
        // runs and platforms for the same bit pattern.
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') || s.contains("inf") {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_owned()
    }
}

/// Builds one JSON object with caller-ordered fields.
#[derive(Debug, Default)]
pub struct Obj {
    fields: Vec<String>,
}

impl Obj {
    /// Creates an empty object.
    pub fn new() -> Self {
        Obj::default()
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.fields
            .push(format!("\"{}\":\"{}\"", escape(key), escape(value)));
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, key: &str, value: u64) -> Self {
        self.fields.push(format!("\"{}\":{}", escape(key), value));
        self
    }

    /// Adds a float field.
    pub fn f64(mut self, key: &str, value: f64) -> Self {
        self.fields
            .push(format!("\"{}\":{}", escape(key), fmt_f64(value)));
        self
    }

    /// Adds a pre-rendered JSON value (object, array, literal).
    pub fn raw(mut self, key: &str, value: &str) -> Self {
        self.fields.push(format!("\"{}\":{}", escape(key), value));
        self
    }

    /// Renders the object.
    pub fn build(self) -> String {
        format!("{{{}}}", self.fields.join(","))
    }
}

/// Renders a JSON array from pre-rendered element strings.
pub fn array<I: IntoIterator<Item = String>>(items: I) -> String {
    let items: Vec<String> = items.into_iter().collect();
    format!("[{}]", items.join(","))
}

/// A value with one JSON rendering: a node's view (see [`view!`]) and the
/// parts it is made of. A duration renders in milliseconds.
///
/// [`view!`]: crate::view
pub trait ToJson {
    /// The compact rendering.
    fn to_json(&self) -> String;
}

/// One [`ToJson`] impl per `[generics] type => |value| rendering`.
macro_rules! to_json {
    ($([$($g:tt)*] $ty:ty => |$v:ident| $render:expr;)*) => {$(
        impl<$($g)*> ToJson for $ty {
            fn to_json(&self) -> String {
                let $v = self;
                $render
            }
        }
    )*};
}

to_json! {
    [] bool => |v| v.to_string();
    [] u32 => |v| v.to_string();
    [] u64 => |v| v.to_string();
    [] usize => |v| v.to_string();
    [] String => |v| format!("\"{}\"", escape(v));
    [] crate::ActorId => |v| v.0.to_string();
    [] crate::SimDuration => |v| fmt_f64(v.as_secs_f64() * 1e3);
    [T: ToJson] Option<T> => |v| v.as_ref().map_or_else(|| "null".to_owned(), T::to_json);
    [T: ToJson] Vec<T> => |v| array(v.iter().map(T::to_json));
    [T: ToJson, const N: usize] [T; N] => |v| array(v.iter().map(T::to_json));
    [A: ToJson, B: ToJson] (A, B) => |v| array([v.0.to_json(), v.1.to_json()]);
}

/// Defines structs of named fields that are all [`ToJson`], and renders
/// each as one JSON object, its fields in the order declared: how a
/// machine declares its view.
#[macro_export]
macro_rules! view {
    ($($(#[$meta:meta])* $vis:vis struct $name:ident {
        $($(#[$fmeta:meta])* $fvis:vis $field:ident: $ty:ty),* $(,)?
    })*) => {$(
        $(#[$meta])* $vis struct $name { $($(#[$fmeta])* $fvis $field: $ty),* }

        impl $crate::json::ToJson for $name {
            fn to_json(&self) -> String {
                let obj = $crate::json::Obj::new();
                $(let obj = obj.raw(stringify!($field), &$crate::json::ToJson::to_json(&self.$field));)*
                obj.build()
            }
        }
    )*};
}

/// Pretty-prints compact JSON produced by this module with two-space
/// indentation, so `results/*.json` stays diffable. Assumes valid JSON
/// input (as produced by [`Obj`] / [`array`]).
pub fn pretty(json: &str) -> String {
    let mut out = String::with_capacity(json.len() * 2);
    let mut indent = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    for c in json.chars() {
        if in_string {
            out.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                out.push(c);
            }
            '{' | '[' => {
                indent += 1;
                out.push(c);
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
            }
            '}' | ']' => {
                indent = indent.saturating_sub(1);
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(c);
            }
            ',' => {
                out.push(c);
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
            }
            ':' => {
                out.push(c);
                out.push(' ');
            }
            c => out.push(c),
        }
    }
    out.push('\n');
    out
}

/// A parsed JSON value (see [`parse`]).
///
/// Object fields keep their source order, matching the writer's
/// caller-ordered field convention.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, fields in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up an object field by key (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Indexes into an array.
    pub fn idx(&self, i: usize) -> Option<&Value> {
        match self {
            Value::Arr(items) => items.get(i),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is a non-negative whole
    /// number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value's object fields in source order, if it is an object.
    pub fn entries(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Parses a JSON document (the subset this module writes: objects,
/// arrays, strings, numbers, booleans, null; `\uXXXX` escapes including
/// surrogate pairs).
///
/// # Errors
///
/// Returns a message with a byte offset on malformed input or trailing
/// garbage.
///
/// # Examples
///
/// ```
/// use hyperprov_sim::json::{parse, Value};
///
/// let v = parse("{\"a\":[1,2.5],\"b\":null}").unwrap();
/// assert_eq!(v.get("a").unwrap().idx(1).unwrap().as_f64(), Some(2.5));
/// assert_eq!(v.get("b"), Some(&Value::Null));
/// ```
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
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
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
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
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                let code =
                                    0x10000 + ((hi - 0xd800) << 10) + (lo.wrapping_sub(0xdc00));
                                char::from_u32(code)
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| {
                                format!("bad unicode escape at byte {}", self.pos)
                            })?);
                            continue;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| "bad utf8".to_owned())?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated unicode escape".to_owned());
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| "bad unicode escape".to_owned())?;
        let v = u32::from_str_radix(s, 16).map_err(|_| "bad unicode escape".to_owned())?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        s.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn floats_format_deterministically() {
        assert_eq!(fmt_f64(1.5), "1.5");
        assert_eq!(fmt_f64(2.0), "2.0");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(0.1 + 0.2), "0.30000000000000004");
    }

    #[test]
    fn objects_preserve_field_order() {
        let o = Obj::new().str("b", "x").u64("a", 7).build();
        assert_eq!(o, "{\"b\":\"x\",\"a\":7}");
    }

    #[test]
    fn arrays_join_elements() {
        assert_eq!(array(["1".to_owned(), "2".to_owned()]), "[1,2]");
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let compact = Obj::new()
            .str("s", "a\"b\\c\nd")
            .u64("n", 42)
            .f64("f", 0.1 + 0.2)
            .raw("arr", &array(["1".into(), "null".into(), "true".into()]))
            .raw("o", &Obj::new().str("k", "v").build())
            .build();
        let v = parse(&compact).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("a\"b\\c\nd"));
        assert_eq!(v.get("n").unwrap().as_u64(), Some(42));
        assert_eq!(v.get("f").unwrap().as_f64(), Some(0.30000000000000004));
        assert_eq!(v.get("arr").unwrap().idx(1), Some(&Value::Null));
        assert_eq!(v.get("arr").unwrap().idx(2), Some(&Value::Bool(true)));
        assert_eq!(v.get("o").unwrap().get("k").unwrap().as_str(), Some("v"));
        // Field order is preserved.
        let keys: Vec<&str> = v
            .entries()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["s", "n", "f", "arr", "o"]);
    }

    #[test]
    fn parse_handles_whitespace_and_pretty_output() {
        let compact = Obj::new()
            .raw("a", &array(["1".into(), "2".into()]))
            .str("s", "x")
            .build();
        assert_eq!(parse(&pretty(&compact)).unwrap(), parse(&compact).unwrap());
    }

    #[test]
    fn parse_numbers_and_unicode() {
        let v = parse("[-1.5e3,0,18446744073709551615,\"\\u00e9\\ud83d\\ude00\"]").unwrap();
        assert_eq!(v.idx(0).unwrap().as_f64(), Some(-1500.0));
        assert_eq!(v.idx(0).unwrap().as_u64(), None);
        assert_eq!(v.idx(1).unwrap().as_u64(), Some(0));
        assert_eq!(v.idx(3).unwrap().as_str(), Some("é😀"));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(parse("").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,2,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn pretty_round_trips_structure() {
        let compact = Obj::new()
            .raw("a", &array(["1".into(), "2".into()]))
            .str("s", "x,y:{}")
            .build();
        let pretty = pretty(&compact);
        assert!(pretty.contains("\"a\": [\n"));
        // Punctuation inside strings is untouched.
        assert!(pretty.contains("\"x,y:{}\""));
        let reparse: String = pretty.split_whitespace().collect::<String>();
        assert!(reparse.contains("\"a\":[1,2]"));
    }
}

//! The workspace's one JSON implementation (this crate is dependency-free).
//!
//! Three layers, each usable alone:
//!
//! - [`parse`]: text → [`JsonValue`]. Objects, arrays, strings, numbers,
//!   booleans, null. Numbers are kept as `f64` plus the raw text so exact
//!   `u64`s and `f32`s survive round-trips. Nesting deeper than
//!   [`MAX_DEPTH`] and duplicate object keys are errors. Reads back the
//!   flight recorder's JSONL segments (see [`crate::timeline`]).
//! - [`push_json_string`]: the one string escaper every writer in the
//!   workspace quotes with.
//! - [`Json`]: a typed, strict codec over the two, for the documents that
//!   must reopen across builds — the manifest and the pipeline spec. The
//!   mapping is the one DESIGN.md "Manifest and spec format" tabulates:
//!   struct → object, unit variant → `"Name"`, struct variant →
//!   `{"Name":{…}}`, tuple → array, `Option` → `null`/value, `Duration` →
//!   `{"secs","nanos"}`, map → object with sorted keys. Emitting streams
//!   into one `String`; parsing rejects unknown, duplicate and missing
//!   keys, wrong types, out-of-range or fractional integers, unknown
//!   variants and non-finite floats with an error that names the field's
//!   [`Path`]. [`json_struct!`](crate::json_struct) and
//!   [`json_enum!`](crate::json_enum) declare a type's fields once for
//!   both directions.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fmt::{self, Write as _};
use std::time::Duration;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, with the raw literal kept for lossless integer access.
    Num(f64, String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object (insertion order is irrelevant to the recorder).
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Object member by key.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// String payload.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean payload.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Number as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v, _) => Some(*v),
            _ => None,
        }
    }

    /// Number as `u64`, parsed from the raw literal so values above 2^53
    /// stay exact.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(_, raw) => raw.parse::<u64>().ok(),
            _ => None,
        }
    }

    /// Object members.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Array elements.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Deepest nesting of arrays and objects [`parse`] accepts. The parser is
/// recursive; without a bound a line of `[[[[…` overflows the stack, which
/// aborts the process instead of returning an error.
pub const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document. Trailing non-whitespace is an error —
/// a torn JSONL line must not silently parse as its untorn prefix.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} at byte {pos}",
            pos = *pos
        )),
        Some(b'{') => parse_object(b, pos, depth),
        Some(b'[') => parse_array(b, pos, depth),
        Some(b'"') => Ok(JsonValue::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", JsonValue::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    // `+5`, `.5` and a bare `-` are not JSON, whatever `f64::from_str` takes.
    if !b.get(*pos).is_some_and(u8::is_ascii_digit) {
        return Err(format!("invalid number at byte {start}"));
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let raw = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    let v: f64 = raw
        .parse()
        .map_err(|_| format!("invalid number {raw:?} at byte {start}"))?;
    Ok(JsonValue::Num(v, raw.to_string()))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        if *pos + 4 >= b.len() {
                            return Err("truncated \\u escape".into());
                        }
                        let hex = std::str::from_utf8(&b[*pos + 1..*pos + 5])
                            .map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_string())?;
                        // Surrogates are not emitted by our writer; map them
                        // to the replacement character rather than erroring.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err("bad escape".into()),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run up to the next quote or escape. Both
                // are ASCII, so the run ends on a UTF-8 boundary.
                let start = *pos;
                while *pos < b.len() && !matches!(b[*pos], b'"' | b'\\') {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    debug_assert_eq!(b[*pos], b'{');
    *pos += 1;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key_at = *pos;
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(b, pos, depth + 1)?;
        // Last-one-wins would let two writers disagree about one field.
        match map.entry(key) {
            Entry::Vacant(slot) => slot.insert(value),
            Entry::Occupied(dup) => {
                return Err(format!("duplicate key {:?} at byte {key_at}", dup.key()))
            }
        };
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    debug_assert_eq!(b[*pos], b'[');
    *pos += 1;
    let mut out = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(out));
    }
    loop {
        out.push(parse_value(b, pos, depth + 1)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(out));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

/// Escape and quote a JSON string.
pub fn push_json_string(out: &mut String, s: &str) {
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

/// Where a value sits in its document, rendered in errors as
/// `manifest.catalog.entries[3].len`. A list linked through the codec's
/// stack frames, so naming the place costs nothing until an error needs it.
#[derive(Clone, Copy, Debug)]
pub enum Path<'a> {
    /// The document itself, by name.
    Root(&'a str),
    /// A member of the object at the parent path.
    Key(&'a Path<'a>, &'a str),
    /// An element of the array at the parent path.
    Idx(&'a Path<'a>, usize),
}

impl fmt::Display for Path<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Path::Root(name) => f.write_str(name),
            Path::Key(parent, key) => write!(f, "{parent}.{key}"),
            Path::Idx(parent, i) => write!(f, "{parent}[{i}]"),
        }
    }
}

/// A type with one JSON form, written and read by the same declaration.
pub trait Json: Sized {
    /// Append `self` to `out`. Fails only on a value JSON cannot carry (a
    /// non-finite float).
    fn emit(&self, out: &mut String, at: &Path) -> Result<(), String>;
    /// Decode `v` strictly; the error names the offending field's path.
    fn parse(v: &JsonValue, at: &Path) -> Result<Self, String>;
}

/// Write `value` as a document called `root` (the name errors start with).
pub fn to_string<T: Json>(value: &T, root: &str) -> Result<String, String> {
    let mut out = String::new();
    value.emit(&mut out, &Path::Root(root))?;
    Ok(out)
}

/// Read a document called `root` from `text`.
pub fn from_str<T: Json>(text: &str, root: &str) -> Result<T, String> {
    let v = parse(text).map_err(|e| format!("{root}: {e}"))?;
    T::parse(&v, &Path::Root(root))
}

fn mismatch(at: &Path, want: &str, got: &JsonValue) -> String {
    let got = match got {
        JsonValue::Null => "null",
        JsonValue::Bool(_) => "a boolean",
        JsonValue::Num(..) => "a number",
        JsonValue::Str(_) => "a string",
        JsonValue::Arr(_) => "an array",
        JsonValue::Obj(_) => "an object",
    };
    format!("{at}: expected {want}, got {got}")
}

impl Json for bool {
    fn emit(&self, out: &mut String, _: &Path) -> Result<(), String> {
        out.push_str(if *self { "true" } else { "false" });
        Ok(())
    }
    fn parse(v: &JsonValue, at: &Path) -> Result<Self, String> {
        v.as_bool().ok_or_else(|| mismatch(at, "a boolean", v))
    }
}

/// An unsigned integer from its raw literal: `f64` is exact only up to
/// 2^53, and a sign, fraction or exponent is not an integer.
fn parse_u64(v: &JsonValue, at: &Path) -> Result<u64, String> {
    match v {
        JsonValue::Num(_, raw) => raw
            .parse()
            .map_err(|_| format!("{at}: expected an integer in 0..=2^64-1, got {raw}")),
        _ => Err(mismatch(at, "an integer", v)),
    }
}

macro_rules! uint_json {
    ($($t:ty),+) => {$(
        impl Json for $t {
            /// Through `core::fmt`, which measured faster than a digit loop
            /// of this crate's own (7.5 vs 9.3 ms for the 230 k integers of
            /// a 4.7 MB manifest).
            fn emit(&self, out: &mut String, _: &Path) -> Result<(), String> {
                let _ = write!(out, "{self}");
                Ok(())
            }
            fn parse(v: &JsonValue, at: &Path) -> Result<Self, String> {
                let n = parse_u64(v, at)?;
                n.try_into()
                    .map_err(|_| format!("{at}: {n} is out of range for {}", stringify!($t)))
            }
        }
    )+};
}
uint_json!(u8, u32, u64, usize);

macro_rules! float_json {
    ($($t:ty),+) => {$(
        impl Json for $t {
            /// `{:?}` is the shortest literal that parses back to the same
            /// bits, and keeps the `.0` earlier manifests carry on integral values.
            fn emit(&self, out: &mut String, at: &Path) -> Result<(), String> {
                if !self.is_finite() {
                    return Err(format!("{at}: {self} is not finite; JSON cannot carry it"));
                }
                let _ = write!(out, "{self:?}");
                Ok(())
            }
            /// From the raw literal: through `f64` an `f32` would round twice.
            fn parse(v: &JsonValue, at: &Path) -> Result<Self, String> {
                let JsonValue::Num(_, raw) = v else {
                    return Err(mismatch(at, "a number", v));
                };
                match raw.parse::<$t>() {
                    Ok(x) if x.is_finite() => Ok(x),
                    _ => Err(format!("{at}: {raw} is not a finite {}", stringify!($t))),
                }
            }
        }
    )+};
}
float_json!(f32, f64);

impl Json for String {
    fn emit(&self, out: &mut String, _: &Path) -> Result<(), String> {
        push_json_string(out, self);
        Ok(())
    }
    fn parse(v: &JsonValue, at: &Path) -> Result<Self, String> {
        let s = v.as_str().ok_or_else(|| mismatch(at, "a string", v))?;
        Ok(s.to_string())
    }
}

impl<T: Json> Json for Option<T> {
    fn emit(&self, out: &mut String, at: &Path) -> Result<(), String> {
        match self {
            Some(x) => x.emit(out, at),
            None => {
                out.push_str("null");
                Ok(())
            }
        }
    }
    fn parse(v: &JsonValue, at: &Path) -> Result<Self, String> {
        match v {
            JsonValue::Null => Ok(None),
            _ => T::parse(v, at).map(Some),
        }
    }
}

impl<T: Json> Json for Vec<T> {
    fn emit(&self, out: &mut String, at: &Path) -> Result<(), String> {
        out.push('[');
        for (i, x) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            x.emit(out, &Path::Idx(at, i))?;
        }
        out.push(']');
        Ok(())
    }
    fn parse(v: &JsonValue, at: &Path) -> Result<Self, String> {
        let arr = v.as_arr().ok_or_else(|| mismatch(at, "an array", v))?;
        arr.iter()
            .enumerate()
            .map(|(i, x)| T::parse(x, &Path::Idx(at, i)))
            .collect()
    }
}

macro_rules! tuple_json {
    ($len:literal: $($T:ident $i:tt),+) => {
        impl<$($T: Json),+> Json for ($($T,)+) {
            fn emit(&self, out: &mut String, at: &Path) -> Result<(), String> {
                $(
                    out.push(if $i == 0 { '[' } else { ',' });
                    self.$i.emit(out, &Path::Idx(at, $i))?;
                )+
                out.push(']');
                Ok(())
            }
            fn parse(v: &JsonValue, at: &Path) -> Result<Self, String> {
                match v.as_arr() {
                    Some(a) if a.len() == $len => {
                        Ok(($($T::parse(&a[$i], &Path::Idx(at, $i))?,)+))
                    }
                    Some(a) => Err(format!("{at}: expected {} elements, got {}", $len, a.len())),
                    None => Err(mismatch(at, "an array", v)),
                }
            }
        }
    };
}
tuple_json!(2: A 0, B 1);
tuple_json!(3: A 0, B 1, C 2);

impl<T: Json> Json for HashMap<String, T> {
    /// Keys are written sorted, so equal maps write equal bytes.
    fn emit(&self, out: &mut String, at: &Path) -> Result<(), String> {
        let mut keys: Vec<&String> = self.keys().collect();
        keys.sort_unstable();
        out.push('{');
        for (i, k) in keys.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(out, k);
            out.push(':');
            self[k].emit(out, &Path::Key(at, k))?;
        }
        out.push('}');
        Ok(())
    }
    fn parse(v: &JsonValue, at: &Path) -> Result<Self, String> {
        let map = v.as_obj().ok_or_else(|| mismatch(at, "an object", v))?;
        map.iter()
            .map(|(k, x)| Ok((k.clone(), T::parse(x, &Path::Key(at, k))?)))
            .collect()
    }
}

impl Json for Duration {
    fn emit(&self, out: &mut String, _: &Path) -> Result<(), String> {
        let (secs, nanos) = (self.as_secs(), self.subsec_nanos());
        let _ = write!(out, "{{\"secs\":{secs},\"nanos\":{nanos}}}");
        Ok(())
    }
    fn parse(v: &JsonValue, at: &Path) -> Result<Self, String> {
        let f = Fields::new(v, at)?;
        let (secs, nanos): (u64, u32) = (f.req("secs")?, f.req("nanos")?);
        f.finish(&["secs", "nanos"])?;
        if nanos >= 1_000_000_000 {
            return Err(format!(
                "{at}.nanos: {nanos} is out of range (0..1000000000)"
            ));
        }
        Ok(Duration::new(secs, nanos))
    }
}

/// The members of one object being decoded into a struct.
pub struct Fields<'a> {
    map: &'a BTreeMap<String, JsonValue>,
    at: &'a Path<'a>,
}

impl<'a> Fields<'a> {
    /// `v` must be an object.
    pub fn new(v: &'a JsonValue, at: &'a Path<'a>) -> Result<Self, String> {
        let map = v.as_obj().ok_or_else(|| mismatch(at, "an object", v))?;
        Ok(Fields { map, at })
    }

    /// A member that may be absent.
    pub fn opt<T: Json>(&self, key: &str) -> Result<Option<T>, String> {
        match self.map.get(key) {
            Some(v) => T::parse(v, &Path::Key(self.at, key)).map(Some),
            None => Ok(None),
        }
    }

    /// A member that must be present.
    pub fn req<T: Json>(&self, key: &str) -> Result<T, String> {
        self.opt(key)?
            .ok_or_else(|| format!("{}: missing field {key:?}", self.at))
    }

    /// Refuse any member outside `known` — a misspelt optional field must
    /// not silently read as its default.
    pub fn finish(&self, known: &[&str]) -> Result<(), String> {
        match self.map.keys().find(|k| !known.contains(&k.as_str())) {
            Some(k) => Err(format!("{}: unknown field {k:?}", self.at)),
            None => Ok(()),
        }
    }
}

/// Split an externally tagged enum value: `"Name"` is a unit variant,
/// `{"Name":{…}}` a variant with fields.
pub fn variant<'a>(
    v: &'a JsonValue,
    at: &Path,
) -> Result<(&'a str, Option<&'a JsonValue>), String> {
    match v {
        JsonValue::Str(name) => Ok((name, None)),
        JsonValue::Obj(m) if m.len() == 1 => {
            let (name, body) = m.iter().next().expect("one member");
            Ok((name, Some(body)))
        }
        _ => Err(mismatch(at, "a variant name or a one-member object", v)),
    }
}

/// Implement [`Json`] for a struct as an object of its fields: the
/// required ones first, then (after `default`) those an older writer may
/// have left out, which then read as `Default::default()`.
///
/// ```
/// #[derive(Debug, PartialEq)]
/// struct Point { x: u32, y: u32, label: String }
/// mistique_obs::json_struct!(Point { x, y } default { label });
/// let p: Point = mistique_obs::json::from_str(r#"{"x":1,"y":2}"#, "point").unwrap();
/// assert_eq!(p, Point { x: 1, y: 2, label: String::new() });
/// ```
#[macro_export]
macro_rules! json_struct {
    ($ty:ident { $($req:ident),+ $(,)? } $(default { $($opt:ident),+ $(,)? })?) => {
        impl $crate::json::Json for $ty {
            fn emit(&self, out: &mut String, at: &$crate::json::Path) -> Result<(), String> {
                let $ty { $($req,)+ $($($opt,)+)? } = self;
                $crate::__json_emit_fields!(out, at, $($req),+ $($(, $opt)+)?);
                Ok(())
            }
            fn parse(
                v: &$crate::json::JsonValue,
                at: &$crate::json::Path,
            ) -> Result<Self, String> {
                Ok($crate::__json_parse_fields!([$ty], v, at, [$($req),+], [$($($opt),+)?]))
            }
        }
    };
}

/// Implement [`Json`] for an enum of unit variants (`"Name"`) and variants
/// with named fields (`{"Name":{…}}`): the externally tagged form.
///
/// ```
/// #[derive(Debug, PartialEq)]
/// enum Shape { Dot, Circle { r: u32 } }
/// mistique_obs::json_enum!(Shape { Dot, Circle { r } });
/// let text = mistique_obs::json::to_string(&vec![Shape::Dot, Shape::Circle { r: 2 }], "shapes");
/// assert_eq!(text.unwrap(), r#"["Dot",{"Circle":{"r":2}}]"#);
/// ```
#[macro_export]
macro_rules! json_enum {
    ($ty:ident { $($var:ident $({ $($f:ident),+ $(,)? })?),+ $(,)? }) => {
        impl $crate::json::Json for $ty {
            fn emit(&self, out: &mut String, at: &$crate::json::Path) -> Result<(), String> {
                match self {
                    $($ty::$var $({ $($f),+ })? => {
                        $crate::json_enum!(@emit out, at, $var $({ $($f),+ })?)
                    })+
                }
                Ok(())
            }
            fn parse(
                v: &$crate::json::JsonValue,
                at: &$crate::json::Path,
            ) -> Result<Self, String> {
                let (name, body) = $crate::json::variant(v, at)?;
                match name {
                    $(stringify!($var) => {
                        $crate::json_enum!(@parse $ty, $var, body, at $({ $($f),+ })?)
                    })+
                    _ => Err(format!("{at}: unknown variant {name:?}")),
                }
            }
        }
    };
    (@emit $out:ident, $at:ident, $var:ident) => {
        $out.push_str(concat!("\"", stringify!($var), "\""))
    };
    (@emit $out:ident, $at:ident, $var:ident { $($f:ident),+ }) => {{
        $out.push_str(concat!("{\"", stringify!($var), "\":"));
        let at = &$crate::json::Path::Key($at, stringify!($var));
        $crate::__json_emit_fields!($out, at, $($f),+);
        $out.push('}');
    }};
    (@parse $ty:ident, $var:ident, $body:ident, $at:ident) => {
        match $body {
            None => Ok($ty::$var),
            Some(_) => Err(format!("{}: variant {} takes no fields", $at, stringify!($var))),
        }
    };
    (@parse $ty:ident, $var:ident, $body:ident, $at:ident { $($f:ident),+ }) => {
        match $body {
            Some(b) => {
                let at = &$crate::json::Path::Key($at, stringify!($var));
                Ok($crate::__json_parse_fields!([$ty::$var], b, at, [$($f),+], []))
            }
            None => Err(format!("{}: variant {} needs its fields", $at, stringify!($var))),
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __json_emit_fields {
    ($out:ident, $at:ident, $first:ident $(, $f:ident)*) => {
        $out.push_str(concat!("{\"", stringify!($first), "\":"));
        $crate::json::Json::emit($first, $out, &$crate::json::Path::Key($at, stringify!($first)))?;
        $(
            $out.push_str(concat!(",\"", stringify!($f), "\":"));
            $crate::json::Json::emit($f, $out, &$crate::json::Path::Key($at, stringify!($f)))?;
        )*
        $out.push('}');
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __json_parse_fields {
    ([$($ctor:tt)+], $v:expr, $at:expr, [$($req:ident),*], [$($opt:ident),*]) => {{
        let f = $crate::json::Fields::new($v, $at)?;
        let r = $($ctor)+ {
            $($req: f.req(stringify!($req))?,)*
            $($opt: f.opt(stringify!($opt))?.unwrap_or_default(),)*
        };
        f.finish(&[$(stringify!($req),)* $(stringify!($opt),)*])?;
        r
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse("\"hi\"").unwrap().as_str(), Some("hi"));
        assert_eq!(parse("3.5").unwrap().as_f64(), Some(3.5));
        assert_eq!(parse("-2").unwrap().as_f64(), Some(-2.0));
    }

    #[test]
    fn u64_survives_above_f64_precision() {
        let v = parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,2,{"b":"x"}],"c":{"d":null}}"#).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("c").unwrap().get("d"), Some(&JsonValue::Null));
    }

    #[test]
    fn string_escapes_round_trip() {
        let mut emitted = String::new();
        push_json_string(&mut emitted, "a\"b\\c\nd\te\u{1}");
        let v = parse(&emitted).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nd\te\u{1}"));
    }

    #[test]
    fn torn_input_is_an_error() {
        for torn in [
            "{\"a\":1",
            "{\"a\":1}x",
            "[1,2",
            "\"unterminated",
            "{\"a\"}",
            "",
            "+5",
            ".5",
            "-",
        ] {
            assert!(parse(torn).is_err(), "input {torn:?} must not parse");
        }
    }

    #[test]
    fn runaway_nesting_is_an_error_not_a_stack_overflow() {
        for unit in ["[", "{\"a\":"] {
            let err = parse(&unit.repeat(1_000_000)).unwrap_err();
            assert!(err.contains("nesting deeper than 128"), "{err}");
        }
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deepest).is_ok());
        assert!(parse(&format!("[{deepest}]")).is_err());
    }

    #[test]
    fn duplicate_keys_are_an_error() {
        let err = parse(r#"{"a":1,"b":{"c":1,"c":2}}"#).unwrap_err();
        assert!(err.contains("duplicate key \"c\""), "{err}");
        assert!(parse(r#"{"a":1,"a":1}"#).is_err());
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = parse(" { \"k\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.get("k").unwrap().as_arr().unwrap().len(), 2);
    }

    #[derive(Debug, PartialEq, Default)]
    struct Rec {
        id: String,
        n: u32,
        pair: (u64, u64),
        maybe: Option<f32>,
        took: Duration,
        tags: Vec<u8>,
        extra: u64,
    }
    crate::json_struct!(Rec { id, n, pair, maybe, took, tags } default { extra });

    #[derive(Debug, PartialEq)]
    enum Kind {
        Plain,
        Sized { bits: u32 },
    }
    crate::json_enum!(Kind { Plain, Sized { bits } });

    const REC: &str = r#"{"id":"a","n":7,"pair":[18446744073709551615,9007199254740993],"maybe":null,"took":{"secs":1,"nanos":5},"tags":[0,255],"extra":3}"#;

    #[test]
    fn struct_round_trips_in_manifest_shape() {
        let rec = Rec {
            id: "a".into(),
            n: 7,
            pair: (u64::MAX, (1 << 53) + 1),
            maybe: None,
            took: Duration::new(1, 5),
            tags: vec![0, 255],
            extra: 3,
        };
        assert_eq!(to_string(&rec, "rec").unwrap(), REC);
        assert_eq!(from_str::<Rec>(REC, "rec").unwrap(), rec);
        // A field after `default` may be absent; it reads as its default.
        let old = REC.replace(",\"extra\":3", "");
        assert_eq!(from_str::<Rec>(&old, "rec").unwrap().extra, 0);
    }

    #[test]
    fn enum_round_trips_in_externally_tagged_form() {
        let kinds = vec![Kind::Plain, Kind::Sized { bits: 8 }];
        let text = to_string(&kinds, "kinds").unwrap();
        assert_eq!(text, r#"["Plain",{"Sized":{"bits":8}}]"#);
        assert_eq!(from_str::<Vec<Kind>>(&text, "kinds").unwrap(), kinds);
    }

    #[test]
    fn map_keys_are_written_sorted() {
        let map: HashMap<String, f64> = [("b\"".to_string(), 1.0), ("a".to_string(), 0.5)].into();
        let text = to_string(&map, "m").unwrap();
        assert_eq!(text, r#"{"a":0.5,"b\"":1.0}"#);
        assert_eq!(from_str::<HashMap<String, f64>>(&text, "m").unwrap(), map);
    }

    #[test]
    fn every_f32_bit_pattern_tried_survives_text() {
        // A multiplicative walk over the 32-bit space: all exponents,
        // subnormals, both zeros.
        let mut bits = 1u32;
        for _ in 0..20_000 {
            bits = bits.wrapping_mul(0x9E37_79B1).wrapping_add(0x7F4A_7C15);
            let x = f32::from_bits(bits);
            let Ok(text) = to_string(&x, "x") else {
                assert!(!x.is_finite());
                continue;
            };
            let back: f32 = from_str(&text, "x").unwrap();
            assert_eq!(back.to_bits(), bits, "{text}");
        }
        for x in [0.0f32, -0.0, f32::MIN_POSITIVE, f32::MAX, 1e-45] {
            let back: f32 = from_str(&to_string(&x, "x").unwrap(), "x").unwrap();
            assert_eq!(back.to_bits(), x.to_bits());
        }
    }

    #[test]
    fn non_finite_floats_are_refused_at_emit() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = to_string(&vec![Some(x)], "doc").unwrap_err();
            assert!(err.starts_with("doc[0]: "), "{err}");
        }
        assert!(to_string(&f32::NAN, "x").is_err());
    }

    /// Each strictness rule: an edit to `REC` (`from` → `to`) and a fragment
    /// of the error the edited document must give.
    #[test]
    fn strict_reader_names_the_field_it_refuses() {
        let n = "\"n\":7";
        let cases: &[(&str, &str, &str)] = &[
            (REC, r#"{"n":7}"#, "rec: missing field \"id\""),
            (REC, "[]", "rec: expected an object, got an array"),
            ("\"extra\"", "\"extr\"", "rec: unknown field \"extr\""),
            (n, "\"n\":7,\"n\":7", "duplicate key \"n\""),
            (n, "\"n\":\"7\"", "rec.n: expected an integer, got a string"),
            (n, "\"n\":7.0", "rec.n: expected an integer in"),
            (n, "\"n\":-7", "rec.n: expected an integer in"),
            (
                n,
                "\"n\":4294967296",
                "rec.n: 4294967296 is out of range for u32",
            ),
            ("255", "256", "rec.tags[1]: 256 is out of range for u8"),
            ("51615,", "51616,", "rec.pair[0]: expected an integer in"),
            (
                ",9007199254740993]",
                "]",
                "rec.pair: expected 2 elements, got 1",
            ),
            ("null", "1e39", "rec.maybe: 1e39 is not a finite f32"),
            (
                "\"nanos\":5",
                "\"nanos\":1000000000",
                "rec.took.nanos: 1000000000 is out",
            ),
            ("\"a\"", "null", "rec.id: expected a string, got null"),
        ];
        for (from, to, want) in cases {
            let doc = REC.replace(from, to);
            let err = from_str::<Rec>(&doc, "rec").unwrap_err();
            assert!(err.contains(want), "{doc}\n  gave {err}\n  want {want}");
        }
        let cases: &[(&str, &str)] = &[
            (r#""Round""#, "kind: unknown variant \"Round\""),
            (r#"{"Plain":{}}"#, "kind: variant Plain takes no fields"),
            (r#""Sized""#, "kind: variant Sized needs its fields"),
            (r#"{"Sized":{"bits":8,"x":1}}"#, "kind.Sized: unknown field"),
            (
                r#"{"Sized":{"bits":8},"Plain":{}}"#,
                "kind: expected a variant",
            ),
            ("7", "kind: expected a variant name"),
        ];
        for (doc, want) in cases {
            let err = from_str::<Kind>(doc, "kind").unwrap_err();
            assert!(err.contains(want), "{doc}\n  gave {err}\n  want {want}");
        }
    }
}

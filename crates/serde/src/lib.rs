//! In-tree stand-in for the `serde` crate.
//!
//! The build environment has no access to crates.io, so this crate provides
//! the subset of serde that memnet actually uses: a [`Serialize`] /
//! [`Deserialize`] trait pair with derive macros, backed directly by JSON.
//! Unlike real serde there is no pluggable data model — serialization writes
//! JSON text and deserialization reads a parsed [`json::Value`] tree. The
//! derive macros (enabled by the `derive` feature, like real serde) support
//! the shapes memnet defines: named-field structs, newtype/tuple structs,
//! and enums with unit or tuple variants.
//!
//! Numbers round-trip exactly: integers are written in full precision and
//! floats use Rust's shortest-round-trip formatting, so a serialized value
//! deserializes to a bit-identical one (non-finite floats are encoded as the
//! JSON strings `"NaN"`, `"inf"` and `"-inf"`).

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

pub mod ser {
    //! JSON-writing serializer.
    //!
    //! Nothing here allocates per value; only the output text grows.
    //! Integers are spelled through a two-digit table straight into it,
    //! floats through [`core::fmt::Write`] in their `Display` spelling,
    //! strings with nothing to escape are copied whole, and derived types
    //! hand over their keys and unit-variant tags already quoted.

    use core::fmt::{self, Write as _};

    /// `"00"` through `"99"`: two decimal digits per lookup.
    const DIGIT_PAIRS: &[u8; 200] = b"\
        0001020304050607080910111213141516171819\
        2021222324252627282930313233343536373839\
        4041424344454647484950515253545556575859\
        6061626364656667686970717273747576777879\
        8081828384858687888990919293949596979899";

    /// 10^19, the largest power of ten below `u64::MAX`.
    const TEN_POW_19: u128 = 10_000_000_000_000_000_000;

    /// A JSON text writer with comma bookkeeping.
    #[derive(Debug, Default)]
    pub struct Serializer {
        out: String,
        // Whether the next key or element needs a comma before it. Every
        // finished value sets it and opening a container clears it, so
        // one flag serves all nesting levels.
        comma: bool,
    }

    impl Serializer {
        /// Creates an empty serializer.
        pub fn new() -> Self {
            Serializer::default()
        }

        /// A serializer that appends to `out`'s text.
        pub(crate) fn appending(out: String) -> Self {
            Serializer { out, comma: false }
        }

        /// Consumes the serializer, returning the JSON text.
        pub fn into_string(self) -> String {
            self.out
        }

        fn sep(&mut self) {
            if self.comma {
                self.out.push(',');
            }
        }

        /// Starts a JSON object.
        pub fn begin_object(&mut self) {
            self.out.push('{');
            self.comma = false;
        }

        /// Ends a JSON object.
        pub fn end_object(&mut self) {
            self.out.push('}');
            self.comma = true;
        }

        /// Writes an object key, quoted and escaped (with separating comma
        /// as needed).
        pub fn key(&mut self, name: &str) {
            self.sep();
            self.push_quoted(name);
            self.out.push(':');
        }

        /// Writes an object key given as JSON text, quotes and colon
        /// included, and led by a comma unless it is the object's first
        /// (`"\"a\":"`, then `",\"b\":"`). Derived structs know their
        /// field order, so they pass each field's key this way.
        pub fn quoted_key(&mut self, key: &str) {
            self.out.push_str(key);
        }

        /// Starts a JSON array.
        pub fn begin_array(&mut self) {
            self.out.push('[');
            self.comma = false;
        }

        /// Ends a JSON array.
        pub fn end_array(&mut self) {
            self.out.push(']');
            self.comma = true;
        }

        /// Marks the start of an array element (writes the comma).
        pub fn element(&mut self) {
            self.sep();
        }

        /// Writes a raw (pre-validated) JSON token, e.g. a number.
        pub fn write_raw(&mut self, token: &str) {
            self.out.push_str(token);
            self.comma = true;
        }

        /// Writes a quoted, escaped JSON string.
        pub fn write_quoted(&mut self, s: &str) {
            self.push_quoted(s);
            self.comma = true;
        }

        /// Writes an unsigned integer.
        pub fn write_u64(&mut self, n: u64) {
            if n < 10 {
                // Zero and the other one-digit counts fill most reports.
                self.out.push(char::from(b'0' + n as u8));
                self.comma = true;
                return;
            }
            let mut buf = [0u8; 20];
            let at = spell(n, &mut buf, 20, 1);
            self.push_digits(&buf[at..]);
        }

        /// Writes a signed integer.
        pub fn write_i64(&mut self, n: i64) {
            if n < 0 {
                self.out.push('-');
            }
            self.write_u64(n.unsigned_abs());
        }

        /// Writes a 128-bit unsigned integer.
        pub fn write_u128(&mut self, mut n: u128) {
            // Whole 19-digit chunks from the right while `n` outgrows a
            // u64, then the leading digits.
            let mut buf = [0u8; 39];
            let mut end = buf.len();
            while n > u128::from(u64::MAX) {
                end = spell((n % TEN_POW_19) as u64, &mut buf, end, 19);
                n /= TEN_POW_19;
            }
            let at = spell(n as u64, &mut buf, end, 1);
            self.push_digits(&buf[at..]);
        }

        /// Writes a 128-bit signed integer.
        pub fn write_i128(&mut self, n: i128) {
            if n < 0 {
                self.out.push('-');
            }
            self.write_u128(n.unsigned_abs());
        }

        /// Writes a finite float in its `Display` spelling, the shortest
        /// decimal that reads back to the same bits.
        pub fn write_float(&mut self, x: impl fmt::Display) {
            // Writing into a `String` cannot fail.
            let _ = write!(self.out, "{x}");
            self.comma = true;
        }

        fn push_digits(&mut self, digits: &[u8]) {
            self.out.push_str(core::str::from_utf8(digits).expect("decimal digits are ASCII"));
            self.comma = true;
        }

        fn push_quoted(&mut self, s: &str) {
            self.out.push('"');
            // Copy the text between escapes whole. Every escaped byte is
            // ASCII, so the runs are whole characters.
            let mut run = 0;
            for (i, &b) in s.as_bytes().iter().enumerate() {
                let escape = match b {
                    b'"' => "\\\"",
                    b'\\' => "\\\\",
                    b'\n' => "\\n",
                    b'\r' => "\\r",
                    b'\t' => "\\t",
                    0..=0x1f => "\\u00",
                    _ => continue,
                };
                self.out.push_str(&s[run..i]);
                self.out.push_str(escape);
                if escape == "\\u00" {
                    // The other control characters: two hex digits follow.
                    let hex = b"0123456789abcdef";
                    self.out.push(char::from(hex[usize::from(b >> 4)]));
                    self.out.push(char::from(hex[usize::from(b & 0xf)]));
                }
                run = i + 1;
            }
            self.out.push_str(&s[run..]);
            self.out.push('"');
        }
    }

    /// Spells `n` in decimal into `buf`, ending at `end` and zero-padded
    /// to at least `width` digits, and returns where the digits start.
    fn spell(mut n: u64, buf: &mut [u8], end: usize, width: usize) -> usize {
        let mut at = end;
        while n >= 100 {
            let pair = (n % 100) as usize * 2;
            n /= 100;
            at -= 2;
            buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        }
        if n >= 10 {
            let pair = n as usize * 2;
            at -= 2;
            buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        } else {
            at -= 1;
            buf[at] = b'0' + n as u8;
        }
        while end - at < width {
            at -= 1;
            buf[at] = b'0';
        }
        at
    }
}

pub mod de {
    //! Deserialization error type.

    use core::fmt;

    /// Why a JSON value could not be turned into the requested type.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Error(pub String);

    impl Error {
        /// Creates an error with the given message.
        pub fn msg(m: impl Into<String>) -> Error {
            Error(m.into())
        }
    }

    impl fmt::Display for Error {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "deserialization error: {}", self.0)
        }
    }

    impl std::error::Error for Error {}
}

pub mod json {
    //! Parsed JSON values and text parsing.

    use super::de::Error;

    /// A parsed JSON value. Numbers keep their raw text so that integers
    /// larger than 2^53 and floats round-trip exactly.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// A number, kept as its raw JSON text.
        Num(String),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object (insertion order preserved).
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// Looks up a key in an object.
        pub fn get(&self, key: &str) -> Result<&Value, Error> {
            match self {
                Value::Obj(pairs) => pairs
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v)
                    .ok_or_else(|| Error::msg(format!("missing key {key:?}"))),
                _ => Err(Error::msg(format!("expected object with key {key:?}"))),
            }
        }

        /// The value as a string slice.
        pub fn as_str(&self) -> Result<&str, Error> {
            match self {
                Value::Str(s) => Ok(s),
                _ => Err(Error::msg(format!("expected string, got {self:?}"))),
            }
        }

        /// The value as an array slice.
        pub fn as_array(&self) -> Result<&[Value], Error> {
            match self {
                Value::Arr(items) => Ok(items),
                _ => Err(Error::msg(format!("expected array, got {self:?}"))),
            }
        }

        /// The value's numeric text parsed as `T`.
        pub fn num<T: core::str::FromStr>(&self) -> Result<T, Error> {
            match self {
                Value::Num(raw) => {
                    raw.parse::<T>().map_err(|_| Error::msg(format!("number {raw:?} out of range")))
                }
                _ => Err(Error::msg(format!("expected number, got {self:?}"))),
            }
        }
    }

    /// A `Value` serializes back to the JSON it parsed from (modulo
    /// whitespace): numbers re-emit their raw text, objects preserve
    /// insertion order. This lets callers round-trip documents they only
    /// partially understand.
    impl crate::Serialize for Value {
        fn serialize(&self, s: &mut crate::ser::Serializer) {
            match self {
                Value::Null => s.write_raw("null"),
                Value::Bool(b) => s.write_raw(if *b { "true" } else { "false" }),
                Value::Num(raw) => s.write_raw(raw),
                Value::Str(v) => s.write_quoted(v),
                Value::Arr(items) => {
                    s.begin_array();
                    for item in items {
                        s.element();
                        item.serialize(s);
                    }
                    s.end_array();
                }
                Value::Obj(pairs) => {
                    s.begin_object();
                    for (k, v) in pairs {
                        s.key(k);
                        v.serialize(s);
                    }
                    s.end_object();
                }
            }
        }
    }

    impl crate::Deserialize for Value {
        fn deserialize(v: &Value) -> Result<Self, Error> {
            Ok(v.clone())
        }
    }

    /// Parses one JSON document.
    pub fn parse(text: &str) -> Result<Value, Error> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(Error::msg(format!("trailing data at byte {}", p.pos)));
        }
        Ok(v)
    }

    /// Serializes a value to JSON text.
    pub fn to_string<T: crate::Serialize + ?Sized>(value: &T) -> String {
        let mut out = String::new();
        append(&mut out, value);
        out
    }

    /// Appends a value's JSON text to `out`, the same bytes
    /// [`to_string`] returns, without a `String` of its own.
    pub fn append<T: crate::Serialize + ?Sized>(out: &mut String, value: &T) {
        let mut s = crate::ser::Serializer::appending(std::mem::take(out));
        value.serialize(&mut s);
        *out = s.into_string();
    }

    /// Parses JSON text into a `T`.
    pub fn from_str<T: crate::Deserialize>(text: &str) -> Result<T, Error> {
        T::deserialize(&parse(text)?)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> Parser<'a> {
        fn skip_ws(&mut self) {
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, b: u8) -> Result<(), Error> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(Error::msg(format!("expected {:?} at byte {}", b as char, self.pos)))
            }
        }

        fn value(&mut self) -> Result<Value, Error> {
            match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(Value::Str(self.string()?)),
                Some(b't') => self.literal("true", Value::Bool(true)),
                Some(b'f') => self.literal("false", Value::Bool(false)),
                Some(b'n') => self.literal("null", Value::Null),
                Some(b'-' | b'0'..=b'9') => self.number(),
                other => Err(Error::msg(format!(
                    "unexpected {:?} at byte {}",
                    other.map(|b| b as char),
                    self.pos
                ))),
            }
        }

        fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(v)
            } else {
                Err(Error::msg(format!("bad literal at byte {}", self.pos)))
            }
        }

        fn number(&mut self) -> Result<Value, Error> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
                self.pos += 1;
            }
            if self.pos == start {
                return Err(Error::msg(format!("bad number at byte {start}")));
            }
            let raw = core::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| Error::msg("invalid utf-8 in number"))?;
            Ok(Value::Num(raw.to_owned()))
        }

        fn string(&mut self) -> Result<String, Error> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err(Error::msg("unterminated string")),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        let esc = self.peek().ok_or_else(|| Error::msg("unterminated escape"))?;
                        self.pos += 1;
                        match esc {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'b' => out.push('\u{0008}'),
                            b'f' => out.push('\u{000C}'),
                            b'n' => out.push('\n'),
                            b'r' => out.push('\r'),
                            b't' => out.push('\t'),
                            b'u' => {
                                let hex = self
                                    .bytes
                                    .get(self.pos..self.pos + 4)
                                    .ok_or_else(|| Error::msg("truncated \\u escape"))?;
                                let hex = core::str::from_utf8(hex)
                                    .map_err(|_| Error::msg("bad \\u escape"))?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| Error::msg("bad \\u escape"))?;
                                self.pos += 4;
                                out.push(
                                    char::from_u32(code)
                                        .ok_or_else(|| Error::msg("bad \\u code point"))?,
                                );
                            }
                            other => {
                                return Err(Error::msg(format!("bad escape \\{}", other as char)))
                            }
                        }
                    }
                    Some(_) => {
                        // Copy the whole run up to the next quote or
                        // backslash. Both are ASCII, so they never sit
                        // inside a multi-byte character and the run is
                        // whole characters of the input `&str`.
                        let rest = &self.bytes[self.pos..];
                        let len = rest
                            .iter()
                            .position(|&b| b == b'"' || b == b'\\')
                            .ok_or_else(|| Error::msg("unterminated string"))?;
                        let run = core::str::from_utf8(&rest[..len])
                            .map_err(|_| Error::msg("invalid utf-8 in string"))?;
                        out.push_str(run);
                        self.pos += len;
                    }
                }
            }
        }

        fn object(&mut self) -> Result<Value, Error> {
            self.expect(b'{')?;
            let mut pairs = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Obj(pairs));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let val = self.value()?;
                pairs.push((key, val));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Obj(pairs));
                    }
                    _ => return Err(Error::msg(format!("bad object at byte {}", self.pos))),
                }
            }
        }

        fn array(&mut self) -> Result<Value, Error> {
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
                    _ => return Err(Error::msg(format!("bad array at byte {}", self.pos))),
                }
            }
        }
    }
}

/// Types that can write themselves as JSON.
pub trait Serialize {
    /// Writes `self` into the serializer.
    fn serialize(&self, s: &mut ser::Serializer);
}

/// Types that can be reconstructed from a parsed JSON value.
pub trait Deserialize: Sized {
    /// Builds `Self` from a JSON value.
    fn deserialize(v: &json::Value) -> Result<Self, de::Error>;
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, s: &mut ser::Serializer) {
        (**self).serialize(s);
    }
}

macro_rules! int_impls {
    ($($write:ident($wide:ty): $($t:ty),*;)*) => {$($(
        impl Serialize for $t {
            fn serialize(&self, s: &mut ser::Serializer) {
                s.$write(*self as $wide);
            }
        }
        impl Deserialize for $t {
            fn deserialize(v: &json::Value) -> Result<Self, de::Error> {
                v.num::<$t>()
            }
        }
    )*)*};
}

int_impls! {
    write_u64(u64): u8, u16, u32, u64, usize;
    write_i64(i64): i8, i16, i32, i64, isize;
    write_u128(u128): u128;
    write_i128(i128): i128;
}

macro_rules! float_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, s: &mut ser::Serializer) {
                if self.is_finite() {
                    s.write_float(*self)
                } else if self.is_nan() {
                    s.write_quoted("NaN")
                } else if *self > 0.0 {
                    s.write_quoted("inf")
                } else {
                    s.write_quoted("-inf")
                }
            }
        }
        impl Deserialize for $t {
            fn deserialize(v: &json::Value) -> Result<Self, de::Error> {
                match v {
                    json::Value::Str(s) if s == "NaN" => Ok(<$t>::NAN),
                    json::Value::Str(s) if s == "inf" => Ok(<$t>::INFINITY),
                    json::Value::Str(s) if s == "-inf" => Ok(<$t>::NEG_INFINITY),
                    _ => v.num::<$t>(),
                }
            }
        }
    )*};
}

float_impls!(f32, f64);

impl Serialize for bool {
    fn serialize(&self, s: &mut ser::Serializer) {
        s.write_raw(if *self { "true" } else { "false" });
    }
}

impl Deserialize for bool {
    fn deserialize(v: &json::Value) -> Result<Self, de::Error> {
        match v {
            json::Value::Bool(b) => Ok(*b),
            _ => Err(de::Error::msg(format!("expected bool, got {v:?}"))),
        }
    }
}

impl Serialize for str {
    fn serialize(&self, s: &mut ser::Serializer) {
        s.write_quoted(self);
    }
}

impl Serialize for String {
    fn serialize(&self, s: &mut ser::Serializer) {
        s.write_quoted(self);
    }
}

impl Deserialize for String {
    fn deserialize(v: &json::Value) -> Result<Self, de::Error> {
        Ok(v.as_str()?.to_owned())
    }
}

/// Deserializing to `&'static str` leaks the string. Cache loads are the
/// only consumer; they deserialize a bounded set of interned-by-design
/// labels (workload/policy/mechanism names), so the leak is bounded too.
impl Deserialize for &'static str {
    fn deserialize(v: &json::Value) -> Result<Self, de::Error> {
        Ok(Box::leak(v.as_str()?.to_owned().into_boxed_str()))
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, s: &mut ser::Serializer) {
        self.as_slice().serialize(s);
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, s: &mut ser::Serializer) {
        s.begin_array();
        for item in self {
            s.element();
            item.serialize(s);
        }
        s.end_array();
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(v: &json::Value) -> Result<Self, de::Error> {
        v.as_array()?.iter().map(T::deserialize).collect()
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, s: &mut ser::Serializer) {
        self.as_slice().serialize(s);
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize(v: &json::Value) -> Result<Self, de::Error> {
        let items = Vec::<T>::deserialize(v)?;
        let len = items.len();
        items.try_into().map_err(|_| de::Error::msg(format!("expected {N} elements, got {len}")))
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, s: &mut ser::Serializer) {
        match self {
            None => s.write_raw("null"),
            Some(v) => v.serialize(s),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(v: &json::Value) -> Result<Self, de::Error> {
        match v {
            json::Value::Null => Ok(None),
            other => Ok(Some(T::deserialize(other)?)),
        }
    }
}

/// Like real serde's `rc` feature: an `Arc<T>` is written as the `T` it
/// points to.
impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn serialize(&self, s: &mut ser::Serializer) {
        (**self).serialize(s);
    }
}

macro_rules! tuple_impls {
    ($(($($n:tt $t:ident),+))+) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize(&self, s: &mut ser::Serializer) {
                s.begin_array();
                $( s.element(); self.$n.serialize(s); )+
                s.end_array();
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn deserialize(v: &json::Value) -> Result<Self, de::Error> {
                let items = v.as_array()?;
                let expected = [$($n,)+].len();
                if items.len() != expected {
                    return Err(de::Error::msg(format!(
                        "expected {expected}-tuple, got {} elements", items.len()
                    )));
                }
                Ok(($($t::deserialize(&items[$n])?,)+))
            }
        }
    )+};
}

tuple_impls! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

#[cfg(test)]
mod tests {
    use super::json::{parse, Value};
    use super::*;

    #[test]
    fn scalars_round_trip() {
        assert_eq!(json::to_string(&42u64), "42");
        assert_eq!(json::from_str::<u64>("42").unwrap(), 42);
        assert_eq!(json::to_string(&u64::MAX), u64::MAX.to_string());
        assert_eq!(json::from_str::<u64>(&u64::MAX.to_string()).unwrap(), u64::MAX);
        assert_eq!(json::to_string(&true), "true");
        assert_eq!(json::to_string(&"hi\n\"x\""), "\"hi\\n\\\"x\\\"\"");
        assert_eq!(json::from_str::<String>("\"hi\\n\"").unwrap(), "hi\n");
    }

    #[test]
    fn floats_round_trip_exactly() {
        for x in [0.0f64, -0.0, 1.0 / 3.0, 6.02e23, 1e-300, -17.25, f64::MIN_POSITIVE] {
            let text = json::to_string(&x);
            let back: f64 = json::from_str(&text).unwrap();
            assert_eq!(x.to_bits(), back.to_bits(), "{x} via {text}");
        }
        let nan: f64 = json::from_str(&json::to_string(&f64::NAN)).unwrap();
        assert!(nan.is_nan());
        let inf: f64 = json::from_str(&json::to_string(&f64::INFINITY)).unwrap();
        assert_eq!(inf, f64::INFINITY);
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![1u32, 2, 3];
        assert_eq!(json::to_string(&v), "[1,2,3]");
        assert_eq!(json::from_str::<Vec<u32>>("[1,2,3]").unwrap(), v);
        let arr: [u64; 3] = json::from_str("[4,5,6]").unwrap();
        assert_eq!(arr, [4, 5, 6]);
        assert!(json::from_str::<[u64; 2]>("[4,5,6]").is_err());
        assert_eq!(json::to_string(&Option::<u32>::None), "null");
        assert_eq!(json::from_str::<Option<u32>>("null").unwrap(), None);
        assert_eq!(json::from_str::<Option<u32>>("7").unwrap(), Some(7));
        let pair: (u32, String) = json::from_str("[7,\"x\"]").unwrap();
        assert_eq!(pair, (7, "x".to_owned()));
    }

    #[test]
    fn parser_handles_nesting_and_ws() {
        let v = parse(" { \"a\" : [ 1 , { \"b\" : null } ] , \"c\" : \"d\" } ").unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].num::<u32>().unwrap(), 1);
        assert!(matches!(a[1].get("b").unwrap(), Value::Null));
        assert_eq!(v.get("c").unwrap().as_str().unwrap(), "d");
        assert!(parse("{\"a\":1,}").is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("").is_err());
        assert!(parse("[1] junk").is_err());
    }

    #[test]
    fn strings_decode_multibyte_characters_beside_escapes_and_at_both_ends() {
        // é is 2 bytes of UTF-8, € is 3 and 𝄞 is 4.
        for (text, want) in [
            ("\"é\"", "é"),
            ("\"€abc𝄞\"", "€abc𝄞"),
            ("\"é\\n€\\\"𝄞\"", "é\n€\"𝄞"),
            ("\"\\u00e9é\\t€\"", "éé\t€"),
            ("\"𝄞\\\\\"", "𝄞\\"),
            ("\"\\/€\\b\"", "/€\u{8}"),
            ("\"\"", ""),
        ] {
            assert_eq!(json::from_str::<String>(text).unwrap(), want, "{text}");
        }
        let key = parse("{\"€é\":\"𝄞\"}").unwrap();
        assert_eq!(key.get("€é").unwrap().as_str().unwrap(), "𝄞");
        let s = "𝄞é€\"\\\n\u{1}x€";
        assert_eq!(json::from_str::<String>(&json::to_string(&s)).unwrap(), s);

        for bad in ["\"é", "\"abc€", "\"𝄞\\n"] {
            assert_eq!(parse(bad), Err(de::Error::msg("unterminated string")), "{bad:?}");
        }
        assert_eq!(parse("\"€\\"), Err(de::Error::msg("unterminated escape")));
        assert!(parse("\"é\\q\"").is_err());
    }

    #[test]
    fn arc_serializes_as_its_pointee() {
        let shared = std::sync::Arc::new(vec![1u32, 2]);
        assert_eq!(json::to_string(&shared), json::to_string(&*shared));
    }

    #[test]
    fn value_round_trips_as_canonical_text() {
        let text = "{\"a\":[1,{\"b\":null}],\"c\":\"d\",\"e\":1.5e-3,\"f\":true}";
        let v: Value = json::from_str(text).unwrap();
        assert_eq!(json::to_string(&v), text, "whitespace-free text is a fixed point");
        let spaced: Value = json::from_str(
            " { \"a\" : [ 1 , { \"b\" : null } ] , \
                                            \"c\" : \"d\" , \"e\" : 1.5e-3 , \"f\" : true } ",
        )
        .unwrap();
        assert_eq!(json::to_string(&spaced), text, "re-serialization canonicalizes whitespace");
    }

    #[test]
    fn static_str_leaks_and_matches() {
        let s: &'static str = json::from_str("\"mixD\"").unwrap();
        assert_eq!(s, "mixD");
    }
}

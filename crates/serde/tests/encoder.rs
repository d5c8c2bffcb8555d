//! The JSON writer against a reference: the writer it replaced, which
//! spelled every number with `to_string`, escaped strings one character
//! at a time and kept a stack of "has an entry" flags for commas. It is
//! kept here as the specification of the bytes. Every primitive must come
//! out as the reference spells it and parse back to identical bits, and
//! nested values must get the reference's commas.

use std::fmt::{Debug, Display};

use proptest::prelude::*;
use proptest::TestRng;
use serde::json::{self, Value};
use serde::{Deserialize, Serialize};

/// The reference writer.
mod reference {
    use serde::json::Value;

    #[derive(Default)]
    pub struct Serializer {
        out: String,
        // Top of stack: whether the current container already has an
        // entry (so the next one needs a comma).
        has_entry: Vec<bool>,
    }

    impl Serializer {
        fn sep(&mut self) {
            if let Some(top) = self.has_entry.last_mut() {
                if *top {
                    self.out.push(',');
                }
                *top = true;
            }
        }

        pub fn write_raw(&mut self, token: &str) {
            self.out.push_str(token);
        }

        pub fn write_quoted(&mut self, s: &str) {
            self.out.push('"');
            for c in s.chars() {
                match c {
                    '"' => self.out.push_str("\\\""),
                    '\\' => self.out.push_str("\\\\"),
                    '\n' => self.out.push_str("\\n"),
                    '\r' => self.out.push_str("\\r"),
                    '\t' => self.out.push_str("\\t"),
                    c if (c as u32) < 0x20 => {
                        self.out.push_str(&format!("\\u{:04x}", c as u32));
                    }
                    c => self.out.push(c),
                }
            }
            self.out.push('"');
        }

        pub fn value(&mut self, v: &Value) {
            match v {
                Value::Null => self.write_raw("null"),
                Value::Bool(b) => self.write_raw(if *b { "true" } else { "false" }),
                Value::Num(raw) => self.write_raw(raw),
                Value::Str(s) => self.write_quoted(s),
                Value::Arr(items) => {
                    self.out.push('[');
                    self.has_entry.push(false);
                    for item in items {
                        self.sep();
                        self.value(item);
                    }
                    self.has_entry.pop();
                    self.out.push(']');
                }
                Value::Obj(pairs) => {
                    self.out.push('{');
                    self.has_entry.push(false);
                    for (k, v) in pairs {
                        self.sep();
                        self.write_quoted(k);
                        self.out.push(':');
                        self.value(v);
                    }
                    self.has_entry.pop();
                    self.out.push('}');
                }
            }
        }

        pub fn into_string(self) -> String {
            self.out
        }
    }

    pub fn quoted(s: &str) -> String {
        let mut w = Serializer::default();
        w.write_quoted(s);
        w.into_string()
    }

    /// A float as the reference spelled it: `Display` when finite, else
    /// a quoted name.
    pub fn float<T: std::fmt::Display>(x: T, finite: bool, nan: bool, positive: bool) -> String {
        if finite {
            x.to_string()
        } else if nan {
            quoted("NaN")
        } else if positive {
            quoted("inf")
        } else {
            quoted("-inf")
        }
    }
}

/// An integer is spelled as `to_string` spells it and reads back equal.
fn check_int<T>(n: T) -> Result<(), TestCaseError>
where
    T: Serialize + Deserialize + Display + Debug + PartialEq,
{
    let text = json::to_string(&n);
    prop_assert_eq!(&text, &n.to_string());
    prop_assert_eq!(json::from_str::<T>(&text).ok(), Some(n));
    Ok(())
}

/// 0, 10^k − 1, 10^k and 10^k + 1 for every power of ten a u128 holds,
/// and `u128::MAX`: every digit-count boundary of every width.
fn boundaries() -> Vec<u128> {
    let mut out = vec![0, u128::MAX];
    let mut p = 1u128;
    loop {
        out.extend([p - 1, p, p + 1]);
        match p.checked_mul(10) {
            Some(next) => p = next,
            None => return out,
        }
    }
}

/// Every digit-count boundary a `T` holds, both signs, and its extremes.
fn check_width<T>(min: T, max: T) -> Result<(), TestCaseError>
where
    T: TryFrom<u128> + TryFrom<i128> + Serialize + Deserialize + Display + Debug + PartialEq,
{
    check_int(min)?;
    check_int(max)?;
    for b in boundaries() {
        if let Ok(n) = <T as TryFrom<u128>>::try_from(b) {
            check_int(n)?;
        }
        if let Some(n) =
            i128::try_from(b).ok().and_then(|b| <T as TryFrom<i128>>::try_from(-b).ok())
        {
            check_int(n)?;
        }
    }
    Ok(())
}

macro_rules! check_widths {
    ($($t:ty),*) => {$( check_width(<$t>::MIN, <$t>::MAX)?; )*};
}

#[test]
fn integers_at_every_digit_boundary_match_the_reference() -> Result<(), TestCaseError> {
    check_widths!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);
    Ok(())
}

fn check_f64(x: f64) -> Result<(), TestCaseError> {
    let text = json::to_string(&x);
    prop_assert_eq!(&text, &reference::float(x, x.is_finite(), x.is_nan(), x > 0.0));
    let back: f64 = json::from_str(&text).map_err(|e| TestCaseError::fail(e.to_string()))?;
    prop_assert!(
        back.to_bits() == x.to_bits() || (x.is_nan() && back.is_nan()),
        "{x:?} via {text}"
    );
    Ok(())
}

fn check_f32(x: f32) -> Result<(), TestCaseError> {
    let text = json::to_string(&x);
    prop_assert_eq!(&text, &reference::float(x, x.is_finite(), x.is_nan(), x > 0.0));
    let back: f32 = json::from_str(&text).map_err(|e| TestCaseError::fail(e.to_string()))?;
    prop_assert!(
        back.to_bits() == x.to_bits() || (x.is_nan() && back.is_nan()),
        "{x:?} via {text}"
    );
    Ok(())
}

#[test]
fn special_floats_match_the_reference() -> Result<(), TestCaseError> {
    for x in [
        0.0,
        -0.0,
        5e-324,
        f64::from_bits(0x000f_ffff_ffff_ffff), // the largest subnormal
        f64::MIN_POSITIVE,
        1e-7,
        0.1,
        1.0 / 3.0,
        1e16,
        1e300,
        f64::MAX,
        f64::MIN,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ] {
        check_f64(x)?;
        check_f32(x as f32)?;
    }
    check_f32(f32::from_bits(1))?;
    check_f32(f32::MAX)?;
    Ok(())
}

/// Characters that must be escaped, that must not be, and multi-byte
/// ones beside them.
const ALPHABET: [char; 18] = [
    'a', 'Z', ' ', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{8}', '\u{c}', '\u{1f}',
    '\u{7f}', 'é', '€', '𝄞', '/',
];

/// Random JSON trees at most `depth` containers deep, keys included.
struct Trees {
    depth: u32,
}

impl Strategy for Trees {
    type Value = Value;

    fn sample(&self, rng: &mut TestRng) -> Value {
        let text = |rng: &mut TestRng| -> String {
            let len = rng.next_u64() % 6;
            (0..len).map(|_| ALPHABET[(rng.next_u64() % ALPHABET.len() as u64) as usize]).collect()
        };
        let kinds = if self.depth == 0 { 4 } else { 6 };
        match rng.next_u64() % kinds {
            0 => Value::Null,
            1 => Value::Bool(rng.next_u64().is_multiple_of(2)),
            2 => Value::Num(json::to_string(&(rng.next_u64() >> 40))),
            3 => Value::Str(text(rng)),
            4 => {
                let inner = Trees { depth: self.depth - 1 };
                Value::Arr((0..rng.next_u64() % 4).map(|_| inner.sample(rng)).collect())
            }
            _ => {
                let inner = Trees { depth: self.depth - 1 };
                Value::Obj(
                    (0..rng.next_u64() % 4).map(|_| (text(rng), inner.sample(rng))).collect(),
                )
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn integers_match_the_reference(n in any::<u64>(), m in any::<u64>(), shift in 0..64u32) {
        let n = n >> shift;
        check_int(n)?;
        check_int(n as u8)?;
        check_int(n as u16)?;
        check_int(n as u32)?;
        check_int(n as usize)?;
        check_int(n as i8)?;
        check_int(n as i16)?;
        check_int(n as i32)?;
        check_int(n as i64)?;
        check_int(n as isize)?;
        let wide = ((u128::from(m) << 64) | u128::from(n)) >> shift;
        check_int(wide)?;
        check_int(wide as i128)?;
    }

    #[test]
    fn floats_match_the_reference(bits in any::<u64>(), small in any::<u32>()) {
        check_f64(f64::from_bits(bits))?;
        check_f32(f32::from_bits(small))?;
        // Short spellings too: a few significant digits at any scale.
        check_f64((bits % 100_000) as f64 * 10f64.powi((small % 60) as i32 - 30))?;
    }

    #[test]
    fn strings_match_the_reference(
        chars in prop::collection::vec(prop::sample::select(&ALPHABET), 0..40)
    ) {
        let s: String = chars.into_iter().collect();
        let text = json::to_string(&s);
        prop_assert_eq!(&text, &reference::quoted(&s));
        prop_assert_eq!(json::from_str::<String>(&text).ok(), Some(s));
    }

    #[test]
    fn nested_values_get_the_reference_commas(tree in Trees { depth: 4 }) {
        let mut w = reference::Serializer::default();
        w.value(&tree);
        let text = json::to_string(&tree);
        prop_assert_eq!(&text, &w.into_string());
        // The append entry point writes the same bytes after what is there.
        let mut line = String::from("{\"fp\":");
        json::append(&mut line, &tree);
        prop_assert_eq!(&line[6..], text.as_str());
    }
}

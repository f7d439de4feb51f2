//! Offline stand-in for `serde` (serialization only).
//!
//! The build environment has no crates-registry access and no proc-macro
//! crates, so this shim replaces the `Serialize` derive with a streaming
//! design: a type writes itself, as compact JSON text, into a
//! [`JsonWriter`] — one pass, no intermediate tree, and no allocation
//! beyond the output string's growth. Structs get their impl from the
//! declarative [`impl_serialize!`] macro instead of `#[derive(Serialize)]`;
//! a producer whose shape depends on its arguments returns
//! [`from_fn`]`(|w| …)`.
//!
//! [`Value`] is the *read* side: what `serde_json::from_str` parses a
//! document into. It is also one more [`Serialize`] type, walking itself
//! by reference.

use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};

/// A parsed JSON document: what `serde_json::from_str` returns.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point number.
    F64(f64),
    /// JSON string.
    Str(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object; insertion-ordered so emitted documents are stable.
    Object(Vec<(String, Value)>),
}

/// A type that can write itself as one JSON value.
pub trait Serialize {
    /// Writes `self` into `w` as exactly one JSON value.
    fn serialize(&self, w: &mut JsonWriter);
}

/// Compact JSON text under construction. Every method that writes a value
/// or a key places the separating `,` itself, so producers only say what
/// comes next; [`object`](JsonWriter::object) and
/// [`array`](JsonWriter::array) take the body as a closure so brackets
/// always balance.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Whether a `,` must precede the next value or key at this level.
    comma: bool,
}

const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    /// The text written so far.
    pub fn into_string(self) -> String {
        self.out
    }

    fn sep(&mut self) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.raw("null");
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) {
        self.raw(if b { "true" } else { "false" });
    }

    /// Writes an unsigned integer.
    pub fn u64(&mut self, mut n: u64) {
        self.sep();
        let mut buf = [0u8; 20];
        let mut at = buf.len();
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
        self.out
            .push_str(std::str::from_utf8(&buf[at..]).expect("ascii digits"));
    }

    /// Writes a signed integer.
    pub fn i64(&mut self, n: i64) {
        if n < 0 {
            self.sep();
            self.out.push('-');
            self.comma = false;
        }
        self.u64(n.unsigned_abs());
    }

    /// Writes a float as Rust's shortest round-trip `Display` form;
    /// non-finite values become `null` (matching upstream's behaviour for
    /// `Value::from(f64::NAN)`).
    pub fn f64(&mut self, x: f64) {
        if x.is_finite() {
            self.sep();
            let _ = write!(self.out, "{x}");
        } else {
            self.null();
        }
    }

    /// Writes a string, escaped per RFC 8259.
    pub fn str(&mut self, s: &str) {
        self.sep();
        self.out.push('"');
        escape_into(s, &mut self.out);
        self.out.push('"');
    }

    /// Writes `v`'s `Display` form as a string, without allocating one.
    pub fn display<T: Display + ?Sized>(&mut self, v: &T) {
        self.sep();
        self.out.push('"');
        let start = self.out.len();
        let _ = write!(self.out, "{v}");
        if self.out.as_bytes()[start..]
            .iter()
            .any(|&b| NEEDS_ESCAPE[usize::from(b)])
        {
            let text = self.out.split_off(start);
            escape_into(&text, &mut self.out);
        }
        self.out.push('"');
    }

    /// Splices in `json`, which must be one complete, compact JSON value
    /// (a fragment an earlier writer produced).
    pub fn raw(&mut self, json: &str) {
        self.sep();
        self.out.push_str(json);
    }

    /// Writes an object key; the next write is its value.
    pub fn key(&mut self, k: &str) {
        self.str(k);
        self.out.push(':');
        self.comma = false;
    }

    /// Writes one `key: value` member of the open object.
    pub fn field<T: Serialize + ?Sized>(&mut self, k: &str, v: &T) {
        self.key(k);
        v.serialize(self);
    }

    /// Writes `{…}`, with `body` writing the members.
    pub fn object(&mut self, body: impl FnOnce(&mut JsonWriter)) {
        self.nest('{', '}', body);
    }

    /// Writes `[…]`, with `body` writing the elements.
    pub fn array(&mut self, body: impl FnOnce(&mut JsonWriter)) {
        self.nest('[', ']', body);
    }

    /// Writes an array of every item of `items`.
    pub fn seq<I>(&mut self, items: I)
    where
        I: IntoIterator,
        I::Item: Serialize,
    {
        self.array(|w| items.into_iter().for_each(|item| item.serialize(w)));
    }

    fn nest(&mut self, open: char, close: char, body: impl FnOnce(&mut JsonWriter)) {
        self.sep();
        self.out.push(open);
        self.comma = false;
        body(self);
        self.out.push(close);
        self.comma = true;
    }
}

/// Whether a byte must be escaped inside a JSON string. Only ASCII bytes
/// must, so a string may be cut before and after any byte this marks.
const NEEDS_ESCAPE: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 0x20 {
        table[b] = true;
        b += 1;
    }
    table[b'"' as usize] = true;
    table[b'\\' as usize] = true;
    table
};

/// Appends `s` to `out` with JSON string escapes, copying each run of
/// bytes that need none in one piece.
fn escape_into(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut rest = s;
    while let Some(at) = rest.bytes().position(|b| NEEDS_ESCAPE[usize::from(b)]) {
        out.push_str(&rest[..at]);
        match rest.as_bytes()[at] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 15)]));
            }
        }
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
}

/// A [`Serialize`] value whose body is the closure `f` — for producers
/// whose output depends on arguments (a cap, a name table) as well as on
/// `self`.
pub fn from_fn<F: Fn(&mut JsonWriter)>(f: F) -> FromFn<F> {
    FromFn(f)
}

/// See [`from_fn`]. A named type rather than `impl Serialize` so the
/// borrow checker can see it has no destructor: a `from_fn(..)` temporary
/// in a block's last expression may then borrow that block's locals.
pub struct FromFn<F>(F);

impl<F: Fn(&mut JsonWriter)> Serialize for FromFn<F> {
    fn serialize(&self, w: &mut JsonWriter) {
        (self.0)(w);
    }
}

impl Serialize for Value {
    fn serialize(&self, w: &mut JsonWriter) {
        match self {
            Value::Null => w.null(),
            Value::Bool(b) => w.bool(*b),
            Value::U64(n) => w.u64(*n),
            Value::I64(n) => w.i64(*n),
            Value::F64(x) => w.f64(*x),
            Value::Str(s) => w.str(s),
            Value::Array(items) => w.seq(items),
            Value::Object(fields) => w.object(|w| fields.iter().for_each(|(k, v)| w.field(k, v))),
        }
    }
}

impl Serialize for bool {
    fn serialize(&self, w: &mut JsonWriter) {
        w.bool(*self);
    }
}

impl Serialize for String {
    fn serialize(&self, w: &mut JsonWriter) {
        w.str(self);
    }
}

impl Serialize for str {
    fn serialize(&self, w: &mut JsonWriter) {
        w.str(self);
    }
}

impl Serialize for f64 {
    fn serialize(&self, w: &mut JsonWriter) {
        w.f64(*self);
    }
}

impl Serialize for f32 {
    fn serialize(&self, w: &mut JsonWriter) {
        w.f64(f64::from(*self));
    }
}

macro_rules! serialize_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut JsonWriter) {
                w.u64(*self as u64);
            }
        }
    )*};
}
serialize_uint!(u8, u16, u32, u64, usize);

macro_rules! serialize_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut JsonWriter) {
                w.i64(*self as i64);
            }
        }
    )*};
}
serialize_int!(i8, i16, i32, i64, isize);

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, w: &mut JsonWriter) {
        (**self).serialize(w);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, w: &mut JsonWriter) {
        match self {
            Some(v) => v.serialize(w),
            None => w.null(),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, w: &mut JsonWriter) {
        w.seq(self);
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, w: &mut JsonWriter) {
        w.seq(self);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, w: &mut JsonWriter) {
        w.seq(self);
    }
}

impl<K: ToString, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize(&self, w: &mut JsonWriter) {
        w.object(|w| self.iter().for_each(|(k, v)| w.field(&k.to_string(), v)));
    }
}

/// Hash maps serialize with their keys sorted (by rendered key string), so
/// emitted documents are byte-stable run to run regardless of hasher seed
/// or insertion order.
impl<K: ToString, V: Serialize, S> Serialize for std::collections::HashMap<K, V, S> {
    fn serialize(&self, w: &mut JsonWriter) {
        let mut fields: Vec<(String, &V)> = self.iter().map(|(k, v)| (k.to_string(), v)).collect();
        fields.sort_by(|(a, _), (b, _)| a.cmp(b));
        w.object(|w| fields.iter().for_each(|(k, v)| w.field(k, v)));
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn serialize(&self, w: &mut JsonWriter) {
        w.array(|w| {
            self.0.serialize(w);
            self.1.serialize(w);
        });
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn serialize(&self, w: &mut JsonWriter) {
        w.array(|w| {
            self.0.serialize(w);
            self.1.serialize(w);
            self.2.serialize(w);
        });
    }
}

/// Implements [`Serialize`] for a struct by listing its fields — the
/// offline replacement for `#[derive(Serialize)]`:
///
/// ```
/// struct Point { x: u32, y: u32 }
/// serde::impl_serialize!(Point { x, y });
/// # let _ = Point { x: 1, y: 2 };
/// ```
#[macro_export]
macro_rules! impl_serialize {
    ($name:ident { $($field:ident),* $(,)? }) => {
        impl $crate::Serialize for $name {
            fn serialize(&self, w: &mut $crate::JsonWriter) {
                w.object(|w| {
                    $(w.field(stringify!($field), &self.$field);)*
                });
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render<T: Serialize + ?Sized>(v: &T) -> String {
        let mut w = JsonWriter::new();
        v.serialize(&mut w);
        w.into_string()
    }

    #[test]
    fn primitives_render_as_expected_text() {
        assert_eq!(render(&5u32), "5");
        assert_eq!(render(&-3i64), "-3");
        assert_eq!(render("hi"), "\"hi\"");
        assert_eq!(render(&None::<u8>), "null");
        assert_eq!(render(&vec![1u8, 2]), "[1,2]");
        assert_eq!(render(&(1u8, "a", false)), "[1,\"a\",false]");
        assert_eq!(render(&Vec::<u8>::new()), "[]");
    }

    #[test]
    fn integers_match_core_fmt_at_every_width() {
        let mut n = 1u64;
        for _ in 0..20 {
            for m in [n - 1, n, n + 1, n.wrapping_mul(7) / 3] {
                assert_eq!(render(&m), m.to_string());
                assert_eq!(render(&(m as i64)), (m as i64).to_string());
                assert_eq!(render(&-(m as i64 / 2)), (-(m as i64 / 2)).to_string());
            }
            n = n.saturating_mul(10);
        }
        assert_eq!(render(&u64::MAX), u64::MAX.to_string());
        assert_eq!(render(&i64::MIN), i64::MIN.to_string());
        assert_eq!(render(&vec![-1i8, -2]), "[-1,-2]");
    }

    #[test]
    fn display_escapes_only_when_it_must() {
        let mut w = JsonWriter::new();
        w.array(|w| {
            w.display(&format_args!("{}.{}", 10, 0));
            w.display("a\"b\n");
        });
        assert_eq!(w.into_string(), r#"["10.0","a\"b\n"]"#);
    }

    #[test]
    fn hash_maps_serialize_with_sorted_keys() {
        let mut m = std::collections::HashMap::new();
        m.insert("zeta", 1u32);
        m.insert("alpha", 2u32);
        m.insert("mid", 3u32);
        assert_eq!(render(&m), r#"{"alpha":2,"mid":3,"zeta":1}"#);
    }

    #[test]
    fn impl_serialize_macro_emits_object() {
        struct P {
            x: u32,
            name: String,
        }
        impl_serialize!(P { x, name });
        let p = P {
            x: 7,
            name: "n".into(),
        };
        assert_eq!(render(&p), r#"{"x":7,"name":"n"}"#);
    }

    #[test]
    fn raw_fragments_and_closures_compose() {
        let inner = render(&from_fn(|w| w.object(|w| w.field("k", &1u8))));
        let outer = from_fn(|w| {
            w.object(|w| {
                w.key("a");
                w.raw(&inner);
                w.key("b");
                w.object(|_| {});
                w.field("c", &[0u8; 0]);
            })
        });
        assert_eq!(render(&outer), r#"{"a":{"k":1},"b":{},"c":[]}"#);
    }
}

//! The one JSON writer. Every machine-readable line rvdyn prints is built
//! here: the `rvdyn-diagnostics-v1` object
//! ([`Diagnostics::to_json`](crate::Diagnostics::to_json)), the fleet
//! rollup ([`FleetSummary::to_json`](crate::FleetSummary::to_json)) and
//! the `rvdyn-bench` result lines. The builder owns quoting, string
//! escaping, commas and nesting; callers name keys and values in the
//! order they should appear, and the output is one line.
//!
//! ```
//! let line = rvdyn::json::object(|o| {
//!     o.field("config", "emu").field("n", 100u64);
//!     o.object("scale", |s| {
//!         s.field("speedup", 0.5);
//!     });
//!     o.array("runs", |a| {
//!         a.object(|r| {
//!             r.field("threads", 1u64);
//!         });
//!     });
//!     o.raw("diagnostics", r#"{"schema":"rvdyn-diagnostics-v1"}"#);
//! });
//! assert_eq!(
//!     line,
//!     r#"{"config":"emu","n":100,"scale":{"speedup":0.5},"runs":[{"threads":1}],"#.to_owned()
//!         + r#""diagnostics":{"schema":"rvdyn-diagnostics-v1"}}"#
//! );
//! ```

use std::fmt::Write;

/// A value the writer can serialise.
pub trait Value {
    /// Append this value's JSON text to `out`.
    fn write_json(&self, out: &mut String);
}

macro_rules! display_value {
    ($($t:ty),*) => {$(
        impl Value for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
display_value!(u8, u32, u64, usize, i64);

impl Value for f64 {
    /// The shortest decimal that reads back as the same `f64`. NaN and
    /// the infinities, which JSON cannot spell, are written as `null`.
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }
}

impl Value for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if c < ' ' => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

impl<T: Value + ?Sized> Value for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

/// Build one JSON object and return its text.
pub fn object(build: impl FnOnce(&mut Object<'_>)) -> String {
    let mut out = String::new();
    Object::nest(&mut out, build);
    out
}

/// Write the separator before a container's next member.
fn comma(out: &mut String, empty: &mut bool) {
    if !std::mem::replace(empty, false) {
        out.push(',');
    }
}

/// An object under construction: each call appends one `"key":value`
/// member.
pub struct Object<'a> {
    out: &'a mut String,
    empty: bool,
}

impl Object<'_> {
    fn nest(out: &mut String, build: impl FnOnce(&mut Object<'_>)) {
        out.push('{');
        build(&mut Object { out, empty: true });
        out.push('}');
    }

    fn key(&mut self, key: &str) -> &mut String {
        comma(self.out, &mut self.empty);
        key.write_json(self.out);
        self.out.push(':');
        self.out
    }

    /// A scalar member.
    pub fn field(&mut self, key: &str, value: impl Value) -> &mut Self {
        value.write_json(self.key(key));
        self
    }

    /// A nested object member.
    pub fn object(&mut self, key: &str, build: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        Object::nest(self.key(key), build);
        self
    }

    /// An array member.
    pub fn array(&mut self, key: &str, build: impl FnOnce(&mut Array<'_>)) -> &mut Self {
        Array::nest(self.key(key), build);
        self
    }

    /// A member whose value is `json`, text that is already serialised
    /// (another `to_json` result), embedded verbatim.
    pub fn raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.key(key).push_str(json);
        self
    }
}

/// An array under construction: each call appends one element.
pub struct Array<'a> {
    out: &'a mut String,
    empty: bool,
}

impl Array<'_> {
    fn nest(out: &mut String, build: impl FnOnce(&mut Array<'_>)) {
        out.push('[');
        build(&mut Array { out, empty: true });
        out.push(']');
    }

    /// An object element.
    pub fn object(&mut self, build: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        comma(self.out, &mut self.empty);
        Object::nest(self.out, build);
        self
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Minimal structural JSON checker: objects, arrays, strings (no raw
    /// control characters), numbers and `null`, with their
    /// separators. Enough to guarantee the writer and every caller of it
    /// produce parseable output.
    pub(crate) fn check_json(s: &str) -> Result<(), String> {
        let b = s.as_bytes();
        let mut i = 0usize;
        fn skip_ws(b: &[u8], i: &mut usize) {
            while *i < b.len() && (b[*i] as char).is_whitespace() {
                *i += 1;
            }
        }
        /// Comma-separated members up to `close`; `member` parses one.
        fn members(
            b: &[u8],
            i: &mut usize,
            close: u8,
            member: fn(&[u8], &mut usize) -> Result<(), String>,
        ) -> Result<(), String> {
            *i += 1; // opening bracket
            skip_ws(b, i);
            if b.get(*i) == Some(&close) {
                *i += 1;
                return Ok(());
            }
            loop {
                member(b, i)?;
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(c) if *c == close => {
                        *i += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or '{}' at {i}", close as char)),
                }
            }
        }
        fn pair(b: &[u8], i: &mut usize) -> Result<(), String> {
            skip_ws(b, i);
            if b.get(*i) != Some(&b'"') {
                return Err(format!("expected key at {i}"));
            }
            string(b, i)?;
            skip_ws(b, i);
            if b.get(*i) != Some(&b':') {
                return Err(format!("expected ':' at {i}"));
            }
            *i += 1;
            value(b, i)
        }
        fn value(b: &[u8], i: &mut usize) -> Result<(), String> {
            skip_ws(b, i);
            match b.get(*i) {
                Some(b'{') => members(b, i, b'}', pair),
                Some(b'[') => members(b, i, b']', value),
                Some(b'"') => string(b, i),
                Some(c) if c.is_ascii_digit() || *c == b'-' => {
                    *i += 1;
                    while *i < b.len() && (b[*i].is_ascii_digit() || b[*i] == b'.' || b[*i] == b'e')
                    {
                        *i += 1;
                    }
                    Ok(())
                }
                _ if b[*i..].starts_with(b"null") => {
                    *i += 4;
                    Ok(())
                }
                other => Err(format!("unexpected {other:?} at {i}")),
            }
        }
        fn string(b: &[u8], i: &mut usize) -> Result<(), String> {
            *i += 1; // opening quote
            while *i < b.len() && b[*i] != b'"' {
                if b[*i] < b' ' {
                    return Err(format!("raw control character at {i}"));
                }
                if b[*i] == b'\\' {
                    *i += 1;
                }
                *i += 1;
            }
            if *i >= b.len() {
                return Err("unterminated string".into());
            }
            *i += 1;
            Ok(())
        }
        value(b, &mut i)?;
        skip_ws(b, &mut i);
        if i != b.len() {
            return Err(format!("trailing garbage at {i}"));
        }
        Ok(())
    }

    #[test]
    fn nested_objects_and_arrays_place_commas() {
        let j = object(|o| {
            o.field("a", 1u64).object("b", |b| {
                b.field("c", 2u64).object("d", |_| {}).field("e", 3u64);
            });
            o.array("f", |a| {
                a.object(|e| {
                    e.field("g", 4u64);
                });
                a.object(|_| {}).object(|e| {
                    e.field("h", 5u64).array("i", |_| {});
                });
            });
            o.array("h", |_| {});
        });
        assert_eq!(
            j,
            r#"{"a":1,"b":{"c":2,"d":{},"e":3},"f":[{"g":4},{},{"h":5,"i":[]}],"h":[]}"#
        );
        check_json(&j).unwrap();
        assert_eq!(object(|_| {}), "{}");
    }

    #[test]
    fn scalars_spell_as_json() {
        let j = object(|o| {
            o.field("neg", -1i64)
                .field("big", u64::MAX)
                .field("half", 0.5)
                .field("whole", 3.0)
                .field("nan", f64::NAN)
                .field("inf", f64::INFINITY);
        });
        assert_eq!(
            j,
            r#"{"neg":-1,"big":18446744073709551615,"half":0.5,"whole":3,"nan":null,"inf":null}"#
        );
        check_json(&j).unwrap();
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_control_characters() {
        let j = object(|o| {
            o.field("s", "a\"b\\c\nd\re\tf\u{1}g\u{1f}h é");
            o.field("key \"quoted\"", "");
        });
        assert_eq!(
            j,
            r#"{"s":"a\"b\\c\nd\re\tf\u0001g\u001fh é","key \"quoted\"":""}"#
        );
        check_json(&j).unwrap();
    }

    #[test]
    fn raw_members_embed_serialised_objects_verbatim() {
        let inner = object(|o| {
            o.field("k", 1u64);
        });
        let j = object(|o| {
            o.raw("first", &inner).field("after", 2u64);
            o.array("list", |a| {
                a.object(|e| {
                    e.raw("inner", &inner);
                });
            });
        });
        assert_eq!(
            j,
            r#"{"first":{"k":1},"after":2,"list":[{"inner":{"k":1}}]}"#
        );
        check_json(&j).unwrap();
    }

    #[test]
    fn checker_rejects_malformed_json() {
        for bad in [
            r#"{"a":1"b":2}"#,
            r#"{"a":[{"p":0}{"p":1}]}"#,
            r#"{"a":[{},]}"#,
            "{\"a\":\"x\ny\"}",
            r#"{"a":1}}"#,
            r#"{"a":nul}"#,
        ] {
            assert!(check_json(bad).is_err(), "accepted {bad}");
        }
    }
}

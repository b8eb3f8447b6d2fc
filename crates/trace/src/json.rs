//! The JSON writer behind every export of this crate: string escaping and
//! the punctuation of objects and arrays. No JSON library is used; this is
//! the small subset the exporters need.

use std::fmt::{Display, Write};

/// Appends `s` to `out`, escaped for inclusion in a JSON string literal.
fn escape_into(out: &mut String, s: &str) {
    // Everything escaped is ASCII, so runs between escapes are copied whole.
    let mut copied = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[copied..i]);
        copied = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[copied..]);
}

/// One JSON object or array being appended to a string: the methods place
/// the brackets, commas, quotes and escapes, in the order they are called,
/// with no whitespace. Each scope is a closure, closed when it returns.
pub(crate) struct Json<'a> {
    out: &'a mut String,
    /// What precedes the next member: the opening bracket, then commas.
    sep: char,
}

impl Json<'_> {
    fn scope(out: &mut String, open: char, close: char, fill: impl FnOnce(&mut Json)) {
        let mut json = Json { out, sep: open };
        fill(&mut json);
        if json.sep == open {
            json.out.push(open);
        }
        json.out.push(close);
    }

    /// Appends an object to `out`.
    pub(crate) fn object(out: &mut String, fill: impl FnOnce(&mut Json)) {
        Json::scope(out, '{', '}', fill);
    }

    /// Appends an array to `out`.
    pub(crate) fn array(out: &mut String, fill: impl FnOnce(&mut Json)) {
        Json::scope(out, '[', ']', fill);
    }

    /// Punctuates up to the next array element, or — with a key — the next
    /// object member's value.
    fn next(&mut self, key: Option<&str>) -> &mut String {
        self.out.push(std::mem::replace(&mut self.sep, ','));
        if let Some(key) = key {
            self.out.push('"');
            escape_into(self.out, key);
            self.out.push_str("\":");
        }
        self.out
    }

    /// A string member.
    pub(crate) fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.strs(key, &[value])
    }

    /// A string member whose value is `parts` joined, so that a caller need
    /// not allocate the whole.
    pub(crate) fn strs(&mut self, key: &str, parts: &[&str]) -> &mut Self {
        let out = self.next(Some(key));
        out.push('"');
        for part in parts {
            escape_into(out, part);
        }
        out.push('"');
        self
    }

    /// A member whose value is written as it displays: a number, or JSON
    /// the caller formatted.
    pub(crate) fn raw(&mut self, key: &str, value: impl Display) -> &mut Self {
        let _ = write!(self.next(Some(key)), "{value}");
        self
    }

    /// A member that is itself an object.
    pub(crate) fn object_in(&mut self, key: &str, fill: impl FnOnce(&mut Json)) -> &mut Self {
        Json::object(self.next(Some(key)), fill);
        self
    }

    /// A member that is an array.
    pub(crate) fn array_in(&mut self, key: &str, fill: impl FnOnce(&mut Json)) -> &mut Self {
        Json::array(self.next(Some(key)), fill);
        self
    }

    /// An array element that is an object.
    pub(crate) fn element(&mut self, fill: impl FnOnce(&mut Json)) {
        Json::object(self.next(None), fill);
    }
}

//! The one JSON codec of every export. A telemetry report, series or health
//! line and a Chrome trace event are each one object of string, number and
//! boolean fields (a Chrome event nests one more object, its `args`):
//! [`Obj`] writes one and [`Fields`] reads one back. Keys are plain names,
//! written and matched as they are.

use std::fmt::{Display, Write};

/// Writes one JSON object, field by field, onto the end of a string.
pub(crate) struct Obj<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> Obj<'a> {
    pub(crate) fn new(out: &'a mut String) -> Obj<'a> {
        out.push('{');
        Obj { out, first: true }
    }

    fn key(&mut self, key: &str) -> &mut String {
        if !std::mem::take(&mut self.first) {
            self.out.push(',');
        }
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
        self.out
    }

    /// A string field, escaped.
    pub(crate) fn str(mut self, key: &str, value: &str) -> Self {
        let out = self.key(key);
        out.push('"');
        for c in value.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
        self
    }

    /// A number or boolean field, as `Display` writes it.
    pub(crate) fn num(mut self, key: &str, value: impl Display) -> Self {
        let _ = write!(self.key(key), "{value}");
        self
    }

    /// An object field, filled by `fill`.
    pub(crate) fn obj(mut self, key: &str, fill: impl FnOnce(Obj<'_>) -> Obj<'_>) -> Self {
        fill(Obj::new(self.key(key))).end();
        self
    }

    pub(crate) fn end(self) {
        self.out.push('}');
    }

    /// Ends the object and its line.
    pub(crate) fn line(self) {
        self.out.push_str("}\n");
    }
}

/// One object read from text. Values stay raw (a string still quoted and
/// escaped) until a field is asked for by key; a nested object is one
/// value. The first of two fields with one key wins.
#[derive(Clone, Copy)]
pub(crate) struct Fields<'a> {
    /// The text after the object's `{`, through its `}`.
    body: &'a str,
}

impl<'a> Fields<'a> {
    /// The object at the front of `text`, and the text after it. `None`
    /// unless every value is a string, a bare token (a number or boolean),
    /// or — at the top level only — an object.
    pub(crate) fn read(text: &'a str) -> Option<(Fields<'a>, &'a str)> {
        let body = text.trim_start().strip_prefix('{')?;
        let rest = scan(body, false, &mut |_, _| {})?;
        Some((Fields { body }, rest))
    }

    fn raw(&self, key: &str) -> Option<&'a str> {
        let mut found = None;
        scan(self.body, false, &mut |k, v| {
            if found.is_none() && k == key {
                found = Some(v);
            }
        });
        found
    }

    pub(crate) fn str(&self, key: &str) -> Option<String> {
        let raw = self.raw(key)?.strip_prefix('"')?.strip_suffix('"')?;
        let mut out = String::with_capacity(raw.len());
        let mut chars = raw.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            out.push(match chars.next()? {
                'n' => '\n',
                'r' => '\r',
                't' => '\t',
                'u' => {
                    let mut code = 0;
                    for _ in 0..4 {
                        code = code * 16 + chars.next()?.to_digit(16)?;
                    }
                    char::from_u32(code)?
                }
                c @ ('"' | '\\' | '/') => c,
                _ => return None,
            });
        }
        Some(out)
    }

    pub(crate) fn u64(&self, key: &str) -> Option<u64> {
        self.raw(key)?.parse().ok()
    }

    pub(crate) fn f64(&self, key: &str) -> Option<f64> {
        self.raw(key)?.parse().ok()
    }
}

/// The objects of a JSON-lines text, one per non-blank line: `None` for a
/// line that is not exactly one object.
pub(crate) fn lines(text: &str) -> impl Iterator<Item = Option<Fields<'_>>> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(|line| {
            let (fields, rest) = Fields::read(line)?;
            rest.is_empty().then_some(fields)
        })
}

/// Walks the fields of an object whose `{` is already consumed, handing
/// each raw key and value to `field`; returns the text after its `}`.
fn scan<'a>(
    body: &'a str,
    nested: bool,
    field: &mut dyn FnMut(&'a str, &'a str),
) -> Option<&'a str> {
    let mut rest = body.trim_start();
    if let Some(after) = rest.strip_prefix('}') {
        return Some(after);
    }
    loop {
        let (key, after) = string(rest)?;
        let text = after.trim_start().strip_prefix(':')?.trim_start();
        let after = if text.starts_with('"') {
            string(text)?.1
        } else if let Some(inner) = text.strip_prefix('{') {
            if nested {
                return None;
            }
            scan(inner, true, &mut |_, _| {})?
        } else {
            let end = text.find([',', '}']).unwrap_or(text.len());
            if text[..end].trim_end().is_empty() {
                return None;
            }
            &text[end..]
        };
        field(key, text[..text.len() - after.len()].trim_end());
        let after = after.trim_start();
        match after.strip_prefix(',') {
            Some(next) => rest = next.trim_start(),
            None => return after.strip_prefix('}'),
        }
    }
}

/// The quoted string at the front of `text`: its body, still escaped, and
/// the text after its closing quote.
fn string(text: &str) -> Option<(&str, &str)> {
    let body = text.strip_prefix('"')?;
    let mut escaped = false;
    for (i, c) in body.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' => escaped = true,
            '"' => return Some((&body[..i], &body[i + 1..])),
            _ => {}
        }
    }
    None
}

//! The workspace's one JSON writer: every artifact line, cache line,
//! `/metrics` body, probe/trace row and `--json` summary is assembled
//! here, so string escaping and the float policy are decided once. It
//! appends into the caller's `String` (no per-field allocation) in one
//! of the two layouts that exist on disk and on stdout:
//!
//! * **compact** — `{"k":v,"k":v}` all the way down (JSONL artifacts,
//!   cache lines, `/metrics`, probes, traces, powermap, serve protocol);
//! * **pretty** — one `"k": v` member per line, two-space indentation
//!   (the `--json` summaries CI greps as `"cache_hits": 0`); nested
//!   [`Value::object`]s and [`Value::array`]s stay on the member's line
//!   as `{"a": 1, "b": 2}`, a [`Value::block`] is one-per-line again.
//!
//! Keys are program constants, written verbatim; values are escaped.
//!
//! ```
//! let mut out = String::new();
//! let mut o = orion_obs::json::Json::compact(&mut out);
//! o.key("name").str("a\"b");
//! o.key("latency").f64(f64::NAN);
//! o.key("cached").bool(false);
//! o.key("hops").array().end();
//! o.end();
//! assert_eq!(out, r#"{"name":"a\"b","latency":null,"cached":false,"hops":[]}"#);
//! ```

use std::fmt::{self, Write as _};

/// An open JSON object or array. Add members with [`Json::key`]
/// (objects) or [`Json::item`] (arrays), then [`Json::end`] it.
#[derive(Debug)]
#[must_use = "call `end` to close the container"]
pub struct Json<'a> {
    out: &'a mut String,
    /// `": "` / `", "` where compact writes `":"` / `","`.
    pretty: bool,
    /// When non-zero, every member goes on its own line, indented
    /// this many times two spaces.
    depth: usize,
    close: char,
    empty: bool,
}

/// The slot for one value: consumed by exactly one of its methods.
#[derive(Debug)]
#[must_use = "a key without a value is not JSON"]
pub struct Value<'a> {
    out: &'a mut String,
    pretty: bool,
    depth: usize,
}

// The per-field methods are `#[inline]`: record serialization sits on
// the cache-append and artifact-write paths of other crates.
impl<'a> Json<'a> {
    fn open(out: &'a mut String, pretty: bool, depth: usize, brackets: [char; 2]) -> Json<'a> {
        out.push(brackets[0]);
        Json {
            out,
            pretty,
            depth,
            close: brackets[1],
            empty: true,
        }
    }

    /// Opens a compact object at the end of `out`.
    pub fn compact(out: &'a mut String) -> Json<'a> {
        Json::open(out, false, 0, ['{', '}'])
    }

    /// Opens a pretty (one member per line) object at the end of `out`.
    pub fn pretty(out: &'a mut String) -> Json<'a> {
        Json::open(out, true, 1, ['{', '}'])
    }

    /// Starts the next element of an array.
    #[inline]
    pub fn item(&mut self) -> Value<'_> {
        if !self.empty {
            let inline = self.pretty && self.depth == 0;
            self.out.push_str(if inline { ", " } else { "," });
        }
        if self.depth > 0 {
            self.out.push('\n');
            self.out.extend(std::iter::repeat_n("  ", self.depth));
        }
        self.empty = false;
        Value {
            out: self.out,
            pretty: self.pretty,
            depth: self.depth,
        }
    }

    /// Starts the next member of an object (`key` is written verbatim).
    #[inline]
    pub fn key(&mut self, key: &str) -> Value<'_> {
        let value = self.item();
        value.out.push('"');
        value.out.push_str(key);
        value
            .out
            .push_str(if value.pretty { "\": " } else { "\":" });
        value
    }

    /// Closes the container.
    #[inline]
    pub fn end(self) {
        if self.depth > 0 && !self.empty {
            self.out.push('\n');
            self.out.extend(std::iter::repeat_n("  ", self.depth - 1));
        }
        self.out.push(self.close);
    }
}

impl<'a> Value<'a> {
    /// An integer (or anything whose `Display` is a JSON number).
    #[inline]
    pub fn num(self, v: impl fmt::Display) {
        let _ = write!(self.out, "{v}");
    }

    /// A float: shortest round-trip decimal, `null` when not finite.
    #[inline]
    pub fn f64(self, v: f64) {
        push_f64(self.out, v, None);
    }

    /// A float rounded to `decimals` places, `null` when not finite.
    pub fn fixed(self, v: f64, decimals: usize) {
        push_f64(self.out, v, Some(decimals));
    }

    /// `true` / `false`.
    #[inline]
    pub fn bool(self, v: bool) {
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// An escaped string.
    #[inline]
    pub fn str(self, v: &str) {
        push_str(self.out, v);
    }

    /// `null`.
    #[inline]
    pub fn null(self) {
        self.out.push_str("null");
    }

    /// `Some(v)` through `some`, `None` as `null`:
    /// `o.key("ejected_at").opt(self.ejected_at, Value::num)`.
    #[inline]
    pub fn opt<T>(self, v: Option<T>, some: impl FnOnce(Value<'a>, T)) {
        match v {
            Some(v) => some(self, v),
            None => self.null(),
        }
    }

    /// A nested object in the parent's style, on the member's line.
    pub fn object(self) -> Json<'a> {
        Json::open(self.out, self.pretty, 0, ['{', '}'])
    }

    /// A nested array in the parent's style, on the member's line.
    pub fn array(self) -> Json<'a> {
        Json::open(self.out, self.pretty, 0, ['[', ']'])
    }

    /// A nested one-member-per-line object, indented one level deeper
    /// than its pretty parent.
    pub fn block(self) -> Json<'a> {
        Json::open(self.out, true, self.depth + 1, ['{', '}'])
    }
}

/// JSONL: one `line(item)` per item, each newline-terminated.
pub fn lines<T>(items: impl IntoIterator<Item = T>, line: impl Fn(T) -> String) -> String {
    let mut out = String::new();
    for item in items {
        out.push_str(&line(item));
        out.push('\n');
    }
    out
}

/// The float policy: JSON has no NaN or infinity, so non-finite values
/// (an empty latency sample, say) serialize as `null`.
fn push_f64(out: &mut String, v: f64, decimals: Option<usize>) {
    let _ = match decimals {
        _ if !v.is_finite() => out.write_str("null"),
        Some(d) => write!(out, "{v:.d$}"),
        None => write!(out, "{v}"),
    };
}

/// String escaping: quote, backslash and the C0 controls (`\n`, `\t`,
/// `\r` by name, the rest as `\u00XX`); everything else verbatim UTF-8.
/// Every escaped byte is ASCII, so runs between them are copied whole.
fn push_str(out: &mut String, v: &str) {
    out.push('"');
    let mut rest = v;
    while let Some(at) = rest
        .bytes()
        .position(|b| matches!(b, b'"' | b'\\' | 0..=0x1f))
    {
        out.push_str(&rest[..at]);
        match rest.as_bytes()[at] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            b'\r' => out.push_str("\\r"),
            control => {
                let _ = write!(out, "\\u{control:04x}");
            }
        }
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_puts_members_on_lines_and_nested_inline() {
        let mut out = String::new();
        let mut o = Json::pretty(&mut out);
        o.key("cells").num(4);
        let mut files = o.key("artifacts").object();
        files.key("jsonl").str("a");
        files.key("csv").str("b");
        files.end();
        let mut kinds = o.key("kinds").array();
        kinds.item().str("x");
        kinds.item().str("y");
        kinds.end();
        let mut block = o.key("metrics").block();
        block.key("m").fixed(1.0, 1);
        block.end();
        o.end();
        assert_eq!(
            out,
            "{\n  \"cells\": 4,\n  \"artifacts\": {\"jsonl\": \"a\", \"csv\": \"b\"},\n  \
             \"kinds\": [\"x\", \"y\"],\n  \"metrics\": {\n    \"m\": 1.0\n  }\n}"
        );
        let mut empty = String::new();
        Json::pretty(&mut empty).end();
        assert_eq!(empty, "{}");
    }
}

//! The message model: trees of key/value pairs with JSON serialization.
//!
//! §4.3: "Messages are represented as a tree of key/value pairs, which
//! map directly onto JavaScript objects so that they can be passed
//! between Java and JavaScript code seamlessly. Messages are serialized
//! to JSON notation when they are to be delivered to a remote node."
//!
//! `serde_json` is not in the offline dependency set — and the codec is
//! part of the system under reproduction anyway (message sizes feed the
//! radio energy model and the Table 4 data-reduction figure), so it is
//! implemented here.

use std::cell::Cell;
use std::collections::HashSet;
use std::fmt;
use std::rc::Rc;

use pogo_script::value::intern;
use pogo_script::{ObjMap, ScriptError, Value};

/// A message value: the middleware-side mirror of a JavaScript object
/// tree. Unlike [`pogo_script::Value`] it has value semantics, cannot
/// contain functions, and is ordered deterministically.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Msg {
    /// JSON `null`.
    #[default]
    Null,
    /// JSON boolean.
    Bool(bool),
    /// JSON number (finite f64; NaN/∞ serialize as `null` like browsers).
    Num(f64),
    /// JSON string.
    Str(String),
    /// JSON array.
    Arr(Vec<Msg>),
    /// JSON object, insertion-ordered.
    Obj(Vec<(String, Msg)>),
}

impl Msg {
    /// Convenience string constructor.
    pub fn str(s: impl Into<String>) -> Msg {
        Msg::Str(s.into())
    }

    /// Builds an object from key/value pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Msg)>) -> Msg {
        Msg::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Looks up a key if this is an object.
    pub fn get(&self, key: &str) -> Option<&Msg> {
        match self {
            Msg::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Msg::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Msg::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_arr(&self) -> Option<&[Msg]> {
        match self {
            Msg::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes to compact JSON, into a buffer allocated once at the
    /// serialized size.
    pub fn to_json(&self) -> String {
        self.to_sized_json()
    }

    /// Size in bytes of the JSON serialization (what travels the wire;
    /// computed without allocating for hot paths).
    pub fn json_size(&self) -> u64 {
        let mut counter = jsonw::ByteCounter(0);
        let _ = self.write_json(&mut counter);
        counter.0
    }

    /// Parses JSON text.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] describing the first malformed construct.
    pub fn from_json(text: &str) -> Result<Msg, JsonError> {
        let mut parser = JsonParser::new(text);
        let value = parser.value()?;
        parser.end()?;
        Ok(value)
    }

    /// Converts a script value into a message. Functions become `null`
    /// (they cannot cross the network); shared containers are deep-copied.
    ///
    /// # Errors
    ///
    /// A host [`ScriptError`] for a value nested deeper than
    /// [`MAX_VALUE_DEPTH`], which includes every value that holds itself,
    /// or of more than [`MAX_VALUE_NODES`] values counted as the copy
    /// meets them.
    pub fn from_script(value: &Value) -> Result<Msg, ScriptError> {
        let mut nodes = MAX_VALUE_NODES;
        Msg::from_script_within(value, MAX_VALUE_DEPTH, &mut nodes)
    }

    /// [`Msg::from_script`] with `room` more containers allowed to open
    /// and `nodes` more values to visit.
    fn from_script_within(
        value: &Value,
        room: usize,
        nodes: &mut usize,
    ) -> Result<Msg, ScriptError> {
        *nodes = nodes.checked_sub(1).ok_or_else(too_large)?;
        Ok(match value {
            Value::Null | Value::Func(_) | Value::Native(_) => Msg::Null,
            Value::Bool(b) => Msg::Bool(*b),
            Value::Num(n) => Msg::Num(*n),
            Value::Str(s) => Msg::Str(s.to_string()),
            // Filled in loops, not collected through `Result`, which would
            // lose the exact length and grow each vector from four.
            Value::Array(items) => {
                let room = room.checked_sub(1).ok_or_else(too_deep)?;
                let items = items.borrow();
                let mut out = Vec::with_capacity(items.len());
                for v in items.iter() {
                    out.push(Msg::from_script_within(v, room, nodes)?);
                }
                Msg::Arr(out)
            }
            Value::Object(map) => {
                let room = room.checked_sub(1).ok_or_else(too_deep)?;
                let map = map.borrow();
                let mut out = Vec::with_capacity(map.len());
                for (k, v) in map.iter() {
                    out.push((k.to_owned(), Msg::from_script_within(v, room, nodes)?));
                }
                Msg::Obj(out)
            }
        })
    }

    /// Converts a message into a (fresh) script value for the script
    /// context that owns `seen`: a short string the context has been
    /// handed before is that allocation again, not a copy.
    pub fn to_script(&self, seen: &mut SeenStrings) -> Value {
        match self {
            Msg::Null => Value::Null,
            Msg::Bool(b) => Value::Bool(*b),
            Msg::Num(n) => Value::Num(*n),
            Msg::Str(s) => Value::Str(seen.share(s)),
            Msg::Arr(items) => Value::array(items.iter().map(|m| m.to_script(seen)).collect()),
            Msg::Obj(pairs) => {
                // Keys come from the interner the compiler's member
                // sites use, so a script's `msg.aps` finds `aps` by
                // pointer, and the key list is the one every message of
                // this layout shares: a message costs no allocation per
                // key.
                let map: ObjMap = pairs
                    .iter()
                    .map(|(k, v)| (intern(k), v.to_script(seen)))
                    .collect();
                Value::object(map)
            }
        }
    }

    /// Canonical form: object keys sorted recursively. Used by tests that
    /// compare messages that crossed the script boundary (which may
    /// reorder keys).
    pub fn canonicalize(&self) -> Msg {
        match self {
            Msg::Arr(items) => Msg::Arr(items.iter().map(Msg::canonicalize).collect()),
            Msg::Obj(pairs) => {
                let mut sorted: Vec<(String, Msg)> = pairs
                    .iter()
                    .map(|(k, v)| (k.clone(), v.canonicalize()))
                    .collect();
                sorted.sort_by(|(a, _), (b, _)| a.cmp(b));
                // Duplicate keys: keep the last occurrence, matching the
                // previous BTreeMap-based behaviour (stable sort keeps
                // duplicates in insertion order, so swap the later value
                // into the survivor before dropping it).
                sorted.dedup_by(|later, kept| {
                    if later.0 == kept.0 {
                        std::mem::swap(later, kept);
                        true
                    } else {
                        false
                    }
                });
                Msg::Obj(sorted)
            }
            other => other.clone(),
        }
    }
}

/// Most strings a [`SeenStrings`] holds.
const SEEN_STRINGS_CAP: usize = 256;

/// Longest string a [`SeenStrings`] holds, in bytes: with
/// [`SEEN_STRINGS_CAP`] it bounds a table at 16 kB of text.
const SEEN_STRING_MAX_LEN: usize = 64;

/// The short strings one script context has received in messages, so that
/// a value which keeps arriving — an access point's BSSID in every scan
/// that hears it — is one allocation in that context however many window
/// entries hold it, and comparing two of them compares pointers.
///
/// It is not the key interner: that table is shared by every script on
/// the thread and is full for good once a peer has sent it 4,096 values,
/// whereas one phone's scripts see that phone's few access points. A
/// table that fills up starts over, so what a context shares follows what
/// it currently receives and a flood costs it no more than the copies it
/// made before there was a table.
#[derive(Debug, Default)]
pub struct SeenStrings {
    seen: HashSet<Rc<str>>,
}

impl SeenStrings {
    /// `s` as a script string: the one handed out for the same text
    /// before, if the table still holds it.
    fn share(&mut self, s: &str) -> Rc<str> {
        if s.len() > SEEN_STRING_MAX_LEN {
            return Rc::from(s);
        }
        if let Some(shared) = self.seen.get(s) {
            return shared.clone();
        }
        if self.seen.len() == SEEN_STRINGS_CAP {
            self.seen.clear();
        }
        let shared: Rc<str> = Rc::from(s);
        self.seen.insert(shared.clone());
        shared
    }
}

impl fmt::Display for Msg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

impl From<f64> for Msg {
    fn from(n: f64) -> Msg {
        Msg::Num(n)
    }
}

impl From<bool> for Msg {
    fn from(b: bool) -> Msg {
        Msg::Bool(b)
    }
}

impl From<&str> for Msg {
    fn from(s: &str) -> Msg {
        Msg::Str(s.to_owned())
    }
}

// ---- serialization -----------------------------------------------------------

// The scalar primitives — stack-buffer integers, run-based string
// escaping, byte counting — live in `pogo_ingest::jsonw` so the ingest
// exporters share them; only the `Msg` tree walk is defined here.
use pogo_ingest::jsonw;

/// A wire value that writes its JSON into any sink.
pub(crate) trait WriteJson {
    fn write_json<W: fmt::Write>(&self, out: &mut W) -> fmt::Result;

    /// The JSON text in a buffer allocated once at its final size, so it
    /// carries no spare capacity into the message stores. It is written a
    /// single time (formatting a float costs more than copying the result)
    /// into a scratch buffer the thread reuses. A message, an envelope and
    /// a borrowed data message always write in full; a script value too
    /// deep to write gives the empty string (`json` raises instead).
    fn to_sized_json(&self) -> String {
        self.with_json(str::to_owned).unwrap_or_default()
    }

    /// The JSON text, lent to `f` from the thread's scratch buffer; `Err`
    /// if the value refused to be written.
    fn with_json<R>(&self, f: impl FnOnce(&str) -> R) -> Result<R, fmt::Error> {
        thread_local! {
            static SCRATCH: Cell<String> = const { Cell::new(String::new()) };
        }
        let mut scratch = SCRATCH.take();
        scratch.clear();
        let out = self.write_json(&mut scratch).map(|()| f(&scratch));
        SCRATCH.set(scratch);
        out
    }
}

/// A script value writes the JSON its message would
/// (`Msg::from_script(v).to_json()`, functions as `null`) without the
/// message being built: `json(msg)` in a script is a serialisation, not a
/// conversion. A value `Msg::from_script` refuses is a write error, at
/// the same value ([`refusal`] says why).
impl WriteJson for Value {
    fn write_json<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        let mut nodes = MAX_VALUE_NODES;
        write_value(self, MAX_VALUE_DEPTH, &mut nodes, out)
    }
}

/// Writes `value` with `room` more containers allowed to open and `nodes`
/// more values to visit.
fn write_value<W: fmt::Write>(
    value: &Value,
    room: usize,
    nodes: &mut usize,
    out: &mut W,
) -> fmt::Result {
    *nodes = nodes.checked_sub(1).ok_or(fmt::Error)?;
    match value {
        Value::Null | Value::Func(_) | Value::Native(_) => out.write_str("null")?,
        Value::Bool(true) => out.write_str("true")?,
        Value::Bool(false) => out.write_str("false")?,
        Value::Num(n) => jsonw::write_num(*n, out)?,
        Value::Str(s) => jsonw::write_str(s, out)?,
        Value::Array(items) => {
            let room = room.checked_sub(1).ok_or(fmt::Error)?;
            out.write_char('[')?;
            for (i, item) in items.borrow().iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                write_value(item, room, nodes, out)?;
            }
            out.write_char(']')?;
        }
        Value::Object(map) => {
            let room = room.checked_sub(1).ok_or(fmt::Error)?;
            out.write_char('{')?;
            for (i, (k, v)) in map.borrow().iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                jsonw::write_str(k, out)?;
                out.write_char(':')?;
                write_value(v, room, nodes, out)?;
            }
            out.write_char('}')?;
        }
    }
    Ok(())
}

impl WriteJson for Msg {
    fn write_json<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        match self {
            Msg::Null => out.write_str("null")?,
            Msg::Bool(true) => out.write_str("true")?,
            Msg::Bool(false) => out.write_str("false")?,
            Msg::Num(n) => jsonw::write_num(*n, out)?,
            Msg::Str(s) => jsonw::write_str(s, out)?,
            Msg::Arr(items) => {
                out.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    item.write_json(out)?;
                }
                out.write_char(']')?;
            }
            Msg::Obj(pairs) => {
                out.write_char('{')?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    jsonw::write_str(k, out)?;
                    out.write_char(':')?;
                    v.write_json(out)?;
                }
                out.write_char('}')?;
            }
        }
        Ok(())
    }
}

// ---- parsing ---------------------------------------------------------------

/// Error produced by [`Msg::from_json`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    message: String,
    /// Byte offset of the error.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Deepest nesting [`Msg::from_json`] accepts: the parser recurses once per
/// level and its input comes off the network. The paper's deepest message,
/// a `locations` envelope, nests five levels.
pub const MAX_JSON_DEPTH: usize = 128;

/// Deepest a script value may nest to leave its script through `json`,
/// `publish`, `freeze` or `subscribe`'s parameters: [`MAX_JSON_DEPTH`]
/// less the level of the envelope a message travels in, so that whatever
/// a script publishes, the collector's decoder accepts. A value that holds
/// itself is deeper than any bound.
pub const MAX_VALUE_DEPTH: usize = MAX_JSON_DEPTH - 1;

/// Most values a script value may count, each time a walk meets it, to
/// leave its script through `json`, `publish`, `freeze` or `subscribe`'s
/// parameters. A value shared many times is met as many times, so without
/// this bound `a = [a, a]` repeated 40 times, a few hundred VM steps, is
/// 2^41 values to copy. The largest value the paper's scripts hand out,
/// Ablation B's frozen clustering window (`pogo-experiments
/// ablation-freeze`, 8 days, seed 42), is 24,555 of them; this is 10.7
/// times that.
pub const MAX_VALUE_NODES: usize = 1 << 18;

/// The one error a script gets for a value nested deeper than
/// [`MAX_VALUE_DEPTH`].
pub(crate) fn too_deep() -> ScriptError {
    ScriptError::host(format!(
        "value nested deeper than {MAX_VALUE_DEPTH} levels, or holding itself"
    ))
}

/// The one error a script gets for a value of more than
/// [`MAX_VALUE_NODES`] values.
pub(crate) fn too_large() -> ScriptError {
    ScriptError::host(format!(
        "value of more than {MAX_VALUE_NODES} values, a shared one counted each time it is met"
    ))
}

/// Why `value` cannot leave its script, once a walk of it has refused it:
/// [`Msg::from_script`]'s walk visits and counts as [`WriteJson`]'s does,
/// so it stops at the same value for the same reason.
pub(crate) fn refusal(value: &Value) -> ScriptError {
    Msg::from_script(value).err().unwrap_or_else(too_deep)
}

/// Parses `text` as one JSON value, handing the members of a top-level
/// object to `member` in text order (duplicates included) instead of
/// building the object; any other value is validated and dropped. Errors
/// are those of [`Msg::from_json`] on the same text.
pub(crate) fn parse_members(
    text: &str,
    mut member: impl FnMut(&str, Msg),
) -> Result<(), JsonError> {
    let mut parser = JsonParser::new(text);
    if parser.peek() == Some(b'{') {
        let mut key = String::new();
        parser.sequence(b'{', b'}', |p| {
            key.clear();
            p.string_into(&mut key)?;
            p.colon()?;
            member(&key, p.value()?);
            Ok(())
        })?;
    } else {
        parser.value()?;
    }
    parser.end()
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> JsonParser<'a> {
    /// A parser positioned at the first non-blank byte of `text`.
    fn new(text: &'a str) -> Self {
        let mut parser = JsonParser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_ws();
        parser
    }

    /// Nothing but blanks may follow the value.
    fn end(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after JSON value"));
        }
        Ok(())
    }

    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            message: msg.into(),
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

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Msg) -> Result<Msg, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Msg, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Msg::Null),
            Some(b't') => self.literal("true", Msg::Bool(true)),
            Some(b'f') => self.literal("false", Msg::Bool(false)),
            Some(b'"') => Ok(Msg::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// `open` item (`,` item)* `close`, blanks allowed around every
    /// token; `item` parses one element or one `"key": value` member.
    /// Refuses to nest deeper than [`MAX_JSON_DEPTH`].
    fn sequence(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if self.depth == MAX_JSON_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_JSON_DEPTH} levels")));
        }
        self.expect(open)?;
        self.depth += 1;
        self.skip_ws();
        if !self.eat(close) {
            loop {
                self.skip_ws();
                item(self)?;
                self.skip_ws();
                if self.eat(close) {
                    break;
                }
                self.expect(b',')?;
            }
        }
        self.depth -= 1;
        Ok(())
    }

    fn array(&mut self) -> Result<Msg, JsonError> {
        let mut items = Vec::new();
        self.sequence(b'[', b']', |p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(Msg::Arr(items))
    }

    /// The `:` between a member's key and its value.
    fn colon(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(())
    }

    fn object(&mut self) -> Result<Msg, JsonError> {
        let mut pairs = Vec::new();
        self.sequence(b'{', b'}', |p| {
            let key = p.string()?;
            p.colon()?;
            pairs.push((key, p.value()?));
            Ok(())
        })?;
        Ok(Msg::Obj(pairs))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        let mut out = String::new();
        self.string_into(&mut out)?;
        Ok(out)
    }

    /// Four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    /// Appends one string literal's contents to `out`.
    fn string_into(&mut self, out: &mut String) -> Result<(), JsonError> {
        self.expect(b'"')?;
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
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
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let mut code = self.hex4()?;
                            // A high surrogate and the escaped low one
                            // after it are one character beyond the BMP;
                            // either alone is not a code point.
                            if (0xD800..0xDC00).contains(&code)
                                && self.bytes[self.pos..].starts_with(b"\\u")
                            {
                                let high_end = self.pos;
                                self.pos += 2;
                                match self.hex4() {
                                    Ok(low @ 0xDC00..=0xDFFF) => {
                                        code = 0x1_0000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    }
                                    _ => self.pos = high_end,
                                }
                            }
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid code point"))?,
                            );
                        }
                        other => {
                            return Err(self.err(format!("unknown escape \\{}", other as char)))
                        }
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Msg, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.eat(b'.') {
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Msg::Num)
            .map_err(|_| self.err(format!("malformed number {text:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `json(v)` in a script writes `v` itself; what it writes is what the
    /// message made from `v` would.
    #[test]
    fn a_script_value_serializes_as_its_message_does() {
        let mut interp = pogo_script::Interpreter::new();
        for src in [
            "null;",
            "-0.5;",
            "0 / 0;",
            "'q\\\"uote \u{e9}\\n';",
            "var f = function () {}; f;",
            "[];",
            "var e = {}; e;",
            "var v = { a: [1, 2.5, 'x', null, true, function () {}, [[]]], \
             b: { c: -1e21, 'k y': { d: [{}, { e: false }] } }, a2: 'a' }; v;",
        ] {
            let value = interp.eval(src).unwrap();
            assert_eq!(
                value.to_sized_json(),
                Msg::from_script(&value).unwrap().to_json(),
                "{src}"
            );
        }
    }

    #[test]
    fn serializes_scalars() {
        assert_eq!(Msg::Null.to_json(), "null");
        assert_eq!(Msg::Bool(true).to_json(), "true");
        assert_eq!(Msg::Num(42.0).to_json(), "42");
        assert_eq!(Msg::Num(2.5).to_json(), "2.5");
        assert_eq!(Msg::Num(f64::NAN).to_json(), "null");
        assert_eq!(Msg::str("hi").to_json(), "\"hi\"");
    }

    #[test]
    fn serializes_structures_in_order() {
        let m = Msg::obj([
            ("b", Msg::Num(1.0)),
            ("a", Msg::Arr(vec![Msg::Null, Msg::Bool(false)])),
        ]);
        assert_eq!(m.to_json(), r#"{"b":1,"a":[null,false]}"#);
    }

    #[test]
    fn string_escaping() {
        let m = Msg::str("a\"b\\c\nd\u{1}");
        assert_eq!(m.to_json(), "\"a\\\"b\\\\c\\nd\\u0001\"");
        let back = Msg::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn parses_nested_json() {
        let m =
            Msg::from_json(r#"{"aps": [{"bssid": "00:11", "level": 0.5}], "n": -2.5e1}"#).unwrap();
        assert_eq!(
            m.get("aps").unwrap().as_arr().unwrap()[0]
                .get("level")
                .unwrap()
                .as_num(),
            Some(0.5)
        );
        assert_eq!(m.get("n").unwrap().as_num(), Some(-25.0));
    }

    #[test]
    fn roundtrip_preserves_value() {
        let m = Msg::obj([
            ("interval", Msg::Num(60_000.0)),
            ("provider", Msg::str("GPS")),
            (
                "nested",
                Msg::obj([("deep", Msg::Arr(vec![Msg::Num(1.5)]))]),
            ),
        ]);
        assert_eq!(Msg::from_json(&m.to_json()).unwrap(), m);
    }

    #[test]
    fn parse_errors_carry_offsets() {
        let err = Msg::from_json("[1, 2,]").unwrap_err();
        assert!(err.offset > 0);
        assert!(Msg::from_json("").is_err());
        assert!(Msg::from_json("{\"a\" 1}").is_err());
        assert!(Msg::from_json("tru").is_err());
        assert!(Msg::from_json("1 2").is_err());
        assert!(Msg::from_json("\"unterminated").is_err());
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(Msg::from_json(r#""éA""#).unwrap(), Msg::str("éA"));
        assert!(Msg::from_json(r#""\ud800""#).is_err(), "lone surrogate");
    }

    #[test]
    fn surrogate_pairs_combine_and_lone_halves_are_rejected() {
        assert_eq!(
            Msg::from_json(r#""\ud83d\ude00!""#).unwrap(),
            Msg::str("\u{1F600}!")
        );
        for lone in [
            r#""\ud83d""#,
            r#""\ude00""#,
            r#""\ud83d\u0041""#,
            r#""\ud83d\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83d\uzz""#,
        ] {
            let err = Msg::from_json(lone).unwrap_err();
            assert!(
                err.to_string().ends_with("invalid code point"),
                "{lone}: {err}"
            );
        }
        // The emoji round-trips (the writer emits it as UTF-8, not escapes).
        let m = Msg::str("\u{1F600}");
        assert_eq!(Msg::from_json(&m.to_json()).unwrap(), m);
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let deep = |n: usize| format!("{}1{}", "[".repeat(n), "]".repeat(n));
        assert!(Msg::from_json(&deep(MAX_JSON_DEPTH)).is_ok());
        let err = Msg::from_json(&deep(MAX_JSON_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_JSON_DEPTH);
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        // 200 kB of `[` used to abort the process.
        assert!(Msg::from_json(&"[".repeat(200_000)).is_err());
        assert!(Msg::from_json(&"{\"a\":".repeat(200_000)).is_err());
        // Depth counts open containers, not containers seen.
        let wide = format!("[{}[]]", "[[]],".repeat(1_000));
        assert!(Msg::from_json(&wide).is_ok());
    }

    #[test]
    fn script_conversion_roundtrip() {
        let m = Msg::obj([
            ("x", Msg::Num(1.0)),
            ("s", Msg::str("y")),
            ("l", Msg::Arr(vec![Msg::Bool(true), Msg::Null])),
        ]);
        let script = m.to_script(&mut SeenStrings::default());
        let back = Msg::from_script(&script).unwrap();
        assert_eq!(back, m);
    }

    /// Message keys come from outside the program, so the key interner
    /// must not grow with them: past its cap a key is handed out
    /// unshared, and every lookup still finds it by its text.
    #[test]
    fn interner_stays_at_its_cap_and_keys_past_it_still_resolve() {
        use pogo_script::value::{interned_keys, INTERN_CAP};
        // Nor does it keep a key too long to be a property name.
        let long = "k".repeat(65);
        let before = interned_keys();
        let Value::Object(map) =
            Msg::obj([(long.clone(), Msg::Null)]).to_script(&mut SeenStrings::default())
        else {
            panic!("an object message converts to an object");
        };
        assert_eq!(interned_keys(), before);
        assert_eq!(map.borrow().get(&long), Some(&Value::Null));

        let n = 10_000;
        let m = Msg::obj((0..n).map(|i| (format!("key{i}"), Msg::Num(i as f64))));
        let script = m.to_script(&mut SeenStrings::default());
        assert_eq!(interned_keys(), INTERN_CAP);
        let Value::Object(map) = &script else {
            panic!("an object message converts to an object");
        };
        for i in 0..n {
            let got = map.borrow().get(&format!("key{i}")).cloned();
            assert_eq!(got, Some(Value::Num(i as f64)), "key{i}");
        }
        // A member site compiled after the table filled up shares no
        // allocation with the object's key and reads it all the same.
        let mut interp = pogo_script::Interpreter::new();
        let pick = interp
            .eval("function pick(m) { return m.key9999 - m.key0; } pick;")
            .unwrap();
        assert_eq!(interp.call(&pick, &[script]).unwrap(), Value::Num(9999.0));
        assert_eq!(interned_keys(), INTERN_CAP);
    }

    /// A peer chooses the strings and the keys of what it sends: 10,000
    /// distinct ones of each leave the context's string table and the key
    /// interner no larger than their caps, and what the phone's own
    /// scripts and sensors use is still shared afterwards.
    #[test]
    fn a_flood_of_strings_and_keys_leaves_both_tables_bounded() {
        use pogo_script::value::{interned_keys, INTERN_CAP};
        // Compiled first, as on a phone: the script's keys are interned.
        let mut interp = pogo_script::Interpreter::new();
        let read = interp
            .eval("function read(m) { return m.bssid + '/' + m.rssi; } read;")
            .unwrap();
        let bssid = intern("bssid");
        let mut seen = SeenStrings::default();
        let scan = |seen: &mut SeenStrings, ap: String| {
            Msg::obj([("bssid", Msg::Str(ap)), ("rssi", Msg::Num(-60.0))]).to_script(seen)
        };
        let home = scan(&mut seen, "00:11:22:33:44:55".into());

        let n = 10_000;
        let keys_before = interned_keys();
        for i in 0..n {
            scan(
                &mut seen,
                format!("02:00:00:00:{:02x}:{:02x}", i / 256, i % 256),
            );
            assert!(seen.seen.len() <= SEEN_STRINGS_CAP, "after {i} strings");
        }
        assert_eq!(interned_keys(), keys_before, "values are not keys");
        let flood = Msg::obj((0..n).map(|i| (format!("key{i}"), Msg::str(format!("v{i}")))));
        flood.to_script(&mut seen);
        assert_eq!(interned_keys(), INTERN_CAP);
        assert!(seen.seen.len() <= SEEN_STRINGS_CAP);
        assert!(
            seen.seen.capacity() < 4 * SEEN_STRINGS_CAP,
            "the table itself"
        );
        // Nor does it keep a string too long to be an identifier.
        let long = "x".repeat(SEEN_STRING_MAX_LEN + 1);
        let held = seen.seen.len();
        assert_eq!(
            Msg::str(long.clone()).to_script(&mut seen),
            Value::str(&long)
        );
        assert_eq!(seen.seen.len(), held);

        // The script's keys are still the interner's, so a message's
        // `bssid` is the member site's by pointer; and the access point
        // that keeps arriving is one string again, the flood over.
        assert!(Rc::ptr_eq(&intern("bssid"), &bssid));
        let (first, second) = (
            scan(&mut seen, "00:11:22:33:44:55".into()),
            scan(&mut seen, "00:11:22:33:44:55".into()),
        );
        let (Value::Object(a), Value::Object(b)) = (&first, &second) else {
            panic!("an object message converts to an object");
        };
        assert!(std::ptr::eq(a.borrow().keys().next().unwrap(), &*bssid));
        let (a, b) = (a.borrow(), b.borrow());
        let (Some(Value::Str(x)), Some(Value::Str(y))) = (a.get("bssid"), b.get("bssid")) else {
            panic!("bssid is a string");
        };
        assert!(Rc::ptr_eq(x, y));
        for m in [home, first.clone()] {
            let got = interp.call(&read, &[m]).unwrap();
            assert_eq!(got, Value::str("00:11:22:33:44:55/-60"));
        }
    }

    #[test]
    fn script_functions_become_null() {
        let mut interp = pogo_script::Interpreter::new();
        let v = interp.eval("var o = { f: function () {} }; o;").unwrap();
        let m = Msg::from_script(&v).unwrap();
        assert_eq!(m.get("f"), Some(&Msg::Null));
    }

    #[test]
    fn canonicalize_sorts_keys_recursively() {
        let a = Msg::obj([
            ("b", Msg::Num(1.0)),
            ("a", Msg::obj([("z", Msg::Null), ("y", Msg::Null)])),
        ]);
        let b = Msg::obj([
            ("a", Msg::obj([("y", Msg::Null), ("z", Msg::Null)])),
            ("b", Msg::Num(1.0)),
        ]);
        assert_eq!(a.canonicalize(), b.canonicalize());
    }

    #[test]
    fn json_size_matches_serialization() {
        let m = Msg::obj([("k", Msg::str("value"))]);
        assert_eq!(m.json_size(), m.to_json().len() as u64);
        // Exercise every writer path: ints, floats, non-finite, escapes.
        let m = Msg::Arr(vec![
            Msg::Num(-987_654_321_012_345.0),
            Msg::Num(0.0),
            Msg::Num(1.5e-7),
            Msg::Num(f64::INFINITY),
            Msg::str("tab\there \"and\" \u{2} déjà"),
            Msg::obj([("nested", Msg::Bool(false))]),
        ]);
        assert_eq!(m.json_size(), m.to_json().len() as u64);
    }

    #[test]
    fn integer_formatting_edges() {
        assert_eq!(Msg::Num(-1.0).to_json(), "-1");
        assert_eq!(Msg::Num(-0.0).to_json(), "0");
        assert_eq!(Msg::Num(999_999_999_999_999.0).to_json(), "999999999999999");
        assert_eq!(
            Msg::Num(-999_999_999_999_999.0).to_json(),
            "-999999999999999"
        );
    }

    #[test]
    fn canonicalize_keeps_last_duplicate_key() {
        let m = Msg::Obj(vec![
            ("k".to_owned(), Msg::Num(1.0)),
            ("a".to_owned(), Msg::Null),
            ("k".to_owned(), Msg::Num(2.0)),
        ]);
        assert_eq!(
            m.canonicalize(),
            Msg::obj([("a", Msg::Null), ("k", Msg::Num(2.0))])
        );
    }
}

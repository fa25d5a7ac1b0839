//! Structured trace events: what happened, when, on which device.

use std::borrow::Cow;
use std::fmt;
use std::rc::Rc;

use pogo_sim::SimTime;

/// An event or field name. Instrumentation sites use `&'static str` (no
/// allocation); parsed traces use owned strings.
pub type Name = Cow<'static, str>;

/// A typed field value in an event payload.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer (counts, bytes, versions).
    U64(u64),
    /// Float (seconds, joules, rates).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Short string (channel names, reasons).
    Str(Name),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&'static str> for FieldValue {
    fn from(v: &'static str) -> Self {
        FieldValue::Str(Cow::Borrowed(v))
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(Cow::Owned(v))
    }
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
        }
    }
}

/// Builds one `(name, value)` payload entry; the idiomatic way to write
/// `record` calls.
pub fn field(name: impl Into<Name>, value: impl Into<FieldValue>) -> (Name, FieldValue) {
    (name.into(), value.into())
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Simulated timestamp.
    pub at: SimTime,
    /// Device (JID) scope, if any; `None` for testbed-global events.
    pub device: Option<Rc<str>>,
    /// Coarse grouping used for filtering and timeline tracks: `cpu`,
    /// `radio`, `pogo`, `sensor`, `script`, `log`, ...
    pub category: Name,
    /// What happened (`wake`, `flush`, `power-up`, ...).
    pub name: Name,
    /// Key/value payload.
    pub fields: Vec<(Name, FieldValue)>,
}

impl Event {
    /// Looks up a payload field by name.
    pub fn get(&self, name: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }
}

/// Test hooks: nothing outside this crate's unit tests calls these.
#[cfg(test)]
impl Event {
    /// A payload field as `u64`, if present and numeric.
    pub(crate) fn get_u64(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            FieldValue::U64(v) => Some(*v),
            FieldValue::F64(v) if *v >= 0.0 => Some(*v as u64),
            _ => None,
        }
    }
}

//! Runtime values of PogoScript.

use std::cell::RefCell;
use std::collections::HashSet;
use std::fmt;
use std::rc::Rc;

use crate::ast::Stmt;
use crate::env::Env;
use crate::error::ScriptError;
use crate::interp::Interpreter;

/// Most distinct property keys [`intern`] keeps. Keys also arrive from
/// outside the program (message JSON), so the table must not grow with
/// them; once full, a new key is handed out unshared and lookups fall
/// back to comparing text.
pub const INTERN_CAP: usize = 4096;

/// Longest key [`intern`] keeps, in bytes: with [`INTERN_CAP`] it bounds
/// the table at 256 kB of key text whatever a peer sends.
const INTERN_MAX_LEN: usize = 64;

thread_local! {
    static KEYS: RefCell<HashSet<Rc<str>>> = RefCell::new(HashSet::new());
}

/// The shared `Rc<str>` for a property key. The compiler's member sites
/// and object shapes and the host's message conversion all draw keys
/// from here, so the same name in a script and in the objects it reads
/// is usually one allocation and key equality is usually a pointer
/// compare. Sharing is only ever a speedup: every [`ObjMap`] lookup
/// falls back to comparing text.
pub fn intern(key: &str) -> Rc<str> {
    KEYS.with(|keys| {
        let mut keys = keys.borrow_mut();
        if let Some(k) = keys.get(key) {
            return k.clone();
        }
        let k: Rc<str> = Rc::from(key);
        if keys.len() < INTERN_CAP && key.len() <= INTERN_MAX_LEN {
            keys.insert(k.clone());
        }
        k
    })
}

/// Keys this thread's interner holds (at most its fixed cap).
pub fn interned_keys() -> usize {
    KEYS.with(|keys| keys.borrow().len())
}

/// Key equality: the same allocation, or else the same text.
fn key_eq(a: &str, b: &str) -> bool {
    std::ptr::eq(a, b) || a == b
}

/// An insertion-ordered string-keyed map — the representation of script
/// objects. Order is preserved so serialization is deterministic; lookups
/// are linear, which is fine for the small messages Pogo exchanges. Keys
/// are `Rc<str>`, shared with whoever supplied them (see [`intern`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObjMap {
    entries: Vec<(Rc<str>, Value)>,
}

impl ObjMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        ObjMap::default()
    }

    /// An object literal's map: `keys[i]` holds `values[i]`. The keys
    /// must be distinct — the compiler only emits such shapes and the
    /// verifier rejects any other.
    pub(crate) fn from_shape(keys: &[Rc<str>], values: impl Iterator<Item = Value>) -> Self {
        ObjMap {
            entries: keys.iter().cloned().zip(values).collect(),
        }
    }

    /// Looks up a key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries
            .iter()
            .find(|(k, _)| key_eq(k, key))
            .map(|(_, v)| v)
    }

    /// Inserts or replaces a key, preserving the original position on
    /// replacement. Returns the previous value if any. The key is only
    /// converted (and, for a `&str` or `String`, allocated) when it is
    /// new to the map.
    pub fn insert(&mut self, key: impl AsRef<str> + Into<Rc<str>>, value: Value) -> Option<Value> {
        for (k, v) in &mut self.entries {
            if key_eq(k, key.as_ref()) {
                return Some(std::mem::replace(v, value));
            }
        }
        self.entries.push((key.into(), value));
        None
    }

    /// Reads the entry at `idx` if it still holds `key` — the verified
    /// inline-cache probe used by the VM's member sites. Entry indices
    /// are stable: [`ObjMap::insert`] replaces in place.
    pub(crate) fn get_at(&self, idx: usize, key: &str) -> Option<&Value> {
        match self.entries.get(idx) {
            Some((k, v)) if key_eq(k, key) => Some(v),
            _ => None,
        }
    }

    /// The entry index of `key`, for cache population.
    pub(crate) fn index_of(&self, key: &str) -> Option<usize> {
        self.entries.iter().position(|(k, _)| key_eq(k, key))
    }

    /// Removes a key, returning its value.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        let idx = self.index_of(key)?;
        Some(self.entries.remove(idx).1)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if there are no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(k, v)| (&**k, v))
    }

    /// The keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(k, _)| &**k)
    }
}

impl<K: AsRef<str> + Into<Rc<str>>> FromIterator<(K, Value)> for ObjMap {
    fn from_iter<T: IntoIterator<Item = (K, Value)>>(iter: T) -> Self {
        let mut map = ObjMap::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

/// A captured-variable cell shared between a compiled closure and the
/// frame (or sibling closures) it was created in. `None` means the
/// binding's declaration has not executed yet.
pub type UpvalCell = Rc<RefCell<Option<Value>>>;

/// A script-visible function defined in PogoScript.
#[derive(Debug)]
pub struct Closure {
    /// Parameter names (interned, shared with the AST).
    pub params: Vec<Rc<str>>,
    /// Name for diagnostics (`<anonymous>` for function expressions).
    pub name: Rc<str>,
    /// How the function body is represented and executed.
    pub repr: ClosureRepr,
}

/// The two execution representations of a script function. Both are
/// first-class [`Value::Func`]s and can call each other freely, so a
/// host can mix engines (e.g. the differential oracle tests do).
#[derive(Debug)]
pub enum ClosureRepr {
    /// Tree-walk form: the AST body plus the captured environment.
    Ast {
        /// Function body (shared with the AST).
        body: Rc<Vec<Stmt>>,
        /// Captured environment.
        env: Env,
    },
    /// Bytecode form: a compiled prototype plus captured cells.
    Compiled {
        /// The compiled function.
        proto: Rc<crate::bytecode::FnProto>,
        /// Captured variables, in the prototype's upvalue order.
        upvals: Rc<[UpvalCell]>,
    },
}

/// Signature of a host-registered native function.
pub type NativeImpl = dyn Fn(&mut Interpreter, &[Value]) -> Result<Value, ScriptError>;

/// A native (host-provided) function.
pub struct NativeFn {
    /// Name for diagnostics.
    pub name: String,
    /// The implementation.
    pub func: Box<NativeImpl>,
}

impl fmt::Debug for NativeFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NativeFn({})", self.name)
    }
}

/// A PogoScript runtime value.
///
/// Arrays, objects, and functions have reference semantics (shared via
/// `Rc`), like JavaScript; everything else is a value type.
#[derive(Debug, Clone, Default)]
pub enum Value {
    /// `null` (also the result of missing properties and `undefined`).
    #[default]
    Null,
    Bool(bool),
    Num(f64),
    Str(Rc<str>),
    Array(Rc<RefCell<Vec<Value>>>),
    Object(Rc<RefCell<ObjMap>>),
    Func(Rc<Closure>),
    Native(Rc<NativeFn>),
}

impl Value {
    /// Creates a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Rc::from(s.as_ref()))
    }

    /// Creates an array value from items.
    pub fn array(items: Vec<Value>) -> Value {
        Value::Array(Rc::new(RefCell::new(items)))
    }

    /// Creates an object value from a map.
    pub fn object(map: ObjMap) -> Value {
        Value::Object(Rc::new(RefCell::new(map)))
    }

    /// JavaScript truthiness: `false`, `null`, `0`, `NaN`, and `""` are
    /// falsy; everything else is truthy.
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Bool(b) => *b,
            Value::Num(n) => *n != 0.0 && !n.is_nan(),
            Value::Str(s) => !s.is_empty(),
            _ => true,
        }
    }

    /// The `typeof` string.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "boolean",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
            Value::Func(_) | Value::Native(_) => "function",
        }
    }

    /// Numeric view, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String view, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Display conversion used by string concatenation and `String(x)`.
    pub fn to_display_string(&self) -> String {
        match self {
            Value::Null => "null".to_owned(),
            Value::Bool(b) => b.to_string(),
            Value::Num(n) => format_number(*n),
            Value::Str(s) => s.to_string(),
            Value::Array(items) => {
                let items = items.borrow();
                let parts: Vec<String> = items.iter().map(|v| v.to_display_string()).collect();
                format!("[{}]", parts.join(", "))
            }
            Value::Object(map) => {
                let map = map.borrow();
                let parts: Vec<String> = map
                    .iter()
                    .map(|(k, v)| format!("{k}: {}", v.to_display_string()))
                    .collect();
                format!("{{{}}}", parts.join(", "))
            }
            Value::Func(c) => format!("function {}", c.name),
            Value::Native(n) => format!("function {} [native]", n.name),
        }
    }
}

/// Formats a number the way JavaScript does for integers (no trailing
/// `.0`).
pub fn format_number(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

impl PartialEq for Value {
    /// Strict equality: numbers/strings/booleans by value, reference types
    /// by identity, `null == null`.
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Num(a), Value::Num(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Array(a), Value::Array(b)) => Rc::ptr_eq(a, b),
            (Value::Object(a), Value::Object(b)) => Rc::ptr_eq(a, b),
            (Value::Func(a), Value::Func(b)) => Rc::ptr_eq(a, b),
            (Value::Native(a), Value::Native(b)) => Rc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Num(n)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Rc::from(s.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objmap_preserves_insertion_order() {
        let mut m = ObjMap::new();
        m.insert("z", Value::from(1.0));
        m.insert("a", Value::from(2.0));
        m.insert("m", Value::from(3.0));
        let keys: Vec<&str> = m.keys().collect();
        assert_eq!(keys, vec!["z", "a", "m"]);
    }

    #[test]
    fn objmap_replace_keeps_position() {
        let mut m = ObjMap::new();
        m.insert("a", Value::from(1.0));
        m.insert("b", Value::from(2.0));
        let old = m.insert("a", Value::from(9.0));
        assert_eq!(old, Some(Value::from(1.0)));
        let keys: Vec<&str> = m.keys().collect();
        assert_eq!(keys, vec!["a", "b"]);
        assert_eq!(m.get("a"), Some(&Value::from(9.0)));
    }

    #[test]
    fn truthiness_rules() {
        assert!(!Value::Null.is_truthy());
        assert!(!Value::from(false).is_truthy());
        assert!(!Value::from(0.0).is_truthy());
        assert!(!Value::from(f64::NAN).is_truthy());
        assert!(!Value::str("").is_truthy());
        assert!(Value::from(1.0).is_truthy());
        assert!(Value::str("x").is_truthy());
        assert!(Value::array(vec![]).is_truthy());
        assert!(Value::object(ObjMap::new()).is_truthy());
    }

    #[test]
    fn equality_is_by_reference_for_containers() {
        let a = Value::array(vec![Value::from(1.0)]);
        let b = Value::array(vec![Value::from(1.0)]);
        assert_ne!(a, b);
        assert_eq!(a, a.clone());
        assert_eq!(Value::str("x"), Value::str("x"));
        assert_ne!(Value::from(1.0), Value::str("1"));
    }

    #[test]
    fn number_formatting_drops_integer_fraction() {
        assert_eq!(format_number(3.0), "3");
        assert_eq!(format_number(3.5), "3.5");
        assert_eq!(format_number(-0.25), "-0.25");
    }

    #[test]
    fn display_strings() {
        let arr = Value::array(vec![Value::from(1.0), Value::str("x")]);
        assert_eq!(arr.to_display_string(), "[1, x]");
        let mut m = ObjMap::new();
        m.insert("a", Value::from(1.0));
        assert_eq!(Value::object(m).to_display_string(), "{a: 1}");
    }
}

//! Runtime values of PogoScript.

use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::fmt;
use std::rc::Rc;

use crate::bytecode::FnProto;
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

/// An object's keys in insertion order. Every object built the same way
/// holds the same allocation — an object literal the key list its chunk
/// compiled, a message or an object grown by [`ObjMap::insert`] the one
/// the thread's shape table reached by the same inserts — so a shape is
/// identified by its address for as long as someone holds it.
pub type Shape = Rc<[Rc<str>]>;

/// Most transitions the thread's shape table keeps. Keys arrive from
/// outside the program, so like [`intern`]'s table this one must not grow
/// with them: once full, a new combination gets a key list of its own,
/// which costs that object an allocation and nothing else.
const SHAPE_CAP: usize = 256;

/// Longest key list the shape table keeps: with [`SHAPE_CAP`] and
/// [`INTERN_MAX_LEN`] it bounds the table at about 150 kB.
const SHAPE_MAX_KEYS: usize = 32;

/// `from` plus `key` is `to`. Holding `from` keeps its address its own.
struct Transition {
    from: Shape,
    key: Rc<str>,
    to: Shape,
}

/// The thread's shapes: the empty one and every transition taken from it
/// so far, oldest first — a program's own few layouts are found in the
/// first entries, whatever a peer filled the rest with. Which key lists
/// end up shared depends on the order objects are built in and on
/// nothing else, so it repeats from run to run.
struct ShapeTable {
    empty: Shape,
    transitions: Vec<Transition>,
}

thread_local! {
    static SHAPES: RefCell<ShapeTable> = RefCell::new(ShapeTable {
        empty: Rc::from([]),
        transitions: Vec::new(),
    });
}

fn empty_shape() -> Shape {
    SHAPES.with(|table| table.borrow().empty.clone())
}

/// `from` and then `keys`, none of which `from` holds, as a key list of
/// its own.
fn extended(from: &Shape, keys: impl IntoIterator<Item = Rc<str>>) -> Shape {
    from.iter().cloned().chain(keys).collect()
}

/// `from` plus `key`, which `from` does not hold: the shape every earlier
/// caller got for the same pair. A pair the table neither knows nor has
/// room for is `Err`, with the key for a list of the caller's own.
fn shared_step<K>(from: &Shape, key: K) -> Result<Shape, Rc<str>>
where
    K: AsRef<str> + Into<Rc<str>>,
{
    SHAPES.with(|table| {
        let transitions = &mut table.borrow_mut().transitions;
        let known = transitions
            .iter()
            .find(|t| Rc::ptr_eq(&t.from, from) && key_eq(&t.key, key.as_ref()));
        if let Some(known) = known {
            return Ok(known.to.clone());
        }
        let key: Rc<str> = key.into();
        if transitions.len() == SHAPE_CAP
            || from.len() == SHAPE_MAX_KEYS
            || key.len() > INTERN_MAX_LEN
        {
            return Err(key);
        }
        let to = extended(from, [key.clone()]);
        transitions.push(Transition {
            from: from.clone(),
            key,
            to: to.clone(),
        });
        Ok(to)
    })
}

/// An insertion-ordered string-keyed map — the representation of script
/// objects. Order is preserved so serialization is deterministic; lookups
/// are linear, which is fine for the small messages Pogo exchanges. The
/// keys are a [`Shape`] shared with every object of the same layout, so an
/// object owns only its values, in a slice of exactly their number.
#[derive(Clone, PartialEq)]
pub struct ObjMap {
    shape: Shape,
    /// `values[i]` belongs to `shape[i]`; the two are always as long.
    values: Box<[Value]>,
}

impl Default for ObjMap {
    fn default() -> Self {
        ObjMap {
            shape: empty_shape(),
            values: Box::default(),
        }
    }
}

impl fmt::Debug for ObjMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl ObjMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        ObjMap::default()
    }

    /// An object literal's map: `shape[i]` holds `values[i]`. The keys
    /// must be distinct — the compiler only emits such shapes and the
    /// verifier rejects any other.
    pub(crate) fn from_shape(shape: &Shape, values: impl Iterator<Item = Value>) -> Self {
        let values: Box<[Value]> = values.collect();
        debug_assert_eq!(values.len(), shape.len());
        ObjMap {
            shape: shape.clone(),
            values,
        }
    }

    /// Looks up a key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.index_of(key).map(|idx| &self.values[idx])
    }

    /// Inserts or replaces a key, preserving the original position on
    /// replacement. Returns the previous value if any. The key is only
    /// converted (and, for a `&str` or `String`, allocated) when no
    /// object on this thread has grown the same way before.
    pub fn insert(&mut self, key: impl AsRef<str> + Into<Rc<str>>, value: Value) -> Option<Value> {
        if let Some(idx) = self.index_of(key.as_ref()) {
            return Some(std::mem::replace(&mut self.values[idx], value));
        }
        self.shape =
            shared_step(&self.shape, key).unwrap_or_else(|key| extended(&self.shape, [key]));
        let mut values = std::mem::take(&mut self.values).into_vec();
        values.reserve_exact(1);
        values.push(value);
        self.values = values.into_boxed_slice();
        None
    }

    /// The key list's address — the inline-cache probe of the VM's member
    /// sites. It identifies the shape for as long as someone holds it, and
    /// while it is this map's, `shape[i]` is the key of
    /// [`ObjMap::value_at`]`(i)`.
    pub(crate) fn shape_addr(&self) -> usize {
        Rc::as_ptr(&self.shape).cast::<()>() as usize
    }

    /// The key list, for cache population.
    pub(crate) fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The value of the `idx`th key.
    pub(crate) fn value_at(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// The index of `key` in the shape, and of its value.
    pub(crate) fn index_of(&self, key: &str) -> Option<usize> {
        self.shape.iter().position(|k| key_eq(k, key))
    }

    /// Removes a key, returning its value. The keys left are the shape
    /// inserting them one by one reaches.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        let idx = self.index_of(key)?;
        let values = std::mem::take(&mut self.values).into_vec();
        let mut pairs: Vec<_> = self.shape.iter().cloned().zip(values).collect();
        let (_, removed) = pairs.remove(idx);
        *self = pairs.into_iter().collect();
        Some(removed)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if there are no entries.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.keys().zip(&*self.values)
    }

    /// The keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.shape.iter().map(|k| &**k)
    }
}

impl<K: AsRef<str> + Into<Rc<str>>> FromIterator<(K, Value)> for ObjMap {
    fn from_iter<T: IntoIterator<Item = (K, Value)>>(iter: T) -> Self {
        // `insert` by `insert`, with one allocation for the values and —
        // the table not taking every key list, and the keys being a
        // peer's to choose — one for all the keys past the shared ones.
        let iter = iter.into_iter();
        let mut shape = empty_shape();
        let mut own: Vec<Rc<str>> = Vec::new();
        let mut values = Vec::with_capacity(iter.size_hint().0);
        for (k, v) in iter {
            let mut keys = shape.iter().chain(&own);
            match keys.position(|held| key_eq(held, k.as_ref())) {
                Some(idx) => values[idx] = v,
                None => {
                    values.push(v);
                    if !own.is_empty() {
                        own.push(k.into());
                    } else {
                        match shared_step(&shape, k) {
                            Ok(next) => shape = next,
                            Err(key) => own.push(key),
                        }
                    }
                }
            }
        }
        if !own.is_empty() {
            shape = extended(&shape, own);
        }
        ObjMap {
            shape,
            values: values.into_boxed_slice(),
        }
    }
}

impl Drop for ObjMap {
    fn drop(&mut self) {
        drop_children(std::mem::take(&mut self.values).into_vec());
    }
}

/// The elements of a script array: a `Vec<Value>`, which it derefs to, in
/// all but the way it is dropped (see `drop_children`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Items(Vec<Value>);

impl std::ops::Deref for Items {
    type Target = Vec<Value>;

    fn deref(&self) -> &Vec<Value> {
        &self.0
    }
}

impl std::ops::DerefMut for Items {
    fn deref_mut(&mut self) -> &mut Vec<Value> {
        &mut self.0
    }
}

impl Drop for Items {
    fn drop(&mut self) {
        drop_children(std::mem::take(&mut self.0));
    }
}

/// Containers being dropped inside one another on this thread, while a
/// container's drop is still plain recursion.
const DROP_RECURSION: u32 = 64;

thread_local! {
    static DROP_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// Drops what a container held when its last reference went. A script can
/// nest values as deep as its budget lets it run (`a = [a]` in a loop, a
/// few hundred thousand levels across callbacks), and dropping those one
/// inside the other would take a host stack frame per level. So only the
/// first [`DROP_RECURSION`] levels recurse, which costs the everyday drop
/// of a message or a scan window a counter and nothing else; anything
/// nested deeper is unwound on the heap.
fn drop_children(children: Vec<Value>) {
    if children.is_empty() {
        return;
    }
    // No counter while the thread is being torn down: recurse.
    let depth = DROP_DEPTH
        .try_with(|depth| depth.replace(depth.get() + 1))
        .unwrap_or(0);
    if depth < DROP_RECURSION {
        drop(children);
    } else {
        let mut pending = children;
        while let Some(value) = pending.pop() {
            // A container nobody else holds hands over what it holds and
            // is dropped empty; anything else is dropped as it is.
            match value {
                Value::Array(items) => {
                    if let Ok(items) = Rc::try_unwrap(items) {
                        pending.append(&mut items.into_inner().0);
                    }
                }
                Value::Object(map) => {
                    if let Ok(map) = Rc::try_unwrap(map) {
                        let values = std::mem::take(&mut map.into_inner().values);
                        pending.extend(values.into_vec());
                    }
                }
                _ => {}
            }
        }
    }
    let _ = DROP_DEPTH.try_with(|counter| counter.set(depth));
}

/// A captured-variable cell shared between a compiled closure and the
/// frame (or sibling closures) it was created in. `None` means the
/// binding's declaration has not executed yet.
pub type UpvalCell = Rc<RefCell<Option<Value>>>;

/// A script-visible function defined in PogoScript: a compiled
/// prototype plus the cells it captured.
#[derive(Debug)]
pub struct Closure {
    /// The compiled function (its `name` is `<anonymous>` for function
    /// expressions).
    pub proto: Rc<FnProto>,
    /// Captured variables, in the prototype's upvalue order.
    pub upvals: Rc<[UpvalCell]>,
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
    Array(Rc<RefCell<Items>>),
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
        Value::Array(Rc::new(RefCell::new(Items(items))))
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
            Value::Array(_) | Value::Object(_) => display_container(self),
            Value::Func(c) => format!("function {}", c.proto.name),
            Value::Native(n) => format!("function {} [native]", n.name),
        }
    }
}

/// The address of an array's or an object's storage, which is its
/// identity.
fn container_addr(value: &Value) -> Option<*const ()> {
    match value {
        Value::Array(items) => Some(Rc::as_ptr(items).cast()),
        Value::Object(map) => Some(Rc::as_ptr(map).cast()),
        _ => None,
    }
}

/// `[a, b]` or `{k: v}`, entries rendered in order. A script can nest a
/// value as deep as its budget lets it run (see [`drop_children`]), so
/// the containers being written are kept on a stack on the heap, not on
/// the host's; and a container met again inside itself, which would
/// never end, is written `[circular]`.
fn display_container(root: &Value) -> String {
    let mut out = String::new();
    // The containers being written, innermost last, each with the index
    // of its next entry; `open_at` holds their addresses.
    let mut open: Vec<(Value, usize)> = Vec::new();
    let mut open_at = HashSet::new();
    let mut entry = root.clone();
    loop {
        match container_addr(&entry) {
            None => out.push_str(&entry.to_display_string()),
            Some(addr) if open_at.insert(addr) => {
                out.push(if matches!(entry, Value::Array(_)) {
                    '['
                } else {
                    '{'
                });
                open.push((entry, 0));
            }
            Some(_) => out.push_str("[circular]"),
        }
        // The innermost container's next entry; each one with none left
        // is closed.
        entry = loop {
            let Some((container, next)) = open.last_mut() else {
                return out;
            };
            let i = *next;
            *next += 1;
            let sep = if i > 0 { ", " } else { "" };
            match container {
                Value::Array(items) => {
                    if let Some(v) = items.borrow().get(i) {
                        out.push_str(sep);
                        break v.clone();
                    }
                    out.push(']');
                }
                Value::Object(map) => {
                    let map = map.borrow();
                    if let Some(key) = map.shape.get(i) {
                        out.push_str(sep);
                        out.push_str(key);
                        out.push_str(": ");
                        break map.values[i].clone();
                    }
                    out.push('}');
                }
                _ => unreachable!("only containers are opened"),
            }
            if let Some(addr) = open.pop().and_then(|(done, _)| container_addr(&done)) {
                open_at.remove(&addr);
            }
        };
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
            (Value::Str(a), Value::Str(b)) => Rc::ptr_eq(a, b) || a == b,
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

    impl ObjMap {
        fn has_shape(&self, shape: &Shape) -> bool {
            Rc::ptr_eq(&self.shape, shape)
        }
    }

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
    fn objects_built_the_same_way_share_one_key_list() {
        let built = |keys: &[&str]| -> ObjMap { keys.iter().map(|k| (*k, Value::Null)).collect() };
        let a = built(&["bssid", "rssi"]);
        let mut b = ObjMap::new();
        b.insert(intern("bssid"), Value::from(1.0));
        b.insert(String::from("rssi"), Value::from(2.0));
        assert!(b.has_shape(a.shape()), "by insert or by collect");
        assert!(!built(&["rssi", "bssid"]).has_shape(a.shape()), "order");
        assert!(!built(&["bssid"]).has_shape(a.shape()), "a prefix");
        // Replacing a value keeps the shape, removing a key leaves the
        // shape of the keys that remain.
        b.insert("bssid", Value::Null);
        assert!(b.has_shape(a.shape()));
        let mut c = built(&["t", "bssid", "rssi"]);
        c.remove("t");
        assert!(c.has_shape(a.shape()));
        assert!(ObjMap::new().has_shape(ObjMap::default().shape()));
    }

    /// Keys come off the network, so the transition table stops growing at
    /// its cap (and never takes a long key or a long key list); an object
    /// past it has a key list of its own and behaves like any other.
    #[test]
    fn shape_table_stays_at_its_cap_and_objects_past_it_still_work() {
        let transitions = || SHAPES.with(|t| t.borrow().transitions.len());
        let wide: ObjMap = (0..SHAPE_MAX_KEYS + 8)
            .map(|i| (format!("k{i}"), Value::from(i as f64)))
            .collect();
        assert_eq!(transitions(), SHAPE_MAX_KEYS, "long key lists are not kept");
        assert_eq!(wide.len(), SHAPE_MAX_KEYS + 8);
        let long = "k".repeat(INTERN_MAX_LEN + 1);
        let mut held = ObjMap::new();
        held.insert(long.as_str(), Value::Null);
        assert_eq!(transitions(), SHAPE_MAX_KEYS, "nor are long keys");
        assert_eq!(held.get(&long), Some(&Value::Null));

        let maps: Vec<ObjMap> = (0..10_000)
            .map(|i| {
                let mut m = ObjMap::new();
                m.insert(format!("peer{i}"), Value::from(f64::from(i)));
                m.insert("v", Value::Null);
                m
            })
            .collect();
        assert_eq!(transitions(), SHAPE_CAP);
        for (i, m) in maps.iter().enumerate() {
            assert_eq!(m.get(&format!("peer{i}")), Some(&Value::from(i as f64)));
            assert_eq!(m.keys().nth(1), Some("v"));
        }
        // What was shared before the flood still is; what comes after it
        // is equal without being shared.
        let again: ObjMap = [("k0", Value::Null), ("k1", Value::Null)]
            .into_iter()
            .collect();
        let prefix: ObjMap = wide.iter().take(2).map(|(k, _)| (k, Value::Null)).collect();
        assert!(again.has_shape(prefix.shape()));
        let late = |_| -> ObjMap { [("late", Value::Null)].into_iter().collect() };
        let (x, y) = (late(0), late(1));
        assert!(!x.has_shape(y.shape()));
        assert_eq!(x, y);
    }

    /// A script nests a value as deep as a few callbacks' budgets allow
    /// and lets go of it: every level goes, and none of them on the host's
    /// stack (this test's thread has 2 MiB of it).
    #[test]
    fn values_nested_300k_deep_by_a_script_drop_without_recursion() {
        use crate::{Interpreter, WATCHDOG_BUDGET};
        for grow in ["a = [a];", "a = { next: a, n: 1 };"] {
            let mut interp = Interpreter::new();
            interp.set_budget(Some(WATCHDOG_BUDGET));
            let src = format!(
                "var a = null;\n\
                 function nest() {{ for (var i = 0; i < 10000; i++) {{ {grow} }} }}\n\
                 function release() {{ a = null; }}"
            );
            interp.eval(&src).unwrap();
            let call = |interp: &mut Interpreter, name: &str| {
                let f = interp.globals().get(name).unwrap();
                interp.call(&f, &[]).unwrap();
            };
            for _ in 0..30 {
                call(&mut interp, "nest");
            }
            let root = interp.globals().get("a").unwrap();
            assert!(matches!(root, Value::Array(_) | Value::Object(_)));
            call(&mut interp, "release");
            // The last reference to all 300,000 levels:
            drop(root);
            assert_eq!(DROP_DEPTH.with(Cell::get), 0);
        }
    }

    /// A value nested 300,000 deep by a script renders — by concatenation
    /// or `String()` — to the bytes the recursive definition gives,
    /// without a host stack frame per level (the thread has 2 MiB), and
    /// the bytes are billed: with less budget left than that, the
    /// watchdog stops it.
    #[test]
    fn values_nested_300k_deep_render_without_recursion() {
        use crate::{ErrorKind, Interpreter, WATCHDOG_BUDGET};
        const LEVELS: usize = 300_000;
        let nested = [
            ("a = [a];", "[".repeat(LEVELS), "]".repeat(LEVELS)),
            (
                "a = { next: a, n: 1 };",
                "{next: ".repeat(LEVELS),
                ", n: 1}".repeat(LEVELS),
            ),
        ];
        let thread = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                for (grow, open, close) in nested {
                    let want = format!("{open}[]{close}");
                    let mut interp = Interpreter::new();
                    interp.set_budget(Some(WATCHDOG_BUDGET));
                    let src =
                        format!("var a = [];\nfor (var k = 0; k < {LEVELS}; k++) {{ {grow} }}");
                    interp.eval(&src).unwrap();
                    for show in ["'' + a;", "String(a);"] {
                        assert_eq!(
                            interp.eval(show).unwrap(),
                            Value::str(&want),
                            "{grow} {show}"
                        );
                        interp.set_budget(Some(want.len() as u64));
                        let err = interp.eval(show).unwrap_err();
                        assert_eq!(err.kind(), ErrorKind::Timeout, "{grow} {show}");
                        interp.set_budget(Some(WATCHDOG_BUDGET));
                    }
                }
            });
        thread.unwrap().join().unwrap();
    }

    /// A container met again inside itself is written `[circular]` where
    /// the recursive renderer never returned.
    #[test]
    fn a_value_that_holds_itself_renders_the_inner_reference_as_circular() {
        let mut interp = crate::Interpreter::new();
        let got = interp
            .eval(
                "var c = [1]; c.push(c); var o = { n: c }; o.self = o;\n\
                 var shared = [2]; var twice = [shared, shared];\n\
                 String(c) + ' ' + String(o) + ' ' + String(twice);",
            )
            .unwrap();
        assert_eq!(
            got,
            Value::str("[1, [circular]] {n: [1, [circular]], self: [circular]} [[2], [2]]")
        );
    }

    /// Past the recursion limit a container is unwound on the heap; what
    /// it shares with a holder outside survives, to the element.
    #[test]
    fn deep_drop_spares_what_someone_else_still_holds() {
        let kept = Value::array(vec![Value::from(7.0), Value::str("kept")]);
        let mut nest = Value::array(vec![kept.clone()]);
        for level in 0..1000 {
            let mut map = ObjMap::new();
            map.insert("inner", nest);
            map.insert("shared", kept.clone());
            nest = Value::array(vec![Value::from(f64::from(level)), Value::object(map)]);
        }
        let Value::Array(items) = &kept else {
            unreachable!()
        };
        assert_eq!(Rc::strong_count(items), 1002);
        drop(nest);
        assert_eq!(Rc::strong_count(items), 1);
        assert_eq!(kept.to_display_string(), "[7, kept]");
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

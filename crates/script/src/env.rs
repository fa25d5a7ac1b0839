//! The global scope of an interpreter.
//!
//! Storage is an append-only vector of `(name, value)` slots. A name's
//! slot index never changes once declared (redeclaration overwrites the
//! value in place), which is what lets the bytecode VM's global-access
//! sites cache a slot index per chunk location and verify it with a
//! cheap name comparison. A name is found by a scan of the slots, which
//! only a site's first visit and a declaration make: a scope holds a few
//! dozen names, and a name table beside them cost every interpreter
//! more than a kilobyte. Everything below the top level lives in VM frame
//! slots and cells, so there is one scope here and no chain.

use std::cell::{Ref, RefCell};
use std::rc::Rc;

use crate::value::Value;

/// Name equality: the same allocation — an interned name, or a chunk's
/// own — or else the same text.
fn same_name(a: &Rc<str>, b: &str) -> bool {
    std::ptr::eq(&**a, b) || **a == *b
}

#[derive(Debug, Default)]
struct Scope {
    /// Append-only storage; an index is stable for the scope's life.
    slots: Vec<(Rc<str>, Value)>,
}

impl Scope {
    fn index_of(&self, name: &str) -> Option<usize> {
        self.slots.iter().position(|(n, _)| same_name(n, name))
    }

    fn declare(&mut self, name: Rc<str>, value: Value) -> usize {
        if let Some(idx) = self.index_of(&name) {
            self.slots[idx].1 = value;
            idx
        } else {
            self.slots.push((name, value));
            self.slots.len() - 1
        }
    }
}

/// The global scope, shared by every handle to it.
#[derive(Debug, Clone, Default)]
pub struct Env {
    scope: Rc<RefCell<Scope>>,
}

impl Env {
    /// Creates an empty scope.
    pub fn new() -> Self {
        Env::default()
    }

    /// Declares (or redeclares) a variable.
    pub fn declare(&self, name: impl Into<Rc<str>>, value: Value) {
        self.scope.borrow_mut().declare(name.into(), value);
    }

    /// Declares and returns the (stable) slot index.
    pub(crate) fn declare_indexed(&self, name: Rc<str>, value: Value) -> usize {
        self.scope.borrow_mut().declare(name, value)
    }

    /// The slot index of `name`, if declared.
    pub(crate) fn slot_of(&self, name: &str) -> Option<usize> {
        self.scope.borrow().index_of(name)
    }

    /// Gives back the room the slots grew into past the names declared.
    /// Only a program's top level declares, so after it has run the scope
    /// keeps its size.
    pub(crate) fn shrink_to_fit(&self) {
        self.scope.borrow_mut().slots.shrink_to_fit();
    }

    /// Reads slot `idx` if it still belongs to `name` (verified inline
    /// cache access — a chunk may be shared across environments with
    /// different declaration orders).
    pub(crate) fn slot_get(&self, idx: usize, name: &Rc<str>) -> Option<Value> {
        self.slot_ref(idx, name).map(|v| v.clone())
    }

    /// [`Env::slot_get`] without the clone: the value where it is bound,
    /// for as long as the guard is held.
    pub(crate) fn slot_ref(&self, idx: usize, name: &Rc<str>) -> Option<Ref<'_, Value>> {
        Ref::filter_map(self.scope.borrow(), |scope| match scope.slots.get(idx) {
            Some((n, v)) if same_name(n, name) => Some(v),
            _ => None,
        })
        .ok()
    }

    /// Writes slot `idx` if it still belongs to `name`.
    pub(crate) fn slot_set(&self, idx: usize, name: &Rc<str>, value: Value) -> bool {
        let mut scope = self.scope.borrow_mut();
        match scope.slots.get_mut(idx) {
            Some((n, v)) if same_name(n, name) => {
                *v = value;
                true
            }
            _ => false,
        }
    }

    /// Looks a name up.
    pub fn get(&self, name: &str) -> Option<Value> {
        let scope = self.scope.borrow();
        let idx = scope.index_of(name)?;
        Some(scope.slots[idx].1.clone())
    }

    /// Assigns to an existing variable. Returns `false` if the name is
    /// not declared (PogoScript has no implicit globals — §4.4's sandbox
    /// would not want them).
    pub fn assign(&self, name: &str, value: Value) -> bool {
        let mut scope = self.scope.borrow_mut();
        match scope.index_of(name) {
            Some(idx) => {
                scope.slots[idx].1 = value;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assign_to_undeclared_fails() {
        let root = Env::new();
        assert!(!root.assign("nope", Value::Null));
    }

    #[test]
    fn slot_indices_are_stable_across_redeclare() {
        let root = Env::new();
        let name: Rc<str> = Rc::from("x");
        let idx = root.declare_indexed(name.clone(), Value::from(1.0));
        root.declare("y", Value::from(9.0));
        // Redeclaring keeps the slot; the cached index stays valid.
        let again = root.declare_indexed(name.clone(), Value::from(2.0));
        assert_eq!(idx, again);
        assert_eq!(root.slot_get(idx, &name), Some(Value::from(2.0)));
        assert!(root.slot_set(idx, &name, Value::from(3.0)));
        assert_eq!(root.get("x"), Some(Value::from(3.0)));
        // A mismatched name is rejected, not silently aliased.
        let other: Rc<str> = Rc::from("y");
        assert_eq!(root.slot_get(idx, &other), None);
        assert!(!root.slot_set(idx, &other, Value::Null));
    }
}

//! The tree-walk oracle: PogoScript evaluated straight off the AST, the
//! reference the bytecode VM is held to. It predates the VM and lives
//! with the tests because nothing ships it.
//!
//! It shares with the VM what makes the two agree by construction: the
//! value operations `Interpreter` exposes (`eval_binary`, `get_member`,
//! `get_index`, `set_member_value`, `set_index_value`), the builtins, and
//! the budget, billed one step per AST node through
//! `Interpreter::charge`. The rest it does on its own — scopes, calls
//! and their depth limit, unary operators, method dispatch, the
//! `++`/`--` refusal — so a change to the VM's copy of any of those
//! shows up as a divergence instead of being mirrored. A script function
//! is a native closure over its parameters, body and scope, so a
//! function renders with the `[native]` marker here and without it on
//! the VM.
//!
//! Each test binary compiles its own copy, so not every consumer uses
//! every item.
#![allow(dead_code)]

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use pogo_script::ast::{Expr, LogicalOp, Stmt, UnaryOp};
use pogo_script::builtins::{call_array_method, call_string_method};
use pogo_script::env::Env;
use pogo_script::value::ObjMap;
use pogo_script::{parse, ErrorKind, Interpreter, NativeFn, ScriptError, Value};

/// How a program runs: `Interpreter::eval` on the VM, or [`eval`] here.
pub type Eval = fn(&mut Interpreter, &str) -> Result<Value, ScriptError>;

/// Both engines, named, for the tests that hold them to one answer.
pub const ENGINES: [(&str, Eval); 2] = [("vm", Interpreter::eval), ("tree-walk", eval)];

/// The VM's call-depth limit (`MAX_DEPTH`), counted here on its own.
const MAX_DEPTH: usize = 100;

/// Parses and runs `source` in `interp`'s global scope, as
/// `Interpreter::eval` does on the VM, under the budget `interp` has
/// left (a fresh interpreter's, or what `set_budget` armed).
///
/// # Errors
///
/// Parse errors, and what the program raises.
pub fn eval(interp: &mut Interpreter, source: &str) -> Result<Value, ScriptError> {
    let program = parse(source)?;
    let scope = Scope::Global(interp.globals().clone());
    let mut walk = Walk {
        interp,
        at: Rc::default(),
    };
    walk.hoist(&program, &scope);
    let mut last = Value::Null;
    for stmt in &program {
        if let Stmt::Expr { expr, line } = stmt {
            walk.at.line.set(*line);
            last = walk.eval_expr(expr, &scope)?;
        } else {
            match walk.exec_stmt(stmt, &scope)? {
                Flow::Normal => {}
                Flow::Return(v) => return Ok(v),
                Flow::Break | Flow::Continue => return Err(walk.outside_loop()),
            }
        }
    }
    Ok(last)
}

// ---- scopes -------------------------------------------------------------------

/// A scope: its own bindings over the enclosing scope's, down to the
/// interpreter's global `Env`, which the host and the VM see too.
#[derive(Clone)]
enum Scope {
    Global(Env),
    Local(Rc<Frame>),
}

struct Frame {
    vars: RefCell<HashMap<Rc<str>, Value>>,
    parent: Scope,
}

impl Scope {
    /// A new scope whose lookups fall through to `self`.
    fn child(&self) -> Scope {
        Scope::Local(Rc::new(Frame {
            vars: RefCell::default(),
            parent: self.clone(),
        }))
    }

    /// Declares (or redeclares) `name` in this scope.
    fn declare(&self, name: impl Into<Rc<str>>, value: Value) {
        match self {
            Scope::Global(env) => env.declare(name, value),
            Scope::Local(frame) => {
                frame.vars.borrow_mut().insert(name.into(), value);
            }
        }
    }

    /// Looks `name` up through the chain, innermost first.
    fn get(&self, name: &str) -> Option<Value> {
        let mut scope = self;
        loop {
            match scope {
                Scope::Global(env) => return env.get(name),
                Scope::Local(frame) => {
                    if let Some(v) = frame.vars.borrow().get(name) {
                        return Some(v.clone());
                    }
                    scope = &frame.parent;
                }
            }
        }
    }

    /// Assigns to `name` in the innermost scope that declares it; `false`
    /// if none does (no implicit globals).
    fn assign(&self, name: &str, value: Value) -> bool {
        let mut scope = self;
        loop {
            match scope {
                Scope::Global(env) => return env.assign(name, value),
                Scope::Local(frame) => {
                    if let Some(slot) = frame.vars.borrow_mut().get_mut(name) {
                        *slot = value;
                        return true;
                    }
                    scope = &frame.parent;
                }
            }
        }
    }
}

// ---- the walk -------------------------------------------------------------------

/// Statement execution outcome.
enum Flow {
    Normal,
    Return(Value),
    Break,
    Continue,
}

/// What one run and every function it makes share: the line being
/// executed and how deep script calls are nested.
#[derive(Default)]
struct At {
    line: Cell<u32>,
    depth: Cell<usize>,
}

impl At {
    /// An error from the library without a line gets the line being
    /// executed (the VM's errors get it from `set_line!`).
    fn placed<T>(&self, result: Result<T, ScriptError>) -> Result<T, ScriptError> {
        result.map_err(|e| with_line(e, self.line.get()))
    }
}

fn with_line(e: ScriptError, line: u32) -> ScriptError {
    if e.line() == 0 {
        ScriptError::new(e.kind(), e.message(), line)
    } else {
        e
    }
}

/// The oracle at work in `interp`.
struct Walk<'a> {
    interp: &'a mut Interpreter,
    at: Rc<At>,
}

impl Walk<'_> {
    fn err(&self, kind: ErrorKind, msg: impl Into<String>) -> ScriptError {
        ScriptError::new(kind, msg, self.at.line.get())
    }

    fn outside_loop(&self) -> ScriptError {
        self.err(ErrorKind::Parse, "break/continue outside of a loop")
    }

    /// One step of the budget, per statement and per expression node.
    fn step(&mut self) -> Result<(), ScriptError> {
        self.at.placed(self.interp.charge(1))
    }

    /// A script function: a native closure over its parameters, body
    /// and the scope it was made in.
    fn function(
        &self,
        name: &str,
        params: &[Rc<str>],
        body: &Rc<Vec<Stmt>>,
        scope: &Scope,
    ) -> Value {
        let (at, params, body, scope) = (
            self.at.clone(),
            params.to_vec(),
            body.clone(),
            scope.clone(),
        );
        Value::Native(Rc::new(NativeFn {
            name: name.to_owned(),
            func: Box::new(move |interp, args| {
                let mut walk = Walk {
                    interp,
                    at: at.clone(),
                };
                walk.call_function(&params, &body, &scope, args)
            }),
        }))
    }

    fn call_function(
        &mut self,
        params: &[Rc<str>],
        body: &[Stmt],
        scope: &Scope,
        args: &[Value],
    ) -> Result<Value, ScriptError> {
        let depth = self.at.depth.get();
        if depth >= MAX_DEPTH {
            return Err(self.err(ErrorKind::StackOverflow, "call stack exhausted"));
        }
        self.at.depth.set(depth + 1);
        let scope = scope.child();
        for (i, param) in params.iter().enumerate() {
            scope.declare(param.clone(), args.get(i).cloned().unwrap_or(Value::Null));
        }
        self.hoist(body, &scope);
        let result = self.exec_body(body, &scope);
        self.at.depth.set(depth);
        result
    }

    /// A function body's value: what it returns, `null` if it ends.
    fn exec_body(&mut self, body: &[Stmt], scope: &Scope) -> Result<Value, ScriptError> {
        for stmt in body {
            match self.exec_stmt(stmt, scope)? {
                Flow::Normal => {}
                Flow::Return(v) => return Ok(v),
                Flow::Break | Flow::Continue => return Err(self.outside_loop()),
            }
        }
        Ok(Value::Null)
    }

    /// Declares function statements ahead of execution so forward and
    /// mutual references work (JavaScript hoisting).
    fn hoist(&self, body: &[Stmt], scope: &Scope) {
        for stmt in body {
            if let Stmt::Func {
                name, params, body, ..
            } = stmt
            {
                scope.declare(name.clone(), self.function(name, params, body, scope));
            }
        }
    }

    // ---- statements -------------------------------------------------------------

    fn exec_stmt(&mut self, stmt: &Stmt, scope: &Scope) -> Result<Flow, ScriptError> {
        self.at.line.set(stmt.line());
        self.step()?;
        match stmt {
            Stmt::Var { decls, .. } => {
                for (name, init) in decls {
                    let value = match init {
                        Some(expr) => self.eval_expr(expr, scope)?,
                        None => Value::Null,
                    };
                    scope.declare(name.clone(), value);
                }
                Ok(Flow::Normal)
            }
            Stmt::Func { .. } => Ok(Flow::Normal), // handled by hoisting
            Stmt::Expr { expr, .. } => {
                self.eval_expr(expr, scope)?;
                Ok(Flow::Normal)
            }
            Stmt::If {
                cond, then, els, ..
            } => {
                if self.eval_expr(cond, scope)?.is_truthy() {
                    self.exec_stmt(then, scope)
                } else if let Some(els) = els {
                    self.exec_stmt(els, scope)
                } else {
                    Ok(Flow::Normal)
                }
            }
            Stmt::While { cond, body, .. } => {
                while self.eval_expr(cond, scope)?.is_truthy() {
                    match self.exec_stmt(body, scope)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::DoWhile { body, cond, .. } => {
                loop {
                    match self.exec_stmt(body, scope)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                    if !self.eval_expr(cond, scope)?.is_truthy() {
                        break;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::ForIn {
                name, object, body, ..
            } => {
                let object = self.eval_expr(object, scope)?;
                let keys: Vec<Value> = match &object {
                    Value::Object(map) => map.borrow().keys().map(Value::str).collect(),
                    Value::Array(items) => (0..items.borrow().len())
                        .map(|i| Value::Num(i as f64))
                        .collect(),
                    Value::Null => Vec::new(),
                    other => {
                        return Err(self.err(
                            ErrorKind::Type,
                            format!("cannot enumerate a {}", other.type_name()),
                        ))
                    }
                };
                let scope = scope.child();
                scope.declare(name.clone(), Value::Null);
                for key in keys {
                    scope.declare(name.clone(), key);
                    match self.exec_stmt(body, &scope)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                let scope = scope.child();
                if let Some(init) = init {
                    self.exec_stmt(init, &scope)?;
                }
                loop {
                    if let Some(cond) = cond {
                        if !self.eval_expr(cond, &scope)?.is_truthy() {
                            break;
                        }
                    }
                    match self.exec_stmt(body, &scope)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                    if let Some(step) = step {
                        self.eval_expr(step, &scope)?;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Return { value, .. } => {
                let v = match value {
                    Some(expr) => self.eval_expr(expr, scope)?,
                    None => Value::Null,
                };
                Ok(Flow::Return(v))
            }
            Stmt::Break { .. } => Ok(Flow::Break),
            Stmt::Continue { .. } => Ok(Flow::Continue),
            Stmt::Block { body, .. } => {
                let scope = scope.child();
                self.hoist(body, &scope);
                for stmt in body {
                    match self.exec_stmt(stmt, &scope)? {
                        Flow::Normal => {}
                        other => return Ok(other),
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Empty { .. } => Ok(Flow::Normal),
        }
    }

    // ---- expressions ------------------------------------------------------------

    fn eval_expr(&mut self, expr: &Expr, scope: &Scope) -> Result<Value, ScriptError> {
        self.step()?;
        match expr {
            Expr::Number(n) => Ok(Value::Num(*n)),
            Expr::Str(s) => Ok(Value::str(s)),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Null => Ok(Value::Null),
            Expr::Ident(name) => scope
                .get(name)
                .ok_or_else(|| self.err(ErrorKind::Reference, format!("`{name}` is not defined"))),
            Expr::Array(items) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    out.push(self.eval_expr(item, scope)?);
                }
                Ok(Value::array(out))
            }
            Expr::Object(props) => {
                let mut map = ObjMap::new();
                for (key, value) in props {
                    let v = self.eval_expr(value, scope)?;
                    map.insert(key.clone(), v);
                }
                Ok(Value::object(map))
            }
            Expr::Func { params, body } => Ok(self.function("<anonymous>", params, body, scope)),
            Expr::Unary { op, expr } => {
                let v = self.eval_expr(expr, scope)?;
                self.eval_unary(*op, v)
            }
            Expr::Binary { op, lhs, rhs } => {
                let a = self.eval_expr(lhs, scope)?;
                let b = self.eval_expr(rhs, scope)?;
                self.at.placed(self.interp.eval_binary(*op, a, b))
            }
            Expr::Logical { op, lhs, rhs } => {
                let a = self.eval_expr(lhs, scope)?;
                match op {
                    LogicalOp::And if a.is_truthy() => self.eval_expr(rhs, scope),
                    LogicalOp::Or if !a.is_truthy() => self.eval_expr(rhs, scope),
                    _ => Ok(a),
                }
            }
            Expr::Ternary { cond, then, els } => {
                if self.eval_expr(cond, scope)?.is_truthy() {
                    self.eval_expr(then, scope)
                } else {
                    self.eval_expr(els, scope)
                }
            }
            Expr::Assign { target, op, value } => {
                let rhs = self.eval_expr(value, scope)?;
                let new_value = match op {
                    None => rhs,
                    Some(op) => {
                        let current = self.eval_expr(target, scope)?;
                        self.at.placed(self.interp.eval_binary(*op, current, rhs))?
                    }
                };
                self.assign_to(target, new_value.clone(), scope)?;
                Ok(new_value)
            }
            Expr::Update {
                target,
                increment,
                prefix,
            } => {
                let current = self.eval_expr(target, scope)?;
                let Some(n) = current.as_num() else {
                    let verb = if *increment { "increment" } else { "decrement" };
                    let msg = format!("cannot {verb} a {}", current.type_name());
                    return Err(self.err(ErrorKind::Type, msg));
                };
                let updated = if *increment { n + 1.0 } else { n - 1.0 };
                self.assign_to(target, Value::Num(updated), scope)?;
                Ok(Value::Num(if *prefix { updated } else { n }))
            }
            Expr::Call { callee, args, line } => {
                self.at.line.set(*line);
                let mut arg_values = Vec::with_capacity(args.len());
                for arg in args {
                    arg_values.push(self.eval_expr(arg, scope)?);
                }
                self.at.line.set(*line);
                // Method call: dispatch on the receiver so `arr.push(x)`
                // and `subscription.release()` work.
                if let Expr::Member { object, name } = callee.as_ref() {
                    let receiver = self.eval_expr(object, scope)?;
                    self.at.line.set(*line);
                    return self.call_method(receiver, name, &arg_values);
                }
                let f = self.eval_expr(callee, scope)?;
                self.at.line.set(*line);
                self.call_value(&f, &arg_values)
            }
            Expr::Member { object, name } => {
                let obj = self.eval_expr(object, scope)?;
                self.at.placed(self.interp.get_member(&obj, name))
            }
            Expr::Index { object, index } => {
                let obj = self.eval_expr(object, scope)?;
                let idx = self.eval_expr(index, scope)?;
                self.at.placed(self.interp.get_index(&obj, &idx))
            }
        }
    }

    fn eval_unary(&self, op: UnaryOp, v: Value) -> Result<Value, ScriptError> {
        match (op, v.as_num()) {
            (UnaryOp::Not, _) => Ok(Value::Bool(!v.is_truthy())),
            (UnaryOp::Typeof, _) => Ok(Value::str(v.type_name())),
            (UnaryOp::Neg, Some(n)) => Ok(Value::Num(-n)),
            (UnaryOp::Plus, Some(n)) => Ok(Value::Num(n)),
            (UnaryOp::Neg, None) => Err(self.err(
                ErrorKind::Type,
                format!("cannot negate a {}", v.type_name()),
            )),
            (UnaryOp::Plus, None) => Err(self.err(
                ErrorKind::Type,
                format!("unary + applied to a {}", v.type_name()),
            )),
        }
    }

    fn assign_to(&mut self, target: &Expr, value: Value, scope: &Scope) -> Result<(), ScriptError> {
        match target {
            Expr::Ident(name) => {
                if scope.assign(name, value) {
                    Ok(())
                } else {
                    Err(self.err(
                        ErrorKind::Reference,
                        format!("assignment to undeclared variable `{name}`"),
                    ))
                }
            }
            Expr::Member { object, name } => {
                let obj = self.eval_expr(object, scope)?;
                self.at
                    .placed(self.interp.set_member_value(&obj, name, value))
            }
            Expr::Index { object, index } => {
                let obj = self.eval_expr(object, scope)?;
                let idx = self.eval_expr(index, scope)?;
                self.at
                    .placed(self.interp.set_index_value(&obj, &idx, value))
            }
            _ => Err(self.err(ErrorKind::Type, "invalid assignment target")),
        }
    }

    // ---- calls ------------------------------------------------------------------

    fn call_value(&mut self, f: &Value, args: &[Value]) -> Result<Value, ScriptError> {
        match f {
            Value::Native(native) => self.at.placed((native.func)(self.interp, args)),
            Value::Func(_) => unreachable!("the oracle makes no compiled closures"),
            other => Err(self.err(
                ErrorKind::Type,
                format!("{} is not a function", other.type_name()),
            )),
        }
    }

    /// `receiver.name(args)`.
    fn call_method(
        &mut self,
        receiver: Value,
        name: &str,
        args: &[Value],
    ) -> Result<Value, ScriptError> {
        // A builtin's own errors are the call's, on its line, whatever
        // line the callbacks it ran ended on.
        let line = self.at.line.get();
        let result = match &receiver {
            Value::Object(map) => {
                let method = map.borrow().get(name).cloned();
                return match method {
                    Some(f @ (Value::Func(_) | Value::Native(_))) => self.call_value(&f, args),
                    Some(other) => Err(self.err(
                        ErrorKind::Type,
                        format!(
                            "property `{name}` is a {}, not a function",
                            other.type_name()
                        ),
                    )),
                    None => {
                        Err(self.err(ErrorKind::Type, format!("object has no method `{name}`")))
                    }
                };
            }
            Value::Array(_) => call_array_method(self.interp, &receiver, name, args),
            Value::Str(_) => call_string_method(self.interp, &receiver, name, args),
            other => {
                return Err(self.err(
                    ErrorKind::Type,
                    format!("cannot call method `{name}` on a {}", other.type_name()),
                ))
            }
        };
        result.map_err(|e| with_line(e, line))
    }
}

// The scope chain: only the oracle has one, the VM's `Env` is flat.
#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> Scope {
        Scope::Global(Env::new())
    }

    #[test]
    fn lookup_walks_the_chain() {
        let root = root();
        root.declare("x", Value::from(1.0));
        let child = root.child();
        assert_eq!(child.get("x"), Some(Value::from(1.0)));
        assert_eq!(child.get("y"), None);
    }

    #[test]
    fn shadowing_in_child_scope() {
        let root = root();
        root.declare("x", Value::from(1.0));
        let child = root.child();
        child.declare("x", Value::from(2.0));
        assert_eq!(child.get("x"), Some(Value::from(2.0)));
        assert_eq!(root.get("x"), Some(Value::from(1.0)));
    }

    #[test]
    fn assign_mutates_outer_variable() {
        let root = root();
        root.declare("x", Value::from(1.0));
        let child = root.child();
        assert!(child.assign("x", Value::from(5.0)));
        assert_eq!(root.get("x"), Some(Value::from(5.0)));
    }

    #[test]
    fn sibling_scopes_are_independent() {
        let root = root();
        let a = root.child();
        let b = root.child();
        a.declare("x", Value::from(1.0));
        assert_eq!(b.get("x"), None);
    }
}

//! Script execution: the host-facing [`Interpreter`] API — global
//! scope, watchdog budget, calls into script — and the value operations
//! the bytecode VM (`vm.rs`) falls back to off its fast paths.

use std::rc::Rc;

use crate::ast::BinOp;
use crate::bytecode::CompiledProgram;
use crate::env::Env;
use crate::error::{ErrorKind, ScriptError};
use crate::value::{NativeFn, Value};

/// Maximum script call-stack depth. A call from script to script is a
/// VM frame, but one made through a native (an `Array.sort` comparator,
/// a `map` callback) nests another machine on the host stack, and the
/// host may run on a 2 MiB thread stack. Pogo's sensing scripts iterate,
/// they don't recurse deeply.
pub(crate) const MAX_DEPTH: usize = 100;

/// A PogoScript interpreter instance: global scope plus watchdog state.
///
/// One interpreter corresponds to one running script in the middleware;
/// the host registers its API as native functions and then calls into
/// script functions as events arrive.
pub struct Interpreter {
    pub(crate) globals: Env,
    pub(crate) steps_remaining: u64,
    /// Instructions the VM has dispatched over this interpreter's life.
    pub(crate) dispatches: u64,
    budget_limit: Option<u64>,
    pub(crate) depth: usize,
    pub(crate) current_line: u32,
    /// Stacks of finished VM machines, kept for the next one.
    pub(crate) vm_stacks: Vec<crate::vm::Stacks>,
}

impl std::fmt::Debug for Interpreter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Interpreter")
            .field("budget_limit", &self.budget_limit)
            .field("steps_remaining", &self.steps_remaining)
            .finish()
    }
}

impl Default for Interpreter {
    fn default() -> Self {
        Self::new()
    }
}

impl Interpreter {
    /// Creates an interpreter with the standard builtins installed and
    /// no instruction budget.
    pub fn new() -> Self {
        let globals = Env::new();
        crate::builtins::install(&globals);
        Interpreter {
            globals,
            steps_remaining: u64::MAX,
            dispatches: 0,
            budget_limit: None,
            depth: 0,
            current_line: 0,
            vm_stacks: Vec::new(),
        }
    }

    /// The global scope (for hosts that need direct access).
    pub fn globals(&self) -> &Env {
        &self.globals
    }

    /// Registers a host function under `name` in the global scope.
    pub fn register_native(
        &mut self,
        name: &str,
        f: impl Fn(&mut Interpreter, &[Value]) -> Result<Value, ScriptError> + 'static,
    ) {
        self.globals.declare(
            name,
            Value::Native(Rc::new(NativeFn {
                name: name.to_owned(),
                func: Box::new(f),
            })),
        );
    }

    /// Sets the per-invocation instruction budget. `None` disables the
    /// watchdog. The budget is re-armed on every [`Interpreter::eval`],
    /// [`Interpreter::run_compiled`] and [`Interpreter::call`] from the
    /// host.
    pub fn set_budget(&mut self, steps: Option<u64>) {
        self.budget_limit = steps;
        self.steps_remaining = steps.unwrap_or(u64::MAX);
    }

    /// Steps left in the current invocation (meaningful only with a
    /// budget set).
    pub fn steps_remaining(&self) -> u64 {
        self.steps_remaining
    }

    /// Instructions the bytecode VM has dispatched since this interpreter
    /// was made. A step is one op of the verified ISA; a dispatch is one
    /// trip round the VM's loop, which a fused instruction makes once for
    /// all the ops (and steps) it stands for. Steps are what the watchdog
    /// bills; dispatches are what the host pays for.
    pub fn dispatches(&self) -> u64 {
        self.dispatches
    }

    /// Parses and executes `source` in the global scope, returning the
    /// value of the last expression statement (or `null`).
    ///
    /// # Errors
    ///
    /// Returns parse errors, runtime errors, or [`ErrorKind::Timeout`] if
    /// the instruction budget is exhausted.
    pub fn eval(&mut self, source: &str) -> Result<Value, ScriptError> {
        let program = crate::compile::compile(source)?;
        self.run_compiled(&program)
    }

    /// Executes a pre-compiled program on the bytecode VM. This is the
    /// hot host path: compile once per script spec, run per event.
    ///
    /// # Errors
    ///
    /// As for [`Interpreter::eval`].
    pub fn run_compiled(&mut self, program: &CompiledProgram) -> Result<Value, ScriptError> {
        self.arm_budget();
        crate::vm::run_main(self, program)
    }

    /// Calls a script (or native) function value from the host, re-arming
    /// the instruction budget first. This is how the middleware delivers
    /// subscription events and timer callbacks.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::Type`] if `f` is not callable, plus any error
    /// the function raises.
    pub fn call(&mut self, f: &Value, args: &[Value]) -> Result<Value, ScriptError> {
        self.arm_budget();
        self.call_value(f, args)
    }

    fn arm_budget(&mut self) {
        self.steps_remaining = self.budget_limit.unwrap_or(u64::MAX);
    }

    /// Calls a function without touching the budget (used for nested
    /// script-level calls).
    pub(crate) fn call_value(&mut self, f: &Value, args: &[Value]) -> Result<Value, ScriptError> {
        match f {
            Value::Func(closure) => {
                crate::vm::call_closure(self, &closure.proto, &closure.upvals, args)
            }
            Value::Native(native) => {
                (native.func)(self, args).map_err(|e| e.with_line_if_unset(self.current_line))
            }
            other => Err(self.rt_err(
                ErrorKind::Type,
                format!("{} is not a function", other.type_name()),
            )),
        }
    }

    // ---- helpers -----------------------------------------------------------

    pub(crate) fn rt_err(&self, kind: ErrorKind, msg: impl Into<String>) -> ScriptError {
        ScriptError::new(kind, msg, self.current_line)
    }

    /// Deducts `cost` steps from the current invocation's budget.
    ///
    /// Natives and builtins whose work is proportional to an input
    /// (array methods, string scans, structure rendering) call this so
    /// a *single* long-running call is still attributed to the
    /// script's watchdog budget instead of counting as one step.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Timeout`] when the budget is exhausted; the budget
    /// is left at zero so any further execution also trips.
    pub fn charge(&mut self, cost: u64) -> Result<(), ScriptError> {
        if self.steps_remaining < cost {
            self.steps_remaining = 0;
            return Err(self.rt_err(
                ErrorKind::Timeout,
                "instruction budget exhausted (callback watchdog)",
            ));
        }
        self.steps_remaining -= cost;
        Ok(())
    }

    // ---- value operations --------------------------------------------------
    //
    // What the VM does off its fast paths, and what the tree-walk oracle
    // in the tests (`tests/common/treewalk.rs`) calls for the same
    // operations, so the two agree on coercions, error kinds and
    // messages by construction. Errors carry the line the VM last set.

    /// `a op b`. A concatenation charges the bytes it produces.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Type`] for operands the operator does not take;
    /// [`ErrorKind::Timeout`] when a concatenation outruns the budget.
    pub fn eval_binary(&mut self, op: BinOp, a: Value, b: Value) -> Result<Value, ScriptError> {
        use BinOp::*;
        match op {
            Add => match (&a, &b) {
                (Value::Num(x), Value::Num(y)) => Ok(Value::Num(x + y)),
                (Value::Str(_), _) | (_, Value::Str(_)) => {
                    let s = format!("{}{}", a.to_display_string(), b.to_display_string());
                    // One concatenation can build an arbitrarily large
                    // string for a single step; bill the produced bytes
                    // so an `s = s + s` doubling loop cannot outrun the
                    // watchdog (same attribution rule as `String()`).
                    self.charge(s.len() as u64)?;
                    Ok(Value::from(s))
                }
                _ => Err(self.num_op_err(op, &a, &b)),
            },
            Sub | Mul | Div | Rem => match (a.as_num(), b.as_num()) {
                (Some(x), Some(y)) => Ok(Value::Num(match op {
                    Sub => x - y,
                    Mul => x * y,
                    Div => x / y,
                    Rem => x % y,
                    _ => unreachable!(),
                })),
                _ => Err(self.num_op_err(op, &a, &b)),
            },
            Eq => Ok(Value::Bool(a == b)),
            NotEq => Ok(Value::Bool(a != b)),
            Lt | Gt | Le | Ge => {
                let ord = match (&a, &b) {
                    (Value::Num(x), Value::Num(y)) => x.partial_cmp(y),
                    (Value::Str(x), Value::Str(y)) => Some(x.cmp(y)),
                    _ => return Err(self.num_op_err(op, &a, &b)),
                };
                let result = match (op, ord) {
                    (_, None) => false, // NaN comparisons
                    (Lt, Some(o)) => o == std::cmp::Ordering::Less,
                    (Gt, Some(o)) => o == std::cmp::Ordering::Greater,
                    (Le, Some(o)) => o != std::cmp::Ordering::Greater,
                    (Ge, Some(o)) => o != std::cmp::Ordering::Less,
                    _ => unreachable!(),
                };
                Ok(Value::Bool(result))
            }
        }
    }

    fn num_op_err(&self, op: BinOp, a: &Value, b: &Value) -> ScriptError {
        self.rt_err(
            ErrorKind::Type,
            format!(
                "operator `{}` not applicable to {} and {}",
                op.symbol(),
                a.type_name(),
                b.type_name()
            ),
        )
    }

    /// Stores into `obj.name` (the VM's `SetMember`).
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Type`] unless `obj` is an object.
    pub fn set_member_value(
        &self,
        obj: &Value,
        name: &Rc<str>,
        value: Value,
    ) -> Result<(), ScriptError> {
        match obj {
            Value::Object(map) => {
                map.borrow_mut().insert(name.clone(), value);
                Ok(())
            }
            other => Err(self.rt_err(
                ErrorKind::Type,
                format!("cannot set property `{name}` on a {}", other.type_name()),
            )),
        }
    }

    /// The refusal of `++`/`--` on a non-number (one text for the VM's
    /// stack and slot forms).
    pub(crate) fn update_err(&self, increment: bool, operand: &Value) -> ScriptError {
        let verb = if increment { "increment" } else { "decrement" };
        self.rt_err(
            ErrorKind::Type,
            format!("cannot {verb} a {}", operand.type_name()),
        )
    }

    /// Stores into `obj[idx]` (the VM's `SetIndex`). Growing an array
    /// charges the elements it adds, before it adds them.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Type`] for an index the container cannot take;
    /// [`ErrorKind::Timeout`] when the growth outruns the budget.
    pub fn set_index_value(
        &mut self,
        obj: &Value,
        idx: &Value,
        value: Value,
    ) -> Result<(), ScriptError> {
        match (obj, idx) {
            (Value::Array(items), Value::Num(n)) => {
                if n.fract() != 0.0 || *n < 0.0 {
                    return Err(self.rt_err(ErrorKind::Type, format!("invalid array index {n}")));
                }
                // `as` saturates: an index past `usize::MAX` has no slot.
                let i = *n as usize;
                let Some(new_len) = i.checked_add(1) else {
                    return Err(self.rt_err(ErrorKind::Type, format!("invalid array index {n}")));
                };
                let mut items = items.borrow_mut();
                if new_len > items.len() {
                    // One store can grow the array by any amount for a
                    // single step; bill the new elements before making
                    // them, so `a[1e15] = 1` meets the watchdog and not
                    // the allocator (same rule as `join`'s output).
                    self.charge((new_len - items.len()) as u64)?;
                    items.resize(new_len, Value::Null);
                }
                items[i] = value;
                Ok(())
            }
            (Value::Object(map), Value::Str(key)) => {
                map.borrow_mut().insert(key.clone(), value);
                Ok(())
            }
            (obj, idx) => Err(self.rt_err(
                ErrorKind::Type,
                format!(
                    "cannot index a {} with a {}",
                    obj.type_name(),
                    idx.type_name()
                ),
            )),
        }
    }

    /// Reads `obj.name`: an object's property (`null` when it has none)
    /// or an array's or a string's `length`.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Type`] for any other receiver or property.
    pub fn get_member(&self, obj: &Value, name: &str) -> Result<Value, ScriptError> {
        match obj {
            Value::Object(map) => Ok(map.borrow().get(name).cloned().unwrap_or(Value::Null)),
            Value::Array(items) => match name {
                "length" => Ok(Value::Num(items.borrow().len() as f64)),
                _ => Err(self.rt_err(
                    ErrorKind::Type,
                    format!("arrays have no property `{name}` (did you mean to call it?)"),
                )),
            },
            Value::Str(s) => match name {
                "length" => Ok(Value::Num(s.chars().count() as f64)),
                _ => Err(self.rt_err(
                    ErrorKind::Type,
                    format!("strings have no property `{name}` (did you mean to call it?)"),
                )),
            },
            Value::Null => Err(self.rt_err(
                ErrorKind::Type,
                format!("cannot read property `{name}` of null"),
            )),
            other => Err(self.rt_err(
                ErrorKind::Type,
                format!("cannot read property `{name}` of a {}", other.type_name()),
            )),
        }
    }

    /// Reads `obj[idx]`: `null` off either end of an array or a string
    /// and for a key an object does not hold.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Type`] for an index the receiver cannot take.
    pub fn get_index(&self, obj: &Value, idx: &Value) -> Result<Value, ScriptError> {
        match (obj, idx) {
            (Value::Array(items), Value::Num(n)) => {
                if *n < 0.0 || n.fract() != 0.0 {
                    return Ok(Value::Null);
                }
                Ok(items
                    .borrow()
                    .get(*n as usize)
                    .cloned()
                    .unwrap_or(Value::Null))
            }
            (Value::Object(map), Value::Str(key)) => {
                Ok(map.borrow().get(key).cloned().unwrap_or(Value::Null))
            }
            (Value::Str(s), Value::Num(n)) => {
                if *n < 0.0 || n.fract() != 0.0 {
                    return Ok(Value::Null);
                }
                Ok(s.chars()
                    .nth(*n as usize)
                    .map(|c| Value::from(c.to_string()))
                    .unwrap_or(Value::Null))
            }
            (Value::Null, _) => Err(self.rt_err(ErrorKind::Type, "cannot index null")),
            (obj, idx) => Err(self.rt_err(
                ErrorKind::Type,
                format!(
                    "cannot index a {} with a {}",
                    obj.type_name(),
                    idx.type_name()
                ),
            )),
        }
    }

    /// The line currently being executed (for native error reporting).
    pub(crate) fn current_line(&self) -> u32 {
        self.current_line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(src: &str) -> Value {
        Interpreter::new().eval(src).unwrap()
    }

    fn eval_err(src: &str) -> ScriptError {
        Interpreter::new().eval(src).unwrap_err()
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(eval("1 + 2 * 3;"), Value::from(7.0));
        assert_eq!(eval("(1 + 2) * 3;"), Value::from(9.0));
        assert_eq!(eval("10 % 3;"), Value::from(1.0));
        assert_eq!(eval("7 / 2;"), Value::from(3.5));
    }

    #[test]
    fn string_concatenation() {
        assert_eq!(eval("'a' + 'b';"), Value::str("ab"));
        assert_eq!(eval("'n=' + 5;"), Value::str("n=5"));
        assert_eq!(eval("1 + ' x';"), Value::str("1 x"));
    }

    #[test]
    fn variables_and_assignment() {
        assert_eq!(eval("var x = 1; x = x + 2; x;"), Value::from(3.0));
        assert_eq!(
            eval("var x = 10; x += 5; x -= 3; x *= 2; x;"),
            Value::from(24.0)
        );
    }

    #[test]
    fn assignment_to_undeclared_is_reference_error() {
        let err = eval_err("y = 1;");
        assert_eq!(err.kind(), ErrorKind::Reference);
    }

    #[test]
    fn if_else_and_truthiness() {
        assert_eq!(
            eval("var r = 0; if ('') { r = 1; } else { r = 2; } r;"),
            Value::from(2.0)
        );
        assert_eq!(eval("var r = 0; if (3) r = 1; r;"), Value::from(1.0));
    }

    #[test]
    fn while_loop_with_break_continue() {
        let v = eval(
            "var sum = 0; var i = 0;
             while (true) {
                 i++;
                 if (i > 10) break;
                 if (i % 2 == 0) continue;
                 sum += i;
             }
             sum;",
        );
        assert_eq!(v, Value::from(25.0)); // 1+3+5+7+9
    }

    #[test]
    fn for_loop() {
        assert_eq!(
            eval("var s = 0; for (var i = 0; i < 5; i++) { s += i; } s;"),
            Value::from(10.0)
        );
    }

    #[test]
    fn functions_and_recursion() {
        assert_eq!(
            eval("function fact(n) { if (n <= 1) return 1; return n * fact(n - 1); } fact(6);"),
            Value::from(720.0)
        );
    }

    #[test]
    fn function_hoisting_allows_forward_calls() {
        assert_eq!(
            eval("var r = f(); function f() { return 42; } r;"),
            Value::from(42.0)
        );
    }

    #[test]
    fn closures_capture_environment() {
        let v = eval(
            "function counter() {
                 var n = 0;
                 return function () { n = n + 1; return n; };
             }
             var c = counter();
             c(); c(); c();",
        );
        assert_eq!(v, Value::from(3.0));
    }

    #[test]
    fn two_closures_share_captured_state() {
        let v = eval(
            "function make() {
                 var n = 0;
                 return { inc: function () { n++; return n; },
                          get: function () { return n; } };
             }
             var m = make();
             m.inc(); m.inc();
             m.get();",
        );
        assert_eq!(v, Value::from(2.0));
    }

    #[test]
    fn arrays_index_and_length() {
        assert_eq!(eval("var a = [1, 2, 3]; a[1];"), Value::from(2.0));
        assert_eq!(eval("var a = [1, 2, 3]; a.length;"), Value::from(3.0));
        assert_eq!(eval("var a = [1]; a[5] = 9; a.length;"), Value::from(6.0));
        assert_eq!(eval("var a = [1, 2]; a[99];"), Value::Null);
    }

    #[test]
    fn objects_members_and_dynamic_keys() {
        assert_eq!(eval("var o = { a: 1 }; o.a;"), Value::from(1.0));
        assert_eq!(eval("var o = { a: 1 }; o.b;"), Value::Null);
        assert_eq!(
            eval("var o = {}; o.x = 7; o['y'] = 8; o.x + o['y'];"),
            Value::from(15.0)
        );
    }

    #[test]
    fn nested_structures() {
        assert_eq!(
            eval("var o = { pts: [{ x: 1 }, { x: 2 }] }; o.pts[1].x;"),
            Value::from(2.0)
        );
    }

    #[test]
    fn ternary_and_logical_short_circuit() {
        assert_eq!(eval("true ? 1 : 2;"), Value::from(1.0));
        // Short-circuit: the undefined function is never called.
        assert_eq!(eval("false && boom();"), Value::from(false));
        assert_eq!(eval("1 || boom();"), Value::from(1.0));
        // || returns the first truthy operand, JS-style.
        assert_eq!(eval("null || 'fallback';"), Value::str("fallback"));
    }

    #[test]
    fn typeof_operator() {
        assert_eq!(eval("typeof 3;"), Value::str("number"));
        assert_eq!(eval("typeof 'x';"), Value::str("string"));
        assert_eq!(eval("typeof [];"), Value::str("array"));
        assert_eq!(eval("typeof {};"), Value::str("object"));
        assert_eq!(eval("typeof null;"), Value::str("null"));
        assert_eq!(eval("typeof function () {};"), Value::str("function"));
    }

    #[test]
    fn update_operators_prefix_vs_postfix() {
        assert_eq!(eval("var i = 5; i++;"), Value::from(5.0));
        assert_eq!(eval("var i = 5; ++i;"), Value::from(6.0));
        assert_eq!(eval("var i = 5; i--; i;"), Value::from(4.0));
        assert_eq!(eval("var a = [1]; a[0]++; a[0];"), Value::from(2.0));
    }

    #[test]
    fn reference_error_on_unknown_identifier() {
        let err = eval_err("nope;");
        assert_eq!(err.kind(), ErrorKind::Reference);
        assert!(err.message().contains("nope"));
    }

    #[test]
    fn type_errors_carry_line_numbers() {
        let err = eval_err("var a = 1;\nvar b = a.x;");
        assert_eq!(err.kind(), ErrorKind::Type);
        assert_eq!(err.line(), 2);
    }

    #[test]
    fn native_functions_are_callable() {
        let mut interp = Interpreter::new();
        interp.register_native("double", |_, args| {
            let n = args[0]
                .as_num()
                .ok_or_else(|| ScriptError::host("want num"))?;
            Ok(Value::Num(n * 2.0))
        });
        assert_eq!(interp.eval("double(21);").unwrap(), Value::from(42.0));
    }

    #[test]
    fn natives_can_call_back_into_script() {
        let mut interp = Interpreter::new();
        interp.register_native("apply3", |interp, args| {
            interp.call_value(&args[0], &[Value::from(3.0)])
        });
        assert_eq!(
            interp
                .eval("apply3(function (x) { return x * x; });")
                .unwrap(),
            Value::from(9.0)
        );
    }

    #[test]
    fn budget_kills_infinite_loop() {
        let mut interp = Interpreter::new();
        interp.set_budget(Some(10_000));
        let err = interp.eval("while (true) {}").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Timeout);
    }

    #[test]
    fn budget_rearms_per_host_invocation() {
        let mut interp = Interpreter::new();
        interp.set_budget(Some(5_000));
        // Each eval gets a fresh budget.
        for _ in 0..5 {
            interp
                .eval("var s = 0; for (var i = 0; i < 100; i++) s += i; s;")
                .unwrap();
        }
    }

    #[test]
    fn deep_recursion_is_stack_overflow_not_crash() {
        let err = eval_err("function f(n) { return f(n + 1); } f(0);");
        assert_eq!(err.kind(), ErrorKind::StackOverflow);
    }

    #[test]
    fn division_by_zero_is_infinity() {
        assert_eq!(eval("1 / 0;"), Value::from(f64::INFINITY));
        assert!(eval("0 / 0;").as_num().unwrap().is_nan());
    }

    #[test]
    fn nan_comparisons_are_false() {
        assert_eq!(eval("var n = 0 / 0; n < 1;"), Value::from(false));
        assert_eq!(eval("var n = 0 / 0; n >= 1;"), Value::from(false));
    }

    #[test]
    fn string_comparison_is_lexicographic() {
        assert_eq!(eval("'apple' < 'banana';"), Value::from(true));
        assert_eq!(eval("'b' >= 'b';"), Value::from(true));
    }

    #[test]
    fn array_reference_semantics() {
        assert_eq!(
            eval("var a = [1]; var b = a; b.push(2); a.length;"),
            Value::from(2.0)
        );
    }

    #[test]
    fn block_scoping_of_for_initializer() {
        // The loop variable lives in the loop's own scope.
        let err = eval_err("for (var i = 0; i < 1; i++) {} i;");
        assert_eq!(err.kind(), ErrorKind::Reference);
    }

    #[test]
    fn do_while_runs_body_at_least_once() {
        assert_eq!(
            eval("var n = 0; do { n++; } while (false); n;"),
            Value::from(1.0)
        );
        assert_eq!(
            eval("var n = 0; do { n++; } while (n < 5); n;"),
            Value::from(5.0)
        );
        // break works inside do-while.
        assert_eq!(
            eval("var n = 0; do { n++; if (n == 3) break; } while (true); n;"),
            Value::from(3.0)
        );
    }

    #[test]
    fn for_in_iterates_object_keys_in_order() {
        assert_eq!(
            eval("var o = { b: 1, a: 2 }; var ks = ''; for (var k in o) ks += k; ks;"),
            Value::str("ba")
        );
        // And the values are reachable through indexing.
        assert_eq!(
            eval("var o = { x: 3, y: 4 }; var s = 0; for (var k in o) s += o[k]; s;"),
            Value::from(7.0)
        );
    }

    #[test]
    fn for_in_over_arrays_yields_indices() {
        assert_eq!(
            eval("var a = [10, 20, 30]; var s = 0; for (var i in a) s += a[i]; s;"),
            Value::from(60.0)
        );
        assert_eq!(
            eval("var n = 0; for (var k in null) n++; n;"),
            Value::from(0.0)
        );
    }

    #[test]
    fn for_in_loop_variable_is_scoped() {
        let err = eval_err("for (var k in { a: 1 }) {} k;");
        assert_eq!(err.kind(), ErrorKind::Reference);
    }

    #[test]
    fn for_in_over_number_is_type_error() {
        let err = eval_err("for (var k in 5) {}");
        assert_eq!(err.kind(), ErrorKind::Type);
    }

    #[test]
    fn cosine_coefficient_in_script() {
        // A miniature of what clustering.js does: cosine similarity
        // between two RSSI maps represented as arrays of {bssid, level}.
        let src = r#"
function cosine(a, b) {
    var dot = 0, na = 0, nb = 0;
    for (var i = 0; i < a.length; i++) {
        na += a[i].level * a[i].level;
        for (var j = 0; j < b.length; j++) {
            if (a[i].bssid == b[j].bssid)
                dot += a[i].level * b[j].level;
        }
    }
    for (var j = 0; j < b.length; j++)
        nb += b[j].level * b[j].level;
    if (na == 0 || nb == 0) return 0;
    return dot / (Math.sqrt(na) * Math.sqrt(nb));
}
cosine([{bssid: 'a', level: 1}], [{bssid: 'a', level: 1}]);
"#;
        let v = eval(src);
        assert!((v.as_num().unwrap() - 1.0).abs() < 1e-12);
    }
}

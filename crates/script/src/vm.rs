//! The bytecode stack VM — the default PogoScript execution engine.
//!
//! One [`Machine`] executes one host invocation (a program run or a
//! callback). Script-to-script calls between compiled closures reuse
//! the machine's explicit frame stack (no host recursion); calls that
//! cross representations (a compiled closure invoking a tree-walk
//! closure or a native, and vice versa) go through
//! [`Interpreter::call_value`], which may nest another machine — the
//! shared `Interpreter::depth` counter bounds the total exactly like
//! the tree-walk's `MAX_DEPTH`. A machine's stacks are borrowed from
//! the interpreter and handed back when it finishes ([`Stacks`]), so a
//! callback — or each comparator call of an `Array.sort` — reuses the
//! buffers of the one before it.
//!
//! Reads borrow where they can: `GetLocalMember` looks a property up
//! through a reference to the frame slot, and the only `Value` it
//! clones is the property it pushes.
//!
//! The watchdog is a per-instruction budget decrement on
//! `Interpreter::steps_remaining` — the same counter, message, and
//! error kind as the tree-walk's per-node check, so the 100 ms-budget
//! semantics (§4.5) are preserved across engines. Long-running natives
//! additionally charge their input size via `Interpreter::charge`.
//!
//! Error behavior is defined by delegation: every slow path (mixed-type
//! arithmetic, member/index access on odd receivers, method dispatch)
//! calls the *same* `Interpreter` helpers the tree-walk uses, so error
//! kinds and messages agree by construction. The fast paths only cover
//! cases those helpers succeed on.

use std::cell::RefCell;
use std::mem;
use std::rc::Rc;

use crate::ast::BinOp;
use crate::builtins;
use crate::bytecode::{ChainRef, CompiledProgram, FnProto, MemberSite, Op, UpvalSrc};
use crate::error::{ErrorKind, ScriptError};
use crate::interp::{Interpreter, MAX_DEPTH};
use crate::value::{Closure, ClosureRepr, ObjMap, UpvalCell, Value};

/// Runs a compiled program's main chunk in the interpreter's global
/// scope. The caller has armed the budget.
pub(crate) fn run_main(
    interp: &mut Interpreter,
    program: &CompiledProgram,
) -> Result<Value, ScriptError> {
    Machine::new(interp).run(program.main.clone(), Rc::from([]), &[])
}

/// Calls a compiled closure (host callback delivery, or a tree-walk /
/// native caller invoking a compiled function value).
pub(crate) fn call_closure(
    interp: &mut Interpreter,
    proto: &Rc<FnProto>,
    upvals: &Rc<[UpvalCell]>,
    args: &[Value],
) -> Result<Value, ScriptError> {
    if interp.depth >= MAX_DEPTH {
        return Err(interp.rt_err(ErrorKind::StackOverflow, "call stack exhausted"));
    }
    interp.depth += 1;
    let result = Machine::new(interp).run(proto.clone(), upvals.clone(), args);
    interp.depth -= 1;
    result
}

/// A frame slot. Bindings start [`Slot::Empty`] ("declaration has not
/// executed yet" — PogoScript `var` does not hoist) and become values
/// or shared cells; `for..in` iterator state hides in a slot too.
pub(crate) enum Slot {
    Empty,
    Val(Value),
    Cell(UpvalCell),
    Iter(Vec<Value>, usize),
}

/// An execution frame. The running frame lives *outside* the machine
/// (borrow-friendly for the dispatch loop); `Machine::frames` holds
/// only suspended callers.
pub(crate) struct Frame {
    proto: Rc<FnProto>,
    upvals: Rc<[UpvalCell]>,
    ip: usize,
    slot_base: usize,
    stack_base: usize,
}

/// One machine's operand stack, frame slots and suspended frames. The
/// interpreter keeps the sets its finished machines handed back (one
/// per level of machine nesting ever reached), all empty.
#[derive(Default)]
pub(crate) struct Stacks {
    stack: Vec<Value>,
    slots: Vec<Slot>,
    frames: Vec<Frame>,
}

struct Machine<'a> {
    interp: &'a mut Interpreter,
    stack: Vec<Value>,
    slots: Vec<Slot>,
    frames: Vec<Frame>,
    /// The main chunk's result register (top-level expression
    /// statements; the program value on fall-off).
    result: Value,
}

/// The property `site` names in `map`, through the site's inline cache:
/// an object of the shape the site saw last has the property at the index
/// it had then; any other is searched by name and becomes the cached one.
fn cached_member(map: &ObjMap, site: &MemberSite) -> Value {
    if let Some((shape, idx)) = &*site.cache.borrow() {
        if map.has_shape(shape) {
            return map.value_at(*idx as usize).clone();
        }
    }
    match map.index_of(&site.name) {
        Some(idx) => {
            *site.cache.borrow_mut() = Some((map.shape().clone(), idx as u32));
            map.value_at(idx).clone()
        }
        None => Value::Null,
    }
}

const TIMEOUT_MSG: &str = "instruction budget exhausted (callback watchdog)";

impl<'a> Machine<'a> {
    fn new(interp: &'a mut Interpreter) -> Self {
        let Stacks {
            stack,
            slots,
            frames,
        } = interp.vm_stacks.pop().unwrap_or_default();
        Machine {
            interp,
            stack,
            slots,
            frames,
            result: Value::Null,
        }
    }

    fn run(
        mut self,
        proto: Rc<FnProto>,
        upvals: Rc<[UpvalCell]>,
        args: &[Value],
    ) -> Result<Value, ScriptError> {
        self.slots
            .resize_with(proto.chunk.n_slots as usize, || Slot::Empty);
        for (i, &(slot, is_cell)) in proto.params.iter().enumerate() {
            let v = args.get(i).cloned().unwrap_or(Value::Null);
            self.slots[slot as usize] = if is_cell {
                Slot::Cell(Rc::new(RefCell::new(Some(v))))
            } else {
                Slot::Val(v)
            };
        }
        let mut frame = Frame {
            proto,
            upvals,
            ip: 0,
            slot_base: 0,
            stack_base: 0,
        };
        let result = self.exec(&mut frame);
        if result.is_err() {
            // Each suspended frame was entered through `push_frame`,
            // which incremented the shared depth counter.
            self.interp.depth -= self.frames.len();
            self.stack.clear();
            self.slots.clear();
            self.frames.clear();
        }
        self.interp.vm_stacks.push(Stacks {
            stack: self.stack,
            slots: self.slots,
            frames: self.frames,
        });
        result
    }

    fn err(&self, kind: ErrorKind, msg: impl Into<String>) -> ScriptError {
        self.interp.rt_err(kind, msg)
    }

    fn internal_unbound(&self) -> ScriptError {
        // Unreachable for compiler-produced chunks (direct slot ops are
        // only emitted for statically-bound bindings); kept as an error
        // rather than a panic so no script input can crash the host.
        self.err(ErrorKind::Reference, "internal: unbound slot access")
    }

    fn pop(&mut self) -> Value {
        self.stack
            .pop()
            .expect("operand stack underflow (compiler invariant)")
    }

    fn top(&mut self) -> &mut Value {
        self.stack
            .last_mut()
            .expect("operand stack underflow (compiler invariant)")
    }

    /// Suspends `cur` and enters a compiled callee whose `argc`
    /// arguments are on top of the stack.
    fn push_frame(
        &mut self,
        cur: &mut Frame,
        proto: Rc<FnProto>,
        upvals: Rc<[UpvalCell]>,
        argc: usize,
    ) -> Result<(), ScriptError> {
        if self.interp.depth >= MAX_DEPTH {
            return Err(self.err(ErrorKind::StackOverflow, "call stack exhausted"));
        }
        self.interp.depth += 1;
        let slot_base = self.slots.len();
        self.slots
            .resize_with(slot_base + proto.chunk.n_slots as usize, || Slot::Empty);
        let args_start = self.stack.len() - argc;
        for (i, &(slot, is_cell)) in proto.params.iter().enumerate() {
            // Missing arguments become null; extras are dropped;
            // duplicate names share a slot so the last wins — the
            // tree-walk's sequential `declare` semantics.
            let v = self
                .stack
                .get(args_start + i)
                .cloned()
                .unwrap_or(Value::Null);
            self.slots[slot_base + slot as usize] = if is_cell {
                Slot::Cell(Rc::new(RefCell::new(Some(v))))
            } else {
                Slot::Val(v)
            };
        }
        self.stack.truncate(args_start);
        let callee = Frame {
            proto,
            upvals,
            ip: 0,
            slot_base,
            stack_base: self.stack.len(),
        };
        self.frames.push(mem::replace(cur, callee));
        Ok(())
    }

    /// Leaves the current frame with return value `v`. Returns the
    /// machine's final value when the root frame exits.
    fn pop_frame(&mut self, cur: &mut Frame, v: Value) -> Option<Value> {
        self.slots.truncate(cur.slot_base);
        self.stack.truncate(cur.stack_base);
        match self.frames.pop() {
            Some(prev) => {
                self.interp.depth -= 1;
                *cur = prev;
                self.stack.push(v);
                None
            }
            None => Some(v),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn exec(&mut self, cur: &mut Frame) -> Result<Value, ScriptError> {
        // The running frame's chunk is borrowed once per frame switch
        // (`'frame` iteration), not re-derived per instruction; the
        // borrow comes from a local `Rc` clone, so `self` stays free
        // for the dispatch arms. Source lines are *not* tracked per
        // instruction: `set_line!` materializes `current_line` only on
        // error paths and before delegating to interpreter helpers
        // that may fail — the only observers of the line number.
        'frame: loop {
            let proto = cur.proto.clone();
            let chunk = &proto.chunk;
            macro_rules! set_line {
                () => {
                    self.interp.current_line = chunk.lines[cur.ip - 1]
                };
            }
            loop {
                let op = chunk.ops[cur.ip];
                cur.ip += 1;
                // The watchdog: one budget step per instruction (the
                // tree-walk charges one per AST node — same counter, same
                // error, coarser grain there, finer here).
                if self.interp.steps_remaining == 0 {
                    set_line!();
                    return Err(self.err(ErrorKind::Timeout, TIMEOUT_MSG));
                }
                self.interp.steps_remaining -= 1;
                match op {
                    Op::Const(i) => {
                        let v = chunk.consts[i as usize].clone();
                        self.stack.push(v);
                    }
                    Op::PushNull => self.stack.push(Value::Null),
                    Op::PushTrue => self.stack.push(Value::Bool(true)),
                    Op::PushFalse => self.stack.push(Value::Bool(false)),
                    Op::MakeArray(n) => {
                        let items = self.stack.split_off(self.stack.len() - n as usize);
                        self.stack.push(Value::array(items));
                    }
                    Op::MakeObject(i) => {
                        let shape = &chunk.shapes[i as usize];
                        let values = self.stack.drain(self.stack.len() - shape.len()..);
                        let map = ObjMap::from_shape(shape, values);
                        self.stack.push(Value::object(map));
                    }
                    Op::MakeClosure(i) => {
                        let fn_proto = chunk.protos[i as usize].clone();
                        let mut ups = Vec::with_capacity(fn_proto.upvals.len());
                        for src in &fn_proto.upvals {
                            ups.push(match *src {
                                UpvalSrc::ParentCell(s) => {
                                    match &self.slots[cur.slot_base + s as usize] {
                                        Slot::Cell(c) => c.clone(),
                                        _ => {
                                            set_line!();
                                            return Err(self.internal_unbound());
                                        }
                                    }
                                }
                                UpvalSrc::ParentUpval(u) => cur.upvals[u as usize].clone(),
                            });
                        }
                        let name = fn_proto.name.clone();
                        self.stack.push(Value::Func(Rc::new(Closure {
                            params: Vec::new(),
                            name,
                            repr: ClosureRepr::Compiled {
                                proto: fn_proto,
                                upvals: Rc::from(ups),
                            },
                        })));
                    }

                    Op::LoadLocal(s) => match &self.slots[cur.slot_base + s as usize] {
                        Slot::Val(v) => {
                            let v = v.clone();
                            self.stack.push(v);
                        }
                        _ => {
                            set_line!();
                            return Err(self.internal_unbound());
                        }
                    },
                    Op::StoreLocal(s) => {
                        let v = self.top().clone();
                        self.slots[cur.slot_base + s as usize] = Slot::Val(v);
                    }
                    Op::DeclLocal(s) => {
                        let v = self.pop();
                        self.slots[cur.slot_base + s as usize] = Slot::Val(v);
                    }
                    Op::AddLocal(s, d) => match &mut self.slots[cur.slot_base + s as usize] {
                        Slot::Val(Value::Num(n)) => *n += f64::from(d),
                        Slot::Val(other) => {
                            set_line!();
                            return Err(self.interp.update_err(d > 0, other));
                        }
                        _ => {
                            set_line!();
                            return Err(self.internal_unbound());
                        }
                    },
                    Op::LoadCell(s) => match &self.slots[cur.slot_base + s as usize] {
                        Slot::Cell(c) => match &*c.borrow() {
                            Some(v) => {
                                let v = v.clone();
                                self.stack.push(v);
                            }
                            None => {
                                set_line!();
                                return Err(self.internal_unbound());
                            }
                        },
                        _ => {
                            set_line!();
                            return Err(self.internal_unbound());
                        }
                    },
                    Op::StoreCell(s) => {
                        let v = self.top().clone();
                        match &self.slots[cur.slot_base + s as usize] {
                            Slot::Cell(c) => *c.borrow_mut() = Some(v),
                            _ => {
                                set_line!();
                                return Err(self.internal_unbound());
                            }
                        }
                    }
                    Op::DeclCell(s) => {
                        let v = self.pop();
                        match &self.slots[cur.slot_base + s as usize] {
                            Slot::Cell(c) => *c.borrow_mut() = Some(v),
                            _ => {
                                set_line!();
                                return Err(self.internal_unbound());
                            }
                        }
                    }
                    Op::NewCell(s) => {
                        self.slots[cur.slot_base + s as usize] =
                            Slot::Cell(Rc::new(RefCell::new(None)));
                    }
                    Op::ClearSlot(s) => {
                        self.slots[cur.slot_base + s as usize] = Slot::Empty;
                    }
                    Op::LoadUpval(u) => match &*cur.upvals[u as usize].borrow() {
                        Some(v) => {
                            let v = v.clone();
                            self.stack.push(v);
                        }
                        None => {
                            set_line!();
                            return Err(self.internal_unbound());
                        }
                    },
                    Op::StoreUpval(u) => {
                        let v = self.top().clone();
                        *cur.upvals[u as usize].borrow_mut() = Some(v);
                    }

                    Op::LoadGlobal(i) => {
                        let site = &chunk.globals[i as usize];
                        let cached = site.cache.get();
                        let hit = if cached == u32::MAX {
                            None
                        } else {
                            self.interp.globals.slot_get(cached as usize, &site.name)
                        };
                        let v = match hit {
                            Some(v) => v,
                            None => match self.interp.globals.get(&site.name) {
                                Some(v) => {
                                    if let Some(idx) = self.interp.globals.slot_of(&site.name) {
                                        site.cache.set(idx as u32);
                                    }
                                    v
                                }
                                None => {
                                    set_line!();
                                    return Err(self.err(
                                        ErrorKind::Reference,
                                        format!("`{}` is not defined", site.name),
                                    ));
                                }
                            },
                        };
                        self.stack.push(v);
                    }
                    Op::StoreGlobal(i) => {
                        let site = &chunk.globals[i as usize];
                        let v = self.stack.last().cloned().expect("store operand");
                        let cached = site.cache.get();
                        let done = cached != u32::MAX
                            && self
                                .interp
                                .globals
                                .slot_set(cached as usize, &site.name, v.clone());
                        if !done {
                            if !self.interp.globals.assign(&site.name, v) {
                                set_line!();
                                return Err(self.err(
                                    ErrorKind::Reference,
                                    format!("assignment to undeclared variable `{}`", site.name),
                                ));
                            }
                            if let Some(idx) = self.interp.globals.slot_of(&site.name) {
                                site.cache.set(idx as u32);
                            }
                        }
                    }
                    Op::DeclGlobal(i) => {
                        let v = self.pop();
                        let site = &chunk.globals[i as usize];
                        let idx = self.interp.globals.declare_indexed(site.name.clone(), v);
                        site.cache.set(idx as u32);
                    }

                    Op::LoadChain(i) => {
                        let line = chunk.lines[cur.ip - 1];
                        let v = self.load_chain(cur, i, line)?;
                        self.stack.push(v);
                    }
                    Op::StoreChain(i) => {
                        let line = chunk.lines[cur.ip - 1];
                        let v = self.top().clone();
                        self.store_chain(cur, i, v, line)?;
                    }

                    Op::Pop => {
                        self.pop();
                    }
                    Op::Dup => {
                        let v = self.top().clone();
                        self.stack.push(v);
                    }
                    Op::Swap => {
                        let n = self.stack.len();
                        self.stack.swap(n - 1, n - 2);
                    }
                    Op::SetResult => {
                        self.result = self.pop();
                    }

                    Op::Add => {
                        let b = self.pop();
                        let a = self.stack.last_mut().expect("operand");
                        if let (Value::Num(x), Value::Num(y)) = (&*a, &b) {
                            *a = Value::Num(x + y);
                        } else {
                            let lhs = mem::take(a);
                            set_line!();
                            *a = self.interp.eval_binary(BinOp::Add, lhs, b)?;
                        }
                    }
                    Op::Sub => {
                        let line = chunk.lines[cur.ip - 1];
                        self.num_bin(BinOp::Sub, |x, y| x - y, line)?;
                    }
                    Op::Mul => {
                        let line = chunk.lines[cur.ip - 1];
                        self.num_bin(BinOp::Mul, |x, y| x * y, line)?;
                    }
                    Op::Div => {
                        let line = chunk.lines[cur.ip - 1];
                        self.num_bin(BinOp::Div, |x, y| x / y, line)?;
                    }
                    Op::Rem => {
                        let line = chunk.lines[cur.ip - 1];
                        self.num_bin(BinOp::Rem, |x, y| x % y, line)?;
                    }
                    Op::Eq => {
                        let b = self.pop();
                        let a = self.top();
                        let eq = *a == b;
                        *a = Value::Bool(eq);
                    }
                    Op::Ne => {
                        let b = self.pop();
                        let a = self.top();
                        let ne = *a != b;
                        *a = Value::Bool(ne);
                    }
                    Op::Lt => {
                        let line = chunk.lines[cur.ip - 1];
                        self.cmp_bin(BinOp::Lt, line)?;
                    }
                    Op::Gt => {
                        let line = chunk.lines[cur.ip - 1];
                        self.cmp_bin(BinOp::Gt, line)?;
                    }
                    Op::Le => {
                        let line = chunk.lines[cur.ip - 1];
                        self.cmp_bin(BinOp::Le, line)?;
                    }
                    Op::Ge => {
                        let line = chunk.lines[cur.ip - 1];
                        self.cmp_bin(BinOp::Ge, line)?;
                    }
                    Op::Not => {
                        let a = self.top();
                        *a = Value::Bool(!a.is_truthy());
                    }
                    Op::Neg => {
                        let a = self.stack.last_mut().expect("operand");
                        match a {
                            Value::Num(n) => *n = -*n,
                            _ => {
                                let msg = format!("cannot negate a {}", a.type_name());
                                set_line!();
                                return Err(self.interp.rt_err(ErrorKind::Type, msg));
                            }
                        }
                    }
                    Op::UnaryPlus => {
                        let a = self.stack.last_mut().expect("operand");
                        if !matches!(a, Value::Num(_)) {
                            let msg = format!("unary + applied to a {}", a.type_name());
                            set_line!();
                            return Err(self.interp.rt_err(ErrorKind::Type, msg));
                        }
                    }
                    Op::TypeOf => {
                        let a = self.top();
                        *a = Value::str(a.type_name());
                    }
                    Op::Inc | Op::Dec => {
                        let inc = matches!(op, Op::Inc);
                        let a = self.stack.last_mut().expect("operand");
                        match a {
                            Value::Num(n) => *n += if inc { 1.0 } else { -1.0 },
                            _ => {
                                set_line!();
                                return Err(self.interp.update_err(inc, a));
                            }
                        }
                    }

                    Op::GetMember(i) => {
                        let obj = self.pop();
                        let site = &chunk.members[i as usize];
                        let v = match &obj {
                            Value::Object(map) => cached_member(&map.borrow(), site),
                            other => {
                                set_line!();
                                self.interp.get_member(other, &site.name)?
                            }
                        };
                        self.stack.push(v);
                    }
                    Op::GetLocalMember(s, i) => {
                        let site = &chunk.members[i as usize];
                        let v = match &self.slots[cur.slot_base + s as usize] {
                            Slot::Val(Value::Object(map)) => cached_member(&map.borrow(), site),
                            Slot::Val(Value::Array(items)) if &*site.name == "length" => {
                                Value::Num(items.borrow().len() as f64)
                            }
                            Slot::Val(other) => {
                                set_line!();
                                self.interp.get_member(other, &site.name)?
                            }
                            _ => {
                                set_line!();
                                return Err(self.internal_unbound());
                            }
                        };
                        self.stack.push(v);
                    }
                    Op::SetMember(i) => {
                        let obj = self.pop();
                        let v = self.top().clone();
                        set_line!();
                        self.interp
                            .set_member_value(&obj, &chunk.members[i as usize].name, v)?;
                    }
                    Op::GetIndex => {
                        let idx = self.pop();
                        let obj = self.stack.last_mut().expect("operand");
                        if let (Value::Array(items), Value::Num(n)) = (&*obj, &idx) {
                            let v = if *n < 0.0 || n.fract() != 0.0 {
                                Value::Null
                            } else {
                                items
                                    .borrow()
                                    .get(*n as usize)
                                    .cloned()
                                    .unwrap_or(Value::Null)
                            };
                            *obj = v;
                        } else {
                            let o = mem::take(obj);
                            set_line!();
                            *obj = self.interp.get_index(&o, &idx)?;
                        }
                    }
                    Op::SetIndex => {
                        let idx = self.pop();
                        let obj = self.pop();
                        let v = self.top().clone();
                        set_line!();
                        self.interp.set_index_value(&obj, &idx, v)?;
                    }

                    Op::Call(argc) => {
                        set_line!();
                        let callee = self.pop();
                        let compiled = match &callee {
                            Value::Func(cl) => match &cl.repr {
                                ClosureRepr::Compiled { proto, upvals } => {
                                    Some((proto.clone(), upvals.clone()))
                                }
                                ClosureRepr::Ast { .. } => None,
                            },
                            _ => None,
                        };
                        if let Some((proto, upvals)) = compiled {
                            self.push_frame(cur, proto, upvals, argc as usize)?;
                            continue 'frame;
                        }
                        let args_start = self.stack.len() - argc as usize;
                        let result = self.interp.call_value(&callee, &self.stack[args_start..]);
                        self.stack.truncate(args_start);
                        self.stack.push(result?);
                    }
                    Op::CallMethod(i, argc) => {
                        let name = chunk.members[i as usize].name.clone();
                        set_line!();
                        if self.call_method(cur, &name, argc as usize)? {
                            continue 'frame;
                        }
                    }
                    Op::MathCall(f, argc) => {
                        let line = chunk.lines[cur.ip - 1];
                        let func = builtins::MATH_DISPATCH[f as usize].1;
                        let args_start = self.stack.len() - argc as usize;
                        let result =
                            func(&self.stack[args_start..]).map_err(|e| e.with_line_if_unset(line));
                        self.stack.truncate(args_start);
                        self.stack.push(result?);
                    }

                    Op::Jump(t) => cur.ip = t as usize,
                    Op::JumpIfFalse(t) => {
                        if !self.pop().is_truthy() {
                            cur.ip = t as usize;
                        }
                    }
                    Op::JumpIfTruePeek(t) => {
                        if self.top().is_truthy() {
                            cur.ip = t as usize;
                        }
                    }
                    Op::JumpIfFalsePeek(t) => {
                        if !self.top().is_truthy() {
                            cur.ip = t as usize;
                        }
                    }

                    Op::Return => {
                        let v = self.pop();
                        if let Some(v) = self.pop_frame(cur, v) {
                            return Ok(v);
                        }
                        continue 'frame;
                    }
                    Op::ReturnNull => {
                        if let Some(v) = self.pop_frame(cur, Value::Null) {
                            return Ok(v);
                        }
                        continue 'frame;
                    }
                    Op::ReturnResult => {
                        let v = mem::take(&mut self.result);
                        if let Some(v) = self.pop_frame(cur, v) {
                            return Ok(v);
                        }
                        continue 'frame;
                    }

                    Op::ForInPrep(s) => {
                        let v = self.pop();
                        let keys = match &v {
                            Value::Object(map) => {
                                map.borrow().keys().map(Value::str).collect::<Vec<_>>()
                            }
                            Value::Array(items) => (0..items.borrow().len())
                                .map(|i| Value::Num(i as f64))
                                .collect(),
                            Value::Null => Vec::new(),
                            other => {
                                let msg = format!("cannot enumerate a {}", other.type_name());
                                set_line!();
                                return Err(self.err(ErrorKind::Type, msg));
                            }
                        };
                        self.slots[cur.slot_base + s as usize] = Slot::Iter(keys, 0);
                    }
                    Op::ForInNext(s, exit) => match &mut self.slots[cur.slot_base + s as usize] {
                        Slot::Iter(keys, pos) => {
                            if *pos < keys.len() {
                                let v = keys[*pos].clone();
                                *pos += 1;
                                self.stack.push(v);
                            } else {
                                cur.ip = exit as usize;
                            }
                        }
                        _ => {
                            set_line!();
                            return Err(self.internal_unbound());
                        }
                    },

                    Op::FlowErr(_) => {
                        set_line!();
                        return Err(self.err(ErrorKind::Parse, "break/continue outside of a loop"));
                    }
                }
            }
        }
    }

    /// Arithmetic with an inline number fast path; every other operand
    /// combination delegates to the tree-walk's `eval_binary` for
    /// identical coercions and error messages.
    fn num_bin(&mut self, op: BinOp, f: fn(f64, f64) -> f64, line: u32) -> Result<(), ScriptError> {
        let b = self.pop();
        let a = self.stack.last_mut().expect("operand");
        if let (Value::Num(x), Value::Num(y)) = (&*a, &b) {
            *a = Value::Num(f(*x, *y));
            Ok(())
        } else {
            let lhs = mem::take(a);
            self.interp.current_line = line;
            *a = self.interp.eval_binary(op, lhs, b)?;
            Ok(())
        }
    }

    /// Ordering with inline fast paths for two numbers and for two
    /// strings; mixed operands delegate like [`Machine::num_bin`].
    fn cmp_bin(&mut self, op: BinOp, line: u32) -> Result<(), ScriptError> {
        let b = self.pop();
        let a = self.stack.last_mut().expect("operand");
        let r = match (&*a, &b) {
            (Value::Num(x), Value::Num(y)) => match op {
                BinOp::Lt => x < y,
                BinOp::Gt => x > y,
                BinOp::Le => x <= y,
                BinOp::Ge => x >= y,
                _ => unreachable!(),
            },
            (Value::Str(x), Value::Str(y)) => {
                // One allocation is one string: equal pointers skip the
                // text.
                let ord = if Rc::ptr_eq(x, y) {
                    std::cmp::Ordering::Equal
                } else {
                    x.cmp(y)
                };
                match op {
                    BinOp::Lt => ord.is_lt(),
                    BinOp::Gt => ord.is_gt(),
                    BinOp::Le => ord.is_le(),
                    BinOp::Ge => ord.is_ge(),
                    _ => unreachable!(),
                }
            }
            _ => {
                let lhs = mem::take(a);
                self.interp.current_line = line;
                *a = self.interp.eval_binary(op, lhs, b)?;
                return Ok(());
            }
        };
        *a = Value::Bool(r);
        Ok(())
    }

    /// Probes a resolution chain innermost-out; the first bound
    /// candidate wins, reproducing the tree-walk environment chain for
    /// identifiers read before their declaration executes.
    fn load_chain(&mut self, cur: &Frame, i: u16, line: u32) -> Result<Value, ScriptError> {
        let chain = &cur.proto.chunk.chains[i as usize];
        for cand in chain.cands.iter() {
            match cand {
                ChainRef::Local(s) => {
                    if let Slot::Val(v) = &self.slots[cur.slot_base + *s as usize] {
                        return Ok(v.clone());
                    }
                }
                ChainRef::CellSlot(s) => {
                    if let Slot::Cell(c) = &self.slots[cur.slot_base + *s as usize] {
                        if let Some(v) = &*c.borrow() {
                            return Ok(v.clone());
                        }
                    }
                }
                ChainRef::Upval(u) => {
                    if let Some(v) = &*cur.upvals[*u as usize].borrow() {
                        return Ok(v.clone());
                    }
                }
                ChainRef::Global => {
                    if let Some(v) = self.interp.globals.get(&chain.name) {
                        return Ok(v);
                    }
                }
            }
        }
        self.interp.current_line = line;
        Err(self.err(
            ErrorKind::Reference,
            format!("`{}` is not defined", chain.name),
        ))
    }

    fn store_chain(&mut self, cur: &Frame, i: u16, v: Value, line: u32) -> Result<(), ScriptError> {
        let chain = &cur.proto.chunk.chains[i as usize];
        for cand in chain.cands.iter() {
            match cand {
                ChainRef::Local(s) => {
                    let slot = &mut self.slots[cur.slot_base + *s as usize];
                    if matches!(slot, Slot::Val(_)) {
                        *slot = Slot::Val(v);
                        return Ok(());
                    }
                }
                ChainRef::CellSlot(s) => {
                    if let Slot::Cell(c) = &self.slots[cur.slot_base + *s as usize] {
                        let mut c = c.borrow_mut();
                        if c.is_some() {
                            *c = Some(v);
                            return Ok(());
                        }
                    }
                }
                ChainRef::Upval(u) => {
                    let mut c = cur.upvals[*u as usize].borrow_mut();
                    if c.is_some() {
                        *c = Some(v);
                        return Ok(());
                    }
                }
                ChainRef::Global => {
                    if self.interp.globals.assign(&chain.name, v) {
                        return Ok(());
                    }
                    break;
                }
            }
        }
        self.interp.current_line = line;
        Err(self.err(
            ErrorKind::Reference,
            format!("assignment to undeclared variable `{}`", chain.name),
        ))
    }

    /// `receiver.name(args)` — the dispatch mirrors
    /// `Interpreter::call_method` case-for-case (including every error
    /// message), with one addition: an object property holding a
    /// *compiled* closure enters the machine's own frame stack instead
    /// of recursing through the host. Returns `true` when a frame was
    /// pushed (the dispatch loop must re-derive its chunk borrow).
    fn call_method(
        &mut self,
        cur: &mut Frame,
        name: &Rc<str>,
        argc: usize,
    ) -> Result<bool, ScriptError> {
        let recv = self.pop();
        let args_start = self.stack.len() - argc;
        match &recv {
            Value::Object(map) => {
                let method = map.borrow().get(name).cloned();
                match method {
                    Some(Value::Func(cl)) => match &cl.repr {
                        ClosureRepr::Compiled { proto, upvals } => {
                            let (proto, upvals) = (proto.clone(), upvals.clone());
                            self.push_frame(cur, proto, upvals, argc)?;
                            Ok(true)
                        }
                        ClosureRepr::Ast { .. } => {
                            let f = Value::Func(cl.clone());
                            let result = self.interp.call_value(&f, &self.stack[args_start..]);
                            self.stack.truncate(args_start);
                            self.stack.push(result?);
                            Ok(false)
                        }
                    },
                    Some(f @ Value::Native(_)) => {
                        let result = self.interp.call_value(&f, &self.stack[args_start..]);
                        self.stack.truncate(args_start);
                        self.stack.push(result?);
                        Ok(false)
                    }
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
                }
            }
            Value::Array(_) => {
                let result = builtins::call_array_method(
                    self.interp,
                    &recv,
                    name,
                    &self.stack[args_start..],
                );
                self.stack.truncate(args_start);
                self.stack.push(result?);
                Ok(false)
            }
            Value::Str(_) => {
                let result = builtins::call_string_method(
                    self.interp,
                    &recv,
                    name,
                    &self.stack[args_start..],
                );
                self.stack.truncate(args_start);
                self.stack.push(result?);
                Ok(false)
            }
            other => Err(self.err(
                ErrorKind::Type,
                format!("cannot call method `{name}` on a {}", other.type_name()),
            )),
        }
    }
}

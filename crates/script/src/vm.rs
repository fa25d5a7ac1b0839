//! The bytecode stack VM — the PogoScript execution engine.
//!
//! One [`Machine`] executes one host invocation (a program run or a
//! callback). Script-to-script calls reuse the machine's explicit frame
//! stack (no host recursion); a call to a native, and a native calling
//! back into script (an `Array.sort` comparator), go through
//! [`Interpreter::call_value`], which may nest another machine — the
//! shared `Interpreter::depth` counter bounds the total at `MAX_DEPTH`
//! either way. A machine's stacks are borrowed from
//! a pool of the thread's and handed back when it finishes ([`Stacks`]),
//! so a callback — or each comparator call of an `Array.sort` — reuses the
//! buffers of the one before it, whichever script that one ran.
//!
//! The machine dispatches on a chunk's quickened stream
//! ([`crate::quicken`]): the op at each index, or a fused instruction
//! standing for the run of ops that starts there. A fused instruction
//! does its whole run without touching the operand stack and charges the
//! steps of the ops it stands for; when it cannot (an operand it does not
//! cover, too little budget left for the whole run) the plain op at its
//! index runs instead, and the ops after it in their turn.
//!
//! The watchdog is a per-instruction budget decrement on
//! `Interpreter::steps_remaining` — the counter `Interpreter::charge`
//! bills, with its message and error kind — the deterministic analogue
//! of the paper's 100 ms budget (§4.5). The dispatch loop
//! counts in locals (budget, dispatches, instruction pointer) and writes
//! them back around every call out of the machine and when it stops.
//! Long-running natives additionally charge their input size via
//! `Interpreter::charge`.
//!
//! Error behavior is defined by delegation: every slow path (mixed-type
//! arithmetic, member/index access on odd receivers) calls the public
//! `Interpreter` value operations, which the tree-walk oracle in the
//! tests calls too, so error kinds and messages agree by construction.
//! The fast paths only cover cases those operations succeed on.

use std::cell::RefCell;
use std::mem;
use std::rc::Rc;

use crate::ast::BinOp;
use crate::builtins;
use crate::bytecode::{
    ChainInfo, ChainRef, Chunk, CompiledProgram, FnProto, GlobalSite, MemberSite, Op, UpvalSrc,
};
use crate::env::Env;
use crate::error::{ErrorKind, ScriptError};
use crate::interp::{Interpreter, MAX_DEPTH};
use crate::quicken::{Base, Branch, Fused, QOp, Src};
use crate::value::{Closure, ObjMap, UpvalCell, Value};

thread_local! {
    /// The capture list of every function that captures nothing: one
    /// allocation per thread, not one per closure made.
    static NO_UPVALS: Rc<[UpvalCell]> = Rc::from([]);
}

fn no_upvals() -> Rc<[UpvalCell]> {
    NO_UPVALS.with(Rc::clone)
}

/// Runs a compiled program's main chunk in the interpreter's global
/// scope. The caller has armed the budget.
pub(crate) fn run_main(
    interp: &mut Interpreter,
    program: &CompiledProgram,
) -> Result<Value, ScriptError> {
    let result = Machine::new(interp).run(&program.main, &no_upvals(), &[]);
    // Only a program's top level declares globals.
    interp.globals.shrink_to_fit();
    result
}

/// Calls a closure from outside a machine (host callback delivery, or a
/// native calling back into script).
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
    let result = Machine::new(interp).run(proto, upvals, args);
    interp.depth -= 1;
    result
}

/// A frame slot. Bindings start [`Slot::Empty`] ("declaration has not
/// executed yet" — PogoScript `var` does not hoist) and become values
/// or shared cells; `for..in` iterator state (the keys and the next one's
/// position) hides in a slot too.
pub(crate) enum Slot {
    Empty,
    Val(Value),
    Cell(UpvalCell),
    Iter(Box<(Vec<Value>, usize)>),
}

impl Slot {
    fn bound(v: Value, is_cell: bool) -> Slot {
        if is_cell {
            Slot::Cell(Rc::new(RefCell::new(Some(v))))
        } else {
            Slot::Val(v)
        }
    }
}

/// A suspended caller. The running frame lives in the dispatch loop's
/// locals; `Machine::frames` holds only the frames below it.
pub(crate) struct Frame {
    proto: Rc<FnProto>,
    upvals: Rc<[UpvalCell]>,
    ip: usize,
    slot_base: usize,
    stack_base: usize,
}

/// One machine's operand stack, frame slots and suspended frames.
#[derive(Default)]
struct Stacks {
    stack: Vec<Value>,
    slots: Vec<Slot>,
    frames: Vec<Frame>,
}

thread_local! {
    /// The stacks finished machines handed back, all empty, for the next
    /// machine on this thread, whichever interpreter it runs for: one set
    /// per level of machine nesting ever reached on the thread, not per
    /// interpreter.
    static POOL: RefCell<Vec<Stacks>> = const { RefCell::new(Vec::new()) };
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

const TIMEOUT_MSG: &str = "instruction budget exhausted (callback watchdog)";
const UNDERFLOW: &str = "operand stack underflow (compiler invariant)";

/// The property `site` names in `map` (`null` when it has none).
fn member_of(map: &ObjMap, site: &MemberSite) -> Value {
    member_ref(map, site).clone()
}

/// `items[n]` as `GetIndex` reads it: `null` off either end and between
/// elements.
fn element(items: &[Value], n: f64) -> Option<&Value> {
    if n < 0.0 || n.fract() != 0.0 {
        None
    } else {
        items.get(n as usize)
    }
}

/// Number arithmetic; any other operands are `eval_binary`'s.
#[inline(always)]
fn arith(op: BinOp, a: &Value, b: &Value) -> Option<Value> {
    let (Value::Num(x), Value::Num(y)) = (a, b) else {
        return None;
    };
    Some(Value::Num(match op {
        BinOp::Add => x + y,
        BinOp::Sub => x - y,
        BinOp::Mul => x * y,
        BinOp::Div => x / y,
        BinOp::Rem => x % y,
        _ => unreachable!("not arithmetic"),
    }))
}

/// Ordering of two numbers or two strings; any other operands are
/// `eval_binary`'s.
#[inline(always)]
fn ordered(op: BinOp, a: &Value, b: &Value) -> Option<bool> {
    let ord = match (a, b) {
        (Value::Num(x), Value::Num(y)) => {
            return Some(match op {
                BinOp::Lt => x < y,
                BinOp::Gt => x > y,
                BinOp::Le => x <= y,
                BinOp::Ge => x >= y,
                _ => unreachable!("not an ordering"),
            })
        }
        // One allocation is one string: equal pointers skip the text.
        (Value::Str(x), Value::Str(y)) if Rc::ptr_eq(x, y) => std::cmp::Ordering::Equal,
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        _ => return None,
    };
    Some(match op {
        BinOp::Lt => ord.is_lt(),
        BinOp::Gt => ord.is_gt(),
        BinOp::Le => ord.is_le(),
        BinOp::Ge => ord.is_ge(),
        _ => unreachable!("not an ordering"),
    })
}

/// The property `site` names in `map` (`null` when it has none).
fn member_ref<'a>(map: &'a ObjMap, site: &MemberSite) -> &'a Value {
    site.index_in(map)
        .map_or(&Value::Null, |idx| map.value_at(idx))
}

/// Hands `f` what the ops folded into `src` would have pushed, where it
/// is, when each of them would have taken its fast path; `None` sends the
/// caller to the plain ops, which then raise whatever there is to raise.
#[inline(always)]
fn with_src<R>(
    slots: &[Slot],
    chunk: &Chunk,
    globals: &Env,
    src: Src,
    f: impl FnOnce(&Value) -> R,
) -> Option<R> {
    // Each step's borrow is declared after the value it borrows from, so
    // it is dropped before it.
    let (length, global, object);
    let v = match src.base {
        Base::Local(s) => match &slots[s as usize] {
            Slot::Val(v) => v,
            _ => return None,
        },
        Base::Const(c) => &chunk.consts[c as usize],
        Base::Member(s, m) => {
            let site = &chunk.members[m as usize];
            match &slots[s as usize] {
                Slot::Val(Value::Object(map)) => {
                    object = map.borrow();
                    member_ref(&object, site)
                }
                Slot::Val(Value::Array(a)) if site.is_length => {
                    length = Value::Num(a.borrow().len() as f64);
                    &length
                }
                _ => return None,
            }
        }
        Base::Global(g) => {
            let site = &chunk.globals[g as usize];
            global = globals.slot_ref(site.cache.get() as usize, &site.name)?;
            &global
        }
    };
    let items;
    let v = match src.at {
        Src::NONE => v,
        i => {
            let (Slot::Val(Value::Num(n)), Value::Array(a)) = (&slots[i as usize], v) else {
                return None;
            };
            items = a.borrow();
            element(&items, *n).unwrap_or(&Value::Null)
        }
    };
    let inner;
    let v = match src.member {
        Src::NONE => v,
        m => {
            let Value::Object(map) = v else {
                return None;
            };
            inner = map.borrow();
            member_ref(&inner, &chunk.members[m as usize])
        }
    };
    if !src.len {
        return Some(f(v));
    }
    let Value::Array(a) = v else {
        return None;
    };
    let len = Value::Num(a.borrow().len() as f64);
    Some(f(&len))
}

#[inline(always)]
fn read(slots: &[Slot], chunk: &Chunk, globals: &Env, src: Src) -> Option<Value> {
    with_src(slots, chunk, globals, src, Value::clone)
}

#[inline(always)]
fn read_num(slots: &[Slot], chunk: &Chunk, globals: &Env, src: Src) -> Option<f64> {
    with_src(slots, chunk, globals, src, Value::as_num)?
}

/// `a <cmp> b` when both can be read and compared without a coercion or
/// an error.
#[inline(always)]
fn compare(
    slots: &[Slot],
    chunk: &Chunk,
    globals: &Env,
    (a, cmp, b): (Src, BinOp, Src),
) -> Option<bool> {
    with_src(slots, chunk, globals, a, |x| {
        with_src(slots, chunk, globals, b, |y| match cmp {
            BinOp::Eq => Some(x == y),
            BinOp::NotEq => Some(x != y),
            _ => ordered(cmp, x, y),
        })
    })??
}

impl<'a> Machine<'a> {
    fn new(interp: &'a mut Interpreter) -> Self {
        let Stacks {
            stack,
            slots,
            frames,
        } = POOL
            .try_with(|pool| pool.borrow_mut().pop())
            .ok()
            .flatten()
            .unwrap_or_default();
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
        proto: &Rc<FnProto>,
        upvals: &Rc<[UpvalCell]>,
        args: &[Value],
    ) -> Result<Value, ScriptError> {
        self.slots
            .resize_with(proto.chunk.n_slots as usize, || Slot::Empty);
        for (i, &(slot, is_cell)) in proto.params.iter().enumerate() {
            let v = args.get(i).cloned().unwrap_or(Value::Null);
            self.slots[slot as usize] = Slot::bound(v, is_cell);
        }
        let result = self.exec(proto.clone(), upvals.clone());
        if result.is_err() {
            // Each suspended frame was entered through `enter`, which
            // incremented the shared depth counter.
            self.interp.depth -= self.frames.len();
            self.stack.clear();
            self.slots.clear();
            self.frames.clear();
        }
        let stacks = Stacks {
            stack: self.stack,
            slots: self.slots,
            frames: self.frames,
        };
        // While the thread is being torn down the stacks are dropped.
        let _ = POOL.try_with(|pool| pool.borrow_mut().push(stacks));
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

    /// A chunk runs on the stream the compiler built beside its ops; one
    /// put together any other way has none, and is refused rather than
    /// indexed out of bounds.
    fn runnable(&self, proto: &FnProto) -> Result<(), ScriptError> {
        if proto.chunk.quick.code.len() == proto.chunk.ops.len() {
            Ok(())
        } else {
            Err(self.err(ErrorKind::Reference, "internal: chunk was never finished"))
        }
    }

    fn pop(&mut self) -> Value {
        self.stack.pop().expect(UNDERFLOW)
    }

    fn top(&mut self) -> &mut Value {
        self.stack.last_mut().expect(UNDERFLOW)
    }

    /// Makes room for a compiled callee's frame and moves its `argc`
    /// arguments off the top of the stack into its parameter slots.
    /// Returns the callee's slot base.
    fn enter(&mut self, callee: &FnProto, argc: usize) -> Result<usize, ScriptError> {
        if self.interp.depth >= MAX_DEPTH {
            return Err(self.err(ErrorKind::StackOverflow, "call stack exhausted"));
        }
        self.runnable(callee)?;
        self.interp.depth += 1;
        let slot_base = self.slots.len();
        self.slots
            .resize_with(slot_base + callee.chunk.n_slots as usize, || Slot::Empty);
        let args_start = self.stack.len() - argc;
        for (i, &(slot, is_cell)) in callee.params.iter().enumerate() {
            // Missing arguments become null; extras are dropped;
            // duplicate names share a slot so the last wins — the
            // tree-walk's sequential `declare` semantics.
            let v = self
                .stack
                .get_mut(args_start + i)
                .map_or(Value::Null, mem::take);
            self.slots[slot_base + slot as usize] = Slot::bound(v, is_cell);
        }
        self.stack.truncate(args_start);
        Ok(slot_base)
    }

    /// The value a global site names, through its slot cache.
    fn load_global(&self, site: &GlobalSite) -> Option<Value> {
        let globals = &self.interp.globals;
        let cached = site.cache.get();
        if cached != u32::MAX {
            if let Some(v) = globals.slot_get(cached as usize, &site.name) {
                return Some(v);
            }
        }
        let v = globals.get(&site.name)?;
        if let Some(idx) = globals.slot_of(&site.name) {
            site.cache.set(idx as u32);
        }
        Some(v)
    }

    #[allow(clippy::too_many_lines)]
    fn exec(
        &mut self,
        mut proto: Rc<FnProto>,
        mut upvals: Rc<[UpvalCell]>,
    ) -> Result<Value, ScriptError> {
        self.runnable(&proto)?;
        // The running frame, the budget and the dispatch count live in
        // locals. The budget goes back to the interpreter around every
        // call that can see or spend it (`host!`) and, with the dispatch
        // count, when the machine stops (every exit is a `break 'run`).
        let (mut ip, mut slot_base, mut stack_base) = (0usize, 0usize, 0usize);
        let mut steps = self.interp.steps_remaining;
        let mut dispatched = 0u64;

        let result = 'run: {
            /// Evaluates a fallible expression that neither sees nor spends
            /// the budget.
            macro_rules! tri {
                ($e:expr) => {
                    match $e {
                        Ok(v) => v,
                        Err(e) => break 'run Err(e),
                    }
                };
            }
            /// Evaluates a call that may charge the budget, read it or run
            /// another machine.
            macro_rules! host {
                ($e:expr) => {{
                    self.interp.steps_remaining = steps;
                    let r = $e;
                    steps = self.interp.steps_remaining;
                    tri!(r)
                }};
            }

            // The running frame's chunk is borrowed once per frame switch
            // (`'frame` iteration) from the local `proto`, which a call or
            // a return replaces on its way to the next iteration. Source
            // lines are *not* tracked per instruction: `set_line!`
            // materializes `current_line` only on error paths and before
            // delegating to interpreter helpers that may fail — the only
            // observers of the line number.
            'frame: loop {
                let chunk = &proto.chunk;
                let code = &chunk.quick.code[..];
                macro_rules! set_line {
                    () => {
                        self.interp.current_line = chunk.lines[ip - 1]
                    };
                }
                macro_rules! fail {
                    ($e:expr) => {{
                        set_line!();
                        break 'run Err($e);
                    }};
                }
                /// Suspends the running frame and continues in a compiled
                /// callee whose arguments are on top of the stack.
                macro_rules! enter {
                    ($proto:expr, $upvals:expr, $argc:expr) => {{
                        let (callee, captured) = ($proto, $upvals);
                        let base = tri!(self.enter(&callee, $argc));
                        self.frames.push(Frame {
                            proto: mem::replace(&mut proto, callee),
                            upvals: mem::replace(&mut upvals, captured),
                            ip,
                            slot_base,
                            stack_base,
                        });
                        ip = 0;
                        slot_base = base;
                        stack_base = self.stack.len();
                        continue 'frame;
                    }};
                }
                /// Leaves the running frame with a return value: back in
                /// the caller, or out of the machine from the root frame.
                macro_rules! leave {
                    ($v:expr) => {{
                        let v = $v;
                        self.slots.truncate(slot_base);
                        self.stack.truncate(stack_base);
                        let Some(caller) = self.frames.pop() else {
                            break 'run Ok(v);
                        };
                        self.interp.depth -= 1;
                        proto = caller.proto;
                        upvals = caller.upvals;
                        ip = caller.ip;
                        slot_base = caller.slot_base;
                        stack_base = caller.stack_base;
                        self.stack.push(v);
                        continue 'frame;
                    }};
                }
                /// Calls `callee` with the `argc` arguments on top of the
                /// stack (`current_line` is set).
                macro_rules! call {
                    ($callee:expr, $argc:expr) => {{
                        let (callee, argc) = ($callee, $argc as usize);
                        if let Value::Func(cl) = &callee {
                            enter!(cl.proto.clone(), cl.upvals.clone(), argc);
                        }
                        let args_start = self.stack.len() - argc;
                        self.interp.steps_remaining = steps;
                        let result = self.interp.call_value(&callee, &self.stack[args_start..]);
                        steps = self.interp.steps_remaining;
                        self.stack.truncate(args_start);
                        self.stack.push(tri!(result));
                    }};
                }
                /// A binary operator: `$fast` on the operands where they
                /// are, or else `eval_binary` for identical coercions and
                /// error messages.
                macro_rules! binary {
                    ($op:expr, $fast:expr) => {{
                        let b = self.pop();
                        let a = self.stack.last_mut().expect(UNDERFLOW);
                        match $fast($op, a, &b) {
                            Some(v) => *a = Value::from(v),
                            None => {
                                let lhs = mem::take(a);
                                set_line!();
                                let v = host!(self.interp.eval_binary($op, lhs, b));
                                *self.top() = v;
                            }
                        }
                    }};
                }

                'next: loop {
                    let q = code[ip];
                    ip += 1;
                    // The watchdog: one budget step per instruction. A
                    // fused instruction is charged its head here and the
                    // rest of its run when it takes it.
                    if steps == 0 {
                        fail!(self.err(ErrorKind::Timeout, TIMEOUT_MSG));
                    }
                    steps -= 1;
                    dispatched += 1;
                    let op = match q {
                        QOp::Plain(op) => op,
                        QOp::Fused(number) => {
                            let fused = &chunk.quick.fused[number as usize];
                            // What the ops after the head cost on the
                            // run's longest path. With less than that
                            // left, or an operand off its fast path, the
                            // plain op at this index runs instead.
                            let rest = fused.len() as u64 - 1;
                            if steps >= rest {
                                let globals = &self.interp.globals;
                                match *fused {
                                    Fused::CmpJump {
                                        a,
                                        b,
                                        cmp,
                                        branch,
                                        target,
                                        ..
                                    } => {
                                        let slots = &self.slots[slot_base..];
                                        if let Some(holds) =
                                            compare(slots, chunk, globals, (a, cmp, b))
                                        {
                                            // A short-circuit form that
                                            // jumps leaves the condition
                                            // on the stack and skips its
                                            // `Pop`, and that step.
                                            let jumps = match branch {
                                                Branch::IfFalse | Branch::AndThen => !holds,
                                                Branch::OrElse => holds,
                                            };
                                            if !jumps {
                                                ip += rest as usize;
                                                steps -= rest;
                                            } else if branch == Branch::IfFalse {
                                                ip = target as usize;
                                                steps -= rest;
                                            } else {
                                                ip = target as usize;
                                                steps -= rest - 1;
                                                self.stack.push(Value::Bool(holds));
                                            }
                                            continue 'next;
                                        }
                                    }
                                    Fused::MulAdd { a, b, acc, .. } => {
                                        let slots = &mut self.slots[slot_base..];
                                        if let (Some(x), Some(y), Slot::Val(Value::Num(sum))) = (
                                            read_num(slots, chunk, globals, a),
                                            read_num(slots, chunk, globals, b),
                                            &mut slots[acc as usize],
                                        ) {
                                            *sum += x * y;
                                            ip += rest as usize;
                                            steps -= rest;
                                            continue 'next;
                                        }
                                    }
                                    Fused::Decl { src, dst, .. } => {
                                        let slots = &mut self.slots[slot_base..];
                                        if let Some(v) = read(slots, chunk, globals, src) {
                                            slots[dst as usize] = Slot::Val(v);
                                            ip += rest as usize;
                                            steps -= rest;
                                            continue 'next;
                                        }
                                    }
                                    Fused::Push { src, .. } => {
                                        let slots = &self.slots[slot_base..];
                                        if let Some(v) = read(slots, chunk, globals, src) {
                                            self.stack.push(v);
                                            ip += rest as usize;
                                            steps -= rest;
                                            continue 'next;
                                        }
                                    }
                                    Fused::CallGlobal(g, argc) => {
                                        let callee = self.load_global(&chunk.globals[g as usize]);
                                        if let Some(callee @ (Value::Func(_) | Value::Native(_))) =
                                            callee
                                        {
                                            ip += 1;
                                            steps -= 1;
                                            set_line!();
                                            call!(callee, argc);
                                            continue 'next;
                                        }
                                    }
                                    Fused::Clear2(a, b) => {
                                        self.slots[slot_base + a as usize] = Slot::Empty;
                                        self.slots[slot_base + b as usize] = Slot::Empty;
                                        ip += 1;
                                        steps -= 1;
                                        continue 'next;
                                    }
                                    Fused::AddLocalJump(s, d, target) => {
                                        if let Slot::Val(Value::Num(n)) =
                                            &mut self.slots[slot_base + s as usize]
                                        {
                                            *n += f64::from(d);
                                            ip = target as usize;
                                            steps -= 1;
                                            continue 'next;
                                        }
                                    }
                                }
                            }
                            chunk.ops[ip - 1]
                        }
                    };
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
                                        match &self.slots[slot_base + s as usize] {
                                            Slot::Cell(c) => c.clone(),
                                            _ => fail!(self.internal_unbound()),
                                        }
                                    }
                                    UpvalSrc::ParentUpval(u) => upvals[u as usize].clone(),
                                });
                            }
                            let captured = if ups.is_empty() {
                                no_upvals()
                            } else {
                                Rc::from(ups)
                            };
                            self.stack.push(Value::Func(Rc::new(Closure {
                                proto: fn_proto,
                                upvals: captured,
                            })));
                        }

                        Op::LoadLocal(s) => match &self.slots[slot_base + s as usize] {
                            Slot::Val(v) => {
                                let v = v.clone();
                                self.stack.push(v);
                            }
                            _ => fail!(self.internal_unbound()),
                        },
                        Op::StoreLocal(s) => {
                            let v = self.top().clone();
                            self.slots[slot_base + s as usize] = Slot::Val(v);
                        }
                        Op::DeclLocal(s) => {
                            let v = self.pop();
                            self.slots[slot_base + s as usize] = Slot::Val(v);
                        }
                        Op::AddLocal(s, d) => match &mut self.slots[slot_base + s as usize] {
                            Slot::Val(Value::Num(n)) => *n += f64::from(d),
                            Slot::Val(other) => {
                                set_line!();
                                break 'run Err(self.interp.update_err(d > 0, other));
                            }
                            _ => fail!(self.internal_unbound()),
                        },
                        Op::LoadCell(s) => match &self.slots[slot_base + s as usize] {
                            Slot::Cell(c) => match &*c.borrow() {
                                Some(v) => {
                                    let v = v.clone();
                                    self.stack.push(v);
                                }
                                None => fail!(self.internal_unbound()),
                            },
                            _ => fail!(self.internal_unbound()),
                        },
                        Op::StoreCell(s) => {
                            let v = self.top().clone();
                            match &self.slots[slot_base + s as usize] {
                                Slot::Cell(c) => *c.borrow_mut() = Some(v),
                                _ => fail!(self.internal_unbound()),
                            }
                        }
                        Op::DeclCell(s) => {
                            let v = self.pop();
                            match &self.slots[slot_base + s as usize] {
                                Slot::Cell(c) => *c.borrow_mut() = Some(v),
                                _ => fail!(self.internal_unbound()),
                            }
                        }
                        Op::NewCell(s) => {
                            self.slots[slot_base + s as usize] =
                                Slot::Cell(Rc::new(RefCell::new(None)));
                        }
                        Op::ClearSlot(s) => {
                            self.slots[slot_base + s as usize] = Slot::Empty;
                        }
                        Op::LoadUpval(u) => match &*upvals[u as usize].borrow() {
                            Some(v) => {
                                let v = v.clone();
                                self.stack.push(v);
                            }
                            None => fail!(self.internal_unbound()),
                        },
                        Op::StoreUpval(u) => {
                            let v = self.top().clone();
                            *upvals[u as usize].borrow_mut() = Some(v);
                        }

                        Op::LoadGlobal(i) => {
                            let site = &chunk.globals[i as usize];
                            match self.load_global(site) {
                                Some(v) => self.stack.push(v),
                                None => fail!(self.err(
                                    ErrorKind::Reference,
                                    format!("`{}` is not defined", site.name),
                                )),
                            }
                        }
                        Op::StoreGlobal(i) => {
                            let site = &chunk.globals[i as usize];
                            let v = self.stack.last().cloned().expect(UNDERFLOW);
                            let cached = site.cache.get();
                            let done = cached != u32::MAX
                                && self.interp.globals.slot_set(
                                    cached as usize,
                                    &site.name,
                                    v.clone(),
                                );
                            if !done {
                                if !self.interp.globals.assign(&site.name, v) {
                                    fail!(self.err(
                                        ErrorKind::Reference,
                                        format!(
                                            "assignment to undeclared variable `{}`",
                                            site.name
                                        ),
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
                            let chain = &chunk.chains[i as usize];
                            match self.load_chain(chain, slot_base, &upvals) {
                                Some(v) => self.stack.push(v),
                                None => fail!(self.err(
                                    ErrorKind::Reference,
                                    format!("`{}` is not defined", chain.name),
                                )),
                            }
                        }
                        Op::StoreChain(i) => {
                            let chain = &chunk.chains[i as usize];
                            let v = self.top().clone();
                            if !self.store_chain(chain, slot_base, &upvals, v) {
                                fail!(self.err(
                                    ErrorKind::Reference,
                                    format!("assignment to undeclared variable `{}`", chain.name),
                                ));
                            }
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

                        Op::Add => binary!(BinOp::Add, arith),
                        Op::Sub => binary!(BinOp::Sub, arith),
                        Op::Mul => binary!(BinOp::Mul, arith),
                        Op::Div => binary!(BinOp::Div, arith),
                        Op::Rem => binary!(BinOp::Rem, arith),
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
                        Op::Lt => binary!(BinOp::Lt, ordered),
                        Op::Gt => binary!(BinOp::Gt, ordered),
                        Op::Le => binary!(BinOp::Le, ordered),
                        Op::Ge => binary!(BinOp::Ge, ordered),
                        Op::Not => {
                            let a = self.top();
                            *a = Value::Bool(!a.is_truthy());
                        }
                        Op::Neg => {
                            let a = self.stack.last_mut().expect(UNDERFLOW);
                            match a {
                                Value::Num(n) => *n = -*n,
                                _ => {
                                    let msg = format!("cannot negate a {}", a.type_name());
                                    fail!(self.err(ErrorKind::Type, msg));
                                }
                            }
                        }
                        Op::UnaryPlus => {
                            let a = self.stack.last_mut().expect(UNDERFLOW);
                            if !matches!(a, Value::Num(_)) {
                                let msg = format!("unary + applied to a {}", a.type_name());
                                fail!(self.err(ErrorKind::Type, msg));
                            }
                        }
                        Op::TypeOf => {
                            let a = self.top();
                            *a = Value::str(a.type_name());
                        }
                        Op::Inc | Op::Dec => {
                            let inc = matches!(op, Op::Inc);
                            let a = self.stack.last_mut().expect(UNDERFLOW);
                            match a {
                                Value::Num(n) => *n += if inc { 1.0 } else { -1.0 },
                                _ => {
                                    set_line!();
                                    break 'run Err(self.interp.update_err(inc, a));
                                }
                            }
                        }

                        Op::GetMember(i) => {
                            let site = &chunk.members[i as usize];
                            let obj = self.stack.last_mut().expect(UNDERFLOW);
                            let v = match &*obj {
                                Value::Object(map) => member_of(&map.borrow(), site),
                                Value::Array(items) if site.is_length => {
                                    Value::Num(items.borrow().len() as f64)
                                }
                                other => {
                                    set_line!();
                                    tri!(self.interp.get_member(other, &site.name))
                                }
                            };
                            *obj = v;
                        }
                        Op::GetLocalMember(s, i) => {
                            let site = &chunk.members[i as usize];
                            let v = match &self.slots[slot_base + s as usize] {
                                Slot::Val(Value::Object(map)) => member_of(&map.borrow(), site),
                                Slot::Val(Value::Array(items)) if site.is_length => {
                                    Value::Num(items.borrow().len() as f64)
                                }
                                Slot::Val(other) => {
                                    set_line!();
                                    tri!(self.interp.get_member(other, &site.name))
                                }
                                _ => fail!(self.internal_unbound()),
                            };
                            self.stack.push(v);
                        }
                        Op::SetMember(i) => {
                            let obj = self.pop();
                            let v = self.top().clone();
                            set_line!();
                            tri!(self.interp.set_member_value(
                                &obj,
                                &chunk.members[i as usize].name,
                                v
                            ));
                        }
                        Op::GetIndex => {
                            let idx = self.pop();
                            let obj = self.stack.last_mut().expect(UNDERFLOW);
                            let v = if let (Value::Array(items), Value::Num(n)) = (&*obj, &idx) {
                                element(&items.borrow(), *n).cloned().unwrap_or(Value::Null)
                            } else {
                                set_line!();
                                tri!(self.interp.get_index(obj, &idx))
                            };
                            *obj = v;
                        }
                        Op::SetIndex => {
                            let idx = self.pop();
                            let obj = self.pop();
                            let v = self.top().clone();
                            set_line!();
                            host!(self.interp.set_index_value(&obj, &idx, v));
                        }

                        Op::Call(argc) => {
                            set_line!();
                            let callee = self.pop();
                            call!(callee, argc);
                        }
                        Op::CallMethod(i, argc) => {
                            set_line!();
                            let site = &chunk.members[i as usize];
                            if let Some((p, u)) = host!(self.call_method(site, argc as usize)) {
                                enter!(p, u, argc as usize);
                            }
                        }
                        Op::MathCall(f, argc) => {
                            let func = builtins::MATH_DISPATCH[f as usize].3;
                            let args_start = self.stack.len() - argc as usize;
                            let result = func(&self.stack[args_start..]);
                            self.stack.truncate(args_start);
                            match result {
                                Ok(v) => self.stack.push(v),
                                Err(e) => break 'run Err(e.with_line_if_unset(chunk.lines[ip - 1])),
                            }
                        }

                        Op::Jump(t) => ip = t as usize,
                        Op::JumpIfFalse(t) => {
                            if !self.pop().is_truthy() {
                                ip = t as usize;
                            }
                        }
                        Op::JumpIfTruePeek(t) => {
                            if self.top().is_truthy() {
                                ip = t as usize;
                            }
                        }
                        Op::JumpIfFalsePeek(t) => {
                            if !self.top().is_truthy() {
                                ip = t as usize;
                            }
                        }

                        Op::Return => leave!(self.pop()),
                        Op::ReturnNull => leave!(Value::Null),
                        Op::ReturnResult => leave!(mem::take(&mut self.result)),

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
                                    fail!(self.err(ErrorKind::Type, msg));
                                }
                            };
                            self.slots[slot_base + s as usize] = Slot::Iter(Box::new((keys, 0)));
                        }
                        Op::ForInNext(s, exit) => match &mut self.slots[slot_base + s as usize] {
                            Slot::Iter(iter) => {
                                let (keys, pos) = &mut **iter;
                                if *pos < keys.len() {
                                    let v = keys[*pos].clone();
                                    *pos += 1;
                                    self.stack.push(v);
                                } else {
                                    ip = exit as usize;
                                }
                            }
                            _ => fail!(self.internal_unbound()),
                        },

                        Op::FlowErr(_) => {
                            fail!(self.err(ErrorKind::Parse, "break/continue outside of a loop"));
                        }
                    }
                }
            }
        };
        self.interp.steps_remaining = steps;
        self.interp.dispatches += dispatched;
        result
    }

    /// Probes a resolution chain innermost-out; the first bound
    /// candidate wins, reproducing the tree-walk environment chain for
    /// identifiers read before their declaration executes.
    fn load_chain(
        &self,
        chain: &ChainInfo,
        slot_base: usize,
        upvals: &[UpvalCell],
    ) -> Option<Value> {
        for cand in chain.cands.iter() {
            match cand {
                ChainRef::Local(s) => {
                    if let Slot::Val(v) = &self.slots[slot_base + *s as usize] {
                        return Some(v.clone());
                    }
                }
                ChainRef::CellSlot(s) => {
                    if let Slot::Cell(c) = &self.slots[slot_base + *s as usize] {
                        if let Some(v) = &*c.borrow() {
                            return Some(v.clone());
                        }
                    }
                }
                ChainRef::Upval(u) => {
                    if let Some(v) = &*upvals[*u as usize].borrow() {
                        return Some(v.clone());
                    }
                }
                ChainRef::Global => {
                    if let Some(v) = self.interp.globals.get(&chain.name) {
                        return Some(v);
                    }
                }
            }
        }
        None
    }

    /// Assigns through a resolution chain; `false` when no candidate is
    /// bound.
    fn store_chain(
        &mut self,
        chain: &ChainInfo,
        slot_base: usize,
        upvals: &[UpvalCell],
        v: Value,
    ) -> bool {
        for cand in chain.cands.iter() {
            match cand {
                ChainRef::Local(s) => {
                    let slot = &mut self.slots[slot_base + *s as usize];
                    if matches!(slot, Slot::Val(_)) {
                        *slot = Slot::Val(v);
                        return true;
                    }
                }
                ChainRef::CellSlot(s) => {
                    if let Slot::Cell(c) = &self.slots[slot_base + *s as usize] {
                        let mut c = c.borrow_mut();
                        if c.is_some() {
                            *c = Some(v);
                            return true;
                        }
                    }
                }
                ChainRef::Upval(u) => {
                    let mut c = upvals[*u as usize].borrow_mut();
                    if c.is_some() {
                        *c = Some(v);
                        return true;
                    }
                }
                ChainRef::Global => return self.interp.globals.assign(&chain.name, v),
            }
        }
        false
    }

    /// `receiver.name(args)`. An object property holding a closure is
    /// handed back for the dispatch loop to enter on the machine's own
    /// frame stack instead of recursing through the host; every other
    /// call has pushed its result when this returns. The tree-walk
    /// oracle in the tests dispatches on its own, with the same error
    /// texts, so a change to either one shows in `vm_diff`.
    #[allow(clippy::type_complexity)]
    fn call_method(
        &mut self,
        site: &MemberSite,
        argc: usize,
    ) -> Result<Option<(Rc<FnProto>, Rc<[UpvalCell]>)>, ScriptError> {
        let name = &*site.name;
        let recv = self.pop();
        let args_start = self.stack.len() - argc;
        let result = match &recv {
            Value::Object(map) => {
                let method = {
                    let map = map.borrow();
                    site.index_in(&map).map(|idx| map.value_at(idx).clone())
                };
                match method {
                    Some(Value::Func(cl)) => {
                        return Ok(Some((cl.proto.clone(), cl.upvals.clone())));
                    }
                    Some(f @ Value::Native(_)) => {
                        self.interp.call_value(&f, &self.stack[args_start..])
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
                builtins::call_array_method(self.interp, &recv, name, &self.stack[args_start..])
            }
            Value::Str(_) => {
                builtins::call_string_method(self.interp, &recv, name, &self.stack[args_start..])
            }
            other => Err(self.err(
                ErrorKind::Type,
                format!("cannot call method `{name}` on a {}", other.type_name()),
            )),
        };
        self.stack.truncate(args_start);
        self.stack.push(result?);
        Ok(None)
    }
}

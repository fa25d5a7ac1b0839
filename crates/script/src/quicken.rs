//! The VM-private instruction stream: one [`QOp`] per [`Op`] of a chunk,
//! same indices, built once where the chunk is finished.
//!
//! `Chunk::ops` stays the ISA — what `verify`, `absint`, the disassembler
//! and the step accounting are defined on. This stream is what
//! [`crate::vm`] dispatches on. Most entries are the op at their index,
//! unchanged. Where a run of ops is a recognised idiom, the entry at its
//! *head* is one fused instruction that reads its operands where they
//! live (a slot, a constant, a property of the object in a slot) instead
//! of through the operand stack, charges exactly the steps of the ops it
//! stands for and continues past them. The entries inside the run keep
//! their plain op, so every jump target and every `lines[ip]` is still
//! valid, and a fused instruction that cannot take its fast path (an
//! operand of a type it does not cover, or less budget left than the
//! whole run costs) executes the plain op at its index instead: errors,
//! their lines and the step at which the watchdog trips are the plain
//! stream's by construction.
//!
//! Only runs whose partial execution nothing can observe are fused: pure
//! reads, arithmetic and comparisons on them, stores to frame slots and
//! jumps. A call can only end a run (`LoadGlobal Call`, charged in full
//! before the callee is entered), so no native and no nested machine ever
//! sees the budget or the stack in the middle of one.

use std::fmt::Write as _;

use crate::ast::BinOp;
use crate::bytecode::{Chunk, CompiledProgram, FnProto, Op};

/// Where a fused instruction reads an operand: the ops that would have
/// pushed it, folded into a path. `x.aps[i].l` is base `Member(x, aps)`,
/// `at` `i`, `member` `l`; `i < window_.length` compares base `Local(i)`
/// with base `Global(window_)`, `len`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Src {
    pub base: Base,
    /// `LoadLocal(i) GetIndex` next: element `$i` of the array so far
    /// ([`Src::NONE`]: no such step).
    pub at: u16,
    /// `GetMember(n)` next: property `n` of the object so far
    /// ([`Src::NONE`]: no such step).
    pub member: u16,
    /// `GetMember(length)` last: the length of the array so far.
    pub len: bool,
}

impl Src {
    /// Stands for "no such step"; the slot or member site that really has
    /// this number is not folded.
    pub const NONE: u16 = u16::MAX;
}

/// The op a [`Src`] starts with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Base {
    /// `LoadLocal(s)`
    Local(u16),
    /// `Const(c)`
    Const(u16),
    /// `GetLocalMember(s, m)`
    Member(u16, u16),
    /// `LoadGlobal(g)`
    Global(u16),
}

/// What follows the comparison of a [`Fused::CmpJump`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Branch {
    /// `JumpIfFalse(t)`
    IfFalse,
    /// `JumpIfFalsePeek(t) Pop`: the left arm of `&&`. The `Pop` runs
    /// (and is charged) on the fall-through path only.
    AndThen,
    /// `JumpIfTruePeek(t) Pop`: the left arm of `||`.
    OrElse,
}

/// One entry of the quickened stream: the op at its index, or the number
/// (in [`Quick::fused`]) of the fused instruction for the run that starts
/// there. No larger than an [`Op`]: the stream doubles a chunk's code, not
/// more.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum QOp {
    Plain(Op),
    Fused(u16),
}

/// A fused instruction. Its `len` is the ops it stands for on its longest
/// path, which is also the steps it charges there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Fused {
    /// `a b <cmp> <branch>`: `if (a < b)`, `while (i < x.m.length && …)`.
    CmpJump {
        a: Src,
        b: Src,
        cmp: BinOp,
        branch: Branch,
        target: u32,
        len: u8,
    },
    /// `a b Mul LoadLocal(acc) Swap Add DeclLocal(acc)`: `acc += a * b`.
    MulAdd { a: Src, b: Src, acc: u16, len: u8 },
    /// `src DeclLocal(dst)`: `var d = x.m[i]`, `var n = 0`.
    Decl { src: Src, dst: u16, len: u8 },
    /// A source of several ops with no fused consumer: pushed.
    Push { src: Src, len: u8 },
    /// `LoadGlobal(g) Call(argc)`: the callee is read where it is bound.
    CallGlobal(u16, u8),
    /// `ClearSlot(a) ClearSlot(b)`
    Clear2(u16, u16),
    /// `AddLocal(s, d) Jump(t)`: the tail of a counted loop.
    AddLocalJump(u16, i8, u32),
}

/// A chunk's quickened stream: `code[i]` stands for `ops[i]`.
#[derive(Debug, Clone, Default)]
pub(crate) struct Quick {
    pub code: Vec<QOp>,
    pub fused: Vec<Fused>,
}

/// The stream for `chunk`: from the front, the longest idiom that starts
/// at an index takes the ops it stands for, and matching goes on after
/// them. A jump into the middle of a run meets plain ops. A chunk with
/// more fused instructions than a `u16` numbers keeps plain ops from
/// there on.
pub(crate) fn quicken(chunk: &Chunk) -> Quick {
    let mut quick = Quick {
        code: chunk.ops.iter().copied().map(QOp::Plain).collect(),
        fused: Vec::new(),
    };
    let mut at = 0;
    while at < chunk.ops.len() {
        let number = u16::try_from(quick.fused.len()).ok();
        at += match (fuse_at(chunk, at), number) {
            (Some(fused), Some(number)) => {
                quick.code[at] = QOp::Fused(number);
                quick.fused.push(fused);
                fused.len()
            }
            _ => 1,
        };
    }
    quick.fused.shrink_to_fit();
    quick
}

fn is_length(chunk: &Chunk, site: u16) -> bool {
    chunk
        .members
        .get(site as usize)
        .is_some_and(|m| m.is_length)
}

/// The operand source that starts at `ops[0]`, as long as it gets, and
/// the number of ops it folds.
fn src_at(chunk: &Chunk, ops: &[Op]) -> Option<(Src, usize)> {
    let base = match *ops.first()? {
        Op::LoadLocal(s) => Base::Local(s),
        Op::Const(c) => Base::Const(c),
        Op::GetLocalMember(s, m) => Base::Member(s, m),
        Op::LoadGlobal(g) => Base::Global(g),
        _ => return None,
    };
    let mut src = Src {
        base,
        at: Src::NONE,
        member: Src::NONE,
        len: false,
    };
    let mut n = 1;
    if let [Op::LoadLocal(i), Op::GetIndex, ..] = ops[n..] {
        if i != Src::NONE {
            src.at = i;
            n += 2;
        }
    }
    if let [Op::GetMember(m), ..] = ops[n..] {
        if m != Src::NONE && !is_length(chunk, m) {
            src.member = m;
            n += 1;
        }
    }
    if let [Op::GetMember(m), ..] = ops[n..] {
        if is_length(chunk, m) {
            src.len = true;
            n += 1;
        }
    }
    Some((src, n))
}

/// The idiom that starts at `ops[at]`, if any.
fn fuse_at(chunk: &Chunk, at: usize) -> Option<Fused> {
    let ops = &chunk.ops[at..];
    match *ops {
        [Op::ClearSlot(a), Op::ClearSlot(b), ..] => return Some(Fused::Clear2(a, b)),
        [Op::AddLocal(s, d), Op::Jump(t), ..] => return Some(Fused::AddLocalJump(s, d, t)),
        [Op::LoadGlobal(g), Op::Call(argc), ..] => return Some(Fused::CallGlobal(g, argc)),
        _ => {}
    }
    let (a, la) = src_at(chunk, ops)?;
    if let [Op::DeclLocal(dst), ..] = ops[la..] {
        return Some(Fused::Decl {
            src: a,
            dst,
            len: u8::try_from(la + 1).ok()?,
        });
    }
    // A source of several ops that nothing fused consumes is pushed.
    let push = (la > 1).then_some(Fused::Push {
        src: a,
        len: u8::try_from(la).ok()?,
    });
    let Some((b, lb)) = src_at(chunk, &ops[la..]) else {
        return push;
    };
    let len = |n: usize| u8::try_from(la + lb + n).ok();
    let cmp = |op: Op| match op {
        Op::Eq => Some(BinOp::Eq),
        Op::Ne => Some(BinOp::NotEq),
        Op::Lt => Some(BinOp::Lt),
        Op::Gt => Some(BinOp::Gt),
        Op::Le => Some(BinOp::Le),
        Op::Ge => Some(BinOp::Ge),
        _ => None,
    };
    match ops[la + lb..] {
        [Op::Mul, Op::LoadLocal(acc), Op::Swap, Op::Add, Op::DeclLocal(to), ..] if acc == to => {
            Some(Fused::MulAdd {
                a,
                b,
                acc,
                len: len(5)?,
            })
        }
        [op, Op::JumpIfFalse(target), ..] if cmp(op).is_some() => Some(Fused::CmpJump {
            a,
            b,
            cmp: cmp(op)?,
            branch: Branch::IfFalse,
            target,
            len: len(2)?,
        }),
        [op, Op::JumpIfFalsePeek(target), Op::Pop, ..] if cmp(op).is_some() => {
            Some(Fused::CmpJump {
                a,
                b,
                cmp: cmp(op)?,
                branch: Branch::AndThen,
                target,
                len: len(3)?,
            })
        }
        [op, Op::JumpIfTruePeek(target), Op::Pop, ..] if cmp(op).is_some() => {
            Some(Fused::CmpJump {
                a,
                b,
                cmp: cmp(op)?,
                branch: Branch::OrElse,
                target,
                len: len(3)?,
            })
        }
        _ => push,
    }
}

impl Fused {
    /// The ops this instruction stands for on its longest path.
    pub(crate) fn len(&self) -> usize {
        match *self {
            Fused::CmpJump { len, .. }
            | Fused::MulAdd { len, .. }
            | Fused::Decl { len, .. }
            | Fused::Push { len, .. } => len as usize,
            Fused::CallGlobal(..) | Fused::Clear2(..) | Fused::AddLocalJump(..) => 2,
        }
    }
}

// ---- listing ----------------------------------------------------------------

/// The fused instructions of a compiled program, function by function in
/// the disassembler's order and under its labels: index, idiom with its
/// operands, ops it stands for, steps it charges. `pogo-lint
/// --dump-bytecode` prints this after the disassembly and the golden
/// files pin it, so a change to the lowering that stops an idiom from
/// matching is a diff, not a slowdown somebody has to notice.
pub fn quickened_listing(program: &CompiledProgram) -> String {
    let mut out = String::new();
    list_proto(&program.main, "main", &mut out);
    out
}

fn list_proto(proto: &FnProto, label: &str, out: &mut String) {
    let c = &proto.chunk;
    let fused_ops: usize = c.quick.fused.iter().map(Fused::len).sum();
    let _ = writeln!(
        out,
        "== {label} ({fused_ops} of {} ops fused) ==",
        c.ops.len()
    );
    for (at, q) in c.quick.code.iter().enumerate() {
        if let QOp::Fused(number) = *q {
            let fused = &c.quick.fused[number as usize];
            let len = fused.len();
            let _ = writeln!(
                out,
                "{at:04}  {:<52} ops {len} steps {len}",
                render(c, fused)
            );
        }
    }
    for (pi, p) in c.protos.iter().enumerate() {
        let _ = writeln!(out);
        list_proto(p, &format!("{label}.fn{pi} {}", p.name), out);
    }
}

fn render(c: &Chunk, fused: &Fused) -> String {
    let member = |m: u16| &*c.members[m as usize].name;
    let src = |s: Src| {
        let mut path = match s.base {
            Base::Local(s) => format!("${s}"),
            Base::Const(i) => format!("c{i}"),
            Base::Member(s, m) => format!("${s}.{}", member(m)),
            Base::Global(g) => c.globals[g as usize].name.to_string(),
        };
        if s.at != Src::NONE {
            let _ = write!(path, "[${}]", s.at);
        }
        if s.member != Src::NONE {
            let _ = write!(path, ".{}", member(s.member));
        }
        if s.len {
            path.push_str(".length");
        }
        path
    };
    match *fused {
        Fused::CmpJump {
            a,
            b,
            cmp,
            branch,
            target,
            ..
        } => {
            let how = match branch {
                Branch::IfFalse => "else",
                Branch::AndThen => "&& else",
                Branch::OrElse => "|| then",
            };
            format!(
                "CmpJump   {} {} {} {how} -> {target:04}",
                src(a),
                cmp.symbol(),
                src(b)
            )
        }
        Fused::MulAdd { a, b, acc, .. } => format!("MulAdd    ${acc} += {} * {}", src(a), src(b)),
        Fused::Decl { src: s, dst, .. } => format!("Decl      ${dst} = {}", src(s)),
        Fused::Push { src: s, .. } => format!("Push      {}", src(s)),
        Fused::CallGlobal(g, argc) => {
            format!("CallGlobal `{}` argc {argc}", c.globals[g as usize].name)
        }
        Fused::Clear2(a, b) => format!("Clear2    ${a} ${b}"),
        Fused::AddLocalJump(s, d, t) => format!("AddJump   ${s} {d:+} -> {t:04}"),
    }
}

/// `proto` with every chunk's stream replaced by its plain ops: what the
/// VM ran before there were fused instructions, for the differential
/// tests.
#[cfg(test)]
pub(crate) fn unfused(proto: &FnProto) -> FnProto {
    let mut chunk = proto.chunk.clone();
    chunk.quick = Quick {
        code: chunk.ops.iter().copied().map(QOp::Plain).collect(),
        fused: Vec::new(),
    };
    for p in &mut chunk.protos {
        *p = std::rc::Rc::new(unfused(p));
    }
    FnProto {
        name: proto.name.clone(),
        params: proto.params.clone(),
        upvals: proto.upvals.clone(),
        chunk,
    }
}

/// The fused stream against the plain one: same results, same errors on
/// the same lines, the same budget left, whatever the budget was.
#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::collections::VecDeque;
    use std::rc::Rc;

    use super::*;
    use crate::common::{eq_val, paper_scripts, VmGen};
    use crate::{compile, ErrorKind, Interpreter, NativeFn, ObjMap, ScriptError, Value};

    fn plain(program: &CompiledProgram) -> CompiledProgram {
        CompiledProgram {
            main: Rc::new(unfused(&program.main)),
            op_count: program.op_count,
            fn_count: program.fn_count,
        }
    }

    /// What one invocation did, as far as anything can tell.
    #[derive(Debug)]
    struct Outcome {
        result: Result<Value, (ErrorKind, String, u32)>,
        steps_left: u64,
    }

    fn outcome(interp: &Interpreter, result: Result<Value, ScriptError>) -> Outcome {
        Outcome {
            result: result.map_err(|e| (e.kind(), e.message().to_owned(), e.line())),
            steps_left: interp.steps_remaining(),
        }
    }

    fn assert_same(quick: &Outcome, plain: &Outcome, what: &dyn Fn() -> String) {
        assert_eq!(quick.steps_left, plain.steps_left, "steps left: {}", what());
        match (&quick.result, &plain.result) {
            (Ok(a), Ok(b)) => assert!(eq_val(a, b), "{a:?} vs {b:?}: {}", what()),
            (Err(a), Err(b)) => assert_eq!(a, b, "{}", what()),
            (a, b) => panic!("fused {a:?}, plain {b:?}: {}", what()),
        }
    }

    /// A program's value and everything it handed to `emit`, under `budget`.
    fn run(program: &CompiledProgram, budget: u64) -> (Outcome, Vec<String>, u64) {
        let emitted = Rc::new(RefCell::new(Vec::new()));
        let sink = emitted.clone();
        let mut interp = Interpreter::new();
        interp.register_native("emit", move |_, args| {
            sink.borrow_mut()
                .extend(args.iter().map(Value::to_display_string));
            Ok(Value::Null)
        });
        interp.set_budget(Some(budget));
        let result = interp.run_compiled(program);
        let out = outcome(&interp, result);
        let emitted = emitted.borrow().clone();
        (out, emitted, interp.dispatches())
    }

    fn assert_program_agrees(src: &str, budget: u64) -> (u64, u64, u64) {
        let program = compile(src).unwrap();
        let (quick, quick_emitted, quick_dispatches) = run(&program, budget);
        let (slow, slow_emitted, slow_dispatches) = run(&plain(&program), budget);
        let what = || format!("budget {budget}\n{src}");
        assert_eq!(quick_emitted, slow_emitted, "{}", what());
        assert_same(&quick, &slow, &what);
        (budget - quick.steps_left, quick_dispatches, slow_dispatches)
    }

    #[test]
    fn the_stream_is_no_larger_than_the_ops() {
        assert_eq!(std::mem::size_of::<QOp>(), std::mem::size_of::<Op>());
        println!("Fused is {} bytes", std::mem::size_of::<Fused>());
    }

    #[test]
    fn seeded_programs_run_the_same_fused_and_plain() {
        let (mut timeouts, mut fused, mut unfused) = (0, 0, 0);
        for seed in 0..1200 {
            let src = VmGen::generate(seed);
            for budget in [100_000, 150] {
                let (steps, quick, slow) = assert_program_agrees(&src, budget);
                timeouts += usize::from(steps == budget);
                fused += quick;
                unfused += slow;
            }
        }
        assert!(timeouts > 50, "only {timeouts} runs met the watchdog");
        assert!(fused < unfused, "no fused instruction ran");
    }

    /// One function per idiom, called with every pair of these operands:
    /// the types each fast path covers and the ones it must leave to the
    /// plain ops.
    const OPERANDS: [&str; 12] = [
        "2",
        "-1",
        "1.5",
        "0 / 0",
        "'k'",
        "null",
        "[4, 5, 6]",
        "{ m: 3, n: 4 }",
        "{ m: 'a', n: 'b' }",
        "{ m: [7, 8], n: [] }",
        "{ m: [{ n: 1 }, { n: 'z' }, 5], n: 1 }",
        "{ m: { length: 2 } }",
    ];
    const IDIOMS: [&str; 10] = [
        "var s = 1; s += x.m * y.n; return s;",
        "var s = 'p'; s += x.n * y.m; return s;",
        "var d = x.m[y]; return d;",
        "return x.m[y].n;",
        "var n = 0; while (y < x.m.length) { y++; n++; } return n;",
        "if (x.m < y.n) return 1; if (x.m >= y.m) return 2; return 0;",
        "var i = 0; while (i < 3 && x.m.length > i) { i++; } return i;",
        "if (x == 2 || x.m != y.m) return 1; return 0;",
        "var t = 0; for (var i = 0; i < x; i++) { var u = i; var w = y; t += u; } return t;",
        "return g(x) + h(y);",
    ];

    #[test]
    fn every_idiom_meets_every_operand_under_every_budget() {
        for idiom in IDIOMS {
            let mut ran_fused = false;
            for x in OPERANDS {
                for y in OPERANDS {
                    let src = format!(
                        "function g(v) {{ return v; }}\nvar h = {y};\n\
                         function f(x, y) {{\n{idiom}\n}}\nf({x}, {y});"
                    );
                    let (steps, quick, slow) = assert_program_agrees(&src, 100_000);
                    ran_fused |= quick < slow;
                    // Every budget up to what the run needs: the watchdog
                    // trips on the same op (same line, nothing left) or,
                    // at the last one, not at all.
                    for budget in 0..=steps.min(60) {
                        assert_program_agrees(&src, budget);
                    }
                }
            }
            assert!(ran_fused, "no operands took the fast path of {idiom}");
        }
    }

    /// `n` access points of one neighbourhood, as `scan.js` hears them.
    fn wifi_scan(minute: u64, side: u64) -> Value {
        let aps = (0..5)
            .map(|j| {
                let local = if j == 3 { 2 } else { 0 };
                let ap: ObjMap = [
                    (
                        "bssid",
                        Value::str(format!("0{local}:00:00:00:0{side}:0{j}")),
                    ),
                    (
                        "rssi",
                        Value::Num(-50.0 - 6.0 * j as f64 - ((minute * 7 + j) % 5) as f64),
                    ),
                ]
                .into_iter()
                .collect();
                Value::object(ap)
            })
            .collect();
        let msg: ObjMap = [
            ("timestamp", Value::Num((minute * 60_000) as f64)),
            ("aps", Value::array(aps)),
        ]
        .into_iter()
        .collect();
        Value::object(msg)
    }

    /// The asset scripts, one interpreter each, on a bus that stands in
    /// for the host: what they log and publish, and what every callback
    /// returned, raised and had left of its budget.
    fn play_assets(fused: bool, budget: u64) -> (Vec<String>, u64, u64) {
        type Queue = Rc<RefCell<VecDeque<(String, Value)>>>;
        let transcript = Rc::new(RefCell::new(Vec::new()));
        let queue: Queue = Rc::default();
        let mut scripts = Vec::new();
        let mut steps = 0;
        for (name, src) in paper_scripts() {
            let subscribers = Rc::new(RefCell::new(Vec::new()));
            let mut interp = Interpreter::new();
            let heard = subscribers.clone();
            interp.register_native("subscribe", move |_, args| {
                let channel = args[0].as_str().expect("a channel name").to_owned();
                heard.borrow_mut().push((channel, args[1].clone()));
                let handle: ObjMap = ["release", "renew"]
                    .into_iter()
                    .map(|method| {
                        let noop = NativeFn {
                            name: method.to_owned(),
                            func: Box::new(|_, _| Ok(Value::Null)),
                        };
                        (method, Value::Native(Rc::new(noop)))
                    })
                    .collect();
                Ok(Value::object(handle))
            });
            let outbox = queue.clone();
            interp.register_native("publish", move |_, args| {
                let (channel, msg) = match (&args[0], &args[1]) {
                    (Value::Str(channel), msg) | (msg, Value::Str(channel)) => (channel, msg),
                    _ => return Err(ScriptError::host("publish: expected (channel, message)")),
                };
                outbox
                    .borrow_mut()
                    .push_back((channel.to_string(), msg.clone()));
                Ok(Value::Null)
            });
            let log = transcript.clone();
            let script = name.clone();
            interp.register_native("logTo", move |_, args| {
                let line: Vec<String> = args.iter().map(Value::to_display_string).collect();
                log.borrow_mut()
                    .push(format!("{script} logs {}", line.join(" ")));
                Ok(Value::Null)
            });
            interp.register_native("json", |_, args| {
                Ok(Value::from(args[0].to_display_string()))
            });
            interp.register_native("geolocate", |_, _| {
                let fix: ObjMap = [("lat", Value::Num(52.0)), ("lon", Value::Num(4.4))]
                    .into_iter()
                    .collect();
                Ok(Value::object(fix))
            });
            for inert in ["setDescription", "thaw", "freeze"] {
                interp.register_native(inert, |_, _| Ok(Value::Null));
            }
            let program = compile(&src).unwrap();
            let program = if fused { program } else { plain(&program) };
            interp.set_budget(Some(crate::LOAD_BUDGET));
            let loaded = interp.run_compiled(&program);
            steps += crate::LOAD_BUDGET - interp.steps_remaining();
            transcript
                .borrow_mut()
                .push(format!("{name} loads {:?}", outcome(&interp, loaded)));
            interp.set_budget(Some(budget));
            scripts.push((name, interp, subscribers));
        }
        for minute in 1..=150 {
            // Two neighbourhoods, so places open, close and are published.
            let side = (minute / 35) % 2;
            let fix: ObjMap = [
                ("lat", Value::Num(0.5 + side as f64)),
                ("lon", Value::Num(2.0)),
            ]
            .into_iter()
            .collect();
            let mut bus = queue.borrow_mut();
            bus.push_back(("wifi-scan".to_owned(), wifi_scan(minute, side)));
            bus.push_back(("location".to_owned(), Value::object(fix)));
            drop(bus);
            loop {
                let Some((channel, msg)) = queue.borrow_mut().pop_front() else {
                    break;
                };
                for (name, interp, subscribers) in &mut scripts {
                    let listening: Vec<Value> = subscribers
                        .borrow()
                        .iter()
                        .filter(|(heard, _)| *heard == channel)
                        .map(|(_, callback)| callback.clone())
                        .collect();
                    for callback in listening {
                        let result = interp.call(&callback, &[msg.clone(), Value::str("phone")]);
                        steps += budget - interp.steps_remaining();
                        transcript.borrow_mut().push(format!(
                            "{name} hears {channel}: {:?}",
                            outcome(interp, result)
                        ));
                    }
                }
            }
        }
        let dispatches = scripts.iter().map(|(_, i, _)| i.dispatches()).sum();
        let transcript = transcript.borrow().clone();
        (transcript, steps, dispatches)
    }

    #[test]
    fn asset_scripts_run_the_same_fused_and_plain() {
        // The host's budget, and one that several callbacks exhaust.
        for budget in [crate::WATCHDOG_BUDGET, 700] {
            let (quick, steps, dispatches) = play_assets(true, budget);
            let (slow, ..) = play_assets(false, budget);
            for (a, b) in quick.iter().zip(&slow) {
                assert_eq!(a, b, "budget {budget}");
            }
            assert_eq!(quick.len(), slow.len());
            let heard = |what: &str| quick.iter().filter(|l| l.contains(what)).count();
            assert_eq!(heard("scan hears wifi-scan"), 150);
            assert!(heard("collect logs") >= 2, "no place was published");
            let tripped = heard("Timeout");
            if budget == crate::WATCHDOG_BUDGET {
                assert_eq!(tripped, 0);
                assert!(
                    (dispatches as f64) < 0.55 * steps as f64,
                    "{dispatches} dispatches for {steps} steps"
                );
            } else {
                assert!(tripped > 100, "only {tripped} callbacks met the watchdog");
            }
        }
    }

    /// `cosine` of `clustering.js` on two overlapping scans, under every
    /// budget from none to all it needs.
    #[test]
    fn every_budget_trips_clustering_at_the_same_step_and_line() {
        let (_, src) = paper_scripts()
            .into_iter()
            .find(|(name, _)| name == "clustering")
            .unwrap();
        let program = compile(&src).unwrap();
        let load = |program: &CompiledProgram| {
            let mut interp = Interpreter::new();
            for inert in ["setDescription", "thaw", "freeze", "subscribe", "publish"] {
                interp.register_native(inert, |_, _| Ok(Value::Null));
            }
            interp.run_compiled(program).unwrap();
            let cosine = interp.globals().get("cosine").unwrap();
            (interp, cosine)
        };
        let (mut quick, quick_cosine) = load(&program);
        let (mut slow, slow_cosine) = load(&plain(&program));
        let scan = |side: u64, from: usize| -> Value {
            let aps: Vec<Value> = (from..from + 4)
                .map(|j| {
                    let ap: ObjMap = [
                        ("b", Value::str(format!("00:0{side}:0{j}"))),
                        ("l", Value::Num(0.2 * j as f64)),
                    ]
                    .into_iter()
                    .collect();
                    Value::object(ap)
                })
                .collect();
            let scan: ObjMap = [("t", Value::Num(0.0)), ("aps", Value::array(aps))]
                .into_iter()
                .collect();
            Value::object(scan)
        };
        let args = [scan(0, 0), scan(0, 2)];
        quick.set_budget(Some(100_000));
        quick.call(&quick_cosine, &args).unwrap();
        let needed = 100_000 - quick.steps_remaining();
        assert!(needed > 150, "cosine took only {needed} steps");
        let mut lines = std::collections::BTreeSet::new();
        for budget in 0..=needed {
            quick.set_budget(Some(budget));
            slow.set_budget(Some(budget));
            let a = quick.call(&quick_cosine, &args);
            let b = slow.call(&slow_cosine, &args);
            let (a, b) = (outcome(&quick, a), outcome(&slow, b));
            assert_same(&a, &b, &|| format!("budget {budget}"));
            match &a.result {
                Err((kind, _, line)) => {
                    assert_eq!((*kind, a.steps_left), (ErrorKind::Timeout, 0));
                    lines.insert(*line);
                }
                Ok(_) => assert_eq!(budget, needed, "only the whole budget is enough"),
            }
        }
        assert!(
            lines.len() > 10,
            "the watchdog tripped on few lines: {lines:?}"
        );
    }
}

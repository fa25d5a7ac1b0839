//! The compact bytecode format the VM (`vm.rs`) executes.
//!
//! A compiled function is an [`FnProto`]: a flat instruction stream
//! ([`Op`]) plus the side tables it indexes — a constant pool, nested
//! function prototypes, object-literal shapes, named global/member
//! sites (each with an inline cache), and resolution *chains* for
//! identifiers whose binding cannot be pinned at compile time (see
//! `compile.rs` for why PogoScript needs those).
//!
//! Everything here is deterministic: instruction order, constant-pool
//! order and slot numbers depend only on the source text, never on
//! hash-map iteration or addresses. That property is load-bearing —
//! compiled chunks are shared across simulated phones and the chaos
//! soak demands byte-identical traces across runs. The inline caches
//! (the sites' cells) are the one mutable part, and they only ever change
//! probe order, never an observable result.

use std::cell::Cell;
use std::fmt::Write as _;
use std::rc::Rc;

use crate::quicken::Quick;
use crate::value::{ObjMap, Shape, Value};

/// One VM instruction. Operands index the side tables of the
/// enclosing [`Chunk`] (constants, protos, sites, chains) or name a
/// frame slot / upvalue directly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Push `consts[i]`.
    Const(u16),
    /// Push `null` / `true` / `false`.
    PushNull,
    PushTrue,
    PushFalse,
    /// Pop `n` values, push an array of them (in evaluation order).
    MakeArray(u16),
    /// Pop `shapes[i].len()` values, push an object with those keys.
    MakeObject(u16),
    /// Push a closure over `protos[i]`, capturing its upvalues now.
    MakeClosure(u16),

    /// Push / peek-store / pop-store a plain frame slot. The pop-store
    /// serves `var` declarations and assignments to a bound local whose
    /// value is discarded (`x = e;` as a statement).
    LoadLocal(u16),
    StoreLocal(u16),
    DeclLocal(u16),
    /// `++` / `--` on a bound plain frame slot, in place: the operand is
    /// +1 or -1 (numbers only). Pushes nothing; `x = i++` loads first.
    AddLocal(u16, i8),
    /// Same for a heap cell held in a frame slot (captured variable).
    LoadCell(u16),
    StoreCell(u16),
    DeclCell(u16),
    /// Install a fresh unbound cell in a slot (scope entry).
    NewCell(u16),
    /// Reset a slot to "no binding yet" (block re-entry in a loop).
    ClearSlot(u16),
    /// Push / peek-store an upvalue of the running closure.
    LoadUpval(u16),
    StoreUpval(u16),
    /// Globals go through `globals[i]`, a named site with a verified
    /// slot cache into the interpreter's root environment.
    LoadGlobal(u16),
    StoreGlobal(u16),
    DeclGlobal(u16),
    /// Identifier whose binding may not exist yet at runtime: probe
    /// `chains[i]` candidates innermost-out (PogoScript `var` has no
    /// hoisting, so reads before the declaration executes fall through
    /// to outer scopes — same as the tree-walk environment chain).
    LoadChain(u16),
    StoreChain(u16),

    Pop,
    Dup,
    Swap,
    /// Pop into the main frame's result register (top-level
    /// expression statements; the program's value on fall-off).
    SetResult,

    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Eq,
    Ne,
    Lt,
    Gt,
    Le,
    Ge,
    Not,
    Neg,
    UnaryPlus,
    TypeOf,
    /// `++` / `--` on the top of stack (numbers only).
    Inc,
    Dec,

    /// Property read through `members[i]` (name + inline cache).
    GetMember(u16),
    /// `GetMember(i)` on the value in bound plain frame slot `s`, read
    /// through a borrow of the slot: the receiver is neither cloned nor
    /// pushed.
    GetLocalMember(u16, u16),
    /// Pop object, store top-of-stack into property `members[i]`.
    SetMember(u16),
    /// Pop index and object, push `object[index]`.
    GetIndex,
    /// Pop index and object, store top-of-stack into `object[index]`.
    SetIndex,

    /// Stack is `[a1..an, callee]`; pop all, push the result.
    Call(u8),
    /// Stack is `[a1..an, receiver]`; method name in `members[i]`.
    CallMethod(u16, u8),
    /// Direct dispatch to a `Math` builtin (compile-time resolved).
    MathCall(u8, u8),

    Jump(u32),
    /// Pop the condition.
    JumpIfFalse(u32),
    /// Peek the condition (short-circuit `||` / `&&`).
    JumpIfTruePeek(u32),
    JumpIfFalsePeek(u32),

    /// Pop the return value and leave the frame.
    Return,
    ReturnNull,
    /// Leave the main frame with its result register.
    ReturnResult,

    /// Pop a value, snapshot its enumerable keys into slot `i`.
    ForInPrep(u16),
    /// Push the next key from slot `i`, or jump past the loop.
    ForInNext(u16, u32),

    /// `break`/`continue` compiled outside any loop: a *runtime*
    /// parse error, matching the tree-walk's execute-time semantics
    /// (`if (false) break;` at top level must not fail at load).
    FlowErr(u8),
}

/// What the verifier and the analyzer know of an instruction without
/// running it: its stack effect, where it can jump, and whether control
/// can reach the next instruction. The one description both use,
/// mirroring `vm.rs`.
impl Op {
    /// `(pops, pushes)` on the fall-through edge. A jump edge carries
    /// the same stack, except `ForInNext`'s: its exit pushes no key.
    pub(crate) fn stack_effect(self, chunk: &Chunk) -> (usize, usize) {
        match self {
            Op::Const(_)
            | Op::PushNull
            | Op::PushTrue
            | Op::PushFalse
            | Op::MakeClosure(_)
            | Op::LoadLocal(_)
            | Op::GetLocalMember(_, _)
            | Op::LoadCell(_)
            | Op::LoadUpval(_)
            | Op::LoadGlobal(_)
            | Op::LoadChain(_)
            | Op::ForInNext(_, _) => (0, 1),
            Op::MakeArray(n) => (n as usize, 1),
            Op::MakeObject(i) => (chunk.shapes[i as usize].len(), 1),
            // Stores peek the value (it remains the expression result).
            Op::StoreLocal(_)
            | Op::StoreCell(_)
            | Op::StoreUpval(_)
            | Op::StoreGlobal(_)
            | Op::StoreChain(_) => (1, 1),
            Op::DeclLocal(_) | Op::DeclCell(_) | Op::DeclGlobal(_) => (1, 0),
            Op::NewCell(_) | Op::ClearSlot(_) | Op::AddLocal(_, _) => (0, 0),
            Op::Pop | Op::SetResult | Op::JumpIfFalse(_) | Op::Return | Op::ForInPrep(_) => (1, 0),
            Op::Dup => (1, 2),
            Op::Swap => (2, 2),
            Op::Add
            | Op::Sub
            | Op::Mul
            | Op::Div
            | Op::Rem
            | Op::Eq
            | Op::Ne
            | Op::Lt
            | Op::Gt
            | Op::Le
            | Op::Ge
            | Op::GetIndex => (2, 1),
            Op::Not | Op::Neg | Op::UnaryPlus | Op::TypeOf | Op::Inc | Op::Dec => (1, 1),
            Op::GetMember(_) => (1, 1),
            // SetMember pops the object; the stored value stays pushed.
            Op::SetMember(_) => (2, 1),
            // SetIndex pops index and object; the value stays pushed.
            Op::SetIndex => (3, 1),
            Op::Call(n) | Op::CallMethod(_, n) => (n as usize + 1, 1),
            Op::MathCall(_, n) => (n as usize, 1),
            // Peeks require an operand but leave it in place.
            Op::JumpIfTruePeek(_) | Op::JumpIfFalsePeek(_) => (1, 1),
            Op::Jump(_) | Op::ReturnNull | Op::ReturnResult | Op::FlowErr(_) => (0, 0),
        }
    }

    /// The instruction this one can jump to.
    pub(crate) fn jump_target(self) -> Option<usize> {
        match self {
            Op::Jump(t)
            | Op::JumpIfFalse(t)
            | Op::JumpIfTruePeek(t)
            | Op::JumpIfFalsePeek(t)
            | Op::ForInNext(_, t) => Some(t as usize),
            _ => None,
        }
    }

    /// Control can continue at the next instruction: false for an
    /// unconditional jump and for what leaves the frame.
    pub(crate) fn falls_through(self) -> bool {
        !matches!(
            self,
            Op::Jump(_) | Op::Return | Op::ReturnNull | Op::ReturnResult | Op::FlowErr(_)
        )
    }
}

/// A named global-access site with a verified inline cache: the cached
/// root-environment slot is checked against the name on every use, so
/// a chunk shared across phones with differently-ordered globals stays
/// correct and the cache is a pure speedup.
#[derive(Debug)]
pub struct GlobalSite {
    pub name: Rc<str>,
    pub cache: Cell<u32>,
}

impl Clone for GlobalSite {
    /// A cloned site starts with a cold cache: the clone may be headed
    /// for a different interpreter (or a mutation-testing harness).
    fn clone(&self) -> Self {
        GlobalSite {
            name: self.name.clone(),
            cache: Cell::new(u32::MAX),
        }
    }
}

/// A named property-access site with an inline cache: the shape of the
/// last object the property was found in ([`crate::value::ObjMap`] keeps
/// one key list per layout) and the property's index there. A hit is one
/// address compare; the site holds that shape, so its address cannot
/// pass to another key list. The name is an interned key
/// ([`crate::value::intern`]), so the lookup that follows a miss usually
/// compares pointers too.
pub struct MemberSite {
    pub name: Rc<str>,
    /// The name is `length`, which an array answers without a lookup.
    pub(crate) is_length: bool,
    /// Address of the cached shape (0: none yet), the shape itself, held
    /// so that the address stays its own, and the property's index in it.
    addr: Cell<usize>,
    held: Cell<Option<Shape>>,
    idx: Cell<u32>,
}

impl MemberSite {
    /// A site for `name`, its cache cold.
    pub fn new(name: Rc<str>) -> Self {
        MemberSite {
            is_length: &*name == "length",
            name,
            addr: Cell::new(0),
            held: Cell::new(None),
            idx: Cell::new(0),
        }
    }

    /// Where `map` keeps this site's property, through the cache: an
    /// object of the shape the site saw last has it at the index it had
    /// then; any other is searched by name and becomes the cached one.
    pub(crate) fn index_in(&self, map: &ObjMap) -> Option<usize> {
        if self.addr.get() == map.shape_addr() {
            return Some(self.idx.get() as usize);
        }
        let idx = map.index_of(&self.name)?;
        self.held.set(Some(map.shape().clone()));
        self.addr.set(map.shape_addr());
        self.idx.set(idx as u32);
        Some(idx)
    }
}

impl std::fmt::Debug for MemberSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MemberSite({:?})", self.name)
    }
}

impl Clone for MemberSite {
    /// A cloned site starts with a cold cache (see [`GlobalSite`]).
    fn clone(&self) -> Self {
        MemberSite::new(self.name.clone())
    }
}

/// Where one candidate binding for a [`ChainInfo`] lives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ChainRef {
    /// A plain slot in the current frame.
    Local(u16),
    /// A cell slot in the current frame.
    CellSlot(u16),
    /// An upvalue of the running closure.
    Upval(u16),
    /// Fall through to the interpreter's global environment by name.
    Global,
}

/// Resolution chain for an identifier whose innermost binding may not
/// have executed yet: candidates are probed innermost-out and the
/// first *bound* one wins, reproducing the tree-walk scope chain.
#[derive(Debug, Clone)]
pub(crate) struct ChainInfo {
    pub name: Rc<str>,
    pub cands: Box<[ChainRef]>,
}

/// How a closure obtains one of its upvalues when it is created.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UpvalSrc {
    /// Share the cell in the creating frame's slot `i`.
    ParentCell(u16),
    /// Share upvalue `i` of the creating closure.
    ParentUpval(u16),
}

/// The instruction stream and side tables of one compiled function.
#[derive(Debug, Default, Clone)]
pub struct Chunk {
    pub ops: Vec<Op>,
    /// Source line per instruction (for error attribution).
    pub lines: Vec<u32>,
    pub consts: Vec<Value>,
    pub protos: Vec<Rc<FnProto>>,
    /// Key lists for object literals; the keys of one shape are
    /// distinct (`MakeObject` builds the map without looking).
    pub shapes: Vec<Rc<[Rc<str>]>>,
    pub globals: Vec<GlobalSite>,
    pub members: Vec<MemberSite>,
    pub(crate) chains: Vec<ChainInfo>,
    /// Frame slots this function needs (locals, cells, iterators).
    pub n_slots: u16,
    /// What the VM dispatches on: `ops` index by index, with the head of
    /// each recognised idiom fused ([`crate::quicken`]). Built by the
    /// compiler when the chunk is finished; a chunk put together any
    /// other way does not run.
    pub(crate) quick: Quick,
}

/// A compiled function: parameter placement, upvalue recipe, body.
#[derive(Debug, Clone)]
pub struct FnProto {
    pub name: Rc<str>,
    /// `(slot, is_cell)` per declared parameter, in order. Duplicate
    /// parameter names share a slot (last assignment wins, like the
    /// tree-walk's repeated `declare`).
    pub params: Vec<(u16, bool)>,
    pub upvals: Vec<UpvalSrc>,
    pub chunk: Chunk,
}

/// A whole compiled program: the top-level chunk plus bookkeeping the
/// host layers report as metrics.
#[derive(Debug)]
pub struct CompiledProgram {
    pub main: Rc<FnProto>,
    /// Total instructions across the main chunk and every nested
    /// prototype — a deterministic "how big is this script" metric.
    pub op_count: u64,
    /// Number of function prototypes (including `main`).
    pub fn_count: u32,
}

impl Chunk {
    /// Instructions in this chunk and, recursively, its prototypes.
    pub(crate) fn total_ops(&self) -> u64 {
        self.ops.len() as u64 + self.protos.iter().map(|p| p.chunk.total_ops()).sum::<u64>()
    }

    /// Prototypes in this chunk and, recursively, below it.
    pub(crate) fn total_fns(&self) -> u32 {
        self.protos
            .iter()
            .map(|p| 1 + p.chunk.total_fns())
            .sum::<u32>()
    }
}

// ---- disassembler ----------------------------------------------------------

/// Renders a compiled program as stable, diff-friendly text: one
/// section per function, one line per instruction, with operands
/// resolved against the side tables. `pogo-lint --dump-bytecode` and
/// the golden-file tests are built on this.
pub fn disassemble(program: &CompiledProgram) -> String {
    let mut out = String::new();
    disasm_proto(&program.main, "main", &mut out);
    out
}

fn disasm_proto(proto: &FnProto, label: &str, out: &mut String) {
    let c = &proto.chunk;
    let _ = writeln!(
        out,
        "== {label} (params {}, slots {}, upvals {}, consts {}) ==",
        proto.params.len(),
        c.n_slots,
        proto.upvals.len(),
        c.consts.len()
    );
    let mut last_line = u32::MAX;
    for (i, op) in c.ops.iter().enumerate() {
        let line = c.lines.get(i).copied().unwrap_or(0);
        let line_col = if line == last_line {
            "   |".to_owned()
        } else {
            last_line = line;
            format!("{line:4}")
        };
        let _ = writeln!(out, "{i:04} {line_col}  {}", render_op(c, *op));
    }
    for (pi, p) in c.protos.iter().enumerate() {
        let _ = writeln!(out);
        let sub = format!("{label}.fn{pi} {}", p.name);
        disasm_proto(p, &sub, out);
    }
}

fn render_op(c: &Chunk, op: Op) -> String {
    let global = |i: u16| -> String { format!("g{i} `{}`", c.globals[i as usize].name) };
    let member = |i: u16| -> String { format!("m{i} `{}`", c.members[i as usize].name) };
    match op {
        Op::Const(i) => {
            let v = &c.consts[i as usize];
            let shown = match v {
                Value::Str(s) => format!("{s:?}"),
                other => other.to_display_string(),
            };
            format!("Const        c{i} ; {shown}")
        }
        Op::PushNull => "PushNull".into(),
        Op::PushTrue => "PushTrue".into(),
        Op::PushFalse => "PushFalse".into(),
        Op::MakeArray(n) => format!("MakeArray    {n}"),
        Op::MakeObject(i) => {
            let keys = c.shapes[i as usize]
                .iter()
                .map(|k| k.as_ref())
                .collect::<Vec<_>>()
                .join(", ");
            format!("MakeObject   s{i} ; {{{keys}}}")
        }
        Op::MakeClosure(i) => format!("MakeClosure  p{i} ; {}", c.protos[i as usize].name),
        Op::LoadLocal(s) => format!("LoadLocal    {s}"),
        Op::StoreLocal(s) => format!("StoreLocal   {s}"),
        Op::DeclLocal(s) => format!("DeclLocal    {s}"),
        Op::AddLocal(s, d) => format!("AddLocal     {s} {d:+}"),
        Op::LoadCell(s) => format!("LoadCell     {s}"),
        Op::StoreCell(s) => format!("StoreCell    {s}"),
        Op::DeclCell(s) => format!("DeclCell     {s}"),
        Op::NewCell(s) => format!("NewCell      {s}"),
        Op::ClearSlot(s) => format!("ClearSlot    {s}"),
        Op::LoadUpval(u) => format!("LoadUpval    {u}"),
        Op::StoreUpval(u) => format!("StoreUpval   {u}"),
        Op::LoadGlobal(i) => format!("LoadGlobal   {}", global(i)),
        Op::StoreGlobal(i) => format!("StoreGlobal  {}", global(i)),
        Op::DeclGlobal(i) => format!("DeclGlobal   {}", global(i)),
        Op::LoadChain(i) => format!(
            "LoadChain    x{i} ; {}",
            render_chain(&c.chains[i as usize])
        ),
        Op::StoreChain(i) => {
            format!(
                "StoreChain   x{i} ; {}",
                render_chain(&c.chains[i as usize])
            )
        }
        Op::Pop => "Pop".into(),
        Op::Dup => "Dup".into(),
        Op::Swap => "Swap".into(),
        Op::SetResult => "SetResult".into(),
        Op::Add => "Add".into(),
        Op::Sub => "Sub".into(),
        Op::Mul => "Mul".into(),
        Op::Div => "Div".into(),
        Op::Rem => "Rem".into(),
        Op::Eq => "Eq".into(),
        Op::Ne => "Ne".into(),
        Op::Lt => "Lt".into(),
        Op::Gt => "Gt".into(),
        Op::Le => "Le".into(),
        Op::Ge => "Ge".into(),
        Op::Not => "Not".into(),
        Op::Neg => "Neg".into(),
        Op::UnaryPlus => "UnaryPlus".into(),
        Op::TypeOf => "TypeOf".into(),
        Op::Inc => "Inc".into(),
        Op::Dec => "Dec".into(),
        Op::GetMember(i) => format!("GetMember    {}", member(i)),
        Op::GetLocalMember(s, i) => format!("GetLocalMem  {s} {}", member(i)),
        Op::SetMember(i) => format!("SetMember    {}", member(i)),
        Op::GetIndex => "GetIndex".into(),
        Op::SetIndex => "SetIndex".into(),
        Op::Call(n) => format!("Call         argc {n}"),
        Op::CallMethod(i, n) => format!("CallMethod   {} argc {n}", member(i)),
        Op::MathCall(f, n) => format!(
            "MathCall     Math.{} argc {n}",
            crate::builtins::MATH_DISPATCH[f as usize].0
        ),
        Op::Jump(t) => format!("Jump         -> {t:04}"),
        Op::JumpIfFalse(t) => format!("JumpIfFalse  -> {t:04}"),
        Op::JumpIfTruePeek(t) => format!("JumpIfTrue&  -> {t:04}"),
        Op::JumpIfFalsePeek(t) => format!("JumpIfFalse& -> {t:04}"),
        Op::Return => "Return".into(),
        Op::ReturnNull => "ReturnNull".into(),
        Op::ReturnResult => "ReturnResult".into(),
        Op::ForInPrep(s) => format!("ForInPrep    iter {s}"),
        Op::ForInNext(s, t) => format!("ForInNext    iter {s} exit -> {t:04}"),
        Op::FlowErr(k) => format!("FlowErr      {}", if k == 0 { "break" } else { "continue" }),
    }
}

fn render_chain(chain: &ChainInfo) -> String {
    let cands = chain
        .cands
        .iter()
        .map(|c| match c {
            ChainRef::Local(s) => format!("local {s}"),
            ChainRef::CellSlot(s) => format!("cell {s}"),
            ChainRef::Upval(u) => format!("upval {u}"),
            ChainRef::Global => "global".to_owned(),
        })
        .collect::<Vec<_>>()
        .join(" -> ");
    format!("`{}` via {cands}", chain.name)
}

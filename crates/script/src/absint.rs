//! Abstract interpretation over compiled bytecode.
//!
//! This module walks a chunk's control-flow graph with a small
//! type/constancy/interval lattice ([`AbsVal`]) and produces two
//! things:
//!
//! * **Per-instruction abstract states** ([`Analysis`]) — what the
//!   operand stack and frame slots can hold at each reachable
//!   instruction. The cost model below reads them for loop trip
//!   counts, call targets and constant operands.
//! * **Static cost bounds per entry point** ([`analyze_costs`]) — for
//!   the on-load run and for every callback registered through
//!   `subscribe`/`setTimeout`, a lower and upper bound on the
//!   instruction-budget units one invocation can consume (VM steps
//!   plus bytes billed by size-producing natives) and on the number of
//!   `publish` calls per trigger. Loop trip counts are inferred where
//!   the guard compares a locally-updated counter against a constant;
//!   everything else is honestly reported as `unbounded`.
//!
//! The bounds feed the `P3xx` resource diagnostics
//! ([`cost_diagnostics`]): a callback whose *minimum* cost exceeds the
//! watchdog budget can never complete and is rejected at deploy time,
//! while unbounded or over-budget worst cases are surfaced as
//! warnings. Soundness direction matters everywhere: `min` bounds are
//! under-approximations (never larger than any real run), `max`
//! bounds are over-approximations (never smaller), so the deploy gate
//! can reject on `min > budget` without ever rejecting a script that
//! could have worked.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::rc::Rc;

use crate::bytecode::{ChainRef, Chunk, CompiledProgram, FnProto, Op};
use crate::diag::{Diagnostic, Rule};
use crate::value::Value;

// ---- control-flow graph ----------------------------------------------------

/// A maximal straight-line run of instructions.
#[derive(Debug, Clone)]
pub struct Block {
    /// First instruction index (inclusive).
    pub start: usize,
    /// One past the last instruction.
    pub end: usize,
    /// Successor block ids, in (fall-through, jump) order.
    pub succs: Vec<usize>,
}

/// Basic blocks of one chunk, ordered by start index.
#[derive(Debug, Clone)]
pub struct Cfg {
    pub blocks: Vec<Block>,
    /// Block id of each instruction.
    pub block_of: Vec<usize>,
}

fn jump_target(op: Op) -> Option<usize> {
    match op {
        Op::Jump(t)
        | Op::JumpIfFalse(t)
        | Op::JumpIfTruePeek(t)
        | Op::JumpIfFalsePeek(t)
        | Op::ForInNext(_, t) => Some(t as usize),
        _ => None,
    }
}

fn is_terminal(op: Op) -> bool {
    matches!(
        op,
        Op::Return | Op::ReturnNull | Op::ReturnResult | Op::FlowErr(_)
    )
}

/// Build the basic-block graph of a chunk. Works on unverified chunks
/// too: out-of-range jump targets are clamped to the stream end.
pub fn build_cfg(chunk: &Chunk) -> Cfg {
    let n = chunk.ops.len();
    let mut leader = vec![false; n.max(1)];
    if n > 0 {
        leader[0] = true;
    }
    for (ip, &op) in chunk.ops.iter().enumerate() {
        if let Some(t) = jump_target(op) {
            if t < n {
                leader[t] = true;
            }
            if ip + 1 < n {
                leader[ip + 1] = true;
            }
        } else if is_terminal(op) && ip + 1 < n {
            leader[ip + 1] = true;
        }
    }
    let mut blocks = Vec::new();
    let mut block_of = vec![0usize; n];
    for ip in 0..n {
        if leader[ip] {
            blocks.push(Block {
                start: ip,
                end: ip,
                succs: Vec::new(),
            });
        }
        let cur = blocks.len() - 1;
        block_of[ip] = cur;
        blocks[cur].end = ip + 1;
    }
    let nb = blocks.len();
    for b in 0..nb {
        let last = blocks[b].end - 1;
        let op = chunk.ops[last];
        let mut succs = Vec::new();
        match op {
            Op::Jump(t) => {
                if (t as usize) < n {
                    succs.push(block_of[t as usize]);
                }
            }
            _ if is_terminal(op) => {}
            _ => {
                if blocks[b].end < n {
                    succs.push(block_of[blocks[b].end]);
                }
                if let Some(t) = jump_target(op) {
                    if t < n {
                        let tb = block_of[t];
                        if !succs.contains(&tb) {
                            succs.push(tb);
                        }
                    }
                }
            }
        }
        blocks[b].succs = succs;
    }
    Cfg { blocks, block_of }
}

// ---- the lattice -----------------------------------------------------------

/// Abstract value: constancy, numeric intervals, or a type. `Num`
/// means "some number, possibly NaN; its non-NaN values lie in
/// `[lo, hi]`" — bounds are never NaN themselves. `Closure`/`Native`
/// only appear when the analysis runs with whole-program context.
#[derive(Debug, Clone, PartialEq)]
pub enum AbsVal {
    /// A known number, stored as bits so NaN compares equal to itself
    /// for fixpoint purposes.
    ConstNum(u64),
    ConstStr(Rc<str>),
    ConstBool(bool),
    ConstNull,
    Num {
        lo: f64,
        hi: f64,
    },
    Bool,
    Str,
    Array,
    Object,
    /// Some script function (opaque).
    Func,
    /// The closure of program-wide prototype `id` (see [`ProgramCtx`]).
    Closure(u32),
    /// A host native known by name (untouched global binding).
    Native(Rc<str>),
    Any,
    /// No value has flowed here yet: the identity of `join`. Only
    /// appears transiently, inside the global-value fixpoint of
    /// [`ProgramCtx::build`]; finished analyses never expose it.
    Bottom,
}

impl AbsVal {
    pub fn num(x: f64) -> AbsVal {
        AbsVal::ConstNum(x.to_bits())
    }

    pub fn num_any() -> AbsVal {
        AbsVal::Num {
            lo: f64::NEG_INFINITY,
            hi: f64::INFINITY,
        }
    }

    fn interval(lo: f64, hi: f64) -> AbsVal {
        if lo.is_nan() || hi.is_nan() {
            AbsVal::num_any()
        } else {
            AbsVal::Num { lo, hi }
        }
    }

    /// The numeric interval of a definitely-a-number value.
    pub fn as_interval(&self) -> Option<(f64, f64)> {
        match self {
            AbsVal::ConstNum(b) => {
                let x = f64::from_bits(*b);
                if x.is_nan() {
                    Some((f64::NEG_INFINITY, f64::INFINITY))
                } else {
                    Some((x, x))
                }
            }
            AbsVal::Num { lo, hi } => Some((*lo, *hi)),
            _ => None,
        }
    }

    fn is_numeric(&self) -> bool {
        matches!(self, AbsVal::ConstNum(_) | AbsVal::Num { .. })
    }

    /// Truthiness when statically known (matches `Value::is_truthy`).
    pub fn truthiness(&self) -> Option<bool> {
        match self {
            AbsVal::ConstNum(b) => {
                let x = f64::from_bits(*b);
                Some(x != 0.0 && !x.is_nan())
            }
            AbsVal::ConstStr(s) => Some(!s.is_empty()),
            AbsVal::ConstBool(b) => Some(*b),
            AbsVal::ConstNull => Some(false),
            // Arrays, objects, functions and natives are always truthy.
            AbsVal::Array | AbsVal::Object | AbsVal::Func | AbsVal::Closure(_) => Some(true),
            AbsVal::Native(_) => Some(true),
            _ => None,
        }
    }

    pub fn join(&self, other: &AbsVal) -> AbsVal {
        use AbsVal::*;
        if self == other {
            return self.clone();
        }
        match (self, other) {
            (Bottom, b) => b.clone(),
            (a, Bottom) => a.clone(),
            (a, b) if a.is_numeric() && b.is_numeric() => {
                let (al, ah) = a.as_interval().unwrap();
                let (bl, bh) = b.as_interval().unwrap();
                AbsVal::interval(al.min(bl), ah.max(bh))
            }
            (ConstStr(_) | Str, ConstStr(_) | Str) => Str,
            (ConstBool(_) | Bool, ConstBool(_) | Bool) => Bool,
            (Func | Closure(_), Func | Closure(_)) => Func,
            _ => Any,
        }
    }

    /// Join with widening: any interval bound the join moved gets
    /// pushed to infinity so counter loops reach a fixpoint fast.
    fn widen(&self, other: &AbsVal) -> AbsVal {
        let joined = self.join(other);
        if let (Some((al, ah)), Some((jl, jh))) = (self.as_interval(), joined.as_interval()) {
            if jl < al || jh > ah {
                let lo = if jl < al { f64::NEG_INFINITY } else { jl };
                let hi = if jh > ah { f64::INFINITY } else { jh };
                return AbsVal::interval(lo, hi);
            }
        }
        joined
    }
}

/// What a frame slot holds.
#[derive(Debug, Clone, PartialEq)]
pub enum SlotAbs {
    /// No binding yet (pre-declaration, or cleared on block re-entry).
    Empty,
    Val(AbsVal),
    /// A heap cell (captured variable); contents are opaque because
    /// closures can mutate them between any two instructions.
    Cell,
    /// A for-in key iterator.
    Iter,
    /// Unknown binding state.
    Top,
}

impl SlotAbs {
    fn join(&self, other: &SlotAbs) -> SlotAbs {
        use SlotAbs::*;
        match (self, other) {
            (a, b) if a == b => a.clone(),
            (Val(a), Val(b)) => Val(a.join(b)),
            _ => Top,
        }
    }

    fn widen(&self, other: &SlotAbs) -> SlotAbs {
        use SlotAbs::*;
        match (self, other) {
            (Val(a), Val(b)) => Val(a.widen(b)),
            _ => self.join(other),
        }
    }
}

/// Abstract machine state at one program point.
#[derive(Debug, Clone, PartialEq)]
pub struct State {
    pub stack: Vec<AbsVal>,
    pub slots: Vec<SlotAbs>,
}

impl State {
    fn entry(chunk: &Chunk, params: &[(u16, bool)]) -> State {
        let mut slots = vec![SlotAbs::Empty; chunk.n_slots as usize];
        for &(slot, is_cell) in params {
            slots[slot as usize] = if is_cell {
                SlotAbs::Cell
            } else {
                SlotAbs::Val(AbsVal::Any)
            };
        }
        State {
            stack: Vec::new(),
            slots,
        }
    }

    /// Join `other` into `self`; returns whether anything changed.
    /// Verified chunks guarantee equal stack depths at joins; if they
    /// differ anyway (unverified input) the shorter prefix wins.
    fn join_from(&mut self, other: &State, widen: bool) -> bool {
        let mut changed = false;
        if self.stack.len() != other.stack.len() {
            self.stack.truncate(other.stack.len().min(self.stack.len()));
        }
        for (a, b) in self.stack.iter_mut().zip(&other.stack) {
            let j = if widen { a.widen(b) } else { a.join(b) };
            if *a != j {
                *a = j;
                changed = true;
            }
        }
        for (a, b) in self.slots.iter_mut().zip(&other.slots) {
            let j = if widen { a.widen(b) } else { a.join(b) };
            if *a != j {
                *a = j;
                changed = true;
            }
        }
        changed
    }
}

// ---- whole-program context -------------------------------------------------

/// Names the embedder registers as natives (the Pogo API of `host.rs`
/// plus the language builtins). A global read of one of these — when
/// no script declaration shadows it — is abstracted as
/// [`AbsVal::Native`], which is what lets the analyzer recognize
/// `subscribe`/`setTimeout` registrations and cost `publish` calls.
pub const KNOWN_NATIVES: &[&str] = &[
    "setDescription",
    "setAutoStart",
    "print",
    "log",
    "logTo",
    "publish",
    "subscribe",
    "freeze",
    "thaw",
    "json",
    "setTimeout",
    "geolocate",
    "keys",
    "Number",
    "String",
    "isNaN",
    "parseFloat",
];

enum GlobalBinding {
    /// `function f(..)` at top level, never reassigned anywhere.
    Closure(u32),
    /// Declared or assigned by the script in a way we cannot track.
    Opaque,
}

/// Whole-program facts: a flat prototype numbering and the provable
/// global bindings. Built once per [`CompiledProgram`].
pub struct ProgramCtx {
    protos: Vec<Rc<FnProto>>,
    ids: HashMap<usize, u32>,
    globals: HashMap<Rc<str>, GlobalBinding>,
    /// Flow-insensitive abstract value of every global the script
    /// itself stores to: the join of everything any store site can
    /// write, iterated to fixpoint. Assumes the host does not inject
    /// values into script-declared globals (it registers natives under
    /// names scripts don't shadow), which is how `pogo-core` behaves.
    global_vals: HashMap<Rc<str>, AbsVal>,
}

impl ProgramCtx {
    pub fn build(program: &CompiledProgram) -> ProgramCtx {
        let mut ctx = ProgramCtx {
            protos: Vec::new(),
            ids: HashMap::new(),
            globals: HashMap::new(),
            global_vals: HashMap::new(),
        };
        ctx.number(&program.main);
        // Global bindings: a MakeClosure immediately followed by
        // DeclGlobal is a top-level `function` declaration. Any other
        // global declaration/store (or a store through a chain whose
        // fallback is the global scope) makes the name opaque.
        for id in 0..ctx.protos.len() {
            let proto = ctx.protos[id].clone();
            let chunk = &proto.chunk;
            for (ip, &op) in chunk.ops.iter().enumerate() {
                match op {
                    Op::DeclGlobal(g) => {
                        let name = chunk.globals[g as usize].name.clone();
                        let bound = match (ip.checked_sub(1).map(|p| chunk.ops[p]), id) {
                            (Some(Op::MakeClosure(p)), 0) => {
                                let child = &chunk.protos[p as usize];
                                Some(ctx.ids[&(Rc::as_ptr(child) as usize)])
                            }
                            _ => None,
                        };
                        ctx.globals
                            .entry(name)
                            .and_modify(|b| *b = GlobalBinding::Opaque)
                            .or_insert(match bound {
                                Some(pid) => GlobalBinding::Closure(pid),
                                None => GlobalBinding::Opaque,
                            });
                    }
                    Op::StoreGlobal(g) => {
                        let name = chunk.globals[g as usize].name.clone();
                        ctx.globals.insert(name, GlobalBinding::Opaque);
                    }
                    Op::StoreChain(c) => {
                        let chain = &chunk.chains[c as usize];
                        if chain.cands.iter().any(|r| matches!(r, ChainRef::Global)) {
                            ctx.globals
                                .insert(chain.name.clone(), GlobalBinding::Opaque);
                        }
                    }
                    _ => {}
                }
            }
        }
        ctx.solve_global_values();
        ctx
    }

    /// Kleene iteration for [`ProgramCtx::global_vals`]: start every
    /// stored-to global at `Bottom`, re-analyze each function under
    /// the current assumption, join what every store site writes, and
    /// repeat (with widening from round three) until stable. If the
    /// cap trips, everything degrades to `Any` — never unsound, only
    /// imprecise.
    fn solve_global_values(&mut self) {
        const MAX_ROUNDS: usize = 8;
        // Seed: every global with at least one in-script store site.
        for proto in &self.protos {
            let chunk = &proto.chunk;
            for &op in &chunk.ops {
                match op {
                    Op::DeclGlobal(g) | Op::StoreGlobal(g) => {
                        self.global_vals
                            .insert(chunk.globals[g as usize].name.clone(), AbsVal::Bottom);
                    }
                    Op::StoreChain(c) => {
                        let chain = &chunk.chains[c as usize];
                        if chain.cands.iter().any(|r| matches!(r, ChainRef::Global)) {
                            self.global_vals.insert(chain.name.clone(), AbsVal::Bottom);
                        }
                    }
                    _ => {}
                }
            }
        }
        if self.global_vals.is_empty() {
            return;
        }
        let mut converged = false;
        for round in 0..MAX_ROUNDS {
            let mut next: HashMap<Rc<str>, AbsVal> = self
                .global_vals
                .keys()
                .map(|k| (k.clone(), AbsVal::Bottom))
                .collect();
            for proto in self.protos.clone() {
                let chunk = &proto.chunk;
                let analysis = analyze_chunk(chunk, &proto.params, self);
                for (ip, &op) in chunk.ops.iter().enumerate() {
                    let name = match op {
                        Op::DeclGlobal(g) | Op::StoreGlobal(g) => {
                            chunk.globals[g as usize].name.clone()
                        }
                        Op::StoreChain(c) => {
                            let chain = &chunk.chains[c as usize];
                            if !chain.cands.iter().any(|r| matches!(r, ChainRef::Global)) {
                                continue;
                            }
                            chain.name.clone()
                        }
                        _ => continue,
                    };
                    // All three ops take the stored value from the top
                    // of the stack at entry.
                    let stored = match &analysis.in_states[ip] {
                        Some(st) => st.stack.last().cloned().unwrap_or(AbsVal::Any),
                        None => continue, // store never reached
                    };
                    next.entry(name).and_modify(|v| *v = v.join(&stored));
                }
            }
            if round >= 2 {
                for (k, v) in &mut next {
                    *v = self.global_vals[k].widen(v);
                }
            }
            if next == self.global_vals {
                converged = true;
                break;
            }
            self.global_vals = next;
        }
        for v in self.global_vals.values_mut() {
            // Residual Bottom = the only stores are self-referential
            // (dead at runtime); unconverged = give up precision.
            if !converged || matches!(v, AbsVal::Bottom) {
                *v = AbsVal::Any;
            }
        }
    }

    fn number(&mut self, proto: &Rc<FnProto>) {
        let id = self.protos.len() as u32;
        self.ids.insert(Rc::as_ptr(proto) as usize, id);
        self.protos.push(proto.clone());
        for p in &proto.chunk.protos {
            self.number(p);
        }
    }

    pub fn proto(&self, id: u32) -> &Rc<FnProto> {
        &self.protos[id as usize]
    }

    pub fn proto_count(&self) -> usize {
        self.protos.len()
    }

    /// Abstract value of a global read by name.
    fn global_abs(&self, name: &str) -> AbsVal {
        match self.globals.get(name) {
            Some(GlobalBinding::Closure(id)) => AbsVal::Closure(*id),
            Some(GlobalBinding::Opaque) => match self.global_vals.get(name) {
                Some(v) => v.clone(),
                None => AbsVal::Any,
            },
            None if KNOWN_NATIVES.contains(&name) => AbsVal::Native(Rc::from(name)),
            None => AbsVal::Any,
        }
    }
}

// ---- the abstract interpreter ----------------------------------------------

/// Fixpoint result over one chunk: the CFG plus the abstract state at
/// the entry of every reachable instruction (`None` = unreachable).
pub struct Analysis {
    pub cfg: Cfg,
    pub in_states: Vec<Option<State>>,
}

/// Block visits before widening kicks in.
const WIDEN_AFTER: u32 = 8;

/// Run the abstract interpreter to fixpoint over one chunk.
pub fn analyze_chunk(chunk: &Chunk, params: &[(u16, bool)], ctx: &ProgramCtx) -> Analysis {
    let cfg = build_cfg(chunk);
    let nb = cfg.blocks.len();
    let mut in_states = vec![None; chunk.ops.len()];
    if chunk.ops.is_empty() {
        return Analysis { cfg, in_states };
    }
    let mut entry: Vec<Option<State>> = vec![None; nb];
    let mut visits = vec![0u32; nb];
    entry[0] = Some(State::entry(chunk, params));
    let mut work: Vec<usize> = vec![0];
    let mut rounds = 0usize;
    // Hard backstop: the widening lattice is finite so this always
    // converges, but a bound keeps a pathological chunk cheap.
    let max_rounds = 64 * nb.max(1) + 256;
    while let Some(b) = work.pop() {
        rounds += 1;
        if rounds > max_rounds {
            break;
        }
        visits[b] += 1;
        let mut st = entry[b].clone().expect("queued blocks have a state");
        let block = cfg.blocks[b].clone();
        let mut flows: Vec<(usize, State)> = Vec::new();
        let mut fell_off = true;
        for ip in block.start..block.end {
            let op = chunk.ops[ip];
            match step(&mut st, op, chunk, ctx) {
                Flow::Fall => {}
                Flow::Jump(t) => {
                    flows.push((cfg.block_of[t.min(chunk.ops.len() - 1)], st.clone()));
                    fell_off = false;
                    break;
                }
                Flow::Branch(t) => {
                    flows.push((cfg.block_of[t.min(chunk.ops.len() - 1)], st.clone()));
                    // Fall-through continues with the same state.
                }
                Flow::ForIn(t) => {
                    flows.push((cfg.block_of[t.min(chunk.ops.len() - 1)], st.clone()));
                    // Fall-through additionally holds the next key.
                    st.stack.push(AbsVal::Any);
                }
                Flow::End => {
                    fell_off = false;
                    break;
                }
            }
        }
        if fell_off && block.end < chunk.ops.len() {
            flows.push((cfg.block_of[block.end], st));
        }
        for (succ, fs) in flows {
            let widen = visits[succ] >= WIDEN_AFTER;
            let changed = match &mut entry[succ] {
                Some(cur) => cur.join_from(&fs, widen),
                slot @ None => {
                    *slot = Some(fs);
                    true
                }
            };
            if changed && !work.contains(&succ) {
                work.push(succ);
            }
        }
    }
    // Final pass: record converged per-instruction entry states.
    for (b, entry_st) in entry.iter().enumerate().take(nb) {
        let Some(st) = entry_st else { continue };
        let mut st = st.clone();
        let block = &cfg.blocks[b];
        for (ip, in_state) in in_states
            .iter_mut()
            .enumerate()
            .take(block.end)
            .skip(block.start)
        {
            *in_state = Some(st.clone());
            let op = chunk.ops[ip];
            match step(&mut st, op, chunk, ctx) {
                Flow::Jump(_) | Flow::End => break,
                Flow::ForIn(_) => {
                    st.stack.push(AbsVal::Any);
                }
                _ => {}
            }
        }
    }
    Analysis { cfg, in_states }
}

enum Flow {
    Fall,
    Jump(usize),
    Branch(usize),
    ForIn(usize),
    End,
}

fn abs_of_value(v: &Value) -> AbsVal {
    match v {
        Value::Num(n) => AbsVal::num(*n),
        Value::Str(s) => AbsVal::ConstStr(s.clone()),
        Value::Bool(b) => AbsVal::ConstBool(*b),
        Value::Null => AbsVal::ConstNull,
        _ => AbsVal::Any,
    }
}

/// Abstract binary arithmetic. Numeric facts are tracked precisely;
/// of strings, only constant + constant keeps its value (the cost
/// model needs the byte length concatenation charges), the rest stay
/// at the type level.
fn binop(op: Op, a: &AbsVal, b: &AbsVal) -> AbsVal {
    use AbsVal::*;
    // Bottom-strict: an operation on a not-yet-flowed value produces
    // nothing. This is what lets the global-value fixpoint prove that
    // `s = s + 1` keeps a number-initialized `s` numeric.
    if matches!(a, Bottom) || matches!(b, Bottom) {
        return Bottom;
    }
    match op {
        Op::Add => match (a.as_interval(), b.as_interval()) {
            (Some(_), Some(_)) => match (a, b) {
                (ConstNum(x), ConstNum(y)) => AbsVal::num(f64::from_bits(*x) + f64::from_bits(*y)),
                _ => {
                    let (al, ah) = a.as_interval().unwrap();
                    let (bl, bh) = b.as_interval().unwrap();
                    AbsVal::interval(al + bl, ah + bh)
                }
            },
            _ => match (a, b) {
                // Constant concatenation stays constant — the VM does
                // exactly this append, and keeping the value const is
                // what lets chained literal concats (`'a' + '-' + 'b'`)
                // keep an exact byte charge instead of degrading to
                // "some string" after the first `+`.
                (ConstStr(x), ConstStr(y)) => ConstStr(format!("{x}{y}").into()),
                _ if matches!(a, ConstStr(_) | Str) || matches!(b, ConstStr(_) | Str) => {
                    // At least one side may be a string: the result is
                    // a string if either side definitely is.
                    Str
                }
                _ => Any,
            },
        },
        Op::Sub | Op::Mul | Op::Div | Op::Rem => match (a, b) {
            (ConstNum(x), ConstNum(y)) => {
                let (x, y) = (f64::from_bits(*x), f64::from_bits(*y));
                AbsVal::num(match op {
                    Op::Sub => x - y,
                    Op::Mul => x * y,
                    Op::Div => x / y,
                    _ => x % y,
                })
            }
            _ if a.is_numeric() && b.is_numeric() => match op {
                Op::Sub => {
                    let (al, ah) = a.as_interval().unwrap();
                    let (bl, bh) = b.as_interval().unwrap();
                    AbsVal::interval(al - bh, ah - bl)
                }
                // Mul/Div/Rem intervals are easy to get subtly wrong
                // around zeros and infinities; "some number" is enough.
                _ => AbsVal::num_any(),
            },
            _ => Any,
        },
        Op::Eq | Op::Ne => {
            let eq = match (a, b) {
                (ConstNum(x), ConstNum(y)) => Some(f64::from_bits(*x) == f64::from_bits(*y)),
                (ConstStr(x), ConstStr(y)) => Some(x == y),
                (ConstBool(x), ConstBool(y)) => Some(x == y),
                (ConstNull, ConstNull) => Some(true),
                // Distinct known kinds: strict equality is false.
                (ConstNum(_) | ConstStr(_) | ConstBool(_) | ConstNull, _)
                    if is_distinct_const_kind(a, b) =>
                {
                    Some(false)
                }
                _ => None,
            };
            match eq {
                Some(e) => ConstBool(if matches!(op, Op::Eq) { e } else { !e }),
                None => Bool,
            }
        }
        Op::Lt | Op::Gt | Op::Le | Op::Ge => match (a, b) {
            (ConstNum(x), ConstNum(y)) => {
                let (x, y) = (f64::from_bits(*x), f64::from_bits(*y));
                ConstBool(match op {
                    Op::Lt => x < y,
                    Op::Gt => x > y,
                    Op::Le => x <= y,
                    _ => x >= y,
                })
            }
            _ => Bool,
        },
        _ => Any,
    }
}

/// Both are known constants of provably different runtime types.
fn is_distinct_const_kind(a: &AbsVal, b: &AbsVal) -> bool {
    use AbsVal::*;
    let kind = |v: &AbsVal| match v {
        ConstNum(_) => Some(0),
        ConstStr(_) => Some(1),
        ConstBool(_) => Some(2),
        ConstNull => Some(3),
        _ => None,
    };
    matches!((kind(a), kind(b)), (Some(x), Some(y)) if x != y)
}

/// `v + d` for `++`/`--` (`Inc`/`Dec` on the stack, `AddLocal` in a
/// slot): a number moves by `d`, anything else faults at runtime.
fn shifted(v: &AbsVal, d: f64) -> AbsVal {
    match (v, v.as_interval()) {
        (AbsVal::ConstNum(b), _) => AbsVal::num(f64::from_bits(*b) + d),
        (_, Some((lo, hi))) => AbsVal::interval(lo + d, hi + d),
        (_, None) => AbsVal::Any,
    }
}

/// Apply one instruction to `st`. Underflows push/return `Any`
/// defensively — this runs on verifier-approved chunks in production,
/// but lint tooling may walk arbitrary input.
fn step(st: &mut State, op: Op, chunk: &Chunk, ctx: &ProgramCtx) -> Flow {
    let pop = |st: &mut State| st.stack.pop().unwrap_or(AbsVal::Any);
    match op {
        Op::Const(i) => st.stack.push(abs_of_value(&chunk.consts[i as usize])),
        Op::PushNull => st.stack.push(AbsVal::ConstNull),
        Op::PushTrue => st.stack.push(AbsVal::ConstBool(true)),
        Op::PushFalse => st.stack.push(AbsVal::ConstBool(false)),
        Op::MakeArray(n) => {
            for _ in 0..n {
                pop(st);
            }
            st.stack.push(AbsVal::Array);
        }
        Op::MakeObject(i) => {
            for _ in 0..chunk.shapes[i as usize].len() {
                pop(st);
            }
            st.stack.push(AbsVal::Object);
        }
        Op::MakeClosure(i) => {
            let child = &chunk.protos[i as usize];
            let v = match ctx.ids.get(&(Rc::as_ptr(child) as usize)) {
                Some(&id) => AbsVal::Closure(id),
                None => AbsVal::Func,
            };
            st.stack.push(v);
        }
        Op::LoadLocal(s) => {
            let v = match &st.slots[s as usize] {
                SlotAbs::Val(v) => v.clone(),
                _ => AbsVal::Any,
            };
            st.stack.push(v);
        }
        Op::StoreLocal(s) => {
            let v = st.stack.last().cloned().unwrap_or(AbsVal::Any);
            st.slots[s as usize] = SlotAbs::Val(v);
        }
        Op::DeclLocal(s) => {
            let v = pop(st);
            st.slots[s as usize] = SlotAbs::Val(v);
        }
        Op::AddLocal(s, d) => {
            if let SlotAbs::Val(v) = &st.slots[s as usize] {
                st.slots[s as usize] = SlotAbs::Val(shifted(v, f64::from(d)));
            }
        }
        Op::LoadCell(_) | Op::LoadUpval(_) => st.stack.push(AbsVal::Any),
        Op::StoreCell(_) | Op::StoreUpval(_) => {}
        Op::DeclCell(s) => {
            pop(st);
            st.slots[s as usize] = SlotAbs::Cell;
        }
        Op::NewCell(s) => st.slots[s as usize] = SlotAbs::Cell,
        Op::ClearSlot(s) => st.slots[s as usize] = SlotAbs::Empty,
        Op::LoadGlobal(g) => {
            st.stack
                .push(ctx.global_abs(&chunk.globals[g as usize].name));
        }
        Op::StoreGlobal(_) => {}
        Op::DeclGlobal(_) => {
            pop(st);
        }
        Op::LoadChain(c) => {
            // Only a pure-global chain is predictable; frame/cell
            // candidates depend on runtime binding order.
            let chain = &chunk.chains[c as usize];
            let v = match chain.cands.as_ref() {
                [ChainRef::Global] => ctx.global_abs(&chain.name),
                _ => AbsVal::Any,
            };
            st.stack.push(v);
        }
        Op::StoreChain(c) => {
            // The store lands in the innermost *bound* candidate; any
            // local-slot candidate may receive it (weak update).
            let v = st.stack.last().cloned().unwrap_or(AbsVal::Any);
            let chain = &chunk.chains[c as usize];
            for cand in chain.cands.iter() {
                if let ChainRef::Local(s) = cand {
                    let cur = st.slots[*s as usize].clone();
                    st.slots[*s as usize] = cur.join(&SlotAbs::Val(v.clone()));
                }
            }
        }
        Op::Pop | Op::SetResult => {
            pop(st);
        }
        Op::Dup => {
            let v = st.stack.last().cloned().unwrap_or(AbsVal::Any);
            st.stack.push(v);
        }
        Op::Swap => {
            let n = st.stack.len();
            if n >= 2 {
                st.stack.swap(n - 1, n - 2);
            }
        }
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
        | Op::Ge => {
            let b = pop(st);
            let a = pop(st);
            st.stack.push(binop(op, &a, &b));
        }
        Op::Not => {
            let v = pop(st);
            st.stack.push(match v.truthiness() {
                Some(t) => AbsVal::ConstBool(!t),
                None => AbsVal::Bool,
            });
        }
        Op::Neg | Op::UnaryPlus | Op::Inc | Op::Dec => {
            let v = pop(st);
            let out = match (op, v.as_interval()) {
                (Op::Inc, _) => shifted(&v, 1.0),
                (Op::Dec, _) => shifted(&v, -1.0),
                (_, None) => AbsVal::Any,
                (Op::UnaryPlus, Some(_)) => v,
                (_, Some((lo, hi))) => match v {
                    AbsVal::ConstNum(b) => AbsVal::num(-f64::from_bits(b)),
                    _ => AbsVal::interval(-hi, -lo),
                },
            };
            st.stack.push(out);
        }
        Op::TypeOf => {
            pop(st);
            st.stack.push(AbsVal::Str);
        }
        Op::GetMember(_) => {
            pop(st);
            st.stack.push(AbsVal::Any);
        }
        Op::GetLocalMember(_, _) => st.stack.push(AbsVal::Any),
        Op::SetMember(_) => {
            // Pops the object; the stored value stays on the stack.
            pop(st);
        }
        Op::GetIndex => {
            pop(st);
            pop(st);
            st.stack.push(AbsVal::Any);
        }
        Op::SetIndex => {
            // Pops index and object; the value stays on the stack.
            pop(st);
            pop(st);
        }
        Op::Call(n) => {
            for _ in 0..=n {
                pop(st);
            }
            st.stack.push(AbsVal::Any);
        }
        Op::CallMethod(_, n) => {
            for _ in 0..=n {
                pop(st);
            }
            st.stack.push(AbsVal::Any);
        }
        Op::MathCall(_, n) => {
            for _ in 0..n {
                pop(st);
            }
            st.stack.push(AbsVal::num_any());
        }
        Op::Jump(t) => return Flow::Jump(t as usize),
        Op::JumpIfFalse(t) => {
            pop(st);
            return Flow::Branch(t as usize);
        }
        Op::JumpIfTruePeek(t) | Op::JumpIfFalsePeek(t) => {
            return Flow::Branch(t as usize);
        }
        Op::Return => {
            pop(st);
            return Flow::End;
        }
        Op::ReturnNull | Op::ReturnResult | Op::FlowErr(_) => return Flow::End,
        Op::ForInPrep(s) => {
            pop(st);
            st.slots[s as usize] = SlotAbs::Iter;
        }
        Op::ForInNext(_, t) => return Flow::ForIn(t as usize),
    }
    Flow::Fall
}

// ---- cost bounds -----------------------------------------------------------

/// Upper bound of a cost dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Max {
    Finite(u64),
    Unbounded,
}

impl Max {
    fn add(self, other: Max) -> Max {
        match (self, other) {
            (Max::Finite(a), Max::Finite(b)) => Max::Finite(a.saturating_add(b)),
            _ => Max::Unbounded,
        }
    }

    fn mul(self, k: Max) -> Max {
        match (self, k) {
            (Max::Finite(0), _) | (_, Max::Finite(0)) => Max::Finite(0),
            (Max::Finite(a), Max::Finite(b)) => Max::Finite(a.saturating_mul(b)),
            _ => Max::Unbounded,
        }
    }

    fn join(self, other: Max) -> Max {
        match (self, other) {
            (Max::Finite(a), Max::Finite(b)) => Max::Finite(a.max(b)),
            _ => Max::Unbounded,
        }
    }

    pub fn exceeds(self, budget: u64) -> bool {
        match self {
            Max::Finite(x) => x > budget,
            Max::Unbounded => true,
        }
    }
}

impl fmt::Display for Max {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Max::Finite(x) => write!(f, "{x}"),
            Max::Unbounded => write!(f, "unbounded"),
        }
    }
}

/// `[min, max]` bound on one cost dimension. `min` is a guaranteed
/// lower bound over every completing execution; `max` an upper bound
/// over all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bound {
    pub min: u64,
    pub max: Max,
}

impl Bound {
    pub const ZERO: Bound = Bound {
        min: 0,
        max: Max::Finite(0),
    };

    pub fn exact(x: u64) -> Bound {
        Bound {
            min: x,
            max: Max::Finite(x),
        }
    }

    pub fn at_most(x: u64) -> Bound {
        Bound {
            min: 0,
            max: Max::Finite(x),
        }
    }

    pub const UNBOUNDED: Bound = Bound {
        min: 0,
        max: Max::Unbounded,
    };

    fn add(self, other: Bound) -> Bound {
        Bound {
            min: self.min.saturating_add(other.min),
            max: self.max.add(other.max),
        }
    }

    /// Join over alternative paths.
    fn join(self, other: Bound) -> Bound {
        Bound {
            min: self.min.min(other.min),
            max: self.max.join(other.max),
        }
    }

    fn scale(self, trips_min: u64, trips_max: Max) -> Bound {
        Bound {
            min: self.min.saturating_mul(trips_min),
            max: self.max.mul(trips_max),
        }
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.min, self.max)
    }
}

/// Static cost of one code region or entry point, in the three
/// currencies the runtime meters: VM instruction steps, bytes billed
/// through `Interpreter::charge` (string building, size-producing
/// natives), and `publish` calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cost {
    pub steps: Bound,
    pub charge: Bound,
    pub publishes: Bound,
}

impl Cost {
    pub const ZERO: Cost = Cost {
        steps: Bound::ZERO,
        charge: Bound::ZERO,
        publishes: Bound::ZERO,
    };

    /// One VM instruction.
    fn step() -> Cost {
        Cost {
            steps: Bound::exact(1),
            ..Cost::ZERO
        }
    }

    /// A call we can say nothing about.
    fn unknown_call() -> Cost {
        Cost {
            steps: Bound::UNBOUNDED,
            charge: Bound::UNBOUNDED,
            publishes: Bound::UNBOUNDED,
        }
    }

    fn add(self, o: Cost) -> Cost {
        Cost {
            steps: self.steps.add(o.steps),
            charge: self.charge.add(o.charge),
            publishes: self.publishes.add(o.publishes),
        }
    }

    fn join(self, o: Cost) -> Cost {
        Cost {
            steps: self.steps.join(o.steps),
            charge: self.charge.join(o.charge),
            publishes: self.publishes.join(o.publishes),
        }
    }

    fn scale(self, trips_min: u64, trips_max: Max) -> Cost {
        Cost {
            steps: self.steps.scale(trips_min, trips_max),
            charge: self.charge.scale(trips_min, trips_max),
            publishes: self.publishes.scale(trips_min, trips_max),
        }
    }

    /// Budget units one invocation is guaranteed to consume (steps and
    /// charged bytes bill the same watchdog counter).
    pub fn budget_min(&self) -> u64 {
        self.steps.min.saturating_add(self.charge.min)
    }

    /// Upper bound on billed budget units.
    pub fn budget_max(&self) -> Max {
        self.steps.max.add(self.charge.max)
    }
}

// ---- loop structure --------------------------------------------------------

/// A natural-loop interval of basic blocks: `header..=last`, where
/// every back-edge targets `header`. The compiler's structured
/// codegen guarantees loops form properly nested intervals.
#[derive(Debug, Clone)]
pub struct LoopRegion {
    pub header: usize,
    pub last: usize,
    pub children: Vec<LoopRegion>,
}

/// Find loop intervals and nest them. Returns `None` when intervals
/// cross (never for compiler output — a bailout for mutated chunks).
pub fn find_loops(cfg: &Cfg) -> Option<Vec<LoopRegion>> {
    let mut by_header: HashMap<usize, usize> = HashMap::new();
    for (b, block) in cfg.blocks.iter().enumerate() {
        for &s in &block.succs {
            if s <= b {
                let last = by_header.entry(s).or_insert(b);
                *last = (*last).max(b);
            }
        }
    }
    let mut loops: Vec<(usize, usize)> = by_header.into_iter().collect();
    // Outermost-first: earlier header, then wider interval.
    loops.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
    let mut roots: Vec<LoopRegion> = Vec::new();
    let mut stack: Vec<LoopRegion> = Vec::new();
    for (header, last) in loops {
        let region = LoopRegion {
            header,
            last,
            children: Vec::new(),
        };
        while let Some(top) = stack.last() {
            if top.last < header {
                let done = stack.pop().unwrap();
                match stack.last_mut() {
                    Some(parent) => parent.children.push(done),
                    None => roots.push(done),
                }
            } else {
                break;
            }
        }
        if let Some(top) = stack.last() {
            if last > top.last {
                return None; // crossing intervals
            }
        }
        stack.push(region);
    }
    while let Some(done) = stack.pop() {
        match stack.last_mut() {
            Some(parent) => parent.children.push(done),
            None => roots.push(done),
        }
    }
    Some(roots)
}

/// Statically inferred trip counts of one loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Trips {
    /// Guaranteed iterations (0 when the loop can break out early or
    /// the entry value is not exact).
    pub min: u64,
    /// `None` = no static bound.
    pub max: Option<u64>,
}

fn flip_cmp(op: Op) -> Op {
    match op {
        Op::Lt => Op::Gt,
        Op::Gt => Op::Lt,
        Op::Le => Op::Ge,
        Op::Ge => Op::Le,
        other => other,
    }
}

/// Iterations of a counter loop `while (i cmp limit) { ...; i += d }`
/// entered with `i = init`. Returns `None` on non-termination or
/// ill-conditioned arithmetic.
fn counted_trips(cmp: Op, init: f64, limit: f64, d: f64) -> Option<u64> {
    if !init.is_finite() || !limit.is_finite() || !d.is_finite() || d == 0.0 {
        return None;
    }
    let t = match cmp {
        Op::Lt if d > 0.0 => {
            if init >= limit {
                0.0
            } else {
                ((limit - init) / d).ceil()
            }
        }
        Op::Le if d > 0.0 => {
            if init > limit {
                0.0
            } else {
                ((limit - init) / d).floor() + 1.0
            }
        }
        Op::Gt if d < 0.0 => {
            if init <= limit {
                0.0
            } else {
                ((init - limit) / -d).ceil()
            }
        }
        Op::Ge if d < 0.0 => {
            if init < limit {
                0.0
            } else {
                ((init - limit) / -d).floor() + 1.0
            }
        }
        _ => return None, // wrong direction: loop cannot terminate
    };
    if t.is_finite() && (0.0..=1e15).contains(&t) {
        Some(t as u64)
    } else {
        None
    }
}

/// Infer trip bounds for one loop region by pattern-matching the
/// compiler's counter-loop shape:
///
/// * the header block starts `LoadLocal(i); Const(k); <cmp>;
///   JumpIfFalse(exit)` (or the reversed operand order) with `k` a
///   numeric constant and `exit` beyond the region;
/// * the only write to `i` inside the region is a single unconditional
///   `±const` update — an `AddLocal` (`i++`, `--i`), which carries its
///   delta, or a store of `i ± c` (`i += c`, `i = i + c`) — `i` is not
///   captured/cleared/iterated, and no resolution chain inside the
///   region can store to its slot.
///
/// The entry value comes from the abstract interval at the header
/// (`max` side — the interval's stable bound survives widening) and,
/// for the `min` side, from an exact syntactic initializer directly
/// before the loop. Everything else returns `max: None`.
fn loop_trips(chunk: &Chunk, facts: &Analysis, region: &LoopRegion) -> (Trips, bool) {
    let cfg = &facts.cfg;
    let op_lo = cfg.blocks[region.header].start;
    let op_hi = cfg.blocks[region.last].end;
    let none = Trips { min: 0, max: None };

    // Exit shape: which blocks leave the region?
    let mut exit_sources: Vec<usize> = Vec::new();
    for b in region.header..=region.last {
        let block = &cfg.blocks[b];
        if block
            .succs
            .iter()
            .any(|&s| s < region.header || s > region.last)
            || block.succs.is_empty()
        {
            exit_sources.push(b);
        }
    }
    let single_exit = exit_sources == [region.header];

    // Guard pattern in the header block.
    let header_end = cfg.blocks[region.header].end;
    if op_lo + 4 > header_end {
        return (none, single_exit);
    }
    let w = &chunk.ops[op_lo..op_lo + 4];
    let (slot, limit_idx, cmp) = match (w[0], w[1], w[2]) {
        (Op::LoadLocal(s), Op::Const(k), c @ (Op::Lt | Op::Gt | Op::Le | Op::Ge)) => (s, k, c),
        (Op::Const(k), Op::LoadLocal(s), c @ (Op::Lt | Op::Gt | Op::Le | Op::Ge)) => {
            (s, k, flip_cmp(c))
        }
        _ => return (none, single_exit),
    };
    let Op::JumpIfFalse(exit) = w[3] else {
        return (none, single_exit);
    };
    if (exit as usize) < op_hi {
        return (none, single_exit);
    }
    let Value::Num(limit) = chunk.consts[limit_idx as usize] else {
        return (none, single_exit);
    };

    // Counter integrity: collect update sites, reject anything else
    // that could touch the slot.
    let mut sites: Vec<(usize, f64)> = Vec::new();
    for ip in op_lo..op_hi {
        match chunk.ops[ip] {
            Op::DeclCell(s) | Op::NewCell(s) | Op::ClearSlot(s) if s == slot => {
                return (none, single_exit)
            }
            Op::ForInPrep(s) | Op::ForInNext(s, _) if s == slot => return (none, single_exit),
            Op::StoreChain(c) => {
                let touches = chunk.chains[c as usize]
                    .cands
                    .iter()
                    .any(|r| matches!(r, ChainRef::Local(s) | ChainRef::CellSlot(s) if *s == slot));
                if touches {
                    return (none, single_exit);
                }
            }
            Op::AddLocal(s, d) if s == slot => sites.push((ip, f64::from(d))),
            Op::StoreLocal(s) | Op::DeclLocal(s) if s == slot => {
                match update_delta(chunk, ip, slot) {
                    Some(d) => sites.push((ip, d)),
                    None => return (none, single_exit),
                }
            }
            _ => {}
        }
    }
    let [(site_ip, d)] = sites[..] else {
        return (none, single_exit);
    };

    // The update must run on every path from header back to header,
    // and not sit inside an inner loop (where it would run a variable
    // number of times per outer iteration).
    let site_block = cfg.block_of[site_ip];
    if inside_child(region, site_block) {
        return (none, single_exit);
    }
    let back_sources: Vec<usize> = (region.header..=region.last)
        .filter(|&b| cfg.blocks[b].succs.contains(&region.header))
        .collect();
    if back_sources.is_empty() || !dominates_backedges(cfg, region, site_block, &back_sources) {
        return (none, single_exit);
    }

    // Entry interval for the max bound: the header's merged interval
    // keeps the init-side bound stable (the counter only moves away
    // from it), so it is a sound worst-case entry value.
    let entry_iv = facts.in_states[op_lo]
        .as_ref()
        .and_then(|st| match &st.slots[slot as usize] {
            SlotAbs::Val(v) => v.as_interval(),
            _ => None,
        });
    let max = entry_iv.and_then(|(lo, hi)| {
        let init = if d > 0.0 { lo } else { hi };
        counted_trips(cmp, init, limit, d)
    });

    // Exact syntactic initializer directly before the loop gives the
    // min bound.
    let exact_init = syntactic_init(chunk, op_lo, slot);
    let min = match (exact_init, single_exit) {
        (Some(init), true) => counted_trips(cmp, init, limit, d).unwrap_or(0),
        _ => 0,
    };
    (Trips { min, max }, single_exit)
}

/// The `±const` delta of the store into `slot` at `ip` — a
/// `StoreLocal`, or the `DeclLocal` of an assignment whose value is
/// discarded (or of a `var`: same effect on the slot) — when the ops
/// before it compute `slot ± c`.
fn update_delta(chunk: &Chunk, ip: usize, slot: u16) -> Option<f64> {
    let op_at = |i: usize| chunk.ops.get(i).copied();
    let const_num = |i: u16| match chunk.consts.get(i as usize) {
        Some(Value::Num(n)) => Some(*n),
        _ => None,
    };
    // i = i + c / i = i - c:  LoadLocal Const Add|Sub <store>
    if let (Some(Op::LoadLocal(s)), Some(Op::Const(k)), Some(arith @ (Op::Add | Op::Sub))) = (
        ip.checked_sub(3).and_then(op_at),
        ip.checked_sub(2).and_then(op_at),
        ip.checked_sub(1).and_then(op_at),
    ) {
        if s == slot {
            let c = const_num(k)?;
            return Some(if matches!(arith, Op::Add) { c } else { -c });
        }
    }
    // i += c / i -= c:  Const LoadLocal Swap Add|Sub <store>
    if let (
        Some(Op::Const(k)),
        Some(Op::LoadLocal(s)),
        Some(Op::Swap),
        Some(arith @ (Op::Add | Op::Sub)),
    ) = (
        ip.checked_sub(4).and_then(op_at),
        ip.checked_sub(3).and_then(op_at),
        ip.checked_sub(2).and_then(op_at),
        ip.checked_sub(1).and_then(op_at),
    ) {
        if s == slot {
            let c = const_num(k)?;
            return Some(if matches!(arith, Op::Add) { c } else { -c });
        }
    }
    None
}

fn inside_child(region: &LoopRegion, block: usize) -> bool {
    region
        .children
        .iter()
        .any(|c| block >= c.header && block <= c.last)
}

/// Every header→back-edge path passes through `site_block`?
/// (Checked by deleting it and testing reachability.)
fn dominates_backedges(
    cfg: &Cfg,
    region: &LoopRegion,
    site_block: usize,
    back_sources: &[usize],
) -> bool {
    if back_sources.contains(&site_block) {
        // The update block is itself a back-edge source; paths through
        // other back-edge sources would bypass it.
        return back_sources == [site_block];
    }
    let mut seen = vec![false; cfg.blocks.len()];
    let mut stack = vec![region.header];
    seen[region.header] = true;
    while let Some(b) = stack.pop() {
        for &s in &cfg.blocks[b].succs {
            if s < region.header || s > region.last || s == site_block || s == region.header {
                continue;
            }
            if !seen[s] {
                seen[s] = true;
                stack.push(s);
            }
        }
    }
    back_sources.iter().all(|&b| !seen[b] || b == site_block)
}

/// `Const(c); DeclLocal(slot)` directly before `op_lo` (`var i = c` or
/// the statement `i = c;`): the exact loop-entry value.
fn syntactic_init(chunk: &Chunk, op_lo: usize, slot: u16) -> Option<f64> {
    let op_at = |i: usize| chunk.ops.get(i).copied();
    match (
        op_lo.checked_sub(2).and_then(op_at),
        op_lo.checked_sub(1).and_then(op_at),
    ) {
        (Some(Op::Const(k)), Some(Op::DeclLocal(s))) if s == slot => {
            match chunk.consts.get(k as usize) {
                Some(Value::Num(n)) => Some(*n),
                _ => None,
            }
        }
        _ => None,
    }
}

// ---- per-function cost evaluation ------------------------------------------

/// Array methods that bill the element count up front (`builtins.rs`).
const CHARGING_ARRAY_METHODS: &[&str] = &[
    "shift", "unshift", "slice", "splice", "indexOf", "join", "concat", "reverse", "map", "filter",
    "forEach", "sort",
];

/// Array methods that invoke a script callback per element.
const HOF_ARRAY_METHODS: &[&str] = &["map", "filter", "forEach", "sort", "reduce"];

/// Outcome of collapsing one region into a DAG and path-summing it.
#[derive(Debug, Clone, Copy)]
struct RegionOut {
    /// Cost of traversing the region entry→exit once (loops inside
    /// already multiplied out).
    total: Cost,
    /// A `return` (or other terminal) lies inside this region.
    has_return: bool,
}

struct CostCx<'a> {
    ctx: &'a ProgramCtx,
    facts: HashMap<u32, Rc<Analysis>>,
    memo: HashMap<u32, Cost>,
    in_flight: HashSet<u32>,
}

impl<'a> CostCx<'a> {
    fn new(ctx: &'a ProgramCtx) -> Self {
        CostCx {
            ctx,
            facts: HashMap::new(),
            memo: HashMap::new(),
            in_flight: HashSet::new(),
        }
    }

    fn facts(&mut self, id: u32) -> Rc<Analysis> {
        if let Some(f) = self.facts.get(&id) {
            return f.clone();
        }
        let proto = self.ctx.proto(id).clone();
        let f = Rc::new(analyze_chunk(&proto.chunk, &proto.params, self.ctx));
        self.facts.insert(id, f.clone());
        f
    }

    /// Cost of invoking prototype `id` once. Recursion (direct or
    /// mutual) makes every dimension unbounded.
    fn proto_cost(&mut self, id: u32) -> Cost {
        if let Some(c) = self.memo.get(&id) {
            return *c;
        }
        if !self.in_flight.insert(id) {
            return Cost::unknown_call();
        }
        let facts = self.facts(id);
        let chunk = &self.ctx.proto(id).clone().chunk;
        let cost = match find_loops(&facts.cfg) {
            Some(roots) => {
                let region = LoopRegion {
                    header: 0,
                    last: facts.cfg.blocks.len().saturating_sub(1),
                    children: roots,
                };
                self.region_cost(chunk, &facts, &region, false).total
            }
            None => Cost::unknown_call(),
        };
        self.in_flight.remove(&id);
        self.memo.insert(id, cost);
        cost
    }

    /// Path-sum a region: child loops become supernodes (their cost
    /// multiplied by inferred trips), the rest is a forward DAG walked
    /// in block order.
    ///
    /// For a loop (`is_loop`), the returned total is
    /// `trips_max × iteration_max + one exit traversal` on the max
    /// side and `trips_min × iteration_min` on the min side.
    fn region_cost(
        &mut self,
        chunk: &Chunk,
        facts: &Analysis,
        region: &LoopRegion,
        is_loop: bool,
    ) -> RegionOut {
        let cfg = &facts.cfg;
        let unbounded = RegionOut {
            total: Cost::unknown_call(),
            has_return: true,
        };

        // Collapse children into supernodes, keyed by header block.
        let mut child_out: HashMap<usize, RegionOut> = HashMap::new();
        for child in &region.children {
            child_out.insert(child.header, self.region_cost(chunk, facts, child, true));
        }

        // Entry-cost DP over blocks in index order. `acc[b]` is the
        // joined path cost to the entry of node `b` (None =
        // unreachable from the region entry without a back-edge).
        let nb = cfg.blocks.len();
        let mut acc: Vec<Option<Cost>> = vec![None; nb];
        acc[region.header] = Some(Cost::ZERO);
        let mut iter_done: Option<Cost> = None; // back to header
        let mut exited: Option<Cost> = None; // left the interval
        let mut returned: Option<Cost> = None; // hit a terminal
        let mut has_return = false;

        let mut b = region.header;
        while b <= region.last && b < nb {
            let Some(entry) = acc[b] else {
                b += 1;
                continue;
            };
            let (node_end, out, node_succs, node_ret) =
                if let Some(child) = region.children.iter().find(|c| c.header == b) {
                    let co = child_out[&child.header];
                    if co.has_return {
                        has_return = true;
                        // A path may end inside the child; entering it is
                        // a sound lower bound for that outcome.
                        returned = Some(match returned {
                            Some(r) => r.join(entry),
                            None => entry,
                        });
                    }
                    // Exit edges of the child region.
                    let mut succs: Vec<usize> = Vec::new();
                    for cb in child.header..=child.last.min(nb - 1) {
                        for &s in &cfg.blocks[cb].succs {
                            if (s < child.header || s > child.last) && !succs.contains(&s) {
                                succs.push(s);
                            }
                        }
                    }
                    (child.last, entry.add(co.total), succs, false)
                } else {
                    if inside_child(region, b) {
                        b += 1;
                        continue; // interior of a collapsed child
                    }
                    let block = &cfg.blocks[b];
                    let mut cost = Cost::ZERO;
                    for ip in block.start..block.end {
                        let Some(st) = &facts.in_states[ip] else {
                            continue;
                        };
                        cost = cost.add(self.op_cost(chunk, st, chunk.ops[ip]));
                    }
                    let terminal = block.succs.is_empty();
                    (b, entry.add(cost), block.succs.clone(), terminal)
                };
            if node_ret {
                has_return = true;
                returned = Some(match returned {
                    Some(r) => r.join(out),
                    None => out,
                });
            }
            for s in node_succs {
                if is_loop && s == region.header {
                    iter_done = Some(match iter_done {
                        Some(c) => c.join(out),
                        None => out,
                    });
                } else if s < region.header || s > region.last {
                    exited = Some(match exited {
                        Some(c) => c.join(out),
                        None => out,
                    });
                } else if s <= node_end {
                    // Non-forward edge that is not our own back-edge:
                    // irregular flow (mutated chunk) — give up soundly.
                    return unbounded;
                } else {
                    acc[s] = Some(match acc[s] {
                        Some(c) => c.join(out),
                        None => out,
                    });
                }
            }
            b = node_end + 1;
        }

        if !is_loop {
            // Function (or root interval) level: paths end at
            // terminals; `exited` cannot happen.
            let total = match (returned, exited) {
                (Some(r), Some(e)) => r.join(e),
                (Some(r), None) => r,
                (None, Some(e)) => e,
                (None, None) => Cost::ZERO,
            };
            return RegionOut { total, has_return };
        }

        let (trips, _single_exit) = loop_trips(chunk, facts, region);
        let iter = iter_done.unwrap_or(Cost::ZERO);
        let exit_once = match (exited, returned) {
            (Some(e), Some(r)) => e.join(r),
            (Some(e), None) => e,
            (None, Some(r)) => r,
            (None, None) => Cost::ZERO,
        };
        let trips_max = match (trips.max, iter_done.is_some()) {
            (_, false) => Max::Finite(0), // body never reaches the back-edge
            (Some(t), true) => Max::Finite(t),
            (None, true) => Max::Unbounded,
        };
        let mut total = iter.scale(trips.min, trips_max);
        // One exit traversal (the final failed guard / break path).
        total = Cost {
            steps: Bound {
                min: total.steps.min,
                max: total.steps.max.add(exit_once.steps.max),
            },
            charge: Bound {
                min: total.charge.min,
                max: total.charge.max.add(exit_once.charge.max),
            },
            publishes: Bound {
                min: total.publishes.min,
                max: total.publishes.max.add(exit_once.publishes.max),
            },
        };
        RegionOut { total, has_return }
    }

    /// Cost of one instruction under abstract state `st` (the state
    /// *before* the op): one watchdog step, plus whatever the
    /// operation can bill or trigger.
    fn op_cost(&mut self, chunk: &Chunk, st: &State, op: Op) -> Cost {
        let base = Cost::step();
        let arg = |i: usize| -> &AbsVal {
            let n = st.stack.len();
            st.stack.get(n.wrapping_sub(i + 1)).unwrap_or(&AbsVal::Any)
        };
        match op {
            Op::Add => {
                let (b, a) = (arg(0), arg(1));
                let may_str =
                    |v: &AbsVal| matches!(v, AbsVal::ConstStr(_) | AbsVal::Str | AbsVal::Any);
                let charge = match (a, b) {
                    (AbsVal::ConstStr(x), AbsVal::ConstStr(y)) => {
                        Bound::exact((x.len() + y.len()) as u64)
                    }
                    // String + definitely-number: the rendered number
                    // is at most ~24 bytes.
                    (AbsVal::ConstStr(x), n) | (n, AbsVal::ConstStr(x)) if n.is_numeric() => {
                        Bound {
                            min: x.len() as u64,
                            max: Max::Finite(x.len() as u64 + 24),
                        }
                    }
                    _ if may_str(a) || may_str(b) => Bound::UNBOUNDED,
                    _ => Bound::ZERO,
                };
                base.add(Cost {
                    charge,
                    ..Cost::ZERO
                })
            }
            Op::SetIndex => {
                // Stack: [value, object, index]. Growing an array bills
                // the elements added, at most `index + 1`.
                let (idx, obj) = (arg(0), arg(1));
                let charge = match (obj, idx, idx.as_interval()) {
                    (AbsVal::Array | AbsVal::Any, _, Some((_, hi))) if hi < 1e15 => {
                        Bound::at_most(hi.max(0.0) as u64 + 1)
                    }
                    (AbsVal::Array | AbsVal::Any, AbsVal::Any, _)
                    | (AbsVal::Array | AbsVal::Any, _, Some(_)) => Bound::UNBOUNDED,
                    // Not an array, or an index that is no number:
                    // nothing grows.
                    _ => Bound::ZERO,
                };
                base.add(Cost {
                    charge,
                    ..Cost::ZERO
                })
            }
            Op::Call(argc) => {
                let callee = arg(0).clone();
                let extra = match callee {
                    AbsVal::Native(name) => self.native_cost(&name, st, argc),
                    AbsVal::Closure(id) => self.proto_cost(id),
                    // Known non-callables fault at runtime: no cost on
                    // the continuing path.
                    AbsVal::ConstNum(_)
                    | AbsVal::ConstStr(_)
                    | AbsVal::ConstBool(_)
                    | AbsVal::ConstNull
                    | AbsVal::Num { .. } => Cost::ZERO,
                    _ => Cost::unknown_call(),
                };
                base.add(extra)
            }
            Op::CallMethod(m, _) => {
                let receiver = arg(0);
                let name = &*chunk.members[m as usize].name;
                let extra = match receiver {
                    AbsVal::Array => {
                        let mut c = Cost::ZERO;
                        if CHARGING_ARRAY_METHODS.contains(&name) {
                            c.charge = Bound::UNBOUNDED; // bills element count / output bytes
                        }
                        if HOF_ARRAY_METHODS.contains(&name) {
                            // Invokes a script callback per element.
                            c = Cost::unknown_call();
                        }
                        c
                    }
                    AbsVal::ConstStr(s) => Cost {
                        charge: Bound::at_most(s.len() as u64),
                        ..Cost::ZERO
                    },
                    AbsVal::Str => Cost {
                        charge: Bound::UNBOUNDED,
                        ..Cost::ZERO
                    },
                    // A method on an object (or unknown receiver) can
                    // be any stored closure.
                    AbsVal::Object | AbsVal::Any | AbsVal::Func | AbsVal::Closure(_) => {
                        Cost::unknown_call()
                    }
                    _ => Cost::ZERO,
                };
                base.add(extra)
            }
            _ => base,
        }
    }

    /// Extra cost of calling host native `name` (beyond the Call op).
    /// `argc` and the abstract argument values refine string sizes.
    fn native_cost(&mut self, name: &str, st: &State, argc: u8) -> Cost {
        let arg = |i: usize| -> &AbsVal {
            // Stack: [a0 .. a(n-1), callee]; a_i is argc-i slots below.
            let n = st.stack.len();
            st.stack
                .get(n.wrapping_sub(1 + argc as usize - i))
                .unwrap_or(&AbsVal::Any)
        };
        match name {
            "publish" => Cost {
                publishes: Bound::exact(1),
                ..Cost::ZERO
            },
            "String" => {
                let charge = match arg(0) {
                    AbsVal::ConstStr(s) => Bound::exact(s.len() as u64),
                    v if v.is_numeric() => Bound::at_most(24),
                    AbsVal::ConstBool(_) | AbsVal::ConstNull => Bound::at_most(9),
                    _ => Bound::UNBOUNDED,
                };
                Cost {
                    charge,
                    ..Cost::ZERO
                }
            }
            "keys" => Cost {
                charge: Bound::UNBOUNDED,
                ..Cost::ZERO
            },
            // The remaining Pogo API natives run host-side work that
            // is not billed to the script's instruction budget.
            _ if KNOWN_NATIVES.contains(&name) => Cost::ZERO,
            // An extension native may bill arbitrary bytes but cannot
            // consume VM steps.
            _ => Cost {
                charge: Bound::UNBOUNDED,
                ..Cost::ZERO
            },
        }
    }
}

// ---- entry points and the cost report ---------------------------------------

/// How an entry point gets triggered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryKind {
    /// The top-level script body, run once at deployment under the
    /// (10×) load budget.
    Load,
    /// A `subscribe` callback, run per delivered message.
    Callback,
    /// A `setTimeout` callback.
    Timer,
}

impl fmt::Display for EntryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EntryKind::Load => write!(f, "on-load"),
            EntryKind::Callback => write!(f, "callback"),
            EntryKind::Timer => write!(f, "timer"),
        }
    }
}

/// Static cost bounds for one entry point.
#[derive(Debug, Clone)]
pub struct EntryCost {
    pub kind: EntryKind,
    /// Function name (`<main>`, the callback's name, or `<dynamic>`
    /// when the registered value cannot be resolved statically).
    pub name: String,
    /// Channel, for `subscribe` callbacks with a constant channel.
    pub channel: Option<String>,
    /// Source line of the registration (1 for the load entry).
    pub line: u32,
    pub cost: Cost,
}

/// Cost bounds for every entry point of a compiled program, plus the
/// per-function invocation costs they were assembled from.
#[derive(Debug, Clone)]
pub struct CostReport {
    pub entries: Vec<EntryCost>,
    /// `(function name, one-invocation cost)` in prototype order.
    pub fns: Vec<(String, Cost)>,
}

/// Analyze a compiled program's entry points: the on-load run plus
/// every statically visible `subscribe`/`setTimeout` registration.
pub fn analyze_costs(program: &CompiledProgram) -> CostReport {
    let ctx = ProgramCtx::build(program);
    let mut cx = CostCx::new(&ctx);
    let mut entries = vec![EntryCost {
        kind: EntryKind::Load,
        name: program.main.name.to_string(),
        channel: None,
        line: 1,
        cost: cx.proto_cost(0),
    }];
    for id in 0..ctx.proto_count() as u32 {
        let facts = cx.facts(id);
        let proto = ctx.proto(id).clone();
        let chunk = &proto.chunk;
        for (ip, &op) in chunk.ops.iter().enumerate() {
            let Op::Call(argc) = op else { continue };
            let Some(st) = &facts.in_states[ip] else {
                continue;
            };
            let n = st.stack.len();
            let get = |i: usize| st.stack.get(n.wrapping_sub(i + 1)).cloned();
            let Some(AbsVal::Native(native)) = get(0) else {
                continue;
            };
            let arg = |i: usize| get(argc as usize - i);
            let line = chunk.lines.get(ip).copied().unwrap_or(0);
            let (kind, cb, channel) = match (&*native, argc) {
                ("subscribe", a) if a >= 2 => {
                    let channel = match arg(0) {
                        Some(AbsVal::ConstStr(s)) => Some(s.to_string()),
                        _ => None,
                    };
                    (EntryKind::Callback, arg(1), channel)
                }
                ("setTimeout", a) if a >= 1 => (EntryKind::Timer, arg(0), None),
                _ => continue,
            };
            let (name, cost) = match cb {
                Some(AbsVal::Closure(cb_id)) => {
                    (ctx.proto(cb_id).name.to_string(), cx.proto_cost(cb_id))
                }
                _ => ("<dynamic>".to_string(), Cost::unknown_call()),
            };
            entries.push(EntryCost {
                kind,
                name,
                channel,
                line,
                cost,
            });
        }
    }
    let fns = (0..ctx.proto_count() as u32)
        .map(|id| (ctx.proto(id).name.to_string(), cx.proto_cost(id)))
        .collect();
    CostReport { entries, fns }
}

// ---- diagnostics ------------------------------------------------------------

/// Instruction budget per framework→script call: the deterministic
/// equivalent of §4.5's 100 ms watchdog. Calibrated at ~100 M interpreter
/// steps/second (Rhino with its class-file compiler, as Pogo used), so
/// 100 ms ≈ 10,000,000 steps. The paper's own clustering.js closes
/// multi-hour clusters (a thousand-odd members) inside one callback,
/// which costs a few million steps — comfortably inside the budget, as
/// it evidently was on the real deployment.
///
/// A step is one VM instruction, so what a step buys follows the
/// lowering: since the fused local-member read and the one-op counter
/// update (DESIGN §12, "Borrow, don't clone") the paper's scripts take
/// about a quarter fewer steps for the same source, and the budget
/// admits that much more work. It is an order-of-magnitude calibration
/// and stays at its round number.
///
/// Defined here, once: the phones' script host enforces it and the
/// deploy gate prices entry points against it.
pub const WATCHDOG_BUDGET: u64 = 10_000_000;

/// Budget for the script body at load time (initialization may be
/// heavier; still bounded).
pub const LOAD_BUDGET: u64 = WATCHDOG_BUDGET * 10;

/// Watchdog budgets the cost bounds are gated against; the defaults are
/// the ones the script host enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostBudgets {
    pub callback: u64,
    pub load: u64,
}

impl Default for CostBudgets {
    fn default() -> Self {
        CostBudgets {
            callback: WATCHDOG_BUDGET,
            load: LOAD_BUDGET,
        }
    }
}

/// Publishes-per-event above which fan-out is flagged (P304).
pub const PUBLISH_FANOUT_WARN: u64 = 16;

/// Turn cost bounds into stable `P3xx` diagnostics.
///
/// * **P301 (error)** — the *guaranteed minimum* cost exceeds the
///   budget: the entry point can never complete, deploying it only
///   burns device budgets.
/// * **P302 (warning)** — the worst case is statically unbounded.
/// * **P303 (warning)** — the worst case is finite but over budget.
/// * **P304 (warning)** — one trigger can publish more than
///   [`PUBLISH_FANOUT_WARN`] messages (or unboundedly many).
pub fn cost_diagnostics(report: &CostReport, budgets: &CostBudgets) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for e in &report.entries {
        let budget = match e.kind {
            EntryKind::Load => budgets.load,
            _ => budgets.callback,
        };
        let label = match (&e.channel, e.kind) {
            (Some(ch), _) => format!("{} `{}` (channel \"{}\")", e.kind, e.name, ch),
            (None, EntryKind::Load) => "the on-load script body".to_string(),
            (None, _) => format!("{} `{}`", e.kind, e.name),
        };
        let min = e.cost.budget_min();
        let max = e.cost.budget_max();
        if min > budget {
            out.push(Diagnostic::new(
                Rule::CostBudgetExceeded,
                e.line,
                format!(
                    "{label} needs at least {min} budget units per run; \
                     the watchdog allows {budget} — it can never complete"
                ),
            ));
        } else if max == Max::Unbounded {
            out.push(Diagnostic::new(
                Rule::CostUnbounded,
                e.line,
                format!(
                    "{label} has no static cost bound (a loop, call, or \
                     string build the analyzer cannot bound); the watchdog \
                     will cut it off at {budget} units"
                ),
            ));
        } else if max.exceeds(budget) {
            out.push(Diagnostic::new(
                Rule::CostMayExceedBudget,
                e.line,
                format!(
                    "{label} can cost up to {max} budget units per run; \
                     the watchdog allows {budget}"
                ),
            ));
        }
        if e.cost.publishes.max.exceeds(PUBLISH_FANOUT_WARN) {
            out.push(Diagnostic::new(
                Rule::PublishFanout,
                e.line,
                format!(
                    "{label} can publish {} messages per trigger \
                     (fan-out threshold {PUBLISH_FANOUT_WARN})",
                    e.cost.publishes.max
                ),
            ));
        }
    }
    out
}

// ---- rendering (pogo-lint --dump-cfg) ---------------------------------------

impl fmt::Display for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "steps {}, bytes {}, publishes {}",
            self.steps, self.charge, self.publishes
        )
    }
}

/// Deterministic text rendering of every function's CFG, inferred
/// loops, and cost — the `pogo-lint --dump-cfg` format pinned by the
/// golden tests.
pub fn render_cfg(program: &CompiledProgram) -> String {
    let ctx = ProgramCtx::build(program);
    let mut cx = CostCx::new(&ctx);
    let mut out = String::new();
    for id in 0..ctx.proto_count() as u32 {
        let proto = ctx.proto(id).clone();
        let facts = cx.facts(id);
        let cfg = &facts.cfg;
        out.push_str(&format!(
            "== fn{id} {} (blocks {}) ==\n",
            proto.name,
            cfg.blocks.len()
        ));
        for (b, block) in cfg.blocks.iter().enumerate() {
            let succs = if block.succs.is_empty() {
                "(exit)".to_string()
            } else {
                format!(
                    "-> {}",
                    block
                        .succs
                        .iter()
                        .map(|s| format!("b{s}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                )
            };
            out.push_str(&format!(
                "  b{b}  {:04}..{:04}  {succs}\n",
                block.start, block.end
            ));
        }
        if let Some(roots) = find_loops(cfg) {
            let mut stack: Vec<&LoopRegion> = roots.iter().collect();
            let mut loops: Vec<&LoopRegion> = Vec::new();
            while let Some(l) = stack.pop() {
                loops.push(l);
                stack.extend(l.children.iter());
            }
            loops.sort_by_key(|l| (l.header, l.last));
            for l in loops {
                let (trips, _) = loop_trips(&proto.chunk, &facts, l);
                let max = match trips.max {
                    Some(t) => t.to_string(),
                    None => "unbounded".to_string(),
                };
                out.push_str(&format!(
                    "  loop b{}..b{}  trips [{}, {}]\n",
                    l.header, l.last, trips.min, max
                ));
            }
        }
        out.push_str(&format!("  cost: {}\n", cx.proto_cost(id)));
    }
    out.push_str("== cost report ==\n");
    let report = analyze_costs(program);
    out.push_str(&render_cost_report(&report));
    out
}

/// Deterministic text rendering of a [`CostReport`].
fn render_cost_report(report: &CostReport) -> String {
    let mut out = String::new();
    for e in &report.entries {
        let what = match (&e.channel, e.kind) {
            (Some(ch), _) => format!(
                "{} {} (channel \"{}\", line {})",
                e.kind, e.name, ch, e.line
            ),
            (None, EntryKind::Load) => format!("{} {}", e.kind, e.name),
            (None, _) => format!("{} {} (line {})", e.kind, e.name, e.line),
        };
        out.push_str(&format!("{what}: {}\n", e.cost));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;

    fn load_cost(src: &str) -> Cost {
        let prog = compile(src).expect("compile");
        analyze_costs(&prog).entries[0].cost
    }

    #[test]
    fn max_arithmetic() {
        assert_eq!(Max::Finite(2).add(Max::Finite(3)), Max::Finite(5));
        assert_eq!(Max::Finite(2).add(Max::Unbounded), Max::Unbounded);
        assert_eq!(Max::Finite(0).mul(Max::Unbounded), Max::Finite(0));
        assert_eq!(Max::Unbounded.mul(Max::Finite(0)), Max::Finite(0));
        assert_eq!(Max::Finite(4).mul(Max::Finite(3)), Max::Finite(12));
        assert!(Max::Unbounded.exceeds(u64::MAX));
        assert!(!Max::Finite(10).exceeds(10));
        assert!(Max::Finite(11).exceeds(10));
    }

    #[test]
    fn counted_trips_formulas() {
        // for (i = 0; i < 10; i++) -> 10
        assert_eq!(counted_trips(Op::Lt, 0.0, 10.0, 1.0), Some(10));
        // i <= 10 -> 11
        assert_eq!(counted_trips(Op::Le, 0.0, 10.0, 1.0), Some(11));
        // i = 10; i > 0; i-- -> 10
        assert_eq!(counted_trips(Op::Gt, 10.0, 0.0, -1.0), Some(10));
        // i = 10; i >= 0; i-- -> 11
        assert_eq!(counted_trips(Op::Ge, 10.0, 0.0, -1.0), Some(11));
        // step 3: 0,3,6,9 -> 4 trips
        assert_eq!(counted_trips(Op::Lt, 0.0, 10.0, 3.0), Some(4));
        // wrong-direction step never terminates
        assert_eq!(counted_trips(Op::Lt, 0.0, 10.0, -1.0), None);
        // already false at entry -> 0 trips
        assert_eq!(counted_trips(Op::Lt, 10.0, 10.0, 1.0), Some(0));
    }

    #[test]
    fn straight_line_cost_is_exact() {
        let c = load_cost("var x = 1 + 2; var y = x * 3;");
        assert_eq!(Max::Finite(c.steps.min), c.steps.max, "min == max: {c}");
        assert!(c.steps.min > 0);
        assert_eq!(c.charge, Bound::ZERO);
        assert_eq!(c.publishes, Bound::ZERO);
    }

    #[test]
    fn counted_loop_gets_finite_bounds() {
        let c = load_cost(
            "var s = 0;\n\
             for (var i = 0; i < 10; i = i + 1) { s = s + 1; }",
        );
        let Max::Finite(max) = c.steps.max else {
            panic!("expected finite bound, got {c}");
        };
        // 10 iterations of a ~10-op body: a tight but not exact window.
        assert!(max >= 100, "max {max} too small");
        assert!(max < 1_000, "max {max} too large");
        assert!(c.steps.min > 50, "min {} too small", c.steps.min);
        assert!(c.steps.min <= max);
    }

    /// Every spelling of a counter update keeps its exact trip count:
    /// `++`/`--` are one `AddLocal` carrying the delta, `+=` and
    /// `i = i ± c` are recognised by the ops before their store, be it
    /// the pop-store of a discarded assignment or the peek-store of one
    /// whose value is used. The steps the VM bills lie between static
    /// bounds less than one trip apart.
    #[test]
    fn every_counter_update_spelling_is_a_counted_loop() {
        for (init, cond, update) in [
            ("0", "i < 12", "i++"),
            ("0", "i < 12", "++i"),
            ("12", "i > 0", "i--"),
            ("12", "i >= 1", "--i"),
            ("0", "i < 12", "i += 5"),
            ("12", "i > 0", "i -= 4"),
            ("0", "i <= 12", "i = i + 3"),
            ("0", "i < 12", "x = (i += 2)"),
            ("0", "i < 12", "x = i++"),
        ] {
            let as_clause =
                format!("var x = 0;\nfor (var i = {init}; {cond}; {update}) {{ x = 1; }}");
            let as_stmt = format!(
                "function f() {{ var x = 0; var i = {init}; while ({cond}) {{ x = 1; {update}; }} }}\nf();"
            );
            for src in [as_clause, as_stmt] {
                let c = load_cost(&src);
                let Max::Finite(max) = c.steps.max else {
                    panic!("{src}: no finite bound: {c}");
                };
                let mut interp = crate::Interpreter::new();
                interp.set_budget(Some(1_000_000));
                interp.eval(&src).expect("runs");
                let billed = 1_000_000 - interp.steps_remaining();
                assert!(
                    c.steps.min <= billed && billed <= max,
                    "{src}: {billed} {c}"
                );
                // Less than one trip of slack: the trip count is exact.
                assert!(max - c.steps.min < 8, "{src}: {c}");
            }
        }
    }

    /// A store past the end of an array bills the elements it adds, so
    /// the static charge covers `index + 1` for a known index and is
    /// unbounded for an unknown one.
    #[test]
    fn indexed_store_growth_is_priced() {
        let known = load_cost("var a = [];\na[4999] = 1;");
        assert_eq!(known.charge.max, Max::Finite(5000), "{known}");
        let unknown = load_cost("function f(i) { var a = []; a[i] = 1; }\nf(now());");
        assert_eq!(unknown.charge.max, Max::Unbounded, "{unknown}");
        let keyed = load_cost("var o = {};\no['k'] = 1;");
        assert_eq!(keyed.charge.max, Max::Finite(0), "{keyed}");
    }

    #[test]
    fn data_dependent_loop_is_unbounded() {
        let prog = compile(
            "function f(n) { var i = 0; while (i < n) { i = i + 1; } }\n\
             subscribe('ch', f);",
        )
        .expect("compile");
        let report = analyze_costs(&prog);
        let cb = report
            .entries
            .iter()
            .find(|e| e.kind == EntryKind::Callback)
            .expect("callback entry");
        assert_eq!(cb.name.as_str(), "f");
        assert_eq!(cb.channel.as_deref(), Some("ch"));
        assert_eq!(cb.cost.steps.max, Max::Unbounded);
        // The loop can run zero times: the minimum stays small.
        assert!(cb.cost.steps.min < 100);
        let diags = cost_diagnostics(&report, &CostBudgets::default());
        assert!(
            diags.iter().any(|d| d.rule == Rule::CostUnbounded),
            "expected P302 in {diags:?}"
        );
    }

    #[test]
    fn guaranteed_over_budget_is_an_error() {
        let prog = compile(
            "var s = 0;\n\
             for (var i = 0; i < 1000; i = i + 1) { s = s + 1; }",
        )
        .expect("compile");
        let report = analyze_costs(&prog);
        let tight = CostBudgets {
            callback: 100,
            load: 100,
        };
        let diags = cost_diagnostics(&report, &tight);
        assert!(
            diags.iter().any(|d| d.rule == Rule::CostBudgetExceeded),
            "expected P301 in {diags:?}"
        );
        // Under the real budgets the same script is fine.
        assert!(cost_diagnostics(&report, &CostBudgets::default()).is_empty());
    }

    #[test]
    fn publish_fanout_is_flagged() {
        let prog =
            compile("for (var i = 0; i < 100; i = i + 1) { publish('ch', i); }").expect("compile");
        let report = analyze_costs(&prog);
        let load = &report.entries[0];
        assert!(load.cost.publishes.max.exceeds(PUBLISH_FANOUT_WARN));
        assert_eq!(load.cost.publishes.min, 100);
        let diags = cost_diagnostics(&report, &CostBudgets::default());
        assert!(
            diags.iter().any(|d| d.rule == Rule::PublishFanout),
            "expected P304 in {diags:?}"
        );
    }

    #[test]
    fn string_concat_charges_bytes() {
        let c = load_cost("var s = 'ab' + 'cde';");
        assert_eq!(c.charge.min, 5);
        assert_eq!(c.charge.max, Max::Finite(5));
        // Concat under a data-dependent loop: charge becomes unbounded.
        let prog = compile(
            "function f(n) {\n\
               var s = '';\n\
               var i = 0;\n\
               while (i < n) { s = s + 'x'; i = i + 1; }\n\
             }\n\
             subscribe('ch', f);",
        )
        .expect("compile");
        let report = analyze_costs(&prog);
        let cb = report
            .entries
            .iter()
            .find(|e| e.kind == EntryKind::Callback)
            .expect("callback entry");
        assert_eq!(cb.cost.charge.max, Max::Unbounded);
    }

    #[test]
    fn recursion_is_unbounded_not_a_hang() {
        let prog = compile(
            "function f(n) { if (n > 0) { f(n - 1); } }\n\
             f(10);",
        )
        .expect("compile");
        let report = analyze_costs(&prog);
        assert_eq!(report.entries[0].cost.steps.max, Max::Unbounded);
    }

    #[test]
    fn timer_entry_is_discovered() {
        let prog = compile(
            "function tick() { publish('beat', 1); }\n\
             setTimeout(tick, 500);",
        )
        .expect("compile");
        let report = analyze_costs(&prog);
        let timer = report
            .entries
            .iter()
            .find(|e| e.kind == EntryKind::Timer)
            .expect("timer entry");
        assert_eq!(timer.name.as_str(), "tick");
        assert_eq!(timer.cost.publishes, Bound::exact(1));
    }

    #[test]
    fn paper_scripts_analyze_without_panicking() {
        for name in ["collect.js", "roguefinder.js", "clustering.js"] {
            let path = format!("{}/../../assets/scripts/{name}", env!("CARGO_MANIFEST_DIR"));
            let src = std::fs::read_to_string(&path).expect(name);
            let prog = compile(&src).expect(name);
            let report = analyze_costs(&prog);
            assert!(!report.entries.is_empty(), "{name}: no entries");
            // No paper script has a statically provable watchdog kill.
            let diags = cost_diagnostics(&report, &CostBudgets::default());
            assert!(
                !diags.iter().any(|d| d.rule == Rule::CostBudgetExceeded),
                "{name}: spurious P301 in {diags:?}"
            );
        }
    }

    #[test]
    fn render_cfg_is_deterministic() {
        let src = "var s = 0;\nfor (var i = 0; i < 4; i = i + 1) { s = s + i; }";
        let prog = compile(src).expect("compile");
        let a = render_cfg(&prog);
        let b = render_cfg(&prog);
        assert_eq!(a, b);
        assert!(a.contains("== fn0"), "{a}");
        assert!(a.contains("loop b"), "{a}");
        assert!(a.contains("trips [4, 4]"), "{a}");
    }
}

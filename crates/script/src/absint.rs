//! Abstract interpretation over compiled bytecode: the static cost
//! bounds of the deploy gate.
//!
//! [`analyze_costs`] bounds, for the on-load run and for every callback
//! registered through `subscribe`/`setTimeout`, the instruction-budget
//! units one invocation can consume (VM steps plus bytes billed by
//! string building and size-producing natives) and the number of
//! `publish` calls per trigger. To get there it walks each function's
//! control-flow graph to a fixpoint over a small lattice (numeric
//! intervals, constant strings, known callees), and reads the result for
//! loop trip counts, call targets and string operands. Loop trip counts
//! are inferred where the guard
//! compares a locally-updated counter against a constant; everything
//! else is honestly reported as `unbounded`.
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
//!
//! The analysis takes what `compile()` emits: chunks `verify::check`
//! accepts, whose loops nest and whose only backward edges are loop
//! back-edges. Its lattice and transfer functions are sized to what
//! reads them (DESIGN §13): a value is told apart from "unknown" only
//! where a cost rule, the trip counter or the entry scan reads it.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::rc::Rc;

use crate::analyze::NATIVE_SIGS;
use crate::bytecode::{ChainRef, Chunk, CompiledProgram, FnProto, Op};
use crate::diag::{Diagnostic, Rule};
use crate::value::Value;

// ---- control-flow graph ----------------------------------------------------

/// A maximal straight-line run of instructions.
struct Block {
    /// First instruction index (inclusive).
    start: usize,
    /// One past the last instruction.
    end: usize,
    /// Successor block ids, in (fall-through, jump) order.
    succs: Vec<usize>,
}

/// Basic blocks of one chunk, ordered by start index.
struct Cfg {
    blocks: Vec<Block>,
    /// Block id of each instruction.
    block_of: Vec<usize>,
}

/// Build the basic-block graph of a chunk: a block ends at a jump, at an
/// instruction control cannot fall out of, and before a jump target.
fn build_cfg(chunk: &Chunk) -> Cfg {
    let n = chunk.ops.len();
    let mut leader = vec![false; n];
    leader[0] = true;
    for (ip, &op) in chunk.ops.iter().enumerate() {
        if let Some(t) = op.jump_target() {
            leader[t] = true;
        }
        if (op.jump_target().is_some() || !op.falls_through()) && ip + 1 < n {
            leader[ip + 1] = true;
        }
    }
    let mut blocks: Vec<Block> = Vec::new();
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
    for block in &mut blocks {
        let op = chunk.ops[block.end - 1];
        if op.falls_through() {
            block.succs.push(block_of[block.end]);
        }
        if let Some(t) = op.jump_target() {
            if !block.succs.contains(&block_of[t]) {
                block.succs.push(block_of[t]);
            }
        }
    }
    Cfg { blocks, block_of }
}

// ---- the lattice -----------------------------------------------------------

/// Abstract value: what the cost rules, the trip counter and the entry
/// scan read of a runtime value. Everything else about it is `Any`.
#[derive(Clone, PartialEq)]
enum AbsVal {
    /// Some number, possibly NaN; its non-NaN values lie in `[lo, hi]`.
    /// The bounds are never NaN; `lo == hi` is a known number.
    Num {
        lo: f64,
        hi: f64,
    },
    /// A known string: concatenating it bills its bytes.
    ConstStr(Rc<str>),
    /// The closure of program-wide prototype `id` (see `ProgramCtx`).
    Closure(u32),
    /// A host native known by name (a global the script never stores to).
    Native(Rc<str>),
    Any,
    /// No value has flowed here yet: the identity of `join`, inside the
    /// global-value fixpoint of `ProgramCtx::build`. A global whose only
    /// stores read itself stays `Bottom`: no value ever reaches it.
    Bottom,
}

impl AbsVal {
    fn num(x: f64) -> AbsVal {
        AbsVal::interval(x, x)
    }

    fn interval(lo: f64, hi: f64) -> AbsVal {
        if lo.is_nan() || hi.is_nan() {
            AbsVal::Num {
                lo: f64::NEG_INFINITY,
                hi: f64::INFINITY,
            }
        } else {
            AbsVal::Num { lo, hi }
        }
    }

    /// The numeric interval of a definitely-a-number value.
    fn as_interval(&self) -> Option<(f64, f64)> {
        match self {
            AbsVal::Num { lo, hi } => Some((*lo, *hi)),
            _ => None,
        }
    }

    fn join(&self, other: &AbsVal) -> AbsVal {
        match (self, other) {
            _ if self == other => self.clone(),
            (AbsVal::Bottom, v) | (v, AbsVal::Bottom) => v.clone(),
            _ => match (self.as_interval(), other.as_interval()) {
                (Some((al, ah)), Some((bl, bh))) => AbsVal::interval(al.min(bl), ah.max(bh)),
                _ => AbsVal::Any,
            },
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

/// Abstract machine state at one program point: the operand stack and
/// what the last plain store left in each frame slot (`Any` at entry).
#[derive(Clone)]
struct State {
    stack: Vec<AbsVal>,
    slots: Vec<AbsVal>,
}

impl State {
    /// Join `other` into `self`; returns whether anything changed. A
    /// verified chunk enters a block at one stack depth.
    fn join_from(&mut self, other: &State, widen: bool) -> bool {
        let mut changed = false;
        let mine = self.stack.iter_mut().chain(&mut self.slots);
        for (a, b) in mine.zip(other.stack.iter().chain(&other.slots)) {
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

/// Names the embedder registers as natives: the analyzer's signature
/// table (the Pogo API of `host.rs` plus the language builtins), then the
/// collector's `geolocate`. A global read of one of these — when no script
/// store writes it — is the native itself, which is what lets the analyzer
/// recognize `subscribe`/`setTimeout` registrations and cost `publish`
/// calls.
pub const KNOWN_NATIVES: &[&str] = &{
    let mut names = ["geolocate"; NATIVE_SIGS.len() + 1];
    let mut i = 0;
    while i < NATIVE_SIGS.len() {
        names[i] = NATIVE_SIGS[i].name;
        i += 1;
    }
    names
};

/// Whole-program facts: a flat prototype numbering and the abstract
/// value of every global the script stores to. Built once per program.
struct ProgramCtx {
    protos: Vec<Rc<FnProto>>,
    ids: HashMap<*const FnProto, u32>,
    /// Flow-insensitive abstract value of every global the script itself
    /// stores to: the join of everything any store site can write,
    /// iterated to fixpoint, so a top-level `function f` stored nowhere
    /// else is its `Closure`. Assumes the host does not inject values
    /// into script-declared globals (it registers natives under names
    /// scripts don't shadow), which is how `pogo-core` behaves.
    globals: HashMap<Rc<str>, AbsVal>,
}

impl ProgramCtx {
    fn build(program: &CompiledProgram) -> ProgramCtx {
        let mut ctx = ProgramCtx {
            protos: Vec::new(),
            ids: HashMap::new(),
            globals: HashMap::new(),
        };
        ctx.number(&program.main);
        for proto in &ctx.protos {
            for &op in &proto.chunk.ops {
                if let Some(name) = stored_global(&proto.chunk, op) {
                    ctx.globals.insert(name.clone(), AbsVal::Bottom);
                }
            }
        }
        ctx.solve_globals();
        ctx
    }

    fn number(&mut self, proto: &Rc<FnProto>) {
        self.ids.insert(Rc::as_ptr(proto), self.protos.len() as u32);
        self.protos.push(proto.clone());
        for p in &proto.chunk.protos {
            self.number(p);
        }
    }

    /// Kleene iteration for `globals`: start every stored-to global at
    /// `Bottom`, re-analyze each function under the current assumption,
    /// join what every store site writes, and repeat (with widening from
    /// round three) until stable. If the cap trips, or a function's
    /// analysis trips its own backstop, every global is `Any`: never
    /// unsound, only imprecise.
    fn solve_globals(&mut self) {
        const MAX_ROUNDS: usize = 8;
        for round in 0..MAX_ROUNDS {
            let Some(mut next) = self.stores() else { break };
            if round >= 2 {
                for (k, v) in &mut next {
                    *v = self.globals[k].widen(v);
                }
            }
            if next == self.globals {
                return;
            }
            self.globals = next;
        }
        for v in self.globals.values_mut() {
            *v = AbsVal::Any;
        }
    }

    /// What the store sites write under the current assumption, joined
    /// per global; `None` when a function's analysis does not converge.
    fn stores(&self) -> Option<HashMap<Rc<str>, AbsVal>> {
        let mut next: HashMap<Rc<str>, AbsVal> = self
            .globals
            .keys()
            .map(|k| (k.clone(), AbsVal::Bottom))
            .collect();
        for proto in &self.protos {
            let chunk = &proto.chunk;
            let facts = analyze_chunk(chunk, self)?;
            for (&op, st) in chunk.ops.iter().zip(&facts.in_states) {
                if let (Some(name), Some(st)) = (stored_global(chunk, op), st) {
                    if let Some(v) = next.get_mut(name) {
                        *v = v.join(st.stack.last().unwrap_or(&AbsVal::Any));
                    }
                }
            }
        }
        Some(next)
    }

    /// Abstract value of a global read by name.
    fn global_abs(&self, name: &str) -> AbsVal {
        match self.globals.get(name) {
            Some(v) => v.clone(),
            None if KNOWN_NATIVES.contains(&name) => AbsVal::Native(Rc::from(name)),
            None => AbsVal::Any,
        }
    }
}

/// The global a store op writes: `DeclGlobal`, `StoreGlobal`, or a
/// `StoreChain` whose chain falls back to the global scope. Each takes
/// the stored value from the top of the stack.
fn stored_global(chunk: &Chunk, op: Op) -> Option<&Rc<str>> {
    match op {
        Op::DeclGlobal(g) | Op::StoreGlobal(g) => Some(&chunk.globals[g as usize].name),
        Op::StoreChain(c) => {
            let chain = &chunk.chains[c as usize];
            chain
                .cands
                .contains(&ChainRef::Global)
                .then_some(&chain.name)
        }
        _ => None,
    }
}

// ---- the abstract interpreter ----------------------------------------------

/// Fixpoint result over one chunk: the CFG plus the abstract state at
/// the entry of every reachable instruction (`None` = unreachable).
struct Analysis {
    cfg: Cfg,
    in_states: Vec<Option<State>>,
}

/// Block visits before widening kicks in.
const WIDEN_AFTER: u32 = 8;

/// Run the abstract interpreter to fixpoint over one chunk. A bound on
/// the rounds keeps a pathological chunk cheap; when it trips, the
/// states are not a fixpoint and so are no facts: the result is `None`,
/// which every reader takes as "nothing is known".
fn analyze_chunk(chunk: &Chunk, ctx: &ProgramCtx) -> Option<Analysis> {
    let cfg = build_cfg(chunk);
    let nb = cfg.blocks.len();
    let mut entry: Vec<Option<State>> = vec![None; nb];
    entry[0] = Some(State {
        stack: Vec::new(),
        slots: vec![AbsVal::Any; chunk.n_slots as usize],
    });
    let mut visits = vec![0u32; nb];
    let mut work: Vec<usize> = vec![0];
    for _ in 0..64 * nb + 256 {
        let Some(b) = work.pop() else { break };
        let Some(mut st) = entry[b].clone() else {
            continue;
        };
        visits[b] += 1;
        let block = &cfg.blocks[b];
        for &op in &chunk.ops[block.start..block.end] {
            step(&mut st, op, chunk, ctx);
        }
        let last = chunk.ops[block.end - 1];
        let taken = last.jump_target().map(|t| {
            let mut taken = st.clone();
            if let Op::ForInNext(..) = last {
                taken.stack.pop(); // the loop exit pushes no key
            }
            (cfg.block_of[t], taken)
        });
        let fall = last.falls_through().then_some((b + 1, st));
        for (succ, fs) in taken.into_iter().chain(fall) {
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
    if !work.is_empty() {
        return None;
    }
    // Record the converged per-instruction entry states.
    let mut in_states = vec![None; chunk.ops.len()];
    for (block, st) in cfg.blocks.iter().zip(&entry) {
        let Some(mut st) = st.clone() else { continue };
        let ops = &chunk.ops[block.start..block.end];
        for (&op, in_state) in ops.iter().zip(&mut in_states[block.start..block.end]) {
            *in_state = Some(st.clone());
            step(&mut st, op, chunk, ctx);
        }
    }
    Some(Analysis { cfg, in_states })
}

/// Apply one instruction to `st`. The arms are the instructions whose
/// result a cost rule or the trip counter reads, and those that write a
/// frame slot; every other instruction pops its operands and pushes
/// `Any` ([`Op::stack_effect`]). An instruction that unbinds a slot
/// (`ClearSlot`, `NewCell`, `ForInPrep`) needs no arm: the VM faults on
/// a read of an unbound slot, so what the slot held is never read again.
fn step(st: &mut State, op: Op, chunk: &Chunk, ctx: &ProgramCtx) {
    let n = st.stack.len();
    if op == Op::Swap {
        st.stack.swap(n - 2, n - 1);
        return;
    }
    // The `i`-th operand from the top.
    let arg = |i: usize| {
        let v = st.stack.get(n.wrapping_sub(i + 1));
        v.cloned().unwrap_or(AbsVal::Any)
    };
    let top = match op {
        Op::Const(i) => match &chunk.consts[i as usize] {
            Value::Num(x) => AbsVal::num(*x),
            Value::Str(s) => AbsVal::ConstStr(s.clone()),
            _ => AbsVal::Any,
        },
        Op::MakeClosure(i) => AbsVal::Closure(ctx.ids[&Rc::as_ptr(&chunk.protos[i as usize])]),
        Op::LoadLocal(s) => st.slots[s as usize].clone(),
        Op::LoadGlobal(g) => ctx.global_abs(&chunk.globals[g as usize].name),
        Op::StoreLocal(s) | Op::DeclLocal(s) => {
            st.slots[s as usize] = arg(0);
            AbsVal::Any
        }
        Op::AddLocal(s, d) => {
            let v = binop(Op::Add, &st.slots[s as usize], &AbsVal::num(f64::from(d)));
            st.slots[s as usize] = v;
            AbsVal::Any
        }
        // The store lands in the innermost bound candidate, which may be
        // any local slot of the chain.
        Op::StoreChain(c) => {
            for cand in chunk.chains[c as usize].cands.iter() {
                if let ChainRef::Local(s) = cand {
                    st.slots[*s as usize] = AbsVal::Any;
                }
            }
            AbsVal::Any
        }
        Op::Add | Op::Sub | Op::Mul | Op::Div | Op::Rem => binop(op, &arg(1), &arg(0)),
        _ => AbsVal::Any,
    };
    let (pops, pushes) = op.stack_effect(chunk);
    st.stack.truncate(n.saturating_sub(pops));
    if pushes > 0 {
        st.stack
            .extend(std::iter::repeat_n(AbsVal::Any, pushes - 1));
        st.stack.push(top);
    }
}

/// Abstract arithmetic: intervals for numbers and, of strings, the sum
/// of two constants, which keeps its value: the VM does exactly this
/// append, and keeping it is what lets chained literal concatenations
/// (`'a' + '-' + 'b'`) keep an exact byte charge.
fn binop(op: Op, a: &AbsVal, b: &AbsVal) -> AbsVal {
    use AbsVal::*;
    // Bottom-strict: an operation on a not-yet-flowed value produces
    // nothing. This is what lets the global-value fixpoint prove that
    // `s = s + 1` keeps a number-initialized `s` numeric.
    if *a == Bottom || *b == Bottom {
        return Bottom;
    }
    match (a.as_interval(), b.as_interval()) {
        (Some((al, ah)), Some((bl, bh))) => match op {
            Op::Add => AbsVal::interval(al + bl, ah + bh),
            Op::Sub => AbsVal::interval(al - bh, ah - bl),
            // Mul/Div/Rem intervals are easy to get subtly wrong around
            // zeros and infinities; "some number" is enough.
            _ => AbsVal::interval(f64::NEG_INFINITY, f64::INFINITY),
        },
        _ => match (op, a, b) {
            (Op::Add, ConstStr(x), ConstStr(y)) => ConstStr(format!("{x}{y}").into()),
            _ => Any,
        },
    }
}

// ---- cost bounds -----------------------------------------------------------

/// Upper bound of a cost dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Max {
    Finite(u64),
    Unbounded,
}

impl Max {
    fn zip(self, other: Max, f: fn(u64, u64) -> u64) -> Max {
        match (self, other) {
            (Max::Finite(a), Max::Finite(b)) => Max::Finite(f(a, b)),
            _ => Max::Unbounded,
        }
    }

    fn add(self, other: Max) -> Max {
        self.zip(other, u64::saturating_add)
    }

    fn mul(self, k: Max) -> Max {
        if self == Max::Finite(0) || k == Max::Finite(0) {
            return Max::Finite(0);
        }
        self.zip(k, u64::saturating_mul)
    }

    fn join(self, other: Max) -> Max {
        self.zip(other, u64::max)
    }

    fn exceeds(self, budget: u64) -> bool {
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

/// `[min, max]` bound on one cost dimension (or on a loop's trips).
/// `min` is a guaranteed lower bound over every completing execution;
/// `max` an upper bound over all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bound {
    pub min: u64,
    pub max: Max,
}

impl Bound {
    const ZERO: Bound = Bound::exact(0);

    const UNBOUNDED: Bound = Bound {
        min: 0,
        max: Max::Unbounded,
    };

    const fn exact(x: u64) -> Bound {
        Bound {
            min: x,
            max: Max::Finite(x),
        }
    }

    fn at_most(x: u64) -> Bound {
        Bound {
            min: 0,
            max: Max::Finite(x),
        }
    }

    /// Sequence.
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
    const ZERO: Cost = Cost {
        steps: Bound::ZERO,
        charge: Bound::ZERO,
        publishes: Bound::ZERO,
    };

    /// A call we can say nothing about.
    const UNKNOWN: Cost = Cost {
        steps: Bound::UNBOUNDED,
        charge: Bound::UNBOUNDED,
        publishes: Bound::UNBOUNDED,
    };

    /// `f` applied currency by currency.
    fn zip(self, o: Cost, f: impl Fn(Bound, Bound) -> Bound) -> Cost {
        Cost {
            steps: f(self.steps, o.steps),
            charge: f(self.charge, o.charge),
            publishes: f(self.publishes, o.publishes),
        }
    }

    fn add(self, o: Cost) -> Cost {
        self.zip(o, Bound::add)
    }

    fn join(self, o: Cost) -> Cost {
        self.zip(o, Bound::join)
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

/// `slot ⊔= c`, where `None` is "no path yet".
fn join_into(slot: &mut Option<Cost>, c: Cost) {
    *slot = Some(slot.map_or(c, |s| s.join(c)));
}

// ---- loop structure --------------------------------------------------------

/// A natural-loop interval of basic blocks: `header..=last`, where
/// every back-edge targets `header`. The compiler's structured codegen
/// makes loops properly nested intervals.
struct LoopRegion {
    header: usize,
    last: usize,
    children: Vec<LoopRegion>,
}

/// Find the loop intervals and nest them: a loop ends at the last block
/// with a back-edge to its header.
fn find_loops(cfg: &Cfg) -> Vec<LoopRegion> {
    let mut last_of: BTreeMap<usize, usize> = BTreeMap::new();
    for (b, block) in cfg.blocks.iter().enumerate() {
        for &s in block.succs.iter().filter(|&&s| s <= b) {
            last_of.insert(s, b);
        }
    }
    let mut roots = Vec::new();
    // Outermost first: by header.
    for (header, last) in last_of {
        nest(
            &mut roots,
            LoopRegion {
                header,
                last,
                children: Vec::new(),
            },
        );
    }
    roots
}

fn nest(loops: &mut Vec<LoopRegion>, region: LoopRegion) {
    match loops.last_mut() {
        Some(outer) if region.header <= outer.last => nest(&mut outer.children, region),
        _ => loops.push(region),
    }
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
/// before a single-exit loop. Everything else is `[0, unbounded]`.
fn loop_trips(chunk: &Chunk, facts: &Analysis, region: &LoopRegion) -> Bound {
    let cfg = &facts.cfg;
    let op_lo = cfg.blocks[region.header].start;
    let op_hi = cfg.blocks[region.last].end;

    // Guard pattern in the header block.
    if op_lo + 4 > cfg.blocks[region.header].end {
        return Bound::UNBOUNDED;
    }
    let w = &chunk.ops[op_lo..op_lo + 4];
    let (slot, limit_idx, cmp) = match (w[0], w[1], w[2]) {
        (Op::LoadLocal(s), Op::Const(k), c @ (Op::Lt | Op::Gt | Op::Le | Op::Ge)) => (s, k, c),
        (Op::Const(k), Op::LoadLocal(s), c @ (Op::Lt | Op::Gt | Op::Le | Op::Ge)) => {
            (s, k, flip_cmp(c))
        }
        _ => return Bound::UNBOUNDED,
    };
    let Op::JumpIfFalse(exit) = w[3] else {
        return Bound::UNBOUNDED;
    };
    if (exit as usize) < op_hi {
        return Bound::UNBOUNDED;
    }
    let Value::Num(limit) = chunk.consts[limit_idx as usize] else {
        return Bound::UNBOUNDED;
    };

    // Counter integrity: collect update sites, reject anything else
    // that could touch the slot.
    let mut sites: Vec<(usize, f64)> = Vec::new();
    for ip in op_lo..op_hi {
        match chunk.ops[ip] {
            Op::DeclCell(s) | Op::NewCell(s) | Op::ClearSlot(s) if s == slot => {
                return Bound::UNBOUNDED
            }
            Op::ForInPrep(s) | Op::ForInNext(s, _) if s == slot => return Bound::UNBOUNDED,
            Op::StoreChain(c) => {
                let touches = chunk.chains[c as usize]
                    .cands
                    .iter()
                    .any(|r| matches!(r, ChainRef::Local(s) | ChainRef::CellSlot(s) if *s == slot));
                if touches {
                    return Bound::UNBOUNDED;
                }
            }
            Op::AddLocal(s, d) if s == slot => sites.push((ip, f64::from(d))),
            Op::StoreLocal(s) | Op::DeclLocal(s) if s == slot => {
                match update_delta(chunk, ip, slot) {
                    Some(d) => sites.push((ip, d)),
                    None => return Bound::UNBOUNDED,
                }
            }
            _ => {}
        }
    }
    let [(site_ip, d)] = sites[..] else {
        return Bound::UNBOUNDED;
    };

    // The update must run on every path from header back to header,
    // and not sit inside an inner loop (where it would run a variable
    // number of times per outer iteration).
    let site_block = cfg.block_of[site_ip];
    if inside_child(region, site_block) {
        return Bound::UNBOUNDED;
    }
    let back_sources: Vec<usize> = (region.header..=region.last)
        .filter(|&b| cfg.blocks[b].succs.contains(&region.header))
        .collect();
    if back_sources.is_empty() || !dominates_backedges(cfg, region, site_block, &back_sources) {
        return Bound::UNBOUNDED;
    }

    // Entry interval for the max bound: the header's merged interval
    // keeps the init-side bound stable (the counter only moves away
    // from it), so it is a sound worst-case entry value.
    let entry_iv = facts.in_states[op_lo]
        .as_ref()
        .and_then(|st| st.slots[slot as usize].as_interval());
    let max = entry_iv.and_then(|(lo, hi)| {
        let init = if d > 0.0 { lo } else { hi };
        counted_trips(cmp, init, limit, d)
    });

    // An exact syntactic initializer directly before a loop that only
    // leaves through its guard gives the min bound.
    let single_exit = (region.header..=region.last).all(|b| {
        let succs = &cfg.blocks[b].succs;
        let leaves =
            succs.is_empty() || succs.iter().any(|&s| s < region.header || s > region.last);
        !leaves || b == region.header
    });
    let min = match syntactic_init(chunk, op_lo, slot) {
        Some(init) if single_exit => counted_trips(cmp, init, limit, d).unwrap_or(0),
        _ => 0,
    };
    Bound {
        min,
        max: max.map_or(Max::Unbounded, Max::Finite),
    }
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

/// Outcome of collapsing one region into a DAG and path-summing it.
#[derive(Clone, Copy)]
struct RegionOut {
    /// Cost of traversing the region entry→exit once (loops inside
    /// already multiplied out).
    total: Cost,
    /// A `return` (or other terminal) lies inside this region.
    has_return: bool,
}

struct CostCx<'a> {
    ctx: &'a ProgramCtx,
    /// Per prototype: its fixpoint, or `None` when the backstop tripped.
    facts: Vec<Option<Rc<Analysis>>>,
    /// Per prototype: its invocation cost once known.
    memo: Vec<Option<Cost>>,
}

impl<'a> CostCx<'a> {
    fn new(ctx: &'a ProgramCtx) -> Self {
        CostCx {
            ctx,
            facts: (ctx.protos.iter())
                .map(|p| analyze_chunk(&p.chunk, ctx).map(Rc::new))
                .collect(),
            memo: vec![None; ctx.protos.len()],
        }
    }

    /// Cost of invoking prototype `id` once.
    fn proto_cost(&mut self, id: u32) -> Cost {
        let id = id as usize;
        if let Some(c) = self.memo[id] {
            return c;
        }
        // Recursion (direct or mutual) meets this placeholder: every
        // dimension unbounded.
        self.memo[id] = Some(Cost::UNKNOWN);
        let ctx = self.ctx;
        let cost = match self.facts[id].clone() {
            Some(facts) => {
                let root = LoopRegion {
                    header: 0,
                    last: facts.cfg.blocks.len() - 1,
                    children: find_loops(&facts.cfg),
                };
                let chunk = &ctx.protos[id].chunk;
                self.region_cost(chunk, &facts, &root, false).total
            }
            None => Cost::UNKNOWN,
        };
        self.memo[id] = Some(cost);
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
        let child_out: Vec<RegionOut> = (region.children.iter())
            .map(|child| self.region_cost(chunk, facts, child, true))
            .collect();

        // Entry-cost DP over blocks in index order. `acc[b]` is the
        // joined path cost to the entry of node `b` (None =
        // unreachable from the region entry without a back-edge).
        let mut acc: Vec<Option<Cost>> = vec![None; cfg.blocks.len()];
        acc[region.header] = Some(Cost::ZERO);
        let mut iter_done: Option<Cost> = None; // back to header
        let mut exited: Option<Cost> = None; // left the interval
        let mut returned: Option<Cost> = None; // hit a terminal
        let mut has_return = false;

        let mut b = region.header;
        while b <= region.last {
            let Some(entry) = acc[b] else {
                b += 1;
                continue;
            };
            let (node_end, out, succs) = match region.children.iter().position(|c| c.header == b) {
                Some(i) => {
                    let (child, co) = (&region.children[i], child_out[i]);
                    if co.has_return {
                        has_return = true;
                        // A path may end inside the child; entering
                        // it is a sound lower bound for that outcome.
                        join_into(&mut returned, entry);
                    }
                    // Exit edges of the child region.
                    let mut succs: Vec<usize> = Vec::new();
                    for block in &cfg.blocks[child.header..=child.last] {
                        for &s in &block.succs {
                            if (s < child.header || s > child.last) && !succs.contains(&s) {
                                succs.push(s);
                            }
                        }
                    }
                    (child.last, entry.add(co.total), succs)
                }
                None => {
                    let block = &cfg.blocks[b];
                    let mut out = entry;
                    for ip in block.start..block.end {
                        if let Some(st) = &facts.in_states[ip] {
                            out = out.add(self.op_cost(st, chunk.ops[ip]));
                        }
                    }
                    if block.succs.is_empty() {
                        has_return = true;
                        join_into(&mut returned, out);
                    }
                    (b, out, block.succs.clone())
                }
            };
            for s in succs {
                if is_loop && s == region.header {
                    join_into(&mut iter_done, out);
                } else if s < region.header || s > region.last {
                    join_into(&mut exited, out);
                } else {
                    join_into(&mut acc[s], out);
                }
            }
            b = node_end + 1;
        }

        // One traversal that leaves: through a terminal or out of the
        // interval (a function-level region only ends at terminals).
        let leave = (returned.into_iter().chain(exited))
            .reduce(Cost::join)
            .unwrap_or(Cost::ZERO);
        if !is_loop {
            return RegionOut {
                total: leave,
                has_return,
            };
        }
        let trips = loop_trips(chunk, facts, region);
        // A body that never reaches the back-edge runs at most once.
        let trips_max = match iter_done {
            Some(_) => trips.max,
            None => Max::Finite(0),
        };
        // `trips` iterations, plus the final failed guard or break path
        // on the max side.
        let total = iter_done
            .unwrap_or(Cost::ZERO)
            .zip(leave, |iter, leave| Bound {
                min: iter.min.saturating_mul(trips.min),
                max: iter.max.mul(trips_max).add(leave.max),
            });
        RegionOut { total, has_return }
    }

    /// Cost of one instruction under abstract state `st` (the state
    /// *before* the op): one watchdog step, plus whatever the
    /// operation can bill or trigger.
    fn op_cost(&mut self, st: &State, op: Op) -> Cost {
        let arg = |i: usize| -> &AbsVal {
            let n = st.stack.len();
            st.stack.get(n.wrapping_sub(i + 1)).unwrap_or(&AbsVal::Any)
        };
        let charge = |charge: Bound| Cost {
            charge,
            ..Cost::ZERO
        };
        let extra = match op {
            Op::Add => charge(match (arg(1), arg(0)) {
                (AbsVal::ConstStr(x), AbsVal::ConstStr(y)) => {
                    Bound::exact((x.len() + y.len()) as u64)
                }
                (a, b) if a.as_interval().is_some() && b.as_interval().is_some() => Bound::ZERO,
                // Either side may be a string: the concatenation bills
                // its bytes.
                _ => Bound::UNBOUNDED,
            }),
            // Stack: [value, object, index]. A store past an array's end
            // bills the elements it adds, at most `index + 1`; a store
            // under a string key adds none.
            Op::SetIndex => charge(match arg(0) {
                AbsVal::Num { hi, .. } if *hi < 1e15 => Bound::at_most(hi.max(0.0) as u64 + 1),
                AbsVal::Num { .. } | AbsVal::Any => Bound::UNBOUNDED,
                _ => Bound::ZERO,
            }),
            Op::Call(_) => match arg(0) {
                AbsVal::Native(name) => native_cost(name),
                AbsVal::Closure(id) => self.proto_cost(*id),
                _ => Cost::UNKNOWN,
            },
            // A method can be any stored closure, or bill what it builds.
            Op::CallMethod(..) => Cost::UNKNOWN,
            _ => Cost::ZERO,
        };
        extra.add(Cost {
            steps: Bound::exact(1),
            ..Cost::ZERO
        })
    }
}

/// Extra cost of calling host native `name`, beyond the `Call` op.
fn native_cost(name: &str) -> Cost {
    match name {
        "publish" => Cost {
            publishes: Bound::exact(1),
            ..Cost::ZERO
        },
        // The size-producing natives bill the bytes they build.
        "String" | "keys" => Cost {
            charge: Bound::UNBOUNDED,
            ..Cost::ZERO
        },
        // The rest of the Pogo API runs host-side work that is not
        // billed to the script's instruction budget.
        _ => Cost::ZERO,
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

/// Cost bounds for every entry point of a compiled program.
#[derive(Debug, Clone)]
pub struct CostReport {
    pub entries: Vec<EntryCost>,
}

/// Analyze a compiled program's entry points: the on-load run plus
/// every statically visible `subscribe`/`setTimeout` registration.
pub fn analyze_costs(program: &CompiledProgram) -> CostReport {
    CostCx::new(&ProgramCtx::build(program)).report()
}

impl CostCx<'_> {
    fn report(&mut self) -> CostReport {
        let ctx = self.ctx;
        let mut entries = vec![EntryCost {
            kind: EntryKind::Load,
            name: ctx.protos[0].name.to_string(),
            channel: None,
            line: 1,
            cost: self.proto_cost(0),
        }];
        for (proto, facts) in ctx.protos.iter().zip(self.facts.clone()) {
            // A function without a fixpoint shows no registration.
            let Some(facts) = facts else { continue };
            let chunk = &proto.chunk;
            for (ip, st) in facts.in_states.iter().enumerate() {
                let (Op::Call(argc), Some(st)) = (chunk.ops[ip], st) else {
                    continue;
                };
                // Stack: [a0 .. a(argc-1), callee].
                let n = st.stack.len();
                let get = |i: usize| st.stack.get(n.wrapping_sub(i + 1));
                let Some(AbsVal::Native(native)) = get(0) else {
                    continue;
                };
                let arg = |i: usize| get(argc as usize - i);
                let (kind, cb, channel) = match (&**native, argc) {
                    ("subscribe", 2..) => {
                        let channel = match arg(0) {
                            Some(AbsVal::ConstStr(s)) => Some(s.to_string()),
                            _ => None,
                        };
                        (EntryKind::Callback, arg(1), channel)
                    }
                    ("setTimeout", 1..) => (EntryKind::Timer, arg(0), None),
                    _ => continue,
                };
                let (name, cost) = match cb {
                    Some(AbsVal::Closure(id)) => (
                        ctx.protos[*id as usize].name.to_string(),
                        self.proto_cost(*id),
                    ),
                    _ => ("<dynamic>".to_string(), Cost::UNKNOWN),
                };
                entries.push(EntryCost {
                    kind,
                    name,
                    channel,
                    line: chunk.lines[ip],
                    cost,
                });
            }
        }
        CostReport { entries }
    }
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
    for (id, proto) in ctx.protos.iter().enumerate() {
        let cfg = build_cfg(&proto.chunk);
        out.push_str(&format!(
            "== fn{id} {} (blocks {}) ==\n",
            proto.name,
            cfg.blocks.len()
        ));
        for (b, block) in cfg.blocks.iter().enumerate() {
            let succs = if block.succs.is_empty() {
                "(exit)".to_string()
            } else {
                let names: Vec<String> = block.succs.iter().map(|s| format!("b{s}")).collect();
                format!("-> {}", names.join(" "))
            };
            out.push_str(&format!(
                "  b{b}  {:04}..{:04}  {succs}\n",
                block.start, block.end
            ));
        }
        let trips = |l: &LoopRegion| match &cx.facts[id] {
            Some(facts) => loop_trips(&proto.chunk, facts, l),
            None => Bound::UNBOUNDED,
        };
        render_loops(&mut out, &find_loops(&cfg), &trips);
        out.push_str(&format!("  cost: {}\n", cx.proto_cost(id as u32)));
    }
    out.push_str("== cost report ==\n");
    for e in cx.report().entries {
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

/// One line per loop, outermost first, in header order.
fn render_loops(out: &mut String, loops: &[LoopRegion], trips: &dyn Fn(&LoopRegion) -> Bound) {
    for l in loops {
        out.push_str(&format!(
            "  loop b{}..b{}  trips {}\n",
            l.header,
            l.last,
            trips(l)
        ));
        render_loops(out, &l.children, trips);
    }
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

    /// A fact that needs more fixpoint rounds than the backstop allows
    /// must not come out as a bound. `x300`'s string walks one slot down
    /// the chain per trip, so `x0 + x0` concatenates two 41-byte strings
    /// by the end; a run cut short still sees `x0` as the number 0.
    #[test]
    fn backstop_gives_up_instead_of_returning_a_non_fixpoint() {
        let k = 300;
        let mut src = String::from("function f() {\n");
        for j in 0..=k {
            src += &format!("  var x{j} = 0;\n");
        }
        src += &format!("  for (var i = 0; i < {}; i++) {{\n", k + 5);
        for j in 0..k {
            src += &format!("    x{j} = x{};\n", j + 1);
        }
        src += &format!("    x{k} = '{}';\n  }}\n", "s".repeat(41));
        src += "  return x0 + x0;\n}\nf();\n";
        let c = load_cost(&src);
        let mut interp = crate::Interpreter::new();
        interp.set_budget(Some(LOAD_BUDGET));
        interp.eval(&src).expect("runs");
        let billed = LOAD_BUDGET - interp.steps_remaining();
        assert!(c.budget_min() <= billed, "{billed} {c}");
        assert!(c.budget_max().exceeds(billed - 1), "{billed} {c}");
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

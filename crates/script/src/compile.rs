//! The AST → bytecode compiler.
//!
//! The compiler's one hard job is reproducing the tree-walk scope
//! semantics with *indexed* storage. PogoScript `var` does not hoist:
//! a name only exists in its scope once the declaration statement has
//! executed, and reads before that fall through to an outer scope (or
//! the globals). Three mechanisms cover this:
//!
//! - **Slots.** Every binding a scope can create is pre-assigned a
//!   frame slot (reusing `analyze.rs`'s `collect_scope_vars`, which
//!   mirrors exactly where the interpreter's `env.declare` lands,
//!   including `var`s inside non-block `if`/`while` arms). A slot
//!   starts *empty* and only `Decl*` instructions bind it.
//! - **Cells.** A binding whose name is referenced anywhere inside a
//!   nested function is allocated as a heap cell so closures share
//!   mutations. Cells are created at scope entry and *rebound* (never
//!   replaced) by declarations, matching the tree-walk's "same map
//!   entry" identity; block scopes re-create their cells on each loop
//!   iteration, which is what makes per-iteration capture work.
//! - **Chains.** A read/write whose innermost binding may still be
//!   unbound at runtime compiles to a `LoadChain`/`StoreChain` over
//!   the candidate bindings outward (ending at the globals), probed in
//!   order at runtime. When the innermost binding is statically known
//!   to be bound, a direct one-slot instruction is emitted instead —
//!   that is the common, fast case.
//!
//! Determinism: slot numbers, constant-pool indices and site tables
//! depend only on source order (the dedup map is lookup-only), so the
//! same source always compiles to byte-identical chunks — a property
//! the chaos soak's byte-identical-trace gate leans on.

use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;

use crate::analyze;
use crate::ast::{BinOp, Expr, LogicalOp, Node, Stmt, UnaryOp};
use crate::builtins;
use crate::bytecode::{
    ChainInfo, ChainRef, Chunk, CompiledProgram, FnProto, GlobalSite, MemberSite, Op, UpvalSrc,
};
use crate::error::{ErrorKind, ScriptError};
use crate::parser::parse;
use crate::value::{intern, Value};

/// Parses and compiles a source string.
///
/// # Errors
///
/// Parse errors, or a compile error for programs exceeding the
/// bytecode format's (generous) size limits.
pub fn compile(source: &str) -> Result<CompiledProgram, ScriptError> {
    compile_program(&parse(source)?)
}

/// Parses and compiles a source string through a per-thread cache, so
/// the same script deployed to many simulated phones is compiled once
/// and the resulting chunks (immutable except for their inline caches)
/// are shared. Only successful compiles are cached; errors re-run so
/// the caller always gets the real diagnostic.
///
/// # Errors
///
/// As for [`compile`].
pub fn compile_cached(source: &str) -> Result<Rc<CompiledProgram>, ScriptError> {
    thread_local! {
        static CACHE: std::cell::RefCell<HashMap<String, Rc<CompiledProgram>>> =
            std::cell::RefCell::new(HashMap::new());
    }
    if let Some(hit) = CACHE.with(|c| c.borrow().get(source).cloned()) {
        return Ok(hit);
    }
    let prog = Rc::new(compile(source)?);
    CACHE.with(|c| {
        c.borrow_mut().insert(source.to_owned(), Rc::clone(&prog));
    });
    Ok(prog)
}

/// Compiles an already-parsed program.
///
/// Every emitted program is structurally verified ([`crate::verify`])
/// before it is returned. There is one lowering, so a rejection here is
/// only ever a compiler bug: it aborts loudly in debug builds, and in
/// release builds the deploy gate re-verifies and rejects the program
/// (the VM bounds-checks every fetch anyway).
///
/// # Errors
///
/// As for [`compile`].
pub(crate) fn compile_program(program: &[Stmt]) -> Result<CompiledProgram, ScriptError> {
    let prog = lower_program(program)?;
    if let Err(e) = crate::verify::check(&prog) {
        debug_assert!(false, "compiler emitted an invalid chunk: {e}");
    }
    Ok(prog)
}

fn lower_program(program: &[Stmt]) -> Result<CompiledProgram, ScriptError> {
    let mut c = Compiler {
        funcs: Vec::new(),
        math_ok: analyze::program_math_ok(program),
    };
    c.push_func(collect_captured(program));
    // The top-level scope is the shared global environment, not a
    // frame: declarations go through named `DeclGlobal` sites so they
    // persist across host evals and are visible to natives.
    c.fun().scopes.push(ScopeCtx {
        bindings: Vec::new(),
        entry_cond_depth: 0,
        is_global: true,
        is_func_top: false,
    });
    c.hoist_funcs(program, true)?;
    for stmt in program {
        if let Stmt::Expr { expr, line } = stmt {
            // Top-level expression statements feed the program result
            // (the tree-walk's `last`); nested ones are discarded.
            c.fun().cur_line = *line;
            c.compile_expr(expr)?;
            c.emit(Op::SetResult);
        } else {
            c.compile_stmt(stmt)?;
        }
    }
    c.emit(Op::ReturnResult);
    let fun = c.funcs.pop().expect("main function context");
    let chunk = fun.finish();
    let op_count = chunk.total_ops();
    let fn_count = 1 + chunk.total_fns();
    Ok(CompiledProgram {
        main: Rc::new(FnProto {
            name: Rc::from("<main>"),
            params: Vec::new(),
            upvals: Vec::new(),
            chunk,
        }),
        op_count,
        fn_count,
    })
}

// ---- compiler state --------------------------------------------------------

/// One binding a scope can create (parameter, hoisted function, or
/// `var`), pre-assigned a frame slot.
struct Binding {
    name: Rc<str>,
    slot: u16,
    /// Heap cell (captured by some nested function) vs. plain slot.
    cell: bool,
    /// Statically known to be bound from the current compile position
    /// on (parameters, hoisted functions, and `var`s already compiled
    /// at an unconditional position of their scope).
    bound: bool,
    is_param: bool,
}

struct ScopeCtx {
    bindings: Vec<Binding>,
    /// `cond_depth` at scope entry: a `var` compiled deeper than this
    /// sits under a branch and cannot mark its binding bound.
    entry_cond_depth: u32,
    /// The program top level (storage is the global environment).
    is_global: bool,
    /// A function's outermost scope (slots are fresh per frame, so no
    /// `ClearSlot` prologue is needed).
    is_func_top: bool,
}

struct LoopCtx {
    /// `Jump` indices to patch to the loop exit.
    breaks: Vec<usize>,
    /// `Jump` indices to patch to the continue target.
    continues: Vec<usize>,
}

#[derive(Hash, PartialEq, Eq)]
enum ConstKey {
    Num(u64),
    Str(Rc<str>),
}

/// Per-function compile state.
struct FuncCtx {
    chunk: Chunk,
    scopes: Vec<ScopeCtx>,
    upvals: Vec<UpvalSrc>,
    loops: Vec<LoopCtx>,
    next_slot: u32,
    cond_depth: u32,
    cur_line: u32,
    /// Names referenced anywhere inside nested functions: bindings
    /// with these names become cells.
    captured: BTreeSet<Rc<str>>,
    /// `(slot, is_cell)` per declared parameter, in order.
    param_info: Vec<(u16, bool)>,
    const_map: HashMap<ConstKey, u16>,
}

impl FuncCtx {
    fn finish(mut self) -> Chunk {
        let chunk = &mut self.chunk;
        chunk.n_slots = self.next_slot as u16;
        // A finished chunk lives as long as the thread's compile cache:
        // the room its tables grew by is handed back, which pays for the
        // second stream.
        chunk.ops.shrink_to_fit();
        chunk.lines.shrink_to_fit();
        chunk.consts.shrink_to_fit();
        chunk.globals.shrink_to_fit();
        chunk.members.shrink_to_fit();
        chunk.quick = crate::quicken::quicken(chunk);
        self.chunk
    }
}

/// Where one candidate binding for an identifier lives, from the
/// perspective of the function being compiled.
enum Cand {
    Local { slot: u16, cell: bool },
    Up { idx: u16 },
    Global,
}

struct Compiler {
    funcs: Vec<FuncCtx>,
    /// `Math` is provably the untouched builtin everywhere in this
    /// program, enabling direct `MathCall` dispatch.
    math_ok: bool,
}

const LIMIT_ERR: &str = "script too large to compile";

impl Compiler {
    fn fun(&mut self) -> &mut FuncCtx {
        self.funcs.last_mut().expect("active function context")
    }

    fn push_func(&mut self, captured: BTreeSet<Rc<str>>) {
        let cur_line = self.funcs.last().map_or(0, |f| f.cur_line);
        self.funcs.push(FuncCtx {
            chunk: Chunk::default(),
            scopes: Vec::new(),
            upvals: Vec::new(),
            loops: Vec::new(),
            next_slot: 0,
            cond_depth: 0,
            cur_line,
            captured,
            param_info: Vec::new(),
            const_map: HashMap::new(),
        });
    }

    fn emit(&mut self, op: Op) {
        let f = self.fun();
        let line = f.cur_line;
        f.chunk.ops.push(op);
        f.chunk.lines.push(line);
    }

    fn here(&mut self) -> usize {
        self.fun().chunk.ops.len()
    }

    /// Emits a placeholder jump and returns its index for patching.
    fn emit_jump(&mut self, make: fn(u32) -> Op) -> usize {
        self.emit(make(u32::MAX));
        self.fun().chunk.ops.len() - 1
    }

    fn patch_jump(&mut self, at: usize) {
        let target = self.fun().chunk.ops.len() as u32;
        self.patch_jump_to(at, target);
    }

    fn patch_jump_to(&mut self, at: usize, target: u32) {
        let op = &mut self.fun().chunk.ops[at];
        *op = match *op {
            Op::Jump(_) => Op::Jump(target),
            Op::JumpIfFalse(_) => Op::JumpIfFalse(target),
            Op::JumpIfTruePeek(_) => Op::JumpIfTruePeek(target),
            Op::JumpIfFalsePeek(_) => Op::JumpIfFalsePeek(target),
            Op::ForInNext(slot, _) => Op::ForInNext(slot, target),
            other => unreachable!("patching non-jump {other:?}"),
        };
    }

    fn limit(&self, n: usize) -> Result<u16, ScriptError> {
        u16::try_from(n).map_err(|_| ScriptError::new(ErrorKind::Parse, LIMIT_ERR, 0))
    }

    fn alloc_slot(&mut self) -> Result<u16, ScriptError> {
        let f = self.fun();
        let slot = f.next_slot;
        f.next_slot += 1;
        self.limit(slot as usize)
    }

    fn add_const(&mut self, key: ConstKey, value: Value) -> Result<u16, ScriptError> {
        if let Some(&idx) = self.fun().const_map.get(&key) {
            return Ok(idx);
        }
        let n = self.fun().chunk.consts.len();
        let idx = self.limit(n)?;
        let f = self.fun();
        f.chunk.consts.push(value);
        f.const_map.insert(key, idx);
        Ok(idx)
    }

    fn global_site(&mut self, name: &Rc<str>) -> Result<u16, ScriptError> {
        let n = self.fun().chunk.globals.len();
        let idx = self.limit(n)?;
        self.fun().chunk.globals.push(GlobalSite {
            name: name.clone(),
            cache: std::cell::Cell::new(u32::MAX),
        });
        Ok(idx)
    }

    fn member_site(&mut self, name: &Rc<str>) -> Result<u16, ScriptError> {
        let n = self.fun().chunk.members.len();
        let idx = self.limit(n)?;
        self.fun().chunk.members.push(MemberSite::new(intern(name)));
        Ok(idx)
    }

    // ---- scopes and resolution ---------------------------------------------

    /// Opens a scope and pre-registers every binding it can create:
    /// parameters, direct function declarations, and the `var` names
    /// `collect_scope_vars` attributes to it (which mirrors where the
    /// tree-walk's `declare` lands).
    fn push_scope(
        &mut self,
        params: &[Rc<str>],
        stmts: &[Stmt],
        extra_vars: &[Rc<str>],
        is_func_top: bool,
    ) -> Result<(), ScriptError> {
        let entry_cond_depth = self.fun().cond_depth;
        self.fun().scopes.push(ScopeCtx {
            bindings: Vec::new(),
            entry_cond_depth,
            is_global: false,
            is_func_top,
        });
        for p in params {
            let (slot, cell) = self.register_binding(p, true, true)?;
            self.fun().param_info.push((slot, cell));
        }
        for name in extra_vars {
            self.register_binding(name, false, false)?;
        }
        for s in stmts {
            if let Stmt::Func { name, .. } = s {
                // Hoisted: bound from scope entry, before any `var`.
                self.register_binding(name, true, false)?;
            }
        }
        let mut vars = Vec::new();
        analyze::collect_scope_vars(stmts, &mut vars);
        for (name, _) in &vars {
            self.register_binding(name, false, false)?;
        }
        Ok(())
    }

    /// Registers `name` in the current scope (reusing the existing
    /// binding if declared twice) and returns `(slot, is_cell)`.
    fn register_binding(
        &mut self,
        name: &Rc<str>,
        bound: bool,
        is_param: bool,
    ) -> Result<(u16, bool), ScriptError> {
        let cell = self.fun().captured.contains(name);
        let scope = self.fun().scopes.last_mut().expect("open scope");
        if let Some(b) = scope.bindings.iter_mut().find(|b| b.name == *name) {
            b.bound |= bound;
            let out = (b.slot, b.cell);
            return Ok(out);
        }
        let slot = self.alloc_slot()?;
        let scope = self.fun().scopes.last_mut().expect("open scope");
        scope.bindings.push(Binding {
            name: name.clone(),
            slot,
            cell,
            bound,
            is_param,
        });
        Ok((slot, cell))
    }

    /// Emits the scope prologue: slot initialisation (cells must exist
    /// before any closure captures them) followed by hoisted function
    /// declarations, in source order — the same order the tree-walk's
    /// `hoist` declares them.
    fn emit_scope_prologue(&mut self, stmts: &[Stmt]) -> Result<(), ScriptError> {
        let scope = self.fun().scopes.last().expect("open scope");
        let is_func_top = scope.is_func_top;
        let is_global = scope.is_global;
        let mut init = Vec::new();
        if !is_global {
            for b in &scope.bindings {
                if b.is_param {
                    continue; // frame entry binds parameters
                }
                if b.cell {
                    init.push(Op::NewCell(b.slot));
                } else if !is_func_top {
                    // Block/loop scopes re-enter within one frame; a
                    // function's own slots start empty anyway.
                    init.push(Op::ClearSlot(b.slot));
                }
            }
        }
        for op in init {
            self.emit(op);
        }
        self.hoist_funcs(stmts, is_global)
    }

    fn hoist_funcs(&mut self, stmts: &[Stmt], is_global: bool) -> Result<(), ScriptError> {
        for s in stmts {
            if let Stmt::Func {
                name, params, body, ..
            } = s
            {
                let proto = self.compile_function(name.clone(), params, body)?;
                self.emit(Op::MakeClosure(proto));
                if is_global {
                    let site = self.global_site(name)?;
                    self.emit(Op::DeclGlobal(site));
                } else {
                    self.emit_decl(name)?;
                }
            }
        }
        Ok(())
    }

    fn pop_scope(&mut self) {
        self.fun().scopes.pop();
    }

    /// Resolves `name` from the current position: candidate bindings
    /// innermost-out, stopping at the first definitely-bound one or
    /// falling through to the globals.
    fn resolve(&mut self, name: &str) -> Vec<Cand> {
        let mut cands = Vec::new();
        let cur = self.funcs.len() - 1;
        for fi in (0..self.funcs.len()).rev() {
            for si in (0..self.funcs[fi].scopes.len()).rev() {
                if self.funcs[fi].scopes[si].is_global {
                    cands.push(Cand::Global);
                    return cands;
                }
                let found = self.funcs[fi].scopes[si]
                    .bindings
                    .iter()
                    .find(|b| &*b.name == name)
                    .map(|b| (b.slot, b.cell, b.bound));
                if let Some((slot, cell, bound)) = found {
                    if fi == cur {
                        cands.push(Cand::Local { slot, cell });
                    } else {
                        // Cross-function references are always cells:
                        // `captured` collects every name mentioned
                        // inside nested functions.
                        debug_assert!(cell, "captured binding must be a cell");
                        let idx = self.upval_for(fi, slot);
                        cands.push(Cand::Up { idx });
                    }
                    if bound {
                        return cands;
                    }
                }
            }
        }
        cands.push(Cand::Global);
        cands
    }

    /// Threads an upvalue for the cell at `slot` of `funcs[owner]`
    /// through every function level down to the current one.
    fn upval_for(&mut self, owner: usize, slot: u16) -> u16 {
        let mut src = UpvalSrc::ParentCell(slot);
        let mut idx = 0;
        for fi in owner + 1..self.funcs.len() {
            idx = self.add_upval(fi, src);
            src = UpvalSrc::ParentUpval(idx);
        }
        idx
    }

    fn add_upval(&mut self, fi: usize, src: UpvalSrc) -> u16 {
        if let Some(i) = self.funcs[fi].upvals.iter().position(|u| *u == src) {
            return i as u16;
        }
        self.funcs[fi].upvals.push(src);
        (self.funcs[fi].upvals.len() - 1) as u16
    }

    fn make_chain(&mut self, name: &Rc<str>, cands: Vec<Cand>) -> Result<u16, ScriptError> {
        let refs: Box<[ChainRef]> = cands
            .into_iter()
            .map(|c| match c {
                Cand::Local { slot, cell: false } => ChainRef::Local(slot),
                Cand::Local { slot, cell: true } => ChainRef::CellSlot(slot),
                Cand::Up { idx } => ChainRef::Upval(idx),
                Cand::Global => ChainRef::Global,
            })
            .collect();
        let n = self.fun().chunk.chains.len();
        let idx = self.limit(n)?;
        self.fun().chunk.chains.push(ChainInfo {
            name: name.clone(),
            cands: refs,
        });
        Ok(idx)
    }

    fn emit_load_ident(&mut self, name: &Rc<str>) -> Result<(), ScriptError> {
        let cands = self.resolve(name);
        if cands.len() == 1 {
            // A single candidate is either the globals or a binding
            // that is definitely bound here — direct access.
            let op = match cands[0] {
                Cand::Local { slot, cell: false } => Op::LoadLocal(slot),
                Cand::Local { slot, cell: true } => Op::LoadCell(slot),
                Cand::Up { idx } => Op::LoadUpval(idx),
                Cand::Global => Op::LoadGlobal(self.global_site(name)?),
            };
            self.emit(op);
        } else {
            let chain = self.make_chain(name, cands)?;
            self.emit(Op::LoadChain(chain));
        }
        Ok(())
    }

    fn emit_store_ident(&mut self, name: &Rc<str>) -> Result<(), ScriptError> {
        let cands = self.resolve(name);
        if cands.len() == 1 {
            let op = match cands[0] {
                Cand::Local { slot, cell: false } => Op::StoreLocal(slot),
                Cand::Local { slot, cell: true } => Op::StoreCell(slot),
                Cand::Up { idx } => Op::StoreUpval(idx),
                Cand::Global => Op::StoreGlobal(self.global_site(name)?),
            };
            self.emit(op);
        } else {
            let chain = self.make_chain(name, cands)?;
            self.emit(Op::StoreChain(chain));
        }
        Ok(())
    }

    /// The frame slot of `name` when it resolves to exactly one
    /// candidate, a definitely-bound plain (uncaptured) local: the only
    /// bindings the slot-addressed ops (`GetLocalMember`, `AddLocal`,
    /// the pop-store of a discarded assignment) may name.
    fn bound_local(&mut self, target: &Expr) -> Option<u16> {
        let Expr::Ident(name) = target else {
            return None;
        };
        match self.resolve(name)[..] {
            [Cand::Local { slot, cell: false }] => Some(slot),
            _ => None,
        }
    }

    /// Emits the declaration for a `var` in the current scope and, at
    /// an unconditional position, marks the binding bound from here on.
    fn emit_decl(&mut self, name: &Rc<str>) -> Result<(), ScriptError> {
        let scope = self.fun().scopes.last().expect("open scope");
        if scope.is_global {
            let site = self.global_site(name)?;
            self.emit(Op::DeclGlobal(site));
            return Ok(());
        }
        let cond_depth = self.fun().cond_depth;
        let scope = self.fun().scopes.last_mut().expect("open scope");
        let unconditional = cond_depth == scope.entry_cond_depth;
        let b = scope
            .bindings
            .iter_mut()
            .find(|b| b.name == *name)
            .expect("declaration was pre-registered by push_scope");
        if unconditional {
            b.bound = true;
        }
        let op = if b.cell {
            Op::DeclCell(b.slot)
        } else {
            Op::DeclLocal(b.slot)
        };
        self.emit(op);
        Ok(())
    }

    // ---- functions ---------------------------------------------------------

    fn compile_function(
        &mut self,
        name: Rc<str>,
        params: &[Rc<str>],
        body: &[Stmt],
    ) -> Result<u16, ScriptError> {
        self.push_func(collect_captured(body));
        self.push_scope(params, body, &[], true)?;
        self.emit_scope_prologue(body)?;
        self.compile_stmts(body)?;
        self.emit(Op::ReturnNull);
        let fun = self.funcs.pop().expect("function context");
        let param_info = fun.param_info.clone();
        let upvals = fun.upvals.clone();
        let chunk = fun.finish();
        let proto = FnProto {
            name,
            params: param_info,
            upvals,
            chunk,
        };
        let n = self.fun().chunk.protos.len();
        let idx = self.limit(n)?;
        self.fun().chunk.protos.push(Rc::new(proto));
        Ok(idx)
    }

    // ---- statements --------------------------------------------------------

    fn compile_stmts(&mut self, stmts: &[Stmt]) -> Result<(), ScriptError> {
        for s in stmts {
            self.compile_stmt(s)?;
        }
        Ok(())
    }

    fn compile_stmt(&mut self, s: &Stmt) -> Result<(), ScriptError> {
        self.fun().cur_line = s.line();
        match s {
            Stmt::Var { decls, .. } => {
                for (name, init) in decls {
                    match init {
                        Some(e) => self.compile_expr(e)?,
                        None => self.emit(Op::PushNull),
                    }
                    self.emit_decl(name)?;
                }
                Ok(())
            }
            // Function statements only take effect through hoisting at
            // the entry of a *direct* enclosing scope; anywhere else
            // (e.g. as a bare `if` arm) the tree-walk executes them as
            // a no-op, so the compiler emits nothing either.
            Stmt::Func { .. } => Ok(()),
            Stmt::Expr { expr, .. } => self.compile_discarded(expr),
            Stmt::If {
                cond, then, els, ..
            } => {
                self.compile_expr(cond)?;
                let jf = self.emit_jump(Op::JumpIfFalse);
                self.fun().cond_depth += 1;
                self.compile_stmt(then)?;
                self.fun().cond_depth -= 1;
                if let Some(els) = els {
                    let jend = self.emit_jump(Op::Jump);
                    self.patch_jump(jf);
                    self.fun().cond_depth += 1;
                    self.compile_stmt(els)?;
                    self.fun().cond_depth -= 1;
                    self.patch_jump(jend);
                } else {
                    self.patch_jump(jf);
                }
                Ok(())
            }
            Stmt::While { cond, body, .. } => {
                let start = self.here() as u32;
                self.compile_expr(cond)?;
                let jf = self.emit_jump(Op::JumpIfFalse);
                self.fun().loops.push(LoopCtx {
                    breaks: Vec::new(),
                    continues: Vec::new(),
                });
                self.fun().cond_depth += 1;
                self.compile_stmt(body)?;
                self.fun().cond_depth -= 1;
                self.emit(Op::Jump(start));
                self.patch_jump(jf);
                let ctx = self.fun().loops.pop().expect("loop context");
                self.finish_loop(ctx, start);
                Ok(())
            }
            Stmt::DoWhile { body, cond, .. } => {
                let start = self.here() as u32;
                self.fun().loops.push(LoopCtx {
                    breaks: Vec::new(),
                    continues: Vec::new(),
                });
                self.fun().cond_depth += 1;
                self.compile_stmt(body)?;
                self.fun().cond_depth -= 1;
                let cond_pos = self.here() as u32;
                self.compile_expr(cond)?;
                // Loop back while truthy: invert and fall through.
                self.emit(Op::Not);
                self.emit(Op::JumpIfFalse(start));
                let ctx = self.fun().loops.pop().expect("loop context");
                self.finish_loop(ctx, cond_pos);
                Ok(())
            }
            Stmt::ForIn {
                name, object, body, ..
            } => {
                // The enumerated object is evaluated in the *outer*
                // scope (the loop variable is not visible to it).
                self.compile_expr(object)?;
                let mut extra = Vec::new();
                if !analyze::creates_scope(body) {
                    let mut vars = Vec::new();
                    analyze::collect_scope_vars_stmt(body, &mut vars);
                    extra.extend(vars.into_iter().map(|(n, _)| n));
                }
                let loop_vars = [name.clone()];
                self.push_scope(&[], &[], &[&loop_vars[..], &extra[..]].concat(), false)?;
                // Un-mark the loop variable: `push_scope` extra vars
                // start unbound, and the per-iteration declaration
                // below dominates every body read.
                self.emit_scope_prologue(&[])?;
                let iter_slot = self.alloc_slot()?;
                self.emit(Op::ForInPrep(iter_slot));
                let next = self.here();
                self.emit(Op::ForInNext(iter_slot, u32::MAX));
                self.emit_decl(name)?;
                self.fun().loops.push(LoopCtx {
                    breaks: Vec::new(),
                    continues: Vec::new(),
                });
                self.fun().cond_depth += 1;
                self.compile_stmt(body)?;
                self.fun().cond_depth -= 1;
                self.emit(Op::Jump(next as u32));
                self.patch_jump(next); // ForInNext exit
                let ctx = self.fun().loops.pop().expect("loop context");
                self.finish_loop(ctx, next as u32);
                self.pop_scope();
                Ok(())
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                let mut extra = Vec::new();
                if !analyze::creates_scope(body) {
                    let mut vars = Vec::new();
                    analyze::collect_scope_vars_stmt(body, &mut vars);
                    extra.extend(vars.into_iter().map(|(n, _)| n));
                }
                // `push_scope` also scans `init` (passed as the
                // statement list) for its `var` names.
                let init_stmts: &[Stmt] = match init {
                    Some(b) => std::slice::from_ref(&**b),
                    None => &[],
                };
                self.push_scope(&[], init_stmts, &extra, false)?;
                self.emit_scope_prologue(init_stmts)?;
                if let Some(init) = init {
                    self.compile_stmt(init)?;
                }
                let start = self.here() as u32;
                let jf = match cond {
                    Some(cond) => {
                        self.compile_expr(cond)?;
                        Some(self.emit_jump(Op::JumpIfFalse))
                    }
                    None => None,
                };
                self.fun().loops.push(LoopCtx {
                    breaks: Vec::new(),
                    continues: Vec::new(),
                });
                self.fun().cond_depth += 1;
                self.compile_stmt(body)?;
                self.fun().cond_depth -= 1;
                let step_pos = self.here() as u32;
                if let Some(step) = step {
                    self.compile_discarded(step)?;
                }
                self.emit(Op::Jump(start));
                if let Some(jf) = jf {
                    self.patch_jump(jf);
                }
                let ctx = self.fun().loops.pop().expect("loop context");
                self.finish_loop(ctx, step_pos);
                self.pop_scope();
                Ok(())
            }
            Stmt::Return { value, .. } => {
                match value {
                    Some(e) => self.compile_expr(e)?,
                    None => self.emit(Op::PushNull),
                }
                self.emit(Op::Return);
                Ok(())
            }
            Stmt::Break { .. } => {
                if self.fun().loops.is_empty() {
                    self.emit(Op::FlowErr(0));
                } else {
                    let j = self.emit_jump(Op::Jump);
                    self.fun().loops.last_mut().expect("loop").breaks.push(j);
                }
                Ok(())
            }
            Stmt::Continue { .. } => {
                if self.fun().loops.is_empty() {
                    self.emit(Op::FlowErr(1));
                } else {
                    let j = self.emit_jump(Op::Jump);
                    self.fun().loops.last_mut().expect("loop").continues.push(j);
                }
                Ok(())
            }
            Stmt::Block { body, .. } => {
                self.push_scope(&[], body, &[], false)?;
                self.emit_scope_prologue(body)?;
                self.compile_stmts(body)?;
                self.pop_scope();
                Ok(())
            }
            Stmt::Empty { .. } => Ok(()),
        }
    }

    fn finish_loop(&mut self, ctx: LoopCtx, continue_target: u32) {
        for j in ctx.breaks {
            self.patch_jump(j);
        }
        for j in ctx.continues {
            self.patch_jump_to(j, continue_target);
        }
    }

    // ---- expressions -------------------------------------------------------

    fn compile_expr(&mut self, e: &Expr) -> Result<(), ScriptError> {
        match e {
            Expr::Number(n) => {
                let idx = self.add_const(ConstKey::Num(n.to_bits()), Value::Num(*n))?;
                self.emit(Op::Const(idx));
            }
            Expr::Str(s) => {
                let idx = self.add_const(ConstKey::Str(s.clone()), Value::Str(s.clone()))?;
                self.emit(Op::Const(idx));
            }
            Expr::Bool(true) => self.emit(Op::PushTrue),
            Expr::Bool(false) => self.emit(Op::PushFalse),
            Expr::Null => self.emit(Op::PushNull),
            Expr::Ident(name) => self.emit_load_ident(name)?,
            Expr::Array(items) => {
                for item in items {
                    self.compile_expr(item)?;
                }
                let n = self.limit(items.len())?;
                self.emit(Op::MakeArray(n));
            }
            Expr::Object(props) => {
                let distinct = props
                    .iter()
                    .enumerate()
                    .all(|(i, (k, _))| props[..i].iter().all(|(earlier, _)| earlier != k));
                if distinct {
                    for (_, value) in props {
                        self.compile_expr(value)?;
                    }
                    let keys = props.iter().map(|(k, _)| intern(k)).collect();
                    self.emit_make_object(keys)?;
                } else {
                    // `{a: 1, a: 2}`: a shape's keys are distinct, so a
                    // literal that repeats one is built by stores, each
                    // replacing in place like the tree-walk's inserts.
                    self.emit_make_object(Rc::from([]))?;
                    for (key, value) in props {
                        self.emit(Op::Dup);
                        self.compile_expr(value)?;
                        self.emit(Op::Swap);
                        let site = self.member_site(key)?;
                        self.emit(Op::SetMember(site));
                        self.emit(Op::Pop);
                    }
                }
            }
            Expr::Func { params, body } => {
                let proto = self.compile_function(Rc::from("<anonymous>"), params, body)?;
                self.emit(Op::MakeClosure(proto));
            }
            Expr::Unary { op, expr } => {
                self.compile_expr(expr)?;
                self.emit(match op {
                    UnaryOp::Not => Op::Not,
                    UnaryOp::Neg => Op::Neg,
                    UnaryOp::Plus => Op::UnaryPlus,
                    UnaryOp::Typeof => Op::TypeOf,
                });
            }
            Expr::Binary { op, lhs, rhs } => {
                self.compile_expr(lhs)?;
                self.compile_expr(rhs)?;
                self.emit(bin_op(*op));
            }
            Expr::Logical { op, lhs, rhs } => {
                self.compile_expr(lhs)?;
                let j = match op {
                    LogicalOp::And => self.emit_jump(Op::JumpIfFalsePeek),
                    LogicalOp::Or => self.emit_jump(Op::JumpIfTruePeek),
                };
                self.emit(Op::Pop);
                self.compile_expr(rhs)?;
                self.patch_jump(j);
            }
            Expr::Ternary { cond, then, els } => {
                self.compile_expr(cond)?;
                let jf = self.emit_jump(Op::JumpIfFalse);
                self.compile_expr(then)?;
                let jend = self.emit_jump(Op::Jump);
                self.patch_jump(jf);
                self.compile_expr(els)?;
                self.patch_jump(jend);
            }
            Expr::Assign { target, op, value } => {
                self.compile_assign_value(target, *op, value)?;
                self.compile_store_to_target(target)?;
            }
            Expr::Update {
                target,
                increment,
                prefix,
            } => {
                if let Some(slot) = self.bound_local(target) {
                    // The slot is bumped in place; the expression's
                    // value is the slot read before or after.
                    let bump = Op::AddLocal(slot, if *increment { 1 } else { -1 });
                    let (first, second) = if *prefix {
                        (bump, Op::LoadLocal(slot))
                    } else {
                        (Op::LoadLocal(slot), bump)
                    };
                    self.emit(first);
                    self.emit(second);
                } else {
                    self.compile_read_of_target(target)?;
                    if !*prefix {
                        self.emit(Op::Dup);
                    }
                    self.emit(if *increment { Op::Inc } else { Op::Dec });
                    self.compile_store_to_target(target)?;
                    if !*prefix {
                        self.emit(Op::Pop);
                    }
                }
            }
            Expr::Call { callee, args, line } => {
                self.fun().cur_line = *line;
                let argc = u8::try_from(args.len())
                    .map_err(|_| ScriptError::new(ErrorKind::Parse, LIMIT_ERR, *line))?;
                // Arguments evaluate before the callee / receiver —
                // the tree-walk's order.
                for a in args {
                    self.compile_expr(a)?;
                }
                if let Expr::Member { object, name } = callee.as_ref() {
                    if let Some(f) = self.math_fast_path(object, name) {
                        self.emit(Op::MathCall(f, argc));
                        return Ok(());
                    }
                    self.compile_expr(object)?;
                    let site = self.member_site(name)?;
                    self.emit(Op::CallMethod(site, argc));
                } else {
                    self.compile_expr(callee)?;
                    self.emit(Op::Call(argc));
                }
            }
            Expr::Member { object, name } => self.compile_member_read(object, name)?,
            Expr::Index { object, index } => {
                self.compile_expr(object)?;
                self.compile_expr(index)?;
                self.emit(Op::GetIndex);
            }
        }
        Ok(())
    }

    /// An expression whose value nobody reads (an expression statement,
    /// a `for` update clause). `++`/`--` and assignment are the cases
    /// worth a lowering of their own: on a bound plain local they leave
    /// nothing on the stack to pop, and a discarded `x++` anywhere is
    /// `++x` (no copy of the old value).
    fn compile_discarded(&mut self, e: &Expr) -> Result<(), ScriptError> {
        match e {
            Expr::Update {
                target, increment, ..
            } => {
                if let Some(slot) = self.bound_local(target) {
                    self.emit(Op::AddLocal(slot, if *increment { 1 } else { -1 }));
                    return Ok(());
                }
                self.compile_read_of_target(target)?;
                self.emit(if *increment { Op::Inc } else { Op::Dec });
                self.compile_store_to_target(target)?;
            }
            Expr::Assign { target, op, value } => {
                self.compile_assign_value(target, *op, value)?;
                if let Some(slot) = self.bound_local(target) {
                    self.emit(Op::DeclLocal(slot));
                    return Ok(());
                }
                self.compile_store_to_target(target)?;
            }
            other => self.compile_expr(other)?,
        }
        self.emit(Op::Pop);
        Ok(())
    }

    /// Pushes the value an assignment stores. Evaluation order matches
    /// the tree-walk exactly: rhs first, then the current value (for
    /// compound ops); the store evaluates the target's object/index
    /// expressions *again* — including their side effects.
    fn compile_assign_value(
        &mut self,
        target: &Expr,
        op: Option<BinOp>,
        value: &Expr,
    ) -> Result<(), ScriptError> {
        self.compile_expr(value)?;
        if let Some(op) = op {
            self.compile_read_of_target(target)?;
            self.emit(Op::Swap);
            self.emit(bin_op(op));
        }
        Ok(())
    }

    /// `object.name` as a value: fused into one borrowing read when the
    /// receiver is a bound plain local.
    fn compile_member_read(&mut self, object: &Expr, name: &Rc<str>) -> Result<(), ScriptError> {
        let op = match self.bound_local(object) {
            Some(slot) => Op::GetLocalMember(slot, self.member_site(name)?),
            None => {
                self.compile_expr(object)?;
                Op::GetMember(self.member_site(name)?)
            }
        };
        self.emit(op);
        Ok(())
    }

    fn emit_make_object(&mut self, keys: Rc<[Rc<str>]>) -> Result<(), ScriptError> {
        let n = self.fun().chunk.shapes.len();
        let idx = self.limit(n)?;
        self.fun().chunk.shapes.push(keys);
        self.emit(Op::MakeObject(idx));
        Ok(())
    }

    /// `Math.fn(..)` resolves to a direct [`Op::MathCall`] only when
    /// the program provably never rebinds, shadows, mutates or aliases
    /// `Math` and the name is a dispatchable builtin.
    fn math_fast_path(&mut self, object: &Expr, name: &str) -> Option<u8> {
        if !self.math_ok {
            return None;
        }
        let Expr::Ident(obj_name) = object else {
            return None;
        };
        if &**obj_name != "Math" {
            return None;
        }
        // Shadowing cannot happen when `math_ok` (no binding anywhere
        // is named Math), so resolution is necessarily the globals.
        debug_assert!(matches!(self.resolve("Math")[..], [Cand::Global]));
        builtins::math_fn_index(name)
    }

    /// Pushes the current value of an assignment target (the object /
    /// index sub-expressions are evaluated here, and evaluated *again*
    /// by the matching store — tree-walk semantics).
    fn compile_read_of_target(&mut self, target: &Expr) -> Result<(), ScriptError> {
        match target {
            Expr::Ident(name) => self.emit_load_ident(name),
            Expr::Member { object, name } => self.compile_member_read(object, name),
            Expr::Index { object, index } => {
                self.compile_expr(object)?;
                self.compile_expr(index)?;
                self.emit(Op::GetIndex);
                Ok(())
            }
            // The parser rejects other targets (`is_lvalue`).
            _ => Err(ScriptError::new(
                ErrorKind::Type,
                "invalid assignment target",
                self.funcs.last().map_or(0, |f| f.cur_line),
            )),
        }
    }

    /// Stores the top of stack into `target`, leaving it on the stack
    /// (assignment is an expression).
    fn compile_store_to_target(&mut self, target: &Expr) -> Result<(), ScriptError> {
        match target {
            Expr::Ident(name) => self.emit_store_ident(name),
            Expr::Member { object, name } => {
                self.compile_expr(object)?;
                let site = self.member_site(name)?;
                self.emit(Op::SetMember(site));
                Ok(())
            }
            Expr::Index { object, index } => {
                self.compile_expr(object)?;
                self.compile_expr(index)?;
                self.emit(Op::SetIndex);
                Ok(())
            }
            _ => Err(ScriptError::new(
                ErrorKind::Type,
                "invalid assignment target",
                self.funcs.last().map_or(0, |f| f.cur_line),
            )),
        }
    }
}

fn bin_op(op: BinOp) -> Op {
    match op {
        BinOp::Add => Op::Add,
        BinOp::Sub => Op::Sub,
        BinOp::Mul => Op::Mul,
        BinOp::Div => Op::Div,
        BinOp::Rem => Op::Rem,
        BinOp::Eq => Op::Eq,
        BinOp::NotEq => Op::Ne,
        BinOp::Lt => Op::Lt,
        BinOp::Gt => Op::Gt,
        BinOp::Le => Op::Le,
        BinOp::Ge => Op::Ge,
    }
}

// ---- whole-program analyses ------------------------------------------------

/// Names referenced (as identifiers) anywhere inside functions nested
/// below this statement list — the conservative capture set.
fn collect_captured(stmts: &[Stmt]) -> BTreeSet<Rc<str>> {
    let mut out = BTreeSet::new();
    for s in stmts {
        captured(Node::Stmt(s), &mut out);
    }
    out
}

fn captured(n: Node<'_>, out: &mut BTreeSet<Rc<str>>) {
    match n {
        Node::Stmt(Stmt::Func { body, .. }) | Node::Expr(Expr::Func { body, .. }) => {
            body.iter().for_each(|s| all_idents(Node::Stmt(s), out));
        }
        _ => n.for_each_child(&mut |child| captured(child, out)),
    }
}

/// Every identifier mentioned in a nested-function body, at any depth.
fn all_idents(n: Node<'_>, out: &mut BTreeSet<Rc<str>>) {
    match n {
        Node::Expr(Expr::Ident(name)) => {
            out.insert(name.clone());
        }
        // A function inside the nested function captures from here
        // through it.
        Node::Stmt(Stmt::Func { body, .. }) | Node::Expr(Expr::Func { body, .. }) => {
            body.iter().for_each(|s| all_idents(Node::Stmt(s), out));
        }
        _ => n.for_each_child(&mut |child| all_idents(child, out)),
    }
}

//! Static analysis for PogoScript.
//!
//! A multi-pass analyzer over the parsed AST that catches script bugs
//! *before* a deployment ships them to a fleet of phones. The passes:
//!
//! 1. **Scope resolution** — undeclared reads/writes, use before
//!    declaration, duplicate declarations, shadowing. Semantics match
//!    the interpreter exactly: `var` declares at the point the
//!    statement executes (no hoisting), blocks and `for` initializers
//!    open child scopes, and `function` declarations are hoisted to
//!    the top of their *direct* enclosing statement list.
//! 2. **API contracts** — a declarative signature table for the Pogo
//!    host API and stdlib builtins: wrong arity, non-callable callees,
//!    literal arguments of a knowably wrong type, and (in bundle mode)
//!    subscribed channels that nothing publishes.
//! 3. **Flow diagnostics** — unreachable statements, constant
//!    conditions, loops that can never terminate under the instruction
//!    budget, assignments in condition position.
//! 4. **Purity/sandbox** — unused variables/functions/params, globals
//!    written but never read, calls to natives the standard API does
//!    not provide.
//!
//! The passes share one AST walk; diagnostics come back sorted by line
//! then code so output is deterministic.

use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use crate::ast::{walk_subexprs, walk_substmts, Expr, Node, Stmt};
use crate::builtins::MATH_DISPATCH;
use crate::diag::{Diagnostic, Rule};
use crate::parser::parse;

/// Channels the simulated sensors publish on. Scripts may subscribe to
/// these without any script publishing them. Mirrors
/// `pogo_core::sensor::Kind::channel()` — the script crate sits below
/// core, so the list is duplicated here and pinned by a test in core.
pub const SENSOR_CHANNELS: &[&str] = &[
    "wifi-scan",
    "battery",
    "location",
    "accelerometer",
    "cell-id",
];

/// Knobs for [`analyze_with`].
#[derive(Debug, Clone, Default)]
pub struct AnalyzeOptions {
    /// Extension natives the host registers beyond the standard API
    /// (e.g. a collector-side `geolocate`). Calls to these are not
    /// flagged as unknown natives.
    pub extra_natives: Vec<String>,
}

/// Analyzes a single script with default options.
pub fn analyze(source: &str) -> Vec<Diagnostic> {
    analyze_with(source, &AnalyzeOptions::default())
}

/// Analyzes a single script. Bundle-level rules (P103) do not fire
/// here — use [`analyze_bundle_with`] for those.
pub fn analyze_with(source: &str, opts: &AnalyzeOptions) -> Vec<Diagnostic> {
    analyze_collect(source, opts).0
}

/// Analyzes a deployment bundle: every script individually, plus
/// cross-script channel analysis (a subscribed channel must be
/// published by *some* script in the bundle or be a sensor channel).
/// Returns `(script_name, diagnostic)` pairs.
pub fn analyze_bundle(scripts: &[(&str, &str)]) -> Vec<(String, Diagnostic)> {
    analyze_bundle_with(scripts, &AnalyzeOptions::default())
}

/// [`analyze_bundle`] with options applied to every script.
pub fn analyze_bundle_with(
    scripts: &[(&str, &str)],
    opts: &AnalyzeOptions,
) -> Vec<(String, Diagnostic)> {
    let mut out = Vec::new();
    let mut published: HashSet<String> = HashSet::new();
    let mut subscribed: Vec<(String, String, u32)> = Vec::new();
    let mut any_dynamic_publish = false;
    for (name, source) in scripts {
        let (diags, channels) = analyze_collect(source, opts);
        out.extend(diags.into_iter().map(|d| (name.to_string(), d)));
        published.extend(channels.published);
        any_dynamic_publish |= channels.dynamic_publish;
        subscribed.extend(
            channels
                .subscribed
                .into_iter()
                .map(|(ch, line)| (name.to_string(), ch, line)),
        );
    }
    // A publish with a computed channel name could feed anything, so
    // the never-published rule would only guess; stay quiet.
    if !any_dynamic_publish {
        for (name, ch, line) in subscribed {
            if !published.contains(&ch) && !SENSOR_CHANNELS.contains(&ch.as_str()) {
                out.push((
                    name,
                    Diagnostic::new(
                        Rule::UnpublishedChannel,
                        line,
                        format!(
                            "channel `{ch}` is subscribed but never published by any \
                             script in this bundle and is not a sensor channel"
                        ),
                    ),
                ));
            }
        }
    }
    out
}

/// Channel usage extracted from one script while analyzing it.
#[derive(Debug, Default)]
struct ChannelUse {
    published: HashSet<String>,
    /// `(channel, line)` per string-literal `subscribe`.
    subscribed: Vec<(String, u32)>,
    /// True when a `publish` call's channel is not a string literal.
    dynamic_publish: bool,
}

fn analyze_collect(source: &str, opts: &AnalyzeOptions) -> (Vec<Diagnostic>, ChannelUse) {
    let program = match parse(source) {
        Ok(p) => p,
        Err(e) => {
            return (
                vec![Diagnostic::new(
                    Rule::ParseError,
                    e.line(),
                    format!("script does not parse: {}", e.message()),
                )],
                ChannelUse::default(),
            )
        }
    };
    let mut a = Analyzer::new(opts);
    a.math_ok = program_math_ok(&program);
    a.push_frame(FrameKind::Global);
    a.prescan(&program);
    a.walk_stmts(&program);
    a.pop_frame();
    a.diags.sort_by_key(|d| (d.line, d.rule.code()));
    (a.diags, a.channels)
}

// ---- signature table ---------------------------------------------------------

/// What the analyzer can prove about a literal argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ArgKind {
    Any,
    Str,
    Num,
    Func,
}

impl ArgKind {
    fn describe(self) -> &'static str {
        match self {
            ArgKind::Any => "any value",
            ArgKind::Str => "a string",
            ArgKind::Num => "a number",
            ArgKind::Func => "a function",
        }
    }
}

/// Arity and literal-argument expectations for one known native.
pub(crate) struct NativeSig {
    pub(crate) name: &'static str,
    min: usize,
    /// `None` means variadic.
    max: Option<usize>,
    /// Expected kinds by position; positions past the end are `Any`.
    args: &'static [ArgKind],
}

/// The 11-method Pogo host API (§4 of the paper / Table 1 of
/// `assets/scripts/README.md`) plus the stdlib builtins installed by
/// `builtins::install`. `publish` accepts both argument orders, so its
/// literal-type check is special-cased in `check_call`.
pub(crate) const NATIVE_SIGS: &[NativeSig] = &[
    NativeSig {
        name: "setDescription",
        min: 1,
        max: Some(1),
        args: &[ArgKind::Any],
    },
    NativeSig {
        name: "setAutoStart",
        min: 1,
        max: Some(1),
        args: &[ArgKind::Any],
    },
    NativeSig {
        name: "print",
        min: 1,
        max: None,
        args: &[],
    },
    NativeSig {
        name: "log",
        min: 1,
        max: None,
        args: &[],
    },
    NativeSig {
        name: "logTo",
        min: 2,
        max: None,
        args: &[ArgKind::Str],
    },
    NativeSig {
        name: "publish",
        min: 2,
        max: Some(2),
        args: &[],
    },
    NativeSig {
        name: "subscribe",
        min: 2,
        max: Some(3),
        args: &[ArgKind::Str, ArgKind::Func],
    },
    NativeSig {
        name: "freeze",
        min: 1,
        max: Some(1),
        args: &[ArgKind::Any],
    },
    NativeSig {
        name: "thaw",
        min: 0,
        max: Some(0),
        args: &[],
    },
    NativeSig {
        name: "json",
        min: 1,
        max: Some(1),
        args: &[ArgKind::Any],
    },
    NativeSig {
        name: "setTimeout",
        min: 1,
        max: Some(2),
        args: &[ArgKind::Func, ArgKind::Num],
    },
    NativeSig {
        name: "keys",
        min: 1,
        max: Some(1),
        args: &[ArgKind::Any],
    },
    NativeSig {
        name: "Number",
        min: 1,
        max: Some(1),
        args: &[ArgKind::Any],
    },
    NativeSig {
        name: "String",
        min: 1,
        max: Some(1),
        args: &[ArgKind::Any],
    },
    NativeSig {
        name: "isNaN",
        min: 1,
        max: Some(1),
        args: &[ArgKind::Any],
    },
    NativeSig {
        name: "parseFloat",
        min: 1,
        max: Some(1),
        args: &[ArgKind::Any],
    },
];

/// `Math.*` non-callable constants.
const MATH_CONSTS: &[&str] = &["PI", "E"];

fn native_sig(name: &str) -> Option<&'static NativeSig> {
    NATIVE_SIGS.iter().find(|s| s.name == name)
}

/// The literal kind of an expression, if it is a literal at all.
fn literal_kind(e: &Expr) -> Option<ArgKind> {
    match e {
        Expr::Number(_) => Some(ArgKind::Num),
        Expr::Str(_) => Some(ArgKind::Str),
        Expr::Func { .. } => Some(ArgKind::Func),
        Expr::Bool(_) | Expr::Null | Expr::Array(_) | Expr::Object(_) => Some(ArgKind::Any),
        _ => None,
    }
}

/// True when a literal of kind `found` can never satisfy `want`.
fn literal_mismatch(want: ArgKind, found: ArgKind) -> bool {
    want != ArgKind::Any && found != want
}

fn describe_literal(e: &Expr) -> &'static str {
    match e {
        Expr::Number(_) => "a number literal",
        Expr::Str(_) => "a string literal",
        Expr::Bool(_) => "a boolean literal",
        Expr::Null => "`null`",
        Expr::Array(_) => "an array literal",
        Expr::Object(_) => "an object literal",
        Expr::Func { .. } => "a function literal",
        _ => "this expression",
    }
}

// ---- scope machinery ---------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BindKind {
    /// Host API / stdlib / extension native (outermost frame).
    Native,
    Var,
    Param,
    Func,
}

#[derive(Debug)]
struct Binding {
    name: Rc<str>,
    kind: BindKind,
    line: u32,
    reads: usize,
    /// Assignments after the declaration (the initializer not counted).
    writes: usize,
    /// True once the declaring statement has been walked. Pre-scanned
    /// `var`s start false so straight-line use-before-declaration is
    /// caught exactly where the interpreter would fault.
    declared: bool,
    /// Parameter of an anonymous function expression (callback) —
    /// exempt from the unused-parameter rule, since handlers routinely
    /// ignore `from`.
    anon_param: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameKind {
    /// Outermost frame holding the host API and builtins.
    Natives,
    Global,
    /// A function body (params + vars). Lookups that cross one of
    /// these resolve *deferred*: the code only runs when called, by
    /// which time later `var`s in enclosing scopes exist.
    FuncBody,
    /// Block / `for` / `for-in` scope.
    Block,
}

#[derive(Debug)]
struct Frame {
    kind: FrameKind,
    slots: HashMap<Rc<str>, usize>,
}

struct Analyzer {
    diags: Vec<Diagnostic>,
    frames: Vec<Frame>,
    bindings: Vec<Binding>,
    channels: ChannelUse,
    /// Line context for expression-level diagnostics.
    line: u32,
    /// [`program_math_ok`]: the `Math` member table applies only while
    /// `Math` is not rebound, aliased or mutated.
    math_ok: bool,
}

impl Analyzer {
    fn new(opts: &AnalyzeOptions) -> Self {
        let mut a = Analyzer {
            diags: Vec::new(),
            frames: Vec::new(),
            bindings: Vec::new(),
            channels: ChannelUse::default(),
            line: 0,
            math_ok: true,
        };
        a.push_frame(FrameKind::Natives);
        for sig in NATIVE_SIGS {
            a.insert_binding(Rc::from(sig.name), BindKind::Native, 0, true);
        }
        a.insert_binding(Rc::from("Math"), BindKind::Native, 0, true);
        for name in &opts.extra_natives {
            a.insert_binding(Rc::from(name.as_str()), BindKind::Native, 0, true);
        }
        a
    }

    fn report(&mut self, rule: Rule, line: u32, message: String) {
        self.diags.push(Diagnostic::new(rule, line, message));
    }

    fn push_frame(&mut self, kind: FrameKind) {
        self.frames.push(Frame {
            kind,
            slots: HashMap::new(),
        });
    }

    fn insert_binding(
        &mut self,
        name: Rc<str>,
        kind: BindKind,
        line: u32,
        declared: bool,
    ) -> usize {
        let id = self.bindings.len();
        self.bindings.push(Binding {
            name: name.clone(),
            kind,
            line,
            reads: 0,
            writes: 0,
            declared,
            anon_param: false,
        });
        self.frames
            .last_mut()
            .expect("frame stack never empty")
            .slots
            .insert(name, id);
        id
    }

    /// Pops a frame and runs the unused-binding checks over it.
    fn pop_frame(&mut self) {
        let frame = self.frames.pop().expect("frame stack never empty");
        if frame.kind == FrameKind::Natives {
            return;
        }
        let global = frame.kind == FrameKind::Global;
        let mut ids: Vec<usize> = frame.slots.into_values().collect();
        ids.sort_unstable();
        for id in ids {
            let b = &self.bindings[id];
            if b.reads > 0 || b.name.starts_with('_') {
                continue;
            }
            let (name, line, kind, writes, anon) =
                (b.name.clone(), b.line, b.kind, b.writes, b.anon_param);
            match kind {
                BindKind::Func => {
                    // `start` is the conventional host entry point
                    // (invoked by the collector, not the script).
                    if !(global && &*name == "start") {
                        self.report(
                            Rule::UnusedFunction,
                            line,
                            format!("function `{name}` is never used"),
                        );
                    }
                }
                BindKind::Param => {
                    if !anon {
                        self.report(
                            Rule::UnusedParam,
                            line,
                            format!("parameter `{name}` is never used"),
                        );
                    }
                }
                BindKind::Var => {
                    if global && writes > 0 {
                        self.report(
                            Rule::WriteOnlyGlobal,
                            line,
                            format!("global `{name}` is written but never read"),
                        );
                    } else {
                        self.report(
                            Rule::UnusedVariable,
                            line,
                            format!("variable `{name}` is never used"),
                        );
                    }
                }
                BindKind::Native => {}
            }
        }
    }

    /// Pre-registers what a statement list will declare in the scope
    /// just pushed: hoisted `function`s (declared immediately, exactly
    /// like the interpreter's `hoist`) and `var`s (registered but not
    /// yet declared, so use-before-declaration is detectable).
    fn prescan(&mut self, body: &[Stmt]) {
        for stmt in body {
            if let Stmt::Func { name, line, .. } = stmt {
                let frame = self.frames.last().expect("frame stack never empty");
                if let Some(&id) = frame.slots.get(name) {
                    let prev = self.bindings[id].line;
                    self.report(
                        Rule::DuplicateDecl,
                        *line,
                        format!("`{name}` is already declared on line {prev}"),
                    );
                }
                self.insert_binding(name.clone(), BindKind::Func, *line, true);
            }
        }
        let mut vars = Vec::new();
        collect_scope_vars(body, &mut vars);
        for (name, line) in vars {
            let frame = self.frames.last().expect("frame stack never empty");
            if frame.slots.contains_key(&name) {
                continue; // duplicate reported when the Var stmt walks
            }
            self.insert_binding(name, BindKind::Var, line, false);
        }
    }

    /// Resolves a read of `name`. Walking outward, once a function
    /// boundary is crossed the remaining frames resolve leniently
    /// (their later `var`s exist by the time the function runs).
    fn resolve_read(&mut self, name: &Rc<str>, in_call_position: bool) {
        let line = self.line;
        let mut crossed_fn = false;
        for fi in (0..self.frames.len()).rev() {
            if let Some(&id) = self.frames[fi].slots.get(name) {
                let b = &mut self.bindings[id];
                b.reads += 1;
                if !b.declared && !crossed_fn {
                    let decl_line = b.line;
                    self.report(
                        Rule::UseBeforeDecl,
                        line,
                        format!("`{name}` is used before its declaration on line {decl_line}"),
                    );
                }
                return;
            }
            if self.frames[fi].kind == FrameKind::FuncBody {
                crossed_fn = true;
            }
        }
        if in_call_position {
            self.report(
                Rule::UnknownNative,
                line,
                format!(
                    "call to `{name}`, which is neither declared nor part of the Pogo \
                     API — this only works if the host registers it as an extension native"
                ),
            );
        } else {
            self.report(
                Rule::UndeclaredRead,
                line,
                format!("`{name}` is not defined"),
            );
        }
    }

    /// Resolves an assignment to `name`.
    fn resolve_write(&mut self, name: &Rc<str>) {
        let line = self.line;
        let mut crossed_fn = false;
        for fi in (0..self.frames.len()).rev() {
            if let Some(&id) = self.frames[fi].slots.get(name) {
                let b = &mut self.bindings[id];
                b.writes += 1;
                if !b.declared && !crossed_fn {
                    let decl_line = b.line;
                    self.report(
                        Rule::UseBeforeDecl,
                        line,
                        format!("`{name}` is assigned before its declaration on line {decl_line}"),
                    );
                }
                return;
            }
            if self.frames[fi].kind == FrameKind::FuncBody {
                crossed_fn = true;
            }
        }
        self.report(
            Rule::UndeclaredWrite,
            line,
            format!("assignment to undeclared variable `{name}`"),
        );
    }

    /// Looks `name` up without recording a read; returns the frame
    /// index it resolves in.
    fn lookup_frame(&self, name: &str) -> Option<usize> {
        (0..self.frames.len())
            .rev()
            .find(|&fi| self.frames[fi].slots.contains_key(name))
    }

    /// True when `name` currently resolves to the outermost natives
    /// frame, i.e. no user binding shadows it.
    fn resolves_to_native(&self, name: &str) -> bool {
        self.lookup_frame(name) == Some(0)
    }

    // ---- statement walk ------------------------------------------------------

    fn walk_stmts(&mut self, body: &[Stmt]) {
        let mut diverged_line: Option<u32> = None;
        let mut reported = false;
        for stmt in body {
            if let Some(at) = diverged_line {
                // Hoisted functions still get declared, and bare `;`
                // is noise, not code.
                let is_code = !matches!(stmt, Stmt::Func { .. } | Stmt::Empty { .. });
                if is_code && !reported {
                    self.report(
                        Rule::UnreachableCode,
                        stmt.line(),
                        format!("unreachable: the statement on line {at} always exits"),
                    );
                    reported = true;
                }
            }
            self.walk_stmt(stmt, true);
            if diverged_line.is_none() && diverges(stmt) {
                diverged_line = Some(stmt.line());
            }
        }
    }

    /// `hoistable` is true when this statement sits directly in a
    /// statement list — the only position where the interpreter's
    /// hoisting pass sees `function` declarations.
    fn walk_stmt(&mut self, stmt: &Stmt, hoistable: bool) {
        self.line = stmt.line();
        match stmt {
            Stmt::Var { decls, line } => {
                for (name, init) in decls {
                    self.line = *line;
                    if let Some(init) = init {
                        self.walk_expr(init);
                        self.line = *line;
                    }
                    self.declare_var(name, *line, init.is_some());
                }
            }
            Stmt::Func {
                name,
                params,
                body,
                line,
            } => {
                if hoistable {
                    self.walk_function(params, body, false);
                } else {
                    // The interpreter only hoists functions from the
                    // direct statement list; one nested under an `if`
                    // arm is never declared at all.
                    self.report(
                        Rule::UnreachableCode,
                        *line,
                        format!(
                            "function `{name}` is declared in a nested statement \
                             position, where PogoScript never registers it"
                        ),
                    );
                    self.walk_function(params, body, true);
                }
            }
            Stmt::Expr { expr, .. } => self.walk_expr(expr),
            Stmt::If {
                cond,
                then,
                els,
                line,
            } => {
                self.check_condition(cond, *line, "if");
                self.walk_expr(cond);
                self.walk_stmt(then, false);
                if let Some(els) = els {
                    self.walk_stmt(els, false);
                }
            }
            Stmt::While { cond, body, line } => {
                self.check_loop_condition(Some(cond), body, *line, "while");
                self.walk_expr(cond);
                self.walk_stmt(body, false);
            }
            Stmt::DoWhile { body, cond, line } => {
                self.walk_stmt(body, false);
                self.check_loop_condition(Some(cond), body, *line, "do-while");
                self.walk_expr(cond);
            }
            Stmt::ForIn {
                name,
                object,
                body,
                line,
            } => {
                self.walk_expr(object);
                self.push_frame(FrameKind::Block);
                let id = self.insert_binding(name.clone(), BindKind::Var, *line, true);
                // The loop variable is implicitly written by the
                // iteration protocol; skipping the unused check here
                // keeps `for (var k in obj) count++;` quiet.
                self.bindings[id].reads += 1;
                self.walk_loop_body(body);
                self.pop_frame();
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                line,
            } => {
                self.push_frame(FrameKind::Block);
                // The for-scope owns the initializer *and* a non-block
                // body (the interpreter runs both in the same child
                // env), so pre-register their vars together.
                let mut vars = Vec::new();
                if let Some(init) = init {
                    collect_scope_vars(std::slice::from_ref(init), &mut vars);
                }
                if !creates_scope(body) {
                    collect_scope_vars(std::slice::from_ref(body), &mut vars);
                }
                for (name, vline) in vars {
                    if !self.frames.last().unwrap().slots.contains_key(&name) {
                        self.insert_binding(name, BindKind::Var, vline, false);
                    }
                }
                if let Some(init) = init {
                    self.walk_stmt(init, false);
                }
                self.check_loop_condition(cond.as_ref(), body, *line, "for");
                if let Some(cond) = cond {
                    self.walk_expr(cond);
                }
                self.walk_loop_body(body);
                if let Some(step) = step {
                    self.walk_expr(step);
                }
                self.pop_frame();
            }
            Stmt::Return { value, .. } => {
                if let Some(value) = value {
                    self.walk_expr(value);
                }
            }
            Stmt::Block { body, .. } => {
                self.push_frame(FrameKind::Block);
                self.prescan(body);
                self.walk_stmts(body);
                self.pop_frame();
            }
            Stmt::Break { .. } | Stmt::Continue { .. } | Stmt::Empty { .. } => {}
        }
    }

    /// Walks a loop body without opening an extra scope for non-block
    /// bodies (blocks open their own).
    fn walk_loop_body(&mut self, body: &Stmt) {
        self.walk_stmt(body, false);
    }

    fn declare_var(&mut self, name: &Rc<str>, line: u32, _has_init: bool) {
        let frame_idx = self.frames.len() - 1;
        if let Some(&id) = self.frames[frame_idx].slots.get(name) {
            let (was_declared, prev) = {
                let b = &self.bindings[id];
                (b.declared, b.line)
            };
            if was_declared {
                self.report(
                    Rule::DuplicateDecl,
                    line,
                    format!("`{name}` is already declared on line {prev}"),
                );
            } else {
                self.bindings[id].declared = true;
                self.bindings[id].line = line;
                self.check_shadow(name, line, frame_idx);
            }
            return;
        }
        self.check_shadow(name, line, frame_idx);
        self.insert_binding(name.clone(), BindKind::Var, line, true);
    }

    fn check_shadow(&mut self, name: &Rc<str>, line: u32, below: usize) {
        for fi in (0..below).rev() {
            if let Some(&id) = self.frames[fi].slots.get(name) {
                let msg = if self.frames[fi].kind == FrameKind::Natives {
                    format!("`{name}` shadows a Pogo builtin of the same name")
                } else {
                    let prev = self.bindings[id].line;
                    format!("`{name}` shadows the declaration on line {prev}")
                };
                self.report(Rule::Shadowing, line, msg);
                return;
            }
        }
    }

    /// Shared body walk for function declarations and expressions.
    fn walk_function(&mut self, params: &[Rc<str>], body: &[Stmt], anonymous: bool) {
        let line = self.line;
        self.push_frame(FrameKind::FuncBody);
        for p in params {
            let id = self.insert_binding(p.clone(), BindKind::Param, line, true);
            self.bindings[id].anon_param = anonymous;
        }
        self.prescan(body);
        self.walk_stmts(body);
        self.pop_frame();
        self.line = line;
    }

    // ---- conditions and flow -------------------------------------------------

    /// Condition checks shared by `if` and ternaries: assignment in
    /// condition position, constant literal conditions.
    fn check_condition(&mut self, cond: &Expr, line: u32, what: &str) {
        if contains_assign(cond) {
            self.report(
                Rule::AssignInCondition,
                line,
                format!("assignment inside {what} condition — did you mean `==`?"),
            );
        }
        if let Some(truthy) = literal_truthiness(cond) {
            self.report(
                Rule::ConstantCondition,
                line,
                format!(
                    "{what} condition is always {}",
                    if truthy { "true" } else { "false" }
                ),
            );
        }
    }

    /// Loop-flavoured condition checks. A truthy-literal condition is
    /// only a problem when the body can never leave the loop — then
    /// the instruction budget is what eventually kills the callback.
    fn check_loop_condition(&mut self, cond: Option<&Expr>, body: &Stmt, line: u32, what: &str) {
        if let Some(cond) = cond {
            if contains_assign(cond) {
                self.report(
                    Rule::AssignInCondition,
                    line,
                    format!("assignment inside {what} condition — did you mean `==`?"),
                );
            }
        }
        let truthiness = match cond {
            None => Some(true), // `for (;;)`
            Some(c) => literal_truthiness(c),
        };
        match truthiness {
            Some(true) if !can_leave_loop(body) => {
                self.report(
                    Rule::InfiniteLoop,
                    line,
                    format!(
                        "this {what} loop can never terminate and will run until \
                         the instruction budget kills the callback"
                    ),
                );
            }
            Some(false) => {
                self.report(
                    Rule::ConstantCondition,
                    line,
                    format!("{what} condition is always false"),
                );
            }
            _ => {}
        }
    }

    // ---- expression walk -----------------------------------------------------

    fn walk_expr(&mut self, expr: &Expr) {
        match expr {
            Expr::Number(_) | Expr::Str(_) | Expr::Bool(_) | Expr::Null => {}
            Expr::Ident(name) => self.resolve_read(name, false),
            Expr::Array(items) => {
                for item in items {
                    self.walk_expr(item);
                }
            }
            Expr::Object(props) => {
                for (_, value) in props {
                    self.walk_expr(value);
                }
            }
            Expr::Func { params, body } => self.walk_function(params, body, true),
            Expr::Unary { expr, .. } => self.walk_expr(expr),
            Expr::Binary { lhs, rhs, .. } | Expr::Logical { lhs, rhs, .. } => {
                self.walk_expr(lhs);
                self.walk_expr(rhs);
            }
            Expr::Ternary { cond, then, els } => {
                let line = self.line;
                self.check_condition(cond, line, "ternary");
                self.walk_expr(cond);
                self.walk_expr(then);
                self.walk_expr(els);
            }
            Expr::Assign { target, op, value } => {
                self.walk_expr(value);
                match &**target {
                    Expr::Ident(name) => {
                        if op.is_some() {
                            self.resolve_read(name, false);
                        }
                        self.resolve_write(name);
                    }
                    Expr::Member { object, .. } => self.walk_expr(object),
                    Expr::Index { object, index } => {
                        self.walk_expr(object);
                        self.walk_expr(index);
                    }
                    other => self.walk_expr(other),
                }
            }
            Expr::Update { target, .. } => match &**target {
                Expr::Ident(name) => {
                    self.resolve_read(name, false);
                    self.resolve_write(name);
                }
                Expr::Member { object, .. } => self.walk_expr(object),
                Expr::Index { object, index } => {
                    self.walk_expr(object);
                    self.walk_expr(index);
                }
                other => self.walk_expr(other),
            },
            Expr::Call { callee, args, line } => {
                self.line = *line;
                self.check_call(callee, args, *line);
                match &**callee {
                    Expr::Ident(name) => self.resolve_read(name, true),
                    other => self.walk_expr(other),
                }
                for arg in args {
                    self.line = *line;
                    self.walk_expr(arg);
                }
                self.line = *line;
            }
            Expr::Member { object, .. } => self.walk_expr(object),
            Expr::Index { object, index } => {
                self.walk_expr(object);
                self.walk_expr(index);
            }
        }
    }

    // ---- API contract checks -------------------------------------------------

    fn check_call(&mut self, callee: &Expr, args: &[Expr], line: u32) {
        match callee {
            Expr::Number(_)
            | Expr::Str(_)
            | Expr::Bool(_)
            | Expr::Null
            | Expr::Array(_)
            | Expr::Object(_) => {
                self.report(
                    Rule::NotCallable,
                    line,
                    format!("{} is not callable", describe_literal(callee)),
                );
            }
            Expr::Ident(name) if self.resolves_to_native(name) => {
                if let Some(sig) = native_sig(name) {
                    self.check_native_call(sig, args, line);
                }
            }
            Expr::Member { object, name } => {
                if let Expr::Ident(obj) = &**object {
                    if &**obj == "Math" && self.resolves_to_native("Math") && self.math_ok {
                        self.check_math_call(name, args, line);
                    }
                }
            }
            _ => {}
        }
    }

    fn check_arity(
        &mut self,
        name: &str,
        min: usize,
        max: Option<usize>,
        got: usize,
        line: u32,
    ) -> bool {
        let ok = got >= min && max.is_none_or(|m| got <= m);
        if !ok {
            let expected = match (min, max) {
                (lo, Some(hi)) if lo == hi => format!("{lo}"),
                (lo, Some(hi)) => format!("{lo} to {hi}"),
                (lo, None) => format!("at least {lo}"),
            };
            self.report(
                Rule::WrongArity,
                line,
                format!("`{name}` expects {expected} argument(s), got {got}"),
            );
        }
        ok
    }

    fn check_native_call(&mut self, sig: &NativeSig, args: &[Expr], line: u32) {
        self.check_arity(sig.name, sig.min, sig.max, args.len(), line);
        if sig.name == "publish" {
            self.check_publish(args, line);
            return;
        }
        for (i, (arg, &want)) in args.iter().zip(sig.args.iter()).enumerate() {
            if let Some(found) = literal_kind(arg) {
                if literal_mismatch(want, found) {
                    self.report(
                        Rule::BadArgType,
                        line,
                        format!(
                            "`{}` argument {} must be {}, got {}",
                            sig.name,
                            i + 1,
                            want.describe(),
                            describe_literal(arg)
                        ),
                    );
                }
            }
        }
        if sig.name == "subscribe" {
            if let Some(Expr::Str(ch)) = args.first() {
                self.channels.subscribed.push((ch.to_string(), line));
            }
        }
    }

    /// `publish` accepts `(channel, message)` and `(message, channel)`;
    /// at least one argument must be a string channel name.
    fn check_publish(&mut self, args: &[Expr], line: u32) {
        match (args.first(), args.get(1)) {
            (Some(Expr::Str(ch)), _) => {
                self.channels.published.insert(ch.to_string());
            }
            (Some(first), Some(Expr::Str(ch))) => {
                // First argument is the message; if it is a literal it
                // must not itself be a string (then *it* would be the
                // channel — already handled above).
                let _ = first;
                self.channels.published.insert(ch.to_string());
            }
            (Some(first), second) => {
                let first_lit = literal_kind(first);
                let second_lit = second.and_then(literal_kind);
                if first_lit.is_some() && second_lit.is_some() {
                    // Both arguments are literals and neither is a
                    // string: the runtime rejects this publish.
                    self.report(
                        Rule::BadArgType,
                        line,
                        "`publish` needs a string channel name in one of its two arguments"
                            .to_string(),
                    );
                } else {
                    self.channels.dynamic_publish = true;
                }
            }
            (None, _) => {}
        }
    }

    fn check_math_call(&mut self, method: &str, args: &[Expr], line: u32) {
        if let Some(&(name, min, max, _)) = MATH_DISPATCH.iter().find(|(n, ..)| *n == method) {
            if self.check_arity(&format!("Math.{name}"), min, max, args.len(), line) {
                for (i, arg) in args.iter().enumerate() {
                    if let Some(found) = literal_kind(arg) {
                        if literal_mismatch(ArgKind::Num, found) {
                            self.report(
                                Rule::BadArgType,
                                line,
                                format!(
                                    "`Math.{name}` argument {} must be a number, got {}",
                                    i + 1,
                                    describe_literal(arg)
                                ),
                            );
                        }
                    }
                }
            }
        } else if MATH_CONSTS.contains(&method) {
            self.report(
                Rule::NotCallable,
                line,
                format!("`Math.{method}` is a constant, not a function"),
            );
        } else {
            self.report(
                Rule::NotCallable,
                line,
                format!("`Math` has no method `{method}`"),
            );
        }
    }
}

// ---- pure AST helpers --------------------------------------------------------

/// True when the statement opens its own scope (so its `var`s do not
/// belong to the enclosing one).
pub(crate) fn creates_scope(s: &Stmt) -> bool {
    matches!(
        s,
        Stmt::Block { .. } | Stmt::For { .. } | Stmt::ForIn { .. } | Stmt::Func { .. }
    )
}

/// Collects the `var` names a statement list declares *into the
/// current scope* — including through non-block `if`/`while` arms,
/// which the interpreter executes in the enclosing environment.
pub(crate) fn collect_scope_vars(stmts: &[Stmt], out: &mut Vec<(Rc<str>, u32)>) {
    for s in stmts {
        collect_scope_vars_stmt(s, out);
    }
}

pub(crate) fn collect_scope_vars_stmt(s: &Stmt, out: &mut Vec<(Rc<str>, u32)>) {
    match s {
        Stmt::Var { decls, line } => {
            for (name, _) in decls {
                out.push((name.clone(), *line));
            }
        }
        Stmt::If { .. } | Stmt::While { .. } | Stmt::DoWhile { .. } => {
            walk_substmts(s, &mut |child| match child {
                Node::Stmt(arm) if !creates_scope(arm) => collect_scope_vars_stmt(arm, out),
                _ => {}
            });
        }
        _ => {}
    }
}

/// True when control can never flow past this statement: it (or every
/// path through it) returns, breaks, continues, or enters a loop it
/// can never leave.
fn diverges(s: &Stmt) -> bool {
    match s {
        Stmt::Return { .. } | Stmt::Break { .. } | Stmt::Continue { .. } => true,
        Stmt::Block { body, .. } => body.iter().any(diverges),
        Stmt::If {
            then,
            els: Some(els),
            ..
        } => diverges(then) && diverges(els),
        Stmt::While { cond, body, .. } => {
            literal_truthiness(cond) == Some(true) && !can_leave_loop(body)
        }
        Stmt::For {
            cond: None, body, ..
        } => !can_leave_loop(body),
        Stmt::For {
            cond: Some(cond),
            body,
            ..
        } => literal_truthiness(cond) == Some(true) && !can_leave_loop(body),
        _ => false,
    }
}

/// True when the loop body contains a `break` or `return` belonging to
/// *this* loop (nested loops own their own `break`s; nested functions
/// own their `return`s).
fn can_leave_loop(body: &Stmt) -> bool {
    // A nested loop captures `break`, but a `return` inside it still
    // exits the outer loop.
    fn leaves(s: &Stmt, in_nested_loop: bool) -> bool {
        match s {
            Stmt::Return { .. } => true,
            Stmt::Break { .. } => !in_nested_loop,
            _ => {
                let nested = in_nested_loop
                    || matches!(
                        s,
                        Stmt::While { .. }
                            | Stmt::DoWhile { .. }
                            | Stmt::For { .. }
                            | Stmt::ForIn { .. }
                    );
                let mut found = false;
                walk_substmts(s, &mut |child| {
                    if let Node::Stmt(child) = child {
                        found = found || leaves(child, nested);
                    }
                });
                found
            }
        }
    }
    leaves(body, false)
}

/// `Some(truthiness)` when the expression is a literal whose truth
/// value is knowable without running anything.
fn literal_truthiness(e: &Expr) -> Option<bool> {
    match e {
        Expr::Bool(b) => Some(*b),
        Expr::Number(n) => Some(*n != 0.0 && !n.is_nan()),
        Expr::Str(s) => Some(!s.is_empty()),
        Expr::Null => Some(false),
        Expr::Array(_) | Expr::Object(_) | Expr::Func { .. } => Some(true),
        _ => None,
    }
}

/// True when an assignment expression appears anywhere in a condition
/// (excluding nested function bodies, where assignment is normal).
fn contains_assign(e: &Expr) -> bool {
    if matches!(e, Expr::Assign { .. }) {
        return true;
    }
    let mut found = false;
    walk_subexprs(e, &mut |sub| found = found || contains_assign(sub));
    found
}

/// True when `Math` is provably the untouched builtin for the whole
/// program: never declared, assigned, mutated through, or mentioned
/// outside `Math.<prop>` / `Math[<expr>]` *read* position (a bare
/// mention could alias it, letting mutations escape the static view).
/// The compiler's `Math.<fn>` fast path and the analyzer's `Math.*`
/// call checks both rest on it.
pub(crate) fn program_math_ok(stmts: &[Stmt]) -> bool {
    let mut ok = true;
    for s in stmts {
        math_scan(Node::Stmt(s), &mut ok);
    }
    ok
}

fn math_scan(n: Node<'_>, ok: &mut bool) {
    let is_math = |name: &Rc<str>| &**name == "Math";
    let is_math_ident = |e: &Expr| matches!(e, Expr::Ident(name) if is_math(name));
    // Writing through `Math.x` / `Math[e]` mutates the builtin.
    let through_math = |target: &Expr| {
        matches!(target, Expr::Member { object, .. } | Expr::Index { object, .. }
            if is_math_ident(object))
    };
    match n {
        _ if !*ok => {}
        Node::Stmt(Stmt::Var { decls, .. }) if decls.iter().any(|(name, _)| is_math(name)) => {
            *ok = false;
        }
        Node::Stmt(Stmt::ForIn { name, .. }) if is_math(name) => *ok = false,
        Node::Stmt(Stmt::Func { name, .. }) if is_math(name) => *ok = false,
        Node::Stmt(Stmt::Func { params, body, .. }) | Node::Expr(Expr::Func { params, body }) => {
            if params.iter().any(is_math) {
                *ok = false;
            }
            body.iter().for_each(|s| math_scan(Node::Stmt(s), ok));
        }
        // A bare `Math` anywhere outside member/index read position
        // could alias the object.
        Node::Expr(Expr::Ident(name)) if is_math(name) => *ok = false,
        // `Math.x` / `Math[e]` reads are fine; anything deeper scans.
        Node::Expr(Expr::Member { object, .. }) if is_math_ident(object) => {}
        Node::Expr(Expr::Index { object, index }) if is_math_ident(object) => {
            math_scan(Node::Expr(index), ok);
        }
        Node::Expr(Expr::Assign { target, .. } | Expr::Update { target, .. })
            if through_math(target) =>
        {
            *ok = false;
        }
        _ => n.for_each_child(&mut |child| math_scan(child, ok)),
    }
}

//! Shared infrastructure for the integration-test suites: the random
//! program generator (`VmGen`), the runner that observes a program's
//! full behavior on one engine (`observe`), and structural value
//! equality across engine heaps (`eq_val`). The tree-walk oracle the VM
//! is compared with is `treewalk.rs`, beside this file.
//!
//! Each test binary compiles its own copy (`mod common;`), so not
//! every consumer uses every item.
#![allow(dead_code)]

use std::cell::RefCell;
use std::rc::Rc;

use pogo_script::{ErrorKind, Interpreter, ScriptError, Value};

// ---- structural value equality ---------------------------------------------

/// `s` without the `[native]` marker. The oracle's script functions are
/// natives and the VM's are not; that is the one thing a rendering of the
/// same value tells apart, so renderings are compared without it.
pub fn unmarked(s: &str) -> String {
    s.replace(" [native]", "")
}

/// Structural equality across engine heaps: numbers with `NaN == NaN`,
/// strings modulo the `[native]` marker, containers element-wise,
/// functions by type only (closure identity is meaningless across
/// engines).
pub fn eq_val(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Num(x), Value::Num(y)) => x == y || (x.is_nan() && y.is_nan()),
        (Value::Str(x), Value::Str(y)) => unmarked(x) == unmarked(y),
        (Value::Array(x), Value::Array(y)) => {
            let (x, y) = (x.borrow(), y.borrow());
            x.len() == y.len() && x.iter().zip(y.iter()).all(|(a, b)| eq_val(a, b))
        }
        (Value::Object(x), Value::Object(y)) => {
            let (x, y) = (x.borrow(), y.borrow());
            x.len() == y.len()
                && x.iter()
                    .zip(y.iter())
                    .all(|((ka, va), (kb, vb))| ka == kb && eq_val(va, vb))
        }
        (Value::Func(_) | Value::Native(_), Value::Func(_) | Value::Native(_)) => true,
        _ => a == b,
    }
}

/// One engine's observation of a program: result or error, plus every
/// value the program passed to `emit` (rendered without the `[native]`
/// marker, so heap identity does not leak in).
pub struct Run {
    /// The value, or the error's kind, message and line.
    pub result: Result<Value, (ErrorKind, String, u32)>,
    pub emitted: Vec<String>,
}

/// `src` run by `eval` — `Interpreter::eval` for the VM, the oracle's
/// `treewalk::eval` — in a fresh interpreter with an `emit` native.
pub fn observe(src: &str, eval: fn(&mut Interpreter, &str) -> Result<Value, ScriptError>) -> Run {
    let emitted = Rc::new(RefCell::new(Vec::new()));
    let sink = Rc::clone(&emitted);
    let mut interp = Interpreter::new();
    interp.register_native("emit", move |_, args| {
        let mut out = sink.borrow_mut();
        for a in args {
            out.push(unmarked(&a.to_display_string()));
        }
        Ok(Value::Null)
    });
    let result = eval(&mut interp, src);
    Run {
        result: result.map_err(|e| (e.kind(), e.message().to_owned(), e.line())),
        emitted: Rc::try_unwrap(emitted)
            .map(RefCell::into_inner)
            .unwrap_or_else(|rc| rc.borrow().clone()),
    }
}

// ---- paper scripts ----------------------------------------------------------

/// The real PogoScript sources shipped in `assets/scripts/`, as
/// `(file-stem, source)` pairs. These are the deployment-shaped
/// programs — subscriptions, timers, publish fan-out — that the
/// verifier and cost analyzer must handle without regressing.
pub fn paper_scripts() -> Vec<(String, String)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../assets/scripts");
    let mut out = Vec::new();
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "js"))
        .collect();
    entries.sort();
    for path in entries {
        let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
        let src = std::fs::read_to_string(&path).unwrap();
        out.push((stem, src));
    }
    assert!(
        out.len() >= 4,
        "expected the paper script set in {}",
        dir.display()
    );
    out
}

// ---- probes of the slot-addressed lowerings ----------------------------------
//
// The compiler lowers a statement whose value is discarded (`x++;`,
// `--x;`, `x = e;`, `x += e;`, also as a `for` update clause) and a
// member read whose receiver is a plain local to ops that address the
// frame slot. These snippets put each form next to the general ones it
// must agree with — on a plain local, a captured local, an upvalue, a
// global or block binding and a name assigned before its declaration
// runs — holding a number, string, null, array or object, so each form
// also meets the operands it must refuse. `VmGen` draws from them; the
// differential suite also runs all of them.

pub const PROBE_VALUES: [&str; 7] = [
    "7",
    "2.5",
    "'s'",
    "null",
    "[1, 2]",
    "{ a: 1, length: 'n' }",
    "true",
];
pub const PROBE_PROPS: [&str; 3] = ["length", "a", "foo"];
pub const PROBE_OPS: usize = 8;
pub const PROBE_BINDINGS: usize = 5;
pub const PROBE_READS: usize = 4;

/// `op` applied, value discarded, to binding `x` of kind `binding`
/// holding `value`; `e` is the right-hand side of the assignments.
pub fn update_probe(
    x: &str,
    binding: usize,
    op: usize,
    value: &str,
    e: &str,
    in_for: bool,
) -> String {
    let op = match op {
        0 => format!("{x}++"),
        1 => format!("{x}--"),
        2 => format!("++{x}"),
        3 => format!("--{x}"),
        4 => format!("{x} = {e}"),
        5 => format!("{x} += {e}"),
        6 => format!("{x} -= {e}"),
        _ => format!("{x} *= {e}"),
    };
    let stmt = if in_for {
        format!("for (var k{x} = 0; k{x} < 2; {op}) {{ k{x}++; }}")
    } else {
        format!("{op};")
    };
    match binding {
        // plain local, then the value-context forms of the same ops
        0 => format!(
            "function f{x}() {{\nvar {x} = {value};\n{stmt}\nemit({x});\n\
             emit({x}++ + {x});\nemit(--{x});\n}}\nf{x}();\n"
        ),
        // local captured by a closure: a cell
        1 => format!(
            "function f{x}() {{\nvar {x} = {value};\n\
             var g = function () {{ return {x}; }};\n{stmt}\nemit(g());\n}}\nf{x}();\n"
        ),
        // upvalue
        2 => format!(
            "function f{x}() {{\nvar {x} = {value};\n\
             var g = function () {{\n{stmt}\nreturn {x};\n}};\n\
             emit(g());\nemit({x});\n}}\nf{x}();\n"
        ),
        // global, or a block's binding, wherever the snippet lands
        3 => format!("var {x} = {value};\n{stmt}\nemit({x});\n"),
        // resolved through a chain until its declaration has run
        _ => format!(
            "function f{x}() {{\n{x} = {value};\n{stmt}\nemit({x});\n\
             var {x} = 1;\n{stmt}\nemit({x});\n}}\nf{x}();\n"
        ),
    }
}

/// Reads (and read-modify-writes) of `x.prop` with `x` a plain local
/// — declared, or a parameter — holding `value`.
pub fn read_probe(x: &str, value: &str, prop: &str, read: usize, as_param: bool) -> String {
    let use_it = match read {
        0 => format!("emit({x}.{prop});"),
        1 => format!("emit({x}.{prop} + {x}.a);"),
        2 => format!("{x}.{prop} += 1;\nemit({x}.{prop});"),
        _ => format!("{x}.{prop}++;\nemit({x}.{prop});"),
    };
    if as_param {
        format!("function f{x}({x}) {{\n{use_it}\n}}\nf{x}({value});\n")
    } else {
        format!("function f{x}() {{\nvar {x} = {value};\n{use_it}\n}}\nf{x}();\n")
    }
}

// ---- program generator ------------------------------------------------------

/// Random-program generator aimed at the compiler's hard spots: slot vs
/// chain resolution (use-before-decl, shadowing, conditional
/// declarations), cells (closures capturing loop variables), evaluation
/// order (compound assignment, update expressions, call arguments),
/// `Math` fast-path eligibility, the slot-addressed lowerings (the
/// probes above), and the error paths (undeclared reads/writes, bad
/// operand types).
pub struct VmGen {
    rng: rand::rngs::SmallRng,
    /// Scope chain of declared names (name, holds-a-number), innermost
    /// last. The numeric flag steers expression leaves toward
    /// well-typed operands; a small leak of any-typed names keeps the
    /// operator-type-error paths in the corpus without drowning it.
    scopes: Vec<Vec<(String, bool)>>,
    /// Names statically known to hold callable functions, with arity.
    funcs: Vec<(String, usize)>,
    next_id: usize,
    out: String,
}

impl VmGen {
    pub fn generate(seed: u64) -> String {
        use rand::SeedableRng;
        let mut g = VmGen {
            rng: rand::rngs::SmallRng::seed_from_u64(seed),
            scopes: vec![Vec::new()],
            funcs: Vec::new(),
            next_id: 0,
            out: String::new(),
        };
        let n = g.range(4, 11);
        for _ in 0..n {
            g.stmt(0);
        }
        // Always end observing the accumulated state so structurally
        // different-but-silent divergence cannot hide.
        if let Some(name) = g.declared_name() {
            g.out.push_str(&format!("emit({name});\n{name};\n"));
        }
        g.out
    }

    fn range(&mut self, lo: usize, hi: usize) -> usize {
        use rand::Rng;
        self.rng.gen_range(lo..hi)
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.range(0, 100) < percent
    }

    fn fresh_name(&mut self) -> String {
        let id = self.next_id;
        self.next_id += 1;
        format!("v{id}")
    }

    fn declared_name(&mut self) -> Option<String> {
        let all: Vec<String> = self
            .scopes
            .iter()
            .flatten()
            .map(|(n, _)| n.clone())
            .collect();
        if all.is_empty() {
            return None;
        }
        let i = self.range(0, all.len());
        Some(all[i].clone())
    }

    fn numeric_name(&mut self) -> Option<String> {
        let all: Vec<String> = self
            .scopes
            .iter()
            .flatten()
            .filter(|(_, num)| *num)
            .map(|(n, _)| n.clone())
            .collect();
        if all.is_empty() {
            return None;
        }
        let i = self.range(0, all.len());
        Some(all[i].clone())
    }

    fn declare_here(&mut self, name: String, numeric: bool) {
        self.scopes.last_mut().unwrap().push((name, numeric));
    }

    /// Re-marks `name` after a plain assignment changed its type.
    fn set_numeric(&mut self, name: &str, numeric: bool) {
        for scope in self.scopes.iter_mut().rev() {
            if let Some(entry) = scope.iter_mut().rev().find(|(n, _)| n == name) {
                entry.1 = numeric;
                return;
            }
        }
    }

    /// A numeric-ish expression; `buggy` percent chance of an
    /// undeclared-name leaf (exercising the Reference error path).
    fn expr(&mut self, depth: usize, buggy: usize) -> String {
        if depth < 3 && self.chance(45) {
            return match self.range(0, 8) {
                0 | 1 => {
                    let op = ["+", "-", "*", "%"][self.range(0, 4)];
                    format!(
                        "({} {op} {})",
                        self.expr(depth + 1, buggy),
                        self.expr(depth + 1, buggy)
                    )
                }
                2 => {
                    let op = ["<", ">", "<=", ">=", "==", "!="][self.range(0, 6)];
                    format!(
                        "(({} {op} {}) ? {} : {})",
                        self.expr(depth + 1, buggy),
                        self.expr(depth + 1, buggy),
                        self.expr(depth + 1, buggy),
                        self.expr(depth + 1, buggy)
                    )
                }
                3 => {
                    let op = ["&&", "||"][self.range(0, 2)];
                    format!(
                        "({} {op} {})",
                        self.expr(depth + 1, buggy),
                        self.expr(depth + 1, buggy)
                    )
                }
                4 => {
                    let f = ["Math.abs", "Math.floor", "Math.sqrt", "Math.round"][self.range(0, 4)];
                    format!("{f}({})", self.expr(depth + 1, buggy))
                }
                5 => {
                    let f = ["Math.min", "Math.max", "Math.pow"][self.range(0, 3)];
                    format!(
                        "{f}({}, {})",
                        self.expr(depth + 1, buggy),
                        self.expr(depth + 1, buggy)
                    )
                }
                6 => format!("(-{})", self.expr(depth + 1, buggy)),
                _ => match self
                    .funcs
                    .clone()
                    .get(self.range(0, self.funcs.len().max(1)))
                {
                    Some((name, arity)) if !self.funcs.is_empty() => {
                        let args: Vec<String> =
                            (0..*arity).map(|_| self.expr(depth + 1, buggy)).collect();
                        format!("{name}({})", args.join(", "))
                    }
                    _ => self.leaf(buggy),
                },
            };
        }
        self.leaf(buggy)
    }

    fn leaf(&mut self, buggy: usize) -> String {
        if self.chance(buggy) {
            return format!("undeclared_{}", self.range(0, 3));
        }
        if self.chance(7) {
            // Any-typed leak: keeps operator-type errors in the corpus.
            if let Some(name) = self.declared_name() {
                return name;
            }
        }
        match self.numeric_name() {
            Some(name) if self.chance(60) => name,
            _ => {
                if self.chance(15) {
                    format!("{}.5", self.range(0, 50))
                } else {
                    format!("{}", self.range(0, 100))
                }
            }
        }
    }

    fn stmt(&mut self, depth: usize) {
        // Past depth 3, only non-recursing statement kinds: unbounded
        // block nesting would overflow the host (and parser) stack.
        let kind = if depth >= 3 {
            self.range(0, 8)
        } else {
            self.range(0, 17)
        };
        match kind {
            // var declaration: number, string, array, or object init
            0..=2 => {
                let name = self.fresh_name();
                let (init, numeric) = match self.range(0, 6) {
                    0..=2 => (self.expr(0, 2), true),
                    3 => (format!("'s{}'", self.range(0, 10)), false),
                    4 => {
                        let a = self.expr(1, 1);
                        let b = self.expr(1, 1);
                        (format!("[{a}, {b}, {}]", self.range(0, 9)), false)
                    }
                    _ => {
                        let v = self.expr(1, 1);
                        (
                            format!(
                                "{{ k{}: {v}, tag: 't{}' }}",
                                self.range(0, 3),
                                self.range(0, 5)
                            ),
                            false,
                        )
                    }
                };
                self.out.push_str(&format!("var {name} = {init};\n"));
                self.declare_here(name, numeric);
            }
            // assignment — plain, compound, or rarely undeclared
            3..=4 => {
                let plain = self.chance(40);
                let target = if self.chance(3) {
                    Some(format!("undeclared_{}", self.range(0, 3)))
                } else if plain {
                    // Plain `=` retypes the target to a number, so any
                    // name is fair game.
                    self.declared_name()
                } else {
                    self.numeric_name()
                };
                if let Some(target) = target {
                    let op = if plain {
                        "="
                    } else {
                        ["+=", "-=", "*="][self.range(0, 3)]
                    };
                    let value = self.expr(0, 2);
                    self.out.push_str(&format!("{target} {op} {value};\n"));
                    if plain {
                        self.set_numeric(&target, true);
                    }
                }
            }
            // update statement / emit of an update expression
            5 => {
                if let Some(name) = self.numeric_name() {
                    match self.range(0, 3) {
                        0 => self.out.push_str(&format!("{name}++;\n")),
                        1 => self.out.push_str(&format!("--{name};\n")),
                        _ => self.out.push_str(&format!("emit({name}++ + {name});\n")),
                    }
                }
            }
            // observe an expression
            6..=7 => {
                let e = self.expr(0, 3);
                self.out.push_str(&format!("emit({e});\n"));
            }
            // use-before-declaration (chain fall-through), sometimes
            // with an outer binding of the same name (shadow timing)
            8 if self.chance(25) => {
                let name = self.fresh_name();
                if self.chance(50) {
                    self.out.push_str(&format!(
                        "emit(undeclared_probe_{name});\nvar {name} = 1;\n",
                    ));
                } else {
                    self.out
                        .push_str(&format!("{name} = 7;\nvar {name} = 2;\nemit({name});\n"));
                }
                self.declare_here(name, true);
            }
            // if / else, with conditional declaration leaking out
            8..=9 => {
                let c = self.expr(1, 1);
                let name = self.fresh_name();
                self.out.push_str(&format!("if ({c} < 50) {{\n"));
                self.block(depth);
                self.out.push_str("} else {\n");
                self.out.push_str(&format!("var {name}_inner = 3;\n"));
                self.block(depth);
                self.out.push_str("}\n");
            }
            // bounded counter loop (while or for), break/continue
            // inside. The counter is deliberately NOT registered as a
            // declared name while the body is generated: a random
            // `--i` / `i = 0` inside the body would loop forever under
            // the unlimited differential budget.
            10..=11 if depth < 2 => {
                let i = self.fresh_name();
                let bound = self.range(2, 5);
                let is_while = self.chance(50);
                if is_while {
                    self.out
                        .push_str(&format!("var {i} = 0;\nwhile ({i} < {bound}) {{\n{i}++;\n"));
                } else {
                    self.out
                        .push_str(&format!("for (var {i} = 0; {i} < {bound}; {i}++) {{\n"));
                }
                self.scopes.push(Vec::new());
                if self.chance(30) {
                    self.out
                        .push_str(&format!("if ({i} == 1) {{ continue; }}\n"));
                }
                let n = self.range(1, 3);
                for _ in 0..n {
                    self.stmt(depth + 1);
                }
                if self.chance(20) {
                    self.out.push_str("break;\n");
                }
                self.scopes.pop();
                self.out.push_str("}\n");
                if is_while {
                    // Post-loop the counter is safely mutable.
                    self.declare_here(i, true);
                }
            }
            // function declaration (pure, bounded) then a call
            12 => {
                let name = self.fresh_name();
                let arity = self.range(0, 3);
                let params: Vec<String> = (0..arity).map(|k| format!("p{k}")).collect();
                self.scopes
                    .push(params.iter().map(|p| (p.clone(), true)).collect());
                let body = self.expr(1, 1);
                self.scopes.pop();
                self.out.push_str(&format!(
                    "function {name}({}) {{ return {body}; }}\n",
                    params.join(", ")
                ));
                // Only top-level functions stay callable later: a decl
                // hoisted inside a block is out of scope after it.
                if depth == 0 {
                    self.funcs.push((name.clone(), arity));
                }
                self.declare_here(name.clone(), false);
                let args: Vec<String> = (0..arity).map(|_| self.expr(1, 1)).collect();
                self.out
                    .push_str(&format!("emit({name}({}));\n", args.join(", ")));
            }
            // closures over a loop variable — the cell-per-iteration case
            13 if depth < 2 => {
                let fs = self.fresh_name();
                let i = self.fresh_name();
                let mult = self.range(1, 5);
                self.out.push_str(&format!(
                    "var {fs} = [];\n\
                     for (var {i} = 0; {i} < 3; {i}++) {{\n\
                     \x20 var c{i} = {i} * {mult};\n\
                     \x20 {fs}.push(function () {{ return c{i}; }});\n\
                     }}\n\
                     emit({fs}[0]() + {fs}[1]() + {fs}[2]());\n"
                ));
                self.declare_here(fs, false);
            }
            // for-in over an array or object
            14 if depth < 2 => {
                let k = self.fresh_name();
                let acc = self.fresh_name();
                let obj = if self.chance(50) {
                    let a = self.expr(1, 1);
                    format!("[{a}, {}, {}]", self.range(0, 9), self.range(0, 9))
                } else {
                    format!("{{ a: {}, b: {} }}", self.range(0, 9), self.range(0, 9))
                };
                self.out.push_str(&format!(
                    "var {acc} = '';\nfor (var {k} in {obj}) {{ {acc} += {k}; }}\nemit({acc});\n"
                ));
                self.declare_here(acc, false);
            }
            // type-confusion error path: call a number, index a number
            15 if self.chance(12) => {
                let n = self.range(0, 9);
                if self.chance(50) {
                    self.out.push_str(&format!("emit(({n})());\n"));
                } else {
                    self.out.push_str(&format!("emit(({n}).length);\n"));
                }
            }
            16 => self.probe(),
            // nested block
            _ => {
                self.out.push_str("{\n");
                self.block(depth);
                self.out.push_str("}\n");
            }
        }
    }

    /// One of the probes below, drawn at random, with a generated
    /// right-hand side.
    fn probe(&mut self) {
        let x = self.fresh_name();
        // Mostly an operand the form accepts, so that a program with a
        // probe in it usually still runs to its end.
        let reads = self.chance(35);
        let (value, prop) = if self.chance(80) {
            (PROBE_VALUES[if reads { 5 } else { self.range(0, 2) }], "a")
        } else {
            (
                PROBE_VALUES[self.range(0, PROBE_VALUES.len())],
                PROBE_PROPS[self.range(0, PROBE_PROPS.len())],
            )
        };
        let snippet = if reads {
            read_probe(&x, value, prop, self.range(0, PROBE_READS), self.chance(50))
        } else {
            let e = self.expr(1, 1);
            let op = self.range(0, PROBE_OPS);
            let binding = self.range(0, PROBE_BINDINGS);
            if binding == 3 {
                self.declare_here(x.clone(), false);
            }
            update_probe(&x, binding, op, value, &e, self.chance(25))
        };
        self.out.push_str(&snippet);
    }

    fn block(&mut self, depth: usize) {
        self.scopes.push(Vec::new());
        let n = self.range(1, 4);
        for _ in 0..n {
            self.stmt(depth + 1);
        }
        self.scopes.pop();
    }
}

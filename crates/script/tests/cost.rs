//! Cost-bound soundness: the static analyzer's budget bounds must
//! bracket what the watchdog actually bills at runtime.
//!
//! The contract under test, per entry point:
//!
//! - `budget_min()` ≤ dynamic charge: the deploy gate rejects a script
//!   only when even the *cheapest* execution exceeds the budget, so an
//!   inflated `min` would block deployable scripts.
//! - dynamic charge ≤ `budget_max()` (when finite): a finite `max`
//!   below the real charge would let the gate wave through scripts the
//!   watchdog then kills in the field.
//!
//! The dynamic charge is measured the same way the host measures it:
//! arm the instruction budget, run, subtract `steps_remaining`. Both
//! engines bill the same counter (VM per instruction, tree-walk per
//! AST node, both plus bytes for string building), but the *static*
//! model is built from bytecode, so the bytecode engine must satisfy
//! the bounds exactly while the tree-walk engine — whose node count
//! differs from the instruction count by a bounded shape factor — is
//! held to the same max with that factor applied.

mod common;
#[path = "common/treewalk.rs"]
mod treewalk;

use std::rc::Rc;

use common::paper_scripts;
use pogo_script::absint::{analyze_costs, EntryKind, Max, KNOWN_NATIVES};
use pogo_script::value::{NativeFn, ObjMap};
use pogo_script::{compile, Interpreter, Value};
use treewalk::Eval;

/// Watchdog arming value for the measurements; large enough that no
/// test program exhausts it, so `BUDGET - steps_remaining` is exact.
const BUDGET: u64 = 10_000_000;

/// An interpreter with every host native the paper scripts touch
/// stubbed out. `String`/`Number` keep real conversion semantics (a
/// null-returning stub would change downstream arithmetic); the
/// middleware verbs are inert.
fn sensing_interp() -> Interpreter {
    let mut interp = Interpreter::new();
    for &name in KNOWN_NATIVES {
        match name {
            // The real host returns a subscription handle with
            // `release()`/`renew()`; the paper scripts call both.
            "subscribe" => interp.register_native("subscribe", |_, _| {
                let mut obj = ObjMap::new();
                for verb in ["release", "renew"] {
                    obj.insert(
                        verb,
                        Value::Native(Rc::new(NativeFn {
                            name: verb.to_owned(),
                            func: Box::new(|_, _| Ok(Value::Null)),
                        })),
                    );
                }
                Ok(Value::object(obj))
            }),
            "String" => interp.register_native("String", |_, args| {
                Ok(Value::str(
                    args.first()
                        .map(Value::to_display_string)
                        .unwrap_or_default(),
                ))
            }),
            "Number" | "parseFloat" => interp.register_native(name, |_, args| {
                Ok(match args.first() {
                    Some(Value::Num(x)) => Value::Num(*x),
                    Some(Value::Str(s)) => s
                        .trim()
                        .parse::<f64>()
                        .map(Value::Num)
                        .unwrap_or(Value::Num(f64::NAN)),
                    _ => Value::Num(f64::NAN),
                })
            }),
            "isNaN" => interp.register_native("isNaN", |_, args| {
                Ok(Value::Bool(
                    matches!(args.first(), Some(Value::Num(x)) if x.is_nan()),
                ))
            }),
            _ => interp.register_native(name, |_, _| Ok(Value::Null)),
        }
    }
    interp
}

/// Runs the top-level body of `src` with `eval` (the VM's or the
/// oracle's) and returns the billed budget units. Errors (none expected
/// for these sources) fail loudly.
fn dynamic_load_charge(eval: Eval, name: &str, src: &str) -> u64 {
    let mut interp = sensing_interp();
    interp.set_budget(Some(BUDGET));
    if let Err(e) = eval(&mut interp, src) {
        panic!("{name}: load run failed: {e}");
    }
    BUDGET - interp.steps_remaining()
}

/// The static load-entry cost of `src`, from the same compiled form
/// the deploy gate analyzes and `Interpreter::eval` runs (there is one
/// pipeline, so the bounds describe the chunk that actually ships).
fn static_load_bounds(name: &str, src: &str) -> (u64, Max) {
    let program = compile(src).unwrap_or_else(|e| panic!("{name}: compile failed: {e}"));
    let report = analyze_costs(&program);
    let load = report
        .entries
        .iter()
        .find(|e| e.kind == EntryKind::Load)
        .unwrap_or_else(|| panic!("{name}: no load entry in cost report"));
    (load.cost.budget_min(), load.cost.budget_max())
}

/// Tree-walk executions bill per AST node, not per instruction; a
/// single bytecode instruction corresponds to at most a few nodes and
/// vice versa. The static max (built from bytecode) is held against
/// the tree-walk charge with this shape factor of slack — soundness
/// up to engine accounting, not a free pass (an unbounded loop still
/// blows any finite bound regardless of factor).
const TREE_WALK_SHAPE_FACTOR: u64 = 4;

#[test]
fn paper_script_load_bounds_bracket_the_dynamic_charge() {
    for (name, src) in paper_scripts() {
        let (min, max) = static_load_bounds(&name, &src);
        let vm = dynamic_load_charge(Interpreter::eval, &name, &src);
        let tree = dynamic_load_charge(treewalk::eval, &name, &src);

        assert!(
            min <= vm,
            "{name}: static min {min} exceeds actual VM load charge {vm}"
        );
        if let Max::Finite(m) = max {
            assert!(
                vm <= m,
                "{name}: VM load charge {vm} exceeds static max {m}"
            );
            assert!(
                tree <= m.saturating_mul(TREE_WALK_SHAPE_FACTOR),
                "{name}: tree-walk load charge {tree} exceeds static max {m} \
                 even with the ×{TREE_WALK_SHAPE_FACTOR} shape factor"
            );
        }
    }
}

/// Synthetic programs where the analyzer proves *finite* bounds — the
/// interesting case, since an unbounded max is trivially sound. Loops
/// with constant trip counts, branchy arithmetic, constant string
/// building, and a statically-resolvable function call.
#[test]
fn finite_static_bounds_are_sound_on_both_engines() {
    let cases: &[(&str, &str)] = &[
        (
            "counted-loop",
            "var total = 0;\n\
             for (var i = 0; i < 200; i++) { total = total + i * 2; }\n\
             total;\n",
        ),
        (
            "nested-counted-loops",
            "var acc = 0;\n\
             for (var i = 0; i < 12; i++) {\n\
             \x20 for (var j = 0; j < 9; j++) { acc = acc + i * j; }\n\
             }\n\
             acc;\n",
        ),
        (
            "branchy-arithmetic",
            "var x = 17;\n\
             var y = 0;\n\
             if (x % 2 == 1) { y = x * 3 + 1; } else { y = x / 2; }\n\
             y + 1;\n",
        ),
        (
            "const-string-building",
            "var tag = 'pogo' + '-' + 'node';\n\
             var banner = tag + ': ' + 'ready';\n\
             banner;\n",
        ),
        // Call results are `Any` (returns are not summarized), so the
        // results are observed directly rather than combined with `+`
        // — adding two `Any`s would legitimately widen the byte
        // charge to unbounded.
        (
            "resolvable-call",
            "function area(w, h) { return w * h; }\n\
             var a = area(3, 4);\n\
             var b = area(5, 6);\n\
             b;\n",
        ),
        // Trip counting needs a slot-resident counter: `for` headers
        // always compile the counter to a slot, and inside a function
        // every `var` does — a bare top-level `while` over a global
        // is (documented) beyond the loop-bound pattern.
        (
            "for-countdown",
            "var steps = 0;\n\
             for (var n = 64; n > 0; n--) { steps = steps + 2; }\n\
             steps;\n",
        ),
        (
            "while-in-function",
            "function drain() {\n\
             \x20 var i = 0;\n\
             \x20 var acc = 0;\n\
             \x20 while (i < 40) { i++; acc = acc + i; }\n\
             \x20 return acc;\n\
             }\n\
             var out = drain();\n\
             out;\n",
        ),
    ];

    for (name, src) in cases {
        let (min, max) = static_load_bounds(name, src);
        let m = match max {
            Max::Finite(m) => m,
            Max::Unbounded => panic!("{name}: expected a finite static bound"),
        };
        let vm = dynamic_load_charge(Interpreter::eval, name, src);
        let tree = dynamic_load_charge(treewalk::eval, name, src);

        assert!(
            min <= vm && vm <= m,
            "{name}: VM charge {vm} outside static bounds [{min}, {m}]"
        );
        assert!(
            tree <= m.saturating_mul(TREE_WALK_SHAPE_FACTOR),
            "{name}: tree-walk charge {tree} exceeds {m} × {TREE_WALK_SHAPE_FACTOR}"
        );
    }
}

//! Seeded property tests for PogoScript: pretty-print round-trips,
//! arithmetic agreement with a Rust reference model, and watchdog
//! monotonicity. Inputs come from a seeded `SmallRng`, so the suite runs
//! by default and every failure names its seed.

#[path = "common/pretty.rs"]
mod pretty;
#[path = "common/treewalk.rs"]
mod treewalk;

use pogo_script::{parse, Interpreter, Value};
use pretty::print_program;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SEEDS: u64 = 128;

// ---- expression model --------------------------------------------------------

/// A little arithmetic AST with a Rust-side evaluator, rendered to
/// PogoScript source and compared against the interpreter.
#[derive(Debug, Clone)]
enum Expr {
    Num(i32),
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    Div(Box<Expr>, Box<Expr>),
    Neg(Box<Expr>),
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// A random expression nested at most `depth` operators deep.
    fn generate(rng: &mut SmallRng, depth: u32) -> Expr {
        if depth == 0 || rng.gen_range(0usize..3) == 0 {
            return Expr::Num(rng.gen_range(0u64..2000) as i32 - 1000);
        }
        let kind = rng.gen_range(0usize..6);
        let mut sub = || Box::new(Expr::generate(rng, depth - 1));
        match kind {
            0 => Expr::Add(sub(), sub()),
            1 => Expr::Sub(sub(), sub()),
            2 => Expr::Mul(sub(), sub()),
            3 => Expr::Div(sub(), sub()),
            4 => Expr::Neg(sub()),
            _ => Expr::Ternary(sub(), sub(), sub()),
        }
    }

    fn eval(&self) -> f64 {
        match self {
            Expr::Num(n) => *n as f64,
            Expr::Add(a, b) => a.eval() + b.eval(),
            Expr::Sub(a, b) => a.eval() - b.eval(),
            Expr::Mul(a, b) => a.eval() * b.eval(),
            Expr::Div(a, b) => a.eval() / b.eval(),
            Expr::Neg(a) => -a.eval(),
            Expr::Ternary(c, t, e) => {
                let cv = c.eval();
                if cv != 0.0 && !cv.is_nan() {
                    t.eval()
                } else {
                    e.eval()
                }
            }
        }
    }

    fn render(&self) -> String {
        match self {
            Expr::Num(n) => {
                if *n < 0 {
                    format!("({n})")
                } else {
                    n.to_string()
                }
            }
            Expr::Add(a, b) => format!("({} + {})", a.render(), b.render()),
            Expr::Sub(a, b) => format!("({} - {})", a.render(), b.render()),
            Expr::Mul(a, b) => format!("({} * {})", a.render(), b.render()),
            Expr::Div(a, b) => format!("({} / {})", a.render(), b.render()),
            Expr::Neg(a) => format!("(-{})", a.render()),
            Expr::Ternary(c, t, e) => {
                format!("({} ? {} : {})", c.render(), t.render(), e.render())
            }
        }
    }
}

fn expr(seed: u64) -> Expr {
    Expr::generate(&mut SmallRng::seed_from_u64(seed), 5)
}

/// Identical f64 semantics, including NaN and infinities.
fn same_num(a: f64, b: f64) -> bool {
    a == b || (a.is_nan() && b.is_nan())
}

// ---- program generator for round-trip tests ------------------------------------

/// Renders a small random program — declarations, branches, loops,
/// functions — from terminating constructs only.
fn program(seed: u64) -> String {
    const NAMES: [&str; 6] = ["a", "b", "c", "total", "x9", "_tmp"];
    let mut rng = SmallRng::seed_from_u64(seed);
    // Declare all the names first so the program is also runnable.
    let mut src = String::from("var a = 0, b = 0, c = 0, total = 0, x9 = 0, _tmp = 0;\n");
    for _ in 0..rng.gen_range(1usize..8) {
        let name = NAMES[rng.gen_range(0..NAMES.len())];
        let e = Expr::generate(&mut rng, 5).render();
        src.push_str(&match rng.gen_range(0usize..5) {
            0 => format!("var {name} = {e};"),
            1 => format!("if ({e}) {{ {name} = 1; }} else {{ {name} = 2; }}"),
            2 => format!("for (var i = 0; i < 3; i++) {{ {name} = {e}; }}"),
            3 => format!("function f_{name}(p) {{ return p + {e}; }}"),
            _ => format!("while (false) {{ {name} = {e}; }}"),
        });
        src.push('\n');
    }
    src
}

// ---- properties ----------------------------------------------------------------

#[test]
fn arithmetic_matches_rust_model() {
    for seed in 0..SEEDS {
        let expr = expr(seed);
        let got = Interpreter::new()
            .eval(&format!("{};", expr.render()))
            .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{}", expr.render()));
        match got {
            Value::Num(n) => assert!(
                same_num(n, expr.eval()),
                "seed {seed}: {} => {n} vs {}",
                expr.render(),
                expr.eval()
            ),
            other => panic!("seed {seed}: non-numeric result {other:?}"),
        }
    }
}

#[test]
fn pretty_print_roundtrips() {
    for seed in 0..SEEDS {
        let src = program(seed);
        let ast1 = parse(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
        let printed = print_program(&ast1);
        let ast2 = parse(&printed).unwrap_or_else(|e| {
            panic!("seed {seed}: printed program failed to reparse: {e}\n{printed}")
        });
        // The printer is the normal form: printing again must be a fixpoint.
        assert_eq!(print_program(&ast2), printed, "seed {seed}");
    }
}

/// Programs draw from terminating constructs only; they must neither
/// error nor trip the watchdog.
#[test]
fn generated_programs_run_within_budget() {
    for seed in 0..SEEDS {
        let src = program(seed);
        let mut interp = Interpreter::new();
        interp.set_budget(Some(1_000_000));
        interp
            .eval(&src)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
    }
}

/// A program that completes within N steps completes within any larger
/// budget with the same result.
#[test]
fn budget_is_monotone() {
    let mut completed = 0;
    for seed in 0..SEEDS {
        let src = format!("{};", expr(seed).render());
        let mut small = Interpreter::new();
        small.set_budget(Some(10_000));
        let Ok(with_small) = small.eval(&src) else {
            continue;
        };
        completed += 1;
        let mut big = Interpreter::new();
        big.set_budget(Some(1_000_000));
        let with_big = big
            .eval(&src)
            .unwrap_or_else(|e| panic!("seed {seed}: bigger budget cannot fail: {e}"));
        match (with_small, with_big) {
            (Value::Num(a), Value::Num(b)) => assert!(same_num(a, b), "seed {seed}: {a} vs {b}"),
            other => panic!("seed {seed}: non-numeric results {other:?}"),
        }
    }
    assert!(completed > 0, "no expression fit the small budget");
}

/// Any positive finite float printed with Rust's shortest-roundtrip
/// formatting lexes back to exactly the same f64.
#[test]
fn number_literals_roundtrip_through_the_lexer() {
    // The one failure the old suite's regression file recorded, then
    // random bit patterns with the sign clear and a finite exponent.
    let regression = std::iter::once(2.1741193481760893e58);
    let random = (0..SEEDS).map(|seed| {
        let bits = SmallRng::seed_from_u64(seed).gen::<u64>() >> 1;
        f64::from_bits(bits % (0x7ff << 52))
    });
    for n in regression.chain(random).filter(|n| *n > 0.0) {
        let v = Interpreter::new()
            .eval(&format!("{n:?};"))
            .unwrap_or_else(|e| panic!("{n:?}: {e}"));
        match v {
            Value::Num(back) => assert!(back == n, "{n:?} -> {back:?}"),
            other => panic!("{n:?}: non-numeric {other:?}"),
        }
    }
}

#[test]
fn string_conversion_roundtrips_integers() {
    for seed in 0..SEEDS {
        let n = SmallRng::seed_from_u64(seed).gen_range(0u64..2_000_000_000) as i64 - 1_000_000_000;
        let v = Interpreter::new()
            .eval(&format!("Number(String({n}));"))
            .unwrap_or_else(|e| panic!("{n}: {e}"));
        assert_eq!(v, Value::from(n as f64), "{n}");
    }
}

// ---- object representation ---------------------------------------------------

/// `ObjMap` against a `Vec<(String, Value)>` model: get, insert (replace
/// keeps the position), remove and iteration order agree after every
/// step, whichever way a key arrives — borrowed text, an owned `String`,
/// the interner's shared `Rc<str>`, or an `Rc<str>` of the same text
/// that shares nothing. Sharing may only change how fast a key is found.
#[test]
fn objmap_agrees_with_a_vec_model_for_every_kind_of_key() {
    use pogo_script::value::intern;
    use pogo_script::ObjMap;
    use std::rc::Rc;

    const KEYS: [&str; 7] = ["a", "b", "aps", "bssid", "", "length", "a\u{e9}"];
    for seed in 0..SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut map = ObjMap::new();
        let mut model: Vec<(String, Value)> = Vec::new();
        for step in 0..rng.gen_range(1usize..60) {
            let key = KEYS[rng.gen_range(0..KEYS.len())];
            let at = model.iter().position(|(k, _)| k == key);
            match rng.gen_range(0usize..7) {
                kind @ 0..=3 => {
                    let v = Value::Num(step as f64);
                    let old = match kind {
                        0 => map.insert(key, v.clone()),
                        1 => map.insert(key.to_owned(), v.clone()),
                        2 => map.insert(intern(key), v.clone()),
                        _ => map.insert(Rc::<str>::from(key), v.clone()),
                    };
                    let expect = match at {
                        Some(i) => Some(std::mem::replace(&mut model[i].1, v)),
                        None => {
                            model.push((key.to_owned(), v));
                            None
                        }
                    };
                    assert_eq!(old, expect, "seed {seed} step {step}: insert {key:?}");
                }
                4 => {
                    let expect = at.map(|i| model.remove(i).1);
                    assert_eq!(map.remove(key), expect, "seed {seed} step {step}");
                }
                _ => {
                    let expect = at.map(|i| &model[i].1);
                    assert_eq!(map.get(key), expect, "seed {seed} step {step}");
                    assert_eq!(map.get(&intern(key)), expect, "seed {seed} step {step}");
                }
            }
            let got: Vec<(&str, &Value)> = map.iter().collect();
            let want: Vec<(&str, &Value)> = model.iter().map(|(k, v)| (k.as_str(), v)).collect();
            assert_eq!(got, want, "seed {seed} step {step}: iteration order");
            assert_eq!(map.len(), model.len());
            assert!(map.keys().eq(model.iter().map(|(k, _)| k.as_str())));
        }
        // Collecting pairs is a sequence of inserts: a repeated key keeps
        // its first position and its last value.
        let collected: ObjMap = model
            .iter()
            .chain(model.first())
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        assert_eq!(collected, map, "seed {seed}: FromIterator");
        // Equality is keys in order and their values, whoever holds the
        // key list: the same pairs inserted under keys that share nothing.
        let mut rebuilt = ObjMap::new();
        for (k, v) in &model {
            rebuilt.insert(Rc::<str>::from(k.as_str()), v.clone());
        }
        assert_eq!(rebuilt, map, "seed {seed}: PartialEq");
        if let Some((k, v)) = model.first() {
            rebuilt.insert(k.as_str(), Value::str("other"));
            assert_ne!(rebuilt, map, "seed {seed}: a value differs");
            // Back to its value, but now as the last key.
            rebuilt.remove(k);
            rebuilt.insert(k.as_str(), v.clone());
            assert_eq!(rebuilt.len(), map.len());
            assert_eq!(rebuilt == map, model.len() == 1, "seed {seed}: order");
        }
    }
}

/// Script-side stores against the same model: `o.k = v` and `o[k] = v` in
/// a random order, onto a literal or an empty object, keep a repeated
/// key's first position and last value, `for..in` walks the keys in that
/// order, and both engines agree.
#[test]
fn script_stores_keep_insertion_order_for_for_in_on_both_engines() {
    const KEYS: [&str; 5] = ["a", "b", "aps", "t", "l"];
    for seed in 0..SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut model: Vec<(&str, usize)> = Vec::new();
        let mut src = String::from("var o = {");
        for (n, key) in KEYS.iter().enumerate().take(rng.gen_range(0usize..3)) {
            model.push((key, n));
            src += &format!("{}{key}: {n}", if n > 0 { ", " } else { " " });
        }
        src += " };\n";
        for step in 10..rng.gen_range(10usize..30) {
            let key = KEYS[rng.gen_range(0..KEYS.len())];
            match model.iter_mut().find(|(k, _)| *k == key) {
                Some(entry) => entry.1 = step,
                None => model.push((key, step)),
            }
            src += &if rng.gen_range(0usize..2) == 0 {
                format!("o.{key} = {step};\n")
            } else {
                format!("o['{key}'] = {step};\n")
            };
        }
        src += "var order = '';\nfor (var k in o) { order += k + o[k] + ','; }\norder;";
        let want: String = model.iter().map(|(k, v)| format!("{k}{v},")).collect();
        for (engine, eval) in treewalk::ENGINES {
            let got = eval(&mut Interpreter::new(), &src).unwrap();
            assert_eq!(got, Value::str(&want), "seed {seed} {engine}:\n{src}");
        }
    }
}

/// An object literal that repeats a key keeps the key's first position
/// and its last value on both engines (a shape's keys are distinct, so
/// the VM builds such a literal by stores).
#[test]
fn a_literal_that_repeats_a_key_keeps_first_position_and_last_value() {
    let src = "var n = 0;\n\
               function next() { n = n + 1; return n; }\n\
               var o = { a: next(), b: next(), a: next(), c: next(), b: next() };\n\
               var order = '';\n\
               for (var k in o) { order += k + o[k]; }\n\
               order;";
    for (engine, eval) in treewalk::ENGINES {
        let got = eval(&mut Interpreter::new(), src).unwrap();
        assert_eq!(got, Value::str("a3b5c4"), "{engine}");
    }
}

/// One compiled program — so one set of inline caches — run turn about
/// on two interpreters whose objects hold the same keys in different
/// orders: a cached entry index is a hint, checked against the key on
/// every use, so neither interpreter reads the other's layout.
#[test]
fn a_shared_chunk_serves_interpreters_whose_objects_order_keys_differently() {
    use pogo_script::value::intern;
    use pogo_script::{compile, ObjMap};
    use std::rc::Rc;

    let program = compile(
        "function pick(o) { var p = o; return p.a * 100 + o.b * 10 + p.c; }\n\
         pick(make());",
    )
    .unwrap();
    let orders: [[(&str, f64); 3]; 3] = [
        [("a", 1.0), ("b", 2.0), ("c", 3.0)],
        [("c", 3.0), ("a", 1.0), ("b", 2.0)],
        [("b", 2.0), ("c", 3.0), ("a", 1.0)],
    ];
    let mut interps: Vec<Interpreter> = orders
        .iter()
        .enumerate()
        .map(|(i, order)| {
            let mut interp = Interpreter::new();
            let order = *order;
            interp.register_native("make", move |_, _| {
                // Interned, unshared and freshly built keys by turns.
                Ok(Value::object(match i {
                    0 => order
                        .iter()
                        .map(|(k, v)| (intern(k), Value::Num(*v)))
                        .collect::<ObjMap>(),
                    1 => order
                        .iter()
                        .map(|(k, v)| (Rc::<str>::from(*k), Value::Num(*v)))
                        .collect(),
                    _ => order.iter().map(|(k, v)| (*k, Value::Num(*v))).collect(),
                }))
            });
            interp
        })
        .collect();
    for round in 0..4 {
        for (i, interp) in interps.iter_mut().enumerate() {
            let got = interp.run_compiled(&program).unwrap();
            assert_eq!(got, Value::Num(123.0), "round {round}, interpreter {i}");
        }
    }
}

/// One member site, objects of many layouts by turns: literals and
/// host-built objects that hold `x` at different indices, hold another
/// key where the last object held `x`, or do not hold `x` at all. The
/// site caches (shape, index) and must never read through a stale pair:
/// every read is checked against the object's own `get`.
#[test]
fn one_member_site_alternating_between_shapes_never_reads_the_wrong_property() {
    use pogo_script::{compile, ObjMap};

    // `pick` reads through both member ops (a local's member and a
    // popped receiver's); `lit` builds the literal layouts.
    let program = compile(
        "function pick(o) { var p = o; return [p.x, next().x]; }\n\
         function lit(n, v) {\n\
             if (n == 0) return { x: v, y: -1 };\n\
             if (n == 1) return { y: -1, x: v };\n\
             if (n == 2) return { y: v };\n\
             return { y: -1, z: -2, x: v };\n\
         }\n\
         0;",
    )
    .unwrap();
    const HOST_LAYOUTS: [&[&str]; 5] = [
        &["x", "y"],
        &["y", "x"],
        &["y"],
        &["x"],
        &["z", "y", "w", "x"],
    ];
    for seed in 0..SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut interp = Interpreter::new();
        interp.run_compiled(&program).unwrap();
        let current = std::rc::Rc::new(std::cell::RefCell::new(Value::Null));
        let handed = current.clone();
        interp.register_native("next", move |_, _| Ok(handed.borrow().clone()));
        let pick = interp.eval("pick;").unwrap();
        let lit = interp.eval("lit;").unwrap();
        for step in 0..40 {
            let v = Value::Num(f64::from(seed as u32 * 100 + step));
            let object = if rng.gen_range(0usize..2) == 0 {
                let n = Value::Num(rng.gen_range(0usize..4) as f64);
                interp.call(&lit, &[n, v.clone()]).unwrap()
            } else {
                let layout = HOST_LAYOUTS[rng.gen_range(0..HOST_LAYOUTS.len())];
                let pairs = layout.iter().map(|k| match *k {
                    "x" => ("x", v.clone()),
                    k => (k, Value::str("not x")),
                });
                Value::object(pairs.collect::<ObjMap>())
            };
            let Value::Object(map) = &object else {
                panic!("an object");
            };
            let want = map.borrow().get("x").cloned().unwrap_or(Value::Null);
            *current.borrow_mut() = object.clone();
            let Value::Array(got) = interp.call(&pick, std::slice::from_ref(&object)).unwrap()
            else {
                panic!("pick returns an array");
            };
            assert_eq!(
                **got.borrow(),
                vec![want.clone(), want],
                "seed {seed} step {step}"
            );
        }
    }
}

/// String ordering on both engines, one string against itself included:
/// the VM answers that from the pointers, the tree-walk from the text.
#[test]
fn string_ordering_agrees_across_engines_for_shared_and_equal_strings() {
    let src = "var s = 'ab'; var t = s; var u = 'a' + 'b';\n\
               var out = '';\n\
               var pairs = [[s, t], [s, u], [s, 'b'], ['b', s], ['', s], [s, 'a']];\n\
               for (var i = 0; i < pairs.length; i++) {\n\
                   var x = pairs[i][0], y = pairs[i][1];\n\
                   out += (x < y) + ',' + (x <= y) + ',' + (x > y) + ',' + (x >= y) + ',' + (x == y) + ';';\n\
               }\n\
               out;";
    let want = "false,true,false,true,true;false,true,false,true,true;\
                true,true,false,false,false;false,false,true,true,false;\
                true,true,false,false,false;false,false,true,true,false;";
    for (engine, eval) in treewalk::ENGINES {
        let got = eval(&mut Interpreter::new(), src).unwrap();
        assert_eq!(got, Value::str(want), "{engine}");
    }
}

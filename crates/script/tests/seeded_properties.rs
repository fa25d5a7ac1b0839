//! Seeded property tests for PogoScript: pretty-print round-trips,
//! arithmetic agreement with a Rust reference model, and watchdog
//! monotonicity. Inputs come from a seeded `SmallRng`, so the suite runs
//! by default and every failure names its seed.

#[path = "common/pretty.rs"]
mod pretty;

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

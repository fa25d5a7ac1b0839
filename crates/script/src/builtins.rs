//! The PogoScript standard library: `Math`, global conversion helpers,
//! and the array/string method tables.
//!
//! Deliberately small — scripts are sandboxed and the paper's API design
//! (§3.5) argues for a minimal surface. Notably absent: any I/O, any
//! clock, and `Math.random` (the simulation must stay deterministic; a
//! host can register a seeded `random` native if an experiment needs one).

use std::rc::Rc;

use crate::env::Env;
use crate::error::{ErrorKind, ScriptError};
use crate::interp::Interpreter;
use crate::value::{intern, NativeFn, ObjMap, Value};

/// The builtin natives, made once per thread: every interpreter on it
/// binds the same `Rc`s. A script that reassigns one rebinds its own
/// global or its own `Math`'s property and nothing else, since a native
/// holds no state.
struct Natives {
    /// The global functions, in the order they are declared.
    globals: [(&'static str, Value); 5],
    /// `Math`'s functions, in [`MATH_DISPATCH`] order.
    math: Vec<Value>,
}

thread_local! {
    static NATIVES: Natives = Natives {
        globals: [
            ("keys", native("keys", keys_impl)),
            ("Number", native("Number", number_impl)),
            ("String", native("String", string_impl)),
            ("isNaN", native("isNaN", is_nan_impl)),
            ("parseFloat", native("parseFloat", parse_float_impl)),
        ],
        math: MATH_DISPATCH
            .iter()
            .map(|&(name, .., f)| native(name, move |_, args| f(args)))
            .collect(),
    };
}

/// Installs the standard builtins into a global scope: a `Math` object of
/// its own, holding the thread's natives, and the thread's global natives.
pub fn install(globals: &Env) {
    NATIVES.with(|natives| {
        globals.declare(intern("Math"), math_object(&natives.math));
        for (name, f) in &natives.globals {
            globals.declare(intern(name), f.clone());
        }
    });
}

fn native(
    name: &str,
    f: impl Fn(&mut Interpreter, &[Value]) -> Result<Value, ScriptError> + 'static,
) -> Value {
    Value::Native(Rc::new(NativeFn {
        name: name.to_owned(),
        func: Box::new(f),
    }))
}

fn arg_num(args: &[Value], idx: usize, what: &str) -> Result<f64, ScriptError> {
    args.get(idx)
        .and_then(Value::as_num)
        .ok_or_else(|| ScriptError::host(format!("{what}: argument {idx} must be a number")))
}

// ---- Math dispatch ---------------------------------------------------------
//
// One implementation per `Math` function, shared by the installed
// natives *and* the VM's compile-time-resolved `MathCall` instruction,
// so the fast path is identical-by-construction to the slow one.

/// Signature of a `Math` builtin: pure, no interpreter access.
pub(crate) type MathImpl = fn(&[Value]) -> Result<Value, ScriptError>;

macro_rules! math_unary {
    ($f:expr) => {
        |args: &[Value]| Ok(Value::Num($f(arg_num(args, 0, "Math")?)))
    };
}

fn math_pow(args: &[Value]) -> Result<Value, ScriptError> {
    Ok(Value::Num(
        arg_num(args, 0, "Math.pow")?.powf(arg_num(args, 1, "Math.pow")?),
    ))
}

fn math_min(args: &[Value]) -> Result<Value, ScriptError> {
    let mut best = f64::INFINITY;
    for (i, _) in args.iter().enumerate() {
        best = best.min(arg_num(args, i, "Math.min")?);
    }
    Ok(Value::Num(best))
}

fn math_max(args: &[Value]) -> Result<Value, ScriptError> {
    let mut best = f64::NEG_INFINITY;
    for (i, _) in args.iter().enumerate() {
        best = best.max(arg_num(args, i, "Math.max")?);
    }
    Ok(Value::Num(best))
}

/// Every `Math` function with its arity (min, max; `None` is variadic),
/// in the (stable) order `MathCall` operands index. The compiler resolves
/// `Math.sqrt(..)` & co. to positions in this table when it can prove
/// `Math` is the untouched builtin; the analyzer checks arities from it.
pub(crate) const MATH_DISPATCH: &[(&str, usize, Option<usize>, MathImpl)] = &[
    ("sqrt", 1, Some(1), math_unary!(f64::sqrt)),
    ("abs", 1, Some(1), math_unary!(f64::abs)),
    ("floor", 1, Some(1), math_unary!(f64::floor)),
    ("ceil", 1, Some(1), math_unary!(f64::ceil)),
    ("round", 1, Some(1), math_unary!(f64::round)),
    ("exp", 1, Some(1), math_unary!(f64::exp)),
    ("log", 1, Some(1), math_unary!(f64::ln)),
    ("sin", 1, Some(1), math_unary!(f64::sin)),
    ("cos", 1, Some(1), math_unary!(f64::cos)),
    ("pow", 2, Some(2), math_pow),
    ("min", 1, None, math_min),
    ("max", 1, None, math_max),
];

/// The `MathCall` operand for `name`, if it is a dispatchable builtin.
pub(crate) fn math_fn_index(name: &str) -> Option<u8> {
    MATH_DISPATCH
        .iter()
        .position(|&(n, ..)| n == name)
        .map(|i| i as u8)
}

// ---- globals ---------------------------------------------------------------

fn keys_impl(interp: &mut Interpreter, args: &[Value]) -> Result<Value, ScriptError> {
    match args.first() {
        Some(Value::Object(map)) => {
            interp.charge(map.borrow().len() as u64)?;
            Ok(Value::array(map.borrow().keys().map(Value::str).collect()))
        }
        _ => Err(ScriptError::host("keys() expects an object")),
    }
}

fn number_impl(_: &mut Interpreter, args: &[Value]) -> Result<Value, ScriptError> {
    Ok(match args.first() {
        Some(Value::Num(n)) => Value::Num(*n),
        Some(Value::Bool(b)) => Value::Num(if *b { 1.0 } else { 0.0 }),
        Some(Value::Str(s)) => Value::Num(s.trim().parse::<f64>().unwrap_or(f64::NAN)),
        Some(Value::Null) | None => Value::Num(0.0),
        Some(_) => Value::Num(f64::NAN),
    })
}

fn string_impl(interp: &mut Interpreter, args: &[Value]) -> Result<Value, ScriptError> {
    let s = args
        .first()
        .map(Value::to_display_string)
        .unwrap_or_default();
    // Attribute the rendering cost (unknown until rendered) to the
    // script's budget so `String(huge_structure)` is not free.
    interp.charge(s.len() as u64)?;
    Ok(Value::from(s))
}

fn is_nan_impl(_: &mut Interpreter, args: &[Value]) -> Result<Value, ScriptError> {
    Ok(Value::Bool(match args.first() {
        Some(Value::Num(n)) => n.is_nan(),
        _ => true,
    }))
}

fn parse_float_impl(_: &mut Interpreter, args: &[Value]) -> Result<Value, ScriptError> {
    match args.first() {
        Some(Value::Str(s)) => {
            // Parse the longest numeric prefix, JS-style.
            let t = s.trim();
            let mut end = 0;
            let bytes = t.as_bytes();
            let mut seen_dot = false;
            let mut seen_digit = false;
            for (i, &b) in bytes.iter().enumerate() {
                match b {
                    b'0'..=b'9' => {
                        seen_digit = true;
                        end = i + 1;
                    }
                    b'-' | b'+' if i == 0 => end = i + 1,
                    b'.' if !seen_dot => {
                        seen_dot = true;
                        end = i + 1;
                    }
                    _ => break,
                }
            }
            if !seen_digit {
                return Ok(Value::Num(f64::NAN));
            }
            Ok(Value::Num(t[..end].parse().unwrap_or(f64::NAN)))
        }
        Some(Value::Num(n)) => Ok(Value::Num(*n)),
        _ => Ok(Value::Num(f64::NAN)),
    }
}

// ---- Math ------------------------------------------------------------------

/// `Math`, with `fns` (in [`MATH_DISPATCH`] order) for its functions.
fn math_object(fns: &[Value]) -> Value {
    let constants = [
        ("PI", Value::Num(std::f64::consts::PI)),
        ("E", Value::Num(std::f64::consts::E)),
    ];
    let fns = MATH_DISPATCH
        .iter()
        .zip(fns)
        .map(|(&(name, ..), f)| (name, f.clone()));
    Value::object(constants.into_iter().chain(fns).collect::<ObjMap>())
}

// ---- array methods -----------------------------------------------------------

/// Dispatches `array.method(args)`; called by the interpreter.
pub fn call_array_method(
    interp: &mut Interpreter,
    receiver: &Value,
    name: &str,
    args: &[Value],
) -> Result<Value, ScriptError> {
    let Value::Array(items) = receiver else {
        unreachable!("dispatched on array");
    };
    let line = interp.current_line();
    let err = |msg: String| ScriptError::new(ErrorKind::Type, msg, line);
    // Watchdog granularity: a single native call that touches the
    // whole array costs proportional budget, so one pathological call
    // cannot hide unbounded work behind one interpreter step. (The
    // higher-order methods additionally consume steps inside the
    // callbacks they invoke.)
    if matches!(
        name,
        "shift"
            | "unshift"
            | "slice"
            | "splice"
            | "indexOf"
            | "join"
            | "concat"
            | "reverse"
            | "map"
            | "filter"
            | "forEach"
            | "sort"
    ) {
        let n = items.borrow().len() as u64;
        interp.charge(n)?;
    }
    match name {
        "push" => {
            let mut v = items.borrow_mut();
            for a in args {
                v.push(a.clone());
            }
            Ok(Value::Num(v.len() as f64))
        }
        "pop" => Ok(items.borrow_mut().pop().unwrap_or(Value::Null)),
        "shift" => {
            let mut v = items.borrow_mut();
            if v.is_empty() {
                Ok(Value::Null)
            } else {
                Ok(v.remove(0))
            }
        }
        "unshift" => {
            let mut v = items.borrow_mut();
            for (i, a) in args.iter().enumerate() {
                v.insert(i, a.clone());
            }
            Ok(Value::Num(v.len() as f64))
        }
        "slice" => {
            let v = items.borrow();
            let len = v.len() as f64;
            let norm = |x: f64| -> usize {
                let i = if x < 0.0 { len + x } else { x };
                i.clamp(0.0, len) as usize
            };
            let start = norm(args.first().and_then(Value::as_num).unwrap_or(0.0));
            let end = norm(args.get(1).and_then(Value::as_num).unwrap_or(len));
            Ok(Value::array(v[start..end.max(start)].to_vec()))
        }
        "splice" => {
            let mut v = items.borrow_mut();
            let len = v.len() as f64;
            let start = {
                let x = args.first().and_then(Value::as_num).unwrap_or(0.0);
                (if x < 0.0 { len + x } else { x }).clamp(0.0, len) as usize
            };
            let count = args
                .get(1)
                .and_then(Value::as_num)
                .unwrap_or(len)
                .clamp(0.0, len - start as f64) as usize;
            let removed: Vec<Value> = v
                .splice(start..start + count, args.iter().skip(2).cloned())
                .collect();
            Ok(Value::array(removed))
        }
        "indexOf" => {
            let target = args.first().cloned().unwrap_or(Value::Null);
            let v = items.borrow();
            Ok(Value::Num(
                v.iter()
                    .position(|x| *x == target)
                    .map(|i| i as f64)
                    .unwrap_or(-1.0),
            ))
        }
        "join" => {
            let sep = args
                .first()
                .and_then(|v| v.as_str().map(str::to_owned))
                .unwrap_or_else(|| ",".to_owned());
            let out = {
                let v = items.borrow();
                let parts: Vec<String> = v.iter().map(Value::to_display_string).collect();
                parts.join(&sep)
            };
            // The up-front element-count charge misses the rendered
            // size (each element may stringify huge); bill the output
            // bytes so one join cannot outrun the watchdog.
            interp.charge(out.len() as u64)?;
            Ok(Value::from(out))
        }
        "concat" => {
            let mut out = items.borrow().to_vec();
            for a in args {
                match a {
                    Value::Array(other) => out.extend(other.borrow().iter().cloned()),
                    other => out.push(other.clone()),
                }
            }
            Ok(Value::array(out))
        }
        "reverse" => {
            items.borrow_mut().reverse();
            Ok(receiver.clone())
        }
        "map" => {
            let f = args.first().cloned().unwrap_or(Value::Null);
            let snapshot = items.borrow().to_vec();
            let mut out = Vec::with_capacity(snapshot.len());
            for (i, item) in snapshot.into_iter().enumerate() {
                out.push(interp.call_value(&f, &[item, Value::Num(i as f64)])?);
            }
            Ok(Value::array(out))
        }
        "filter" => {
            let f = args.first().cloned().unwrap_or(Value::Null);
            let snapshot = items.borrow().to_vec();
            let mut out = Vec::new();
            for (i, item) in snapshot.into_iter().enumerate() {
                if interp
                    .call_value(&f, &[item.clone(), Value::Num(i as f64)])?
                    .is_truthy()
                {
                    out.push(item);
                }
            }
            Ok(Value::array(out))
        }
        "forEach" => {
            let f = args.first().cloned().unwrap_or(Value::Null);
            let snapshot = items.borrow().to_vec();
            for (i, item) in snapshot.into_iter().enumerate() {
                interp.call_value(&f, &[item, Value::Num(i as f64)])?;
            }
            Ok(Value::Null)
        }
        "sort" => {
            // Sorts in place. With no comparator: numbers ascending or
            // strings lexicographic (not JS's everything-as-string order —
            // documented deviation, and the sane choice for sensor data).
            let mut v = items.borrow().to_vec();
            match args.first() {
                Some(f @ (Value::Func(_) | Value::Native(_))) => {
                    // Insertion sort so the comparator (a script function)
                    // can be called fallibly.
                    for i in 1..v.len() {
                        let mut j = i;
                        while j > 0 {
                            let ord = interp
                                .call_value(f, &[v[j - 1].clone(), v[j].clone()])?
                                .as_num()
                                .ok_or_else(
                                    || err("sort comparator must return a number".into()),
                                )?;
                            if ord > 0.0 {
                                v.swap(j - 1, j);
                                j -= 1;
                            } else {
                                break;
                            }
                        }
                    }
                }
                _ => {
                    let all_nums = v.iter().all(|x| matches!(x, Value::Num(_)));
                    if all_nums {
                        // NaN after every number and equal to any NaN: a
                        // total order, which std's sort may panic without.
                        v.sort_by(|a, b| {
                            let (a, b) = (a.as_num().unwrap(), b.as_num().unwrap());
                            a.is_nan().cmp(&b.is_nan()).then_with(|| {
                                a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal)
                            })
                        });
                    } else {
                        v.sort_by_key(|a| a.to_display_string());
                    }
                }
            }
            **items.borrow_mut() = v;
            Ok(receiver.clone())
        }
        other => Err(err(format!("arrays have no method `{other}`"))),
    }
}

// ---- string methods ----------------------------------------------------------

/// Dispatches `string.method(args)`; called by the interpreter.
pub fn call_string_method(
    interp: &mut Interpreter,
    receiver: &Value,
    name: &str,
    args: &[Value],
) -> Result<Value, ScriptError> {
    let Value::Str(s) = receiver else {
        unreachable!("dispatched on string");
    };
    let line = interp.current_line();
    let err = |msg: String| ScriptError::new(ErrorKind::Type, msg, line);
    // Every string method scans the receiver; bill it (see the array
    // dispatcher for the watchdog rationale).
    interp.charge(s.len() as u64)?;
    match name {
        "substring" => {
            let chars: Vec<char> = s.chars().collect();
            let len = chars.len() as f64;
            let a = args
                .first()
                .and_then(Value::as_num)
                .unwrap_or(0.0)
                .clamp(0.0, len) as usize;
            let b = args
                .get(1)
                .and_then(Value::as_num)
                .unwrap_or(len)
                .clamp(0.0, len) as usize;
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            Ok(Value::from(chars[lo..hi].iter().collect::<String>()))
        }
        "indexOf" => {
            let needle = args
                .first()
                .and_then(|v| v.as_str().map(str::to_owned))
                .ok_or_else(|| err("indexOf expects a string".into()))?;
            Ok(Value::Num(
                s.find(&needle)
                    .map(|byte_idx| s[..byte_idx].chars().count() as f64)
                    .unwrap_or(-1.0),
            ))
        }
        "charAt" => {
            let i = args.first().and_then(Value::as_num).unwrap_or(0.0);
            if i < 0.0 {
                return Ok(Value::str(""));
            }
            Ok(Value::from(
                s.chars()
                    .nth(i as usize)
                    .map(|c| c.to_string())
                    .unwrap_or_default(),
            ))
        }
        "split" => {
            let sep = args
                .first()
                .and_then(|v| v.as_str().map(str::to_owned))
                .ok_or_else(|| err("split expects a string separator".into()))?;
            let parts: Vec<Value> = if sep.is_empty() {
                s.chars().map(|c| Value::from(c.to_string())).collect()
            } else {
                s.split(&sep).map(Value::str).collect()
            };
            Ok(Value::array(parts))
        }
        "toLowerCase" => Ok(Value::from(s.to_lowercase())),
        "toUpperCase" => Ok(Value::from(s.to_uppercase())),
        "trim" => Ok(Value::str(s.trim())),
        "replace" => {
            // Replaces the *first* occurrence, with a literal (non-regex)
            // pattern.
            let from = args
                .first()
                .and_then(|v| v.as_str().map(str::to_owned))
                .ok_or_else(|| err("replace expects string arguments".into()))?;
            let to = args
                .get(1)
                .and_then(|v| v.as_str().map(str::to_owned))
                .ok_or_else(|| err("replace expects string arguments".into()))?;
            Ok(Value::from(s.replacen(&from, &to, 1)))
        }
        "startsWith" => {
            let p = args
                .first()
                .and_then(|v| v.as_str().map(str::to_owned))
                .unwrap_or_default();
            Ok(Value::Bool(s.starts_with(&p)))
        }
        "endsWith" => {
            let p = args
                .first()
                .and_then(|v| v.as_str().map(str::to_owned))
                .unwrap_or_default();
            Ok(Value::Bool(s.ends_with(&p)))
        }
        other => Err(err(format!("strings have no method `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(src: &str) -> Value {
        Interpreter::new().eval(src).unwrap()
    }

    #[test]
    fn math_functions() {
        assert_eq!(eval("Math.sqrt(16);"), Value::from(4.0));
        assert_eq!(eval("Math.abs(-3);"), Value::from(3.0));
        assert_eq!(eval("Math.floor(2.9);"), Value::from(2.0));
        assert_eq!(eval("Math.ceil(2.1);"), Value::from(3.0));
        assert_eq!(eval("Math.round(2.5);"), Value::from(3.0));
        assert_eq!(eval("Math.pow(2, 10);"), Value::from(1024.0));
        assert_eq!(eval("Math.min(3, 1, 2);"), Value::from(1.0));
        assert_eq!(eval("Math.max(3, 1, 2);"), Value::from(3.0));
        assert!((eval("Math.PI;").as_num().unwrap() - std::f64::consts::PI).abs() < 1e-15);
    }

    #[test]
    fn keys_lists_object_keys_in_order() {
        let v = eval("keys({ b: 1, a: 2 }).join(',');");
        assert_eq!(v, Value::str("b,a"));
    }

    #[test]
    fn number_and_string_conversions() {
        assert_eq!(eval("Number('42.5');"), Value::from(42.5));
        assert!(eval("Number('nope');").as_num().unwrap().is_nan());
        assert_eq!(eval("Number(true);"), Value::from(1.0));
        assert_eq!(eval("String(42);"), Value::str("42"));
        assert_eq!(eval("String(null);"), Value::str("null"));
        assert_eq!(eval("isNaN(0 / 0);"), Value::from(true));
        assert_eq!(eval("isNaN(1);"), Value::from(false));
        assert_eq!(eval("parseFloat('3.5abc');"), Value::from(3.5));
        assert!(eval("parseFloat('abc');").as_num().unwrap().is_nan());
    }

    #[test]
    fn array_push_pop_shift_unshift() {
        assert_eq!(
            eval("var a = [1]; a.push(2, 3); a.join('-');"),
            Value::str("1-2-3")
        );
        assert_eq!(eval("var a = [1, 2]; a.pop();"), Value::from(2.0));
        assert_eq!(eval("var a = [1, 2]; a.shift(); a[0];"), Value::from(2.0));
        assert_eq!(eval("var a = [2]; a.unshift(1); a[0];"), Value::from(1.0));
        assert_eq!(eval("[].pop();"), Value::Null);
        assert_eq!(eval("[].shift();"), Value::Null);
    }

    #[test]
    fn array_slice_semantics() {
        assert_eq!(eval("[1,2,3,4].slice(1, 3).join(',');"), Value::str("2,3"));
        assert_eq!(eval("[1,2,3,4].slice(2).join(',');"), Value::str("3,4"));
        assert_eq!(eval("[1,2,3,4].slice(-2).join(',');"), Value::str("3,4"));
        assert_eq!(eval("[1,2].slice(5).length;"), Value::from(0.0));
    }

    #[test]
    fn array_splice_removes_and_inserts() {
        assert_eq!(
            eval("var a = [1,2,3,4]; var r = a.splice(1, 2); r.join(',') + '|' + a.join(',');"),
            Value::str("2,3|1,4")
        );
        assert_eq!(
            eval("var a = [1,4]; a.splice(1, 0, 2, 3); a.join(',');"),
            Value::str("1,2,3,4")
        );
    }

    #[test]
    fn array_index_of_and_concat() {
        assert_eq!(eval("[1,2,3].indexOf(2);"), Value::from(1.0));
        assert_eq!(eval("[1,2,3].indexOf(9);"), Value::from(-1.0));
        assert_eq!(
            eval("['a'].concat(['b'], 'c').join('');"),
            Value::str("abc")
        );
    }

    #[test]
    fn array_higher_order_methods() {
        assert_eq!(
            eval("[1,2,3].map(function (x) { return x * 2; }).join(',');"),
            Value::str("2,4,6")
        );
        assert_eq!(
            eval("[1,2,3,4].filter(function (x) { return x % 2 == 0; }).join(',');"),
            Value::str("2,4")
        );
        assert_eq!(
            eval("var s = 0; [1,2,3].forEach(function (x) { s += x; }); s;"),
            Value::from(6.0)
        );
    }

    #[test]
    fn array_sort_default_and_comparator() {
        assert_eq!(eval("[3,1,2].sort().join(',');"), Value::str("1,2,3"));
        assert_eq!(
            eval("[1,3,2].sort(function (a, b) { return b - a; }).join(',');"),
            Value::str("3,2,1")
        );
        assert_eq!(eval("['b','a'].sort().join(',');"), Value::str("a,b"));
    }

    #[test]
    fn array_sort_puts_nan_last_instead_of_panicking() {
        for n in 20..=64 {
            let src = format!(
                "var a = []; var i = 0; while (i < {n}) {{ a.push(i % 3 == 0 ? 0/0 : {n} - i); i = i + 1; }} a.sort().join(',');"
            );
            let mut numbers: Vec<f64> = (0..n)
                .filter(|i| i % 3 != 0)
                .map(|i| f64::from(n - i))
                .collect();
            numbers.sort_by(f64::total_cmp);
            let mut expected: Vec<String> = numbers
                .into_iter()
                .map(crate::value::format_number)
                .collect();
            expected.extend((0..n).filter(|i| i % 3 == 0).map(|_| "NaN".to_owned()));
            assert_eq!(eval(&src), Value::str(expected.join(",")), "length {n}");
        }
    }

    #[test]
    fn string_methods() {
        assert_eq!(eval("'hello'.substring(1, 3);"), Value::str("el"));
        assert_eq!(eval("'hello'.indexOf('ll');"), Value::from(2.0));
        assert_eq!(eval("'hello'.indexOf('x');"), Value::from(-1.0));
        assert_eq!(eval("'abc'.charAt(1);"), Value::str("b"));
        assert_eq!(eval("'a,b,c'.split(',').length;"), Value::from(3.0));
        assert_eq!(eval("'AbC'.toLowerCase();"), Value::str("abc"));
        assert_eq!(eval("'AbC'.toUpperCase();"), Value::str("ABC"));
        assert_eq!(eval("'  x '.trim();"), Value::str("x"));
        assert_eq!(eval("'aXa'.replace('a', 'b');"), Value::str("bXa"));
        assert_eq!(eval("'00:11:22'.startsWith('00');"), Value::from(true));
        assert_eq!(eval("'abc'.endsWith('bc');"), Value::from(true));
    }

    #[test]
    fn unknown_method_is_type_error() {
        let err = Interpreter::new().eval("[1].frobnicate();").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Type);
        assert!(err.message().contains("frobnicate"));
    }
}

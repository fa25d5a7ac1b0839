//! AST pretty-printer.
//!
//! Emits PogoScript source from an AST. Exists to power the parse →
//! print → parse round-trip property in `seeded_properties.rs` (the
//! printed program must parse back to an identical AST), which is why it
//! lives with the tests and not in the crate.

use pogo_script::ast::{Expr, LogicalOp, Stmt, UnaryOp};
use pogo_script::value::format_number;

/// Pretty-prints a whole program.
pub fn print_program(program: &[Stmt]) -> String {
    let mut out = String::new();
    for stmt in program {
        print_stmt(stmt, 0, &mut out);
    }
    out
}

fn indent(level: usize, out: &mut String) {
    for _ in 0..level {
        out.push_str("    ");
    }
}

fn print_stmt(stmt: &Stmt, level: usize, out: &mut String) {
    indent(level, out);
    match stmt {
        Stmt::Var { decls, .. } => {
            out.push_str("var ");
            for (i, (name, init)) in decls.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(name);
                if let Some(expr) = init {
                    out.push_str(" = ");
                    print_expr(expr, out);
                }
            }
            out.push_str(";\n");
        }
        Stmt::Func {
            name, params, body, ..
        } => {
            out.push_str("function ");
            out.push_str(name);
            out.push('(');
            out.push_str(&params.join(", "));
            out.push_str(") {\n");
            for s in body.iter() {
                print_stmt(s, level + 1, out);
            }
            indent(level, out);
            out.push_str("}\n");
        }
        Stmt::Expr { expr, .. } => {
            print_expr(expr, out);
            out.push_str(";\n");
        }
        Stmt::If {
            cond, then, els, ..
        } => {
            out.push_str("if (");
            print_expr(cond, out);
            out.push_str(")\n");
            print_stmt(then, level + 1, out);
            if let Some(els) = els {
                indent(level, out);
                out.push_str("else\n");
                print_stmt(els, level + 1, out);
            }
        }
        Stmt::While { cond, body, .. } => {
            out.push_str("while (");
            print_expr(cond, out);
            out.push_str(")\n");
            print_stmt(body, level + 1, out);
        }
        Stmt::DoWhile { body, cond, .. } => {
            out.push_str("do\n");
            print_stmt(body, level + 1, out);
            indent(level, out);
            out.push_str("while (");
            print_expr(cond, out);
            out.push_str(");\n");
        }
        Stmt::ForIn {
            name, object, body, ..
        } => {
            out.push_str("for (var ");
            out.push_str(name);
            out.push_str(" in ");
            print_expr(object, out);
            out.push_str(")\n");
            print_stmt(body, level + 1, out);
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
            ..
        } => {
            out.push_str("for (");
            match init {
                Some(init) => {
                    // Inline the initializer without indentation/newline.
                    let mut tmp = String::new();
                    print_stmt(init, 0, &mut tmp);
                    out.push_str(tmp.trim_end_matches('\n'));
                }
                None => out.push(';'),
            }
            out.push(' ');
            if let Some(cond) = cond {
                print_expr(cond, out);
            }
            out.push_str("; ");
            if let Some(step) = step {
                print_expr(step, out);
            }
            out.push_str(")\n");
            print_stmt(body, level + 1, out);
        }
        Stmt::Return { value, .. } => {
            out.push_str("return");
            if let Some(v) = value {
                out.push(' ');
                print_expr(v, out);
            }
            out.push_str(";\n");
        }
        Stmt::Break { .. } => out.push_str("break;\n"),
        Stmt::Continue { .. } => out.push_str("continue;\n"),
        Stmt::Block { body, .. } => {
            out.push_str("{\n");
            for s in body {
                print_stmt(s, level + 1, out);
            }
            indent(level, out);
            out.push_str("}\n");
        }
        Stmt::Empty { .. } => out.push_str(";\n"),
    }
}

fn print_expr(expr: &Expr, out: &mut String) {
    match expr {
        Expr::Number(n) => out.push_str(&format_number(*n)),
        Expr::Str(s) => {
            out.push('\'');
            for c in s.chars() {
                match c {
                    '\'' => out.push_str("\\'"),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    '\r' => out.push_str("\\r"),
                    c => out.push(c),
                }
            }
            out.push('\'');
        }
        Expr::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Expr::Null => out.push_str("null"),
        Expr::Ident(name) => out.push_str(name),
        Expr::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                print_expr(item, out);
            }
            out.push(']');
        }
        Expr::Object(props) => {
            out.push_str("{ ");
            for (i, (key, value)) in props.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push('\'');
                out.push_str(key);
                out.push_str("': ");
                print_expr(value, out);
            }
            out.push_str(" }");
        }
        Expr::Func { params, body } => {
            out.push_str("function (");
            out.push_str(&params.join(", "));
            out.push_str(") {\n");
            for s in body.iter() {
                print_stmt(s, 1, out);
            }
            out.push('}');
        }
        Expr::Unary { op, expr } => {
            match op {
                UnaryOp::Not => out.push('!'),
                UnaryOp::Neg => out.push('-'),
                UnaryOp::Plus => out.push('+'),
                UnaryOp::Typeof => out.push_str("typeof "),
            }
            out.push('(');
            print_expr(expr, out);
            out.push(')');
        }
        Expr::Binary { op, lhs, rhs } => {
            out.push('(');
            print_expr(lhs, out);
            out.push(' ');
            out.push_str(op.symbol());
            out.push(' ');
            print_expr(rhs, out);
            out.push(')');
        }
        Expr::Logical { op, lhs, rhs } => {
            out.push('(');
            print_expr(lhs, out);
            out.push_str(match op {
                LogicalOp::And => " && ",
                LogicalOp::Or => " || ",
            });
            print_expr(rhs, out);
            out.push(')');
        }
        Expr::Ternary { cond, then, els } => {
            out.push('(');
            print_expr(cond, out);
            out.push_str(" ? ");
            print_expr(then, out);
            out.push_str(" : ");
            print_expr(els, out);
            out.push(')');
        }
        Expr::Assign { target, op, value } => {
            print_expr(target, out);
            match op {
                None => out.push_str(" = "),
                Some(op) => {
                    out.push(' ');
                    out.push_str(op.symbol());
                    out.push_str("= ");
                }
            }
            print_expr(value, out);
        }
        Expr::Update {
            target,
            increment,
            prefix,
        } => {
            let sym = if *increment { "++" } else { "--" };
            if *prefix {
                out.push_str(sym);
                print_expr(target, out);
            } else {
                print_expr(target, out);
                out.push_str(sym);
            }
        }
        Expr::Call { callee, args, .. } => {
            print_expr(callee, out);
            out.push('(');
            for (i, arg) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                print_expr(arg, out);
            }
            out.push(')');
        }
        Expr::Member { object, name } => {
            print_expr(object, out);
            out.push('.');
            out.push_str(name);
        }
        Expr::Index { object, index } => {
            print_expr(object, out);
            out.push('[');
            print_expr(index, out);
            out.push(']');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pogo_script::parse;

    /// Strips line numbers so structurally-identical ASTs compare equal.
    fn normalize(stmts: &[Stmt]) -> String {
        // Printing is itself the normal form: identical prints mean
        // identical structure.
        print_program(stmts)
    }

    fn roundtrip(src: &str) {
        let ast1 = parse(src).unwrap();
        let printed = print_program(&ast1);
        let ast2 = parse(&printed)
            .unwrap_or_else(|e| panic!("printed program failed to parse: {e}\n{printed}"));
        assert_eq!(
            normalize(&ast1),
            normalize(&ast2),
            "round-trip changed the program:\n{printed}"
        );
    }

    #[test]
    fn roundtrips_basic_constructs() {
        roundtrip("var x = 1 + 2 * 3;");
        roundtrip("if (a > b) { c = 1; } else { c = 2; }");
        roundtrip("while (x < 10) x++;");
        roundtrip("for (var i = 0; i < 10; i++) { s += i; }");
        roundtrip("for (;;) break;");
    }

    #[test]
    fn roundtrips_functions_and_calls() {
        roundtrip("function f(a, b) { return a + b; }");
        roundtrip("var g = function (x) { return x * x; };");
        roundtrip("f(1, g(2), 'three');");
        roundtrip("a.b.c(1)[2](3);");
    }

    #[test]
    fn roundtrips_literals() {
        roundtrip("var a = [1, 'two', true, null, [3]];");
        roundtrip("var o = { a: 1, 'b c': [2], d: { e: 3 } };");
        roundtrip("var s = 'quote \\' backslash \\\\ newline \\n';");
    }

    #[test]
    fn roundtrips_operator_zoo() {
        roundtrip("x = a && b || !c;");
        roundtrip("y = a < b ? -c : +d;");
        roundtrip("z = typeof a == 'number';");
        roundtrip("w = (a % b) * (c - d) / e;");
        roundtrip("v += 1; v -= 2; v *= 3; v /= 4; v %= 5;");
        roundtrip("++i; --j; i++; j--;");
    }

    #[test]
    fn roundtrips_do_while_and_for_in() {
        roundtrip("do { n++; } while (n < 5);");
        roundtrip("do n++; while (false);");
        roundtrip("for (var k in obj) { total += obj[k]; }");
        roundtrip("for (var i in [1, 2, 3]) s += i;");
    }

    #[test]
    fn printed_listing2_parses_back() {
        let src = r#"
function start() {
    var polygon = [{ x: 1, y: 1 }, { x: 2, y: 2 }, { x: 3, y: 0 }];
    var subscription = subscribe('wifi-scan', function (msg) {
        publish(msg, 'filtered-scans');
    }, { interval: 60 * 1000 });
    subscription.release();
    subscribe('location', function (msg) {
        if (locationInPolygon(msg, polygon))
            subscription.renew();
        else
            subscription.release();
    });
}
"#;
        roundtrip(src);
    }
}

//! Recursive-descent parser for PogoScript.

use std::rc::Rc;

use crate::ast::{BinOp, Expr, LogicalOp, Stmt, UnaryOp};
use crate::error::{ErrorKind, ScriptError};
use crate::lexer::tokenize;
use crate::token::{Token, TokenKind};

/// How deep statements and expressions may nest: the bound on the height
/// of the tree [`parse`] returns, and so on the recursion of everything
/// that walks it (analyzer, compiler, `Drop`, the tests' tree-walk oracle).
/// Deployed scripts come from outside the program; without the bound a
/// few hundred kilobytes of `(` or `1+1+…` overflow the stack. Sized
/// like `pogo_core::value::MAX_JSON_DEPTH`: far above anything
/// hand-written, and every walker fits a 2 MB thread stack at this height.
pub const MAX_NESTING: usize = 128;

/// Parses a complete program.
///
/// # Errors
///
/// Returns the first lexical or syntactic error, annotated with its line;
/// nesting deeper than `MAX_NESTING` (128) levels is such an error.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), pogo_script::ScriptError> {
/// let program = pogo_script::parse("var x = 1 + 2;")?;
/// assert_eq!(program.len(), 1);
/// # Ok(())
/// # }
/// ```
pub fn parse(source: &str) -> Result<Vec<Stmt>, ScriptError> {
    let tokens = tokenize(source)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        depth: 0,
        reach: 0,
    };
    let mut stmts = Vec::new();
    while !parser.check(&TokenKind::Eof) {
        stmts.push(parser.statement()?);
    }
    Ok(stmts)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Nodes open above the one being parsed ([`Parser::nested`]).
    depth: usize,
    /// The deepest level the subtree parsed so far inside the innermost
    /// [`Parser::nested`] call reaches, so `reach - depth` is its height.
    reach: usize,
}

/// Parameter list and body shared by function declarations and expressions.
type FuncRest = (Vec<Rc<str>>, Rc<Vec<Stmt>>);

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn line(&self) -> u32 {
        self.peek().line
    }

    fn check(&self, kind: &TokenKind) -> bool {
        &self.peek().kind == kind
    }

    fn advance(&mut self) -> Token {
        let tok = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        tok
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.check(kind) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind, context: &str) -> Result<Token, ScriptError> {
        if self.check(kind) {
            Ok(self.advance())
        } else {
            Err(self.err(format!(
                "expected {kind:?} {context}, found `{}`",
                self.peek().kind
            )))
        }
    }

    fn err(&self, msg: impl Into<String>) -> ScriptError {
        ScriptError::new(ErrorKind::Parse, msg, self.line())
    }

    fn expect_ident(&mut self, context: &str) -> Result<Rc<str>, ScriptError> {
        match self.peek().kind.clone() {
            TokenKind::Ident(name) => {
                self.advance();
                Ok(name.into())
            }
            other => Err(self.err(format!("expected identifier {context}, found `{other}`"))),
        }
    }

    // ---- nesting budget ---------------------------------------------------

    /// Parses a child node with `f`, one level below the current one.
    /// Every recursive cycle of the grammar passes through here, so the
    /// parser's own recursion is bounded too.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ScriptError>,
    ) -> Result<T, ScriptError> {
        self.depth += 1;
        let outer = std::mem::replace(&mut self.reach, self.depth);
        self.check_nesting(self.depth)?;
        let child = f(self)?;
        self.reach = self.reach.max(outer);
        self.depth -= 1;
        Ok(child)
    }

    /// Accounts for a new node that takes the expression just parsed as
    /// its child — a left-associative or postfix fold, a ternary over
    /// its condition, an assignment over its target. The operand is
    /// already built, so it is the tree's reach that moves down a level.
    fn wrap(&mut self) -> Result<(), ScriptError> {
        self.reach += 1;
        self.check_nesting(self.reach)
    }

    fn check_nesting(&self, level: usize) -> Result<(), ScriptError> {
        if level > MAX_NESTING {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        Ok(())
    }

    // ---- statements -------------------------------------------------------

    fn statement(&mut self) -> Result<Stmt, ScriptError> {
        self.nested(Self::statement_unnested)
    }

    fn statement_unnested(&mut self) -> Result<Stmt, ScriptError> {
        let line = self.line();
        match self.peek().kind {
            TokenKind::Var => self.var_decl(),
            TokenKind::Function => self.func_decl(),
            TokenKind::If => self.if_stmt(),
            TokenKind::While => self.while_stmt(),
            TokenKind::Do => self.do_while_stmt(),
            TokenKind::For => self.for_stmt(),
            TokenKind::Return => {
                self.advance();
                let value = if self.check(&TokenKind::Semicolon) || self.check(&TokenKind::RBrace) {
                    None
                } else {
                    Some(self.expression()?)
                };
                self.eat(&TokenKind::Semicolon);
                Ok(Stmt::Return { value, line })
            }
            TokenKind::Break => {
                self.advance();
                self.eat(&TokenKind::Semicolon);
                Ok(Stmt::Break { line })
            }
            TokenKind::Continue => {
                self.advance();
                self.eat(&TokenKind::Semicolon);
                Ok(Stmt::Continue { line })
            }
            TokenKind::LBrace => self.block(),
            TokenKind::Semicolon => {
                self.advance();
                Ok(Stmt::Empty { line })
            }
            _ => {
                let expr = self.expression()?;
                self.eat(&TokenKind::Semicolon);
                Ok(Stmt::Expr { expr, line })
            }
        }
    }

    fn var_decl(&mut self) -> Result<Stmt, ScriptError> {
        let line = self.line();
        self.advance(); // var
        let mut decls = Vec::new();
        loop {
            let name = self.expect_ident("after `var`")?;
            let init = if self.eat(&TokenKind::Assign) {
                Some(self.assignment()?)
            } else {
                None
            };
            decls.push((name, init));
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.eat(&TokenKind::Semicolon);
        Ok(Stmt::Var { decls, line })
    }

    fn func_decl(&mut self) -> Result<Stmt, ScriptError> {
        let line = self.line();
        self.advance(); // function
        let name = self.expect_ident("after `function`")?;
        let (params, body) = self.func_rest()?;
        Ok(Stmt::Func {
            name,
            params,
            body,
            line,
        })
    }

    /// Parses `(params) { body }` shared by declarations and expressions.
    fn func_rest(&mut self) -> Result<FuncRest, ScriptError> {
        self.expect(&TokenKind::LParen, "before parameter list")?;
        let mut params = Vec::new();
        if !self.check(&TokenKind::RParen) {
            loop {
                params.push(self.expect_ident("in parameter list")?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen, "after parameter list")?;
        self.expect(&TokenKind::LBrace, "before function body")?;
        let mut body = Vec::new();
        while !self.check(&TokenKind::RBrace) {
            if self.check(&TokenKind::Eof) {
                return Err(self.err("unterminated function body"));
            }
            body.push(self.statement()?);
        }
        self.advance(); // }
        Ok((params, Rc::new(body)))
    }

    fn if_stmt(&mut self) -> Result<Stmt, ScriptError> {
        let line = self.line();
        self.advance(); // if
        self.expect(&TokenKind::LParen, "after `if`")?;
        let cond = self.expression()?;
        self.expect(&TokenKind::RParen, "after if condition")?;
        let then = Box::new(self.statement()?);
        let els = if self.eat(&TokenKind::Else) {
            Some(Box::new(self.statement()?))
        } else {
            None
        };
        Ok(Stmt::If {
            cond,
            then,
            els,
            line,
        })
    }

    fn while_stmt(&mut self) -> Result<Stmt, ScriptError> {
        let line = self.line();
        self.advance(); // while
        self.expect(&TokenKind::LParen, "after `while`")?;
        let cond = self.expression()?;
        self.expect(&TokenKind::RParen, "after while condition")?;
        let body = Box::new(self.statement()?);
        Ok(Stmt::While { cond, body, line })
    }

    fn do_while_stmt(&mut self) -> Result<Stmt, ScriptError> {
        let line = self.line();
        self.advance(); // do
        let body = Box::new(self.statement()?);
        self.expect(&TokenKind::While, "after do-while body")?;
        self.expect(&TokenKind::LParen, "after `while`")?;
        let cond = self.expression()?;
        self.expect(&TokenKind::RParen, "after do-while condition")?;
        self.eat(&TokenKind::Semicolon);
        Ok(Stmt::DoWhile { body, cond, line })
    }

    fn for_stmt(&mut self) -> Result<Stmt, ScriptError> {
        let line = self.line();
        self.advance(); // for
        self.expect(&TokenKind::LParen, "after `for`")?;
        // for (var name in object) — lookahead for the `in` form.
        if self.check(&TokenKind::Var) {
            if let (TokenKind::Ident(name), TokenKind::In) = (
                self.tokens[self.pos + 1].kind.clone(),
                self.tokens[(self.pos + 2).min(self.tokens.len() - 1)]
                    .kind
                    .clone(),
            ) {
                self.advance(); // var
                self.advance(); // name
                self.advance(); // in
                let object = self.expression()?;
                self.expect(&TokenKind::RParen, "after for-in object")?;
                let body = Box::new(self.statement()?);
                return Ok(Stmt::ForIn {
                    name: name.into(),
                    object,
                    body,
                    line,
                });
            }
        }
        let init = if self.eat(&TokenKind::Semicolon) {
            None
        } else if self.check(&TokenKind::Var) {
            Some(Box::new(self.nested(Self::var_decl)?))
        } else {
            let expr = self.nested(Self::expression)?;
            let init_line = line;
            self.expect(&TokenKind::Semicolon, "after for initializer")?;
            Some(Box::new(Stmt::Expr {
                expr,
                line: init_line,
            }))
        };
        let cond = if self.check(&TokenKind::Semicolon) {
            None
        } else {
            Some(self.expression()?)
        };
        self.expect(&TokenKind::Semicolon, "after for condition")?;
        let step = if self.check(&TokenKind::RParen) {
            None
        } else {
            Some(self.expression()?)
        };
        self.expect(&TokenKind::RParen, "after for clauses")?;
        let body = Box::new(self.statement()?);
        Ok(Stmt::For {
            init,
            cond,
            step,
            body,
            line,
        })
    }

    fn block(&mut self) -> Result<Stmt, ScriptError> {
        let line = self.line();
        self.advance(); // {
        let mut body = Vec::new();
        while !self.check(&TokenKind::RBrace) {
            if self.check(&TokenKind::Eof) {
                return Err(self.err("unterminated block"));
            }
            body.push(self.statement()?);
        }
        self.advance(); // }
        Ok(Stmt::Block { body, line })
    }

    // ---- expressions ------------------------------------------------------

    fn expression(&mut self) -> Result<Expr, ScriptError> {
        self.assignment()
    }

    fn assignment(&mut self) -> Result<Expr, ScriptError> {
        self.nested(Self::assignment_unnested)
    }

    fn assignment_unnested(&mut self) -> Result<Expr, ScriptError> {
        let target = self.ternary()?;
        let op = match self.peek().kind {
            TokenKind::Assign => None,
            TokenKind::PlusAssign => Some(BinOp::Add),
            TokenKind::MinusAssign => Some(BinOp::Sub),
            TokenKind::StarAssign => Some(BinOp::Mul),
            TokenKind::SlashAssign => Some(BinOp::Div),
            TokenKind::PercentAssign => Some(BinOp::Rem),
            _ => return Ok(target),
        };
        if !target.is_lvalue() {
            return Err(self.err("invalid assignment target"));
        }
        self.advance(); // the assignment operator
        self.wrap()?;
        let value = self.assignment()?;
        Ok(Expr::Assign {
            target: Box::new(target),
            op,
            value: Box::new(value),
        })
    }

    fn ternary(&mut self) -> Result<Expr, ScriptError> {
        let cond = self.binary(0)?;
        if self.eat(&TokenKind::Question) {
            self.wrap()?;
            let then = self.assignment()?;
            self.expect(&TokenKind::Colon, "in ternary expression")?;
            let els = self.assignment()?;
            Ok(Expr::Ternary {
                cond: Box::new(cond),
                then: Box::new(then),
                els: Box::new(els),
            })
        } else {
            Ok(cond)
        }
    }

    /// Left-associative binary operators by precedence climbing: folds
    /// every operator binding at least as tightly as `min`.
    fn binary(&mut self, min: u8) -> Result<Expr, ScriptError> {
        let mut lhs = self.unary()?;
        loop {
            let (level, op) = match self.peek().kind {
                TokenKind::OrOr => (0, Err(LogicalOp::Or)),
                TokenKind::AndAnd => (1, Err(LogicalOp::And)),
                // `===`/`!==` are strict in JS; PogoScript's `==`/`!=` are
                // already strict, so both spellings map to the same ops.
                TokenKind::EqEq | TokenKind::EqEqEq => (2, Ok(BinOp::Eq)),
                TokenKind::NotEq | TokenKind::NotEqEq => (2, Ok(BinOp::NotEq)),
                TokenKind::Lt => (3, Ok(BinOp::Lt)),
                TokenKind::Gt => (3, Ok(BinOp::Gt)),
                TokenKind::Le => (3, Ok(BinOp::Le)),
                TokenKind::Ge => (3, Ok(BinOp::Ge)),
                TokenKind::Plus => (4, Ok(BinOp::Add)),
                TokenKind::Minus => (4, Ok(BinOp::Sub)),
                TokenKind::Star => (5, Ok(BinOp::Mul)),
                TokenKind::Slash => (5, Ok(BinOp::Div)),
                TokenKind::Percent => (5, Ok(BinOp::Rem)),
                _ => return Ok(lhs),
            };
            if level < min {
                return Ok(lhs);
            }
            self.advance();
            self.wrap()?;
            let rhs = Box::new(self.nested(|p| p.binary(level + 1))?);
            let lhs_box = Box::new(lhs);
            lhs = match op {
                Ok(op) => Expr::Binary {
                    op,
                    lhs: lhs_box,
                    rhs,
                },
                Err(op) => Expr::Logical {
                    op,
                    lhs: lhs_box,
                    rhs,
                },
            };
        }
    }

    fn unary(&mut self) -> Result<Expr, ScriptError> {
        let op = match self.peek().kind {
            TokenKind::Not => UnaryOp::Not,
            TokenKind::Minus => UnaryOp::Neg,
            TokenKind::Plus => UnaryOp::Plus,
            TokenKind::Typeof => UnaryOp::Typeof,
            TokenKind::PlusPlus | TokenKind::MinusMinus => {
                let increment = self.peek().kind == TokenKind::PlusPlus;
                self.advance();
                let target = self.nested(Self::unary)?;
                if !target.is_lvalue() {
                    return Err(self.err("invalid increment/decrement target"));
                }
                return Ok(Expr::Update {
                    target: Box::new(target),
                    increment,
                    prefix: true,
                });
            }
            _ => return self.postfix(),
        };
        self.advance();
        let expr = self.nested(Self::unary)?;
        Ok(Expr::Unary {
            op,
            expr: Box::new(expr),
        })
    }

    fn postfix(&mut self) -> Result<Expr, ScriptError> {
        let mut expr = self.primary()?;
        loop {
            match self.peek().kind {
                TokenKind::Dot => {
                    self.advance();
                    self.wrap()?;
                    let name = self.expect_ident("after `.`")?;
                    expr = Expr::Member {
                        object: Box::new(expr),
                        name,
                    };
                }
                TokenKind::LBracket => {
                    self.advance();
                    self.wrap()?;
                    let index = self.expression()?;
                    self.expect(&TokenKind::RBracket, "after index expression")?;
                    expr = Expr::Index {
                        object: Box::new(expr),
                        index: Box::new(index),
                    };
                }
                TokenKind::LParen => {
                    let line = self.line();
                    self.advance();
                    self.wrap()?;
                    let mut args = Vec::new();
                    if !self.check(&TokenKind::RParen) {
                        loop {
                            args.push(self.assignment()?);
                            if !self.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(&TokenKind::RParen, "after call arguments")?;
                    expr = Expr::Call {
                        callee: Box::new(expr),
                        args,
                        line,
                    };
                }
                TokenKind::PlusPlus | TokenKind::MinusMinus => {
                    let increment = self.peek().kind == TokenKind::PlusPlus;
                    if !expr.is_lvalue() {
                        return Ok(expr); // e.g. `a + b ++` is a parse-level oddity; stop here
                    }
                    self.advance();
                    self.wrap()?;
                    expr = Expr::Update {
                        target: Box::new(expr),
                        increment,
                        prefix: false,
                    };
                }
                _ => return Ok(expr),
            }
        }
    }

    fn primary(&mut self) -> Result<Expr, ScriptError> {
        let tok = self.advance();
        match tok.kind {
            TokenKind::Number(n) => Ok(Expr::Number(n)),
            TokenKind::Str(s) => Ok(Expr::Str(s.into())),
            TokenKind::True => Ok(Expr::Bool(true)),
            TokenKind::False => Ok(Expr::Bool(false)),
            TokenKind::Null | TokenKind::Undefined => Ok(Expr::Null),
            TokenKind::Ident(name) => Ok(Expr::Ident(name.into())),
            TokenKind::LParen => {
                let expr = self.expression()?;
                self.expect(&TokenKind::RParen, "after parenthesized expression")?;
                Ok(expr)
            }
            TokenKind::LBracket => {
                let mut items = Vec::new();
                if !self.check(&TokenKind::RBracket) {
                    loop {
                        items.push(self.assignment()?);
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                        // allow trailing comma
                        if self.check(&TokenKind::RBracket) {
                            break;
                        }
                    }
                }
                self.expect(&TokenKind::RBracket, "after array literal")?;
                Ok(Expr::Array(items))
            }
            TokenKind::LBrace => {
                let mut props = Vec::new();
                if !self.check(&TokenKind::RBrace) {
                    loop {
                        let key = match self.peek().kind.clone() {
                            TokenKind::Ident(name) => {
                                self.advance();
                                name
                            }
                            TokenKind::Str(s) => {
                                self.advance();
                                s
                            }
                            other => {
                                return Err(
                                    self.err(format!("expected object key, found `{other}`"))
                                )
                            }
                        };
                        self.expect(&TokenKind::Colon, "after object key")?;
                        let value = self.assignment()?;
                        props.push((key.into(), value));
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                        if self.check(&TokenKind::RBrace) {
                            break; // trailing comma
                        }
                    }
                }
                self.expect(&TokenKind::RBrace, "after object literal")?;
                Ok(Expr::Object(props))
            }
            TokenKind::Function => {
                let (params, body) = self.func_rest()?;
                Ok(Expr::Func { params, body })
            }
            other => Err(ScriptError::new(
                ErrorKind::Parse,
                format!("unexpected token `{other}`"),
                tok.line,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Node;

    #[test]
    fn parses_var_with_multiple_decls() {
        let p = parse("var a = 1, b, c = 'x';").unwrap();
        match &p[0] {
            Stmt::Var { decls, .. } => {
                assert_eq!(decls.len(), 3);
                assert_eq!(&*decls[0].0, "a");
                assert!(decls[1].1.is_none());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn precedence_mul_over_add() {
        let p = parse("1 + 2 * 3;").unwrap();
        match &p[0] {
            Stmt::Expr {
                expr:
                    Expr::Binary {
                        op: BinOp::Add,
                        rhs,
                        ..
                    },
                ..
            } => {
                assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_nested_member_index_call_chain() {
        let p = parse("a.b[0].c(1, 2)(3);").unwrap();
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn function_declaration_and_expression() {
        let p = parse("function f(a, b) { return a + b; } var g = function (x) { return x; };")
            .unwrap();
        assert!(matches!(p[0], Stmt::Func { .. }));
        match &p[1] {
            Stmt::Var { decls, .. } => {
                assert!(matches!(decls[0].1, Some(Expr::Func { .. })));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_classic_for_loop() {
        let p = parse("for (var i = 0; i < 10; i++) { x += i; }").unwrap();
        match &p[0] {
            Stmt::For {
                init, cond, step, ..
            } => {
                assert!(init.is_some());
                assert!(cond.is_some());
                assert!(matches!(
                    step,
                    Some(Expr::Update {
                        prefix: false,
                        increment: true,
                        ..
                    })
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn for_loop_with_empty_clauses() {
        let p = parse("for (;;) break;").unwrap();
        match &p[0] {
            Stmt::For {
                init, cond, step, ..
            } => {
                assert!(init.is_none() && cond.is_none() && step.is_none());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn object_literal_with_string_and_ident_keys() {
        let p = parse("var o = { interval: 60000, 'provider': 'GPS' };").unwrap();
        match &p[0] {
            Stmt::Var { decls, .. } => match &decls[0].1 {
                Some(Expr::Object(props)) => {
                    assert_eq!(&*props[0].0, "interval");
                    assert_eq!(&*props[1].0, "provider");
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn strict_and_loose_equality_both_map_to_eq() {
        let a = parse("a == b;").unwrap();
        let b = parse("a === b;").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn ternary_parses_right_associative() {
        let p = parse("a ? b : c ? d : e;").unwrap();
        match &p[0] {
            Stmt::Expr {
                expr: Expr::Ternary { els, .. },
                ..
            } => assert!(matches!(**els, Expr::Ternary { .. })),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn invalid_assignment_target_rejected() {
        let err = parse("1 = 2;").unwrap_err();
        assert!(err.message().contains("assignment target"));
    }

    #[test]
    fn error_carries_line_number() {
        let err = parse("var x = 1;\nvar = 2;").unwrap_err();
        assert_eq!(err.line(), 2);
    }

    #[test]
    fn unterminated_block_reports_error() {
        assert!(parse("{ var x = 1;").is_err());
        assert!(parse("function f() { ").is_err());
    }

    #[test]
    fn trailing_commas_allowed_in_literals() {
        assert!(parse("var a = [1, 2, 3,];").is_ok());
        assert!(parse("var o = { a: 1, b: 2, };").is_ok());
    }

    #[test]
    fn listing2_roguefinder_fragment_parses() {
        // The paper's Listing 2, verbatim modulo the API functions being
        // plain identifiers here.
        let src = r#"
function start()
{
    var polygon = [{ x:1, y:1}, { x:2, y:2 }, { x:3, y:0 }];

    var subscription = subscribe('wifi-scan', function(msg) {
        publish(msg, 'filtered-scans');
    }, { interval : 60 * 1000 });

    subscription.release();

    subscribe('location', function(msg) {
        if (locationInPolygon(msg, polygon))
            subscription.renew();
        else
            subscription.release();
    });
}
"#;
        let p = parse(src).unwrap();
        assert_eq!(p.len(), 1);
    }

    /// Height of the tree under `n`, function bodies included.
    fn height(n: Node<'_>) -> usize {
        let mut below = 0;
        n.for_each_child(&mut |child| below = below.max(height(child)));
        if let Node::Stmt(Stmt::Func { body, .. }) | Node::Expr(Expr::Func { body, .. }) = n {
            below = body
                .iter()
                .map(|s| height(Node::Stmt(s)))
                .fold(below, usize::max);
        }
        below + 1
    }

    /// The nesting shapes that used to overflow the stack (each aborted
    /// the process at the sizes in `runaway_nesting_…` below), as
    /// `n`-level sources starting on line 3.
    type Shape = (&'static str, fn(usize) -> String);
    const SHAPES: [Shape; 5] = [
        ("parens", |n| {
            format!("\n\nvar x = {}1{};", "(".repeat(n), ")".repeat(n))
        }),
        ("arrays", |n| {
            format!("\n\nvar x = {}{};", "[".repeat(n), "]".repeat(n))
        }),
        // Parsed by a loop, but every walker recurses down the left spine.
        ("sum", |n| format!("\n\nvar x = 1{};", "+1".repeat(n))),
        ("nots", |n| format!("\n\n{}1;", "!".repeat(n))),
        ("blocks", |n| {
            format!("\n\n{}{}", "{".repeat(n), "}".repeat(n))
        }),
    ];

    #[test]
    fn runaway_nesting_is_a_parse_error_with_the_line() {
        for ((name, shape), n) in SHAPES
            .iter()
            .zip([200_000, 200_000, 300_000, 300_000, 100_000])
        {
            let err = parse(&shape(n)).expect_err(name);
            assert_eq!(err.kind(), ErrorKind::Parse, "{name}");
            assert_eq!(err.line(), 3, "{name}");
            assert_eq!(
                err.message(),
                format!("nesting deeper than {MAX_NESTING} levels"),
                "{name}"
            );
        }
    }

    #[test]
    fn a_tree_at_the_nesting_cap_parses_analyzes_compiles_and_runs() {
        use crate::{treewalk, Interpreter, Value};
        for (name, shape) in SHAPES {
            let n = (1..)
                .find(|&n| parse(&shape(n + 1)).is_err())
                .expect("the budget runs out");
            let src = shape(n);
            let program = parse(&src).expect(name);
            // Parentheses leave no node behind; every other shape's
            // budget is exactly the height of its tree.
            if name != "parens" {
                let tallest = program.iter().map(|s| height(Node::Stmt(s))).max();
                assert_eq!(tallest, Some(MAX_NESTING), "{name} at {n} levels");
            }
            let diags = crate::analyze::analyze(&src);
            assert!(diags.iter().all(|d| !d.is_error()), "{name}: {diags:?}");
            crate::compile::compile(&src).expect(name);
            // What the program evaluates to, and what it left in `x`.
            let run = |eval: treewalk::Eval| {
                let mut interp = Interpreter::new();
                let value = eval(&mut interp, &src).expect(name);
                (value.to_display_string(), interp.globals().get("x"))
            };
            let (tree, vm) = (run(treewalk::eval), run(Interpreter::eval));
            assert_eq!(tree.0, vm.0, "{name}");
            if name == "sum" {
                assert_eq!(tree.1, Some(Value::Num(n as f64 + 1.0)));
                assert_eq!(vm.1, tree.1);
            }
        }
    }
}

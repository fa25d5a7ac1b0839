//! The PogoScript abstract syntax tree.

use std::rc::Rc;

/// A statement. Each carries the 1-based source line it starts on, used
/// for runtime error reporting.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `var a = 1, b;` — names are interned `Rc<str>` so declaring them
    /// at runtime clones a pointer, not the text.
    Var {
        decls: Vec<(Rc<str>, Option<Expr>)>,
        line: u32,
    },
    /// `function name(params) { body }`
    Func {
        name: Rc<str>,
        params: Vec<Rc<str>>,
        body: Rc<Vec<Stmt>>,
        line: u32,
    },
    /// An expression evaluated for its side effects.
    Expr { expr: Expr, line: u32 },
    /// `if (cond) then else els`
    If {
        cond: Expr,
        then: Box<Stmt>,
        els: Option<Box<Stmt>>,
        line: u32,
    },
    /// `while (cond) body`
    While {
        cond: Expr,
        body: Box<Stmt>,
        line: u32,
    },
    /// `do body while (cond);`
    DoWhile {
        body: Box<Stmt>,
        cond: Expr,
        line: u32,
    },
    /// `for (var name in object) body` — iterates object keys (as
    /// strings) or array indices (as numbers).
    ForIn {
        name: Rc<str>,
        object: Expr,
        body: Box<Stmt>,
        line: u32,
    },
    /// `for (init; cond; step) body`
    For {
        init: Option<Box<Stmt>>,
        cond: Option<Expr>,
        step: Option<Expr>,
        body: Box<Stmt>,
        line: u32,
    },
    /// `return expr;`
    Return { value: Option<Expr>, line: u32 },
    /// `break;`
    Break { line: u32 },
    /// `continue;`
    Continue { line: u32 },
    /// `{ ... }`
    Block { body: Vec<Stmt>, line: u32 },
    /// A bare `;`.
    Empty { line: u32 },
}

impl Stmt {
    /// The source line this statement starts on.
    pub fn line(&self) -> u32 {
        match self {
            Stmt::Var { line, .. }
            | Stmt::Func { line, .. }
            | Stmt::Expr { line, .. }
            | Stmt::If { line, .. }
            | Stmt::While { line, .. }
            | Stmt::DoWhile { line, .. }
            | Stmt::ForIn { line, .. }
            | Stmt::For { line, .. }
            | Stmt::Return { line, .. }
            | Stmt::Break { line }
            | Stmt::Continue { line }
            | Stmt::Block { line, .. }
            | Stmt::Empty { line } => *line,
        }
    }
}

/// Binary arithmetic/comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Eq,
    NotEq,
    Lt,
    Gt,
    Le,
    Ge,
}

impl BinOp {
    /// Operator spelling as it appears in source.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Eq => "==",
            BinOp::NotEq => "!=",
            BinOp::Lt => "<",
            BinOp::Gt => ">",
            BinOp::Le => "<=",
            BinOp::Ge => ">=",
        }
    }
}

/// Short-circuiting logical operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogicalOp {
    And,
    Or,
}

/// Unary prefix operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    Not,
    Neg,
    Plus,
    Typeof,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Number(f64),
    /// String literal, pre-interned so evaluation clones an `Rc`.
    Str(Rc<str>),
    Bool(bool),
    Null,
    /// Identifier reference, interned for cheap scope lookups.
    Ident(Rc<str>),
    /// `[a, b, c]`
    Array(Vec<Expr>),
    /// `{ key: value, ... }` — keys are identifiers or string literals,
    /// interned like every other name in the AST so the interpreter and
    /// the static analyzer share the same cheap `Rc` clones.
    Object(Vec<(Rc<str>, Expr)>),
    /// `function (params) { body }`
    Func {
        params: Vec<Rc<str>>,
        body: Rc<Vec<Stmt>>,
    },
    Unary {
        op: UnaryOp,
        expr: Box<Expr>,
    },
    Binary {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    Logical {
        op: LogicalOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// `cond ? then : els`
    Ternary {
        cond: Box<Expr>,
        then: Box<Expr>,
        els: Box<Expr>,
    },
    /// `target = value` or compound `target op= value`.
    Assign {
        target: Box<Expr>,
        op: Option<BinOp>,
        value: Box<Expr>,
    },
    /// `++x`, `x++`, `--x`, `x--`
    Update {
        target: Box<Expr>,
        increment: bool,
        prefix: bool,
    },
    Call {
        callee: Box<Expr>,
        args: Vec<Expr>,
        line: u32,
    },
    /// `obj.name`
    Member {
        object: Box<Expr>,
        name: Rc<str>,
    },
    /// `obj[index]`
    Index {
        object: Box<Expr>,
        index: Box<Expr>,
    },
}

impl Expr {
    /// True if this expression is a valid assignment target.
    pub fn is_lvalue(&self) -> bool {
        matches!(
            self,
            Expr::Ident(_) | Expr::Member { .. } | Expr::Index { .. }
        )
    }
}

/// A statement or an expression: what a generic walk over the tree visits.
#[derive(Clone, Copy)]
pub(crate) enum Node<'a> {
    Stmt(&'a Stmt),
    Expr(&'a Expr),
}

impl<'a> Node<'a> {
    /// Calls `f` on every direct child of this node. Function bodies
    /// are *not* descended — callers decide what nesting means.
    pub(crate) fn for_each_child(self, f: &mut impl FnMut(Node<'a>)) {
        match self {
            Node::Stmt(s) => walk_substmts(s, f),
            Node::Expr(e) => walk_subexprs(e, &mut |sub| f(Node::Expr(sub))),
        }
    }
}

/// Calls `f` on every direct child of `s`: its expressions and nested
/// statements (the body of a `function` declaration is *not* descended).
pub(crate) fn walk_substmts<'a>(s: &'a Stmt, f: &mut impl FnMut(Node<'a>)) {
    match s {
        Stmt::Func { .. } | Stmt::Break { .. } | Stmt::Continue { .. } | Stmt::Empty { .. } => {}
        Stmt::Var { decls, .. } => decls
            .iter()
            .filter_map(|(_, init)| init.as_ref())
            .for_each(|e| f(Node::Expr(e))),
        Stmt::Expr { expr, .. } => f(Node::Expr(expr)),
        Stmt::If {
            cond, then, els, ..
        } => {
            f(Node::Expr(cond));
            f(Node::Stmt(then));
            if let Some(els) = els {
                f(Node::Stmt(els));
            }
        }
        Stmt::While { cond, body, .. } | Stmt::DoWhile { body, cond, .. } => {
            f(Node::Expr(cond));
            f(Node::Stmt(body));
        }
        Stmt::ForIn { object, body, .. } => {
            f(Node::Expr(object));
            f(Node::Stmt(body));
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
            ..
        } => {
            if let Some(init) = init {
                f(Node::Stmt(init));
            }
            cond.iter().chain(step).for_each(|e| f(Node::Expr(e)));
            f(Node::Stmt(body));
        }
        Stmt::Return { value, .. } => value.iter().for_each(|e| f(Node::Expr(e))),
        Stmt::Block { body, .. } => body.iter().for_each(|s| f(Node::Stmt(s))),
    }
}

/// Calls `f` on every direct sub-expression of `e` (function bodies
/// are *not* descended — callers decide what nesting means).
pub(crate) fn walk_subexprs<'a>(e: &'a Expr, f: &mut impl FnMut(&'a Expr)) {
    match e {
        Expr::Number(_)
        | Expr::Str(_)
        | Expr::Bool(_)
        | Expr::Null
        | Expr::Ident(_)
        | Expr::Func { .. } => {}
        Expr::Array(items) => items.iter().for_each(f),
        Expr::Object(props) => props.iter().for_each(|(_, v)| f(v)),
        Expr::Unary { expr, .. } => f(expr),
        Expr::Binary { lhs, rhs, .. } | Expr::Logical { lhs, rhs, .. } => {
            f(lhs);
            f(rhs);
        }
        Expr::Ternary { cond, then, els } => {
            f(cond);
            f(then);
            f(els);
        }
        Expr::Assign { target, value, .. } => {
            f(target);
            f(value);
        }
        Expr::Update { target, .. } => f(target),
        Expr::Call { callee, args, .. } => {
            f(callee);
            args.iter().for_each(f);
        }
        Expr::Member { object, .. } => f(object),
        Expr::Index { object, index } => {
            f(object);
            f(index);
        }
    }
}

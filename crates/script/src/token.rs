//! Token definitions for the PogoScript lexer.

use std::fmt;

/// A lexical token with its 1-based source line.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Token {
    /// The token kind and payload.
    pub kind: TokenKind,
    /// 1-based line the token starts on.
    pub line: u32,
}

/// Every token kind PogoScript knows.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TokenKind {
    // Literals and identifiers
    Number(f64),
    Str(String),
    Ident(String),

    // Keywords
    Var,
    Function,
    Do,
    In,
    Return,
    If,
    Else,
    While,
    For,
    Break,
    Continue,
    True,
    False,
    Null,
    Undefined,
    Typeof,

    // Punctuation
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Comma,
    Semicolon,
    Colon,
    Dot,
    Question,

    // Operators
    Assign,        // =
    PlusAssign,    // +=
    MinusAssign,   // -=
    StarAssign,    // *=
    SlashAssign,   // /=
    PercentAssign, // %=
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    PlusPlus,
    MinusMinus,
    EqEq,   // == (strict in PogoScript)
    NotEq,  // !=
    EqEqEq, // ===
    NotEqEq,
    Lt,
    Gt,
    Le,
    Ge,
    AndAnd,
    OrOr,
    Not,

    /// End of input.
    Eof,
}

impl TokenKind {
    /// Keyword lookup for identifiers.
    pub(crate) fn keyword(word: &str) -> Option<TokenKind> {
        Some(match word {
            "var" => TokenKind::Var,
            "do" => TokenKind::Do,
            "in" => TokenKind::In,
            "let" => TokenKind::Var, // accepted as a synonym
            "function" => TokenKind::Function,
            "return" => TokenKind::Return,
            "if" => TokenKind::If,
            "else" => TokenKind::Else,
            "while" => TokenKind::While,
            "for" => TokenKind::For,
            "break" => TokenKind::Break,
            "continue" => TokenKind::Continue,
            "true" => TokenKind::True,
            "false" => TokenKind::False,
            "null" => TokenKind::Null,
            "undefined" => TokenKind::Undefined,
            "typeof" => TokenKind::Typeof,
            _ => return None,
        })
    }
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use TokenKind::*;
        match self {
            Number(n) => write!(f, "{n}"),
            Str(s) => write!(f, "{s:?}"),
            Ident(s) => write!(f, "{s}"),
            Var => write!(f, "var"),
            Do => write!(f, "do"),
            In => write!(f, "in"),
            Function => write!(f, "function"),
            Return => write!(f, "return"),
            If => write!(f, "if"),
            Else => write!(f, "else"),
            While => write!(f, "while"),
            For => write!(f, "for"),
            Break => write!(f, "break"),
            Continue => write!(f, "continue"),
            True => write!(f, "true"),
            False => write!(f, "false"),
            Null => write!(f, "null"),
            Undefined => write!(f, "undefined"),
            Typeof => write!(f, "typeof"),
            LParen => write!(f, "("),
            RParen => write!(f, ")"),
            LBrace => write!(f, "{{"),
            RBrace => write!(f, "}}"),
            LBracket => write!(f, "["),
            RBracket => write!(f, "]"),
            Comma => write!(f, ","),
            Semicolon => write!(f, ";"),
            Colon => write!(f, ":"),
            Dot => write!(f, "."),
            Question => write!(f, "?"),
            Assign => write!(f, "="),
            PlusAssign => write!(f, "+="),
            MinusAssign => write!(f, "-="),
            StarAssign => write!(f, "*="),
            SlashAssign => write!(f, "/="),
            PercentAssign => write!(f, "%="),
            Plus => write!(f, "+"),
            Minus => write!(f, "-"),
            Star => write!(f, "*"),
            Slash => write!(f, "/"),
            Percent => write!(f, "%"),
            PlusPlus => write!(f, "++"),
            MinusMinus => write!(f, "--"),
            EqEq => write!(f, "=="),
            NotEq => write!(f, "!="),
            EqEqEq => write!(f, "==="),
            NotEqEq => write!(f, "!=="),
            Lt => write!(f, "<"),
            Gt => write!(f, ">"),
            Le => write!(f, "<="),
            Ge => write!(f, ">="),
            AndAnd => write!(f, "&&"),
            OrOr => write!(f, "||"),
            Not => write!(f, "!"),
            Eof => write!(f, "<eof>"),
        }
    }
}

//! The PogoScript lexer.

use crate::error::{ErrorKind, ScriptError};
use crate::token::{Token, TokenKind};

/// Tokenizes `source` into a vector ending with [`TokenKind::Eof`].
///
/// # Errors
///
/// Returns [`ErrorKind::Parse`] errors for unterminated strings or
/// comments, malformed numbers, and unexpected characters.
pub(crate) fn tokenize(source: &str) -> Result<Vec<Token>, ScriptError> {
    Lexer::new(source).run()
}

struct Lexer<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    line: u32,
    tokens: Vec<Token>,
}

impl<'a> Lexer<'a> {
    fn new(source: &'a str) -> Self {
        Lexer {
            chars: source.chars().peekable(),
            line: 1,
            tokens: Vec::new(),
        }
    }

    fn err(&self, msg: impl Into<String>) -> ScriptError {
        ScriptError::new(ErrorKind::Parse, msg, self.line)
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.next();
        if c == Some('\n') {
            self.line += 1;
        }
        c
    }

    fn eat(&mut self, expected: char) -> bool {
        if self.chars.peek() == Some(&expected) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn push(&mut self, kind: TokenKind, line: u32) {
        self.tokens.push(Token { kind, line });
    }

    fn run(mut self) -> Result<Vec<Token>, ScriptError> {
        while let Some(&c) = self.chars.peek() {
            let line = self.line;
            match c {
                ' ' | '\t' | '\r' | '\n' => {
                    self.bump();
                }
                '/' => {
                    self.bump();
                    if self.eat('/') {
                        while let Some(&c) = self.chars.peek() {
                            if c == '\n' {
                                break;
                            }
                            self.bump();
                        }
                    } else if self.eat('*') {
                        self.block_comment()?;
                    } else if self.eat('=') {
                        self.push(TokenKind::SlashAssign, line);
                    } else {
                        self.push(TokenKind::Slash, line);
                    }
                }
                '"' | '\'' => {
                    let s = self.string(c)?;
                    self.push(TokenKind::Str(s), line);
                }
                '0'..='9' => {
                    let n = self.number()?;
                    self.push(TokenKind::Number(n), line);
                }
                c if c.is_ascii_alphabetic() || c == '_' || c == '$' => {
                    let word = self.ident();
                    let kind = TokenKind::keyword(&word).unwrap_or(TokenKind::Ident(word));
                    self.push(kind, line);
                }
                _ => {
                    self.bump();
                    let kind = match c {
                        '(' => TokenKind::LParen,
                        ')' => TokenKind::RParen,
                        '{' => TokenKind::LBrace,
                        '}' => TokenKind::RBrace,
                        '[' => TokenKind::LBracket,
                        ']' => TokenKind::RBracket,
                        ',' => TokenKind::Comma,
                        ';' => TokenKind::Semicolon,
                        ':' => TokenKind::Colon,
                        '.' => TokenKind::Dot,
                        '?' => TokenKind::Question,
                        '+' => {
                            if self.eat('+') {
                                TokenKind::PlusPlus
                            } else if self.eat('=') {
                                TokenKind::PlusAssign
                            } else {
                                TokenKind::Plus
                            }
                        }
                        '-' => {
                            if self.eat('-') {
                                TokenKind::MinusMinus
                            } else if self.eat('=') {
                                TokenKind::MinusAssign
                            } else {
                                TokenKind::Minus
                            }
                        }
                        '*' => {
                            if self.eat('=') {
                                TokenKind::StarAssign
                            } else {
                                TokenKind::Star
                            }
                        }
                        '%' => {
                            if self.eat('=') {
                                TokenKind::PercentAssign
                            } else {
                                TokenKind::Percent
                            }
                        }
                        '=' => {
                            if self.eat('=') {
                                if self.eat('=') {
                                    TokenKind::EqEqEq
                                } else {
                                    TokenKind::EqEq
                                }
                            } else {
                                TokenKind::Assign
                            }
                        }
                        '!' => {
                            if self.eat('=') {
                                if self.eat('=') {
                                    TokenKind::NotEqEq
                                } else {
                                    TokenKind::NotEq
                                }
                            } else {
                                TokenKind::Not
                            }
                        }
                        '<' => {
                            if self.eat('=') {
                                TokenKind::Le
                            } else {
                                TokenKind::Lt
                            }
                        }
                        '>' => {
                            if self.eat('=') {
                                TokenKind::Ge
                            } else {
                                TokenKind::Gt
                            }
                        }
                        '&' => {
                            if self.eat('&') {
                                TokenKind::AndAnd
                            } else {
                                return Err(self.err("single '&' is not supported"));
                            }
                        }
                        '|' => {
                            if self.eat('|') {
                                TokenKind::OrOr
                            } else {
                                return Err(self.err("single '|' is not supported"));
                            }
                        }
                        other => {
                            return Err(self.err(format!("unexpected character {other:?}")));
                        }
                    };
                    self.push(kind, line);
                }
            }
        }
        let line = self.line;
        self.push(TokenKind::Eof, line);
        Ok(self.tokens)
    }

    fn block_comment(&mut self) -> Result<(), ScriptError> {
        loop {
            match self.bump() {
                Some('*') if self.eat('/') => return Ok(()),
                Some(_) => {}
                None => return Err(self.err("unterminated block comment")),
            }
        }
    }

    fn string(&mut self, quote: char) -> Result<String, ScriptError> {
        self.bump(); // opening quote
        let mut out = String::new();
        loop {
            match self.bump() {
                Some(c) if c == quote => return Ok(out),
                Some('\\') => {
                    let esc = self.bump().ok_or_else(|| self.err("unterminated string"))?;
                    out.push(match esc {
                        'n' => '\n',
                        't' => '\t',
                        'r' => '\r',
                        '0' => '\0',
                        '\\' => '\\',
                        '\'' => '\'',
                        '"' => '"',
                        other => {
                            return Err(self.err(format!("unknown escape \\{other}")));
                        }
                    });
                }
                Some('\n') | None => return Err(self.err("unterminated string")),
                Some(c) => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<f64, ScriptError> {
        let mut text = String::new();
        while let Some(&c) = self.chars.peek() {
            if c.is_ascii_digit() {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        // Fractional part: only if a digit follows the dot, so `a.b` after
        // a number literal (e.g. `1.toString`) is not mis-lexed — PogoScript
        // doesn't support that anyway, but `slice(0, arr.length)` must work.
        if self.chars.peek() == Some(&'.') {
            let mut clone = self.chars.clone();
            clone.next();
            if clone.peek().is_some_and(|c| c.is_ascii_digit()) {
                text.push('.');
                self.bump();
                while let Some(&c) = self.chars.peek() {
                    if c.is_ascii_digit() {
                        text.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
        }
        // Exponent.
        if matches!(self.chars.peek(), Some('e') | Some('E')) {
            let mut clone = self.chars.clone();
            clone.next();
            let next = clone.peek().copied();
            if next.is_some_and(|c| c.is_ascii_digit() || c == '+' || c == '-') {
                text.push('e');
                self.bump();
                if matches!(self.chars.peek(), Some('+') | Some('-')) {
                    text.push(self.bump().expect("peeked"));
                }
                while let Some(&c) = self.chars.peek() {
                    if c.is_ascii_digit() {
                        text.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
        }
        text.parse::<f64>()
            .map_err(|_| self.err(format!("malformed number literal {text:?}")))
    }

    fn ident(&mut self) -> String {
        let mut out = String::new();
        while let Some(&c) = self.chars.peek() {
            if c.is_ascii_alphanumeric() || c == '_' || c == '$' {
                out.push(c);
                self.bump();
            } else {
                break;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::TokenKind::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            kinds("var x = 1 + 2.5;"),
            vec![
                Var,
                Ident("x".into()),
                Assign,
                Number(1.0),
                Plus,
                Number(2.5),
                Semicolon,
                Eof
            ]
        );
    }

    #[test]
    fn keywords_and_identifiers() {
        assert_eq!(
            kinds("function foo(bar) { return bar; }"),
            vec![
                Function,
                Ident("foo".into()),
                LParen,
                Ident("bar".into()),
                RParen,
                LBrace,
                Return,
                Ident("bar".into()),
                Semicolon,
                RBrace,
                Eof
            ]
        );
        // `let` lexes as Var.
        assert_eq!(kinds("let x;")[0], Var);
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(
            kinds(r#"'a\n' "b\"c""#),
            vec![Str("a\n".into()), Str("b\"c".into()), Eof]
        );
    }

    #[test]
    fn unterminated_string_errors_with_line() {
        let err = tokenize("\n\n'oops").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Parse);
        assert_eq!(err.line(), 3);
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("1 // line\n/* block\n over lines */ 2"),
            vec![Number(1.0), Number(2.0), Eof]
        );
    }

    #[test]
    fn unterminated_block_comment_errors() {
        assert!(tokenize("/* never ends").is_err());
    }

    #[test]
    fn multi_char_operators() {
        assert_eq!(
            kinds("== != === !== <= >= && || ++ -- += -= *= /= %="),
            vec![
                EqEq,
                NotEq,
                EqEqEq,
                NotEqEq,
                Le,
                Ge,
                AndAnd,
                OrOr,
                PlusPlus,
                MinusMinus,
                PlusAssign,
                MinusAssign,
                StarAssign,
                SlashAssign,
                PercentAssign,
                Eof
            ]
        );
    }

    #[test]
    fn numbers_with_exponent_and_member_dot() {
        assert_eq!(kinds("1e3"), vec![Number(1_000.0), Eof]);
        assert_eq!(kinds("2.5e-2"), vec![Number(0.025), Eof]);
        // The dot in `arr.length` is a member access, not a fraction.
        assert_eq!(
            kinds("a.length"),
            vec![Ident("a".into()), Dot, Ident("length".into()), Eof]
        );
    }

    #[test]
    fn line_numbers_track_newlines() {
        let toks = tokenize("a\nb\n\nc").unwrap();
        let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4, 4]);
    }

    #[test]
    fn unexpected_character_reports_error() {
        let err = tokenize("a # b").unwrap_err();
        assert!(err.message().contains("unexpected character"));
    }

    #[test]
    fn single_ampersand_rejected() {
        assert!(tokenize("a & b").is_err());
        assert!(tokenize("a | b").is_err());
    }
}

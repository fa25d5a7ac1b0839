//! Script errors: parse failures, runtime faults, and watchdog timeouts.

use std::fmt;

/// Classification of a [`ScriptError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    /// Lexical or syntactic error.
    Parse,
    /// Operation applied to a value of the wrong type.
    Type,
    /// Use of an undefined variable.
    Reference,
    /// The instruction budget was exhausted — the deterministic analogue
    /// of Pogo's 100 ms callback watchdog (§4.5).
    Timeout,
    /// Call-stack depth limit exceeded.
    StackOverflow,
    /// Error raised by a host-registered native function.
    Host,
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorKind::Parse => "parse error",
            ErrorKind::Type => "type error",
            ErrorKind::Reference => "reference error",
            ErrorKind::Timeout => "script timeout",
            ErrorKind::StackOverflow => "stack overflow",
            ErrorKind::Host => "host error",
        };
        f.write_str(s)
    }
}

/// An error produced while parsing or executing a script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptError {
    kind: ErrorKind,
    message: String,
    line: u32,
}

impl ScriptError {
    /// Creates an error of the given kind at a source line (0 = unknown).
    pub fn new(kind: ErrorKind, message: impl Into<String>, line: u32) -> Self {
        ScriptError {
            kind,
            message: message.into(),
            line,
        }
    }

    /// Convenience constructor for [`ErrorKind::Host`] errors raised by
    /// native functions.
    pub fn host(message: impl Into<String>) -> Self {
        Self::new(ErrorKind::Host, message, 0)
    }

    /// The error class.
    pub fn kind(&self) -> ErrorKind {
        self.kind
    }

    /// Human-readable description (no kind prefix).
    pub fn message(&self) -> &str {
        &self.message
    }

    /// 1-based source line, or 0 if unknown.
    pub fn line(&self) -> u32 {
        self.line
    }

    pub(crate) fn with_line_if_unset(mut self, line: u32) -> Self {
        if self.line == 0 {
            self.line = line;
        }
        self
    }
}

impl fmt::Display for ScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "{} at line {}: {}", self.kind, self.line, self.message)
        } else {
            write!(f, "{}: {}", self.kind, self.message)
        }
    }
}

impl std::error::Error for ScriptError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_kind_and_line() {
        let e = ScriptError::new(ErrorKind::Type, "cannot add", 7);
        assert_eq!(e.to_string(), "type error at line 7: cannot add");
        let e = ScriptError::host("boom");
        assert_eq!(e.to_string(), "host error: boom");
    }

    #[test]
    fn with_line_if_unset_only_fills_zero() {
        let e = ScriptError::host("x").with_line_if_unset(3);
        assert_eq!(e.line(), 3);
        let e = ScriptError::new(ErrorKind::Type, "y", 9).with_line_if_unset(3);
        assert_eq!(e.line(), 9);
    }
}

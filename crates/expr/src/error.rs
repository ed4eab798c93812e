//! Errors produced by the expression pipeline (lexing, parsing, typing,
//! evaluation).

use sl_stt::{AttrType, SttError};
use std::fmt;

/// An error anywhere in the expression pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprError {
    /// The lexer met a character it cannot start a token with.
    Lex {
        /// Byte offset in the source.
        pos: usize,
        /// The offending character.
        ch: char,
    },
    /// A string literal was not terminated before end of input.
    UnterminatedString {
        /// Byte offset where the literal started.
        pos: usize,
    },
    /// A numeric literal could not be parsed.
    BadNumber {
        /// Byte offset of the literal.
        pos: usize,
        /// Its text.
        text: String,
    },
    /// The parser expected something else.
    Syntax {
        /// Byte offset of the unexpected token.
        pos: usize,
        /// Human-readable description.
        message: String,
    },
    /// An unknown function name was called.
    UnknownFunction(String),
    /// A function was called with the wrong number of arguments.
    Arity {
        /// Function name.
        function: String,
        /// Expected argument count (as text: "2" or "1..=3").
        expected: String,
        /// What was supplied.
        found: usize,
    },
    /// Static type error.
    Type {
        /// Description of the mismatch.
        message: String,
    },
    /// A predicate position received a non-boolean expression.
    NotAPredicate(AttrType),
    /// Division (or modulo) by zero during evaluation.
    DivisionByZero,
    /// An error from the STT layer (unknown attribute, unit mismatch, ...).
    Stt(SttError),
    /// An error annotated with where it occurred — the operator parameter or
    /// field whose expression failed (e.g. `assignment to \`level\``).
    InContext {
        /// The operator parameter / field being checked.
        context: String,
        /// The underlying error.
        inner: Box<ExprError>,
    },
}

impl ExprError {
    /// Wrap this error with the operator parameter or field it belongs to,
    /// so diagnostics name the offending site, not just the expression.
    pub fn with_context(self, context: impl Into<String>) -> ExprError {
        ExprError::InContext {
            context: context.into(),
            inner: Box::new(self),
        }
    }

    /// The underlying error, with any context wrappers stripped.
    pub fn root(&self) -> &ExprError {
        match self {
            ExprError::InContext { inner, .. } => inner.root(),
            other => other,
        }
    }
}

impl fmt::Display for ExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExprError::Lex { pos, ch } => write!(f, "unexpected character `{ch}` at offset {pos}"),
            ExprError::UnterminatedString { pos } => {
                write!(f, "unterminated string literal starting at offset {pos}")
            }
            ExprError::BadNumber { pos, text } => {
                write!(f, "malformed number `{text}` at offset {pos}")
            }
            ExprError::Syntax { pos, message } => {
                write!(f, "syntax error at offset {pos}: {message}")
            }
            ExprError::UnknownFunction(name) => write!(f, "unknown function `{name}`"),
            ExprError::Arity {
                function,
                expected,
                found,
            } => {
                write!(
                    f,
                    "function `{function}` expects {expected} argument(s), got {found}"
                )
            }
            ExprError::Type { message } => write!(f, "type error: {message}"),
            ExprError::NotAPredicate(ty) => {
                write!(
                    f,
                    "expected a boolean condition, but expression has type {ty}"
                )
            }
            ExprError::DivisionByZero => write!(f, "division by zero"),
            ExprError::Stt(e) => write!(f, "{e}"),
            ExprError::InContext { context, inner } => write!(f, "in {context}: {inner}"),
        }
    }
}

impl std::error::Error for ExprError {}

impl From<SttError> for ExprError {
    fn from(e: SttError) -> Self {
        ExprError::Stt(e)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)] // tests may panic freely
    use super::*;

    #[test]
    fn displays_mention_relevant_detail() {
        assert!(ExprError::UnknownFunction("foo".into())
            .to_string()
            .contains("foo"));
        assert!(ExprError::Arity {
            function: "abs".into(),
            expected: "1".into(),
            found: 2
        }
        .to_string()
        .contains("abs"));
        let e = ExprError::from(SttError::UnknownAttribute("x".into()));
        assert!(e.to_string().contains('x'));
    }

    #[test]
    fn context_names_the_offending_site() {
        let e = ExprError::from(SttError::UnknownAttribute("wind".into()))
            .with_context("assignment to `level`");
        let s = e.to_string();
        assert!(s.contains("assignment to `level`"), "{s}");
        assert!(s.contains("wind"), "{s}");
        assert!(matches!(
            e.root(),
            ExprError::Stt(SttError::UnknownAttribute(_))
        ));
    }
}

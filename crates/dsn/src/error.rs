//! DSN-layer errors.

use std::fmt;

/// Errors from parsing, validating or compiling DSN documents.
#[derive(Debug, Clone, PartialEq)]
pub enum DsnError {
    /// Textual parse error.
    Parse {
        /// Line number (1-based) where the error was detected.
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// A declaration name is used twice.
    DuplicateName(String),
    /// An `inputs:` entry references a name that is not a source or service.
    UnknownInput {
        /// The referencing service/sink.
        consumer: String,
        /// The missing producer name.
        input: String,
    },
    /// A service has the wrong number of inputs for its operation.
    WrongArity {
        /// The service.
        service: String,
        /// Expected input count.
        expected: usize,
        /// Declared input count.
        found: usize,
    },
    /// The service graph contains a cycle.
    Cycle {
        /// A name on the cycle.
        witness: String,
    },
    /// A trigger names a target that is not a declared source.
    UnknownTriggerTarget {
        /// The trigger service.
        service: String,
        /// The missing target.
        target: String,
    },
    /// A channel endpoint does not exist.
    UnknownChannelEndpoint(String),
    /// A declaration is structurally invalid (bad operator parameters, ...).
    Invalid(String),
}

impl fmt::Display for DsnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DsnError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
            DsnError::DuplicateName(n) => write!(f, "duplicate declaration name `{n}`"),
            DsnError::UnknownInput { consumer, input } => {
                write!(f, "`{consumer}` reads from unknown stream `{input}`")
            }
            DsnError::WrongArity {
                service,
                expected,
                found,
            } => {
                write!(
                    f,
                    "service `{service}` needs {expected} input(s), has {found}"
                )
            }
            DsnError::Cycle { witness } => {
                write!(f, "service graph has a cycle through `{witness}`")
            }
            DsnError::UnknownTriggerTarget { service, target } => {
                write!(f, "trigger `{service}` targets unknown source `{target}`")
            }
            DsnError::UnknownChannelEndpoint(n) => {
                write!(f, "channel endpoint `{n}` does not exist")
            }
            DsnError::Invalid(msg) => write!(f, "invalid document: {msg}"),
        }
    }
}

impl std::error::Error for DsnError {}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)] // tests may panic freely
    use super::*;

    #[test]
    fn displays() {
        let e = DsnError::Parse {
            line: 3,
            message: "expected `{`".into(),
        };
        assert!(e.to_string().contains("line 3"));
        let e = DsnError::WrongArity {
            service: "j".into(),
            expected: 2,
            found: 1,
        };
        assert!(e.to_string().contains('j'));
    }
}

//! Script-language error type.

use std::fmt;

use mrom_value::{ValueError, ValueKind};

/// Errors raised while lexing, parsing, (de)serializing, or evaluating a
/// script program.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ScriptError {
    /// Lexical error: unexpected character or malformed literal.
    Lex {
        /// 1-based line.
        line: u32,
        /// Explanation.
        detail: String,
    },
    /// Syntax error.
    Parse {
        /// 1-based line of the offending token.
        line: u32,
        /// Explanation.
        detail: String,
    },
    /// Use of a variable that is not in scope.
    UndefinedVariable(String),
    /// Call of a builtin that does not exist.
    UnknownBuiltin(String),
    /// A builtin was called with a bad argument count or kinds.
    BuiltinArgs {
        /// Builtin name.
        name: String,
        /// Explanation.
        detail: String,
    },
    /// A binary/unary operator met operand kinds it does not support.
    TypeMismatch {
        /// Operator spelling (`"+"`, `"<"`, ...).
        op: String,
        /// Left (or only) operand kind.
        lhs: ValueKind,
        /// Right operand kind, if binary.
        rhs: Option<ValueKind>,
    },
    /// Index out of bounds or wrong index kind.
    BadIndex(String),
    /// Division or modulo by zero.
    DivisionByZero,
    /// The evaluator's fuel budget ran out (runaway or hostile code).
    FuelExhausted {
        /// The budget that was exhausted.
        budget: u64,
    },
    /// Call stack (host re-entrancy) exceeded the limit.
    CallDepthExceeded(usize),
    /// A value would nest deeper than
    /// [`MAX_VALUE_DEPTH`](crate::MAX_VALUE_DEPTH) levels.
    NestingTooDeep {
        /// The nesting limit.
        limit: usize,
    },
    /// `break`/`continue` reached the top level outside a loop — a parse
    /// bug if it ever escapes the evaluator.
    StrayLoopControl,
    /// The host rejected or failed a `self.*` call.
    Host(String),
    /// A value-layer error (coercion failure, wire error) surfaced.
    Value(ValueError),
    /// Program deserialization met a malformed tree.
    MalformedProgram(String),
    /// An explicit `fail(...)` was executed by the script.
    Raised(String),
}

impl fmt::Display for ScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScriptError::Lex { line, detail } => write!(f, "lex error at line {line}: {detail}"),
            ScriptError::Parse { line, detail } => {
                write!(f, "parse error at line {line}: {detail}")
            }
            ScriptError::UndefinedVariable(name) => write!(f, "undefined variable {name:?}"),
            ScriptError::UnknownBuiltin(name) => write!(f, "unknown builtin {name:?}"),
            ScriptError::BuiltinArgs { name, detail } => {
                write!(f, "bad arguments to {name}: {detail}")
            }
            ScriptError::TypeMismatch { op, lhs, rhs } => match rhs {
                Some(rhs) => write!(f, "operator {op} not defined for {lhs} and {rhs}"),
                None => write!(f, "operator {op} not defined for {lhs}"),
            },
            ScriptError::BadIndex(detail) => write!(f, "bad index: {detail}"),
            ScriptError::DivisionByZero => write!(f, "division by zero"),
            ScriptError::FuelExhausted { budget } => {
                write!(f, "fuel budget of {budget} steps exhausted")
            }
            ScriptError::CallDepthExceeded(limit) => {
                write!(f, "call depth exceeded limit {limit}")
            }
            ScriptError::NestingTooDeep { limit } => {
                write!(f, "value nesting exceeds the limit of {limit} levels")
            }
            ScriptError::StrayLoopControl => {
                write!(f, "break or continue escaped all loops")
            }
            ScriptError::Host(detail) => write!(f, "host call failed: {detail}"),
            ScriptError::Value(e) => write!(f, "value error: {e}"),
            ScriptError::MalformedProgram(detail) => {
                write!(f, "malformed program encoding: {detail}")
            }
            ScriptError::Raised(msg) => write!(f, "script raised: {msg}"),
        }
    }
}

impl std::error::Error for ScriptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScriptError::Value(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ValueError> for ScriptError {
    fn from(e: ValueError) -> Self {
        ScriptError::Value(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = ScriptError::TypeMismatch {
            op: "+".into(),
            lhs: ValueKind::List,
            rhs: Some(ValueKind::Int),
        };
        assert_eq!(e.to_string(), "operator + not defined for list and int");
        assert!(ScriptError::FuelExhausted { budget: 10 }
            .to_string()
            .contains("10"));
    }

    #[test]
    fn value_error_is_source() {
        use std::error::Error;
        let e = ScriptError::from(ValueError::InvalidUtf8);
        assert!(e.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<ScriptError>();
    }
}

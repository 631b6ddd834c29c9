//! # mrom-script
//!
//! A small, fully serializable scripting language used as the *mobile*
//! representation of MROM method bodies.
//!
//! ## Why this exists
//!
//! The paper implements MROM in Java, where method bodies are bytecode that
//! the JVM can ship between heterogeneous hosts. Rust has neither runtime
//! reflection nor runtime code loading, so this reproduction makes
//! behaviour *data*: a method body is either a native Rust closure (fast,
//! host-resident, non-mobile) or a [`Program`] in this language (mobile —
//! it serializes into the same self-contained wire format as every other
//! value, travels inside migration images, and executes on any node).
//!
//! ## Language
//!
//! Statement-oriented with C-ish syntax and `#` line comments:
//!
//! ```text
//! let total = 0;
//! let i = 0;
//! while (i < len(args)) {
//!     total = total + coerce(args[i], "int");
//!     i = i + 1;
//! }
//! return total;
//! ```
//!
//! * Values are [`mrom_value::Value`]s; variables are dynamically typed.
//! * `args` is bound to the invocation parameter list; named parameters
//!   declared by the program (`param x;`) bind positionally on top of it.
//! * Builtins (`len`, `coerce`, `push`, ...) are pure; everything
//!   side-effecting goes through the *host interface* — calls of the form
//!   `self.name(...)` are routed to the embedding object, which is how
//!   scripts reach the MROM meta-methods (`self.invoke("m", [...])`,
//!   `self.set("x", v)`, ...). [`surface`] describes every such call and
//!   every builtin once.
//! * Execution is *fuel-metered*: every evaluation step burns fuel, so a
//!   hostile or buggy mobile method cannot hold a host hostage. Fuel
//!   exhaustion is an error, not a hang.
//!
//! ## Example
//!
//! ```
//! use mrom_script::{Program, Evaluator, NullHost};
//! use mrom_value::Value;
//!
//! # fn main() -> Result<(), mrom_script::ScriptError> {
//! let program = Program::parse(
//!     "param a; param b; return coerce(a, \"int\") + coerce(b, \"int\");",
//! )?;
//! let mut host = NullHost;
//! let out = Evaluator::new(&mut host)
//!     .run(&program, &[Value::from("<b>2</b>"), Value::Int(3)])?;
//! assert_eq!(out, Value::Int(5));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
mod ast;
mod compile;
pub mod effects;
mod encode;
mod error;
mod eval;
mod lexer;
mod parser;
pub mod surface;
pub mod verify;
mod vm;

// The seeded program generator the integration batteries sweep, shared
// with the in-crate verifier properties (which need the compiled form's
// private fields to mutate it).
#[cfg(test)]
extern crate self as mrom_script;
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod test_programs;

pub use analyze::{
    analyze_program, analyze_with_budget, AnalysisReport, Diagnostic, DiagnosticKind, HostManifest,
    ResourceBudget, Severity,
};
pub use ast::{BinaryOp, Expr, Program, Stmt, UnaryOp};
pub use compile::CompiledProgram;
pub use effects::{solve as solve_effects, EffectSignature, LocalEffects};
pub use error::ScriptError;
pub use eval::{Evaluator, HostContext, NullHost, DEFAULT_FUEL, MAX_VALUE_DEPTH};
pub use lexer::{Token, TokenKind};
pub use parser::MAX_EXPR_DEPTH;
pub use verify::{verify, VerifyError};
pub use vm::Vm;

/// Crate-local result alias over [`ScriptError`].
pub type Result<T> = std::result::Result<T, ScriptError>;

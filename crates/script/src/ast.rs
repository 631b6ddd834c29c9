//! Abstract syntax tree and pretty-printer.
//!
//! The AST is the canonical, serializable form of a mobile method body.
//! [`Program`] implements `Display` as a pretty-printer whose output
//! re-parses to the same tree (round-trip tested by property tests).

use std::fmt;
use std::sync::{Arc, OnceLock};

use mrom_value::Value;

use crate::compile::{self, CompiledProgram};
use crate::error::ScriptError;
use crate::parser;

/// Binary operators, in increasing precedence groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// `||` (short-circuit).
    Or,
    /// `&&` (short-circuit).
    And,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+` (numeric addition, string/list concatenation).
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
}

impl BinaryOp {
    /// Operator spelling as written in source.
    pub fn spelling(&self) -> &'static str {
        match self {
            BinaryOp::Or => "||",
            BinaryOp::And => "&&",
            BinaryOp::Eq => "==",
            BinaryOp::Ne => "!=",
            BinaryOp::Lt => "<",
            BinaryOp::Le => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::Ge => ">=",
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Rem => "%",
        }
    }

    /// Precedence level (higher binds tighter).
    pub fn precedence(&self) -> u8 {
        match self {
            BinaryOp::Or => 1,
            BinaryOp::And => 2,
            BinaryOp::Eq | BinaryOp::Ne => 3,
            BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge => 4,
            BinaryOp::Add | BinaryOp::Sub => 5,
            BinaryOp::Mul | BinaryOp::Div | BinaryOp::Rem => 6,
        }
    }

    /// Canonical name used in the serialized form.
    pub fn name(&self) -> &'static str {
        match self {
            BinaryOp::Or => "or",
            BinaryOp::And => "and",
            BinaryOp::Eq => "eq",
            BinaryOp::Ne => "ne",
            BinaryOp::Lt => "lt",
            BinaryOp::Le => "le",
            BinaryOp::Gt => "gt",
            BinaryOp::Ge => "ge",
            BinaryOp::Add => "add",
            BinaryOp::Sub => "sub",
            BinaryOp::Mul => "mul",
            BinaryOp::Div => "div",
            BinaryOp::Rem => "rem",
        }
    }

    /// Inverse of [`BinaryOp::name`].
    pub fn from_name(name: &str) -> Option<BinaryOp> {
        Some(match name {
            "or" => BinaryOp::Or,
            "and" => BinaryOp::And,
            "eq" => BinaryOp::Eq,
            "ne" => BinaryOp::Ne,
            "lt" => BinaryOp::Lt,
            "le" => BinaryOp::Le,
            "gt" => BinaryOp::Gt,
            "ge" => BinaryOp::Ge,
            "add" => BinaryOp::Add,
            "sub" => BinaryOp::Sub,
            "mul" => BinaryOp::Mul,
            "div" => BinaryOp::Div,
            "rem" => BinaryOp::Rem,
            _ => return None,
        })
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// `-`
    Neg,
    /// `!`
    Not,
}

impl UnaryOp {
    /// Operator spelling as written in source.
    pub fn spelling(&self) -> &'static str {
        match self {
            UnaryOp::Neg => "-",
            UnaryOp::Not => "!",
        }
    }

    /// Canonical name used in the serialized form.
    pub fn name(&self) -> &'static str {
        match self {
            UnaryOp::Neg => "neg",
            UnaryOp::Not => "not",
        }
    }

    /// Inverse of [`UnaryOp::name`].
    pub fn from_name(name: &str) -> Option<UnaryOp> {
        match name {
            "neg" => Some(UnaryOp::Neg),
            "not" => Some(UnaryOp::Not),
            _ => None,
        }
    }
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value (restricted to scalars + nested literal lists/maps).
    Literal(Value),
    /// Variable reference.
    Var(String),
    /// Unary operation.
    Unary(UnaryOp, Box<Expr>),
    /// Binary operation.
    Binary(BinaryOp, Box<Expr>, Box<Expr>),
    /// Indexing: `base[index]` (lists by int, maps by string).
    Index(Box<Expr>, Box<Expr>),
    /// Builtin call: `len(x)`, `coerce(v, "int")`, ...
    Call(String, Vec<Expr>),
    /// Host call: `self.name(args...)` — routed to the embedding object.
    HostCall(String, Vec<Expr>),
    /// List constructor: `[a, b, c]`.
    ListExpr(Vec<Expr>),
    /// Map constructor: `{"k": v, ...}` (string-literal keys).
    MapExpr(Vec<(String, Expr)>),
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `let name = expr;` — declares in the current scope.
    Let(String, Expr),
    /// `target = expr;` where target is a variable or an index chain.
    Assign(Expr, Expr),
    /// Bare expression statement (evaluated for effect).
    Expr(Expr),
    /// `if (cond) { .. } else { .. }` — `else` branch may be empty.
    If(Expr, Vec<Stmt>, Vec<Stmt>),
    /// `while (cond) { .. }`.
    While(Expr, Vec<Stmt>),
    /// `for (name in expr) { .. }` — iterates lists, map keys, or
    /// `range(..)` results.
    For(String, Expr, Vec<Stmt>),
    /// `return;` / `return expr;`
    Return(Option<Expr>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
}

/// A parsed, executable, serializable program: the mobile body of an MROM
/// method (or pre-/post-procedure).
///
/// # Example
///
/// ```
/// use mrom_script::Program;
///
/// # fn main() -> Result<(), mrom_script::ScriptError> {
/// let p = Program::parse("param x; return x * 2;")?;
/// assert_eq!(p.params(), ["x"]);
/// // Pretty-printed source re-parses to the same tree.
/// let q = Program::parse(&p.to_string())?;
/// assert_eq!(p, q);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Program {
    params: Vec<String>,
    body: Vec<Stmt>,
    /// Site-local bytecode cache, filled lazily (or eagerly by the
    /// admission pass). Never serialized: the AST stays the single mobile
    /// representation, and a program rebuilt from the wire starts with an
    /// empty cache. Cloning shares nothing mutable — the compiled form is
    /// immutable behind an `Arc`.
    compiled: OnceLock<Arc<CompiledProgram>>,
    /// Per-body effect facts ([`crate::effects::LocalEffects`]), filled
    /// on first use by the effect solver. Same rules as the bytecode
    /// cache: never serialized, ignored by equality. Caching here means
    /// a re-solve after a structural object change only re-extracts the
    /// bodies that actually changed.
    effects: OnceLock<Arc<crate::effects::LocalEffects>>,
}

/// Equality ignores the bytecode cache: two programs are the same mobile
/// body when their parameter lists and statement trees agree.
impl PartialEq for Program {
    fn eq(&self, other: &Self) -> bool {
        self.params == other.params && self.body == other.body
    }
}

impl Program {
    /// Parses source text into a program.
    ///
    /// # Errors
    ///
    /// [`ScriptError::Lex`] / [`ScriptError::Parse`] with the offending
    /// line number.
    pub fn parse(source: &str) -> Result<Program, ScriptError> {
        parser::parse(source)
    }

    /// Builds a program directly from parts (used by deserialization and
    /// programmatic construction).
    pub fn from_parts(params: Vec<String>, body: Vec<Stmt>) -> Program {
        Program {
            params,
            body,
            compiled: OnceLock::new(),
            effects: OnceLock::new(),
        }
    }

    /// The bytecode form of this program, compiling (and caching) it on
    /// first use. Compilation is total for any well-formed tree, so this
    /// never fails; the admission pass calls it eagerly so admitted
    /// methods pay the cost once, classloader-style.
    pub fn compiled(&self) -> Arc<CompiledProgram> {
        Arc::clone(
            self.compiled
                .get_or_init(|| Arc::new(compile::compile(self))),
        )
    }

    /// This body's effect facts ([`crate::effects::LocalEffects`]),
    /// extracted and cached on first use.
    #[must_use]
    pub fn local_effects(&self) -> Arc<crate::effects::LocalEffects> {
        Arc::clone(
            self.effects
                .get_or_init(|| Arc::new(crate::effects::LocalEffects::of_program(self))),
        )
    }

    /// Declared named parameters, bound positionally from the argument list.
    pub fn params(&self) -> &[String] {
        &self.params
    }

    /// The statement list.
    pub fn body(&self) -> &[Stmt] {
        &self.body
    }

    /// Counts AST nodes — a proxy for code size in migration benches.
    pub fn node_count(&self) -> usize {
        fn expr_nodes(e: &Expr) -> usize {
            1 + match e {
                Expr::Literal(_) | Expr::Var(_) => 0,
                Expr::Unary(_, a) => expr_nodes(a),
                Expr::Binary(_, a, b) => expr_nodes(a) + expr_nodes(b),
                Expr::Index(a, b) => expr_nodes(a) + expr_nodes(b),
                Expr::Call(_, args) | Expr::HostCall(_, args) | Expr::ListExpr(args) => {
                    args.iter().map(expr_nodes).sum()
                }
                Expr::MapExpr(entries) => entries.iter().map(|(_, e)| expr_nodes(e)).sum(),
            }
        }
        fn stmt_nodes(s: &Stmt) -> usize {
            1 + match s {
                Stmt::Let(_, e) | Stmt::Expr(e) => expr_nodes(e),
                Stmt::Assign(t, e) => expr_nodes(t) + expr_nodes(e),
                Stmt::If(c, a, b) => {
                    expr_nodes(c)
                        + a.iter().map(stmt_nodes).sum::<usize>()
                        + b.iter().map(stmt_nodes).sum::<usize>()
                }
                Stmt::While(c, body) => expr_nodes(c) + body.iter().map(stmt_nodes).sum::<usize>(),
                Stmt::For(_, e, body) => expr_nodes(e) + body.iter().map(stmt_nodes).sum::<usize>(),
                Stmt::Return(Some(e)) => expr_nodes(e),
                Stmt::Return(None) | Stmt::Break | Stmt::Continue => 0,
            }
        }
        self.body.iter().map(stmt_nodes).sum()
    }
}

// ---------------------------------------------------------------------------
// Pretty-printer. Output is valid source that re-parses to the same AST.
// ---------------------------------------------------------------------------

fn fmt_literal(v: &Value, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match v {
        Value::Null => f.write_str("null"),
        Value::Bool(b) => write!(f, "{b}"),
        Value::Int(i) => {
            if *i < 0 {
                // i64::MIN has no positive counterpart; print via parens-free
                // literal semantics: the parser folds `-LITERAL`.
                write!(f, "({i})")
            } else {
                write!(f, "{i}")
            }
        }
        Value::Float(x) => {
            if x.is_finite() {
                if *x < 0.0 {
                    write!(f, "({x:?})")
                } else {
                    write!(f, "{x:?}")
                }
            } else {
                // inf/-inf/NaN have no literal syntax; emit the `float`
                // constructor, which the parser folds back to a literal.
                write!(f, "float({:?})", x.to_string())
            }
        }
        Value::Str(s) => write!(f, "{s:?}"),
        Value::List(items) => {
            f.write_str("[")?;
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                fmt_literal(item, f)?;
            }
            f.write_str("]")
        }
        Value::Map(m) => {
            f.write_str("{")?;
            for (i, (k, v)) in m.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{k:?}: ")?;
                fmt_literal(v, f)?;
            }
            f.write_str("}")
        }
        // Bytes/ObjectRef literals cannot be written in source; encode as
        // builtin constructor calls that evaluate back to the same value.
        Value::Bytes(b) => {
            let hex: String = b.iter().map(|x| format!("{x:02x}")).collect();
            write!(f, "bytes({hex:?})")
        }
        Value::ObjectRef(id) => write!(f, "objectref({:?})", id.to_string()),
    }
}

fn fmt_expr(e: &Expr, parent_prec: u8, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match e {
        Expr::Literal(v) => fmt_literal(v, f),
        Expr::Var(name) => f.write_str(name),
        Expr::Unary(op, a) => {
            // Under a postfix (indexing) context `!x[0]` would re-bind as
            // `!(x[0])`; parenthesize the whole unary expression there.
            let needs_parens = parent_prec > 7;
            if needs_parens {
                f.write_str("(")?;
            }
            write!(f, "{}", op.spelling())?;
            fmt_expr(a, 7, f)?;
            if needs_parens {
                f.write_str(")")?;
            }
            Ok(())
        }
        Expr::Binary(op, a, b) => {
            let prec = op.precedence();
            let needs_parens = prec < parent_prec;
            if needs_parens {
                f.write_str("(")?;
            }
            fmt_expr(a, prec, f)?;
            write!(f, " {} ", op.spelling())?;
            // Right operand needs a tighter context to preserve
            // left-associativity on reparse.
            fmt_expr(b, prec + 1, f)?;
            if needs_parens {
                f.write_str(")")?;
            }
            Ok(())
        }
        Expr::Index(base, idx) => {
            fmt_expr(base, 8, f)?;
            f.write_str("[")?;
            fmt_expr(idx, 0, f)?;
            f.write_str("]")
        }
        Expr::Call(name, args) => {
            write!(f, "{name}(")?;
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                fmt_expr(a, 0, f)?;
            }
            f.write_str(")")
        }
        Expr::HostCall(name, args) => {
            write!(f, "self.{name}(")?;
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                fmt_expr(a, 0, f)?;
            }
            f.write_str(")")
        }
        Expr::ListExpr(items) => {
            f.write_str("[")?;
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                fmt_expr(item, 0, f)?;
            }
            f.write_str("]")
        }
        Expr::MapExpr(entries) => {
            f.write_str("{")?;
            for (i, (k, v)) in entries.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{k:?}: ")?;
                fmt_expr(v, 0, f)?;
            }
            f.write_str("}")
        }
    }
}

fn fmt_block(stmts: &[Stmt], indent: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    for s in stmts {
        fmt_stmt(s, indent, f)?;
    }
    Ok(())
}

fn fmt_stmt(s: &Stmt, indent: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let pad = "    ".repeat(indent);
    match s {
        Stmt::Let(name, e) => {
            write!(f, "{pad}let {name} = ")?;
            fmt_expr(e, 0, f)?;
            writeln!(f, ";")
        }
        Stmt::Assign(t, e) => {
            f.write_str(&pad)?;
            fmt_expr(t, 0, f)?;
            f.write_str(" = ")?;
            fmt_expr(e, 0, f)?;
            writeln!(f, ";")
        }
        Stmt::Expr(e) => {
            f.write_str(&pad)?;
            fmt_expr(e, 0, f)?;
            writeln!(f, ";")
        }
        Stmt::If(c, then_body, else_body) => {
            write!(f, "{pad}if (")?;
            fmt_expr(c, 0, f)?;
            writeln!(f, ") {{")?;
            fmt_block(then_body, indent + 1, f)?;
            if else_body.is_empty() {
                writeln!(f, "{pad}}}")
            } else {
                writeln!(f, "{pad}}} else {{")?;
                fmt_block(else_body, indent + 1, f)?;
                writeln!(f, "{pad}}}")
            }
        }
        Stmt::While(c, body) => {
            write!(f, "{pad}while (")?;
            fmt_expr(c, 0, f)?;
            writeln!(f, ") {{")?;
            fmt_block(body, indent + 1, f)?;
            writeln!(f, "{pad}}}")
        }
        Stmt::For(name, e, body) => {
            write!(f, "{pad}for ({name} in ")?;
            fmt_expr(e, 0, f)?;
            writeln!(f, ") {{")?;
            fmt_block(body, indent + 1, f)?;
            writeln!(f, "{pad}}}")
        }
        Stmt::Return(None) => writeln!(f, "{pad}return;"),
        Stmt::Return(Some(e)) => {
            write!(f, "{pad}return ")?;
            fmt_expr(e, 0, f)?;
            writeln!(f, ";")
        }
        Stmt::Break => writeln!(f, "{pad}break;"),
        Stmt::Continue => writeln!(f, "{pad}continue;"),
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for p in &self.params {
            writeln!(f, "param {p};")?;
        }
        fmt_block(&self.body, 0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_count_counts_everything() {
        let p = Program::parse("let x = 1 + 2; if (x > 1) { return x; }").unwrap();
        // let(1) + binary(1)+lit(2) ; if(1)+binary(1)+var+lit ; return(1)+var(1)
        assert!(p.node_count() >= 9, "got {}", p.node_count());
    }

    #[test]
    fn display_reparses_simple() {
        let src = "param a;\nlet x = a * (2 + 3);\nreturn x;\n";
        let p = Program::parse(src).unwrap();
        let q = Program::parse(&p.to_string()).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn display_preserves_precedence_and_associativity() {
        for src in [
            "return (1 + 2) * 3;",
            "return 1 + 2 * 3;",
            "return 1 - (2 - 3);",
            "return 1 - 2 - 3;",
            "return !(1 < 2) || false && true;",
            "return -x[0] + y[\"k\"];",
            "return 10 / 2 / 5;",
            "return 10 / (2 / 5);",
        ] {
            let p = Program::parse(src).unwrap();
            let q = Program::parse(&p.to_string()).unwrap();
            assert_eq!(p, q, "round-trip failed for {src}\npretty:\n{p}");
        }
    }

    #[test]
    fn operator_names_round_trip() {
        for op in [
            BinaryOp::Or,
            BinaryOp::And,
            BinaryOp::Eq,
            BinaryOp::Ne,
            BinaryOp::Lt,
            BinaryOp::Le,
            BinaryOp::Gt,
            BinaryOp::Ge,
            BinaryOp::Add,
            BinaryOp::Sub,
            BinaryOp::Mul,
            BinaryOp::Div,
            BinaryOp::Rem,
        ] {
            assert_eq!(BinaryOp::from_name(op.name()), Some(op));
        }
        for op in [UnaryOp::Neg, UnaryOp::Not] {
            assert_eq!(UnaryOp::from_name(op.name()), Some(op));
        }
        assert_eq!(BinaryOp::from_name("zzz"), None);
        assert_eq!(UnaryOp::from_name("zzz"), None);
    }
}

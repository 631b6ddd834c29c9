//! Serialization of programs to and from [`Value`] trees.
//!
//! A mobile method body must travel inside migration images and persistent
//! object images. Rather than inventing a second byte format, programs
//! lower to ordinary [`Value`] trees (tagged lists), which then ride the
//! standard wire format. `decode` is defensive: it validates structure and
//! reports [`ScriptError::MalformedProgram`] for hostile trees.

use mrom_value::Value;

use crate::ast::{BinaryOp, Expr, Program, Stmt, UnaryOp};
use crate::error::ScriptError;
use crate::parser::MAX_EXPR_DEPTH;

impl Program {
    /// Lowers the program to a [`Value`] tree.
    ///
    /// # Example
    ///
    /// ```
    /// use mrom_script::Program;
    ///
    /// # fn main() -> Result<(), mrom_script::ScriptError> {
    /// let p = Program::parse("param x; return x + 1;")?;
    /// let v = p.to_value();
    /// assert_eq!(Program::from_value(&v)?, p);
    /// # Ok(())
    /// # }
    /// ```
    pub fn to_value(&self) -> Value {
        Value::map([
            (
                "params",
                Value::List(
                    self.params()
                        .iter()
                        .map(|p| Value::Str(p.clone()))
                        .collect(),
                ),
            ),
            (
                "body",
                Value::List(self.body().iter().map(stmt_to_value).collect()),
            ),
        ])
    }

    /// Rebuilds a program from [`Program::to_value`] output.
    ///
    /// # Errors
    ///
    /// [`ScriptError::MalformedProgram`] when the tree does not follow the
    /// expected shape.
    pub fn from_value(v: &Value) -> Result<Program, ScriptError> {
        let m = v
            .as_map()
            .ok_or_else(|| malformed("program must be a map"))?;
        let params = m
            .get("params")
            .and_then(Value::as_list)
            .ok_or_else(|| malformed("missing params list"))?
            .iter()
            .map(|p| {
                p.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| malformed("param name must be a string"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let body = m
            .get("body")
            .and_then(Value::as_list)
            .ok_or_else(|| malformed("missing body list"))?
            .iter()
            .map(|s| stmt_from_value(s, 1))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Program::from_parts(params, body))
    }
}

fn malformed(detail: &str) -> ScriptError {
    ScriptError::MalformedProgram(detail.to_owned())
}

fn tagged(tag: &str, rest: impl IntoIterator<Item = Value>) -> Value {
    let mut items = vec![Value::Str(tag.to_owned())];
    items.extend(rest);
    Value::List(items)
}

fn stmt_to_value(s: &Stmt) -> Value {
    match s {
        Stmt::Let(name, e) => tagged("let", [Value::Str(name.clone()), expr_to_value(e)]),
        Stmt::Assign(t, e) => tagged("assign", [expr_to_value(t), expr_to_value(e)]),
        Stmt::Expr(e) => tagged("expr", [expr_to_value(e)]),
        Stmt::If(c, a, b) => tagged(
            "if",
            [
                expr_to_value(c),
                Value::List(a.iter().map(stmt_to_value).collect()),
                Value::List(b.iter().map(stmt_to_value).collect()),
            ],
        ),
        Stmt::While(c, body) => tagged(
            "while",
            [
                expr_to_value(c),
                Value::List(body.iter().map(stmt_to_value).collect()),
            ],
        ),
        Stmt::For(name, e, body) => tagged(
            "for",
            [
                Value::Str(name.clone()),
                expr_to_value(e),
                Value::List(body.iter().map(stmt_to_value).collect()),
            ],
        ),
        Stmt::Return(None) => tagged("return", []),
        Stmt::Return(Some(e)) => tagged("return", [expr_to_value(e)]),
        Stmt::Break => tagged("break", []),
        Stmt::Continue => tagged("continue", []),
    }
}

fn expr_to_value(e: &Expr) -> Value {
    match e {
        Expr::Literal(v) => tagged("lit", [v.clone()]),
        Expr::Var(name) => tagged("var", [Value::Str(name.clone())]),
        Expr::Unary(op, a) => tagged("un", [Value::Str(op.name().to_owned()), expr_to_value(a)]),
        Expr::Binary(op, a, b) => tagged(
            "bin",
            [
                Value::Str(op.name().to_owned()),
                expr_to_value(a),
                expr_to_value(b),
            ],
        ),
        Expr::Index(a, b) => tagged("idx", [expr_to_value(a), expr_to_value(b)]),
        Expr::Call(name, args) => tagged(
            "call",
            [
                Value::Str(name.clone()),
                Value::List(args.iter().map(expr_to_value).collect()),
            ],
        ),
        Expr::HostCall(name, args) => tagged(
            "host",
            [
                Value::Str(name.clone()),
                Value::List(args.iter().map(expr_to_value).collect()),
            ],
        ),
        Expr::ListExpr(items) => tagged(
            "listx",
            [Value::List(items.iter().map(expr_to_value).collect())],
        ),
        Expr::MapExpr(entries) => tagged(
            "mapx",
            [Value::List(
                entries
                    .iter()
                    .map(|(k, v)| Value::List(vec![Value::Str(k.clone()), expr_to_value(v)]))
                    .collect(),
            )],
        ),
    }
}

/// Splits a tagged list into `(tag, fields)`.
fn untag(v: &Value) -> Result<(&str, &[Value]), ScriptError> {
    let items = v
        .as_list()
        .ok_or_else(|| malformed("node must be a tagged list"))?;
    let (head, rest) = items
        .split_first()
        .ok_or_else(|| malformed("node list is empty"))?;
    let tag = head
        .as_str()
        .ok_or_else(|| malformed("node tag must be a string"))?;
    Ok((tag, rest))
}

fn field<'a>(fields: &'a [Value], i: usize, what: &str) -> Result<&'a Value, ScriptError> {
    fields
        .get(i)
        .ok_or_else(|| malformed(&format!("missing field {i} ({what})")))
}

fn str_field(fields: &[Value], i: usize, what: &str) -> Result<String, ScriptError> {
    field(fields, i, what)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| malformed(&format!("field {i} ({what}) must be a string")))
}

fn stmt_list(v: &Value, depth: usize) -> Result<Vec<Stmt>, ScriptError> {
    v.as_list()
        .ok_or_else(|| malformed("expected a statement list"))?
        .iter()
        .map(|s| stmt_from_value(s, depth))
        .collect()
}

fn expr_list(v: &Value, depth: usize) -> Result<Vec<Expr>, ScriptError> {
    v.as_list()
        .ok_or_else(|| malformed("expected an expression list"))?
        .iter()
        .map(|e| expr_from_value(e, depth))
        .collect()
}

/// Depth guard for hostile hand-built trees: the wire decoder bounds
/// value depth, but `Program::from_value` can be fed in-memory trees
/// directly; without this, a deep tree would overflow the stack here or
/// later in the evaluator. `depth` counts the statement and expression
/// nodes from a top-level statement (1) down to the node being decoded.
fn check_depth(depth: usize) -> Result<(), ScriptError> {
    if depth > MAX_EXPR_DEPTH {
        Err(malformed(&format!(
            "node nesting exceeds the limit of {MAX_EXPR_DEPTH}"
        )))
    } else {
        Ok(())
    }
}

fn stmt_from_value(v: &Value, depth: usize) -> Result<Stmt, ScriptError> {
    check_depth(depth)?;
    let inner = depth + 1;
    let (tag, fields) = untag(v)?;
    let expect = |n: usize| -> Result<(), ScriptError> {
        if fields.len() != n {
            return Err(malformed(&format!(
                "statement {tag:?} expects {n} fields, got {}",
                fields.len()
            )));
        }
        Ok(())
    };
    match tag {
        "let" => {
            expect(2)?;
            Ok(Stmt::Let(
                str_field(fields, 0, "name")?,
                expr_from_value(field(fields, 1, "value")?, inner)?,
            ))
        }
        "assign" => {
            expect(2)?;
            let target = expr_from_value(field(fields, 0, "target")?, inner)?;
            if !is_target(&target) {
                return Err(malformed("assign target must be a variable or index chain"));
            }
            Ok(Stmt::Assign(
                target,
                expr_from_value(field(fields, 1, "value")?, inner)?,
            ))
        }
        "expr" => {
            expect(1)?;
            Ok(Stmt::Expr(expr_from_value(
                field(fields, 0, "expr")?,
                inner,
            )?))
        }
        "if" => {
            expect(3)?;
            Ok(Stmt::If(
                expr_from_value(field(fields, 0, "cond")?, inner)?,
                stmt_list(field(fields, 1, "then")?, inner)?,
                stmt_list(field(fields, 2, "else")?, inner)?,
            ))
        }
        "while" => {
            expect(2)?;
            Ok(Stmt::While(
                expr_from_value(field(fields, 0, "cond")?, inner)?,
                stmt_list(field(fields, 1, "body")?, inner)?,
            ))
        }
        "for" => {
            expect(3)?;
            Ok(Stmt::For(
                str_field(fields, 0, "var")?,
                expr_from_value(field(fields, 1, "iter")?, inner)?,
                stmt_list(field(fields, 2, "body")?, inner)?,
            ))
        }
        "return" => match fields.len() {
            0 => Ok(Stmt::Return(None)),
            1 => Ok(Stmt::Return(Some(expr_from_value(&fields[0], inner)?))),
            n => Err(malformed(&format!("return expects 0 or 1 fields, got {n}"))),
        },
        "break" => {
            expect(0)?;
            Ok(Stmt::Break)
        }
        "continue" => {
            expect(0)?;
            Ok(Stmt::Continue)
        }
        other => Err(malformed(&format!("unknown statement tag {other:?}"))),
    }
}

fn is_target(e: &Expr) -> bool {
    match e {
        Expr::Var(_) => true,
        Expr::Index(base, _) => is_target(base),
        _ => false,
    }
}

fn expr_from_value(v: &Value, depth: usize) -> Result<Expr, ScriptError> {
    check_depth(depth)?;
    let inner = depth + 1;
    let (tag, fields) = untag(v)?;
    let expect = |n: usize| -> Result<(), ScriptError> {
        if fields.len() != n {
            return Err(malformed(&format!(
                "expression {tag:?} expects {n} fields, got {}",
                fields.len()
            )));
        }
        Ok(())
    };
    match tag {
        "lit" => {
            expect(1)?;
            Ok(Expr::Literal(fields[0].clone()))
        }
        "var" => {
            expect(1)?;
            Ok(Expr::Var(str_field(fields, 0, "name")?))
        }
        "un" => {
            expect(2)?;
            let name = str_field(fields, 0, "op")?;
            let op = UnaryOp::from_name(&name)
                .ok_or_else(|| malformed(&format!("unknown unary op {name:?}")))?;
            Ok(Expr::Unary(
                op,
                Box::new(expr_from_value(&fields[1], inner)?),
            ))
        }
        "bin" => {
            expect(3)?;
            let name = str_field(fields, 0, "op")?;
            let op = BinaryOp::from_name(&name)
                .ok_or_else(|| malformed(&format!("unknown binary op {name:?}")))?;
            Ok(Expr::Binary(
                op,
                Box::new(expr_from_value(&fields[1], inner)?),
                Box::new(expr_from_value(&fields[2], inner)?),
            ))
        }
        "idx" => {
            expect(2)?;
            Ok(Expr::Index(
                Box::new(expr_from_value(&fields[0], inner)?),
                Box::new(expr_from_value(&fields[1], inner)?),
            ))
        }
        "call" => {
            expect(2)?;
            Ok(Expr::Call(
                str_field(fields, 0, "name")?,
                expr_list(&fields[1], inner)?,
            ))
        }
        "host" => {
            expect(2)?;
            Ok(Expr::HostCall(
                str_field(fields, 0, "name")?,
                expr_list(&fields[1], inner)?,
            ))
        }
        "listx" => {
            expect(1)?;
            Ok(Expr::ListExpr(expr_list(&fields[0], inner)?))
        }
        "mapx" => {
            expect(1)?;
            let entries = fields[0]
                .as_list()
                .ok_or_else(|| malformed("mapx entries must be a list"))?
                .iter()
                .map(|pair| {
                    let items = pair
                        .as_list()
                        .ok_or_else(|| malformed("mapx entry must be a [key, expr] pair"))?;
                    if items.len() != 2 {
                        return Err(malformed("mapx entry must have exactly two fields"));
                    }
                    let k = items[0]
                        .as_str()
                        .ok_or_else(|| malformed("mapx key must be a string"))?
                        .to_owned();
                    Ok((k, expr_from_value(&items[1], inner)?))
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Expr::MapExpr(entries))
        }
        other => Err(malformed(&format!("unknown expression tag {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrom_value::wire;

    fn round_trip(src: &str) {
        let p = Program::parse(src).unwrap_or_else(|e| panic!("parse {src:?}: {e}"));
        let v = p.to_value();
        let q = Program::from_value(&v).unwrap_or_else(|e| panic!("decode {src:?}: {e}"));
        assert_eq!(p, q, "value round trip for {src:?}");
        // And through the byte format.
        let bytes = wire::encode(&v);
        let v2 = wire::decode(&bytes).expect("wire decode");
        assert_eq!(Program::from_value(&v2).expect("program decode"), p);
    }

    #[test]
    fn programs_round_trip_through_values_and_bytes() {
        round_trip("");
        round_trip("param a; param b; return a + b;");
        round_trip("let x = [1, {\"k\": 2.5}, \"s\"]; x[0] = -x[0]; return x;");
        round_trip("if (a > 1) { return 1; } else if (a > 0) { return 0; } else { fail(\"no\"); }");
        round_trip(
            "while (i < 10) { i = i + 1; if (i == 5) { continue; } if (i == 8) { break; } }",
        );
        round_trip("for (x in range(3)) { self.invoke(\"m\", [x]); }");
        round_trip("return {\"nested\": [self.get(\"v\"), !true, 1 % 2]};");
        round_trip("return bytes(\"00ff\") + bytes(\"aa\");");
    }

    #[test]
    fn hostile_trees_are_rejected_not_panicked() {
        for bad in [
            Value::Null,
            Value::Int(1),
            Value::map([("params", Value::Null)]),
            Value::map([
                ("params", Value::list([])),
                ("body", Value::list([Value::Int(1)])),
            ]),
            Value::map([
                ("params", Value::list([])),
                ("body", Value::list([Value::list([Value::from("zap")])])),
            ]),
            Value::map([
                ("params", Value::list([])),
                ("body", Value::list([Value::list([Value::from("let")])])),
            ]),
            Value::map([
                ("params", Value::list([Value::Int(1)])),
                ("body", Value::list([])),
            ]),
        ] {
            assert!(
                matches!(
                    Program::from_value(&bad),
                    Err(ScriptError::MalformedProgram(_))
                ),
                "must reject {bad}"
            );
        }
    }

    #[test]
    fn hostile_assign_target_is_rejected() {
        // ["assign", ["lit", 1], ["lit", 2]] — literal target must be refused.
        let bad = Value::map([
            ("params", Value::list([])),
            (
                "body",
                Value::list([Value::list([
                    Value::from("assign"),
                    Value::list([Value::from("lit"), Value::Int(1)]),
                    Value::list([Value::from("lit"), Value::Int(2)]),
                ])]),
            ),
        ]);
        assert!(Program::from_value(&bad).is_err());
    }

    #[test]
    fn unknown_ops_are_rejected() {
        let bad = Value::map([
            ("params", Value::list([])),
            (
                "body",
                Value::list([Value::list([
                    Value::from("expr"),
                    Value::list([
                        Value::from("bin"),
                        Value::from("frobnicate"),
                        Value::list([Value::from("lit"), Value::Int(1)]),
                        Value::list([Value::from("lit"), Value::Int(2)]),
                    ]),
                ])]),
            ),
        ]);
        assert!(Program::from_value(&bad).is_err());
    }
}

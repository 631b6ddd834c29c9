//! Fuel-metered tree-walking evaluator and the host interface.

use std::collections::{BTreeMap, HashMap};

use mrom_value::{wire, Value, ValueError, ValueKind};

use crate::ast::{BinaryOp, Expr, Program, Stmt, UnaryOp};
use crate::error::ScriptError;
use crate::surface::BuiltinId;

/// Default fuel budget: generous for real method bodies, small enough that
/// a hostile infinite loop dies in well under a millisecond of wall time
/// per invocation.
pub const DEFAULT_FUEL: u64 = 1_000_000;

/// The deepest a script value may nest: a scalar is one level, and each
/// list or map around it one more. Both engines refuse to build a deeper
/// value ([`ScriptError::NestingTooDeep`]), so no value a script holds
/// can overflow the host's stack when it is cloned, compared, encoded or
/// dropped. The bound is the wire decoder's depth budget less the two
/// maps a data item's value sits in below an image's top level, so a
/// value a script builds still decodes in a migration image.
pub const MAX_VALUE_DEPTH: usize = wire::MAX_DEPTH - 2;

/// The interface through which a running script reaches its embedding
/// object (`self.name(...)` calls).
///
/// `mrom-core` implements this to expose the operations of
/// [`HOST_OPS`](crate::surface::HOST_OPS) — `self.get`, `self.set`,
/// `self.invoke`, `self.add_method`, ... — which is how mobile code
/// performs reflection.
pub trait HostContext {
    /// Handles `self.name(args...)`. `args` is borrowed for the call
    /// only: the VM lends a slice of its frame (or of its constant
    /// pool), which it reuses once the call returns.
    ///
    /// # Errors
    ///
    /// Implementations should return [`ScriptError::Host`] (or map their own
    /// error types into it) when the call is unknown, denied, or fails.
    fn host_call(&mut self, name: &str, args: &[Value]) -> Result<Value, ScriptError>;
}

/// A host that rejects every `self.*` call — for evaluating pure programs.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullHost;

impl HostContext for NullHost {
    fn host_call(&mut self, name: &str, _args: &[Value]) -> Result<Value, ScriptError> {
        Err(ScriptError::Host(format!(
            "no host bound; cannot call self.{name}"
        )))
    }
}

/// Blanket impl so `&mut H` can be passed where a host is expected.
impl<H: HostContext + ?Sized> HostContext for &mut H {
    fn host_call(&mut self, name: &str, args: &[Value]) -> Result<Value, ScriptError> {
        (**self).host_call(name, args)
    }
}

/// Control-flow outcome of executing a statement.
enum Flow {
    Normal,
    Return(Value),
    Break,
    Continue,
}

/// A fuel-metered evaluator bound to a host.
///
/// # Example
///
/// ```
/// use mrom_script::{Evaluator, NullHost, Program};
/// use mrom_value::Value;
///
/// # fn main() -> Result<(), mrom_script::ScriptError> {
/// let p = Program::parse("let s = 0; for (i in range(5)) { s = s + i; } return s;")?;
/// let mut host = NullHost;
/// let out = Evaluator::new(&mut host).run(&p, &[])?;
/// assert_eq!(out, Value::Int(10));
/// # Ok(())
/// # }
/// ```
pub struct Evaluator<'h, H: HostContext + ?Sized> {
    host: &'h mut H,
    budget: u64,
    fuel: u64,
    host_calls: u64,
}

impl<'h, H: HostContext + ?Sized> Evaluator<'h, H> {
    /// Binds an evaluator to `host` with [`DEFAULT_FUEL`].
    pub fn new(host: &'h mut H) -> Self {
        Self::with_fuel(host, DEFAULT_FUEL)
    }

    /// Binds an evaluator with an explicit fuel budget.
    pub fn with_fuel(host: &'h mut H, fuel: u64) -> Self {
        Evaluator {
            host,
            budget: fuel,
            fuel,
            host_calls: 0,
        }
    }

    /// Fuel consumed by runs so far.
    pub fn fuel_used(&self) -> u64 {
        self.budget - self.fuel
    }

    /// Host calls (`self.…` / world operations) performed by runs so far.
    /// Feeds the observability layer's per-script host-call counters.
    pub fn host_calls(&self) -> u64 {
        self.host_calls
    }

    /// Runs `program` with the given argument list.
    ///
    /// `args` is bound to the variable `args`; declared parameters bind
    /// positionally (missing ones are `null`, extras remain reachable via
    /// `args`). The return value is the argument of the first executed
    /// `return`, or `null` if the body falls off the end.
    ///
    /// # Errors
    ///
    /// Any [`ScriptError`] raised during evaluation, including
    /// [`ScriptError::FuelExhausted`] for runaway programs.
    pub fn run(&mut self, program: &Program, args: &[Value]) -> Result<Value, ScriptError> {
        let mut scopes = Scopes::new();
        scopes.declare("args", Value::List(args.to_vec()));
        for (i, name) in program.params().iter().enumerate() {
            scopes.declare(name, args.get(i).cloned().unwrap_or(Value::Null));
        }
        match self.exec_block(program.body(), &mut scopes)? {
            Flow::Return(v) => Ok(v),
            Flow::Normal => Ok(Value::Null),
            Flow::Break | Flow::Continue => Err(ScriptError::StrayLoopControl),
        }
    }

    fn burn(&mut self, amount: u64) -> Result<(), ScriptError> {
        if self.fuel < amount {
            self.fuel = 0;
            return Err(ScriptError::FuelExhausted {
                budget: self.budget,
            });
        }
        self.fuel -= amount;
        Ok(())
    }

    fn exec_block(&mut self, stmts: &[Stmt], scopes: &mut Scopes) -> Result<Flow, ScriptError> {
        scopes.push();
        let result = self.exec_stmts(stmts, scopes);
        scopes.pop();
        result
    }

    fn exec_stmts(&mut self, stmts: &[Stmt], scopes: &mut Scopes) -> Result<Flow, ScriptError> {
        for s in stmts {
            match self.exec_stmt(s, scopes)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, s: &Stmt, scopes: &mut Scopes) -> Result<Flow, ScriptError> {
        self.burn(STEP_FUEL)?;
        match s {
            Stmt::Let(name, e) => {
                let v = self.eval(e, scopes)?;
                scopes.declare(name, v);
                Ok(Flow::Normal)
            }
            Stmt::Assign(target, e) => {
                let v = self.eval(e, scopes)?;
                self.assign(target, v, scopes)?;
                Ok(Flow::Normal)
            }
            Stmt::Expr(e) => {
                self.eval(e, scopes)?;
                Ok(Flow::Normal)
            }
            Stmt::If(cond, then_body, else_body) => {
                if self.eval(cond, scopes)?.truthy() {
                    self.exec_block(then_body, scopes)
                } else {
                    self.exec_block(else_body, scopes)
                }
            }
            Stmt::While(cond, body) => {
                while self.eval(cond, scopes)?.truthy() {
                    match self.exec_block(body, scopes)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::For(name, iter, body) => {
                let items = self.iterable(iter, scopes)?;
                for item in items {
                    scopes.push();
                    scopes.declare(name, item);
                    let flow = self.exec_stmts(body, scopes);
                    scopes.pop();
                    match flow? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Return(None) => Ok(Flow::Return(Value::Null)),
            Stmt::Return(Some(e)) => {
                let v = self.eval(e, scopes)?;
                Ok(Flow::Return(v))
            }
            Stmt::Break => Ok(Flow::Break),
            Stmt::Continue => Ok(Flow::Continue),
        }
    }

    /// Materializes the item sequence a `for` loop walks: list elements,
    /// map keys, string characters, or byte values.
    fn iterable(&mut self, e: &Expr, scopes: &mut Scopes) -> Result<Vec<Value>, ScriptError> {
        let v = self.eval(e, scopes)?;
        iter_items(v)
    }

    fn assign(&mut self, target: &Expr, v: Value, scopes: &mut Scopes) -> Result<(), ScriptError> {
        match target {
            Expr::Var(name) => scopes.set(name, v),
            Expr::Index(base, idx_expr) => {
                let idx = self.eval(idx_expr, scopes)?;
                // Resolve the path (root variable + index chain), then
                // mutate in place.
                let mut path = vec![idx];
                let mut cursor: &Expr = base;
                loop {
                    match cursor {
                        Expr::Var(name) => {
                            let root = scopes.lookup_mut(name)?;
                            return write_path(root, &path, v);
                        }
                        Expr::Index(inner, inner_idx) => {
                            let idx = self.eval(inner_idx, scopes)?;
                            path.push(idx);
                            cursor = inner;
                        }
                        _ => {
                            return Err(ScriptError::BadIndex(
                                "assignment target must be rooted at a variable".into(),
                            ))
                        }
                    }
                }
            }
            _ => Err(ScriptError::BadIndex(
                "assignment target must be a variable or index chain".into(),
            )),
        }
    }

    fn eval(&mut self, e: &Expr, scopes: &mut Scopes) -> Result<Value, ScriptError> {
        self.burn(STEP_FUEL)?;
        match e {
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Var(name) => scopes.lookup(name),
            Expr::Unary(op, a) => {
                let v = self.eval(a, scopes)?;
                unary(*op, v)
            }
            Expr::Binary(op, a, b) => match op {
                BinaryOp::And => {
                    let lhs = self.eval(a, scopes)?;
                    if !lhs.truthy() {
                        return Ok(Value::Bool(false));
                    }
                    Ok(Value::Bool(self.eval(b, scopes)?.truthy()))
                }
                BinaryOp::Or => {
                    let lhs = self.eval(a, scopes)?;
                    if lhs.truthy() {
                        return Ok(Value::Bool(true));
                    }
                    Ok(Value::Bool(self.eval(b, scopes)?.truthy()))
                }
                _ => {
                    let lhs = self.eval(a, scopes)?;
                    let rhs = self.eval(b, scopes)?;
                    // Concatenation/repetition allocates output proportional
                    // to its inputs; charge for it before doing the work.
                    let extra = alloc_surcharge(*op, &lhs, &rhs);
                    if extra > 0 {
                        self.burn(extra)?;
                    }
                    binary(*op, lhs, rhs)
                }
            },
            Expr::Index(base, idx) => {
                let b = self.eval(base, scopes)?;
                let i = self.eval(idx, scopes)?;
                index(&b, &i)
            }
            Expr::Call(name, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, scopes)?);
                }
                // Builtins that may traverse or allocate large structures
                // burn extra fuel proportional to data size — strings and
                // byte arrays count by length, not as scalars.
                self.burn(call_surcharge(&vals))?;
                match BuiltinId::from_name(name) {
                    Some(id) => {
                        let out = out_surcharge(id, &vals);
                        if out > 0 {
                            self.burn(out)?;
                        }
                        call_builtin(id, vals)
                    }
                    None => Err(ScriptError::UnknownBuiltin(name.clone())),
                }
            }
            Expr::HostCall(name, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, scopes)?);
                }
                self.burn(HOST_CALL_FUEL)?;
                self.host_calls += 1;
                nested_at_most(self.host.host_call(name, &vals)?, 0)
            }
            Expr::ListExpr(items) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    out.push(self.eval(item, scopes)?);
                }
                nested_at_most(Value::List(out), 0)
            }
            Expr::MapExpr(entries) => {
                let mut m = BTreeMap::new();
                for (k, v) in entries {
                    m.insert(k.clone(), self.eval(v, scopes)?);
                }
                nested_at_most(Value::Map(m), 0)
            }
        }
    }
}

/// Converts a value into the item sequence a `for` loop walks: list
/// elements, map keys, string characters, or byte values. Shared by the
/// interpreter's `iterable` and the VM's `IterNew` instruction.
pub(crate) fn iter_items(v: Value) -> Result<Vec<Value>, ScriptError> {
    match v {
        Value::List(items) => Ok(items),
        Value::Map(m) => Ok(m.into_keys().map(Value::Str).collect()),
        Value::Str(s) => Ok(s.chars().map(|c| Value::Str(c.to_string())).collect()),
        Value::Bytes(b) => Ok(b.into_iter().map(|x| Value::Int(i64::from(x))).collect()),
        other => Err(ScriptError::TypeMismatch {
            op: "for-in".into(),
            lhs: other.kind(),
            rhs: None,
        }),
    }
}

// ---------------------------------------------------------------------------
// Scopes
// ---------------------------------------------------------------------------

struct Scopes {
    frames: Vec<HashMap<String, Value>>,
}

impl Scopes {
    fn new() -> Self {
        Scopes {
            frames: vec![HashMap::new()],
        }
    }

    fn push(&mut self) {
        self.frames.push(HashMap::new());
    }

    fn pop(&mut self) {
        self.frames.pop();
        debug_assert!(!self.frames.is_empty(), "root scope must survive");
    }

    fn declare(&mut self, name: &str, v: Value) {
        self.frames
            .last_mut()
            .expect("at least root scope")
            .insert(name.to_owned(), v);
    }

    fn lookup(&self, name: &str) -> Result<Value, ScriptError> {
        for frame in self.frames.iter().rev() {
            if let Some(v) = frame.get(name) {
                return Ok(v.clone());
            }
        }
        Err(ScriptError::UndefinedVariable(name.to_owned()))
    }

    fn lookup_mut(&mut self, name: &str) -> Result<&mut Value, ScriptError> {
        for frame in self.frames.iter_mut().rev() {
            if let Some(v) = frame.get_mut(name) {
                return Ok(v);
            }
        }
        Err(ScriptError::UndefinedVariable(name.to_owned()))
    }

    fn set(&mut self, name: &str, v: Value) -> Result<(), ScriptError> {
        *self.lookup_mut(name)? = v;
        Ok(())
    }
}

/// `true` when `v` nests more than `levels` deep. Recurses at most
/// `levels` times, however deep `v` is.
fn deeper_than(v: &Value, levels: usize) -> bool {
    let Some(inner) = levels.checked_sub(1) else {
        return true;
    };
    match v {
        Value::List(items) => items.iter().any(|item| deeper_than(item, inner)),
        Value::Map(m) => m.values().any(|item| deeper_than(item, inner)),
        _ => false,
    }
}

/// `v`, unless placing it `above` levels down in a container would nest
/// it past [`MAX_VALUE_DEPTH`]. Every place where a script value can
/// gain depth goes through here: list and map construction, path writes,
/// the builtins that put an argument in a container, and host-call
/// results (a `getDataItem` descriptor wraps the item's value).
#[inline]
pub(crate) fn nested_at_most(v: Value, above: usize) -> Result<Value, ScriptError> {
    // A scalar is one level: only a container needs the walk.
    let fits = match v {
        Value::List(_) | Value::Map(_) => !deeper_than(&v, MAX_VALUE_DEPTH.saturating_sub(above)),
        _ => above < MAX_VALUE_DEPTH,
    };
    if fits {
        Ok(v)
    } else {
        Err(too_deep())
    }
}

#[cold]
fn too_deep() -> ScriptError {
    ScriptError::NestingTooDeep {
        limit: MAX_VALUE_DEPTH,
    }
}

/// Writes `v` through a reversed index path (`path[last]` is the outermost
/// index) into `root`. A `v` that would nest too deep there is refused
/// before the path is walked.
pub(crate) fn write_path(root: &mut Value, path: &[Value], v: Value) -> Result<(), ScriptError> {
    let v = nested_at_most(v, path.len())?;
    let mut slot = root;
    for idx in path.iter().rev() {
        slot = slot_mut(slot, idx)?;
    }
    *slot = v;
    Ok(())
}

fn slot_mut<'a>(container: &'a mut Value, idx: &Value) -> Result<&'a mut Value, ScriptError> {
    match (container, idx) {
        (Value::List(items), Value::Int(i)) => {
            let len = items.len();
            let i = usize::try_from(*i)
                .map_err(|_| ScriptError::BadIndex(format!("negative index {i}")))?;
            items
                .get_mut(i)
                .ok_or_else(|| ScriptError::BadIndex(format!("index {i} out of bounds ({len})")))
        }
        (Value::Map(m), Value::Str(k)) => {
            // Map assignment inserts when absent (convenient and matches
            // the `set` builtin).
            Ok(m.entry(k.clone()).or_insert(Value::Null))
        }
        (c, idx) => Err(ScriptError::BadIndex(format!(
            "cannot index {} with {}",
            c.kind(),
            idx.kind()
        ))),
    }
}

// ---------------------------------------------------------------------------
// Operators
// ---------------------------------------------------------------------------

pub(crate) fn unary(op: UnaryOp, v: Value) -> Result<Value, ScriptError> {
    match (op, v) {
        (UnaryOp::Neg, Value::Int(i)) => i.checked_neg().map(Value::Int).ok_or_else(|| {
            ScriptError::Value(ValueError::NumericRange("negating i64::MIN".into()))
        }),
        (UnaryOp::Neg, Value::Float(x)) => Ok(Value::Float(-x)),
        (UnaryOp::Not, v) => Ok(Value::Bool(!v.truthy())),
        (op, v) => Err(ScriptError::TypeMismatch {
            op: op.spelling().into(),
            lhs: v.kind(),
            rhs: None,
        }),
    }
}

pub(crate) fn binary(op: BinaryOp, lhs: Value, rhs: Value) -> Result<Value, ScriptError> {
    use BinaryOp::*;
    let mismatch = |lhs: &Value, rhs: &Value| ScriptError::TypeMismatch {
        op: op.spelling().into(),
        lhs: lhs.kind(),
        rhs: Some(rhs.kind()),
    };
    match op {
        Eq => Ok(Value::Bool(lhs == rhs)),
        Ne => Ok(Value::Bool(lhs != rhs)),
        Lt | Le | Gt | Ge => {
            let ord = compare(&lhs, &rhs).ok_or_else(|| mismatch(&lhs, &rhs))?;
            Ok(Value::Bool(match op {
                Lt => ord.is_lt(),
                Le => ord.is_le(),
                Gt => ord.is_gt(),
                Ge => ord.is_ge(),
                _ => unreachable!("comparison ops only"),
            }))
        }
        Add => match (lhs, rhs) {
            (Value::Int(a), Value::Int(b)) => checked_int(a.checked_add(b), "+"),
            (Value::Str(mut a), Value::Str(b)) => {
                a.push_str(&b);
                Ok(Value::Str(a))
            }
            (Value::List(mut a), Value::List(b)) => {
                a.extend(b);
                Ok(Value::List(a))
            }
            (Value::Bytes(mut a), Value::Bytes(b)) => {
                a.extend(b);
                Ok(Value::Bytes(a))
            }
            (a, b) => numeric(op, a, b, |x, y| x + y),
        },
        Sub => match (lhs, rhs) {
            (Value::Int(a), Value::Int(b)) => checked_int(a.checked_sub(b), "-"),
            (a, b) => numeric(op, a, b, |x, y| x - y),
        },
        Mul => match (lhs, rhs) {
            (Value::Int(a), Value::Int(b)) => checked_int(a.checked_mul(b), "*"),
            (Value::Str(s), Value::Int(n)) => {
                let n = usize::try_from(n).map_err(|_| {
                    ScriptError::Value(ValueError::NumericRange(format!(
                        "cannot repeat a string {n} times"
                    )))
                })?;
                if s.len().saturating_mul(n) > 1 << 20 {
                    return Err(ScriptError::Value(ValueError::NumericRange(
                        "string repetition exceeds 1 MiB".into(),
                    )));
                }
                Ok(Value::Str(s.repeat(n)))
            }
            (a, b) => numeric(op, a, b, |x, y| x * y),
        },
        Div => match (lhs, rhs) {
            (Value::Int(_), Value::Int(0)) => Err(ScriptError::DivisionByZero),
            (Value::Int(a), Value::Int(b)) => checked_int(a.checked_div(b), "/"),
            (a, b) => numeric(op, a, b, |x, y| x / y),
        },
        Rem => match (lhs, rhs) {
            (Value::Int(_), Value::Int(0)) => Err(ScriptError::DivisionByZero),
            (Value::Int(a), Value::Int(b)) => checked_int(a.checked_rem(b), "%"),
            (a, b) => numeric(op, a, b, |x, y| x % y),
        },
        And | Or => unreachable!("short-circuit ops handled in eval"),
    }
}

fn checked_int(v: Option<i64>, op: &str) -> Result<Value, ScriptError> {
    v.map(Value::Int).ok_or_else(|| {
        ScriptError::Value(ValueError::NumericRange(format!(
            "integer overflow in {op}"
        )))
    })
}

/// Applies a float operation to numeric operands, promoting ints.
fn numeric(
    op: BinaryOp,
    lhs: Value,
    rhs: Value,
    f: impl Fn(f64, f64) -> f64,
) -> Result<Value, ScriptError> {
    let a = match &lhs {
        Value::Int(i) => *i as f64,
        Value::Float(x) => *x,
        _ => {
            return Err(ScriptError::TypeMismatch {
                op: op.spelling().into(),
                lhs: lhs.kind(),
                rhs: Some(rhs.kind()),
            })
        }
    };
    let b = match &rhs {
        Value::Int(i) => *i as f64,
        Value::Float(x) => *x,
        _ => {
            return Err(ScriptError::TypeMismatch {
                op: op.spelling().into(),
                lhs: lhs.kind(),
                rhs: Some(rhs.kind()),
            })
        }
    };
    Ok(Value::Float(f(a, b)))
}

/// Cross-kind ordering for `<`-family operators: numbers with numbers
/// (int/float mix allowed), strings with strings, bytes with bytes.
fn compare(lhs: &Value, rhs: &Value) -> Option<std::cmp::Ordering> {
    match (lhs, rhs) {
        (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
        (Value::Float(a), Value::Float(b)) => a.partial_cmp(b),
        (Value::Int(a), Value::Float(b)) => (*a as f64).partial_cmp(b),
        (Value::Float(a), Value::Int(b)) => a.partial_cmp(&(*b as f64)),
        (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
        (Value::Bytes(a), Value::Bytes(b)) => Some(a.cmp(b)),
        _ => None,
    }
}

pub(crate) fn index(container: &Value, idx: &Value) -> Result<Value, ScriptError> {
    match (container, idx) {
        (Value::List(items), Value::Int(i)) => {
            let i = usize::try_from(*i)
                .map_err(|_| ScriptError::BadIndex(format!("negative index {i}")))?;
            items.get(i).cloned().ok_or_else(|| {
                ScriptError::BadIndex(format!("index {i} out of bounds ({})", items.len()))
            })
        }
        (Value::Map(m), Value::Str(k)) => m
            .get(k)
            .cloned()
            .ok_or_else(|| ScriptError::BadIndex(format!("missing key {k:?}"))),
        (Value::Str(s), Value::Int(i)) => {
            let i = usize::try_from(*i)
                .map_err(|_| ScriptError::BadIndex(format!("negative index {i}")))?;
            s.chars()
                .nth(i)
                .map(|c| Value::Str(c.to_string()))
                .ok_or_else(|| ScriptError::BadIndex(format!("index {i} beyond string end")))
        }
        (Value::Bytes(b), Value::Int(i)) => {
            let i = usize::try_from(*i)
                .map_err(|_| ScriptError::BadIndex(format!("negative index {i}")))?;
            b.get(i).map(|x| Value::Int(i64::from(*x))).ok_or_else(|| {
                ScriptError::BadIndex(format!("index {i} out of bounds ({})", b.len()))
            })
        }
        (c, i) => Err(ScriptError::BadIndex(format!(
            "cannot index {} with {}",
            c.kind(),
            i.kind()
        ))),
    }
}

// ---------------------------------------------------------------------------
// Fuel pricing shared by the interpreter and the bytecode VM
// ---------------------------------------------------------------------------

/// Fuel burned on entry to every statement and every expression. The
/// compiler attaches it to each construct's first instruction, so the
/// VM's per-pc `costs` (and the static bound read off them) carry it too.
pub(crate) const STEP_FUEL: u64 = 1;

/// Fuel burned by every `self.*` host call, after its arguments are
/// evaluated and before the host runs.
pub(crate) const HOST_CALL_FUEL: u64 = 8;

/// The fuel weight of one builtin argument: like [`Value::tree_size`], but
/// strings and byte arrays count by length (one step per 8 bytes) instead
/// of as scalars, so size-proportional builtins (`push` of big strings,
/// `coerce`, `split`, ...) cannot traverse megabytes for constant fuel.
fn arg_cost(v: &Value) -> u64 {
    match v {
        Value::Str(s) => 1 + s.len() as u64 / 8,
        Value::Bytes(b) => 1 + b.len() as u64 / 8,
        Value::List(items) => 1 + items.iter().map(arg_cost).sum::<u64>(),
        Value::Map(m) => 1 + m.values().map(arg_cost).sum::<u64>(),
        _ => 1,
    }
}

/// Input-size surcharge burned before any builtin dispatch (known or not).
pub(crate) fn call_surcharge(vals: &[Value]) -> u64 {
    vals.iter().map(arg_cost).sum::<u64>() / 4
}

/// Output-size surcharge for builtins whose result is much larger than
/// their arguments. Only `range` qualifies today; oversized requests are
/// left to the builtin's own guard so its error (not fuel exhaustion)
/// stays the observable outcome.
pub(crate) fn out_surcharge(id: BuiltinId, args: &[Value]) -> u64 {
    if id != BuiltinId::Range {
        return 0;
    }
    let (lo, hi) = match args {
        [Value::Int(hi)] => (0, *hi),
        [Value::Int(lo), Value::Int(hi)] => (*lo, *hi),
        _ => return 0,
    };
    let count = hi.saturating_sub(lo);
    if (0..=1 << 20).contains(&count) {
        count as u64 / 4
    } else {
        0
    }
}

/// Allocation surcharge for operators that build output proportional to
/// their inputs: string/list/bytes concatenation and string repetition.
/// Burned after both operands are evaluated, before the operator runs.
/// Shapes the operator would reject (or that trip its own size guard)
/// cost nothing — the operator's error stays the observable outcome.
pub(crate) fn alloc_surcharge(op: BinaryOp, lhs: &Value, rhs: &Value) -> u64 {
    match (op, lhs, rhs) {
        (BinaryOp::Add, Value::Str(_), Value::Str(b)) => b.len() as u64 / 8,
        (BinaryOp::Add, Value::Bytes(_), Value::Bytes(b)) => b.len() as u64 / 8,
        (BinaryOp::Add, Value::List(_), Value::List(b)) => b.len() as u64 / 4,
        (BinaryOp::Mul, Value::Str(s), Value::Int(n)) => match usize::try_from(*n) {
            Ok(n) if s.len().saturating_mul(n) <= 1 << 20 => s.len() as u64 * n as u64 / 8,
            _ => 0,
        },
        _ => 0,
    }
}

// ---------------------------------------------------------------------------
// Builtins
// ---------------------------------------------------------------------------

fn want_str<'a>(name: &str, v: &'a Value) -> Result<&'a str, ScriptError> {
    v.as_str().ok_or_else(|| ScriptError::BuiltinArgs {
        name: name.into(),
        detail: format!("expected a string, got {}", v.kind()),
    })
}

fn want_int(name: &str, v: &Value) -> Result<i64, ScriptError> {
    v.as_int().ok_or_else(|| ScriptError::BuiltinArgs {
        name: name.into(),
        detail: format!("expected an int, got {}", v.kind()),
    })
}

/// Dispatches a pure builtin call. The `id` is pre-resolved; callers burn
/// [`call_surcharge`] (and any [`out_surcharge`]) before dispatching.
pub(crate) fn call_builtin(id: BuiltinId, mut args: Vec<Value>) -> Result<Value, ScriptError> {
    let row = id.row();
    let name = row.name;
    if !row.arities.contains(&args.len()) {
        return Err(ScriptError::BuiltinArgs {
            name: name.into(),
            detail: row.arity_detail(args.len()),
        });
    }
    match id {
        BuiltinId::Len => {
            let n = match &args[0] {
                Value::Str(s) => s.chars().count(),
                Value::Bytes(b) => b.len(),
                Value::List(items) => items.len(),
                Value::Map(m) => m.len(),
                other => {
                    return Err(ScriptError::BuiltinArgs {
                        name: name.into(),
                        detail: format!("{} has no length", other.kind()),
                    })
                }
            };
            Ok(Value::Int(n as i64))
        }
        BuiltinId::Typeof => Ok(Value::Str(args[0].kind().name().to_owned())),
        BuiltinId::Coerce => {
            let kind_name = want_str(name, &args[1])?;
            let kind = ValueKind::from_name(kind_name).ok_or_else(|| ScriptError::BuiltinArgs {
                name: name.into(),
                detail: format!("unknown kind {kind_name:?}"),
            })?;
            let v = args.swap_remove(0).coerce(kind)?;
            // To a list, a scalar is wrapped and each map entry paired.
            if kind == ValueKind::List {
                return nested_at_most(v, 0);
            }
            Ok(v)
        }
        BuiltinId::Str => Ok(args.swap_remove(0).coerce(ValueKind::Str)?),
        BuiltinId::Int => Ok(args.swap_remove(0).coerce(ValueKind::Int)?),
        BuiltinId::Float => Ok(args.swap_remove(0).coerce(ValueKind::Float)?),
        BuiltinId::Bool => Ok(args.swap_remove(0).coerce(ValueKind::Bool)?),
        BuiltinId::Push => {
            let v = args.pop().expect("arity 2");
            let mut list = args.pop().expect("arity 2");
            match list.as_list_mut() {
                Some(items) => {
                    items.push(nested_at_most(v, 1)?);
                    Ok(list)
                }
                None => Err(ScriptError::BuiltinArgs {
                    name: name.into(),
                    detail: format!("first argument must be a list, got {}", list.kind()),
                }),
            }
        }
        BuiltinId::Pop => {
            let mut list = args.pop().expect("arity 1");
            match list.as_list_mut() {
                Some(items) => {
                    items.pop().ok_or_else(|| ScriptError::BuiltinArgs {
                        name: name.into(),
                        detail: "cannot pop an empty list".into(),
                    })?;
                    Ok(list)
                }
                None => Err(ScriptError::BuiltinArgs {
                    name: name.into(),
                    detail: format!("expected a list, got {}", list.kind()),
                }),
            }
        }
        BuiltinId::Last => match &args[0] {
            Value::List(items) => items
                .last()
                .cloned()
                .ok_or_else(|| ScriptError::BuiltinArgs {
                    name: name.into(),
                    detail: "empty list has no last element".into(),
                }),
            other => Err(ScriptError::BuiltinArgs {
                name: name.into(),
                detail: format!("expected a list, got {}", other.kind()),
            }),
        },
        BuiltinId::Contains => {
            let needle = &args[1];
            let found = match &args[0] {
                Value::List(items) => items.contains(needle),
                Value::Map(m) => match needle.as_str() {
                    Some(k) => m.contains_key(k),
                    None => false,
                },
                Value::Str(s) => match needle.as_str() {
                    Some(sub) => s.contains(sub),
                    None => false,
                },
                other => {
                    return Err(ScriptError::BuiltinArgs {
                        name: name.into(),
                        detail: format!("{} is not a container", other.kind()),
                    })
                }
            };
            Ok(Value::Bool(found))
        }
        BuiltinId::Keys => match &args[0] {
            Value::Map(m) => Ok(Value::List(m.keys().cloned().map(Value::Str).collect())),
            other => Err(ScriptError::BuiltinArgs {
                name: name.into(),
                detail: format!("expected a map, got {}", other.kind()),
            }),
        },
        BuiltinId::Values => match args.swap_remove(0) {
            Value::Map(m) => Ok(Value::List(m.into_values().collect())),
            other => Err(ScriptError::BuiltinArgs {
                name: name.into(),
                detail: format!("expected a map, got {}", other.kind()),
            }),
        },
        BuiltinId::Set => {
            let v = args.pop().expect("arity 3");
            let key = args.pop().expect("arity 3");
            let mut m = args.pop().expect("arity 3");
            match (&mut m, key) {
                (Value::Map(m), Value::Str(k)) => {
                    m.insert(k, nested_at_most(v, 1)?);
                }
                (Value::List(items), Value::Int(i)) => {
                    let i = usize::try_from(i)
                        .map_err(|_| ScriptError::BadIndex(format!("negative index {i}")))?;
                    if i >= items.len() {
                        return Err(ScriptError::BadIndex(format!(
                            "index {i} out of bounds ({})",
                            items.len()
                        )));
                    }
                    items[i] = nested_at_most(v, 1)?;
                }
                (other, key) => {
                    return Err(ScriptError::BuiltinArgs {
                        name: name.into(),
                        detail: format!("cannot set {} on {}", key.kind(), other.kind()),
                    })
                }
            }
            Ok(m)
        }
        BuiltinId::Remove => {
            let key = args.pop().expect("arity 2");
            let mut m = args.pop().expect("arity 2");
            match (&mut m, key) {
                (Value::Map(m), Value::Str(k)) => {
                    m.remove(&k);
                }
                (Value::List(items), Value::Int(i)) => {
                    let i = usize::try_from(i)
                        .map_err(|_| ScriptError::BadIndex(format!("negative index {i}")))?;
                    if i >= items.len() {
                        return Err(ScriptError::BadIndex(format!(
                            "index {i} out of bounds ({})",
                            items.len()
                        )));
                    }
                    items.remove(i);
                }
                (other, key) => {
                    return Err(ScriptError::BuiltinArgs {
                        name: name.into(),
                        detail: format!("cannot remove {} from {}", key.kind(), other.kind()),
                    })
                }
            }
            Ok(m)
        }
        BuiltinId::Range => {
            let (lo, hi) = match &args[..] {
                [hi] => (0, want_int(name, hi)?),
                [lo, hi] => (want_int(name, lo)?, want_int(name, hi)?),
                _ => unreachable!("range accepts 1 or 2 arguments"),
            };
            let count = hi.saturating_sub(lo);
            if count > 1 << 20 {
                return Err(ScriptError::BuiltinArgs {
                    name: name.into(),
                    detail: format!("range of {count} elements exceeds the 1 Mi limit"),
                });
            }
            Ok(Value::List((lo..hi).map(Value::Int).collect()))
        }
        BuiltinId::Substr => {
            let s = want_str(name, &args[0])?;
            let start = want_int(name, &args[1])?;
            let count = want_int(name, &args[2])?;
            let start = usize::try_from(start).unwrap_or(0);
            let count = usize::try_from(count).unwrap_or(0);
            Ok(Value::Str(s.chars().skip(start).take(count).collect()))
        }
        BuiltinId::Split => {
            let s = want_str(name, &args[0])?;
            let sep = want_str(name, &args[1])?;
            if sep.is_empty() {
                return Err(ScriptError::BuiltinArgs {
                    name: name.into(),
                    detail: "separator must be non-empty".into(),
                });
            }
            Ok(Value::List(
                s.split(sep).map(|p| Value::Str(p.to_owned())).collect(),
            ))
        }
        BuiltinId::Join => {
            let sep = want_str(name, &args[1])?.to_owned();
            match &args[0] {
                Value::List(items) => {
                    let parts: Result<Vec<&str>, _> = items
                        .iter()
                        .map(|v| {
                            v.as_str().ok_or_else(|| ScriptError::BuiltinArgs {
                                name: name.into(),
                                detail: format!("join requires strings, found {}", v.kind()),
                            })
                        })
                        .collect();
                    Ok(Value::Str(parts?.join(&sep)))
                }
                other => Err(ScriptError::BuiltinArgs {
                    name: name.into(),
                    detail: format!("expected a list, got {}", other.kind()),
                }),
            }
        }
        BuiltinId::Upper => Ok(Value::Str(want_str(name, &args[0])?.to_uppercase())),
        BuiltinId::Lower => Ok(Value::Str(want_str(name, &args[0])?.to_lowercase())),
        BuiltinId::Trim => Ok(Value::Str(want_str(name, &args[0])?.trim().to_owned())),
        BuiltinId::Abs => match &args[0] {
            Value::Int(i) => checked_int(i.checked_abs(), "abs"),
            Value::Float(x) => Ok(Value::Float(x.abs())),
            other => Err(ScriptError::BuiltinArgs {
                name: name.into(),
                detail: format!("expected a number, got {}", other.kind()),
            }),
        },
        BuiltinId::Min | BuiltinId::Max => {
            let ord = compare(&args[0], &args[1]).ok_or_else(|| ScriptError::BuiltinArgs {
                name: name.into(),
                detail: format!("cannot compare {} with {}", args[0].kind(), args[1].kind()),
            })?;
            let pick_first = if id == BuiltinId::Min {
                ord.is_le()
            } else {
                ord.is_ge()
            };
            Ok(if pick_first {
                args.swap_remove(0)
            } else {
                args.swap_remove(1)
            })
        }
        BuiltinId::Fail => {
            let msg = match &args[0] {
                Value::Str(s) => s.clone(),
                other => other.to_string(),
            };
            Err(ScriptError::Raised(msg))
        }
        BuiltinId::Bytes => {
            let hex = want_str(name, &args[0])?;
            if hex.len() % 2 != 0 {
                return Err(ScriptError::BuiltinArgs {
                    name: name.into(),
                    detail: "hex string must have even length".into(),
                });
            }
            let raw: Result<Vec<u8>, _> = (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16))
                .collect();
            raw.map(Value::Bytes).map_err(|e| ScriptError::BuiltinArgs {
                name: name.into(),
                detail: format!("bad hex: {e}"),
            })
        }
        BuiltinId::ObjectRef => {
            let s = want_str(name, &args[0])?;
            s.parse()
                .map(Value::ObjectRef)
                .map_err(|_| ScriptError::BuiltinArgs {
                    name: name.into(),
                    detail: format!("{s:?} is not an object id"),
                })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Program;

    fn run(src: &str, args: &[Value]) -> Result<Value, ScriptError> {
        let p = Program::parse(src).unwrap_or_else(|e| panic!("parse {src:?}: {e}"));
        let mut host = NullHost;
        Evaluator::new(&mut host).run(&p, args)
    }

    fn run_ok(src: &str, args: &[Value]) -> Value {
        run(src, args).unwrap_or_else(|e| panic!("run {src:?}: {e}"))
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(run_ok("return 1 + 2 * 3;", &[]), Value::Int(7));
        assert_eq!(run_ok("return (1 + 2) * 3;", &[]), Value::Int(9));
        assert_eq!(run_ok("return 7 % 3;", &[]), Value::Int(1));
        assert_eq!(run_ok("return 1.5 + 1;", &[]), Value::Float(2.5));
        assert_eq!(run_ok("return 7 / 2;", &[]), Value::Int(3));
        assert_eq!(run_ok("return 7.0 / 2;", &[]), Value::Float(3.5));
        assert_eq!(run_ok("return -(3 + 4);", &[]), Value::Int(-7));
    }

    #[test]
    fn string_and_list_concat() {
        assert_eq!(run_ok("return \"a\" + \"b\";", &[]), Value::from("ab"));
        assert_eq!(
            run_ok("return [1] + [2, 3];", &[]),
            Value::list([Value::Int(1), Value::Int(2), Value::Int(3)])
        );
        assert_eq!(run_ok("return \"ab\" * 3;", &[]), Value::from("ababab"));
    }

    #[test]
    fn division_by_zero() {
        assert_eq!(run("return 1 / 0;", &[]), Err(ScriptError::DivisionByZero));
        assert_eq!(run("return 1 % 0;", &[]), Err(ScriptError::DivisionByZero));
        // Float division by zero is IEEE.
        assert_eq!(
            run_ok("return 1.0 / 0.0;", &[]),
            Value::Float(f64::INFINITY)
        );
    }

    #[test]
    fn integer_overflow_is_an_error() {
        assert!(matches!(
            run("return 9223372036854775807 + 1;", &[]),
            Err(ScriptError::Value(ValueError::NumericRange(_)))
        ));
    }

    #[test]
    fn comparisons() {
        assert_eq!(run_ok("return 1 < 2;", &[]), Value::Bool(true));
        assert_eq!(run_ok("return 2 <= 1;", &[]), Value::Bool(false));
        assert_eq!(run_ok("return 1.5 > 1;", &[]), Value::Bool(true));
        assert_eq!(run_ok("return \"a\" < \"b\";", &[]), Value::Bool(true));
        assert_eq!(run_ok("return 1 == 1.0;", &[]), Value::Bool(false));
        assert_eq!(run_ok("return [1] == [1];", &[]), Value::Bool(true));
        assert!(run("return [] < [];", &[]).is_err());
    }

    #[test]
    fn short_circuit() {
        // Division by zero on the right side must not be evaluated.
        assert_eq!(
            run_ok("return false && (1 / 0 == 0);", &[]),
            Value::Bool(false)
        );
        assert_eq!(
            run_ok("return true || (1 / 0 == 0);", &[]),
            Value::Bool(true)
        );
    }

    #[test]
    fn variables_and_scoping() {
        assert_eq!(
            run_ok("let x = 1; if (true) { let x = 2; } return x;", &[]),
            Value::Int(1)
        );
        assert_eq!(
            run_ok("let x = 1; if (true) { x = 2; } return x;", &[]),
            Value::Int(2)
        );
        assert!(matches!(
            run("return missing;", &[]),
            Err(ScriptError::UndefinedVariable(_))
        ));
    }

    #[test]
    fn params_and_args() {
        assert_eq!(
            run_ok(
                "param a; param b; return a + b;",
                &[Value::Int(1), Value::Int(2)]
            ),
            Value::Int(3)
        );
        // Missing params are null; args still reachable.
        assert_eq!(run_ok("param a; return a;", &[]), Value::Null);
        assert_eq!(
            run_ok("return args[1];", &[Value::Int(10), Value::Int(20)]),
            Value::Int(20)
        );
        assert_eq!(run_ok("return len(args);", &[Value::Null]), Value::Int(1));
    }

    #[test]
    fn while_loop_with_break_continue() {
        let src = "
            let total = 0;
            let i = 0;
            while (true) {
                i = i + 1;
                if (i > 10) { break; }
                if (i % 2 == 0) { continue; }
                total = total + i;
            }
            return total;";
        assert_eq!(run_ok(src, &[]), Value::Int(25)); // 1+3+5+7+9
    }

    #[test]
    fn for_loops_over_everything() {
        assert_eq!(
            run_ok(
                "let s = 0; for (i in range(5)) { s = s + i; } return s;",
                &[]
            ),
            Value::Int(10)
        );
        assert_eq!(
            run_ok(
                "let s = 0; for (i in range(2, 5)) { s = s + i; } return s;",
                &[]
            ),
            Value::Int(9)
        );
        assert_eq!(
            run_ok(
                "let out = \"\"; for (k in {\"b\": 1, \"a\": 2}) { out = out + k; } return out;",
                &[]
            ),
            Value::from("ab") // map keys in sorted order
        );
        assert_eq!(
            run_ok(
                "let n = 0; for (c in \"hey\") { n = n + 1; } return n;",
                &[]
            ),
            Value::Int(3)
        );
        assert_eq!(
            run_ok(
                "let s = 0; for (b in bytes(\"0102\")) { s = s + b; } return s;",
                &[]
            ),
            Value::Int(3)
        );
        assert!(run("for (x in 5) { }", &[]).is_err());
    }

    #[test]
    fn index_read_and_write() {
        assert_eq!(
            run_ok("let xs = [1, 2, 3]; return xs[1];", &[]),
            Value::Int(2)
        );
        assert_eq!(
            run_ok("let xs = [1, 2, 3]; xs[1] = 9; return xs;", &[]),
            Value::list([Value::Int(1), Value::Int(9), Value::Int(3)])
        );
        assert_eq!(
            run_ok(
                "let m = {\"a\": [1, 2]}; m[\"a\"][0] = 7; return m[\"a\"][0];",
                &[]
            ),
            Value::Int(7)
        );
        // Map assignment inserts.
        assert_eq!(
            run_ok("let m = {}; m[\"new\"] = 1; return m[\"new\"];", &[]),
            Value::Int(1)
        );
        assert!(matches!(
            run("let xs = [1]; return xs[5];", &[]),
            Err(ScriptError::BadIndex(_))
        ));
        assert!(matches!(
            run("let xs = [1]; xs[5] = 0;", &[]),
            Err(ScriptError::BadIndex(_))
        ));
        assert!(matches!(
            run("let m = {\"a\": 1}; return m[\"b\"];", &[]),
            Err(ScriptError::BadIndex(_))
        ));
        assert_eq!(run_ok("return \"héllo\"[1];", &[]), Value::from("é"));
    }

    #[test]
    fn builtins() {
        assert_eq!(run_ok("return len(\"héllo\");", &[]), Value::Int(5));
        assert_eq!(run_ok("return typeof(3.5);", &[]), Value::from("float"));
        assert_eq!(
            run_ok("return coerce(\"<b>42</b>\", \"int\");", &[]),
            Value::Int(42)
        );
        assert_eq!(run_ok("return str(12) + \"!\";", &[]), Value::from("12!"));
        assert_eq!(run_ok("return int(\"7\") + 1;", &[]), Value::Int(8));
        assert_eq!(run_ok("return bool(\"yes\");", &[]), Value::Bool(true));
        assert_eq!(
            run_ok("return push([1], 2);", &[]),
            Value::list([Value::Int(1), Value::Int(2)])
        );
        assert_eq!(
            run_ok("return pop([1, 2]);", &[]),
            Value::list([Value::Int(1)])
        );
        assert_eq!(run_ok("return last([1, 2]);", &[]), Value::Int(2));
        assert_eq!(
            run_ok("return contains([1, 2], 2);", &[]),
            Value::Bool(true)
        );
        assert_eq!(
            run_ok("return contains({\"k\": 1}, \"k\");", &[]),
            Value::Bool(true)
        );
        assert_eq!(
            run_ok("return contains(\"hello\", \"ell\");", &[]),
            Value::Bool(true)
        );
        assert_eq!(
            run_ok("return keys({\"b\": 1, \"a\": 2});", &[]),
            Value::list([Value::from("a"), Value::from("b")])
        );
        assert_eq!(
            run_ok("return values({\"a\": 2});", &[]),
            Value::list([Value::Int(2)])
        );
        assert_eq!(
            run_ok("return set({}, \"k\", 5);", &[]),
            Value::map([("k", Value::Int(5))])
        );
        assert_eq!(
            run_ok("return remove({\"k\": 5}, \"k\");", &[]),
            Value::map::<String, _>([])
        );
        assert_eq!(
            run_ok("return set([1, 2], 0, 9);", &[]),
            Value::list([Value::Int(9), Value::Int(2)])
        );
        assert_eq!(
            run_ok("return remove([1, 2], 0);", &[]),
            Value::list([Value::Int(2)])
        );
        assert_eq!(
            run_ok("return substr(\"hello\", 1, 3);", &[]),
            Value::from("ell")
        );
        assert_eq!(
            run_ok("return split(\"a,b\", \",\");", &[]),
            Value::list([Value::from("a"), Value::from("b")])
        );
        assert_eq!(
            run_ok("return join([\"a\", \"b\"], \"-\");", &[]),
            Value::from("a-b")
        );
        assert_eq!(run_ok("return upper(\"ab\");", &[]), Value::from("AB"));
        assert_eq!(run_ok("return lower(\"AB\");", &[]), Value::from("ab"));
        assert_eq!(run_ok("return trim(\"  x \");", &[]), Value::from("x"));
        assert_eq!(run_ok("return abs(-4);", &[]), Value::Int(4));
        assert_eq!(run_ok("return abs(-1.5);", &[]), Value::Float(1.5));
        assert_eq!(run_ok("return min(3, 1);", &[]), Value::Int(1));
        assert_eq!(run_ok("return max(3, 1.5);", &[]), Value::Int(3));
        assert!(matches!(
            run("return nosuch(1);", &[]),
            Err(ScriptError::UnknownBuiltin(_))
        ));
        assert!(matches!(
            run("return len(1, 2);", &[]),
            Err(ScriptError::BuiltinArgs { .. })
        ));
    }

    #[test]
    fn fail_builtin_raises() {
        assert_eq!(
            run("fail(\"boom\");", &[]),
            Err(ScriptError::Raised("boom".into()))
        );
    }

    #[test]
    fn fuel_exhaustion_stops_infinite_loops() {
        let p = Program::parse("while (true) { }").unwrap();
        let mut host = NullHost;
        let mut ev = Evaluator::with_fuel(&mut host, 10_000);
        assert_eq!(
            ev.run(&p, &[]),
            Err(ScriptError::FuelExhausted { budget: 10_000 })
        );
        assert_eq!(ev.fuel_used(), 10_000);
    }

    #[test]
    fn fuel_scales_with_work() {
        let p =
            Program::parse("let s = 0; for (i in range(100)) { s = s + i; } return s;").unwrap();
        let mut host = NullHost;
        let mut ev = Evaluator::new(&mut host);
        ev.run(&p, &[]).unwrap();
        let small = ev.fuel_used();
        let p2 =
            Program::parse("let s = 0; for (i in range(1000)) { s = s + i; } return s;").unwrap();
        let mut host2 = NullHost;
        let mut ev2 = Evaluator::new(&mut host2);
        ev2.run(&p2, &[]).unwrap();
        assert!(
            ev2.fuel_used() > small * 5,
            "fuel must scale with iterations"
        );
    }

    #[test]
    fn null_host_rejects_host_calls() {
        assert!(matches!(
            run("self.anything(1);", &[]),
            Err(ScriptError::Host(_))
        ));
    }

    #[test]
    fn host_calls_reach_the_host() {
        struct Recorder(Vec<(String, Vec<Value>)>);
        impl HostContext for Recorder {
            fn host_call(&mut self, name: &str, args: &[Value]) -> Result<Value, ScriptError> {
                self.0.push((name.to_owned(), args.to_vec()));
                Ok(Value::Int(self.0.len() as i64))
            }
        }
        let p = Program::parse("let a = self.first(1, 2); return self.second(a);").unwrap();
        let mut host = Recorder(Vec::new());
        let out = Evaluator::new(&mut host).run(&p, &[]).unwrap();
        assert_eq!(out, Value::Int(2));
        assert_eq!(host.0.len(), 2);
        assert_eq!(host.0[0].0, "first");
        assert_eq!(host.0[0].1, vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(host.0[1].1, vec![Value::Int(1)]);
    }

    #[test]
    fn falls_off_end_returns_null() {
        assert_eq!(run_ok("let x = 1;", &[]), Value::Null);
        assert_eq!(run_ok("return;", &[]), Value::Null);
    }

    #[test]
    fn range_guard_rejects_huge_ranges() {
        assert!(matches!(
            run("return range(99999999);", &[]),
            Err(ScriptError::BuiltinArgs { .. })
        ));
    }

    #[test]
    fn string_repeat_guard() {
        assert!(run("return \"aaaa\" * 9999999;", &[]).is_err());
    }

    #[test]
    fn neg_unary_on_wrong_kind() {
        assert!(matches!(
            run("return -\"x\";", &[]),
            Err(ScriptError::TypeMismatch { .. })
        ));
        assert_eq!(run_ok("return !\"x\";", &[]), Value::Bool(false));
        assert_eq!(run_ok("return !null;", &[]), Value::Bool(true));
    }
}

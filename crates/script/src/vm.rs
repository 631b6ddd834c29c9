//! Bytecode virtual machine.
//!
//! Executes a [`CompiledProgram`] with *exact* observational equivalence
//! to [`crate::eval::Evaluator`]: the same results and errors, the same
//! host-call sequence, and the same `fuel_used()` at every exhaustion
//! point. Value semantics cannot drift because every operator, builtin,
//! and surcharge is the same shared function the interpreter calls
//! (`binary`, `index`, `call_builtin`, `iter_items`, ...); only the
//! control and fuel plumbing differ.
//!
//! ## Fuel discipline
//!
//! Before each instruction the VM burns that instruction's own static
//! cost, `costs[pc]`, and a value-dependent surcharge (argument size,
//! allocation size) is burned where the interpreter burns it. The
//! compiler attaches each of the interpreter's burns to the instruction
//! that performs it, so the burn sequence along any path is the
//! interpreter's, and a run exhausts at exactly the interpreter's
//! instruction with exactly its side-effect prefix. A failed burn pins
//! `fuel_used()` to the full budget, as the interpreter's does.
//!
//! ## One frame per run
//!
//! A run keeps its locals and its operand stack in one frame, allocated
//! once with room for `n_locals + max_stack` values: locals in
//! `frame[..n_locals]`, the operand stack above them. Slot 0 holds the
//! `args` list only when the body reads it (`reads_args`, which
//! [`crate::verify`] checks against the instructions); otherwise the
//! arguments are copied only into the parameters' slots. Popping below the
//! locals panics (a compiler invariant that [`crate::verify`] proves
//! unreachable) rather than take a local. A host call borrows its
//! arguments as a slice of the frame (`host_call_c` as a one-element
//! slice of the constant pool), then truncates the frame and pushes the
//! result. The frame dies with the run, so nested runs and error exits
//! share nothing.

use std::collections::BTreeMap;

use mrom_value::Value;

use crate::compile::{CompiledProgram, Instr};
use crate::error::ScriptError;
use crate::eval::{
    alloc_surcharge, binary, call_builtin, call_surcharge, index, iter_items, nested_at_most,
    out_surcharge, unary, write_path, HostContext, DEFAULT_FUEL,
};

/// Int⊗Int fast path for the binary arms: the exact result
/// [`crate::eval`]'s `binary` would produce, or `None` for any case that
/// errors or is non-integral (overflow, division by zero) — those fall
/// through to the shared slow path so the error text and fuel surcharges
/// stay identical. Never sees `And`/`Or` (compiled to short-circuit
/// checks, not `Binary`).
#[inline]
fn int_binary(op: crate::ast::BinaryOp, a: i64, b: i64) -> Option<Value> {
    use crate::ast::BinaryOp::*;
    Some(match op {
        Add => Value::Int(a.checked_add(b)?),
        Sub => Value::Int(a.checked_sub(b)?),
        Mul => Value::Int(a.checked_mul(b)?),
        Div => Value::Int(a.checked_div(b)?),
        Rem => Value::Int(a.checked_rem(b)?),
        Eq => Value::Bool(a == b),
        Ne => Value::Bool(a != b),
        Lt => Value::Bool(a < b),
        Le => Value::Bool(a <= b),
        Gt => Value::Bool(a > b),
        Ge => Value::Bool(a >= b),
        And | Or => return None,
    })
}

/// A fuel-metered bytecode executor bound to a host. Mirrors
/// [`crate::eval::Evaluator`]'s API so the two engines are drop-in
/// interchangeable.
///
/// # Example
///
/// ```
/// use mrom_script::{NullHost, Program, Vm};
/// use mrom_value::Value;
///
/// # fn main() -> Result<(), mrom_script::ScriptError> {
/// let p = Program::parse("let s = 0; for (i in range(5)) { s = s + i; } return s;")?;
/// let mut host = NullHost;
/// let out = Vm::new(&mut host).run(&p.compiled(), &[])?;
/// assert_eq!(out, Value::Int(10));
/// # Ok(())
/// # }
/// ```
pub struct Vm<'h, H: HostContext + ?Sized> {
    host: &'h mut H,
    budget: u64,
    fuel: u64,
    host_calls: u64,
}

impl<'h, H: HostContext + ?Sized> Vm<'h, H> {
    /// Binds a VM to `host` with [`DEFAULT_FUEL`].
    pub fn new(host: &'h mut H) -> Self {
        Self::with_fuel(host, DEFAULT_FUEL)
    }

    /// Binds a VM with an explicit fuel budget.
    pub fn with_fuel(host: &'h mut H, fuel: u64) -> Self {
        Vm {
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
    pub fn host_calls(&self) -> u64 {
        self.host_calls
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

    /// Runs a compiled program with the given argument list. Argument
    /// binding, return behaviour, and every error match
    /// [`crate::eval::Evaluator::run`] exactly.
    ///
    /// # Errors
    ///
    /// Any [`ScriptError`] raised during execution, including
    /// [`ScriptError::FuelExhausted`] at precisely the point the
    /// interpreter would exhaust.
    pub fn run(&mut self, cp: &CompiledProgram, args: &[Value]) -> Result<Value, ScriptError> {
        let n_locals = cp.n_locals as usize;
        let mut frame: Vec<Value> = Vec::with_capacity(n_locals + cp.max_stack as usize);
        frame.resize(n_locals, Value::Null);
        // `args` is built only for a body that reads it; unread, slot 0
        // stays `Null`, which no instruction observes.
        if cp.reads_args {
            if let Some(slot0) = frame.first_mut() {
                *slot0 = Value::List(args.to_vec());
            }
        }
        for (i, &slot) in cp.param_slots.iter().enumerate() {
            frame[slot as usize] = args.get(i).cloned().unwrap_or(Value::Null);
        }

        let mut iters: Vec<std::vec::IntoIter<Value>> = Vec::new();
        let mut pc: usize = 0;

        // The frame index of the top `n` operands; never below the locals.
        macro_rules! operands {
            ($n:expr) => {
                match frame.len().checked_sub($n as usize) {
                    Some(at) if at >= n_locals => at,
                    _ => underflow(),
                }
            };
        }
        macro_rules! pop {
            () => {{
                if frame.len() <= n_locals {
                    underflow();
                }
                frame.pop().unwrap_or_else(|| underflow())
            }};
        }

        loop {
            let instr = cp.instrs[pc];
            self.burn(u64::from(cp.costs[pc]))?;
            match instr {
                Instr::Nop => {}
                Instr::LoadConst(i) => frame.push(cp.consts[i as usize].clone()),
                Instr::LoadLocal(s) => frame.push(frame[s as usize].clone()),
                Instr::StoreLocal(s) => frame[s as usize] = pop!(),
                Instr::LoadUndef(n) => {
                    return Err(ScriptError::UndefinedVariable(cp.names[n as usize].clone()));
                }
                Instr::StoreUndef(n) => {
                    let _rhs = pop!();
                    return Err(ScriptError::UndefinedVariable(cp.names[n as usize].clone()));
                }
                Instr::Pop => {
                    let _ = pop!();
                }
                Instr::Unary(op) => {
                    let v = pop!();
                    let out = unary(op, v)?;
                    frame.push(out);
                }
                Instr::Binary(op) => {
                    let rhs = pop!();
                    let lhs = pop!();
                    if let (Value::Int(x), Value::Int(y)) = (&lhs, &rhs) {
                        if let Some(v) = int_binary(op, *x, *y) {
                            frame.push(v);
                            pc += 1;
                            continue;
                        }
                    }
                    self.burn(alloc_surcharge(op, &lhs, &rhs))?;
                    let out = binary(op, lhs, rhs)?;
                    frame.push(out);
                }
                Instr::BinaryLL { op, a, b } => {
                    if let (Value::Int(x), Value::Int(y)) = (&frame[a as usize], &frame[b as usize])
                    {
                        if let Some(v) = int_binary(op, *x, *y) {
                            frame.push(v);
                            pc += 1;
                            continue;
                        }
                    }
                    let lhs = frame[a as usize].clone();
                    let rhs = frame[b as usize].clone();
                    self.burn(alloc_surcharge(op, &lhs, &rhs))?;
                    let out = binary(op, lhs, rhs)?;
                    frame.push(out);
                }
                Instr::BinaryLC { op, a, c } => {
                    if let (Value::Int(x), Value::Int(y)) =
                        (&frame[a as usize], &cp.consts[c as usize])
                    {
                        if let Some(v) = int_binary(op, *x, *y) {
                            frame.push(v);
                            pc += 1;
                            continue;
                        }
                    }
                    let lhs = frame[a as usize].clone();
                    let rhs = cp.consts[c as usize].clone();
                    self.burn(alloc_surcharge(op, &lhs, &rhs))?;
                    let out = binary(op, lhs, rhs)?;
                    frame.push(out);
                }
                Instr::BinaryTL { op, b } => {
                    let lhs = pop!();
                    if let (Value::Int(x), Value::Int(y)) = (&lhs, &frame[b as usize]) {
                        if let Some(v) = int_binary(op, *x, *y) {
                            frame.push(v);
                            pc += 1;
                            continue;
                        }
                    }
                    let rhs = frame[b as usize].clone();
                    self.burn(alloc_surcharge(op, &lhs, &rhs))?;
                    let out = binary(op, lhs, rhs)?;
                    frame.push(out);
                }
                Instr::BinaryTC { op, c } => {
                    let lhs = pop!();
                    if let (Value::Int(x), Value::Int(y)) = (&lhs, &cp.consts[c as usize]) {
                        if let Some(v) = int_binary(op, *x, *y) {
                            frame.push(v);
                            pc += 1;
                            continue;
                        }
                    }
                    let rhs = cp.consts[c as usize].clone();
                    self.burn(alloc_surcharge(op, &lhs, &rhs))?;
                    let out = binary(op, lhs, rhs)?;
                    frame.push(out);
                }
                Instr::Truthy => {
                    let v = pop!();
                    frame.push(Value::Bool(v.truthy()));
                }
                Instr::Jump(t) => {
                    pc = t as usize;
                    continue;
                }
                Instr::JumpIfFalse(t) => {
                    let v = pop!();
                    if !v.truthy() {
                        pc = t as usize;
                        continue;
                    }
                }
                Instr::AndCheck(t) => {
                    let v = pop!();
                    if !v.truthy() {
                        frame.push(Value::Bool(false));
                        pc = t as usize;
                        continue;
                    }
                }
                Instr::OrCheck(t) => {
                    let v = pop!();
                    if v.truthy() {
                        frame.push(Value::Bool(true));
                        pc = t as usize;
                        continue;
                    }
                }
                Instr::Index => {
                    let i = pop!();
                    let b = pop!();
                    let out = index(&b, &i)?;
                    frame.push(out);
                }
                Instr::Call { builtin, argc } => {
                    let vals = frame.split_off(operands!(argc));
                    self.burn(call_surcharge(&vals))?;
                    self.burn(out_surcharge(builtin, &vals))?;
                    let result = call_builtin(builtin, vals)?;
                    frame.push(result);
                }
                Instr::CallUnknown { name, argc } => {
                    let at = operands!(argc);
                    self.burn(call_surcharge(&frame[at..]))?;
                    return Err(ScriptError::UnknownBuiltin(cp.names[name as usize].clone()));
                }
                Instr::HostCall { name, argc } => {
                    let at = operands!(argc);
                    self.host_calls += 1;
                    let out = self
                        .host
                        .host_call(&cp.names[name as usize], &frame[at..])?;
                    frame.truncate(at);
                    frame.push(nested_at_most(out, 0)?);
                }
                Instr::HostCallC { name, c } => {
                    self.host_calls += 1;
                    let out = self.host.host_call(
                        &cp.names[name as usize],
                        std::slice::from_ref(&cp.consts[c as usize]),
                    )?;
                    frame.push(nested_at_most(out, 0)?);
                }
                Instr::MakeList(n) => {
                    let vals = frame.split_off(operands!(n));
                    frame.push(nested_at_most(Value::List(vals), 0)?);
                }
                Instr::MakeMap { keys, n } => {
                    let at = operands!(n);
                    let mut m = BTreeMap::new();
                    for (i, v) in frame.drain(at..).enumerate() {
                        m.insert(cp.names[keys as usize + i].clone(), v);
                    }
                    frame.push(nested_at_most(Value::Map(m), 0)?);
                }
                Instr::AssignPath { root, n_idx } => {
                    // Operands: rhs, then indices outermost-first, which is
                    // the interpreter's path orientation for `write_path`.
                    let at = operands!(n_idx + 1);
                    let (locals, operands) = frame.split_at_mut(at);
                    let rhs = std::mem::take(&mut operands[0]);
                    write_path(&mut locals[root as usize], &operands[1..], rhs)?;
                    frame.truncate(at);
                }
                Instr::AssignPathUndef { name, n_idx } => {
                    frame.truncate(operands!(n_idx + 1));
                    return Err(ScriptError::UndefinedVariable(
                        cp.names[name as usize].clone(),
                    ));
                }
                Instr::AssignErrBadTarget => {
                    return Err(ScriptError::BadIndex(
                        "assignment target must be a variable or index chain".into(),
                    ));
                }
                Instr::AssignErrBadRoot => {
                    return Err(ScriptError::BadIndex(
                        "assignment target must be rooted at a variable".into(),
                    ));
                }
                Instr::IterNew => {
                    let v = pop!();
                    let items = iter_items(v)?;
                    iters.push(items.into_iter());
                }
                Instr::IterNext { slot, end } => {
                    let it = iters
                        .last_mut()
                        .expect("iterator stack: compiler invariant");
                    match it.next() {
                        Some(item) => frame[slot as usize] = item,
                        None => {
                            pc = end as usize;
                            continue;
                        }
                    }
                }
                Instr::IterPop => {
                    iters.pop();
                }
                Instr::LoopControlErr => {
                    return Err(ScriptError::StrayLoopControl);
                }
                Instr::Return => {
                    return Ok(pop!());
                }
                Instr::ReturnNull => {
                    return Ok(Value::Null);
                }
            }
            pc += 1;
        }
    }
}

/// An instruction popped more operands than sit above the locals: a
/// compiler invariant, which [`crate::verify`]'s depth pass proves.
#[cold]
#[inline(never)]
fn underflow() -> ! {
    panic!("operand stack underflow: compiler invariant")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Program;
    use crate::eval::{Evaluator, NullHost};

    /// Runs both engines on `src` with `budget` fuel, asserting identical
    /// outcomes and fuel accounting; returns the shared outcome.
    fn both(src: &str, budget: u64) -> Result<Value, ScriptError> {
        let p = Program::parse(src).unwrap_or_else(|e| panic!("parse {src:?}: {e}"));
        let mut h1 = NullHost;
        let mut interp = Evaluator::with_fuel(&mut h1, budget);
        let a = interp.run(&p, &[]);
        let mut h2 = NullHost;
        let mut vm = Vm::with_fuel(&mut h2, budget);
        let b = vm.run(&p.compiled(), &[]);
        assert_eq!(a, b, "result drift on {src:?} at budget {budget}");
        assert_eq!(
            interp.fuel_used(),
            vm.fuel_used(),
            "fuel drift on {src:?} at budget {budget}"
        );
        b
    }

    #[test]
    fn arithmetic_and_locals_agree() {
        assert_eq!(
            both("let x = 2; let y = 3; return x * y + 1;", 1000).unwrap(),
            Value::Int(7)
        );
    }

    #[test]
    fn loops_and_branches_agree() {
        let src = "let s = 0; let i = 0; \
                   while (i < 10) { if (i % 2 == 0) { s = s + i; } i = i + 1; } \
                   return s;";
        // `%` is not an operator spelling here; use rem-style arithmetic.
        let src = src.replace("i % 2 == 0", "i - (i / 2) * 2 == 0");
        assert_eq!(both(&src, 10_000).unwrap(), Value::Int(20));
    }

    #[test]
    fn exhaustion_points_agree_across_full_budget_sweep() {
        let src = "let s = \"\"; for (i in range(6)) { s = s + str(i); \
                   if (i > 3) { break; } } return s;";
        let p = Program::parse(src).unwrap();
        let full = {
            let mut h = NullHost;
            let mut vm = Vm::new(&mut h);
            vm.run(&p.compiled(), &[]).unwrap();
            vm.fuel_used()
        };
        for budget in 0..=full + 2 {
            let _ = both(src, budget);
        }
    }

    #[test]
    fn undefined_and_stray_control_errors_agree() {
        assert!(matches!(
            both("return nope;", 100),
            Err(ScriptError::UndefinedVariable(_))
        ));
        assert!(matches!(
            both("if (true) { let x = 1; } return x;", 100),
            Err(ScriptError::UndefinedVariable(_))
        ));
        assert!(matches!(
            both("break;", 100),
            Err(ScriptError::StrayLoopControl)
        ));
    }

    #[test]
    fn indexed_assignment_agrees() {
        let src = "let m = {\"a\": [1, 2], \"b\": 0}; m[\"a\"][1] = 9; return m[\"a\"][1];";
        assert_eq!(both(src, 1000).unwrap(), Value::Int(9));

        // Malformed targets are parser-rejected, but `from_parts` can still
        // build them; both engines must raise the same runtime error.
        use crate::ast::{Expr, Stmt};
        let bad_root = Program::from_parts(
            Vec::new(),
            vec![Stmt::Assign(
                Expr::Index(
                    Box::new(Expr::Call(
                        "len".into(),
                        vec![Expr::Literal(Value::from("x"))],
                    )),
                    Box::new(Expr::Literal(Value::Int(0))),
                ),
                Expr::Literal(Value::Int(1)),
            )],
        );
        let bad_target = Program::from_parts(
            Vec::new(),
            vec![Stmt::Assign(
                Expr::Literal(Value::Int(3)),
                Expr::Literal(Value::Int(1)),
            )],
        );
        for p in [bad_root, bad_target] {
            let mut h1 = NullHost;
            let mut interp = Evaluator::new(&mut h1);
            let a = interp.run(&p, &[]);
            let mut h2 = NullHost;
            let mut vm = Vm::new(&mut h2);
            let b = vm.run(&p.compiled(), &[]);
            assert!(matches!(a, Err(ScriptError::BadIndex(_))), "{a:?}");
            assert_eq!(a, b);
            assert_eq!(interp.fuel_used(), vm.fuel_used());
        }
    }

    /// Records every host call and answers each with its ordinal.
    struct Recorder(Vec<(String, Vec<Value>)>);

    impl HostContext for Recorder {
        fn host_call(&mut self, name: &str, args: &[Value]) -> Result<Value, ScriptError> {
            self.0.push((name.to_owned(), args.to_vec()));
            Ok(Value::Int(self.0.len() as i64))
        }
    }

    #[test]
    fn fused_host_call_exhausts_like_the_interpreter_at_every_budget() {
        let p = Program::parse("return self.get(\"count\");").unwrap();
        let cp = p.compiled();
        let mut budget = 0;
        let full = loop {
            let mut r1 = Recorder(Vec::new());
            let mut interp = Evaluator::with_fuel(&mut r1, budget);
            let a = interp.run(&p, &[]);
            let mut r2 = Recorder(Vec::new());
            let mut vm = Vm::with_fuel(&mut r2, budget);
            let b = vm.run(&cp, &[]);
            assert_eq!(a, b, "result drift at budget {budget}");
            assert_eq!(interp.fuel_used(), vm.fuel_used(), "fuel drift at {budget}");
            assert_eq!(
                interp.host_calls(),
                vm.host_calls(),
                "count drift at {budget}"
            );
            assert_eq!(r1.0, r2.0, "host-call trace drift at budget {budget}");
            if b.is_ok() {
                break budget;
            }
            assert!(r2.0.is_empty(), "an exhausted run called the host");
            budget += 1;
        };
        assert_eq!(full, 11, "statement, call, literal and host-call burns");
    }

    #[test]
    fn host_call_traces_agree() {
        let src = "let a = self.first(1, \"two\"); let b = self.second(a); return b;";
        let p = Program::parse(src).unwrap();
        let mut r1 = Recorder(Vec::new());
        let out1 = Evaluator::new(&mut r1).run(&p, &[]);
        let mut r2 = Recorder(Vec::new());
        let out2 = Vm::new(&mut r2).run(&p.compiled(), &[]);
        assert_eq!(out1, out2);
        assert_eq!(r1.0, r2.0, "host-call trace drift");
    }

    #[test]
    fn params_bind_positionally_like_the_interpreter() {
        let p = Program::from_parts(
            vec!["a".into(), "b".into()],
            Program::parse("return [a, b, args];")
                .unwrap()
                .body()
                .to_vec(),
        );
        let args = [Value::Int(1)];
        let mut h1 = NullHost;
        let a = Evaluator::new(&mut h1).run(&p, &args).unwrap();
        let mut h2 = NullHost;
        let b = Vm::new(&mut h2).run(&p.compiled(), &args).unwrap();
        assert_eq!(a, b);
    }
}

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

use std::collections::BTreeMap;

use mrom_value::Value;

use crate::compile::{CompiledProgram, Instr};
use crate::error::ScriptError;
use crate::eval::{
    alloc_surcharge, binary, call_builtin, call_surcharge, index, iter_items, out_surcharge, unary,
    write_path, HostContext, DEFAULT_FUEL,
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
        let mut locals: Vec<Value> = vec![Value::Null; cp.n_locals as usize];
        if let Some(slot0) = locals.first_mut() {
            *slot0 = Value::List(args.to_vec());
        }
        for (i, &slot) in cp.param_slots.iter().enumerate() {
            locals[slot as usize] = args.get(i).cloned().unwrap_or(Value::Null);
        }

        let mut stack: Vec<Value> = Vec::new();
        let mut iters: Vec<std::vec::IntoIter<Value>> = Vec::new();
        let mut pc: usize = 0;

        macro_rules! pop {
            () => {
                stack
                    .pop()
                    .expect("operand stack underflow: compiler invariant")
            };
        }

        loop {
            let instr = cp.instrs[pc];
            self.burn(u64::from(cp.costs[pc]))?;
            match instr {
                Instr::Nop => {}
                Instr::LoadConst(i) => stack.push(cp.consts[i as usize].clone()),
                Instr::LoadLocal(s) => stack.push(locals[s as usize].clone()),
                Instr::StoreLocal(s) => locals[s as usize] = pop!(),
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
                    stack.push(out);
                }
                Instr::Binary(op) => {
                    let rhs = pop!();
                    let lhs = pop!();
                    if let (Value::Int(x), Value::Int(y)) = (&lhs, &rhs) {
                        if let Some(v) = int_binary(op, *x, *y) {
                            stack.push(v);
                            pc += 1;
                            continue;
                        }
                    }
                    self.burn(alloc_surcharge(op, &lhs, &rhs))?;
                    let out = binary(op, lhs, rhs)?;
                    stack.push(out);
                }
                Instr::BinaryLL { op, a, b } => {
                    if let (Value::Int(x), Value::Int(y)) =
                        (&locals[a as usize], &locals[b as usize])
                    {
                        if let Some(v) = int_binary(op, *x, *y) {
                            stack.push(v);
                            pc += 1;
                            continue;
                        }
                    }
                    let lhs = locals[a as usize].clone();
                    let rhs = locals[b as usize].clone();
                    self.burn(alloc_surcharge(op, &lhs, &rhs))?;
                    let out = binary(op, lhs, rhs)?;
                    stack.push(out);
                }
                Instr::BinaryLC { op, a, c } => {
                    if let (Value::Int(x), Value::Int(y)) =
                        (&locals[a as usize], &cp.consts[c as usize])
                    {
                        if let Some(v) = int_binary(op, *x, *y) {
                            stack.push(v);
                            pc += 1;
                            continue;
                        }
                    }
                    let lhs = locals[a as usize].clone();
                    let rhs = cp.consts[c as usize].clone();
                    self.burn(alloc_surcharge(op, &lhs, &rhs))?;
                    let out = binary(op, lhs, rhs)?;
                    stack.push(out);
                }
                Instr::BinaryTL { op, b } => {
                    let lhs = pop!();
                    if let (Value::Int(x), Value::Int(y)) = (&lhs, &locals[b as usize]) {
                        if let Some(v) = int_binary(op, *x, *y) {
                            stack.push(v);
                            pc += 1;
                            continue;
                        }
                    }
                    let rhs = locals[b as usize].clone();
                    self.burn(alloc_surcharge(op, &lhs, &rhs))?;
                    let out = binary(op, lhs, rhs)?;
                    stack.push(out);
                }
                Instr::BinaryTC { op, c } => {
                    let lhs = pop!();
                    if let (Value::Int(x), Value::Int(y)) = (&lhs, &cp.consts[c as usize]) {
                        if let Some(v) = int_binary(op, *x, *y) {
                            stack.push(v);
                            pc += 1;
                            continue;
                        }
                    }
                    let rhs = cp.consts[c as usize].clone();
                    self.burn(alloc_surcharge(op, &lhs, &rhs))?;
                    let out = binary(op, lhs, rhs)?;
                    stack.push(out);
                }
                Instr::Truthy => {
                    let v = pop!();
                    stack.push(Value::Bool(v.truthy()));
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
                        stack.push(Value::Bool(false));
                        pc = t as usize;
                        continue;
                    }
                }
                Instr::OrCheck(t) => {
                    let v = pop!();
                    if v.truthy() {
                        stack.push(Value::Bool(true));
                        pc = t as usize;
                        continue;
                    }
                }
                Instr::Index => {
                    let i = pop!();
                    let b = pop!();
                    let out = index(&b, &i)?;
                    stack.push(out);
                }
                Instr::Call { builtin, argc } => {
                    let vals = stack.split_off(stack.len() - argc as usize);
                    self.burn(call_surcharge(&vals))?;
                    self.burn(out_surcharge(builtin, &vals))?;
                    let result = call_builtin(builtin, vals)?;
                    stack.push(result);
                }
                Instr::CallUnknown { name, argc } => {
                    let vals = stack.split_off(stack.len() - argc as usize);
                    self.burn(call_surcharge(&vals))?;
                    return Err(ScriptError::UnknownBuiltin(cp.names[name as usize].clone()));
                }
                Instr::HostCall { name, argc } => {
                    let vals = stack.split_off(stack.len() - argc as usize);
                    self.host_calls += 1;
                    let out = self.host.host_call(&cp.names[name as usize], &vals)?;
                    stack.push(out);
                }
                Instr::MakeList(n) => {
                    let vals = stack.split_off(stack.len() - n as usize);
                    stack.push(Value::List(vals));
                }
                Instr::MakeMap { keys, n } => {
                    let vals = stack.split_off(stack.len() - n as usize);
                    let mut m = BTreeMap::new();
                    for (i, v) in vals.into_iter().enumerate() {
                        m.insert(cp.names[keys as usize + i].clone(), v);
                    }
                    stack.push(Value::Map(m));
                }
                Instr::AssignPath { root, n_idx } => {
                    // Stack: rhs, then indices outermost-first. Popping
                    // yields innermost-first; reversing restores the
                    // interpreter's path orientation for `write_path`.
                    let mut path = Vec::with_capacity(n_idx as usize);
                    for _ in 0..n_idx {
                        path.push(pop!());
                    }
                    path.reverse();
                    let rhs = pop!();
                    write_path(&mut locals[root as usize], &path, rhs)?;
                }
                Instr::AssignPathUndef { name, n_idx } => {
                    for _ in 0..=n_idx {
                        let _ = pop!();
                    }
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
                        Some(item) => locals[slot as usize] = item,
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

    #[test]
    fn host_call_traces_agree() {
        struct Recorder(Vec<(String, Vec<Value>)>);
        impl HostContext for Recorder {
            fn host_call(&mut self, name: &str, args: &[Value]) -> Result<Value, ScriptError> {
                self.0.push((name.to_owned(), args.to_vec()));
                Ok(Value::Int(self.0.len() as i64))
            }
        }
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

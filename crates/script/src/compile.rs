//! AST → bytecode compiler.
//!
//! Compiles a [`Program`] into a flat instruction array executed by
//! [`crate::vm::Vm`]. The compiled form is a **site-local cache** — it is
//! never serialized; the AST remains the single mobile representation —
//! and is designed for *exact* observational equivalence with the
//! tree-walking interpreter: same results, same errors, same host-call
//! sequences, and the same `fuel_used()` at every exhaustion point.
//!
//! ## Fuel model
//!
//! The interpreter burns [`STEP_FUEL`] at every statement and expression
//! entry, [`HOST_CALL_FUEL`] per host call, plus data-size surcharges at
//! builtins and concatenations (all priced once, in `eval.rs`). The
//! compiler attaches each static burn to the **first instruction** of the
//! construct's compiled form (preorder), so the per-instruction cost
//! sequence along any execution path equals the interpreter's burn
//! sequence. The same `costs` are the admission analyzer's price list:
//! [`CompiledProgram::static_fuel`] reads the static fuel bound off them
//! as a longest path, so no second pricer exists. At run time the VM
//! burns `costs[pc]` before each instruction and the value-dependent
//! surcharges where the interpreter burns them, so a run exhausts at
//! exactly the interpreter's instruction, having performed exactly the
//! interpreter's side-effect prefix. `costs` is the only fuel table.
//!
//! ## Variables
//!
//! Locals live in numbered slots resolved at compile time by replaying
//! the interpreter's scope discipline (one frame per block, a fresh slot
//! per `let`). Declarations within a frame are straight-line in this
//! language, so lexical resolution is exact: a name that resolves to a
//! slot is always defined when the instruction runs, and a name that does
//! not resolve is *never* defined — it compiles to [`Instr::LoadUndef`] /
//! [`Instr::StoreUndef`], which raise the interpreter's
//! `UndefinedVariable` error at the same point.

use std::collections::{BTreeMap, HashMap};

use mrom_value::Value;

use crate::ast::{BinaryOp, Expr, Program, Stmt, UnaryOp};
use crate::eval::{alloc_surcharge, call_surcharge, out_surcharge, HOST_CALL_FUEL, STEP_FUEL};
use crate::surface::BuiltinId;

/// One bytecode instruction. Jump operands are instruction indices; pool
/// operands index [`CompiledProgram`]'s constant / name tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Instr {
    /// No effect; exists to carry an attached fuel cost (e.g. a `while`
    /// statement's entry burn, which must land *before* the loop head).
    Nop,
    /// Push a clone of `consts[i]`.
    LoadConst(u32),
    /// Push a clone of local slot `i`.
    LoadLocal(u32),
    /// Pop into local slot `i`.
    StoreLocal(u32),
    /// Raise `UndefinedVariable(names[i])` — lexically unresolved read.
    LoadUndef(u32),
    /// Raise `UndefinedVariable(names[i])` — lexically unresolved write
    /// (after the right-hand side was evaluated, as the interpreter does).
    StoreUndef(u32),
    /// Discard the top of stack (expression statement).
    Pop,
    /// Apply a unary operator to the top of stack.
    Unary(UnaryOp),
    /// Pop rhs then lhs, push the binary result (non-short-circuit ops).
    Binary(BinaryOp),
    /// Fused `LoadLocal a; LoadLocal b; Binary op` (peephole). Fuel cost
    /// is the sum of the fused parts; safe because loads are effect-free
    /// and the fuser never puts a jump target at a fused interior pc.
    BinaryLL {
        /// Operator.
        op: BinaryOp,
        /// Left operand slot.
        a: u32,
        /// Right operand slot.
        b: u32,
    },
    /// Fused `LoadLocal a; LoadConst c; Binary op` (peephole).
    BinaryLC {
        /// Operator.
        op: BinaryOp,
        /// Left operand slot.
        a: u32,
        /// Right operand constant index.
        c: u32,
    },
    /// Fused `LoadLocal b; Binary op`: lhs from the stack, rhs a local.
    BinaryTL {
        /// Operator.
        op: BinaryOp,
        /// Right operand slot.
        b: u32,
    },
    /// Fused `LoadConst c; Binary op`: lhs from the stack, rhs a constant.
    BinaryTC {
        /// Operator.
        op: BinaryOp,
        /// Right operand constant index.
        c: u32,
    },
    /// Replace the top of stack with `Bool(truthy)`.
    Truthy,
    /// Unconditional jump.
    Jump(u32),
    /// Pop; jump when falsy.
    JumpIfFalse(u32),
    /// `&&`: pop; when falsy push `Bool(false)` and jump past the rhs.
    AndCheck(u32),
    /// `||`: pop; when truthy push `Bool(true)` and jump past the rhs.
    OrCheck(u32),
    /// Pop index then container, push the element.
    Index,
    /// Pop `argc` arguments, dispatch a known builtin.
    Call {
        /// Which builtin.
        builtin: BuiltinId,
        /// Argument count.
        argc: u32,
    },
    /// Pop `argc` arguments, burn the argument surcharge, then raise
    /// `UnknownBuiltin(names[name])` — exactly the interpreter's order.
    CallUnknown {
        /// Name-pool index of the unknown builtin.
        name: u32,
        /// Argument count.
        argc: u32,
    },
    /// Pop `argc` arguments and perform `self.names[name](...)` through
    /// the host. The 8-fuel host-call burn is attached to this pc.
    HostCall {
        /// Name-pool index of the host method.
        name: u32,
        /// Argument count.
        argc: u32,
    },
    /// Pop `n` values, push a list of them (in evaluation order).
    MakeList(u32),
    /// Pop `n` values, push a map pairing them with
    /// `names[keys..keys + n]` in entry order (later duplicates win).
    MakeMap {
        /// Name-pool index of the first key.
        keys: u32,
        /// Entry count.
        n: u32,
    },
    /// Indexed assignment `root[i1][i2]… = v`: pop `n_idx` index values
    /// and the right-hand side, write through the path into local `root`.
    AssignPath {
        /// Root local slot.
        root: u32,
        /// Number of index values on the stack.
        n_idx: u32,
    },
    /// As [`Instr::AssignPath`] but the root name did not resolve: pop
    /// the operands, then raise `UndefinedVariable(names[name])`.
    AssignPathUndef {
        /// Name-pool index of the unresolved root.
        name: u32,
        /// Number of index values on the stack.
        n_idx: u32,
    },
    /// Raise the interpreter's "assignment target must be a variable or
    /// index chain" error (after evaluating the right-hand side).
    AssignErrBadTarget,
    /// Raise the interpreter's "assignment target must be rooted at a
    /// variable" error (after evaluating the index expressions).
    AssignErrBadRoot,
    /// Pop a value, convert it to a `for` item sequence, push it on the
    /// iterator stack.
    IterNew,
    /// Advance the top iterator: store the next item into local `slot`,
    /// or jump to `end` when exhausted.
    IterNext {
        /// Loop-variable slot.
        slot: u32,
        /// Jump target on exhaustion (the loop's end label).
        end: u32,
    },
    /// Pop the top iterator (loop exited normally or via `break`).
    IterPop,
    /// Raise `StrayLoopControl` (`break`/`continue` outside any loop).
    LoopControlErr,
    /// Pop and return the top of stack.
    Return,
    /// Return `null` (explicit bare `return;` or falling off the end).
    ReturnNull,
}

/// A compiled program: flat bytecode plus its pools and fuel costs.
///
/// Produced by [`Program::compiled`]; executed by [`crate::vm::Vm`].
/// Immutable once built — sharing is by `Arc`.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProgram {
    pub(crate) instrs: Vec<Instr>,
    /// Static fuel attached at each pc, burned before the instruction.
    pub(crate) costs: Vec<u32>,
    /// Literal pool.
    pub(crate) consts: Vec<Value>,
    /// Interned strings: variable/builtin/host names and map keys.
    pub(crate) names: Vec<String>,
    /// Total local slots (slot 0 is `args`).
    pub(crate) n_locals: u32,
    /// Slot for each declared parameter, bound positionally at entry.
    pub(crate) param_slots: Vec<u32>,
}

impl CompiledProgram {
    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True for a body with no instructions (never produced by
    /// `compile`, which always emits at least a return).
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Static upper bound on the fuel one run can burn, read off the
    /// compiled form: the longest path through the control-flow graph,
    /// each pc priced at its `costs` entry plus the value-dependent
    /// surcharge its instruction burns at run time. Operands loaded from
    /// the constant pool price those surcharges exactly; any other
    /// operand is priced as a scalar, so a string- or container-valued
    /// runtime operand may burn more than the bound. `None` when the
    /// body loops (a backward jump or a `for` iterator).
    ///
    /// Paths follow the verifier's control-flow graph: they end at a
    /// return or at an instruction that always raises, so code after a
    /// `return` is never priced.
    pub(crate) fn static_fuel(&self) -> Option<u64> {
        let konst = |i: u32| self.consts.get(i as usize).unwrap_or(SCALAR);
        // Forward-only jumps make pc order a topological order, so one
        // sweep suffices: the fuel spent so far and the operand stack
        // flow along fallthrough edges and wait at jump targets, where
        // arrivals join.
        let mut waiting: BTreeMap<usize, FuelPath<'_>> = BTreeMap::new();
        let mut here = Some(FuelPath {
            fuel: 0,
            stack: Vec::with_capacity(8),
        });
        let mut bound = 0u64;
        for (pc, (&instr, &cost)) in self.instrs.iter().zip(&self.costs).enumerate() {
            match instr {
                // A loop, reachable or not: no static bound exists.
                Instr::Jump(t) | Instr::JumpIfFalse(t) | Instr::AndCheck(t) | Instr::OrCheck(t)
                    if t as usize <= pc =>
                {
                    return None;
                }
                Instr::IterNew | Instr::IterNext { .. } | Instr::IterPop => return None,
                _ => {}
            }
            if let Some(arrival) = waiting.remove(&pc) {
                here = Some(match here {
                    Some(path) => path.join(arrival),
                    None => arrival,
                });
            }
            let Some(path) = here.as_mut() else {
                continue;
            };
            path.burn(u64::from(cost));
            let (pops, pushes) = match instr {
                Instr::LoadConst(i) => {
                    path.stack.push(konst(i));
                    (0, 0)
                }
                Instr::Binary(op) => {
                    let rhs = path.pop();
                    let lhs = path.pop();
                    path.burn(alloc_surcharge(op, lhs, rhs));
                    (0, 1)
                }
                Instr::BinaryTC { op, c } => {
                    let lhs = path.pop();
                    path.burn(alloc_surcharge(op, lhs, konst(c)));
                    (0, 1)
                }
                Instr::Call { builtin, argc } => {
                    let args = path.pop_values(argc);
                    path.burn(call_surcharge(&args).saturating_add(out_surcharge(builtin, &args)));
                    (0, 1)
                }
                Instr::CallUnknown { argc, .. } => {
                    let args = path.pop_values(argc);
                    path.burn(call_surcharge(&args));
                    (0, 0)
                }
                Instr::Jump(t) => {
                    let path = here.take().expect("live path");
                    wait(&mut waiting, t, path);
                    continue;
                }
                Instr::JumpIfFalse(t) => {
                    path.pop();
                    wait(&mut waiting, t, path.clone());
                    (0, 0)
                }
                // Taken, a short-circuit check pushes its result back.
                Instr::AndCheck(t) | Instr::OrCheck(t) => {
                    let mut taken = path.clone();
                    taken.pop();
                    taken.stack.push(SCALAR);
                    wait(&mut waiting, t, taken);
                    (1, 0)
                }
                Instr::LoadLocal(_) | Instr::BinaryLL { .. } | Instr::BinaryLC { .. } => (0, 1),
                Instr::StoreLocal(_) | Instr::Pop => (1, 0),
                Instr::Unary(_) | Instr::Truthy | Instr::BinaryTL { .. } => (1, 1),
                Instr::Index => (2, 1),
                Instr::HostCall { argc, .. }
                | Instr::MakeList(argc)
                | Instr::MakeMap { n: argc, .. } => (argc as usize, 1),
                Instr::AssignPath { n_idx, .. } => (n_idx as usize + 1, 0),
                // No stack effect, or no successor.
                _ => (0, 0),
            };
            for _ in 0..pops {
                path.pop();
            }
            for _ in 0..pushes {
                path.stack.push(SCALAR);
            }
            if crate::verify::is_terminal(instr) {
                bound = bound.max(path.fuel);
                here = None;
            }
        }
        // Compiler output ends in a return and jumps only forward, so
        // every path has ended at a terminal by now.
        Some(bound)
    }

    /// Human-readable disassembly: constant pool, name pool, and one line
    /// per instruction with its attached static fuel cost.
    pub fn disassemble(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "; {} instrs, {} locals",
            self.instrs.len(),
            self.n_locals
        );
        if !self.consts.is_empty() {
            let _ = writeln!(out, "; constants:");
            for (i, c) in self.consts.iter().enumerate() {
                let _ = writeln!(out, ";   c{i} = {c:?}");
            }
        }
        if !self.names.is_empty() {
            let _ = writeln!(out, "; names:");
            for (i, n) in self.names.iter().enumerate() {
                let _ = writeln!(out, ";   n{i} = {n:?}");
            }
        }
        for (pc, instr) in self.instrs.iter().enumerate() {
            let cost = self.costs[pc];
            let cost = if cost > 0 {
                format!("  ; fuel {cost}")
            } else {
                String::new()
            };
            let text = match *instr {
                Instr::Nop => "nop".into(),
                Instr::LoadConst(i) => format!("load_const c{i}"),
                Instr::LoadLocal(s) => format!("load_local {s}"),
                Instr::StoreLocal(s) => format!("store_local {s}"),
                Instr::LoadUndef(n) => format!("load_undef n{n}"),
                Instr::StoreUndef(n) => format!("store_undef n{n}"),
                Instr::Pop => "pop".into(),
                Instr::Unary(op) => format!("unary {}", op.name()),
                Instr::Binary(op) => format!("binary {}", op.name()),
                Instr::BinaryLL { op, a, b } => format!("binary_ll {} {a} {b}", op.name()),
                Instr::BinaryLC { op, a, c } => format!("binary_lc {} {a} c{c}", op.name()),
                Instr::BinaryTL { op, b } => format!("binary_tl {} {b}", op.name()),
                Instr::BinaryTC { op, c } => format!("binary_tc {} c{c}", op.name()),
                Instr::Truthy => "truthy".into(),
                Instr::Jump(t) => format!("jump {t}"),
                Instr::JumpIfFalse(t) => format!("jump_if_false {t}"),
                Instr::AndCheck(t) => format!("and_check {t}"),
                Instr::OrCheck(t) => format!("or_check {t}"),
                Instr::Index => "index".into(),
                Instr::Call { builtin, argc } => {
                    format!("call {} argc={argc}", builtin.name())
                }
                Instr::CallUnknown { name, argc } => {
                    format!("call_unknown n{name} argc={argc}")
                }
                Instr::HostCall { name, argc } => format!("host_call n{name} argc={argc}"),
                Instr::MakeList(n) => format!("make_list {n}"),
                Instr::MakeMap { keys, n } => format!("make_map n{keys}.. n={n}"),
                Instr::AssignPath { root, n_idx } => {
                    format!("assign_path root={root} n_idx={n_idx}")
                }
                Instr::AssignPathUndef { name, n_idx } => {
                    format!("assign_path_undef n{name} n_idx={n_idx}")
                }
                Instr::AssignErrBadTarget => "assign_err_bad_target".into(),
                Instr::AssignErrBadRoot => "assign_err_bad_root".into(),
                Instr::IterNew => "iter_new".into(),
                Instr::IterNext { slot, end } => format!("iter_next slot={slot} end={end}"),
                Instr::IterPop => "iter_pop".into(),
                Instr::LoopControlErr => "loop_control_err".into(),
                Instr::Return => "return".into(),
                Instr::ReturnNull => "return_null".into(),
            };
            let _ = writeln!(out, "{pc:5}: {text}{cost}");
        }
        out
    }
}

/// What [`CompiledProgram::static_fuel`] prices every operand that is
/// not a constant as.
const SCALAR: &Value = &Value::Null;

/// One path of [`CompiledProgram::static_fuel`]'s sweep: fuel spent so
/// far and the operand stack, each operand either a constant-pool value
/// or [`SCALAR`] for anything computed at run time.
#[derive(Clone)]
struct FuelPath<'a> {
    fuel: u64,
    stack: Vec<&'a Value>,
}

impl<'a> FuelPath<'a> {
    fn burn(&mut self, amount: u64) {
        self.fuel = self.fuel.saturating_add(amount);
    }

    fn pop(&mut self) -> &'a Value {
        self.stack.pop().unwrap_or(SCALAR)
    }

    /// Pops `argc` operands as the argument list a builtin would see.
    fn pop_values(&mut self, argc: u32) -> Vec<Value> {
        let at = self.stack.len().saturating_sub(argc as usize);
        self.stack.drain(at..).cloned().collect()
    }

    /// Two paths meeting at one pc: the costlier fuel, and each operand
    /// kept only where both paths hold the same constant.
    fn join(mut self, other: FuelPath<'a>) -> FuelPath<'a> {
        self.fuel = self.fuel.max(other.fuel);
        for (mine, theirs) in self.stack.iter_mut().zip(other.stack) {
            if !std::ptr::eq(*mine, theirs) {
                *mine = SCALAR;
            }
        }
        self
    }
}

/// Parks `path` at jump target `target`, joining any path already there.
fn wait<'a>(waiting: &mut BTreeMap<usize, FuelPath<'a>>, target: u32, path: FuelPath<'a>) {
    let path = match waiting.remove(&(target as usize)) {
        Some(other) => other.join(path),
        None => path,
    };
    waiting.insert(target as usize, path);
}

/// Compiles `program` to bytecode. Total: every well-formed tree compiles
/// (trees only expressible via [`Program::from_parts`] — stray loop
/// control, malformed assignment targets — compile to instructions that
/// raise the interpreter's exact runtime error).
pub fn compile(program: &Program) -> CompiledProgram {
    let mut c = Compiler::new();

    // Root frame mirrors `Evaluator::run`: `args`, then each parameter
    // positionally (a later duplicate shadows an earlier one, exactly as
    // repeated `declare` calls overwrite).
    let args_slot = c.declare("args");
    debug_assert_eq!(args_slot, 0);
    let param_slots: Vec<u32> = program.params().iter().map(|p| c.declare(p)).collect();

    c.stmts(program.body());
    c.emit(Instr::ReturnNull);

    c.finish(param_slots)
}

struct LoopCtx {
    head: usize,
    end: usize,
}

struct Compiler {
    instrs: Vec<Instr>,
    costs: Vec<u32>,
    consts: Vec<Value>,
    names: Vec<String>,
    /// Compile-time replay of the interpreter's scope frames.
    frames: Vec<HashMap<String, u32>>,
    n_locals: u32,
    /// Fuel waiting to be attached to the next emitted instruction.
    pending: u64,
    /// Label id → instruction index (bound at `bind`).
    labels: Vec<Option<u32>>,
    loops: Vec<LoopCtx>,
}

impl Compiler {
    fn new() -> Self {
        Compiler {
            instrs: Vec::new(),
            costs: Vec::new(),
            consts: Vec::new(),
            names: Vec::new(),
            frames: vec![HashMap::new()],
            n_locals: 0,
            pending: 0,
            labels: Vec::new(),
            loops: Vec::new(),
        }
    }

    // -- pools and frames ---------------------------------------------------

    fn declare(&mut self, name: &str) -> u32 {
        let slot = self.n_locals;
        self.n_locals += 1;
        self.frames
            .last_mut()
            .expect("root frame")
            .insert(name.to_owned(), slot);
        slot
    }

    fn resolve(&self, name: &str) -> Option<u32> {
        self.frames.iter().rev().find_map(|f| f.get(name)).copied()
    }

    fn push_frame(&mut self) {
        self.frames.push(HashMap::new());
    }

    fn pop_frame(&mut self) {
        self.frames.pop();
        debug_assert!(!self.frames.is_empty(), "root frame must survive");
    }

    fn const_idx(&mut self, v: &Value) -> u32 {
        // Dedup only kinds with exact, representation-faithful equality
        // (float equality would conflate 0.0 with -0.0).
        if matches!(
            v,
            Value::Null | Value::Bool(_) | Value::Int(_) | Value::Str(_)
        ) {
            if let Some(i) = self.consts.iter().position(|c| c == v) {
                return i as u32;
            }
        }
        self.consts.push(v.clone());
        (self.consts.len() - 1) as u32
    }

    fn name_idx(&mut self, name: &str) -> u32 {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return i as u32;
        }
        self.names.push(name.to_owned());
        (self.names.len() - 1) as u32
    }

    // -- emission -----------------------------------------------------------

    /// Queues `amount` fuel to be attached to the next emitted
    /// instruction (the preorder attachment rule).
    fn attach(&mut self, amount: u64) {
        self.pending += amount;
    }

    fn emit(&mut self, instr: Instr) -> usize {
        let cost = u32::try_from(self.pending).unwrap_or(u32::MAX);
        self.pending = 0;
        self.costs.push(cost);
        self.instrs.push(instr);
        self.instrs.len() - 1
    }

    /// Materializes queued fuel as a `Nop` so it lands *before* an
    /// upcoming label (e.g. a `while` entry burn must not re-fire per
    /// iteration).
    fn flush_pending(&mut self) {
        if self.pending > 0 {
            self.emit(Instr::Nop);
        }
    }

    fn new_label(&mut self) -> usize {
        self.labels.push(None);
        self.labels.len() - 1
    }

    /// Binds `label` to the next instruction emitted.
    fn bind(&mut self, label: usize) {
        self.flush_pending();
        self.labels[label] = Some(self.instrs.len() as u32);
    }

    // -- statements ---------------------------------------------------------

    fn stmts(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        // Interpreter: `exec_stmt` burns a step at entry.
        self.attach(STEP_FUEL);
        match s {
            Stmt::Let(name, e) => {
                self.expr(e);
                let slot = self.declare(name);
                self.emit(Instr::StoreLocal(slot));
            }
            Stmt::Assign(target, e) => {
                self.expr(e);
                self.assign_target(target);
            }
            Stmt::Expr(e) => {
                self.expr(e);
                self.emit(Instr::Pop);
            }
            Stmt::If(cond, then_body, else_body) => {
                self.expr(cond);
                let l_else = self.new_label();
                let l_end = self.new_label();
                self.emit(Instr::JumpIfFalse(l_else as u32));
                self.push_frame();
                self.stmts(then_body);
                self.pop_frame();
                self.emit(Instr::Jump(l_end as u32));
                self.bind(l_else);
                self.push_frame();
                self.stmts(else_body);
                self.pop_frame();
                self.bind(l_end);
            }
            Stmt::While(cond, body) => {
                let l_cond = self.new_label();
                let l_end = self.new_label();
                // The statement's entry burn fires once, before the loop
                // head; `bind` flushes it into a Nop.
                self.bind(l_cond);
                self.expr(cond);
                self.emit(Instr::JumpIfFalse(l_end as u32));
                self.push_frame();
                self.loops.push(LoopCtx {
                    head: l_cond,
                    end: l_end,
                });
                self.stmts(body);
                self.loops.pop();
                self.pop_frame();
                self.emit(Instr::Jump(l_cond as u32));
                self.bind(l_end);
            }
            Stmt::For(name, iter, body) => {
                // Entry burn + iterable evaluation run once, straight-line.
                self.expr(iter);
                self.emit(Instr::IterNew);
                let l_head = self.new_label();
                let l_end = self.new_label();
                self.push_frame();
                let slot = self.declare(name);
                self.bind(l_head);
                self.emit(Instr::IterNext {
                    slot,
                    end: l_end as u32,
                });
                self.loops.push(LoopCtx {
                    head: l_head,
                    end: l_end,
                });
                self.stmts(body);
                self.loops.pop();
                self.pop_frame();
                self.emit(Instr::Jump(l_head as u32));
                self.bind(l_end);
                self.emit(Instr::IterPop);
            }
            Stmt::Return(None) => {
                self.emit(Instr::ReturnNull);
            }
            Stmt::Return(Some(e)) => {
                self.expr(e);
                self.emit(Instr::Return);
            }
            Stmt::Break => {
                match self.loops.last() {
                    Some(ctx) => {
                        let t = ctx.end as u32;
                        self.emit(Instr::Jump(t));
                    }
                    None => {
                        self.emit(Instr::LoopControlErr);
                    }
                };
            }
            Stmt::Continue => {
                match self.loops.last() {
                    Some(ctx) => {
                        let t = ctx.head as u32;
                        self.emit(Instr::Jump(t));
                    }
                    None => {
                        self.emit(Instr::LoopControlErr);
                    }
                };
            }
        }
    }

    /// Compiles the target side of an assignment, right-hand side already
    /// on the stack. Mirrors `Evaluator::assign` exactly, including the
    /// evaluation order of index expressions (outermost first) and the
    /// runtime errors for malformed targets.
    fn assign_target(&mut self, target: &Expr) {
        match target {
            Expr::Var(name) => match self.resolve(name) {
                Some(slot) => {
                    self.emit(Instr::StoreLocal(slot));
                }
                None => {
                    let n = self.name_idx(name);
                    self.emit(Instr::StoreUndef(n));
                }
            },
            Expr::Index(base, idx_expr) => {
                self.expr(idx_expr);
                let mut n_idx: u32 = 1;
                let mut cursor: &Expr = base;
                loop {
                    match cursor {
                        Expr::Var(name) => {
                            match self.resolve(name) {
                                Some(root) => {
                                    self.emit(Instr::AssignPath { root, n_idx });
                                }
                                None => {
                                    let n = self.name_idx(name);
                                    self.emit(Instr::AssignPathUndef { name: n, n_idx });
                                }
                            }
                            return;
                        }
                        Expr::Index(inner, inner_idx) => {
                            self.expr(inner_idx);
                            n_idx += 1;
                            cursor = inner;
                        }
                        _ => {
                            self.emit(Instr::AssignErrBadRoot);
                            return;
                        }
                    }
                }
            }
            _ => {
                self.emit(Instr::AssignErrBadTarget);
            }
        }
    }

    // -- expressions --------------------------------------------------------

    fn expr(&mut self, e: &Expr) {
        // Interpreter: `eval` burns a step at entry.
        self.attach(STEP_FUEL);
        match e {
            Expr::Literal(v) => {
                let i = self.const_idx(v);
                self.emit(Instr::LoadConst(i));
            }
            Expr::Var(name) => match self.resolve(name) {
                Some(slot) => {
                    self.emit(Instr::LoadLocal(slot));
                }
                None => {
                    let n = self.name_idx(name);
                    self.emit(Instr::LoadUndef(n));
                }
            },
            Expr::Unary(op, a) => {
                self.expr(a);
                self.emit(Instr::Unary(*op));
            }
            Expr::Binary(BinaryOp::And, a, b) => {
                self.expr(a);
                let l_end = self.new_label();
                self.emit(Instr::AndCheck(l_end as u32));
                self.expr(b);
                self.emit(Instr::Truthy);
                self.bind(l_end);
            }
            Expr::Binary(BinaryOp::Or, a, b) => {
                self.expr(a);
                let l_end = self.new_label();
                self.emit(Instr::OrCheck(l_end as u32));
                self.expr(b);
                self.emit(Instr::Truthy);
                self.bind(l_end);
            }
            Expr::Binary(op, a, b) => {
                self.expr(a);
                self.expr(b);
                self.emit(Instr::Binary(*op));
            }
            Expr::Index(base, idx) => {
                self.expr(base);
                self.expr(idx);
                self.emit(Instr::Index);
            }
            Expr::Call(name, args) => {
                for a in args {
                    self.expr(a);
                }
                let argc = args.len() as u32;
                match BuiltinId::from_name(name) {
                    Some(builtin) => {
                        self.emit(Instr::Call { builtin, argc });
                    }
                    None => {
                        let n = self.name_idx(name);
                        self.emit(Instr::CallUnknown { name: n, argc });
                    }
                }
            }
            Expr::HostCall(name, args) => {
                for a in args {
                    self.expr(a);
                }
                // Interpreter: the host-call burn after the arguments,
                // before the call.
                self.attach(HOST_CALL_FUEL);
                let n = self.name_idx(name);
                self.emit(Instr::HostCall {
                    name: n,
                    argc: args.len() as u32,
                });
            }
            Expr::ListExpr(items) => {
                for item in items {
                    self.expr(item);
                }
                self.emit(Instr::MakeList(items.len() as u32));
            }
            Expr::MapExpr(entries) => {
                // Keys occupy a contiguous name-pool run so `MakeMap` can
                // reference them as a range; values evaluate in entry order.
                let keys = self.names.len() as u32;
                for (k, _) in entries {
                    self.names.push(k.clone());
                }
                for (_, v) in entries {
                    self.expr(v);
                }
                self.emit(Instr::MakeMap {
                    keys,
                    n: entries.len() as u32,
                });
            }
        }
    }

    // -- finalization -------------------------------------------------------

    /// Peephole pass: fuses `LoadLocal`/`LoadConst` operands into the
    /// `Binary` that consumes them. Safe under the fuel model because the
    /// fused cost is the exact sum of the parts and nothing observable
    /// (host call, error, side effect) can occur between them; safe for
    /// control flow because a window is fused only when none of its
    /// instructions after the first is a bound label, so no branch can
    /// land inside a fused span. Runs before label resolution; labels
    /// are remapped through `map`.
    fn fuse(&mut self) {
        let old = std::mem::take(&mut self.instrs);
        let old_costs = std::mem::take(&mut self.costs);
        let mut is_target = vec![false; old.len() + 1];
        for &label in self.labels.iter().flatten() {
            is_target[label as usize] = true;
        }
        let mut map = vec![0u32; old.len() + 1];
        let mut instrs = Vec::with_capacity(old.len());
        let mut costs = Vec::with_capacity(old.len());
        let mut i = 0;
        while i < old.len() {
            let here = instrs.len() as u32;
            // An `n`-instruction window starting at `i` that no jump can
            // enter past its first instruction.
            let closed = |n: usize| i + n <= old.len() && !is_target[i + 1..i + n].contains(&true);
            let mut fused = None;
            if closed(3) {
                fused = match (old[i], old[i + 1], old[i + 2]) {
                    (Instr::LoadLocal(a), Instr::LoadLocal(b), Instr::Binary(op)) => {
                        Some((Instr::BinaryLL { op, a, b }, 3))
                    }
                    (Instr::LoadLocal(a), Instr::LoadConst(c), Instr::Binary(op)) => {
                        Some((Instr::BinaryLC { op, a, c }, 3))
                    }
                    _ => None,
                };
            }
            if fused.is_none() && closed(2) {
                fused = match (old[i], old[i + 1]) {
                    (Instr::LoadLocal(b), Instr::Binary(op)) => {
                        Some((Instr::BinaryTL { op, b }, 2))
                    }
                    (Instr::LoadConst(c), Instr::Binary(op)) => {
                        Some((Instr::BinaryTC { op, c }, 2))
                    }
                    _ => None,
                };
            }
            match fused {
                Some((instr, n)) => {
                    let cost: u64 = old_costs[i..i + n].iter().map(|&c| u64::from(c)).sum();
                    for k in 0..n {
                        map[i + k] = here;
                    }
                    instrs.push(instr);
                    costs.push(u32::try_from(cost).unwrap_or(u32::MAX));
                    i += n;
                }
                None => {
                    map[i] = here;
                    instrs.push(old[i]);
                    costs.push(old_costs[i]);
                    i += 1;
                }
            }
        }
        map[old.len()] = instrs.len() as u32;
        self.instrs = instrs;
        self.costs = costs;
        for label in self.labels.iter_mut().flatten() {
            *label = map[*label as usize];
        }
    }

    fn finish(mut self, param_slots: Vec<u32>) -> CompiledProgram {
        self.fuse();
        // Resolve label ids in jump operands to instruction indices.
        let resolve = |labels: &[Option<u32>], id: u32| -> u32 {
            labels[id as usize].expect("label bound before finish")
        };
        for instr in &mut self.instrs {
            match instr {
                Instr::Jump(t) | Instr::JumpIfFalse(t) | Instr::AndCheck(t) | Instr::OrCheck(t) => {
                    *t = resolve(&self.labels, *t);
                }
                Instr::IterNext { end, .. } => *end = resolve(&self.labels, *end),
                _ => {}
            }
        }

        CompiledProgram {
            instrs: self.instrs,
            costs: self.costs,
            consts: self.consts,
            names: self.names,
            n_locals: self.n_locals,
            param_slots,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compiled(src: &str) -> CompiledProgram {
        compile(&Program::parse(src).unwrap_or_else(|e| panic!("parse {src:?}: {e}")))
    }

    #[test]
    fn straight_line_costs_sum_to_the_interpreter_burn() {
        let src = "let x = 1; return x + 2;";
        let cp = compiled(src);
        let total: u32 = cp.costs.iter().sum();
        // Entry burns: 2 stmts + 4 exprs (1, x+2, x, 2) = 6.
        assert_eq!(total, 6);
        let mut host = crate::eval::NullHost;
        let mut interp = crate::eval::Evaluator::new(&mut host);
        interp.run(&Program::parse(src).unwrap(), &[]).unwrap();
        assert_eq!(u64::from(total), interp.fuel_used());
    }

    #[test]
    fn while_entry_cost_lands_before_the_loop_head() {
        let cp = compiled("let i = 0; while (i < 3) { i = i + 1; }");
        // The while entry burn lands on a Nop *before* the loop head so
        // it fires once, not per iteration.
        let nop_pc = cp
            .instrs
            .iter()
            .position(|i| matches!(i, Instr::Nop))
            .expect("entry-cost Nop");
        assert_eq!(cp.costs[nop_pc], 1);
    }

    #[test]
    fn unresolved_names_compile_to_undef_instructions() {
        let cp = compiled("if (true) { let x = 1; } return x;");
        assert!(cp.instrs.iter().any(|i| matches!(i, Instr::LoadUndef(_))));
    }

    #[test]
    fn disassembly_mentions_pools_and_opcodes() {
        let cp = compiled("let x = \"hi\"; return len(x);");
        let text = cp.disassemble();
        assert!(text.contains("fuel"), "{text}");
        assert!(text.contains("call len"), "{text}");
        assert!(text.contains("\"hi\""), "{text}");
    }

    /// `load_local; load_const; binary`, with `label` bound at
    /// `label_at` when given, run through the fuser.
    fn fused_window(label_at: Option<usize>) -> Compiler {
        let mut c = Compiler::new();
        let label = c.new_label();
        for (pc, instr) in [
            Instr::LoadLocal(0),
            Instr::LoadConst(0),
            Instr::Binary(BinaryOp::Add),
            Instr::Return,
        ]
        .into_iter()
        .enumerate()
        {
            if label_at == Some(pc) {
                c.bind(label);
            }
            c.attach(1);
            c.emit(instr);
        }
        c.fuse();
        c
    }

    #[test]
    fn fuser_never_fuses_across_a_jump_target() {
        let c = fused_window(None);
        assert_eq!(
            c.instrs[0],
            Instr::BinaryLC {
                op: BinaryOp::Add,
                a: 0,
                c: 0
            }
        );
        assert_eq!(c.costs[0], 3);

        // A label on the `load_const` keeps the `load_local` apart; the
        // label's own window may still fuse, and the label follows it.
        let c = fused_window(Some(1));
        assert_eq!(
            c.instrs[..3],
            [
                Instr::LoadLocal(0),
                Instr::BinaryTC {
                    op: BinaryOp::Add,
                    c: 0
                },
                Instr::Return
            ]
        );
        assert_eq!(c.costs[..3], [1, 2, 1]);
        assert_eq!(c.labels[0], Some(1));

        // A label on the `binary` keeps all three apart.
        let c = fused_window(Some(2));
        assert_eq!(c.instrs[1], Instr::LoadConst(0));
        assert_eq!(c.instrs[2], Instr::Binary(BinaryOp::Add));
        assert_eq!(c.labels[0], Some(2));
    }
}

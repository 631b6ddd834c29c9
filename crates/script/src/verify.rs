//! Bytecode verifier: an abstract interpreter over [`CompiledProgram`]
//! that proves, *independently of the compiler*, every well-formedness
//! invariant the VM's hot loop relies on — so a hostile or corrupted
//! compiled form can never reach [`crate::vm::Vm`].
//!
//! ## What is proved
//!
//! * **Control flow is closed.** Every jump operand (including a
//!   `for` loop's exhaustion target) lands in bounds. No reachable path
//!   can fall off the end of the instruction array.
//! * **Stack discipline.** A forward data-flow pass computes the operand
//!   -stack and iterator-stack depth at every reachable pc and checks
//!   that (a) no instruction pops more than is present, and (b) every
//!   join point is reached with one consistent depth — exactly the
//!   "compiler invariant" behind the VM's `pop!`, which panics rather
//!   than pop into the locals below the operand stack.
//! * **Pool and register bounds.** Constant, name, local-slot and
//!   map-key operands index inside their tables.
//! * **Operands fit their instructions.** No binary instruction names
//!   `&&` or `||` (those exist only as short-circuit checks), and every
//!   indexed assignment carries at least one index.
//! * **`args` is bound exactly when read.** The program's `reads_args`
//!   flag, which decides whether the VM builds the argument list into
//!   slot 0, is `true` exactly when some instruction reads slot 0.
//! * **Fuel bounds every run.** The `costs` table has one entry per
//!   instruction, which the VM burns before the instruction runs. The
//!   pcs that cost nothing form no cycle, except an empty `for` body: an
//!   `IterNext` whose item edge leads straight to a jump back to it,
//!   which ends when its iterator does. Every other loop burns fuel on
//!   each pass.
//!
//! A program that passes [`verify`] cannot make the VM panic on stack
//! underflow, index out of bounds, or a missing iterator, and cannot run
//! forever on a finite budget.
//!
//! The compiled form never travels and is never stored: there is no path
//! from bytes to a [`CompiledProgram`]. The AST is the only mobile
//! representation, and every body is compiled on the site that admits
//! it and verified there before a VM runs it. The admission analyzer's
//! static fuel bound ([`crate::AnalysisReport::static_fuel`]) walks the
//! same control-flow graph.

use std::fmt;

use crate::ast::BinaryOp;
use crate::compile::{CompiledProgram, Instr, ARGS_SLOT};

/// A structured verification failure. Each variant pins the defect to a
/// pc (or table index) so a host can log exactly what was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum VerifyError {
    /// The program has no instructions (the compiler always emits at
    /// least a return).
    Empty,
    /// `costs` is not the same length as `instrs`.
    TableSizeMismatch {
        /// Instruction count.
        instrs: usize,
        /// Cost-table length.
        costs: usize,
    },
    /// A non-terminal instruction sits at the last pc: execution would
    /// run off the end of the instruction array.
    FallOffEnd {
        /// The offending pc.
        pc: usize,
    },
    /// A jump operand points outside the instruction array.
    JumpOutOfBounds {
        /// The jumping pc.
        pc: usize,
        /// The out-of-range target.
        target: usize,
    },
    /// Some cycle of the control-flow graph burns no fuel, so a run could
    /// loop forever on a finite budget.
    UnmeteredLoop {
        /// A zero-cost pc on, or reached from, that cycle.
        pc: usize,
    },
    /// A constant-pool operand is out of bounds.
    ConstOutOfBounds {
        /// The offending pc.
        pc: usize,
        /// The out-of-range pool index.
        index: usize,
    },
    /// A name-pool operand (or map-key run) is out of bounds.
    NameOutOfBounds {
        /// The offending pc.
        pc: usize,
        /// The out-of-range pool index.
        index: usize,
    },
    /// A local-slot operand is ≥ the declared local count.
    SlotOutOfBounds {
        /// The offending pc.
        pc: usize,
        /// The out-of-range slot.
        slot: usize,
    },
    /// A binary instruction names `&&` or `||`, which only the
    /// short-circuit checks implement.
    ShortCircuitOperator {
        /// The offending pc.
        pc: usize,
    },
    /// An indexed assignment carries no index (the compiler always
    /// emits at least one).
    EmptyAssignPath {
        /// The offending pc.
        pc: usize,
    },
    /// The `reads_args` flag disagrees with the instructions: the VM
    /// would leave `args` unbound for a body that reads it, or build a
    /// list that nothing reads.
    ArgsFlagMismatch {
        /// The flag the program carries.
        declared: bool,
        /// The first pc that reads slot 0, if any.
        first_read: Option<usize>,
    },
    /// A parameter slot is ≥ the declared local count.
    ParamSlotOutOfBounds {
        /// Position in `param_slots`.
        index: usize,
        /// The out-of-range slot.
        slot: usize,
    },
    /// An instruction would pop more values than the operand stack
    /// holds on some path.
    StackUnderflow {
        /// The offending pc.
        pc: usize,
        /// Stack depth on the failing path.
        depth: usize,
        /// Values the instruction needs.
        need: usize,
    },
    /// Two paths reach the same pc with different operand-stack depths.
    DepthMismatch {
        /// The join pc.
        pc: usize,
        /// Depth recorded first.
        expected: usize,
        /// Conflicting depth.
        found: usize,
    },
    /// An iterator instruction runs with an empty iterator stack.
    IterUnderflow {
        /// The offending pc.
        pc: usize,
    },
    /// Two paths reach the same pc with different iterator-stack depths.
    IterMismatch {
        /// The join pc.
        pc: usize,
        /// Depth recorded first.
        expected: usize,
        /// Conflicting depth.
        found: usize,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Empty => write!(f, "empty instruction array"),
            VerifyError::TableSizeMismatch { instrs, costs } => {
                write!(f, "cost table out of step: {instrs} instrs, {costs} costs")
            }
            VerifyError::FallOffEnd { pc } => {
                write!(f, "pc {pc}: non-terminal instruction at end of program")
            }
            VerifyError::JumpOutOfBounds { pc, target } => {
                write!(f, "pc {pc}: jump target {target} out of bounds")
            }
            VerifyError::UnmeteredLoop { pc } => {
                write!(f, "pc {pc}: on or after a loop that burns no fuel")
            }
            VerifyError::ConstOutOfBounds { pc, index } => {
                write!(f, "pc {pc}: constant index {index} out of bounds")
            }
            VerifyError::NameOutOfBounds { pc, index } => {
                write!(f, "pc {pc}: name index {index} out of bounds")
            }
            VerifyError::SlotOutOfBounds { pc, slot } => {
                write!(f, "pc {pc}: local slot {slot} out of bounds")
            }
            VerifyError::ShortCircuitOperator { pc } => {
                write!(
                    f,
                    "pc {pc}: binary instruction with a short-circuit operator"
                )
            }
            VerifyError::EmptyAssignPath { pc } => {
                write!(f, "pc {pc}: indexed assignment without an index")
            }
            VerifyError::ArgsFlagMismatch {
                declared,
                first_read,
            } => match first_read {
                Some(pc) => write!(f, "pc {pc}: reads args, but reads_args is {declared}"),
                None => write!(f, "no pc reads args, but reads_args is {declared}"),
            },
            VerifyError::ParamSlotOutOfBounds { index, slot } => {
                write!(f, "param {index}: slot {slot} out of bounds")
            }
            VerifyError::StackUnderflow { pc, depth, need } => {
                write!(f, "pc {pc}: stack underflow (depth {depth}, need {need})")
            }
            VerifyError::DepthMismatch {
                pc,
                expected,
                found,
            } => write!(
                f,
                "pc {pc}: inconsistent stack depth at join ({expected} vs {found})"
            ),
            VerifyError::IterUnderflow { pc } => {
                write!(f, "pc {pc}: iterator stack underflow")
            }
            VerifyError::IterMismatch {
                pc,
                expected,
                found,
            } => write!(
                f,
                "pc {pc}: inconsistent iterator depth at join ({expected} vs {found})"
            ),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Instructions that end execution at their pc (return or a raised
/// runtime error): they have no successor in the control-flow graph.
pub(crate) fn is_terminal(instr: Instr) -> bool {
    matches!(
        instr,
        Instr::Return
            | Instr::ReturnNull
            | Instr::LoadUndef(_)
            | Instr::StoreUndef(_)
            | Instr::CallUnknown { .. }
            | Instr::AssignPathUndef { .. }
            | Instr::AssignErrBadTarget
            | Instr::AssignErrBadRoot
            | Instr::LoopControlErr
    )
}

/// Instructions that read `args`'s slot (a path write reads the list it
/// updates).
fn reads_args(instr: Instr) -> bool {
    matches!(
        instr,
        Instr::LoadLocal(ARGS_SLOT)
            | Instr::BinaryLL { a: ARGS_SLOT, .. }
            | Instr::BinaryLL { b: ARGS_SLOT, .. }
            | Instr::BinaryLC { a: ARGS_SLOT, .. }
            | Instr::BinaryTL { b: ARGS_SLOT, .. }
            | Instr::AssignPath {
                root: ARGS_SLOT,
                ..
            }
    )
}

/// Verifies a compiled program against every invariant the VM assumes.
///
/// Runs in time linear in the program size: one structural scan over all
/// pcs (bounds, targets, terminality), one topological sort of the pcs
/// that cost nothing, plus one data-flow pass over the reachable
/// control-flow graph (stack and iterator depths). Unreachable instructions — the compiler emits some, e.g. a
/// trailing `ReturnNull` after an explicit `return` — still get the
/// structural checks, but impose no depth constraints.
///
/// # Errors
///
/// The first [`VerifyError`] found, pinned to its pc.
pub fn verify(cp: &CompiledProgram) -> Result<(), VerifyError> {
    let n = cp.instrs.len();
    if n == 0 {
        return Err(VerifyError::Empty);
    }
    if cp.costs.len() != n {
        return Err(VerifyError::TableSizeMismatch {
            instrs: n,
            costs: cp.costs.len(),
        });
    }
    for (index, &slot) in cp.param_slots.iter().enumerate() {
        if slot >= cp.n_locals {
            return Err(VerifyError::ParamSlotOutOfBounds {
                index,
                slot: slot as usize,
            });
        }
    }

    structural_pass(cp)?;
    let first_read = cp.instrs.iter().position(|&instr| reads_args(instr));
    if first_read.is_some() != cp.reads_args {
        return Err(VerifyError::ArgsFlagMismatch {
            declared: cp.reads_args,
            first_read,
        });
    }
    loop_pass(cp)?;
    flow_pass(cp).map(|_| ())
}

/// Bounds, jump-target, and terminality checks over **all** pcs.
fn structural_pass(cp: &CompiledProgram) -> Result<(), VerifyError> {
    let n = cp.instrs.len();
    let n_consts = cp.consts.len();
    let n_names = cp.names.len();
    let n_locals = cp.n_locals as usize;

    let check_const = |pc: usize, i: u32| {
        if (i as usize) < n_consts {
            Ok(())
        } else {
            Err(VerifyError::ConstOutOfBounds {
                pc,
                index: i as usize,
            })
        }
    };
    let check_name = |pc: usize, i: u32| {
        if (i as usize) < n_names {
            Ok(())
        } else {
            Err(VerifyError::NameOutOfBounds {
                pc,
                index: i as usize,
            })
        }
    };
    let check_slot = |pc: usize, s: u32| {
        if (s as usize) < n_locals {
            Ok(())
        } else {
            Err(VerifyError::SlotOutOfBounds {
                pc,
                slot: s as usize,
            })
        }
    };
    let check_target = |pc: usize, t: u32| {
        let target = t as usize;
        if target >= n {
            return Err(VerifyError::JumpOutOfBounds { pc, target });
        }
        Ok(())
    };

    for (pc, &instr) in cp.instrs.iter().enumerate() {
        match instr {
            // Shapes the compiler never emits and the VM would panic on:
            // `&&`/`||` outside the short-circuit checks, and an indexed
            // assignment without an index.
            Instr::Binary(BinaryOp::And | BinaryOp::Or)
            | Instr::BinaryLL {
                op: BinaryOp::And | BinaryOp::Or,
                ..
            }
            | Instr::BinaryLC {
                op: BinaryOp::And | BinaryOp::Or,
                ..
            }
            | Instr::BinaryTL {
                op: BinaryOp::And | BinaryOp::Or,
                ..
            }
            | Instr::BinaryTC {
                op: BinaryOp::And | BinaryOp::Or,
                ..
            } => return Err(VerifyError::ShortCircuitOperator { pc }),
            Instr::AssignPath { n_idx: 0, .. } | Instr::AssignPathUndef { n_idx: 0, .. } => {
                return Err(VerifyError::EmptyAssignPath { pc });
            }
            Instr::Nop
            | Instr::Pop
            | Instr::Unary(_)
            | Instr::Binary(_)
            | Instr::Truthy
            | Instr::Index
            | Instr::MakeList(_)
            | Instr::AssignErrBadTarget
            | Instr::AssignErrBadRoot
            | Instr::IterNew
            | Instr::IterPop
            | Instr::LoopControlErr
            | Instr::Return
            | Instr::ReturnNull => {}
            Instr::LoadConst(i) => check_const(pc, i)?,
            Instr::LoadLocal(s) | Instr::StoreLocal(s) => check_slot(pc, s)?,
            Instr::LoadUndef(i) | Instr::StoreUndef(i) => check_name(pc, i)?,
            Instr::BinaryLL { a, b, .. } => {
                check_slot(pc, a)?;
                check_slot(pc, b)?;
            }
            Instr::BinaryLC { a, c, .. } => {
                check_slot(pc, a)?;
                check_const(pc, c)?;
            }
            Instr::BinaryTL { b, .. } => check_slot(pc, b)?,
            Instr::BinaryTC { c, .. } => check_const(pc, c)?,
            Instr::Jump(t) | Instr::JumpIfFalse(t) | Instr::AndCheck(t) | Instr::OrCheck(t) => {
                check_target(pc, t)?;
            }
            Instr::Call { .. } => {}
            Instr::CallUnknown { name, .. } | Instr::HostCall { name, .. } => {
                check_name(pc, name)?;
            }
            Instr::HostCallC { name, c } => {
                check_name(pc, name)?;
                check_const(pc, c)?;
            }
            Instr::MakeMap { keys, n: count } => {
                let end = keys as usize + count as usize;
                if end > n_names {
                    return Err(VerifyError::NameOutOfBounds { pc, index: end });
                }
            }
            Instr::AssignPath { root, .. } => check_slot(pc, root)?,
            Instr::AssignPathUndef { name, .. } => check_name(pc, name)?,
            Instr::IterNext { slot, end } => {
                check_slot(pc, slot)?;
                check_target(pc, end)?;
            }
        }
        if pc + 1 == n && !is_terminal(instr) {
            return Err(VerifyError::FallOffEnd { pc });
        }
    }
    Ok(())
}

/// Sorts the pcs that cost nothing topologically (Kahn's algorithm); a
/// pc left over sits on or after a cycle that burns no fuel. The one
/// cycle allowed is an empty `for` body, `IterNext` at `pc` followed by
/// `Jump(pc)`: its item edge is left out, because each pass over it
/// takes an item from an iterator the cycle never replaces. Its
/// exhaustion edge stays in, as does an item edge that is also the
/// exhaustion edge. Runs after `structural_pass`, so every target is in
/// bounds and every non-terminal pc has a successor.
fn loop_pass(cp: &CompiledProgram) -> Result<(), VerifyError> {
    let n = cp.instrs.len();
    let free = |pc: usize| cp.costs[pc] == 0;
    // Every cycle takes a backward jump: without one between free pcs,
    // no free cycle exists (the common, loop-free body).
    let free_back_jump = |pc: usize| match cp.instrs[pc] {
        Instr::Jump(t)
        | Instr::JumpIfFalse(t)
        | Instr::AndCheck(t)
        | Instr::OrCheck(t)
        | Instr::IterNext { end: t, .. } => t as usize <= pc && free(pc) && free(t as usize),
        _ => false,
    };
    if !(0..n).any(free_back_jump) {
        return Ok(());
    }
    let edges = |pc: usize| {
        let next = Some(pc + 1);
        let out = match cp.instrs[pc] {
            instr if is_terminal(instr) => [None, None],
            Instr::Jump(t) => [Some(t as usize), None],
            Instr::JumpIfFalse(t) | Instr::AndCheck(t) | Instr::OrCheck(t) => {
                [Some(t as usize), next]
            }
            Instr::IterNext { end, .. }
                if end as usize != pc + 1 && cp.instrs[pc + 1] == Instr::Jump(pc as u32) =>
            {
                [Some(end as usize), None]
            }
            Instr::IterNext { end, .. } => [Some(end as usize), next],
            _ => [next, None],
        };
        out.into_iter().flatten().filter(move |&to| free(to))
    };
    let mut indegree = vec![0usize; n];
    for pc in (0..n).filter(|&pc| free(pc)) {
        for to in edges(pc) {
            indegree[to] += 1;
        }
    }
    let mut ready: Vec<usize> = (0..n).filter(|&pc| free(pc) && indegree[pc] == 0).collect();
    while let Some(pc) = ready.pop() {
        for to in edges(pc) {
            indegree[to] -= 1;
            if indegree[to] == 0 {
                ready.push(to);
            }
        }
    }
    match (0..n).find(|&pc| indegree[pc] > 0) {
        Some(pc) => Err(VerifyError::UnmeteredLoop { pc }),
        None => Ok(()),
    }
}

/// Forward data-flow over the reachable CFG: operand-stack and
/// iterator-stack depth per pc, with exact-equality joins. Returns the
/// largest operand depth any reachable pc is entered with.
fn flow_pass(cp: &CompiledProgram) -> Result<usize, VerifyError> {
    let n = cp.instrs.len();
    // (operand depth, iterator depth) on entry to each reachable pc.
    let mut state: Vec<Option<(usize, usize)>> = vec![None; n];
    let mut work: Vec<usize> = Vec::with_capacity(16);
    state[0] = Some((0, 0));
    work.push(0);

    let merge = |state: &mut Vec<Option<(usize, usize)>>,
                 work: &mut Vec<usize>,
                 pc: usize,
                 depth: usize,
                 iter: usize|
     -> Result<(), VerifyError> {
        match state[pc] {
            None => {
                state[pc] = Some((depth, iter));
                work.push(pc);
                Ok(())
            }
            Some((d, it)) => {
                if d != depth {
                    return Err(VerifyError::DepthMismatch {
                        pc,
                        expected: d,
                        found: depth,
                    });
                }
                if it != iter {
                    return Err(VerifyError::IterMismatch {
                        pc,
                        expected: it,
                        found: iter,
                    });
                }
                Ok(())
            }
        }
    };

    while let Some(pc) = work.pop() {
        let (depth, iter) = state[pc].expect("work items have recorded state");
        let instr = cp.instrs[pc];
        let need = |want: usize| -> Result<(), VerifyError> {
            if depth < want {
                Err(VerifyError::StackUnderflow {
                    pc,
                    depth,
                    need: want,
                })
            } else {
                Ok(())
            }
        };
        match instr {
            Instr::Nop => {
                merge(&mut state, &mut work, pc + 1, depth, iter)?;
            }
            Instr::LoadConst(_)
            | Instr::LoadLocal(_)
            | Instr::BinaryLL { .. }
            | Instr::BinaryLC { .. }
            | Instr::HostCallC { .. } => {
                merge(&mut state, &mut work, pc + 1, depth + 1, iter)?;
            }
            Instr::StoreLocal(_) | Instr::Pop => {
                need(1)?;
                merge(&mut state, &mut work, pc + 1, depth - 1, iter)?;
            }
            Instr::Unary(_) | Instr::Truthy | Instr::BinaryTL { .. } | Instr::BinaryTC { .. } => {
                need(1)?;
                merge(&mut state, &mut work, pc + 1, depth, iter)?;
            }
            Instr::Binary(_) | Instr::Index => {
                need(2)?;
                merge(&mut state, &mut work, pc + 1, depth - 1, iter)?;
            }
            Instr::Jump(t) => {
                merge(&mut state, &mut work, t as usize, depth, iter)?;
            }
            Instr::JumpIfFalse(t) => {
                need(1)?;
                merge(&mut state, &mut work, t as usize, depth - 1, iter)?;
                merge(&mut state, &mut work, pc + 1, depth - 1, iter)?;
            }
            // Short-circuit checks pop the lhs; on the taken branch they
            // push the short-circuit result back, so the target sees the
            // *same* depth while the fallthrough sees one less.
            Instr::AndCheck(t) | Instr::OrCheck(t) => {
                need(1)?;
                merge(&mut state, &mut work, t as usize, depth, iter)?;
                merge(&mut state, &mut work, pc + 1, depth - 1, iter)?;
            }
            Instr::Call { argc, .. } | Instr::HostCall { argc, .. } => {
                let argc = argc as usize;
                need(argc)?;
                merge(&mut state, &mut work, pc + 1, depth - argc + 1, iter)?;
            }
            Instr::MakeList(count) | Instr::MakeMap { n: count, .. } => {
                let count = count as usize;
                need(count)?;
                merge(&mut state, &mut work, pc + 1, depth - count + 1, iter)?;
            }
            Instr::AssignPath { n_idx, .. } => {
                let pops = n_idx as usize + 1;
                need(pops)?;
                merge(&mut state, &mut work, pc + 1, depth - pops, iter)?;
            }
            Instr::IterNew => {
                need(1)?;
                merge(&mut state, &mut work, pc + 1, depth - 1, iter + 1)?;
            }
            Instr::IterNext { end, .. } => {
                if iter == 0 {
                    return Err(VerifyError::IterUnderflow { pc });
                }
                merge(&mut state, &mut work, end as usize, depth, iter)?;
                merge(&mut state, &mut work, pc + 1, depth, iter)?;
            }
            Instr::IterPop => {
                if iter == 0 {
                    return Err(VerifyError::IterUnderflow { pc });
                }
                merge(&mut state, &mut work, pc + 1, depth, iter - 1)?;
            }
            // Terminals: no successors, but their pops must still be
            // covered on every path that reaches them.
            Instr::Return | Instr::StoreUndef(_) => {
                need(1)?;
            }
            Instr::CallUnknown { argc, .. } => {
                need(argc as usize)?;
            }
            Instr::AssignPathUndef { n_idx, .. } => {
                need(n_idx as usize + 1)?;
            }
            Instr::ReturnNull
            | Instr::LoadUndef(_)
            | Instr::AssignErrBadTarget
            | Instr::AssignErrBadRoot
            | Instr::LoopControlErr => {}
        }
    }
    Ok(state
        .iter()
        .flatten()
        .map(|&(depth, _)| depth)
        .max()
        .unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Program, UnaryOp};
    use crate::surface::BuiltinId;

    fn compiled(src: &str) -> CompiledProgram {
        Program::parse(src)
            .unwrap_or_else(|e| panic!("parse {src:?}: {e}"))
            .compiled()
            .as_ref()
            .clone()
    }

    const CORPUS: &[&str] = &[
        "return 1;",
        "param a; param b; return a + b * 2;",
        "let x = 1; let y = 2; if (x < y) { return x; } else { return y; }",
        "let s = 0; let i = 0; while (i < 10) { s = s + i; i = i + 1; } return s;",
        "let s = 0; for (i in range(5)) { if (i == 3) { break; } s = s + i; } return s;",
        "let m = {\"a\": [1, 2], \"b\": 0}; m[\"a\"][1] = 9; return m[\"a\"][1];",
        "return true && false || 1 < 2;",
        "let r = self.get(\"x\"); self.set(\"x\", r); return self.invoke(\"m\", [r]);",
        "let l = [1, 2, 3]; let out = []; for (v in l) { push(out, v * v); } return out;",
        "return -len(\"abc\") + int(\"4\");",
        "for (a in [1]) { for (b in [2]) { continue; } } return null;",
        "return ghost;",
        "break;",
    ];

    #[test]
    fn every_compiler_output_verifies() {
        for src in CORPUS {
            let cp = compiled(src);
            verify(&cp).unwrap_or_else(|e| panic!("{src:?} failed verification: {e}"));
        }
    }

    /// The compiler's high-water mark sizes the VM's frame: it must
    /// cover the deepest operand stack any reachable pc sees.
    #[test]
    fn max_stack_covers_every_reachable_depth() {
        let programs = CORPUS
            .iter()
            .map(|src| compiled(src))
            .chain((0..256).map(|seed| {
                crate::test_programs::GenCtx::program(seed)
                    .compiled()
                    .as_ref()
                    .clone()
            }));
        for cp in programs {
            let deepest = flow_pass(&cp).expect("compiler output verifies");
            assert!(
                cp.max_stack as usize >= deepest,
                "max_stack {} < depth {deepest}:\n{}",
                cp.max_stack,
                cp.disassemble()
            );
        }
    }

    // -- targeted structural tampering -------------------------------------

    #[test]
    fn out_of_bounds_operands_are_rejected() {
        let mut cp = compiled("let x = 1; return x;");
        let load = cp
            .instrs
            .iter()
            .position(|i| matches!(i, Instr::LoadConst(_)))
            .expect("literal compiles to LoadConst");
        cp.instrs[load] = Instr::LoadConst(99);
        assert!(matches!(
            verify(&cp),
            Err(VerifyError::ConstOutOfBounds { index: 99, .. })
        ));

        let mut cp = compiled("let x = 1; return x;");
        let store = cp
            .instrs
            .iter()
            .position(|i| matches!(i, Instr::StoreLocal(_)))
            .expect("let compiles to StoreLocal");
        cp.instrs[store] = Instr::StoreLocal(77);
        assert!(matches!(
            verify(&cp),
            Err(VerifyError::SlotOutOfBounds { slot: 77, .. })
        ));
    }

    #[test]
    fn stack_underflow_is_rejected() {
        let mut cp = compiled("return 1;");
        // Overwrite the LoadConst with a Nop: Return now pops nothing.
        let load = cp
            .instrs
            .iter()
            .position(|i| matches!(i, Instr::LoadConst(_)))
            .expect("literal compiles to LoadConst");
        cp.instrs[load] = Instr::Nop;
        assert!(matches!(
            verify(&cp),
            Err(VerifyError::StackUnderflow { .. })
        ));
    }

    #[test]
    fn fall_off_end_is_rejected() {
        let mut cp = compiled("return 1;");
        let last = cp.instrs.len() - 1;
        cp.instrs[last] = Instr::Nop;
        assert!(matches!(verify(&cp), Err(VerifyError::FallOffEnd { .. })));
    }

    #[test]
    fn loops_that_burn_no_fuel_are_rejected() {
        // A jump to itself.
        let mut cp = compiled("let x = 1; if (x) { x = 2; } return x;");
        let pc = cp
            .instrs
            .iter()
            .position(|i| matches!(i, Instr::Jump(_)))
            .expect("the then-branch jumps past the else");
        assert_eq!(cp.costs[pc], 0);
        cp.instrs[pc] = Instr::Jump(pc as u32);
        assert_eq!(verify(&cp), Err(VerifyError::UnmeteredLoop { pc }));

        // A `while` head that costs nothing.
        let mut cp = compiled("while (true) { } return 1;");
        let head = cp
            .instrs
            .iter()
            .position(|i| matches!(i, Instr::LoadConst(_)))
            .expect("the condition");
        cp.costs[head] = 0;
        assert!(matches!(
            verify(&cp),
            Err(VerifyError::UnmeteredLoop { .. })
        ));

        // An empty `for` body verifies; pointing its exhaustion edge at
        // the jump back makes it spin once the iterator runs dry.
        let mut cp = compiled("for (i in [1, 2]) { } return 1;");
        verify(&cp).expect("an empty for body ends with its iterator");
        let pc = cp
            .instrs
            .iter()
            .position(|i| matches!(i, Instr::IterNext { .. }))
            .expect("for compiles to IterNext");
        let Instr::IterNext { slot, .. } = cp.instrs[pc] else {
            unreachable!("matched above")
        };
        cp.instrs[pc] = Instr::IterNext {
            slot,
            end: pc as u32 + 1,
        };
        assert!(matches!(
            verify(&cp),
            Err(VerifyError::UnmeteredLoop { .. })
        ));
    }

    #[test]
    fn iterator_tampering_is_rejected() {
        let mut cp = compiled("for (i in [1, 2]) { let x = i; } return null;");
        let iter_new = cp
            .instrs
            .iter()
            .position(|i| matches!(i, Instr::IterNew))
            .expect("for compiles to IterNew");
        // Drop the IterNew (replace with Pop to keep stack depths): the
        // loop's IterNext now runs with an empty iterator stack.
        cp.instrs[iter_new] = Instr::Pop;
        assert!(matches!(
            verify(&cp),
            Err(VerifyError::IterUnderflow { .. })
        ));
    }

    /// Every single-operand edit of `instr`: each numeric operand set to
    /// boundary and neighbouring values, each operator, builtin or
    /// unary op swapped for the others.
    fn operand_mutants(instr: Instr, n_instrs: usize) -> Vec<Instr> {
        const BINARY_OPS: [BinaryOp; 13] = [
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
        ];
        let values = |x: u32| {
            let n = u32::try_from(n_instrs).expect("small program");
            let mut vs = vec![0, 1, x.wrapping_sub(1), x.wrapping_add(1), n, u32::MAX];
            vs.retain(|&v| v != x);
            vs
        };
        let nums = |x: u32, build: &dyn Fn(u32) -> Instr| -> Vec<Instr> {
            values(x).into_iter().map(build).collect()
        };
        let ops = |build: &dyn Fn(BinaryOp) -> Instr| -> Vec<Instr> {
            BINARY_OPS
                .iter()
                .map(|&op| build(op))
                .filter(|&m| m != instr)
                .collect()
        };
        match instr {
            Instr::LoadConst(i) => nums(i, &Instr::LoadConst),
            Instr::LoadLocal(s) => nums(s, &Instr::LoadLocal),
            Instr::StoreLocal(s) => nums(s, &Instr::StoreLocal),
            Instr::LoadUndef(i) => nums(i, &Instr::LoadUndef),
            Instr::StoreUndef(i) => nums(i, &Instr::StoreUndef),
            Instr::Unary(op) => vec![Instr::Unary(match op {
                UnaryOp::Neg => UnaryOp::Not,
                UnaryOp::Not => UnaryOp::Neg,
            })],
            Instr::Binary(_) => ops(&Instr::Binary),
            Instr::BinaryLL { op, a, b } => {
                let mut out = ops(&|op| Instr::BinaryLL { op, a, b });
                out.extend(nums(a, &|a| Instr::BinaryLL { op, a, b }));
                out.extend(nums(b, &|b| Instr::BinaryLL { op, a, b }));
                out
            }
            Instr::BinaryLC { op, a, c } => {
                let mut out = ops(&|op| Instr::BinaryLC { op, a, c });
                out.extend(nums(a, &|a| Instr::BinaryLC { op, a, c }));
                out.extend(nums(c, &|c| Instr::BinaryLC { op, a, c }));
                out
            }
            Instr::BinaryTL { op, b } => {
                let mut out = ops(&|op| Instr::BinaryTL { op, b });
                out.extend(nums(b, &|b| Instr::BinaryTL { op, b }));
                out
            }
            Instr::BinaryTC { op, c } => {
                let mut out = ops(&|op| Instr::BinaryTC { op, c });
                out.extend(nums(c, &|c| Instr::BinaryTC { op, c }));
                out
            }
            Instr::Jump(t) => nums(t, &Instr::Jump),
            Instr::JumpIfFalse(t) => nums(t, &Instr::JumpIfFalse),
            Instr::AndCheck(t) => nums(t, &Instr::AndCheck),
            Instr::OrCheck(t) => nums(t, &Instr::OrCheck),
            Instr::Call { builtin, argc } => {
                let mut out = nums(argc, &|argc| Instr::Call { builtin, argc });
                for name in [
                    "len", "range", "substr", "push", "set", "fail", "join", "keys",
                ] {
                    let other = BuiltinId::from_name(name).expect("a builtin");
                    if other != builtin {
                        out.push(Instr::Call {
                            builtin: other,
                            argc,
                        });
                    }
                }
                out
            }
            Instr::CallUnknown { name, argc } => {
                let mut out = nums(name, &|name| Instr::CallUnknown { name, argc });
                out.extend(nums(argc, &|argc| Instr::CallUnknown { name, argc }));
                out
            }
            Instr::HostCall { name, argc } => {
                let mut out = nums(name, &|name| Instr::HostCall { name, argc });
                out.extend(nums(argc, &|argc| Instr::HostCall { name, argc }));
                out
            }
            Instr::HostCallC { name, c } => {
                let mut out = nums(name, &|name| Instr::HostCallC { name, c });
                out.extend(nums(c, &|c| Instr::HostCallC { name, c }));
                out
            }
            Instr::MakeList(count) => nums(count, &Instr::MakeList),
            Instr::MakeMap { keys, n } => {
                let mut out = nums(keys, &|keys| Instr::MakeMap { keys, n });
                out.extend(nums(n, &|n| Instr::MakeMap { keys, n }));
                out
            }
            Instr::AssignPath { root, n_idx } => {
                let mut out = nums(root, &|root| Instr::AssignPath { root, n_idx });
                out.extend(nums(n_idx, &|n_idx| Instr::AssignPath { root, n_idx }));
                out
            }
            Instr::AssignPathUndef { name, n_idx } => {
                let mut out = nums(name, &|name| Instr::AssignPathUndef { name, n_idx });
                out.extend(nums(n_idx, &|n_idx| Instr::AssignPathUndef { name, n_idx }));
                out
            }
            Instr::IterNext { slot, end } => {
                let mut out = nums(slot, &|slot| Instr::IterNext { slot, end });
                out.extend(nums(end, &|end| Instr::IterNext { slot, end }));
                out
            }
            Instr::Nop
            | Instr::Pop
            | Instr::Truthy
            | Instr::Index
            | Instr::AssignErrBadTarget
            | Instr::AssignErrBadRoot
            | Instr::IterNew
            | Instr::IterPop
            | Instr::LoopControlErr
            | Instr::Return
            | Instr::ReturnNull => Vec::new(),
        }
    }

    /// Every program that differs from `cp` in one instruction operand
    /// or one `costs` entry.
    fn mutants(cp: &CompiledProgram) -> Vec<CompiledProgram> {
        let mut out = Vec::new();
        for pc in 0..cp.instrs.len() {
            for instr in operand_mutants(cp.instrs[pc], cp.instrs.len()) {
                let mut m = cp.clone();
                m.instrs[pc] = instr;
                out.push(m);
            }
            for v in [0, 1, cp.costs[pc].wrapping_add(1), u32::MAX] {
                if v != cp.costs[pc] {
                    let mut m = cp.clone();
                    m.costs[pc] = v;
                    out.push(m);
                }
            }
        }
        let mut flipped = cp.clone();
        flipped.reads_args = !cp.reads_args;
        out.push(flipped);
        out
    }

    /// Hostile in-memory bytecode: each single-operand or single-cost
    /// mutant of the corpus and of seeded programs is
    /// either rejected by [`verify`] or runs on the VM to a value or a
    /// structured error — never a panic — within its fuel.
    #[test]
    fn mutated_programs_are_rejected_or_run_safely() {
        use crate::eval::NullHost;
        use crate::vm::Vm;
        use mrom_value::Value;

        const FUEL: u64 = 2_000;
        let programs = CORPUS
            .iter()
            .map(|src| compiled(src))
            .chain((0..24).map(|seed| {
                crate::test_programs::GenCtx::program(seed)
                    .compiled()
                    .as_ref()
                    .clone()
            }));
        let (mut rejected, mut ran) = (0u64, 0u64);
        for (i, cp) in programs.enumerate() {
            for m in mutants(&cp) {
                if verify(&m).is_err() {
                    rejected += 1;
                    continue;
                }
                ran += 1;
                let outcome = std::panic::catch_unwind(|| {
                    let mut host = NullHost;
                    let mut vm = Vm::with_fuel(&mut host, FUEL);
                    let _ = vm.run(&m, &[Value::Int(3), Value::from("abc")]);
                    vm.fuel_used()
                });
                match outcome {
                    Ok(used) => assert!(used <= FUEL, "program {i}: burned {used} > {FUEL}"),
                    Err(_) => panic!(
                        "program {i}: a verified mutant panicked the VM:\n{}",
                        m.disassemble()
                    ),
                }
            }
        }
        assert!(rejected > 0 && ran > 0, "rejected {rejected}, ran {ran}");
    }

    #[test]
    fn args_flag_must_match_the_instructions() {
        // Read directly, through each fused form, by a path write; and
        // never, including under a `param args` or a root `let args`.
        type ReadBy = fn(Instr) -> bool;
        let reading: [(&str, ReadBy); 7] = [
            ("return args;", |i| i == Instr::LoadLocal(0)),
            ("param a; return args == a;", |i| {
                matches!(i, Instr::BinaryLL { a: 0, b: 1, .. })
            }),
            ("param a; return a == args;", |i| {
                matches!(i, Instr::BinaryLL { a: 1, b: 0, .. })
            }),
            ("return args == null;", |i| {
                matches!(i, Instr::BinaryLC { a: 0, .. })
            }),
            ("return [1] + args;", |i| {
                matches!(i, Instr::BinaryTL { b: 0, .. })
            }),
            ("args[0] = 1; return 0;", |i| {
                matches!(i, Instr::AssignPath { root: 0, .. })
            }),
            ("return 1; return args;", |i| i == Instr::LoadLocal(0)),
        ];
        let unread = [
            "return 1;",
            "param args; return args;",
            "let args = 2; return args;",
            "param a; args = [a]; return a;",
        ];
        for (src, read_by) in reading
            .iter()
            .map(|&(s, f)| (s, Some(f)))
            .chain(unread.iter().map(|&s| (s, None)))
        {
            let mut cp = compiled(src);
            let reads = read_by.is_some();
            assert_eq!(cp.reads_args, reads, "{src}");
            assert_eq!(verify(&cp), Ok(()), "{src}");
            if let Some(read_by) = read_by {
                let pc = cp.instrs.iter().position(|&i| reads_args(i));
                assert!(pc.is_some_and(|pc| read_by(cp.instrs[pc])), "{src}");
            }
            cp.reads_args = !reads;
            match verify(&cp) {
                Err(VerifyError::ArgsFlagMismatch {
                    declared,
                    first_read,
                }) => {
                    assert_eq!(declared, !reads, "{src}");
                    assert_eq!(first_read.is_some(), reads, "{src}");
                }
                other => panic!("{src}: flipped flag verified as {other:?}"),
            }
        }
    }

    #[test]
    fn binary_short_circuit_operator_is_rejected() {
        let mut cp = compiled("param a; param b; return a + b;");
        let pc = cp
            .instrs
            .iter()
            .position(|i| matches!(i, Instr::BinaryLL { .. }))
            .expect("fused local + local");
        let Instr::BinaryLL { a, b, .. } = cp.instrs[pc] else {
            unreachable!("matched above")
        };
        cp.instrs[pc] = Instr::BinaryLL {
            op: BinaryOp::And,
            a,
            b,
        };
        assert_eq!(verify(&cp), Err(VerifyError::ShortCircuitOperator { pc }));
    }

    #[test]
    fn indexed_assignment_without_an_index_is_rejected() {
        let mut cp = compiled("let m = [1]; m[0] = 2; return m;");
        let pc = cp
            .instrs
            .iter()
            .position(|i| matches!(i, Instr::AssignPath { .. }))
            .expect("indexed assignment");
        let Instr::AssignPath { root, .. } = cp.instrs[pc] else {
            unreachable!("matched above")
        };
        cp.instrs[pc] = Instr::AssignPath { root, n_idx: 0 };
        assert_eq!(verify(&cp), Err(VerifyError::EmptyAssignPath { pc }));
    }

    #[test]
    fn errors_display_their_pc() {
        let e = VerifyError::StackUnderflow {
            pc: 7,
            depth: 0,
            need: 2,
        };
        assert!(e.to_string().contains("pc 7"));
    }
}

//! Differential battery: the tree-walking interpreter and the bytecode VM
//! must be observationally identical — byte-equal results and errors, the
//! same `fuel_used()` at every exhaustion point, and the same host-call
//! sequence — on a hand-written edge-case corpus and on seeded random
//! programs (`MROM_DIFF_SEEDS` selects the sweep width; CI uses ≥ 32).
//!
//! Every corpus entry is additionally swept across fuel budgets from zero
//! upward, so *every reachable exhaustion point* is compared, not just the
//! happy path.

use mrom_script::{Evaluator, Expr, HostContext, Program, ScriptError, Stmt, Vm};
use mrom_value::Value;

mod common;
use common::GenCtx;

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

/// A host that records its call trace and exercises both success and
/// failure paths deterministically.
#[derive(Default)]
struct Recorder {
    trace: Vec<(String, Vec<Value>)>,
}

impl HostContext for Recorder {
    fn host_call(&mut self, name: &str, args: &[Value]) -> Result<Value, ScriptError> {
        self.trace.push((name.to_owned(), args.to_vec()));
        match name {
            "fail" => Err(ScriptError::Host("host refused".into())),
            "echo" => Ok(args.first().cloned().unwrap_or(Value::Null)),
            _ => Ok(Value::Int(self.trace.len() as i64)),
        }
    }
}

struct Run {
    outcome: Result<Value, ScriptError>,
    fuel_used: u64,
    host_calls: u64,
    trace: Vec<(String, Vec<Value>)>,
}

fn run_interp(p: &Program, args: &[Value], budget: u64) -> Run {
    let mut host = Recorder::default();
    let mut ev = Evaluator::with_fuel(&mut host, budget);
    let outcome = ev.run(p, args);
    let (fuel_used, host_calls) = (ev.fuel_used(), ev.host_calls());
    Run {
        outcome,
        fuel_used,
        host_calls,
        trace: host.trace,
    }
}

fn run_vm(p: &Program, args: &[Value], budget: u64) -> Run {
    let mut host = Recorder::default();
    let mut vm = Vm::with_fuel(&mut host, budget);
    let outcome = vm.run(&p.compiled(), args);
    let (fuel_used, host_calls) = (vm.fuel_used(), vm.host_calls());
    Run {
        outcome,
        fuel_used,
        host_calls,
        trace: host.trace,
    }
}

/// Runs both engines at one budget and demands full agreement; returns the
/// shared fuel consumption.
fn agree(p: &Program, args: &[Value], budget: u64, label: &str) -> u64 {
    let a = run_interp(p, args, budget);
    let b = run_vm(p, args, budget);
    assert_eq!(
        a.outcome, b.outcome,
        "[{label}] result drift at budget {budget}"
    );
    assert_eq!(
        a.fuel_used, b.fuel_used,
        "[{label}] fuel drift at budget {budget} (outcome {:?})",
        a.outcome
    );
    assert_eq!(
        a.host_calls, b.host_calls,
        "[{label}] host-call count drift at budget {budget}"
    );
    assert_eq!(
        a.trace, b.trace,
        "[{label}] host-call trace drift at budget {budget}"
    );
    a.fuel_used
}

/// Full agreement at a generous budget, then an exhaustion sweep: every
/// budget below the actual consumption (sampled when large) must exhaust
/// both engines at the identical point with identical side effects.
fn agree_everywhere(p: &Program, args: &[Value], label: &str) {
    let used = agree(p, args, 100_000, label);
    let step = (used / 256).max(1);
    let mut budget = 0;
    while budget <= used {
        agree(p, args, budget, label);
        budget += step;
    }
    if used > 0 {
        agree(p, args, used - 1, label);
    }
    agree(p, args, used + 1, label);
}

fn src(text: &str) -> Program {
    Program::parse(text).unwrap_or_else(|e| panic!("parse {text:?}: {e}"))
}

// ---------------------------------------------------------------------------
// Hand corpus
// ---------------------------------------------------------------------------

#[test]
fn hand_corpus_agrees_at_every_budget() {
    let corpus: &[&str] = &[
        // Straight-line arithmetic and locals.
        "let x = 2; let y = x * 3; return y - 1;",
        // Branching, shadowing, and block scoping.
        "let x = 1; if (x > 0) { let x = 10; x = x + 1; } else { x = -1; } return x;",
        // While loop with break/continue.
        "let i = 0; let s = 0; while (true) { i = i + 1; \
         if (i > 8) { break; } if (i - (i / 2) * 2 == 0) { continue; } s = s + i; } return s;",
        // Nested for loops over ranges and strings.
        "let out = \"\"; for (i in range(3)) { for (c in \"ab\") { out = out + c + str(i); } } \
         return out;",
        // For over a map iterates keys; over bytes yields ints.
        "let ks = []; for (k in {\"b\": 1, \"a\": 2}) { ks = push(ks, k); } \
         let n = 0; for (b in bytes(\"hi\")) { n = n + b; } return [ks, n];",
        // Indexed assignment through nested containers.
        "let m = {\"rows\": [[1, 2], [3, 4]]}; m[\"rows\"][1][0] = 99; return m[\"rows\"];",
        // Short-circuit evaluation skips the rhs (and its host calls).
        "let a = false && self.never(); let b = true || self.never(); return [a, b];",
        // Host calls, echo round-trip, and values in the trace.
        "let a = self.ping(); let b = self.echo([a, \"x\"]); return b;",
        // A failing host call mid-program.
        "self.ping(); self.fail(); return self.never();",
        // Unknown builtin after argument evaluation.
        "return mystery(1, 2);",
        // Undefined variable read and write.
        "return ghost;",
        "ghost = 5; return 1;",
        // Type errors and division by zero.
        "return 1 + \"s\";",
        "return 1 / 0;",
        // Builtin errors: bad arity, bad coercion.
        "return len();",
        "return coerce(\"xyz\", \"int\");",
        // Size-charged builtins: concat, push, coerce of large strings.
        "let s = \"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\"; let t = s + s; let u = t + t; \
         return len(u);",
        "let l = []; for (i in range(20)) { l = push(l, str(i)); } return join(l, \"-\");",
        // Range surcharge and the range guard error.
        "return len(range(1000));",
        "return range(2000000);",
        // String repetition guard.
        "let s = \"abc\"; return len(s * 100);",
        // Deep expression nesting with mixed operators.
        "return ((1 + 2) * (3 - 4) / (5 - 3) >= -1) == (!(false) && 2 < 3);",
        // List/map literals with computed members.
        "let one = 1; return {\"a\": [one, one + 1], \"b\": {\"c\": one * 3}};",
        // Return from inside nested loops.
        "for (i in range(5)) { for (j in range(5)) { if (i * j == 6) { return [i, j]; } } } \
         return null;",
        // Stray loop control.
        "break;",
        "if (true) { continue; } return 1;",
        // Unary operators.
        "return [-(3), !true, !0, -(1 - 2)];",
        // Empty body and empty blocks.
        "",
        "if (false) { } else { } while (false) { } return null;",
        // Float arithmetic (finite values only — NaN is not comparable).
        "return 1.5 + 2.25 * 2.0;",
        // substr/split/trim/upper/lower surface.
        "let s = \" Hello World \"; return [substr(trim(s), 0, 5), upper(s), split(trim(s), \" \")];",
    ];
    for text in corpus {
        let p = src(text);
        agree_everywhere(&p, &[], text);
    }
}

#[test]
fn params_and_args_agree() {
    let p = Program::from_parts(
        vec!["a".into(), "b".into(), "args".into()],
        src("return [a, b, args];").body().to_vec(),
    );
    for args in [
        vec![],
        vec![Value::Int(1)],
        vec![Value::Int(1), Value::from("two"), Value::Bool(true)],
    ] {
        agree_everywhere(&p, &args, "params");
    }
}

/// The VM binds `args` only for a body that reads it: read directly,
/// through each fused binary form, updated by a path write, or never,
/// under a `param args` or a root-level `let args`. Results, errors,
/// fuel and host-call traces must not tell the engines apart.
#[test]
fn args_binding_agrees() {
    let bodies: &[&str] = &[
        // Read directly, and after host calls.
        "return args;",
        "self.echo(1); return [len(args), args];",
        "for (a in args) { self.echo(a); } return null;",
        // Fused `binary_ll` (both sides), `binary_lc`, `binary_tl`.
        "param a; return [args == a, a == args];",
        "param a; return args + [a];",
        "return args == null;",
        "return [0] + args;",
        "return args + 1;",
        // Updated in place by a path write (and out of bounds on `[]`).
        "args[0] = self.echo(\"x\"); return args;",
        // Never read.
        "return 1;",
        "param a; return a;",
        "param a; self.echo(a); return self.ping();",
        "param a; args = [a, a]; return a;",
        // `param args` and a root `let args` take slots of their own.
        "param args; return args;",
        "param a; param args; return [a, args];",
        "let args = 5; return args;",
        "param a; let args = [a]; return args + [a];",
        "if (true) { let args = 1; } return args;",
    ];
    let arg_lists = [
        vec![],
        vec![Value::Int(1)],
        vec![
            Value::list([Value::Int(1)]),
            Value::map([("k", Value::from("v"))]),
        ],
    ];
    for text in bodies {
        let p = src(text);
        for args in &arg_lists {
            agree_everywhere(&p, args, text);
        }
    }
}

#[test]
fn malformed_trees_agree() {
    // Shapes only constructible via `from_parts` (the parser rejects
    // them); the engines must raise identical runtime errors.
    let bad_target = Program::from_parts(
        Vec::new(),
        vec![Stmt::Assign(
            Expr::Literal(Value::Int(3)),
            Expr::Literal(Value::Int(1)),
        )],
    );
    let bad_root = Program::from_parts(
        Vec::new(),
        vec![Stmt::Assign(
            Expr::Index(
                Box::new(Expr::Call(
                    "len".into(),
                    vec![Expr::Literal(Value::from("v"))],
                )),
                Box::new(Expr::Literal(Value::Int(0))),
            ),
            Expr::Literal(Value::Int(1)),
        )],
    );
    agree_everywhere(&bad_target, &[], "bad-target");
    agree_everywhere(&bad_root, &[], "bad-root");
}

// ---------------------------------------------------------------------------
// Seeded random programs (generator shared with the verifier props)
// ---------------------------------------------------------------------------

#[test]
fn seeded_random_programs_agree_at_every_budget() {
    let seeds: u64 = std::env::var("MROM_DIFF_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    let arg_sets = [vec![], vec![Value::Int(3), Value::from("in")]];
    for seed in 0..seeds {
        let p = GenCtx::program(seed);
        for args in &arg_sets {
            agree_everywhere(&p, args, &format!("seed {seed}"));
        }
    }
}

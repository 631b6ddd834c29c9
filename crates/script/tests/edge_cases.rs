//! Language edge cases: literal syntax corners, deep nesting, unicode,
//! and stress shapes beyond the per-module unit tests.

use mrom_script::{Evaluator, NullHost, Program, ScriptError};
use mrom_value::Value;

fn run(src: &str) -> Result<Value, ScriptError> {
    let p = Program::parse(src)?;
    let mut host = NullHost;
    Evaluator::new(&mut host).run(&p, &[])
}

#[test]
fn float_exponent_literals() {
    assert_eq!(run("return 1e3;").unwrap(), Value::Float(1000.0));
    assert_eq!(run("return 2.5e2;").unwrap(), Value::Float(250.0));
    assert_eq!(run("return 1e-3;").unwrap(), Value::Float(0.001));
    assert_eq!(run("return 1E+2;").unwrap(), Value::Float(100.0));
    // `2e` without digits is Int(2) followed by identifier `e` — a parse
    // error in this position, not a bad literal.
    assert!(Program::parse("return 2e;").is_err());
}

#[test]
fn non_finite_floats_via_constructor() {
    assert_eq!(
        run("return float(\"inf\");").unwrap(),
        Value::Float(f64::INFINITY)
    );
    assert_eq!(
        run("return float(\"-inf\");").unwrap(),
        Value::Float(f64::NEG_INFINITY)
    );
    match run("return float(\"NaN\");").unwrap() {
        Value::Float(x) => assert!(x.is_nan()),
        other => panic!("expected nan, got {other}"),
    }
    // And they survive pretty-printing.
    let p = Program::parse("return float(\"inf\") + 1.0;").unwrap();
    let q = Program::parse(&p.to_string()).unwrap();
    assert_eq!(p, q);
}

#[test]
fn unicode_identifiers_and_strings() {
    assert_eq!(
        run("let café = \"naïve\"; return café + \" ✓\";").unwrap(),
        Value::from("naïve ✓")
    );
    assert_eq!(run("return len(\"日本語\");").unwrap(), Value::Int(3));
    assert_eq!(
        run("return substr(\"héllo\", 1, 2);").unwrap(),
        Value::from("él")
    );
}

#[test]
fn deeply_nested_expressions_parse_up_to_the_limit() {
    let nested = |depth: usize| {
        let mut src = String::from("return ");
        for _ in 0..depth {
            src.push('(');
        }
        src.push('1');
        for _ in 0..depth {
            src.push_str(" + 1)");
        }
        src.push(';');
        src
    };
    // Within the bound: parses and evaluates.
    let depth = mrom_script::MAX_EXPR_DEPTH - 2;
    assert_eq!(run(&nested(depth)).unwrap(), Value::Int(depth as i64 + 1));
    // Beyond the bound: a clean error, not a stack overflow — hostile
    // mobile code cannot crash the host at parse time.
    assert!(matches!(
        Program::parse(&nested(500)),
        Err(ScriptError::Parse { .. })
    ));
}

#[test]
fn long_statement_chains() {
    let mut src = String::new();
    for i in 0..2_000 {
        src.push_str(&format!("let v{i} = {i};\n"));
    }
    src.push_str("return v1999;");
    assert_eq!(run(&src).unwrap(), Value::Int(1999));
}

#[test]
fn nested_loops_with_labelled_behaviour() {
    // break/continue bind to the innermost loop.
    let src = r#"
        let total = 0;
        for (i in range(5)) {
            for (j in range(5)) {
                if (j > i) { break; }
                if (j == 1) { continue; }
                total = total + 1;
            }
        }
        return total;
    "#;
    // i=0:{j=0} i=1:{j=0} i>=1 skips j==1; i=2:{0,2} i=3:{0,2,3} i=4:{0,2,3,4}
    assert_eq!(run(src).unwrap(), Value::Int(11));
}

#[test]
fn shadowing_in_nested_scopes() {
    let src = r#"
        let x = 1;
        let seen = [];
        if (true) {
            let x = 2;
            seen = push(seen, x);
            if (true) {
                let x = 3;
                seen = push(seen, x);
            }
            seen = push(seen, x);
        }
        return push(seen, x);
    "#;
    assert_eq!(
        run(src).unwrap(),
        Value::list([Value::Int(2), Value::Int(3), Value::Int(2), Value::Int(1)])
    );
}

#[test]
fn for_loop_variable_does_not_leak() {
    assert!(matches!(
        run("for (i in range(3)) { } return i;"),
        Err(ScriptError::UndefinedVariable(_))
    ));
}

#[test]
fn assignment_inside_loops_mutates_outer_scope() {
    let src = r#"
        let acc = "";
        for (c in "abc") { acc = acc + c + "-"; }
        return acc;
    "#;
    assert_eq!(run(src).unwrap(), Value::from("a-b-c-"));
}

#[test]
fn map_iteration_order_is_sorted() {
    let src = r#"
        let m = {"zulu": 1, "alpha": 2, "mike": 3};
        let order = [];
        for (k in m) { order = push(order, k); }
        return order;
    "#;
    assert_eq!(
        run(src).unwrap(),
        Value::list([
            Value::from("alpha"),
            Value::from("mike"),
            Value::from("zulu")
        ])
    );
}

#[test]
fn recursion_is_impossible_but_iteration_is_enough() {
    // The language has no user-defined functions (methods live on objects),
    // so a classic fib is written iteratively.
    let src = r#"
        param n;
        let a = 0;
        let b = 1;
        for (i in range(n)) {
            let t = a + b;
            a = b;
            b = t;
        }
        return a;
    "#;
    let p = Program::parse(src).unwrap();
    let mut host = NullHost;
    let out = Evaluator::new(&mut host)
        .run(&p, &[Value::Int(30)])
        .unwrap();
    assert_eq!(out, Value::Int(832_040));
}

#[test]
fn error_line_numbers_point_at_the_problem() {
    let src = "let a = 1;\nlet b = 2;\nlet c = ;\n";
    match Program::parse(src) {
        Err(ScriptError::Parse { line, .. }) => assert_eq!(line, 3),
        other => panic!("expected parse error, got {other:?}"),
    }
    let src = "let a = 1;\nlet s = \"unterminated;\n";
    match Program::parse(src) {
        Err(ScriptError::Lex { line, .. }) => assert_eq!(line, 2),
        other => panic!("expected lex error, got {other:?}"),
    }
}

#[test]
fn comments_everywhere() {
    let src = r#"
        # leading comment
        param x; # trailing comment
        # between statements
        let y = x + 1; # math
        return y; # done
        # after the end
    "#;
    let p = Program::parse(src).unwrap();
    let mut host = NullHost;
    assert_eq!(
        Evaluator::new(&mut host).run(&p, &[Value::Int(9)]).unwrap(),
        Value::Int(10)
    );
}

#[test]
fn empty_containers_and_falsy_conditions() {
    assert_eq!(
        run("if ([]) { return 1; } return 0;").unwrap(),
        Value::Int(0)
    );
    assert_eq!(
        run("if ({}) { return 1; } return 0;").unwrap(),
        Value::Int(0)
    );
    assert_eq!(
        run("if (\"\") { return 1; } return 0;").unwrap(),
        Value::Int(0)
    );
    assert_eq!(
        run("if (0.0) { return 1; } return 0;").unwrap(),
        Value::Int(0)
    );
    assert_eq!(
        run("if ([0]) { return 1; } return 0;").unwrap(),
        Value::Int(1)
    );
}

#[test]
fn fuel_is_proportional_not_exponential() {
    // Two programs, 10x work apart, must use roughly 10x fuel.
    let measure = |iters: usize| {
        let p = Program::parse(&format!(
            "let s = 0; for (i in range({iters})) {{ s = s + 1; }} return s;"
        ))
        .unwrap();
        let mut host = NullHost;
        let mut ev = Evaluator::new(&mut host);
        ev.run(&p, &[]).unwrap();
        ev.fuel_used()
    };
    let f1 = measure(1_000);
    let f10 = measure(10_000);
    let ratio = f10 as f64 / f1 as f64;
    assert!((8.0..12.0).contains(&ratio), "ratio {ratio}");
}

#[test]
fn deeply_nested_blocks_are_bounded_too() {
    let nested_ifs = |depth: usize| {
        let mut src = String::new();
        for _ in 0..depth {
            src.push_str("if (true) { ");
        }
        src.push_str("let x = 1; ");
        for _ in 0..depth {
            src.push('}');
        }
        src
    };
    assert!(Program::parse(&nested_ifs(20)).is_ok());
    assert!(matches!(
        Program::parse(&nested_ifs(500)),
        Err(ScriptError::Parse { .. })
    ));
}

#[test]
fn hostile_deep_value_trees_rejected_by_from_value() {
    // Build an AST value tree deeper than the limit by hand (bypassing the
    // wire decoder's own depth bound).
    let mut expr = Value::list([Value::from("lit"), Value::Int(1)]);
    for _ in 0..200 {
        expr = Value::list([Value::from("un"), Value::from("not"), expr]);
    }
    let tree = Value::map([
        ("params", Value::list([])),
        (
            "body",
            Value::list([Value::list([Value::from("expr"), expr])]),
        ),
    ]);
    assert!(matches!(
        Program::from_value(&tree),
        Err(ScriptError::MalformedProgram(_))
    ));
}

#[test]
fn value_tree_depth_limit_is_exact() {
    // A `return` statement (node 1) over `n - 2` unary `not`s around a
    // literal: `n` nested nodes in all.
    let tree = |n: usize| {
        let mut expr = Value::list([Value::from("lit"), Value::Bool(true)]);
        for _ in 0..n - 2 {
            expr = Value::list([Value::from("un"), Value::from("not"), expr]);
        }
        Value::map([
            ("params", Value::list([])),
            (
                "body",
                Value::list([Value::list([Value::from("return"), expr])]),
            ),
        ])
    };
    let limit = mrom_script::MAX_EXPR_DEPTH;
    // At the limit: decodes, runs, and re-encodes to the same tree.
    let at_limit = Program::from_value(&tree(limit)).expect("a tree at the limit decodes");
    assert_eq!(at_limit.to_value(), tree(limit));
    let out = Evaluator::new(&mut NullHost).run(&at_limit, &[]).unwrap();
    assert_eq!(out, Value::Bool(limit.is_multiple_of(2)));
    // One level deeper: the decoder's error, not the evaluator's.
    match Program::from_value(&tree(limit + 1)) {
        Err(ScriptError::MalformedProgram(detail)) => {
            assert!(
                detail.contains("node nesting exceeds the limit of 64"),
                "{detail}"
            );
        }
        other => panic!("expected MalformedProgram, got {other:?}"),
    }
    // Decoding leaves no state behind: the at-limit tree still decodes
    // after a rejection.
    assert!(Program::from_value(&tree(limit)).is_ok());
}

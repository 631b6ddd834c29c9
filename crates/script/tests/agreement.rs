//! Analyzer/evaluator agreement: a program the admission analyzer passes
//! clean must not stumble over the very defects the analyzer claims to
//! rule out (unresolved variables, unknown builtins) when it actually
//! runs, and the host calls it makes at runtime must be a subset of the
//! surface the manifest predicted.

use mrom_script::analyze::{analyze_program, DiagnosticKind, Severity};
use mrom_script::surface::{BUILTINS, HOST_OPS};
use mrom_script::{Evaluator, HostContext, Program, ScriptError};
use mrom_value::Value;
use proptest::prelude::*;

/// Records every host call and answers with a benign value, so scripts
/// that branch on host results keep running.
#[derive(Default)]
struct Recorder {
    calls: Vec<(String, usize)>,
}

impl HostContext for Recorder {
    fn host_call(&mut self, name: &str, args: &[Value]) -> Result<Value, ScriptError> {
        self.calls.push((name.to_owned(), args.len()));
        Ok(Value::Int(self.calls.len() as i64))
    }
}

/// Runs `src` under a recording host and returns the recorded calls,
/// asserting first that the analyzer found nothing and then that the run
/// finished without a scope or builtin error.
fn run_clean(src: &str, args: &[Value]) -> Vec<(String, usize)> {
    let p = Program::parse(src).expect("parse");
    let report = analyze_program(&p);
    assert!(
        report.is_clean(),
        "expected clean analysis for {src:?}, got {:?}",
        report.diagnostics
    );
    let mut host = Recorder::default();
    let mut ev = Evaluator::with_fuel(&mut host, 100_000);
    let out = ev.run(&p, args);
    if let Err(e) = out {
        panic!("analyzer-clean program failed at runtime: {e}\nsource: {src}");
    }
    host.calls
}

#[test]
fn clean_scope_heavy_program_runs() {
    run_clean(
        "param n; let total = 0; let i = 0; \
         while (i < n) { let sq = i * i; total = total + sq; i = i + 1; } \
         return total;",
        &[Value::Int(5)],
    );
}

#[test]
fn recorded_host_calls_match_the_manifest() {
    let src = "param key; \
               let current = self.get(key); \
               self.set(key, current + 1); \
               if (self.has_data(\"audit\")) { self.append_audit(key); } \
               return current;";
    let p = Program::parse(src).expect("parse");
    let report = analyze_program(&p);
    assert!(report.is_clean());

    let calls = run_clean(src, &[Value::from("hops")]);
    let called: Vec<&str> = calls.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(called, ["get", "set", "has_data", "append_audit"].to_vec());

    // Everything the run touched was statically predicted: known calls in
    // the capability buckets, the unknown one in `world_calls`.
    let m = &report.manifest;
    assert!(m.dynamic_data, "get(key) with a non-literal key is dynamic");
    assert!(m.world_calls.contains("append_audit"));
    assert_eq!(m.host_call_sites, 4);
}

#[test]
fn builtin_heavy_program_agrees() {
    run_clean(
        "param text; let parts = split(text, \" \"); let out = []; \
         for (w in parts) { out = push(out, upper(w)); } \
         return join(out, \"-\");",
        &[Value::from("a b c")],
    );
}

#[test]
fn example_scripts_on_disk_stay_clean_and_runnable() {
    // The same files CI lints; agreement means they also execute without
    // scope/builtin faults under a permissive host.
    for name in [
        "hop_counter.mrs",
        "sum_args.mrs",
        "install.mrs",
        "adapt.mrs",
    ] {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/scripts/");
        let src = std::fs::read_to_string(format!("{path}{name}")).expect("read example");
        let p = Program::parse(&src).unwrap_or_else(|e| panic!("{name}: parse: {e}"));
        let report = analyze_program(&p);
        assert!(report.is_clean(), "{name}: {:?}", report.diagnostics);
        let mut host = Recorder::default();
        let mut ev = Evaluator::with_fuel(&mut host, 100_000);
        if let Err(e) = ev.run(&p, &[Value::Int(1)]) {
            panic!("{name}: runtime: {e}");
        }
    }
}

#[test]
fn builtin_arity_verdicts_match_the_evaluator() {
    // Every builtin at 0..=4 string arguments: the analyzer's
    // `BuiltinArity` fires exactly when the evaluator refuses the count.
    for builtin in &BUILTINS {
        for argc in 0..=4 {
            let args = vec!["\"7\""; argc].join(", ");
            let src = format!("return {}({args});", builtin.name);
            let p = Program::parse(&src).expect("parse");
            let flagged = analyze_program(&p)
                .diagnostics
                .iter()
                .any(|d| d.kind == DiagnosticKind::BuiltinArity);
            let mut host = Recorder::default();
            let refused = matches!(
                Evaluator::with_fuel(&mut host, 100_000).run(&p, &[]),
                Err(ScriptError::BuiltinArgs { ref detail, .. }) if detail.contains(" arguments, got ")
            );
            assert_eq!(flagged, refused, "{src}");
        }
    }
}

#[test]
fn script_doc_lists_the_host_table() {
    // docs/SCRIPT.md shows every `self.*` row, marking structural ones
    // with ¹ and meta-ACL-gated ones with ² right after the call.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/SCRIPT.md");
    let doc = std::fs::read_to_string(path).expect("read SCRIPT.md");
    let start = doc.find("## The host interface").expect("host section");
    let doc = &doc[start..];
    for row in &HOST_OPS {
        let call = format!("{}(", row.name);
        let at = doc
            .match_indices(&call)
            .map(|(i, _)| i)
            .find(|&i| matches!(doc[..i].chars().last(), Some('.' | ' ')))
            .unwrap_or_else(|| panic!("SCRIPT.md lacks {call}"));
        let close = at + doc[at..].find(')').expect("closing paren");
        let marks: String = doc[close + 1..]
            .chars()
            .skip_while(|&c| c == '`')
            .take_while(|c| matches!(c, '¹' | '²'))
            .collect();
        assert_eq!(
            marks.contains('¹'),
            row.structural,
            "{} structural mark",
            row.name
        );
        assert_eq!(
            marks.contains('²'),
            row.meta_gated,
            "{} meta ACL mark",
            row.name
        );
    }
}

proptest! {
    /// The implication holds for arbitrary programs: whenever the analyzer
    /// reports no errors, evaluation never dies on an unresolved variable
    /// or unknown builtin — those defect classes are fully covered
    /// statically. (Programs the analyzer flags are unconstrained.)
    #[test]
    fn clean_verdicts_are_honoured_at_runtime(src in "[ -~]{0,120}") {
        let Ok(p) = Program::parse(&src) else { return Ok(()) };
        let report = analyze_program(&p);
        if report.diagnostics.iter().any(|d| d.severity == Severity::Error) {
            return Ok(());
        }
        let mut host = Recorder::default();
        let mut ev = Evaluator::with_fuel(&mut host, 20_000);
        match ev.run(&p, &[]) {
            Err(ScriptError::UndefinedVariable(name)) => {
                prop_assert!(false, "analyzer missed undefined variable {name} in {src:?}");
            }
            Err(ScriptError::UnknownBuiltin(name)) => {
                prop_assert!(false, "analyzer missed unknown builtin {name} in {src:?}");
            }
            _ => {}
        }
    }
}

//! Surface agreement: the admission analyzer, the effect solver and the
//! script bridge all read one table of the `self.*` call surface
//! (`mrom_script::surface::HOST_OPS`). This battery drives every row
//! through each of them and checks that what the static side claims is
//! what the running object does:
//!
//! * `HostCallArity` fires exactly when `host_call` refuses the argument
//!   count;
//! * a body the solver calls `pure` leaves the generation, the tower and
//!   every data value as they were;
//! * no name the host serves itself is counted as a world call;
//! * under an `Acl::Nobody` object meta ACL, `AclUnsatisfiable` fires
//!   exactly for the operations `host_call` refuses with a `meta` denial.
//!
//! Every argument is a string: the first is `"p"`, which names both the
//! specimen's data item and its tower method, so each operation finds its
//! target; any later one is `"return 1;"`, a value and a method body.

use std::collections::BTreeMap;

use mrom_core::{
    analyze_program, invoke, Acl, DiagnosticKind, Method, MethodBody, MromError, MromObject,
    ObjectBuilder, WorldHook,
};
use mrom_script::surface::HOST_OPS;
use mrom_script::Program;
use mrom_value::{IdGenerator, NodeId, ObjectId, Value};

/// Records the world calls that reach it and answers each with `null`.
#[derive(Default)]
struct World {
    calls: Vec<String>,
}

impl WorldHook for World {
    fn world_call(
        &mut self,
        _caller: ObjectId,
        op: &str,
        _args: &[Value],
    ) -> Result<Value, MromError> {
        self.calls.push(op.to_owned());
        Ok(Value::Null)
    }
}

/// `return self.<name>("p", "return 1;", ...);` with `argc` arguments.
fn probe_source(name: &str, argc: usize) -> String {
    let args: Vec<&str> = (0..argc)
        .map(|i| if i == 0 { "\"p\"" } else { "\"return 1;\"" })
        .collect();
    format!("return self.{name}({});", args.join(", "))
}

/// An object with an extensible data item `p`, an extensible pass-through
/// method `p` installed as its one tower level, the method `probe` running
/// `src`, and then `meta` as its object meta ACL.
fn specimen(src: &str, meta: Acl) -> MromObject {
    let mut ids = IdGenerator::new(NodeId(29));
    let mut obj = ObjectBuilder::new(ids.next_id()).class("specimen").build();
    let me = obj.id();
    let public = |src: &str| Method::public(MethodBody::script(src).unwrap());
    obj.add_data(me, "p", Value::Int(1)).unwrap();
    obj.add_method(
        me,
        "p",
        public("param m; param a; return self.invoke(m, a);"),
    )
    .unwrap();
    obj.install_meta_invoke(me, "p").unwrap();
    obj.add_method(me, "probe", public(src)).unwrap();
    obj.set_meta_acl(me, meta).unwrap();
    obj
}

/// Runs `probe` from an outside caller; the error text on failure.
fn run(obj: &mut MromObject, world: &mut World) -> Result<Value, String> {
    let caller = IdGenerator::new(NodeId(30)).next_id();
    invoke(obj, world, caller, "probe", &[]).map_err(|e| e.to_string())
}

/// What a pure body must leave alone.
fn state(obj: &MromObject) -> (u64, Vec<String>, BTreeMap<String, Value>) {
    let me = obj.id();
    let data = obj
        .list_data(me)
        .into_iter()
        .map(|(n, _)| {
            let v = obj.read_data(me, &n).unwrap();
            (n, v)
        })
        .collect();
    let tower = obj.tower().iter().map(ToString::to_string).collect();
    (obj.generation(), tower, data)
}

fn report(disagreements: &[String]) {
    assert!(
        disagreements.is_empty(),
        "{} disagreement(s):\n{}",
        disagreements.len(),
        disagreements.join("\n")
    );
}

#[test]
fn arity_verdicts_match_the_bridge() {
    let mut out = Vec::new();
    for row in &HOST_OPS {
        for argc in 0..=3 {
            let src = probe_source(row.name, argc);
            let flagged = analyze_program(&Program::parse(&src).unwrap())
                .diagnostics
                .iter()
                .any(|d| d.kind == DiagnosticKind::HostCallArity);
            let mut obj = specimen(&src, Acl::Origin);
            let refused =
                run(&mut obj, &mut World::default()).is_err_and(|e| e.contains(" expects "));
            if flagged != refused {
                out.push(format!(
                    "{src} analyzer HostCallArity={flagged}, host refuses the count={refused}"
                ));
            }
        }
    }
    report(&out);
}

#[test]
fn pure_bodies_change_nothing() {
    let mut out = Vec::new();
    for row in &HOST_OPS {
        for argc in 0..=3 {
            let src = probe_source(row.name, argc);
            let mut obj = specimen(&src, Acl::Origin);
            if !obj.effects()["probe"].pure {
                continue;
            }
            let before = state(&obj);
            let _ = run(&mut obj, &mut World::default());
            let after = state(&obj);
            if before != after {
                out.push(format!("{src} solves pure but {before:?} became {after:?}"));
            }
        }
    }
    report(&out);
}

#[test]
fn host_served_names_are_not_world_calls() {
    let mut out = Vec::new();
    for row in &HOST_OPS {
        for argc in 0..=3 {
            let src = probe_source(row.name, argc);
            let manifest = analyze_program(&Program::parse(&src).unwrap()).manifest;
            let mut world = World::default();
            let _ = run(&mut specimen(&src, Acl::Origin), &mut world);
            if !world.calls.is_empty() {
                out.push(format!("{src} reached the world hook: {:?}", world.calls));
            }
            if manifest.world_calls.contains(row.name) {
                out.push(format!(
                    "{src} is served by the host but counted a world call"
                ));
            }
        }
    }
    // A name outside the surface is the world's, on both sides.
    let src = probe_source("beep", 1);
    let manifest = analyze_program(&Program::parse(&src).unwrap()).manifest;
    let mut world = World::default();
    run(&mut specimen(&src, Acl::Origin), &mut world).unwrap();
    assert_eq!(world.calls, ["beep"]);
    assert!(manifest.world_calls.contains("beep"));
    report(&out);
}

#[test]
fn nobody_meta_acl_verdicts_match_the_bridge() {
    let mut out = Vec::new();
    for row in &HOST_OPS {
        // The fewest arguments: a descriptor argument, when there is one,
        // is checked before the ACL and would mask the verdict.
        let src = probe_source(row.name, row.arities[0]);
        let mut obj = specimen(&src, Acl::Nobody);
        let flagged = obj
            .analyze()
            .iter()
            .any(|d| d.kind == DiagnosticKind::AclUnsatisfiable && d.path.starts_with("probe."));
        let denied =
            run(&mut obj, &mut World::default()).is_err_and(|e| e.contains(" may not meta "));
        if flagged != denied {
            out.push(format!(
                "{src} analyzer AclUnsatisfiable={flagged}, host meta denial={denied}"
            ));
        }
    }
    report(&out);
}

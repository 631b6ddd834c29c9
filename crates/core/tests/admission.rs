//! The seeded defect corpus: one test per diagnostic kind, plus policy
//! enforcement at every trust boundary (`from_image`, `add_method`,
//! `set_method`).
//!
//! Every policy is passed explicitly — through a `*_with_policy` entry
//! point or a runtime's own limits — so these tests share no state.

use std::sync::{Arc, Barrier};

use mrom_core::{
    Acl, AdmissionPolicy, DataItem, DiagnosticKind, InvokeLimits, Method, MethodBody, MromError,
    MromObject, ObjectBuilder, Runtime, Severity,
};
use mrom_value::{IdGenerator, NodeId, Value};

fn ids() -> IdGenerator {
    IdGenerator::new(NodeId(21))
}

/// A well-formed mobile object: one data item, one clean method.
fn clean_object(gen: &mut IdGenerator) -> MromObject {
    ObjectBuilder::new(gen.next_id())
        .class("specimen")
        .fixed_data("count", DataItem::public(Value::Int(0)))
        .fixed_method(
            "bump",
            Method::public(
                MethodBody::script("self.set(\"count\", self.get(\"count\") + 1); return true;")
                    .unwrap(),
            ),
        )
        .build()
}

fn script_method(src: &str) -> Method {
    Method::public(MethodBody::script(src).unwrap())
}

fn kinds(diags: &[mrom_core::Diagnostic]) -> Vec<DiagnosticKind> {
    diags.iter().map(|d| d.kind).collect()
}

// --- the seeded defect corpus: one test per diagnostic kind ---------------

#[test]
fn corpus_undefined_variable() {
    let mut gen = ids();
    let mut obj = clean_object(&mut gen);
    let me = obj.id();
    obj.add_method(me, "bad", script_method("return ghost;"))
        .unwrap();
    assert!(kinds(&obj.analyze()).contains(&DiagnosticKind::UndefinedVariable));
}

#[test]
fn corpus_use_before_assign() {
    let mut gen = ids();
    let mut obj = clean_object(&mut gen);
    let me = obj.id();
    obj.add_method(
        me,
        "bad",
        script_method("if (true) { let x = 1; } return x;"),
    )
    .unwrap();
    assert!(kinds(&obj.analyze()).contains(&DiagnosticKind::UseBeforeAssign));
}

#[test]
fn corpus_unused_param() {
    let mut gen = ids();
    let mut obj = clean_object(&mut gen);
    let me = obj.id();
    obj.add_method(me, "bad", script_method("param spare; return 1;"))
        .unwrap();
    let diags = obj.analyze();
    assert!(kinds(&diags).contains(&DiagnosticKind::UnusedParam));
    // A warning, not an error: strict admission would still accept.
    assert!(diags.iter().all(|d| d.severity == Severity::Warning));
}

#[test]
fn corpus_dangling_data_item() {
    let mut gen = ids();
    let mut obj = clean_object(&mut gen);
    let me = obj.id();
    obj.add_method(me, "bad", script_method("return self.get(\"absent\");"))
        .unwrap();
    let diags = obj.analyze();
    assert!(kinds(&diags).contains(&DiagnosticKind::DanglingDataItem));
    assert!(diags[0].path.starts_with("bad.body"));
}

#[test]
fn corpus_dangling_method_call() {
    let mut gen = ids();
    let mut obj = clean_object(&mut gen);
    let me = obj.id();
    obj.add_method(
        me,
        "bad",
        script_method("return self.invoke(\"vanished\", []);"),
    )
    .unwrap();
    assert!(kinds(&obj.analyze()).contains(&DiagnosticKind::DanglingMethodCall));
}

#[test]
fn corpus_unknown_meta_method() {
    let mut gen = ids();
    // Built WITHOUT the bundled meta-methods: reflective names cannot
    // resolve through `self.invoke`.
    let mut obj = ObjectBuilder::new(gen.next_id())
        .class("bare")
        .without_meta_methods()
        .build();
    let me = obj.id();
    obj.add_method(
        me,
        "bad",
        script_method("return self.invoke(\"getDataItem\", [\"x\"]);"),
    )
    .unwrap();
    assert!(kinds(&obj.analyze()).contains(&DiagnosticKind::UnknownMetaMethod));
}

#[test]
fn corpus_acl_unsatisfiable() {
    let mut gen = ids();
    let mut obj = ObjectBuilder::new(gen.next_id())
        .class("sealed")
        .fixed_data(
            "secret",
            DataItem::public(Value::Int(1)).with_read_acl(Acl::Nobody),
        )
        .fixed_method(
            "locked",
            Method::new(MethodBody::script("return 1;").unwrap()).with_invoke_acl(Acl::Nobody),
        )
        .build();
    let me = obj.id();
    // Nobody-gated data read and Nobody-gated invocation: both statically
    // dead for every principal, the object itself included.
    obj.add_method(
        me,
        "bad",
        script_method("self.invoke(\"locked\", []); return self.get(\"secret\");"),
    )
    .unwrap();
    let diags = obj.analyze();
    let n = kinds(&diags)
        .iter()
        .filter(|k| **k == DiagnosticKind::AclUnsatisfiable)
        .count();
    assert_eq!(n, 2, "{diags:?}");
}

#[test]
fn corpus_acl_unsatisfiable_meta_mutation() {
    let mut gen = ids();
    // meta_acl Nobody: structural self-mutation can never be permitted.
    let obj = ObjectBuilder::new(gen.next_id())
        .class("frozen")
        .meta_acl(Acl::Nobody)
        .fixed_method(
            "grow",
            script_method("self.add_method(\"extra\", \"return 1;\"); return true;"),
        )
        .build();
    assert!(kinds(&obj.analyze()).contains(&DiagnosticKind::AclUnsatisfiable));
}

#[test]
fn corpus_node_and_depth_budget() {
    use mrom_core::ResourceBudget;
    let mut gen = ids();
    let mut obj = clean_object(&mut gen);
    let me = obj.id();
    obj.add_method(
        me,
        "chunky",
        script_method("return 1 + 2 + 3 + 4 + 5 + 6 + 7 + 8;"),
    )
    .unwrap();
    let tight = ResourceBudget {
        max_nodes: 4,
        max_depth: 3,
        max_static_fuel: Some(2),
    };
    let ks = kinds(&obj.analyze_with_budget(&tight));
    assert!(ks.contains(&DiagnosticKind::NodeBudget));
    assert!(ks.contains(&DiagnosticKind::DepthBudget));
    assert!(ks.contains(&DiagnosticKind::FuelBudget));
}

// --- policy enforcement at trust boundaries -------------------------------

/// A migration image whose `bad` method reads a data item that never
/// travelled with the object.
fn crafted_bad_image(gen: &mut IdGenerator) -> Vec<u8> {
    let mut obj = clean_object(gen);
    let me = obj.id();
    obj.add_method(
        me,
        "bad",
        script_method("return self.get(\"left_behind\");"),
    )
    .unwrap();
    obj.migration_image(me).unwrap()
}

#[test]
fn strict_rejects_a_crafted_image_at_from_image() {
    let mut gen = ids();
    let image = crafted_bad_image(&mut gen);
    let err = MromObject::from_image_with_policy(&image, AdmissionPolicy::Strict).unwrap_err();
    match err {
        MromError::AdmissionRejected {
            context,
            diagnostics,
            ..
        } => {
            assert_eq!(context, "from_image");
            assert!(diagnostics
                .iter()
                .any(|d| d.kind == DiagnosticKind::DanglingDataItem));
        }
        other => panic!("expected AdmissionRejected, got {other}"),
    }
}

#[test]
fn off_and_warn_admit_the_same_crafted_image() {
    let mut gen = ids();
    let image = crafted_bad_image(&mut gen);
    let off = MromObject::from_image_with_policy(&image, AdmissionPolicy::Off).unwrap();
    let warn = MromObject::from_image_with_policy(&image, AdmissionPolicy::Warn).unwrap();
    assert_eq!(off, warn);
    // And the default entry point (policy Off) is byte-for-byte identical:
    // the admitted object re-serializes to the same image.
    let again = MromObject::from_image(&image).unwrap();
    assert_eq!(again, off);
    assert_eq!(again.migration_image(again.id()).unwrap(), image);
}

#[test]
fn strict_accepts_a_clean_image() {
    let mut gen = ids();
    let obj = clean_object(&mut gen);
    let image = obj.migration_image(obj.id()).unwrap();
    let back = MromObject::from_image_with_policy(&image, AdmissionPolicy::Strict).unwrap();
    assert_eq!(back, obj);
}

#[test]
fn warnings_never_block_strict_admission() {
    let mut gen = ids();
    let mut obj = clean_object(&mut gen);
    let me = obj.id();
    obj.add_method(me, "lazy", script_method("param spare; return 1;"))
        .unwrap();
    let image = obj.migration_image(me).unwrap();
    assert!(MromObject::from_image_with_policy(&image, AdmissionPolicy::Strict).is_ok());
}

#[test]
fn strict_gates_add_method() {
    let strict = AdmissionPolicy::Strict;
    let mut gen = ids();
    let mut obj = clean_object(&mut gen);
    let me = obj.id();
    // Clean methods still install.
    let ok = script_method("return self.get(\"count\");");
    obj.add_method_with_policy(me, "ok", ok, strict).unwrap();
    // Defective ones are rejected before touching the object.
    let bad = script_method("return self.get(\"absent\");");
    let err = obj
        .add_method_with_policy(me, "bad", bad, strict)
        .unwrap_err();
    assert!(matches!(
        err,
        MromError::AdmissionRejected { ref context, .. } if context == "add_method"
    ));
    assert!(obj.find_method("bad").is_none());
}

#[test]
fn strict_gates_set_method() {
    let mut gen = ids();
    let mut obj = clean_object(&mut gen);
    let me = obj.id();
    obj.add_method(me, "mut", script_method("return 1;"))
        .unwrap();
    // Swapping in a defective body is rejected; the old body stays.
    let bad_body = Value::map([("body", Value::from("return self.get(\"absent\");"))]);
    let err = obj
        .set_method_with_policy(me, "mut", &bad_body, AdmissionPolicy::Strict)
        .unwrap_err();
    assert!(matches!(
        err,
        MromError::AdmissionRejected { ref context, .. } if context == "set_method"
    ));
    let mut world = mrom_core::NoWorld;
    assert_eq!(
        mrom_core::invoke(&mut obj, &mut world, me, "mut", &[]).unwrap(),
        Value::Int(1)
    );
}

#[test]
fn candidate_methods_may_recurse() {
    let mut gen = ids();
    let mut obj = clean_object(&mut gen);
    let me = obj.id();
    // The candidate references itself through self.invoke: its own
    // name counts as present during admission.
    let countdown = script_method(
        "param n; if (n <= 0) { return 0; } return self.invoke(\"countdown\", [n - 1]);",
    );
    obj.add_method_with_policy(me, "countdown", countdown, AdmissionPolicy::Strict)
        .unwrap();
}

/// A runtime at `node` whose limits carry `policy`, hosting one object
/// whose `grow` method installs a body that reads a missing data item.
fn runtime_with_grower(node: u64, policy: AdmissionPolicy) -> (Runtime, mrom_value::ObjectId) {
    let mut rt = Runtime::new(NodeId(node));
    rt.set_limits(InvokeLimits {
        admission: policy,
        ..InvokeLimits::default()
    });
    let grower = ObjectBuilder::new(rt.ids_mut().next_id())
        .class("grower")
        .fixed_method(
            "grow",
            script_method(
                "param name; self.add_method(name, \"return self.get(\\\"absent\\\");\"); \
                 return true;",
            ),
        )
        .build();
    let id = grower.id();
    rt.adopt(grower).unwrap();
    (rt, id)
}

#[test]
fn script_add_method_follows_the_runtime_policy() {
    let (mut strict, id) = runtime_with_grower(31, AdmissionPolicy::Strict);
    let err = strict
        .invoke_as_system(id, "grow", &[Value::from("bad")])
        .unwrap_err();
    assert!(
        matches!(err, MromError::AdmissionRejected { ref context, .. } if context == "add_method"),
        "{err}"
    );
    assert!(strict.object(id).unwrap().find_method("bad").is_none());

    let (mut off, id) = runtime_with_grower(32, AdmissionPolicy::Off);
    off.invoke_as_system(id, "grow", &[Value::from("bad")])
        .unwrap();
    assert!(off.object(id).unwrap().find_method("bad").is_some());
}

#[test]
fn runtimes_with_opposite_policies_admit_concurrently() {
    // Two runtimes admit the same defective method at the same moment
    // from two threads; each follows its own policy, every round.
    const ROUNDS: usize = 200;
    let barrier = Arc::new(Barrier::new(2));
    let spawn = |node: u64, policy: AdmissionPolicy| {
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            let (mut rt, id) = runtime_with_grower(node, policy);
            (0..ROUNDS)
                .map(|round| {
                    barrier.wait();
                    let name = Value::from(format!("bad{round}"));
                    rt.invoke_as_system(id, "grow", &[name]).is_ok()
                })
                .collect::<Vec<bool>>()
        })
    };
    let strict = spawn(41, AdmissionPolicy::Strict);
    let off = spawn(42, AdmissionPolicy::Off);
    assert_eq!(strict.join().unwrap(), vec![false; ROUNDS]);
    assert_eq!(off.join().unwrap(), vec![true; ROUNDS]);
}

#[test]
fn analyze_is_clean_on_well_formed_objects() {
    let mut gen = ids();
    let obj = clean_object(&mut gen);
    assert!(obj.analyze().is_empty(), "{:?}", obj.analyze());
}

#[test]
fn pre_and_post_procedures_are_analyzed_too() {
    let mut gen = ids();
    let mut obj = clean_object(&mut gen);
    let me = obj.id();
    let m = script_method("return 1;")
        .with_pre(MethodBody::script("return self.get(\"missing_gate\");").unwrap());
    obj.add_method(me, "guarded", m).unwrap();
    let diags = obj.analyze();
    assert!(diags.iter().any(|d| d.path.starts_with("guarded.pre")));
}

#[test]
fn bodies_that_create_their_data_are_admissible() {
    let mut gen = ids();
    let mut obj = clean_object(&mut gen);
    let me = obj.id();
    // add_data_item then get: the created name satisfies the read.
    obj.add_method(
        me,
        "selfmade",
        script_method("self.add_data_item(\"scratch\", 0); return self.get(\"scratch\");"),
    )
    .unwrap();
    assert!(obj.analyze().is_empty(), "{:?}", obj.analyze());
}

#[test]
fn world_calls_are_not_flagged() {
    let mut gen = ids();
    let mut obj = clean_object(&mut gen);
    let me = obj.id();
    // Unknown self.* names route to the world hook: an environment
    // capability, not a structural defect.
    obj.add_method(
        me,
        "worldly",
        script_method("return self.send_mail(\"hi\");"),
    )
    .unwrap();
    assert!(obj.analyze().is_empty(), "{:?}", obj.analyze());
}

//! Edge cases of the meta-method surface invoked *as methods* (the way a
//! foreign host talks to a newcomer object), plus wrapping and constraint
//! corners not covered by the module tests.

use mrom_core::{
    invoke, Acl, DataItem, Method, MethodBody, MromError, NoWorld, ObjectBuilder, Section,
    TypeConstraint,
};
use mrom_script::ScriptError;
use mrom_value::{IdGenerator, NodeId, Value, ValueKind};

fn ids() -> IdGenerator {
    IdGenerator::new(NodeId(0xedce))
}

fn subject() -> (mrom_core::MromObject, IdGenerator) {
    let mut gen = ids();
    let obj = ObjectBuilder::new(gen.next_id())
        .class("edge")
        .fixed_data("x", DataItem::public(Value::Int(1)))
        .fixed_method(
            "echo",
            Method::public(MethodBody::script("param v; return v;").unwrap()),
        )
        .build();
    (obj, gen)
}

#[test]
fn invoke_meta_accepts_one_or_two_args() {
    let (mut obj, mut gen) = subject();
    let me = obj.id();
    let caller = gen.next_id();
    let mut world = NoWorld;
    obj.add_method(
        me,
        "nullary",
        Method::public(MethodBody::script("return 9;").unwrap()),
    )
    .unwrap();
    // One-arg form: no argument list.
    assert_eq!(
        invoke(
            &mut obj,
            &mut world,
            caller,
            "invoke",
            &[Value::from("nullary")]
        )
        .unwrap(),
        Value::Int(9)
    );
    // Bad shapes are BadDescriptor, not panics.
    assert!(matches!(
        invoke(&mut obj, &mut world, caller, "invoke", &[]),
        Err(MromError::BadDescriptor(_))
    ));
    assert!(matches!(
        invoke(
            &mut obj,
            &mut world,
            caller,
            "invoke",
            &[Value::from("nullary"), Value::Int(3)]
        ),
        Err(MromError::BadDescriptor(_))
    ));
    assert!(matches!(
        invoke(&mut obj, &mut world, caller, "invoke", &[Value::Int(1)]),
        Err(MromError::BadDescriptor(_))
    ));
}

#[test]
fn meta_methods_validate_arity_and_kinds() {
    let (mut obj, mut gen) = subject();
    let me = obj.id();
    let caller = gen.next_id();
    let mut world = NoWorld;
    // Introspective metas are public but still validate arguments.
    assert!(matches!(
        invoke(&mut obj, &mut world, caller, "getDataItem", &[]),
        Err(MromError::BadDescriptor(_))
    ));
    assert!(matches!(
        invoke(&mut obj, &mut world, caller, "getMethod", &[Value::Int(1)]),
        Err(MromError::BadDescriptor(_))
    ));
    // Mutating metas validate after the ACL gate: the origin sees the
    // descriptor error, strangers see denial first.
    assert!(matches!(
        invoke(
            &mut obj,
            &mut world,
            me,
            "addDataItem",
            &[Value::from("only-name")]
        ),
        Err(MromError::BadDescriptor(_))
    ));
    assert!(matches!(
        invoke(
            &mut obj,
            &mut world,
            caller,
            "addDataItem",
            &[Value::from("only-name")]
        ),
        Err(MromError::AccessDenied { .. })
    ));
}

#[test]
fn add_method_descriptor_vs_bare_body() {
    let (mut obj, mut gen) = subject();
    let me = obj.id();
    let caller = gen.next_id();
    let mut world = NoWorld;
    // Bare body string: origin-private by default.
    invoke(
        &mut obj,
        &mut world,
        me,
        "addMethod",
        &[Value::from("private_m"), Value::from("return 1;")],
    )
    .unwrap();
    assert!(!obj.has_method(caller, "private_m"));
    assert!(obj.has_method(me, "private_m"));
    // Full descriptor: public ACL applies immediately.
    invoke(
        &mut obj,
        &mut world,
        me,
        "addMethod",
        &[
            Value::from("public_m"),
            Value::map([
                ("body", Value::from("return 2;")),
                ("invoke_acl", Value::from("public")),
            ]),
        ],
    )
    .unwrap();
    assert_eq!(
        invoke(&mut obj, &mut world, caller, "public_m", &[]).unwrap(),
        Value::Int(2)
    );
}

#[test]
fn set_method_acl_change_is_immediate() {
    let (mut obj, mut gen) = subject();
    let me = obj.id();
    let caller = gen.next_id();
    let mut world = NoWorld;
    obj.add_method(
        me,
        "open_then_shut",
        Method::public(MethodBody::script("return 1;").unwrap()),
    )
    .unwrap();
    assert!(invoke(&mut obj, &mut world, caller, "open_then_shut", &[]).is_ok());
    invoke(
        &mut obj,
        &mut world,
        me,
        "setMethod",
        &[
            Value::from("open_then_shut"),
            Value::map([("invoke_acl", Value::from("origin"))]),
        ],
    )
    .unwrap();
    assert!(matches!(
        invoke(&mut obj, &mut world, caller, "open_then_shut", &[]),
        Err(MromError::AccessDenied { .. })
    ));
}

#[test]
fn get_data_item_reports_section_through_invocation() {
    let (mut obj, mut gen) = subject();
    let me = obj.id();
    let caller = gen.next_id();
    let mut world = NoWorld;
    obj.add_data_item(me, "soft", DataItem::public(Value::Null))
        .unwrap();
    let fixed = invoke(
        &mut obj,
        &mut world,
        caller,
        "getDataItem",
        &[Value::from("x")],
    )
    .unwrap();
    assert_eq!(fixed.as_map().unwrap()["section"], Value::from("fixed"));
    let ext = invoke(
        &mut obj,
        &mut world,
        caller,
        "getDataItem",
        &[Value::from("soft")],
    )
    .unwrap();
    assert_eq!(ext.as_map().unwrap()["section"], Value::from("extensible"));
}

#[test]
fn type_constrained_item_coerces_on_every_write_path() {
    let (mut obj, mut gen) = subject();
    let me = obj.id();
    let mut world = NoWorld;
    obj.add_data_item(
        me,
        "port",
        DataItem::public(Value::Int(80))
            .with_constraint(TypeConstraint::Coerce(ValueKind::Int))
            .unwrap()
            .with_write_acl(Acl::Public),
    )
    .unwrap();
    let caller = gen.next_id();
    // Direct write coerces.
    obj.write_data(caller, "port", Value::from("<b>8080</b>"))
        .unwrap();
    assert_eq!(obj.read_data(caller, "port").unwrap(), Value::Int(8080));
    // Script write coerces too.
    obj.add_method(
        me,
        "set_port",
        Method::public(
            MethodBody::script("param p; self.set(\"port\", p); return self.get(\"port\");")
                .unwrap(),
        ),
    )
    .unwrap();
    assert_eq!(
        invoke(
            &mut obj,
            &mut world,
            caller,
            "set_port",
            &[Value::from("443")]
        )
        .unwrap(),
        Value::Int(443)
    );
    // Uncoercible writes fail with TypeConstraint from either path.
    assert!(matches!(
        obj.write_data(caller, "port", Value::from("not a port")),
        Err(MromError::TypeConstraint { .. })
    ));
    assert!(matches!(
        invoke(
            &mut obj,
            &mut world,
            caller,
            "set_port",
            &[Value::from("nope")]
        ),
        Err(MromError::Script(ScriptError::Host(_)))
    ));
}

#[test]
fn post_procedure_sees_result_then_args() {
    let (mut obj, mut gen) = subject();
    let me = obj.id();
    let mut world = NoWorld;
    obj.add_method(
        me,
        "checked",
        Method::public(MethodBody::script("param a; param b; return a * b;").unwrap()).with_post(
            MethodBody::script(
                // r must come first, then the original args in order.
                "param r; param a; param b; return r == a * b && a == 6 && b == 7;",
            )
            .unwrap(),
        ),
    )
    .unwrap();
    let caller = gen.next_id();
    assert_eq!(
        invoke(
            &mut obj,
            &mut world,
            caller,
            "checked",
            &[Value::Int(6), Value::Int(7)]
        )
        .unwrap(),
        Value::Int(42)
    );
    assert!(matches!(
        invoke(
            &mut obj,
            &mut world,
            caller,
            "checked",
            &[Value::Int(1), Value::Int(1)]
        ),
        Err(MromError::PostConditionFailed { .. })
    ));
}

#[test]
fn native_bodies_route_through_the_tower_via_call_env() {
    // A native body calling env.invoke re-enters the full tower, same as a
    // script body would.
    let mut gen = ids();
    let mut obj = ObjectBuilder::new(gen.next_id())
        .fixed_data(
            "trace",
            DataItem::public(Value::Int(0)).with_write_acl(Acl::Public),
        )
        .fixed_method(
            "target",
            Method::public(MethodBody::script("return \"reached\";").unwrap()),
        )
        .fixed_method(
            "native_caller",
            Method::public(MethodBody::native(|env, _| env.invoke("target", &[]))),
        )
        .build();
    let me = obj.id();
    obj.add_method(
        me,
        "count_meta",
        Method::public(
            MethodBody::script(
                r#"
                param m;
                param a;
                self.set("trace", self.get("trace") + 1);
                return self.invoke(m, a);
                "#,
            )
            .unwrap(),
        ),
    )
    .unwrap();
    obj.install_meta_invoke(me, "count_meta").unwrap();
    let caller = gen.next_id();
    let mut world = NoWorld;
    let out = invoke(&mut obj, &mut world, caller, "native_caller", &[]).unwrap();
    assert_eq!(out, Value::from("reached"));
    // Two passes through the meta level: the outer call and the nested one.
    assert_eq!(obj.read_data(caller, "trace").unwrap(), Value::Int(2));
}

#[test]
fn meta_mutability_deleting_the_invoke_meta_method() {
    // A class that opted its meta-methods into the extensible section can
    // lose them — the radical end of meta-mutability. External invocation
    // still works (the engine is level 0), but reflexive invoke("m", ...)
    // is gone.
    let mut gen = ids();
    let mut obj = ObjectBuilder::new(gen.next_id())
        .meta_section(Section::Extensible)
        .fixed_method(
            "m",
            Method::public(MethodBody::script("return 5;").unwrap()),
        )
        .build();
    let me = obj.id();
    let caller = gen.next_id();
    let mut world = NoWorld;
    assert_eq!(
        invoke(&mut obj, &mut world, caller, "invoke", &[Value::from("m")]).unwrap(),
        Value::Int(5)
    );
    obj.delete_method(me, "invoke").unwrap();
    // Direct invocation is engine-level and survives...
    assert_eq!(
        invoke(&mut obj, &mut world, caller, "m", &[]).unwrap(),
        Value::Int(5)
    );
    // ...but the reflective method entry is gone.
    assert!(matches!(
        invoke(&mut obj, &mut world, caller, "invoke", &[Value::from("m")]),
        Err(MromError::NoSuchMethod { .. })
    ));
}

/// A body that renames an item changes the item set, so replaying it
/// cannot give the same outcome: its verdict must say so, or an
/// idempotent-only retry would re-post an applied call.
#[test]
fn renaming_set_data_item_is_structural_and_not_idempotent() {
    let (mut obj, mut gen) = subject();
    let me = obj.id();
    let mut world = NoWorld;
    obj.add_data(me, "p", Value::Int(3)).unwrap();
    obj.add_method(
        me,
        "rename_p",
        Method::public(
            MethodBody::script("self.set_data_item(\"p\", {\"rename\": \"q\"}); return 1;")
                .unwrap(),
        ),
    )
    .unwrap();
    let sig = &mrom_core::object_effects(&obj)["rename_p"];
    assert!(sig.structural, "{sig:?}");
    assert!(!sig.idempotent, "{sig:?}");

    let caller = gen.next_id();
    assert_eq!(
        invoke(&mut obj, &mut world, caller, "rename_p", &[]).unwrap(),
        Value::Int(1)
    );
    assert!(invoke(&mut obj, &mut world, caller, "rename_p", &[]).is_err());
}

#[test]
fn script_rename_via_set_data_item() {
    let (mut obj, mut gen) = subject();
    let me = obj.id();
    let mut world = NoWorld;
    obj.add_data(me, "old_name", Value::Int(3)).unwrap();
    obj.add_method(
        me,
        "rename_it",
        Method::public(
            MethodBody::script(
                "self.set_data_item(\"old_name\", {\"rename\": \"new_name\"}); return self.has_data(\"new_name\");",
            )
            .unwrap(),
        ),
    )
    .unwrap();
    let caller = gen.next_id();
    assert_eq!(
        invoke(&mut obj, &mut world, caller, "rename_it", &[]).unwrap(),
        Value::Bool(true)
    );
    assert!(obj.has_data(me, "new_name"));
    assert!(!obj.has_data(me, "old_name"));
}

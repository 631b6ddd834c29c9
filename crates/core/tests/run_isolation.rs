//! Each script run owns its frame and nothing outlives it: on one
//! `Runtime`, runs that end in fuel exhaustion, a host error or an ACL
//! denial leave nothing behind for the next run of the same object, and
//! nested runs (`self.invoke` recursion, a world `send` into a second
//! scripted object) each see their own frame.

use mrom_core::{Acl, ClassSpec, DataItem, Method, MethodBody, MromError, Runtime};
use mrom_script::ScriptError;
use mrom_value::{NodeId, ObjectId, Value};

fn script(src: &str) -> Method {
    Method::public(MethodBody::script(src).expect("test bodies parse"))
}

fn cell_class() -> ClassSpec {
    ClassSpec::new("cell")
        .fixed_data("count", DataItem::public(Value::Int(0)))
        .fixed_data(
            "secret",
            DataItem::new(Value::Int(7)).with_read_acl(Acl::Nobody),
        )
        .fixed_method(
            "bump",
            script("self.set(\"count\", self.get(\"count\") + 1); return self.get(\"count\");"),
        )
        .fixed_method("peek", script("return self.get(\"count\");"))
        // Each failing body leaves operands on the stack when it stops.
        .fixed_method(
            "burn",
            script(
                "let l = [1, 2]; while (true) { l = [l[1], self.get(\"count\") + 1]; } return l;",
            ),
        )
        .fixed_method(
            "host_error",
            script("return [1, self.get(\"count\"), self.get(\"absent\")];"),
        )
        .fixed_method(
            "denied",
            script("return [self.get(\"count\"), self.get(\"secret\")];"),
        )
        .fixed_method(
            "countdown",
            script(
                "param n; if (n == 0) { return 0; } \
                 return n + self.invoke(\"countdown\", [n - 1]);",
            ),
        )
        // Arrival hooks that fail after reading their context, one with
        // `args` left unbound and one that reads it.
        .fixed_method(
            "on_arrival",
            script("param ctx; return [ctx[\"from\"], self.get(\"absent\")];"),
        )
        .fixed_method(
            "on_arrival_args",
            script("param ctx; return [args, ctx, args[0][\"from\"] + \"x\"];"),
        )
        .fixed_method(
            "relay",
            script("param other; return [self.send(other, \"bump\", []), self.get(\"count\")];"),
        )
}

fn runtime() -> Runtime {
    let mut rt = Runtime::new(NodeId(0x1501));
    rt.classes_mut().register(cell_class()).unwrap();
    rt
}

fn bump_and_peek(rt: &mut Runtime, id: ObjectId) -> Vec<Result<Value, MromError>> {
    vec![
        rt.invoke_as_system(id, "bump", &[]),
        rt.invoke_as_system(id, "bump", &[]),
        rt.invoke_as_system(id, "peek", &[]),
    ]
}

#[test]
fn failed_runs_leave_nothing_for_the_next_run() {
    let mut rt = runtime();
    let used = rt.create("cell").unwrap();
    let fresh = rt.create("cell").unwrap();

    assert!(matches!(
        rt.invoke_as_system(used, "burn", &[]),
        Err(MromError::Script(ScriptError::FuelExhausted { .. }))
    ));
    assert!(matches!(
        rt.invoke_as_system(used, "host_error", &[]),
        Err(MromError::Script(ScriptError::Host(_)))
    ));
    assert!(matches!(
        rt.invoke_as_system(used, "denied", &[]),
        Err(MromError::Script(ScriptError::Host(_)))
    ));
    assert_eq!(rt.poison_cause(used), None);

    let after = bump_and_peek(&mut rt, used);
    assert_eq!(after, bump_and_peek(&mut rt, fresh));
    assert_eq!(
        after,
        [Ok(Value::Int(1)), Ok(Value::Int(2)), Ok(Value::Int(2))]
    );
}

#[test]
fn a_failed_arrival_hook_leaves_nothing_for_the_next_run() {
    let mut rt = runtime();
    let used = rt.create("cell").unwrap();
    let fresh = rt.create("cell").unwrap();
    let ctx = Value::map([
        ("from", Value::Int(3)),
        ("hops", Value::list([Value::Int(1), Value::from("lan")])),
    ]);

    assert!(matches!(
        rt.invoke_as_system(used, "on_arrival", std::slice::from_ref(&ctx)),
        Err(MromError::Script(ScriptError::Host(_)))
    ));
    assert!(matches!(
        rt.invoke_as_system(used, "on_arrival_args", &[ctx]),
        Err(MromError::Script(ScriptError::TypeMismatch { .. }))
    ));
    assert_eq!(rt.poison_cause(used), None);
    assert_eq!(bump_and_peek(&mut rt, used), bump_and_peek(&mut rt, fresh));
}

#[test]
fn nested_runs_give_their_exact_results() {
    let mut rt = runtime();
    let a = rt.create("cell").unwrap();
    let b = rt.create("cell").unwrap();

    assert_eq!(
        rt.invoke_as_system(a, "countdown", &[Value::Int(10)]),
        Ok(Value::Int(55))
    );
    for expect in 1..=2 {
        assert_eq!(
            rt.invoke_as_system(a, "relay", &[Value::ObjectRef(b)]),
            Ok(Value::list([Value::Int(expect), Value::Int(0)]))
        );
    }
    assert_eq!(rt.invoke_as_system(b, "peek", &[]), Ok(Value::Int(2)));
    assert_eq!(rt.invoke_as_system(a, "peek", &[]), Ok(Value::Int(0)));
}

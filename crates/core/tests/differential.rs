//! Engine-differential battery at the *object* level: the same method
//! invocation on identically-built objects must produce byte-identical
//! results, errors, and post-state under the tree-walking interpreter and
//! the bytecode VM — including at every fuel-exhaustion point.
//!
//! The interpreter side runs through [`invoke_with_reference_evaluator`],
//! which shares Lookup/Match/Apply with production and swaps only the
//! engine, so the tests need no shared state and run in parallel.

use mrom_core::{
    invoke, invoke_with_limits, invoke_with_reference_evaluator, Acl, DataItem, InvokeLimits,
    Method, MethodBody, MromError, MromObject, NoWorld, ObjectBuilder, WorldHook,
};
use mrom_value::{IdGenerator, NodeId, ObjectId, Value};

/// One invocation entry point: the production VM or the reference oracle.
type Engine = fn(
    &mut MromObject,
    &mut dyn WorldHook,
    ObjectId,
    &str,
    &[Value],
    &InvokeLimits,
) -> Result<Value, MromError>;

const INTERP: Engine = invoke_with_reference_evaluator;
const VM: Engine = invoke_with_limits;

fn ids() -> IdGenerator {
    IdGenerator::new(NodeId(42))
}

/// A specimen with fixed + extensible state and a spread of method shapes.
fn specimen(gen: &mut IdGenerator) -> MromObject {
    ObjectBuilder::new(gen.next_id())
        .class("diff-specimen")
        .fixed_data("count", DataItem::public(Value::Int(0)))
        .fixed_data("label", DataItem::public(Value::from("spec")))
        .fixed_data(
            "secret",
            DataItem::new(Value::Int(7)).with_read_acl(Acl::Nobody),
        )
        .fixed_method(
            "bump",
            Method::public(
                MethodBody::script("self.set(\"count\", self.get(\"count\") + 1); return true;")
                    .unwrap(),
            ),
        )
        .fixed_method(
            "spin",
            Method::public(
                MethodBody::script(
                    "param n; let i = 0; while (i < n) { \
                     self.set(\"count\", self.get(\"count\") + 1); i = i + 1; } \
                     return self.get(\"count\");",
                )
                .unwrap(),
            ),
        )
        .fixed_method(
            "describe_count",
            Method::public(
                MethodBody::script("return self.invoke(\"getDataItem\", [\"count\"]);").unwrap(),
            ),
        )
        .build()
}

/// One observation of a call: its outcome plus the object's full post-state
/// (captured as the canonical migration image, so *any* state divergence —
/// data values, methods, generation-visible structure — shows up).
fn observe(
    engine: Engine,
    method: &str,
    args: &[Value],
    fuel: u64,
    extra: impl Fn(&mut MromObject),
) -> (Result<Value, MromError>, Vec<u8>) {
    let mut gen = ids();
    let mut obj = specimen(&mut gen);
    extra(&mut obj);
    let caller = gen.next_id();
    let mut world = NoWorld;
    let limits = InvokeLimits {
        fuel,
        ..InvokeLimits::default()
    };
    let out = engine(&mut obj, &mut world, caller, method, args, &limits);
    let me = obj.id();
    let image = obj
        .migration_image(me)
        .expect("self can always image itself");
    (out, image)
}

/// Asserts both engines agree on outcome and post-state for one call shape,
/// at a generous budget and across a fuel sweep up to that call's real cost.
fn agree(method: &str, args: &[Value], extra: impl Fn(&mut MromObject) + Copy) {
    let generous = 200_000;
    let (out_i, img_i) = observe(INTERP, method, args, generous, extra);
    let (out_v, img_v) = observe(VM, method, args, generous, extra);
    assert_eq!(out_i, out_v, "[{method}] outcome drift at full budget");
    assert_eq!(img_i, img_v, "[{method}] post-state drift at full budget");

    // Exhaustion sweep: sampled budgets below the generous one must fail
    // (or succeed) identically, with identical partial side effects.
    for fuel in (0..400).step_by(7).chain([500, 1000, 5000, 20_000]) {
        let (a, ia) = observe(INTERP, method, args, fuel, extra);
        let (b, ib) = observe(VM, method, args, fuel, extra);
        assert_eq!(a, b, "[{method}] outcome drift at fuel {fuel}");
        assert_eq!(ia, ib, "[{method}] post-state drift at fuel {fuel}");
    }
}

fn add(obj: &mut MromObject, name: &str, src: &str) {
    let me = obj.id();
    obj.add_method(me, name, Method::public(MethodBody::script(src).unwrap()))
        .unwrap();
}

#[test]
fn clean_methods_agree() {
    agree("bump", &[], |_| {});
    agree("spin", &[Value::Int(25)], |_| {});
    agree("describe_count", &[], |_| {});
}

#[test]
fn defect_corpus_bodies_agree() {
    // Runtime-failing bodies from the admission defect corpus: both
    // engines must surface the identical error with identical partial
    // effects on the object.
    let corpus: &[(&str, &str)] = &[
        ("ghost", "return ghost;"),
        ("escaped", "if (true) { let x = 1; } return x;"),
        ("absent", "return self.get(\"absent\");"),
        ("vanished", "return self.invoke(\"vanished\", []);"),
        ("locked", "return self.get(\"secret\");"),
        ("divzero", "let d = 0; return 1 / d;"),
        (
            "hot",
            "let s = \"\"; while (true) { s = s + \"x\"; } return s;",
        ),
        (
            "mutate_then_fail",
            "self.set(\"count\", 41); self.set(\"count\", self.get(\"count\") + 1); \
             return self.get(\"missing\");",
        ),
    ];
    for (name, src) in corpus {
        agree(name, &[], |obj| add(obj, name, src));
    }
}

#[test]
fn ic_sites_survive_structural_mutation() {
    // A body that reads `self.get("count")`, then mutates object
    // structure (extensible adds/deletes bump the generation) and reads
    // again — both engines must see every write, never a stale value.
    let src = "let a = self.get(\"count\"); \
               self.add_data_item(\"tmp\", a + 1); \
               self.set(\"count\", self.get(\"count\") + 10); \
               self.delete_data_item(\"tmp\"); \
               return [self.get(\"count\"), a];";
    agree("churn", &[], |obj| add(obj, "churn", src));
}

#[test]
fn self_modifying_methods_agree() {
    // addMethod installs a fresh Program (fresh, empty bytecode cache);
    // invoking it afterwards must behave identically across engines.
    let src = "self.add_method(\"doubler\", \"param x; return x * 2;\"); \
               return self.invoke(\"doubler\", [21]);";
    agree("grow", &[], |obj| add(obj, "grow", src));

    // setMethod replaces an existing body: the old compiled form must not
    // be reachable from the new Program.
    let replace = "self.set_method(\"helper\", \"return \\\"new\\\";\"); \
                   return self.invoke(\"helper\", []);";
    agree("swap", &[], |obj| {
        add(obj, "helper", "return \"old\";");
        add(obj, "swap", replace);
    });
}

#[test]
fn nested_invocations_share_the_fuel_ledger_identically() {
    // spin(8) through the meta `invoke` — the nested call draws on the
    // same ledger, so exhaustion points depend on cross-call accounting.
    let src = "return self.invoke(\"spin\", [8]) + self.invoke(\"spin\", [4]);";
    agree("nested", &[], |obj| add(obj, "nested", src));
}

#[test]
fn reference_evaluator_matches_plain_invoke() {
    // Default limits through the oracle entry and through plain `invoke`:
    // the entry point itself must not change behaviour.
    let mut gen = ids();
    let mut obj = specimen(&mut gen);
    let caller = gen.next_id();
    let limits = InvokeLimits::default();
    let args = [Value::Int(5)];
    let out =
        invoke_with_reference_evaluator(&mut obj, &mut NoWorld, caller, "spin", &args, &limits);
    assert_eq!(out, Ok(Value::Int(5)));
    let mut gen = ids();
    let mut obj = specimen(&mut gen);
    assert_eq!(invoke(&mut obj, &mut NoWorld, caller, "spin", &args), out);
}

//! Shared fixtures and measurement helpers for the experiment suite
//! (E1-E10 in `DESIGN.md` §5).
//!
//! Both the criterion benches (`benches/`) and the `tables` binary build
//! their workloads from this crate so the numbers they report describe the
//! same objects.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mrom_core::{
    Acl, ClassSpec, DataItem, InvokeLimits, Method, MethodBody, MromObject, ObjectBuilder,
};
use mrom_value::{IdGenerator, NodeId, ObjectId, Value};

/// A fresh deterministic id generator for bench fixtures.
pub fn bench_ids() -> IdGenerator {
    IdGenerator::new(NodeId(0xbe7c))
}

/// The canonical counter object used across experiments, with **script**
/// bodies (`bump`, `add`) — mirrors [`mrom_baselines::StaticCounter`].
pub fn script_counter(ids: &mut IdGenerator) -> MromObject {
    ObjectBuilder::new(ids.next_id())
        .class("counter")
        .fixed_data("count", DataItem::public(Value::Int(0)))
        .fixed_method(
            "bump",
            Method::public(
                MethodBody::script(
                    "self.set(\"count\", self.get(\"count\") + 1); return self.get(\"count\");",
                )
                .expect("bump parses"),
            ),
        )
        .fixed_method(
            "add",
            Method::public(
                MethodBody::script("param a; param b; return a + b;").expect("add parses"),
            ),
        )
        .build()
}

/// The counter with **native** bodies — isolates the invocation machinery
/// (lookup, match, apply) from script evaluation.
pub fn native_counter(ids: &mut IdGenerator) -> MromObject {
    ObjectBuilder::new(ids.next_id())
        .class("counter")
        .fixed_data("count", DataItem::public(Value::Int(0)))
        .fixed_method(
            "bump",
            Method::public(MethodBody::native(|env, _| {
                let me = env.object_ref().id();
                let c = env.object().read_data(me, "count")?.as_int().unwrap_or(0);
                env.object().write_data(me, "count", Value::Int(c + 1))?;
                Ok(Value::Int(c + 1))
            })),
        )
        .fixed_method(
            "add",
            Method::public(MethodBody::native(|_, args| {
                match (
                    args.first().and_then(Value::as_int),
                    args.get(1).and_then(Value::as_int),
                ) {
                    (Some(a), Some(b)) => Ok(Value::Int(a.wrapping_add(b))),
                    _ => Ok(Value::Null),
                }
            })),
        )
        .build()
}

/// An object whose `m_add` method sits among `n - 1` sibling methods in
/// the chosen section, for lookup-cost sweeps (E2).
pub fn counter_among(ids: &mut IdGenerator, n: usize, extensible: bool) -> MromObject {
    let filler =
        |i: usize| Method::public(MethodBody::native(move |_, _| Ok(Value::Int(i as i64))));
    let target = Method::public(MethodBody::native(|_, args| {
        match (
            args.first().and_then(Value::as_int),
            args.get(1).and_then(Value::as_int),
        ) {
            (Some(a), Some(b)) => Ok(Value::Int(a.wrapping_add(b))),
            _ => Ok(Value::Null),
        }
    }));
    let mut b = ObjectBuilder::new(ids.next_id()).class("crowded");
    if extensible {
        for i in 0..n.saturating_sub(1) {
            b = b.ext_method(&format!("filler_{i:05}"), filler(i));
        }
        b = b.ext_method("m_add", target);
    } else {
        for i in 0..n.saturating_sub(1) {
            b = b.fixed_method(&format!("filler_{i:05}"), filler(i));
        }
        b = b.fixed_method("m_add", target);
    }
    b.build()
}

/// An object whose `gated` method carries an [`Acl::Only`] list of
/// `list_size` principals (E4). Returns `(object, admitted, rejected)`.
pub fn acl_gated(ids: &mut IdGenerator, list_size: usize) -> (MromObject, ObjectId, ObjectId) {
    let mut members: Vec<ObjectId> = (0..list_size.max(1)).map(|_| ids.next_id()).collect();
    let admitted = members[list_size / 2];
    let rejected = ids.next_id();
    let method = Method::new(MethodBody::native(|_, _| Ok(Value::Int(1))))
        .with_invoke_acl(Acl::only(members.drain(..)));
    let obj = ObjectBuilder::new(ids.next_id())
        .class("gated")
        .fixed_method("gated", method)
        .build();
    (obj, admitted, rejected)
}

/// A mobile object carrying `items` extensible data items of ~`item_bytes`
/// each — the payload knob for migration/persistence size sweeps (E6/E10).
pub fn cargo_object(ids: &mut IdGenerator, items: usize, item_bytes: usize) -> MromObject {
    cargo_object_as(ids.next_id(), items, item_bytes)
}

/// [`cargo_object`] with a pre-minted identity (for ids drawn from a
/// runtime's shared generator).
pub fn cargo_object_as(id: mrom_value::ObjectId, items: usize, item_bytes: usize) -> MromObject {
    let mut obj = ObjectBuilder::new(id)
        .class("cargo")
        .fixed_method(
            "ping",
            Method::public(MethodBody::script("return \"pong\";").expect("ping parses")),
        )
        .build();
    let me = obj.id();
    let blob = "x".repeat(item_bytes);
    for i in 0..items {
        obj.add_data(me, &format!("cargo_{i:05}"), Value::Str(blob.clone()))
            .expect("fresh names never collide");
    }
    obj
}

fn bench_script(src: &str) -> Method {
    Method::public(MethodBody::script(src).expect("bench scripts parse"))
}

/// The benchmark package's `bench-cell` class: a counter with `bump` and
/// `peek`.
pub fn bench_cell_class() -> ClassSpec {
    ClassSpec::new("bench-cell")
        .fixed_data("count", DataItem::public(Value::Int(0)))
        .fixed_method(
            "bump",
            bench_script(
                "self.set(\"count\", self.get(\"count\") + 1); return self.get(\"count\");",
            ),
        )
        .fixed_method("peek", bench_script("return self.get(\"count\");"))
}

fn bench_cargo_class(tag: usize) -> ClassSpec {
    bench_cell_class()
        .specialize("bench-cargo")
        .fixed_data("cargo", DataItem::public(Value::Bytes(Vec::new())))
        .fixed_data("hops", DataItem::public(Value::Int(0)))
        .fixed_method(
            "on_arrival",
            bench_script(&format!(
                "param ctx; self.set(\"hops\", self.get(\"hops\") + {}); return self.get(\"hops\");",
                tag + 1
            )),
        )
}

/// An instance of the benchmark package's `bench-cargo` class, named `id`
/// and carrying `payload` bytes: a `bench-cell` with a `cargo` payload, a
/// hop count and an `on_arrival` hook. Tag 0 is the benchmark's own hook;
/// other tags vary its body so each tag has a fixed section of its own.
pub fn bench_cargo_as(id: ObjectId, tag: usize, payload: usize) -> MromObject {
    let mut obj = bench_cargo_class(tag).instantiate_as(id, None);
    obj.write_data(id, "cargo", Value::Bytes(vec![0x5a; payload]))
        .expect("cargo is writable by its origin");
    obj
}

/// Names of the data items produced by [`cargo_object`], for building
/// ambassador specs that carry the cargo.
pub fn cargo_names(items: usize) -> Vec<String> {
    (0..items).map(|i| format!("cargo_{i:05}")).collect()
}

/// The employee-db class used by the HADAS experiments, re-exported for
/// the benches.
pub fn employee_db() -> ClassSpec {
    hadas::scenarios::employee_db_class()
}

/// Default invocation limits used by the experiment suite.
pub fn limits() -> InvokeLimits {
    InvokeLimits::default()
}

/// Measures `f` over `iters` iterations, returning mean nanoseconds per
/// iteration (used by the `tables` binary; criterion provides the rigorous
/// numbers).
pub fn time_ns<F: FnMut()>(iters: u64, mut f: F) -> f64 {
    for _ in 0..iters / 10 + 1 {
        f();
    }
    let start = std::time::Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Formats a nanosecond figure compactly (`830ns`, `1.24us`, `3.10ms`).
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0}ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2}us", ns / 1_000.0)
    } else {
        format!("{:.2}ms", ns / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrom_core::{invoke, NoWorld};

    #[test]
    fn fixtures_behave_identically() {
        let mut ids = bench_ids();
        let mut world = NoWorld;
        let caller = ids.next_id();
        let mut script = script_counter(&mut ids);
        let mut native = native_counter(&mut ids);
        let args = [Value::Int(20), Value::Int(22)];
        assert_eq!(
            invoke(&mut script, &mut world, caller, "add", &args).unwrap(),
            invoke(&mut native, &mut world, caller, "add", &args).unwrap(),
        );
        assert_eq!(
            invoke(&mut script, &mut world, caller, "bump", &[]).unwrap(),
            invoke(&mut native, &mut world, caller, "bump", &[]).unwrap(),
        );
    }

    #[test]
    fn crowded_objects_have_the_right_shape() {
        let mut ids = bench_ids();
        for n in [1, 16, 256] {
            for ext in [false, true] {
                let mut obj = counter_among(&mut ids, n, ext);
                let mut world = NoWorld;
                let caller = ids.next_id();
                assert_eq!(
                    invoke(
                        &mut obj,
                        &mut world,
                        caller,
                        "m_add",
                        &[Value::Int(1), Value::Int(2)]
                    )
                    .unwrap(),
                    Value::Int(3)
                );
            }
        }
    }

    #[test]
    fn acl_fixture_admits_and_rejects() {
        let mut ids = bench_ids();
        let (mut obj, admitted, rejected) = acl_gated(&mut ids, 64);
        let mut world = NoWorld;
        assert!(invoke(&mut obj, &mut world, admitted, "gated", &[]).is_ok());
        assert!(invoke(&mut obj, &mut world, rejected, "gated", &[]).is_err());
    }

    #[test]
    fn cargo_scales_image_size() {
        let mut ids = bench_ids();
        let small = cargo_object(&mut ids, 1, 16);
        let big = cargo_object(&mut ids, 64, 256);
        let s = small.migration_image(small.id()).unwrap().len();
        let b = big.migration_image(big.id()).unwrap().len();
        assert!(b > s * 10, "{b} vs {s}");
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(830.0), "830ns");
        assert_eq!(fmt_ns(1_240.0), "1.24us");
        assert_eq!(fmt_ns(3_100_000.0), "3.10ms");
    }
}

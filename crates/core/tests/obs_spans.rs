//! Observability integration: the invocation tower produces correctly
//! nested spans, a disabled recorder observes nothing, and `getStats`
//! answers through the ordinary invocation machinery.
//!
//! Each test runs on its own thread, so each gets its own thread-local
//! recorder and they cannot interfere.

use mrom_core::{invoke, DataItem, Method, MethodBody, NoWorld, ObjectBuilder};
use mrom_obs::{EventKind, ObsMode};
use mrom_value::{IdGenerator, NodeId, Value};

fn ids() -> IdGenerator {
    IdGenerator::new(NodeId(0x0b5))
}

/// An extensible object with a script `add` and `levels` pass-through
/// meta-invoke levels, as in experiment E1.
fn towered_adder(levels: usize) -> (mrom_core::MromObject, IdGenerator) {
    let mut gen = ids();
    let mut obj = ObjectBuilder::new(gen.next_id())
        .class("towered")
        .fixed_data("x", DataItem::public(Value::Int(0)))
        .fixed_method(
            "add",
            Method::public(MethodBody::script("param a; param b; return a + b;").unwrap()),
        )
        .build();
    let me = obj.id();
    for i in 0..levels {
        let name = format!("meta_{i}");
        obj.add_method(
            me,
            &name,
            Method::public(
                MethodBody::script("param m; param a; return self.invoke(m, a);").unwrap(),
            ),
        )
        .unwrap();
        obj.install_meta_invoke(me, &name).unwrap();
    }
    (obj, gen)
}

#[test]
fn level_two_tower_produces_nested_spans() {
    mrom_obs::reset();
    mrom_obs::set_mode(ObsMode::Ring);
    let (mut obj, mut gen) = towered_adder(2);
    let caller = gen.next_id();
    let mut world = NoWorld;
    let out = invoke(
        &mut obj,
        &mut world,
        caller,
        "add",
        &[Value::Int(20), Value::Int(22)],
    )
    .unwrap();
    mrom_obs::set_mode(ObsMode::Disabled);
    assert_eq!(out, Value::Int(42));

    let events = mrom_obs::ring_snapshot();
    let starts: Vec<_> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::InvokeStart { .. }))
        .collect();
    let ends = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::InvokeEnd { .. }))
        .count();
    // One application per tower level: two metas plus the base method.
    assert_eq!(starts.len(), 3, "{events:#?}");
    assert_eq!(ends, 3);

    // All three belong to one trace, rooted at the outermost application.
    let trace = starts[0].event.trace;
    assert_ne!(trace, 0);
    assert!(starts.iter().all(|e| e.event.trace == trace));
    assert_eq!(starts[0].event.parent, 0);
    // Each deeper application is a child span of the one above it.
    assert_eq!(starts[1].event.parent, starts[0].event.span);
    assert_eq!(starts[2].event.parent, starts[1].event.span);

    // Levels are recorded per span in the paper's numbering: dispatch
    // enters at the topmost meta level and descends to the base method
    // at level 0.
    let details: Vec<(&str, u32)> = starts
        .iter()
        .map(|e| match &e.kind {
            EventKind::InvokeStart { method, level, .. } => (&**method, *level),
            _ => unreachable!(),
        })
        .collect();
    assert_eq!(details.last().unwrap().0, "add");
    let levels: Vec<u32> = details.iter().map(|(_, l)| *l).collect();
    assert_eq!(levels, vec![2, 1, 0]);

    // The tower was descended once per installed meta level.
    let descents = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::TowerDescend { .. }))
        .count();
    assert_eq!(descents, 2);
}

#[test]
fn disabled_recorder_observes_nothing() {
    mrom_obs::reset();
    mrom_obs::set_mode(ObsMode::Disabled);
    let (mut obj, mut gen) = towered_adder(1);
    let caller = gen.next_id();
    let mut world = NoWorld;
    for _ in 0..5 {
        invoke(
            &mut obj,
            &mut world,
            caller,
            "add",
            &[Value::Int(1), Value::Int(2)],
        )
        .unwrap();
    }
    assert_eq!(mrom_obs::events_recorded(), 0);
    assert!(mrom_obs::ring_snapshot().is_empty());
    let metrics = mrom_obs::metrics_snapshot();
    assert_eq!(metrics.invoke.invocations, 0);
    assert_eq!(metrics.invoke.cache_hits + metrics.invoke.cache_misses, 0);
}

#[test]
fn get_stats_meta_method_reports_live_counters() {
    mrom_obs::reset();
    mrom_obs::set_mode(ObsMode::Ring);
    let (mut obj, mut gen) = towered_adder(0);
    let me = obj.id();
    let caller = gen.next_id();
    let mut world = NoWorld;
    for _ in 0..3 {
        invoke(
            &mut obj,
            &mut world,
            caller,
            "add",
            &[Value::Int(20), Value::Int(22)],
        )
        .unwrap();
    }
    // The stats surface is an ordinary meta-method invocation.
    let v = invoke(&mut obj, &mut world, caller, "getStats", &[]).unwrap();
    mrom_obs::set_mode(ObsMode::Disabled);
    let m = v.as_map().expect("getStats returns a map");
    assert_eq!(m.get("object"), Some(&Value::ObjectRef(me)));
    assert_eq!(m.get("obs_mode"), Some(&Value::from("ring")));
    let Some(Value::Int(n)) = m.get("invocations") else {
        panic!("invocations counter missing: {m:?}");
    };
    assert!(*n >= 3, "live counter should cover the three adds, got {n}");
}

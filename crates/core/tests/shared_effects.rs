//! Checkout-collision instrumentation on the site host (`Runtime`):
//! collisions are classified by effect-signature disjointness and surface
//! in the observability metrics (the `shared` block of
//! `mrom.metrics.v1`; the key keeps its historical name).
//!
//! Collisions are produced deterministically with *cyclic* calls — a
//! method that `send`s back into its own object finds its slot checked
//! out, which is the Busy arm of the checkout.
//!
//! Runs on its own thread-local recorder (each test binary process gets
//! one per thread; this file keeps everything on the main test thread
//! per test function).

use mrom_core::{ClassSpec, DataItem, Method, MethodBody, MromError, Runtime};
use mrom_obs::{EventKind, ObsMode};
use mrom_value::{NodeId, ObjectId, Value};

fn scripted(src: &str) -> Method {
    Method::public(MethodBody::script(src).unwrap())
}

fn cyclic_class() -> ClassSpec {
    ClassSpec::new("cyclic")
        .fixed_data("x", DataItem::public(Value::Int(0)))
        .fixed_method("peek", scripted("return self.get(\"x\");"))
        .fixed_method(
            "poke",
            scripted("self.set(\"x\", self.get(\"x\") + 1); return null;"),
        )
        // Calls back into its own (busy) object: a guaranteed collision.
        // `cycle_peek` itself touches no data, so peek-vs-cycle_peek is
        // provably disjoint; `cycle_poke` writes `x`, which `poke` both
        // reads and writes — overlapping.
        .fixed_method(
            "cycle_peek",
            scripted("return self.send(self.id(), \"peek\", []);"),
        )
        .fixed_method(
            "cycle_poke",
            scripted("self.set(\"x\", 1); return self.send(self.id(), \"poke\", []);"),
        )
}

/// A runtime at `node` with one `cyclic` object.
fn with_cyclic(node: NodeId) -> (Runtime, ObjectId) {
    let mut rt = Runtime::new(node);
    rt.classes_mut().register(cyclic_class()).unwrap();
    let id = rt.create("cyclic").unwrap();
    (rt, id)
}

#[test]
fn busy_collisions_are_classified_by_signature_disjointness() {
    mrom_obs::reset();
    mrom_obs::set_mode(ObsMode::Ring);
    let (mut rt, id) = with_cyclic(NodeId(77));

    // The cyclic inner send surfaces as ObjectBusy at the script layer.
    assert!(matches!(
        rt.invoke_as_system(id, "cycle_peek", &[]),
        Err(MromError::Script(_) | MromError::ObjectBusy(_))
    ));
    assert!(matches!(
        rt.invoke_as_system(id, "cycle_poke", &[]),
        Err(MromError::Script(_) | MromError::ObjectBusy(_))
    ));
    mrom_obs::set_mode(ObsMode::Disabled);

    let m = mrom_obs::metrics_snapshot();
    assert_eq!(m.shared.busy_collisions, 2, "{:?}", m.shared);
    assert_eq!(m.shared.disjoint_collisions, 1, "peek vs cycle_peek");
    assert_eq!(m.shared.overlapping_collisions, 1, "poke vs cycle_poke");

    // The event stream carries the classified collision records.
    let collisions: Vec<_> = mrom_obs::ring_snapshot()
        .into_iter()
        .filter_map(|te| match te.kind {
            EventKind::SharedCollision {
                in_flight,
                incoming,
                disjoint,
                ..
            } => Some((in_flight.to_string(), incoming.to_string(), disjoint)),
            _ => None,
        })
        .collect();
    assert_eq!(
        collisions,
        vec![
            ("cycle_peek".to_owned(), "peek".to_owned(), Some(true)),
            ("cycle_poke".to_owned(), "poke".to_owned(), Some(false)),
        ]
    );
}

#[test]
fn disabled_recorder_records_no_collision_state() {
    mrom_obs::reset();
    let (mut rt, id) = with_cyclic(NodeId(78));
    assert!(rt.invoke_as_system(id, "cycle_peek", &[]).is_err());
    let m = mrom_obs::metrics_snapshot();
    assert_eq!(m.shared.busy_collisions, 0);
    // The object itself still works normally afterwards.
    assert_eq!(rt.invoke_as_system(id, "peek", &[]).unwrap(), Value::Int(0));
}

//! Object-level effect signatures: the bridge from an [`MromObject`]'s
//! method table to the interprocedural solver in [`mrom_script::effects`].
//!
//! The script-side solver is object-agnostic — it closes a name →
//! [`LocalEffects`] map over the `self.invoke` call graph. This module
//! supplies that map for a concrete object:
//!
//! * **script** bodies are analyzed directly ([`LocalEffects::of_program`]);
//! * **native** bodies are opaque — analysis cannot see into a Rust
//!   closure, so everything reaching one is poisoned to the worst case;
//! * **meta** bodies are synthesized per-operation from the known
//!   semantics of the reflective surface (e.g. `invoke` is a dynamic
//!   dispatch joining every method; `getStats` is an effect-free read).
//!
//! The result is cached on the object behind the same structural
//! generation stamp as the dispatch cache ([`MromObject::effects`]) —
//! or, for an object without extensible methods, once on its shared
//! fixed-method table — and exposed reflectively through the
//! `getEffects` meta-method.

use std::collections::BTreeMap;

use mrom_script::surface::Touches;
use mrom_script::{solve_effects, EffectSignature, LocalEffects};
use mrom_value::Value;

use crate::method::{MetaOp, Method, MethodBody};
use crate::object::MromObject;

/// Per-body effect facts for one method body, dispatching on its kind.
pub(crate) fn local_effects(body: &MethodBody) -> LocalEffects {
    match body {
        MethodBody::Native(_) => LocalEffects::opaque(),
        // Cached on the `Program` — a re-solve after structural change
        // only re-extracts bodies that were actually replaced.
        MethodBody::Script(p) => (*p.local_effects()).clone(),
        MethodBody::Meta(op) => meta_local(*op),
    }
}

/// Synthesized local effects of a reflective meta-operation, read off
/// its row of the call surface. These are host-implemented but *not*
/// opaque: their semantics are part of the model, so the signature can be
/// exact where a native closure would poison everything.
fn meta_local(op: MetaOp) -> LocalEffects {
    let row = op.row();
    let mut l = LocalEffects {
        local_fuel: Some(0),
        ..LocalEffects::default()
    };
    l.manifest.structural = row.structural;
    // The accessors take the item/method *name as an argument*, so the
    // touched sets are unknown statically: mark the dynamic flag of the
    // matching namespace rather than naming items.
    match row.touches {
        Touches::DataRead | Touches::DataCreate | Touches::DataDelete => {
            l.manifest.dynamic_data = true;
        }
        Touches::DataWrite => {
            l.manifest.dynamic_data = true;
            // The stored value is caller-supplied: never provably constant.
            l.manifest.computed_writes = true;
        }
        // `invoke(name, args)` with a caller-supplied name: dynamic
        // dispatch — the solver joins every method in the object.
        Touches::MethodInvoke => l.manifest.dynamic_methods = true,
        // Method references are reflective but name no data; creating,
        // replacing or deleting one is structural, which the row says.
        Touches::MethodRef
        | Touches::MethodCreate
        | Touches::DataProbe
        | Touches::MethodProbe
        | Touches::Nothing => {}
    }
    l
}

/// Computes the interprocedural effect signature of every method the
/// object carries (fixed and extensible sections, meta-methods
/// included), uncached. Deterministic for a given structural shape.
#[must_use]
pub fn object_effects(obj: &MromObject) -> BTreeMap<String, EffectSignature> {
    solve_methods(obj.all_methods())
}

/// The signature table of an object carrying exactly `methods`; a later
/// duplicate name replaces an earlier one.
pub(crate) fn solve_methods<'a>(
    methods: impl Iterator<Item = (&'a str, &'a Method)>,
) -> BTreeMap<String, EffectSignature> {
    let locals: BTreeMap<String, LocalEffects> = methods
        .map(|(name, m)| (name.to_owned(), local_effects(m.body())))
        .collect();
    solve_effects(&locals)
}

/// `true` when two effect signatures provably cannot interfere: neither
/// is structural, dynamic, or opaque, and neither writes anything the
/// other reads or writes. Two invocations with disjoint signatures could
/// in principle have interleaved — the site host classifies checkout
/// collisions (a re-entrant cycle into an executing object) with this
/// predicate to measure how much its object-granular checkout refuses
/// without need.
#[must_use]
pub fn signatures_disjoint(a: &EffectSignature, b: &EffectSignature) -> bool {
    fn exact(s: &EffectSignature) -> bool {
        !s.structural && !s.dynamic && !s.opaque
    }
    fn independent(x: &EffectSignature, y: &EffectSignature) -> bool {
        x.writes
            .iter()
            .all(|w| !y.reads.contains(w) && !y.writes.contains(w))
    }
    exact(a) && exact(b) && independent(a, b) && independent(b, a)
}

/// Renders a full signature table as a deterministic value tree: the
/// zero-argument `getEffects` reflective surface.
#[must_use]
pub fn effects_value(table: &BTreeMap<String, EffectSignature>) -> Value {
    Value::Map(
        table
            .iter()
            .map(|(name, sig)| (name.clone(), sig.to_value()))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::DataItem;
    use crate::object::ObjectBuilder;
    use mrom_value::{IdGenerator, NodeId};

    fn ids() -> IdGenerator {
        IdGenerator::new(NodeId(7))
    }

    fn scripted(src: &str) -> Method {
        Method::public(MethodBody::script(src).unwrap())
    }

    #[test]
    fn script_methods_get_closed_signatures() {
        let mut gen = ids();
        let obj = ObjectBuilder::new(gen.next_id())
            .class("Acct")
            .ext_method("peek", scripted("return self.get(\"bal\");"))
            .ext_method("reset", scripted("self.set(\"bal\", 0); return null;"))
            .ext_data("bal", DataItem::public(Value::Int(10)))
            .build();
        let sigs = object_effects(&obj);
        assert!(sigs["peek"].pure);
        assert!(sigs["reset"].idempotent && !sigs["reset"].pure);
        assert!(sigs["peek"].reads.contains("bal"));
    }

    #[test]
    fn native_bodies_poison_callers_meta_getters_do_not() {
        let mut gen = ids();
        let obj = ObjectBuilder::new(gen.next_id())
            .class("Mixed")
            .ext_method(
                "native",
                Method::public(MethodBody::native(|_, _| Ok(Value::Null))),
            )
            .ext_method(
                "calls_native",
                scripted("return self.invoke(\"native\", []);"),
            )
            .ext_method("stats", scripted("return self.invoke(\"getStats\", []);"))
            .build();
        let sigs = object_effects(&obj);
        assert!(sigs["native"].opaque);
        assert!(sigs["calls_native"].opaque && !sigs["calls_native"].migration_safe);
        assert!(
            sigs["stats"].migration_safe,
            "getStats is a known pure read: {:?}",
            sigs["stats"]
        );
        assert!(sigs["getStats"].pure && sigs["getEffects"].pure);
    }

    #[test]
    fn invoke_meta_op_is_the_dynamic_join() {
        let mut gen = ids();
        let obj = ObjectBuilder::new(gen.next_id())
            .class("Inv")
            .ext_method("beeper", scripted("self.beep(1); return null;"))
            .build();
        let sigs = object_effects(&obj);
        let invoke = &sigs["invoke"];
        assert!(invoke.dynamic && !invoke.migration_safe);
        assert!(invoke.world_calls.contains("beep"), "{invoke:?}");
    }

    #[test]
    fn structural_meta_ops_are_structural() {
        let mut gen = ids();
        let obj = ObjectBuilder::new(gen.next_id()).class("S").build();
        let sigs = object_effects(&obj);
        for name in ["addMethod", "deleteMethod", "setMethod", "addDataItem"] {
            assert!(sigs[name].structural, "{name} must be structural");
            assert!(!sigs[name].idempotent, "{name} must not be idempotent");
        }
        assert!(!sigs["getDataItem"].pure, "dynamic read is a lower bound");
        assert!(sigs["getDataItem"].migration_safe);
        assert!(!sigs["setDataItem"].idempotent, "caller-supplied value");
    }

    #[test]
    fn disjointness_needs_exact_nonoverlapping_signatures() {
        let mut gen = ids();
        let obj = ObjectBuilder::new(gen.next_id())
            .class("D")
            .ext_method("read_a", scripted("return self.get(\"a\");"))
            .ext_method("write_b", scripted("self.set(\"b\", 1); return null;"))
            .ext_method("write_a", scripted("self.set(\"a\", 1); return null;"))
            .ext_method(
                "grow",
                scripted("self.add_method(\"x\", \"return 1;\"); return null;"),
            )
            .build();
        let sigs = object_effects(&obj);
        assert!(signatures_disjoint(&sigs["read_a"], &sigs["write_b"]));
        assert!(!signatures_disjoint(&sigs["read_a"], &sigs["write_a"]));
        assert!(!signatures_disjoint(&sigs["write_a"], &sigs["write_a"]));
        assert!(
            !signatures_disjoint(&sigs["read_a"], &sigs["grow"]),
            "structural mutation conflicts with everything"
        );
    }

    #[test]
    fn effects_value_is_a_map_keyed_by_method() {
        let mut gen = ids();
        let obj = ObjectBuilder::new(gen.next_id())
            .class("V")
            .ext_method("m", scripted("return 1;"))
            .build();
        let v = effects_value(&object_effects(&obj));
        let Value::Map(m) = v else { panic!("map") };
        assert!(m.contains_key("m") && m.contains_key("invoke"));
    }
}

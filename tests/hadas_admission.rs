//! Admission control at the HADAS trust boundaries.
//!
//! The federation is where foreign bytes first become live objects, so it
//! is where `AdmissionPolicy::Strict` must bite: a migrating object whose
//! methods reference state that did not travel with it is refused at the
//! *receiving* site (and survives intact at the sender), and an exported
//! ambassador whose copied methods were sliced away from their data is
//! refused before it ever ships. Method bodies pushed as updates, and
//! bodies a script installs on a strict site, are admitted the same way.

use mrom::core::{Acl, AdmissionPolicy, DataItem, Method, MethodBody, MromError, ObjectBuilder};
use mrom::hadas::scenarios::star_federation;
use mrom::hadas::{
    instantiate_ambassador_with_policy, AmbassadorSpec, Federation, HadasError, UpdateOp,
};
use mrom::net::LinkConfig;
use mrom::value::{IdGenerator, NodeId, ObjectId, Value};

/// An agent whose only method reads a data item it does not carry — the
/// canonical "crafted migration image" the analyzer must catch.
fn adopt_defective_agent(fed: &mut Federation, at: NodeId) -> ObjectId {
    let rt = fed.runtime_mut(at).unwrap();
    let agent = ObjectBuilder::new(rt.ids_mut().next_id())
        .class("sloppy-agent")
        .meta_acl(Acl::Public)
        .ext_method(
            "leak",
            Method::public(MethodBody::script("return self.get(\"left_behind\");").unwrap()),
        )
        .build();
    let id = agent.id();
    rt.adopt(agent).unwrap();
    id
}

#[test]
fn strict_receive_path_refuses_a_crafted_migrant() {
    let (mut fed, nodes) = star_federation(41, 2, LinkConfig::lan()).unwrap();
    let (hub, spoke) = (nodes[0], nodes[1]);
    let id = adopt_defective_agent(&mut fed, spoke);

    // The receiving side runs the analyzer; the refusal travels back as a
    // protocol error and the object is restored at the origin, not lost.
    assert_eq!(
        fed.set_admission_policy(AdmissionPolicy::Strict),
        AdmissionPolicy::Off
    );
    match fed.dispatch_object(spoke, hub, id) {
        Err(HadasError::Remote(reason)) => {
            assert!(reason.contains("refused admission"), "reason: {reason}");
            assert!(reason.contains("dangling-data-item"), "reason: {reason}");
        }
        other => panic!("expected remote admission refusal, got {other:?}"),
    }
    assert!(fed.runtime(spoke).unwrap().object(id).is_some());
    assert!(fed.runtime(hub).unwrap().object(id).is_none());

    // Dropping back to Off admits the very same image.
    fed.set_admission_policy(AdmissionPolicy::Off);
    fed.dispatch_object(spoke, hub, id).unwrap();
    assert!(fed.runtime(hub).unwrap().object(id).is_some());
}

#[test]
fn off_is_the_default_and_admits_the_same_migrant() {
    let (mut fed, nodes) = star_federation(42, 2, LinkConfig::lan()).unwrap();
    let (hub, spoke) = (nodes[0], nodes[1]);
    assert_eq!(fed.admission_policy(), AdmissionPolicy::Off);
    let id = adopt_defective_agent(&mut fed, spoke);
    fed.dispatch_object(spoke, hub, id).unwrap();
    assert!(fed.runtime(hub).unwrap().object(id).is_some());
}

#[test]
fn warn_admits_but_strict_spares_clean_migrants() {
    let (mut fed, nodes) = star_federation(43, 2, LinkConfig::lan()).unwrap();
    let (hub, spoke) = (nodes[0], nodes[1]);

    // Defective agent passes under Warn (analysis runs, nothing blocks).
    let bad = adopt_defective_agent(&mut fed, spoke);
    fed.set_admission_policy(AdmissionPolicy::Warn);
    fed.dispatch_object(spoke, hub, bad).unwrap();

    // A self-contained agent passes even under Strict.
    let rt = fed.runtime_mut(spoke).unwrap();
    let clean = ObjectBuilder::new(rt.ids_mut().next_id())
        .class("tidy-agent")
        .meta_acl(Acl::Public)
        .ext_data("hops", DataItem::public(Value::Int(0)))
        .ext_method(
            "bump",
            Method::public(
                MethodBody::script("return self.set(\"hops\", self.get(\"hops\") + 1);").unwrap(),
            ),
        )
        .build();
    let clean_id = clean.id();
    rt.adopt(clean).unwrap();
    fed.set_admission_policy(AdmissionPolicy::Strict);
    fed.dispatch_object(spoke, hub, clean_id).unwrap();
    assert!(fed.runtime(hub).unwrap().object(clean_id).is_some());
}

/// An APO whose `count` method depends on the `employees` data item.
fn build_apo(fed: &mut Federation, at: NodeId) -> mrom::core::MromObject {
    let rt = fed.runtime_mut(at).unwrap();
    ObjectBuilder::new(rt.ids_mut().next_id())
        .class("directory")
        .fixed_data(
            "employees",
            DataItem::public(Value::list([Value::from("ada")])),
        )
        .fixed_method(
            "count",
            Method::public(MethodBody::script("return len(self.get(\"employees\"));").unwrap()),
        )
        .build()
}

#[test]
fn strict_export_refuses_an_ambassador_sliced_from_its_data() {
    let (mut fed, nodes) = star_federation(44, 2, LinkConfig::lan()).unwrap();
    let hub = nodes[0];
    let apo = build_apo(&mut fed, hub);
    let mut ids = IdGenerator::new(NodeId(77));

    // `count` is copied but `employees` stays behind: incoherent slice.
    let bad_spec = AmbassadorSpec::relay_only().with_methods(["count"]);
    match instantiate_ambassador_with_policy(
        &apo,
        "directory",
        hub,
        &bad_spec,
        &mut ids,
        AdmissionPolicy::Strict,
    ) {
        Err(HadasError::AdmissionRefused { at, .. }) => assert_eq!(at, hub),
        other => panic!("expected admission refusal, got {other:?}"),
    }
    // Off ships it anyway (today's behavior), and a coherent slice that
    // brings its data along satisfies even Strict.
    instantiate_ambassador_with_policy(
        &apo,
        "directory",
        hub,
        &bad_spec,
        &mut ids,
        AdmissionPolicy::Off,
    )
    .unwrap();
    let good_spec = AmbassadorSpec::relay_only()
        .with_methods(["count"])
        .with_data(["employees"]);
    instantiate_ambassador_with_policy(
        &apo,
        "directory",
        hub,
        &good_spec,
        &mut ids,
        AdmissionPolicy::Strict,
    )
    .unwrap();
}

#[test]
fn strict_federation_blocks_import_of_an_incoherent_export() {
    let (mut fed, nodes) = star_federation(45, 2, LinkConfig::lan()).unwrap();
    let (hub, spoke) = (nodes[0], nodes[1]);
    let apo = build_apo(&mut fed, hub);
    fed.integrate_apo(
        hub,
        "directory",
        apo,
        AmbassadorSpec::relay_only().with_methods(["count"]),
    )
    .unwrap();

    fed.set_admission_policy(AdmissionPolicy::Strict);
    assert!(fed.import_apo(spoke, hub, "directory").is_err());
    assert!(fed.guests(spoke).unwrap().is_empty());

    fed.set_admission_policy(AdmissionPolicy::Off);
    let amb = fed.import_apo(spoke, hub, "directory").unwrap();
    let client = fed.runtime_mut(spoke).unwrap().ids_mut().next_id();
    // Off ships the broken slice, and the defect Strict predicted fires
    // at first use: the copied body runs locally without its data.
    let crash = fed
        .call_through_ambassador(spoke, client, amb, "count", &[])
        .unwrap_err();
    assert!(crash.to_string().contains("employees"), "crash: {crash}");
}

#[test]
fn strict_federation_refuses_a_pushed_method_that_dangles() {
    let (mut fed, nodes) = star_federation(46, 2, LinkConfig::lan()).unwrap();
    let (hub, spoke) = (nodes[0], nodes[1]);
    let apo = build_apo(&mut fed, hub);
    let coherent = AmbassadorSpec::relay_only()
        .with_methods(["count"])
        .with_data(["employees"]);
    fed.integrate_apo(hub, "directory", apo, coherent).unwrap();
    let amb = fed.import_apo(spoke, hub, "directory").unwrap();
    let image = |fed: &Federation| {
        let rt = fed.runtime(spoke).unwrap();
        rt.object(amb).unwrap().image_value().unwrap()
    };
    let before = image(&fed);

    // The pushed body reads a data item the Ambassador does not carry.
    let leak = Value::map([("body", Value::from("return self.get(\"left_behind\");"))]);
    let push = [UpdateOp::AddMethod("leak".into(), leak)];
    fed.set_admission_policy(AdmissionPolicy::Strict);
    match fed.push_update(hub, "directory", &push) {
        Err(HadasError::Remote(reason)) => {
            assert!(reason.contains("refused admission"), "reason: {reason}");
            assert!(reason.contains("dangling-data-item"), "reason: {reason}");
        }
        other => panic!("expected remote admission refusal, got {other:?}"),
    }
    assert_eq!(
        image(&fed),
        before,
        "a refused update leaves the Ambassador as it was"
    );

    // Off installs the very same update.
    fed.set_admission_policy(AdmissionPolicy::Off);
    assert_eq!(fed.push_update(hub, "directory", &push).unwrap(), 1);
    assert_ne!(image(&fed), before);
}

#[test]
fn strict_site_refuses_a_script_installing_a_dangling_method() {
    let (mut fed, nodes) = star_federation(47, 2, LinkConfig::lan()).unwrap();
    let spoke = nodes[1];
    fed.set_admission_policy(AdmissionPolicy::Strict);
    let rt = fed.runtime_mut(spoke).unwrap();
    let grower = ObjectBuilder::new(rt.ids_mut().next_id())
        .class("grower")
        .fixed_method(
            "grow",
            Method::public(
                MethodBody::script(
                    "self.add_method(\"leak\", \"return self.get(\\\"left_behind\\\");\"); \
                     return true;",
                )
                .unwrap(),
            ),
        )
        .build();
    let id = grower.id();
    rt.adopt(grower).unwrap();
    match rt.invoke_as_system(id, "grow", &[]) {
        Err(MromError::AdmissionRejected { context, .. }) => assert_eq!(context, "add_method"),
        other => panic!("expected AdmissionRejected, got {other:?}"),
    }
    assert!(rt.object(id).unwrap().find_method("leak").is_none());
}

#[test]
fn every_site_runtime_follows_the_federation_policy() {
    let (mut fed, _) = star_federation(48, 3, LinkConfig::lan()).unwrap();
    let in_step = |fed: &Federation| {
        fed.site_nodes()
            .into_iter()
            .all(|n| fed.runtime(n).unwrap().limits().admission == fed.admission_policy())
    };
    assert!(in_step(&fed));
    fed.set_admission_policy(AdmissionPolicy::Strict);
    fed.add_site(NodeId(9)).unwrap();
    assert_eq!(
        fed.runtime(NodeId(9)).unwrap().limits().admission,
        AdmissionPolicy::Strict
    );
    assert!(in_step(&fed));
    // The fleet Advisor's shed toggle: back to Off, then Warn.
    for policy in [AdmissionPolicy::Off, AdmissionPolicy::Warn] {
        fed.set_admission_policy(policy);
        assert!(in_step(&fed), "sites drifted from {policy:?}");
    }
}

//! Integration tests for the HADAS layer: federation bring-up at scale,
//! mixed splits, failure injection, and multi-APO coordination.

use mrom::core::{ClassSpec, DataItem, Method, MethodBody};
use mrom::hadas::scenarios::{
    deploy_employee_db, employee_db_class, lift_maintenance_notice, push_maintenance_notice,
    star_federation,
};
use mrom::hadas::{AmbassadorSpec, Federation, HadasError, UpdateOp};
use mrom::net::{LinkConfig, NetworkConfig};
use mrom::value::{NodeId, Value};

#[test]
fn ten_site_star_brings_up_and_queries() {
    let (mut fed, nodes) = star_federation(1, 10, LinkConfig::lan()).unwrap();
    let hub = nodes[0];
    let ambs = deploy_employee_db(&mut fed, hub, &nodes[1..]).unwrap();
    assert_eq!(ambs.len(), 9);
    for &(spoke, amb) in &ambs {
        let client = fed.runtime_mut(spoke).unwrap().ids_mut().next_id();
        assert_eq!(
            fed.call_through_ambassador(spoke, client, amb, "count", &[])
                .unwrap(),
            Value::Int(4)
        );
    }
    // Every site agrees on the topology.
    assert_eq!(fed.site_stats(hub).unwrap().deployed, 9);
    assert_eq!(fed.site_stats(hub).unwrap().links, 9);
    for &spoke in &nodes[1..] {
        let s = fed.site_stats(spoke).unwrap();
        assert_eq!(s.guests, 1);
        assert_eq!(s.links, 1);
    }
}

#[test]
fn mixed_splits_route_correctly_per_method() {
    let (mut fed, nodes) = star_federation(2, 2, LinkConfig::lan()).unwrap();
    let (hub, spoke) = (nodes[0], nodes[1]);
    let apo =
        employee_db_class().instantiate_as(fed.runtime_mut(hub).unwrap().ids_mut().next_id(), None);
    fed.integrate_apo(
        hub,
        "employee-db",
        apo,
        AmbassadorSpec::relay_only()
            .with_methods(["count", "salary_of"])
            .with_data(["employees"]),
    )
    .unwrap();
    let amb = fed.import_apo(spoke, hub, "employee-db").unwrap();
    let client = fed.runtime_mut(spoke).unwrap().ids_mut().next_id();

    // Two local, one relayed.
    let base = fed.net_stats().messages_sent;
    fed.call_through_ambassador(spoke, client, amb, "count", &[])
        .unwrap();
    fed.call_through_ambassador(spoke, client, amb, "salary_of", &[Value::from("dave")])
        .unwrap();
    assert_eq!(
        fed.net_stats().messages_sent,
        base,
        "local methods cost no traffic"
    );
    fed.call_through_ambassador(spoke, client, amb, "department_total", &[Value::from("db")])
        .unwrap();
    assert_eq!(
        fed.net_stats().messages_sent,
        base + 2,
        "one relayed call = request + response"
    );
    // A method that exists nowhere fails cleanly.
    assert!(matches!(
        fed.call_through_ambassador(spoke, client, amb, "ghost", &[]),
        Err(HadasError::Model(_))
    ));
}

#[test]
fn maintenance_covers_relayed_methods_during_partition() {
    let (mut fed, nodes) = star_federation(3, 3, LinkConfig::wan()).unwrap();
    let hub = nodes[0];
    let ambs = deploy_employee_db(&mut fed, hub, &nodes[1..]).unwrap();
    push_maintenance_notice(&mut fed, hub).unwrap();
    for &spoke in &nodes[1..] {
        fed.net_config_mut().partition(hub, spoke);
    }
    for &(spoke, amb) in &ambs {
        let client = fed.runtime_mut(spoke).unwrap().ids_mut().next_id();
        // Both the local method and the normally-relayed method answer
        // instantly with the notice; zero failed client calls.
        for (m, args) in [("count", vec![]), ("salary_of", vec![Value::from("alice")])] {
            let out = fed
                .call_through_ambassador(spoke, client, amb, m, &args)
                .unwrap();
            assert_eq!(out, Value::from("database is down for maintenance"));
        }
    }
    for &spoke in &nodes[1..] {
        fed.net_config_mut().heal(hub, spoke);
    }
    lift_maintenance_notice(&mut fed, hub).unwrap();
    let (spoke, amb) = ambs[0];
    let client = fed.runtime_mut(spoke).unwrap().ids_mut().next_id();
    assert_eq!(
        fed.call_through_ambassador(spoke, client, amb, "salary_of", &[Value::from("alice")])
            .unwrap(),
        Value::Int(120)
    );
}

#[test]
fn lossy_network_eventually_times_out_but_state_stays_consistent() {
    // 100% loss: every synchronous operation times out cleanly.
    let cfg = NetworkConfig::new(4).with_default_link(LinkConfig::lan().loss_probability(1.0));
    let mut fed = Federation::new(cfg);
    fed.add_site(NodeId(1)).unwrap();
    fed.add_site(NodeId(2)).unwrap();
    assert!(matches!(
        fed.link(NodeId(1), NodeId(2)),
        Err(HadasError::Timeout { .. })
    ));
    assert!(!fed.is_linked(NodeId(1), NodeId(2)));
}

#[test]
fn update_push_is_idempotent_per_op_semantics() {
    let (mut fed, nodes) = star_federation(5, 2, LinkConfig::lan()).unwrap();
    let hub = nodes[0];
    let ambs = deploy_employee_db(&mut fed, hub, &nodes[1..]).unwrap();
    let (spoke, amb) = ambs[0];
    // First add succeeds.
    fed.push_update(
        hub,
        "employee-db",
        &[UpdateOp::AddData("version".into(), Value::Int(1))],
    )
    .unwrap();
    // Second identical add collides remotely (duplicate item) — the error
    // comes back as a remote failure, not a hang or silent overwrite.
    assert!(matches!(
        fed.push_update(
            hub,
            "employee-db",
            &[UpdateOp::AddData("version".into(), Value::Int(2))],
        ),
        Err(HadasError::Remote(_))
    ));
    // Set (value write) is the idempotent form.
    fed.push_update(
        hub,
        "employee-db",
        &[UpdateOp::SetData("version".into(), Value::Int(2))],
    )
    .unwrap();
    // Pushed items default to origin-private: the origin APO reads them,
    // local clients at the hosting site do not.
    let apo_id = fed.apo_id(hub, "employee-db").unwrap();
    let client = fed.runtime_mut(spoke).unwrap().ids_mut().next_id();
    let guest = fed.runtime(spoke).unwrap().object(amb).unwrap();
    assert_eq!(guest.read_data(apo_id, "version").unwrap(), Value::Int(2));
    assert!(guest.read_data(client, "version").is_err());
}

#[test]
fn two_apos_coordinate_through_one_site() {
    // Interoperability programming: an interop program at the client site
    // combines two imported services.
    let (mut fed, nodes) = star_federation(6, 3, LinkConfig::lan()).unwrap();
    let (hub_a, hub_b, client_site) = (nodes[0], nodes[1], nodes[2]);
    fed.link(client_site, hub_b).unwrap();
    fed.link(hub_b, hub_a).unwrap();

    // Service 1 at hub_a: the employee db (already linked to hub_a via the
    // star topology: every spoke linked to nodes[0]).
    let db = employee_db_class()
        .instantiate_as(fed.runtime_mut(hub_a).unwrap().ids_mut().next_id(), None);
    fed.integrate_apo(
        hub_a,
        "db",
        db,
        AmbassadorSpec::relay_only()
            .with_methods(["salary_of"])
            .with_data(["employees"]),
    )
    .unwrap();

    // Service 2 at hub_b: a tax calculator.
    let tax = ClassSpec::new("tax")
        .fixed_data("rate_percent", DataItem::public(Value::Int(25)))
        .fixed_method(
            "net_of",
            Method::public(
                MethodBody::script(
                    "param gross; return gross - gross * self.get(\"rate_percent\") / 100;",
                )
                .unwrap(),
            ),
        )
        .instantiate_as(fed.runtime_mut(hub_b).unwrap().ids_mut().next_id(), None);
    fed.integrate_apo(
        hub_b,
        "tax",
        tax,
        AmbassadorSpec::relay_only()
            .with_methods(["net_of"])
            .with_data(["rate_percent"]),
    )
    .unwrap();

    let db_amb = fed.import_apo(client_site, hub_a, "db").unwrap();
    let tax_amb = fed.import_apo(client_site, hub_b, "tax").unwrap();
    let client = fed.runtime_mut(client_site).unwrap().ids_mut().next_id();

    // The coordination: gross from one service, net from the other.
    let gross = fed
        .call_through_ambassador(
            client_site,
            client,
            db_amb,
            "salary_of",
            &[Value::from("carol")],
        )
        .unwrap();
    let net = fed
        .call_through_ambassador(
            client_site,
            client,
            tax_amb,
            "net_of",
            std::slice::from_ref(&gross),
        )
        .unwrap();
    assert_eq!(gross, Value::Int(130));
    assert_eq!(net, Value::Int(98)); // 130 - 32 (integer division of 130*25/100)
}

#[test]
fn ambassador_identity_is_stable_across_the_wire() {
    let (mut fed, nodes) = star_federation(7, 2, LinkConfig::lan()).unwrap();
    let hub = nodes[0];
    let ambs = deploy_employee_db(&mut fed, hub, &nodes[1..]).unwrap();
    let (spoke, amb) = ambs[0];
    // The deployed record at the hub and the guest record at the spoke
    // agree on the ambassador identity (decentralized naming worked).
    let deployed = fed.deployed_ambassadors(hub, "employee-db").unwrap();
    assert_eq!(deployed, vec![(spoke, amb)]);
    let info = fed.guest_info(spoke, amb).unwrap();
    assert_eq!(info.origin_node, hub);
    // And its origin principal is the APO.
    let apo_id = fed.apo_id(hub, "employee-db").unwrap();
    assert_eq!(
        fed.runtime(spoke).unwrap().object(amb).unwrap().origin(),
        apo_id
    );
}

#[test]
fn interop_program_coordinates_guest_ambassadors() {
    // Figure 2's Interop component: a coordination-level program installed
    // in the IOO's extensible section, driving two imported services.
    let (mut fed, nodes) = star_federation(8, 3, LinkConfig::lan()).unwrap();
    let (hub_a, hub_b, client_site) = (nodes[0], nodes[1], nodes[2]);
    fed.link(client_site, hub_b).unwrap();

    let db = employee_db_class()
        .instantiate_as(fed.runtime_mut(hub_a).unwrap().ids_mut().next_id(), None);
    fed.integrate_apo(
        hub_a,
        "db",
        db,
        AmbassadorSpec::relay_only()
            .with_methods(["salary_of", "department_total"])
            .with_data(["employees"]),
    )
    .unwrap();
    let bonus = mrom::core::ClassSpec::new("bonus")
        .fixed_method(
            "bonus_for",
            Method::public(MethodBody::script("param salary; return salary / 10;").unwrap()),
        )
        .instantiate_as(fed.runtime_mut(hub_b).unwrap().ids_mut().next_id(), None);
    fed.integrate_apo(
        hub_b,
        "bonus",
        bonus,
        AmbassadorSpec::relay_only().with_methods(["bonus_for"]),
    )
    .unwrap();

    let db_amb = fed.import_apo(client_site, hub_a, "db").unwrap();
    let bonus_amb = fed.import_apo(client_site, hub_b, "bonus").unwrap();

    // The interop program: total compensation = salary + bonus, composed
    // from two guest Ambassadors by object reference.
    fed.install_interop_program(
        client_site,
        "total_comp",
        r#"
        param db_ref;
        param bonus_ref;
        param name;
        let salary = self.send(db_ref, "salary_of", [name]);
        let bonus = self.send(bonus_ref, "bonus_for", [salary]);
        return salary + bonus;
        "#,
    )
    .unwrap();

    let out = fed
        .run_interop(
            client_site,
            "total_comp",
            &[
                Value::ObjectRef(db_amb),
                Value::ObjectRef(bonus_amb),
                Value::from("alice"),
            ],
        )
        .unwrap();
    assert_eq!(out, Value::Int(132)); // 120 + 12

    // The guest listing an interop author would use.
    let mut guests = fed.guests(client_site).unwrap();
    guests.sort_by(|a, b| a.1.cmp(&b.1));
    assert_eq!(guests.len(), 2);
    assert_eq!(guests[0].1, "bonus");
    assert_eq!(guests[1].1, "db");

    // Duplicate program names are rejected; a second site is unaffected.
    assert!(fed
        .install_interop_program(client_site, "total_comp", "return 0;")
        .is_err());
    assert!(fed
        .install_interop_program(hub_a, "total_comp", "return 0;")
        .is_ok());
}

#[test]
fn dispatch_object_moves_agents_and_recovers_on_failure() {
    let (mut fed, nodes) = star_federation(9, 3, LinkConfig::lan()).unwrap();
    let (hub, a, b) = (nodes[0], nodes[1], nodes[2]);
    // Build a minimal agent with an arrival hook at spoke `a`.
    let rt = fed.runtime_mut(a).unwrap();
    let agent = mrom::core::ObjectBuilder::new(rt.ids_mut().next_id())
        .class("agent")
        .meta_acl(mrom::core::Acl::Public)
        .ext_data("stamps", mrom::core::DataItem::public(Value::list([])))
        .ext_method(
            "on_arrival",
            Method::public(
                MethodBody::script(
                    "param ctx; self.set(\"stamps\", push(self.get(\"stamps\"), ctx[\"host_site\"])); return true;",
                )
                .unwrap(),
            ),
        )
        .build();
    let id = agent.id();
    rt.adopt(agent).unwrap();

    // Moving to an unlinked destination fails fast; the object stays put.
    assert!(matches!(
        fed.dispatch_object(a, b, id),
        Err(HadasError::NotLinked { .. })
    ));
    assert!(fed.runtime(a).unwrap().object(id).is_some());

    // Move to the hub: arrival hook runs there.
    fed.dispatch_object(a, hub, id).unwrap();
    assert!(fed.runtime(a).unwrap().object(id).is_none());
    let stamps = fed
        .runtime(hub)
        .unwrap()
        .object(id)
        .unwrap()
        .read_data(id, "stamps")
        .unwrap();
    assert_eq!(stamps, Value::list([Value::Int(hub.0 as i64)]));

    // A partition makes the move time out — and the object is restored
    // locally, never lost in transit.
    fed.net_config_mut().partition(hub, a);
    assert!(matches!(
        fed.dispatch_object(hub, a, id),
        Err(HadasError::Timeout { .. })
    ));
    assert!(fed.runtime(hub).unwrap().object(id).is_some());
    fed.net_config_mut().heal(hub, a);
    fed.dispatch_object(hub, a, id).unwrap();
    let stamps = fed
        .runtime(a)
        .unwrap()
        .object(id)
        .unwrap()
        .read_data(id, "stamps")
        .unwrap();
    assert_eq!(
        stamps,
        Value::list([Value::Int(hub.0 as i64), Value::Int(a.0 as i64)])
    );
}

#[test]
fn a_move_refused_by_its_arrival_hook_leaves_no_copy_behind() {
    let (mut fed, nodes) = star_federation(19, 3, LinkConfig::lan()).unwrap();
    let (hub, a) = (nodes[0], nodes[1]);
    let rt = fed.runtime_mut(a).unwrap();
    let agent = mrom::core::ObjectBuilder::new(rt.ids_mut().next_id())
        .class("agent")
        .meta_acl(mrom::core::Acl::Public)
        .ext_method(
            "on_arrival",
            Method::public(MethodBody::script("param ctx; return 1 / 0;").unwrap()),
        )
        .build();
    let id = agent.id();
    rt.adopt(agent).unwrap();

    // The hub refuses the arrival, so the object stays at its origin.
    assert!(fed.dispatch_object(a, hub, id).is_err());
    assert!(fed.runtime(a).unwrap().object(id).is_some());
    assert!(fed.runtime(hub).unwrap().object(id).is_none());

    // A crash and restart of the hub must not bring back a second copy.
    fed.crash_site(hub).unwrap();
    fed.restart_site(hub).unwrap();
    assert!(
        fed.runtime(hub).unwrap().object(id).is_none(),
        "the refused object resurrected at the hub"
    );
    assert!(fed.runtime(a).unwrap().object(id).is_some());
}

#[test]
fn a_landed_move_survives_a_crash_of_its_destination() {
    let (mut fed, nodes) = star_federation(20, 3, LinkConfig::lan()).unwrap();
    let (hub, a) = (nodes[0], nodes[1]);
    let rt = fed.runtime_mut(a).unwrap();
    let agent = mrom::core::ObjectBuilder::new(rt.ids_mut().next_id())
        .class("agent")
        .meta_acl(mrom::core::Acl::Public)
        .ext_data("hops", DataItem::public(Value::Int(0)))
        .ext_data(
            "cargo",
            DataItem::public(Value::Bytes((0..=255).cycle().take(4096).collect())),
        )
        .build();
    let id = agent.id();
    rt.adopt(agent).unwrap();
    rt.object_mut(id)
        .unwrap()
        .write_data(id, "hops", Value::Int(7))
        .unwrap();
    let sent = fed
        .runtime(a)
        .unwrap()
        .object(id)
        .unwrap()
        .image_bytes()
        .unwrap();

    fed.dispatch_object(a, hub, id).unwrap();
    // The destination crashes right after the move landed: the only
    // copy left is the image its depot took over from the request.
    fed.crash_site(hub).unwrap();
    let (_, quarantined) = fed.restart_site(hub).unwrap();
    assert_eq!(quarantined, 0);
    let back = fed.runtime(hub).unwrap().object(id);
    assert!(back.is_some(), "the landed object was lost by the crash");
    assert_eq!(back.unwrap().image_bytes().unwrap(), sent);
    assert!(fed.runtime(a).unwrap().object(id).is_none());
    // The origin dropped its copy when the move landed.
    fed.crash_site(a).unwrap();
    fed.restart_site(a).unwrap();
    assert!(fed.runtime(a).unwrap().object(id).is_none());
}

#[test]
fn dispatch_rejects_non_mobile_objects_without_losing_them() {
    let (mut fed, nodes) = star_federation(10, 2, LinkConfig::lan()).unwrap();
    let (hub, spoke) = (nodes[0], nodes[1]);
    let rt = fed.runtime_mut(spoke).unwrap();
    let rooted = mrom::core::ObjectBuilder::new(rt.ids_mut().next_id())
        .fixed_method(
            "native",
            Method::new(MethodBody::native(|_, _| Ok(Value::Null))),
        )
        .build();
    let id = rooted.id();
    rt.adopt(rooted).unwrap();
    assert!(matches!(
        fed.dispatch_object(spoke, hub, id),
        Err(HadasError::Model(mrom::core::MromError::NotMobile { .. }))
    ));
    // Still at home, still callable.
    assert!(fed.runtime(spoke).unwrap().object(id).is_some());
}

#[test]
fn hostile_wire_garbage_does_not_wedge_the_engine() {
    let (mut fed, nodes) = star_federation(11, 2, LinkConfig::lan()).unwrap();
    let (hub, spoke) = (nodes[0], nodes[1]);
    integrate_db_like(&mut fed, hub);

    // Blast garbage and half-valid frames at both sites, interleaved with
    // a real operation.
    for junk in [
        vec![],
        vec![0xde, 0xad, 0xbe, 0xef],
        b"MR\x01\x7e".to_vec(),                    // framed, unknown tag
        mrom::value::wire::encode(&Value::Int(5)), // valid value, not a protocol message
    ] {
        fed.inject_raw(spoke, hub, junk.clone()).unwrap();
        fed.inject_raw(hub, spoke, junk).unwrap();
    }
    // A real import must still work with the junk in flight (the engine
    // skips what it cannot decode while pumping).
    let amb = fed.import_apo(spoke, hub, "db").unwrap();
    fed.pump_all();
    let client = fed.runtime_mut(spoke).unwrap().ids_mut().next_id();
    assert_eq!(
        fed.call_through_ambassador(spoke, client, amb, "count", &[])
            .unwrap(),
        Value::Int(4)
    );
}

#[test]
fn imported_guest_survives_a_crash_of_the_importing_site() {
    let (mut fed, nodes) = star_federation(4, 2, LinkConfig::lan()).unwrap();
    let (hub, spoke) = (nodes[0], nodes[1]);
    integrate_db_like(&mut fed, hub);
    let amb = fed.import_apo(spoke, hub, "db").unwrap();

    fed.crash_site(spoke).unwrap();
    fed.restart_site(spoke).unwrap();

    // The installed guest bootstraps back from the importer's depot, and
    // the site's guest list names only objects it actually hosts.
    let guests = fed.guests(spoke).unwrap();
    assert_eq!(guests, vec![(amb, "db".to_owned())]);
    for (id, _) in &guests {
        assert!(
            fed.runtime(spoke).unwrap().object(*id).is_some(),
            "guest {id} is listed but not hosted after the restart"
        );
    }
    let client = fed.runtime_mut(spoke).unwrap().ids_mut().next_id();
    assert_eq!(
        fed.call_through_ambassador(spoke, client, amb, "count", &[])
            .unwrap(),
        Value::Int(4)
    );
}

fn integrate_db_like(fed: &mut Federation, at: NodeId) {
    let apo =
        employee_db_class().instantiate_as(fed.runtime_mut(at).unwrap().ids_mut().next_id(), None);
    fed.integrate_apo(
        at,
        "db",
        apo,
        AmbassadorSpec::relay_only()
            .with_methods(["count"])
            .with_data(["employees"]),
    )
    .unwrap();
}

#[test]
fn timed_out_dispatch_names_the_message_kind_not_its_bytes() {
    let (mut fed, nodes) = star_federation(3, 2, LinkConfig::lan()).unwrap();
    let (hub, spoke) = (nodes[0], nodes[1]);
    let rt = fed.runtime_mut(spoke).unwrap();
    let agent = mrom::core::ObjectBuilder::new(rt.ids_mut().next_id())
        .class("agent")
        .meta_acl(mrom::core::Acl::Public)
        .ext_data(
            "cargo",
            DataItem::public(Value::Bytes(vec![0xAB; 64 * 1024])),
        )
        .build();
    let id = agent.id();
    rt.adopt(agent).unwrap();

    fed.net_config_mut().partition(spoke, hub);
    let err = fed.dispatch_object(spoke, hub, id).unwrap_err();
    assert!(matches!(err, HadasError::Timeout { .. }), "{err:?}");
    let text = err.to_string();
    assert!(text.len() < 200, "{} bytes: {text}", text.len());
    assert!(text.contains("move_object"), "{text}");
    assert!(fed.runtime(spoke).unwrap().object(id).is_some());
}

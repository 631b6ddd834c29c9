//! Scale checks for the §1 requirement that "the model should not be
//! limited by the number, size, or geographical dispersion of the objects
//! in the system": thousands of objects per node, a wide federation, and
//! identity uniqueness across the whole universe.

use std::collections::HashSet;

use mrom::core::{ClassSpec, Method, MethodBody, Runtime};
use mrom::hadas::scenarios::{deploy_employee_db, star_federation};
use mrom::net::LinkConfig;
use mrom::value::{NodeId, Value};

#[test]
fn ten_thousand_objects_on_one_node() {
    let mut rt = Runtime::new(NodeId(1));
    rt.classes_mut()
        .register(ClassSpec::new("cell").fixed_method(
            "tick",
            Method::public(MethodBody::script("param x; return x + 1;").unwrap()),
        ))
        .unwrap();
    let ids: Vec<_> = (0..10_000).map(|_| rt.create("cell").unwrap()).collect();
    assert_eq!(rt.object_count(), 10_000);
    // All identities are distinct (decentralized naming holds at volume).
    let unique: HashSet<_> = ids.iter().collect();
    assert_eq!(unique.len(), 10_000);
    // Sampled invocations stay correct across the population.
    for (i, &id) in ids.iter().enumerate().step_by(997) {
        assert_eq!(
            rt.invoke_as_system(id, "tick", &[Value::Int(i as i64)])
                .unwrap(),
            Value::Int(i as i64 + 1)
        );
    }
}

#[test]
fn identities_are_unique_across_a_wide_universe() {
    // 40 nodes × 500 objects: no collisions anywhere.
    let mut all = HashSet::new();
    for n in 1..=40u64 {
        let mut gen = mrom::value::IdGenerator::new(NodeId(n));
        for _ in 0..500 {
            assert!(all.insert(gen.next_id()), "collision at node {n}");
        }
    }
    assert_eq!(all.len(), 20_000);
}

#[test]
fn thirty_site_federation_brings_up_and_serves() {
    // The fleet harness drives the same thirty-site star bring-up the
    // hand-rolled version of this test used to, plus Zipf traffic,
    // migrations, and churn — and then checks the global invariants
    // (single host per object, exactly-once counter windows, drained
    // wire, balanced accounting, telemetry accounting) instead of a few
    // hand-picked counters.
    let cfg = mrom::fleet::FleetConfig {
        topology: mrom::net::Topology::Star,
        sites: 30,
        objects_per_site: 20,
        invocations: 600,
        churn_events: 3,
        migration_every: 25,
        zipf_permille: 1100,
        ..mrom::fleet::FleetConfig::smoke()
    };
    let run = mrom::fleet::run_fleet(&cfg, 123).unwrap();
    run.report.assert_invariants();
    assert_eq!(run.report.sites, 30);
    assert_eq!(run.report.objects, 600);
    assert!(run.report.ops_ok > 0, "spokes serve traffic");
    assert!(run.report.migrations_ok > 0, "objects move between sites");
    assert_eq!(run.report.crashes, 3, "churn hit the spokes");
    // Traffic accounting survived the whole run.
    assert!(run.report.stats.bytes_sent > 50_000);

    // The §5 employee-DB deployment still rides on the same federation
    // machinery: bring one up beside the fleet to keep the original
    // scenario covered end to end.
    let (mut fed, nodes) = star_federation(123, 30, LinkConfig::lan()).unwrap();
    let hub = nodes[0];
    let ambs = deploy_employee_db(&mut fed, hub, &nodes[1..]).unwrap();
    assert_eq!(ambs.len(), 29);
    for &(spoke, amb) in &ambs {
        let client = fed.runtime_mut(spoke).unwrap().ids_mut().next_id();
        assert_eq!(
            fed.call_through_ambassador(spoke, client, amb, "count", &[])
                .unwrap(),
            Value::Int(4)
        );
    }
    assert_eq!(fed.site_stats(hub).unwrap().deployed, 29);
}

#[test]
fn big_object_survives_migration_and_persistence() {
    // A single object holding ~1 MB of state round-trips through image
    // and depot without loss.
    let mut rt = Runtime::new(NodeId(9));
    rt.classes_mut()
        .register(ClassSpec::new("warehouse").fixed_method(
            "inventory_size",
            Method::public(MethodBody::script("return len(self.get(\"inventory\"));").unwrap()),
        ))
        .unwrap();
    let id = rt.create("warehouse").unwrap();
    let big_list = Value::List(
        (0..10_000)
            .map(|i| Value::Str(format!("item-{i:06}-{}", "x".repeat(90))))
            .collect(),
    );
    rt.object_mut(id)
        .unwrap()
        .add_data(id, "inventory", big_list)
        .unwrap();

    let obj = rt.evict(id).unwrap();
    let image = obj.migration_image(id).unwrap();
    assert!(image.len() > 900_000, "image only {} bytes", image.len());
    let back = mrom::core::MromObject::from_image(&image).unwrap();
    let mut rt2 = Runtime::new(NodeId(10));
    rt2.adopt(back).unwrap();
    assert_eq!(
        rt2.invoke_as_system(id, "inventory_size", &[]).unwrap(),
        Value::Int(10_000)
    );

    let mut depot = mrom::persist::Depot::new(mrom::persist::MemStore::new());
    depot.save(rt2.object(id).unwrap()).unwrap();
    assert_eq!(depot.restore(id).unwrap(), *rt2.object(id).unwrap());
}

//! E6 — Figure 2 brought up on the wire: Link and Import/Export costs.
//!
//! Rows: the Link handshake, the Import/Export of Ambassadors whose
//! migration image grows with cargo, raw image encode/decode, and a whole
//! migration round trip (`dispatch_object` there and back between two
//! linked sites under Strict admission) of the benchmark package's
//! `bench-cargo` object at 64 B, 4 KiB and 64 KiB payloads. Wall
//! time here measures the *machinery* (serialization, protocol handling,
//! simulator) — the virtual-time/latency story appears in the `tables`
//! binary, which reports the simulator's own deterministic clock.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use hadas::{AmbassadorSpec, Federation};
use mrom_bench::{bench_cargo_as, bench_ids, cargo_names, cargo_object, cargo_object_as};
use mrom_core::{AdmissionPolicy, MromObject};
use mrom_net::{LinkConfig, NetworkConfig};
use mrom_value::{NodeId, ObjectId};

fn fresh_pair(seed: u64) -> Federation {
    let cfg = NetworkConfig::new(seed).with_default_link(LinkConfig::lan());
    let mut fed = Federation::new(cfg);
    fed.add_site(NodeId(1)).unwrap();
    fed.add_site(NodeId(2)).unwrap();
    fed
}

/// Two linked sites under Strict admission, with a `bench-cargo` object
/// carrying `payload` bytes at site 1.
fn cargo_pair(payload: usize) -> (Federation, ObjectId) {
    let mut fed = fresh_pair(3);
    fed.set_admission_policy(AdmissionPolicy::Strict);
    fed.link(NodeId(1), NodeId(2)).unwrap();
    let rt = fed.runtime_mut(NodeId(1)).unwrap();
    let obj = bench_cargo_as(rt.ids_mut().next_id(), 0, payload);
    let id = obj.id();
    rt.adopt(obj).unwrap();
    (fed, id)
}

fn bench_federation(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_federation");
    group.sample_size(30);

    group.bench_function("link_handshake", |b| {
        b.iter_with_setup(
            || fresh_pair(1),
            |mut fed| {
                fed.link(NodeId(1), NodeId(2)).unwrap();
                black_box(fed)
            },
        );
    });

    for cargo_items in [0usize, 32, 256] {
        group.bench_with_input(
            BenchmarkId::new("import_export", cargo_items),
            &cargo_items,
            |b, &items| {
                b.iter_with_setup(
                    || {
                        let mut fed = fresh_pair(2);
                        let apo = cargo_object_as(
                            fed.runtime_mut(NodeId(2)).unwrap().ids_mut().next_id(),
                            items,
                            64,
                        );
                        fed.integrate_apo(
                            NodeId(2),
                            "svc",
                            apo,
                            AmbassadorSpec::relay_only()
                                .with_methods(["ping"])
                                .with_data(cargo_names(items)),
                        )
                        .unwrap();
                        fed.link(NodeId(1), NodeId(2)).unwrap();
                        fed
                    },
                    |mut fed| {
                        let amb = fed.import_apo(NodeId(1), NodeId(2), "svc").unwrap();
                        black_box(amb)
                    },
                );
            },
        );
    }

    // Raw migration image encode/decode at two sizes.
    for items in [8usize, 256] {
        let mut ids = bench_ids();
        let obj = cargo_object(&mut ids, items, 64);
        let me = obj.id();
        group.bench_with_input(BenchmarkId::new("image_encode", items), &items, |b, _| {
            b.iter(|| black_box(obj.migration_image(me).unwrap()));
        });
        let image = obj.migration_image(me).unwrap();
        group.bench_with_input(BenchmarkId::new("image_decode", items), &items, |b, _| {
            b.iter(|| black_box(MromObject::from_image(&image).unwrap()));
        });
    }

    // Whole-object migration, there and back: two moves per iteration.
    for payload in [64usize, 4096, 65536] {
        let (mut fed, id) = cargo_pair(payload);
        group.bench_with_input(
            BenchmarkId::new("dispatch_round_trip", payload),
            &payload,
            |b, _| {
                b.iter(|| {
                    fed.dispatch_object(NodeId(1), NodeId(2), id).unwrap();
                    fed.dispatch_object(NodeId(2), NodeId(1), id).unwrap();
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_federation);
criterion_main!(benches);

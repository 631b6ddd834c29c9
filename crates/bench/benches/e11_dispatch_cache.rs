//! E11 — the generation-stamped dispatch cache on the level-0 fast path.
//!
//! Three regimes:
//!
//! * **cache-hit** — repeated dispatch of one method; after the first
//!   iteration every lookup is served from the cache (a sealed fixed-slot
//!   index or a stamped `Arc` handle).
//! * **cache-miss** — a structural mutation precedes every dispatch, so
//!   the stamped entry for the extensible target is stale each time and
//!   the lookup falls back to full resolution before re-stamping.
//! * **invalidation-storm** — add/dispatch/delete of a transient method
//!   every iteration: the worst case where the cache can never help and
//!   only its bookkeeping overhead shows.
//!
//! Plus the site host's share of a local invoke: the benchmark package's
//! `bench-cell` `bump` through bare `invoke_with_limits` on an object in
//! hand, against the same call through `Runtime::invoke` (table checkout,
//! world hook, check-in), with 1 object (bumped over and over) and with
//! 51,200 objects (bumped in turn, the benchmark's `invoke_zipf`
//! population).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use mrom_bench::{bench_cell_class, bench_ids, counter_among};
use mrom_core::{invoke, invoke_with_limits, InvokeLimits, Method, MethodBody, NoWorld, Runtime};
use mrom_value::{NodeId, Value};

/// Hosted-object counts of the host-share rows.
const HOSTED: [usize; 2] = [1, 51_200];

fn bench_dispatch_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("e11_dispatch_cache");
    let args = [Value::Int(20), Value::Int(22)];

    // Cache-hit: the same method dispatched over and over, among 64
    // siblings, for both sections.
    for (label, extensible) in [("hit_fixed", false), ("hit_extensible", true)] {
        let mut ids = bench_ids();
        let mut obj = counter_among(&mut ids, 64, extensible);
        let caller = ids.next_id();
        let mut world = NoWorld;
        group.bench_function(label, |b| {
            b.iter(|| {
                black_box(invoke(&mut obj, &mut world, caller, black_box("m_add"), &args).unwrap())
            });
        });
    }

    // Cache-miss: an unrelated setMethod bumps the generation before each
    // dispatch, so the extensible target's stamp never matches.
    {
        let mut ids = bench_ids();
        let mut obj = counter_among(&mut ids, 64, true);
        let me = obj.id();
        obj.add_method(
            me,
            "sacrifice",
            Method::public(MethodBody::native(|_, _| Ok(Value::Null))),
        )
        .unwrap();
        let caller = ids.next_id();
        let mut world = NoWorld;
        let poke = Value::map([("invoke_acl", Value::from("public"))]);
        group.bench_function("miss_after_mutation", |b| {
            b.iter(|| {
                obj.set_method(me, "sacrifice", &poke).unwrap();
                black_box(invoke(&mut obj, &mut world, caller, black_box("m_add"), &args).unwrap())
            });
        });
    }

    // Invalidation-storm: a transient method is added, dispatched once,
    // and deleted, every single iteration.
    {
        let mut ids = bench_ids();
        let mut obj = counter_among(&mut ids, 64, true);
        let me = obj.id();
        let mut world = NoWorld;
        let transient = Method::public(MethodBody::native(|_, _| Ok(Value::Int(1))));
        group.bench_function("invalidation_storm", |b| {
            b.iter(|| {
                obj.add_method(me, "transient", transient.clone()).unwrap();
                let out = black_box(invoke(&mut obj, &mut world, me, "transient", &[]).unwrap());
                obj.delete_method(me, "transient").unwrap();
                out
            });
        });
    }

    group.finish();
}

fn bench_host_share(c: &mut Criterion) {
    let mut group = c.benchmark_group("e11_host_share");
    let cell = bench_cell_class();
    let limits = InvokeLimits::default();
    for n in HOSTED {
        let mut ids = bench_ids();
        let caller = ids.next_id();
        let mut objects: Vec<_> = (0..n).map(|_| cell.instantiate(&mut ids)).collect();
        let mut world = NoWorld;
        let mut next = 0;
        group.bench_function(format!("bare_bump/{n}"), |b| {
            b.iter(|| {
                next = (next + 1) % n;
                black_box(
                    invoke_with_limits(
                        &mut objects[next],
                        &mut world,
                        caller,
                        "bump",
                        &[],
                        &limits,
                    )
                    .unwrap(),
                )
            });
        });

        let mut rt = Runtime::new(NodeId(0xe11));
        rt.classes_mut().register(bench_cell_class()).unwrap();
        let hosted: Vec<_> = (0..n).map(|_| rt.create("bench-cell").unwrap()).collect();
        let mut next = 0;
        group.bench_function(format!("runtime_bump/{n}"), |b| {
            b.iter(|| {
                next = (next + 1) % n;
                black_box(rt.invoke(caller, hosted[next], "bump", &[]).unwrap())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dispatch_cache, bench_host_share);
criterion_main!(benches);

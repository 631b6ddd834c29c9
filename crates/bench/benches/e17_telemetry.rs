//! E17 — windowed telemetry cost on the level-0 fast path.
//!
//! The same repeated dispatch as E2/E11's cache-hit regime, crossed over
//! observability mode × windowed profiling:
//!
//! * **disabled / window off** — the zero-cost claim unchanged: one
//!   thread-local byte read per instrumentation point.
//! * **disabled / window on** — a configured window must stay invisible
//!   while recording is off (the window feed sits *inside* the
//!   already-gated paths).
//! * **ring / window off** — PR 3's flight-recorder cost, the pre-PR
//!   baseline for the windowed rows.
//! * **ring / window on** — the tentpole's price: per-invocation
//!   epoch-bucket update (fuel histogram, counters) on top of ring.
//! * **full / window on** — adds `Instant` latency sampling into the
//!   window's latency histogram.
//!
//! Two service rows measure the read side: folding the live window into
//! a `TelemetrySnapshot` and rendering the flight recorder as a Chrome
//! trace.
//!
//! The `ring_event/*` rows price the Ring-mode recording path one hot
//! event kind at a time, under the window shape the `advisor_affinity`
//! benchmark workload installs (one run-wide epoch, callers tracked) and
//! with the flight recorder full, so every event also evicts one. The
//! `fold_advisor_shape` row folds a window of that workload's shape:
//! 480 objects on 48 sites, about 250 links, callers on, two epochs of
//! which one is empty.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use mrom_bench::{bench_ids, counter_among};
use mrom_core::{invoke, NoWorld};
use mrom_obs::{ObsMode, WindowConfig};
use mrom_value::{NodeId, ObjectId, Value};

/// The `advisor_affinity` workload's window: one epoch wide enough for
/// any run, two buckets, remote callers attributed.
fn advisor_window() -> WindowConfig {
    WindowConfig::new(1 << 40, 2).with_callers()
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("e17_telemetry");
    let args = [Value::Int(20), Value::Int(22)];

    for (label, mode, windowed) in [
        ("disabled_nowin", ObsMode::Disabled, false),
        ("disabled_win", ObsMode::Disabled, true),
        ("ring_nowin", ObsMode::Ring, false),
        ("ring_win", ObsMode::Ring, true),
        ("full_win", ObsMode::Full, true),
    ] {
        let mut ids = bench_ids();
        let mut obj = counter_among(&mut ids, 64, false);
        let caller = ids.next_id();
        let mut world = NoWorld;
        mrom_obs::reset();
        mrom_obs::set_window(windowed.then_some(WindowConfig::DEFAULT));
        mrom_obs::set_mode(mode);
        group.bench_function(format!("invoke_{label}"), |b| {
            b.iter(|| {
                black_box(invoke(&mut obj, &mut world, caller, black_box("m_add"), &args).unwrap())
            });
        });
        mrom_obs::set_mode(ObsMode::Disabled);
        mrom_obs::set_window(None);
        mrom_obs::reset();
    }

    // Read side: snapshot folding over a populated window, and the
    // Chrome exporter over a full flight-recorder ring.
    {
        let mut ids = bench_ids();
        let mut obj = counter_among(&mut ids, 64, false);
        let caller = ids.next_id();
        let mut world = NoWorld;
        mrom_obs::reset();
        mrom_obs::set_window(Some(WindowConfig::DEFAULT));
        mrom_obs::set_mode(ObsMode::Ring);
        for _ in 0..1024 {
            invoke(&mut obj, &mut world, caller, "m_add", &args).unwrap();
        }
        group.bench_function("snapshot_collect", |b| {
            b.iter(|| black_box(mrom_obs::telemetry_snapshot()));
        });
        let events = mrom_obs::ring_snapshot();
        group.bench_function("chrome_export", |b| {
            b.iter(|| black_box(mrom_obs::chrome_trace(black_box(&events))));
        });
        mrom_obs::set_mode(ObsMode::Disabled);
        mrom_obs::set_window(None);
        mrom_obs::reset();
    }

    group.finish();
}

/// One Ring-mode row per hot event kind, each recorded through the
/// public helper the instrumented layers call.
fn bench_ring_events(c: &mut Criterion) {
    let mut group = c.benchmark_group("e17_telemetry");
    let mut ids = bench_ids();
    let (object, caller) = (ids.next_id(), ids.next_id());
    let (a, b) = (NodeId(1), NodeId(2));
    mrom_obs::reset();
    mrom_obs::set_window(Some(advisor_window()));
    mrom_obs::set_mode(ObsMode::Ring);
    // Fill the ring so every timed event also evicts one.
    for _ in 0..mrom_obs::ring_capacity() {
        mrom_obs::script_run(34, 3);
    }
    group.bench_function("ring_event/invoke_start_end", |bch| {
        bch.iter(|| {
            let span = mrom_obs::invoke_start(object, black_box("bump"), caller, 0);
            mrom_obs::invoke_end(span, object, black_box("bump"), "ok", 34);
        });
    });
    group.bench_function("ring_event/lookup", |bch| {
        bch.iter(|| mrom_obs::lookup(object, black_box("bump"), true, true));
    });
    group.bench_function("ring_event/acl", |bch| {
        bch.iter(|| mrom_obs::acl_decision(object, black_box("bump"), caller, true));
    });
    group.bench_function("ring_event/runtime_invoke", |bch| {
        bch.iter(|| mrom_obs::runtime_invoke(a, object, black_box("bump")));
    });
    group.bench_function("ring_event/fed_send_recv", |bch| {
        bch.iter(|| {
            mrom_obs::fed_send(a, b, "invoke_req", black_box(119));
            mrom_obs::fed_recv(a, b, "invoke_req");
        });
    });
    group.bench_function("ring_event/script_run", |bch| {
        bch.iter(|| mrom_obs::script_run(black_box(34), 3));
    });
    mrom_obs::set_mode(ObsMode::Disabled);
    mrom_obs::set_window(None);
    mrom_obs::reset();
    group.finish();
}

/// Folds a window of the `advisor_affinity` workload's shape.
fn bench_fold(c: &mut Criterion) {
    const SITES: u64 = 48;
    const OBJECTS: u64 = 480;
    const LINKS_PER_SITE: u64 = 5;
    let mut group = c.benchmark_group("e17_telemetry");
    let mut ids = bench_ids();
    let objects: Vec<ObjectId> = (0..OBJECTS).map(|_| ids.next_id()).collect();
    let caller = ids.next_id();
    let site = |n: u64| NodeId(1 + n % SITES);
    mrom_obs::reset();
    mrom_obs::set_window(Some(advisor_window()));
    mrom_obs::set_mode(ObsMode::Ring);
    for (i, &object) in (0u64..).zip(&objects) {
        let home = site(i);
        for k in 0..(1 + i % 7) {
            mrom_obs::runtime_invoke(home, object, "bump");
            let span = mrom_obs::invoke_start(object, "bump", caller, 0);
            mrom_obs::invoke_end(span, object, "bump", "ok", 20 + 3 * k);
            // Most objects are pulled on by one or two remote sites.
            if k % 2 == 1 {
                let from = site(i + 1 + k % 3);
                mrom_obs::remote_invoke_requested(from, object);
                mrom_obs::fed_send(from, home, "invoke_req", 119);
            }
        }
    }
    for s in 0..SITES {
        for d in 1..=LINKS_PER_SITE {
            let (src, dst) = (site(s), site(s + d * 7));
            mrom_obs::link_delivered(src, dst, 119, 2_000 + 100 * d);
            mrom_obs::link_delivered(src, dst, 39, 2_000 + 90 * d);
        }
    }
    let snap = mrom_obs::telemetry_snapshot();
    assert_eq!(snap.objects.len(), OBJECTS as usize);
    assert_eq!(snap.links.len(), (SITES * LINKS_PER_SITE) as usize);
    group.bench_function("fold_advisor_shape", |bch| {
        bch.iter(|| black_box(mrom_obs::telemetry_snapshot()));
    });
    mrom_obs::set_mode(ObsMode::Disabled);
    mrom_obs::set_window(None);
    mrom_obs::reset();
    group.finish();
}

criterion_group!(
    benches,
    bench_telemetry_overhead,
    bench_ring_events,
    bench_fold
);
criterion_main!(benches);

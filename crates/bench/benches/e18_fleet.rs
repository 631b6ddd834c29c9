//! E18 — fleet capacity: what one wall-clock second of the federation
//! buys at population scale.
//!
//! Unlike E1–E17 (per-mechanism microbenchmarks), these rows time whole
//! fleet scenarios through `mrom_fleet::run_fleet`: bring-up, seeded
//! Zipf traffic, migration slots, drain, invariant scan, and telemetry
//! fold, end to end. The absolute capacity figures (invocations/sec per
//! site, migration throughput, bytes per object) ship separately in
//! `BENCH_FLEET.json` via `mrom-fleet bench`; this harness keeps the
//! scenario path on the perf radar next to the other experiments:
//!
//! * **star_small / hier_small** — the same small fleet on the two
//!   headline topologies (topology cost is mostly bring-up: the star
//!   links once per spoke, the hierarchy per cluster + backbone);
//! * **migration_heavy** — every fourth op dispatches a Zipf-drawn
//!   object, so the row is dominated by image encode/ship/adopt;
//! * **marketplace_round** — capability cards, negotiated method
//!   imports, and Strict refusals over four sites;
//! * **zipf_sample** — the per-op sampling cost (one uniform draw plus
//!   a binary search over the cumulative table).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use mrom_fleet::{run_fleet, run_marketplace, FleetConfig, Zipf};
use mrom_net::Topology;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Small enough for a criterion iteration, big enough to exercise every
/// mechanism: 4 sites × 16 objects, 80 ops, no churn (churn rows would
/// time the retry backoff schedule, not the engine).
fn small(topology: Topology, migration_every: usize) -> FleetConfig {
    FleetConfig {
        topology,
        sites: 4,
        objects_per_site: 16,
        invocations: 80,
        churn_events: 0,
        migration_every,
        zipf_permille: 1100,
        ..FleetConfig::smoke()
    }
}

fn bench_fleet(c: &mut Criterion) {
    let mut group = c.benchmark_group("e18_fleet");
    group.sample_size(10);

    group.bench_function("star_small", |b| {
        b.iter(|| black_box(run_fleet(&small(Topology::Star, 16), 42).unwrap()));
    });
    group.bench_function("hier_small", |b| {
        b.iter(|| {
            black_box(
                run_fleet(&small(Topology::Hierarchical { cluster_size: 2 }, 16), 42).unwrap(),
            )
        });
    });
    group.bench_function("migration_heavy", |b| {
        b.iter(|| black_box(run_fleet(&small(Topology::Star, 4), 42).unwrap()));
    });
    group.bench_function("marketplace_round", |b| {
        b.iter(|| black_box(run_marketplace(42).unwrap()));
    });

    let zipf = Zipf::new(100_000, 1100);
    let mut rng = StdRng::seed_from_u64(7);
    group.bench_function("zipf_sample", |b| {
        b.iter(|| black_box(zipf.sample(&mut rng)));
    });

    group.finish();
}

criterion_group!(benches, bench_fleet);
criterion_main!(benches);

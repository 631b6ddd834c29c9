//! E21 — shared fixed-method tables and the site code table.
//!
//! Every object of a class shares one fixed-method table, and a site
//! interns the tables of arriving images by their exact `fixed_methods`
//! bytes. E21 prices one arrival of the benchmark's `bench-cargo` shape
//! (3 scripts + 12 meta-methods, no extensible methods) at 64 B, 2 KiB
//! and 64 KiB payloads, cold (no table: `from_image_with_policy`, an
//! uncached effect solve, the `image_value` reference encoder) against
//! warm (`Runtime::unpack_image` hitting the table, the table's effect
//! memo, `image_bytes` copying the table's encoding):
//!
//! * `decode_*` — unpack under `Off`; `strict_*` — unpack under `Strict`
//!   (their difference is admission);
//! * `effects_*` — the effect table of the arrived object;
//! * `encode_*` — the departure image.
//!
//! `miss_distinct` cycles 2 × `CODE_TABLE_ENTRIES` images whose fixed
//! sections all differ, so every arrival misses: the table path against
//! the reference composition (`wire::decode` + the `Value`-tree decoder,
//! which is what `from_image_with_policy` ran before the table), timed in
//! alternating rounds and printed as a ratio.
//!
//! Before the rows, a probe prints the resident memory per object of
//! 100 k `bench-cell` objects adopted into one runtime (Linux only).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use mrom_bench::{bench_cargo_as, bench_cell_class, bench_ids};
use mrom_core::{
    object_effects, AdmissionPolicy, InvokeLimits, MromObject, Runtime, CODE_TABLE_ENTRIES,
};
use mrom_value::{wire, NodeId};

fn cargo(tag: usize, payload: usize) -> MromObject {
    bench_cargo_as(bench_ids().next_id(), tag, payload)
}

fn site(policy: AdmissionPolicy) -> Runtime {
    let mut rt = Runtime::new(NodeId(0xe21));
    rt.set_limits(InvokeLimits {
        admission: policy,
        ..InvokeLimits::default()
    });
    rt
}

/// Resident set size in bytes, from `/proc/self/statm` (4 KiB pages).
fn rss_bytes() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages * 4096)
}

fn rss_probe() {
    const CELLS: usize = 100_000;
    let mut rt = Runtime::new(NodeId(0xe21));
    rt.classes_mut()
        .register(bench_cell_class())
        .expect("fresh registry");
    let before = rss_bytes();
    for _ in 0..CELLS {
        rt.create("bench-cell").expect("registered");
    }
    match (before, rss_bytes()) {
        (Some(a), Some(b)) => println!(
            "e21_code_table/rss_per_bench_cell: {:.0} B/object over {CELLS} objects",
            b.saturating_sub(a) as f64 / CELLS as f64
        ),
        _ => println!("e21_code_table/rss_per_bench_cell: unavailable on this platform"),
    }
    black_box(rt.object_count());
}

fn bench_code_table(c: &mut Criterion) {
    rss_probe();
    let mut group = c.benchmark_group("e21_code_table");

    for (label, payload) in [("64B", 64usize), ("2KiB", 2048), ("64KiB", 65_536)] {
        let obj = cargo(0, payload);
        let image = obj.image_bytes().expect("mobile");

        for (row, policy) in [
            ("decode", AdmissionPolicy::Off),
            ("strict", AdmissionPolicy::Strict),
        ] {
            group.bench_with_input(
                BenchmarkId::new(format!("{row}_cold"), label),
                &(),
                |b, ()| {
                    b.iter(|| {
                        MromObject::from_image_with_policy(black_box(&image), policy).unwrap()
                    });
                },
            );
            let mut rt = site(policy);
            rt.unpack_image(&image).expect("admitted");
            group.bench_with_input(
                BenchmarkId::new(format!("{row}_warm"), label),
                &(),
                |b, ()| {
                    b.iter(|| rt.unpack_image(black_box(&image)).unwrap());
                },
            );
        }

        let arrived = MromObject::from_image(&image).expect("valid");
        group.bench_with_input(BenchmarkId::new("effects_cold", label), &(), |b, ()| {
            b.iter(|| object_effects(black_box(&arrived)));
        });
        let mut warm = site(AdmissionPolicy::Off)
            .unpack_image(&image)
            .expect("valid");
        warm.effects();
        group.bench_with_input(BenchmarkId::new("effects_warm", label), &(), |b, ()| {
            b.iter(|| black_box(&mut warm).effects());
        });

        group.bench_with_input(BenchmarkId::new("encode_cold", label), &(), |b, ()| {
            b.iter(|| wire::encode(&black_box(&arrived).image_value().unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("encode_warm", label), &(), |b, ()| {
            b.iter(|| black_box(&warm).image_bytes().unwrap());
        });
    }

    group.finish();
    miss_distinct();
}

/// Every arrival misses: more distinct sections than the table holds,
/// visited in a cycle, so FIFO eviction drops each before it returns.
/// The two paths alternate in rounds (host noise is time-correlated);
/// the figure is the median over rounds of each round's mean.
fn miss_distinct() {
    const ROUNDS: usize = 41;
    let distinct: Vec<Vec<u8>> = (0..2 * CODE_TABLE_ENTRIES)
        .map(|tag| cargo(tag, 2048).image_bytes().expect("mobile"))
        .collect();
    let policy = AdmissionPolicy::Strict;
    let mut rt = site(policy);
    let time = |f: &mut dyn FnMut(&[u8]) -> MromObject| {
        let start = std::time::Instant::now();
        for image in &distinct {
            black_box(f(black_box(image)));
        }
        start.elapsed().as_nanos() as f64 / distinct.len() as f64
    };
    let mut reference = |image: &[u8]| {
        let v = wire::decode(image).unwrap();
        MromObject::from_image_value_with_policy(&v, policy).unwrap()
    };
    let mut unpack = |image: &[u8]| rt.unpack_image(image).unwrap();
    let (mut refs, mut misses) = (Vec::new(), Vec::new());
    for round in 0..ROUNDS {
        if round % 2 == 0 {
            refs.push(time(&mut reference));
            misses.push(time(&mut unpack));
        } else {
            misses.push(time(&mut unpack));
            refs.push(time(&mut reference));
        }
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let (r, m) = (median(&mut refs), median(&mut misses));
    println!(
        "e21_code_table/miss_distinct: reference {:.2} µs, unpack_image {:.2} µs, ratio {:.3} \
         (median of {ROUNDS} interleaved rounds of {} arrivals)",
        r / 1e3,
        m / 1e3,
        m / r,
        distinct.len()
    );
}

criterion_group!(benches, bench_code_table);
criterion_main!(benches);

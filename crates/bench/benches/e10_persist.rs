//! E10 — self-contained persistence (§1's self-containment requirement).
//!
//! Rows: an object writing itself into a memory depot and bootstrapping
//! back, at several cargo sizes; the same against the log-structured file
//! store; recovery scans; compaction of a churned log; the CRC-32 every
//! file record carries, at 2 KiB and 64 KiB; and, in group `landing_put`,
//! the depot write of a landed migration at 64 B, 4 KiB and 64 KiB.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use mrom_bench::{bench_ids, cargo_object};
use mrom_persist::{crc32, BlobStore, Depot, FileStore, MemStore};

fn bench_persist(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_persist");
    group.sample_size(30);

    for items in [8usize, 64, 512] {
        let mut ids = bench_ids();
        let obj = cargo_object(&mut ids, items, 64);
        let id = obj.id();

        group.bench_with_input(BenchmarkId::new("mem_save", items), &items, |b, _| {
            let mut depot = Depot::new(MemStore::new());
            b.iter(|| depot.save(black_box(&obj)).unwrap());
        });
        let mut depot = Depot::new(MemStore::new());
        depot.save(&obj).unwrap();
        group.bench_with_input(BenchmarkId::new("mem_restore", items), &items, |b, _| {
            b.iter(|| black_box(depot.restore(id).unwrap()));
        });
    }

    // File-backed save/restore at one representative size.
    let dir = std::env::temp_dir().join(format!("mrom-bench-e10-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut ids = bench_ids();
    let obj = cargo_object(&mut ids, 64, 64);
    let id = obj.id();

    group.bench_function("file_save", |b| {
        let mut depot = Depot::new(FileStore::open(dir.join("save.log")).unwrap());
        b.iter(|| depot.save(black_box(&obj)).unwrap());
    });
    let mut depot = Depot::new(FileStore::open(dir.join("restore.log")).unwrap());
    depot.save(&obj).unwrap();
    group.bench_function("file_restore", |b| {
        b.iter(|| black_box(depot.restore(id).unwrap()));
    });

    // Recovery: reopen a log holding 100 live objects.
    {
        let mut depot = Depot::new(FileStore::open(dir.join("recover.log")).unwrap());
        let mut ids = bench_ids();
        for _ in 0..100 {
            let o = cargo_object(&mut ids, 8, 32);
            depot.save(&o).unwrap();
        }
    }
    group.bench_function("recover_100_objects", |b| {
        b.iter(|| {
            let depot = Depot::new(FileStore::open(dir.join("recover.log")).unwrap());
            let (objs, failed) = depot.restore_all();
            assert_eq!(objs.len(), 100);
            assert!(failed.is_empty());
            black_box(objs)
        });
    });

    // Compaction of a churned log (90% garbage).
    group.bench_function("compact_churned_log", |b| {
        b.iter_with_setup(
            || {
                let path = dir.join(format!("churn-{}.log", rand::random::<u32>()));
                let mut store = FileStore::open(&path).unwrap();
                let blob = vec![0u8; 256];
                for round in 0..10 {
                    for key in 0..20 {
                        store
                            .put(&format!("obj-{key}"), &blob[..(round + 1) * 20])
                            .unwrap();
                    }
                }
                store
            },
            |mut store| {
                store.compact().unwrap();
                black_box(store.log_bytes())
            },
        );
    });
    let _ = std::fs::remove_dir_all(&dir);

    // The record checksum the file store runs on every put and get (the
    // memory store runs it only on blobs a test corrupted): a migration
    // image is a few KiB, the largest benchmark payload 64 KiB. Last in
    // the group, so the throughput annotation marks only these.
    for size in [2_048usize, 65_536] {
        let data: Vec<u8> = (0..size).map(|i| (i * 31 + 7) as u8).collect();
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("crc32", size), &data, |b, data| {
            b.iter(|| black_box(crc32(black_box(data))));
        });
    }
    group.finish();
}

/// The destination's depot write of a landed migration: `save_image`
/// over a memory store, handed the received image by value. Each
/// iteration clones the image first (the stub times setup too), standing
/// in for the decoded request buffer the landing path already owns, so
/// a row is one image copy plus the put itself.
fn bench_landing_put(c: &mut Criterion) {
    let mut group = c.benchmark_group("landing_put");
    let id = bench_ids().next_id();
    for size in [64usize, 4_096, 65_536] {
        let image: Vec<u8> = (0..size).map(|i| (i * 31 + 7) as u8).collect();
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &image, |b, image| {
            let mut depot = Depot::new(MemStore::new());
            b.iter_with_setup(
                || image.clone(),
                |image| depot.save_image(id, image).unwrap(),
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_persist, bench_landing_put);
criterion_main!(benches);

//! Workspace-level chaos sweep: the fault-tolerant federation survives
//! every fault-injection preset of the fleet engine across many seeds,
//! and every run is reproducible byte for byte.
//!
//! `MROM_CHAOS_SEEDS` widens the sweep (CI sets it); the default keeps
//! the tier-1 test run fast.

use mrom::fleet::{chaos_presets, run_fleet, FleetConfig, FleetReport};

fn sweep_seeds() -> Vec<u64> {
    let count = std::env::var("MROM_CHAOS_SEEDS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(4);
    (1..=count.max(1)).collect()
}

fn run(name: &str, cfg: &FleetConfig, seed: u64) -> FleetReport {
    run_fleet(cfg, seed)
        .unwrap_or_else(|e| panic!("{name} seed {seed} errored: {e}"))
        .report
}

/// The counter that proves a preset's own fault fired.
fn witness(name: &str, report: &FleetReport) -> u64 {
    match name {
        "loss-and-retry" => report.stats.messages_dropped,
        "duplicate-delivery" => report.stats.messages_duplicated,
        "reordering" => report.stats.messages_reordered,
        "partition-during-dispatch" | "lost-acks" => report.migrations_failed,
        "crash-mid-migration" => report.crashes,
        "heal-and-resume" => report
            .stats
            .messages_dropped
            .min(report.stats.messages_duplicated)
            .min(report.stats.messages_reordered),
        other => panic!("no witness for preset {other}"),
    }
}

#[test]
fn chaos_matrix_upholds_global_invariants() {
    let mut runs = 0;
    for seed in sweep_seeds() {
        for (name, cfg) in chaos_presets() {
            let report = run(name, &cfg, seed);
            let violations = report.violations();
            assert!(
                violations.is_empty(),
                "{name} seed {seed} violated invariants:\n  {}",
                violations.join("\n  ")
            );
            runs += 1;
        }
    }
    assert_eq!(runs, sweep_seeds().len() * chaos_presets().len());
}

#[test]
fn chaos_runs_are_reproducible_byte_for_byte() {
    for seed in sweep_seeds() {
        for (name, cfg) in chaos_presets() {
            let first = run(name, &cfg, seed);
            let second = run(name, &cfg, seed);
            // Structural equality over every counter...
            assert_eq!(first, second, "{name} seed {seed}");
            // ...and literal byte equality of the rendered report and
            // NetStats, the determinism witness the engine promises.
            assert_eq!(first.to_json(), second.to_json(), "{name} seed {seed}");
            assert_eq!(
                format!("{:?}", first.stats),
                format!("{:?}", second.stats),
                "{name} seed {seed} NetStats must match byte for byte"
            );
        }
    }
}

#[test]
fn faults_actually_fire_across_the_sweep() {
    // Guards the presets against silently degenerating into fault-free
    // runs (e.g. a refactor dropping a schedule): across the sweep each
    // preset's own witness must be nonzero, and some operations must have
    // been forced to fail.
    let mut failed_ops = 0;
    for (name, cfg) in chaos_presets() {
        let mut fired = 0;
        for seed in sweep_seeds() {
            let report = run(name, &cfg, seed);
            fired += witness(name, &report);
            failed_ops += report.ops_failed + report.peeks_failed;
        }
        assert!(fired > 0, "{name}: its fault never fired");
    }
    assert!(failed_ops > 0, "some operations were forced to fail");
}

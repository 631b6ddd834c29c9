//! Workspace-level chaos sweep: the fault-tolerant federation survives
//! the full scenario matrix across many seeds, and every run is
//! reproducible byte for byte.
//!
//! `MROM_CHAOS_SEEDS` widens the sweep (CI sets it); the default keeps
//! the tier-1 test run fast.

use mrom::hadas::chaos::{run_scenario, ChaosReport, ChaosScenario};

fn sweep_seeds() -> Vec<u64> {
    let count = std::env::var("MROM_CHAOS_SEEDS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(4);
    (1..=count.max(1)).collect()
}

fn run(scenario: ChaosScenario, seed: u64) -> ChaosReport {
    run_scenario(scenario, seed)
        .unwrap_or_else(|e| panic!("{} seed {seed} errored: {e}", scenario.name()))
}

#[test]
fn chaos_matrix_upholds_global_invariants() {
    let mut runs = 0;
    for seed in sweep_seeds() {
        for scenario in ChaosScenario::ALL {
            let report = run(scenario, seed);
            report.assert_invariants();
            runs += 1;
        }
    }
    assert_eq!(runs, sweep_seeds().len() * ChaosScenario::ALL.len());
}

#[test]
fn chaos_runs_are_reproducible_byte_for_byte() {
    for seed in sweep_seeds() {
        for scenario in ChaosScenario::ALL {
            let first = run(scenario, seed);
            let second = run(scenario, seed);
            // Structural equality over every counter...
            assert_eq!(first, second, "{} seed {seed}", scenario.name());
            // ...and literal byte equality of the rendered NetStats, the
            // determinism witness the harness promises.
            assert_eq!(
                format!("{:?}", first.stats),
                format!("{:?}", second.stats),
                "{} seed {seed} NetStats must match byte for byte",
                scenario.name()
            );
        }
    }
}

#[test]
fn faults_actually_fire_across_the_sweep() {
    // Guards the harness against silently degenerating into a fault-free
    // run (e.g. a future refactor dropping the link overrides): across
    // the sweep we must observe drops, duplicates, and failed ops.
    let mut dropped = 0;
    let mut duplicated = 0;
    let mut failed_ops = 0;
    for seed in sweep_seeds() {
        for scenario in ChaosScenario::ALL {
            let report = run(scenario, seed);
            dropped += report.stats.messages_dropped;
            duplicated += report.stats.messages_duplicated;
            failed_ops += u64::from(report.ops_failed);
        }
    }
    assert!(dropped > 0, "loss/partition/crash faults fired");
    assert!(duplicated > 0, "duplication faults fired");
    assert!(failed_ops > 0, "some operations were forced to fail");
}

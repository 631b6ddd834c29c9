//! Seed-for-seed determinism of the fleet harness: the same `(config,
//! seed)` must reproduce the [`mrom_fleet::FleetReport`] *and* the
//! run's `TelemetrySnapshot` byte for byte — JSON renderings included,
//! since those are what CI artifacts and the determinism sweep compare.
//!
//! The default sweep covers a small fixed seed set; set
//! `MROM_FLEET_SEEDS=1,2,3` (comma-separated) to sweep further — the CI
//! seed-sweep job does exactly that.

use mrom_fleet::{run_fleet, FleetConfig};
use mrom_net::Topology;

/// Seeds to sweep: `MROM_FLEET_SEEDS` (comma-separated) or a fixed
/// default trio.
fn sweep_seeds() -> Vec<u64> {
    match std::env::var("MROM_FLEET_SEEDS") {
        Ok(raw) => raw
            .split(',')
            .filter_map(|s| s.trim().parse().ok())
            .collect(),
        Err(_) => vec![7, 42, 1997],
    }
}

#[test]
fn same_seed_reproduces_report_and_telemetry_byte_for_byte() {
    let cfg = FleetConfig::smoke();
    for seed in sweep_seeds() {
        let first = run_fleet(&cfg, seed).expect("first run");
        let second = run_fleet(&cfg, seed).expect("second run");
        assert_eq!(
            first.report, second.report,
            "seed {seed}: reports must match field for field"
        );
        assert_eq!(
            first.report.to_json(),
            second.report.to_json(),
            "seed {seed}: report JSON must match byte for byte"
        );
        assert_eq!(
            mrom_obs::to_json(&first.telemetry.to_value()),
            mrom_obs::to_json(&second.telemetry.to_value()),
            "seed {seed}: telemetry JSON must match byte for byte"
        );
        first.report.assert_invariants();
    }
}

#[test]
fn advisor_on_runs_sweep_deterministically() {
    // The Advisor's decisions are pure functions of (snapshot, config),
    // so enabling it must not cost a single bit of reproducibility:
    // same sweep contract as the advisor-off test above.
    let cfg = FleetConfig::converge_on();
    for seed in sweep_seeds() {
        let first = run_fleet(&cfg, seed).expect("first run");
        let second = run_fleet(&cfg, seed).expect("second run");
        assert_eq!(
            first.report, second.report,
            "seed {seed}: advisor-on reports must match field for field"
        );
        assert_eq!(
            first.report.to_json(),
            second.report.to_json(),
            "seed {seed}: advisor-on report JSON must match byte for byte"
        );
        assert_eq!(
            first.telemetry.to_json(),
            second.telemetry.to_json(),
            "seed {seed}: advisor-on telemetry JSON must match byte for byte"
        );
        first.report.assert_invariants();
        assert!(
            first.report.advisor.expect("advisor section").epochs > 0,
            "seed {seed}: advisor must have run"
        );
    }
}

#[test]
fn determinism_holds_across_topologies() {
    for topology in [
        Topology::Star,
        Topology::Mesh { degree: 2 },
        Topology::Hierarchical { cluster_size: 4 },
    ] {
        let cfg = FleetConfig {
            topology,
            ..FleetConfig::smoke()
        };
        let first = run_fleet(&cfg, 42).expect("first run");
        let second = run_fleet(&cfg, 42).expect("second run");
        assert_eq!(first, second, "{} must be deterministic", topology.name());
    }
}

#[test]
fn different_seeds_shuffle_the_traffic() {
    let cfg = FleetConfig::smoke();
    let a = run_fleet(&cfg, 1).expect("seed 1");
    let b = run_fleet(&cfg, 2).expect("seed 2");
    assert_ne!(
        a.report.to_json(),
        b.report.to_json(),
        "distinct seeds must produce distinct runs"
    );
}

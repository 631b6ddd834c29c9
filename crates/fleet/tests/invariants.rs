//! The fleet invariant matrix: every topology shape × churn on/off,
//! smoke-sized so the whole matrix runs in CI. Each
//! cell must uphold all of the [`mrom_fleet::FleetReport`] invariants —
//! single host per object, exactly-once counter windows, clean
//! recovery, balanced simulator accounting, and telemetry accounting.

use mrom_fleet::{run_fleet, FleetConfig};
use mrom_net::Topology;

const TOPOLOGIES: [Topology; 3] = [
    Topology::Star,
    Topology::Mesh { degree: 2 },
    Topology::Hierarchical { cluster_size: 4 },
];

#[test]
fn every_topology_upholds_invariants_under_churn() {
    for topology in TOPOLOGIES {
        let cfg = FleetConfig {
            topology,
            ..FleetConfig::smoke()
        };
        let run = run_fleet(&cfg, 42).expect("fleet runs");
        run.report.assert_invariants();
        assert_eq!(run.report.crashes, 2, "{}: churn ran", topology.name());
        assert!(run.report.ops_ok > 0, "{}: traffic landed", topology.name());
    }
}

#[test]
fn every_topology_upholds_invariants_without_churn() {
    for topology in TOPOLOGIES {
        let cfg = FleetConfig {
            topology,
            churn_events: 0,
            ..FleetConfig::smoke()
        };
        let run = run_fleet(&cfg, 42).expect("fleet runs");
        run.report.assert_invariants();
        // A fault-free run has no ambiguity: every bump acknowledged,
        // every counter exact, telemetry window pinned.
        assert_eq!(run.report.ops_failed, 0, "{}: no timeouts", topology.name());
        assert_eq!(run.report.ops_rejected, 0);
        assert_eq!(
            run.report.counter_total,
            i64::try_from(run.report.ops_ok).expect("fits"),
            "{}: exact counters without churn",
            topology.name()
        );
    }
}

#[test]
fn churn_heavy_run_still_converges() {
    // One crash/restart cycle every ~36 ops on a mesh: the drain must
    // still settle every object onto exactly one site.
    let cfg = FleetConfig {
        topology: Topology::Mesh { degree: 3 },
        churn_events: 10,
        ..FleetConfig::smoke()
    };
    let run = run_fleet(&cfg, 1997).expect("fleet runs");
    run.report.assert_invariants();
    assert!(run.report.crashes >= 5, "most churn events must fire");
}

#[test]
fn migration_free_run_keeps_objects_home() {
    let cfg = FleetConfig {
        migration_every: 0,
        churn_events: 0,
        ..FleetConfig::smoke()
    };
    let run = run_fleet(&cfg, 42).expect("fleet runs");
    run.report.assert_invariants();
    assert_eq!(run.report.migrations_ok, 0);
    assert_eq!(run.report.migrations_failed, 0);
}

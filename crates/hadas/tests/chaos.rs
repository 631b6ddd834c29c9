//! Seed-swept chaos tests: every scenario must uphold the global
//! invariants under every seed, and the same seed must reproduce the
//! identical run.
//!
//! The sweep width defaults to a fast smoke value; CI raises it via the
//! `MROM_CHAOS_SEEDS` environment variable.

use hadas::chaos::{run_scenario, ChaosScenario};
use mrom_obs::{EventKind, ObsMode};

/// Seeds to sweep: `MROM_CHAOS_SEEDS` (a count) or a fast default.
fn sweep_seeds() -> Vec<u64> {
    let count = std::env::var("MROM_CHAOS_SEEDS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(3);
    (1..=count.max(1)).collect()
}

#[test]
fn every_scenario_upholds_invariants_across_the_seed_sweep() {
    for seed in sweep_seeds() {
        for scenario in ChaosScenario::ALL {
            let report = run_scenario(scenario, seed)
                .unwrap_or_else(|e| panic!("{} seed {seed} errored: {e}", scenario.name()));
            report.assert_invariants();
        }
    }
}

#[test]
fn same_seed_reproduces_the_identical_run() {
    for seed in sweep_seeds() {
        for scenario in ChaosScenario::ALL {
            let first = run_scenario(scenario, seed).unwrap();
            let second = run_scenario(scenario, seed).unwrap();
            // Full-report equality covers NetStats field for field:
            // sends, deliveries, drops, duplicates, bytes, per-link maps.
            assert_eq!(
                first,
                second,
                "{} seed {seed} must replay identically",
                scenario.name()
            );
        }
    }
}

#[test]
fn different_seeds_explore_different_schedules() {
    // Not an invariant, a sanity check on the harness itself: a faulty
    // scenario that ignored its seed would silently shrink the sweep to
    // one schedule.
    let a = run_scenario(ChaosScenario::LossAndRetry, 1).unwrap();
    let b = run_scenario(ChaosScenario::LossAndRetry, 2).unwrap();
    assert_ne!(a.stats, b.stats, "seeds drive the fault schedule");
}

#[test]
fn retries_stay_causally_linked_to_their_operation() {
    // Under lost acknowledgements the dispatch retries several times;
    // every retry event and the eventual adoption must sit on the same
    // trace as the operation span that started the dispatch.
    mrom_obs::reset();
    mrom_obs::set_mode(ObsMode::Ring);
    let report = run_scenario(ChaosScenario::LostAcks, 5).unwrap();
    mrom_obs::set_mode(ObsMode::Disabled);
    report.assert_invariants();

    let events = mrom_obs::ring_snapshot();
    let op = events
        .iter()
        .find(|e| {
            matches!(
                e.kind,
                EventKind::FedOpStart {
                    op: "dispatch_object",
                    ..
                }
            )
        })
        .expect("dispatch opens an operation span");
    let trace = op.event.trace;
    assert_ne!(trace, 0);

    let retries: Vec<_> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::FedRetry { .. }))
        .collect();
    assert!(!retries.is_empty(), "lost acks force retries");
    for retry in &retries {
        assert_eq!(
            retry.event.trace, trace,
            "retries belong to the operation that issued them"
        );
    }
    let adopted = events
        .iter()
        .find(|e| matches!(e.kind, EventKind::ObjectAdopted { .. }))
        .expect("the move landed");
    assert_eq!(adopted.event.trace, trace, "adoption joins the same trace");

    let dedups = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::FedDedup { .. }))
        .count();
    assert!(
        dedups > 0,
        "retransmitted MoveObject hits the receiver dedup cache"
    );
}

#[test]
fn crash_and_restart_are_observable() {
    mrom_obs::reset();
    mrom_obs::set_mode(ObsMode::Ring);
    let report = run_scenario(ChaosScenario::CrashMidMigration, 3).unwrap();
    let metrics = mrom_obs::metrics_snapshot();
    mrom_obs::set_mode(ObsMode::Disabled);
    report.assert_invariants();

    let events = mrom_obs::ring_snapshot();
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::SiteCrash { .. })),
        "crashes are recorded"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::SiteRestart { restored, .. } if restored > 0)),
        "restarts report what the depot brought back"
    );
    assert!(metrics.federation.site_crashes >= 2);
    assert_eq!(
        metrics.federation.site_crashes,
        metrics.federation.site_restarts
    );
}

/// Satellite for the effect system: under [`hadas::RetryPolicy::IdempotentOnly`]
/// a lossy network may re-post an invocation only when the target
/// method's interprocedural effect signature proves it idempotent.
mod idempotent_only_gating {
    use hadas::{Federation, HadasError, RetryPolicy};
    use mrom_core::{ClassSpec, DataItem, Method, MethodBody};
    use mrom_net::{LinkConfig, NetworkConfig, SimTime};
    use mrom_obs::{EventKind, ObsMode};
    use mrom_value::{NodeId, ObjectId, Value};

    fn scripted(src: &str) -> Method {
        Method::public(MethodBody::script(src).unwrap())
    }

    /// One lossy-network run: a mixed bump/reset workload against a
    /// remote counter whose `bump` is provably non-idempotent and whose
    /// `reset` is provably idempotent. Returns every call's outcome
    /// (`Ok` value or timeout attempt count), the counter's final value,
    /// and how many `InvokeReq` retries the federation posted.
    fn run(seed: u64) -> (Vec<Result<Value, u32>>, i64, u64) {
        mrom_obs::reset();
        mrom_obs::set_mode(ObsMode::Ring);
        let cfg = NetworkConfig::new(seed).with_default_link(LinkConfig::lan());
        let mut fed = Federation::new(cfg);
        let (a, b) = (NodeId(1), NodeId(2));
        fed.add_site(a).unwrap();
        fed.add_site(b).unwrap();
        fed.link(a, b).unwrap();
        let obj = ClassSpec::new("counter")
            .fixed_data("n", DataItem::public(Value::Int(0)))
            .fixed_method(
                "bump",
                scripted("self.set(\"n\", self.get(\"n\") + 1); return self.get(\"n\");"),
            )
            .fixed_method("reset", scripted("self.set(\"n\", 0); return null;"))
            .instantiate_as(fed.runtime_mut(b).unwrap().ids_mut().next_id(), None);
        let id = obj.id();
        fed.runtime_mut(b).unwrap().adopt(obj).unwrap();
        fed.set_retry_policy(RetryPolicy::idempotent_only(
            4,
            SimTime::from_millis(20),
            2,
            0,
        ));
        fed.net_config_mut()
            .set_symmetric_link(a, b, LinkConfig::lan().loss_probability(0.4));
        let caller = fed.ioo_id(a).unwrap();
        let mut outcomes = Vec::new();
        for i in 0..10 {
            let method = if i % 2 == 0 { "bump" } else { "reset" };
            outcomes.push(
                fed.remote_invoke(a, b, caller, id, method, &[])
                    .map_err(|e| match e {
                        HadasError::Timeout { attempts, .. } => attempts,
                        other => panic!("only timeouts expected: {other}"),
                    }),
            );
        }
        mrom_obs::set_mode(ObsMode::Disabled);
        let invoke_retries = mrom_obs::ring_snapshot()
            .into_iter()
            .filter(|te| matches!(&te.kind, EventKind::FedRetry { op, .. } if *op == "invoke_req"))
            .count() as u64;
        let n = fed
            .runtime(b)
            .unwrap()
            .object(id)
            .unwrap()
            .read_data(ObjectId::SYSTEM, "n")
            .unwrap()
            .as_int()
            .unwrap();
        (outcomes, n, invoke_retries)
    }

    #[test]
    fn non_idempotent_invokes_are_never_auto_retried() {
        let mut total_retries = 0;
        for seed in super::sweep_seeds() {
            let (outcomes, _, retries) = run(seed);
            total_retries += retries;
            for (i, outcome) in outcomes.iter().enumerate() {
                match (i % 2 == 0, outcome) {
                    // bump: the signature cannot prove idempotence, so a
                    // lost message fails on the single allowed attempt.
                    (true, Err(attempts)) => {
                        assert_eq!(*attempts, 1, "seed {seed} call {i}: bump must not retry");
                    }
                    // reset: provably idempotent — a failure means the
                    // full retry budget was spent first.
                    (false, Err(attempts)) => {
                        assert_eq!(
                            *attempts, 4,
                            "seed {seed} call {i}: reset retries to budget"
                        );
                    }
                    (_, Ok(_)) => {}
                }
            }
        }
        // With 40% loss across the sweep, at least one reset retry must
        // have fired — proving the gate passes idempotent invocations.
        assert!(total_retries > 0, "idempotent invocations do retry");
    }

    #[test]
    fn gated_runs_replay_byte_identically_per_seed() {
        for seed in super::sweep_seeds() {
            assert_eq!(run(seed), run(seed), "seed {seed} must replay identically");
        }
    }
}

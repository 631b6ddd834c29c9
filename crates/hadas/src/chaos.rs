//! Deterministic chaos harness for the fault-tolerant federation.
//!
//! Each [`ChaosScenario`] drives a small federation through a scripted
//! fault schedule — message loss, duplication, reordering, partitions,
//! lost acknowledgements, site crashes — with [`RetryPolicy::standard`]
//! active, then heals the network, settles every in-doubt migration, and
//! drains the wire. The outcome is a [`ChaosReport`] whose
//! [`ChaosReport::violations`] checks the global invariants the retry
//! and recovery machinery must uphold *regardless of seed*:
//!
//! 1. the itinerant object lives at **exactly one** site (no loss, no
//!    duplication by retried migrations);
//! 2. its non-idempotent `bump` method was applied **at least once per
//!    acknowledged call and at most once per attempt** (receiver-side
//!    dedup makes retries exactly-once);
//! 3. no migration is left parked in-doubt after the network heals;
//! 4. the simulator's accounting balances: every send is delivered,
//!    dropped, or still in flight — duplicates included;
//! 5. nothing remains on the wire after the final drain.
//!
//! Everything is driven by the seeded simulator, so the same scenario
//! and seed reproduce the identical [`NetStats`] byte for byte — the
//! property the chaos integration tests sweep across seeds.

use mrom_core::{ClassSpec, DataItem, Method, MethodBody};
use mrom_net::{LinkConfig, NetStats, NetworkConfig};
use mrom_value::{NodeId, ObjectId, Value};

use crate::error::HadasError;
use crate::federation::Federation;
use crate::retry::RetryPolicy;

/// A scripted fault schedule the harness can run under any seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosScenario {
    /// Lossy symmetric link while a burst of non-idempotent invocations
    /// runs; retries must recover most of them without double-applying.
    LossAndRetry,
    /// Every message is duplicated in transit; dedup must keep
    /// invocations exactly-once and migrations single-copy.
    DuplicateDelivery,
    /// Messages overtake each other on the wire; the synchronous engine
    /// must still match every reply to its request.
    Reordering,
    /// The link partitions before a migration; the object parks in-doubt
    /// and is recovered from the depot after the heal.
    PartitionDuringDispatch,
    /// The forward path works but every acknowledgement is lost: the
    /// destination adopts the object, the origin cannot know, and
    /// resolution must discover the move actually landed.
    LostAcks,
    /// The destination site is down while a migration retries, then
    /// crashes again after the object settles; the depot bootstraps it
    /// back both times.
    CrashMidMigration,
    /// Loss, duplication, reordering *and* a mid-run partition at once,
    /// then a full heal-and-resume cycle.
    HealAndResume,
}

impl ChaosScenario {
    /// Every scenario, in a stable order (the sweep matrix).
    pub const ALL: [ChaosScenario; 7] = [
        ChaosScenario::LossAndRetry,
        ChaosScenario::DuplicateDelivery,
        ChaosScenario::Reordering,
        ChaosScenario::PartitionDuringDispatch,
        ChaosScenario::LostAcks,
        ChaosScenario::CrashMidMigration,
        ChaosScenario::HealAndResume,
    ];

    /// A stable display name.
    pub fn name(self) -> &'static str {
        match self {
            ChaosScenario::LossAndRetry => "loss-and-retry",
            ChaosScenario::DuplicateDelivery => "duplicate-delivery",
            ChaosScenario::Reordering => "reordering",
            ChaosScenario::PartitionDuringDispatch => "partition-during-dispatch",
            ChaosScenario::LostAcks => "lost-acks",
            ChaosScenario::CrashMidMigration => "crash-mid-migration",
            ChaosScenario::HealAndResume => "heal-and-resume",
        }
    }
}

/// The outcome of one scenario run: final state plus the raw simulator
/// counters, which double as the determinism witness (same seed → same
/// stats, field for field).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosReport {
    /// Which scenario ran.
    pub scenario: &'static str,
    /// The seed it ran under.
    pub seed: u64,
    /// Simulator counters at the end of the run.
    pub stats: NetStats,
    /// Messages still on the wire after the final drain.
    pub in_flight: usize,
    /// Live copies of the itinerant parcel across all sites.
    pub live_copies: usize,
    /// Migrations still parked in-doubt across all sites.
    pub parked_in_doubt: usize,
    /// `bump` invocations that returned success.
    pub ops_ok: u32,
    /// `bump` invocations that failed (timeout after every retry).
    pub ops_failed: u32,
    /// The parcel's final counter value.
    pub final_count: i64,
    /// Where the parcel ended up (when it is live somewhere).
    pub final_host: Option<NodeId>,
}

impl ChaosReport {
    /// Checks every global invariant, returning a human-readable list of
    /// violations (empty = the run upheld all of them).
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.live_copies != 1 {
            out.push(format!(
                "object must live at exactly one site, found {} copies",
                self.live_copies
            ));
        }
        if self.parked_in_doubt != 0 {
            out.push(format!(
                "{} migration(s) still in doubt after heal",
                self.parked_in_doubt
            ));
        }
        if self.in_flight != 0 {
            out.push(format!(
                "{} message(s) still in flight after drain",
                self.in_flight
            ));
        }
        if !self.stats.accounts_for_every_send(self.in_flight) {
            out.push(format!(
                "stats do not balance: delivered {} + dropped {} + in-flight {} \
                 != sent {} + duplicated {}",
                self.stats.messages_delivered,
                self.stats.messages_dropped,
                self.in_flight,
                self.stats.messages_sent,
                self.stats.messages_duplicated,
            ));
        }
        // Exactly-once window: every acknowledged call applied exactly
        // once; a timed-out call applied at most once (the request may or
        // may not have reached the peer, but dedup forbids twice).
        let min = i64::from(self.ops_ok);
        let max = i64::from(self.ops_ok) + i64::from(self.ops_failed);
        if self.final_count < min || self.final_count > max {
            out.push(format!(
                "counter {} outside exactly-once window [{min}, {max}]",
                self.final_count
            ));
        }
        out
    }

    /// Panics with the full violation list if any invariant failed.
    pub fn assert_invariants(&self) {
        let violations = self.violations();
        assert!(
            violations.is_empty(),
            "chaos invariants violated ({} seed {}):\n  {}",
            self.scenario,
            self.seed,
            violations.join("\n  ")
        );
    }
}

/// The itinerant parcel: a mobile object with one non-idempotent method,
/// so a double-applied invocation is directly visible in its counter.
fn parcel_class() -> ClassSpec {
    ClassSpec::new("chaos-parcel")
        .fixed_data("count", DataItem::public(Value::Int(0)))
        .fixed_method(
            "bump",
            Method::public(
                MethodBody::script(
                    "self.set(\"count\", self.get(\"count\") + 1); return self.get(\"count\");",
                )
                .expect("bump parses"),
            ),
        )
}

/// A clean two-site federation (nodes 1 and 2) with retries on and the
/// parcel integrated at node 1. Setup happens on a fault-free network so
/// every scenario injects its faults from a known-good baseline.
fn fixture(seed: u64) -> Result<(Federation, NodeId, NodeId, ObjectId), HadasError> {
    let cfg = NetworkConfig::new(seed).with_default_link(LinkConfig::lan());
    let mut fed = Federation::new(cfg);
    let a = NodeId(1);
    let b = NodeId(2);
    fed.add_site(a)?;
    fed.add_site(b)?;
    fed.set_retry_policy(RetryPolicy::standard());
    fed.link(a, b)?;
    let parcel = parcel_class().instantiate_as(fed.runtime_mut(a)?.ids_mut().next_id(), None);
    let id = parcel.id();
    fed.runtime_mut(a)?.adopt(parcel)?;
    Ok((fed, a, b, id))
}

/// Counts live copies of `id` across every site.
fn live_copies(fed: &Federation, id: ObjectId) -> usize {
    fed.site_nodes()
        .into_iter()
        .filter(|&n| fed.runtime(n).is_ok_and(|rt| rt.object(id).is_some()))
        .count()
}

/// The node currently hosting `id`, if exactly one does.
fn host_of(fed: &Federation, id: ObjectId) -> Option<NodeId> {
    let hosts: Vec<NodeId> = fed
        .site_nodes()
        .into_iter()
        .filter(|&n| fed.runtime(n).is_ok_and(|rt| rt.object(id).is_some()))
        .collect();
    match hosts.as_slice() {
        [one] => Some(*one),
        _ => None,
    }
}

/// Reads the parcel's counter wherever it lives (0 if it is lost —
/// which the copy invariant reports separately).
fn read_count(fed: &Federation, id: ObjectId) -> i64 {
    host_of(fed, id)
        .and_then(|n| fed.runtime(n).ok())
        .and_then(|rt| rt.object(id))
        .and_then(|obj| obj.read_data(ObjectId::SYSTEM, "count").ok())
        .and_then(|v| v.as_int())
        .unwrap_or(0)
}

/// Invokes `bump` remotely and tallies the outcome.
fn bump(
    fed: &mut Federation,
    from: NodeId,
    to: NodeId,
    id: ObjectId,
    ok: &mut u32,
    failed: &mut u32,
) -> Result<(), HadasError> {
    let caller = fed.ioo_id(from)?;
    match fed.remote_invoke(from, to, caller, id, "bump", &[]) {
        Ok(_) => *ok += 1,
        Err(HadasError::Timeout { .. }) => *failed += 1,
        Err(e) => return Err(e),
    }
    Ok(())
}

/// Runs one scenario under one seed and reports the final state. The
/// run itself never asserts; callers check [`ChaosReport::violations`]
/// so a failing seed reports *what* broke instead of where it panicked.
///
/// # Errors
///
/// Setup failures and non-fault protocol errors (a fault-induced
/// timeout is an expected outcome, not an error).
pub fn run_scenario(scenario: ChaosScenario, seed: u64) -> Result<ChaosReport, HadasError> {
    let (mut fed, a, b, id) = fixture(seed)?;
    let mut ops_ok = 0u32;
    let mut ops_failed = 0u32;

    match scenario {
        ChaosScenario::LossAndRetry => {
            fed.dispatch_object(a, b, id)?;
            let lossy = LinkConfig::lan().loss_probability(0.25);
            fed.net_config_mut().set_symmetric_link(a, b, lossy);
            for _ in 0..8 {
                bump(&mut fed, a, b, id, &mut ops_ok, &mut ops_failed)?;
            }
            fed.net_config_mut()
                .set_symmetric_link(a, b, LinkConfig::lan());
        }
        ChaosScenario::DuplicateDelivery => {
            let doubling = LinkConfig::lan().duplicate_probability(1.0);
            fed.net_config_mut().set_symmetric_link(a, b, doubling);
            // A retried/duplicated MoveObject must not double-adopt.
            if fed.dispatch_object(a, b, id).is_err() {
                ops_failed += 1;
            }
            for _ in 0..6 {
                bump(&mut fed, a, b, id, &mut ops_ok, &mut ops_failed)?;
            }
            fed.net_config_mut()
                .set_symmetric_link(a, b, LinkConfig::lan());
        }
        ChaosScenario::Reordering => {
            let scrambled = LinkConfig::lan().reorder_probability(0.5);
            fed.net_config_mut().set_symmetric_link(a, b, scrambled);
            if fed.dispatch_object(a, b, id).is_err() {
                ops_failed += 1;
            }
            for _ in 0..6 {
                bump(&mut fed, a, b, id, &mut ops_ok, &mut ops_failed)?;
            }
            fed.net_config_mut()
                .set_symmetric_link(a, b, LinkConfig::lan());
        }
        ChaosScenario::PartitionDuringDispatch => {
            fed.net_config_mut().partition(a, b);
            // Every attempt is dropped; the parcel parks in-doubt.
            if fed.dispatch_object(a, b, id).is_err() {
                ops_failed += 1;
            }
            fed.net_config_mut().heal(a, b);
            fed.settle_in_doubt()?;
            // Recovered from the depot at the origin; resume the move.
            fed.dispatch_object(a, b, id)?;
            bump(&mut fed, a, b, id, &mut ops_ok, &mut ops_failed)?;
        }
        ChaosScenario::LostAcks => {
            // Forward path fine, every acknowledgement lost: the move
            // lands but the origin cannot know.
            let black_hole = LinkConfig::lan().loss_probability(1.0);
            fed.net_config_mut().set_link(b, a, black_hole);
            if fed.dispatch_object(a, b, id).is_err() {
                ops_failed += 1;
            }
            fed.net_config_mut().set_link(b, a, LinkConfig::lan());
            // Resolution must discover the destination owns the object.
            fed.settle_in_doubt()?;
            for _ in 0..3 {
                bump(&mut fed, a, b, id, &mut ops_ok, &mut ops_failed)?;
            }
        }
        ChaosScenario::CrashMidMigration => {
            fed.crash_site(b)?;
            if fed.dispatch_object(a, b, id).is_err() {
                ops_failed += 1;
            }
            fed.restart_site(b)?;
            fed.settle_in_doubt()?;
            fed.dispatch_object(a, b, id)?;
            bump(&mut fed, a, b, id, &mut ops_ok, &mut ops_failed)?;
            // Persist the parcel's *current* state, then crash the host:
            // restart must bootstrap it back, counter intact.
            fed.checkpoint_site(b)?;
            fed.crash_site(b)?;
            fed.restart_site(b)?;
        }
        ChaosScenario::HealAndResume => {
            let storm = LinkConfig::lan()
                .loss_probability(0.2)
                .duplicate_probability(0.2)
                .reorder_probability(0.2);
            fed.net_config_mut().set_symmetric_link(a, b, storm);
            if fed.dispatch_object(a, b, id).is_err() {
                ops_failed += 1;
            }
            for _ in 0..4 {
                bump(&mut fed, a, b, id, &mut ops_ok, &mut ops_failed)?;
            }
            fed.net_config_mut().partition(a, b);
            // The parcel may be at either side when the partition hits;
            // try to move it from wherever it lives.
            if let Some(host) = host_of(&fed, id) {
                let other = if host == a { b } else { a };
                if fed.dispatch_object(host, other, id).is_err() {
                    ops_failed += 1;
                }
            }
            fed.net_config_mut().heal(a, b);
            fed.net_config_mut()
                .set_symmetric_link(a, b, LinkConfig::lan());
            fed.settle_in_doubt()?;
            for _ in 0..2 {
                if let Some(host) = host_of(&fed, id) {
                    let from = if host == a { b } else { a };
                    bump(&mut fed, from, host, id, &mut ops_ok, &mut ops_failed)?;
                }
            }
        }
    }

    // Final drain: nothing may stay on the wire, nothing in doubt.
    fed.pump_all();
    fed.settle_in_doubt()?;
    fed.pump_all();

    Ok(ChaosReport {
        scenario: scenario.name(),
        seed,
        stats: fed.net_stats().clone(),
        in_flight: fed.in_flight(),
        live_copies: live_copies(&fed, id),
        parked_in_doubt: fed.in_doubt_total(),
        ops_ok,
        ops_failed,
        final_count: read_count(&fed, id),
        final_host: host_of(&fed, id),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scenario_upholds_invariants_on_a_smoke_seed() {
        for scenario in ChaosScenario::ALL {
            let report = run_scenario(scenario, 42).expect("scenario runs");
            report.assert_invariants();
        }
    }

    #[test]
    fn same_seed_reproduces_identical_stats() {
        for scenario in [ChaosScenario::LossAndRetry, ChaosScenario::HealAndResume] {
            let first = run_scenario(scenario, 7).unwrap();
            let second = run_scenario(scenario, 7).unwrap();
            assert_eq!(first, second, "{} must be deterministic", scenario.name());
        }
    }

    #[test]
    fn scenario_names_are_stable_and_unique() {
        let names: std::collections::BTreeSet<&str> =
            ChaosScenario::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), ChaosScenario::ALL.len());
    }
}

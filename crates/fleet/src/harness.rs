//! The fleet harness: builds a federation over a parameterized topology,
//! drives a seeded Zipf workload with churn, link faults and migration
//! traffic through it, heals and drains everything, and distills the run
//! into a [`FleetReport`].
//!
//! It is the one scenario engine: the same run checks many objects on a
//! thousand sites under churn and a few objects on two sites under
//! adversarial links ([`crate::chaos_presets`]), and every run ends with
//! the same invariants, [`FleetReport::violations`] — single host per
//! object, exactly-once counter windows, clean recovery, balanced
//! accounting, and windowed-telemetry accounting across per-site slices.
//!
//! Everything is a pure function of `(config, seed)`: the simulator, the
//! Zipf stream, the fault schedule, and the report are all seeded, so a
//! run is reproducible byte for byte.

use std::collections::{BTreeMap, BTreeSet};

use hadas::{
    Advisor, AdvisorDecision, AdvisorInput, AmbassadorSpec, Candidate, Federation, HadasError,
    RetryPolicy,
};
use mrom_core::{AdmissionPolicy, ClassSpec, DataItem, Method, MethodBody};
use mrom_net::{LinkConfig, NetworkConfig, Topology, TopologyEdge};
use mrom_obs::{ObsMode, TelemetrySnapshot, WindowConfig};
use mrom_value::{NodeId, ObjectId, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{AdvisorReport, FleetReport, LatencyReport};
use crate::workload::{Fault, FleetConfig, Zipf};

/// One epoch wide enough to hold any simulated run, so the whole run
/// lands in a single telemetry window.
const RUN_EPOCH_US: u64 = 1 << 40;

/// Name every site's status APO registers under when the advisor is on;
/// ambassador-refresh decisions re-import it across degraded links.
const FLEET_STATUS_APO: &str = "fleet-status";

/// Seed salt for the caller-affinity home assignment (its own stream, so
/// affinity draws never perturb the workload or churn streams).
const AFFINITY_SALT: u64 = 0xC3A5_5A3C_6996_0B5F;

/// A completed run: the invariant report plus the global telemetry
/// snapshot taken at the end (both deterministic per seed).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRun {
    /// Counters and invariants.
    pub report: FleetReport,
    /// The recorder's windowed view of the whole run.
    pub telemetry: TelemetrySnapshot,
}

/// The fleet cell: one non-idempotent method (`bump`, so double-applied
/// retries are visible in state) and one read-only method (`peek`).
/// Compiled once; every instance shares the compiled program.
fn fleet_cell_class() -> ClassSpec {
    ClassSpec::new("fleet-cell")
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
        .fixed_method(
            "peek",
            Method::public(MethodBody::script("return self.get(\"count\");").expect("peek parses")),
        )
}

/// Wire-encoded migration image size of a fresh fleet cell — the
/// bytes-per-object figure the capacity bench reports.
///
/// # Panics
///
/// Never in practice: the cell is script-only and always imageable.
#[must_use]
pub fn cell_image_bytes() -> usize {
    let cell = fleet_cell_class().instantiate_as(ObjectId::from_parts(NodeId(1), 1, 1), None);
    cell.image_bytes()
        .expect("script-only cell is imageable")
        .len()
}

/// Runs one fleet scenario under one seed and reports the final state.
/// The run itself never asserts; callers check
/// [`FleetReport::violations`] so a failing seed reports *what* broke.
///
/// Windowed telemetry is recorded for the duration (previous recorder
/// state is reset and recording is switched off again afterwards).
///
/// # Errors
///
/// Setup failures and non-fault protocol errors; fault-induced timeouts
/// are expected outcomes and are tallied, not returned.
pub fn run_fleet(cfg: &FleetConfig, seed: u64) -> Result<FleetRun, HadasError> {
    let prev_mode = mrom_obs::mode();
    mrom_obs::reset();
    // Caller tracking is gated on the advisor so advisor-off telemetry
    // stays byte-identical to pre-advisor builds.
    let mut window = WindowConfig::new(RUN_EPOCH_US, 2);
    if cfg.advisor.enabled {
        window = window.with_callers();
    }
    mrom_obs::set_window(Some(window));
    mrom_obs::set_mode(ObsMode::Ring);
    let result = run_inner(cfg, seed);
    mrom_obs::reset();
    mrom_obs::set_window(None);
    mrom_obs::set_mode(prev_mode);
    result
}

/// Per-site status APO registered when the advisor is on: one public
/// datum naming its origin and a pure reader, enough for ambassador
/// refresh traffic to be real protocol work.
fn fleet_status_class(origin: NodeId) -> ClassSpec {
    ClassSpec::new("fleet-status")
        .fixed_data(
            "origin",
            DataItem::public(Value::Int(i64::try_from(origin.0).unwrap_or(i64::MAX))),
        )
        .fixed_method(
            "status",
            Method::public(
                MethodBody::script("return self.get(\"origin\");").expect("status parses"),
            ),
        )
}

/// Exact percentile over a sorted latency slice (nearest-rank on the
/// zero-based index, so the figure is integer-deterministic).
fn percentile_us(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(sorted.len() - 1) * p / 100]
}

/// p50/p95 over one quarter of the latency trace.
fn quarter_stats(quarter: &[u64]) -> (u64, u64) {
    let mut sorted = quarter.to_vec();
    sorted.sort_unstable();
    (percentile_us(&sorted, 50), percentile_us(&sorted, 95))
}

#[allow(clippy::too_many_lines)]
fn run_inner(cfg: &FleetConfig, seed: u64) -> Result<FleetRun, HadasError> {
    let n = cfg.sites;
    let sites = Topology::sites(n);
    let edges = cfg.topology.edges(n);
    let affinity = cfg.caller_affinity_permille > 0;

    // -- federation over the topology ------------------------------------
    // In caller-affinity mode the default (non-edge) route is WAN-priced:
    // pre-convergence remote traffic is visibly expensive, while topology
    // edges keep their tier links. No jitter or loss — fault-free runs
    // stay RNG-free either way.
    let default_link = if affinity {
        LinkConfig::new()
            .latency_us(80_000)
            .bandwidth_bytes_per_sec(64_000)
    } else {
        mrom_net::LinkTier::Local.link()
    };
    let net_cfg = NetworkConfig::new(seed).with_default_link(default_link);
    let mut fed = Federation::new(net_cfg);
    for &s in &sites {
        fed.add_site(s)?;
    }
    fed.set_retry_policy(RetryPolicy::standard());
    let mut adj: BTreeMap<NodeId, Vec<NodeId>> = sites.iter().map(|&s| (s, Vec::new())).collect();
    for &TopologyEdge { a, b, tier } in &edges {
        fed.net_config_mut().set_symmetric_link(a, b, tier.link());
        fed.link(a, b)?;
        adj.get_mut(&a).expect("site known").push(b);
        adj.get_mut(&b).expect("site known").push(a);
    }
    for neighbors in adj.values_mut() {
        neighbors.sort_unstable();
        neighbors.dedup();
    }
    let mut ioo_ids: BTreeMap<NodeId, ObjectId> = BTreeMap::new();
    for &s in &sites {
        ioo_ids.insert(s, fed.ioo_id(s)?);
    }
    if cfg.advisor.enabled {
        // Every site exports a status APO so ambassador-refresh
        // decisions have something real to (re)deploy.
        for &s in &sites {
            let apo = {
                let rt = fed.runtime_mut(s)?;
                fleet_status_class(s).instantiate_as(rt.ids_mut().next_id(), None)
            };
            let spec = AmbassadorSpec::relay_only()
                .with_methods(["status"])
                .with_data(["origin"]);
            fed.integrate_apo(s, FLEET_STATUS_APO, apo, spec)?;
        }
    }

    // -- the object population (interleaved placement) -------------------
    let class = fleet_cell_class();
    let total = cfg.total_objects();
    let mut objects: Vec<ObjectId> = Vec::with_capacity(total);
    let mut hosts: Vec<NodeId> = Vec::with_capacity(total);
    for k in 0..total {
        let site = sites[k % n];
        let rt = fed.runtime_mut(site)?;
        let cell = class.instantiate_as(rt.ids_mut().next_id(), None);
        let id = cell.id();
        rt.adopt(cell)?;
        objects.push(id);
        hosts.push(site);
    }

    // -- caller-affinity homes (own RNG stream) --------------------------
    // Each object gets a seeded home caller plus a distinct alternate
    // (used only by the ping-pong flip). Residual non-affine draws come
    // from the home's topology neighbors, so a converged placement
    // serves them over cheap tier links rather than the WAN default.
    let mut home: Vec<NodeId> = Vec::new();
    let mut alt: Vec<NodeId> = Vec::new();
    if affinity {
        let mut aff_rng = StdRng::seed_from_u64(seed ^ AFFINITY_SALT);
        for _ in 0..total {
            let h = aff_rng.random_range(0..n);
            let mut a = aff_rng.random_range(0..n);
            if a == h {
                a = (a + 1) % n;
            }
            home.push(sites[h]);
            alt.push(sites[a]);
        }
    }

    // -- fault schedule: churn (own RNG stream; core sites are spared) ----
    // merged with the configured steps.
    let core: BTreeSet<NodeId> = cfg.topology.core_sites(n).into_iter().collect();
    let pool: Vec<NodeId> = sites
        .iter()
        .copied()
        .filter(|s| !core.contains(s))
        .collect();
    let mut churn_rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut schedule: Vec<(usize, Fault)> = Vec::new();
    if cfg.churn_events > 0 && !pool.is_empty() {
        let stride = cfg.invocations / (cfg.churn_events + 1);
        if stride > 0 {
            for i in 0..cfg.churn_events {
                let victim = pool[churn_rng.random_range(0..pool.len())];
                let crash_at = (i + 1) * stride;
                let restart_at = crash_at + (stride / 2).max(1);
                schedule.push((crash_at, Fault::Crash(victim)));
                if restart_at < cfg.invocations {
                    schedule.push((restart_at, Fault::Restart(victim)));
                }
            }
        }
    }
    schedule.extend_from_slice(cfg.faults);
    schedule.sort_by_key(|&(at, _)| at);

    // -- the seeded Zipf workload ----------------------------------------
    let zipf = Zipf::new(total, cfg.zipf_permille);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ok_per = vec![0u32; total];
    let mut failed_per = vec![0u32; total];
    let mut touched: BTreeSet<usize> = BTreeSet::new();
    let mut down: BTreeSet<NodeId> = BTreeSet::new();
    // Objects whose move this run parked in-doubt: `hosts` is stale for
    // them until a heal settles the move and re-reads their host.
    let mut parked: BTreeSet<usize> = BTreeSet::new();
    let mut report = FleetReport {
        topology: cfg.topology.name(),
        seed,
        sites: n as u64,
        objects: total as u64,
        invocations: cfg.invocations as u64,
        ops_ok: 0,
        ops_failed: 0,
        ops_rejected: 0,
        peeks_ok: 0,
        peeks_failed: 0,
        peeks_rejected: 0,
        migrations_ok: 0,
        migrations_failed: 0,
        migrations_skipped: 0,
        crashes: 0,
        restarts: 0,
        distinct_targets: 0,
        counter_total: 0,
        lost_objects: 0,
        duplicated_objects: 0,
        window_violations: 0,
        parked_in_doubt: 0,
        in_flight: 0,
        stats: mrom_net::NetStats::default(),
        telemetry_invocations: 0,
        telemetry_fold_matches: true,
        advisor: None,
        latency: None,
    };

    // -- advisor state ----------------------------------------------------
    let mut advisor = Advisor::new(cfg.advisor);
    let mut advisor_report = AdvisorReport::default();
    let mut next_epoch_at = cfg.advisor.epoch_us.max(1);
    let mut shed_active = false;
    let mut latencies: Vec<u64> = Vec::new();

    let mut next_event = 0usize;
    for op in 0..cfg.invocations {
        while next_event < schedule.len() && schedule[next_event].0 <= op {
            let step = schedule[next_event].1;
            apply_fault(&mut fed, step, &edges, &mut down, &mut report)?;
            if step == Fault::Heal {
                settle_parked(&mut fed, &sites, &objects, &mut hosts, &mut parked)?;
            }
            next_event += 1;
        }

        let k = zipf.sample(&mut rng);
        let target = objects[k];
        let host = hosts[k];
        touched.insert(k);
        let (caller, bumping) = if affinity {
            // The op originates at the object's (possibly flipped) home
            // caller, or at one of the home's neighbors for the
            // residual non-affine share.
            let base = if cfg.affinity_flip_every > 0 && (op / cfg.affinity_flip_every) % 2 == 1 {
                alt[k]
            } else {
                home[k]
            };
            let from_home = rng.random_range(0..1000u64) < cfg.caller_affinity_permille;
            let bumping = rng.random_bool(0.75);
            let caller = if from_home {
                base
            } else {
                let nbrs = &adj[&base];
                if nbrs.is_empty() {
                    base
                } else {
                    nbrs[rng.random_range(0..nbrs.len())]
                }
            };
            (caller, bumping)
        } else {
            // Classic workload: caller is the host itself or one of the
            // host's neighbors — exactly the pre-advisor draw sequence.
            let neighbors = &adj[&host];
            let pick = rng.random_range(0..=neighbors.len());
            let bumping = rng.random_bool(0.75);
            let caller = if pick == 0 { host } else { neighbors[pick - 1] };
            (caller, bumping)
        };
        let method = if bumping { "bump" } else { "peek" };
        let issued_at = fed.now().as_micros();
        let outcome = if caller == host {
            // Caller and object share a site: straight runtime invoke.
            fed.runtime_mut(host)?
                .invoke(ioo_ids[&host], target, method, &[])
                .map_err(HadasError::Model)
        } else {
            fed.remote_invoke(caller, host, ioo_ids[&caller], target, method, &[])
        };
        if affinity {
            // Virtual-time cost of the op: 0 when served locally, the
            // round-trip (plus retries) when served remotely.
            latencies.push(fed.now().as_micros().saturating_sub(issued_at));
        }
        match (outcome, bumping) {
            (Ok(_), true) => {
                report.ops_ok += 1;
                ok_per[k] += 1;
            }
            (Ok(_), false) => report.peeks_ok += 1,
            // Ambiguous: the request may have been applied before the
            // reply was lost — widens the per-object window.
            (Err(HadasError::Timeout { .. }), true) => {
                report.ops_failed += 1;
                failed_per[k] += 1;
            }
            (Err(HadasError::Timeout { .. }), false) => report.peeks_failed += 1,
            // Definite refusal (e.g. the host crashed and evicted the
            // cell): provably never applied.
            (Err(_), true) => report.ops_rejected += 1,
            (Err(_), false) => report.peeks_rejected += 1,
        }

        if cfg.migration_every != 0 && (op + 1) % cfg.migration_every == 0 {
            let m = zipf.sample(&mut rng);
            let from = hosts[m];
            let targets = &adj[&from];
            if !targets.is_empty() {
                let to = targets[rng.random_range(0..targets.len())];
                match fed.dispatch_object(from, to, objects[m]) {
                    Ok(()) => {
                        report.migrations_ok += 1;
                        hosts[m] = to;
                    }
                    // Parked in-doubt; the next heal or the drain
                    // settles ownership.
                    Err(HadasError::Timeout { .. }) => {
                        report.migrations_failed += 1;
                        parked.insert(m);
                    }
                    Err(_) => report.migrations_skipped += 1,
                }
            }
        }

        if cfg.advisor.enabled && fed.now().as_micros() >= next_epoch_at {
            parked.extend(advisor_pass(
                &mut fed,
                &mut advisor,
                &mut advisor_report,
                &mut shed_active,
                &objects,
                &mut hosts,
                &down,
            )?);
            next_epoch_at = fed.now().as_micros() + cfg.advisor.epoch_us.max(1);
        }
    }
    report.distinct_targets = touched.len() as u64;

    // -- heal, drain, settle ----------------------------------------------
    apply_fault(&mut fed, Fault::Heal, &edges, &mut down, &mut report)?;
    for v in std::mem::take(&mut down) {
        fed.restart_site(v)?;
        report.restarts += 1;
    }
    fed.pump_all();
    fed.settle_in_doubt()?;
    fed.pump_all();

    // -- final state scan --------------------------------------------------
    let member: BTreeMap<ObjectId, usize> =
        objects.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let mut copies = vec![0u32; total];
    let mut final_host: Vec<Option<NodeId>> = vec![None; total];
    for &node in &sites {
        for id in fed.runtime(node)?.object_ids() {
            if let Some(&i) = member.get(&id) {
                copies[i] += 1;
                final_host[i] = Some(node);
            }
        }
    }
    for i in 0..total {
        match copies[i] {
            0 => report.lost_objects += 1,
            1 => {
                let host = final_host[i].expect("counted a copy");
                let count = fed
                    .runtime(host)?
                    .object(objects[i])
                    .and_then(|obj| obj.read_data(ObjectId::SYSTEM, "count").ok())
                    .and_then(|v| v.as_int())
                    .unwrap_or(0);
                report.counter_total += count;
                let min = i64::from(ok_per[i]);
                let max = min + i64::from(failed_per[i]);
                if count < min || count > max {
                    report.window_violations += 1;
                }
            }
            _ => report.duplicated_objects += 1,
        }
    }
    report.parked_in_doubt = fed.in_doubt_total() as u64;
    report.in_flight = fed.in_flight() as u64;
    report.stats = fed.net_stats().clone();
    if cfg.advisor.enabled {
        report.advisor = Some(advisor_report);
    }
    if affinity && !latencies.is_empty() {
        let q = (latencies.len() / 4).max(1).min(latencies.len());
        let (early_p50, early_p95) = quarter_stats(&latencies[..q]);
        let (late_p50, late_p95) = quarter_stats(&latencies[latencies.len() - q..]);
        report.latency = Some(LatencyReport {
            ops_measured: latencies.len() as u64,
            early_p50_us: early_p50,
            early_p95_us: early_p95,
            late_p50_us: late_p50,
            late_p95_us: late_p95,
        });
    }

    // -- telemetry accounting ----------------------------------------------
    let telemetry = fed.telemetry();
    report.telemetry_invocations = objects
        .iter()
        .filter_map(|id| telemetry.objects.get(id))
        .map(|profile| profile.invocations)
        .sum();
    // Slice the one global snapshot by hosting site and fold the slices
    // back: each profile must come back once, from the site hosting it.
    let mut folded = TelemetrySnapshot::default();
    for &node in &sites {
        let mut slice = TelemetrySnapshot::default();
        for id in fed.runtime(node)?.object_ids() {
            if let Some(profile) = telemetry.objects.get(&id) {
                slice.objects.insert(id, profile.clone());
            }
        }
        folded.absorb(&slice);
    }
    report.telemetry_fold_matches = folded.objects == telemetry.objects;

    Ok(FleetRun { report, telemetry })
}

/// Executes one scheduled fault step.
fn apply_fault(
    fed: &mut Federation,
    step: Fault,
    edges: &[TopologyEdge],
    down: &mut BTreeSet<NodeId>,
    report: &mut FleetReport,
) -> Result<(), HadasError> {
    match step {
        Fault::Crash(v) if !down.contains(&v) => {
            // Checkpoint at the crash instant so the restart restores
            // exactly the pre-crash state — state loss would invalidate
            // the exactly-once windows.
            fed.checkpoint_site(v)?;
            fed.crash_site(v)?;
            down.insert(v);
            report.crashes += 1;
        }
        Fault::Restart(v) if down.contains(&v) => {
            fed.restart_site(v)?;
            down.remove(&v);
            report.restarts += 1;
        }
        Fault::Crash(_) | Fault::Restart(_) => {}
        Fault::Weather {
            loss_permille,
            duplicate_permille,
            reorder_permille,
        } => {
            let p = |permille: u16| f64::from(permille) / 1000.0;
            for e in edges {
                let link = e
                    .tier
                    .link()
                    .loss_probability(p(loss_permille))
                    .duplicate_probability(p(duplicate_permille))
                    .reorder_probability(p(reorder_permille));
                fed.net_config_mut().set_symmetric_link(e.a, e.b, link);
            }
        }
        Fault::AckLoss => {
            for e in edges {
                let (low, high) = (e.a.min(e.b), e.a.max(e.b));
                let black_hole = e.tier.link().loss_probability(1.0);
                fed.net_config_mut().set_link(high, low, black_hole);
            }
        }
        Fault::Partition => {
            for e in edges {
                fed.net_config_mut().partition(e.a, e.b);
            }
        }
        Fault::Heal => {
            for e in edges {
                let net = fed.net_config_mut();
                net.set_symmetric_link(e.a, e.b, e.tier.link());
                net.heal(e.a, e.b);
            }
        }
    }
    Ok(())
}

/// Settles every in-doubt move, then re-reads the host of each object
/// whose move the run parked. Only a settled object is re-homed: while
/// its move is parked it may already be hosted at the destination, and a
/// move on from there would let the origin's resolution, which finds it
/// gone from the destination, re-adopt the parked image as a second
/// copy. An object still parked, or settled onto a site that is down,
/// keeps its stale host until a later heal.
fn settle_parked(
    fed: &mut Federation,
    sites: &[NodeId],
    objects: &[ObjectId],
    hosts: &mut [NodeId],
    parked: &mut BTreeSet<usize>,
) -> Result<(), HadasError> {
    fed.settle_in_doubt()?;
    let mut unsettled = BTreeSet::new();
    for &node in sites {
        unsettled.extend(fed.in_doubt(node)?.into_iter().map(|(object, _)| object));
    }
    parked.retain(|&m| {
        if unsettled.contains(&objects[m]) {
            return true;
        }
        let host = sites.iter().copied().find(|&node| {
            fed.runtime(node)
                .is_ok_and(|rt| rt.object(objects[m]).is_some())
        });
        match host {
            Some(node) => {
                hosts[m] = node;
                false
            }
            None => true,
        }
    });
    Ok(())
}

/// One advisory epoch: global telemetry snapshot → effect-system
/// candidate table → pure [`Advisor::decide`] → execute each decision
/// through the ordinary federation machinery → commit the evidence
/// ledgers. The pass itself consumes no RNG: every decision is a pure
/// function of the snapshot, the config, and the accumulated state.
/// Returns the objects whose move it parked in-doubt.
#[allow(clippy::too_many_lines)]
fn advisor_pass(
    fed: &mut Federation,
    advisor: &mut Advisor,
    advisor_report: &mut AdvisorReport,
    shed_active: &mut bool,
    objects: &[ObjectId],
    hosts: &mut [NodeId],
    down: &BTreeSet<NodeId>,
) -> Result<Vec<usize>, HadasError> {
    let snap = fed.telemetry();
    let stats = fed.net_stats().clone();
    let mut candidates = BTreeMap::new();
    for (i, &id) in objects.iter().enumerate() {
        let host = hosts[i];
        if down.contains(&host) {
            continue;
        }
        let Ok(rt) = fed.runtime_mut(host) else {
            continue;
        };
        // Checked-out or evicted objects are simply not advisable.
        let Some(obj) = rt.object_mut(id) else {
            continue;
        };
        let effects = obj.effects();
        let migration_safe = !effects.is_empty() && effects.values().all(|sig| sig.migration_safe);
        let idempotent = effects.values().filter(|sig| sig.idempotent).count() as u64;
        let idempotent_permille = if effects.is_empty() {
            0
        } else {
            idempotent * 1000 / effects.len() as u64
        };
        candidates.insert(
            id,
            Candidate {
                host,
                migration_safe,
                idempotent_permille,
                busy: false,
            },
        );
    }
    let input = AdvisorInput {
        epoch: advisor_report.epochs,
        telemetry: &snap,
        stats: &stats,
        candidates,
    };
    let pass = advisor.decide(&input);

    let member: BTreeMap<ObjectId, usize> =
        objects.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let mut shed_this_pass = false;
    let mut parked = Vec::new();
    for decision in &pass.decisions {
        match *decision {
            AdvisorDecision::Migrate { object, from, to } => {
                let Some(&i) = member.get(&object) else {
                    continue;
                };
                if hosts[i] != from || from == to || down.contains(&from) || down.contains(&to) {
                    advisor_report.migrations_skipped += 1;
                    continue;
                }
                // Link on demand: the advisor targets arbitrary pairs,
                // dispatch requires an agreement.
                if !fed.is_linked(from, to) && fed.link(from, to).is_err() {
                    advisor_report.migrations_skipped += 1;
                    continue;
                }
                match fed.dispatch_object(from, to, object) {
                    Ok(()) => {
                        advisor_report.migrations_ok += 1;
                        hosts[i] = to;
                    }
                    // Parked in-doubt; the next heal or the drain
                    // settles it.
                    Err(HadasError::Timeout { .. }) => {
                        advisor_report.migrations_failed += 1;
                        parked.push(i);
                    }
                    Err(_) => advisor_report.migrations_skipped += 1,
                }
            }
            AdvisorDecision::RefreshAmbassador { origin, host } => {
                if origin == host || down.contains(&origin) || down.contains(&host) {
                    continue;
                }
                if !fed.is_linked(host, origin) && fed.link(host, origin).is_err() {
                    continue;
                }
                if fed.import_apo(host, origin, FLEET_STATUS_APO).is_ok() {
                    advisor_report.ambassadors_refreshed += 1;
                }
            }
            AdvisorDecision::Shed { site: _ } => {
                // Admission is federation-wide: tightening to Strict
                // makes every admission pay analysis and refuse
                // error-severity images until the pressure clears.
                fed.set_admission_policy(AdmissionPolicy::Strict);
                *shed_active = true;
                shed_this_pass = true;
                advisor_report.sheds += 1;
            }
        }
    }
    if *shed_active && !shed_this_pass {
        fed.set_admission_policy(AdmissionPolicy::Off);
        *shed_active = false;
    }
    advisor_report.thrash_aborts += pass.thrash_aborts;
    advisor_report.epochs += 1;
    advisor.commit(&input, &pass);
    Ok(parked)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_upholds_every_invariant() {
        let run = run_fleet(&FleetConfig::smoke(), 42).expect("smoke runs");
        run.report.assert_invariants();
        assert!(run.report.ops_ok > 0, "some bumps must land");
        assert!(run.report.migrations_ok > 0, "some migrations must land");
        assert_eq!(run.report.crashes, 2);
        assert!(run.report.distinct_targets > 1);
    }

    #[test]
    fn zipf_concentrates_traffic_on_hot_cells() {
        let run = run_fleet(&FleetConfig::smoke(), 7).expect("smoke runs");
        // 400 draws over 200 cells at s=1.1 must leave cold cells.
        assert!(run.report.distinct_targets < run.report.objects);
    }

    #[test]
    fn cell_image_is_small_and_stable() {
        let bytes = cell_image_bytes();
        assert!(bytes > 0);
        assert_eq!(bytes, cell_image_bytes());
    }
}

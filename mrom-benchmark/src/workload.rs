//! The four workloads: federation set-up, the closed-loop op generator,
//! the advisory-epoch loop, and the end-of-run correctness checks.
//!
//! The benchmark owns every input: topology edge lists, link profiles,
//! retry and advisor settings, object classes, placement, payloads and the
//! op stream all come from this file and [`crate::rng`]. The program only
//! ever sees the generated operations, issued one at a time through the
//! public `hadas::Federation` API (one client, one thread).

use std::collections::HashMap;
use std::time::Instant;

use hadas::{
    Advisor, AdvisorConfig, AdvisorDecision, AdvisorInput, Candidate, Federation, HadasError,
    RetryPolicy,
};
use mrom_core::{AdmissionPolicy, ClassSpec, DataItem, Method, MethodBody, MromError};
use mrom_net::{LinkConfig, NetworkConfig, SimTime};
use mrom_obs::{ObsMode, WindowConfig};
use mrom_value::{NodeId, ObjectId, Value};

use crate::rng::{SplitMix64, Zipf};

/// Seed salts: each kind of draw has its own stream.
const SALT_PLACEMENT: u64 = 1;
const SALT_TRAFFIC: u64 = 2;
const SALT_CHURN: u64 = 3;
const SALT_PAYLOAD: u64 = 4;
const SALT_HOMES: u64 = 5;
const SALT_NET: u64 = 6;

/// One telemetry epoch wide enough to hold any run, so the Advisor sees
/// the whole run's evidence in one window.
const RUN_EPOCH_US: u64 = 1 << 40;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Level-0 and one-hop remote invocation at steady state over 51,200
    /// objects on 512 sites.
    InvokeZipf,
    /// Whole-object migration of payloads from 64 B to 64 KiB under
    /// Strict admission.
    MigrateSized,
    /// The invoke mix plus migrations under loss, duplication, retries
    /// and crash/restart churn.
    ChurnLossy,
    /// Caller-affine traffic with telemetry and the self-tuning Advisor
    /// on the hot path.
    AdvisorAffinity,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::InvokeZipf,
        Workload::MigrateSized,
        Workload::ChurnLossy,
        Workload::AdvisorAffinity,
    ];

    /// The command-line and report name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::InvokeZipf => "invoke_zipf",
            Workload::MigrateSized => "migrate_sized",
            Workload::ChurnLossy => "churn_lossy",
            Workload::AdvisorAffinity => "advisor_affinity",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's shape at full size or at smoke size (about 1/500
    /// of the ops, for tests).
    pub fn sizes(self, smoke: bool) -> Sizes {
        let full = match self {
            Workload::InvokeZipf => Sizes {
                sites: 512,
                cluster: 16,
                cells: 100,
                exact_ops: 400_000,
                migrate_every: 1024,
                churn_every: 0,
                episode_ops: 0,
            },
            Workload::MigrateSized => Sizes {
                sites: 16,
                cluster: 0,
                cells: 64,
                exact_ops: 12_000,
                migrate_every: 1,
                churn_every: 0,
                episode_ops: 0,
            },
            Workload::ChurnLossy => Sizes {
                sites: 32,
                cluster: 8,
                cells: 64,
                exact_ops: 150_000,
                migrate_every: 16,
                churn_every: 2000,
                episode_ops: 0,
            },
            Workload::AdvisorAffinity => Sizes {
                sites: 48,
                cluster: 4,
                cells: 10,
                exact_ops: 24_000,
                migrate_every: 0,
                churn_every: 0,
                episode_ops: 24_000,
            },
        };
        if !smoke {
            return full;
        }
        let shrink = |n: u64| (n / 200).max(200);
        Sizes {
            sites: (full.sites / 8).max(8),
            cells: (full.cells / 8).max(4),
            exact_ops: shrink(full.exact_ops),
            churn_every: full.churn_every / 10,
            episode_ops: if full.episode_ops > 0 {
                shrink(full.episode_ops)
            } else {
                0
            },
            migrate_every: full.migrate_every.min(64),
            ..full
        }
    }

    /// Whether every measured segment runs one fresh federation through
    /// the same seeded episode (the workload's behaviour drifts within a
    /// run by design, so repeating it keeps segments comparable).
    pub fn episodic(self) -> bool {
        matches!(self, Workload::AdvisorAffinity)
    }

    /// The admission policy the federation runs under.
    pub fn admission(self) -> AdmissionPolicy {
        match self {
            Workload::MigrateSized => AdmissionPolicy::Strict,
            _ => AdmissionPolicy::Off,
        }
    }

    fn retry(self) -> RetryPolicy {
        match self {
            // 5 attempts, 50 ms base, doubling, up to 10 ms jitter.
            Workload::ChurnLossy | Workload::AdvisorAffinity => {
                RetryPolicy::backoff(5, SimTime::from_millis(50), 2, 10_000)
            }
            _ => RetryPolicy::Off,
        }
    }

    /// Whether the run records telemetry (the Advisor reads it).
    pub fn telemetry_on(self) -> bool {
        matches!(self, Workload::AdvisorAffinity)
    }
}

/// Shape parameters of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Sites in the federation.
    pub sites: usize,
    /// Hierarchical cluster size (0 = the `mesh:3` ring with chords).
    pub cluster: usize,
    /// Objects per site.
    pub cells: usize,
    /// Ops in the exact window: the op-stream prefix over which the
    /// virtual-time and byte metrics and the behaviour hash are taken.
    pub exact_ops: u64,
    /// Ticks between migrations (round trips for the invoke mixes).
    pub migrate_every: u64,
    /// Ticks per crash/restart cycle (0 = no churn).
    pub churn_every: u64,
    /// Ops per episode for episodic workloads.
    pub episode_ops: u64,
}

// -- links and topology -------------------------------------------------------

fn lan() -> LinkConfig {
    LinkConfig::new()
        .latency_us(2_000)
        .bandwidth_bytes_per_sec(1_000_000)
        .jitter_us(200)
}

fn backbone() -> LinkConfig {
    LinkConfig::new()
        .latency_us(20_000)
        .bandwidth_bytes_per_sec(1_000_000)
        .jitter_us(2_000)
}

fn wan() -> LinkConfig {
    LinkConfig::new()
        .latency_us(80_000)
        .bandwidth_bytes_per_sec(64_000)
        .jitter_us(10_000)
}

/// Undirected edges `(a, b, link)` over site indices `0..n`, plus which
/// sites are structural (never crashed).
fn topology(sizes: &Sizes) -> (Vec<(usize, usize, LinkConfig)>, Vec<bool>) {
    let n = sizes.sites;
    let mut edges = Vec::new();
    let mut core = vec![false; n];
    if sizes.cluster == 0 {
        // Ring with three forward chords per site.
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..n {
            for k in 1..=3.min(n - 1) {
                let j = (i + k) % n;
                if seen.insert((i.min(j), i.max(j))) {
                    edges.push((i.min(j), i.max(j), lan()));
                }
            }
        }
    } else {
        // Clusters of consecutive sites around a head; heads meet at the
        // first head over the backbone.
        for start in (0..n).step_by(sizes.cluster) {
            core[start] = true;
            for member in start + 1..(start + sizes.cluster).min(n) {
                edges.push((start, member, lan()));
            }
            if start != 0 {
                edges.push((0, start, backbone()));
            }
        }
    }
    (edges, core)
}

/// Maps placement slot `i` to a site with the same structural role as
/// site `i`, permuting sites within each role. Which ranks sit on hub
/// sites is thus fixed by rank, not by seed, so the traffic mix over
/// link classes stays the same from seed to seed.
fn role_preserving_map(adj: &[Vec<usize>], core: &[bool], rng: &mut SplitMix64) -> Vec<usize> {
    let n = adj.len();
    let role = |s: usize| (s == 0, core[s], adj[s].len());
    let mut map = vec![0; n];
    let mut classes: Vec<Vec<usize>> = Vec::new();
    let mut seen = vec![false; n];
    for s in 0..n {
        if seen[s] {
            continue;
        }
        let class: Vec<usize> = (s..n).filter(|&t| role(t) == role(s)).collect();
        for &t in &class {
            seen[t] = true;
        }
        classes.push(class);
    }
    for class in classes {
        let perm = rng.permutation(class.len());
        for (k, &s) in class.iter().enumerate() {
            map[s] = class[perm[k]];
        }
    }
    map
}

// -- object classes -------------------------------------------------------

fn script(src: &str) -> Method {
    Method::public(MethodBody::script(src).expect("benchmark scripts parse"))
}

/// A counter cell: non-idempotent `bump` (a double-applied retry shows in
/// its state) and read-only `peek`.
fn cell_class() -> ClassSpec {
    ClassSpec::new("bench-cell")
        .fixed_data("count", DataItem::public(Value::Int(0)))
        .fixed_method(
            "bump",
            script("self.set(\"count\", self.get(\"count\") + 1); return self.get(\"count\");"),
        )
        .fixed_method("peek", script("return self.get(\"count\");"))
}

/// A mobile object carrying an opaque `cargo` payload, a counter, and an
/// arrival hook that counts its hops.
fn cargo_class() -> ClassSpec {
    cell_class()
        .specialize("bench-cargo")
        .fixed_data("cargo", DataItem::public(Value::Bytes(Vec::new())))
        .fixed_data("hops", DataItem::public(Value::Int(0)))
        .fixed_method(
            "on_arrival",
            script(
                "param ctx; self.set(\"hops\", self.get(\"hops\") + 1); return self.get(\"hops\");",
            ),
        )
}

/// The seeded payload of object `rank`: log-uniform from 64 B to 64 KiB,
/// stratified by the bit-reversed rank so every popularity band spans
/// the whole size range (and the traffic's size mix barely moves with
/// the seed).
pub fn payload(seed: u64, rank: usize, objects: usize) -> Vec<u8> {
    let strata = objects.next_power_of_two();
    let bits = strata.trailing_zeros();
    let stratum = if bits == 0 {
        0
    } else {
        rank.reverse_bits() >> (usize::BITS - bits)
    };
    let mut rng = SplitMix64::stream(seed, SALT_PAYLOAD ^ ((rank as u64) << 8));
    let pos = (stratum as f64 + rng.unit()) / strata as f64;
    let len = (64.0 * 1024f64.powf(pos)) as usize;
    rng.bytes(len.clamp(64, 65_536))
}

// -- ops ------------------------------------------------------------------

/// The three op kinds the latency metrics are split by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Runtime::invoke` at the object's host.
    Local,
    /// `Federation::remote_invoke` from a neighbour.
    Remote,
    /// `Federation::dispatch_object`.
    Migrate,
}

/// One generated operation, by object rank and site index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Invoke `bump` (or `peek`) on `rank` from site `from`; the object
    /// lives at site `to`.
    Invoke {
        /// Object rank.
        rank: usize,
        /// Calling site.
        from: usize,
        /// Hosting site.
        to: usize,
        /// `bump` (true) or `peek`.
        bump: bool,
    },
    /// Move `rank` from site `from` to site `to`.
    Migrate {
        /// Object rank.
        rank: usize,
        /// Current host.
        from: usize,
        /// Destination.
        to: usize,
    },
}

impl Op {
    /// The op's kind.
    pub fn kind(&self) -> Kind {
        match *self {
            Op::Invoke { from, to, .. } if from == to => Kind::Local,
            Op::Invoke { .. } => Kind::Remote,
            Op::Migrate { .. } => Kind::Migrate,
        }
    }

    /// The object rank the op targets.
    pub fn rank(&self) -> usize {
        match *self {
            Op::Invoke { rank, .. } | Op::Migrate { rank, .. } => rank,
        }
    }
}

/// What executing one op did.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// The op.
    pub op: Op,
    /// Whether the program reported success.
    pub ok: bool,
    /// When the public call started.
    pub start: Instant,
    /// The invocation's result (`None` for migrations and failures).
    pub result: Option<Value>,
    /// Wall-clock time of the public call, in nanoseconds.
    pub wall_ns: u64,
    /// Virtual (SimNet) time the call took, in microseconds.
    pub virt_us: u64,
    /// Messages the call put on the wire.
    pub msgs: u64,
    /// Bytes the call put on the wire.
    pub bytes: u64,
    /// Deliveries the call caused.
    pub deliveries: u64,
}

/// A timed client-side call that is not an op (churn, recovery, advisory
/// epochs), reported to the tracer.
#[derive(Debug, Clone)]
pub struct EventSpan {
    /// Span name, `layer.function`.
    pub name: &'static str,
    /// Start of the call.
    pub start: Instant,
    /// Wall duration in nanoseconds.
    pub dur_ns: u64,
    /// Index of the enclosing event span in the same step, if any.
    pub parent: Option<usize>,
}

/// Lifetime counters of the advisory-epoch loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdvisorTally {
    /// Epochs run.
    pub epochs: u64,
    /// Advisor-driven migrations that landed.
    pub migrations: u64,
    /// Proposals hysteresis suppressed.
    pub thrash_aborts: u64,
}

/// The benchmark client: one federation plus the generator state and the
/// bookkeeping the correctness checks need.
pub struct Client {
    workload: Workload,
    sizes: Sizes,
    seed: u64,
    /// The program under test.
    pub fed: Federation,
    net_cfg: NetworkConfig,
    nodes: Vec<NodeId>,
    adj: Vec<Vec<usize>>,
    core: Vec<bool>,
    ioo: Vec<ObjectId>,
    /// Object identities by rank.
    pub objects: Vec<ObjectId>,
    rank_of: HashMap<ObjectId, usize>,
    /// Current host (site index) by rank.
    pub host: Vec<usize>,
    home: Vec<usize>,
    zipf: Zipf,
    traffic: SplitMix64,
    churn: SplitMix64,
    down: Option<usize>,
    ticks: u64,
    /// Ops executed.
    pub ops: u64,
    /// Ops the program reported as failed.
    pub failed: u64,
    /// Counter bounds per rank: every acknowledged bump pins both; a
    /// timed-out bump may or may not have applied, so it widens `hi`.
    count_lo: Vec<i64>,
    count_hi: Vec<i64>,
    hops: Vec<i64>,
    host_known: Vec<bool>,
    /// Output mismatches seen while running.
    pub violations: Vec<String>,
    /// Running FNV-1a hash of (op, target, caller, outcome).
    pub hash: u64,
    /// The hash as it stood after the exact window's last op.
    pub prefix_hash: Option<u64>,
    advisor: Option<(Advisor, u64)>,
    /// Advisory-epoch counters.
    pub advisor_tally: AdvisorTally,
    /// In-doubt migrations settled by the final drain.
    pub in_doubt_settled: u64,
    /// Records of the last `step`.
    pub records: Vec<OpRecord>,
    /// Event spans of the last `step` (only filled while tracing).
    pub events: Vec<EventSpan>,
    /// Whether `events` is filled.
    pub trace_events: bool,
}

fn timeout(e: &HadasError) -> bool {
    matches!(e, HadasError::Timeout { .. })
}

impl Client {
    /// Builds the workload's federation: sites, links, and every object
    /// adopted at its seeded placement. This is what `setup_s` times.
    ///
    /// # Errors
    ///
    /// Any set-up call the program refuses.
    pub fn setup(workload: Workload, sizes: Sizes, seed: u64) -> Result<Client, String> {
        let n = sizes.sites;
        let (edges, core) = topology(&sizes);
        let default_link = if workload == Workload::AdvisorAffinity {
            wan()
        } else {
            lan()
        };
        let mut net_cfg = NetworkConfig::new(SplitMix64::stream(seed, SALT_NET).next_u64())
            .with_default_link(default_link);
        for &(a, b, link) in &edges {
            net_cfg.set_symmetric_link(node(a), node(b), link);
        }
        let mut fed = Federation::new(net_cfg.clone());
        fed.set_admission_policy(workload.admission());
        fed.set_retry_policy(workload.retry());
        let nodes: Vec<NodeId> = (0..n).map(node).collect();
        for &s in &nodes {
            fed.add_site(s).map_err(|e| format!("add_site: {e}"))?;
        }
        let mut adj = vec![Vec::new(); n];
        for &(a, b, _) in &edges {
            fed.link(node(a), node(b))
                .map_err(|e| format!("link: {e}"))?;
            adj[a].push(b);
            adj[b].push(a);
        }
        if workload == Workload::ChurnLossy {
            // Faults start once the federation is wired.
            for &(a, b, link) in &edges {
                let lossy = link.loss_probability(0.01).duplicate_probability(0.005);
                net_cfg.set_symmetric_link(node(a), node(b), lossy);
                fed.net_config_mut()
                    .set_symmetric_link(node(a), node(b), lossy);
            }
        }
        let ioo = nodes
            .iter()
            .map(|&s| fed.ioo_id(s).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;

        let total = n * sizes.cells;
        let mut placement = SplitMix64::stream(seed, SALT_PLACEMENT);
        let map = role_preserving_map(&adj, &core, &mut placement);
        let (cell, cargo) = (cell_class(), cargo_class());
        let mut objects = Vec::with_capacity(total);
        let mut host = Vec::with_capacity(total);
        for rank in 0..total {
            // Rank 0 lands on slot 1, keeping the hottest object off the
            // busiest hub.
            let site = map[(rank + 1) % n];
            let rt = fed.runtime_mut(nodes[site]).map_err(|e| e.to_string())?;
            let id = rt.ids_mut().next_id();
            let obj = if workload == Workload::MigrateSized {
                let mut obj = cargo.instantiate_as(id, None);
                obj.write_data(id, "cargo", Value::Bytes(payload(seed, rank, total)))
                    .map_err(|e| e.to_string())?;
                obj
            } else {
                cell.instantiate_as(id, None)
            };
            rt.adopt(obj).map_err(|e| e.to_string())?;
            objects.push(id);
            host.push(site);
        }
        let rank_of = objects.iter().enumerate().map(|(r, &id)| (id, r)).collect();
        let home = if workload == Workload::AdvisorAffinity {
            // Homes are placed like objects, half the site list away from
            // the object's own slot, so the caller structure (and with it
            // the op mix) moves little from seed to seed.
            let homes = role_preserving_map(&adj, &core, &mut SplitMix64::stream(seed, SALT_HOMES));
            (0..total)
                .map(|rank| homes[(rank + 1 + n / 2) % n])
                .collect()
        } else {
            Vec::new()
        };
        let advisor = (workload == Workload::AdvisorAffinity).then(|| {
            let cfg = advisor_config();
            (Advisor::new(cfg), cfg.epoch_us)
        });
        Ok(Client {
            workload,
            sizes,
            seed,
            fed,
            net_cfg,
            nodes,
            adj,
            core,
            ioo,
            rank_of,
            host_known: vec![true; total],
            count_lo: vec![0; total],
            count_hi: vec![0; total],
            hops: vec![0; total],
            objects,
            host,
            home,
            zipf: Zipf::new(total, 1.1),
            traffic: SplitMix64::stream(seed, SALT_TRAFFIC),
            churn: SplitMix64::stream(seed, SALT_CHURN),
            down: None,
            ticks: 0,
            ops: 0,
            failed: 0,
            violations: Vec::new(),
            hash: 0xCBF2_9CE4_8422_2325,
            prefix_hash: None,
            advisor,
            advisor_tally: AdvisorTally::default(),
            in_doubt_settled: 0,
            records: Vec::new(),
            events: Vec::new(),
            trace_events: false,
        })
    }

    /// The workload's link configuration, for a shadow network.
    pub fn net_config(&self) -> &NetworkConfig {
        &self.net_cfg
    }

    /// Site index → node.
    pub fn node(&self, site: usize) -> NodeId {
        self.nodes[site]
    }

    /// A site's IOO (the principal its invocations run as).
    pub fn ioo(&self, site: usize) -> ObjectId {
        self.ioo[site]
    }

    /// The workload's shape.
    pub fn sizes(&self) -> Sizes {
        self.sizes
    }

    fn live(&self, site: usize) -> bool {
        self.down != Some(site)
    }

    /// Draws a target rank whose host is up and known.
    fn draw_rank(&mut self) -> usize {
        for _ in 0..64 {
            let r = self.zipf.sample(&mut self.traffic);
            if self.host_known[r] && self.live(self.host[r]) {
                return r;
            }
        }
        (0..self.objects.len())
            .find(|&r| self.host_known[r] && self.live(self.host[r]))
            .expect("some object is reachable")
    }

    /// A uniformly drawn live neighbour of `site`, if any.
    fn draw_neighbour(&mut self, site: usize) -> Option<usize> {
        let live: Vec<usize> = self.adj[site]
            .iter()
            .copied()
            .filter(|&s| self.live(s))
            .collect();
        (!live.is_empty()).then(|| live[self.traffic.below(live.len())])
    }

    /// Runs one closed-loop tick: any due churn or advisory epoch, then the
    /// tick's op(s). Results land in `records` (and `events` when traced).
    ///
    /// # Errors
    ///
    /// Program errors on calls the benchmark expects to succeed (churn,
    /// recovery, links); op failures are counted, not returned.
    pub fn step(&mut self) -> Result<(), String> {
        self.records.clear();
        self.events.clear();
        self.ticks += 1;
        let t = self.ticks;
        if self.sizes.churn_every > 0 {
            let p = self.sizes.churn_every;
            if t % p == p / 2 && self.down.is_none() {
                let victims: Vec<usize> =
                    (0..self.nodes.len()).filter(|&s| !self.core[s]).collect();
                let v = victims[self.churn.below(victims.len())];
                self.crash(v)?;
            } else if t.is_multiple_of(p) {
                if let Some(v) = self.down {
                    self.restart(v)?;
                }
            }
        }
        if let Some((_, next)) = self.advisor {
            if self.fed.now().as_micros() >= next {
                self.advisory_epoch(None)?;
                let epoch_us = advisor_config().epoch_us;
                if let Some((_, next)) = &mut self.advisor {
                    *next = self.fed.now().as_micros() + epoch_us;
                }
            }
        }
        match self.workload {
            Workload::InvokeZipf | Workload::ChurnLossy => {
                if t.is_multiple_of(self.sizes.migrate_every) {
                    // A round trip: the object visits a neighbour and
                    // comes back, so placement (and with it the traffic
                    // mix) stays stationary.
                    let rank = self.draw_rank();
                    let from = self.host[rank];
                    if let Some(to) = self.draw_neighbour(from) {
                        self.execute(Op::Migrate { rank, from, to });
                        if self.host[rank] == to {
                            self.execute(Op::Migrate {
                                rank,
                                from: to,
                                to: from,
                            });
                        }
                    }
                } else {
                    let rank = self.draw_rank();
                    let to = self.host[rank];
                    let pick = self.traffic.below(self.adj[to].len() + 1);
                    let from = if pick == 0 {
                        to
                    } else {
                        self.adj[to][pick - 1]
                    };
                    let from = if self.live(from) { from } else { to };
                    let bump = self.traffic.chance_permille(750);
                    self.execute(Op::Invoke {
                        rank,
                        from,
                        to,
                        bump,
                    });
                }
            }
            Workload::MigrateSized => {
                let rank = self.draw_rank();
                let from = self.host[rank];
                if let Some(to) = self.draw_neighbour(from) {
                    self.execute(Op::Migrate { rank, from, to });
                    if self.host[rank] == to {
                        // The invoke path stays nearly idle: every 4th
                        // move is followed by a bump at the new host, and
                        // every 4th (offset) by one from the old host.
                        match t % 4 {
                            0 => self.execute(Op::Invoke {
                                rank,
                                from: to,
                                to,
                                bump: true,
                            }),
                            2 => self.execute(Op::Invoke {
                                rank,
                                from,
                                to,
                                bump: true,
                            }),
                            _ => {}
                        }
                    }
                }
            }
            Workload::AdvisorAffinity => {
                let rank = self.draw_rank();
                let home = self.home[rank];
                let from = if self.traffic.chance_permille(900) || self.adj[home].is_empty() {
                    home
                } else {
                    self.adj[home][self.traffic.below(self.adj[home].len())]
                };
                let bump = self.traffic.chance_permille(750);
                self.execute(Op::Invoke {
                    rank,
                    from,
                    to: self.host[rank],
                    bump,
                });
            }
        }
        Ok(())
    }

    fn event<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, Option<usize>) {
        let start = Instant::now();
        let idx = self.trace_events.then(|| {
            self.events.push(EventSpan {
                name,
                start,
                dur_ns: 0,
                parent,
            });
            self.events.len() - 1
        });
        let out = f(self);
        if let Some(i) = idx {
            self.events[i].dur_ns = elapsed_ns(start);
        }
        (out, idx)
    }

    fn crash(&mut self, v: usize) -> Result<(), String> {
        let node = self.nodes[v];
        // Checkpoint at the crash instant so the restart restores the
        // pre-crash state.
        self.event("hadas.checkpoint_site", None, |d| {
            d.fed.checkpoint_site(node)
        })
        .0
        .map_err(|e| format!("checkpoint_site: {e}"))?;
        self.event("hadas.crash_site", None, |d| d.fed.crash_site(node))
            .0
            .map_err(|e| format!("crash_site: {e}"))?;
        self.down = Some(v);
        Ok(())
    }

    fn restart(&mut self, v: usize) -> Result<(), String> {
        let node = self.nodes[v];
        self.event("hadas.restart_site", None, |d| d.fed.restart_site(node))
            .0
            .map_err(|e| format!("restart_site: {e}"))?;
        // A restart may rebuild the IOO under a new identity.
        self.ioo[v] = self.fed.ioo_id(node).map_err(|e| e.to_string())?;
        self.down = None;
        Ok(())
    }

    /// The site the recovery probe exercises: the non-core site hosting
    /// the most objects.
    ///
    /// # Errors
    ///
    /// When every site is core or down.
    pub fn probe_site(&self) -> Result<usize, String> {
        let mut hosted = vec![0usize; self.nodes.len()];
        for &h in &self.host {
            hosted[h] += 1;
        }
        (0..self.nodes.len())
            .filter(|&s| !self.core[s] && self.live(s))
            .max_by_key(|&s| (hosted[s], std::cmp::Reverse(s)))
            .ok_or_else(|| "no site to probe".to_owned())
    }

    /// The recovery probe: checkpoint, crash and restart `site`, so
    /// recovery costs are measured on every workload's own state.
    ///
    /// # Errors
    ///
    /// Program errors from the recovery calls.
    pub fn recovery_probe(&mut self, site: usize) -> Result<(), String> {
        if let Some(v) = self.down {
            self.restart(v)?;
        }
        self.crash(site)?;
        self.restart(site)
    }

    /// One advisory epoch: telemetry snapshot → candidate table from the
    /// effect system → `Advisor::decide` → each migration through
    /// `dispatch_object` → commit. With `probe` set the decisions are
    /// timed but not executed and the Advisor state is left alone (used
    /// to measure the epoch cost on workloads that run without one).
    ///
    /// # Errors
    ///
    /// Program errors from linking.
    pub fn advisory_epoch(&mut self, probe: Option<AdvisorConfig>) -> Result<(), String> {
        let (_, epoch_span) = self.event("hadas.advisor_epoch", None, |_| ());
        let started = Instant::now();
        let (snap, _) = self.event("obs.telemetry", epoch_span, |d| d.fed.telemetry());
        let stats = self.fed.net_stats().clone();
        let mut candidates = std::collections::BTreeMap::new();
        for rank in 0..self.objects.len() {
            let (id, site) = (self.objects[rank], self.host[rank]);
            if !self.host_known[rank] || !self.live(site) {
                continue;
            }
            let Some(obj) = self
                .fed
                .runtime_mut(self.nodes[site])
                .ok()
                .and_then(|rt| rt.object_mut(id))
            else {
                continue;
            };
            let effects = obj.effects();
            let idempotent = effects.values().filter(|s| s.idempotent).count() as u64;
            candidates.insert(
                id,
                Candidate {
                    host: self.nodes[site],
                    migration_safe: !effects.is_empty()
                        && effects.values().all(|s| s.migration_safe),
                    idempotent_permille: if effects.is_empty() {
                        0
                    } else {
                        idempotent * 1000 / effects.len() as u64
                    },
                    busy: false,
                },
            );
        }
        let input = AdvisorInput {
            epoch: self.advisor_tally.epochs,
            telemetry: &snap,
            stats: &stats,
            candidates,
        };
        let Some((mut advisor, next)) = probe
            .map(|cfg| (Advisor::new(cfg), 0))
            .or_else(|| self.advisor.take())
        else {
            return Ok(());
        };
        let (pass, _) = self.event("hadas.advisor_decide", epoch_span, |_| {
            advisor.decide(&input)
        });
        if probe.is_none() {
            for decision in &pass.decisions {
                // Refresh and shed decisions need a degraded link or a
                // shed threshold, neither of which this workload has.
                let AdvisorDecision::Migrate { object, from, to } = *decision else {
                    continue;
                };
                let (Some(&rank), Some(to_site)) = (
                    self.rank_of.get(&object),
                    self.nodes.iter().position(|&n| n == to),
                ) else {
                    continue;
                };
                if self.nodes[self.host[rank]] != from || from == to {
                    continue;
                }
                // The Advisor targets arbitrary pairs; dispatch needs a
                // link agreement.
                if !self.fed.is_linked(from, to) {
                    self.fed.link(from, to).map_err(|e| format!("link: {e}"))?;
                }
                let from_site = self.host[rank];
                self.execute(Op::Migrate {
                    rank,
                    from: from_site,
                    to: to_site,
                });
                if self.host[rank] == to_site {
                    self.advisor_tally.migrations += 1;
                }
            }
            self.advisor_tally.thrash_aborts += pass.thrash_aborts;
            self.advisor_tally.epochs += 1;
            advisor.commit(&input, &pass);
            self.advisor = Some((advisor, next));
        }
        if let Some(i) = epoch_span {
            self.events[i].start = started;
            self.events[i].dur_ns = elapsed_ns(started);
        }
        Ok(())
    }

    /// Executes one op through the public API, checks its output, and
    /// appends its record.
    fn execute(&mut self, op: Op) {
        let before = self.fed.net_stats();
        let (sent0, bytes0, deliv0) = (
            before.messages_sent,
            before.bytes_sent,
            before.messages_delivered,
        );
        let virt0 = self.fed.now().as_micros();
        let rank = op.rank();
        let id = self.objects[rank];
        let start = Instant::now();
        let outcome: Result<Option<Value>, HadasError> = match op {
            Op::Invoke { from, to, bump, .. } => {
                let method = if bump { "bump" } else { "peek" };
                if from == to {
                    let caller = self.ioo[to];
                    match self.fed.runtime_mut(self.nodes[to]) {
                        Ok(rt) => rt
                            .invoke(caller, id, method, &[])
                            .map(Some)
                            .map_err(HadasError::Model),
                        Err(e) => Err(e),
                    }
                } else {
                    self.fed
                        .remote_invoke(
                            self.nodes[from],
                            self.nodes[to],
                            self.ioo[from],
                            id,
                            method,
                            &[],
                        )
                        .map(Some)
                }
            }
            Op::Migrate { from, to, .. } => self
                .fed
                .dispatch_object(self.nodes[from], self.nodes[to], id)
                .map(|()| None),
        };
        let wall_ns = elapsed_ns(start);
        let after = self.fed.net_stats();
        let record = OpRecord {
            op,
            ok: outcome.is_ok(),
            start,
            result: outcome.as_ref().ok().cloned().flatten(),
            wall_ns,
            virt_us: self.fed.now().as_micros() - virt0,
            msgs: after.messages_sent - sent0,
            bytes: after.bytes_sent - bytes0,
            deliveries: after.messages_delivered - deliv0,
        };
        self.ops += 1;
        self.check(op, &outcome);
        self.hash_record(&record);
        if self.ops == self.sizes.exact_ops {
            self.prefix_hash = Some(self.hash);
        }
        self.records.push(record);
    }

    fn check(&mut self, op: Op, outcome: &Result<Option<Value>, HadasError>) {
        let rank = op.rank();
        match (op, outcome) {
            (Op::Invoke { bump, .. }, Ok(value)) => {
                let got = value.as_ref().and_then(Value::as_int);
                let expect_lo = self.count_lo[rank] + i64::from(bump);
                let expect_hi = self.count_hi[rank] + i64::from(bump);
                match got {
                    Some(n) if (expect_lo..=expect_hi).contains(&n) => {
                        self.count_lo[rank] = n;
                        self.count_hi[rank] = n;
                    }
                    _ => self.violations.push(format!(
                        "object rank {rank}: {} returned {value:?}, expected {expect_lo}..={expect_hi}",
                        if bump { "bump" } else { "peek" }
                    )),
                }
            }
            (Op::Migrate { to, .. }, Ok(_)) => {
                self.host[rank] = to;
                self.hops[rank] += 1;
            }
            (op, Err(e)) => {
                self.failed += 1;
                match op {
                    Op::Invoke { bump: true, .. } if timeout(e) => self.count_hi[rank] += 1,
                    // Parked in-doubt: the final drain settles the host.
                    Op::Migrate { .. } if timeout(e) => self.host_known[rank] = false,
                    _ => {}
                }
            }
        }
    }

    fn hash_record(&mut self, r: &OpRecord) {
        let (tag, a, b) = match r.op {
            Op::Invoke { from, to, bump, .. } => (u64::from(bump), from, to),
            Op::Migrate { from, to, .. } => (2, from, to),
        };
        let outcome = match (&r.result, r.ok) {
            (Some(v), _) => v.as_int().unwrap_or(-1) as u64,
            (None, true) => u64::MAX - 1,
            (None, false) => u64::MAX,
        };
        for word in [
            self.ops,
            tag,
            r.op.rank() as u64,
            a as u64,
            b as u64,
            outcome,
        ] {
            for byte in word.to_le_bytes() {
                self.hash ^= u64::from(byte);
                self.hash = self.hash.wrapping_mul(0x0100_0000_01B3);
            }
        }
    }

    /// Ends the run: restarts any crashed site, drains the wire, settles
    /// in-doubt migrations, and checks every invariant. Returns the
    /// violations (empty when the run was correct).
    ///
    /// # Errors
    ///
    /// Program errors from the recovery calls.
    pub fn finish(&mut self) -> Result<Vec<String>, String> {
        if let Some(v) = self.down {
            self.restart(v)?;
        }
        self.fed.pump_all();
        for _ in 0..3 {
            let mut parked = 0;
            for site in 0..self.nodes.len() {
                let n = self.nodes[site];
                let here = self.fed.in_doubt(n).map_err(|e| e.to_string())?.len();
                if here == 0 {
                    continue;
                }
                parked += here;
                let (settled, _) = self.event("hadas.resolve_in_doubt", None, |d| {
                    d.fed.resolve_in_doubt(n)
                });
                self.in_doubt_settled +=
                    settled.map_err(|e| format!("resolve_in_doubt: {e}"))? as u64;
            }
            if parked == 0 {
                break;
            }
        }
        self.fed.pump_all();

        let mut v = std::mem::take(&mut self.violations);
        let in_flight = self.fed.in_flight();
        if in_flight != 0 {
            v.push(format!("wire not drained: {in_flight} messages in flight"));
        }
        if !self.fed.net_stats().accounts_for_every_send(in_flight) {
            v.push("NetStats does not account for every send".into());
        }
        let parked: usize = self
            .nodes
            .iter()
            .filter_map(|&n| self.fed.in_doubt(n).ok())
            .map(|p| p.len())
            .sum();
        if parked != 0 {
            v.push(format!("{parked} migrations still parked in-doubt"));
        }
        let total = self.objects.len();
        let mut copies = vec![0u32; total];
        let mut found = vec![usize::MAX; total];
        for (site, &n) in self.nodes.iter().enumerate() {
            let rt = self.fed.runtime(n).map_err(|e| e.to_string())?;
            for id in rt.object_ids() {
                if let Some(&r) = self.rank_of.get(&id) {
                    copies[r] += 1;
                    found[r] = site;
                }
            }
        }
        for rank in 0..total {
            if copies[rank] != 1 {
                v.push(format!("object rank {rank} has {} hosts", copies[rank]));
                continue;
            }
            if self.host_known[rank] && found[rank] != self.host[rank] {
                v.push(format!(
                    "object rank {rank} is at site {} not {}",
                    found[rank], self.host[rank]
                ));
            }
            self.host[rank] = found[rank];
            self.host_known[rank] = true;
            let rt = self
                .fed
                .runtime(self.nodes[found[rank]])
                .map_err(|e| e.to_string())?;
            let obj = rt
                .object(self.objects[rank])
                .ok_or("object vanished during the scan")?;
            let read = |name: &str| {
                obj.read_data(ObjectId::SYSTEM, name)
                    .map_err(|e: MromError| e.to_string())
            };
            let count = read("count")?.as_int().unwrap_or(-1);
            if !(self.count_lo[rank]..=self.count_hi[rank]).contains(&count) {
                v.push(format!(
                    "object rank {rank}: counter {count} outside exactly-once window {}..={}",
                    self.count_lo[rank], self.count_hi[rank]
                ));
            }
            if self.workload == Workload::MigrateSized {
                let hops = read("hops")?.as_int().unwrap_or(-1);
                if hops != self.hops[rank] {
                    v.push(format!(
                        "object rank {rank}: {hops} arrivals, {} acknowledged moves",
                        self.hops[rank]
                    ));
                }
                if read("cargo")? != Value::Bytes(payload(self.seed, rank, total)) {
                    v.push(format!(
                        "object rank {rank}: cargo differs from its seeded original"
                    ));
                }
            }
        }
        Ok(v)
    }
}

fn node(site: usize) -> NodeId {
    NodeId(site as u64 + 1)
}

/// Nanoseconds since `start`.
pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The Advisor settings of the E19 convergence arm with the lifetime
/// migration budget raised to 1024, above the workload's 480 objects, so
/// placement can converge within an episode. Spelled out so the workload
/// does not move if the program's presets do.
pub fn advisor_config() -> AdvisorConfig {
    AdvisorConfig {
        enabled: true,
        epoch_us: 500_000,
        hot_k: 4096,
        min_invocations: 3,
        dominance_permille: 600,
        dwell_epochs: 2,
        max_migrations_per_epoch: 32,
        max_total_migrations: 1024,
        degraded_delivery_permille: 900,
        min_link_attempts: 20,
        shed_load_permille: 0,
    }
}

/// Resets this thread's recorder and sets the obs mode a run of
/// `workload` uses (`traced` adds Ring-mode counters and the telemetry
/// window to any workload).
pub fn configure_obs(workload: Workload, traced: bool) {
    mrom_obs::reset();
    if workload.telemetry_on() || traced {
        mrom_obs::set_window(Some(WindowConfig::new(RUN_EPOCH_US, 2).with_callers()));
        mrom_obs::set_mode(ObsMode::Ring);
    } else {
        mrom_obs::set_window(None);
        mrom_obs::set_mode(ObsMode::Disabled);
    }
}

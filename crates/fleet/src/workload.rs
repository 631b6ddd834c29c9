//! Fleet run parameters and the seeded Zipf traffic model.
//!
//! Real federations do not spread invocations uniformly: a handful of
//! objects absorb most of the traffic. The workload therefore draws
//! targets from a Zipf distribution (rank `r` weighted `1/r^s`), built
//! once as a cumulative table and sampled by binary search, so a single
//! `f64` draw per operation picks the target in `O(log n)`.

use rand::rngs::StdRng;
use rand::Rng;

use hadas::AdvisorConfig;
use mrom_net::Topology;
use mrom_value::NodeId;

/// One step of a run's fault schedule, executed just before the workload
/// op at its index. Churn steps target one site; link steps act on every
/// topology edge at once. Probabilities are permille integers, so a
/// schedule — and the [`FleetConfig`] holding it — stays `Copy + Eq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Checkpoint a site at this instant, then crash it (skipped when it
    /// is already down).
    Crash(NodeId),
    /// Restart a crashed site from its depot (skipped when it is up).
    Restart(NodeId),
    /// Set both directions of every edge to its tier link with this
    /// per-message loss, duplication and reorder probability.
    Weather {
        /// Loss probability ×1000.
        loss_permille: u16,
        /// Duplication probability ×1000.
        duplicate_permille: u16,
        /// Reorder (hold-back) probability ×1000.
        reorder_permille: u16,
    },
    /// Every edge loses all traffic toward its lower-numbered site: a
    /// move or call from the lower site lands but its reply is lost.
    AckLoss,
    /// Every edge partitions.
    Partition,
    /// Every edge back to its tier link, partitions healed. The run
    /// heals every edge before its drain in any case.
    Heal,
}

/// Everything that shapes one fleet run. All knobs are plain integers
/// (the Zipf exponent is stored in permille) so a config — and hence a
/// [`crate::FleetReport`] — never depends on float formatting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// Wiring shape (star, mesh, hierarchical vicinity clusters).
    pub topology: Topology,
    /// Number of sites (IOOs).
    pub sites: usize,
    /// Objects instantiated per site; object `k` homes at site `k % sites`.
    pub objects_per_site: usize,
    /// Workload operations (bumps and peeks) to issue.
    pub invocations: usize,
    /// Crash/restart cycles injected mid-run (never on core sites).
    pub churn_events: usize,
    /// Dispatch a Zipf-drawn object to a random neighbor every N ops
    /// (0 disables migration traffic).
    pub migration_every: usize,
    /// Zipf exponent ×1000 (1000 = classic `1/r`; 0 = uniform).
    pub zipf_permille: u64,
    /// Caller-affinity strength ×1000. 0 (the default) keeps the classic
    /// neighbor-of-host workload byte-for-byte. When positive, every
    /// object is assigned a seeded *home caller* site and that fraction
    /// of its traffic originates there (the rest from the home caller's
    /// topology neighbors) — the locality structure the Advisor is
    /// supposed to discover and exploit.
    pub caller_affinity_permille: u64,
    /// Every N ops the home caller flips to a second seeded site
    /// (0 disables). The adversarial ping-pong workload: two sites
    /// alternate as dominant caller, so a policy without hysteresis
    /// would bounce objects forever.
    pub affinity_flip_every: usize,
    /// Self-tuning Advisor knobs; [`AdvisorConfig::off`] (the default)
    /// reproduces pre-advisor runs byte-for-byte.
    pub advisor: AdvisorConfig,
    /// Scheduled fault steps `(op index, step)`, merged with the churn
    /// schedule `churn_events` draws. Empty (the default) keeps a run's
    /// steps and RNG draws exactly those of a fault-free build.
    pub faults: &'static [(usize, Fault)],
}

impl FleetConfig {
    /// CI-sized smoke run: seconds, not minutes, but every mechanism on.
    #[must_use]
    pub fn smoke() -> FleetConfig {
        FleetConfig {
            topology: Topology::Star,
            sites: 8,
            objects_per_site: 25,
            invocations: 400,
            churn_events: 2,
            migration_every: 20,
            zipf_permille: 1100,
            caller_affinity_permille: 0,
            affinity_flip_every: 0,
            advisor: AdvisorConfig::off(),
            faults: &[],
        }
    }

    /// The acceptance-scale run: 10³ sites, 10⁵ objects, hierarchical
    /// vicinity clusters, churn and migration both active.
    #[must_use]
    pub fn flagship() -> FleetConfig {
        FleetConfig {
            topology: Topology::Hierarchical { cluster_size: 32 },
            sites: 1000,
            objects_per_site: 100,
            invocations: 20_000,
            churn_events: 10,
            migration_every: 50,
            zipf_permille: 1100,
            caller_affinity_permille: 0,
            affinity_flip_every: 0,
            advisor: AdvisorConfig::off(),
            faults: &[],
        }
    }

    /// The E19 convergence scenario: a hierarchical topology whose
    /// cross-cluster default routes are WAN-priced, a strongly
    /// caller-affine Zipf workload (90% of each object's traffic from
    /// its seeded home caller), random migration traffic off, churn
    /// off. Advisor **off** — this is the baseline arm;
    /// [`FleetConfig::converge_on`] is the treatment arm.
    #[must_use]
    pub fn converge() -> FleetConfig {
        FleetConfig {
            topology: Topology::Hierarchical { cluster_size: 4 },
            sites: 12,
            objects_per_site: 6,
            invocations: 2400,
            churn_events: 0,
            migration_every: 0,
            zipf_permille: 1100,
            caller_affinity_permille: 900,
            affinity_flip_every: 0,
            advisor: AdvisorConfig::off(),
            faults: &[],
        }
    }

    /// [`FleetConfig::converge`] with the standard Advisor switched on
    /// and its sweep widened so even tail objects are examined: the
    /// treatment arm of the E19 battery.
    #[must_use]
    pub fn converge_on() -> FleetConfig {
        let mut cfg = FleetConfig::converge();
        cfg.advisor = AdvisorConfig {
            hot_k: 4096,
            min_invocations: 3,
            dominance_permille: 600,
            max_migrations_per_epoch: 32,
            max_total_migrations: 512,
            ..AdvisorConfig::standard()
        };
        cfg
    }

    /// The adversarial ping-pong scenario: every object's home caller
    /// flips between two seeded sites every 150 ops. Without hysteresis
    /// the Advisor would chase the flip forever; the no-thrash test
    /// asserts its total moves stay inside the lifetime budget and that
    /// the dwell timer actually suppressed chases.
    #[must_use]
    pub fn pingpong() -> FleetConfig {
        FleetConfig {
            topology: Topology::Star,
            sites: 6,
            objects_per_site: 4,
            invocations: 1800,
            churn_events: 0,
            migration_every: 0,
            zipf_permille: 1100,
            caller_affinity_permille: 950,
            affinity_flip_every: 150,
            advisor: AdvisorConfig {
                hot_k: 64,
                min_invocations: 3,
                dominance_permille: 600,
                max_migrations_per_epoch: 4,
                max_total_migrations: 48,
                ..AdvisorConfig::standard()
            },
            faults: &[],
        }
    }

    /// Total objects in the fleet.
    #[must_use]
    pub fn total_objects(&self) -> usize {
        self.sites * self.objects_per_site
    }
}

/// Link weather every edge runs under while a preset's storm lasts.
const fn weather(loss_permille: u16, duplicate_permille: u16, reorder_permille: u16) -> Fault {
    Fault::Weather {
        loss_permille,
        duplicate_permille,
        reorder_permille,
    }
}

/// The seven fault-injection presets, in a stable order under stable
/// names: small star fleets (2–4 sites, a few objects each, ≤ 150 ops)
/// with frequent migrations, each driven through one fault schedule.
/// Every preset must end with zero [`crate::FleetReport::violations`]
/// under every seed; each leaves its own witness in the report
/// (drops, duplicates, reorders, crashes or in-doubt parks).
#[must_use]
pub fn chaos_presets() -> [(&'static str, FleetConfig); 7] {
    type Schedule = &'static [(usize, Fault)];
    // Lossy links while bumps and moves run: retries recover most calls,
    // receiver dedup keeps them exactly-once.
    const LOSS: Schedule = &[(0, weather(250, 0, 0)), (100, Fault::Heal)];
    // Every message doubled in transit: dedup keeps invocations
    // exactly-once and moves single-copy.
    const DOUBLING: Schedule = &[(0, weather(0, 1000, 0)), (100, Fault::Heal)];
    // Messages overtake each other: every reply still matches its request.
    const SCRAMBLE: Schedule = &[(0, weather(0, 0, 500)), (100, Fault::Heal)];
    // The fleet partitions while moves are dispatched: they park in-doubt
    // and are settled from the depots after the heal.
    const PARTITION: Schedule = &[(30, Fault::Partition), (60, Fault::Heal)];
    // Forward paths work, replies toward the hub are lost: moves land
    // where their origin cannot know, and resolution finds them.
    const ACK_LOSS: Schedule = &[(20, Fault::AckLoss), (80, Fault::Heal)];
    // Loss, duplication and reordering at once, a partition on top, then
    // a full heal and resumed traffic.
    const STORM: Schedule = &[
        (0, weather(200, 200, 200)),
        (60, Fault::Partition),
        (90, Fault::Heal),
    ];
    let base = |sites: usize, faults: Schedule| FleetConfig {
        topology: Topology::Star,
        sites,
        objects_per_site: 3,
        invocations: 120,
        churn_events: 0,
        migration_every: 6,
        zipf_permille: 1100,
        faults,
        ..FleetConfig::smoke()
    };
    [
        ("loss-and-retry", base(2, LOSS)),
        ("duplicate-delivery", base(2, DOUBLING)),
        ("reordering", base(2, SCRAMBLE)),
        ("partition-during-dispatch", base(3, PARTITION)),
        ("lost-acks", base(3, ACK_LOSS)),
        // Spokes crash and restart while a move is dispatched after every
        // op; the depots bootstrap their objects back.
        (
            "crash-mid-migration",
            FleetConfig {
                churn_events: 3,
                migration_every: 1,
                ..base(4, &[])
            },
        ),
        ("heal-and-resume", base(3, STORM)),
    ]
}

/// A cumulative Zipf table over ranks `0..n`: rank `r` carries weight
/// `1/(r+1)^s`. Sampling is one uniform draw plus a binary search.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the table for `n` ranks with exponent `permille / 1000`.
    ///
    /// # Panics
    ///
    /// When `n == 0` — an empty distribution cannot be sampled.
    #[must_use]
    pub fn new(n: usize, permille: u64) -> Zipf {
        assert!(n > 0, "Zipf over zero ranks");
        #[allow(clippy::cast_precision_loss)]
        let s = permille as f64 / 1000.0;
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for rank in 0..n {
            #[allow(clippy::cast_precision_loss)]
            let weight = 1.0 / ((rank + 1) as f64).powf(s);
            total += weight;
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draws one rank in `0..n` (rank 0 is the hottest).
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.random();
        let idx = self.cdf.partition_point(|&c| c <= u);
        idx.min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let zipf = Zipf::new(100, 1100);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0usize; 100];
        for _ in 0..10_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10], "rank 0 must beat rank 10");
        assert!(counts[0] > counts[99] * 5, "head must dominate the tail");
        assert_eq!(counts.iter().sum::<usize>(), 10_000);
    }

    #[test]
    fn zipf_zero_exponent_is_roughly_uniform() {
        let zipf = Zipf::new(4, 0);
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = [0usize; 4];
        for _ in 0..8_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((1_500..=2_500).contains(&c), "uniform-ish bucket: {c}");
        }
    }

    #[test]
    fn zipf_sampling_is_deterministic_per_seed() {
        let zipf = Zipf::new(1000, 1300);
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let first: Vec<usize> = (0..64).map(|_| zipf.sample(&mut a)).collect();
        let second: Vec<usize> = (0..64).map(|_| zipf.sample(&mut b)).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn presets_are_sized_as_documented() {
        assert_eq!(FleetConfig::smoke().total_objects(), 200);
        let flagship = FleetConfig::flagship();
        assert_eq!(flagship.sites, 1000);
        assert!(flagship.total_objects() >= 100_000);
    }

    #[test]
    fn chaos_presets_are_small_and_uniquely_named() {
        let presets = chaos_presets();
        let names: std::collections::BTreeSet<&str> = presets.iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), presets.len());
        for (name, cfg) in presets {
            assert!((2..=4).contains(&cfg.sites), "{name}");
            assert!(cfg.invocations <= 150, "{name}");
            assert!(!cfg.advisor.enabled, "{name}");
            assert!(
                cfg.faults.iter().all(|&(at, _)| at < cfg.invocations),
                "{name}: every step fires"
            );
        }
    }
}

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
        }
    }

    /// Total objects in the fleet.
    #[must_use]
    pub fn total_objects(&self) -> usize {
        self.sites * self.objects_per_site
    }
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
}

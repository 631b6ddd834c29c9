//! The metrics registry: counters and fixed-bucket histograms per
//! subsystem, plus per-object tallies backing the reflective `getStats`
//! surface.
//!
//! Everything here is plain `u64` arithmetic on thread-local state — no
//! atomics, no locks — because the whole reproduction is single-threaded
//! per simulated world. Snapshots are cheap structural clones and can be
//! exported as a [`Value`] tree (and from there as JSON).

use std::collections::BTreeMap;

use mrom_value::{ObjectId, Value};

/// Number of power-of-two buckets in a [`Histogram`].
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A fixed-bucket histogram over `u64` samples.
///
/// Bucket `i` counts samples in `[2^i, 2^(i+1))` (bucket 0 additionally
/// holds 0). Thirty-two buckets cover ~4.3 seconds at nanosecond
/// resolution and any realistic fuel charge, with no allocation ever.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, sample: u64) {
        let idx = (63 - (sample | 1).leading_zeros()) as usize;
        self.buckets[idx.min(HISTOGRAM_BUCKETS - 1)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(sample);
    }

    /// Total samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Arithmetic mean, or 0 when empty.
    #[must_use]
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The raw bucket counts (bucket `i` = samples in `[2^i, 2^(i+1))`).
    #[must_use]
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Folds `other` into `self` bucket-by-bucket (how the telemetry
    /// window aggregates per-epoch histograms into one profile).
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// The `q`-quantile as the upper bound of the log bucket the
    /// cumulative count crosses `ceil(q · count)` in (0 when empty).
    /// Exact to within one power of two — the resolution the telemetry
    /// p50/p95 columns quote.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_sign_loss,
            clippy::cast_possible_truncation
        )]
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= target {
                return if i + 1 >= 64 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
            }
        }
        u64::MAX
    }

    /// Snapshot as a value tree: count, sum, mean, and the non-empty
    /// buckets as `[upper_bound, count]` pairs.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let buckets: Vec<Value> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(i, n)| {
                let hi = if i + 1 >= 64 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                Value::list([int(hi), int(*n)])
            })
            .collect();
        Value::map([
            ("count", int(self.count)),
            ("sum", int(self.sum)),
            ("mean", int(self.mean())),
            ("buckets", Value::List(buckets)),
        ])
    }
}

/// Converts a `u64` counter into a `Value::Int`, saturating at `i64::MAX`.
fn int(n: u64) -> Value {
    Value::Int(i64::try_from(n).unwrap_or(i64::MAX))
}

/// Counters for the Lookup → Match → Apply invocation machinery.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InvokeMetrics {
    /// Applications entered (one per tower level traversed).
    pub invocations: u64,
    /// Applications that returned an error.
    pub errors: u64,
    /// Lookups answered by the dispatch cache.
    pub cache_hits: u64,
    /// Lookups that fell back to full resolution.
    pub cache_misses: u64,
    /// Match-phase ACL checks that allowed.
    pub acl_allowed: u64,
    /// Match-phase ACL checks that denied.
    pub acl_denied: u64,
    /// Pre-procedures that passed.
    pub pre_pass: u64,
    /// Pre-procedures that vetoed.
    pub pre_veto: u64,
    /// Post-procedures that passed.
    pub post_pass: u64,
    /// Post-procedures that vetoed.
    pub post_veto: u64,
    /// Reflective meta-operations performed.
    pub meta_ops: u64,
    /// Dispatches routed through a meta-invoke level.
    pub tower_descents: u64,
    /// Deepest tower (in levels) seen on any dispatch.
    pub max_tower_depth: u64,
    /// Wall-clock latency of applications, in nanoseconds (Full mode only).
    pub latency_ns: Histogram,
    /// Fuel consumed per application.
    pub fuel: Histogram,
}

impl InvokeMetrics {
    fn to_value(&self) -> Value {
        Value::map([
            ("invocations", int(self.invocations)),
            ("errors", int(self.errors)),
            ("cache_hits", int(self.cache_hits)),
            ("cache_misses", int(self.cache_misses)),
            ("acl_allowed", int(self.acl_allowed)),
            ("acl_denied", int(self.acl_denied)),
            ("pre_pass", int(self.pre_pass)),
            ("pre_veto", int(self.pre_veto)),
            ("post_pass", int(self.post_pass)),
            ("post_veto", int(self.post_veto)),
            ("meta_ops", int(self.meta_ops)),
            ("tower_descents", int(self.tower_descents)),
            ("max_tower_depth", int(self.max_tower_depth)),
            ("latency_ns", self.latency_ns.to_value()),
            ("fuel", self.fuel.to_value()),
        ])
    }
}

/// Counters for script-method execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScriptMetrics {
    /// Script bodies executed.
    pub runs: u64,
    /// Host calls (`self.…`, world ops) performed by script bodies.
    pub host_calls: u64,
    /// Fuel charged by the evaluator, per body.
    pub fuel: Histogram,
}

impl ScriptMetrics {
    fn to_value(&self) -> Value {
        Value::map([
            ("runs", int(self.runs)),
            ("host_calls", int(self.host_calls)),
            ("fuel", self.fuel.to_value()),
        ])
    }
}

/// Counters for migration image encode / decode.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MigrateMetrics {
    /// Images encoded.
    pub encodes: u64,
    /// Bytes produced by encoding.
    pub bytes_out: u64,
    /// Decode attempts.
    pub decodes: u64,
    /// Decode attempts that failed (framing, versioning, admission).
    pub decode_errors: u64,
    /// Bytes consumed by decode attempts.
    pub bytes_in: u64,
    /// Arrivals whose fixed-method bytes a site's code table already held.
    pub table_hits: u64,
    /// Arrivals whose fixed-method bytes had to be decoded.
    pub table_misses: u64,
    /// Tables the code table's caps pushed out.
    pub table_evictions: u64,
}

impl MigrateMetrics {
    fn to_value(&self) -> Value {
        Value::map([
            ("encodes", int(self.encodes)),
            ("bytes_out", int(self.bytes_out)),
            ("decodes", int(self.decodes)),
            ("decode_errors", int(self.decode_errors)),
            ("bytes_in", int(self.bytes_in)),
            ("table_hits", int(self.table_hits)),
            ("table_misses", int(self.table_misses)),
            ("table_evictions", int(self.table_evictions)),
        ])
    }
}

/// Counters for the persistence depot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PersistMetrics {
    /// Images written to the depot.
    pub saves: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Restore attempts.
    pub restores: u64,
    /// Restore attempts that failed for any reason.
    pub restore_errors: u64,
    /// Failures classified as corruption (CRC / framing).
    pub corruptions: u64,
}

impl PersistMetrics {
    fn to_value(&self) -> Value {
        Value::map([
            ("saves", int(self.saves)),
            ("bytes_written", int(self.bytes_written)),
            ("restores", int(self.restores)),
            ("restore_errors", int(self.restore_errors)),
            ("corruptions", int(self.corruptions)),
        ])
    }
}

/// Counters for the mobile-code admission analyzer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AdmissionMetrics {
    /// Objects analyzed.
    pub checked: u64,
    /// Objects accepted.
    pub accepted: u64,
    /// Objects rejected (Strict policy).
    pub rejected: u64,
    /// Total diagnostics produced across all analyses.
    pub findings: u64,
}

impl AdmissionMetrics {
    fn to_value(&self) -> Value {
        Value::map([
            ("checked", int(self.checked)),
            ("accepted", int(self.accepted)),
            ("rejected", int(self.rejected)),
            ("findings", int(self.findings)),
        ])
    }
}

/// Checkout-collision counters of the site hosts' object tables (the
/// `shared` JSON block; the key is historical). A collision is a
/// re-entrant cycle of `send`s back into an object already checked out.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SharedMetrics {
    /// Checkout attempts refused because the target was already checked
    /// out by an invocation further up the same call chain.
    pub busy_collisions: u64,
    /// Collisions where the in-flight and incoming methods' effect
    /// signatures were provably disjoint — refusing the re-entry was a
    /// conservative loss, not a correctness requirement. A high ratio
    /// here is the signal that per-signature checkout would pay off.
    pub disjoint_collisions: u64,
    /// Collisions where the signatures overlapped or could not be
    /// compared: mutual exclusion was required for correctness.
    pub overlapping_collisions: u64,
}

impl SharedMetrics {
    fn to_value(&self) -> Value {
        Value::map([
            ("busy_collisions", int(self.busy_collisions)),
            ("disjoint_collisions", int(self.disjoint_collisions)),
            ("overlapping_collisions", int(self.overlapping_collisions)),
        ])
    }
}

/// Counters for HADAS federation traffic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FederationMetrics {
    /// Protocol messages posted.
    pub sends: u64,
    /// Protocol messages received and decoded.
    pub receives: u64,
    /// Bytes posted.
    pub bytes_sent: u64,
    /// Calls relayed through an ambassador to its origin.
    pub ambassador_relays: u64,
    /// Whole-object migrations dispatched.
    pub objects_dispatched: u64,
    /// Whole-object migrations adopted.
    pub objects_adopted: u64,
    /// Requests re-posted after a timeout.
    pub retries: u64,
    /// Duplicate requests answered from a receiver's reply cache.
    pub dedup_hits: u64,
    /// Sites crashed (volatile state lost).
    pub site_crashes: u64,
    /// Sites restarted from their depot.
    pub site_restarts: u64,
}

impl FederationMetrics {
    fn to_value(&self) -> Value {
        Value::map([
            ("sends", int(self.sends)),
            ("receives", int(self.receives)),
            ("bytes_sent", int(self.bytes_sent)),
            ("ambassador_relays", int(self.ambassador_relays)),
            ("objects_dispatched", int(self.objects_dispatched)),
            ("objects_adopted", int(self.objects_adopted)),
            ("retries", int(self.retries)),
            ("dedup_hits", int(self.dedup_hits)),
            ("site_crashes", int(self.site_crashes)),
            ("site_restarts", int(self.site_restarts)),
        ])
    }
}

/// Counters for the simulated network substrate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetMetrics {
    /// Messages accepted by `SimNet::send`.
    pub sends: u64,
    /// Messages dropped (loss, partition, or crashed node).
    pub drops: u64,
    /// Messages delivered to a handler.
    pub deliveries: u64,
    /// Extra copies injected by link duplication faults.
    pub duplicates: u64,
    /// Payload bytes delivered.
    pub bytes_delivered: u64,
}

impl NetMetrics {
    fn to_value(&self) -> Value {
        Value::map([
            ("sends", int(self.sends)),
            ("drops", int(self.drops)),
            ("deliveries", int(self.deliveries)),
            ("duplicates", int(self.duplicates)),
            ("bytes_delivered", int(self.bytes_delivered)),
        ])
    }
}

/// Per-object behavioural tallies — the data behind `getStats`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObjectStats {
    /// Applications where this object was the receiver.
    pub invocations: u64,
    /// Of those, how many returned an error.
    pub errors: u64,
    /// Fuel consumed while this object was the receiver.
    pub fuel_used: u64,
    /// Meta-operations performed on this object.
    pub meta_ops: u64,
    /// ACL denials suffered by callers of this object.
    pub acl_denied: u64,
    /// The selector of the most recent application.
    pub last_method: String,
}

impl ObjectStats {
    /// Snapshot as a value tree.
    #[must_use]
    pub fn to_value(&self) -> Value {
        Value::map([
            ("invocations", int(self.invocations)),
            ("errors", int(self.errors)),
            ("fuel_used", int(self.fuel_used)),
            ("meta_ops", int(self.meta_ops)),
            ("acl_denied", int(self.acl_denied)),
            ("last_method", Value::from(self.last_method.as_str())),
        ])
    }

    /// The schema of [`ObjectStats::to_value`]: field name → description.
    /// Used by `statsObject()` to populate the fixed (schema) section.
    #[must_use]
    pub fn schema() -> &'static [(&'static str, &'static str)] {
        &[
            ("invocations", "applications with this object as receiver"),
            ("errors", "applications that returned an error"),
            ("fuel_used", "fuel consumed while this object was receiver"),
            ("meta_ops", "reflective meta-operations performed"),
            ("acl_denied", "ACL denials suffered by callers"),
            ("last_method", "selector of the most recent application"),
        ]
    }
}

/// The full registry: one struct per subsystem plus per-object tallies.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Invocation machinery.
    pub invoke: InvokeMetrics,
    /// Script execution.
    pub script: ScriptMetrics,
    /// Migration encode / decode.
    pub migrate: MigrateMetrics,
    /// Persistence depot.
    pub persist: PersistMetrics,
    /// Admission analysis.
    pub admission: AdmissionMetrics,
    /// Site-host checkout collisions.
    pub shared: SharedMetrics,
    /// HADAS federation.
    pub federation: FederationMetrics,
    /// Simulated network.
    pub net: NetMetrics,
    /// Per-object tallies, keyed by receiver identity.
    pub per_object: BTreeMap<ObjectId, ObjectStats>,
}

impl Metrics {
    /// Mutable per-object entry, created on first touch.
    pub fn object_mut(&mut self, id: ObjectId) -> &mut ObjectStats {
        self.per_object.entry(id).or_default()
    }

    /// Snapshot of the whole registry as a value tree (JSON-exportable).
    #[must_use]
    pub fn to_value(&self) -> Value {
        let objects: Vec<Value> = self
            .per_object
            .iter()
            .map(|(id, stats)| {
                Value::map([
                    ("object", Value::from(id.to_string())),
                    ("stats", stats.to_value()),
                ])
            })
            .collect();
        Value::map([
            ("invoke", self.invoke.to_value()),
            ("script", self.script.to_value()),
            ("migrate", self.migrate.to_value()),
            ("persist", self.persist.to_value()),
            ("admission", self.admission.to_value()),
            ("shared", self.shared.to_value()),
            ("federation", self.federation.to_value()),
            ("net", self.net.to_value()),
            ("objects", Value::List(objects)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let mut h = Histogram::default();
        h.record(0); // bucket 0
        h.record(1); // bucket 0
        h.record(2); // bucket 1
        h.record(3); // bucket 1
        h.record(1024); // bucket 10
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1030);
        assert_eq!(h.mean(), 206);
        assert_eq!(h.buckets()[0], 2);
        assert_eq!(h.buckets()[1], 2);
        assert_eq!(h.buckets()[10], 1);
    }

    #[test]
    fn quantile_returns_bucket_upper_bounds() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0, "empty histogram has no quantiles");
        for _ in 0..90 {
            h.record(3); // bucket 1, upper bound 3
        }
        for _ in 0..10 {
            h.record(1000); // bucket 9, upper bound 1023
        }
        assert_eq!(h.quantile(0.50), 3);
        assert_eq!(h.quantile(0.90), 3);
        assert_eq!(h.quantile(0.95), 1023);
        assert_eq!(h.quantile(1.0), 1023);
        assert_eq!(h.quantile(0.0), 3, "q=0 clamps to the first sample");
    }

    #[test]
    fn merge_folds_counts_and_sums() {
        let mut a = Histogram::default();
        a.record(2);
        let mut b = Histogram::default();
        b.record(1024);
        b.record(1024);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 2050);
        assert_eq!(a.buckets()[1], 1);
        assert_eq!(a.buckets()[10], 2);
    }

    #[test]
    fn histogram_saturates_top_bucket() {
        let mut h = Histogram::default();
        h.record(u64::MAX);
        assert_eq!(h.buckets()[HISTOGRAM_BUCKETS - 1], 1);
    }

    #[test]
    fn registry_snapshot_has_all_subsystems() {
        let mut m = Metrics::default();
        m.invoke.invocations = 3;
        m.object_mut(ObjectId::SYSTEM).invocations = 3;
        let v = m.to_value();
        let Value::Map(entries) = &v else {
            panic!("snapshot must be a map")
        };
        let keys: Vec<&str> = entries.keys().map(String::as_str).collect();
        for key in [
            "invoke",
            "script",
            "migrate",
            "persist",
            "admission",
            "federation",
            "net",
            "objects",
        ] {
            assert!(keys.contains(&key), "missing subsystem {key}");
        }
    }

    #[test]
    fn object_stats_value_matches_schema() {
        let stats = ObjectStats {
            invocations: 2,
            last_method: "greet".into(),
            ..ObjectStats::default()
        };
        let Value::Map(entries) = stats.to_value() else {
            panic!("stats must be a map")
        };
        let keys: Vec<String> = entries.keys().cloned().collect();
        for (name, _) in ObjectStats::schema() {
            assert!(keys.contains(&(*name).to_owned()), "schema field {name}");
        }
    }
}

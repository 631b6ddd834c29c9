//! `TelemetrySnapshot`: the windowed profile the reflective
//! `getTelemetry` surface and `mrom-top --watch` consume.
//!
//! A snapshot folds the live epoch buckets of the sliding window
//! ([`WindowState`](crate::window::WindowState)) into three aggregates:
//!
//! * **hot objects** — per-receiver invocation count, error count, fuel
//!   p50/p95, wall latency p50/p95 (Full mode only), and the
//!   busy-collision count from the shared runtime;
//! * **call matrix** — `(src, dst)` site pairs: the diagonal counts
//!   invocations executed at a site, off-diagonal entries count
//!   cross-site `invoke_req` traffic;
//! * **link windows** — per-link delivered/dropped/bytes plus virtual
//!   wire-latency p50/p95.
//!
//! Everything is computed from integer counters bucketed by virtual
//! time, so a snapshot of a seeded simulation is a pure function of the
//! seed: [`TelemetrySnapshot::to_json`] is byte-identical across runs
//! (the determinism tests sweep this across the fleet engine's chaos
//! presets and seeds). The JSON
//! schema is versioned via the top-level `schema` key — see
//! docs/OBSERVABILITY.md for the field-by-field contract.

use std::collections::BTreeMap;

use mrom_value::{NodeId, ObjectId, Value};

use crate::json::to_json;
use crate::metrics::Histogram;
use crate::recorder::ObsMode;
use crate::window::{WindowConfig, WindowState};

/// The stable schema tag stamped on every snapshot.
pub const TELEMETRY_SCHEMA: &str = "mrom.telemetry.v1";

/// Windowed per-object profile aggregated across the live epochs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObjectProfile {
    /// Applications with this object as receiver inside the window.
    pub invocations: u64,
    /// Of those, how many returned an error.
    pub errors: u64,
    /// Total fuel consumed inside the window.
    pub fuel_total: u64,
    /// Median fuel per application (log-bucket upper bound).
    pub fuel_p50: u64,
    /// 95th-percentile fuel per application (log-bucket upper bound).
    pub fuel_p95: u64,
    /// Median wall latency in nanoseconds (0 unless Full mode ran).
    pub latency_p50_ns: u64,
    /// 95th-percentile wall latency in nanoseconds.
    pub latency_p95_ns: u64,
    /// Shared-runtime checkout collisions against this object.
    pub busy_collisions: u64,
    /// Remote invocation requests per requesting site (empty unless the
    /// window was configured with
    /// [`WindowConfig::with_callers`](crate::WindowConfig::with_callers)).
    pub remote_callers: BTreeMap<NodeId, u64>,
}

impl ObjectProfile {
    /// The site issuing the most remote invocations of this object,
    /// with its request count (ties broken toward the lower site id, so
    /// the answer is total and deterministic). `None` when no remote
    /// caller was recorded.
    #[must_use]
    pub fn dominant_remote_caller(&self) -> Option<(NodeId, u64)> {
        self.remote_callers
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
            .map(|(site, n)| (*site, *n))
    }

    /// Total remote invocation requests recorded against this object.
    #[must_use]
    pub fn remote_requests(&self) -> u64 {
        self.remote_callers.values().sum()
    }
    /// Busy-collision rate per thousand invocations (integer, so the
    /// snapshot stays byte-deterministic).
    #[must_use]
    pub fn busy_per_1k(&self) -> u64 {
        if self.invocations == 0 {
            return 0;
        }
        self.busy_collisions.saturating_mul(1000) / self.invocations
    }

    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("invocations", int(self.invocations)),
            ("errors", int(self.errors)),
            ("fuel_total", int(self.fuel_total)),
            ("fuel_p50", int(self.fuel_p50)),
            ("fuel_p95", int(self.fuel_p95)),
            ("latency_p50_ns", int(self.latency_p50_ns)),
            ("latency_p95_ns", int(self.latency_p95_ns)),
            ("busy_collisions", int(self.busy_collisions)),
            ("busy_per_1k", int(self.busy_per_1k())),
        ];
        // Only rendered when caller tracking actually recorded something,
        // so snapshots from untracked windows keep their exact pre-advisor
        // byte layout.
        if !self.remote_callers.is_empty() {
            let callers: Vec<Value> = self
                .remote_callers
                .iter()
                .map(|(site, n)| Value::map([("site", node_int(*site)), ("count", int(*n))]))
                .collect();
            fields.push(("callers", Value::List(callers)));
        }
        Value::map(fields)
    }
}

/// Windowed per-link profile aggregated across the live epochs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkProfile {
    /// Messages delivered over this link inside the window.
    pub delivered: u64,
    /// Messages dropped.
    pub dropped: u64,
    /// Payload bytes delivered.
    pub bytes: u64,
    /// Median virtual wire latency in microseconds.
    pub latency_p50_us: u64,
    /// 95th-percentile virtual wire latency in microseconds.
    pub latency_p95_us: u64,
}

impl LinkProfile {
    /// Delivery ratio per thousand attempts (integer-deterministic).
    #[must_use]
    pub fn delivered_per_1k(&self) -> u64 {
        let attempts = self.delivered + self.dropped;
        if attempts == 0 {
            return 0;
        }
        self.delivered.saturating_mul(1000) / attempts
    }

    fn to_value(&self) -> Value {
        Value::map([
            ("delivered", int(self.delivered)),
            ("dropped", int(self.dropped)),
            ("bytes", int(self.bytes)),
            ("latency_p50_us", int(self.latency_p50_us)),
            ("latency_p95_us", int(self.latency_p95_us)),
            ("delivered_per_1k", int(self.delivered_per_1k())),
        ])
    }
}

/// The aggregated window the reflective surface returns.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// Observability mode at snapshot time (stable lowercase name).
    pub mode: &'static str,
    /// Virtual clock at snapshot time, in microseconds.
    pub now_us: u64,
    /// Window shape, or `None` when windowing was not configured.
    pub window: Option<WindowConfig>,
    /// Newest epoch any sample landed in (0 when unwindowed).
    pub head_epoch: u64,
    /// Per-receiver profiles, keyed by object identity.
    pub objects: BTreeMap<ObjectId, ObjectProfile>,
    /// Site-to-site call matrix.
    pub calls: BTreeMap<(NodeId, NodeId), u64>,
    /// Per-link windowed delivery profiles.
    pub links: BTreeMap<(NodeId, NodeId), LinkProfile>,
}

impl TelemetrySnapshot {
    /// Folds the live window buckets into one snapshot. An unwindowed
    /// recorder yields an empty (but schema-complete) snapshot.
    #[must_use]
    pub fn collect(mode: ObsMode, now_us: u64, window: Option<&WindowState>) -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot {
            mode: mode.name(),
            now_us,
            window: window.map(WindowState::config),
            head_epoch: window.map_or(0, WindowState::head_epoch),
            ..TelemetrySnapshot::default()
        };
        let Some(window) = window else {
            return snap;
        };
        let mut fuel: BTreeMap<ObjectId, Histogram> = BTreeMap::new();
        let mut latency: BTreeMap<ObjectId, Histogram> = BTreeMap::new();
        let mut link_latency: BTreeMap<(NodeId, NodeId), Histogram> = BTreeMap::new();
        for bucket in window.live_buckets() {
            for (id, s) in &bucket.objects {
                let p = snap.objects.entry(*id).or_default();
                p.invocations += s.invocations;
                p.errors += s.errors;
                p.fuel_total += s.fuel.sum();
                p.busy_collisions += s.busy_collisions;
                for (site, n) in &s.remote_callers {
                    *p.remote_callers.entry(*site).or_insert(0) += n;
                }
                fuel.entry(*id).or_default().merge(&s.fuel);
                latency.entry(*id).or_default().merge(&s.latency_ns);
            }
            for (edge, n) in &bucket.calls {
                *snap.calls.entry(*edge).or_insert(0) += n;
            }
            for (edge, s) in &bucket.links {
                let p = snap.links.entry(*edge).or_default();
                p.delivered += s.delivered;
                p.dropped += s.dropped;
                p.bytes += s.bytes;
                link_latency.entry(*edge).or_default().merge(&s.latency_us);
            }
        }
        for (id, p) in &mut snap.objects {
            if let Some(h) = fuel.get(id) {
                p.fuel_p50 = h.quantile(0.50);
                p.fuel_p95 = h.quantile(0.95);
            }
            if let Some(h) = latency.get(id) {
                p.latency_p50_ns = h.quantile(0.50);
                p.latency_p95_ns = h.quantile(0.95);
            }
        }
        for (edge, p) in &mut snap.links {
            if let Some(h) = link_latency.get(edge) {
                p.latency_p50_us = h.quantile(0.50);
                p.latency_p95_us = h.quantile(0.95);
            }
        }
        snap
    }

    /// The `k` hottest objects by windowed invocation count (ties broken
    /// by object identity, so the order is total and stable).
    #[must_use]
    pub fn hot_objects(&self, k: usize) -> Vec<(ObjectId, &ObjectProfile)> {
        let mut all: Vec<(ObjectId, &ObjectProfile)> =
            self.objects.iter().map(|(id, p)| (*id, p)).collect();
        all.sort_by(|a, b| b.1.invocations.cmp(&a.1.invocations).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    /// Invocations *executed at* `node` inside the window — the
    /// diagonal of the call matrix, the per-site load figure the
    /// Advisor's shedding policy compares against the fleet mean.
    #[must_use]
    pub fn site_load(&self, node: NodeId) -> u64 {
        self.calls.get(&(node, node)).copied().unwrap_or(0)
    }

    /// Links whose windowed delivery ratio fell below
    /// `threshold_permille`, among links that carried at least
    /// `min_attempts` messages (so a single early drop cannot brand a
    /// quiet link degraded). Returns `(link, delivered_per_1k)` pairs in
    /// deterministic `BTreeMap` order — the Advisor's
    /// ambassador-refresh signal.
    #[must_use]
    pub fn degraded_links(
        &self,
        threshold_permille: u64,
        min_attempts: u64,
    ) -> Vec<((NodeId, NodeId), u64)> {
        self.links
            .iter()
            .filter(|(_, p)| p.delivered + p.dropped >= min_attempts.max(1))
            .map(|(edge, p)| (*edge, p.delivered_per_1k()))
            .filter(|(_, ratio)| *ratio < threshold_permille)
            .collect()
    }

    /// Restricts the snapshot to one site: objects passing `hosted`,
    /// matrix rows and links touching `node`. This is what
    /// `Federation::site_telemetry` serves.
    #[must_use]
    pub fn for_site(&self, node: NodeId, hosted: impl Fn(ObjectId) -> bool) -> TelemetrySnapshot {
        let mut out = self.clone();
        out.objects.retain(|id, _| hosted(*id));
        out.calls.retain(|(s, d), _| *s == node || *d == node);
        out.links.retain(|(s, d), _| *s == node || *d == node);
        out
    }

    /// Folds `other` into this snapshot — the fleet-level aggregation
    /// the `mrom-fleet` harness uses to combine per-site slices (from
    /// [`TelemetrySnapshot::for_site`] or per-process recorders) into
    /// one fleet view.
    ///
    /// Counters (invocations, errors, fuel totals, collisions, call
    /// matrix, link delivery/bytes) add; percentile fields are
    /// point-estimates that cannot be re-derived from two summaries, so
    /// the fold keeps the worst (maximum) observed value; the clock and
    /// head epoch advance to the newer of the two. Folding is
    /// commutative and deterministic, so a fold over `BTreeMap`-ordered
    /// slices is byte-stable.
    pub fn absorb(&mut self, other: &TelemetrySnapshot) {
        self.now_us = self.now_us.max(other.now_us);
        self.head_epoch = self.head_epoch.max(other.head_epoch);
        if self.window.is_none() {
            self.window = other.window;
        }
        for (id, p) in &other.objects {
            let mine = self.objects.entry(*id).or_default();
            mine.invocations += p.invocations;
            mine.errors += p.errors;
            mine.fuel_total += p.fuel_total;
            mine.fuel_p50 = mine.fuel_p50.max(p.fuel_p50);
            mine.fuel_p95 = mine.fuel_p95.max(p.fuel_p95);
            mine.latency_p50_ns = mine.latency_p50_ns.max(p.latency_p50_ns);
            mine.latency_p95_ns = mine.latency_p95_ns.max(p.latency_p95_ns);
            mine.busy_collisions += p.busy_collisions;
            for (site, n) in &p.remote_callers {
                *mine.remote_callers.entry(*site).or_insert(0) += n;
            }
        }
        for (pair, n) in &other.calls {
            *self.calls.entry(*pair).or_default() += n;
        }
        for (pair, p) in &other.links {
            let mine = self.links.entry(*pair).or_default();
            mine.delivered += p.delivered;
            mine.dropped += p.dropped;
            mine.bytes += p.bytes;
            mine.latency_p50_us = mine.latency_p50_us.max(p.latency_p50_us);
            mine.latency_p95_us = mine.latency_p95_us.max(p.latency_p95_us);
        }
    }

    /// The snapshot as a value tree on the stable `mrom.telemetry.v1`
    /// schema — the payload of the reflective `getTelemetry` meta-method.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let window = match &self.window {
            Some(cfg) => Value::map([
                ("epoch_micros", int(cfg.epoch_micros)),
                ("epochs", int(cfg.epochs as u64)),
                ("head_epoch", int(self.head_epoch)),
            ]),
            None => Value::Null,
        };
        let objects: Vec<Value> = self
            .objects
            .iter()
            .map(|(id, p)| {
                Value::map([
                    ("object", Value::from(id.to_string())),
                    ("profile", p.to_value()),
                ])
            })
            .collect();
        let calls: Vec<Value> = self
            .calls
            .iter()
            .map(|((src, dst), n)| {
                Value::map([
                    ("src", node_int(*src)),
                    ("dst", node_int(*dst)),
                    ("count", int(*n)),
                ])
            })
            .collect();
        let links: Vec<Value> = self
            .links
            .iter()
            .map(|((src, dst), p)| {
                Value::map([
                    ("src", node_int(*src)),
                    ("dst", node_int(*dst)),
                    ("profile", p.to_value()),
                ])
            })
            .collect();
        Value::map([
            ("schema", Value::from(TELEMETRY_SCHEMA)),
            ("mode", Value::from(self.mode)),
            ("now_us", int(self.now_us)),
            ("window", window),
            ("objects", Value::List(objects)),
            ("calls", Value::List(calls)),
            ("links", Value::List(links)),
        ])
    }

    /// Compact JSON encoding of [`TelemetrySnapshot::to_value`] —
    /// deterministic byte-for-byte for deterministic inputs.
    #[must_use]
    pub fn to_json(&self) -> String {
        to_json(&self.to_value())
    }
}

fn int(n: u64) -> Value {
    Value::Int(i64::try_from(n).unwrap_or(i64::MAX))
}

fn node_int(n: NodeId) -> Value {
    Value::Int(i64::try_from(n.0).unwrap_or(i64::MAX))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded_window() -> WindowState {
        let mut w = WindowState::new(WindowConfig::new(1000, 4));
        let a = ObjectId::SYSTEM;
        {
            let b = w.bucket_at(100).unwrap();
            let s = b.objects.entry(a).or_default();
            s.invocations = 3;
            s.fuel.record(10);
            s.fuel.record(100);
            s.fuel.record(100);
            s.busy_collisions = 1;
            *b.calls.entry((NodeId(1), NodeId(2))).or_insert(0) += 2;
            let l = b.links.entry((NodeId(1), NodeId(2))).or_default();
            l.delivered = 2;
            l.bytes = 64;
            l.latency_us.record(500);
        }
        {
            let b = w.bucket_at(1100).unwrap();
            let s = b.objects.entry(a).or_default();
            s.invocations = 2;
            s.errors = 1;
            s.fuel.record(100);
        }
        w
    }

    #[test]
    fn collect_folds_buckets_and_computes_quantiles() {
        let w = seeded_window();
        let snap = TelemetrySnapshot::collect(ObsMode::Ring, 1100, Some(&w));
        let p = snap.objects.get(&ObjectId::SYSTEM).unwrap();
        assert_eq!(p.invocations, 5);
        assert_eq!(p.errors, 1);
        assert_eq!(p.fuel_total, 310);
        // Samples 10,100,100,100: p50 and p95 land in the 100 bucket
        // (upper bound 127).
        assert_eq!(p.fuel_p50, 127);
        assert_eq!(p.fuel_p95, 127);
        assert_eq!(p.busy_collisions, 1);
        assert_eq!(snap.calls.get(&(NodeId(1), NodeId(2))), Some(&2));
        let l = snap.links.get(&(NodeId(1), NodeId(2))).unwrap();
        assert_eq!(l.delivered, 2);
        assert_eq!(l.delivered_per_1k(), 1000);
        assert_eq!(l.latency_p50_us, 511);
    }

    #[test]
    fn hot_objects_orders_by_count_then_id() {
        let mut snap = TelemetrySnapshot::default();
        let a = ObjectId::SYSTEM;
        snap.objects.entry(a).or_default().invocations = 5;
        let hot = snap.hot_objects(10);
        assert_eq!(hot.len(), 1);
        assert_eq!(hot[0].0, a);
        assert!(snap.hot_objects(0).is_empty());
    }

    #[test]
    fn json_is_deterministic_and_schema_stamped() {
        let w = seeded_window();
        let one = TelemetrySnapshot::collect(ObsMode::Ring, 1100, Some(&w)).to_json();
        let two = TelemetrySnapshot::collect(ObsMode::Ring, 1100, Some(&w)).to_json();
        assert_eq!(one, two);
        assert!(one.contains("\"schema\":\"mrom.telemetry.v1\""));
        assert!(one.contains("\"window\":{"));
    }

    #[test]
    fn unwindowed_snapshot_is_empty_but_complete() {
        let snap = TelemetrySnapshot::collect(ObsMode::Full, 7, None);
        assert!(snap.objects.is_empty());
        let json = snap.to_json();
        assert!(json.contains("\"window\":null"));
        assert!(json.contains("\"now_us\":7"));
    }

    #[test]
    fn for_site_filters_objects_and_edges() {
        let w = seeded_window();
        let snap = TelemetrySnapshot::collect(ObsMode::Ring, 1100, Some(&w));
        let site3 = snap.for_site(NodeId(3), |_| false);
        assert!(site3.objects.is_empty());
        assert!(site3.calls.is_empty());
        assert!(site3.links.is_empty());
        let site1 = snap.for_site(NodeId(1), |_| true);
        assert_eq!(site1.calls.len(), 1);
        assert_eq!(site1.links.len(), 1);
    }

    #[test]
    fn absorb_adds_counters_and_keeps_worst_percentiles() {
        let w = seeded_window();
        let snap = TelemetrySnapshot::collect(ObsMode::Ring, 1100, Some(&w));

        // A slice of a site the traffic never touched is empty, and
        // folding it in must round-trip the full picture unchanged.
        let mut folded = snap.for_site(NodeId(1), |_| true);
        folded.absorb(&snap.for_site(NodeId(3), |_| false));
        assert_eq!(folded.objects, snap.objects);
        assert_eq!(folded.calls, snap.calls);
        assert_eq!(folded.links, snap.links);
        assert_eq!(folded.now_us, snap.now_us);

        // Overlapping profiles: counters add, percentiles take the max.
        let mut twice = snap.clone();
        twice.absorb(&snap);
        let one = snap.objects.get(&ObjectId::SYSTEM).unwrap();
        let two = twice.objects.get(&ObjectId::SYSTEM).unwrap();
        assert_eq!(two.invocations, 2 * one.invocations);
        assert_eq!(two.fuel_total, 2 * one.fuel_total);
        assert_eq!(two.fuel_p95, one.fuel_p95);
        assert_eq!(
            twice.calls.get(&(NodeId(1), NodeId(2))),
            Some(&(2 * snap.calls[&(NodeId(1), NodeId(2))]))
        );
        let l1 = snap.links.get(&(NodeId(1), NodeId(2))).unwrap();
        let l2 = twice.links.get(&(NodeId(1), NodeId(2))).unwrap();
        assert_eq!(l2.bytes, 2 * l1.bytes);
        assert_eq!(l2.latency_p50_us, l1.latency_p50_us);
    }

    #[test]
    fn absorb_is_commutative_over_disjoint_slices() {
        let w = seeded_window();
        let snap = TelemetrySnapshot::collect(ObsMode::Ring, 1100, Some(&w));
        let a = snap.for_site(NodeId(1), |_| true);
        let b = snap.for_site(NodeId(3), |_| false);
        let mut ab = a.clone();
        ab.absorb(&b);
        let mut ba = b.clone();
        ba.absorb(&a);
        // Mode is a label, not an aggregate; compare the data fields.
        assert_eq!(ab.objects, ba.objects);
        assert_eq!(ab.calls, ba.calls);
        assert_eq!(ab.links, ba.links);
        assert_eq!(ab.to_json(), ba.to_json());
    }
}

//! `TelemetrySnapshot`: the windowed profile the reflective
//! `getTelemetry` surface and `mrom-top --watch` consume.
//!
//! A snapshot folds the live epoch buckets of the sliding window
//! ([`WindowState`](crate::window::WindowState)) into three aggregates:
//!
//! * **hot objects** — per-receiver invocation count, error count, fuel
//!   p50/p95, wall latency p50/p95 (Full mode only), and the
//!   busy-collision count from the site host's checkout;
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
    /// Checkout collisions (re-entrant cycles) against this object.
    pub busy_collisions: u64,
    /// Remote invocation requests per requesting site (empty unless the
    /// window was configured with
    /// [`WindowConfig::with_callers`](crate::WindowConfig::with_callers)).
    pub remote_callers: BTreeMap<NodeId, u64>,
}

impl ObjectProfile {
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
    ///
    /// Each bucket's maps are already sorted by key, so the fold gathers
    /// them, groups equal keys into runs (oldest bucket first), and builds
    /// each output map in one bulk pass from the sorted runs. A key seen
    /// in one bucket reads its quantiles straight off that bucket's
    /// histogram; only a key spread over several buckets merges them,
    /// into one reused stack histogram.
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
        let buckets = window.live_buckets();
        let mut merged = Histogram::default();
        snap.objects = fold_runs(buckets.iter().map(|b| &b.objects), |run| {
            let mut p = ObjectProfile::default();
            for s in run {
                p.invocations += s.invocations;
                p.errors += s.errors;
                p.fuel_total += s.fuel.sum();
                p.busy_collisions += s.busy_collisions;
            }
            (p.fuel_p50, p.fuel_p95) = quantiles(run, |s| &s.fuel, &mut merged);
            (p.latency_p50_ns, p.latency_p95_ns) = quantiles(run, |s| &s.latency_ns, &mut merged);
            p.remote_callers = match run {
                [one] => one.remote_callers.clone(),
                _ => {
                    let mut callers = BTreeMap::new();
                    for s in run {
                        for (site, n) in &s.remote_callers {
                            *callers.entry(*site).or_insert(0) += n;
                        }
                    }
                    callers
                }
            };
            p
        });
        snap.calls = fold_runs(buckets.iter().map(|b| &b.calls), |run| {
            run.iter().copied().sum()
        });
        snap.links = fold_runs(buckets.iter().map(|b| &b.links), |run| {
            let mut p = LinkProfile::default();
            for s in run {
                p.delivered += s.delivered;
                p.dropped += s.dropped;
                p.bytes += s.bytes;
            }
            (p.latency_p50_us, p.latency_p95_us) = quantiles(run, |s| &s.latency_us, &mut merged);
            p
        });
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
    /// `Federation::site_telemetry` serves. Filters in place; clone first
    /// to slice one snapshot more than once.
    #[must_use]
    pub fn for_site(
        mut self,
        node: NodeId,
        hosted: impl Fn(ObjectId) -> bool,
    ) -> TelemetrySnapshot {
        self.objects.retain(|id, _| hosted(*id));
        self.calls.retain(|(s, d), _| *s == node || *d == node);
        self.links.retain(|(s, d), _| *s == node || *d == node);
        self
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

/// Gathers the entries of every bucket's map (each already sorted by
/// key), groups equal keys into runs that keep bucket order, folds each
/// run with `fold`, and builds the output map from the sorted runs in one
/// bulk pass.
fn fold_runs<'w, K, V, P>(
    maps: impl Iterator<Item = &'w BTreeMap<K, V>>,
    mut fold: impl FnMut(&[&'w V]) -> P,
) -> BTreeMap<K, P>
where
    K: Ord + Copy + 'w,
    V: 'w,
{
    let mut entries: Vec<(K, &V)> = Vec::new();
    for map in maps {
        entries.extend(map.iter().map(|(k, v)| (*k, v)));
    }
    // Stable, so each run keeps bucket (oldest-first) order; one
    // non-empty bucket is already sorted and costs one linear check.
    entries.sort_by_key(|e| e.0);
    let mut run: Vec<&V> = Vec::new();
    let mut out: Vec<(K, P)> = Vec::with_capacity(entries.len());
    for group in entries.chunk_by(|a, b| a.0 == b.0) {
        run.clear();
        run.extend(group.iter().map(|e| e.1));
        out.push((group[0].0, fold(&run)));
    }
    // Already sorted and deduplicated: `collect` bulk-builds the map.
    out.into_iter().collect()
}

/// `(p50, p95)` of the histograms `hist` picks out of `run`: read
/// straight off the histogram when the run has one entry, otherwise off
/// their merge in `scratch`.
fn quantiles<V>(
    run: &[&V],
    hist: impl Fn(&V) -> &Histogram,
    scratch: &mut Histogram,
) -> (u64, u64) {
    let h = match run {
        [one] => hist(one),
        _ => {
            *scratch = Histogram::default();
            for v in run {
                scratch.merge(hist(v));
            }
            &*scratch
        }
    };
    (h.quantile(0.50), h.quantile(0.95))
}

fn int(n: u64) -> Value {
    Value::Int(i64::try_from(n).unwrap_or(i64::MAX))
}

fn node_int(n: NodeId) -> Value {
    Value::Int(i64::try_from(n.0).unwrap_or(i64::MAX))
}

#[cfg(test)]
impl TelemetrySnapshot {
    /// The fold as first written, one map insertion per bucket entry:
    /// the oracle the bulk-built [`TelemetrySnapshot::collect`] is
    /// checked against.
    pub(crate) fn collect_reference(
        mode: ObsMode,
        now_us: u64,
        window: Option<&WindowState>,
    ) -> TelemetrySnapshot {
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
        let site3 = snap.clone().for_site(NodeId(3), |_| false);
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
        let mut folded = snap.clone().for_site(NodeId(1), |_| true);
        folded.absorb(&snap.clone().for_site(NodeId(3), |_| false));
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
        let a = snap.clone().for_site(NodeId(1), |_| true);
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

    /// One window feed: `(kind, time step, object, src, dst, value)`.
    type Sample = (u8, u64, u8, u8, u8, u64);

    /// Feeds `samples` into a window the way the recorder does: time only
    /// moves forward, sometimes far enough to evict whole epochs, and
    /// late samples for evicted epochs are dropped.
    fn feed(cfg: WindowConfig, samples: &[Sample], latency: bool) -> (WindowState, u64) {
        let mut w = WindowState::new(cfg);
        let mut now = 0u64;
        for &(kind, step, obj, a, b, v) in samples {
            now += if step % 17 == 0 { step * 40 } else { step };
            let at = if kind % 9 == 8 {
                now.saturating_sub(step * 30)
            } else {
                now
            };
            let Some(bucket) = w.bucket_at(at) else {
                continue;
            };
            let id = ObjectId::from_parts(NodeId(5), u32::from(obj % 12), 0);
            let (src, dst) = (NodeId(u64::from(a % 6)), NodeId(u64::from(b % 6)));
            match kind % 5 {
                0 | 1 => {
                    let s = bucket.objects.entry(id).or_default();
                    s.invocations += 1;
                    s.errors += u64::from(v % 5 == 0);
                    s.fuel.record(v);
                    if latency {
                        s.latency_ns.record(v * 37 + 11);
                    }
                }
                2 => {
                    let s = bucket.objects.entry(id).or_default();
                    if cfg.track_callers {
                        *s.remote_callers.entry(src).or_insert(0) += 1;
                    } else {
                        s.busy_collisions += 1;
                    }
                }
                3 => *bucket.calls.entry((src, dst)).or_insert(0) += 1,
                _ => {
                    let l = bucket.links.entry((src, dst)).or_default();
                    if v % 7 == 0 {
                        l.dropped += 1;
                    } else {
                        l.delivered += 1;
                        l.bytes += v;
                        l.latency_us.record(v);
                    }
                }
            }
        }
        (w, now)
    }

    /// The fleet view rebuilt from per-site slices, as the fleet harness
    /// folds them.
    fn refold(snap: &TelemetrySnapshot) -> TelemetrySnapshot {
        let mut fleet = TelemetrySnapshot::default();
        for n in 0..6u64 {
            let hosted = |id: ObjectId| u64::from(id.seq()) % 6 == n;
            fleet.absorb(&snap.clone().for_site(NodeId(n), hosted));
        }
        fleet
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        #[test]
        fn bulk_fold_matches_the_reference_fold(
            epochs in 1usize..9,
            epoch_micros in 1u64..400,
            callers in proptest::prelude::any::<bool>(),
            latency in proptest::prelude::any::<bool>(),
            samples in proptest::collection::vec(
                (
                    proptest::prelude::any::<u8>(),
                    0u64..120,
                    proptest::prelude::any::<u8>(),
                    proptest::prelude::any::<u8>(),
                    proptest::prelude::any::<u8>(),
                    0u64..5000,
                ),
                0..160,
            ),
        ) {
            let mut cfg = WindowConfig::new(epoch_micros, epochs);
            if callers {
                cfg = cfg.with_callers();
            }
            let (w, now) = feed(cfg, &samples, latency);
            let mode = if latency { ObsMode::Full } else { ObsMode::Ring };
            let fast = TelemetrySnapshot::collect(mode, now, Some(&w));
            let slow = TelemetrySnapshot::collect_reference(mode, now, Some(&w));
            proptest::prop_assert_eq!(fast.to_json(), slow.to_json());
            proptest::prop_assert_eq!(&fast, &slow);
            proptest::prop_assert_eq!(refold(&fast).to_json(), refold(&slow).to_json());
        }
    }

    #[test]
    fn bulk_fold_matches_the_reference_on_edge_windows() {
        // Unwindowed, freshly configured (every slot a live empty epoch 0),
        // and one key spread over every bucket of a full window.
        assert_eq!(
            TelemetrySnapshot::collect(ObsMode::Ring, 9, None).to_json(),
            TelemetrySnapshot::collect_reference(ObsMode::Ring, 9, None).to_json()
        );
        let empty = WindowState::new(WindowConfig::new(10, 3).with_callers());
        assert_eq!(
            TelemetrySnapshot::collect(ObsMode::Ring, 0, Some(&empty)).to_json(),
            TelemetrySnapshot::collect_reference(ObsMode::Ring, 0, Some(&empty)).to_json()
        );
        let samples: Vec<Sample> = (0..40)
            .map(|i| (i % 5, 3, 1, i, 2, u64::from(i) * 31))
            .collect();
        let (w, now) = feed(WindowConfig::new(25, 4).with_callers(), &samples, true);
        assert!(w.live_buckets().len() > 1);
        let fast = TelemetrySnapshot::collect(ObsMode::Full, now, Some(&w));
        assert_eq!(fast.objects.len(), 1);
        assert_eq!(
            fast.to_json(),
            TelemetrySnapshot::collect_reference(ObsMode::Full, now, Some(&w)).to_json()
        );
    }
}

//! The measured (untraced) run: repeated set-ups, half-second segments
//! (or episodes) with their own calibration, the exact window, and the
//! end-to-end metrics.

use std::time::{Duration, Instant};

use crate::calib;
use crate::hist::Histogram;
use crate::workload::{configure_obs, elapsed_ns, Client, Kind, OpRecord, Workload};

/// Wall time of one measured segment; a run has `seconds / SEGMENT_S`
/// of them (at least `MIN_SEGMENTS`).
const SEGMENT_S: f64 = 0.5;
const MIN_SEGMENTS: usize = 4;

/// Set-ups timed per run for `setup_s`: at least `MIN_SETUPS`, and up
/// to `MAX_SETUPS` while their total stays within `SETUP_BUDGET`.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// Wall-clock figures reported in the detail line only. The per-kind
/// tails' run-to-run spread on a shared host exceeds any bound that would
/// still catch a regression (`op_p99_us` stays gated as the tail over all
/// kinds), and the median over all kinds sits wherever the mix of kinds
/// puts it, which moves with the seed more than with the code.
const DETAIL_ONLY: [&str; 6] = [
    "op_p50_us",
    "op_p90_us",
    "remote_invoke_p90_us",
    "remote_invoke_p99_us",
    "migrate_p90_us",
    "migrate_p99_us",
];

/// Minimum episodes per run for episodic workloads.
const MIN_EPISODES: usize = 3;

/// What one run asks for.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed every input is drawn from.
    pub seed: u64,
    /// Wall seconds to measure for.
    pub seconds: f64,
    /// Smoke size (tests).
    pub smoke: bool,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The value (calibrated for wall-clock metrics).
    pub value: f64,
    /// The uncalibrated value, for wall-clock metrics.
    pub raw: Option<f64>,
    /// Samples behind the value.
    pub n: u64,
    /// `false` when a tail percentile has fewer than ten samples beyond it.
    pub supported: bool,
    /// Whether the metric is in the result line (and so in
    /// `BENCHMARK.json`); the rest are diagnostics in the detail line.
    pub gated: bool,
}

/// The outcome of one run, measured or traced.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Seed.
    pub seed: u64,
    /// Whether the run was traced.
    pub traced: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops the program reported as failed.
    pub failed: u64,
    /// Invariant violations (empty = correct).
    pub violations: Vec<String>,
    /// Behaviour hash over the exact window.
    pub hash: u64,
    /// Segments (or episodes) measured.
    pub segments: usize,
    /// Ops in the exact window.
    pub exact_ops: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// The scale the run's median kernel slice gives (a diagnostic: each
    /// figure is scaled by its own segments' kernels).
    pub factor: f64,
    /// Kernel slices behind the factor.
    pub calibration_samples: usize,
    /// Human-readable lines for the stderr table.
    pub notes: Vec<String>,
}

impl Report {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    pub(crate) fn push(&mut self, name: &'static str, unit: &'static str, value: f64, n: u64) {
        self.metrics.push(Metric {
            name,
            unit,
            value,
            raw: None,
            n,
            supported: true,
            gated: true,
        });
    }
}

/// One measured segment: its median kernel slice, wall time, ops, and
/// latency histograms (all ops, then one per [`Kind`]).
#[derive(Default)]
struct Segment {
    kernel_ns: f64,
    wall_ns: u64,
    ops: u64,
    hists: [Histogram; 4],
}

fn slot(kind: Kind) -> usize {
    match kind {
        Kind::Local => 1,
        Kind::Remote => 2,
        Kind::Migrate => 3,
    }
}

/// Virtual-time and byte accounting over the exact window.
#[derive(Default)]
struct Exact {
    remote_virt: Vec<u64>,
    migrate_virt: Vec<u64>,
    late_virt: Vec<u64>,
    bytes: u64,
    ops: u64,
}

impl Exact {
    fn record(&mut self, r: &OpRecord, limit: u64) {
        if self.ops >= limit {
            return;
        }
        match r.op.kind() {
            Kind::Remote => self.remote_virt.push(r.virt_us),
            Kind::Migrate => self.migrate_virt.push(r.virt_us),
            Kind::Local => {}
        }
        if r.op.kind() != Kind::Migrate && self.ops >= limit - limit / 4 {
            self.late_virt.push(r.virt_us);
        }
        self.bytes += r.bytes;
        self.ops += 1;
    }
}

/// Exact nearest-rank percentile.
pub fn percentile(values: &mut [u64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable();
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1] as f64
}

/// Median of a slice (mean of the middle pair when even; 0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// The quietest half of `items` by kernel time (at least one).
fn quiet<T>(items: &[T], kernel: impl Fn(&T) -> f64) -> Vec<&T> {
    let mut sorted: Vec<&T> = items.iter().collect();
    sorted.sort_by(|a, b| kernel(a).total_cmp(&kernel(b)));
    sorted.truncate(items.len().div_ceil(2).max(1));
    sorted
}

/// The quartile of `values` on the better side: contention only ever
/// slows a run down, so this is what the code does when the host lets it.
fn better_quartile(mut values: Vec<f64>, higher_is_better: bool) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let k = values.len() / 4;
    if higher_is_better {
        values[values.len() - 1 - k]
    } else {
        values[k]
    }
}

/// Runs one measured run of `cfg` and returns its report.
///
/// # Errors
///
/// Set-up or recovery calls the program refused.
pub fn run(cfg: RunConfig) -> Result<Report, String> {
    let w = cfg.workload;
    let sizes = w.sizes(cfg.smoke);
    let mut report = Report {
        workload: w.name(),
        seed: cfg.seed,
        ..Report::default()
    };
    let mut cal = calib::Calibrator::new();
    // (raw seconds, kernel ns) per set-up.
    let mut setups: Vec<(f64, f64)> = Vec::new();
    let timed_setup =
        |cal: &mut calib::Calibrator, setups: &mut Vec<(f64, f64)>| -> Result<Client, String> {
            cal.begin();
            configure_obs(w, false);
            let start = Instant::now();
            let d = Client::setup(w, sizes, cfg.seed)?;
            let raw = elapsed_ns(start) as f64 / 1e9;
            cal.tick();
            setups.push((raw, cal.interval_ns()));
            Ok(d)
        };

    let mut segments: Vec<Segment> = Vec::new();
    let mut exact = Exact::default();
    let count = ((cfg.seconds / SEGMENT_S).round() as usize).max(MIN_SEGMENTS);
    let budget = Duration::from_secs_f64(cfg.seconds / count as f64);
    let record_all = |seg: &mut Segment, exact: &mut Exact, records: &[OpRecord], limit: u64| {
        for r in records {
            seg.hists[0].record(r.wall_ns);
            seg.hists[slot(r.op.kind())].record(r.wall_ns);
            exact.record(r, limit);
        }
        seg.ops += records.len() as u64;
    };

    // Several set-ups for a steady `setup_s`: at least five, more while
    // they stay cheap. A continuous workload measures the last one.
    let started = Instant::now();
    let mut d = timed_setup(&mut cal, &mut setups)?;
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && started.elapsed() < SETUP_BUDGET)
    {
        drop(d);
        d = timed_setup(&mut cal, &mut setups)?;
    }

    if w.episodic() {
        // Each segment is one fresh episode of the same seeded op stream.
        drop(d);
        let run_start = Instant::now();
        let limit = sizes.episode_ops;
        while segments.len() < MIN_EPISODES
            || (run_start.elapsed().as_secs_f64() < cfg.seconds && segments.len() < 2 * count)
        {
            let mut d = timed_setup(&mut cal, &mut setups)?;
            cal.begin();
            let mut seg = Segment::default();
            let mut ep_exact = Exact::default();
            let mut sliced = 0;
            let start = Instant::now();
            while d.ops < limit {
                d.step()?;
                record_all(&mut seg, &mut ep_exact, &d.records, limit);
                sliced += cal.tick();
            }
            seg.wall_ns = elapsed_ns(start) - sliced;
            seg.kernel_ns = cal.interval_ns();
            report.attempted += d.ops;
            report.failed += d.failed;
            let hash = d.prefix_hash.unwrap_or(d.hash);
            let violations = d.finish()?;
            if segments.is_empty() {
                report.hash = hash;
                exact = ep_exact;
            } else if hash != report.hash {
                report.violations.push(format!(
                    "episode {} diverged from episode 0 (same seed)",
                    segments.len()
                ));
            }
            report.violations.extend(violations);
            segments.push(seg);
        }
    } else {
        let limit = sizes.exact_ops;
        for s in 0..count {
            cal.begin();
            let mut seg = Segment::default();
            let mut sliced = 0;
            let start = Instant::now();
            loop {
                d.step()?;
                record_all(&mut seg, &mut exact, &d.records, limit);
                sliced += cal.tick();
                if start.elapsed() >= budget && (s + 1 < count || d.ops >= limit) {
                    break;
                }
            }
            seg.wall_ns = elapsed_ns(start) - sliced;
            seg.kernel_ns = cal.interval_ns();
            segments.push(seg);
        }
        report.hash = d.prefix_hash.unwrap_or(d.hash);
        report.attempted = d.ops;
        report.failed = d.failed;
        report.violations.extend(d.finish()?);
    }
    report.factor = calib::scale(cal.run_ns());
    report.calibration_samples = cal.count();
    report.segments = segments.len();
    report.exact_ops = exact.ops;

    // -- end-to-end metrics ----------------------------------------------
    let calm = quiet(&segments, |s| s.kernel_ns);
    let ops_rate = |s: &Segment| s.ops as f64 / (s.wall_ns as f64 / 1e9);
    let total_ops: u64 = segments.iter().map(|s| s.ops).sum();
    report.metrics.push(Metric {
        name: "ops_per_s",
        unit: "ops/s",
        value: better_quartile(
            calm.iter()
                .map(|s| ops_rate(s) / calib::scale(s.kernel_ns))
                .collect(),
            true,
        ),
        raw: Some(median(&segments.iter().map(ops_rate).collect::<Vec<_>>())),
        n: total_ops,
        supported: true,
        gated: true,
    });
    let latency = |name: &'static str, slot: usize, q: f64| -> Metric {
        let supports = |h: &Histogram| {
            if q <= 0.5 {
                h.count() > 0
            } else {
                h.supports(q)
            }
        };
        let mut all = Histogram::default();
        for s in &segments {
            all.merge(&s.hists[slot]);
        }
        // Per-segment quantiles when every quiet segment can support one;
        // otherwise the quantile of the quiet segments pooled.
        let value = if calm.iter().all(|s| supports(&s.hists[slot])) {
            better_quartile(
                calm.iter()
                    .map(|s| s.hists[slot].quantile(q).unwrap_or(0.0) * calib::scale(s.kernel_ns))
                    .collect(),
                false,
            )
        } else {
            let mut pooled = Histogram::default();
            for s in &calm {
                pooled.merge(&s.hists[slot]);
            }
            let scale = median(
                &calm
                    .iter()
                    .map(|s| calib::scale(s.kernel_ns))
                    .collect::<Vec<_>>(),
            );
            pooled.quantile(q).unwrap_or(0.0) * scale
        };
        Metric {
            name,
            unit: "us",
            value: value / 1e3,
            raw: Some(all.quantile(q).unwrap_or(0.0) / 1e3),
            n: all.count(),
            supported: supports(&all),
            gated: !DETAIL_ONLY.contains(&name),
        }
    };
    report.metrics.push(latency("op_p50_us", 0, 0.5));
    report.metrics.push(latency("op_p90_us", 0, 0.9));
    report.metrics.push(latency("op_p99_us", 0, 0.99));
    report.metrics.push(latency("local_invoke_p50_us", 1, 0.5));
    report.metrics.push(latency("remote_invoke_p50_us", 2, 0.5));
    report.metrics.push(latency("remote_invoke_p90_us", 2, 0.9));
    report
        .metrics
        .push(latency("remote_invoke_p99_us", 2, 0.99));
    report.metrics.push(latency("migrate_p50_us", 3, 0.5));
    report.metrics.push(latency("migrate_p90_us", 3, 0.9));
    report.metrics.push(latency("migrate_p99_us", 3, 0.99));
    let virt = |name: &'static str, values: &mut Vec<u64>, q: f64| -> Metric {
        let n = values.len() as u64;
        Metric {
            name,
            unit: "virt_us",
            value: percentile(values, q),
            raw: None,
            n,
            supported: n as f64 * (1.0 - q) >= 10.0,
            gated: true,
        }
    };
    report.metrics.push(virt(
        "remote_invoke_virt_p99_us",
        &mut exact.remote_virt,
        0.99,
    ));
    report
        .metrics
        .push(virt("migrate_virt_p95_us", &mut exact.migrate_virt, 0.95));
    report
        .metrics
        .push(virt("late_virt_p95_us", &mut exact.late_virt, 0.95));
    report.push(
        "wire_bytes_per_op",
        "B",
        exact.bytes as f64 / exact.ops.max(1) as f64,
        exact.ops,
    );
    let calm_setups = quiet(&setups, |s| s.1);
    report.metrics.push(Metric {
        name: "setup_s",
        unit: "s",
        value: better_quartile(
            calm_setups
                .iter()
                .map(|s| s.0 * calib::scale(s.1))
                .collect(),
            false,
        ),
        raw: Some(median(&setups.iter().map(|s| s.0).collect::<Vec<_>>())),
        n: setups.len() as u64,
        supported: true,
        gated: true,
    });
    report.push(
        "peak_rss_mib",
        "MiB",
        calib::peak_rss_mib().unwrap_or(0.0),
        1,
    );
    Ok(report)
}

//! Offline stand-in for `criterion`.
//!
//! Unlike the marker-only stubs, this one actually measures: each
//! benchmark is warmed up, then timed over `sample_size` samples with the
//! per-sample iteration count calibrated so a sample lasts ~2 ms, and the
//! median ns/iter is reported. Set `MROM_BENCH_JSON=<path>` to append one
//! JSON line per benchmark — the repo's bench tables are built from that.
//!
//! No statistics beyond median/min/max are computed; this is a regression
//! harness, not an estimator with confidence intervals.
//!
//! Given `--test` (as in `cargo bench -- --test`), each benchmark routine
//! runs once, untimed and unreported, so a smoke run executes every loop
//! body. `--list` runs nothing.

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Identifier for a parameterised benchmark, rendered as `function/param`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Builds an id from a function name and a displayed parameter.
    pub fn new<S: Into<String>, P: Display>(function_name: S, parameter: P) -> BenchmarkId {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// Builds an id from a parameter alone.
    pub fn from_parameter<P: Display>(parameter: P) -> BenchmarkId {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

/// Anything usable as a benchmark name.
pub trait IntoBenchmarkId {
    /// The rendered benchmark id.
    fn into_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_id(self) -> String {
        self.id
    }
}

impl IntoBenchmarkId for &str {
    fn into_id(self) -> String {
        self.to_owned()
    }
}

impl IntoBenchmarkId for String {
    fn into_id(self) -> String {
        self
    }
}

/// Throughput annotation (recorded in the JSON line, not used to scale the
/// printed time).
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

/// Timing loop handle passed to the benchmark closure.
pub struct Bencher {
    iters: u64,
}

impl Bencher {
    /// Runs `routine` once per calibrated outer iteration; the harness
    /// times the enclosing call, so no clock is read here.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        for _ in 0..self.iters {
            black_box(routine());
        }
    }

    /// Like [`Bencher::iter`], with a per-iteration setup whose cost is
    /// (unlike real criterion) included in the sample — the stub has no
    /// per-call clock to subtract it with. Comparisons between benches
    /// that share the same setup remain meaningful.
    pub fn iter_with_setup<S, I, O, R>(&mut self, mut setup: S, mut routine: R)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        for _ in 0..self.iters {
            let input = setup();
            black_box(routine(input));
        }
    }
}

/// One benchmark's aggregated result.
#[derive(Debug, Clone)]
struct Sampled {
    median_ns: f64,
    min_ns: f64,
    max_ns: f64,
    iters_per_sample: u64,
    samples: usize,
}

fn run_sampled<O, R: FnMut() -> O>(sample_size: usize, mut routine: R) -> Sampled {
    // Warm up for ~100 ms while estimating the per-iteration cost.
    let warmup = Duration::from_millis(100);
    let start = Instant::now();
    let mut warm_iters: u64 = 0;
    while start.elapsed() < warmup {
        black_box(routine());
        warm_iters += 1;
    }
    let per_iter = start.elapsed().as_nanos() as f64 / warm_iters.max(1) as f64;

    // Aim for ~2 ms per sample so cheap ops still get a stable reading.
    let target_sample_ns = 2_000_000.0;
    let iters = ((target_sample_ns / per_iter.max(0.1)) as u64).clamp(1, 50_000_000);

    let mut per_iter_ns: Vec<f64> = Vec::with_capacity(sample_size);
    for _ in 0..sample_size {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(routine());
        }
        per_iter_ns.push(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    per_iter_ns.sort_by(|a, b| a.total_cmp(b));
    let median_ns = if per_iter_ns.len() % 2 == 1 {
        per_iter_ns[per_iter_ns.len() / 2]
    } else {
        let hi = per_iter_ns.len() / 2;
        (per_iter_ns[hi - 1] + per_iter_ns[hi]) / 2.0
    };
    Sampled {
        median_ns,
        min_ns: per_iter_ns[0],
        max_ns: *per_iter_ns.last().expect("sample_size > 0"),
        iters_per_sample: iters,
        samples: per_iter_ns.len(),
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1_000_000_000.0 {
        format!("{:.4} s", ns / 1_000_000_000.0)
    } else if ns >= 1_000_000.0 {
        format!("{:.4} ms", ns / 1_000_000.0)
    } else if ns >= 1_000.0 {
        format!("{:.4} µs", ns / 1_000.0)
    } else {
        format!("{ns:.4} ns")
    }
}

fn report(full: &str, throughput: Option<Throughput>, s: &Sampled) {
    println!(
        "{full:<48} time: [{} {} {}]  ({} samples x {} iters)",
        fmt_ns(s.min_ns),
        fmt_ns(s.median_ns),
        fmt_ns(s.max_ns),
        s.samples,
        s.iters_per_sample
    );
    if let Ok(path) = std::env::var("MROM_BENCH_JSON") {
        if !path.is_empty() {
            use std::io::Write as _;
            let tp = match throughput {
                Some(Throughput::Bytes(b)) => format!(",\"throughput_bytes\":{b}"),
                Some(Throughput::Elements(e)) => format!(",\"throughput_elems\":{e}"),
                None => String::new(),
            };
            let line = format!(
                "{{\"bench\":\"{full}\",\"median_ns\":{:.2},\"min_ns\":{:.2},\"max_ns\":{:.2},\"samples\":{},\"iters\":{}{tp}}}\n",
                s.median_ns, s.min_ns, s.max_ns, s.samples, s.iters_per_sample
            );
            if let Ok(mut f) = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
            {
                let _ = f.write_all(line.as_bytes());
            }
        }
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
    criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets how many timed samples to take per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Annotates subsequent benchmarks with a throughput figure.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs one benchmark in this group.
    pub fn bench_function<I: IntoBenchmarkId, F: FnMut(&mut Bencher)>(
        &mut self,
        id: I,
        mut f: F,
    ) -> &mut Self {
        let id = id.into_id();
        self.run(&id, || f(&mut Bencher { iters: 1 }));
        self
    }

    /// Runs one benchmark that closes over an input value.
    pub fn bench_with_input<I: IntoBenchmarkId, T: ?Sized, F: FnMut(&mut Bencher, &T)>(
        &mut self,
        id: I,
        input: &T,
        mut f: F,
    ) -> &mut Self {
        let id = id.into_id();
        self.run(&id, || f(&mut Bencher { iters: 1 }, input));
        self
    }

    fn run(&mut self, id: &str, routine: impl FnMut()) {
        let full = format!("{}/{id}", self.name);
        if let Some(sampled) = self.criterion.measure(&full, self.sample_size, routine) {
            report(&full, self.throughput, &sampled);
        }
    }

    /// Ends the group (kept for API compatibility; no summary is emitted).
    pub fn finish(self) {}
}

/// Top-level harness handle, one per bench binary.
#[derive(Default)]
pub struct Criterion {
    sample_size: usize,
    test_mode: bool,
}

impl Criterion {
    /// A harness configured from the command line: `--test` selects test
    /// mode (each routine runs once, untimed and unreported).
    pub fn from_args() -> Criterion {
        Criterion {
            test_mode: std::env::args().any(|a| a == "--test"),
            ..Criterion::default()
        }
    }

    /// Times `routine` over `samples` samples, or in test mode runs it
    /// once and returns `None`.
    fn measure(&self, full: &str, samples: usize, mut routine: impl FnMut()) -> Option<Sampled> {
        if self.test_mode {
            routine();
            println!("test {full} ... ok");
            return None;
        }
        Some(run_sampled(samples, routine))
    }

    /// Sets the default sample count for `bench_function`.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group<S: Into<String>>(&mut self, name: S) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: if self.sample_size == 0 {
                30
            } else {
                self.sample_size
            },
            throughput: None,
            criterion: self,
        }
    }

    /// Runs one ungrouped benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        let samples = if self.sample_size == 0 {
            30
        } else {
            self.sample_size
        };
        if let Some(sampled) = self.measure(id, samples, || f(&mut Bencher { iters: 1 })) {
            report(id, None, &sampled);
        }
        self
    }
}

/// Declares a group function that runs each target against one `Criterion`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        #[doc = "Benchmark group runner (generated by `criterion_group!`)."]
        pub fn $name() {
            let mut criterion = $crate::Criterion::from_args();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the bench binary's `main`, running every listed group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `--list` runs nothing; `--test` runs each routine once (see
            // `Criterion::from_args`).
            if std::env::args().any(|a| a == "--list") {
                return;
            }
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_loop_produces_positive_median() {
        let mut c = Criterion::default();
        c.sample_size(3);
        let mut g = c.benchmark_group("stub-selftest");
        g.sample_size(3);
        g.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        g.finish();
    }

    #[test]
    fn test_mode_runs_each_routine_once() {
        let mut c = Criterion {
            test_mode: true,
            ..Criterion::default()
        };
        let mut calls = 0;
        let mut g = c.benchmark_group("stub-test-mode");
        g.bench_function("grouped", |b| b.iter(|| calls += 1));
        g.bench_with_input("with_input", &2, |b, n| b.iter(|| calls += n));
        g.finish();
        c.bench_function("ungrouped", |b| b.iter_with_setup(|| 4, |n| calls += n));
        assert_eq!(calls, 7);
    }

    #[test]
    fn benchmark_id_renders() {
        assert_eq!(BenchmarkId::new("lookup", 32).into_id(), "lookup/32");
        assert_eq!(BenchmarkId::from_parameter(7).into_id(), "7");
    }
}

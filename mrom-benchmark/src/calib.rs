//! Wall-clock calibration against a fixed reference kernel, and process
//! memory.
//!
//! Identical runs on a shared host drift by tens of percent as neighbours
//! come and go. The benchmark therefore times a std-only reference kernel
//! in short slices interleaved with the workload (one about every 10 ms,
//! plus a burst before each set-up and segment), so the kernel samples
//! the host in the same moments the workload runs in, on the same core.
//! Contention only ever slows a run down, so each wall-clock figure is
//! taken from the quietest half of the run's intervals (segments, or
//! set-ups) by their median slice time, each scaled by
//! `(NOMINAL_SLICE_NS / median slice)^SENSITIVITY`; slice time is
//! excluded from the interval it interrupts.
//!
//! The kernel allocates nothing while timed and runs once untimed first,
//! so it measures the host rather than the heap or cache state the
//! program leaves behind: a change to the program's memory behaviour
//! must not move the calibration. It is also more sensitive to host
//! contention than the workloads are — across 40 paired runs the
//! workloads' log wall time grew with slope 0.14–0.75 (median 0.5) of
//! the kernel's — hence the exponent. README.md has the measurements.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::rng::SplitMix64;
use crate::workload::elapsed_ns;

/// The kernel slice's median time on the host the bounds were set on (a
/// 2-vCPU container on a 2.1 GHz Xeon, see README.md). Any fixed value
/// works: it only sets the scale every calibrated figure is expressed in.
pub const NOMINAL_SLICE_NS: f64 = 22_500.0;

/// How strongly workload wall time follows kernel time (the measured
/// slope of one log on the other).
const SENSITIVITY: f64 = 0.5;

/// Lookup-and-copy steps per slice (about 22 µs on the reference host).
const SLICE_OPS: u64 = 1200;

/// Wall time between interleaved slices.
const SLICE_EVERY: Duration = Duration::from_millis(10);

/// Slices in a burst (before a set-up or a segment).
const BURST: usize = 20;

/// Sorted keys and a scratch buffer, allocated once per thread so the
/// timed kernel never touches the heap (whose state the program shapes).
struct Arena {
    keys: Vec<u64>,
    buf: Vec<u8>,
}

thread_local! {
    static ARENA: std::cell::RefCell<Arena> = std::cell::RefCell::new({
        let mut rng = SplitMix64::new(0x00C0_FFEE);
        let mut keys: Vec<u64> = (0..4096).map(|_| rng.next_u64()).collect();
        keys.sort_unstable();
        Arena { keys, buf: rng.bytes(32 * 1024) }
    });
}

/// Ordered-index lookups, hashing and small copies over a working set
/// that fits the core's private caches: the shape of the program's map
/// and codec work.
fn kernel() -> u64 {
    ARENA.with(|arena| {
        let mut arena = arena.borrow_mut();
        let Arena { keys, buf } = &mut *arena;
        let mut rng = SplitMix64::new(0x5EED);
        let mut acc = 0u64;
        for _ in 0..SLICE_OPS {
            let h = rng.next_u64();
            let at = keys.partition_point(|&k| k < h);
            let from = (h as usize >> 8) % (buf.len() - 64);
            let to = (h as usize >> 24) % (buf.len() - 64);
            buf.copy_within(from..from + 48, to);
            acc = acc.wrapping_add(at as u64 ^ u64::from(buf[to]));
        }
        black_box(acc)
    })
}

/// Runs one kernel slice and returns its wall time in ns. The kernel
/// runs once untimed first, so the timed pass finds warm caches and
/// measures the host rather than whatever state the program left behind.
pub fn slice_ns() -> f64 {
    black_box(kernel());
    let start = Instant::now();
    black_box(kernel());
    elapsed_ns(start) as f64
}

/// The factor converting wall time measured while the kernel slice took
/// `kernel_ns` (median) into calibrated time.
pub fn scale(kernel_ns: f64) -> f64 {
    (NOMINAL_SLICE_NS / kernel_ns.max(1.0)).powf(SENSITIVITY)
}

/// Collects a run's kernel slices.
pub struct Calibrator {
    samples: Vec<f64>,
    mark: usize,
    last: Instant,
}

impl Calibrator {
    /// An empty calibrator.
    pub fn new() -> Calibrator {
        Calibrator {
            samples: Vec::new(),
            mark: 0,
            last: Instant::now(),
        }
    }

    /// Starts a new interval and takes a burst of slices for it.
    pub fn begin(&mut self) {
        self.mark = self.samples.len();
        for _ in 0..BURST {
            self.samples.push(slice_ns());
        }
        self.last = Instant::now();
    }

    /// Takes a slice if one is due; returns the wall ns it took (0 when
    /// none was due) so the caller can exclude it from its own timing.
    pub fn tick(&mut self) -> u64 {
        if self.last.elapsed() < SLICE_EVERY {
            return 0;
        }
        let start = Instant::now();
        self.samples.push(slice_ns());
        self.last = Instant::now();
        elapsed_ns(start)
    }

    /// Median slice time since the last [`Calibrator::begin`].
    pub fn interval_ns(&self) -> f64 {
        crate::measure::median(&self.samples[self.mark..])
    }

    /// Median slice time over the whole run.
    pub fn run_ns(&self) -> f64 {
        crate::measure::median(&self.samples)
    }

    /// Slices taken so far.
    pub fn count(&self) -> usize {
        self.samples.len()
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

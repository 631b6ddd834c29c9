//! Fixed-size log-linear latency histograms.
//!
//! Values below 128 get a bucket each; above that, every power of two is
//! split into 128 equal buckets, so a bucket is at most 1/128 of its value
//! wide and the midpoint reported for it is within 0.4% of any sample in
//! it. The size never changes with the sample count, so the benchmark's
//! own memory stays constant and `peak_rss_mib` measures the program.

const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// Counts of `u64` samples (nanoseconds or virtual microseconds).
#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u32]>,
    total: u64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Histogram {{ total: {} }}", self.total)
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let shift = exp - SUB_BITS;
    let sub = ((v >> shift) as usize) & (SUB - 1);
    SUB + shift as usize * SUB + sub
}

/// The midpoint of a bucket: the value reported for its samples.
fn bucket_value(b: usize) -> f64 {
    if b < SUB {
        return b as f64;
    }
    let shift = (b - SUB) / SUB;
    let sub = (b - SUB) % SUB;
    let low = ((SUB + sub) as u64) << shift;
    low as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let slot = &mut self.counts[bucket_of(v)];
        *slot = slot.saturating_add(1);
        self.total += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.saturating_add(*b);
        }
        self.total += other.total;
    }

    /// Whether at least ten samples lie beyond quantile `q`, the rule
    /// for reporting a tail percentile.
    pub fn supports(&self, q: f64) -> bool {
        self.total as f64 * (1.0 - q) >= 10.0
    }

    /// The nearest-rank quantile `q` in `(0, 1]`, or `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return Some(bucket_value(b));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn quantiles_match_an_exact_sort_within_one_percent() {
        let mut rng = SplitMix64::new(11);
        let mut samples: Vec<u64> = (0..50_000)
            .map(|_| {
                // Log-uniform over six decades, like op latencies in ns.
                let e = rng.unit() * 6.0 + 2.0;
                10f64.powf(e) as u64
            })
            .collect();
        let mut h = Histogram::default();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let exact = samples[rank - 1] as f64;
            let approx = h.quantile(q).expect("non-empty");
            assert!(
                (approx - exact).abs() <= exact * 0.01,
                "q={q}: exact {exact}, histogram {approx}"
            );
        }
    }

    #[test]
    fn small_values_are_exact_and_merge_adds() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for v in 0..100 {
            a.record(v);
            b.record(v);
        }
        assert_eq!(a.quantile(0.5), Some(49.0));
        a.merge(&b);
        assert_eq!(a.count(), 200);
        assert!(a.supports(0.9) && !a.supports(0.99));
        assert_eq!(Histogram::default().quantile(0.5), None);
    }
}

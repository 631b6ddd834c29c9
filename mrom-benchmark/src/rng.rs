//! The benchmark's own pseudo-random generator (splitmix64) and Zipf
//! table.
//!
//! Every input the benchmark feeds the program is drawn from here, so no
//! change to the program's generators can move the workloads.

/// A splitmix64 stream.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// An independent stream derived from this seed and a salt, so one
    /// kind of draw never shifts another kind's sequence.
    pub fn stream(seed: u64, salt: u64) -> SplitMix64 {
        let mut mixer = SplitMix64::new(seed ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03));
        SplitMix64::new(mixer.next_u64())
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n` (multiply-shift; `n` must be positive).
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0, "empty range");
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// A uniform float in `[0, 1)` with 53 bits of precision.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `true` with probability `permille / 1000`.
    pub fn chance_permille(&mut self, permille: u64) -> bool {
        self.next_u64() % 1000 < permille
    }

    /// A seeded Fisher–Yates permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut out: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            out.swap(i, self.below(i + 1));
        }
        out
    }

    /// `n` seeded bytes.
    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(n + 8);
        while out.len() < n {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(n);
        out
    }
}

/// A cumulative Zipf table over ranks `0..n`: rank `r` weighs
/// `1/(r+1)^s`. One uniform draw plus a binary search per sample.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The table for `n > 0` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over zero ranks");
        let mut total = 0.0f64;
        let mut cdf: Vec<f64> = (0..n)
            .map(|rank| {
                total += 1.0 / ((rank + 1) as f64).powf(s);
                total
            })
            .collect();
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draws a rank (0 is the hottest).
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_favours_low_ranks() {
        let zipf = Zipf::new(100, 1.1);
        let mut rng = SplitMix64::new(3);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[99]);
    }

    #[test]
    fn same_seed_same_stream_and_streams_differ() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = SplitMix64::new(42);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = SplitMix64::new(42);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(
            SplitMix64::stream(42, 1).next_u64(),
            SplitMix64::stream(42, 2).next_u64()
        );
    }

    #[test]
    fn draws_stay_in_range() {
        let mut r = SplitMix64::new(7);
        for n in [1usize, 2, 3, 17, 1000] {
            for _ in 0..200 {
                assert!(r.below(n) < n);
            }
        }
        let mut p = r.permutation(50);
        p.sort_unstable();
        assert_eq!(p, (0..50).collect::<Vec<_>>());
        assert_eq!(r.bytes(13).len(), 13);
        let u = r.unit();
        assert!((0.0..1.0).contains(&u));
    }
}

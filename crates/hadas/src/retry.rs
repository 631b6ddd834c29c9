//! Retry policy for synchronous federation operations.
//!
//! A [`RetryPolicy`] decides how many times a request is re-posted after
//! the network swallows it and how long the sender waits between
//! attempts. [`RetryPolicy::Off`] (the default) is byte-for-byte the
//! pre-retry behaviour — one attempt, no extra RNG draws, no extra
//! virtual time — mirroring how `AdmissionPolicy::Off` gates the
//! admission analyzer.

use mrom_net::SimTime;
use rand::rngs::StdRng;
use rand::Rng;

/// When and how a federation operation retries a timed-out request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RetryPolicy {
    /// No retries: a lost message fails the operation immediately (the
    /// historical behaviour, and the default).
    #[default]
    Off,
    /// Re-post the request up to a bound, backing off exponentially with
    /// seeded jitter between attempts.
    Backoff {
        /// Total attempts allowed (1 behaves like `Off` but still draws
        /// jitter; use `Off` for the true zero-cost path). Clamped to at
        /// least 1 by [`RetryPolicy::backoff`].
        max_attempts: u32,
        /// Delay before the first retry.
        base: SimTime,
        /// Multiplier applied to the delay after every failed attempt
        /// (clamped to at least 1).
        multiplier: u32,
        /// Upper bound of the uniform jitter added to every delay, in
        /// microseconds (0 = deterministic backoff, no RNG draw).
        jitter_us: u64,
    },
    /// As `Backoff`, but a remote *invocation* is re-posted only when
    /// the target method's interprocedural effect signature proves it
    /// idempotent — everything else gets exactly one attempt, even
    /// though the receiver-side reply cache would dedup a re-execution.
    /// Defence in depth: the static signature keeps non-replayable work
    /// off the wire twice; the dedup cache stays as the dynamic
    /// backstop. Non-invocation operations (migration dispatch, link
    /// probes) retry as under `Backoff` — they are protocol-level
    /// idempotent already.
    IdempotentOnly {
        /// Total attempts allowed for idempotent-provable invocations.
        max_attempts: u32,
        /// Delay before the first retry.
        base: SimTime,
        /// Multiplier applied to the delay after every failed attempt
        /// (clamped to at least 1).
        multiplier: u32,
        /// Upper bound of the uniform jitter added to every delay, in
        /// microseconds (0 = deterministic backoff, no RNG draw).
        jitter_us: u64,
    },
}

impl RetryPolicy {
    /// A bounded exponential-backoff policy.
    #[must_use]
    pub fn backoff(max_attempts: u32, base: SimTime, multiplier: u32, jitter_us: u64) -> Self {
        RetryPolicy::Backoff {
            max_attempts: max_attempts.max(1),
            base,
            multiplier: multiplier.max(1),
            jitter_us,
        }
    }

    /// A sensible default for fault-injected runs (the fleet engine uses
    /// it): 5 attempts, 50 ms base delay, doubling, with up to 10 ms of
    /// jitter.
    #[must_use]
    pub fn standard() -> Self {
        RetryPolicy::backoff(5, SimTime::from_millis(50), 2, 10_000)
    }

    /// A bounded backoff policy that additionally gates invocation
    /// retries on proven idempotence (see
    /// [`RetryPolicy::IdempotentOnly`]).
    #[must_use]
    pub fn idempotent_only(
        max_attempts: u32,
        base: SimTime,
        multiplier: u32,
        jitter_us: u64,
    ) -> Self {
        RetryPolicy::IdempotentOnly {
            max_attempts: max_attempts.max(1),
            base,
            multiplier: multiplier.max(1),
            jitter_us,
        }
    }

    /// `true` when invocation retries require a proven-idempotent target
    /// method.
    #[must_use]
    pub fn gates_on_idempotence(&self) -> bool {
        matches!(self, RetryPolicy::IdempotentOnly { .. })
    }

    /// `true` for the zero-cost single-attempt policy.
    #[must_use]
    pub fn is_off(&self) -> bool {
        matches!(self, RetryPolicy::Off)
    }

    /// Total attempts this policy allows (1 for `Off`).
    #[must_use]
    pub fn max_attempts(&self) -> u32 {
        match self {
            RetryPolicy::Off => 1,
            RetryPolicy::Backoff { max_attempts, .. }
            | RetryPolicy::IdempotentOnly { max_attempts, .. } => (*max_attempts).max(1),
        }
    }

    /// The delay to wait before attempt `attempt` (2 = first retry),
    /// drawing jitter from `rng` only when the policy configures any —
    /// so an `Off` or jitter-free policy consumes no randomness.
    #[must_use]
    pub fn backoff_delay(&self, attempt: u32, rng: &mut StdRng) -> SimTime {
        match self {
            RetryPolicy::Off => SimTime::ZERO,
            RetryPolicy::Backoff {
                base,
                multiplier,
                jitter_us,
                ..
            }
            | RetryPolicy::IdempotentOnly {
                base,
                multiplier,
                jitter_us,
                ..
            } => {
                // attempt 2 → base, attempt 3 → base×m, attempt 4 → base×m².
                let exponent = attempt.saturating_sub(2);
                let factor = u64::from((*multiplier).max(1)).saturating_pow(exponent);
                let mut delay = SimTime::from_micros(base.as_micros().saturating_mul(factor));
                if *jitter_us > 0 {
                    delay += SimTime::from_micros(rng.random_range(0..=*jitter_us));
                }
                delay
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn off_is_default_and_costless() {
        let policy = RetryPolicy::default();
        assert!(policy.is_off());
        assert_eq!(policy.max_attempts(), 1);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(policy.backoff_delay(2, &mut rng), SimTime::ZERO);
        // No RNG draws happened: a fresh rng with the same seed produces
        // the same next value.
        let mut fresh = StdRng::seed_from_u64(1);
        assert_eq!(rng.random::<f64>(), fresh.random::<f64>());
    }

    #[test]
    fn backoff_grows_exponentially_without_jitter() {
        let policy = RetryPolicy::backoff(4, SimTime::from_millis(10), 3, 0);
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(policy.backoff_delay(2, &mut rng), SimTime::from_millis(10));
        assert_eq!(policy.backoff_delay(3, &mut rng), SimTime::from_millis(30));
        assert_eq!(policy.backoff_delay(4, &mut rng), SimTime::from_millis(90));
    }

    #[test]
    fn jitter_is_seeded_and_bounded() {
        let policy = RetryPolicy::backoff(3, SimTime::from_millis(1), 2, 500);
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            policy.backoff_delay(2, &mut rng)
        };
        assert_eq!(draw(7), draw(7), "same seed, same jitter");
        let d = draw(7);
        assert!(d >= SimTime::from_millis(1));
        assert!(d <= SimTime::from_micros(1_500));
    }

    #[test]
    fn degenerate_parameters_are_clamped() {
        let policy = RetryPolicy::backoff(0, SimTime::from_millis(1), 0, 0);
        assert_eq!(policy.max_attempts(), 1);
        let mut rng = StdRng::seed_from_u64(3);
        // multiplier clamped to 1: constant backoff.
        assert_eq!(policy.backoff_delay(2, &mut rng), SimTime::from_millis(1));
        assert_eq!(policy.backoff_delay(5, &mut rng), SimTime::from_millis(1));
    }

    #[test]
    fn standard_retries_multiple_times() {
        let policy = RetryPolicy::standard();
        assert!(!policy.is_off());
        assert!(policy.max_attempts() >= 3);
    }

    #[test]
    fn idempotent_only_shares_backoff_shape() {
        let gated = RetryPolicy::idempotent_only(4, SimTime::from_millis(10), 3, 0);
        let plain = RetryPolicy::backoff(4, SimTime::from_millis(10), 3, 0);
        assert!(gated.gates_on_idempotence());
        assert!(!plain.gates_on_idempotence());
        assert_eq!(gated.max_attempts(), 4);
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for attempt in 2..=4 {
            assert_eq!(
                gated.backoff_delay(attempt, &mut a),
                plain.backoff_delay(attempt, &mut b)
            );
        }
    }
}

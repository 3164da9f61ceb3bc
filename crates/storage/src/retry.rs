//! Retry with deterministic exponential backoff for fallible retrievals.
//!
//! [`get_with_retry`] drives [`crate::CoefficientStore::try_get`] under a
//! [`RetryPolicy`]: retryable failures are re-attempted up to a per-key
//! attempt cap, charging exponentially growing (and deterministically
//! jittered) backoff ticks to simulated time. Time is modelled in ticks
//! rather than wall-clock sleeps so tests and the progressive executor
//! stay fully deterministic; the [`RetryOutcome`] carries everything a
//! caller needs to fold into a [`FaultStats`] aggregate.

use batchbb_tensor::CoeffKey;

use crate::{CoefficientStore, FaultStats, StorageError};

/// Configures how retrieval failures are retried.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Maximum attempts per retrieval, counting the first (`>= 1`).
    pub max_attempts: u32,
    /// Backoff before the first retry, in simulated ticks.
    pub base_backoff_ticks: u64,
    /// Ceiling on a single backoff interval.
    pub max_backoff_ticks: u64,
    /// Seed for the deterministic jitter applied to each interval.
    pub jitter_seed: u64,
    /// Optional cap on total attempts across a whole evaluation. Enforced
    /// by the caller (e.g. `ProgressiveExecutor::try_step`) against its
    /// aggregate [`FaultStats::attempts`] through
    /// [`RetryPolicy::attempts_allowed`]; `get_with_retry` only bounds the
    /// attempts of one retrieval.
    pub total_attempt_budget: Option<u64>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_ticks: 1,
            max_backoff_ticks: 64,
            jitter_seed: 0x5eed_0fba_5e00,
            total_attempt_budget: None,
        }
    }
}

impl RetryPolicy {
    /// How many attempts the next retrieval may make once an evaluation
    /// has `spent` attempts in total: `max_attempts`, or what is left of
    /// `total_attempt_budget` if that is less; `None` once the budget is
    /// spent.  The one place the budget is priced — the batch executor,
    /// the bounded variant and the round-robin baseline all ask here, so
    /// a budgeted comparison between them is like for like.
    pub fn attempts_allowed(&self, spent: u64) -> Option<u32> {
        let Some(budget) = self.total_attempt_budget else {
            return Some(self.max_attempts);
        };
        match budget.saturating_sub(spent) {
            0 => None,
            left => Some(left.min(u64::from(self.max_attempts.max(1))) as u32),
        }
    }

    /// Clamps the policy to a remaining simulated-tick budget: attempts
    /// and every backoff interval are capped so one retrieval can never
    /// charge more than `ticks` (each attempt costs at least one tick, so
    /// at most `ticks` attempts fit; a single backoff interval may not
    /// exceed the budget either). This is how a deadline-bearing caller
    /// keeps a faulty store from blowing its contract: as the deadline
    /// approaches, retries get cheaper and eventually stop.
    ///
    /// `ticks == 0` degenerates to a single immediate attempt (the caller
    /// already owes the contract an answer; one attempt is the cheapest
    /// way to still make progress).
    pub fn with_tick_budget(&self, ticks: u64) -> RetryPolicy {
        let attempts = ticks.clamp(1, u64::from(self.max_attempts.max(1))) as u32;
        RetryPolicy {
            max_attempts: attempts,
            base_backoff_ticks: self.base_backoff_ticks.min(ticks),
            max_backoff_ticks: self.max_backoff_ticks.min(ticks),
            ..self.clone()
        }
    }

    /// Scales the per-retrieval attempt budget down under observed store
    /// stress, so retries cannot amplify an overload: at failure rates at
    /// or below 25 % the policy is unchanged; above that, attempts shrink
    /// proportionally to the success rate (never below one attempt — the
    /// caller still needs an answer or a deferral). `observed_failure_rate`
    /// is clamped into `[0, 1]`; `NaN` is treated as zero stress.
    ///
    /// The scaling is deterministic and monotone: a higher observed rate
    /// never yields more attempts, so two runs observing the same fault
    /// history back off identically.
    pub fn adapted(&self, observed_failure_rate: f64) -> RetryPolicy {
        let rate = if observed_failure_rate.is_nan() {
            0.0
        } else {
            observed_failure_rate.clamp(0.0, 1.0)
        };
        if rate <= 0.25 {
            return self.clone();
        }
        let scaled = (f64::from(self.max_attempts) * (1.0 - rate)).ceil();
        RetryPolicy {
            max_attempts: (scaled as u32).max(1),
            ..self.clone()
        }
    }

    /// Backoff ticks before retry number `retry_index` (0-based) of `key`:
    /// exponential growth `base * 2^retry_index` capped at
    /// `max_backoff_ticks`, with the upper half of the interval replaced
    /// by deterministic jitter hashed from `(jitter_seed, key,
    /// retry_index)` — "equal jitter", so the interval stays within
    /// `[cap/2, cap]` and two runs with the same seed back off
    /// identically.
    pub fn backoff_ticks(&self, key: &CoeffKey, retry_index: u32) -> u64 {
        let cap = self
            .base_backoff_ticks
            .saturating_mul(1u64 << retry_index.min(62))
            .min(self.max_backoff_ticks);
        if cap <= 1 {
            return cap;
        }
        let half = cap / 2;
        let mut h = self.jitter_seed ^ retry_index as u64;
        for c in key.coords() {
            h ^= u64::from(*c);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 29;
        half + h % (cap - half + 1)
    }
}

/// What one retried retrieval did, for folding into [`FaultStats`].
#[derive(Debug, Clone)]
pub struct RetryOutcome {
    /// The final result: the last attempt's error if all attempts failed.
    pub result: Result<Option<f64>, StorageError>,
    /// Attempts issued (`1 ..= policy.max_attempts`).
    pub attempts: u64,
    /// Attempts that failed retryably (`retries <= transient_failures`).
    pub transient_failures: u64,
    /// Attempts that failed permanently (0 or 1: not retried).
    pub permanent_failures: u64,
    /// Re-attempts issued after a retryable failure.
    pub retries: u64,
    /// Total simulated backoff charged.
    pub backoff_ticks: u64,
}

impl RetryOutcome {
    /// Folds this outcome into an aggregate (deferral/recovery accounting
    /// stays with the caller, which owns the deferral queue).
    pub fn record(&self, stats: &mut FaultStats) {
        stats.attempts += self.attempts;
        stats.successes += u64::from(self.result.is_ok());
        stats.transient_failures += self.transient_failures;
        stats.permanent_failures += self.permanent_failures;
        stats.retries += self.retries;
        stats.backoff_ticks += self.backoff_ticks;
    }
}

/// Retrieves `key` from `store` via `try_get`, retrying retryable failures
/// under `policy` with at most `max_attempts` attempts (the caller may pass
/// a value below `policy.max_attempts` to respect a global attempt budget;
/// values are clamped to at least 1).
pub fn get_with_retry(
    store: &dyn CoefficientStore,
    key: &CoeffKey,
    policy: &RetryPolicy,
    max_attempts: u32,
) -> RetryOutcome {
    let cap = max_attempts.clamp(1, policy.max_attempts.max(1));
    let mut outcome = RetryOutcome {
        result: Ok(None),
        attempts: 0,
        transient_failures: 0,
        permanent_failures: 0,
        retries: 0,
        backoff_ticks: 0,
    };
    for attempt in 0..cap {
        if attempt > 0 {
            outcome.retries += 1;
            outcome.backoff_ticks += policy.backoff_ticks(key, attempt - 1);
        }
        outcome.attempts += 1;
        match store.try_get(key) {
            Ok(value) => {
                outcome.result = Ok(value);
                return outcome;
            }
            Err(e) => {
                let retryable = e.is_retryable();
                if retryable {
                    outcome.transient_failures += 1;
                } else {
                    outcome.permanent_failures += 1;
                }
                outcome.result = Err(e);
                if !retryable {
                    return outcome;
                }
            }
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultInjectingStore, FaultPlan, MemoryStore};

    fn store() -> MemoryStore {
        MemoryStore::from_entries((0..32).map(|i| (CoeffKey::one(i), i as f64 + 1.0)))
    }

    #[test]
    fn succeeds_without_retry_on_healthy_store() {
        let s = store();
        let out = get_with_retry(&s, &CoeffKey::one(4), &RetryPolicy::default(), 3);
        assert_eq!(out.result, Ok(Some(5.0)));
        assert_eq!(out.attempts, 1);
        assert_eq!(out.retries, 0);
        assert_eq!(out.backoff_ticks, 0);
    }

    #[test]
    fn permanent_failure_stops_immediately() {
        let key = CoeffKey::one(2);
        let fs = FaultInjectingStore::new(store(), FaultPlan::new(3).with_permanent_keys([key]));
        let out = get_with_retry(&fs, &key, &RetryPolicy::default(), 3);
        assert_eq!(out.result, Err(StorageError::Permanent { key }));
        assert_eq!(out.attempts, 1);
        assert_eq!(out.permanent_failures, 1);
        assert_eq!(out.retries, 0);
    }

    #[test]
    fn transient_failures_are_retried_and_recorded() {
        // A high transient rate forces at least some retries across keys.
        let fs = FaultInjectingStore::new(store(), FaultPlan::new(11).with_transient_rate(0.6));
        let policy = RetryPolicy {
            max_attempts: 8,
            ..RetryPolicy::default()
        };
        let mut stats = FaultStats::default();
        let mut successes = 0;
        for i in 0..32 {
            let out = get_with_retry(&fs, &CoeffKey::one(i), &policy, policy.max_attempts);
            assert!(out.retries <= out.transient_failures);
            successes += u64::from(out.result.is_ok());
            out.record(&mut stats);
        }
        assert!(stats.retries > 0, "rate 0.6 must force retries");
        assert!(stats.backoff_ticks > 0);
        assert!(stats.attempts_reconcile(), "{stats:?}");
        assert_eq!(stats.successes, successes);
        assert_eq!(stats.attempts, fs.injected().attempts);
    }

    #[test]
    fn backoff_is_deterministic_capped_and_grows() {
        let policy = RetryPolicy {
            max_attempts: 10,
            base_backoff_ticks: 2,
            max_backoff_ticks: 64,
            jitter_seed: 42,
            total_attempt_budget: None,
        };
        let key = CoeffKey::one(9);
        let ticks: Vec<u64> = (0..10).map(|i| policy.backoff_ticks(&key, i)).collect();
        let again: Vec<u64> = (0..10).map(|i| policy.backoff_ticks(&key, i)).collect();
        assert_eq!(ticks, again);
        for (i, &t) in ticks.iter().enumerate() {
            let cap = (2u64 << i).min(64);
            assert!(t <= cap, "retry {i}: {t} exceeds cap {cap}");
            assert!(t >= cap / 2, "retry {i}: {t} below half-cap {}", cap / 2);
        }
        // Another key jitters differently somewhere in the sequence.
        let other: Vec<u64> = (0..10)
            .map(|i| policy.backoff_ticks(&CoeffKey::one(21), i))
            .collect();
        assert_ne!(ticks, other);
    }

    #[test]
    fn tick_budget_caps_attempts_and_backoff() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base_backoff_ticks: 4,
            max_backoff_ticks: 64,
            ..RetryPolicy::default()
        };
        let tight = policy.with_tick_budget(3);
        assert_eq!(tight.max_attempts, 3);
        assert_eq!(tight.base_backoff_ticks, 3);
        assert_eq!(tight.max_backoff_ticks, 3);
        // A generous budget leaves the policy unchanged.
        let loose = policy.with_tick_budget(1_000);
        assert_eq!(loose.max_attempts, 8);
        assert_eq!(loose.max_backoff_ticks, 64);
        // Zero budget still allows the single mandatory attempt.
        let spent = policy.with_tick_budget(0);
        assert_eq!(spent.max_attempts, 1);
        assert_eq!(spent.max_backoff_ticks, 0);
    }

    #[test]
    fn adaptive_budget_shrinks_monotonically_with_fault_rate() {
        let policy = RetryPolicy {
            max_attempts: 8,
            ..RetryPolicy::default()
        };
        assert_eq!(policy.adapted(0.0).max_attempts, 8);
        assert_eq!(
            policy.adapted(0.25).max_attempts,
            8,
            "low stress: unchanged"
        );
        assert_eq!(policy.adapted(f64::NAN).max_attempts, 8);
        let mut last = u32::MAX;
        for pct in 0..=100 {
            let attempts = policy.adapted(pct as f64 / 100.0).max_attempts;
            assert!(attempts <= last, "rate up must never raise attempts");
            assert!(attempts >= 1);
            last = attempts;
        }
        assert_eq!(policy.adapted(1.0).max_attempts, 1);
        assert_eq!(policy.adapted(2.0).max_attempts, 1, "rate clamps to 1");
    }

    #[test]
    fn attempt_cap_is_respected() {
        let fs = FaultInjectingStore::new(
            store(),
            // Rate near 1: effectively always failing.
            FaultPlan::new(13).with_transient_rate(0.999),
        );
        let policy = RetryPolicy {
            max_attempts: 5,
            ..RetryPolicy::default()
        };
        // Caller clamps to fewer attempts than the policy allows.
        let out = get_with_retry(&fs, &CoeffKey::one(1), &policy, 2);
        assert!(out.result.is_err());
        assert_eq!(out.attempts, 2);
        assert_eq!(out.retries, 1);
    }
}

//! Deterministic fault injection for exercising the fallible retrieval
//! path.
//!
//! [`FaultInjectingStore`] wraps any [`CoefficientStore`] and makes every
//! read — each key of a window, a singleton being a window of one — fail
//! according to a seeded [`FaultPlan`]:
//! per-attempt transient failures at a configurable rate and a set of
//! persistently failing keys. The fault decision for attempt *i* on key
//! *k* is a pure hash of `(seed, k, i)`, so two stores built from the
//! same plan produce identical fault sequences regardless of how
//! retrievals from different keys interleave — the property the
//! reproducibility proptests in `tests/fault_proptests.rs` pin down.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};

use batchbb_tensor::{CoeffKey, KeyMap, KeySet};

use crate::fingerprint::{key_fingerprint, mix};
use crate::{CoefficientStore, Completion, FaultStats, IoStats, StorageError};

/// A deterministic description of which retrievals fail and how.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    transient_rate: f64,
    permanent: KeySet,
}

impl FaultPlan {
    /// A plan that injects nothing; faults are added with the builder
    /// methods. The seed fixes the transient-failure sequence.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            transient_rate: 0.0,
            permanent: KeySet::default(),
        }
    }

    /// Sets the probability (in `[0, 1)`) that any single retrieval
    /// attempt fails transiently. The draw is per `(key, attempt)`, so a
    /// failed attempt can succeed on retry.
    pub fn with_transient_rate(mut self, rate: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&rate),
            "transient rate must be in [0, 1), got {rate}"
        );
        self.transient_rate = rate;
        self
    }

    /// Marks keys whose retrieval always fails with
    /// [`StorageError::Permanent`] until the store is
    /// [healed](FaultInjectingStore::heal).
    pub fn with_permanent_keys(mut self, keys: impl IntoIterator<Item = CoeffKey>) -> Self {
        self.permanent.extend(keys);
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The per-attempt transient failure probability.
    pub fn transient_rate(&self) -> f64 {
        self.transient_rate
    }
}

#[derive(Debug, Default)]
struct FaultCounters {
    attempts: AtomicU64,
    successes: AtomicU64,
    transient_failures: AtomicU64,
    permanent_failures: AtomicU64,
}

impl FaultCounters {
    fn snapshot(&self) -> FaultStats {
        FaultStats {
            attempts: self.attempts.load(Ordering::Relaxed),
            successes: self.successes.load(Ordering::Relaxed),
            transient_failures: self.transient_failures.load(Ordering::Relaxed),
            permanent_failures: self.permanent_failures.load(Ordering::Relaxed),
            ..FaultStats::default()
        }
    }

    fn reset(&self) {
        self.attempts.store(0, Ordering::Relaxed);
        self.successes.store(0, Ordering::Relaxed);
        self.transient_failures.store(0, Ordering::Relaxed);
        self.permanent_failures.store(0, Ordering::Relaxed);
    }
}

/// Uniform draw in `[0, 1)` for attempt `attempt` on `key` under `seed`.
pub(crate) fn fault_roll(seed: u64, key: &CoeffKey, attempt: u64) -> f64 {
    let h =
        mix(seed ^ mix(key_fingerprint(key)) ^ mix(attempt.wrapping_mul(0x2545_f491_4f6c_dd1d)));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A [`CoefficientStore`] wrapper that injects faults into every read
/// according to a [`FaultPlan`].
///
/// No read bypasses injection; the fault-free ground truth tests compare
/// degraded estimates against is [`FaultInjectingStore::inner`]. Fault
/// decisions use a private per-key attempt counter, so the injected
/// sequence seen by each key depends only on the plan, never on how
/// retrievals of different keys interleave.
pub struct FaultInjectingStore<S> {
    inner: S,
    plan: RwLock<FaultPlan>,
    attempts_by_key: Mutex<KeyMap<u64>>,
    counters: FaultCounters,
}

impl<S: CoefficientStore> FaultInjectingStore<S> {
    /// Wraps `inner` with the fault behaviour described by `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        FaultInjectingStore {
            inner,
            plan: RwLock::new(plan),
            attempts_by_key: Mutex::new(KeyMap::default()),
            counters: FaultCounters::default(),
        }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Snapshot of the injection counters ([`FaultStats::retries`],
    /// deferrals, and recoveries stay zero here — those are retry-loop and
    /// executor concepts, aggregated by the caller).
    pub fn injected(&self) -> FaultStats {
        self.counters.snapshot()
    }

    /// Repairs the simulated failure condition: clears the permanent key
    /// set and drops the transient rate to zero. Per-key attempt counters
    /// and stats are kept, so post-heal retrievals continue the same
    /// deterministic sequence (which now always succeeds).
    pub fn heal(&self) {
        let mut plan = self.plan.write().unwrap_or_else(|e| e.into_inner());
        plan.permanent.clear();
        plan.transient_rate = 0.0;
    }

    /// Clears per-key attempt counters and injection stats, restarting the
    /// deterministic fault sequence from attempt zero for every key.
    pub fn reset_fault_state(&self) {
        self.attempts_by_key
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        self.counters.reset();
    }
}

impl<S: CoefficientStore> CoefficientStore for FaultInjectingStore<S> {
    /// The wrapper's one read body, key by key ([`Completion::per_key`])
    /// rather than forwarded to the inner store's batched path: every key
    /// passes through its own deterministic per-`(key, attempt)` fault
    /// decision, so the injected sequence each key sees is identical
    /// whether callers batch or not, and the loop stops at the first
    /// injected (or real) failure — keys after it keep their attempt
    /// counters untouched, exactly like a singleton caller that aborted at
    /// the same point.  To exercise faults on genuinely in-flight reads,
    /// stack `AsyncFetchStore<FaultInjectingStore<S>>`.
    fn submit(&self, keys: &[CoeffKey]) -> Completion {
        Completion::per_key(keys, |key| {
            self.counters.attempts.fetch_add(1, Ordering::Relaxed);
            let attempt = {
                let mut by_key = self
                    .attempts_by_key
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                let slot = by_key.entry(*key).or_insert(0);
                let attempt = *slot;
                *slot += 1;
                attempt
            };
            let (rate, is_permanent, seed) = {
                let plan = self.plan.read().unwrap_or_else(|e| e.into_inner());
                (plan.transient_rate, plan.permanent.contains(key), plan.seed)
            };
            if is_permanent {
                self.counters
                    .permanent_failures
                    .fetch_add(1, Ordering::Relaxed);
                return Err(StorageError::Permanent { key: *key });
            }
            if rate > 0.0 && fault_roll(seed, key, attempt) < rate {
                self.counters
                    .transient_failures
                    .fetch_add(1, Ordering::Relaxed);
                return Err(StorageError::Transient { key: *key, attempt });
            }
            match self.inner.try_get(key) {
                Ok(value) => {
                    self.counters.successes.fetch_add(1, Ordering::Relaxed);
                    Ok(value)
                }
                Err(e) => {
                    // Count a real backend failure as transient iff retryable.
                    if e.is_retryable() {
                        self.counters
                            .transient_failures
                            .fetch_add(1, Ordering::Relaxed);
                    } else {
                        self.counters
                            .permanent_failures
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e)
                }
            }
        })
    }

    fn quiesce(&self) {
        self.inner.quiesce()
    }

    fn version_tag(&self) -> u64 {
        self.inner.version_tag()
    }

    fn nnz(&self) -> usize {
        self.inner.nnz()
    }

    fn stats(&self) -> IoStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoryStore;

    fn store_with_keys(n: u32) -> MemoryStore {
        MemoryStore::from_entries((0..n).map(|i| (CoeffKey::one(i as usize), f64::from(i) + 1.0)))
    }

    #[test]
    fn zero_rate_plan_never_fails() {
        let fs = FaultInjectingStore::new(store_with_keys(16), FaultPlan::new(7));
        for i in 0..16usize {
            let key = CoeffKey::one(i);
            assert_eq!(fs.try_get(&key).unwrap(), Some(i as f64 + 1.0));
        }
        let stats = fs.injected();
        assert_eq!(stats.attempts, 16);
        assert_eq!(stats.successes, 16);
        assert!(stats.attempts_reconcile());
    }

    #[test]
    fn permanent_keys_fail_until_healed() {
        let key = CoeffKey::one(3);
        let plan = FaultPlan::new(1).with_permanent_keys([key]);
        let fs = FaultInjectingStore::new(store_with_keys(16), plan);
        for _ in 0..3 {
            assert_eq!(fs.try_get(&key), Err(StorageError::Permanent { key }));
        }
        // The ground truth is the inner store.
        assert_eq!(fs.inner().get(&key), Some(4.0));
        fs.heal();
        assert_eq!(fs.try_get(&key).unwrap(), Some(4.0));
        let stats = fs.injected();
        assert_eq!(stats.permanent_failures, 3);
        assert!(stats.attempts_reconcile());
    }

    #[test]
    fn transient_rate_roughly_matches_and_is_deterministic() {
        let plan = FaultPlan::new(99).with_transient_rate(0.3);
        let fs1 = FaultInjectingStore::new(store_with_keys(64), plan.clone());
        let fs2 = FaultInjectingStore::new(store_with_keys(64), plan);
        let mut outcomes1 = Vec::new();
        // Interleave key order differently in the two runs: per-key
        // attempt counters make the sequences identical anyway.
        for round in 0..8 {
            for i in 0..64usize {
                let key = CoeffKey::one(i);
                outcomes1.push((round, i, fs1.try_get(&key).is_ok()));
            }
        }
        let mut outcomes2 = vec![None; outcomes1.len()];
        for i in (0..64usize).rev() {
            for round in 0..8 {
                let key = CoeffKey::one(i);
                outcomes2[round * 64 + i] = Some((round, i, fs2.try_get(&key).is_ok()));
            }
        }
        let outcomes2: Vec<_> = outcomes2.into_iter().map(Option::unwrap).collect();
        assert_eq!(outcomes1, outcomes2);
        let failed = outcomes1.iter().filter(|(_, _, ok)| !ok).count();
        let total = outcomes1.len();
        let rate = failed as f64 / total as f64;
        assert!(
            (0.15..0.45).contains(&rate),
            "empirical failure rate {rate} far from 0.3"
        );
        assert!(fs1.injected().attempts_reconcile());
        assert_eq!(fs1.injected(), fs2.injected());
    }

    #[test]
    fn different_seeds_give_different_sequences() {
        let mk = |seed| {
            let fs = FaultInjectingStore::new(
                store_with_keys(64),
                FaultPlan::new(seed).with_transient_rate(0.5),
            );
            (0..64usize)
                .map(|i| fs.try_get(&CoeffKey::one(i)).is_ok())
                .collect::<Vec<_>>()
        };
        assert_ne!(mk(1), mk(2));
    }

    #[test]
    fn reset_fault_state_restarts_the_sequence() {
        let fs = FaultInjectingStore::new(
            store_with_keys(8),
            FaultPlan::new(5).with_transient_rate(0.5),
        );
        let run = |fs: &FaultInjectingStore<MemoryStore>| {
            (0..8usize)
                .flat_map(|i| (0..4).map(move |_| i))
                .map(|i| fs.try_get(&CoeffKey::one(i)).is_ok())
                .collect::<Vec<_>>()
        };
        let first = run(&fs);
        fs.reset_fault_state();
        let second = run(&fs);
        assert_eq!(first, second);
        assert!(first.iter().any(|ok| !ok), "rate 0.5 should fail sometimes");
    }
}

//! Retrieval counters shared by all store implementations.

use std::sync::atomic::{AtomicU64, Ordering};

/// A snapshot of a store's I/O activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoStats {
    /// Logical coefficient retrievals (the unit every experiment in the
    /// paper reports).
    pub retrievals: u64,
    /// Physical reads: `pread` calls for [`crate::FileStore`], block fetches
    /// for [`crate::BlockStore`]; equals `retrievals` for memory stores.
    pub physical_reads: u64,
    /// Buffer-pool hits ([`crate::BlockStore`] only).
    pub cache_hits: u64,
}

/// A snapshot of fault-path activity, reported alongside [`IoStats`] by
/// fallible retrieval components ([`crate::FaultInjectingStore`], the retry
/// helpers in [`crate::retry`], and the progressive executor's deferral
/// queue in `batchbb-core`).
///
/// Two reconciliation invariants hold at **every** snapshot, not just at
/// completion (see [`FaultStats::attempts_reconcile`] and
/// [`FaultStats::deferrals_reconcile`]):
///
/// * `attempts = successes + transient_failures + permanent_failures` —
///   every attempt is classified exactly once;
/// * `deferrals = recoveries + still-deferred` — a key is counted as
///   deferred the *first* time it enters the deferral queue and as
///   recovered when it finally resolves, so the difference is exactly the
///   population still waiting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Total retrieval attempts issued against the fallible path.
    pub attempts: u64,
    /// Attempts that returned a value (or a definitive "not stored").
    pub successes: u64,
    /// Attempts that failed with a retryable fault.
    pub transient_failures: u64,
    /// Attempts that failed with a non-retryable fault.
    pub permanent_failures: u64,
    /// Re-attempts issued after a retryable failure (`retries <=
    /// transient_failures`: each retry is provoked by one failure).
    pub retries: u64,
    /// Keys pushed into a deferral queue after exhausting their retry
    /// budget — counted once per key on *first* deferral.
    pub deferrals: u64,
    /// Previously deferred keys whose retrieval later succeeded.
    pub recoveries: u64,
    /// Simulated-time ticks spent in retry backoff.
    pub backoff_ticks: u64,
}

impl FaultStats {
    /// Adds `other`'s counts into `self` (for aggregating per-component
    /// stats into an evaluation-wide total).
    pub fn merge(&mut self, other: &FaultStats) {
        self.attempts += other.attempts;
        self.successes += other.successes;
        self.transient_failures += other.transient_failures;
        self.permanent_failures += other.permanent_failures;
        self.retries += other.retries;
        self.deferrals += other.deferrals;
        self.recoveries += other.recoveries;
        self.backoff_ticks += other.backoff_ticks;
    }

    /// `attempts = successes + transient_failures + permanent_failures`.
    pub fn attempts_reconcile(&self) -> bool {
        self.attempts == self.successes + self.transient_failures + self.permanent_failures
    }

    /// `deferrals = recoveries + still_deferred` for the caller-supplied
    /// count of keys currently sitting in the deferral queue.
    pub fn deferrals_reconcile(&self, still_deferred: u64) -> bool {
        self.deferrals == self.recoveries + still_deferred
    }
}

/// Interior-mutable counters backing [`IoStats`].
#[derive(Debug, Default)]
pub(crate) struct Counters {
    retrievals: AtomicU64,
    physical_reads: AtomicU64,
    cache_hits: AtomicU64,
}

impl Counters {
    pub(crate) fn count_retrieval(&self) {
        self.retrievals.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_physical(&self) {
        self.physical_reads.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> IoStats {
        IoStats {
            retrievals: self.retrievals.load(Ordering::Relaxed),
            physical_reads: self.physical_reads.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn reset(&self) {
        self.retrievals.store(0, Ordering::Relaxed);
        self.physical_reads.store(0, Ordering::Relaxed);
        self.cache_hits.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_resets() {
        let c = Counters::default();
        c.count_retrieval();
        c.count_retrieval();
        c.count_physical();
        c.count_hit();
        let s = c.snapshot();
        assert_eq!(s.retrievals, 2);
        assert_eq!(s.physical_reads, 1);
        assert_eq!(s.cache_hits, 1);
        c.reset();
        assert_eq!(c.snapshot(), IoStats::default());
    }

    #[test]
    fn fault_stats_merge_and_reconcile() {
        let mut a = FaultStats {
            attempts: 5,
            successes: 3,
            transient_failures: 2,
            permanent_failures: 0,
            retries: 2,
            deferrals: 1,
            recoveries: 0,
            backoff_ticks: 3,
        };
        assert!(a.attempts_reconcile());
        assert!(a.deferrals_reconcile(1));
        assert!(!a.deferrals_reconcile(0));
        let b = FaultStats {
            attempts: 2,
            successes: 1,
            transient_failures: 0,
            permanent_failures: 1,
            recoveries: 1,
            ..FaultStats::default()
        };
        a.merge(&b);
        assert_eq!(a.attempts, 7);
        assert_eq!(a.successes, 4);
        assert_eq!(a.permanent_failures, 1);
        assert_eq!(a.recoveries, 1);
        assert!(a.attempts_reconcile());
        assert!(a.deferrals_reconcile(0));
    }
}

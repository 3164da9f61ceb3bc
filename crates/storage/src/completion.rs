//! Completion handles for asynchronous batched retrieval.
//!
//! [`CoefficientStore::submit`](crate::CoefficientStore::submit) returns a
//! [`Completion`]: a handle to a batched fetch that may still be in flight.
//! Synchronous stores answer at submit time ([`Completion::per_key`],
//! [`Completion::ready`]), holding a window of one inline so the singleton
//! read, `submit(&[key]).wait_one()`, allocates nothing; genuinely
//! asynchronous backends ([`crate::AsyncFetchStore`]) hand back per-key
//! [`InflightSlot`]s that an I/O thread fills later, and a wrapper that
//! must act on the fetched values without blocking `submit`
//! ([`crate::ShardedCachingStore`]) wraps its inner store's completion
//! with the step to run when the result is taken.  The handle is
//! intentionally backend-agnostic — an io_uring submission queue can sit
//! behind the same `submit`/`Completion` shape behind a `cfg` without
//! touching any caller.
//!
//! Semantics match the key-by-key loop (DESIGN.md §10/§12): a
//! completion resolves to `Result<Vec<Option<f64>>, StorageError>` — the
//! values in input order — with per-key failures collapsed to
//! the earliest-index error so that "`Err` means the whole batch failed and
//! carries no per-key verdicts" stays true.  Callers that need attribution
//! fall back to singleton `try_get`, exactly as they do today.
//!
//! A failed batch keeps what it read: the key-by-key loop stops *at* the
//! failing key, and the values ahead of it travel with the error.
//! [`Completion::wait`] drops them (the contract above);
//! [`Completion::wait_prefix`] hands them to the one caller that must not
//! read a key twice — the engine splitting a coalesced wire call
//! (`shard.rs`).

use std::sync::{Condvar, Mutex};

use batchbb_tensor::CoeffKey;

use crate::StorageError;

/// Resolution state of one key's in-flight read.
#[derive(Debug)]
enum SlotState {
    /// The read has been queued or is running on an I/O thread.
    Pending,
    /// The read finished with this per-key verdict.
    Done(Result<Option<f64>, StorageError>),
}

/// One key's outstanding read, shared between every completion that wants
/// the key (the cross-batch dedup unit) and the I/O thread that fills it.
///
/// Built on `std::sync::{Mutex, Condvar}` so waiters can block without
/// spinning; the slot is written once — by the first
/// [`InflightSlot::try_complete`] — and read by any number of waiters.
#[derive(Debug)]
pub struct InflightSlot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

impl InflightSlot {
    /// A fresh pending slot.
    pub(crate) fn new() -> Self {
        InflightSlot {
            state: Mutex::new(SlotState::Pending),
            cv: Condvar::new(),
        }
    }

    /// Publishes `result` and wakes every waiter iff the slot is still
    /// pending, returning whether this call did: the first verdict stands.
    pub(crate) fn try_complete(&self, result: Result<Option<f64>, StorageError>) -> bool {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if matches!(*state, SlotState::Done(_)) {
            return false;
        }
        *state = SlotState::Done(result);
        drop(state);
        self.cv.notify_all();
        true
    }

    /// True once the verdict has been published.
    fn is_done(&self) -> bool {
        matches!(
            *self.state.lock().unwrap_or_else(|e| e.into_inner()),
            SlotState::Done(_)
        )
    }

    /// Blocks until the verdict is published, then returns a copy of it.
    fn wait_done(&self) -> Result<Option<f64>, StorageError> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let SlotState::Done(result) = &*state {
                return result.clone();
            }
            state = self.cv.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// What a batch resolves to: its keys' values in input order, or its error.
type BatchResult = Result<Vec<Option<f64>>, StorageError>;

/// The step a wrapper runs on an inner completion's result when it is
/// taken (boxed so [`Completion`] stays one concrete, `Send` type).
struct Finish(Box<dyn FnOnce(BatchResult) -> BatchResult + Send>);

impl std::fmt::Debug for Finish {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Finish(..)")
    }
}

/// How the batch is (or will be) answered.
#[derive(Debug)]
enum CompletionState {
    /// A window of one resolved at submit time, held inline.
    One(Result<Option<f64>, StorageError>),
    /// Resolved at submit time (the synchronous adapter path): the values
    /// read, in input order, and the error that stopped the batch, if one
    /// did — `read` then holds what was read ahead of the failing key.
    Ready {
        read: Vec<Option<f64>>,
        error: Option<StorageError>,
    },
    /// One in-flight slot per requested key, in key order. Slots may be
    /// shared with other completions that asked for the same key.
    Pending(Vec<std::sync::Arc<InflightSlot>>),
    /// A wrapper's view of an inner store's completion: ready when `inner`
    /// is, and resolved by passing `inner`'s result through `finish`.
    /// Nothing runs until the result is taken, so dropping it unresolved
    /// leaves no trace in the wrapper.
    Wrapped {
        inner: Box<Completion>,
        finish: Finish,
    },
}

/// A batched fetch that may still be in flight.
///
/// Obtained from [`CoefficientStore::submit`](crate::CoefficientStore::submit).
/// Poll with [`Completion::is_ready`] (e.g. to park the batch and advance
/// another), then take the result with [`Completion::wait`], which blocks
/// only if the fetch is still outstanding.
#[derive(Debug)]
pub struct Completion {
    state: CompletionState,
}

impl Completion {
    /// A completion resolved at submit time — the synchronous adapter every
    /// blocking store gets for free.
    pub fn ready(result: Result<Vec<Option<f64>>, StorageError>) -> Self {
        match result {
            Ok(read) => Completion {
                state: CompletionState::Ready { read, error: None },
            },
            Err(error) => Completion::failed_after(Vec::new(), error),
        }
    }

    /// A batch that stopped at `error` after reading `read`, the values of
    /// the keys ahead of the failing one.
    fn failed_after(read: Vec<Option<f64>>, error: StorageError) -> Self {
        Completion {
            state: CompletionState::Ready {
                read,
                error: Some(error),
            },
        }
    }

    /// A singleton's verdict, held inline.
    pub(crate) fn one(result: Result<Option<f64>, StorageError>) -> Self {
        Completion {
            state: CompletionState::One(result),
        }
    }

    /// The `submit` of a store that decides one key at a time: `read`
    /// answers each key in input order, stopping at the first error and
    /// keeping the values read ahead of it ([`Completion::wait_prefix`]);
    /// a window of one is held inline.
    #[inline]
    pub fn per_key(
        keys: &[CoeffKey],
        mut read: impl FnMut(&CoeffKey) -> Result<Option<f64>, StorageError>,
    ) -> Self {
        match keys {
            [key] => Completion::one(read(key)),
            _ => Completion::per_key_window(keys, read),
        }
    }

    /// [`Completion::per_key`] for any other length, out of line so that
    /// a `try_get` over a point store inlines to the bare lookup (inlined
    /// whole, a `MemoryStore` singleton read took 27 ns instead of 18 on a
    /// two-core Xeon VM).
    fn per_key_window(
        keys: &[CoeffKey],
        mut read: impl FnMut(&CoeffKey) -> Result<Option<f64>, StorageError>,
    ) -> Self {
        let mut values = Vec::with_capacity(keys.len());
        for key in keys {
            match read(key) {
                Ok(value) => values.push(value),
                Err(error) => return Completion::failed_after(values, error),
            }
        }
        Completion::ready(Ok(values))
    }

    /// A completion backed by per-key in-flight slots, in key order.
    pub(crate) fn pending(slots: Vec<std::sync::Arc<InflightSlot>>) -> Self {
        Completion {
            state: CompletionState::Pending(slots),
        }
    }

    /// Wraps `inner` so that taking the result first runs `finish` on it —
    /// how a non-blocking wrapper ([`crate::ShardedCachingStore`]) does its
    /// post-fetch work on whichever thread resolves the batch.
    pub(crate) fn wrapped(
        inner: Completion,
        finish: impl FnOnce(BatchResult) -> BatchResult + Send + 'static,
    ) -> Self {
        Completion {
            state: CompletionState::Wrapped {
                inner: Box::new(inner),
                finish: Finish(Box::new(finish)),
            },
        }
    }

    /// True when [`Completion::wait`] would return without blocking.
    ///
    /// Ready completions stay ready; a pending completion becomes ready
    /// once every slot's I/O thread has published its verdict; a wrapped
    /// one is ready when the completion it wraps is.
    pub fn is_ready(&self) -> bool {
        match &self.state {
            CompletionState::One(_) | CompletionState::Ready { .. } => true,
            CompletionState::Pending(slots) => slots.iter().all(|s| s.is_done()),
            CompletionState::Wrapped { inner, .. } => inner.is_ready(),
        }
    }

    /// Resolves the batch, blocking until every in-flight key lands.
    ///
    /// Per-key failures are collapsed to the earliest-index error, so the
    /// caller-visible contract is that of a resolved-at-submit batch: `Err`
    /// means the batch as a whole failed and no partial results are returned.
    /// Deterministic by construction — the collapse depends only on the
    /// per-key verdicts, not on which I/O thread finished first.
    pub fn wait(self) -> Result<Vec<Option<f64>>, StorageError> {
        let (read, error) = self.wait_prefix();
        error.map_or(Ok(read), Err)
    }

    /// [`Completion::wait`] that keeps what a failed batch read: the
    /// values of the keys ahead of the earliest failing one (all of them
    /// when nothing failed) and the error that stopped it.  A wrapper's
    /// completion keeps no prefix — its finish step sees batch results.
    pub fn wait_prefix(self) -> (Vec<Option<f64>>, Option<StorageError>) {
        match self.state {
            CompletionState::One(Ok(value)) => (vec![value], None),
            CompletionState::One(Err(error)) => (Vec::new(), Some(error)),
            CompletionState::Ready { read, error } => (read, error),
            CompletionState::Wrapped { inner, finish } => match (finish.0)(inner.wait()) {
                Ok(read) => (read, None),
                Err(error) => (Vec::new(), Some(error)),
            },
            CompletionState::Pending(slots) => {
                let mut read = Vec::with_capacity(slots.len());
                let mut error = None;
                for slot in &slots {
                    match slot.wait_done() {
                        Ok(value) if error.is_none() => read.push(value),
                        Ok(_) => {}
                        Err(e) => {
                            error.get_or_insert(e);
                        }
                    }
                }
                (read, error)
            }
        }
    }

    /// [`Completion::wait`] for a window of one key (panics on an empty
    /// one): what [`CoefficientStore::try_get`](crate::CoefficientStore::try_get)
    /// returns.  The one-value state and a lone in-flight slot are taken
    /// without allocating.
    #[inline]
    pub fn wait_one(self) -> Result<Option<f64>, StorageError> {
        match self.state {
            CompletionState::One(result) => result,
            state => Completion { state }.wait_one_slow(),
        }
    }

    /// [`Completion::wait_one`] past the one-value state, out of line for
    /// the reason [`Completion::per_key`]'s window loop is.
    #[inline(never)]
    fn wait_one_slow(self) -> Result<Option<f64>, StorageError> {
        match self.state {
            CompletionState::Pending(slots) if slots.len() == 1 => slots[0].wait_done(),
            state => Completion { state }.wait().map(|read| read[0]),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;

    #[test]
    fn ready_completion_resolves_immediately() {
        let c = Completion::ready(Ok(vec![Some(1.0), None]));
        assert!(c.is_ready());
        assert_eq!(c.wait(), Ok(vec![Some(1.0), None]));
    }

    #[test]
    fn pending_completion_waits_for_slots() {
        let slots: Vec<Arc<InflightSlot>> = (0..2).map(|_| Arc::new(InflightSlot::new())).collect();
        let c = Completion::pending(slots.clone());
        assert!(!c.is_ready());
        slots[0].try_complete(Ok(Some(2.5)));
        assert!(!c.is_ready());
        slots[1].try_complete(Ok(None));
        assert!(c.is_ready());
        assert_eq!(c.wait(), Ok(vec![Some(2.5), None]));
    }

    #[test]
    fn earliest_index_error_wins() {
        let slots: Vec<Arc<InflightSlot>> = (0..3).map(|_| Arc::new(InflightSlot::new())).collect();
        let c = Completion::pending(slots.clone());
        let key_a = CoeffKey::new(&[1, 1]);
        let key_b = CoeffKey::new(&[2, 2]);
        // Completion order scrambles the indexes; the collapse must not.
        slots[2].try_complete(Err(StorageError::Permanent { key: key_b }));
        slots[0].try_complete(Ok(Some(1.0)));
        slots[1].try_complete(Err(StorageError::Transient {
            key: key_a,
            attempt: 0,
        }));
        assert_eq!(
            c.wait(),
            Err(StorageError::Transient {
                key: key_a,
                attempt: 0
            })
        );
    }

    #[test]
    fn a_failed_batch_keeps_what_it_read_ahead_of_the_failing_key() {
        use crate::{CoefficientStore, FaultInjectingStore, FaultPlan, MemoryStore};

        let keys: Vec<CoeffKey> = (0..4).map(CoeffKey::one).collect();
        let failed = StorageError::Permanent { key: keys[2] };
        // The `per_key` loop stops at the failing key.
        let store = FaultInjectingStore::new(
            MemoryStore::from_entries(keys.iter().map(|k| (*k, 1.5))),
            FaultPlan::new(0).with_permanent_keys([keys[2]]),
        );
        let read = vec![Some(1.5), Some(1.5)];
        assert_eq!(
            store.submit(&keys).wait_prefix(),
            (read.clone(), Some(failed.clone()))
        );
        assert_eq!(store.injected().attempts, 3, "nothing behind it was read");
        // `wait` keeps the batch contract: an error, no partial results.
        assert_eq!(store.submit(&keys).wait(), Err(failed.clone()));
        // In-flight slots: the prefix ends at the earliest failing index.
        let slots: Vec<Arc<InflightSlot>> = (0..3).map(|_| Arc::new(InflightSlot::new())).collect();
        let c = Completion::pending(slots.clone());
        slots[2].try_complete(Ok(Some(3.0)));
        slots[1].try_complete(Err(failed.clone()));
        slots[0].try_complete(Ok(Some(1.0)));
        assert_eq!(c.wait_prefix(), (vec![Some(1.0)], Some(failed)));
    }

    #[test]
    fn wait_one_takes_every_state() {
        let key = [CoeffKey::one(3)];
        let failed = StorageError::Permanent { key: key[0] };
        for verdict in [Ok(Some(2.5)), Ok(None), Err(failed)] {
            let one = Completion::per_key(&key, |_| verdict.clone());
            assert!(matches!(one.state, CompletionState::One(_)));
            let ready = Completion::ready(verdict.clone().map(|v| vec![v]));
            let slot = Arc::new(InflightSlot::new());
            let pending = Completion::pending(vec![slot.clone()]);
            let wrapped = Completion::wrapped(
                Completion::pending(vec![slot.clone()]),
                |result: BatchResult| result,
            );
            assert!(!pending.is_ready() && !wrapped.is_ready());
            slot.try_complete(verdict.clone());
            for completion in [one, ready, pending, wrapped] {
                assert!(completion.is_ready());
                assert_eq!(completion.wait_one(), verdict);
            }
            // The one-value state agrees with the window takers too.
            let wait = Completion::per_key(&key, |_| verdict.clone()).wait();
            assert_eq!(wait, verdict.clone().map(|v| vec![v]));
        }
    }

    #[test]
    fn shared_slot_feeds_two_completions() {
        let shared = Arc::new(InflightSlot::new());
        let a = Completion::pending(vec![shared.clone()]);
        let b = Completion::pending(vec![shared.clone()]);
        shared.try_complete(Ok(Some(7.0)));
        assert_eq!(a.wait(), Ok(vec![Some(7.0)]));
        assert_eq!(b.wait(), Ok(vec![Some(7.0)]));
    }

    #[test]
    fn wrapped_completion_follows_its_inner_and_finishes_when_taken() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let ran = Arc::new(AtomicUsize::new(0));
        let double = |ran: &Arc<AtomicUsize>| {
            let ran = Arc::clone(ran);
            move |result: BatchResult| {
                ran.fetch_add(1, Ordering::SeqCst);
                result.map(|values| values.into_iter().map(|v| v.map(|x| 2.0 * x)).collect())
            }
        };
        let slot = Arc::new(InflightSlot::new());
        let c = Completion::wrapped(Completion::pending(vec![slot.clone()]), double(&ran));
        assert!(!c.is_ready(), "ready only when the inner completion is");
        slot.try_complete(Ok(Some(1.5)));
        assert!(c.is_ready());
        assert_eq!(
            ran.load(Ordering::SeqCst),
            0,
            "nothing runs before the take"
        );
        assert_eq!(c.wait(), Ok(vec![Some(3.0)]));
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        // Dropped untaken: the finish step never runs.
        drop(Completion::wrapped(
            Completion::ready(Ok(vec![None])),
            double(&ran),
        ));
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }
}

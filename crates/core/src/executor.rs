//! The progressive executor (steps 4–5 of Batch-Biggest-B).
//!
//! The paper fixes the retrieval *order* (`ι_p` descending) and nothing
//! else, so how the next retrievals cross the store boundary is free: with
//! a prefetch window `W > 1` they cross `W` at a time, and over an
//! asynchronous store two such windows are kept submitted per batch
//! (DESIGN.md §12).  What has been read ahead — `landed` values plus a
//! FIFO of `in_flight` windows — is not *applied*: every value is folded,
//! bounded and charged to the fault ledger by its own step, so step
//! traces, certificates and counts are those of the blocking run.

use std::collections::VecDeque;
use std::sync::Arc;

use batchbb_penalty::Penalty;
use batchbb_storage::{
    retry::get_with_retry, CoefficientStore, Completion, FaultStats, RetryPolicy, StorageError,
    ZERO_TOL,
};
use batchbb_tensor::{CoeffKey, KeyMap};

use crate::observe::{ExecObserver, StepObservation};
use crate::optimality::{theorem1_bound, theorem2_penalty};
use crate::{BatchQueries, MasterList};

/// One coefficient of the progression: a master-list key and its
/// importance `ι_p(ξ)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressionEntry {
    /// The coefficient's importance `ι_p(ξ)` under the executor's penalty.
    pub importance: f64,
    /// The coefficient key.
    pub key: CoeffKey,
    /// The key's slot in the batch's [`MasterList`].
    slot: u32,
}

/// Every master-list coefficient with its `ι_p`, in slot (key) order — the
/// one scoring body: the executor's progression ([`progression_order`]),
/// [`crate::optimality::importance_ranking`] and
/// [`crate::layout::aggregate_importance_ranking`] all score through it.
/// A NaN importance scores as zero ([`importance_or_zero`]).
pub(crate) fn scored<'m>(
    master: &'m MasterList,
    penalty: &'m dyn Penalty,
    batch_size: usize,
) -> impl Iterator<Item = ProgressionEntry> + 'm {
    // `Penalty::importance` takes `usize` query indices; one scratch
    // column, sized for the widest possible one, widens every key's `u32`s.
    let mut column: Vec<(usize, f64)> = Vec::with_capacity(batch_size);
    master.iter().enumerate().map(move |(slot, (key, leaves))| {
        column.clear();
        column.extend(leaves.iter().map(|&(i, v)| (i as usize, v)));
        let importance = penalty.importance(&column, batch_size);
        ProgressionEntry {
            importance: importance_or_zero(importance),
            key: *key,
            slot: slot as u32,
        }
    })
}

/// The one NaN rule of every ranking by `ι_p`: a pathological penalty can
/// emit NaN, which would sort to the front (`total_cmp` orders NaN above
/// +∞) and poison every importance sum from there on, so it counts as "no
/// importance" instead.
pub(crate) fn importance_or_zero(importance: f64) -> f64 {
    if importance.is_nan() {
        0.0
    } else {
        importance
    }
}

/// A batch's progression under one penalty: every master-list
/// coefficient, most important first, and the sum of their importances.
/// Immutable once sorted; a batch keeps the last one it sorted under a
/// keyed penalty ([`BatchQueries::progression`]) and hands out clones.  A
/// clone shares the entries, one allocation sized by the master list —
/// deliberately no small handle around it: a handle that lives as long
/// as the batch, taken by the caller thread from glibc's per-thread cache,
/// can be a chunk a pool worker freed into it, and then pins a hole in
/// that worker's arena under every later serve (DESIGN.md §6).
#[derive(Debug, Clone)]
pub(crate) struct Progression {
    entries: Arc<[ProgressionEntry]>,
    /// Σ ι_p over `entries`, summed in progression order: Theorem 2's
    /// expected penalty is then a function of the batch alone.
    total_importance: f64,
}

impl Progression {
    /// The entries, most important first.
    pub(crate) fn entries(&self) -> &[ProgressionEntry] {
        &self.entries
    }
}

/// The progression order: every master-list coefficient, most important
/// first, ties toward the smaller slot — the smaller key, since slots are
/// in key order — so every component (executor, bounded variant,
/// optimality ranking) agrees on one deterministic order.  Slots are
/// unique, so the order is strict and an unstable sort is exact.  The one
/// sort: called by the batch's memo ([`BatchQueries::progression`]) and by
/// [`ProgressiveExecutor::from_master`].
pub(crate) fn progression_order(
    master: &MasterList,
    penalty: &dyn Penalty,
    batch_size: usize,
) -> Progression {
    let mut entries = Vec::with_capacity(master.len());
    entries.extend(scored(master, penalty, batch_size));
    entries.sort_unstable_by(|a, b| {
        b.importance
            .total_cmp(&a.importance)
            .then_with(|| a.slot.cmp(&b.slot))
    });
    let total_importance = entries.iter().fold(0.0, |sum, e| sum + e.importance);
    Progression {
        entries: entries.into(),
        total_importance,
    }
}

/// How many prefetch windows one batch keeps submitted at once.  Two, so
/// that a landed window never leaves the store idle until somebody
/// notices: the one behind it is already being read, and taking the
/// landed one submits the next.
const WINDOWS_IN_FLIGHT: usize = 2;

/// One batched prefetch submitted to an asynchronous store and not yet
/// taken.  The entries it covers are still *pending*: their importance
/// stays in `remaining_importance`, and each is folded into the estimates
/// — and charged to [`FaultStats`] — by its own step when its turn comes.
/// Never seen over a synchronous store.
struct InFlight {
    len: usize,
    completion: Completion,
}

/// What one [`ProgressiveExecutor::step`] did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepInfo {
    /// The coefficient key retrieved.
    pub key: CoeffKey,
    /// Its importance `ι_p(ξ)` under the executor's penalty.
    pub importance: f64,
    /// The retrieved data coefficient (0 when absent from the store).
    pub value: f64,
    /// How many queries this retrieval advanced.
    pub queries_advanced: usize,
}

/// What one [`ProgressiveExecutor::try_step`] did on the fallible path.
#[derive(Debug, Clone, PartialEq)]
pub enum TryStepOutcome {
    /// The most important pending coefficient was retrieved successfully.
    Retrieved(StepInfo),
    /// A previously deferred coefficient finally resolved; its contribution
    /// is now folded into the estimates.
    Recovered(StepInfo),
    /// The step's retry budget ran out; the coefficient is parked in the
    /// deferral queue (re-attempted by later `try_step` calls once the
    /// progression drains). The estimates remain valid — just with a wider
    /// penalty bound, reported by
    /// [`ProgressiveExecutor::degradation_report`].
    Deferred {
        /// The coefficient whose retrieval keeps failing.
        key: CoeffKey,
        /// Its importance `ι_p(ξ)`, now counted toward the deferred mass.
        importance: f64,
        /// The last failure observed.
        error: StorageError,
    },
    /// The policy's `total_attempt_budget` is spent; nothing was attempted.
    BudgetExhausted,
    /// A batched prefetch submitted to an asynchronous store is still in
    /// flight: no coefficient was applied and no attempt was charged.  The
    /// caller may do other work (a serve worker parks this batch and picks
    /// up another) and re-invoke `try_step` later; the step resolves the
    /// fetch as soon as it lands.  Never returned over a synchronous store
    /// — the default [`CoefficientStore::submit`] adapter resolves at
    /// submit time, keeping the blocking path bit-identical.
    Pending,
    /// Progression and deferral queue are both drained — the estimates
    /// are exact.
    Exhausted,
}

/// How a [`ProgressiveExecutor::drain_with_faults`] loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainStatus {
    /// Everything retrieved; estimates are exact.
    Exact,
    /// A full pass over the deferral queue recovered nothing (persistent
    /// faults); estimates are the best achievable until the store heals.
    Degraded,
    /// The policy's total attempt budget ran out first.
    BudgetExhausted,
    /// The certified worst-case bound dropped to the caller's target
    /// before the progression drained (only from
    /// [`ProgressiveExecutor::drain_with_faults_budgeted_to_bound`]): the
    /// estimates are inexact but provably within the target penalty.
    BoundReached,
}

/// Degraded-result contract under partial coefficient availability:
/// everything a caller needs to decide whether the current estimates are
/// good enough, returned by [`ProgressiveExecutor::degradation_report`].
///
/// The penalty accounting extends Theorems 1 and 2 to the fault-tolerant
/// setting by treating deferred coefficients exactly like unretrieved
/// ones: a deferred `ξ` contributes its `ι_p(ξ)` to the expected-penalty
/// numerator and participates in the worst-case maximum, so both bounds
/// are *monotonically non-increasing* as deferrals drain (each recovery
/// moves a coefficient's mass out of the bound, never into it).
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationReport {
    /// The current progressive estimates (valid, possibly inexact).
    pub estimates: Vec<f64>,
    /// Coefficients awaiting recovery, as `(key, importance)` in queue
    /// order.  Mapping each key through `batchbb_storage::shard_of` names
    /// the shard whose failure deferred it.
    pub deferred: Vec<(CoeffKey, f64)>,
    /// Σ ι_p over the deferred coefficients.
    pub deferred_importance: f64,
    /// Theorem 2's expected penalty over unretrieved ∪ deferred mass:
    /// `(remaining + deferred) / (n_total − 1)`.
    pub expected_penalty: f64,
    /// Theorem 1's worst-case bound `K^α · max ι_p` over unretrieved ∪
    /// deferred coefficients; zero once exact.
    pub worst_case_bound: f64,
    /// Fault-path counters accumulated by this executor's `try_step`s.
    pub fault: FaultStats,
    /// True when nothing is pending or deferred (estimates are exact).
    pub is_exact: bool,
}

/// Progressive evaluation state for one batch under one penalty function.
///
/// The penalty is supplied *at query time* — the same preprocessed store
/// serves any penalty, which is the flexibility argument of §5 ("an online
/// approximation of the query batch leads to a much more flexible scheme").
pub struct ProgressiveExecutor<'a> {
    store: &'a dyn CoefficientStore,
    /// The batch's master list, shared with every other executor of the
    /// batch; progression and deferred entries index it by slot.
    master: Arc<MasterList>,
    /// Every master-list coefficient in progression order, shared with
    /// every executor of the batch under an equal penalty key.  `ι_p` is a
    /// function of the query coefficients alone, so the order is fixed
    /// when the batch is scored and never changes afterwards.
    order: Arc<[ProgressionEntry]>,
    /// `order[..cursor]` has been taken (applied or moved to the deferral
    /// queue); `order[cursor..]` is pending.  The cursor only advances, so
    /// a failed or abandoned read-ahead needs no undo.
    cursor: usize,
    estimates: Vec<f64>,
    homogeneity: f64,
    retrieved: usize,
    /// Per slot, the value observed for a key already pulled from the
    /// store — needed to repair estimates when the view is updated
    /// mid-progression.
    seen: Vec<Option<f64>>,
    /// Σ ι_p over `order[cursor..]` — Theorem 2's expected-penalty
    /// numerator, summed in progression order and maintained
    /// incrementally.
    remaining_importance: f64,
    /// Prefetch window W: how many pending entries one fallible step may
    /// fetch through a single [`CoefficientStore::submit`] call.
    /// 1 (the default) takes exactly the singleton retrieval path.
    prefetch_window: usize,
    /// Values read for `order[cursor..]` but not yet applied, front = next
    /// (empty: nothing landed).
    landed: VecDeque<f64>,
    /// Submitted windows not yet taken, oldest first: consecutive runs of
    /// `order` starting at `cursor + singleton_debt + landed.len()`, at
    /// most [`WINDOWS_IN_FLIGHT`] of them.
    in_flight: VecDeque<InFlight>,
    /// After a whole-batch prefetch failure, how many singleton steps to
    /// run before re-attempting a batched fetch.  The singleton fallback
    /// is what attributes the failure: only the keys that individually
    /// fail get deferred, the rest retrieve normally.  It covers the
    /// failed window's own keys only — windows in flight behind it hold
    /// disjoint keys and stay.
    singleton_debt: usize,
    /// Coefficients whose retrieval exhausted its retry budget, awaiting
    /// re-attempts (FIFO so every deferred key gets its turn).
    deferred: VecDeque<ProgressionEntry>,
    /// Σ ι_p over the deferral queue, tracked separately from
    /// `remaining_importance` so degraded penalty bounds stay exact.
    deferred_importance: f64,
    /// Fault-path counters: every attempt of every step.
    fault: FaultStats,
    /// Optional instrumentation: metrics and trace events per step. `None`
    /// keeps the hot path free of even a clock read.
    observer: Option<ExecObserver>,
    /// Nanoseconds spent inside store calls, counted only while an
    /// observer is attached.
    store_wait_ns: u64,
}

/// Compile-time `Send` audit: executors migrate between `batchbb-serve`
/// pool workers, so every field (store borrow, observer, bookkeeping) must
/// stay `Send`. `CoefficientStore` and `EventSink` both require
/// `Send + Sync`, which this function proves transitively.
#[allow(dead_code)]
fn assert_executor_is_send(exec: ProgressiveExecutor<'_>) -> impl Send + '_ {
    exec
}

impl<'a> ProgressiveExecutor<'a> {
    /// Builds the executor over the batch's master list
    /// ([`BatchQueries::master`], merged on the batch's first use and shared
    /// after it) and the batch's progression under `penalty`: shared,
    /// unscored, when the batch last sorted under an equal
    /// [`Penalty::scoring_key`]; otherwise every coefficient is scored
    /// with `ι_p` and sorted afresh.
    pub fn new(
        batch: &BatchQueries,
        penalty: &dyn Penalty,
        store: &'a dyn CoefficientStore,
    ) -> Self {
        let order = batch.progression(penalty);
        ProgressiveExecutor::over(batch.len(), batch.master(), order, penalty, store)
    }

    /// Builds from a master list the caller merged ([`MasterList::build`])
    /// for a batch of `batch_size` queries; the executor takes ownership of
    /// it and sorts its own progression.  [`ProgressiveExecutor::new`]
    /// shares the batch's own list and progression instead.
    pub fn from_master(
        batch_size: usize,
        master: MasterList,
        penalty: &dyn Penalty,
        store: &'a dyn CoefficientStore,
    ) -> Self {
        let order = progression_order(&master, penalty, batch_size);
        ProgressiveExecutor::over(batch_size, Arc::new(master), order, penalty, store)
    }

    fn over(
        batch_size: usize,
        master: Arc<MasterList>,
        order: Progression,
        penalty: &dyn Penalty,
        store: &'a dyn CoefficientStore,
    ) -> Self {
        ProgressiveExecutor {
            store,
            seen: vec![None; master.len()],
            master,
            remaining_importance: order.total_importance,
            order: order.entries,
            cursor: 0,
            estimates: vec![0.0; batch_size],
            homogeneity: penalty.homogeneity(),
            retrieved: 0,
            prefetch_window: 1,
            landed: VecDeque::new(),
            in_flight: VecDeque::new(),
            singleton_debt: 0,
            deferred: VecDeque::new(),
            deferred_importance: 0.0,
            fault: FaultStats::default(),
            observer: None,
            store_wait_ns: 0,
        }
    }

    /// Attaches an observer: every subsequent step records metrics and
    /// (when the observer's sink is enabled) emits trace events. Emits the
    /// `exec.start` event immediately.
    ///
    /// Observation never alters evaluation — estimates, progression order,
    /// and fault handling are bit-for-bit identical with or without it.
    pub fn with_observer(mut self, observer: ExecObserver) -> Self {
        observer.on_start(self.estimates.len());
        self.observer = Some(observer);
        self
    }

    /// The attached observer, if any.
    pub fn observer(&self) -> Option<&ExecObserver> {
        self.observer.as_ref()
    }

    /// Re-prices the attached observer's per-step Theorem-1 bounds at
    /// `k_abs_sum` — for a caller whose `K` grew, as a serve batch's does
    /// when it advances to a newer version.  A no-op without an observer
    /// or without [`ExecObserver::with_bounds`].
    pub fn reprice_observer(&mut self, k_abs_sum: f64) {
        if let Some(observer) = &mut self.observer {
            observer.reprice(k_abs_sum);
        }
    }

    /// Wall-clock nanoseconds spent inside store calls so far — singleton
    /// reads, window submits and completion waits — counted only while an
    /// observer is attached (0 otherwise: an unobserved executor reads no
    /// clock).  The serve pool records its growth over a slice as the
    /// slice's `store_wait` phase (DESIGN.md §14).
    pub fn store_wait_ns(&self) -> u64 {
        self.store_wait_ns
    }

    /// Runs one store call, timing it into `store_wait_ns` when an observer
    /// is attached; returns the call's result and its duration (0 when
    /// unobserved).
    fn store_call<T>(&mut self, call: impl FnOnce() -> T) -> (T, u64) {
        let timer = ExecObserver::maybe_timer(&self.observer);
        let out = call();
        let ns = timer.map_or(0, |t| t.elapsed_ns());
        self.store_wait_ns += ns;
        (out, ns)
    }

    /// Sets the prefetch window `w >= 1`: each fallible step may read the
    /// next `w` pending entries through one [`CoefficientStore::submit`]
    /// call, then apply them one per step in importance order.
    ///
    /// Step semantics are unchanged for every `w`: each `try_step` still
    /// folds in exactly one coefficient, per-step penalty bounds are
    /// computed over the same pending set, and (thanks to canonical
    /// finalization) the final estimates are bit-identical across windows.
    /// `w = 1` takes exactly the unbatched code path.  On a whole-batch
    /// fetch failure the cursor simply has not moved, and the next `w`
    /// steps retrieve singleton-style, deferring only the keys that
    /// individually fail.  Over an asynchronous store up to two windows
    /// are outstanding at once (DESIGN.md §12); their boundaries are the
    /// ones a blocking run draws.
    pub fn with_prefetch_window(mut self, w: usize) -> Self {
        assert!(w >= 1, "prefetch window must be at least 1");
        self.prefetch_window = w;
        self
    }

    /// The configured prefetch window.
    pub fn prefetch_window(&self) -> usize {
        self.prefetch_window
    }

    /// Extracts the most important unretrieved coefficient, fetches its
    /// data value, and advances every query that needs it (Equation 2).
    /// Returns `None` once nothing is pending or deferred — at which point
    /// [`ProgressiveExecutor::estimates`] holds the exact results.
    ///
    /// This is [`ProgressiveExecutor::try_step`] for callers with nothing
    /// to do about a failure: one attempt a key, blocking on a parked
    /// prefetch instead of yielding.
    ///
    /// # Panics
    ///
    /// If the retrieval fails.
    pub fn step(&mut self) -> Option<StepInfo> {
        loop {
            match self.try_step(&crate::ONE_ATTEMPT) {
                TryStepOutcome::Retrieved(info) | TryStepOutcome::Recovered(info) => {
                    return Some(info)
                }
                TryStepOutcome::Exhausted => return None,
                TryStepOutcome::Pending => self.resolve_window(&crate::ONE_ATTEMPT, usize::MAX),
                TryStepOutcome::Deferred { error, .. } => panic!("retrieval failed: {error}"),
                TryStepOutcome::BudgetExhausted => unreachable!("ONE_ATTEMPT sets no budget"),
            }
        }
    }

    /// Takes the next pending entry off the progression.
    fn take_next(&mut self) -> Option<ProgressionEntry> {
        let entry = *self.order.get(self.cursor)?;
        self.cursor += 1;
        Some(entry)
    }

    /// Takes the next pending entry together with its read-ahead value, if
    /// one has landed.
    fn take_landed(&mut self) -> Option<(ProgressionEntry, f64)> {
        let value = self.landed.pop_front()?;
        let entry = self
            .take_next()
            .expect("landed values cover pending entries");
        Some((entry, value))
    }

    /// The in-flight window the next step waits on: the oldest one, once
    /// nothing landed — or owed singleton-style — stands before it.
    fn front_window(&self) -> Option<&InFlight> {
        if self.landed.is_empty() && self.singleton_debt == 0 {
            self.in_flight.front()
        } else {
            None
        }
    }

    /// Folds one retrieved value into the estimates — the one step body.
    /// `recovered` says the entry came off the deferral queue rather than
    /// the progression, i.e. which importance sum it leaves.
    fn fold(
        &mut self,
        entry: ProgressionEntry,
        value: f64,
        recovered: bool,
        latency_ns: u64,
    ) -> StepInfo {
        let column = self.master.column_at(entry.slot as usize);
        if value != 0.0 {
            for &(qi, c) in column {
                self.estimates[qi as usize] += c * value;
            }
        }
        let info = StepInfo {
            key: entry.key,
            importance: entry.importance,
            value,
            queries_advanced: column.len(),
        };
        self.seen[entry.slot as usize] = Some(value);
        self.retrieved += 1;
        if recovered {
            self.debit_deferred(entry.importance);
        } else {
            self.debit_remaining(entry.importance);
        }
        if self.is_exact() {
            self.canonicalize_estimates();
        }
        let kind = if recovered { "recovered" } else { "retrieved" };
        self.observe_step(kind, &info, latency_ns);
        info
    }

    /// Resolves a ready (or waited-on) batched prefetch of the next `len`
    /// entries: a successful one lands its values in progression order; a
    /// failed one lands nothing — the cursor never moved — and arms the
    /// singleton-fallback debt, so only the keys that individually fail
    /// get deferred.
    fn finish_window(&mut self, window: InFlight) {
        let (fetched, _) = self.store_call(|| window.completion.wait());
        match fetched {
            Ok(values) => self
                .landed
                .extend(values.into_iter().map(|v| v.unwrap_or(0.0))),
            // Whole-batch failure carries no per-key verdicts: let the
            // next `len` steps retrieve singleton-style.
            Err(_) => self.singleton_debt = window.len,
        }
    }

    /// Submits prefetch windows until [`WINDOWS_IN_FLIGHT`] are
    /// outstanding.  Window boundaries are the blocking run's: each is
    /// sized against what will be pending, and what the attempt budget
    /// will allow, once everything already ahead has been folded (every
    /// prefetched key is charged one attempt when applied, so read-ahead
    /// never reaches past the budget).  A window ready at submit with
    /// nothing before it lands inline and ends the round — a synchronous
    /// store sees one window at a time, byte-identical to a blocking
    /// `try_get_many`; only a fetch still outstanding gets company.
    /// Speculative windows stop at `horizon`, the first index a
    /// bound-targeted drain may never reach.
    fn read_ahead(&mut self, policy: &RetryPolicy, horizon: usize) {
        if self.prefetch_window == 1 {
            return;
        }
        // No batched fetch while a failed one is still being attributed
        // by singleton steps.
        while self.singleton_debt == 0 && self.in_flight.len() < WINDOWS_IN_FLIGHT {
            let ahead = self.landed.len() + self.in_flight.iter().map(|w| w.len).sum::<usize>();
            let start = self.cursor + ahead;
            if ahead > 0 && start >= horizon {
                break;
            }
            let budget_left = policy.total_attempt_budget.map_or(usize::MAX, |b| {
                usize::try_from(b - self.fault.attempts).unwrap_or(usize::MAX)
            });
            let len = self
                .prefetch_window
                .min(self.order.len() - start)
                .min(budget_left.saturating_sub(ahead));
            if len <= 1 {
                break;
            }
            let keys: Vec<CoeffKey> = self.order[start..start + len]
                .iter()
                .map(|e| e.key)
                .collect();
            let store = self.store;
            let (completion, _) = self.store_call(|| store.submit(&keys));
            let window = InFlight { len, completion };
            if ahead == 0 && window.completion.is_ready() {
                self.finish_window(window);
                break;
            }
            self.in_flight.push_back(window);
        }
    }

    /// Blocks until the oldest in-flight window resolves, lands it, and
    /// submits the window that may now follow (no-op when nothing is in
    /// flight).  `try_step` calls this once the completion is ready; the
    /// callers that cannot usefully yield — [`ProgressiveExecutor::step`]
    /// and the unbounded [`ProgressiveExecutor::drain_with_faults`] — call
    /// it regardless.
    fn resolve_window(&mut self, policy: &RetryPolicy, horizon: usize) {
        let Some(window) = self.in_flight.pop_front() else {
            return;
        };
        self.finish_window(window);
        self.read_ahead(policy, horizon);
    }

    /// Recomputes the estimates from `seen` in slot order, i.e. in sorted
    /// key order.
    ///
    /// f64 addition is not associative, so the last bits of an estimate
    /// depend on the order contributions were folded in — and the fallible
    /// path applies deferred coefficients *later* than a fault-free run
    /// would. Re-summing in a canonical order once evaluation is exact
    /// makes the final estimates a pure function of the retrieved values:
    /// a drained fault-injected run matches a fault-free run bit for bit.
    fn canonicalize_estimates(&mut self) {
        for e in &mut self.estimates {
            *e = 0.0;
        }
        for (slot, value) in self.seen.iter().enumerate() {
            let Some(value) = *value else { continue };
            if value == 0.0 {
                continue;
            }
            for &(qi, c) in self.master.column_at(slot) {
                self.estimates[qi as usize] += c * value;
            }
        }
    }

    fn debit_remaining(&mut self, importance: f64) {
        self.remaining_importance = if self.remaining() == 0 {
            0.0 // avoid leaving rounding residue after the final step
        } else {
            (self.remaining_importance - importance).max(0.0)
        };
    }

    fn debit_deferred(&mut self, importance: f64) {
        self.deferred_importance = if self.deferred.is_empty() {
            0.0
        } else {
            (self.deferred_importance - importance).max(0.0)
        };
    }

    /// `max ι_p` over pending ∪ deferred coefficients — Theorem 1's
    /// `ι_p(ξ′)` extended to the fault-tolerant setting; `None` once exact.
    fn max_unresolved_importance(&self) -> Option<f64> {
        self.next_importance()
            .into_iter()
            .chain(self.deferred.iter().map(|e| e.importance))
            .fold(None::<f64>, |acc, i| Some(acc.map_or(i, |a| a.max(i))))
    }

    fn observe_step(&self, kind: &'static str, info: &StepInfo, latency_ns: u64) {
        if let Some(obs) = &self.observer {
            obs.on_step(&StepObservation {
                kind,
                info,
                pending: self.remaining(),
                deferred: self.deferred.len(),
                remaining_importance: self.remaining_importance,
                deferred_importance: self.deferred_importance,
                max_unresolved: self.max_unresolved_importance(),
                homogeneity: self.homogeneity,
                retrieved: self.retrieved,
                fault: self.fault,
                latency_ns,
            });
        }
    }

    /// The progressive step — the one stepping body; the infallible
    /// [`ProgressiveExecutor::step`] is a wrapper over it.  Retrieves the
    /// next coefficient with retries under `policy` and *defers* instead
    /// of failing when a retrieval cannot be completed.
    ///
    /// Source order: the progression is drained first (the paper's
    /// importance order is preserved for everything retrievable); once it
    /// is empty, deferred coefficients are re-attempted round-robin.
    /// A deferred coefficient's importance moves from
    /// `remaining_importance` into the separately tracked deferred mass, so
    /// [`ProgressiveExecutor::degradation_report`] can bound the penalty of
    /// the current estimates under partial availability.
    pub fn try_step(&mut self, policy: &RetryPolicy) -> TryStepOutcome {
        self.try_step_within(policy, usize::MAX)
    }

    /// [`ProgressiveExecutor::try_step`] that submits no speculative
    /// window starting at or past `horizon` (an index into `order`).
    fn try_step_within(&mut self, policy: &RetryPolicy, horizon: usize) -> TryStepOutcome {
        let Some(attempts_allowed) = policy.attempts_allowed(self.fault.attempts) else {
            return TryStepOutcome::BudgetExhausted;
        };
        // Nothing read ahead: submit (a no-op while singleton steps are
        // owed).  Then the oldest window in flight owns the next entries
        // in progression order: take it if it landed, park otherwise.
        if self.landed.is_empty() && self.in_flight.is_empty() {
            self.read_ahead(policy, horizon);
        }
        if let Some(front) = self.front_window() {
            if !front.completion.is_ready() {
                return TryStepOutcome::Pending;
            }
            self.resolve_window(policy, horizon);
        }
        // A value read ahead is next in progression order.  Its store
        // attempt happened (and succeeded) at prefetch time; it is
        // *recorded* here, one per applied coefficient, so the per-step
        // [`FaultStats`] progression — and the `total_attempt_budget` it is
        // reconciled against — is identical to the unbatched path.
        if let Some((entry, value)) = self.take_landed() {
            self.fault.attempts += 1;
            self.fault.successes += 1;
            return TryStepOutcome::Retrieved(self.fold(entry, value, false, 0));
        }
        if self.singleton_debt > 0 {
            self.singleton_debt -= 1;
        }
        // Singleton read: the progression first, the deferral queue after.
        let (entry, recovering) = match self.take_next() {
            Some(entry) => (entry, false),
            None => match self.deferred.pop_front() {
                Some(entry) => (entry, true),
                None => return TryStepOutcome::Exhausted,
            },
        };
        let store = self.store;
        let (out, latency_ns) =
            self.store_call(|| get_with_retry(store, &entry.key, policy, attempts_allowed));
        out.record(&mut self.fault);
        match out.result {
            Ok(value) => {
                let value = value.unwrap_or(0.0);
                if recovering {
                    self.fault.recoveries += 1;
                    TryStepOutcome::Recovered(self.fold(entry, value, true, latency_ns))
                } else {
                    TryStepOutcome::Retrieved(self.fold(entry, value, false, latency_ns))
                }
            }
            Err(error) => {
                if !recovering {
                    // First deferral of this key: move its mass out of the
                    // progression's importance sum and count it exactly
                    // once.  A re-deferral only returns to the back of the
                    // queue.
                    self.fault.deferrals += 1;
                    self.debit_remaining(entry.importance);
                    self.deferred_importance += entry.importance;
                }
                self.deferred.push_back(entry);
                if let Some(obs) = &self.observer {
                    obs.on_defer(
                        &entry.key,
                        entry.importance,
                        !recovering,
                        self.deferred.len(),
                        &self.fault,
                    );
                }
                TryStepOutcome::Deferred {
                    key: entry.key,
                    importance: entry.importance,
                    error,
                }
            }
        }
    }

    /// Drives [`ProgressiveExecutor::try_step`] until the estimates are
    /// exact, the attempt budget runs out, or a full pass over the deferral
    /// queue recovers nothing (which means every remaining fault is
    /// persistent under the current store state — re-attempting without an
    /// external change, e.g. `FaultInjectingStore::heal`, would loop
    /// forever).
    pub fn drain_with_faults(&mut self, policy: &RetryPolicy) -> DrainStatus {
        loop {
            match self.drain_with_faults_budgeted(policy, usize::MAX) {
                Some(status) => return status,
                // An unbounded budget only yields when an asynchronous
                // prefetch is in flight; with nothing better to do, block
                // on it and continue.
                None => {
                    debug_assert!(
                        self.fetch_pending(),
                        "an unbounded drain yields only on a parked fetch"
                    );
                    self.resolve_window(policy, usize::MAX);
                }
            }
        }
    }

    /// Step-budgeted variant of [`ProgressiveExecutor::drain_with_faults`]:
    /// runs at most `max_steps` fallible steps, then hands control back.
    ///
    /// Returns `Some(status)` when a terminal state was reached within the
    /// budget, `None` when the budget expired first — the caller re-invokes
    /// later to continue exactly where evaluation stopped.  This is the
    /// scheduling primitive the `batchbb-serve` worker pool slices batches
    /// with, so one huge batch cannot starve the others.
    ///
    /// Fairness caveat: once the progression is drained, concluding
    /// `Degraded` requires one *full* fruitless pass over the deferral queue, so a
    /// budget smaller than [`ProgressiveExecutor::deferred_count`] cannot
    /// make progress in that phase — pass at least
    /// `max_steps.max(self.deferred_count())`.
    pub fn drain_with_faults_budgeted(
        &mut self,
        policy: &RetryPolicy,
        max_steps: usize,
    ) -> Option<DrainStatus> {
        self.drain_observed(policy, max_steps, None)
    }

    /// Bound-targeted variant of
    /// [`ProgressiveExecutor::drain_with_faults_budgeted`]: additionally
    /// stops — with [`DrainStatus::BoundReached`] — as soon as the
    /// certified worst-case bound ([`DegradationReport::worst_case_bound`],
    /// i.e. `K^α · max ι_p` over pending ∪ deferred mass) is `<= epsilon`.
    ///
    /// This is the paper's answer-at-certified-error contract: the caller
    /// names a penalty target ε and gets back the cheapest prefix whose
    /// Theorem-1 certificate meets it. The target is checked *before* each
    /// step, so a batch admitted with an already-satisfied target performs
    /// zero retrievals. An exact drain still reports
    /// [`DrainStatus::Exact`] (exactness beats the weaker certificate);
    /// `epsilon` below zero or `NaN` never triggers, making the call
    /// equivalent to the untargeted drain.
    pub fn drain_with_faults_budgeted_to_bound(
        &mut self,
        policy: &RetryPolicy,
        max_steps: usize,
        epsilon: f64,
        k_abs_sum: f64,
    ) -> Option<DrainStatus> {
        self.drain_observed(policy, max_steps, Some((epsilon, k_abs_sum)))
    }

    fn drain_observed(
        &mut self,
        policy: &RetryPolicy,
        max_steps: usize,
        target: Option<(f64, f64)>,
    ) -> Option<DrainStatus> {
        let status = self.drain_loop(policy, max_steps, target);
        if let Some(status) = status {
            if let Some(obs) = &self.observer {
                let label = match status {
                    DrainStatus::Exact => "exact",
                    DrainStatus::Degraded => "degraded",
                    DrainStatus::BudgetExhausted => "budget_exhausted",
                    DrainStatus::BoundReached => "bound_reached",
                };
                obs.on_finish(label, self.retrieved, &self.fault);
            }
        }
        status
    }

    fn drain_loop(
        &mut self,
        policy: &RetryPolicy,
        max_steps: usize,
        target: Option<(f64, f64)>,
    ) -> Option<DrainStatus> {
        // A bound-targeted drain stops before the first entry whose
        // `K^α·ι` already meets ε, so it never reads ahead past it (the
        // deferred mass can only keep it going longer, and then each
        // window is submitted when its turn comes).
        let horizon = target.map_or(usize::MAX, |(epsilon, k_abs_sum)| {
            self.cursor + self.steps_to_bound(epsilon, k_abs_sum)
        });
        let mut remaining = max_steps;
        loop {
            if let Some((epsilon, k_abs_sum)) = target {
                if self.is_exact() {
                    return Some(DrainStatus::Exact);
                }
                if self.worst_case_bound(k_abs_sum) <= epsilon {
                    return Some(DrainStatus::BoundReached);
                }
            }
            if self.remaining() == 0 {
                if self.deferred.is_empty() {
                    return Some(DrainStatus::Exact);
                }
                let queue_len = self.deferred.len();
                if remaining < queue_len {
                    // Can't complete a full deferral pass within the
                    // budget, and a partial pass proves nothing about
                    // persistence — yield to the caller instead.
                    return None;
                }
                remaining -= queue_len;
                let mut recovered_any = false;
                for _ in 0..queue_len {
                    match self.try_step(policy) {
                        TryStepOutcome::Recovered(_) | TryStepOutcome::Retrieved(_) => {
                            recovered_any = true;
                        }
                        TryStepOutcome::Deferred { .. } => {}
                        TryStepOutcome::BudgetExhausted => {
                            return Some(DrainStatus::BudgetExhausted)
                        }
                        // Unreachable in the deferral phase (prefetches
                        // only start from the progression), but yielding is the
                        // safe answer.
                        TryStepOutcome::Pending => return None,
                        TryStepOutcome::Exhausted => return Some(DrainStatus::Exact),
                    }
                }
                if !recovered_any && !self.deferred.is_empty() {
                    return Some(DrainStatus::Degraded);
                }
            } else {
                if remaining == 0 {
                    return None;
                }
                remaining -= 1;
                match self.try_step_within(policy, horizon) {
                    TryStepOutcome::BudgetExhausted => return Some(DrainStatus::BudgetExhausted),
                    TryStepOutcome::Exhausted => return Some(DrainStatus::Exact),
                    // The fetch is in flight: yield instead of spinning.
                    // No step ran, so the caller is owed no progress; it
                    // re-enters (or parks the batch) once the completion
                    // lands — see `fetch_pending`/`fetch_ready`.
                    TryStepOutcome::Pending => return None,
                    _ => {}
                }
            }
        }
    }

    /// Advances up to `steps` retrievals; returns how many actually ran.
    pub fn run(&mut self, steps: usize) -> usize {
        let mut done = 0;
        while done < steps && self.step().is_some() {
            done += 1;
        }
        done
    }

    /// Drains the progression, making the estimates exact. Returns total
    /// retrievals performed by this call.
    pub fn run_to_end(&mut self) -> usize {
        let mut done = 0;
        while self.step().is_some() {
            done += 1;
        }
        if let Some(obs) = &self.observer {
            let status = if self.is_exact() { "exact" } else { "degraded" };
            obs.on_finish(status, self.retrieved, &self.fault);
        }
        done
    }

    /// The current progressive estimates (exact once the progression drains).
    pub fn estimates(&self) -> &[f64] {
        &self.estimates
    }

    /// Number of coefficients retrieved so far.
    pub fn retrieved(&self) -> usize {
        self.retrieved
    }

    /// The coefficients retrieved so far with the values currently on
    /// record (post any [`ProgressiveExecutor::advance_version`] repairs),
    /// sorted by key.
    ///
    /// Together with canonical finalization this is a *replay witness*:
    /// once evaluation is exact, the estimates are a pure function of these
    /// entries, so a serial re-evaluation against a store holding exactly
    /// these values reproduces the final estimates bit for bit — the
    /// determinism check the concurrent-serving tests rest on.
    pub fn retrieved_entries(&self) -> Vec<(CoeffKey, f64)> {
        // Sized up front: every retrieval fills one slot, and a list grown
        // by doubling would leave a chain of freed buffers behind it.
        let mut entries = Vec::with_capacity(self.retrieved);
        entries.extend(
            self.seen
                .iter()
                .enumerate()
                .filter_map(|(slot, value)| value.map(|v| (*self.master.key(slot), v))),
        );
        entries
    }

    /// Number of coefficients still pending in normal progression order,
    /// read ahead or not (deferred coefficients are counted by
    /// [`ProgressiveExecutor::deferred_count`]).
    pub fn remaining(&self) -> usize {
        self.order.len() - self.cursor
    }

    /// True while the next step waits on a batched prefetch submitted to
    /// an asynchronous store: nothing landed and a window is in flight.
    /// A budgeted drain that yielded with work still pending and this flag
    /// set is *parked*, not out of budget: the serve pool shelves such a
    /// batch and advances another instead of busy-waiting.
    pub fn fetch_pending(&self) -> bool {
        self.front_window().is_some()
    }

    /// True when the window the next step waits on has landed, i.e. the
    /// next `try_step` will make progress without blocking. `None`-like
    /// `false` when [`ProgressiveExecutor::fetch_pending`] is.
    pub fn fetch_ready(&self) -> bool {
        self.front_window().is_some_and(|w| w.completion.is_ready())
    }

    /// Number of coefficients parked in the deferral queue.
    pub fn deferred_count(&self) -> usize {
        self.deferred.len()
    }

    /// Σ ι_p over the deferral queue.
    pub fn deferred_importance(&self) -> f64 {
        self.deferred_importance
    }

    /// Fault-path counters accumulated by this executor's
    /// [`ProgressiveExecutor::try_step`] calls.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault
    }

    /// True when evaluation is exact: nothing pending *and* nothing
    /// deferred.
    pub fn is_exact(&self) -> bool {
        self.remaining() == 0 && self.deferred.is_empty()
    }

    /// The importance of the next coefficient to be applied — the maximum
    /// over everything pending.
    pub fn next_importance(&self) -> Option<f64> {
        self.order.get(self.cursor).map(|e| e.importance)
    }

    /// The pending progression `order[cursor..]`, most important first:
    /// entry `t` drives the certified bound after `t` more retrievals
    /// (see [`ProgressiveExecutor::steps_to_bound`]).  Deferred
    /// coefficients are not part of it (see [`DegradationReport::deferred`],
    /// which lists them in queue order).
    pub fn progression(&self) -> &[ProgressionEntry] {
        &self.order[self.cursor..]
    }

    /// How many more retrievals, counted from the cursor, until Theorem
    /// 1's certificate `K^α·ι` of the next pending coefficient is
    /// `<= epsilon` — the one steps-to-ε search: a bound-targeted drain
    /// reads ahead no further, and admission prices a contract by it.
    /// The progression is sorted descending, so this is a partition
    /// point; [`ProgressiveExecutor::remaining`] when no pending entry
    /// meets `epsilon` (a negative or `NaN` target never does).  It is
    /// exactly the retrieval count of a fault-free
    /// [`ProgressiveExecutor::drain_with_faults_budgeted_to_bound`];
    /// deferred mass can only keep a faulty drain going longer.
    pub fn steps_to_bound(&self, epsilon: f64, k_abs_sum: f64) -> usize {
        // The drain's own stop test, so a `NaN` bound or target never meets.
        let meets = |iota| theorem1_bound(k_abs_sum, self.homogeneity, iota) <= epsilon;
        self.progression().partition_point(|e| !meets(e.importance))
    }

    /// Repairs this executor across a published version delta — the
    /// reader half of the MVCC protocol (DESIGN.md §13), and the only way
    /// an executor learns that the data changed.
    ///
    /// `delta` is the concatenated `(key, delta)` update entries between
    /// the executor's old and new pinned versions, in publish order, as
    /// returned by `VersionedStore::delta_between` /
    /// `VersionView::advance_to_current` (a tuple insert contributes
    /// `weight·(point transform)[key]` per key, see
    /// `batchbb_relation::cube::batch_point_entries`).
    /// Contract: the caller advances the *view* first (so re-fetched and
    /// unretrieved coefficients read the new version), then calls this so
    /// already-retrieved coefficients are re-applied.  After the repair,
    /// running to completion finalizes bit-identical to a fresh executor
    /// started on the new version — progressive evaluation and the paper's
    /// `O((2δ+1)^d log^d N)` update path compose.
    ///
    /// Repaired values mirror the stores' near-zero eviction: every
    /// `MutableStore::add` and `VersionedStore::publish` drops a slot
    /// whose post-delta magnitude is ≤ 1e-13, after which reads return
    /// exactly `0.0` — so the repair snaps such values to `0.0` too
    /// (backing out the residual from the estimates). Without the snap, a
    /// repaired executor would carry the tiny residual while a restarted
    /// one reads zero, and the two could never be bit-identical.
    pub fn advance_version(&mut self, delta: &[(CoeffKey, f64)]) {
        // Seen/estimate repairs, one run of equal keys at a time, in publish
        // order: distinct keys touch disjoint `seen` slots, so this equals
        // observing each entry individually, bit for bit.  Each run's slot
        // search gallops on from the last run's slot along a publish's
        // ascending keys (`cube::batch_point_entries` sorts them).
        // Unretrieved keys need no repair: their importance is query-side
        // only, and their value will be read from the advanced view.
        let mut hint = 0;
        for run in delta.chunk_by(|a, b| a.0 == b.0) {
            let found = self.master.search_from(hint, &run[0].0);
            hint = found.unwrap_or_else(|slot| slot);
            let Ok(slot) = found else { continue };
            let Some(mut seen) = self.seen[slot] else {
                continue;
            };
            let column = self.master.column_at(slot);
            for &(_, d) in run.iter().filter(|(_, d)| *d != 0.0) {
                seen += d;
                for &(qi, c) in column {
                    self.estimates[qi as usize] += c * d;
                }
                if seen.abs() <= ZERO_TOL && seen != 0.0 {
                    let residual = seen;
                    seen = 0.0;
                    for &(qi, c) in column {
                        self.estimates[qi as usize] -= c * residual;
                    }
                }
            }
            self.seen[slot] = Some(seen);
        }
        // What was read ahead of the cursor was read *before* the view
        // advanced.  One pass over the delta against the keys ahead
        // (O(W + |Δ|)): each slot meets its key's deltas in publish order.
        let landed_end = self.cursor + self.landed.len();
        let flying_from = landed_end + self.singleton_debt;
        let flying: usize = self.in_flight.iter().map(|w| w.len).sum();
        if !(self.landed.is_empty() && self.in_flight.is_empty()) {
            let slots: KeyMap<usize> = (self.cursor..flying_from + flying)
                .map(|at| (self.order[at].key, at))
                .collect();
            // The first in-flight entry whose key was updated, if any.
            let mut stale = usize::MAX;
            for (key, d) in delta.iter().filter(|(_, d)| *d != 0.0) {
                match slots.get(key) {
                    // A landed-but-unapplied value needs the same repair
                    // as a seen key — applied to the buffered value, since
                    // it has not reached the estimates yet.
                    Some(&at) if at < landed_end => {
                        let value = &mut self.landed[at - self.cursor];
                        *value += d;
                        if value.abs() <= ZERO_TOL {
                            *value = 0.0;
                        }
                    }
                    Some(&at) if at >= flying_from => stale = stale.min(at),
                    _ => {}
                }
            }
            // An in-flight window that includes an updated key is
            // abandoned wholesale, together with every window behind it
            // (windows are consecutive, and the re-fetch draws the blocking
            // run's boundaries): its read raced the advance, so the buffered
            // verdicts cannot be trusted.  The cursor never moved (nor was
            // any importance debited), so the entries are simply
            // re-fetched from the advanced view; the dropped completions'
            // reads finish harmlessly in the background.  Windows before
            // it keep flying — their pre- and post-update values are
            // identical.
            let mut end = flying_from;
            let fresh = self.in_flight.iter().take_while(|w| {
                end += w.len;
                end <= stale
            });
            self.in_flight.truncate(fresh.count());
        }
        // An already-exact executor gets no further steps, so the exactness
        // invariant — estimates are the canonical fold of `seen` — must be
        // restored here rather than by the (absent) next step.
        if self.is_exact() {
            self.canonicalize_estimates();
        }
    }

    /// Theorem 2's estimate of the penalty expected on a random unit-norm
    /// database: `(n_total − 1)^{-1} · Σ ι_p(ξ)` over unretrieved ∪
    /// deferred coefficients, where `n_total` is the domain size `N^d` —
    /// the value [`ProgressiveExecutor::degradation_report`] publishes as
    /// `expected_penalty`.  The paper: "the proof of Theorem 2 provides
    /// an estimate of the average penalty."  Maintained incrementally, so
    /// each call is O(1).  Meaningful for quadratic penalties
    /// (homogeneity 2); scale by the data's squared norm for non-unit
    /// databases.
    pub fn expected_penalty(&self, n_total: usize) -> f64 {
        theorem2_penalty(
            self.remaining_importance + self.deferred_importance,
            n_total,
        )
    }

    /// Theorem 1's guaranteed worst-case penalty bound for the *current*
    /// progressive estimate: `K^α · max ι_p` over unretrieved ∪ deferred
    /// coefficients, where `K = Σ_ξ |Δ̂[ξ]|` — the value
    /// [`ProgressiveExecutor::degradation_report`] publishes as
    /// `worst_case_bound`, without cloning the estimates. Zero once exact.
    pub fn worst_case_bound(&self, k_abs_sum: f64) -> f64 {
        self.max_unresolved_importance().map_or(0.0, |iota| {
            theorem1_bound(k_abs_sum, self.homogeneity, iota)
        })
    }

    /// The penalty's homogeneity degree α (`ι_p(c·ξ) = c^α · ι_p(ξ)`),
    /// Theorem 1's exponent on `K`.
    pub fn homogeneity(&self) -> f64 {
        self.homogeneity
    }

    /// Snapshot of the degraded-result contract: current estimates, the
    /// deferred population, and penalty bounds that account for deferred
    /// mass (see [`DegradationReport`]).
    ///
    /// `n_total` is the domain size `N^d` (Theorem 2) and `k_abs_sum` the
    /// data's coefficient ℓ¹-norm `K` (Theorem 1). Both bounds shrink
    /// monotonically as `try_step` retrieves or recovers coefficients.
    pub fn degradation_report(&self, n_total: usize, k_abs_sum: f64) -> DegradationReport {
        DegradationReport {
            estimates: self.estimates.clone(),
            deferred: self
                .deferred
                .iter()
                .map(|e| (e.key, e.importance))
                .collect(),
            deferred_importance: self.deferred_importance,
            expected_penalty: self.expected_penalty(n_total),
            worst_case_bound: self.worst_case_bound(k_abs_sum),
            fault: self.fault,
            is_exact: self.is_exact(),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use batchbb_penalty::{DiagonalQuadratic, Sse};
    use batchbb_query::{HyperRect, LinearStrategy, RangeSum, WaveletStrategy};
    use batchbb_relation::{Attribute, FrequencyDistribution, Schema};
    use batchbb_storage::MemoryStore;
    use batchbb_tensor::Shape;
    use batchbb_wavelet::Wavelet;

    fn fixture() -> (FrequencyDistribution, MemoryStore, Shape, WaveletStrategy) {
        let schema = Schema::new(vec![
            Attribute::new("x", 0.0, 16.0, 4),
            Attribute::new("y", 0.0, 16.0, 4),
        ])
        .unwrap();
        let mut dfd = FrequencyDistribution::new(schema);
        for i in 0..16 {
            for j in 0..16 {
                let w = ((i * 7 + j * 3) % 5) as f64;
                if w != 0.0 {
                    dfd.insert_binned(&[i, j], w);
                }
            }
        }
        let strategy = WaveletStrategy::new(Wavelet::Db4);
        let store = MemoryStore::from_entries(strategy.transform_data(dfd.tensor()));
        let shape = dfd.schema().domain();
        (dfd, store, shape, strategy)
    }

    fn queries() -> Vec<RangeSum> {
        vec![
            RangeSum::count(HyperRect::new(vec![0, 0], vec![7, 7])),
            RangeSum::count(HyperRect::new(vec![8, 0], vec![15, 15])),
            RangeSum::sum(HyperRect::new(vec![2, 3], vec![12, 14]), 1),
        ]
    }

    #[test]
    fn drains_to_exact_results() {
        let (dfd, store, shape, strategy) = fixture();
        let batch = BatchQueries::rewrite(&strategy, queries(), &shape).unwrap();
        let mut exec = ProgressiveExecutor::new(&batch, &Sse, &store);
        assert!(!exec.is_exact());
        exec.run_to_end();
        assert!(exec.is_exact());
        for (q, est) in batch.queries().iter().zip(exec.estimates()) {
            let truth = q.eval_direct(dfd.tensor());
            assert!(
                (est - truth).abs() < 1e-6 * truth.abs().max(1.0),
                "{est} vs {truth}"
            );
        }
    }

    #[test]
    fn importance_is_monotone_nonincreasing() {
        let (_, store, shape, strategy) = fixture();
        let batch = BatchQueries::rewrite(&strategy, queries(), &shape).unwrap();
        let mut exec = ProgressiveExecutor::new(&batch, &Sse, &store);
        let mut last = f64::INFINITY;
        while let Some(info) = exec.step() {
            assert!(
                info.importance <= last + 1e-12,
                "importance must be non-increasing: {} after {last}",
                info.importance
            );
            last = info.importance;
        }
    }

    #[test]
    fn one_retrieval_advances_all_needing_queries() {
        let (_, store, shape, strategy) = fixture();
        let q = RangeSum::count(HyperRect::new(vec![0, 0], vec![15, 15]));
        let batch =
            BatchQueries::rewrite(&strategy, vec![q.clone(), q.clone(), q], &shape).unwrap();
        let mut exec = ProgressiveExecutor::new(&batch, &Sse, &store);
        let info = exec.step().unwrap();
        assert_eq!(info.queries_advanced, 3);
        let e = exec.estimates();
        assert_eq!(e[0], e[1]);
        assert_eq!(e[1], e[2]);
    }

    #[test]
    fn retrieval_count_equals_master_list() {
        let (_, store, shape, strategy) = fixture();
        let batch = BatchQueries::rewrite(&strategy, queries(), &shape).unwrap();
        let master_len = batch.master().len();
        store.reset_stats();
        let mut exec = ProgressiveExecutor::new(&batch, &Sse, &store);
        let steps = exec.run_to_end();
        assert_eq!(steps, master_len);
        assert_eq!(store.stats().retrievals, master_len as u64);
        assert!(
            master_len < batch.total_coefficients(),
            "sharing must beat per-query totals"
        );
    }

    #[test]
    fn worst_case_bound_decreases_and_hits_zero() {
        let (_, store, shape, strategy) = fixture();
        let batch = BatchQueries::rewrite(&strategy, queries(), &shape).unwrap();
        let k = store.abs_sum();
        let mut exec = ProgressiveExecutor::new(&batch, &Sse, &store);
        let mut last = f64::INFINITY;
        loop {
            let bound = exec.worst_case_bound(k);
            assert!(bound <= last + 1e-9);
            last = bound;
            if exec.step().is_none() {
                break;
            }
        }
        assert_eq!(exec.worst_case_bound(k), 0.0);
    }

    #[test]
    fn penalty_choice_changes_progression_order() {
        let (_, store, shape, strategy) = fixture();
        let batch = BatchQueries::rewrite(&strategy, queries(), &shape).unwrap();
        let cursored = DiagonalQuadratic::cursored(3, &[2], 1000.0);
        let mut sse_exec = ProgressiveExecutor::new(&batch, &Sse, &store);
        let mut cur_exec = ProgressiveExecutor::new(&batch, &cursored, &store);
        let sse_first: Vec<CoeffKey> = (0..5)
            .filter_map(|_| sse_exec.step().map(|i| i.key))
            .collect();
        let cur_first: Vec<CoeffKey> = (0..5)
            .filter_map(|_| cur_exec.step().map(|i| i.key))
            .collect();
        assert_ne!(
            sse_first, cur_first,
            "a heavily boosted query must reorder the progression"
        );
    }

    #[test]
    fn updates_mid_progression_stay_exact() {
        use batchbb_relation::cube::point_entries;
        use batchbb_storage::VersionedStore;

        let (mut dfd, _store, shape, strategy) = fixture();
        let versioned = VersionedStore::from_entries(strategy.transform_data(dfd.tensor()));
        let view = versioned.pin();
        let batch = BatchQueries::rewrite(&strategy, queries(), &shape).unwrap();
        let total = batch.master().len();
        let mut exec = ProgressiveExecutor::new(&batch, &Sse, &view);
        exec.run(total / 2);
        // Two tuples arrive mid-progression: publish each, advance the
        // view, then repair the executor's already-retrieved coefficients.
        for (coords, weight) in [(vec![3usize, 3usize], 2.0), (vec![12, 9], 1.0)] {
            dfd.insert_binned(&coords, weight);
            versioned.publish(&point_entries(
                &shape,
                &coords,
                weight,
                batchbb_wavelet::Wavelet::Db4,
            ));
            let (_, delta) = view.advance_to_current();
            exec.advance_version(&delta);
        }
        exec.run_to_end();
        for (q, est) in batch.queries().iter().zip(exec.estimates()) {
            let truth = q.eval_direct(dfd.tensor());
            assert!(
                (est - truth).abs() < 1e-6 * truth.abs().max(1.0),
                "{est} vs {truth}"
            );
        }
    }

    #[test]
    fn advance_version_repairs_seen_keys_only() {
        let (_, store, shape, strategy) = fixture();
        let batch = BatchQueries::rewrite(&strategy, queries(), &shape).unwrap();
        let mut exec = ProgressiveExecutor::new(&batch, &Sse, &store);
        let first = exec.step().unwrap();
        let before = exec.estimates().to_vec();
        // Updating a retrieved key shifts estimates by column · delta.
        exec.advance_version(&[(first.key, 2.0)]);
        let master = batch.master();
        for (i, (&a, &b)) in exec.estimates().iter().zip(&before).enumerate() {
            let c = master
                .column(&first.key)
                .unwrap()
                .iter()
                .find(|(qi, _)| *qi as usize == i)
                .map(|&(_, c)| c)
                .unwrap_or(0.0);
            assert!((a - (b + 2.0 * c)).abs() < 1e-12);
        }
        // Updating an unretrieved key is a no-op on estimates.
        let pending = exec.next_importance().expect("more coefficients pending");
        let _ = pending;
        let snapshot = exec.estimates().to_vec();
        let unseen_key = {
            // find some key in the master list that is not the first
            master
                .iter()
                .map(|(k, _)| *k)
                .find(|k| *k != first.key)
                .unwrap()
        };
        exec.advance_version(&[(unseen_key, 5.0)]);
        assert_eq!(exec.estimates(), snapshot.as_slice());
    }

    #[test]
    fn expected_penalty_matches_optimality_module() {
        let (_, store, shape, strategy) = fixture();
        let batch = BatchQueries::rewrite(&strategy, queries(), &shape).unwrap();
        let mut exec = ProgressiveExecutor::new(&batch, &Sse, &store);
        let n_total = shape.len();
        // Compare the incremental tracker against the reference recompute
        // from the optimality module at several prefixes.
        let mut kept = batchbb_tensor::KeySet::default();
        loop {
            let fast = exec.expected_penalty(n_total);
            let slow = crate::optimality::expected_penalty(&batch, &Sse, &kept, n_total);
            // incremental subtraction accumulates rounding ~1e-16 per
            // step relative to the initial total
            assert!(
                (fast - slow).abs() < 1e-6 * slow + 1e-9,
                "{fast} vs {slow} after {} steps",
                exec.retrieved()
            );
            match exec.step() {
                Some(info) => {
                    kept.insert(info.key);
                }
                None => break,
            }
        }
        assert_eq!(exec.expected_penalty(n_total), 0.0);
    }

    #[test]
    fn run_respects_step_budget() {
        let (_, store, shape, strategy) = fixture();
        let batch = BatchQueries::rewrite(&strategy, queries(), &shape).unwrap();
        let mut exec = ProgressiveExecutor::new(&batch, &Sse, &store);
        let total = exec.remaining();
        assert_eq!(exec.run(3), 3);
        assert_eq!(exec.retrieved(), 3);
        assert_eq!(exec.remaining(), total - 3);
        assert_eq!(exec.run(usize::MAX), total - 3);
    }

    /// SSE, except that a column query 0 takes part in scores `self.0`
    /// (NaN, or a stand-in for it).
    pub(crate) struct PathologicalPenalty(pub(crate) f64);
    impl batchbb_penalty::Penalty for PathologicalPenalty {
        fn name(&self) -> String {
            "pathological".into()
        }
        fn evaluate(&self, errors: &[f64]) -> f64 {
            errors.iter().map(|e| e * e).sum()
        }
        fn importance(&self, column: &[(usize, f64)], _batch_size: usize) -> f64 {
            if column.iter().any(|&(qi, _)| qi == 0) {
                self.0
            } else {
                column.iter().map(|&(_, c)| c * c).sum()
            }
        }
        fn homogeneity(&self) -> f64 {
            2.0
        }
    }

    #[test]
    fn nan_importance_does_not_poison_the_heap() {
        // Regression: a penalty returning NaN for some columns used to
        // float those keys to the top of the max-heap and turn
        // `remaining_importance` (hence every penalty bound) into NaN.
        let (dfd, store, shape, strategy) = fixture();
        let batch = BatchQueries::rewrite(&strategy, queries(), &shape).unwrap();
        let mut exec = ProgressiveExecutor::new(&batch, &PathologicalPenalty(f64::NAN), &store);
        // Every derived quantity stays finite...
        assert!(exec.expected_penalty(shape.len()).is_finite());
        let mut last = f64::INFINITY;
        while let Some(info) = exec.step() {
            assert!(!info.importance.is_nan(), "NaN importance leaked");
            assert!(info.importance <= last + 1e-12, "heap order broken");
            last = info.importance;
            assert!(exec.expected_penalty(shape.len()).is_finite());
        }
        // ...and the run still converges to the exact results.
        for (q, est) in batch.queries().iter().zip(exec.estimates()) {
            let truth = q.eval_direct(dfd.tensor());
            assert!((est - truth).abs() < 1e-6 * truth.abs().max(1.0));
        }
    }

    /// The reference ranking and the layout advisor score through the
    /// executor's one scoring body: a NaN importance ranks where the
    /// executor walks it — last, as zero — not first.
    #[test]
    fn reference_rankings_score_nan_like_the_executor() {
        let (_, store, shape, strategy) = fixture();
        let batch = BatchQueries::rewrite(&strategy, queries(), &shape).unwrap();
        let exec = ProgressiveExecutor::new(&batch, &PathologicalPenalty(f64::NAN), &store);
        let walk: Vec<(CoeffKey, u64)> = exec
            .progression()
            .iter()
            .map(|e| (e.key, e.importance.to_bits()))
            .collect();
        let ranked: Vec<(CoeffKey, u64)> =
            crate::optimality::importance_ranking(&batch, &PathologicalPenalty(f64::NAN))
                .into_iter()
                .map(|(key, iota)| (key, iota.to_bits()))
                .collect();
        assert_eq!(ranked, walk);
        let layout = crate::layout::aggregate_importance_ranking(&[(
            &batch,
            &PathologicalPenalty(f64::NAN),
        )]);
        assert_eq!(
            layout[&walk[0].0], 0,
            "the layout puts the executor's first key first"
        );
    }

    #[test]
    #[should_panic(expected = "retrieval failed: permanent")]
    fn the_infallible_api_panics_on_a_failed_retrieval() {
        use batchbb_storage::{FaultInjectingStore, FaultPlan};

        let (_, store, shape, strategy) = fixture();
        let batch = BatchQueries::rewrite(&strategy, queries(), &shape).unwrap();
        let broken = ProgressiveExecutor::new(&batch, &Sse, &store).progression()[5].key;
        // No read bypasses the injector: five steps land, the sixth panics.
        let faulty =
            FaultInjectingStore::new(&store, FaultPlan::new(1).with_permanent_keys([broken]));
        let mut exec = ProgressiveExecutor::new(&batch, &Sse, &faulty);
        assert_eq!(exec.run(5), 5);
        exec.run_to_end();
    }

    #[test]
    fn permanent_faults_defer_and_recover_after_heal() {
        use batchbb_storage::{FaultInjectingStore, FaultPlan};

        let (_, store, shape, strategy) = fixture();
        let batch = BatchQueries::rewrite(&strategy, queries(), &shape).unwrap();
        // Fault-free reference run.
        let mut reference = ProgressiveExecutor::new(&batch, &Sse, &store);
        reference.run_to_end();

        // Make the first three progression keys permanently unavailable.
        let mut probe = ProgressiveExecutor::new(&batch, &Sse, &store);
        let broken: Vec<CoeffKey> = (0..3).map(|_| probe.step().unwrap().key).collect();
        let faulty = FaultInjectingStore::new(
            &store,
            FaultPlan::new(1).with_permanent_keys(broken.iter().copied()),
        );

        let mut exec = ProgressiveExecutor::new(&batch, &Sse, &faulty);
        let policy = RetryPolicy::default();
        assert_eq!(exec.drain_with_faults(&policy), DrainStatus::Degraded);
        assert!(!exec.is_exact());
        assert_eq!(exec.deferred_count(), 3);
        let report = exec.degradation_report(shape.len(), store.abs_sum());
        assert!(!report.is_exact);
        assert_eq!(report.deferred.len(), 3);
        assert!(report.worst_case_bound > 0.0);
        assert!(report.fault.deferrals_reconcile(3));
        assert!(report.fault.attempts_reconcile());

        // Repair the store: a further drain recovers everything and the
        // estimates match the fault-free run exactly.
        faulty.heal();
        assert_eq!(exec.drain_with_faults(&policy), DrainStatus::Exact);
        assert!(exec.is_exact());
        // Canonical finalization makes the finals order-independent, so the
        // match is exact even though deferral reordered the contributions.
        assert_eq!(exec.estimates(), reference.estimates());
        let fs = exec.fault_stats();
        assert_eq!(fs.recoveries, 3);
        assert!(fs.deferrals_reconcile(0));
        let final_report = exec.degradation_report(shape.len(), store.abs_sum());
        assert_eq!(final_report.worst_case_bound, 0.0);
        assert_eq!(final_report.expected_penalty, 0.0);
    }

    #[test]
    fn budgeted_drain_slices_to_the_same_result() {
        let (_, store, shape, strategy) = fixture();
        let batch = BatchQueries::rewrite(&strategy, queries(), &shape).unwrap();
        let policy = RetryPolicy::default();
        let mut whole = ProgressiveExecutor::new(&batch, &Sse, &store);
        assert_eq!(whole.drain_with_faults(&policy), DrainStatus::Exact);
        let mut sliced = ProgressiveExecutor::new(&batch, &Sse, &store);
        let mut yields = 0;
        let status = loop {
            match sliced.drain_with_faults_budgeted(&policy, 5) {
                Some(status) => break status,
                None => yields += 1,
            }
        };
        assert_eq!(status, DrainStatus::Exact);
        assert!(yields > 0, "a 5-step budget must yield at least once");
        assert_eq!(sliced.estimates(), whole.estimates());
        assert_eq!(sliced.retrieved_entries(), whole.retrieved_entries());
    }

    #[test]
    fn budget_below_deferral_queue_yields_without_progress() {
        use batchbb_storage::{FaultInjectingStore, FaultPlan};

        let (_, store, shape, strategy) = fixture();
        let batch = BatchQueries::rewrite(&strategy, queries(), &shape).unwrap();
        let mut probe = ProgressiveExecutor::new(&batch, &Sse, &store);
        let broken: Vec<CoeffKey> = (0..3).map(|_| probe.step().unwrap().key).collect();
        let faulty = FaultInjectingStore::new(
            &store,
            FaultPlan::new(1).with_permanent_keys(broken.iter().copied()),
        );
        let policy = RetryPolicy::default();
        let mut exec = ProgressiveExecutor::new(&batch, &Sse, &faulty);
        // Drain the heap in slices; the three broken keys defer.
        while exec.remaining() > 0 {
            let _ = exec.drain_with_faults_budgeted(&policy, 7);
        }
        assert_eq!(exec.deferred_count(), 3);
        let attempts_before = exec.fault_stats().attempts;
        // A budget below the queue length cannot run a conclusive pass.
        assert_eq!(exec.drain_with_faults_budgeted(&policy, 2), None);
        assert_eq!(exec.fault_stats().attempts, attempts_before);
        // A full pass concludes Degraded.
        assert_eq!(
            exec.drain_with_faults_budgeted(&policy, exec.deferred_count()),
            Some(DrainStatus::Degraded)
        );
    }

    #[test]
    fn prefetch_windows_are_bit_exact_and_step_equivalent() {
        let (_, store, shape, strategy) = fixture();
        let batch = BatchQueries::rewrite(&strategy, queries(), &shape).unwrap();
        let policy = RetryPolicy::default();
        let k = store.abs_sum();
        let n_total = shape.len();

        // Reference: W = 1 (today's path), recording the per-step bound
        // trajectory and fault counters.
        let mut reference = ProgressiveExecutor::new(&batch, &Sse, &store);
        let mut ref_trace = Vec::new();
        let mut ref_penalties = Vec::new();
        loop {
            match reference.try_step(&policy) {
                TryStepOutcome::Retrieved(info) => {
                    ref_trace.push((info, reference.worst_case_bound(k), reference.fault_stats()));
                    ref_penalties.push(reference.expected_penalty(n_total));
                }
                TryStepOutcome::Exhausted => break,
                other => panic!("healthy store must not produce {other:?}"),
            }
        }

        for w in [4usize, 16, 64] {
            let mut exec = ProgressiveExecutor::new(&batch, &Sse, &store).with_prefetch_window(w);
            let mut trace = Vec::new();
            let mut penalties = Vec::new();
            loop {
                match exec.try_step(&policy) {
                    TryStepOutcome::Retrieved(info) => {
                        trace.push((info, exec.worst_case_bound(k), exec.fault_stats()));
                        penalties.push(exec.expected_penalty(n_total));
                    }
                    TryStepOutcome::Exhausted => break,
                    other => panic!("healthy store must not produce {other:?}"),
                }
            }
            // Same steps, same per-step Thm-1 bound, same fault counters
            // at every step — not just the same finals.
            assert_eq!(trace, ref_trace, "W={w} diverged from W=1");
            // Thm-2's numerator is accumulated in map iteration order at
            // construction, so it carries last-bit noise between *any* two
            // executor instances; compare with a relative tolerance.
            for (step, (a, b)) in penalties.iter().zip(&ref_penalties).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-9 * b.abs() + 1e-12,
                    "W={w} step {step}: expected penalty {a} vs {b}"
                );
            }
            assert_eq!(
                exec.estimates(),
                reference.estimates(),
                "finals must be bit-exact for W={w}"
            );
            assert_eq!(exec.retrieved_entries(), reference.retrieved_entries());
            assert!(exec.is_exact());
            assert!(exec.fault_stats().attempts_reconcile());
        }
    }

    #[test]
    fn prefetch_failure_defers_only_failing_keys() {
        use batchbb_storage::{FaultInjectingStore, FaultPlan};

        let (_, store, shape, strategy) = fixture();
        let batch = BatchQueries::rewrite(&strategy, queries(), &shape).unwrap();
        let mut reference = ProgressiveExecutor::new(&batch, &Sse, &store);
        reference.run_to_end();

        // Break two keys from the head of the progression: a W=8 prefetch
        // covering them fails as a whole, and the singleton fallback must
        // defer exactly those two.
        let mut probe = ProgressiveExecutor::new(&batch, &Sse, &store);
        let broken: Vec<CoeffKey> = (0..2).map(|_| probe.step().unwrap().key).collect();
        let faulty = FaultInjectingStore::new(
            &store,
            FaultPlan::new(7).with_permanent_keys(broken.iter().copied()),
        );
        let policy = RetryPolicy::default();
        let mut exec = ProgressiveExecutor::new(&batch, &Sse, &faulty).with_prefetch_window(8);
        assert_eq!(exec.drain_with_faults(&policy), DrainStatus::Degraded);
        let mut deferred: Vec<CoeffKey> = exec
            .degradation_report(shape.len(), store.abs_sum())
            .deferred
            .iter()
            .map(|(k, _)| *k)
            .collect();
        deferred.sort_unstable();
        let mut expected = broken.clone();
        expected.sort_unstable();
        assert_eq!(deferred, expected, "only the failing keys defer");
        assert!(exec.fault_stats().attempts_reconcile());

        faulty.heal();
        assert_eq!(exec.drain_with_faults(&policy), DrainStatus::Exact);
        assert_eq!(
            exec.estimates(),
            reference.estimates(),
            "degraded-then-healed finals must match the fault-free run"
        );
    }

    #[test]
    fn prefetch_respects_attempt_budget() {
        let (_, store, shape, strategy) = fixture();
        let batch = BatchQueries::rewrite(&strategy, queries(), &shape).unwrap();
        let policy = RetryPolicy {
            total_attempt_budget: Some(5),
            ..RetryPolicy::default()
        };
        let mut exec = ProgressiveExecutor::new(&batch, &Sse, &store).with_prefetch_window(64);
        assert_eq!(
            exec.drain_with_faults(&policy),
            DrainStatus::BudgetExhausted,
            "a 5-attempt budget cannot finish the batch"
        );
        // The prefetch window is clamped to the budget: exactly 5 attempts
        // were recorded, never fetched-but-unaffordable coefficients.
        assert_eq!(exec.fault_stats().attempts, 5);
        assert_eq!(exec.retrieved(), 5);
        assert_eq!(exec.try_step(&policy), TryStepOutcome::BudgetExhausted);
        let unlimited = RetryPolicy::default();
        assert_eq!(exec.drain_with_faults(&unlimited), DrainStatus::Exact);
    }

    #[test]
    fn prefetched_values_are_repaired_by_updates() {
        use batchbb_relation::cube::point_entries;
        use batchbb_storage::VersionedStore;

        let (mut dfd, _store, shape, strategy) = fixture();
        let versioned = VersionedStore::from_entries(strategy.transform_data(dfd.tensor()));
        let view = versioned.pin();
        let batch = BatchQueries::rewrite(&strategy, queries(), &shape).unwrap();
        let policy = RetryPolicy::default();
        let mut exec = ProgressiveExecutor::new(&batch, &Sse, &view).with_prefetch_window(1024);
        // One fallible step prefetches the whole master list; all but one
        // coefficient now sit in the buffer, fetched pre-update.
        let _ = exec.try_step(&policy);
        assert!(exec.remaining() > 0);
        // A tuple arrives: publish it, advance the view, then repair the
        // executor.
        dfd.insert_binned(&[5, 5], 3.0);
        versioned.publish(&point_entries(
            &shape,
            &[5, 5],
            3.0,
            batchbb_wavelet::Wavelet::Db4,
        ));
        let (_, delta) = view.advance_to_current();
        exec.advance_version(&delta);
        assert_eq!(exec.drain_with_faults(&policy), DrainStatus::Exact);
        for (q, est) in batch.queries().iter().zip(exec.estimates()) {
            let truth = q.eval_direct(dfd.tensor());
            assert!(
                (est - truth).abs() < 1e-6 * truth.abs().max(1.0),
                "{est} vs {truth}"
            );
        }
    }

    #[test]
    fn attempt_budget_halts_the_drain() {
        use batchbb_storage::{FaultInjectingStore, FaultPlan};

        let (_, store, shape, strategy) = fixture();
        let batch = BatchQueries::rewrite(&strategy, queries(), &shape).unwrap();
        let faulty = FaultInjectingStore::new(&store, FaultPlan::new(2).with_transient_rate(0.4));
        let mut exec = ProgressiveExecutor::new(&batch, &Sse, &faulty);
        let policy = RetryPolicy {
            total_attempt_budget: Some(10),
            ..RetryPolicy::default()
        };
        assert_eq!(
            exec.drain_with_faults(&policy),
            DrainStatus::BudgetExhausted
        );
        assert!(exec.fault_stats().attempts <= 10);
        assert_eq!(
            exec.try_step(&policy),
            TryStepOutcome::BudgetExhausted,
            "budget stays exhausted"
        );
        // Lifting the budget completes the evaluation.
        let unlimited = RetryPolicy {
            max_attempts: 64,
            ..RetryPolicy::default()
        };
        assert_eq!(exec.drain_with_faults(&unlimited), DrainStatus::Exact);
        assert!(exec.is_exact());
    }
}

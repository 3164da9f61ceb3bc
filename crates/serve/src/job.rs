//! Per-batch job state, snapshots, and results.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

use batchbb_core::{DegradationReport, DrainStatus, ProgressiveExecutor};
use batchbb_obs::{LifecycleRecorder, Phase};
use batchbb_storage::{VersionId, VersionView};
use batchbb_tensor::CoeffKey;

use crate::slo::{SloContract, SloOutcome};
use crate::ServeConfig;

/// How a served batch ended.
///
/// Every terminal state except [`BatchStatus::Rejected`] publishes the
/// progressive estimates reached so far *with* their certified Theorem-1/2
/// bounds ([`BatchResult::report`]); rejected batches publish the full
/// initial certificate (zero retrievals). [`BatchResult::slo`] classifies
/// each status against the batch's contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchStatus {
    /// Every master-list coefficient retrieved; estimates are exact.
    Exact,
    /// The certified worst-case bound reached the contract's target ε;
    /// the batch finalized early with that certificate.
    BoundReached,
    /// Persistent faults left coefficients deferred; estimates carry the
    /// penalty bound of the final [`DegradationReport`].
    Degraded,
    /// The retry policy's total attempt budget ran out.
    BudgetExhausted,
    /// The contract's deadline expired; the batch finalized at the
    /// certified bound it had reached by then.
    DeadlineExpired,
    /// Load shedding: the pool's consumed attempts overran the declared
    /// capacity (fault-inflated costs), so the batch finalized early at
    /// its certified bound instead of overrunning further.
    Shed,
    /// The batch was cancelled via [`BatchHandle::cancel`]; the result
    /// holds the progressive estimates reached by then.
    Cancelled,
    /// Admission control refused the batch (see
    /// [`SloOutcome::Rejected`]); it performed zero retrievals.
    Rejected,
}

impl BatchStatus {
    /// The status's trace/event label.
    pub(crate) fn label(self) -> &'static str {
        match self {
            BatchStatus::Exact => "exact",
            BatchStatus::BoundReached => "bound_reached",
            BatchStatus::Degraded => "degraded",
            BatchStatus::BudgetExhausted => "budget_exhausted",
            BatchStatus::DeadlineExpired => "deadline_expired",
            BatchStatus::Shed => "shed",
            BatchStatus::Cancelled => "cancelled",
            BatchStatus::Rejected => "rejected",
        }
    }
}

impl From<DrainStatus> for BatchStatus {
    fn from(status: DrainStatus) -> Self {
        match status {
            DrainStatus::Exact => BatchStatus::Exact,
            DrainStatus::Degraded => BatchStatus::Degraded,
            DrainStatus::BudgetExhausted => BatchStatus::BudgetExhausted,
            DrainStatus::BoundReached => BatchStatus::BoundReached,
        }
    }
}

/// Final outcome of one served batch. The run-wide metrics are not
/// copied onto it: read the registry passed to
/// [`ServeConfig::registry`](crate::ServeConfig::registry) once the serve
/// has returned.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchResult {
    /// Terminal state of the batch.
    pub status: BatchStatus,
    /// How the batch fared against its [`SloContract`]: within target
    /// ([`SloOutcome::Met`]), finalized above it
    /// ([`SloOutcome::DegradedAtBound`]), or refused at admission
    /// ([`SloOutcome::Rejected`]). Under the default non-binding contract
    /// every completed batch reports `Met`.
    pub slo: SloOutcome,
    /// The full degraded-result contract at finish (estimates, deferred
    /// population, Theorem 1/2 bounds, fault counters).
    pub report: DegradationReport,
    /// Every `(key, value)` this batch retrieved, in sorted key order —
    /// the replay witness: re-running the batch serially against exactly
    /// these values reproduces `report.estimates` bit for bit.
    pub retrieved_entries: Vec<(CoeffKey, f64)>,
    /// How many scheduling slices the batch consumed.
    pub slices: usize,
    /// Theorem 1's worst-case bound sampled at the end of every slice;
    /// monotone non-increasing regardless of scheduling interleaving.
    /// Every terminal status ends it at `report.worst_case_bound`, so a
    /// batch cancelled before its first slice, or rejected at admission,
    /// has exactly `[initial bound]`.
    pub bound_history: Vec<f64>,
    /// The coefficient-store version this batch's answer is certified
    /// against: in versioned serving
    /// ([`BatchServer::serve_versioned`](crate::BatchServer::serve_versioned))
    /// the version pinned at admission, bumped each time
    /// [`ServeSession::advance_batch`](crate::ServeSession::advance_batch)
    /// opts the batch in to a newer snapshot. `None` for sessions over a
    /// plain (unversioned) store.
    pub pinned_version: Option<VersionId>,
}

impl BatchResult {
    /// The final progressive estimates (one per query in the batch).
    pub fn estimates(&self) -> &[f64] {
        &self.report.estimates
    }
}

/// A point-in-time progress view of a running batch, readable without
/// pausing the batch for longer than a snapshot clone.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSnapshot {
    /// Current progressive estimates (valid at every prefix).
    pub estimates: Vec<f64>,
    /// Coefficients retrieved so far.
    pub retrieved: usize,
    /// Master-list coefficients still unretrieved.
    pub remaining: usize,
    /// Coefficients parked in the deferral queue.
    pub deferred: usize,
    /// Theorem 1's current worst-case penalty bound.
    pub worst_case_bound: f64,
    /// Theorem 2's current expected penalty.
    pub expected_penalty: f64,
    /// Scheduling slices consumed so far.
    pub slices: usize,
    /// Whether the batch has published its final result.
    pub finished: bool,
}

/// Executor state guarded by the job's slice lock. Workers hold this lock
/// for one slice at a time;
/// [`ServeSession::update`](crate::ServeSession::update) never takes it —
/// only [`ServeSession::advance_batch`](crate::ServeSession::advance_batch)
/// locks the one job it repairs.
pub(crate) struct JobState<'a> {
    pub(crate) exec: ProgressiveExecutor<'a>,
    pub(crate) slices: usize,
    pub(crate) bound_history: Vec<f64>,
    pub(crate) result: Option<BatchResult>,
    /// The batch's phase recorder, `None` on untraced runs. Only the pool
    /// writes it, and only under this lock, so no transition can land
    /// inside another holder's bracket (an `advance_batch` repair, say).
    lifecycle: Option<LifecycleRecorder>,
    /// `exec.store_wait_ns()` at the last phase transition.
    store_wait_mark: u64,
}

impl JobState<'_> {
    /// Enters `phase` on the batch's lifecycle (a no-op on untraced runs
    /// and after the flush). The store wait the executor measured since
    /// the last transition — a slice's, since only slices read the store —
    /// is recorded first, as the trailing `store_wait` interval of the
    /// phase being left.
    pub(crate) fn enter_phase(&mut self, phase: Phase) {
        let Some(lifecycle) = &mut self.lifecycle else {
            return;
        };
        let waited = self.exec.store_wait_ns() - self.store_wait_mark;
        self.store_wait_mark = self.exec.store_wait_ns();
        lifecycle.transition_after(Phase::StoreWait, waited, phase);
    }

    /// The phase the batch is in, `None` on untraced runs.
    pub(crate) fn phase(&self) -> Option<Phase> {
        self.lifecycle.as_ref().map(LifecycleRecorder::phase)
    }

    /// Flushes the batch's lifecycle spans into the trace (idempotent).
    pub(crate) fn flush_lifecycle(&mut self) {
        if let Some(lifecycle) = &mut self.lifecycle {
            lifecycle.flush();
        }
    }
}

/// One submitted batch: its executor and phase lifecycle (behind the
/// slice lock), its published snapshot, its contract, the cancellation
/// flag and, in versioned serving, its pinned read view.
pub(crate) struct JobCell<'a> {
    pub(crate) index: usize,
    pub(crate) contract: SloContract,
    /// The view the executor reads in versioned serving, and so the owner
    /// of the batch's version. Only `ServeSession::advance_batch` re-pins
    /// it, under the slice lock that finalizing also holds.
    pub(crate) view: Option<&'a VersionView>,
    pub(crate) state: Mutex<JobState<'a>>,
    pub(crate) snapshot: Mutex<BatchSnapshot>,
    pub(crate) cancelled: AtomicBool,
    pub(crate) finished: AtomicBool,
}

impl<'a> JobCell<'a> {
    /// A batch's cell, entering the slice queue — or, when admission
    /// `refused` it (`Some(SloOutcome::Rejected { .. })`), born finished:
    /// zero retrievals, with the full *initial* Theorem-1/2 certificate as
    /// its published contract. A rejection neither runs nor tears — the
    /// result is as valid (and as wide) as an estimate can be.
    pub(crate) fn new(
        index: usize,
        exec: ProgressiveExecutor<'a>,
        config: &ServeConfig,
        contract: SloContract,
        view: Option<&'a VersionView>,
        lifecycle: Option<LifecycleRecorder>,
        refused: Option<SloOutcome>,
    ) -> Self {
        let report = exec.degradation_report(config.n_total, config.k_abs_sum);
        let finished = refused.is_some();
        let snapshot = snapshot_of(&exec, &report, 0, finished);
        let result = refused.map(|slo| BatchResult {
            status: BatchStatus::Rejected,
            slo,
            bound_history: vec![report.worst_case_bound],
            report,
            retrieved_entries: Vec::new(),
            slices: 0,
            pinned_version: view.map(VersionView::version),
        });
        let mut state = JobState {
            exec,
            slices: 0,
            bound_history: Vec::new(),
            result,
            lifecycle,
            store_wait_mark: 0,
        };
        if finished {
            // A rejected batch's lifecycle is admission → finalize,
            // flushed on the spot: it never runs, so its trace is complete
            // at birth.
            state.enter_phase(Phase::Finalize);
            state.flush_lifecycle();
        } else {
            state.enter_phase(Phase::Queued);
        }
        JobCell {
            index,
            contract,
            view,
            state: Mutex::new(state),
            snapshot: Mutex::new(snapshot),
            cancelled: AtomicBool::new(false),
            finished: AtomicBool::new(finished),
        }
    }

    /// The latest published snapshot, locked.
    pub(crate) fn snapshot(&self) -> MutexGuard<'_, BatchSnapshot> {
        self.snapshot.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Builds a [`BatchSnapshot`] from live executor state and the `report`
/// just taken of it — the one place a snapshot is assembled.
pub(crate) fn snapshot_of(
    exec: &ProgressiveExecutor<'_>,
    report: &DegradationReport,
    slices: usize,
    finished: bool,
) -> BatchSnapshot {
    BatchSnapshot {
        estimates: report.estimates.clone(),
        retrieved: exec.retrieved(),
        remaining: exec.remaining(),
        deferred: exec.deferred_count(),
        worst_case_bound: report.worst_case_bound,
        expected_penalty: report.expected_penalty,
        slices,
        finished,
    }
}

/// Caller-side view of one admitted batch: progressive snapshots and
/// cooperative cancellation.
///
/// Handles are only reachable inside
/// [`BatchServer::serve_with`](crate::BatchServer::serve_with)'s driver
/// closure, which runs on the caller's thread while the pool works.
#[derive(Clone, Copy)]
pub struct BatchHandle<'s, 'a> {
    pub(crate) cell: &'s JobCell<'a>,
    pub(crate) index: usize,
}

impl<'s, 'a> BatchHandle<'s, 'a> {
    /// The batch's admission index (its position in the request slice and
    /// its `batch` trace label).
    pub fn index(&self) -> usize {
        self.index
    }

    /// A clone of the batch's latest published progress snapshot.
    ///
    /// Snapshots refresh after every scheduling slice, so this shows
    /// slice-granular progress without contending on the executor itself.
    pub fn snapshot(&self) -> BatchSnapshot {
        self.cell.snapshot().clone()
    }

    /// Whether the batch has published its final [`BatchResult`].
    pub fn is_finished(&self) -> bool {
        self.cell.finished.load(Ordering::Acquire)
    }

    /// Requests cooperative cancellation.
    ///
    /// The batch finalizes with [`BatchStatus::Cancelled`] at its next
    /// scheduling slice, keeping the progressive estimates (and their
    /// penalty bounds) it had reached. Cancelling a finished batch is a
    /// no-op. Returns whether the flag was newly set.
    pub fn cancel(&self) -> bool {
        !self.cell.cancelled.swap(true, Ordering::AcqRel)
    }
}

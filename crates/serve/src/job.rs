//! Per-batch job state, snapshots, and results.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

use batchbb_core::{DegradationReport, DrainStatus, ProgressiveExecutor};
use batchbb_obs::{Lifecycle, MetricsSnapshot, Phase};
use batchbb_storage::VersionId;
use batchbb_tensor::CoeffKey;

use crate::slo::{AdmissionEstimate, SloContract, SloOutcome};
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

/// Final outcome of one served batch.
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
    /// Theorem 1's worst-case bound sampled after every slice; monotone
    /// non-increasing regardless of scheduling interleaving.
    pub bound_history: Vec<f64>,
    /// The final state of the server's shared
    /// [`batchbb_obs::MetricsRegistry`], stamped onto every result once
    /// the whole run has finished (so all results of one run carry the
    /// *same* snapshot and its counters cover the *entire* run — taking
    /// per-batch snapshots mid-flight would capture racy prefixes).
    /// Empty when the run had no registry configured.
    pub metrics: MetricsSnapshot,
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
    /// The store version this job currently reads (versioned mode only).
    pub(crate) pinned_version: Option<VersionId>,
}

/// One submitted batch: its executor (behind the slice lock), its
/// published snapshot, its contract, the cancellation flag, and — when
/// the run is traced — its phase lifecycle.
pub(crate) struct JobCell<'a> {
    pub(crate) index: usize,
    pub(crate) contract: SloContract,
    pub(crate) state: Mutex<JobState<'a>>,
    pub(crate) snapshot: Mutex<BatchSnapshot>,
    pub(crate) cancelled: AtomicBool,
    pub(crate) finished: AtomicBool,
    /// The batch's phase recorder, `None` on untraced runs. Shared with
    /// the executor's observer (which carves out `StoreWait`); the pool
    /// writes the remaining transitions and flushes at finalize.
    pub(crate) lifecycle: Option<Lifecycle>,
}

impl<'a> JobCell<'a> {
    pub(crate) fn new(
        index: usize,
        exec: ProgressiveExecutor<'a>,
        config: &ServeConfig,
        contract: SloContract,
        pinned: Option<VersionId>,
        lifecycle: Option<Lifecycle>,
    ) -> Self {
        let report = exec.degradation_report(config.n_total, config.k_abs_sum);
        let snapshot = snapshot_of(&exec, &report, 0, false);
        JobCell {
            index,
            contract,
            state: Mutex::new(JobState {
                exec,
                slices: 0,
                bound_history: Vec::new(),
                result: None,
                pinned_version: pinned,
            }),
            snapshot: Mutex::new(snapshot),
            cancelled: AtomicBool::new(false),
            finished: AtomicBool::new(false),
            lifecycle,
        }
    }

    /// The latest published snapshot, locked.
    pub(crate) fn snapshot(&self) -> MutexGuard<'_, BatchSnapshot> {
        self.snapshot.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enters `phase` on the batch's lifecycle; a no-op on untraced runs
    /// (and after the lifecycle has flushed).
    pub(crate) fn enter_phase(&self, phase: Phase) {
        if let Some(lifecycle) = &self.lifecycle {
            lifecycle
                .lock()
                .expect("lifecycle poisoned")
                .transition(phase);
        }
    }

    /// Flushes the batch's lifecycle spans into the trace (idempotent).
    pub(crate) fn flush_lifecycle(&self) {
        if let Some(lifecycle) = &self.lifecycle {
            lifecycle.lock().expect("lifecycle poisoned").flush();
        }
    }

    /// A cell for a batch admission refused: born finished, zero
    /// retrievals, with the full *initial* Theorem-1/2 certificate as its
    /// published contract. The rejection neither runs nor tears — the
    /// result is as valid (and as wide) as an estimate can be.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn rejected(
        index: usize,
        exec: ProgressiveExecutor<'a>,
        config: &ServeConfig,
        contract: SloContract,
        estimate: &AdmissionEstimate,
        capacity: u64,
        pinned: Option<VersionId>,
        lifecycle: Option<Lifecycle>,
    ) -> Self {
        // A rejected batch's lifecycle is admission → finalize, flushed on
        // the spot: it never runs, so its trace is complete at birth.
        if let Some(lifecycle) = &lifecycle {
            let mut recorder = lifecycle.lock().expect("lifecycle poisoned");
            recorder.transition(Phase::Finalize);
            recorder.flush();
        }
        let report = exec.degradation_report(config.n_total, config.k_abs_sum);
        let snapshot = snapshot_of(&exec, &report, 0, true);
        let result = BatchResult {
            status: BatchStatus::Rejected,
            slo: SloOutcome::Rejected {
                estimated_cost: estimate.steps_to_target,
                capacity,
            },
            bound_history: vec![report.worst_case_bound],
            report,
            retrieved_entries: Vec::new(),
            slices: 0,
            metrics: Default::default(),
            pinned_version: pinned,
        };
        JobCell {
            index,
            contract,
            state: Mutex::new(JobState {
                exec,
                slices: 0,
                bound_history: Vec::new(),
                result: Some(result),
                pinned_version: pinned,
            }),
            snapshot: Mutex::new(snapshot),
            cancelled: AtomicBool::new(false),
            finished: AtomicBool::new(true),
            lifecycle,
        }
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

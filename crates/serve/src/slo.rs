//! Per-batch SLO contracts: admission pricing, outcomes, and `slo.*`
//! instrumentation.
//!
//! The paper's Theorem 1 gives every progressive prefix a *certified*
//! worst-case penalty bound, so a server never has to choose between
//! "answer" and "fail": any batch can be finalized early with its
//! certificate. This module turns that property into a serving contract —
//! a caller names a target bound ε, a deadline, and a priority
//! ([`SloContract`]); the server prices the contract against declared
//! capacity at admission ([`AdmissionEstimate`]) and classifies every
//! result with an explicit [`SloOutcome`]. Degradation is always
//! *certified*: a deadline-expired, load-shed, or fault-degraded batch
//! still publishes the Theorem-1/2 bounds of the prefix it reached, never
//! a torn or uncertified answer.

use std::sync::Arc;

use batchbb_core::ProgressiveExecutor;
use batchbb_obs::{Event, EventSink, MetricsRegistry};

/// Per-batch service-level contract, attached at submission via
/// [`BatchRequest::with_slo`](crate::BatchRequest::with_slo).
///
/// The default contract does not bind: infinite target bound, no
/// deadline, priority 0 — the batch runs to exact answers and serving is
/// bit-identical to an uncontracted run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloContract {
    /// Target certified worst-case bound ε: the batch may be finalized —
    /// with [`SloOutcome::Met`] — as soon as its Theorem-1 certificate
    /// drops to `<= ε`. `f64::INFINITY` (the default) means *no early
    /// finalization*: the batch runs to exact answers. `0.0` also runs to
    /// a zero-bound certificate (exactness, or a zero-importance tail).
    pub target_bound: f64,
    /// Deadline in simulated ticks (the retry clock: one tick per store
    /// attempt plus charged backoff). When the batch's elapsed ticks reach
    /// the deadline it is finalized at its current certified bound; the
    /// remaining tick budget also caps retry attempts and backoff so a
    /// faulty store cannot blow the contract. `None` means no deadline.
    pub deadline_ticks: Option<u64>,
    /// Scheduling priority: higher is served sooner. The marginal-value
    /// scheduler weighs a batch's bound-shrink-per-retrieval by
    /// `priority + 1`, and load shedding consumes low-priority slices
    /// first (they rank last, so they are the ones still unfinished when
    /// capacity runs out).
    pub priority: u8,
}

impl Default for SloContract {
    fn default() -> Self {
        SloContract {
            target_bound: f64::INFINITY,
            deadline_ticks: None,
            priority: 0,
        }
    }
}

impl SloContract {
    /// The non-binding default contract (run to exact, no deadline).
    pub fn new() -> Self {
        SloContract::default()
    }

    /// Sets the target certified bound ε (negative values are clamped to
    /// `0.0`; `NaN` becomes the non-binding `INFINITY`).
    pub fn with_target_bound(mut self, epsilon: f64) -> Self {
        self.target_bound = if epsilon.is_nan() {
            f64::INFINITY
        } else {
            epsilon.max(0.0)
        };
        self
    }

    /// Sets the deadline in simulated ticks.
    pub fn with_deadline_ticks(mut self, ticks: u64) -> Self {
        self.deadline_ticks = Some(ticks);
        self
    }

    /// Sets the scheduling priority (higher = served sooner).
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// The scheduler weight: `priority + 1`, so priority 0 still has
    /// positive marginal value.
    pub(crate) fn priority_weight(&self) -> f64 {
        f64::from(self.priority) + 1.0
    }
}

/// How a served batch fared against its [`SloContract`], carried on every
/// [`BatchResult`](crate::BatchResult).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SloOutcome {
    /// The final certified worst-case bound is within the contract's
    /// target (`<= ε`). Exact answers always qualify, as does any batch
    /// under the default infinite target.
    Met,
    /// The batch was finalized — by deadline expiry, load shedding,
    /// persistent faults, or a spent budget — with a certified bound
    /// still above its target. The answer remains valid under its
    /// published Theorem-1/2 certificate; it is degraded, not torn.
    DegradedAtBound,
    /// Admission control refused the batch: its estimated cost did not
    /// fit the remaining declared capacity. The batch performed zero
    /// retrievals and its result carries the full initial certificate.
    Rejected {
        /// Steps the admission controller priced the contract at.
        estimated_cost: u64,
        /// The declared capacity the estimate was weighed against.
        capacity: u64,
    },
}

/// Admission-time cost estimate for one batch under its contract.
///
/// Priced off the batch's certified-bound trajectory: the executor's
/// pending progression — importances, descending — is exactly that
/// trajectory (`bound after t steps = K^α · ι_(t)`), so steps-to-ε is
/// [`ProgressiveExecutor::steps_to_bound`]. A deadline caps the estimate —
/// the batch cannot consume more ticks than that.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionEstimate {
    /// The certified worst-case bound before any retrieval.
    pub initial_bound: f64,
    /// Estimated retrieval steps to honor the contract: steps until the
    /// certified bound reaches ε (the full master list under an infinite
    /// target), capped by the deadline budget.
    pub steps_to_target: u64,
}

/// Prices `contract` against the executor's initial importance profile.
pub(crate) fn estimate_cost(
    exec: &ProgressiveExecutor<'_>,
    contract: &SloContract,
    k_abs_sum: f64,
) -> AdmissionEstimate {
    let steps = if contract.target_bound.is_finite() {
        exec.steps_to_bound(contract.target_bound, k_abs_sum)
    } else {
        exec.remaining()
    } as u64;
    AdmissionEstimate {
        initial_bound: exec.worst_case_bound(k_abs_sum),
        steps_to_target: contract.deadline_ticks.map_or(steps, |d| steps.min(d)),
    }
}

/// Emits `slo.*` events and metrics for one serving run. All methods are
/// cheap no-ops when neither a sink nor a registry is configured.
pub(crate) struct SloObserver {
    sink: Option<Arc<dyn EventSink>>,
    registry: Option<Arc<MetricsRegistry>>,
}

impl SloObserver {
    pub(crate) fn new(
        sink: Option<Arc<dyn EventSink>>,
        registry: Option<Arc<MetricsRegistry>>,
    ) -> Self {
        SloObserver { sink, registry }
    }

    fn emit(&self, event: Event) {
        if let Some(sink) = &self.sink {
            if sink.enabled() {
                sink.emit(&event);
            }
        }
    }

    fn count(&self, name: &str) {
        if let Some(registry) = &self.registry {
            registry.counter(name).inc();
        }
    }

    fn contract_fields(event: Event, contract: &SloContract) -> Event {
        let event = event
            .u64("priority", u64::from(contract.priority))
            .f64_finite("target_bound", contract.target_bound);
        match contract.deadline_ticks {
            Some(d) => event.u64("deadline_ticks", d),
            None => event,
        }
    }

    /// Publishes the current runnable-queue depth (`slo.queue_depth`
    /// gauge): admitted batches still unfinished. Overload runs assert
    /// this stays bounded by the admitted count — rejection, not
    /// queueing, absorbs offered load beyond capacity.
    pub(crate) fn set_queue_depth(&self, depth: u64) {
        if let Some(registry) = &self.registry {
            registry
                .gauge("slo.queue_depth")
                .set(i64::try_from(depth).unwrap_or(i64::MAX));
        }
    }

    pub(crate) fn on_admitted(
        &self,
        batch: usize,
        contract: &SloContract,
        estimate: &AdmissionEstimate,
        capacity: Option<u64>,
    ) {
        self.count("slo.admitted");
        let event = Self::contract_fields(Event::new("slo.admitted"), contract)
            .u64("batch", batch as u64)
            .u64("estimated_cost", estimate.steps_to_target)
            .f64_finite("initial_bound", estimate.initial_bound);
        self.emit(match capacity {
            Some(c) => event.u64("capacity", c),
            None => event,
        });
    }

    pub(crate) fn on_rejected(
        &self,
        batch: usize,
        contract: &SloContract,
        estimate: &AdmissionEstimate,
        capacity: u64,
    ) {
        self.count("slo.rejected");
        self.emit(
            Self::contract_fields(Event::new("slo.rejected"), contract)
                .u64("batch", batch as u64)
                .u64("estimated_cost", estimate.steps_to_target)
                .u64("capacity", capacity),
        );
    }

    /// Records a finalized batch's contract outcome: the `slo.met` /
    /// `slo.degraded` counters, the per-priority certified-bound
    /// histogram, and one `slo.outcome` event. `cause` is the terminal
    /// [`BatchStatus`](crate::BatchStatus) label, which the event carries.
    pub(crate) fn on_outcome(
        &self,
        batch: usize,
        contract: &SloContract,
        outcome: &SloOutcome,
        cause: &'static str,
        bound: f64,
        elapsed_ticks: u64,
    ) {
        let label = match outcome {
            SloOutcome::Met => {
                self.count("slo.met");
                "met"
            }
            SloOutcome::DegradedAtBound => {
                self.count("slo.degraded");
                "degraded_at_bound"
            }
            SloOutcome::Rejected { .. } => "rejected",
        };
        if let Some(registry) = &self.registry {
            // Histograms bucket u64s; certified bounds are scaled to
            // nano-units so sub-unit bounds keep resolution (log2 buckets
            // make the absolute scale immaterial for percentile shape).
            let scaled = if bound.is_finite() && bound > 0.0 {
                (bound * 1e9).min(u64::MAX as f64) as u64
            } else {
                0
            };
            registry
                .histogram(&format!("slo.bound.p{}", contract.priority))
                .record(scaled);
        }
        self.emit(
            Self::contract_fields(Event::new("slo.outcome"), contract)
                .u64("batch", batch as u64)
                .str("outcome", label)
                .str("cause", cause)
                .f64("bound", bound)
                .u64("elapsed_ticks", elapsed_ticks),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_contract_weighs_one() {
        assert_eq!(SloContract::default().priority_weight(), 1.0);
    }

    #[test]
    fn target_bound_sanitizes_nan_and_negatives() {
        assert_eq!(
            SloContract::new().with_target_bound(f64::NAN).target_bound,
            f64::INFINITY
        );
        assert_eq!(SloContract::new().with_target_bound(-3.0).target_bound, 0.0);
    }
}

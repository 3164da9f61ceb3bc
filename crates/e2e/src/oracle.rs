//! The un-timed correctness oracle.
//!
//! Every served batch is checked against `RangeSum::eval_direct` on a
//! mirror tensor the harness maintains itself — never against another
//! answer of the program. An exact pass must be exact; an ε pass must have
//! met its contract with a certificate at or below ε, and the *actual* SSE
//! against the oracle must be within that certificate: the certificate is
//! the product, so it is what gets audited.

use batchbb_core::BatchQueries;
use batchbb_serve::{BatchResult, BatchStatus, SloOutcome};
use batchbb_tensor::Tensor;

use crate::fixture::Points;

/// Estimates may differ from the oracle by this much, relative to
/// `max(|truth|, 1)` — the tolerance the workspace's own exactness tests use.
const REL_TOL: f64 = 1e-6;

/// Batches attempted and failed, with the first few reasons kept for the
/// report.
#[derive(Debug, Default)]
pub struct Tally {
    /// Batches checked.
    pub attempted: u64,
    /// Batches that failed at least one check.
    pub failed: u64,
    /// Why the first few failed.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Counts one checked batch and, on `Err`, its failure.
    pub fn record(&mut self, context: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = verdict {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(format!("{context}: {reason}"));
            }
        }
    }
}

/// The oracle's answers for `batch` on `mirror`.
pub fn truths(batch: &BatchQueries, mirror: &Tensor) -> Vec<f64> {
    batch
        .queries()
        .iter()
        .map(|q| q.eval_direct(mirror))
        .collect()
}

/// Checks an unbounded pass: exact status, every estimate on the oracle.
pub fn check_exact(tally: &mut Tally, context: &str, result: &BatchResult, truths: &[f64]) {
    let verdict = (|| {
        if result.status != BatchStatus::Exact {
            return Err(format!("status {:?}, expected Exact", result.status));
        }
        for (i, (est, truth)) in result.estimates().iter().zip(truths).enumerate() {
            if (est - truth).abs() > REL_TOL * truth.abs().max(1.0) {
                return Err(format!("query {i}: estimate {est} vs oracle {truth}"));
            }
        }
        Ok(())
    })();
    tally.record(context, verdict);
}

/// Checks an ε-targeted pass: contract met, certificate ≤ ε, and the
/// actual SSE within the certificate (plus the float slack an exact answer
/// is allowed, so a batch that happens to finish exact still passes).
pub fn check_epsilon(
    tally: &mut Tally,
    context: &str,
    result: &BatchResult,
    truths: &[f64],
    epsilon: f64,
) {
    let verdict = (|| {
        if result.slo != SloOutcome::Met {
            return Err(format!("slo {:?}, expected Met", result.slo));
        }
        let certified = result.report.worst_case_bound;
        if certified > epsilon {
            return Err(format!("certified bound {certified} above ε {epsilon}"));
        }
        let (mut sse, mut slack) = (0.0, 0.0);
        for (est, truth) in result.estimates().iter().zip(truths) {
            sse += (est - truth) * (est - truth);
            let tol = REL_TOL * truth.abs().max(1.0);
            slack += tol * tol;
        }
        if sse > certified + slack {
            return Err(format!(
                "actual SSE {sse} exceeds the certified bound {certified}"
            ));
        }
        Ok(())
    })();
    tally.record(context, verdict);
}

/// The oracle's copy of `live_prepared`'s data: the base tensor plus every
/// published insert, rolled forward on demand to the version a batch
/// pinned. Versions only move forward — results are checked in pinned
/// order — so one tensor suffices.
pub struct LiveMirror {
    tensor: Tensor,
    version: u64,
    /// Published but not yet applied inserts, oldest first, each tagged
    /// with the store version its publish produced.
    pending: std::collections::VecDeque<(u64, Points)>,
}

impl LiveMirror {
    /// A mirror of version 0.
    pub fn new(tensor: Tensor) -> Self {
        LiveMirror {
            tensor,
            version: 0,
            pending: std::collections::VecDeque::new(),
        }
    }

    /// Notes that publishing `points` produced store version `version`.
    pub fn published(&mut self, version: u64, points: Points) {
        self.pending.push_back((version, points));
    }

    /// The data as of `version` (which must not precede an earlier call's).
    pub fn at(&mut self, version: u64) -> &Tensor {
        assert!(version >= self.version, "the mirror only rolls forward");
        while self.pending.front().is_some_and(|(v, _)| *v <= version) {
            let (_, points) = self.pending.pop_front().expect("front checked");
            for (coords, weight) in points {
                self.tensor
                    .add_at(&coords, weight)
                    .expect("generated inserts are in-domain");
            }
        }
        self.version = version;
        &self.tensor
    }
}

//! Concurrent batch serving for progressive range-sum evaluation.
//!
//! The paper evaluates one batch of range-sum queries progressively; a
//! server evaluates *many batches at once* against one coefficient store.
//! This crate supplies that layer:
//!
//! * [`BatchServer`] — a fixed worker pool that advances one
//!   [`batchbb_core::ProgressiveExecutor`] per admitted batch in bounded
//!   *slices*, ranking runnable batches by certified
//!   bound-shrink-per-retrieval × priority, so a huge batch cannot starve
//!   small ones. The store is the caller's: a single store, an
//!   asynchronous engine ([`batchbb_storage::AsyncFetchStore`]) or a
//!   scatter-gather [`batchbb_storage::ShardRouter`] all go through the
//!   same [`BatchServer::serve`] — sharding is a store, not a serve mode;
//! * SLO contracts ([`SloContract`]) — per-batch target bound ε, deadline,
//!   and priority, attached via [`BatchRequest::with_slo`]. With
//!   [`ServeConfig::capacity`] declared, admission control prices each
//!   contract against capacity ([`AdmissionEstimate`]) and rejects what
//!   cannot fit; overload, deadlines, and faults degrade batches to their
//!   *certified* Theorem-1/2 bounds, and every result carries an explicit
//!   [`SloOutcome`] (Met / DegradedAtBound / Rejected) — never a torn or
//!   uncertified answer;
//! * [`BatchHandle`] — per-batch progressive snapshots
//!   ([`BatchSnapshot`]) and cooperative cancellation while the pool
//!   runs, reachable from the driver closure of
//!   [`BatchServer::serve_with`];
//! * [`ServeSession::update`] — live data updates, against a
//!   [`batchbb_storage::VersionedStore`]
//!   ([`BatchServer::serve_versioned_with`]): the update is *published* as
//!   a new immutable snapshot version with zero reader coordination; each
//!   batch keeps answering for the version it pinned at admission
//!   ([`BatchResult::pinned_version`]) unless the driver opts it forward
//!   with [`ServeSession::advance_batch`], which repairs that one batch's
//!   estimates and certified bounds against the exact inter-version
//!   delta;
//! * cross-batch I/O sharing — with [`ServeConfig::share_cache`] (the
//!   default) all batches read through one
//!   [`batchbb_storage::ShardedCachingStore`], so a coefficient needed
//!   by several batches is served from memory after its first fetch. At
//!   `prefetch_window(1)` reads are singletons and a resident coefficient
//!   is fetched exactly once; at wider windows each window crosses the
//!   cache as one non-blocking batch — fetched at most once while
//!   resident, and once while outstanding when the store beneath is
//!   the asynchronous engine (which shares in-flight reads), in which
//!   case the batch parks and the pool advances another;
//! * observability — with a sink/registry configured, each batch's
//!   `exec.*` events carry a `batch = <id>` label
//!   ([`batchbb_obs::LabeledSink`]), all metrics land in one shared
//!   `MetricsRegistry`, every [`BatchResult`] carries the run's final
//!   [`batchbb_obs::MetricsSnapshot`], and that snapshot is appended to
//!   the trace as `metrics.*` events so metrics and events share one
//!   file. For high-throughput serving, wrap the sink in a
//!   [`batchbb_obs::BoundedSink`] so slow trace I/O can never block the
//!   worker pool (overflow drops-and-counts instead).
//!
//! # Determinism contract
//!
//! Scheduling decides only *interleaving*, never *content*: each batch
//! follows its own penalty-driven importance order and finalizes with the
//! canonical re-summation, so its final estimates are **bit-identical**
//! to running the same batch alone against the same store state — the
//! workspace's concurrency tests replay every served batch serially and
//! compare with `==`, not a tolerance. Faults are handled per batch by
//! the retry/deferral path; a batch that cannot finish exactly publishes
//! the same penalty-bounded [`batchbb_core::DegradationReport`] contract
//! it would serially.
//!
//! # Example
//!
//! ```
//! use batchbb_core::BatchQueries;
//! use batchbb_penalty::Sse;
//! use batchbb_query::{HyperRect, LinearStrategy, RangeSum, WaveletStrategy};
//! use batchbb_relation::{Attribute, FrequencyDistribution, Schema};
//! use batchbb_serve::{BatchRequest, BatchServer, BatchStatus, ServeConfig};
//! use batchbb_storage::{CoefficientStore, MemoryStore};
//! use batchbb_wavelet::Wavelet;
//!
//! // A tiny 8×8 dataset and its wavelet-transformed store.
//! let schema = Schema::new(vec![
//!     Attribute::new("x", 0.0, 8.0, 3),
//!     Attribute::new("y", 0.0, 8.0, 3),
//! ])
//! .unwrap();
//! let mut dfd = FrequencyDistribution::new(schema);
//! for i in 0..8 {
//!     dfd.insert_binned(&[i, i], 1.0);
//! }
//! let strategy = WaveletStrategy::new(Wavelet::Haar);
//! let store = MemoryStore::from_entries(strategy.transform_data(dfd.tensor()));
//! let shape = dfd.schema().domain();
//!
//! // Two single-query batches served concurrently on a 2-worker pool.
//! let q1 = vec![RangeSum::count(HyperRect::new(vec![0, 0], vec![3, 3]))];
//! let q2 = vec![RangeSum::count(HyperRect::new(vec![0, 0], vec![7, 7]))];
//! let b1 = BatchQueries::rewrite(&strategy, q1, &shape).unwrap();
//! let b2 = BatchQueries::rewrite(&strategy, q2, &shape).unwrap();
//!
//! let k = store.abs_sum();
//! let server = BatchServer::new(ServeConfig::new(64, k).workers(2).slice_steps(4));
//! let results = server.serve(&store, &[BatchRequest::new(&b1, &Sse), BatchRequest::new(&b2, &Sse)]);
//! assert_eq!(results[0].status, BatchStatus::Exact);
//! assert!((results[0].estimates()[0] - 4.0).abs() < 1e-9);
//! assert!((results[1].estimates()[0] - 8.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]

mod config;
mod job;
mod sched;
mod server;
mod slo;

pub use config::{BatchRequest, ServeConfig};
pub use job::{BatchHandle, BatchResult, BatchSnapshot, BatchStatus};
pub use server::{BatchServer, ServeSession};
pub use slo::{AdmissionEstimate, SloContract, SloOutcome};

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use batchbb_core::{BatchQueries, DrainStatus, ProgressiveExecutor};
    use batchbb_obs::{jsonl, MemorySink, MetricsRegistry};
    use batchbb_penalty::{DiagonalQuadratic, Sse};
    use batchbb_query::{HyperRect, LinearStrategy, RangeSum, WaveletStrategy};
    use batchbb_relation::{Attribute, FrequencyDistribution, Schema};
    use batchbb_storage::{MemoryStore, RetryPolicy};
    use batchbb_wavelet::Wavelet;

    use super::*;

    fn fixture() -> (MemoryStore, Vec<BatchQueries>, usize, f64) {
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
        let batches = vec![
            BatchQueries::rewrite(
                &strategy,
                vec![
                    RangeSum::count(HyperRect::new(vec![0, 0], vec![7, 7])),
                    RangeSum::count(HyperRect::new(vec![8, 0], vec![15, 15])),
                ],
                &shape,
            )
            .unwrap(),
            BatchQueries::rewrite(
                &strategy,
                vec![RangeSum::sum(HyperRect::new(vec![2, 3], vec![12, 14]), 1)],
                &shape,
            )
            .unwrap(),
            BatchQueries::rewrite(
                &strategy,
                vec![
                    RangeSum::count(HyperRect::new(vec![4, 4], vec![11, 11])),
                    RangeSum::count(HyperRect::new(vec![0, 8], vec![15, 15])),
                    RangeSum::count(HyperRect::new(vec![1, 1], vec![2, 14])),
                ],
                &shape,
            )
            .unwrap(),
        ];
        let k = store.abs_sum();
        (store, batches, 256, k)
    }

    #[test]
    fn pool_matches_serial_execution_bit_for_bit() {
        let (store, batches, n_total, k) = fixture();
        let requests: Vec<BatchRequest<'_>> =
            batches.iter().map(|b| BatchRequest::new(b, &Sse)).collect();
        let server = BatchServer::new(ServeConfig::new(n_total, k).workers(3).slice_steps(5));
        let results = server.serve(&store, &requests);
        assert_eq!(results.len(), batches.len());
        for (batch, result) in batches.iter().zip(&results) {
            assert_eq!(result.status, BatchStatus::Exact);
            assert!(result.slices > 1, "5-step slices must interleave");
            let mut serial = ProgressiveExecutor::new(batch, &Sse, &store);
            assert_eq!(
                serial.drain_with_faults(&RetryPolicy::default()),
                DrainStatus::Exact
            );
            assert_eq!(result.estimates(), serial.estimates());
            assert_eq!(result.retrieved_entries, serial.retrieved_entries());
        }
    }

    #[test]
    fn bound_history_is_monotone_and_ends_at_zero() {
        let (store, batches, n_total, k) = fixture();
        let requests: Vec<BatchRequest<'_>> =
            batches.iter().map(|b| BatchRequest::new(b, &Sse)).collect();
        let server = BatchServer::new(ServeConfig::new(n_total, k).workers(4).slice_steps(3));
        for result in server.serve(&store, &requests) {
            let history = &result.bound_history;
            assert!(!history.is_empty());
            assert!(history.windows(2).all(|w| w[1] <= w[0]));
            assert_eq!(*history.last().unwrap(), 0.0);
        }
    }

    #[test]
    fn cancellation_keeps_valid_progressive_estimates() {
        let (store, batches, n_total, k) = fixture();
        let requests: Vec<BatchRequest<'_>> =
            batches.iter().map(|b| BatchRequest::new(b, &Sse)).collect();
        // One-step slices and a single worker: batch 0 cannot finish
        // before the driver's cancel lands (the driver cancels before
        // observing any progress requirement — cancellation is
        // cooperative, so either outcome must be coherent).
        let server = BatchServer::new(ServeConfig::new(n_total, k).workers(1).slice_steps(1));
        let (results, cancelled_first) = server.serve_with(&store, &requests, |session| {
            let handle = session.handle(0);
            handle.cancel();
            !handle.is_finished() || handle.snapshot().finished
        });
        assert!(cancelled_first);
        let result = &results[0];
        match result.status {
            BatchStatus::Cancelled => {
                // The partial estimates still honor Theorem 1: each
                // true answer lies within the published bound.
                let mut serial = ProgressiveExecutor::new(&batches[0], &Sse, &store);
                serial.run_to_end();
                assert!(result.report.worst_case_bound >= 0.0);
                assert!(!result.report.is_exact || result.estimates() == serial.estimates());
            }
            BatchStatus::Exact => (), // finished before the flag was seen
            other => panic!("unexpected status {other:?}"),
        }
        // Cancelling one batch never disturbs the others.
        for result in &results[1..] {
            assert_eq!(result.status, BatchStatus::Exact);
        }
    }

    #[test]
    fn snapshots_progress_while_serving() {
        let (store, batches, n_total, k) = fixture();
        let requests: Vec<BatchRequest<'_>> =
            batches.iter().map(|b| BatchRequest::new(b, &Sse)).collect();
        let server = BatchServer::new(ServeConfig::new(n_total, k).workers(2).slice_steps(2));
        let (results, peak) = server.serve_with(&store, &requests, |session| {
            assert_eq!(session.batches(), 3);
            assert_eq!(session.handles().len(), 3);
            let mut peak = 0;
            while !session.all_finished() {
                for handle in session.handles() {
                    peak = peak.max(handle.snapshot().retrieved);
                }
                std::thread::yield_now();
            }
            // Final snapshots are published before the finished flag, so
            // after the loop every handle shows its terminal state.
            for handle in session.handles() {
                let snapshot = handle.snapshot();
                assert!(snapshot.finished);
                assert!(handle.is_finished());
                peak = peak.max(snapshot.retrieved);
            }
            peak
        });
        assert!(peak > 0, "snapshots must reflect retrieval progress");
        for result in &results {
            assert_eq!(result.status, BatchStatus::Exact);
        }
    }

    #[test]
    fn unshared_cache_and_mixed_penalties_still_match_serial() {
        let (store, batches, n_total, k) = fixture();
        let diag = DiagonalQuadratic::new(vec![3.0, 1.0]);
        let requests = vec![
            BatchRequest::new(&batches[0], &diag),
            BatchRequest::new(&batches[1], &Sse),
        ];
        let server = BatchServer::new(
            ServeConfig::new(n_total, k)
                .share_cache(false)
                .slice_steps(7),
        );
        let results = server.serve(&store, &requests);
        let mut serial0 = ProgressiveExecutor::new(&batches[0], &diag, &store);
        serial0.run_to_end();
        let mut serial1 = ProgressiveExecutor::new(&batches[1], &Sse, &store);
        serial1.run_to_end();
        assert_eq!(results[0].estimates(), serial0.estimates());
        assert_eq!(results[1].estimates(), serial1.estimates());
    }

    #[test]
    fn empty_request_list_is_fine() {
        let (store, _, n_total, k) = fixture();
        let server = BatchServer::new(ServeConfig::new(n_total, k));
        assert!(server.serve(&store, &[]).is_empty());
    }

    #[test]
    fn events_are_labelled_per_batch_and_metrics_shared() {
        let (store, batches, n_total, k) = fixture();
        let sink = Arc::new(MemorySink::new());
        let registry = Arc::new(MetricsRegistry::new());
        let requests: Vec<BatchRequest<'_>> =
            batches.iter().map(|b| BatchRequest::new(b, &Sse)).collect();
        let server = BatchServer::new(
            ServeConfig::new(n_total, k)
                .workers(2)
                .slice_steps(4)
                .sink(sink.clone())
                .registry(registry.clone()),
        );
        let results = server.serve(&store, &requests);
        assert_eq!(results.len(), 3);
        let mut seen = [false; 3];
        for line in sink.lines() {
            let event = jsonl::parse_line(&line).unwrap();
            if event.name().starts_with("metrics.") {
                continue; // the run-wide metrics dump is per-run, not per-batch
            }
            let batch = event
                .num("batch")
                .expect("every exec event carries the label") as usize;
            seen[batch] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "all three batches must emit events"
        );
        assert!(registry.snapshot().counter("serve.steps").unwrap_or(0) > 0);
    }

    #[test]
    fn results_carry_the_final_metrics_snapshot_and_trace_gets_a_dump() {
        let (store, batches, n_total, k) = fixture();
        let sink = Arc::new(MemorySink::new());
        let registry = Arc::new(MetricsRegistry::new());
        let requests: Vec<BatchRequest<'_>> =
            batches.iter().map(|b| BatchRequest::new(b, &Sse)).collect();
        let server = BatchServer::new(
            ServeConfig::new(n_total, k)
                .workers(2)
                .slice_steps(4)
                .sink(sink.clone())
                .registry(registry.clone()),
        );
        let results = server.serve(&store, &requests);
        // Every result of one run carries the SAME final snapshot, and its
        // step counter covers the whole run: one exec.step event per step.
        let steps_in_trace = sink
            .lines()
            .iter()
            .filter(|l| jsonl::parse_line(l).unwrap().name() == "exec.step")
            .count() as u64;
        for result in &results {
            assert_eq!(result.metrics, results[0].metrics);
            assert_eq!(result.metrics.counter("serve.steps"), Some(steps_in_trace));
        }
        // The snapshot is also dumped into the trace as metrics.* events,
        // after every exec.* event, and reconciles with the carried copy.
        let metric_lines: Vec<_> = sink
            .lines()
            .iter()
            .map(|l| jsonl::parse_line(l).unwrap())
            .filter(|e| e.name().starts_with("metrics."))
            .collect();
        assert!(!metric_lines.is_empty(), "trace must carry a metrics dump");
        let dumped_steps = metric_lines
            .iter()
            .find(|e| e.name() == "metrics.counter" && e.str("name") == Some("serve.steps"))
            .expect("serve.steps counter dumped");
        assert_eq!(dumped_steps.u64("value"), Some(steps_in_trace));
    }

    #[test]
    fn results_without_a_registry_carry_an_empty_snapshot() {
        let (store, batches, n_total, k) = fixture();
        let requests = vec![BatchRequest::new(&batches[0], &Sse)];
        let server = BatchServer::new(ServeConfig::new(n_total, k));
        let results = server.serve(&store, &requests);
        assert!(results[0].metrics.counters.is_empty());
    }

    #[test]
    fn observer_is_metrics_only_without_a_sink() {
        let (store, batches, n_total, k) = fixture();
        let registry = Arc::new(MetricsRegistry::new());
        let requests = vec![BatchRequest::new(&batches[0], &Sse)];
        let server = BatchServer::new(ServeConfig::new(n_total, k).registry(registry.clone()));
        server.serve(&store, &requests);
        assert!(registry.snapshot().counter("serve.steps").unwrap_or(0) > 0);
    }

    #[test]
    fn bound_target_finalizes_early_with_met_outcome() {
        let (store, batches, n_total, k) = fixture();
        // A loose-but-finite ε: the batch must stop at the certificate,
        // well before exactness, and still classify as Met.
        let mut probe = ProgressiveExecutor::new(&batches[0], &Sse, &store);
        probe.run_to_end();
        let epsilon = k * 1e-3;
        let requests = vec![BatchRequest::new(&batches[0], &Sse)
            .with_slo(SloContract::new().with_target_bound(epsilon))];
        let server = BatchServer::new(ServeConfig::new(n_total, k).workers(1).slice_steps(4));
        let results = server.serve(&store, &requests);
        let result = &results[0];
        assert!(matches!(
            result.status,
            BatchStatus::BoundReached | BatchStatus::Exact
        ));
        assert_eq!(result.slo, SloOutcome::Met);
        assert!(result.report.worst_case_bound <= epsilon);
        // The certificate still holds: the SSE penalty against the exact
        // answers is within the published Theorem-1 bound.
        let sse: f64 = result
            .estimates()
            .iter()
            .zip(probe.estimates())
            .map(|(e, x)| (e - x) * (e - x))
            .sum();
        assert!(sse <= result.report.worst_case_bound * (1.0 + 1e-9) + 1e-9);
    }

    #[test]
    fn zero_capacity_rejects_everything_atomically() {
        let (store, batches, n_total, k) = fixture();
        let requests: Vec<BatchRequest<'_>> =
            batches.iter().map(|b| BatchRequest::new(b, &Sse)).collect();
        let server = BatchServer::new(ServeConfig::new(n_total, k).capacity(0));
        let results = server.serve(&store, &requests);
        assert_eq!(results.len(), requests.len(), "no batch is lost");
        for result in &results {
            assert_eq!(result.status, BatchStatus::Rejected);
            match result.slo {
                SloOutcome::Rejected {
                    estimated_cost,
                    capacity,
                } => {
                    assert!(estimated_cost > 0);
                    assert_eq!(capacity, 0);
                }
                ref other => panic!("expected Rejected, got {other:?}"),
            }
            assert!(result.retrieved_entries.is_empty(), "zero retrievals");
            // The rejected result still carries a full certificate.
            assert!(result.report.worst_case_bound > 0.0);
            assert!(!result.report.is_exact);
        }
    }

    #[test]
    fn admission_admits_within_capacity_and_rejects_overflow() {
        let (store, batches, n_total, k) = fixture();
        // Price batch 0 alone by running it to exact: its master-list
        // length is its infinite-target cost estimate.
        let mut probe = ProgressiveExecutor::new(&batches[0], &Sse, &store);
        probe.run_to_end();
        let cost0 = probe.retrieved() as u64;
        let requests: Vec<BatchRequest<'_>> =
            batches.iter().map(|b| BatchRequest::new(b, &Sse)).collect();
        let server = BatchServer::new(ServeConfig::new(n_total, k).capacity(cost0));
        let results = server.serve(&store, &requests);
        assert_eq!(results[0].status, BatchStatus::Exact);
        assert_eq!(results[0].slo, SloOutcome::Met);
        // Later batches cannot fit behind batch 0's committed estimate.
        for result in &results[1..] {
            assert_eq!(result.status, BatchStatus::Rejected);
        }
    }

    #[test]
    fn deadline_expiry_degrades_with_certified_bound() {
        let (store, batches, n_total, k) = fixture();
        let requests = vec![BatchRequest::new(&batches[0], &Sse).with_slo(
            SloContract::new()
                .with_target_bound(0.0)
                .with_deadline_ticks(8),
        )];
        let server = BatchServer::new(ServeConfig::new(n_total, k).workers(1).slice_steps(4));
        let results = server.serve(&store, &requests);
        let result = &results[0];
        assert_eq!(result.status, BatchStatus::DeadlineExpired);
        assert_eq!(result.slo, SloOutcome::DegradedAtBound);
        // The batch honored the deadline to within one bounded slice and
        // published the certificate of the prefix it reached.
        assert!(result.report.fault.attempts >= 8);
        assert!(result.report.worst_case_bound > 0.0);
        assert!(result.report.worst_case_bound.is_finite());
        let history = &result.bound_history;
        assert!(history.windows(2).all(|w| w[1] <= w[0]), "still monotone");
    }

    #[test]
    fn slo_events_and_metrics_cover_every_outcome() {
        let (store, batches, n_total, k) = fixture();
        let sink = Arc::new(MemorySink::new());
        let registry = Arc::new(MetricsRegistry::new());
        // Capacity sized so batch 0 is admitted and the rest rejected.
        let mut probe = ProgressiveExecutor::new(&batches[0], &Sse, &store);
        probe.run_to_end();
        let requests: Vec<BatchRequest<'_>> = batches
            .iter()
            .map(|b| BatchRequest::new(b, &Sse).with_slo(SloContract::new().with_priority(2)))
            .collect();
        let server = BatchServer::new(
            ServeConfig::new(n_total, k)
                .capacity(probe.retrieved() as u64)
                .sink(sink.clone())
                .registry(registry.clone()),
        );
        server.serve(&store, &requests);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("slo.admitted"), Some(1));
        assert_eq!(
            snapshot.counter("slo.rejected"),
            Some(requests.len() as u64 - 1)
        );
        assert_eq!(snapshot.counter("slo.met"), Some(1));
        assert_eq!(snapshot.gauge("slo.queue_depth"), Some(0));
        assert!(
            snapshot.histogram("slo.bound.p2").is_some(),
            "per-priority bound histogram recorded"
        );
        let names: Vec<String> = sink
            .lines()
            .iter()
            .map(|l| jsonl::parse_line(l).unwrap().name().to_string())
            .collect();
        assert!(names.iter().any(|n| n == "slo.admitted"));
        assert!(names.iter().any(|n| n == "slo.rejected"));
        assert!(names.iter().any(|n| n == "slo.outcome"));
    }

    /// The mutate-in-place update path is gone: a session with no
    /// versioned store cannot repair its executors, so `update` must
    /// refuse loudly rather than accept a write it would silently drop.
    #[test]
    #[should_panic(expected = "serve_versioned")]
    fn update_on_an_unversioned_session_panics() {
        let (store, batches, n_total, k) = fixture();
        let requests = vec![BatchRequest::new(&batches[0], &Sse)];
        let server = BatchServer::new(ServeConfig::new(n_total, k));
        server.serve_with(&store, &requests, |session| {
            session.update(&[(batchbb_tensor::CoeffKey::new(&[0, 0]), 4.25)], || ());
        });
    }
}

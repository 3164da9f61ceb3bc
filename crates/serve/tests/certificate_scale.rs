//! The certificate's scale `K` (the data's coefficient ℓ¹-norm, Theorem
//! 1's `K^α · ι`) must be finite and non-negative.  A negative `K` under a
//! homogeneity-1 penalty certifies a negative bound, which meets any
//! target before a single retrieval; a NaN or infinite one makes every
//! unresolved bound meaningless.  `K = 0` is a legal, all-zero store.

use batchbb_core::{BatchQueries, ProgressiveExecutor};
use batchbb_penalty::{LpPenalty, Sse};
use batchbb_query::{HyperRect, LinearStrategy, RangeSum, WaveletStrategy};
use batchbb_serve::{BatchRequest, BatchServer, BatchStatus, ServeConfig, SloContract};
use batchbb_storage::MemoryStore;
use batchbb_tensor::{Shape, Tensor};
use batchbb_wavelet::Wavelet;

/// An 8×8 store with two COUNT queries over it, and its domain size.
fn fixture() -> (MemoryStore, BatchQueries, usize) {
    let shape = Shape::new(vec![8, 8]).unwrap();
    let data = Tensor::from_fn(shape.clone(), |ix| ((ix[0] * 7 + ix[1] * 3) % 5) as f64);
    let strategy = WaveletStrategy::new(Wavelet::Haar);
    let store = MemoryStore::from_entries(strategy.transform_data(&data));
    let queries = vec![
        RangeSum::count(HyperRect::new(vec![0, 0], vec![3, 5])),
        RangeSum::count(HyperRect::new(vec![2, 1], vec![7, 7])),
    ];
    let batch = BatchQueries::rewrite(&strategy, queries, &shape).unwrap();
    (store, batch, shape.len())
}

#[test]
#[should_panic(expected = "K must be finite and non-negative")]
fn a_negative_k_is_refused_before_it_certifies_a_negative_bound() {
    let (store, batch, n_total) = fixture();
    let l1 = LpPenalty::l1();
    let requests =
        [BatchRequest::new(&batch, &l1).with_slo(SloContract::new().with_target_bound(1e-6))];
    let results = BatchServer::new(ServeConfig::new(n_total, -1.0)).serve(&store, &requests);
    let result = &results[0];
    assert!(
        result.report.worst_case_bound >= 0.0,
        "{:?} after {} retrievals, certified {}",
        result.status,
        result.retrieved_entries.len(),
        result.report.worst_case_bound
    );
}

#[test]
#[should_panic(expected = "K must be finite and non-negative")]
fn a_nan_k_is_refused() {
    let _ = ServeConfig::new(64, f64::NAN);
}

#[test]
fn a_zero_k_still_serves_to_exact() {
    let (store, batch, n_total) = fixture();
    let requests = [BatchRequest::new(&batch, &Sse)];
    let results = BatchServer::new(ServeConfig::new(n_total, 0.0)).serve(&store, &requests);
    assert_eq!(results[0].status, BatchStatus::Exact);
    assert_eq!(results[0].report.worst_case_bound, 0.0);
}

#[test]
#[should_panic(expected = "K must be finite and non-negative")]
fn worst_case_bound_rejects_a_negative_k() {
    let (store, batch, _) = fixture();
    ProgressiveExecutor::new(&batch, &Sse, &store).worst_case_bound(-1.0);
}

#[test]
#[should_panic(expected = "K must be finite and non-negative")]
fn worst_case_bound_rejects_a_nan_k() {
    let (store, batch, _) = fixture();
    ProgressiveExecutor::new(&batch, &Sse, &store).worst_case_bound(f64::NAN);
}

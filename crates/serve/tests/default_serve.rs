//! A serve reads the caller's store unless it asks for the shared cache.

use batchbb_core::BatchQueries;
use batchbb_penalty::Sse;
use batchbb_query::{partition, LinearStrategy, RangeSum, WaveletStrategy};
use batchbb_serve::{BatchRequest, BatchResult, BatchServer, BatchStatus, ServeConfig};
use batchbb_storage::{CoefficientStore, MemoryStore};
use batchbb_tensor::{Shape, Tensor};
use batchbb_wavelet::Wavelet;

/// Everything a batch answers, every float as its bits.
fn bits(result: &BatchResult) -> impl PartialEq + std::fmt::Debug {
    let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let retrieved: Vec<_> = result
        .retrieved_entries
        .iter()
        .map(|&(key, v)| (key, v.to_bits()))
        .collect();
    (
        result.status,
        bits(result.estimates()),
        retrieved,
        bits(&result.bound_history),
        result.report.fault,
    )
}

/// N identical batches over a `MemoryStore`, which counts every key read
/// from it: at the default config each batch reads its whole master list
/// from the store, so no cache sits in between, and every batch answers
/// bit for bit what it answers through the shared cache.
#[test]
fn the_default_serve_reads_the_callers_store() {
    const N: usize = 4;
    let shape = Shape::new(vec![16, 16]).unwrap();
    let data = Tensor::from_fn(shape.clone(), |ix| ((ix[0] * 7 + ix[1] * 3) % 5) as f64);
    let strategy = WaveletStrategy::new(Wavelet::Db4);
    let store = MemoryStore::from_entries(strategy.transform_data(&data));
    let queries = partition::random_partition(&shape, 3, 11)
        .into_iter()
        .map(RangeSum::count)
        .collect();
    let batch = BatchQueries::rewrite(&strategy, queries, &shape).unwrap();
    let requests: Vec<BatchRequest<'_>> = (0..N).map(|_| BatchRequest::new(&batch, &Sse)).collect();
    let config = ServeConfig::new(shape.len(), store.abs_sum());

    let default = BatchServer::new(config.clone()).serve(&store, &requests);
    assert_eq!(
        store.stats().retrievals,
        (N * batch.master().len()) as u64,
        "every batch reads its master list from the store"
    );
    let cached = BatchServer::new(config.share_cache(true)).serve(&store, &requests);
    assert!(default.iter().all(|r| r.status == BatchStatus::Exact));
    let answers = |results: &[BatchResult]| results.iter().map(bits).collect::<Vec<_>>();
    assert_eq!(answers(&default), answers(&cached));
}

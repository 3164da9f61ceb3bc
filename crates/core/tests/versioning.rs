//! Version-advance repair contract of the executor (DESIGN.md §13).
//!
//! An executor pinned to one store version may opt in to a newer one:
//! the caller advances its view first, then calls
//! `ProgressiveExecutor::advance_version` with the exact concatenated
//! delta between the versions. These tests pin the headline invariant —
//! an executor repaired through `k` version deltas finalizes
//! bit-identically to a fresh executor started on the final version —
//! plus the degenerate cases: an empty delta, a delta touching every
//! pinned key, and a delta racing a pending `AsyncFetchStore` completion.

use proptest::prelude::*;

use batchbb_core::{BatchQueries, DrainStatus, ProgressiveExecutor};
use batchbb_penalty::Sse;
use batchbb_query::{partition, LinearStrategy, RangeSum, WaveletStrategy};
use batchbb_relation::{cube, Attribute, FrequencyDistribution, Schema};
use batchbb_storage::{
    testing::Gated, AsyncFetchStore, CoefficientStore, RetryPolicy, ShardedCachingStore,
    VersionedStore,
};
use batchbb_tensor::{CoeffKey, Shape};
use batchbb_wavelet::Wavelet;

/// A deterministic dataset on a `2^bx × 2^by` domain, one batch of count
/// queries, and the versioned wavelet store holding version 0.
fn instance(
    bx: u32,
    by: u32,
    seed: u64,
    wavelet: Wavelet,
) -> (VersionedStore, BatchQueries, Shape, WaveletStrategy) {
    let schema = Schema::new(vec![
        Attribute::new("x", 0.0, (1 << bx) as f64, bx),
        Attribute::new("y", 0.0, (1 << by) as f64, by),
    ])
    .unwrap();
    let mut dfd = FrequencyDistribution::new(schema);
    for i in 0..(1usize << bx) {
        for j in 0..(1usize << by) {
            let w = ((i as u64 * 7 + j as u64 * 3 + seed) % 5) as f64;
            if w != 0.0 {
                dfd.insert_binned(&[i, j], w);
            }
        }
    }
    let strategy = WaveletStrategy::new(wavelet);
    let store = VersionedStore::from_entries(strategy.transform_data(dfd.tensor()));
    let shape = dfd.schema().domain();
    let cells = 2 + (seed as usize % 3);
    let queries: Vec<RangeSum> = partition::random_partition(&shape, cells, seed)
        .into_iter()
        .map(RangeSum::count)
        .collect();
    let batch = BatchQueries::rewrite(&strategy, queries, &shape).unwrap();
    (store, batch, shape, strategy)
}

/// Runs a fresh executor to exactness against the store's *current*
/// version and returns its finals.
fn restart_finals(
    store: &VersionedStore,
    batch: &BatchQueries,
    window: usize,
) -> (Vec<f64>, Vec<(CoeffKey, f64)>) {
    let view = store.pin();
    let mut exec = ProgressiveExecutor::new(batch, &Sse, &view).with_prefetch_window(window);
    exec.run_to_end();
    (exec.estimates().to_vec(), exec.retrieved_entries())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn advance_version_agrees_with_restart(
        bx in 2u32..5,
        by in 2u32..5,
        seed in 0u64..500,
        k_versions in 1usize..4,
        steps_between in 0usize..24,
        window in 1usize..4,
    ) {
        let wavelet = if seed % 2 == 0 { Wavelet::Haar } else { Wavelet::Db4 };
        let (store, batch, shape, strategy) = instance(bx, by, seed, wavelet);
        let view = store.pin();
        let mut exec =
            ProgressiveExecutor::new(&batch, &Sse, &view).with_prefetch_window(window);
        for v in 0..k_versions {
            exec.run(steps_between);
            let x = (seed as usize + 3 * v) % (1 << bx);
            let y = (seed as usize * 5 + v) % (1 << by);
            let entries =
                cube::point_entries(&shape, &[x, y], 1.0 + v as f64, strategy.wavelet);
            store.publish(&entries);
            // View first, repair second — the documented advance order.
            let (_, delta) = view.advance_to_current();
            exec.advance_version(&delta);
        }
        exec.run_to_end();
        let (estimates, retrieved) = restart_finals(&store, &batch, window);
        prop_assert_eq!(exec.estimates(), estimates.as_slice());
        prop_assert_eq!(exec.retrieved_entries(), retrieved);
    }
}

/// Degenerate case: publishing an empty delta still creates a version;
/// advancing through it must change nothing at all.
#[test]
fn advance_through_an_empty_delta_is_identity() {
    let (store, batch, _, _) = instance(4, 4, 7, Wavelet::Db4);
    let view = store.pin();
    let mut exec = ProgressiveExecutor::new(&batch, &Sse, &view);
    exec.run(10);
    let before_estimates = exec.estimates().to_vec();
    let before_bound = exec.worst_case_bound(store.abs_sum());
    let v0 = view.version();
    store.publish(&[]);
    let (v1, delta) = view.advance_to_current();
    assert_eq!(v1.as_u64(), v0.as_u64() + 1);
    assert!(delta.is_empty());
    exec.advance_version(&delta);
    assert_eq!(exec.estimates(), before_estimates.as_slice());
    assert_eq!(exec.worst_case_bound(store.abs_sum()), before_bound);
    exec.run_to_end();
    let (estimates, retrieved) = restart_finals(&store, &batch, 1);
    assert_eq!(exec.estimates(), estimates.as_slice());
    assert_eq!(exec.retrieved_entries(), retrieved);
}

/// Degenerate case: the delta touches *every* key the executor has
/// pinned — all retrieved values repaired, every remaining read changed.
#[test]
fn advance_through_a_delta_touching_every_pinned_key() {
    let (store, batch, _, _) = instance(4, 4, 11, Wavelet::Haar);
    // Probe run: every master-list key with its version-0 value.
    let all_keys = {
        let view = store.pin();
        let mut probe = ProgressiveExecutor::new(&batch, &Sse, &view);
        probe.run_to_end();
        probe.retrieved_entries()
    };
    assert!(!all_keys.is_empty());
    let view = store.pin();
    let mut exec = ProgressiveExecutor::new(&batch, &Sse, &view);
    exec.run(all_keys.len() / 2);
    let delta: Vec<(CoeffKey, f64)> = all_keys
        .iter()
        .enumerate()
        .map(|(i, (key, _))| (*key, 0.25 + i as f64 * 0.5))
        .collect();
    store.publish(&delta);
    let (_, advance) = view.advance_to_current();
    assert_eq!(advance.len(), delta.len());
    exec.advance_version(&advance);
    exec.run_to_end();
    let (estimates, retrieved) = restart_finals(&store, &batch, 1);
    assert_eq!(exec.estimates(), estimates.as_slice());
    assert_eq!(exec.retrieved_entries(), retrieved);
}

/// Degenerate case: a version delta lands while an asynchronous prefetch
/// is still in flight. The advance abandons the pending fetch (its keys
/// intersect the delta), so the executor re-fetches them from the *new*
/// version and still finalizes bit-identically to a restart.
#[test]
fn advance_racing_a_pending_async_completion() {
    advance_racing_a_pending_completion(false);
}

/// The same race with the shared cache between executor and engine: the
/// abandoned completion is dropped untaken, so the cache memoizes nothing
/// from the pre-advance read, and post-advance windows carry the new tag.
#[test]
fn advance_racing_a_pending_cached_async_completion() {
    advance_racing_a_pending_completion(true);
}

fn advance_racing_a_pending_completion(cached: bool) {
    let (store, batch, _, _) = instance(4, 4, 3, Wavelet::Haar);
    // Reads block while the gate is shut: pins the engine's completions in
    // flight deterministically.
    let gated = Gated::closed(store.pin());
    let asynchronous = AsyncFetchStore::new(gated, 1);
    let cache = cached.then(|| ShardedCachingStore::new(&asynchronous));
    let reads: &dyn CoefficientStore = match &cache {
        Some(cache) => cache,
        None => &asynchronous,
    };
    let mut exec = ProgressiveExecutor::new(&batch, &Sse, reads).with_prefetch_window(2);
    // With the gate closed, the first budgeted drain submits its prefetch
    // and parks on it: the completion is pinned in flight.
    let status = exec.drain_with_faults_budgeted(&RetryPolicy::default(), 4);
    assert_eq!(status, None);
    assert!(exec.fetch_pending() && !exec.fetch_ready());
    // Publish a delta touching every master-list key, so the pending
    // fetch provably intersects it; advance view-first as always.
    let all_keys = {
        let view = store.pin();
        let mut probe = ProgressiveExecutor::new(&batch, &Sse, &view);
        probe.run_to_end();
        probe.retrieved_entries()
    };
    let delta: Vec<(CoeffKey, f64)> = all_keys
        .iter()
        .map(|(key, value)| (*key, 1.0 + value.abs()))
        .collect();
    store.publish(&delta);
    let (_, advance) = asynchronous.inner().inner.advance_to_current();
    exec.advance_version(&advance);
    assert!(
        !exec.fetch_pending(),
        "the intersecting pending fetch must be abandoned"
    );
    // Release the stale read and finish: every retrieval now comes from
    // the new version.
    asynchronous.inner().set_gate(true);
    let status = exec.drain_with_faults(&RetryPolicy::default());
    assert_eq!(status, DrainStatus::Exact);
    let (estimates, retrieved) = restart_finals(&store, &batch, 1);
    assert_eq!(exec.estimates(), estimates.as_slice());
    assert_eq!(exec.retrieved_entries(), retrieved);
    asynchronous.quiesce();
}

/// Publishes point inserts over the whole domain, one version each, until
/// at least 10k update entries separate `store`'s head from where it
/// stood — every coefficient of the domain is touched many times over.
fn publish_a_large_delta(store: &VersionedStore, shape: &Shape, strategy: &WaveletStrategy) {
    let from = store.current_version();
    let mut entries = 0;
    for cell in 0.. {
        let point = [cell % shape.dim(0), (cell / shape.dim(0)) % shape.dim(1)];
        let update = cube::point_entries(shape, &point, 1.0 + (cell % 3) as f64, strategy.wavelet);
        entries += update.len();
        store.publish(&update);
        if entries >= 10_000 && cell >= shape.len() {
            break;
        }
    }
    let delta = store.delta_between(from, store.current_version()).unwrap();
    assert!(delta.len() >= 10_000);
}

/// The window repair is one pass over the delta: W > 1 values landed but
/// not yet applied, a delta of ≥ 10k entries touching all of them, and
/// the finals still bit-identical to a restart.
#[test]
fn advance_through_a_large_delta_repairs_landed_values() {
    let (store, batch, shape, strategy) = instance(4, 4, 5, Wavelet::Db4);
    let view = store.pin();
    let mut exec = ProgressiveExecutor::new(&batch, &Sse, &view).with_prefetch_window(4);
    // Two windows of four fetched, five values applied: three wait.
    assert_eq!(
        exec.drain_with_faults_budgeted(&RetryPolicy::default(), 5),
        None
    );
    assert_eq!(exec.retrieved(), 5);
    assert_eq!(view.stats().retrievals, 8);
    publish_a_large_delta(&store, &shape, &strategy);
    let (_, delta) = view.advance_to_current();
    exec.advance_version(&delta);
    let status = exec.drain_with_faults(&RetryPolicy::default());
    assert_eq!(status, DrainStatus::Exact);
    let (estimates, retrieved) = restart_finals(&store, &batch, 4);
    assert_eq!(exec.estimates(), estimates.as_slice());
    assert_eq!(exec.retrieved_entries(), retrieved);
}

/// The same large delta against a W > 1 prefetch still in flight: the
/// one pass finds the intersection and abandons the fetch.
#[test]
fn advance_through_a_large_delta_abandons_the_pending_window() {
    let (store, batch, shape, strategy) = instance(4, 4, 5, Wavelet::Db4);
    let gated = Gated::closed(store.pin());
    let asynchronous = AsyncFetchStore::new(gated, 1);
    let mut exec = ProgressiveExecutor::new(&batch, &Sse, &asynchronous).with_prefetch_window(4);
    assert_eq!(
        exec.drain_with_faults_budgeted(&RetryPolicy::default(), 4),
        None
    );
    assert!(exec.fetch_pending() && !exec.fetch_ready());
    publish_a_large_delta(&store, &shape, &strategy);
    let (_, delta) = asynchronous.inner().inner.advance_to_current();
    exec.advance_version(&delta);
    assert!(!exec.fetch_pending(), "the intersecting fetch is abandoned");
    asynchronous.inner().set_gate(true);
    let status = exec.drain_with_faults(&RetryPolicy::default());
    assert_eq!(status, DrainStatus::Exact);
    let (estimates, retrieved) = restart_finals(&store, &batch, 1);
    assert_eq!(exec.estimates(), estimates.as_slice());
    assert_eq!(exec.retrieved_entries(), retrieved);
    asynchronous.quiesce();
}

/// Two windows in flight and a delta touching only the second: the first
/// keeps flying (its pre- and post-advance values are identical), the
/// second is abandoned and re-fetched from the advanced view.
#[test]
fn advance_touching_only_the_second_window_keeps_the_first_flying() {
    let (store, batch, _, _) = instance(4, 4, 5, Wavelet::Db4);
    let asynchronous = AsyncFetchStore::new(Gated::closed(store.pin()), 1);
    let mut exec = ProgressiveExecutor::new(&batch, &Sse, &asynchronous).with_prefetch_window(4);
    assert_eq!(
        exec.drain_with_faults_budgeted(&RetryPolicy::default(), 4),
        None
    );
    assert!(exec.fetch_pending() && !exec.fetch_ready());
    let (kept, updated) = (exec.progression()[1].key, exec.progression()[5].key);
    store.publish(&[(updated, 2.5)]);
    let (_, delta) = asynchronous.inner().inner.advance_to_current();
    exec.advance_version(&delta);
    assert!(
        exec.fetch_pending() && !exec.fetch_ready(),
        "the window the delta does not touch keeps flying"
    );
    asynchronous.inner().set_gate(true);
    let status = exec.drain_with_faults(&RetryPolicy::default());
    assert_eq!(status, DrainStatus::Exact);
    let (estimates, retrieved) = restart_finals(&store, &batch, 4);
    assert_eq!(exec.estimates(), estimates.as_slice());
    assert_eq!(exec.retrieved_entries(), retrieved);
    asynchronous.quiesce();
    let gate = asynchronous.inner();
    assert_eq!(gate.reads_of(&kept), 1, "the first window was read once");
    assert_eq!(
        gate.reads_of(&updated),
        2,
        "the second was read again at the new version (the stale read finished unobserved)"
    );
}

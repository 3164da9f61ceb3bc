//! Reproducibility from the batch alone: nothing a caller can observe may
//! depend on a `HashMap`'s per-instance iteration order.

use batchbb_core::{bounded::evaluate_bounded, BatchQueries, MasterList, ProgressiveExecutor};
use batchbb_penalty::{DiagonalQuadratic, Penalty, Sse};
use batchbb_query::{partition, LinearStrategy, RangeSum, WaveletStrategy};
use batchbb_storage::MemoryStore;
use batchbb_tensor::{Shape, Tensor};
use batchbb_wavelet::Wavelet;

/// A 24-cell random partition of a 64×64 domain, as COUNT queries.
fn partition_batch(seed: u64) -> (Shape, Vec<RangeSum>) {
    let shape = Shape::new(vec![64, 64]).unwrap();
    let queries = partition::random_partition(&shape, 24, seed)
        .into_iter()
        .map(RangeSum::count)
        .collect();
    (shape, queries)
}

/// Theorem 2's expected penalty is half of the certificate, so it must be
/// a pure function of the batch: the executor sums `ι_p` over the sorted
/// progression, not over its column map's iteration order.
#[test]
fn expected_penalty_is_a_function_of_the_batch() {
    let (shape, queries) = partition_batch(7);
    let strategy = WaveletStrategy::new(Wavelet::Db4);
    let batch = BatchQueries::rewrite(&strategy, queries, &shape).unwrap();
    let store = MemoryStore::new();
    let n = shape.len();
    let certificate = || {
        let exec = ProgressiveExecutor::new(&batch, &Sse, &store);
        (
            exec.expected_penalty(n).to_bits(),
            exec.degradation_report(n, 1.0).expected_penalty.to_bits(),
        )
    };
    let first = certificate();
    for rebuild in 1..20 {
        assert_eq!(certificate(), first, "rebuild {rebuild} differs");
    }
}

/// Haar COUNT partitions are tie-heavy, and a budget of 4 prunes the
/// working set on nearly every query: the keys that survive a prune must
/// be chosen by (importance, key), never by the drained map's order.
#[test]
fn bounded_selection_is_reproducible_under_ties() {
    let (shape, queries) = partition_batch(7);
    let strategy = WaveletStrategy::new(Wavelet::Haar);
    let data = Tensor::from_fn(shape.clone(), |ix| ((ix[0] * 5 + ix[1] * 3) % 7) as f64);
    let store = MemoryStore::from_entries(strategy.transform_data(&data));
    let estimates = || -> Vec<u64> {
        evaluate_bounded(&strategy, &queries, &shape, &store, &Sse, 4)
            .unwrap()
            .estimates
            .iter()
            .map(|e| e.to_bits())
            .collect()
    };
    let first = estimates();
    for call in 1..64 {
        assert_eq!(estimates(), first, "call {call} differs");
    }
}

/// A batch keeps one progression and replaces it whenever an admission's
/// scores differ, so admissions racing under two penalties keep swapping
/// it.  Each executor must still run exactly as one that sorted its own
/// progression: same certificate at admission, same steps, same finals.
#[test]
fn concurrent_admissions_under_two_penalties_match_their_serial_twins() {
    let (shape, queries) = partition_batch(11);
    let strategy = WaveletStrategy::new(Wavelet::Db4);
    let data = Tensor::from_fn(shape.clone(), |ix| ((ix[0] * 3 + ix[1]) % 5) as f64);
    let store = MemoryStore::from_entries(strategy.transform_data(&data));
    let batch = BatchQueries::rewrite(&strategy, queries, &shape).unwrap();
    let weights = (0..batch.len()).map(|i| 1.0 + (i % 3) as f64).collect();
    let penalties: [&dyn Penalty; 2] = [&Sse, &DiagonalQuadratic::new(weights)];
    let n = shape.len();
    // Certificate at admission, every step, then the finals — all as bits.
    let run = |mut exec: ProgressiveExecutor| -> Vec<u64> {
        let mut bits = vec![
            exec.worst_case_bound(2.0).to_bits(),
            exec.expected_penalty(n).to_bits(),
        ];
        while let Some(step) = exec.step() {
            bits.extend([step.importance.to_bits(), step.value.to_bits()]);
        }
        bits.extend(exec.estimates().iter().map(|e| e.to_bits()));
        bits
    };
    let twins: Vec<Vec<u64>> = penalties
        .iter()
        .map(|&p| {
            run(ProgressiveExecutor::from_master(
                batch.len(),
                MasterList::build(&batch),
                p,
                &store,
            ))
        })
        .collect();
    assert_ne!(twins[0], twins[1], "the two penalties must order apart");

    const THREADS: usize = 4;
    let start = std::sync::Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (batch, store, penalties, twins, start) =
                (&batch, &store, &penalties, &twins, &start);
            let run = &run;
            scope.spawn(move || {
                start.wait();
                for admission in 0..8 {
                    let which = (t + admission) % 2;
                    let exec = ProgressiveExecutor::new(batch, penalties[which], store);
                    assert!(
                        run(exec) == twins[which],
                        "thread {t}, admission {admission}: {} differs from its twin",
                        penalties[which].name()
                    );
                }
            });
        }
    });
}

//! The client-visible guarantees, end to end: Theorem 1's worst-case bound
//! and Theorem 2's expected penalty, computed *without the answers*, must
//! bracket real behaviour on the paper's workload.

use batchbb::prelude::*;

fn fixture() -> (FrequencyDistribution, Shape, Vec<RangeSum>, Vec<f64>) {
    let dataset = synth::TemperatureConfig {
        records: 80_000,
        lat_bits: 4,
        lon_bits: 5,
        time_bits: 4,
        temp_bits: 4,
        ..Default::default()
    }
    .generate();
    let temp = dataset.schema().attribute_index("temperature").unwrap();
    let cube = dataset.to_measure_cube(temp, 273.15);
    let domain = cube.schema().domain();
    let queries: Vec<RangeSum> = partition::dyadic_partition(&domain, 64, 11)
        .into_iter()
        .map(RangeSum::count)
        .collect();
    let exact: Vec<f64> = queries
        .iter()
        .map(|q| q.eval_direct(cube.tensor()))
        .collect();
    (cube, domain, queries, exact)
}

#[test]
fn theorem1_bound_brackets_observed_sse_throughout() {
    let (cube, domain, queries, exact) = fixture();
    let strategy = WaveletStrategy::new(Wavelet::Db4);
    let store = MemoryStore::from_entries(strategy.transform_data(cube.tensor()));
    let k = store.abs_sum();
    let batch = BatchQueries::rewrite(&strategy, queries, &domain).unwrap();
    let mut exec = ProgressiveExecutor::new(&batch, &Sse, &store);
    let mut checked = 0;
    loop {
        let bound = exec.worst_case_bound(k);
        let sse: f64 = exec
            .estimates()
            .iter()
            .zip(&exact)
            .map(|(e, x)| (e - x) * (e - x))
            .sum();
        assert!(
            sse <= bound * (1.0 + 1e-9) + 1e-6,
            "step {checked}: SSE {sse:.3e} exceeds bound {bound:.3e}"
        );
        checked += 1;
        if exec.step().is_none() {
            break;
        }
    }
    assert!(checked > 1000, "the workload must exercise many steps");
}

#[test]
fn theorem2_expectation_is_calibrated_on_random_spheres() {
    // Monte-Carlo check of Theorem 2's formula: for data drawn uniformly
    // from the unit sphere, the *measured* average SSE of a B-term
    // approximation matches (N^d − 1)^{-1} Σ_{unretrieved} ι within
    // sampling error.
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    let domain = Shape::new(vec![8, 8]).unwrap();
    let queries: Vec<RangeSum> = partition::random_partition(&domain, 6, 3)
        .into_iter()
        .map(RangeSum::count)
        .collect();
    let strategy = WaveletStrategy::new(Wavelet::Haar);
    let batch = BatchQueries::rewrite(&strategy, queries.clone(), &domain).unwrap();
    let ranked = optimality::importance_ranking(&batch, &Sse);
    let b = ranked.len() / 2;
    let kept: KeySet = ranked.iter().take(b).map(|&(k, _)| k).collect();
    let predicted = optimality::expected_penalty(&batch, &Sse, &kept, domain.len());

    let mut rng = SmallRng::seed_from_u64(99);
    let trials = 3000;
    let mut total = 0.0;
    for _ in 0..trials {
        // random point on the sphere (gaussian via CLT, then normalize)
        let mut data: Vec<f64> = (0..domain.len())
            .map(|_| {
                let s: f64 = (0..6).map(|_| rng.gen_range(-1.0f64..1.0)).sum();
                s / 6.0
            })
            .collect();
        let norm = data.iter().map(|v| v * v).sum::<f64>().sqrt();
        data.iter_mut().for_each(|v| *v /= norm);
        let tensor = Tensor::from_vec(domain.clone(), data).unwrap();
        let mut hat = tensor.clone();
        wavelet_transform(&mut hat);
        // B-term estimate vs exact, per query
        let mut sse = 0.0;
        for (coeffs, q) in batch.coefficients().iter().zip(&queries) {
            let est: f64 = coeffs
                .entries()
                .iter()
                .filter(|(k, _)| kept.contains(k))
                .map(|(k, v)| v * hat.data()[k.offset_in(&domain)])
                .sum();
            let truth = q.eval_direct(&tensor);
            sse += (est - truth) * (est - truth);
        }
        total += sse;
    }
    let measured = total / trials as f64;
    assert!(
        (measured - predicted).abs() < 0.15 * predicted,
        "Theorem 2 calibration: measured {measured:.4e} vs predicted {predicted:.4e}"
    );
}

fn wavelet_transform(t: &mut Tensor) {
    batchbb::wavelet::dwt_nd(t, Wavelet::Haar);
}

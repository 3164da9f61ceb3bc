//! End-to-end: textual GROUP BY queries against the temperature cube,
//! evaluated progressively, checked against direct table scans.

use batchbb::prelude::*;
use batchbb::sqlish;

#[test]
fn group_by_drilldown_matches_direct_scans() {
    let dataset = synth::TemperatureConfig {
        records: 60_000,
        lat_bits: 4,
        lon_bits: 5,
        time_bits: 4,
        temp_bits: 5,
        ..Default::default()
    }
    .generate();
    let dfd = dataset.to_frequency_distribution();
    let domain = dfd.schema().domain();
    let strategy = WaveletStrategy::new(Wavelet::Db4);
    let store = MemoryStore::from_entries(strategy.transform_data(dfd.tensor()));

    // Average temperature per latitude band in the first half of the window.
    let p = sqlish::plan(
        "SELECT COUNT(*), AVG(temperature) FROM obs \
         WHERE time BETWEEN 0 AND 29.9 GROUP BY latitude(4)",
        dfd.schema(),
    )
    .unwrap();
    assert_eq!(p.cells().len(), 4);

    let batch = BatchQueries::rewrite(&strategy, p.queries().to_vec(), &domain).unwrap();
    let mut exec = ProgressiveExecutor::new(&batch, &Sse, &store);
    exec.run_to_end();
    let rows = p.finish(exec.estimates());

    for (cell, row) in p.cells().iter().zip(&rows) {
        // direct scan of the raw tuples
        let binned: Vec<Vec<usize>> = dataset
            .tuples()
            .map(|t| dfd.schema().bin_tuple(t).unwrap())
            .filter(|c| cell.contains(c))
            .collect();
        let count = binned.len() as f64;
        let temp_axis = dfd.schema().attribute_index("temperature").unwrap();
        let mean = binned.iter().map(|c| c[temp_axis] as f64).sum::<f64>() / count.max(1.0);
        assert!(
            (row[0].unwrap() - count).abs() < 1e-6 * count.max(1.0),
            "COUNT {:?} vs {count}",
            row[0]
        );
        if count > 0.0 {
            assert!(
                (row[1].unwrap() - mean).abs() < 1e-6 * mean.abs().max(1.0),
                "AVG {:?} vs {mean}",
                row[1]
            );
        }
    }

    // Sanity on the physics: the lowest-latitude band is not the warmest...
    // actually the tropics (middle bands) must beat the polar bands.
    let avg = |i: usize| rows[i][1].unwrap();
    assert!(avg(1).max(avg(2)) > avg(0).min(avg(3)));
}

#[test]
fn sql_progressive_estimates_converge() {
    let dataset = synth::salary(40_000, 13);
    let dfd = dataset.to_frequency_distribution();
    let domain = dfd.schema().domain();
    let strategy = WaveletStrategy::new(Wavelet::Db6);
    let store = MemoryStore::from_entries(strategy.transform_data(dfd.tensor()));

    let p = sqlish::plan(
        "SELECT VARIANCE(salary_k) FROM emp WHERE age BETWEEN 30 AND 50",
        dfd.schema(),
    )
    .unwrap();
    let batch = BatchQueries::rewrite(&strategy, p.queries().to_vec(), &domain).unwrap();
    let mut exec = ProgressiveExecutor::new(&batch, &Sse, &store);

    // exact value first
    let mut exact_exec = ProgressiveExecutor::new(&batch, &Sse, &store);
    exact_exec.run_to_end();
    let exact = p.finish(exact_exec.estimates())[0][0].unwrap();
    assert!(exact > 0.0);

    // progressive estimates approach it
    let mut last_err = f64::INFINITY;
    let mut improved = 0;
    for _ in 0..6 {
        exec.run(exec.remaining().div_ceil(4).max(1));
        if let Some(v) = p.finish(exec.estimates())[0][0] {
            let err = (v - exact).abs();
            if err < last_err {
                improved += 1;
            }
            last_err = err;
        }
        if exec.is_exact() {
            break;
        }
    }
    exec.run_to_end();
    let final_v = p.finish(exec.estimates())[0][0].unwrap();
    assert!((final_v - exact).abs() < 1e-9 * exact);
    assert!(improved >= 2, "estimates should generally improve");
}

//! End-to-end integration tests spanning every crate in the workspace:
//! relation → strategy → storage → Batch-Biggest-B.

use batchbb::prelude::*;

/// A deterministic mid-size fixture used across tests.
fn fixture() -> (FrequencyDistribution, Shape) {
    let dataset = synth::clustered(2, 5, 20_000, 3, 99);
    let dfd = dataset.to_frequency_distribution();
    let domain = dfd.schema().domain();
    (dfd, domain)
}

fn count_batch(domain: &Shape, cells: usize, seed: u64) -> Vec<RangeSum> {
    partition::random_partition(domain, cells, seed)
        .into_iter()
        .map(RangeSum::count)
        .collect()
}

#[test]
fn every_strategy_reaches_exact_results() {
    let (dfd, domain) = fixture();
    let queries = count_batch(&domain, 24, 7);
    let exact: Vec<f64> = queries
        .iter()
        .map(|q| q.eval_direct(dfd.tensor()))
        .collect();

    let strategies: Vec<Box<dyn LinearStrategy>> = vec![
        Box::new(WaveletStrategy::new(Wavelet::Haar)),
        Box::new(WaveletStrategy::new(Wavelet::Db4)),
        Box::new(WaveletStrategy::new(Wavelet::Db8)),
        Box::new(PrefixSumStrategy::count(2)),
        Box::new(IdentityStrategy),
    ];
    for strategy in &strategies {
        let store = MemoryStore::from_entries(strategy.transform_data(dfd.tensor()));
        let batch = BatchQueries::rewrite(strategy.as_ref(), queries.clone(), &domain).unwrap();
        let mut exec = ProgressiveExecutor::new(&batch, &Sse, &store);
        exec.run_to_end();
        for (est, truth) in exec.estimates().iter().zip(&exact) {
            assert!(
                (est - truth).abs() < 1e-6 * truth.abs().max(1.0),
                "{}: {est} vs {truth}",
                strategy.name()
            );
        }
    }
}

#[cfg(unix)]
#[test]
fn file_and_block_stores_agree_with_memory() {
    let (dfd, domain) = fixture();
    let queries = count_batch(&domain, 16, 3);
    let strategy = WaveletStrategy::new(Wavelet::Haar);
    let entries = strategy.transform_data(dfd.tensor());
    let batch = BatchQueries::rewrite(&strategy, queries, &domain).unwrap();

    let mem = MemoryStore::from_entries(entries.clone());
    let mut mem_exec = ProgressiveExecutor::new(&batch, &Sse, &mem);
    mem_exec.run_to_end();

    let dir = std::env::temp_dir();
    let fpath = dir.join(format!("batchbb-e2e-file-{}", std::process::id()));
    let bpath = dir.join(format!("batchbb-e2e-block-{}", std::process::id()));
    let file = FileStore::create(&fpath, entries.clone()).unwrap();
    let block = BlockStore::create(&bpath, entries, 64, 8, BlockLayout::LevelMajor).unwrap();

    for store in [&file as &dyn CoefficientStore, &block] {
        let mut exec = ProgressiveExecutor::new(&batch, &Sse, store);
        exec.run_to_end();
        for (a, b) in exec.estimates().iter().zip(mem_exec.estimates()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }
    // Blocked layout must do fewer physical reads than logical retrievals.
    let st = block.stats();
    assert!(st.physical_reads < st.retrievals);
    std::fs::remove_file(&fpath).unwrap();
    std::fs::remove_file(&bpath).unwrap();
}

#[test]
fn incremental_inserts_match_bulk_load() {
    // Build the view tuple-at-a-time through MutableStore::add and compare
    // query results against the bulk-transformed view.
    let dataset = synth::uniform(2, 4, 500, 5);
    let dfd = dataset.to_frequency_distribution();
    let domain = dfd.schema().domain();
    let w = Wavelet::Db4;
    let strategy = WaveletStrategy::new(w);

    let bulk = MemoryStore::from_entries(strategy.transform_data(dfd.tensor()));
    let mut incremental = MemoryStore::new();
    for tuple in dataset.tuples() {
        let coords = dataset.schema().bin_tuple(tuple).unwrap();
        for (k, v) in cube::point_entries(&domain, &coords, 1.0, w) {
            incremental.add(k, v);
        }
    }

    let queries = count_batch(&domain, 8, 11);
    let batch = BatchQueries::rewrite(&strategy, queries, &domain).unwrap();
    let mut a = ProgressiveExecutor::new(&batch, &Sse, &bulk);
    a.run_to_end();
    let mut b = ProgressiveExecutor::new(&batch, &Sse, &incremental);
    b.run_to_end();
    for (x, y) in a.estimates().iter().zip(b.estimates()) {
        assert!((x - y).abs() < 1e-6, "bulk {x} vs incremental {y}");
    }
}

#[test]
fn progressive_error_bound_holds_pointwise() {
    // Theorem 1: the observed SSE of the progressive estimate never exceeds
    // K^2 · ι(next) at any step.
    let (dfd, domain) = fixture();
    let queries = count_batch(&domain, 12, 13);
    let exact: Vec<f64> = queries
        .iter()
        .map(|q| q.eval_direct(dfd.tensor()))
        .collect();
    let strategy = WaveletStrategy::new(Wavelet::Haar);
    let store = MemoryStore::from_entries(strategy.transform_data(dfd.tensor()));
    let k = store.abs_sum();
    let batch = BatchQueries::rewrite(&strategy, queries, &domain).unwrap();
    let mut exec = ProgressiveExecutor::new(&batch, &Sse, &store);
    loop {
        let bound = exec.worst_case_bound(k);
        let sse: f64 = exec
            .estimates()
            .iter()
            .zip(&exact)
            .map(|(e, x)| (e - x) * (e - x))
            .sum();
        assert!(
            sse <= bound + 1e-6 * bound.max(1.0),
            "observed SSE {sse} exceeds Theorem-1 bound {bound}"
        );
        if exec.step().is_none() {
            break;
        }
    }
}

#[test]
fn round_robin_and_batch_agree_but_batch_shares_io() {
    let (dfd, domain) = fixture();
    let queries = count_batch(&domain, 32, 17);
    let strategy = WaveletStrategy::new(Wavelet::Haar);
    let store = MemoryStore::from_entries(strategy.transform_data(dfd.tensor()));
    let batch = BatchQueries::rewrite(&strategy, queries, &domain).unwrap();

    store.reset_stats();
    let mut rr = RoundRobin::new(&batch, &store);
    let rr_cost = rr.run_to_end();
    let rr_io = store.stats().retrievals;
    assert_eq!(rr_cost, rr_io);

    store.reset_stats();
    let mut exec = ProgressiveExecutor::new(&batch, &Sse, &store);
    exec.run_to_end();
    let batch_io = store.stats().retrievals;

    assert!(
        batch_io * 2 < rr_io,
        "expected ≥2× sharing on a partition workload: batch {batch_io} vs rr {rr_io}"
    );
    for (a, b) in exec.estimates().iter().zip(rr.estimates()) {
        assert!((a - b).abs() < 1e-6);
    }
}

#[test]
fn bounded_workspace_matches_executor_prefix() {
    let (dfd, domain) = fixture();
    let queries = count_batch(&domain, 16, 19);
    let strategy = WaveletStrategy::new(Wavelet::Haar);
    let store = MemoryStore::from_entries(strategy.transform_data(dfd.tensor()));
    let batch = BatchQueries::rewrite(&strategy, queries.clone(), &domain).unwrap();
    let b = MasterList::build(&batch).len() / 3;
    let bounded = evaluate_bounded(&strategy, &queries, &domain, &store, &Sse, b).unwrap();
    let mut exec = ProgressiveExecutor::new(&batch, &Sse, &store);
    exec.run(b);
    for (x, y) in bounded.estimates.iter().zip(exec.estimates()) {
        assert!((x - y).abs() < 1e-9, "{x} vs {y}");
    }
}

#[test]
fn parallel_rewrite_used_end_to_end() {
    let (dfd, domain) = fixture();
    let queries = count_batch(&domain, 20, 23);
    let strategy = WaveletStrategy::new(Wavelet::Haar);
    let store = MemoryStore::from_entries(strategy.transform_data(dfd.tensor()));
    let seq = BatchQueries::rewrite(&strategy, queries.clone(), &domain).unwrap();
    let par = BatchQueries::rewrite_parallel(&strategy, queries, &domain, 4).unwrap();
    let mut a = ProgressiveExecutor::new(&seq, &Sse, &store);
    a.run_to_end();
    let mut b = ProgressiveExecutor::new(&par, &Sse, &store);
    b.run_to_end();
    assert_eq!(a.estimates(), b.estimates());
}

#[test]
fn derived_statistics_from_progressive_batch() {
    // AVERAGE/VARIANCE of an attribute over a range, computed from exact
    // batch results, must match a direct table computation.
    let dataset = synth::salary(5_000, 31);
    let dfd = dataset.to_frequency_distribution();
    let domain = dfd.schema().domain();
    let range = HyperRect::new(vec![25, 55], vec![40, 127]);
    let queries = vec![
        RangeSum::count(range.clone()),
        RangeSum::sum(range.clone(), 1),
        RangeSum::sum_product(range.clone(), 1, 1),
    ];
    let strategy = WaveletStrategy::new(Wavelet::Db6);
    let store = MemoryStore::from_entries(strategy.transform_data(dfd.tensor()));
    let batch = BatchQueries::rewrite(&strategy, queries, &domain).unwrap();
    let mut exec = ProgressiveExecutor::new(&batch, &Sse, &store);
    exec.run_to_end();
    let e = exec.estimates();
    let avg = derived::average(e[1], e[0]).unwrap();
    let var = derived::variance(e[1], e[2], e[0]).unwrap();

    // direct: mean/variance of binned salary over tuples in range
    let vals: Vec<f64> = dataset
        .tuples()
        .map(|t| dataset.schema().bin_tuple(t).unwrap())
        .filter(|c| range.contains(c))
        .map(|c| c[1] as f64)
        .collect();
    let mean = vals.iter().sum::<f64>() / vals.len() as f64;
    let dvar = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / vals.len() as f64;
    assert!((avg - mean).abs() < 1e-6 * mean, "{avg} vs {mean}");
    assert!((var - dvar).abs() < 1e-5 * dvar.max(1.0), "{var} vs {dvar}");
}

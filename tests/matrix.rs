//! Exhaustive compatibility matrix: every linear strategy × every store ×
//! every penalty family must drive Batch-Biggest-B to exact results, and
//! the baselines must agree.

use batchbb::prelude::*;

fn workload() -> (FrequencyDistribution, Shape, Vec<RangeSum>, Vec<f64>) {
    let dataset = synth::clustered(2, 5, 15_000, 3, 77);
    let dfd = dataset.to_frequency_distribution();
    let domain = dfd.schema().domain();
    let queries: Vec<RangeSum> = partition::dyadic_partition(&domain, 12, 4)
        .into_iter()
        .map(RangeSum::count)
        .collect();
    let exact: Vec<f64> = queries
        .iter()
        .map(|q| q.eval_direct(dfd.tensor()))
        .collect();
    (dfd, domain, queries, exact)
}

fn strategies() -> Vec<Box<dyn LinearStrategy>> {
    vec![
        Box::new(WaveletStrategy::new(Wavelet::Haar)),
        Box::new(WaveletStrategy::new(Wavelet::Db4)),
        Box::new(WaveletStrategy::new(Wavelet::Db8)),
        Box::new(NonstandardStrategy::new(Wavelet::Haar)),
        Box::new(NonstandardStrategy::new(Wavelet::Db4)),
        Box::new(PrefixSumStrategy::count(2)),
        Box::new(IdentityStrategy),
    ]
}

#[test]
fn every_strategy_times_every_store_is_exact() {
    let (dfd, domain, queries, exact) = workload();
    for strategy in strategies() {
        let entries = strategy.transform_data(dfd.tensor());
        let batch = BatchQueries::rewrite(strategy.as_ref(), queries.clone(), &domain).unwrap();

        #[allow(unused_mut)]
        let mut stores: Vec<(&str, Box<dyn CoefficientStore>)> = vec![
            (
                "memory",
                Box::new(MemoryStore::from_entries(entries.clone())),
            ),
            (
                "versioned",
                Box::new(VersionedStore::from_entries(entries.clone()).pin()),
            ),
            (
                "sharded-caching",
                Box::new(ShardedCachingStore::new(MemoryStore::from_entries(
                    entries.clone(),
                ))),
            ),
        ];
        #[cfg(unix)]
        let (fpath, bpath) = {
            let tmp = std::env::temp_dir();
            let fpath = tmp.join(format!(
                "batchbb-matrix-f-{}-{}",
                std::process::id(),
                strategy.name().len()
            ));
            let bpath = tmp.join(format!(
                "batchbb-matrix-b-{}-{}",
                std::process::id(),
                strategy.name().len()
            ));
            stores.push((
                "file",
                Box::new(FileStore::create(&fpath, entries.clone()).unwrap()),
            ));
            stores.push((
                "block",
                Box::new(
                    BlockStore::create(&bpath, entries.clone(), 32, 4, BlockLayout::LevelMajor)
                        .unwrap(),
                ),
            ));
            (fpath, bpath)
        };
        for (store_name, store) in &stores {
            let mut exec = ProgressiveExecutor::new(&batch, &Sse, store.as_ref());
            exec.run_to_end();
            for (est, truth) in exec.estimates().iter().zip(&exact) {
                assert!(
                    (est - truth).abs() < 1e-6 * truth.abs().max(1.0),
                    "{} × {store_name}: {est} vs {truth}",
                    strategy.name()
                );
            }
        }
        drop(stores);
        #[cfg(unix)]
        {
            std::fs::remove_file(&fpath).unwrap();
            std::fs::remove_file(&bpath).unwrap();
        }
    }
}

#[test]
fn every_penalty_family_reaches_exactness_and_orders_sanely() {
    let (dfd, domain, queries, exact) = workload();
    let s = queries.len();
    let strategy = WaveletStrategy::new(Wavelet::Haar);
    let store = MemoryStore::from_entries(strategy.transform_data(dfd.tensor()));
    let batch = BatchQueries::rewrite(&strategy, queries, &domain).unwrap();

    let penalties: Vec<Box<dyn Penalty>> = vec![
        Box::new(Sse),
        Box::new(DiagonalQuadratic::cursored(s, &[0, 1], 10.0)),
        Box::new(DiagonalQuadratic::near_cursor(
            s,
            s / 2,
            10.0,
            2.0,
            CursorKernel::Gaussian,
        )),
        Box::new(LaplacianPenalty::path(s)),
        Box::new(LpPenalty::l1()),
        Box::new(LpPenalty::l2()),
        Box::new(LpPenalty::linf()),
        Box::new(Combination::new(vec![
            (1.0, Box::new(Sse) as Box<dyn Penalty>),
            (0.5, Box::new(LaplacianPenalty::path(s))),
        ])),
    ];
    for p in &penalties {
        let mut exec = ProgressiveExecutor::new(&batch, p.as_ref(), &store);
        // importance stream must be non-increasing under every penalty
        let mut last = f64::INFINITY;
        while let Some(info) = exec.step() {
            assert!(
                info.importance <= last + 1e-12,
                "{}: importance increased",
                p.name()
            );
            last = info.importance;
        }
        for (est, truth) in exec.estimates().iter().zip(&exact) {
            assert!(
                (est - truth).abs() < 1e-6 * truth.abs().max(1.0),
                "{}: {est} vs {truth}",
                p.name()
            );
        }
    }
}

#[test]
fn baselines_agree_with_executor_everywhere() {
    let (dfd, domain, queries, exact) = workload();
    for strategy in strategies() {
        let store = MemoryStore::from_entries(strategy.transform_data(dfd.tensor()));
        let batch = BatchQueries::rewrite(strategy.as_ref(), queries.clone(), &domain).unwrap();
        let mut rr = RoundRobin::new(&batch, &store);
        rr.run_to_end();
        for (est, truth) in rr.estimates().iter().zip(&exact) {
            assert!(
                (est - truth).abs() < 1e-6 * truth.abs().max(1.0),
                "{} round-robin: {est} vs {truth}",
                strategy.name()
            );
        }
        let full = CompressedView::new(strategy.transform_data(dfd.tensor()), usize::MAX);
        for (est, truth) in full.evaluate(&batch).iter().zip(&exact) {
            assert!(
                (est - truth).abs() < 1e-6 * truth.abs().max(1.0),
                "{} synopsis(full): {est} vs {truth}",
                strategy.name()
            );
        }
    }
}

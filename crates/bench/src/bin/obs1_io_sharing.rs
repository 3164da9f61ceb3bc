//! Observation 1: "I/O sharing is considerable."
//!
//! The paper's table of retrieval counts for a 512-range partition of the
//! temperature dataset:
//!
//! * table scan: 15.7 M records;
//! * nonzero Db4 data coefficients: > 13 M;
//! * repeated single-query ProPolyne: 923,076 retrievals (≈1800/range);
//! * Batch-Biggest-B: 57,456 retrievals (≈112/range);
//! * prefix-sums: 8192 retrievals unshared → 512 shared.
//!
//! This harness regenerates every row on a synthetic temperature cube.
//! Flags: `--records` (default 2,000,000), `--cells` (default 512),
//! `--seed`, `--alt true|false` (4-D vs 3-D cube, default true to match
//! the paper's 2^4 prefix-sum corners), `--dyadic true|false`,
//! `--block-size N` (adds a ✦ disk-layout ablation row).

use batchbb_bench::{temperature_workload, Args};
use batchbb_core::{BatchQueries, MasterList, ProgressiveExecutor};
use batchbb_penalty::Sse;
use batchbb_query::{LinearStrategy, PrefixSumStrategy, WaveletStrategy};
#[cfg(unix)]
use batchbb_storage::{BlockLayout, BlockStore};
use batchbb_storage::{CoefficientStore, MemoryStore};
use batchbb_wavelet::Wavelet;

fn main() {
    let args = Args::parse(&["records", "cells", "seed", "alt", "dyadic", "block-size"]);
    let records = args.usize("records", 2_000_000);
    let cells = args.usize("cells", 512);
    let seed = args.u64("seed", 2002);
    let with_alt = args.flag("alt", true);
    let dyadic = args.flag("dyadic", true);
    let block_size = args.usize("block-size", 0);

    let w = temperature_workload(records, cells, with_alt, dyadic, seed);
    println!("== Observation 1: I/O sharing ==");
    println!(
        "workload: {} records, {} cube, {} ranges ({}), SUM(temperature)\n",
        w.records,
        w.domain,
        cells,
        if dyadic { "dyadic" } else { "unaligned" }
    );

    println!(
        "table scan (records that must be read without preaggregation): {}",
        w.records
    );

    for wavelet in [Wavelet::Haar, Wavelet::Db4] {
        let strategy = WaveletStrategy::new(wavelet);
        let store = MemoryStore::from_entries(strategy.transform_data(w.cube.tensor()));
        let batch = BatchQueries::rewrite(&strategy, w.queries.clone(), &w.domain).unwrap();
        let unshared = batch.total_coefficients();
        let master = MasterList::build(&batch).len();

        // Verify the counts by actually running both evaluators.
        store.reset_stats();
        let mut rr = batchbb_core::round_robin::RoundRobin::new(&batch, &store);
        rr.run_to_end();
        let rr_io = store.stats().retrievals;
        store.reset_stats();
        let mut exec = ProgressiveExecutor::new(&batch, &Sse, &store);
        exec.run_to_end();
        let batch_io = store.stats().retrievals;
        assert_eq!(rr_io as usize, unshared);
        assert_eq!(batch_io as usize, master);

        println!("\n[{wavelet}]");
        println!("  nonzero data coefficients: {}", store.nnz());
        println!(
            "  repeated single-query evaluation: {unshared} retrievals ({:.0} per range)",
            unshared as f64 / cells as f64
        );
        println!(
            "  Batch-Biggest-B: {master} retrievals ({:.0} per range) — {:.1}× sharing",
            master as f64 / cells as f64,
            unshared as f64 / master as f64
        );
    }

    // Prefix-sum comparison (degree-0 measure queries, 2^d corners).
    let d = w.domain.rank();
    let ps = PrefixSumStrategy::count(d);
    let batch = BatchQueries::rewrite(&ps, w.queries.clone(), &w.domain).unwrap();
    let unshared = batch.total_coefficients();
    let master = MasterList::build(&batch).len();
    println!("\n[prefix-sums]");
    println!(
        "  per-query corner lookups: {unshared} total (≤2^{d} = {} per range)",
        1 << d
    );
    println!("  shared across the batch: {master} retrievals");

    #[cfg(not(unix))]
    if block_size > 0 {
        eprintln!("--block-size ablation requires a unix platform (BlockStore)");
    }
    #[cfg(unix)]
    if block_size > 0 {
        // ✦ ablation: the §7 future-work question — how much physical I/O
        // does a block layout save under the progressive access pattern?
        let strategy = WaveletStrategy::new(Wavelet::Db4);
        let entries = strategy.transform_data(w.cube.tensor());
        let batch = BatchQueries::rewrite(&strategy, w.queries.clone(), &w.domain).unwrap();
        println!("\n[✦ block-store ablation, block-size {block_size}, pool 64 blocks]");
        let run = |name: &str, store: BlockStore, path: &std::path::Path| {
            let mut exec = ProgressiveExecutor::new(&batch, &Sse, &store);
            exec.run_to_end();
            let st = store.stats();
            println!(
                "  {name}: {} logical retrievals → {} block reads ({} cache hits)",
                st.retrievals, st.physical_reads, st.cache_hits
            );
            std::fs::remove_file(path).unwrap();
        };
        for layout in [BlockLayout::KeyOrder, BlockLayout::LevelMajor] {
            let name = format!("{layout:?}");
            let path =
                std::env::temp_dir().join(format!("batchbb-obs1-{name}-{}", std::process::id()));
            let store = BlockStore::create(&path, entries.clone(), block_size, 64, layout).unwrap();
            run(&name, store, &path);
        }
        // §7 made concrete: lay coefficients out by this workload's own
        // importance ranking — the progressive scan becomes sequential.
        let ranking: batchbb_tensor::KeyMap<usize> =
            batchbb_core::optimality::importance_ranking(&batch, &Sse)
                .into_iter()
                .enumerate()
                .map(|(rank, (k, _))| (k, rank))
                .collect();
        let path =
            std::env::temp_dir().join(format!("batchbb-obs1-workload-{}", std::process::id()));
        let store = BlockStore::create_ranked(&path, entries, block_size, 64, |k| {
            ranking.get(k).copied().unwrap_or(usize::MAX)
        })
        .unwrap();
        run("WorkloadImportance", store, &path);
    }
}

//! ✦ Workload-sensitivity ablation: how the paper's headline quantities
//! move with (a) range alignment, (b) observation-network structure, and
//! (c) the wavelet filter.
//!
//! The paper reports one configuration; this harness sweeps the 2×2×2 grid
//! of {dyadic, unaligned} × {gridded, independent} × {Haar, Db4} on the §6
//! temperature workload and prints, per cell: coefficients per query,
//! master-list size, sharing factor, and the mean relative error at one
//! retrieval per query.  It substantiates the EXPERIMENTS.md discussion of
//! which knobs the published numbers depend on.
//!
//! Flags: `--records` (default 1,000,000), `--cells` (default 256),
//! `--seed`.

use batchbb_bench::{temperature_workload_ext, Args};
use batchbb_core::{metrics, BatchQueries, MasterList, ProgressiveExecutor};
use batchbb_penalty::Sse;
use batchbb_query::{LinearStrategy, WaveletStrategy};
use batchbb_storage::MemoryStore;
use batchbb_wavelet::Wavelet;

fn main() {
    let args = Args::parse(&["records", "cells", "seed"]);
    let records = args.usize("records", 1_000_000);
    let cells = args.usize("cells", 256);
    let seed = args.u64("seed", 2002);

    println!("== ✦ workload-sensitivity ablation ({cells} queries) ==\n");
    println!(
        "{:>10} {:>12} {:>6} | {:>11} {:>10} {:>9} {:>14}",
        "partition", "network", "filter", "coeffs/query", "master", "sharing", "MRE @ 1/query"
    );
    for dyadic in [true, false] {
        for gridded in [true, false] {
            let w = temperature_workload_ext(records, cells, false, dyadic, gridded, seed);
            for filter in [Wavelet::Haar, Wavelet::Db4] {
                let strategy = WaveletStrategy::new(filter);
                let store = MemoryStore::from_entries(strategy.transform_data(w.cube.tensor()));
                let batch = BatchQueries::rewrite(&strategy, w.queries.clone(), &w.domain).unwrap();
                let master = MasterList::build(&batch).len();
                let per_query = batch.total_coefficients() as f64 / cells as f64;
                let mut exec = ProgressiveExecutor::new(&batch, &Sse, &store);
                exec.run(cells);
                let mre = metrics::mean_relative_error(exec.estimates(), &w.exact);
                println!(
                    "{:>10} {:>12} {:>6} | {:>11.0} {:>10} {:>8.1}× {:>14.3e}",
                    if dyadic { "dyadic" } else { "unaligned" },
                    if gridded { "gridded" } else { "independent" },
                    filter.to_string(),
                    per_query,
                    master,
                    batch.total_coefficients() as f64 / master as f64,
                    mre
                );
            }
        }
    }
    println!(
        "\nReading: alignment dominates Haar's per-query cost (aligned ranges\n\
         keep only root-to-cell paths, ~3x fewer coefficients) but barely\n\
         moves Db4's (its filter support straddles boundaries regardless);\n\
         gridded observation networks improve early accuracy at equal cost;\n\
         and the longer Db4 filter consistently buys better early error —\n\
         most visibly on unaligned ranges, where its smoother basis tracks\n\
         arbitrary boundaries — at 10-30x the exact retrieval cost. The\n\
         published configuration (aligned-ish ranges, smooth data, Db4) is\n\
         the favourable but defensible corner of this grid."
    );
}

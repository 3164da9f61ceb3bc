//! Figure 5: progressive mean relative error vs number of wavelet
//! coefficients retrieved, for the SSE-minimizing progression (log–log).
//!
//! Paper setting: 512 ranges partitioning the temperature dataset's
//! domain, SUM(temperature) per range; the curve falls below 1% after 128
//! retrievals ("less than one wavelet for each query answered") and keeps
//! dropping to numerical exactness when the master list drains.
//!
//! Flags: `--records` (default 2,000,000), `--cells` (512), `--seed`,
//! `--alt true|false` (default false — the 3-D cube matches the paper's
//! per-query coefficient counts), `--dyadic true|false` (default true).

use batchbb_bench::{log_budgets, temperature_workload, Args};
use batchbb_core::{metrics, BatchQueries, MasterList, ProgressiveExecutor};
use batchbb_penalty::Sse;
use batchbb_query::{LinearStrategy, WaveletStrategy};
use batchbb_storage::MemoryStore;
use batchbb_wavelet::Wavelet;

fn main() {
    let args = Args::parse(&["records", "cells", "seed", "alt", "dyadic"]);
    let records = args.usize("records", 2_000_000);
    let cells = args.usize("cells", 512);
    let seed = args.u64("seed", 2002);
    let with_alt = args.flag("alt", false);
    let dyadic = args.flag("dyadic", true);

    let w = temperature_workload(records, cells, with_alt, dyadic, seed);
    let strategy = WaveletStrategy::new(Wavelet::Db4);
    let store = MemoryStore::from_entries(strategy.transform_data(w.cube.tensor()));
    let batch = BatchQueries::rewrite(&strategy, w.queries.clone(), &w.domain).unwrap();
    let master = MasterList::build(&batch).len();

    println!("== Figure 5: progressive mean relative error (SSE progression) ==");
    println!(
        "workload: {} records, {} cube, {cells} ranges, Db4; exact after {master} retrievals\n",
        w.records, w.domain
    );
    // Alongside the paper's curve we print the two *computable* guarantees
    // the theorems attach to every prefix: Theorem 1's worst-case bound
    // K²·ι(next) and Theorem 2's sphere-expected penalty — both available
    // to a client without knowing the exact answers.
    println!(
        "{:>12} {:>20} {:>16} {:>16}",
        "retrieved", "mean relative error", "Thm-1 bound", "Thm-2 expected"
    );
    let k = store.abs_sum();
    let n_total = w.domain.len();
    let mut exec = ProgressiveExecutor::new(&batch, &Sse, &store);
    for b in log_budgets(master) {
        exec.run(b - exec.retrieved());
        println!(
            "{:>12} {:>20.6e} {:>16.4e} {:>16.4e}",
            exec.retrieved(),
            metrics::mean_relative_error(exec.estimates(), &w.exact),
            exec.worst_case_bound(k),
            exec.expected_penalty(n_total),
        );
    }
    let per_query = exec.retrieved() as f64 / cells as f64;
    println!(
        "\nfinal: exact after {} retrievals ({per_query:.0} per query; the \
         unshared total was {})",
        exec.retrieved(),
        batch.total_coefficients()
    );
}

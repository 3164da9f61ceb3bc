//! Figures 6 and 7: choosing the right penalty function makes a difference.
//!
//! Two progressive evaluations of the same 512-query batch from the same
//! store: one ordered by plain SSE importance, one by a *cursored* SSE
//! that weighs 20 neighbouring ranges 10× more.  Figure 6 plots normalized
//! SSE for both progressions (the SSE-optimized run should win), Figure 7
//! plots normalized cursored SSE (the cursored-optimized run should win) —
//! same data, same I/O budget, opposite winners.
//!
//! Flags: `--records` (default 2,000,000), `--cells` (512), `--seed`,
//! `--alt true|false` (default false), `--dyadic true|false` (default
//! true), `--gridded true|false` (default false), `--boost` (default
//! 10), `--hi-count` (default 20).
//!
//! The defaults pair aligned (dyadic) ranges with independently sampled
//! (rough) observations: penalty choice matters most when error mass
//! persists across many retrievals, which is the regime the paper's real
//! dataset sits in.  On the smooth gridded workload both progressions
//! converge so fast the curves nearly coincide, and with unaligned ranges
//! the 10× boost lifts fine-scale coefficients of priority queries above
//! the (data-heavy) DC coefficient, hurting both metrics early — both
//! regimes are reachable via the flags and discussed in EXPERIMENTS.md.

use batchbb_bench::{log_budgets, temperature_workload_ext, Args};
use batchbb_core::{metrics, BatchQueries, MasterList, ProgressiveExecutor};
use batchbb_penalty::{DiagonalQuadratic, Sse};
use batchbb_query::{LinearStrategy, WaveletStrategy};
use batchbb_storage::MemoryStore;
use batchbb_wavelet::Wavelet;

fn main() {
    let args = Args::parse(&[
        "records", "cells", "seed", "alt", "dyadic", "gridded", "boost", "hi-count",
    ]);
    let records = args.usize("records", 2_000_000);
    let cells = args.usize("cells", 512);
    let seed = args.u64("seed", 2002);
    let with_alt = args.flag("alt", false);
    let dyadic = args.flag("dyadic", true);
    let gridded = args.flag("gridded", false);
    let boost = args.usize("boost", 10) as f64;
    let hi_count = args.usize("hi-count", 20);

    let w = temperature_workload_ext(records, cells, with_alt, dyadic, gridded, seed);
    let strategy = WaveletStrategy::new(Wavelet::Db4);
    let store = MemoryStore::from_entries(strategy.transform_data(w.cube.tensor()));
    let batch = BatchQueries::rewrite(&strategy, w.queries.clone(), &w.domain).unwrap();
    let master = MasterList::build(&batch).len();

    // "20 neighbouring ranges": pick the high-priority set as the
    // hi_count ranges adjacent (in partition order after sorting by lower
    // corner) around the middle of the batch.
    let mut order: Vec<usize> = (0..cells).collect();
    order.sort_by_key(|&i| w.ranges[i].lo().to_vec());
    let start = (cells - hi_count) / 2;
    let hi: Vec<usize> = order[start..start + hi_count].to_vec();
    let cursored = DiagonalQuadratic::cursored(cells, &hi, boost);

    println!("== Figures 6-7: penalty trade-off ==");
    println!(
        "workload: {} records, {} cube, {cells} ranges; {hi_count} \
         high-priority ranges weighted {boost}×; exact after {master}\n",
        w.records, w.domain
    );
    println!(
        "{:>10} | {:>14} {:>14} | {:>14} {:>14}",
        "", "Fig 6: normalized SSE", "", "Fig 7: normalized cursored SSE", ""
    );
    println!(
        "{:>10} | {:>14} {:>14} | {:>14} {:>14}",
        "retrieved", "opt-for-SSE", "opt-for-cur", "opt-for-SSE", "opt-for-cur"
    );

    let mut sse_exec = ProgressiveExecutor::new(&batch, &Sse, &store);
    let mut cur_exec = ProgressiveExecutor::new(&batch, &cursored, &store);
    let mut sse_wins = 0usize;
    let mut cur_wins = 0usize;
    let mut rows = 0usize;
    for b in log_budgets(master) {
        sse_exec.run(b - sse_exec.retrieved());
        cur_exec.run(b - cur_exec.retrieved());
        let f6_sse = metrics::normalized_sse(sse_exec.estimates(), &w.exact);
        let f6_cur = metrics::normalized_sse(cur_exec.estimates(), &w.exact);
        let f7_sse = metrics::normalized_penalty(&cursored, sse_exec.estimates(), &w.exact);
        let f7_cur = metrics::normalized_penalty(&cursored, cur_exec.estimates(), &w.exact);
        println!(
            "{:>10} | {:>14.4e} {:>14.4e} | {:>14.4e} {:>14.4e}",
            b, f6_sse, f6_cur, f7_sse, f7_cur
        );
        if b > 1 && b < master {
            rows += 1;
            if f6_sse <= f6_cur {
                sse_wins += 1;
            }
            if f7_cur <= f7_sse {
                cur_wins += 1;
            }
        }
    }
    println!(
        "\nsummary: SSE-optimized wins Fig-6 metric on {sse_wins}/{rows} \
         intermediate budgets; cursored-optimized wins Fig-7 metric on \
         {cur_wins}/{rows}."
    );
}

//! A scrolling-cursor session: §4's "the user is only interested in
//! results that are near the cursor".
//!
//! One batch of 64 time-window aggregates is preprocessed **once** (query
//! rewrite + master-list merge).  As the user scrolls, each viewport
//! position gets its own [`DiagonalQuadratic::near_cursor`] penalty and a
//! fresh progression order — rebuilt from the *same* master list in
//! milliseconds, because penalties are applied at query time (§5: "an
//! online approximation of the query batch leads to a much more flexible
//! scheme").
//!
//! Run with `cargo run --release --example cursor_session`.

use batchbb::prelude::*;

fn main() {
    // Hourly event counts over a (sensor × time) grid.
    let dataset = synth::clustered(2, 7, 400_000, 24, 23); // 24 clusters: every window populated
    let dfd = dataset.to_frequency_distribution();
    let domain = dfd.schema().domain();
    let strategy = WaveletStrategy::new(Wavelet::Haar);
    let store = MemoryStore::from_entries(strategy.transform_data(dfd.tensor()));

    // 64 time windows (axis 1), each summed over all sensors.
    let windows = 64usize;
    let queries: Vec<RangeSum> = partition::grid_partition(&domain, &[1, windows])
        .into_iter()
        .map(RangeSum::count)
        .collect();
    let exact: Vec<f64> = queries
        .iter()
        .map(|q| q.eval_direct(dfd.tensor()))
        .collect();
    let batch = BatchQueries::rewrite(&strategy, queries, &domain).unwrap();
    println!(
        "session setup: {} windows, master list of {} coefficients (reused across scrolls)\n",
        windows,
        batch.master().len()
    );

    // The viewport shows 8 windows; the user scrolls through 4 positions.
    // At each stop we spend a budget of 24 retrievals.
    let budget = 24;
    println!(
        "{:>8} {:>22} {:>22}",
        "cursor", "viewport rel err", "off-screen rel err"
    );
    for cursor in [4usize, 20, 40, 59] {
        let penalty =
            DiagonalQuadratic::near_cursor(windows, cursor, 25.0, 4.0, CursorKernel::Gaussian);
        // Rebuild the progression for this cursor over the batch's shared
        // master list.
        let mut exec = ProgressiveExecutor::new(&batch, &penalty, &store);
        exec.run(budget);
        let est = exec.estimates();
        let viewport: Vec<usize> = (cursor.saturating_sub(4)..(cursor + 4).min(windows)).collect();
        // Normalize by the group's mean magnitude so sparsely populated
        // windows don't blow up the relative error.
        let err = |idx: &[usize]| -> f64 {
            let abs: f64 = idx.iter().map(|&i| (est[i] - exact[i]).abs()).sum();
            let scale: f64 = idx.iter().map(|&i| exact[i].abs()).sum();
            abs / scale.max(1.0)
        };
        let off: Vec<usize> = (0..windows).filter(|i| !viewport.contains(i)).collect();
        println!(
            "{:>8} {:>22.3e} {:>22.3e}",
            cursor,
            err(&viewport),
            err(&off)
        );
    }
    println!(
        "\nEach scroll re-ranks the same coefficients under a new penalty —\n\
         no re-preprocessing, no re-rewriting, just a new heap."
    );
}

//! Live updates during progressive evaluation.
//!
//! The wavelet view is update-efficient (`O((2δ+1)^d log^d N)` per tuple,
//! §2.1/§3.1), and this example shows the two paths composing: a batch of
//! dashboard queries refines progressively while new observations stream
//! into the store, and the final results are exact *on the updated data*.
//!
//! Run with `cargo run --release --example live_updates`.

use batchbb::prelude::*;

fn main() {
    // Initial load: 100k clustered events on a 64×64 grid.
    let mut dataset = synth::clustered(2, 6, 100_000, 3, 17);
    let mut dfd = dataset.to_frequency_distribution();
    let domain = dfd.schema().domain();
    let strategy = WaveletStrategy::new(Wavelet::Haar);
    let store = VersionedStore::from_entries(strategy.transform_data(dfd.tensor()));
    println!(
        "initial load: {} records, {} coefficients in the view",
        dataset.len(),
        store.pin().nnz()
    );

    // Dashboard: COUNT over an 8×8 grid, evaluated progressively.
    let ranges = partition::grid_partition(&domain, &[8, 8]);
    let queries: Vec<RangeSum> = ranges.iter().cloned().map(RangeSum::count).collect();
    let batch = BatchQueries::rewrite(&strategy, queries, &domain).unwrap();
    // The executor reads a pinned snapshot; publishes never disturb it
    // until it opts forward.
    let view = store.pin();
    let mut exec = ProgressiveExecutor::new(&batch, &Sse, &view);

    // Interleave: a burst of progressive work, then a burst of inserts.
    let late_arrivals = synth::clustered(2, 6, 5_000, 3, 99);
    let mut inserted = 0usize;
    let chunk = 1_000;
    while !exec.is_exact() || inserted < late_arrivals.len() {
        let stepped = exec.run(32);
        if inserted < late_arrivals.len() {
            let mut points = Vec::with_capacity(chunk);
            for tuple in late_arrivals.tuples().skip(inserted).take(chunk) {
                let coords = late_arrivals.schema().bin_tuple(tuple).unwrap();
                dfd.insert_binned(&coords, 1.0);
                dataset.push(tuple).unwrap();
                points.push((coords, 1.0));
            }
            // O(L² log²N) coefficients per insert: publish the burst as one
            // new version, advance the view, and repair the in-flight
            // executor against the exact delta.
            store.publish(&cube::batch_point_entries(&domain, &points, Wavelet::Haar));
            let (_, delta) = view.advance_to_current();
            exec.advance_version(&delta);
            inserted += chunk;
            println!(
                "after {:>5} late arrivals: {:>4} coefficients retrieved, {:>4} pending",
                inserted,
                exec.retrieved(),
                exec.remaining()
            );
        } else if stepped == 0 {
            break;
        }
    }
    exec.run_to_end();

    // Verify exactness against a direct scan of the *updated* data.
    let mut worst = 0.0f64;
    for (q, est) in batch.queries().iter().zip(exec.estimates()) {
        let truth = q.eval_direct(dfd.tensor());
        worst = worst.max((est - truth).abs());
    }
    let total: f64 = exec.estimates().iter().sum();
    println!(
        "\nfinal: {} records counted across 64 cells (worst cell error {:.2e})",
        total.round(),
        worst
    );
    assert!(worst < 1e-6, "progressive + live updates must stay exact");
    println!("progressive evaluation and live updates compose exactly.");
}

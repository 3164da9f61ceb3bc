//! Concurrent batch serving: many query batches, one store, one pool.
//!
//! Three dashboards fire their query batches at the same wavelet view.
//! A 4-worker `BatchServer` advances all of them in interleaved slices,
//! each reading the store version it pinned, while the driver thread
//! watches progressive snapshots, publishes a live insert mid-flight,
//! opts every batch forward to it, and cancels one dashboard early. Each
//! claim the serve layer makes is asserted as it happens.
//!
//! Run with: `cargo run --example concurrent_batches`

use std::sync::Arc;

use batchbb::prelude::*;

fn main() {
    // One 64×64 dataset, transformed once, served to everyone.
    let schema = Schema::new(vec![
        Attribute::new("x", 0.0, 64.0, 6),
        Attribute::new("y", 0.0, 64.0, 6),
    ])
    .unwrap();
    let mut dfd = FrequencyDistribution::new(schema);
    for i in 0..64 {
        for j in 0..64 {
            let w = ((i * 11 + j * 3) % 6) as f64;
            if w != 0.0 {
                dfd.insert_binned(&[i, j], w);
            }
        }
    }
    let strategy = WaveletStrategy::new(Wavelet::Haar);
    let store = VersionedStore::from_entries(strategy.transform_data(dfd.tensor()));
    let shape = dfd.schema().domain();
    let n_total = shape.len();
    let k = store.abs_sum();

    // Three dashboards: a coarse overview, a fine drill-down, a stripe
    // report. Each is its own batch with its own penalty.
    let grids: [&[usize]; 3] = [&[2, 2], &[8, 8], &[1, 8]];
    let batches: Vec<BatchQueries> = grids
        .iter()
        .map(|cells| {
            let queries: Vec<RangeSum> = partition::grid_partition(&shape, cells)
                .into_iter()
                .map(RangeSum::count)
                .collect();
            BatchQueries::rewrite(&strategy, queries, &shape).unwrap()
        })
        .collect();
    let requests: Vec<BatchRequest<'_>> =
        batches.iter().map(|b| BatchRequest::new(b, &Sse)).collect();

    // Shared observability: every batch's trace events carry a
    // `batch = <id>` label in one sink, metrics in one registry.
    let registry = Arc::new(MetricsRegistry::new());
    let sink = Arc::new(MemorySink::new());
    let server = BatchServer::new(
        ServeConfig::new(n_total, k)
            .workers(4)
            .slice_steps(16)
            .registry(registry.clone())
            .sink(sink.clone()),
    );

    let (results, cancelled) = server.serve_versioned_with(&store, &requests, |session| {
        println!("pool is live: {} batches admitted", session.batches());

        // Watch progressive snapshots: every batch's Theorem-1 bound
        // only ever shrinks.
        let before: Vec<f64> = session
            .handles()
            .iter()
            .map(|h| h.snapshot().worst_case_bound)
            .collect();

        // A live insert lands mid-serve: one publish installs a new
        // store version without pausing any reader, then every batch
        // still in flight opts forward and is repaired against the delta.
        let entries = cube::point_entries(&shape, &[10, 20], 3.0, strategy.wavelet);
        session.update(&entries, || ());
        let advanced = (0..session.batches())
            .filter(|&i| session.advance_batch(i).is_some())
            .count();
        println!(
            "live insert published: {} coefficients touched, {advanced} batches advanced",
            entries.len()
        );

        // The fine drill-down turns out to be unwanted — cancel it.
        let cancelled = session.handle(1).cancel();

        for (handle, before) in session.handles().iter().zip(before) {
            let snap = handle.snapshot();
            assert!(snap.worst_case_bound <= before);
            println!(
                "batch {}: {}/{} coefficients, bound {:.3e}",
                handle.index(),
                snap.retrieved,
                snap.retrieved + snap.remaining,
                snap.worst_case_bound
            );
        }
        cancelled
    });

    // The overview and stripe dashboards finish exactly; the drill-down
    // either finished before the cancel or stopped cleanly with valid
    // partial estimates.
    assert_eq!(results[0].status, BatchStatus::Exact);
    assert_eq!(results[2].status, BatchStatus::Exact);
    assert!(matches!(
        results[1].status,
        BatchStatus::Exact | BatchStatus::Cancelled
    ));
    assert!(cancelled || results[1].status == BatchStatus::Exact);

    // Determinism check: every exact batch matches a serial run bit for
    // bit against the version it finished pinned to — the updated one if
    // it was advanced, the initial one if it finished before the insert.
    // Torn in-between states must never appear.
    for (i, result) in results.iter().enumerate() {
        if result.status == BatchStatus::Exact {
            let pinned = result.pinned_version.expect("versioned runs pin");
            let view = store.pin_at(pinned).expect("pinned versions are retained");
            let mut serial = ProgressiveExecutor::new(&batches[i], &Sse, &view);
            serial.run_to_end();
            assert_eq!(
                result.estimates(),
                serial.estimates(),
                "batch {i} published a torn update"
            );
        }
        assert!(result.bound_history.windows(2).all(|w| w[1] <= w[0]));
    }
    println!("all exact batches match a serial run bit for bit");

    // The shared trace separates cleanly by batch label.
    let mut per_batch = [0usize; 3];
    for line in sink.lines() {
        let event = jsonl::parse_line(&line).unwrap();
        if let Some(b) = event.num("batch") {
            per_batch[b as usize] += 1;
        }
    }
    println!(
        "trace: {} events ({} / {} / {} per batch), {} pool steps recorded",
        sink.lines().len(),
        per_batch[0],
        per_batch[1],
        per_batch[2],
        registry.snapshot().counter("serve.steps").unwrap_or(0)
    );
    assert!(per_batch.iter().all(|&n| n > 0));

    for (i, result) in results.iter().enumerate() {
        println!(
            "batch {i}: {:?} after {} slices, {} retrievals",
            result.status,
            result.slices,
            result
                .report
                .fault
                .successes
                .max(result.estimates().len() as u64)
        );
    }
}

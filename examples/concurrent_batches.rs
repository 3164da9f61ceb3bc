//! Concurrent batch serving: many query batches, one store, one pool.
//!
//! Three dashboards fire their query batches at the same wavelet view.
//! A `BatchServer` advances all of them in interleaved slices, each
//! reading the store version it pinned, while the driver thread watches
//! progressive snapshots, publishes a live insert mid-flight, opts the
//! batches forward to it, and cancels one dashboard early. A trace-sink
//! gate holds the pool at a fixed step until the driver is done, so the
//! run prints the same lines on a busy host as on an idle one. Each claim
//! the serve layer makes is asserted as it happens.
//!
//! Run with: `cargo run --example concurrent_batches`

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use batchbb::obs::FieldValue;
use batchbb::prelude::*;

/// The pool step at which the gate holds the worker: inside its second
/// slice, after the first dashboard it ran has finished.
const GATE_STEP: u64 = 6;

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
    // `batch = <id>` label in one sink, metrics in one registry. The
    // gate forwards every event to the trace. One worker keeps the slice
    // order fixed, so the held step is the same in every run.
    let registry = Arc::new(MetricsRegistry::new());
    let sink = Arc::new(MemorySink::new());
    let gate = Arc::new(Gate::new(sink.clone(), GATE_STEP));
    let server = BatchServer::new(
        ServeConfig::new(n_total, k)
            .workers(1)
            .slice_steps(16)
            .registry(registry.clone())
            .sink(gate.clone()),
    );

    let (results, (cancelled, repriced)) =
        server.serve_versioned_with(&store, &requests, |session| {
            println!("pool is live: {} batches admitted", session.batches());
            let held = gate.wait_held();

            // Watch progressive snapshots: a batch's Theorem-1 bound
            // only shrinks while it reads one version.
            let before: Vec<BatchSnapshot> =
                session.handles().iter().map(|h| h.snapshot()).collect();

            // A live insert lands mid-serve: one publish installs a new
            // store version without pausing any reader, then every batch
            // still in flight opts forward and is repaired against the
            // delta — all but the one the worker is inside, whose slice
            // lock it holds; that one answers for the version it pinned.
            let entries = cube::point_entries(&shape, &[10, 20], 3.0, strategy.wavelet);
            session.update(&entries, || ());
            let repriced: Vec<bool> = (0..session.batches())
                .map(|i| i != held && session.advance_batch(i).is_some())
                .collect();
            println!(
                "live insert published: {} coefficients touched; batches advanced: {} \
                 (batch {held} is mid-slice and keeps its version)",
                entries.len(),
                repriced.iter().filter(|&&a| a).count()
            );

            // The fine drill-down turns out to be unwanted — cancel it.
            let cancelled = session.handle(1).cancel();

            // Released before anything can panic, so a failed assert
            // cannot leave the worker held and the serve hung.
            let after: Vec<BatchSnapshot> =
                session.handles().iter().map(|h| h.snapshot()).collect();
            gate.open();
            for (i, (snap, before)) in after.iter().zip(&before).enumerate() {
                // An advance re-prices a batch at K + Σ|Δ|, so only a
                // batch that stayed on its version must not have grown.
                if !repriced[i] {
                    assert!(snap.worst_case_bound <= before.worst_case_bound);
                }
                println!(
                    "batch {i}: {}/{} coefficients, bound {:.3e}",
                    snap.retrieved,
                    snap.retrieved + snap.remaining,
                    snap.worst_case_bound
                );
            }
            // Bound-history entries each batch had recorded when it was
            // advanced: one at admission, one per slice since.
            let repriced: Vec<Option<usize>> = repriced
                .iter()
                .zip(&before)
                .map(|(&advanced, snap)| advanced.then_some(1 + snap.slices))
                .collect();
            (cancelled, repriced)
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
        // Monotone on each version: before the advance, and after it.
        let split = repriced[i].unwrap_or(0);
        let (old, new) = result.bound_history.split_at(split);
        assert!(old.windows(2).all(|w| w[1] <= w[0]));
        assert!(new.windows(2).all(|w| w[1] <= w[0]));
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
            result.retrieved_entries.len()
        );
    }
}

/// Forwards every event to the trace and holds the worker that emits the
/// pool's `step`-th `exec.step` until the driver opens the gate.
struct Gate {
    trace: Arc<MemorySink>,
    step: u64,
    steps: AtomicU64,
    /// The held batch, once the worker reaches the step; whether open.
    state: Mutex<(Option<usize>, bool)>,
    changed: Condvar,
}

impl Gate {
    fn new(trace: Arc<MemorySink>, step: u64) -> Self {
        Gate {
            trace,
            step,
            steps: AtomicU64::new(0),
            state: Mutex::new((None, false)),
            changed: Condvar::new(),
        }
    }

    /// Waits for the worker to reach the step; returns the batch it holds.
    fn wait_held(&self) -> usize {
        let state = self.state.lock().unwrap();
        let (state, _) = self
            .changed
            .wait_timeout_while(state, std::time::Duration::from_secs(60), |s| s.0.is_none())
            .unwrap();
        state.0.expect("the pool never reached the gate step")
    }

    fn open(&self) {
        self.state.lock().unwrap().1 = true;
        self.changed.notify_all();
    }
}

impl EventSink for Gate {
    fn emit(&self, event: &Event) {
        self.trace.emit(event);
        if event.name() != "exec.step" || self.steps.fetch_add(1, Ordering::SeqCst) + 1 != self.step
        {
            return;
        }
        let batch = event.fields().iter().find_map(|(name, value)| match value {
            FieldValue::U64(b) if *name == "batch" => Some(*b as usize),
            _ => None,
        });
        let mut state = self.state.lock().unwrap();
        state.0 = batch;
        self.changed.notify_all();
        drop(self.changed.wait_while(state, |s| !s.1).unwrap());
    }
}

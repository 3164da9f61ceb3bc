//! Satellite battery for the causal-tracing subsystem (DESIGN.md §14):
//! a property battery asserting the span invariants across random pool
//! shapes, fault rates, and deadline mixes — spans nest inside their
//! parents, every batch's phase intervals **partition** its
//! admitted-to-finalized wall time exactly — plus the acceptance fixture
//! (seeded faults + binding deadlines + a capacity squeeze) where every
//! SLO miss must attribute to a dominant phase, and a dedup-rider run
//! whose `store.rider` spans must reference their physical `store.read`.

use std::sync::{Arc, Condvar, Mutex};

use proptest::prelude::*;

use batchbb_bench::spans::{self, SpanSet};
use batchbb_bench::temperature_workload;
use batchbb_core::{BatchQueries, ProgressiveExecutor};
use batchbb_obs::jsonl::{self, ParsedEvent};
use batchbb_obs::{MemorySink, Tracer};
use batchbb_penalty::Sse;
use batchbb_query::{partition, LinearStrategy, RangeSum, WaveletStrategy};
use batchbb_serve::{BatchRequest, BatchServer, ServeConfig, SloContract};
use batchbb_storage::{
    AsyncFetchStore, CoefficientStore, Completion, FaultInjectingStore, FaultPlan, IoStats,
    MemoryStore,
};
use batchbb_tensor::{CoeffKey, Shape, Tensor};
use batchbb_wavelet::Wavelet;

fn parse(lines: &[String]) -> Vec<ParsedEvent> {
    lines
        .iter()
        .filter(|l| !l.trim().is_empty())
        .map(|l| jsonl::parse_line(l).expect("traced runs emit well-formed JSONL"))
        .collect()
}

/// Serves `batches` through a traced pool and returns the parsed trace.
#[allow(clippy::too_many_arguments)]
fn traced_run(
    data: &Tensor,
    domain: &Shape,
    batches: &[Vec<RangeSum>],
    workers: usize,
    slice_steps: usize,
    fault_rate: f64,
    deadline_every: Option<usize>,
    seed: u64,
) -> Vec<ParsedEvent> {
    let strategy = WaveletStrategy::new(Wavelet::Haar);
    let store = MemoryStore::from_entries(strategy.transform_data(data));
    let k = store.abs_sum();
    let rewritten: Vec<BatchQueries> = batches
        .iter()
        .map(|qs| BatchQueries::rewrite(&strategy, qs.clone(), domain).expect("queries fit"))
        .collect();
    let requests: Vec<BatchRequest<'_>> = rewritten
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let mut slo = SloContract::new().with_priority((i % 3) as u8);
            if let Some(every) = deadline_every {
                if i % every == 0 {
                    // Far under any serial cost: the deadline certainly
                    // expires, exercising the mid-flight finalize path.
                    slo = slo.with_deadline_ticks(3);
                }
            }
            BatchRequest::new(b, &Sse).with_slo(slo)
        })
        .collect();
    let faulty =
        FaultInjectingStore::new(&store, FaultPlan::new(seed).with_transient_rate(fault_rate));
    let sink = Arc::new(MemorySink::new());
    BatchServer::new(
        ServeConfig::new(domain.len(), k)
            .workers(workers)
            .slice_steps(slice_steps)
            .sink(sink.clone())
            .tracing(Tracer::new(seed)),
    )
    .serve(&faulty, &requests);
    parse(&sink.lines())
}

/// A random instance: data tensor plus several random-partition batches.
fn arb_instance() -> impl Strategy<Value = (Tensor, Vec<Vec<RangeSum>>, Shape, u64)> {
    (2u32..5, 2u32..4, 2usize..5, 0u64..1000).prop_flat_map(|(bx, by, nbatches, seed)| {
        let shape = Shape::new(vec![1usize << bx, 1usize << by]).unwrap();
        let len = shape.len();
        prop::collection::vec(0.0f64..9.0, len).prop_map(move |vals| {
            let shape = Shape::new(vec![1usize << bx, 1usize << by]).unwrap();
            let data = Tensor::from_vec(shape.clone(), vals).unwrap();
            let batches = (0..nbatches)
                .map(|b| {
                    let cells = 2 + (seed as usize + b) % 4;
                    partition::random_partition(&shape, cells.min(shape.len()), seed + b as u64)
                        .into_iter()
                        .map(RangeSum::count)
                        .collect()
                })
                .collect();
            (data, batches, shape, seed)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The span contract holds for every pool shape, slice granularity,
    /// fault rate, and deadline mix: the trace reconstructs into a
    /// closed span forest, children nest inside their parents, and each
    /// admitted batch's phase intervals telescope exactly across its
    /// root span — no gap, no overlap, no unattributed wall time.
    #[test]
    fn span_invariants_hold_across_pool_shapes(
        (data, batches, shape, seed) in arb_instance(),
        workers in 1usize..4,
        slice_sel in 0usize..3,
        fault_sel in 0usize..2,
        deadline_sel in 0usize..3,
    ) {
        let slice = [1usize, 4, 64][slice_sel];
        let fault = [0.0, 0.25][fault_sel];
        let deadline_every = [None, Some(1), Some(2)][deadline_sel];
        let events = traced_run(
            &data, &shape, &batches, workers, slice, fault, deadline_every, seed,
        );
        let set = SpanSet::from_events(&events)
            .unwrap_or_else(|e| panic!("span schema violated: {e}"));
        set.verify()
            .unwrap_or_else(|e| panic!("span nesting violated: {e}"));
        let lifecycles = set
            .lifecycles()
            .unwrap_or_else(|e| panic!("partition identity violated: {e}"));
        // No capacity squeeze, so every batch is admitted and must flush
        // exactly one lifecycle — even the deadline-expired ones.
        prop_assert_eq!(lifecycles.len(), batches.len());
        for lc in &lifecycles {
            let summed: u64 = lc.phase_totals().values().sum();
            prop_assert_eq!(summed, lc.total_ns(), "phase totals must sum to wall time");
        }
    }
}

/// The acceptance fixture of ISSUE 9: seeded transient faults, binding
/// deadlines on half the batches, capacity declared ~5 % under the
/// fault-free total.  The trace must yield lifecycles for every admitted
/// batch, attribute **every** `deadline_expired`/`shed` outcome to a
/// dominant phase, and render the full attribution report.
#[test]
fn overload_fixture_attributes_every_slo_miss() {
    let w = temperature_workload(4_000, 8, false, true, 7);
    let strategy = WaveletStrategy::new(Wavelet::Haar);
    let store = MemoryStore::from_entries(strategy.transform_data(w.cube.tensor()));
    let k = store.abs_sum();
    let batches: Vec<BatchQueries> = (0..6)
        .map(|b| {
            let queries: Vec<RangeSum> = partition::random_partition(&w.domain, 3, 107 + b)
                .into_iter()
                .map(RangeSum::count)
                .collect();
            BatchQueries::rewrite(&strategy, queries, &w.domain).expect("ranges fit the domain")
        })
        .collect();
    let total: u64 = batches
        .iter()
        .map(|b| {
            let mut probe = ProgressiveExecutor::new(b, &Sse, &store);
            probe.run_to_end();
            probe.retrieved() as u64
        })
        .sum();
    let faulty = FaultInjectingStore::new(&store, FaultPlan::new(7).with_transient_rate(0.2));
    let requests: Vec<BatchRequest<'_>> = batches
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let slo = if i % 2 == 0 {
                SloContract::new()
                    .with_deadline_ticks(10)
                    .with_priority((i % 3) as u8)
            } else {
                SloContract::new().with_priority((i % 3) as u8)
            };
            BatchRequest::new(b, &Sse).with_slo(slo)
        })
        .collect();
    let sink = Arc::new(MemorySink::new());
    BatchServer::new(
        ServeConfig::new(w.domain.len(), k)
            .workers(3)
            .slice_steps(4)
            .capacity(total.saturating_sub(total / 20).max(1))
            .sink(sink.clone())
            .tracing(Tracer::new(7)),
    )
    .serve(&faulty, &requests);
    let events = parse(&sink.lines());

    let set = SpanSet::from_events(&events).expect("span schema holds");
    set.verify().expect("spans nest");
    let lifecycles = set
        .lifecycles()
        .expect("phase intervals partition wall time");
    let admitted = events.iter().filter(|e| e.name() == "slo.admitted").count();
    assert_eq!(
        lifecycles.len(),
        admitted,
        "every admitted batch flushes exactly one lifecycle"
    );

    let misses = spans::slo_misses(&events, &lifecycles).expect("no torn lifecycles");
    assert!(
        !misses.is_empty(),
        "a 10-tick deadline under a serial cost of {total} retrievals must miss"
    );
    for miss in &misses {
        assert!(
            miss.cause == "deadline_expired" || miss.cause == "shed",
            "unexpected miss cause {}",
            miss.cause
        );
        assert!(miss.dominant_ns > 0, "dominant phase carries real time");
        assert!(miss.dominant_ns <= miss.total_ns);
    }

    let report = spans::format_attribution(&events).expect("attribution renders");
    assert!(report.contains("span integrity OK"));
    assert!(report.contains("deadline_expired"));
}

/// Dedup riders survive [`SpanSet`] verification and link to their
/// physical read: two submits of the same keys while the first fetch is
/// held at a gate produce one `store.read` span and one `store.rider`
/// span whose `physical` field names it.
#[test]
fn rider_spans_link_to_their_physical_read() {
    struct GatedStore {
        inner: MemoryStore,
        gate: Mutex<bool>,
        gate_cv: Condvar,
    }
    impl CoefficientStore for GatedStore {
        fn submit(&self, keys: &[CoeffKey]) -> Completion {
            let mut open = self.gate.lock().unwrap();
            while !*open {
                open = self.gate_cv.wait(open).unwrap();
            }
            drop(open);
            self.inner.submit(keys)
        }
        fn nnz(&self) -> usize {
            self.inner.nnz()
        }
        fn stats(&self) -> IoStats {
            self.inner.stats()
        }
        fn reset_stats(&self) {
            self.inner.reset_stats()
        }
    }

    let keys: Vec<CoeffKey> = (0..4).map(|i| CoeffKey::new(&[i, i + 1])).collect();
    let gated = GatedStore {
        inner: MemoryStore::from_entries(keys.iter().map(|k| (*k, 1.5))),
        gate: Mutex::new(false),
        gate_cv: Condvar::new(),
    };
    let sink = Arc::new(MemorySink::new());
    let asynchronous = AsyncFetchStore::with_tracing(gated, 2, Tracer::new(3), sink.clone());
    let a = asynchronous.submit(&keys);
    let b = asynchronous.submit(&keys);
    // No assertions before the gate opens: a panic here would leave the
    // workers parked at the gate and deadlock the harness on drop.
    {
        let mut open = asynchronous.inner().gate.lock().unwrap();
        *open = true;
        asynchronous.inner().gate_cv.notify_all();
    }
    a.wait().unwrap();
    b.wait().unwrap();
    asynchronous.quiesce();
    assert!(
        asynchronous.dedup_hits() >= 1,
        "second submit must ride the outstanding read"
    );

    let events = parse(&sink.lines());
    let set = SpanSet::from_events(&events).expect("store spans close");
    set.verify().expect("rider linkage holds");
    let riders: Vec<_> = set.named("store.rider").collect();
    assert!(!riders.is_empty(), "the dedup hit must emit a rider span");
    for rider in riders {
        let physical = rider.physical.expect("rider names its physical read");
        let read = set.get(physical).expect("physical read span exists");
        assert_eq!(read.name, "store.read");
        // The rider's wait is contained in the physical read's extent: it
        // joined after the read opened and resolved when the read closed.
        assert!(read.start <= rider.start && rider.end <= read.end);
    }
}

//! One generator, one oracle: the batch server over every store
//! composition it accepts (DESIGN.md §9, §12, §13, §15).
//!
//! Each case draws one serve run from a grammar — a base store (plain, or
//! versioned with racing writers, a driver update and advances), an
//! optional seeded fault injector, an optional engine (the asynchronous
//! one, or a shard router with replicas and a dead shard), the shared
//! cache, the pool shape, SLO contracts, tracing, the five penalty
//! families and a driver action — and checks every result against a
//! serial executor over a plain store on the batch's pinned version:
//!
//! * a batch that ends `Exact` is bit-identical to the serial run, and on
//!   a draw that binds nothing (no fault, dead shard, deadline, capacity,
//!   target or cancel) every batch ends `Exact`;
//! * every batch, whatever its status, comes back once with a certificate
//!   its actual penalty honors (Theorem 1), a status and `SloOutcome` the
//!   draw explains, a final snapshot equal to its result, a fault ledger
//!   that reconciles alone, merged and against the injector, and a bound
//!   history ending at its report's bound — monotone unless the driver
//!   advanced the batch;
//! * a one-worker run over a synchronous faulty stack is bit for bit the
//!   same with tracing flipped, fault ledger included.
//!
//! A failure prints the runner's seed: `PROPTEST_SEED=<seed> cargo test
//! --test serve_stacks` replays it.

use std::sync::Arc;

use batchbb::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One serve run.
#[derive(Debug)]
struct Draw {
    /// Domain `2^bits[0] × 2^bits[1]`, cell weights in `[0, 9)`.
    bits: [u32; 2],
    wavelet: Wavelet,
    data_seed: u64,
    /// Cells of each batch's random partition, one entry per batch.
    cells: Vec<usize>,
    /// `Some` for a versioned base: `writers` threads publish `publishes`
    /// point inserts each, racing admission and the drain; the driver
    /// publishes one insert of weight `insert` and advances the batches in
    /// the `advance` mask.
    versioned: Option<Versioned>,
    faults: Option<Faults>,
    engine: Engine,
    /// `None`: no shared cache; `Some(None)`: an unbounded one.
    cache: Option<Option<usize>>,
    workers: usize,
    slice: usize,
    window: usize,
    /// A target bound as a fraction of each batch's initial bound.
    target: Option<f64>,
    deadline: Option<u64>,
    /// Capacity as a fraction of the offered load.
    capacity: Option<f64>,
    /// Two bits of priority per batch.
    priorities: u64,
    traced: bool,
    /// Batch `i` gets penalty family `(family + i) % FAMILIES`.
    family: usize,
    cancel: u8,
}

#[derive(Debug)]
struct Versioned {
    writers: u64,
    publishes: u64,
    insert: f64,
    advance: u8,
}

/// A seeded injector over the base: a transient rate, the first
/// `permanent` keys broken, and whether the driver heals it.
#[derive(Debug)]
struct Faults {
    seed: u64,
    rate: f64,
    permanent: usize,
    heal: bool,
}

/// What reads the (possibly faulty) base for the pool.
#[derive(Debug)]
enum Engine {
    Direct,
    Async(usize),
    Shards {
        shards: usize,
        replicate: bool,
        dead: Option<usize>,
    },
}

impl Draw {
    /// Whether the store can fail a read: an injector, or an unreplicated
    /// dead shard.
    fn faulty(&self) -> bool {
        let dead = matches!(
            self.engine,
            Engine::Shards {
                replicate: false,
                dead: Some(_),
                ..
            }
        );
        self.faults.is_some() || dead
    }

    /// Whether anything may stop batch `i`, once admitted, short of exact:
    /// a faulty store, a target or deadline, or a cancel. (A capacity binds
    /// through rejection, and through shedding once consumption outruns
    /// the admitted prices.)
    fn binds(&self, i: usize) -> bool {
        let slo = self.target.is_some() || self.deadline.is_some();
        self.faulty() || slo || self.cancel & (1 << i) != 0
    }
}

/// The grammar. It draws only stacks the serve accepts: a versioned base
/// is read through its pinned views, so it takes no injector, engine or
/// cache, and a shard router partitions its own stores, so it takes no
/// injector.
struct Grammar;

impl Strategy for Grammar {
    type Value = Draw;

    fn generate(&self, rng: &mut TestRng) -> Draw {
        let mut below = |n: u64| rng.below(n);
        let versioned = below(5) < 2;
        let faulty = !versioned && below(2) == 0;
        let engine = match below(3) {
            _ if versioned => Engine::Direct,
            0 => Engine::Direct,
            1 => Engine::Async(1 + below(4) as usize),
            _ if faulty => Engine::Direct,
            _ => {
                let shards = 1 + below(8) as usize;
                let replicate = below(2) == 0;
                let dead = (below(3) == 0).then(|| below(shards as u64) as usize);
                Engine::Shards {
                    shards,
                    replicate,
                    dead,
                }
            }
        };
        // Db4's long master lists, and short slices, keep a versioned
        // draw's batches running while the driver advances them. Db4
        // domains stop at 16 × 16, Haar ones at 32 × 32.
        let db4 = versioned || below(4) == 0;
        let side = if db4 { 3 } else { 4 };
        Draw {
            bits: [2 + below(side) as u32, 2 + below(side) as u32],
            wavelet: if db4 { Wavelet::Db4 } else { Wavelet::Haar },
            slice: 1 + below(if versioned { 2 } else { 8 }) as usize,
            data_seed: below(1000),
            cells: (0..2 + below(4)).map(|_| 2 + below(4) as usize).collect(),
            versioned: versioned.then(|| Versioned {
                writers: below(3),
                publishes: 1 + below(4),
                // Half the driver's inserts dwarf the data.
                insert: if below(2) == 0 { 2.5 } else { 1e5 },
                advance: below(64) as u8,
            }),
            faults: faulty.then(|| Faults {
                seed: below(1000),
                rate: below(50) as f64 / 100.0,
                permanent: below(3) as usize,
                heal: below(4) == 0,
            }),
            engine,
            cache: (!versioned && below(2) == 0)
                .then(|| (below(2) == 0).then(|| 1 + below(16) as usize)),
            // Half the pools have one worker: a deterministic interleaving.
            workers: if below(2) == 0 {
                1
            } else {
                1 + below(4) as usize
            },
            window: below(5) as usize,
            // A quarter of the targets are 0: met only by a zero bound.
            target: (below(3) == 0)
                .then(|| (below(4) > 0) as u64 as f64 * below(50) as f64 / 100.0),
            deadline: (below(3) == 0).then(|| 1 + below(60)),
            capacity: (below(3) == 0).then(|| below(150) as f64 / 100.0),
            priorities: below(u64::MAX),
            traced: below(4) == 0,
            family: below(FAMILIES as u64) as usize,
            cancel: if below(4) == 0 { below(64) as u8 } else { 0 },
        }
    }
}

const FAMILIES: usize = 5;

/// One penalty per family the workspace ships, sized for `batch_size`.
fn penalty_family(family: usize, batch_size: usize) -> Box<dyn Penalty> {
    match family {
        0 => Box::new(Sse),
        1 => Box::new(DiagonalQuadratic::new(
            (1..=batch_size).map(|w| w as f64).collect(),
        )),
        2 => Box::new(LpPenalty::new(1.0)),
        3 => Box::new(LaplacianPenalty::path(batch_size)),
        _ => Box::new(Combination::new(vec![
            (0.5, Box::new(Sse) as Box<dyn Penalty>),
            (0.5, Box::new(DiagonalQuadratic::new(vec![2.0; batch_size]))),
        ])),
    }
}

/// The driver's last act: wait for every batch and take its final snapshot.
fn final_snapshots(session: &ServeSession<'_, '_>) -> Vec<BatchSnapshot> {
    while !session.all_finished() {
        std::thread::yield_now();
    }
    session
        .handles()
        .iter()
        .map(BatchHandle::snapshot)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_stack_serves_certified_answers(draw in Grammar) {
        let shape = Shape::new(draw.bits.iter().map(|b| 1usize << b).collect()).unwrap();
        let mut weights = SmallRng::seed_from_u64(draw.data_seed);
        let cells = (0..shape.len()).map(|_| weights.gen_range(0.0..9.0)).collect();
        let strategy = WaveletStrategy::new(draw.wavelet);
        let entries = strategy.transform_data(&Tensor::from_vec(shape.clone(), cells).unwrap());
        let plain = MemoryStore::from_entries(entries.iter().copied());
        let batches: Vec<BatchQueries> = draw.cells.iter().enumerate().map(|(b, &n)| {
            let seed = draw.data_seed + b as u64;
            let ranges = partition::random_partition(&shape, n.min(shape.len()), seed);
            let queries = ranges.into_iter().map(RangeSum::count).collect();
            BatchQueries::rewrite(&strategy, queries, &shape).unwrap()
        }).collect();
        let penalties: Vec<Box<dyn Penalty>> = batches.iter().enumerate()
            .map(|(i, b)| penalty_family((draw.family + i) % FAMILIES, b.len()))
            .collect();
        // A versioned base's inserts, fixed up front so that `K` bounds the
        // ℓ¹ of every version a batch can pin at admission; the driver's
        // insert is left out, so an advance over it must re-price.
        let point = |w: u64, p: u64, weight: f64| {
            let at: Vec<usize> = shape.dims().iter().enumerate()
                .map(|(d, &n)| ((draw.data_seed * (d as u64 + 3) + 13 * w + 7 * p) % n as u64) as usize)
                .collect();
            cube::point_entries(&shape, &at, weight, strategy.wavelet)
        };
        let writes: Vec<Vec<_>> = draw.versioned.iter()
            .flat_map(|v| (0..v.writers).map(move |w| (w, v.publishes)))
            .map(|(w, publishes)| (0..publishes).map(|p| point(w, p, 1.0 + (w + p) as f64)).collect())
            .collect();
        let k = plain.abs_sum() + writes.iter().flatten().flatten().map(|(_, d)| d.abs()).sum::<f64>();
        // Each batch's contract, and the price admission puts on it: the
        // steps until its certificate meets the target, capped by the
        // deadline. Importances are query-side, so every version agrees.
        let (requests, prices): (Vec<BatchRequest<'_>>, Vec<u64>) = batches.iter().zip(&penalties)
            .enumerate()
            .map(|(i, (batch, penalty))| {
                let probe = ProgressiveExecutor::new(batch, penalty.as_ref(), &plain);
                let mut slo = SloContract::new().with_priority((draw.priorities >> (2 * i)) as u8 & 3);
                let mut steps = probe.remaining() as u64;
                if let Some(fraction) = draw.target {
                    slo = slo.with_target_bound(fraction * probe.worst_case_bound(k));
                    steps = probe.steps_to_bound(slo.target_bound, k) as u64;
                }
                if let Some(ticks) = draw.deadline {
                    slo = slo.with_deadline_ticks(ticks);
                    steps = steps.min(ticks);
                }
                (BatchRequest::new(batch, penalty.as_ref()).with_slo(slo), steps)
            })
            .unzip();
        let capacity = draw.capacity.map(|f| (f * prices.iter().sum::<u64>() as f64) as u64);
        let config = |traced: bool| {
            let mut config = ServeConfig::new(shape.len().max(2), k)
                .workers(draw.workers)
                .slice_steps(draw.slice)
                .prefetch_window(draw.window)
                .share_cache(draw.cache.is_some());
            if let Some(Some(entries)) = draw.cache {
                config = config.cache_capacity(entries);
            }
            if let Some(capacity) = capacity {
                config = config.capacity(capacity);
            }
            if traced {
                config = config.tracing(Tracer::new(draw.data_seed)).sink(Arc::new(MemorySink::new()));
            }
            config
        };
        let cancel = |session: &ServeSession<'_, '_>| {
            for i in (0..session.batches()).filter(|i| draw.cancel & (1 << i) != 0) {
                session.handle(i).cancel();
            }
        };

        // Serves a plain base through the drawn injector and engine; the
        // stack quiesces before its counters are read. Without faults the
        // injector under an engine injects nothing and is not read.
        let serve_plain = |traced: bool| {
            let serve = |store: &dyn CoefficientStore, faulty: Option<&FaultInjectingStore<MemoryStore>>| {
                let faulty = faulty.filter(|_| draw.faults.is_some());
                let (results, snapshots) = BatchServer::new(config(traced)).serve_with(store, &requests, |session| {
                    cancel(session);
                    if let (Some(faulty), Some(Faults { heal: true, .. })) = (faulty, &draw.faults) {
                        faulty.heal();
                    }
                    final_snapshots(session)
                });
                store.quiesce();
                let advanced = vec![None; results.len()];
                (results, advanced, snapshots, faulty.map(FaultInjectingStore::injected))
            };
            let plan = match &draw.faults {
                Some(f) => FaultPlan::new(f.seed).with_transient_rate(f.rate)
                    .with_permanent_keys(entries.iter().map(|(key, _)| *key).take(f.permanent)),
                None => FaultPlan::new(0),
            };
            let faulty = FaultInjectingStore::new(MemoryStore::from_entries(entries.iter().copied()), plan);
            match &draw.engine {
                Engine::Direct if draw.faults.is_none() => serve(&plain, None),
                Engine::Direct => serve(&faulty, Some(&faulty)),
                Engine::Async(threads) => {
                    let engine = AsyncFetchStore::new(faulty, *threads);
                    let run = serve(&engine, Some(engine.inner()));
                    assert_eq!(engine.pending_depth(), 0, "the engine quiesced");
                    run
                }
                Engine::Shards { shards, replicate, dead } => {
                    let mut topology = ShardTopology::new(*shards);
                    if *replicate {
                        topology = topology.with_replication();
                    }
                    let router = topology.build(entries.iter().copied());
                    if let Some(dead) = dead {
                        router.fail_shard(*dead);
                    }
                    let run = serve(&router, None);
                    assert_eq!(router.pending_depth(), 0, "the router quiesced");
                    // On a healthy topology every logical read was answered
                    // by a shard RPC or rode one already outstanding (a
                    // cache would answer some itself).
                    let logical: u64 = run.0.iter().map(|r| r.report.fault.attempts).sum();
                    let rpc_keys: u64 = router.shard_stats().iter().map(|s| s.keys).sum();
                    let counted = draw.cache.is_some() || dead.is_some();
                    assert!(counted || rpc_keys + router.dedup_hits() >= logical, "{draw:?}");
                    run
                }
            }
        };
        let versioned = VersionedStore::from_entries(entries.iter().copied());
        // What the run produced: the results, which batches the driver
        // advanced, every batch's final snapshot, and the injector's
        // counters once the stack has quiesced.
        let run = match &draw.versioned {
            None => serve_plain(draw.traced),
            Some(Versioned { insert, advance, .. }) => {
                let driver_insert = point(7, 7, *insert);
                let ((results, (advanced, snapshots)), published) = std::thread::scope(|scope| {
                    for writes in &writes {
                        let versioned = &versioned;
                        scope.spawn(move || for entries in writes {
                            versioned.publish(entries);
                            std::thread::yield_now();
                        });
                    }
                    let server = BatchServer::new(config(draw.traced));
                    let run = server.serve_versioned_with(&versioned, &requests, |session| {
                        cancel(session);
                        session.update(&driver_insert, || ());
                        // A batch is advanced once it has read something,
                        // so the advance repairs what it read.
                        let advanced = session.handles().iter().map(|h| {
                            while advance & (1 << h.index()) != 0 && !h.is_finished() {
                                if h.snapshot().retrieved > 0 {
                                    return session.advance_batch(h.index());
                                }
                                std::thread::yield_now();
                            }
                            None
                        }).collect();
                        (advanced, final_snapshots(session))
                    });
                    (run, writes.iter().map(Vec::len).sum::<usize>() as u64 + 1)
                });
                prop_assert_eq!(versioned.current_version().as_u64(), published);
                (results, advanced, snapshots, None)
            }
        };

        let (results, advanced, snapshots, injected) = &run;
        prop_assert_eq!(results.len(), batches.len(), "every batch comes back exactly once");
        let mut merged = FaultStats::default();
        let mut deferred = 0;
        let mut committed = 0;
        for (i, result) in results.iter().enumerate() {
            let (penalty, slo, report) = (penalties[i].as_ref(), &requests[i].slo, &result.report);
            let view = result.pinned_version.map(|v| versioned.pin_at(v).expect("pinned versions are retained"));
            let mut serial = match &view {
                Some(view) => ProgressiveExecutor::new(&batches[i], penalty, view),
                None => ProgressiveExecutor::new(&batches[i], penalty, &plain),
            };
            serial.run_to_end();
            let why = format!("batch {i} ended {:?} at bound {} under {draw:?}", result.status, report.worst_case_bound);

            // The certificate: actual penalty ≤ K^α·max ι over what is unread.
            let errors: Vec<f64> = result.estimates().iter().zip(serial.estimates()).map(|(e, x)| e - x).collect();
            let actual = penalty.evaluate(&errors);
            prop_assert!(actual <= report.worst_case_bound * (1.0 + 1e-9) + 1e-9,
                "{}: actual penalty {} above its certificate", why, actual);
            if result.status == BatchStatus::Exact || !(draw.binds(i) || result.status == BatchStatus::Rejected) {
                prop_assert_eq!(result.status, BatchStatus::Exact, "{}", why);
                prop_assert_eq!(result.estimates(), serial.estimates(), "{}", why);
                prop_assert_eq!(&result.retrieved_entries, &serial.retrieved_entries(), "{}", why);
            }

            // The status and the SLO outcome are the draw's and the
            // certificate's; on a store that cannot fail, a deadline holds.
            let elapsed = report.fault.attempts + report.fault.backoff_ticks;
            prop_assert!(draw.faulty() || slo.deadline_ticks.is_none_or(|d| elapsed <= d),
                "{}: {} ticks spent", why, elapsed);
            let explained = match result.status {
                BatchStatus::Exact => report.is_exact,
                BatchStatus::BoundReached => report.worst_case_bound <= slo.target_bound,
                BatchStatus::Degraded | BatchStatus::BudgetExhausted => draw.faulty(),
                BatchStatus::DeadlineExpired => slo.deadline_ticks.is_some_and(|d| elapsed >= d),
                // Faults, or a target re-priced by an advance, can
                // consume past the admitted prices.
                BatchStatus::Shed => {
                    capacity.is_some() && (draw.faulty() || advanced.iter().any(Option::is_some))
                }
                BatchStatus::Rejected => capacity.is_some(),
                BatchStatus::Cancelled => draw.cancel & (1 << i) != 0,
            };
            prop_assert!(explained, "{}", why);
            match result.slo {
                SloOutcome::Rejected { estimated_cost, capacity } => {
                    prop_assert_eq!(result.status, BatchStatus::Rejected);
                    prop_assert_eq!(estimated_cost, prices[i]);
                    prop_assert!(committed + prices[i] > capacity, "{}: it fit the capacity left", why);
                    prop_assert!(result.retrieved_entries.is_empty() && report.fault.attempts == 0,
                        "{}: a rejected batch read the store", why);
                }
                outcome => {
                    committed += prices[i];
                    prop_assert!(committed <= capacity.unwrap_or(u64::MAX), "{}: admitted past the capacity", why);
                    let met = report.worst_case_bound <= slo.target_bound;
                    prop_assert_eq!(outcome == SloOutcome::Met, met, "{}: outcome {:?}", why, outcome);
                }
            }

            // The final snapshot is the result; an advanced batch reads the
            // version its advance returned; the history ends at the report,
            // monotone between advances.
            let snapshot = &snapshots[i];
            prop_assert!(snapshot.finished && snapshot.estimates == result.estimates()
                && snapshot.retrieved == result.retrieved_entries.len()
                && snapshot.worst_case_bound == report.worst_case_bound
                && snapshot.slices == result.slices, "{}: final snapshot {:?}", why, snapshot);
            prop_assert!(advanced[i].is_none() || advanced[i] == result.pinned_version, "{}", why);
            let history = &result.bound_history;
            prop_assert_eq!(history.last(), Some(&report.worst_case_bound), "{}", why);
            if advanced[i].is_none() {
                prop_assert!(history.windows(2).all(|w| w[1] <= w[0]), "{}: {:?}", why, history);
            }

            // The ledger balances alone ...
            prop_assert!(report.fault.attempts_reconcile(), "{}: torn ledger {:?}", why, report.fault);
            prop_assert!(report.fault.deferrals_reconcile(report.deferred.len() as u64), "{}", why);
            merged.merge(&report.fault);
            deferred += report.deferred.len() as u64;
        }
        // ... merged, and against the injector.
        prop_assert!(merged.attempts_reconcile() && merged.deferrals_reconcile(deferred));
        if let Some(injected) = injected {
            prop_assert!(injected.attempts_reconcile(), "torn injector ledger {:?}", injected);
            if matches!(draw.engine, Engine::Direct) && draw.window <= 1 {
                // Synchronous singleton reads: each injected fault surfaces
                // in exactly one batch, and the cache can only absorb
                // attempts. (A failed window is charged to no batch — its
                // keys are retried singly — nor is read-ahead a batch
                // finalized before using.)
                prop_assert!(merged.transient_failures == injected.transient_failures
                    && merged.permanent_failures == injected.permanent_failures
                    && injected.attempts <= merged.attempts,
                    "served {:?} but injected {:?} under {:?}", merged, injected, draw);
            }
        }

        // Tracing observes and never steers. A synchronous stack the driver
        // leaves alone runs deterministically when it cannot fail, or on
        // one worker: then the run with tracing flipped is bit-equal.
        let heals = draw.faults.as_ref().is_some_and(|f| f.heal);
        if draw.versioned.is_none() && matches!(draw.engine, Engine::Direct) && draw.cancel == 0
            && !heals && (draw.workers == 1 || !draw.faulty())
        {
            let flipped = serve_plain(!draw.traced);
            prop_assert_eq!(&flipped.0, results, "tracing {} changed the run", !draw.traced);
            prop_assert_eq!(&flipped.3, injected);
        }
    }
}

//! One wave: a dashboard refresh, served twice and checked.
//!
//! A wave takes its statements through the front end (`sqlish::plan`,
//! `BatchQueries::rewrite`), serves the rewritten batches once with an
//! ε-targeted contract and once unbounded, checks every answer against
//! the oracle, and — in a traced run — replays every batch serially for
//! the executor's self-times. Only the bracketed calls are timed; ε, the
//! oracle and the replay run between brackets.

use std::collections::HashSet;
use std::hint::black_box;
use std::sync::Arc;

use batchbb_core::{MasterList, ProgressiveExecutor};
use batchbb_obs::{MemorySink, Tracer};
use batchbb_penalty::{Penalty, Sse};
use batchbb_relation::cube;
use batchbb_serve::{BatchRequest, BatchResult, BatchServer, SloContract};
use batchbb_storage::CoefficientStore;
use batchbb_tensor::CoeffKey;

use crate::fixture::{publishes, statements, Fixture, Kind, Prepared, Store};
use crate::oracle::{check_epsilon, check_exact, truths, Tally};
use crate::recorder::Recorder;
use crate::timed_store::{sum_totals, TimedStore, TimedTotals};

/// Steps between `degradation_report` calls in the serial replay — the
/// pool's slice length, so the replay pays for reports as often as it does.
const SLICE_STEPS: usize = 256;

/// Traced `dash_mem` waves that are also served with the program's own
/// tracing on, for `obs.trace_overhead_ratio`.
const OBS_WAVES: usize = 4;

/// What the caller decides per wave.
#[derive(Debug, Clone, Copy)]
pub struct WaveMode {
    /// The wave's index in the seeded stream.
    pub wave: usize,
    /// Whether the wave belongs to the fixed prefix the exact-count
    /// metrics are taken over (so they do not depend on how many waves
    /// the host fits into `--seconds`).
    pub fixed: bool,
    /// Whether this is a traced wave (storage deltas, serial replay).
    pub traced: bool,
}

fn requests<'a>(prepared: &'a [Prepared], epsilons: Option<&[f64]>) -> Vec<BatchRequest<'a>> {
    prepared
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let request = BatchRequest::new(&p.batch, &Sse);
            match epsilons {
                Some(eps) => request.with_slo(SloContract::new().with_target_bound(eps[i])),
                None => request,
            }
        })
        .collect()
}

impl Fixture<'_> {
    /// Runs wave `mode.wave`, recording into `rec` and `tally`.
    pub fn wave(&mut self, mode: WaveMode, rec: &mut Recorder, tally: &mut Tally) {
        rec.set_wave(mode.wave);
        let open = rec.begin("wave");
        match self.kind {
            Kind::LivePrepared => self.live_wave(mode, rec, tally),
            _ => self.query_wave(mode, rec, tally),
        }
        rec.end(open);
    }

    fn query_wave(&mut self, mode: WaveMode, rec: &mut Recorder, tally: &mut Tally) {
        let Store::Plain(store) = &self.stack.store else {
            unreachable!("only live_prepared serves a versioned store");
        };
        let store: &dyn CoefficientStore = &**store;
        let (mut front_s, mut prepared) = (0.0, Vec::new());
        for sql in statements(self.kind, self.seed, mode.wave) {
            let (batch, secs) = self.front_end(&sql, rec);
            front_s += secs;
            prepared.push(Prepared::profile(batch));
        }
        let epsilons: Vec<f64> = prepared.iter().map(|p| p.epsilon(self.k)).collect();
        let server = BatchServer::new(self.serve_config(self.k));
        let shards_before = self.stack.shard_stats.as_ref().map(|stats| stats());

        let io_start = sum_totals(&self.stack.timed);
        let open = rec.begin("serve.eps");
        let eps_results = server.serve(store, &requests(&prepared, Some(&epsilons)));
        let eps_s = rec.end(open);
        let io_mid = sum_totals(&self.stack.timed);
        let open = rec.begin("serve.exact");
        let exact_results = server.serve(store, &requests(&prepared, None));
        let exact_s = rec.end(open);
        let io_end = sum_totals(&self.stack.timed);

        record_wave(rec, mode, front_s, eps_s, exact_s, &prepared);
        record_results(rec, mode, &eps_results, &exact_results);
        if mode.traced {
            record_io(
                rec,
                mode,
                io_mid.since(&io_start),
                io_end.since(&io_mid),
                &prepared,
            );
        }
        if let (true, Some(before), Some(stats)) =
            (mode.fixed, shards_before, &self.stack.shard_stats)
        {
            for (shard, (now, then)) in stats().iter().zip(&before).enumerate() {
                rec.observe("fixed.shard_rpcs", (now.rpcs - then.rpcs) as f64);
                self.shard_keys[shard] += now.keys - then.keys;
            }
        }

        for (i, p) in prepared.iter().enumerate() {
            let context = format!("{} wave {} batch {i}", self.kind.name(), mode.wave);
            let truth = truths(&p.batch, self.base.tensor());
            check_epsilon(
                tally,
                &format!("{context} ε"),
                &eps_results[i],
                &truth,
                epsilons[i],
            );
            check_exact(
                tally,
                &format!("{context} exact"),
                &exact_results[i],
                &truth,
            );
        }

        if mode.traced {
            let replay_store = self.replay.as_ref().expect("traced fixtures keep one");
            for (i, p) in prepared.iter().enumerate() {
                let context = format!("{} wave {} batch {i} replay", self.kind.name(), mode.wave);
                let bounds = Bounds {
                    epsilon: epsilons[i],
                    k: self.k,
                    n_total: self.base.tensor().shape().len(),
                };
                replay(
                    rec,
                    tally,
                    &context,
                    p,
                    bounds,
                    replay_store,
                    &exact_results[i],
                );
            }
            if self.kind == Kind::DashMem && mode.wave < OBS_WAVES {
                // The program's own tracing, against the plain exact pass
                // of the same batches.
                let sink = Arc::new(MemorySink::new());
                let traced_server = BatchServer::new(
                    self.serve_config(self.k)
                        .sink(sink.clone())
                        .tracing(Tracer::new(mode.wave as u64)),
                );
                let open = rec.begin("obs.traced_serve");
                black_box(traced_server.serve(store, &requests(&prepared, None)));
                rec.end(open);
                rec.observe("obs.plain_serve", exact_s);
                let span_events = sink
                    .lines()
                    .iter()
                    .filter(|line| line.contains("\"span."))
                    .count();
                rec.observe("obs.span_events", span_events as f64);
                rec.observe("obs.batches", prepared.len() as f64);
            }
        }
    }

    fn live_wave(&mut self, mode: WaveMode, rec: &mut Recorder, tally: &mut Tally) {
        self.prepare_for(mode.wave);
        let Store::Versioned(store) = &self.stack.store else {
            unreachable!("live_prepared serves a versioned store");
        };
        let domain = self.base.tensor().shape().clone();
        let wavelet = self.kind.wavelet();
        // K moves with every insert; a certificate is only as good as the
        // K behind it, so each wave prices against the store as it stands.
        let k = store.abs_sum();
        let prepared = &self.prepared.1;
        let epsilons: Vec<f64> = prepared.iter().map(|p| p.epsilon(k)).collect();
        let server = BatchServer::new(self.serve_config(k));
        let inserts = publishes(self.seed, mode.wave, domain.dim(0));

        let open = rec.begin("serve.eps");
        let eps_results = server.serve_versioned(store, &requests(prepared, Some(&epsilons)));
        let eps_s = rec.end(open);

        let open = rec.begin("serve.exact");
        let (exact_results, (landed_in_flight, versions)) =
            server.serve_versioned_with(store, &requests(prepared, None), |session| {
                let (mut landed_in_flight, mut versions) = (0, Vec::new());
                for points in &inserts {
                    let publish = rec.begin("live.publish");
                    let open = rec.begin("relation.point_transform");
                    let entries = cube::batch_point_entries(&domain, points, wavelet);
                    rec.end(open);
                    let open = rec.begin("storage.publish");
                    session.update(&entries, || ());
                    rec.end(open);
                    rec.end(publish);
                    versions.push(session.current_version().expect("versioned session"));
                    if !session.all_finished() {
                        landed_in_flight += 1;
                    }
                }
                for batch in 0..session.batches() {
                    session.advance_batch(batch);
                }
                (landed_in_flight, versions)
            });
        let exact_s = rec.end(open);

        let mirror = self.mirror.as_mut().expect("live fixtures keep a mirror");
        for (version, points) in versions.into_iter().zip(inserts) {
            mirror.published(version.as_u64(), points);
        }
        record_wave(rec, mode, 0.0, eps_s, exact_s, prepared);
        record_results(rec, mode, &eps_results, &exact_results);
        rec.observe("live.landed_in_flight", f64::from(landed_in_flight));
        rec.observe(
            "storage.retained_versions",
            store.retained_versions() as f64,
        );

        // The mirror only rolls forward: ε results (pinned before this
        // wave's inserts) first, then exact results in pinned order.
        let pinned = |r: &BatchResult| r.pinned_version.expect("versioned runs pin").as_u64();
        let mut order: Vec<usize> = (0..prepared.len()).collect();
        for (i, p) in prepared.iter().enumerate() {
            let truth = truths(&p.batch, mirror.at(pinned(&eps_results[i])));
            let context = format!("live_prepared wave {} batch {i} ε", mode.wave);
            check_epsilon(tally, &context, &eps_results[i], &truth, epsilons[i]);
        }
        order.sort_by_key(|&i| pinned(&exact_results[i]));
        for &i in &order {
            let truth = truths(&prepared[i].batch, mirror.at(pinned(&exact_results[i])));
            let context = format!("live_prepared wave {} batch {i} exact", mode.wave);
            check_exact(tally, &context, &exact_results[i], &truth);
        }

        if mode.traced {
            for (i, p) in prepared.iter().enumerate() {
                let version = exact_results[i].pinned_version.expect("versioned runs pin");
                let view = store
                    .pin_at(version)
                    .expect("nothing compacts between the serve and its replay");
                let context = format!("live_prepared wave {} batch {i} replay", mode.wave);
                let bounds = Bounds {
                    epsilon: epsilons[i],
                    k,
                    n_total: domain.len(),
                };
                let view = TimedStore::new(view);
                replay(rec, tally, &context, p, bounds, &view, &exact_results[i]);
            }
        }
        store.compact(store.current_version());
    }
}

/// Per-wave samples common to every workload.
fn record_wave(
    rec: &mut Recorder,
    mode: WaveMode,
    front_s: f64,
    eps_s: f64,
    exact_s: f64,
    prepared: &[Prepared],
) {
    rec.observe("wave.front_s", front_s);
    rec.observe("wave.eps_s", front_s + eps_s);
    rec.observe("wave.exact_s", front_s + exact_s);
    rec.observe("wave.statements", prepared.len() as f64);
    for p in prepared {
        rec.observe("query.coeffs", p.batch.total_coefficients() as f64);
        rec.observe("core.master_keys", p.master_keys as f64);
        if mode.fixed {
            rec.observe("fixed.master_keys", p.master_keys as f64);
        }
    }
}

/// Per-batch samples read off the results.
fn record_results(
    rec: &mut Recorder,
    mode: WaveMode,
    eps_results: &[BatchResult],
    exact_results: &[BatchResult],
) {
    for result in eps_results {
        let retrieved = result.retrieved_entries.len() as f64;
        rec.observe("eps.retrieved", retrieved);
        if mode.fixed {
            rec.observe("fixed.eps_retrieved", retrieved);
        }
    }
    for result in exact_results {
        rec.observe("exact.retrieved", result.retrieved_entries.len() as f64);
        rec.observe("serve.slices", result.slices as f64);
    }
}

/// Storage samples of a traced wave, from the `TimedStore` deltas of its
/// two passes.
fn record_io(
    rec: &mut Recorder,
    mode: WaveMode,
    eps_io: TimedTotals,
    exact_io: TimedTotals,
    prepared: &[Prepared],
) {
    let distinct: HashSet<CoeffKey> = prepared
        .iter()
        .flat_map(|p| p.batch.coefficients())
        .flat_map(|coeffs| coeffs.entries().iter().map(|&(key, _)| key))
        .collect();
    rec.observe("storage.distinct_keys", distinct.len() as f64);
    rec.observe("storage.exact_keys", exact_io.keys as f64);
    for io in [eps_io, exact_io] {
        rec.observe("storage.busy_s", io.busy_ns as f64 / 1e9);
        rec.observe("storage.keys", io.keys as f64);
        if mode.fixed {
            rec.observe("fixed.fetch_calls", io.calls as f64);
            rec.observe("fixed.fetch_keys", io.keys as f64);
            rec.observe("fixed.fetch_busy_s", io.busy_ns as f64 / 1e9);
            rec.observe("fixed.fetch_errors", io.errors as f64);
        }
    }
}

/// The bound inputs of one batch's replay.
#[derive(Clone, Copy)]
struct Bounds {
    /// The ε the harness served the batch with.
    epsilon: f64,
    /// Coefficient norm `K` the batch was priced against.
    k: f64,
    /// Domain size `N^d`.
    n_total: usize,
}

/// Serially replays one batch — `MasterList::build` →
/// `ProgressiveExecutor::from_master` → run to the end in slices — timing
/// each stage, and checks the replay against the pool and the harness's ε
/// against the executor's own initial bound.
fn replay<S: CoefficientStore>(
    rec: &mut Recorder,
    tally: &mut Tally,
    context: &str,
    prepared: &Prepared,
    Bounds {
        epsilon,
        k,
        n_total,
    }: Bounds,
    store: &TimedStore<S>,
    pool_result: &BatchResult,
) {
    let batch = &prepared.batch;
    let open = rec.begin("core.replay");

    let inner = rec.begin("core.master_build");
    let master = MasterList::build(batch);
    rec.end(inner);

    // Importance scoring alone, over a second merge: `from_master` below
    // consumes its list and scores inside the heap build.
    let columns = MasterList::build(batch);
    let inner = rec.begin("penalty.importance");
    let mut total = 0.0;
    for (_, column) in columns.iter() {
        let column: Vec<(usize, f64)> = column.iter().map(|&(i, v)| (i as usize, v)).collect();
        total += Sse.importance(&column, batch.len());
    }
    rec.end(inner);
    black_box(total);
    rec.observe("penalty.columns", columns.len() as f64);
    drop(columns);

    let inner = rec.begin("core.score_heap");
    let mut exec = ProgressiveExecutor::from_master(batch.len(), master, &Sse, store);
    rec.end(inner);
    let initial_bound = exec.worst_case_bound(k);

    let handle = store.handle();
    let io_before = handle.totals();
    let mut steps = 0;
    loop {
        let inner = rec.begin("core.run");
        let ran = exec.run(SLICE_STEPS);
        rec.end(inner);
        steps += ran;
        let inner = rec.begin("core.report");
        black_box(exec.degradation_report(n_total, k));
        rec.end(inner);
        if ran < SLICE_STEPS {
            break;
        }
    }
    let io = handle.totals().since(&io_before);
    rec.end(open);
    rec.observe("core.steps", steps as f64);
    rec.observe("core.replay_store_s", io.busy_ns as f64 / 1e9);

    let verdict = (|| {
        if (epsilon - 1e-3 * initial_bound).abs() > 1e-12 * epsilon.abs() {
            return Err(format!(
                "harness ε {epsilon} is not 1e-3 × the executor's initial bound {initial_bound}"
            ));
        }
        let same = exec.estimates().len() == pool_result.estimates().len()
            && exec
                .estimates()
                .iter()
                .zip(pool_result.estimates())
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            return Err("serial replay and pool estimates are not bit-identical".to_string());
        }
        Ok(())
    })();
    tally.record(context, verdict);
}

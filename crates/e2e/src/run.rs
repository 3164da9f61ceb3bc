//! One benchmark run: one workload, one process, traced or not.
//!
//! An untraced run (`--trace 0`) sets up, warms up with one wave, then
//! serves waves for `--seconds` and reports the end-to-end metrics. A
//! traced run (`--trace 1`) spends a quarter of the time on untraced waves
//! (for `harness.trace_overhead_ratio`), rebuilds the stack with
//! `TimedStore`s in it, and spends the rest on traced waves — spans,
//! storage deltas, serial replays — reporting the per-layer metrics.
//!
//! Timings take every wave the host fits into the window; exact counts
//! (`retrievals_to_eps`, `storage.shard_rpcs`, …) take a fixed prefix of
//! waves that every run completes, so they repeat exactly for a seed.

use std::path::PathBuf;
use std::time::Instant;

use crate::fixture::{Base, Fixture, Kind, Sizes};
use crate::oracle::Tally;
use crate::recorder::{div, quantile, Recorder};
use crate::waves::WaveMode;

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// The workload.
    pub kind: Kind,
    /// Seed of the dataset, statement and insert streams.
    pub seed: u64,
    /// How long to serve waves, in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// Miniature sizes.
    pub smoke: bool,
    /// Where to write the span log of a traced run.
    pub trace_out: Option<PathBuf>,
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value.
    pub value: f64,
    /// For timings: sample count, p25 and p75, in the metric's unit.
    pub spread: Option<(usize, f64, f64)>,
}

/// What a run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Every check and every enforced guard passed.
    pub correct: bool,
    /// Batches checked.
    pub attempted: u64,
    /// Batches that failed a check.
    pub failed: u64,
    /// The metrics of the run's mode.
    pub metrics: Vec<Metric>,
    /// Guard verdicts and failure reasons, for the human reader.
    pub messages: Vec<String>,
}

/// Waves per second of serving window the design point achieves on the
/// two-core reference host, untraced and traced. Only a third of the
/// implied wave count is declared "fixed", so a host three times slower
/// still completes the prefix inside the window.
fn design_rate(kind: Kind, traced: bool) -> f64 {
    match (kind, traced) {
        (Kind::DashMem, false) => 6.0,
        (Kind::DashMem, true) => 3.0,
        (Kind::LivePrepared, false) => 4.0,
        (Kind::LivePrepared, true) => 2.5,
        (Kind::RemoteShards, false) => 4.0,
        (Kind::RemoteShards, true) => 3.5,
        (Kind::DrillCached, false) => 1.8,
        (Kind::DrillCached, true) => 1.8,
    }
}

/// Waves in the fixed prefix for a window of `seconds`.
fn fixed_waves(kind: Kind, traced: bool, seconds: f64) -> usize {
    ((seconds * design_rate(kind, traced) / 3.0) as usize).max(2)
}

/// One serving window.
struct Window {
    /// Wall-clock length.
    seconds: f64,
    /// Waves in the fixed prefix.
    fixed: usize,
    /// Traced waves or not.
    traced: bool,
    /// Further set-up samples to take during the window (see [`run`]).
    setups: usize,
}

/// Serves waves `0..` until both the fixed prefix is done and the window
/// has passed; returns how many waves that was. After the prefix, calls
/// `setup_sample` `window.setups` times, evenly spaced over what is left of
/// the window (all at the end if nothing is left).
fn serve_window(
    fixture: &mut Fixture<'_>,
    window: &Window,
    rec: &mut Recorder,
    tally: &mut Tally,
    setup_sample: &mut dyn FnMut(&mut Recorder),
) -> usize {
    let started = Instant::now();
    let (mut wave, mut sampled, mut prefix_end) = (0, 0, 0.0);
    while wave < window.fixed || started.elapsed().as_secs_f64() < window.seconds {
        let mode = WaveMode {
            wave,
            fixed: wave < window.fixed,
            traced: window.traced,
        };
        fixture.wave(mode, rec, tally);
        wave += 1;
        let now = started.elapsed().as_secs_f64();
        if wave == window.fixed {
            // `VmHWM` only grows, and some workloads' grows with every
            // wave served; read at the end of the prefix it measures the
            // same work on every host. Set-up samples come after it.
            rec.observe("peak_rss_mb", peak_rss_mb());
            prefix_end = now;
        }
        let step = (window.seconds - prefix_end) / (window.setups + 1) as f64;
        if wave >= window.fixed
            && sampled < window.setups
            && now >= prefix_end + step * (sampled + 1) as f64
        {
            setup_sample(rec);
            sampled += 1;
        }
    }
    for _ in sampled..window.setups {
        setup_sample(rec);
    }
    wave
}

/// A wave outside the measured stream, so caches, pools and allocator
/// arenas are warm before the window opens.
fn warm_up(fixture: &mut Fixture<'_>, traced: bool, tally: &mut Tally) {
    let mode = WaveMode {
        wave: 1 << 30,
        fixed: false,
        traced,
    };
    fixture.wave(mode, &mut Recorder::new(false), tally);
}

/// Runs one workload in one mode.
pub fn run(opts: &RunOpts) -> Outcome {
    let sizes = if opts.smoke {
        Sizes::smoke()
    } else {
        Sizes::full()
    };
    let kind = opts.kind;
    let mut rec = Recorder::new(opts.trace);
    let mut tally = Tally::default();

    // Set-up (dataset load, then view build) is timed `sizes.setups` times
    // and the medians are reported. Only the first happens here; the rest
    // are taken during the window, spaced out, because a burst of host
    // contention at process start would otherwise shift every sample (the
    // sandbox shows such bursts, 2–3× on single-threaded work).
    let base = Base::load(opts.seed, &sizes, &mut rec);
    let mut fixture = Fixture::build(kind, opts.seed, &base, false, &mut rec);
    let setups = sizes.setups - 1;
    let mut setup_sample = |rec: &mut Recorder| {
        drop(Base::load(opts.seed, &sizes, rec));
        drop(Fixture::build(kind, opts.seed, &base, false, rec));
    };

    let mut untraced_p50 = 0.0;
    let window = if opts.trace {
        let mut plain = Recorder::new(false);
        warm_up(&mut fixture, false, &mut tally);
        let unmeasured = Window {
            seconds: opts.seconds * 0.25,
            fixed: 2,
            traced: false,
            setups: 0,
        };
        serve_window(
            &mut fixture,
            &unmeasured,
            &mut plain,
            &mut tally,
            &mut |_| (),
        );
        untraced_p50 = plain.quantile("wave.exact_s", 0.5);
        drop(fixture);
        fixture = Fixture::build(kind, opts.seed, &base, true, &mut Recorder::new(false));
        Window {
            seconds: opts.seconds * 0.75,
            fixed: fixed_waves(kind, true, opts.seconds * 0.75),
            traced: true,
            setups,
        }
    } else {
        Window {
            seconds: opts.seconds,
            fixed: fixed_waves(kind, false, opts.seconds),
            traced: false,
            setups,
        }
    };
    warm_up(&mut fixture, window.traced, &mut tally);
    let waves = serve_window(
        &mut fixture,
        &window,
        &mut rec,
        &mut tally,
        &mut setup_sample,
    );
    let fixed = window.fixed;

    let mut messages = std::mem::take(&mut tally.reasons);
    messages.push(format!(
        "{waves} waves on {} workers, exact counts over the first {fixed}",
        fixture.workers
    ));
    let guards_ok = guards(&fixture, &rec, opts.trace, &mut messages);
    let metrics = if opts.trace {
        per_layer(&fixture, &rec, untraced_p50)
    } else {
        end_to_end(&rec)
    };
    if let Some(path) = &opts.trace_out {
        let written = std::fs::File::create(path)
            .and_then(|file| rec.write_spans(&mut std::io::BufWriter::new(file)));
        if let Err(e) = written {
            messages.push(format!("could not write {}: {e}", path.display()));
        }
    }
    let finite = metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        messages.push("a metric is not a finite number".to_string());
    }
    Outcome {
        correct: tally.failed == 0 && finite && (guards_ok || !sizes.enforce_guards),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        messages,
    }
}

/// A metric without a spread.
fn plain(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value,
        spread: None,
    }
}

/// The `q`-quantile of a timing's samples, scaled into `unit`, with its
/// sample count and quartiles alongside.
fn timing(
    rec: &Recorder,
    name: &'static str,
    unit: &'static str,
    samples: &str,
    q: f64,
    scale: f64,
) -> Metric {
    let values = rec.samples(samples);
    Metric {
        name,
        unit,
        value: scale * quantile(values, q),
        spread: Some((
            values.len(),
            scale * quantile(values, 0.25),
            scale * quantile(values, 0.75),
        )),
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` is unavailable).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn end_to_end(rec: &Recorder) -> Vec<Metric> {
    let builds = rec.samples("setup.view_build");
    let load = rec.quantile("relation.load", 0.5);
    vec![
        Metric {
            name: "setup_s",
            unit: "s",
            value: load + quantile(builds, 0.5),
            spread: Some((
                builds.len(),
                load + quantile(builds, 0.25),
                load + quantile(builds, 0.75),
            )),
        },
        timing(rec, "wave_exact_p50_ms", "ms", "wave.exact_s", 0.5, 1e3),
        timing(rec, "wave_eps_p50_ms", "ms", "wave.eps_s", 0.5, 1e3),
        plain(
            "batches_per_s",
            "1/s",
            rec.ratio("wave.statements", "wave.exact_s"),
        ),
        plain(
            "retrievals_to_eps",
            "count",
            div(
                rec.sum("fixed.eps_retrieved"),
                rec.count("fixed.eps_retrieved") as f64,
            ),
        ),
        plain("peak_rss_mb", "MiB", rec.quantile("peak_rss_mb", 1.0)),
    ]
}

fn per_layer(fixture: &Fixture<'_>, rec: &Recorder, untraced_p50: f64) -> Vec<Metric> {
    let mean = |name: &str| div(rec.sum(name), rec.count(name) as f64);
    let waves = rec.count("wave.exact_s") as f64;
    let serve_s = rec.sum("serve.eps") + rec.sum("serve.exact");
    let serial_s = rec.sum("core.master_build")
        + rec.sum("core.score_heap")
        + rec.sum("core.run")
        + rec.sum("core.report");
    // Only these two serve through the shared cache.
    let (cache_hit, refetch) = match fixture.kind {
        Kind::DashMem | Kind::DrillCached => cache_ratios(rec),
        _ => (0.0, 0.0),
    };

    let mut latencies = Vec::new();
    for handle in &fixture.stack.timed {
        handle.latencies_us(&mut latencies);
    }
    let shard_keys: f64 = fixture.shard_keys.iter().sum::<u64>() as f64;
    let shard_max = fixture.shard_keys.iter().copied().max().unwrap_or(0) as f64;

    vec![
        plain("sqlish.plan_us_per_stmt", "us", 1e6 * mean("sqlish.plan")),
        plain("sqlish.queries_per_stmt", "count", mean("sqlish.queries")),
        plain(
            "query.rewrite_ms_per_batch",
            "ms",
            1e3 * mean("query.rewrite"),
        ),
        plain(
            "query.rewrite_ns_per_coeff",
            "ns",
            if rec.count("query.rewrite") == 0 {
                0.0
            } else {
                1e9 * rec.ratio("query.rewrite", "query.coeffs")
            },
        ),
        plain("query.coeffs_per_batch", "count", mean("query.coeffs")),
        plain(
            "core.master_build_ms_per_batch",
            "ms",
            1e3 * mean("core.master_build"),
        ),
        plain(
            "core.master_keys_per_batch",
            "count",
            mean("fixed.master_keys"),
        ),
        plain(
            "core.sharing_ratio",
            "ratio",
            rec.ratio("query.coeffs", "core.master_keys"),
        ),
        plain(
            "core.score_heap_ms_per_batch",
            "ms",
            1e3 * mean("core.score_heap"),
        ),
        plain(
            "penalty.importance_ns_per_column",
            "ns",
            1e9 * rec.ratio("penalty.importance", "penalty.columns"),
        ),
        plain(
            "core.step_self_ns",
            "ns",
            1e9 * div(
                rec.sum("core.run") - rec.sum("core.replay_store_s"),
                rec.sum("core.steps"),
            ),
        ),
        plain(
            "core.steps_per_s",
            "1/s",
            rec.ratio("core.steps", "core.run"),
        ),
        timing(
            rec,
            "core.report_us_per_call",
            "us",
            "core.report",
            0.5,
            1e6,
        ),
        plain("storage.fetch_calls", "count", rec.sum("fixed.fetch_calls")),
        plain("storage.fetch_keys", "count", rec.sum("fixed.fetch_keys")),
        plain(
            "storage.keys_per_call",
            "ratio",
            rec.ratio("fixed.fetch_keys", "fixed.fetch_calls"),
        ),
        plain("storage.fetch_busy_s", "s", rec.sum("fixed.fetch_busy_s")),
        plain("storage.fetch_p50_us", "us", quantile(&latencies, 0.5)),
        plain("storage.fetch_p99_us", "us", quantile(&latencies, 0.99)),
        plain("storage.errors", "count", rec.sum("fixed.fetch_errors")),
        plain("storage.cache_hit_ratio", "ratio", cache_hit),
        plain("storage.refetch_ratio", "ratio", refetch),
        plain(
            "storage.dedup_hits",
            "count",
            fixture
                .stack
                .dedup_hits
                .as_ref()
                .map_or(0.0, |hits| hits() as f64),
        ),
        plain("storage.shard_rpcs", "count", rec.sum("fixed.shard_rpcs")),
        plain(
            "storage.shard_keys_per_rpc",
            "ratio",
            div(shard_keys, rec.sum("fixed.shard_rpcs")),
        ),
        plain(
            "storage.shard_imbalance",
            "ratio",
            div(shard_max * fixture.shard_keys.len() as f64, shard_keys),
        ),
        timing(
            rec,
            "storage.publish_us_p50",
            "us",
            "storage.publish",
            0.5,
            1e6,
        ),
        timing(
            rec,
            "storage.publish_us_p95",
            "us",
            "storage.publish",
            0.95,
            1e6,
        ),
        timing(
            rec,
            "relation.point_transform_us_p50",
            "us",
            "relation.point_transform",
            0.5,
            1e6,
        ),
        plain(
            "storage.retained_versions",
            "count",
            quantile(rec.samples("storage.retained_versions"), 1.0),
        ),
        timing(rec, "live.publish_p50_us", "us", "live.publish", 0.5, 1e6),
        timing(rec, "live.publish_p95_us", "us", "live.publish", 0.95, 1e6),
        plain("serve.wall_ms_per_wave", "ms", 1e3 * div(serve_s, waves)),
        plain("serve.slices_per_batch", "count", mean("serve.slices")),
        plain(
            "serve.pool_efficiency",
            "ratio",
            div(serial_s, fixture.workers as f64 * rec.sum("serve.exact")),
        ),
        plain(
            "serve.overlap_factor",
            "ratio",
            div(rec.sum("storage.busy_s"), serve_s),
        ),
        timing(rec, "relation.load_s", "s", "relation.load", 0.5, 1.0),
        timing(
            rec,
            "query.transform_data_s",
            "s",
            "query.transform_data",
            0.5,
            1.0,
        ),
        timing(rec, "storage.build_s", "s", "storage.build", 0.5, 1.0),
        plain("storage.view_nnz", "count", fixture.view_nnz as f64),
        plain(
            "obs.trace_overhead_ratio",
            "ratio",
            rec.ratio("obs.traced_serve", "obs.plain_serve"),
        ),
        plain(
            "obs.span_events_per_batch",
            "count",
            rec.ratio("obs.span_events", "obs.batches"),
        ),
        plain(
            "harness.trace_overhead_ratio",
            "ratio",
            div(rec.quantile("wave.exact_s", 0.5), untraced_p50),
        ),
    ]
}

/// `(storage.cache_hit_ratio, storage.refetch_ratio)`: 1 − physical keys ÷
/// logical retrievals, and the exact pass's physical keys ÷ the wave's
/// distinct keys.
fn cache_ratios(rec: &Recorder) -> (f64, f64) {
    let logical = rec.sum("eps.retrieved") + rec.sum("exact.retrieved");
    (
        1.0 - div(rec.sum("storage.keys"), logical),
        rec.ratio("storage.exact_keys", "storage.distinct_keys"),
    )
}

/// Evaluates the workload-premise guards; returns whether all hold.
fn guards(fixture: &Fixture<'_>, rec: &Recorder, traced: bool, messages: &mut Vec<String>) -> bool {
    let mut ok = true;
    let mut guard = |name: &str, holds: bool, detail: String| {
        messages.push(format!(
            "guard {name}: {} ({detail})",
            if holds { "holds" } else { "VIOLATED" }
        ));
        ok &= holds;
    };
    let kind = fixture.kind;
    let eps_share = rec.ratio("eps.retrieved", "core.master_keys");
    guard(
        "eps_retrieval_share",
        eps_share > 0.02 && eps_share < 0.90,
        format!("ε pass retrieved {eps_share:.4} of master keys, want 0.02–0.90"),
    );
    let wave_s = rec.sum("wave.front_s") + rec.sum("serve.eps") + rec.sum("serve.exact");
    match kind {
        Kind::DashMem if traced => {
            let share = div(rec.sum("storage.busy_s"), wave_s);
            // The premise is "under a tenth"; the threshold leaves room
            // for `TimedStore`'s own two clock reads per ~0.2 µs lookup,
            // which are in the numerator.
            guard(
                "store_is_free",
                share < 0.15,
                format!("store busy {share:.4} of wave time, want < 0.15"),
            );
        }
        Kind::RemoteShards | Kind::DrillCached => {
            let share = div(rec.sum("wave.front_s"), wave_s);
            guard(
                "front_end_is_noise",
                share < 0.25,
                format!("front end {share:.4} of wave time, want < 0.25"),
            );
        }
        _ => {}
    }
    if kind == Kind::DrillCached && traced {
        let (hit, refetch) = cache_ratios(rec);
        guard(
            "cache_is_partial",
            hit > 0.05 && hit < 0.95,
            format!("cache hit ratio {hit:.4}, want 0.05–0.95"),
        );
        guard(
            "working_set_exceeds_cache",
            refetch > 1.0,
            format!("refetch ratio {refetch:.4}, want > 1"),
        );
    }
    if kind == Kind::LivePrepared {
        let least = quantile(rec.samples("live.landed_in_flight"), 0.0);
        guard(
            "writes_beside_reads",
            least >= 1.0,
            format!("fewest publishes landing in flight in one wave: {least}, want >= 1"),
        );
    }
    ok
}

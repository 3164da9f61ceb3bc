//! ✦ Criterion benchmark for the asynchronous completion engine: the same
//! serve workload over a `LatencyStore` charging wall-clock latency per
//! round-trip, run blocking (workers stall on every fetch) vs overlapped
//! (batches park over in-flight completions and the pool advances other
//! batches) vs that engine beneath the pool's shared cache. Writes the
//! headline throughput ratios and round-trip counts to
//! `results/BENCH_exec.json` under `bench_async_overlap` — the thresholds
//! `progress_report --mode check_bench` and the CI `--slow-store` gate
//! enforce.

use criterion::{criterion_group, criterion_main, Criterion};

use batchbb_bench::report::{results_dir, write_section, Json};
use batchbb_bench::slow::{OverlapConfig, OverlapFixture};

fn bench_async_overlap(c: &mut Criterion) {
    let cfg = OverlapConfig::default();
    let fixture = OverlapFixture::build(cfg.clone());

    let mut g = c.benchmark_group("async_overlap");
    g.sample_size(10);
    g.bench_function("blocking", |b| b.iter(|| fixture.serve_blocking()));
    g.bench_function("overlapped", |b| b.iter(|| fixture.serve_overlapped()));
    g.bench_function("cached", |b| b.iter(|| fixture.serve_cached()));
    g.finish();

    let report = fixture.measure();
    assert_eq!(
        report.blocking.estimates, report.overlapped.estimates,
        "parking must not change any final estimate"
    );
    assert_eq!(
        report.blocking.estimates, report.cached.estimates,
        "the shared cache must not change any final estimate"
    );
    eprintln!(
        "async overlap: blocking {:.0} retrievals/s ({} round-trips, {:.3}s) vs \
         overlapped {:.0} retrievals/s ({} round-trips, {:.3}s): speedup {:.2}x \
         at {} workers, {} batches, W={}, {}us/round-trip",
        report.blocking.throughput,
        report.blocking.store_calls,
        report.blocking.elapsed_secs,
        report.overlapped.throughput,
        report.overlapped.store_calls,
        report.overlapped.elapsed_secs,
        report.speedup,
        cfg.workers,
        cfg.batches,
        cfg.window,
        cfg.latency.as_micros(),
    );
    eprintln!(
        "async overlap, shared cache above the engine: {:.0} retrievals/s \
         ({} round-trips, {:.3}s): speedup {:.2}x over blocking",
        report.cached.throughput,
        report.cached.store_calls,
        report.cached.elapsed_secs,
        report.cached_speedup,
    );
    write_section(
        &results_dir().join("BENCH_exec.json"),
        "bench_async_overlap",
        &Json::obj([
            ("batches", Json::U64(cfg.batches as u64)),
            ("queries_per_batch", Json::U64(cfg.queries_per_batch as u64)),
            ("workers", Json::U64(cfg.workers as u64)),
            ("window", Json::U64(cfg.window as u64)),
            ("latency_us", Json::U64(cfg.latency.as_micros() as u64)),
            ("io_threads", Json::U64(cfg.io_threads as u64)),
            (
                "blocking_elapsed_s",
                Json::F64(report.blocking.elapsed_secs),
            ),
            (
                "blocking_store_calls",
                Json::U64(report.blocking.store_calls),
            ),
            (
                "blocking_throughput_retrievals_per_s",
                Json::F64(report.blocking.throughput),
            ),
            (
                "overlapped_elapsed_s",
                Json::F64(report.overlapped.elapsed_secs),
            ),
            (
                "overlapped_store_calls",
                Json::U64(report.overlapped.store_calls),
            ),
            (
                "overlapped_throughput_retrievals_per_s",
                Json::F64(report.overlapped.throughput),
            ),
            ("speedup", Json::F64(report.speedup)),
            ("cached_elapsed_s", Json::F64(report.cached.elapsed_secs)),
            ("cached_store_calls", Json::U64(report.cached.store_calls)),
            (
                "cached_throughput_retrievals_per_s",
                Json::F64(report.cached.throughput),
            ),
            ("cached_speedup", Json::F64(report.cached_speedup)),
        ]),
    );
}

criterion_group!(benches, bench_async_overlap);
criterion_main!(benches);

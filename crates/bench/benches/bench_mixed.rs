//! ✦ Criterion benchmark for the mixed update+query workload: the serve
//! pool over a `VersionedStore` with a driver streaming point-update
//! batches as zero-coordination publishes. Writes the update-latency
//! numbers to `results/BENCH_exec.json` under `bench_mixed_update` — the
//! ceiling `progress_report --check-bench` and the CI `--mixed` gate
//! enforce.

use criterion::{criterion_group, criterion_main, Criterion};

use batchbb_bench::mixed::{MixedConfig, MixedFixture};
use batchbb_bench::report::{results_dir, write_section, Json};

fn bench_mixed_update(c: &mut Criterion) {
    let cfg = MixedConfig::default();
    let fixture = MixedFixture::build(cfg.clone());

    let mut g = c.benchmark_group("mixed_workload");
    g.sample_size(10);
    g.bench_function("versioned", |b| b.iter(|| fixture.serve_versioned()));
    g.finish();

    let run = fixture.serve_versioned();
    eprintln!(
        "mixed workload: versioned publish {:.1}us mean / {:.1}us max \
         at {} workers, {} batches, {} updates x {} points",
        run.update_mean_s * 1e6,
        run.update_max_s * 1e6,
        cfg.workers,
        cfg.batches,
        cfg.updates,
        cfg.points_per_update,
    );
    write_section(
        &results_dir().join("BENCH_exec.json"),
        "bench_mixed_update",
        &Json::obj([
            ("batches", Json::U64(cfg.batches as u64)),
            ("queries_per_batch", Json::U64(cfg.queries_per_batch as u64)),
            ("workers", Json::U64(cfg.workers as u64)),
            ("slice_steps", Json::U64(cfg.slice_steps as u64)),
            ("updates", Json::U64(cfg.updates as u64)),
            ("points_per_update", Json::U64(cfg.points_per_update as u64)),
            ("versioned_update_mean_s", Json::F64(run.update_mean_s)),
            ("versioned_update_max_s", Json::F64(run.update_max_s)),
            ("versioned_elapsed_s", Json::F64(run.elapsed_secs)),
        ]),
    );
}

criterion_group!(benches, bench_mixed_update);
criterion_main!(benches);

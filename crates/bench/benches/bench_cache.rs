//! ✦ Criterion benchmark for the shared cache's eviction policies:
//! hit-rate vs memory curves for [`ShardedCachingStore`] under
//! importance-weighted eviction vs the pure-LRU baseline, on a
//! hot-prefix + cold-scan trace modeling concurrent batches.  Print-only:
//! the curves are deterministic counts, and the floor on the headline
//! constrained-capacity advantage is asserted by `cachebench`'s own unit
//! test on this same default configuration.
//!
//! [`ShardedCachingStore`]: batchbb_storage::ShardedCachingStore

use criterion::{criterion_group, criterion_main, Criterion};

use batchbb_bench::cachebench::{CacheBenchConfig, CacheFixture};
use batchbb_storage::EvictionPolicy;

fn bench_cache_eviction(c: &mut Criterion) {
    let fixture = CacheFixture::build(CacheBenchConfig::default());
    let cfg = fixture.config().clone();

    let mut g = c.benchmark_group("cache_eviction");
    g.sample_size(10);
    let constrained = cfg.capacities[cfg.capacities.len() / 2];
    g.bench_function("importance_weighted_replay", |b| {
        b.iter(|| fixture.replay(EvictionPolicy::ImportanceWeighted, constrained))
    });
    g.bench_function("lru_only_replay", |b| {
        b.iter(|| fixture.replay(EvictionPolicy::LruOnly, constrained))
    });
    g.finish();

    let report = fixture.measure();
    for (label, points) in [("importance", &report.importance), ("lru", &report.lru)] {
        for p in points {
            eprintln!(
                "cache eviction [{label:>10}]: capacity {:>5}: hit rate {:.3}, \
                 {:>6} physical reads, {:>6} evictions",
                p.capacity, p.hit_rate, p.physical_reads, p.evictions
            );
        }
    }
    eprintln!(
        "cache eviction: at capacity {} importance-weighted hits {:.3} vs LRU {:.3} \
         (advantage {:.3})",
        report.constrained_capacity,
        report.iw_hit_constrained,
        report.lru_hit_constrained,
        report.iw_advantage,
    );
}

criterion_group!(benches, bench_cache_eviction);
criterion_main!(benches);

//! Criterion benchmarks for the coefficient stores, including the
//! ✦ block-layout ablation (KeyOrder vs LevelMajor vs ImportanceOrder
//! under a progressive access pattern).  The layout comparison runs
//! through an [`InstrumentedStore`], so alongside criterion's wall-clock
//! numbers it reports the per-layout fetch latency distribution
//! (p50/p95/p99 from the `store.try_get_ns` histogram) — the tail is where
//! the layouts differ.  A separate head-scan pass drives each layout with
//! batched `try_get_many` windows and reports physical block reads: with
//! the store laid out in the workload's own importance order, the head of
//! the progression packs into the fewest blocks (gated by an assert, so
//! the CI smoke run trips if the layout regresses).  Print-only.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use batchbb_storage::{
    ArrayStore, CoefficientStore, FaultInjectingStore, FaultPlan, InstrumentedStore, MemoryStore,
};
#[cfg(unix)]
use batchbb_storage::{BlockLayout, BlockStore, FileStore};
use batchbb_tensor::{CoeffKey, Shape, Tensor};

fn entries(n: usize) -> Vec<(CoeffKey, f64)> {
    (0..n)
        .map(|i| (CoeffKey::new(&[i % 256, i / 256]), (i % 97) as f64 + 0.5))
        .collect()
}

/// A coarse-to-fine access pattern approximating the progressive order.
fn access_pattern(n: usize) -> Vec<CoeffKey> {
    let mut keys: Vec<CoeffKey> = entries(n).into_iter().map(|(k, _)| k).collect();
    keys.sort_by_key(|k| {
        k.coords()
            .iter()
            .map(|&c| if c == 0 { 0 } else { c.ilog2() + 1 })
            .sum::<u32>()
    });
    keys
}

fn bench_get_throughput(c: &mut Criterion) {
    let n = 1 << 16;
    let es = entries(n);
    let pattern = access_pattern(n);
    let mut g = c.benchmark_group("store_get_64k_coeffs");
    g.sample_size(20);

    let mem = MemoryStore::from_entries(es.clone());
    g.bench_function("memory", |b| {
        b.iter(|| {
            pattern
                .iter()
                .map(|k| mem.get(k).unwrap_or(0.0))
                .sum::<f64>()
        })
    });

    let shape = Shape::new(vec![256, 256]).unwrap();
    let mut t = Tensor::zeros(shape);
    for (k, v) in &es {
        t[&[k.coord(0), k.coord(1)]] = *v;
    }
    let arr = ArrayStore::from_tensor(t);
    g.bench_function("array", |b| {
        b.iter(|| {
            pattern
                .iter()
                .map(|k| arr.get(k).unwrap_or(0.0))
                .sum::<f64>()
        })
    });

    // Overhead of the fault-injection wrapper when it injects nothing: the
    // cost of routing retrievals through `try_get` plus per-key attempt
    // bookkeeping, against the bare store above.
    let wrapped =
        FaultInjectingStore::new(MemoryStore::from_entries(es.clone()), FaultPlan::new(0));
    g.bench_function("memory_fault_wrapper_zero_rate", |b| {
        b.iter(|| {
            pattern
                .iter()
                .map(|k| wrapped.try_get(k).unwrap().unwrap_or(0.0))
                .sum::<f64>()
        })
    });

    #[cfg(unix)]
    bench_disk_stores(&mut g, &es, &pattern);
    g.finish();
}

/// The three layouts under comparison.  `ImportanceOrder` is keyed to the
/// benchmark's own progressive access pattern: position `i` in the pattern
/// gets importance `n - i`, so the store packs coefficients in exactly the
/// order the scan will want them.
#[cfg(unix)]
fn layouts(pattern: &[CoeffKey]) -> Vec<(&'static str, BlockLayout)> {
    let n = pattern.len();
    let ranking: batchbb_tensor::KeyMap<f64> = pattern
        .iter()
        .enumerate()
        .map(|(i, k)| (*k, (n - i) as f64))
        .collect();
    vec![
        ("KeyOrder", BlockLayout::KeyOrder),
        ("LevelMajor", BlockLayout::LevelMajor),
        (
            "ImportanceOrder",
            BlockLayout::ImportanceOrder(std::sync::Arc::new(ranking)),
        ),
    ]
}

#[cfg(unix)]
fn bench_disk_stores(
    g: &mut criterion::BenchmarkGroup<'_>,
    es: &[(CoeffKey, f64)],
    pattern: &[CoeffKey],
) {
    let fpath = std::env::temp_dir().join(format!("batchbb-bench-file-{}", std::process::id()));
    let file = FileStore::create(&fpath, es.to_vec()).unwrap();
    g.bench_function("file", |b| {
        b.iter(|| {
            pattern
                .iter()
                .map(|k| file.get(k).unwrap_or(0.0))
                .sum::<f64>()
        })
    });

    for (name, layout) in layouts(pattern) {
        let bpath =
            std::env::temp_dir().join(format!("batchbb-bench-block-{name}-{}", std::process::id()));
        let block = InstrumentedStore::new(
            BlockStore::create(&bpath, es.to_vec(), 512, 16, layout).unwrap(),
        );
        g.bench_with_input(BenchmarkId::new("block", name), &block, |b, store| {
            b.iter(|| {
                pattern
                    .iter()
                    .map(|k| store.get(k).unwrap_or(0.0))
                    .sum::<f64>()
            })
        });
        let st = block.stats();
        let snap = block.registry().snapshot();
        let lat = snap
            .histogram("store.try_get_ns")
            .expect("instrumented benches record latency");
        let (p50, p95, p99) = lat.p50_p95_p99();
        eprintln!(
            "block {name}: {} physical reads / {} retrievals ({} hits); \
             fetch latency p50 <= {p50} ns, p95 <= {p95} ns, p99 <= {p99} ns \
             over {} timed gets",
            st.physical_reads, st.retrievals, st.cache_hits, lat.count
        );
        drop(block);
        std::fs::remove_file(&bpath).unwrap();
    }
    std::fs::remove_file(&fpath).unwrap();

    head_scan_block_reads(g, es, pattern);
}

/// ✦ The progressive head scan: the first 4 096 coefficients of the
/// progression, fetched as 64-key `try_get_many` windows (the executor's
/// prefetch path) against a deliberately tiny 4-block pool, so every
/// working-set miss is a real block read.  Reports physical reads per
/// layout and asserts the acceptance criterion: ImportanceOrder does
/// strictly fewer block reads than KeyOrder.
#[cfg(unix)]
fn head_scan_block_reads(
    g: &mut criterion::BenchmarkGroup<'_>,
    es: &[(CoeffKey, f64)],
    pattern: &[CoeffKey],
) {
    let head = &pattern[..4096.min(pattern.len())];
    let mut reads: Vec<(&str, u64)> = Vec::new();
    for (name, layout) in layouts(pattern) {
        let bpath =
            std::env::temp_dir().join(format!("batchbb-bench-head-{name}-{}", std::process::id()));
        let store = BlockStore::create(&bpath, es.to_vec(), 512, 4, layout).unwrap();
        for window in head.chunks(64) {
            store.try_get_many(window).unwrap();
        }
        let st = store.stats();
        eprintln!(
            "head scan {name}: {} block reads / {} retrievals ({} hits) \
             over {} keys in 64-key try_get_many windows",
            st.physical_reads,
            st.retrievals,
            st.cache_hits,
            head.len()
        );
        reads.push((name, st.physical_reads));
        g.bench_with_input(
            BenchmarkId::new("head_scan_batched", name),
            &store,
            |b, store| {
                b.iter(|| {
                    head.chunks(64)
                        .flat_map(|w| store.try_get_many(w).unwrap())
                        .map(|v| v.unwrap_or(0.0))
                        .sum::<f64>()
                })
            },
        );
        drop(store);
        std::fs::remove_file(&bpath).unwrap();
    }
    let by_name = |n: &str| reads.iter().find(|(name, _)| *name == n).unwrap().1;
    assert!(
        by_name("ImportanceOrder") < by_name("KeyOrder"),
        "ImportanceOrder must do strictly fewer block reads than KeyOrder \
         on the progressive head scan: {reads:?}"
    );
}

criterion_group!(benches, bench_get_throughput);
criterion_main!(benches);

//! Store-contract conformance: on every store in this crate `try_get` ≡
//! `submit` (values, logical retrievals, first error), and every
//! pass-through wrapper forwards `version_tag` and `quiesce` to the store
//! it wraps.

#[path = "common/forwarding.rs"]
mod forwarding;

use std::sync::Arc;

use batchbb_storage::{
    ArrayStore, AsyncFetchStore, FaultInjectingStore, FaultPlan, HedgeConfig, InstrumentedStore,
    LatencyStore, MemoryStore, ShardClient, ShardRouter, ShardedCachingStore, VersionedStore,
};
#[cfg(unix)]
use batchbb_storage::{BlockLayout, BlockStore, FileStore};
use batchbb_tensor::{CoeffKey, Shape, Tensor};
use forwarding::{faults_agree, reads_agree, Harness};

/// The loaded entries of the leaf stores below, and a window over them:
/// present, absent and repeated keys, out of key order.
fn leaf_entries() -> Vec<(CoeffKey, f64)> {
    (0..24)
        .map(|i| (CoeffKey::new(&[i % 8, i / 8]), i as f64 - 7.5))
        .collect()
}

fn leaf_window(with_absent: bool) -> Vec<CoeffKey> {
    let mut window: Vec<CoeffKey> = [17, 3, 3, 20, 0, 11, 17]
        .iter()
        .map(|&i| leaf_entries()[i].0)
        .collect();
    if with_absent {
        window.insert(2, CoeffKey::new(&[7, 7]));
        window.push(CoeffKey::new(&[5, 6]));
    }
    window
}

#[test]
fn leaf_stores_read_alike_singly_and_by_window() {
    let entries = leaf_entries;
    reads_agree(
        &MemoryStore::from_entries(entries()),
        &leaf_window(true),
        "MemoryStore",
    );
    let versioned = VersionedStore::from_entries(entries());
    reads_agree(&versioned, &leaf_window(true), "VersionedStore");
    reads_agree(&versioned.pin(), &leaf_window(true), "VersionView");
    let mut tensor = Tensor::zeros(Shape::new(vec![8, 8]).unwrap());
    for (key, value) in entries() {
        tensor[&[key.coord(0), key.coord(1)]] = value;
    }
    // Dense: every in-domain key is present.
    reads_agree(
        &ArrayStore::from_tensor(tensor),
        &leaf_window(false),
        "ArrayStore",
    );
    #[cfg(unix)]
    {
        let path = |what: &str| {
            std::env::temp_dir().join(format!("batchbb-contract-{what}-{}", std::process::id()))
        };
        let file = path("file");
        reads_agree(
            &FileStore::create(&file, entries()).unwrap(),
            &leaf_window(true),
            "FileStore",
        );
        std::fs::remove_file(&file).unwrap();
        let block = path("block");
        // Pool of two five-slot blocks: the window evicts as it goes.
        let store = BlockStore::create(&block, entries(), 5, 2, BlockLayout::KeyOrder).unwrap();
        reads_agree(&store, &leaf_window(true), "BlockStore");
        std::fs::remove_file(&block).unwrap();
    }
}

#[test]
fn reference_forwards() {
    let h = Harness::new();
    let probe = h.probe();
    h.check(&&probe, "&S");
}

#[test]
fn latency_store_forwards() {
    let h = Harness::new();
    h.check(&LatencyStore::new(h.probe(), 0, 0), "LatencyStore");
    faults_agree(|inner| LatencyStore::new(inner, 0, 0), "LatencyStore");
}

#[test]
fn instrumented_store_forwards() {
    let h = Harness::new();
    h.check(&InstrumentedStore::new(h.probe()), "InstrumentedStore");
    faults_agree(InstrumentedStore::new, "InstrumentedStore");
}

#[test]
fn fault_injecting_store_forwards() {
    let h = Harness::new();
    h.check(
        &FaultInjectingStore::new(h.probe(), FaultPlan::new(1)),
        "FaultInjectingStore",
    );
    faults_agree(|inner| inner, "FaultInjectingStore");
}

#[test]
fn sharded_caching_store_forwards() {
    let h = Harness::new();
    h.check(&ShardedCachingStore::new(h.probe()), "ShardedCachingStore");
    faults_agree(ShardedCachingStore::new, "ShardedCachingStore");
}

#[test]
fn async_fetch_store_forwards() {
    let h = Harness::new();
    h.check(&AsyncFetchStore::new(h.probe(), 2), "AsyncFetchStore");
    faults_agree(|inner| AsyncFetchStore::new(inner, 2), "AsyncFetchStore");
    // The stack `serve` builds: the shared cache above the engine.
    faults_agree(
        |inner| ShardedCachingStore::new(AsyncFetchStore::new(inner, 2)),
        "cache over engine",
    );
}

#[test]
fn shard_router_forwards() {
    let h = Harness::new();
    let client = ShardClient::new(Arc::new(h.probe()));
    h.check(
        &ShardRouter::new(vec![client], HedgeConfig::default()),
        "ShardRouter",
    );
    faults_agree(
        |inner| {
            ShardRouter::new(
                vec![ShardClient::new(Arc::new(inner))],
                HedgeConfig::default(),
            )
        },
        "ShardRouter",
    );
}

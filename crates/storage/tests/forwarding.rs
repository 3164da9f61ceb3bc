//! Forwarding conformance: every pass-through wrapper in this crate
//! forwards `version_tag` and `quiesce` to the store it wraps.

#[path = "common/forwarding.rs"]
mod forwarding;

use std::sync::Arc;

use batchbb_storage::{
    AsyncFetchStore, FaultInjectingStore, FaultPlan, HedgeConfig, InstrumentedStore, LatencyStore,
    ShardClient, ShardRouter, ShardedCachingStore,
};
use forwarding::Harness;

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
}

#[test]
fn instrumented_store_forwards() {
    let h = Harness::new();
    h.check(&InstrumentedStore::new(h.probe()), "InstrumentedStore");
}

#[test]
fn fault_injecting_store_forwards() {
    let h = Harness::new();
    h.check(
        &FaultInjectingStore::new(h.probe(), FaultPlan::new(1)),
        "FaultInjectingStore",
    );
}

#[test]
fn sharded_caching_store_forwards() {
    let h = Harness::new();
    h.check(&ShardedCachingStore::new(h.probe()), "ShardedCachingStore");
}

#[test]
fn async_fetch_store_forwards() {
    let h = Harness::new();
    h.check(&AsyncFetchStore::new(h.probe(), 2), "AsyncFetchStore");
}

#[test]
fn shard_router_forwards() {
    let h = Harness::new();
    let client = ShardClient::new(Arc::new(h.probe()));
    h.check(
        &ShardRouter::new(vec![client], HedgeConfig::default()),
        "ShardRouter",
    );
}

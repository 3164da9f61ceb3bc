//! The slow-store latency-hiding smoke: the CI `--slow-store` gate.
//!
//! Over a store charging ≥1 ms per physical round-trip, the serve pool
//! backed by the asynchronous completion engine must sustain at least 3×
//! the throughput of the blocking baseline *at equal worker count* —
//! that is the whole point of parking batches over in-flight fetches.
//! The smoke also holds the engine to the determinism contract: both
//! sides must produce bit-identical final estimates, and overlapping must
//! not inflate the physical round-trip count. A third arm serves the same
//! engine through the pool's shared cache (`share_cache(true)`) and must
//! clear the same floor, also with no more round-trips than the blocking
//! baseline. (The two engine arms are not ordered against each other: the
//! engine sends whatever is queued when an I/O thread frees as one
//! round-trip, so their counts depend on queue timing; only the blocking
//! arm's count is a function of the input.)

use std::time::Duration;

use batchbb_bench::slow::{OverlapConfig, OverlapFixture};

#[test]
fn overlapped_pool_beats_blocking_threefold() {
    let fixture = OverlapFixture::build(OverlapConfig {
        latency: Duration::from_millis(2),
        ..OverlapConfig::default()
    });
    let report = fixture.measure();
    eprintln!(
        "slow-store smoke: blocking {:.1} retrievals/s ({} round-trips, {:.3}s), \
         overlapped {:.1} retrievals/s ({} round-trips, {:.3}s), speedup {:.2}x",
        report.blocking.throughput,
        report.blocking.store_calls,
        report.blocking.elapsed_secs,
        report.overlapped.throughput,
        report.overlapped.store_calls,
        report.overlapped.elapsed_secs,
        report.speedup,
    );

    assert_eq!(
        report.blocking.estimates, report.overlapped.estimates,
        "parking must not change any final estimate (bit-identity contract)"
    );
    assert_eq!(
        report.blocking.retrieved, report.overlapped.retrieved,
        "both engines walk the same importance order end to end"
    );
    assert!(
        report.overlapped.store_calls <= report.blocking.store_calls,
        "overlap hides latency, it must not add round-trips: {} > {}",
        report.overlapped.store_calls,
        report.blocking.store_calls,
    );
    // The composition row: the same engine beneath the pool's shared
    // cache. The cache forwards each window's misses as one non-blocking
    // submit, so it must keep the overlap and, like the bare engine, can
    // only remove round-trips from the blocking count.
    eprintln!(
        "slow-store smoke: cached {:.1} retrievals/s ({} round-trips, {:.3}s), speedup {:.2}x",
        report.cached.throughput,
        report.cached.store_calls,
        report.cached.elapsed_secs,
        report.cached_speedup,
    );
    assert_eq!(
        report.blocking.estimates, report.cached.estimates,
        "the shared cache must not change any final estimate"
    );
    assert_eq!(report.blocking.retrieved, report.cached.retrieved);
    assert!(
        report.cached.store_calls <= report.blocking.store_calls,
        "a cache above the engine must not add round-trips: {} > {}",
        report.cached.store_calls,
        report.blocking.store_calls,
    );
    assert!(
        report.cached_speedup >= 3.0,
        "cache over engine lost the overlap: cached/blocking throughput {:.2}x < 3x \
         (blocking {:.3}s vs cached {:.3}s)",
        report.cached_speedup,
        report.blocking.elapsed_secs,
        report.cached.elapsed_secs,
    );
    assert!(
        report.speedup >= 3.0,
        "latency hiding regressed: overlapped/blocking throughput {:.2}x < 3x \
         (blocking {:.3}s vs overlapped {:.3}s)",
        report.speedup,
        report.blocking.elapsed_secs,
        report.overlapped.elapsed_secs,
    );
}

//! The sharded-retrieval smoke: the timing half of the CI `--sharded`
//! gate (DESIGN.md §15), over sleep-charged mock shards.
//!
//! * **Scaling** — under the spike-free service-rate profile, four shards
//!   must retrieve balanced windows at ≥ 3× the one-shard rate. Losing
//!   per-shard RPC batching (windows degrade to per-key round-trips) or
//!   re-serializing the scatter collapses the curve toward 1×.
//! * **Hedged tail** — with one 10×-slow shard, replicas and hedged reads
//!   must hold the window p99 to ≤ 2× the healthy fleet's: hedge delay
//!   (fleet p99) plus a replica fetch. It breaks if hedges stop firing or
//!   the delay is derived from the slow shard's own ring.
//!
//! Hedging has no end-to-end workload, so its gate lives here; both
//! floors are ratios of runs on the same host, the hedged one of the two
//! sides of one ~1 s trial (best of three), so a slow spell of the host
//! lands on both sides of it.

use batchbb_bench::shardbench::{ShardBenchConfig, ShardFixture};

#[test]
fn four_shards_scale_threefold_and_hedging_contains_a_slow_shard() {
    let fixture = ShardFixture::build(ShardBenchConfig::default());

    let (rows, speedup_4x) = fixture.measure_scaling();
    for row in &rows {
        eprintln!(
            "shard scaling: {} shard(s): {:>9.0} keys/s, mean window {:.3} ms",
            row.shards,
            row.keys_per_sec,
            row.mean_latency_s * 1e3,
        );
    }
    assert!(
        speedup_4x >= 3.0,
        "4-shard retrieval throughput is {speedup_4x:.2}x the 1-shard rate, < 3x: {rows:?}"
    );

    let tail = fixture.measure_tail();
    eprintln!(
        "hedged tail: healthy p99 {:.3} ms, unhedged p99 {:.3} ms ({:.1}x), hedged p99 {:.3} ms \
         ({:.2}x); slow shard: {:?}",
        tail.healthy_p99_s * 1e3,
        tail.slow_unhedged_p99_s * 1e3,
        tail.unhedged_p99_ratio,
        tail.hedged_p99_s * 1e3,
        tail.hedged_p99_ratio,
        tail.slow_shard_stats,
    );
    assert!(
        tail.hedged_p99_ratio <= 2.0,
        "hedged p99 is {:.2}x the healthy p99, > 2x: {tail:?}",
        tail.hedged_p99_ratio
    );
}

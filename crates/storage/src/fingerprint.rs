//! Key hashing shared by the fault injector and the sharded stores.
//!
//! One fingerprint function — `batchbb_tensor`'s `KeyHasher`, which also
//! sits under every key-indexed map — means the deterministic fault
//! sequences ([`crate::FaultInjectingStore`]) and the shard routing
//! ([`crate::ShardRouter`], [`crate::ShardedCachingStore`]) agree with the
//! maps on what "the same key" hashes to.

use batchbb_tensor::CoeffKey;
pub(crate) use batchbb_tensor::{key_fingerprint, mix};

/// The shard a key routes to among `shards` shards (well-mixed, so nearby
/// keys spread across shards instead of piling onto one).
///
/// Public because it is the routing contract of the scatter-gather layer
/// (DESIGN.md §15): [`crate::ShardTopology`] partitions entries with it,
/// [`crate::ShardRouter`] routes reads with it, and callers use it to
/// attribute deferred keys back to the shard that failed them.
pub fn shard_of(key: &CoeffKey, shards: usize) -> usize {
    debug_assert!(shards >= 1);
    (mix(key_fingerprint(key)) % shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_are_used_roughly_evenly() {
        let shards = 8;
        let mut counts = vec![0usize; shards];
        for i in 0..1024 {
            for j in 0..4 {
                counts[shard_of(&CoeffKey::new(&[i, j]), shards)] += 1;
            }
        }
        for (s, &n) in counts.iter().enumerate() {
            assert!(n > 0, "shard {s} never hit");
            // 4096 keys over 8 shards: expect ~512 per shard; allow wide
            // slack, we only need "not all on one shard".
            assert!(n < 2048, "shard {s} absorbed {n} of 4096 keys");
        }
    }

    /// Routing and the seeded fault draws are contracts with recorded
    /// runs (`storage.shard_rpcs` is compared as an exact count; the fault
    /// contract battery replays seeded sequences), so the hash under them
    /// may move house but not value.  Recorded at `dd06e88`, before the
    /// fingerprint moved to `batchbb_tensor`: `(coords, shard_of(·, 4),
    /// shard_of(·, 8), fault_roll(42, ·, 0), fault_roll(0xdead_beef, ·, 3))`,
    /// the draws as `f64` bits.
    #[test]
    fn routing_and_fault_draws_are_pinned() {
        use crate::fault::fault_roll;
        #[rustfmt::skip]
        let pins: [(&[usize], usize, usize, u64, u64); 12] = [
            (&[0], 2, 6, 0x3fea87c73a9ffae9, 0x3feef129da02e3f4),
            (&[7], 3, 3, 0x3fce122f24567ebc, 0x3fdeaa3dc84870cc),
            (&[1023], 3, 7, 0x3fc3a268b3993b20, 0x3f8f7c400b3d02c0),
            (&[0, 0], 3, 7, 0x3fd397d7e50610b0, 0x3fd6bba50dbcb16e),
            (&[1, 2], 3, 7, 0x3fef8d69908fc097, 0x3fda047b5b1e7a8e),
            (&[2, 1], 1, 5, 0x3fe3765f55e59d92, 0x3fb709a956239588),
            (&[513, 64], 0, 4, 0x3fdc7332864ec6c2, 0x3fdbc3a07bec74cc),
            (&[1023, 1023], 3, 7, 0x3fb42eacabae8698, 0x3fef156f3c9cff62),
            (&[1, 2, 3], 2, 2, 0x3fecb8c65ce8dca5, 0x3fe8f9d05d2d13f7),
            (&[0, 0, 0], 3, 3, 0x3fda41e355ff9762, 0x3fdce0a94398a106),
            (&[31, 17, 255], 1, 5, 0x3fc54a6c5cf2e630, 0x3fe70fa70d6b0d20),
            (&[4_000_000_000, 1, 9], 1, 1, 0x3feb4d03c67b0e38, 0x3fe2296a4c355b2b),
        ];
        for (coords, of4, of8, roll_a, roll_b) in pins {
            let key = CoeffKey::new(coords);
            assert_eq!(shard_of(&key, 4), of4, "shard_of({key}, 4)");
            assert_eq!(shard_of(&key, 8), of8, "shard_of({key}, 8)");
            assert_eq!(fault_roll(42, &key, 0).to_bits(), roll_a, "draw 0 on {key}");
            assert_eq!(
                fault_roll(0xdead_beef, &key, 3).to_bits(),
                roll_b,
                "draw 3 on {key}"
            );
        }
    }
}

//! Key hashing shared by the fault injector and the sharded stores.
//!
//! One fingerprint function means the deterministic fault sequences
//! ([`crate::FaultInjectingStore`]) and the shard routing
//! ([`crate::VersionedStore`], [`crate::ShardedCachingStore`]) agree on what
//! "the same key" hashes to, and the mixing quality is tested in one place.

use batchbb_tensor::CoeffKey;

/// Mixes a `CoeffKey` into a single word (FNV-1a over coords and rank).
pub(crate) fn key_fingerprint(key: &CoeffKey) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for c in key.coords() {
        h ^= u64::from(*c);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= key.rank() as u64;
    h.wrapping_mul(0x0000_0100_0000_01b3)
}

/// splitmix64 finalizer: a well-mixed pure function of its input.
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

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
    fn fingerprint_distinguishes_rank_and_coords() {
        let a = key_fingerprint(&CoeffKey::new(&[1, 2]));
        let b = key_fingerprint(&CoeffKey::new(&[2, 1]));
        let c = key_fingerprint(&CoeffKey::one(1));
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

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
}

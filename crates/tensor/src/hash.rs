//! The one hash of a coefficient key.
//!
//! Every map keyed by a [`CoeffKey`] (master list, executor, stores,
//! caches, in-flight tables), the shard routing and the seeded fault draws
//! hash a key the same way: an FNV-1a fold over the `rank` live coordinates
//! and the rank, one word per step ([`key_fingerprint`]), finished by the
//! splitmix64 finalizer ([`mix`]).  [`KeyHasher`] is that function as a
//! [`Hasher`], so `KeyMap`'s probe of `key` lands on
//! `mix(key_fingerprint(key))` — the same word `shard_of` reduces.
//!
//! The hash is unkeyed.  That is acceptable because coefficient keys are
//! indices of a bounded domain chosen by the wavelet rewrite, not by the
//! client: the worst probe chain is the domain size over the bucket count
//! (DESIGN.md §6).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};

use crate::CoeffKey;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A `HashMap` under [`KeyHasher`]: keyed by a [`CoeffKey`], or by a
/// `(version tag, CoeffKey)` pair where `K` says so.
pub type KeyMap<V, K = CoeffKey> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;

/// A `HashSet` of [`CoeffKey`]s under [`KeyHasher`].
pub type KeySet = HashSet<CoeffKey, BuildHasherDefault<KeyHasher>>;

/// FNV-1a word fold finished by [`mix`]; see the module docs.
#[derive(Debug, Clone, Copy)]
pub struct KeyHasher(u64);

impl KeyHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(FNV_PRIME);
    }
}

impl Default for KeyHasher {
    #[inline]
    fn default() -> Self {
        KeyHasher(FNV_OFFSET)
    }
}

impl Hasher for KeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        mix(self.0)
    }

    /// Byte-wise FNV-1a: the fallback for anything that is not one of the
    /// word writes below (no production key reaches it).
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.fold(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.fold(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.fold(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.fold(v);
    }
}

impl Hash for CoeffKey {
    /// Feeds the live coordinates and the rank — nothing of the unused
    /// slots, no length prefix.
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        for &c in self.coords() {
            state.write_u32(c);
        }
        state.write_u8(self.rank() as u8);
    }
}

/// Mixes a `CoeffKey` into a single word (FNV-1a over coords and rank):
/// [`KeyHasher`]'s state before its finalizer.
#[inline]
pub fn key_fingerprint(key: &CoeffKey) -> u64 {
    let mut h = KeyHasher::default();
    key.hash(&mut h);
    h.0
}

/// splitmix64 finalizer: a well-mixed pure function of its input.
#[inline]
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash_of<K: Hash>(key: &K) -> u64 {
        BuildHasherDefault::<KeyHasher>::default().hash_one(key)
    }

    #[test]
    fn a_map_probe_is_the_routing_word() {
        for key in [
            CoeffKey::one(5),
            CoeffKey::new(&[513, 64]),
            CoeffKey::new(&[1, 2, 3]),
        ] {
            assert_eq!(hash_of(&key), mix(key_fingerprint(&key)));
        }
    }

    #[test]
    fn equal_keys_hash_equal_through_every_constructor() {
        for c in [0usize, 1, 7, 1023, u32::MAX as usize] {
            assert_eq!(CoeffKey::one(c), CoeffKey::new(&[c]));
            assert_eq!(hash_of(&CoeffKey::one(c)), hash_of(&CoeffKey::new(&[c])));
            let pushed = CoeffKey::one(c).push(9).push(c);
            let built = CoeffKey::new(&[c, 9, c]);
            assert_eq!(pushed, built);
            assert_eq!(hash_of(&pushed), hash_of(&built));
        }
    }

    #[test]
    fn rank_and_coordinate_order_separate() {
        assert_ne!(
            hash_of(&CoeffKey::new(&[1])),
            hash_of(&CoeffKey::new(&[1, 0]))
        );
        assert_ne!(
            hash_of(&CoeffKey::new(&[0])),
            hash_of(&CoeffKey::new(&[0, 0]))
        );
        assert_ne!(
            hash_of(&CoeffKey::new(&[1, 2])),
            hash_of(&CoeffKey::new(&[2, 1]))
        );
        // A version tag folds in ahead of the key.
        let key = CoeffKey::new(&[1, 2]);
        assert_ne!(hash_of(&(0u64, key)), hash_of(&(1u64, key)));
        assert_ne!(hash_of(&(0u64, key)), hash_of(&key));
    }

    /// Over a whole 2^10 × 2^10 grid the bits hashbrown reads behave like a
    /// random function's: the low 20 (bucket index) take ≥ 60 % distinct
    /// values (ideal 1 − 1/e ≈ 63 %) and the top 7 (control byte) are flat.
    #[test]
    fn a_dense_grid_spreads_over_buckets_and_control_bytes() {
        const BITS: u32 = 20;
        let mut hit = vec![false; 1 << BITS];
        let mut control = [0usize; 128];
        for i in 0..1usize << 10 {
            for j in 0..1usize << 10 {
                let h = hash_of(&CoeffKey::new(&[i, j]));
                hit[(h & ((1 << BITS) - 1)) as usize] = true;
                control[(h >> 57) as usize] += 1;
            }
        }
        let distinct = hit.iter().filter(|&&b| b).count();
        assert!(
            distinct as f64 >= 0.60 * (1u64 << BITS) as f64,
            "low {BITS} bits take only {distinct} distinct values"
        );
        let mean = (1usize << BITS) as f64 / 128.0;
        let max = *control.iter().max().unwrap() as f64;
        assert!(control.iter().all(|&n| n > 0), "a control byte is unused");
        assert!(
            max / mean <= 1.1,
            "control bytes skewed: max/mean {}",
            max / mean
        );
    }
}

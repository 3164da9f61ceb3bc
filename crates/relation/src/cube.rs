//! Building the transformed view `Δ̂` — tuple-at-a-time.
//!
//! The wavelet representation is a materialized view of the database
//! (§1.3).  The bulk path — transform the dense `Δ` with the separable DWT
//! and keep the nonzeros, one pass for the initial load — is the strategy's
//! own `LinearStrategy::transform_data` (`batchbb_query`).  This module
//! holds the incremental paths:
//!
//! * [`point_entries`] — the coefficients touched by a single tuple, a
//!   tensor product of 1-D point transforms with `O((L·log N)^d)` entries;
//!   adding them to a `batchbb_storage::MutableStore` implements the
//!   paper's `O((2δ+1)^d log^d N)` incremental insert.  Each 1-D factor is
//!   the lazy transform of a one-cell range, so the delta carries the bits
//!   of the one-cell COUNT query's rewrite;
//! * [`batch_point_entries`] — the streaming-update batch path: the
//!   concatenated point deltas of many tuples, grouped by affected wavelet
//!   support (stable-sorted by coefficient key), so downstream consumers
//!   (`VersionedStore::publish`, `ProgressiveExecutor::advance_version`)
//!   touch each store slot / executor column once per run instead of once
//!   per tuple — with byte-identical results to tuple-at-a-time
//!   maintenance.

use batchbb_tensor::{CoeffKey, Shape};
use batchbb_wavelet::{point_transform, SparseCoeffs, SparseVec1, Wavelet};

/// The sparse coefficient delta produced by inserting one binned point of
/// `weight` at `coords`: `weight · Π_i (point transform of δ_{coords[i]})`.
pub fn point_entries(
    shape: &Shape,
    coords: &[usize],
    weight: f64,
    wavelet: Wavelet,
) -> Vec<(CoeffKey, f64)> {
    assert_eq!(coords.len(), shape.rank(), "coordinate rank mismatch");
    let factors: Vec<SparseVec1> = coords
        .iter()
        .enumerate()
        .map(|(axis, &c)| point_transform(shape.dim(axis), c, 1.0, wavelet))
        .collect();
    SparseCoeffs::tensor_product(&factors, 0.0)
        .entries()
        .iter()
        .map(|&(k, v)| (k, weight * v))
        .collect()
}

/// The coefficient deltas of a whole batch of binned point inserts,
/// grouped by affected wavelet support.
///
/// Semantically this is the concatenation of [`point_entries`] over
/// `points`, *stable-sorted by coefficient key*: entries for the same
/// coefficient (overlapping supports of nearby tuples) become one
/// contiguous run whose within-run order is the tuple order.  Applying the
/// result in order — via `MutableStore::add`, `VersionedStore::publish`,
/// or `ProgressiveExecutor::advance_version` — is byte-identical to
/// applying each tuple's entries one at a time (per-key deltas land in
/// tuple order and distinct keys commute exactly), while the grouping lets
/// every consumer amortize its per-key work across the run.  Deltas are
/// deliberately *not* pre-summed: summing would change the floating-point
/// association and break bit-identity with the tuple-at-a-time path.
pub fn batch_point_entries(
    shape: &Shape,
    points: &[(Vec<usize>, f64)],
    wavelet: Wavelet,
) -> Vec<(CoeffKey, f64)> {
    let mut entries: Vec<(CoeffKey, f64)> = Vec::new();
    for (coords, weight) in points {
        entries.extend(point_entries(shape, coords, *weight, wavelet));
    }
    entries.sort_by_key(|&(key, _)| key);
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Attribute, FrequencyDistribution, Schema};
    use batchbb_wavelet::{dwt_nd, DEFAULT_TOL};
    use std::collections::HashMap;

    fn small_dfd() -> FrequencyDistribution {
        let schema = Schema::new(vec![
            Attribute::new("x", 0.0, 8.0, 3),
            Attribute::new("y", 0.0, 4.0, 2),
        ])
        .unwrap();
        let mut dfd = FrequencyDistribution::new(schema);
        dfd.insert_binned(&[1, 1], 1.0);
        dfd.insert_binned(&[6, 2], 3.0);
        dfd.insert_binned(&[0, 3], 2.0);
        dfd
    }

    #[test]
    fn bulk_matches_incremental() {
        // Inserting points one at a time must converge to the bulk
        // transform of the dense tensor — the update-efficiency claim of
        // §2.1.
        let dfd = small_dfd();
        let shape = dfd.schema().domain();
        for w in [Wavelet::Haar, Wavelet::Db4, Wavelet::Db8] {
            let mut dense = dfd.tensor().clone();
            dwt_nd(&mut dense, w);
            let bulk: HashMap<CoeffKey, f64> = SparseCoeffs::from_tensor(&dense, DEFAULT_TOL)
                .entries()
                .iter()
                .copied()
                .collect();
            let mut incr: HashMap<CoeffKey, f64> = HashMap::new();
            for (coords, weight) in [
                (vec![1usize, 1usize], 1.0),
                (vec![6, 2], 3.0),
                (vec![0, 3], 2.0),
            ] {
                for (k, v) in point_entries(&shape, &coords, weight, w) {
                    *incr.entry(k).or_insert(0.0) += v;
                }
            }
            for (k, v) in &bulk {
                let got = incr.get(k).copied().unwrap_or(0.0);
                assert!((v - got).abs() < 1e-9, "{w} {k}: bulk {v} vs incr {got}");
            }
            for (k, v) in &incr {
                if !bulk.contains_key(k) {
                    assert!(v.abs() < 1e-9, "{w} {k}: spurious incremental {v}");
                }
            }
        }
    }

    #[test]
    fn point_entries_count_is_polylog() {
        let shape = Shape::new(vec![1 << 10, 1 << 10]).unwrap();
        let entries = point_entries(&shape, &[513, 200], 1.0, Wavelet::Db4);
        let per_dim = Wavelet::Db4.len() * 11; // O(L log N)
        assert!(
            entries.len() <= per_dim * per_dim,
            "entries {} exceed (L log N)^2 bound {}",
            entries.len(),
            per_dim * per_dim
        );
    }

    #[test]
    fn weight_scales_linearly() {
        let shape = Shape::new(vec![16]).unwrap();
        let a = point_entries(&shape, &[5], 1.0, Wavelet::Haar);
        let b = point_entries(&shape, &[5], -2.0, Wavelet::Haar);
        let bm: HashMap<CoeffKey, f64> = b.into_iter().collect();
        for (k, v) in a {
            assert!((bm[&k] + 2.0 * v).abs() < 1e-12);
        }
    }

    mod batched_equivalence {
        use super::*;
        use batchbb_storage::{CoefficientStore, MemoryStore, MutableStore, VersionedStore};
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]
            /// The byte-identity contract of [`batch_point_entries`]: for a
            /// random batch of binned point inserts, applying the grouped
            /// batch — to a `MemoryStore` via sequential `add`, or to a
            /// `VersionedStore` via one `publish` — produces exactly the
            /// bits of tuple-at-a-time `point_entries` maintenance.
            #[test]
            fn batched_point_entries_equivalence(
                bx in 1u32..5,
                by in 1u32..5,
                n_points in 1usize..12,
                seed in 0u64..1000,
                haar in any::<bool>(),
            ) {
                let wavelet = if haar { Wavelet::Haar } else { Wavelet::Db4 };
                let shape = Shape::new(vec![1 << bx, 1 << by]).unwrap();
                // Deterministic pseudo-random points; weights include
                // near-cancelling pairs so the zero-eviction rule fires.
                let points: Vec<(Vec<usize>, f64)> = (0..n_points)
                    .map(|i| {
                        let x = ((seed as usize).wrapping_mul(31).wrapping_add(7 * i)) % (1 << bx);
                        let y = ((seed as usize).wrapping_mul(17).wrapping_add(3 * i)) % (1 << by);
                        let w = match i % 4 {
                            0 => 1.5 + i as f64,
                            1 => -(1.5 + (i - 1) as f64),
                            2 => 0.125 * (seed % 7 + 1) as f64,
                            _ => -3.25,
                        };
                        (vec![x, y], w)
                    })
                    .collect();
                // Reference: tuple-at-a-time maintenance.
                let mut tuple_store = MemoryStore::new();
                for (coords, weight) in &points {
                    for (k, v) in point_entries(&shape, coords, *weight, wavelet) {
                        tuple_store.add(k, v);
                    }
                }
                // Batched path, consumed two ways.
                let batch = batch_point_entries(&shape, &points, wavelet);
                let mut add_store = MemoryStore::new();
                for (k, v) in &batch {
                    add_store.add(*k, *v);
                }
                let store = VersionedStore::new();
                store.publish(&batch);
                let versioned = store.pin();
                prop_assert_eq!(add_store.nnz(), tuple_store.nnz());
                prop_assert_eq!(versioned.nnz(), tuple_store.nnz());
                for (k, v) in tuple_store.iter() {
                    let want = Some(v.to_bits());
                    prop_assert_eq!(add_store.get(k).map(f64::to_bits), want);
                    prop_assert_eq!(versioned.get(k).map(f64::to_bits), want);
                }
            }
        }
    }
}

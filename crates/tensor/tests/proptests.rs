//! Property-based tests for shapes, indices and tensors.

use proptest::prelude::*;

use batchbb_tensor::{CoeffKey, IndexIter, KeyHasher, KeyMap, Shape, Tensor};

fn arb_dims() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..6, 1..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// offset/unravel are mutually inverse over the whole domain.
    #[test]
    fn offset_unravel_inverse(dims in arb_dims()) {
        let shape = Shape::new(dims).unwrap();
        for off in 0..shape.len() {
            let idx = shape.unravel(off);
            prop_assert_eq!(shape.offset(&idx).unwrap(), off);
        }
    }

    /// Row-major iteration order matches linear offsets.
    #[test]
    fn index_iter_matches_offsets(dims in arb_dims()) {
        let shape = Shape::new(dims).unwrap();
        for (off, idx) in IndexIter::new(&shape).enumerate() {
            prop_assert_eq!(off, shape.offset(&idx).unwrap());
        }
        prop_assert_eq!(IndexIter::new(&shape).count(), shape.len());
    }

    /// Lane visiting covers every element exactly once per axis.
    #[test]
    fn lanes_partition_elements(dims in arb_dims(), axis_sel in 0usize..4) {
        let shape = Shape::new(dims).unwrap();
        let axis = axis_sel % shape.rank();
        let mut t = Tensor::zeros(shape.clone());
        t.for_each_lane_mut(axis, |lane| {
            for v in lane.iter_mut() {
                *v += 1.0;
            }
        });
        prop_assert!(t.data().iter().all(|&v| v == 1.0));
    }

    /// Inner product is symmetric and bilinear in the first argument.
    #[test]
    fn dot_symmetric_bilinear(
        dims in prop::collection::vec(1usize..5, 1..4),
        s in -4.0f64..4.0,
    ) {
        let shape = Shape::new(dims).unwrap();
        let a = Tensor::from_fn(shape.clone(), |ix| ix.iter().sum::<usize>() as f64 - 2.0);
        let b = Tensor::from_fn(shape.clone(), |ix| (ix.iter().product::<usize>() % 5) as f64);
        prop_assert!((a.dot(&b) - b.dot(&a)).abs() < 1e-12);
        let mut scaled = a.clone();
        scaled.map_inplace(|v| s * v);
        prop_assert!((scaled.dot(&b) - s * a.dot(&b)).abs() < 1e-9 * a.dot(&b).abs().max(1.0));
    }

    /// CoeffKey offset agrees with Shape offset for in-range keys.
    #[test]
    fn key_offset_matches_shape(dims in arb_dims()) {
        let shape = Shape::new(dims).unwrap();
        for off in (0..shape.len()).step_by(1 + shape.len() / 17) {
            let idx = shape.unravel(off);
            let key = CoeffKey::new(&idx);
            prop_assert_eq!(key.offset_in(&shape), off);
        }
    }

    /// Key ordering is a strict total order consistent with coords.
    #[test]
    fn key_order_lexicographic(a in prop::collection::vec(0usize..100, 1..4),
                               b in prop::collection::vec(0usize..100, 1..4)) {
        let (ka, kb) = (CoeffKey::new(&a), CoeffKey::new(&b));
        if a.len() == b.len() {
            prop_assert_eq!(ka.cmp(&kb), a.cmp(&b));
        }
        prop_assert_eq!(ka == kb, a == b && a.len() == b.len());
    }

    /// `a == b ⇒ hash(a) == hash(b)` however the key was built, and a
    /// `KeyMap` finds it again.
    #[test]
    fn equal_keys_hash_equal(coords in prop::collection::vec(0usize..5000, 1..8)) {
        use std::hash::BuildHasher;
        let built = CoeffKey::new(&coords);
        let pushed = coords[1..].iter().fold(CoeffKey::one(coords[0]), |k, &c| k.push(c));
        prop_assert_eq!(built, pushed);
        let hasher = std::hash::BuildHasherDefault::<KeyHasher>::default();
        prop_assert_eq!(hasher.hash_one(built), hasher.hash_one(pushed));
        let mut map: KeyMap<usize> = KeyMap::default();
        map.insert(built, coords.len());
        prop_assert_eq!(map.get(&pushed), Some(&coords.len()));
    }
}

//! Boundary-condition tests: maximum rank, singleton axes, and large
//! single-axis tensors.

use batchbb_tensor::{CoeffKey, IndexIter, Shape, Tensor, MAX_DIMS};

#[test]
fn max_rank_shape_works_end_to_end() {
    let shape = Shape::cube(MAX_DIMS, 2).unwrap();
    assert_eq!(shape.len(), 1 << MAX_DIMS);
    let mut t = Tensor::zeros(shape.clone());
    let corner = vec![1usize; MAX_DIMS];
    t.set(&corner, 9.0).unwrap();
    assert_eq!(t.get(&corner).unwrap(), 9.0);
    let key = CoeffKey::new(&corner);
    assert_eq!(key.offset_in(&shape), shape.len() - 1);
    assert_eq!(IndexIter::new(&shape).count(), shape.len());
    // lanes along every axis still partition the elements
    for axis in 0..MAX_DIMS {
        let mut visited = 0usize;
        t.for_each_lane_mut(axis, |lane| visited += lane.len());
        assert_eq!(visited, shape.len());
    }
}

#[test]
fn singleton_axes_everywhere() {
    let shape = Shape::new(vec![1, 5, 1, 3, 1]).unwrap();
    let t = Tensor::from_fn(shape.clone(), |ix| (ix[1] * 10 + ix[3]) as f64);
    assert_eq!(t.shape().len(), 15);
    assert_eq!(t[&[0, 4, 0, 2, 0]], 42.0);
    assert_eq!(
        shape.unravel(shape.offset(&[0, 4, 0, 2, 0]).unwrap()),
        vec![0, 4, 0, 2, 0]
    );
}

#[test]
fn long_single_axis() {
    let n = 1 << 20;
    let shape = Shape::new(vec![n]).unwrap();
    let mut t = Tensor::zeros(shape);
    t.set(&[n - 1], 1.0).unwrap();
    assert_eq!(t.sum(), 1.0);
    let mut lanes = 0;
    t.for_each_lane_mut(0, |lane| {
        lanes += 1;
        assert_eq!(lane.len(), n);
    });
    assert_eq!(lanes, 1);
}

#[test]
fn axpy_and_map_compose() {
    let shape = Shape::new(vec![4, 4]).unwrap();
    let mut a = Tensor::from_fn(shape.clone(), |ix| ix[0] as f64);
    let b = Tensor::from_fn(shape, |ix| ix[1] as f64);
    a.axpy(2.0, &b);
    a.map_inplace(|v| v * 0.5);
    // a = (x + 2y)/2
    assert_eq!(a[&[3, 1]], 2.5);
    let nonzero = a.data().iter().filter(|v| v.abs() > 1e-12).count();
    assert_eq!(nonzero, 15, "only the origin is zero");
}

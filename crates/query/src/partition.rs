//! Workload generators: partitions of the domain into query ranges.
//!
//! The paper's experiments "partitioned \[the\] entire data domain into 512
//! randomly sized ranges" (§6).  [`random_partition`] reproduces that
//! workload and [`dyadic_partition`] its dyadically aligned variant;
//! [`grid_partition`] builds the regular coarse partitions of the
//! drill-down scenario in §1.  The §6 queries sum the temperature
//! attribute, which the harnesses fold into the cube's cell weights
//! (`to_measure_cube`), so their ranges partition the whole domain of that
//! cube and no generator needs a measure axis.

use batchbb_tensor::Shape;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::HyperRect;

/// Splits the full domain into exactly `cells` randomly sized
/// hyper-rectangles by repeated random binary splits of the largest
/// remaining cell. Deterministic given `seed`.
///
/// # Panics
/// Panics if `cells` is zero or exceeds the number of domain cells.
pub fn random_partition(shape: &Shape, cells: usize, seed: u64) -> Vec<HyperRect> {
    assert!(cells >= 1, "need at least one cell");
    assert!(
        cells <= shape.len(),
        "cannot split {} cells into {cells} ranges",
        shape.len()
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut parts = vec![HyperRect::full(shape)];
    while parts.len() < cells {
        // Split the cell with the largest volume: keeps the partition from
        // degenerating into slivers and guarantees progress.
        let (idx, _) = parts
            .iter()
            .enumerate()
            .max_by_key(|(_, r)| r.volume())
            .expect("partition non-empty");
        let target = parts.swap_remove(idx);
        let splittable: Vec<usize> = (0..target.rank())
            .filter(|&a| target.extent(a) >= 2)
            .collect();
        debug_assert!(
            !splittable.is_empty(),
            "largest cell has volume > 1 so some axis splits"
        );
        let axis = splittable[rng.gen_range(0..splittable.len())];
        let point = rng.gen_range(target.lo()[axis]..target.hi()[axis]);
        let (a, b) = target.split(axis, point);
        parts.push(a);
        parts.push(b);
    }
    parts
}

/// Splits the full domain into `cells` *dyadically aligned* ranges by
/// repeatedly picking a random cell and halving it at the midpoint of a
/// random splittable axis. Deterministic given `seed`.
///
/// Dyadic alignment matters: an aligned range's characteristic function
/// keeps only the root-to-cell path of wavelet coefficients per dimension
/// (a handful instead of `O(log N)` per boundary per level), which is how
/// the paper's 512-query batch averages ≈1800 coefficients per query on a
/// 5-D domain.  [`random_partition`] produces unaligned ranges — the
/// expensive end of the same workload; harnesses use both.
pub fn dyadic_partition(shape: &Shape, cells: usize, seed: u64) -> Vec<HyperRect> {
    assert!(cells >= 1, "need at least one cell");
    assert!(
        cells <= shape.len(),
        "cannot split {} cells into {cells} ranges",
        shape.len()
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut parts = vec![HyperRect::full(shape)];
    while parts.len() < cells {
        // Pick a random splittable cell, biased toward larger cells so the
        // partition keeps "randomly sized" (mixed-depth) ranges without
        // degenerating into unsplittable singletons.
        let candidates: Vec<usize> = (0..parts.len())
            .filter(|&i| (0..parts[i].rank()).any(|a| parts[i].extent(a) >= 2))
            .collect();
        let idx = candidates[rng.gen_range(0..candidates.len())];
        let target = parts.swap_remove(idx);
        let splittable: Vec<usize> = (0..target.rank())
            .filter(|&a| target.extent(a) >= 2)
            .collect();
        let axis = splittable[rng.gen_range(0..splittable.len())];
        let mid = target.lo()[axis] + target.extent(axis) / 2 - 1;
        let (a, b) = target.split(axis, mid);
        parts.push(a);
        parts.push(b);
    }
    parts
}

/// Splits the domain into a regular grid with `per_axis[i]` cells along
/// axis `i` (extents need not divide evenly; remainders go to the last
/// cells).
pub fn grid_partition(shape: &Shape, per_axis: &[usize]) -> Vec<HyperRect> {
    assert_eq!(per_axis.len(), shape.rank(), "per-axis arity mismatch");
    for (a, &c) in per_axis.iter().enumerate() {
        assert!(
            c >= 1 && c <= shape.dim(a),
            "axis {a}: {c} cells out of 1..={}",
            shape.dim(a)
        );
    }
    // Per-axis breakpoints.
    let bounds: Vec<Vec<(usize, usize)>> = per_axis
        .iter()
        .enumerate()
        .map(|(a, &c)| {
            let n = shape.dim(a);
            (0..c)
                .map(|i| {
                    let lo = i * n / c;
                    let hi = ((i + 1) * n / c).min(n) - 1;
                    (lo, hi)
                })
                .collect()
        })
        .collect();
    let mut out = Vec::with_capacity(per_axis.iter().product());
    let mut cursor = vec![0usize; shape.rank()];
    loop {
        let lo = cursor
            .iter()
            .enumerate()
            .map(|(a, &i)| bounds[a][i].0)
            .collect();
        let hi = cursor
            .iter()
            .enumerate()
            .map(|(a, &i)| bounds[a][i].1)
            .collect();
        out.push(HyperRect::new(lo, hi));
        let mut axis = shape.rank();
        loop {
            if axis == 0 {
                return out;
            }
            axis -= 1;
            cursor[axis] += 1;
            if cursor[axis] < per_axis[axis] {
                break;
            }
            cursor[axis] = 0;
        }
    }
}

/// Checks that `parts` exactly tile `shape`: pairwise disjoint and the
/// volumes sum to the domain size.
pub fn is_partition(shape: &Shape, parts: &[HyperRect]) -> bool {
    let vol: usize = parts.iter().map(HyperRect::volume).sum();
    if vol != shape.len() {
        return false;
    }
    parts.iter().all(|r| r.fits(shape))
        && parts
            .iter()
            .enumerate()
            .all(|(i, a)| parts[i + 1..].iter().all(|b| !a.intersects(b)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_partition_tiles_domain() {
        let shape = Shape::new(vec![32, 16]).unwrap();
        for cells in [1, 2, 7, 64, 512] {
            let parts = random_partition(&shape, cells, 99);
            assert_eq!(parts.len(), cells);
            assert!(is_partition(&shape, &parts), "cells={cells}");
        }
    }

    #[test]
    fn random_partition_deterministic() {
        let shape = Shape::new(vec![16, 16, 8]).unwrap();
        assert_eq!(
            random_partition(&shape, 40, 5),
            random_partition(&shape, 40, 5)
        );
        assert_ne!(
            random_partition(&shape, 40, 5),
            random_partition(&shape, 40, 6)
        );
    }

    #[test]
    fn random_partition_to_unit_cells() {
        let shape = Shape::new(vec![4, 4]).unwrap();
        let parts = random_partition(&shape, 16, 1);
        assert!(parts.iter().all(|r| r.volume() == 1));
    }

    #[test]
    fn grid_partition_regular() {
        let shape = Shape::new(vec![8, 8]).unwrap();
        let parts = grid_partition(&shape, &[2, 4]);
        assert_eq!(parts.len(), 8);
        assert!(is_partition(&shape, &parts));
        assert!(parts.iter().all(|r| r.volume() == 8));
    }

    #[test]
    fn grid_partition_uneven_extents() {
        let shape = Shape::new(vec![8]).unwrap();
        let parts = grid_partition(&shape, &[3]);
        assert!(is_partition(&shape, &parts));
    }

    #[test]
    fn dyadic_partition_tiles_and_aligns() {
        let shape = Shape::new(vec![32, 64]).unwrap();
        let parts = dyadic_partition(&shape, 40, 3);
        assert_eq!(parts.len(), 40);
        assert!(is_partition(&shape, &parts));
        for r in &parts {
            for a in 0..2 {
                let len = r.extent(a);
                assert!(len.is_power_of_two(), "{r}: extent {len} not dyadic");
                assert_eq!(r.lo()[a] % len, 0, "{r}: start not aligned");
            }
        }
    }

    #[test]
    fn is_partition_detects_overlap_and_gap() {
        let shape = Shape::new(vec![4]).unwrap();
        let overlap = vec![
            HyperRect::new(vec![0], vec![2]),
            HyperRect::new(vec![2], vec![3]),
        ];
        assert!(!is_partition(&shape, &overlap));
        let gap = vec![HyperRect::new(vec![0], vec![2])];
        assert!(!is_partition(&shape, &gap));
    }
}

//! The discrete-Laplacian penalty: "minimize the sum of square errors in
//! the discrete Laplacian to penalize any false local extrema" (P3, §4).

use crate::{Penalty, PenaltyKey};

/// `p(e) = Σ_i ((L e)_i)²` where `L` is the graph Laplacian of a neighbour
/// graph over the query ranges: `(L e)_i = deg(i)·e_i − Σ_{j ∈ N(i)} e_j`.
///
/// The penalty is the quadratic form `eᵀ(LᵀL)e` — positive semi-definite
/// (and genuinely *semi*: constant error vectors are free, which is exactly
/// right when the user only cares about local extrema, not absolute
/// levels).
#[derive(Debug, Clone)]
pub struct LaplacianPenalty {
    /// Adjacency lists, one per query.
    neighbors: Vec<Vec<usize>>,
}

impl LaplacianPenalty {
    /// Builds from per-query neighbour lists.  Panics if any index is out
    /// of range, self-loops appear, or the graph is asymmetric.
    pub fn new(neighbors: Vec<Vec<usize>>) -> Self {
        let s = neighbors.len();
        for (i, ns) in neighbors.iter().enumerate() {
            for &j in ns {
                assert!(j < s, "neighbour index {j} out of batch size {s}");
                assert_ne!(i, j, "self-loop at {i}");
                assert!(
                    neighbors[j].contains(&i),
                    "asymmetric adjacency: {i}→{j} but not {j}→{i}"
                );
            }
        }
        LaplacianPenalty { neighbors }
    }

    /// A path graph over `s` queries in index order — the right structure
    /// for 1-D drill-downs (e.g. ranges ordered along time).
    pub fn path(s: usize) -> Self {
        let neighbors = (0..s)
            .map(|i| {
                let mut ns = Vec::with_capacity(2);
                if i > 0 {
                    ns.push(i - 1);
                }
                if i + 1 < s {
                    ns.push(i + 1);
                }
                ns
            })
            .collect();
        LaplacianPenalty { neighbors }
    }

    /// Applies the Laplacian to a dense vector.
    fn apply(&self, e: &[f64]) -> Vec<f64> {
        self.neighbors
            .iter()
            .enumerate()
            .map(|(i, ns)| ns.len() as f64 * e[i] - ns.iter().map(|&j| e[j]).sum::<f64>())
            .collect()
    }
}

impl Penalty for LaplacianPenalty {
    fn name(&self) -> String {
        "laplacian-SSE".to_string()
    }

    fn evaluate(&self, errors: &[f64]) -> f64 {
        assert_eq!(errors.len(), self.neighbors.len(), "batch size mismatch");
        self.apply(errors).iter().map(|v| v * v).sum()
    }

    fn importance(&self, column: &[(usize, f64)], _batch_size: usize) -> f64 {
        // (L v) is supported on the column's support plus its neighbours;
        // accumulate only those rows.
        let mut acc = 0.0;
        let mut rows: Vec<usize> = Vec::with_capacity(column.len() * 4);
        for &(i, _) in column {
            rows.push(i);
            rows.extend_from_slice(&self.neighbors[i]);
        }
        rows.sort_unstable();
        rows.dedup();
        let value_at = |i: usize| -> f64 {
            column
                .iter()
                .find(|&&(j, _)| j == i)
                .map(|&(_, v)| v)
                .unwrap_or(0.0)
        };
        for &i in &rows {
            let lv = self.neighbors[i].len() as f64 * value_at(i)
                - self.neighbors[i].iter().map(|&j| value_at(j)).sum::<f64>();
            acc += lv * lv;
        }
        acc
    }

    fn homogeneity(&self) -> f64 {
        2.0
    }

    /// Each row's degree, then its neighbours in order (the order the
    /// importance sums them in).
    fn scoring_key(&self) -> Option<PenaltyKey> {
        let rows = self
            .neighbors
            .iter()
            .flat_map(|ns| std::iter::once(ns.len() as u64).chain(ns.iter().map(|&j| j as u64)));
        Some(PenaltyKey::new::<Self>(rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::importance_via_dense;

    #[test]
    fn path_graph_structure() {
        let p = LaplacianPenalty::path(4);
        assert_eq!(p.neighbors[0], vec![1]);
        assert_eq!(p.neighbors[2], vec![1, 3]);
    }

    #[test]
    fn constant_vectors_are_free() {
        let p = LaplacianPenalty::path(5);
        assert_eq!(p.evaluate(&[3.0; 5]), 0.0, "semi-definite by design");
    }

    #[test]
    fn spike_is_penalized() {
        let p = LaplacianPenalty::path(3);
        // e = (0, 1, 0): Le = (-1, 2, -1) -> 6
        assert_eq!(p.evaluate(&[0.0, 1.0, 0.0]), 6.0);
    }

    #[test]
    fn sparse_importance_matches_dense() {
        let p = LaplacianPenalty::path(8);
        let cols: Vec<Vec<(usize, f64)>> = vec![
            vec![(0, 1.0)],
            vec![(3, -2.0), (4, 1.0)],
            vec![(7, 0.5), (0, 0.25), (2, -1.0)],
        ];
        for col in &cols {
            let fast = p.importance(col, 8);
            let slow = importance_via_dense(&p, col, 8);
            assert!((fast - slow).abs() < 1e-12, "{col:?}: {fast} vs {slow}");
        }
    }

    #[test]
    fn custom_graph_validation() {
        // triangle
        let p = LaplacianPenalty::new(vec![vec![1, 2], vec![0, 2], vec![0, 1]]);
        assert_eq!(p.evaluate(&[1.0, 1.0, 1.0]), 0.0);
        assert!(p.evaluate(&[1.0, 0.0, 0.0]) > 0.0);
    }

    #[test]
    #[should_panic(expected = "asymmetric")]
    fn asymmetric_graph_rejected() {
        let _ = LaplacianPenalty::new(vec![vec![1], vec![]]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let _ = LaplacianPenalty::new(vec![vec![0]]);
    }

    #[test]
    fn homogeneity_two() {
        let p = LaplacianPenalty::path(4);
        let e = [1.0, -1.0, 2.0, 0.0];
        let scaled: Vec<f64> = e.iter().map(|v| -3.0 * v).collect();
        assert!((p.evaluate(&scaled) - 9.0 * p.evaluate(&e)).abs() < 1e-9);
    }
}

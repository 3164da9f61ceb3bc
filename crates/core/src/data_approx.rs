//! The *data approximation* baseline (§1.1).
//!
//! Prior wavelet work (\[17\] Vitter & Wang, \[1\] Chakrabarti et al.) keeps a
//! compressed synopsis — the `B` largest coefficients of the *data* — and
//! answers every query against it.  The paper's position is that "there is
//! no reason to expect a general relation to have a good wavelet
//! approximation", and that approximating the *queries* instead keeps
//! exactness reachable and the error controllable per batch.
//!
//! This module implements the baseline so the claim is testable: build a
//! [`CompressedView`] holding the top-`B` data coefficients, evaluate any
//! rewritten batch against it, and compare with Batch-Biggest-B at the
//! same budget `B` (`ablation_data_vs_query` harness).  On
//! wavelet-compressible data the synopsis is competitive; on rough data it
//! hits an error floor that no amount of query-side work removes, while
//! Batch-Biggest-B converges to exact answers.

use batchbb_storage::MemoryStore;
use batchbb_tensor::CoeffKey;

use crate::BatchQueries;

/// A lossy synopsis: the `B` largest-magnitude coefficients of the data.
pub struct CompressedView {
    store: MemoryStore,
    kept: usize,
    dropped_energy: f64,
    total_energy: f64,
}

impl CompressedView {
    /// Keeps the top `b` coefficients by |value| (ties broken by key).
    pub fn new(mut entries: Vec<(CoeffKey, f64)>, b: usize) -> Self {
        entries.sort_by(|x, y| {
            (y.1 * y.1)
                .total_cmp(&(x.1 * x.1))
                .then_with(|| x.0.cmp(&y.0))
        });
        let total_energy: f64 = entries.iter().map(|&(_, v)| v * v).sum();
        let kept = b.min(entries.len());
        let dropped_energy: f64 = entries[kept..].iter().map(|&(_, v)| v * v).sum();
        entries.truncate(kept);
        CompressedView {
            store: MemoryStore::from_entries(entries),
            kept,
            dropped_energy,
            total_energy,
        }
    }

    /// Number of coefficients retained.
    pub fn kept(&self) -> usize {
        self.kept
    }

    /// Fraction of the data's L2 energy lost to truncation — the
    /// compressibility of the dataset under this basis. Near 0 for smooth
    /// data, near `1 − B/N` for white noise.
    pub fn energy_loss(&self) -> f64 {
        if self.total_energy == 0.0 {
            0.0
        } else {
            self.dropped_energy / self.total_energy
        }
    }

    /// The truncated store (usable anywhere a
    /// [`batchbb_storage::CoefficientStore`] is).
    pub fn store(&self) -> &MemoryStore {
        &self.store
    }

    /// Evaluates a rewritten batch fully against the synopsis.  This is
    /// the baseline's best case: unlimited query-side work, but every
    /// truncated coefficient contributes its full error.
    pub fn evaluate(&self, batch: &BatchQueries) -> Vec<f64> {
        use batchbb_storage::CoefficientStore;
        let read = |k| {
            self.store
                .try_get(k)
                .expect("an in-memory read cannot fail")
        };
        batch
            .coefficients()
            .iter()
            .map(|coeffs| {
                coeffs
                    .entries()
                    .iter()
                    .filter_map(|(k, v)| read(k).map(|w| v * w))
                    .sum()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{metrics, MasterList, ProgressiveExecutor};
    use batchbb_penalty::Sse;
    use batchbb_query::{partition, LinearStrategy, RangeSum, WaveletStrategy};
    use batchbb_storage::MemoryStore;
    use batchbb_tensor::{Shape, Tensor};
    use batchbb_wavelet::Wavelet;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    type Fixture = (
        Tensor,
        Vec<RangeSum>,
        BatchQueries,
        Vec<(CoeffKey, f64)>,
        Vec<f64>,
    );

    fn setup(data: Tensor, cells: usize) -> Fixture {
        let shape = data.shape().clone();
        let strategy = WaveletStrategy::new(Wavelet::Haar);
        let queries: Vec<RangeSum> = partition::dyadic_partition(&shape, cells, 3)
            .into_iter()
            .map(RangeSum::count)
            .collect();
        let exact: Vec<f64> = queries.iter().map(|q| q.eval_direct(&data)).collect();
        let batch = BatchQueries::rewrite(&strategy, queries.clone(), &shape).unwrap();
        let entries = strategy.transform_data(&data);
        (data, queries, batch, entries, exact)
    }

    #[test]
    fn full_view_is_exact() {
        let shape = Shape::new(vec![16, 16]).unwrap();
        let data = Tensor::from_fn(shape, |ix| ((ix[0] * 3 + ix[1]) % 5) as f64);
        let (_, _, batch, entries, exact) = setup(data, 8);
        let view = CompressedView::new(entries.clone(), entries.len());
        assert_eq!(view.energy_loss(), 0.0);
        for (e, x) in view.evaluate(&batch).iter().zip(&exact) {
            assert!((e - x).abs() < 1e-6 * x.abs().max(1.0));
        }
    }

    #[test]
    fn smooth_data_compresses_well() {
        // A smooth field: most energy in few coefficients.
        let shape = Shape::new(vec![32, 32]).unwrap();
        let data = Tensor::from_fn(shape, |ix| {
            (ix[0] as f64 / 8.0).sin() + (ix[1] as f64 / 11.0).cos() + 3.0
        });
        let (_, _, batch, entries, exact) = setup(data, 16);
        let view = CompressedView::new(entries, 64);
        assert!(view.energy_loss() < 0.01, "loss {}", view.energy_loss());
        let mre = metrics::mean_relative_error(&view.evaluate(&batch), &exact);
        assert!(mre < 0.05, "synopsis should work on smooth data, mre {mre}");
    }

    #[test]
    fn rough_data_defeats_data_approximation_but_not_query_approximation() {
        // White-noise-ish data: the paper's adversarial case for synopses.
        let shape = Shape::new(vec![32, 32]).unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        let data = Tensor::from_fn(shape, |_| rng.gen_range(0.0..10.0));
        let (_, _, batch, entries, exact) = setup(data, 16);
        let master = MasterList::build(&batch).len();
        let b = master / 2;

        // data approximation at budget b: irreducible error floor
        let view = CompressedView::new(entries.clone(), b);
        let data_mre = metrics::mean_relative_error(&view.evaluate(&batch), &exact);

        // query approximation at the same budget b, then to completion
        let store = MemoryStore::from_entries(entries);
        let mut exec = ProgressiveExecutor::new(&batch, &Sse, &store);
        exec.run(b);
        let query_mre_at_b = metrics::mean_relative_error(exec.estimates(), &exact);
        exec.run_to_end();
        let query_mre_final = metrics::mean_relative_error(exec.estimates(), &exact);

        assert!(
            view.energy_loss() > 0.05,
            "noise must not compress, loss {}",
            view.energy_loss()
        );
        assert!(
            query_mre_final < 1e-10,
            "query approximation reaches exactness, got {query_mre_final}"
        );
        assert!(
            data_mre > query_mre_final,
            "synopsis has an error floor: {data_mre}"
        );
        // At the matched budget, both are approximate; the decisive
        // difference is the floor, asserted above.
        let _ = query_mre_at_b;
    }

    #[test]
    fn kept_respects_budget() {
        let entries = vec![
            (CoeffKey::one(0), 3.0),
            (CoeffKey::one(1), -10.0),
            (CoeffKey::one(2), 1.0),
        ];
        let view = CompressedView::new(entries, 2);
        assert_eq!(view.kept(), 2);
        use batchbb_storage::CoefficientStore;
        assert_eq!(view.store().get(&CoeffKey::one(1)), Some(-10.0));
        assert_eq!(
            view.store().get(&CoeffKey::one(2)),
            None,
            "smallest dropped"
        );
        assert!((view.energy_loss() - 1.0 / 110.0).abs() < 1e-12);
    }
}

//! Workload-driven disk-layout advice (§7).
//!
//! "Combining this analysis with workload information will lead to
//! techniques for smart buffer management."  Given a representative set of
//! historical batches, [`aggregate_importance_ranking`] scores every
//! coefficient by its total importance across the workload; feeding that
//! ranking to `batchbb_storage::BlockStore::create_ranked` lays hot
//! coefficients out contiguously, so future progressive scans are close to
//! sequential.
//!
//! Measured behaviour (see the tests and `obs1_io_sharing --block-size`):
//! a layout trained on the batch it serves is near-perfectly sequential
//! (~420× fewer block reads than key order); a layout trained on *other*
//! batches of the same family still transfers — it beats key order — but
//! a workload-oblivious coarse-first (level-major) layout remains the more
//! robust default for ad hoc queries.  §7's conjecture holds strongest
//! exactly where workload information is real.

use batchbb_penalty::Penalty;
use batchbb_tensor::{CoeffKey, KeyMap};

use crate::{BatchQueries, MasterList};

/// Sums the per-coefficient importance over a training workload and
/// returns `key → rank` (0 = layout first).  Coefficients never seen by
/// the workload are absent; layouts should place them after all ranked
/// keys (e.g. `rank.get(k).copied().unwrap_or(usize::MAX)`).
pub fn aggregate_importance_ranking(workload: &[(&BatchQueries, &dyn Penalty)]) -> KeyMap<usize> {
    let mut scores: KeyMap<f64> = KeyMap::default();
    for (batch, penalty) in workload {
        let master = MasterList::build(batch);
        for (key, column) in master.iter() {
            let col: Vec<(usize, f64)> = column.iter().map(|&(i, v)| (i as usize, v)).collect();
            *scores.entry(*key).or_insert(0.0) += penalty.importance(&col, batch.len());
        }
    }
    let mut ranked: Vec<(CoeffKey, f64)> = scores.into_iter().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    ranked
        .into_iter()
        .enumerate()
        .map(|(rank, (k, _))| (k, rank))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProgressiveExecutor;
    use batchbb_penalty::Sse;
    use batchbb_query::{partition, LinearStrategy, RangeSum, WaveletStrategy};
    use batchbb_relation::synth;
    #[cfg(unix)]
    use batchbb_storage::{BlockLayout, BlockStore, CoefficientStore};
    use batchbb_wavelet::Wavelet;

    #[cfg(unix)]
    #[test]
    fn layout_training_hierarchy() {
        // self-trained ≪ transfer-trained < key-order: a layout built for
        // the exact batch is near-sequential; one trained on sibling
        // batches still transfers; naive key order trails.
        let dfd = synth::clustered(2, 7, 120_000, 4, 9).to_frequency_distribution();
        let domain = dfd.schema().domain();
        let strategy = WaveletStrategy::new(Wavelet::Haar);
        let entries = strategy.transform_data(dfd.tensor());

        let make_batch = |seed: u64| {
            let queries: Vec<RangeSum> = partition::random_partition(&domain, 64, seed)
                .into_iter()
                .map(RangeSum::count)
                .collect();
            BatchQueries::rewrite(&strategy, queries, &domain).unwrap()
        };
        let trains: Vec<BatchQueries> = (1..=6).map(make_batch).collect();
        let pairs: Vec<(&BatchQueries, &dyn Penalty)> = trains
            .iter()
            .map(|b| (b, &Sse as &dyn batchbb_penalty::Penalty))
            .collect();
        let transfer = aggregate_importance_ranking(&pairs);
        let test = make_batch(99);
        let own = aggregate_importance_ranking(&[(&test, &Sse)]);

        let tmp = std::env::temp_dir();
        let physical = |name: &str, store: &BlockStore| {
            let mut exec = ProgressiveExecutor::new(&test, &Sse, store);
            exec.run_to_end();
            let reads = store.stats().physical_reads;
            let _ = name;
            reads
        };
        let p1 = tmp.join(format!("batchbb-advisor-self-{}", std::process::id()));
        let p2 = tmp.join(format!("batchbb-advisor-xfer-{}", std::process::id()));
        let p3 = tmp.join(format!("batchbb-advisor-key-{}", std::process::id()));
        let self_store = BlockStore::create_ranked(&p1, entries.clone(), 64, 8, |k| {
            own.get(k).copied().unwrap_or(usize::MAX)
        })
        .unwrap();
        let xfer_store = BlockStore::create_ranked(&p2, entries.clone(), 64, 8, |k| {
            transfer.get(k).copied().unwrap_or(usize::MAX)
        })
        .unwrap();
        let key_store = BlockStore::create(&p3, entries, 64, 8, BlockLayout::KeyOrder).unwrap();

        let self_reads = physical("self", &self_store);
        let xfer_reads = physical("xfer", &xfer_store);
        let key_reads = physical("key", &key_store);
        assert!(
            self_reads * 10 < key_reads,
            "self-trained layout should be near-sequential: {self_reads} vs {key_reads}"
        );
        assert!(
            xfer_reads < key_reads,
            "transfer-trained layout should beat key order: {xfer_reads} vs {key_reads}"
        );
        for p in [p1, p2, p3] {
            std::fs::remove_file(&p).unwrap();
        }
    }

    #[test]
    fn ranking_orders_by_total_importance() {
        let dfd = synth::uniform(2, 4, 2_000, 3).to_frequency_distribution();
        let domain = dfd.schema().domain();
        let strategy = WaveletStrategy::new(Wavelet::Haar);
        let queries: Vec<RangeSum> = partition::grid_partition(&domain, &[2, 2])
            .into_iter()
            .map(RangeSum::count)
            .collect();
        let batch = BatchQueries::rewrite(&strategy, queries, &domain).unwrap();
        let ranking = aggregate_importance_ranking(&[(&batch, &Sse)]);
        // rank 0 exists and every rank below the count is assigned once
        let mut ranks: Vec<usize> = ranking.values().copied().collect();
        ranks.sort_unstable();
        assert_eq!(ranks, (0..ranking.len()).collect::<Vec<_>>());
        // the single most important key under one batch is the one the
        // executor retrieves first
        let dfd_store =
            batchbb_storage::MemoryStore::from_entries(strategy.transform_data(dfd.tensor()));
        let mut exec = ProgressiveExecutor::new(&batch, &Sse, &dfd_store);
        let first = exec.step().unwrap().key;
        assert_eq!(ranking[&first], 0);
    }
}

//! The mixed update+query workload fixture.
//!
//! [`MixedFixture`] serves a pool of query batches
//! (`BatchServer::serve_versioned_with` over a [`VersionedStore`]) while a
//! driver streams point-update batches into the store: every update is
//! one `publish` installing a new version with zero reader
//! coordination, after which each batch opts forward via
//! `ServeSession::advance_batch`.
//!
//! The update stream is [`batchbb_relation::cube::batch_point_entries`]
//! deltas, and every batch must finalize exactly. The measurement is
//! *update latency under load*: a publish never waits on a reader, so its
//! tail must stay flat however busy the pool is. `bench_mixed` records the
//! numbers to `results/BENCH_exec.json` and the `progress_report
//! --check-bench` guard plus the CI `--mixed` gate enforce the ceiling;
//! DESIGN.md §13 and EXPERIMENTS.md describe the workflow.

use std::time::Instant;

use batchbb_core::BatchQueries;
use batchbb_penalty::Sse;
use batchbb_query::{partition, LinearStrategy, RangeSum, WaveletStrategy};
use batchbb_relation::{cube, synth};
use batchbb_serve::{BatchRequest, BatchServer, BatchStatus, ServeConfig};
use batchbb_storage::VersionedStore;
use batchbb_tensor::{CoeffKey, Shape};
use batchbb_wavelet::Wavelet;

/// Shape of the mixed update+query measurement.
#[derive(Debug, Clone)]
pub struct MixedConfig {
    /// Concurrent batches offered to the pool.
    pub batches: usize,
    /// Range-sum queries per batch.
    pub queries_per_batch: usize,
    /// Records in the synthetic clustered dataset.
    pub records: usize,
    /// Worker threads.
    pub workers: usize,
    /// Scheduling slice budget.
    pub slice_steps: usize,
    /// Update batches streamed by the driver while the pool runs.
    pub updates: usize,
    /// Binned point inserts per update batch.
    pub points_per_update: usize,
}

impl Default for MixedConfig {
    fn default() -> Self {
        MixedConfig {
            batches: 12,
            queries_per_batch: 24,
            records: 30_000,
            workers: 4,
            slice_steps: 256,
            updates: 24,
            points_per_update: 4,
        }
    }
}

/// One measured run.
#[derive(Debug, Clone)]
pub struct MixedRun {
    /// Wall-clock seconds for the whole pool run, updates included.
    pub elapsed_secs: f64,
    /// Mean seconds per `ServeSession::update` call.
    pub update_mean_s: f64,
    /// Worst single `ServeSession::update` call, seconds.
    pub update_max_s: f64,
    /// Update calls issued (all of `MixedConfig::updates`).
    pub updates: u64,
    /// Coefficients retrieved across all batches.
    pub retrieved: u64,
    /// Retrievals per second over the whole run.
    pub throughput: f64,
}

/// The prepared workload: coefficients, query batches, update stream.
pub struct MixedFixture {
    cfg: MixedConfig,
    entries: Vec<(CoeffKey, f64)>,
    batches: Vec<BatchQueries>,
    update_stream: Vec<Vec<(CoeffKey, f64)>>,
    n_total: usize,
    k: f64,
}

impl MixedFixture {
    /// Builds the workload once; the serve runs reuse it.
    pub fn build(cfg: MixedConfig) -> Self {
        let dataset = synth::clustered(2, 7, cfg.records, 4, 11);
        let dfd = dataset.to_frequency_distribution();
        let domain = dfd.schema().domain();
        let strategy = WaveletStrategy::new(Wavelet::Haar);
        let entries = strategy.transform_data(dfd.tensor());
        let batches = (0..cfg.batches)
            .map(|b| {
                let queries: Vec<RangeSum> =
                    partition::random_partition(&domain, cfg.queries_per_batch, b as u64)
                        .into_iter()
                        .map(RangeSum::count)
                        .collect();
                BatchQueries::rewrite(&strategy, queries, &domain).unwrap()
            })
            .collect();
        let update_stream = Self::update_stream(&cfg, &domain, strategy.wavelet);
        let n_total = domain.len();
        let k = entries.iter().map(|(_, v)| v.abs()).sum();
        MixedFixture {
            cfg,
            entries,
            batches,
            update_stream,
            n_total,
            k,
        }
    }

    /// A deterministic stream of grouped point-insert deltas.
    fn update_stream(
        cfg: &MixedConfig,
        domain: &Shape,
        wavelet: Wavelet,
    ) -> Vec<Vec<(CoeffKey, f64)>> {
        (0..cfg.updates)
            .map(|u| {
                let points: Vec<(Vec<usize>, f64)> = (0..cfg.points_per_update)
                    .map(|p| {
                        let i = u * cfg.points_per_update + p;
                        let coords =
                            vec![(i * 37 + 11) % domain.dim(0), (i * 53 + 5) % domain.dim(1)];
                        (coords, 1.0 + (i % 5) as f64)
                    })
                    .collect();
                cube::batch_point_entries(domain, &points, wavelet)
            })
            .collect()
    }

    fn serve_config(&self) -> ServeConfig {
        ServeConfig::new(self.n_total, self.k)
            .workers(self.cfg.workers)
            .slice_steps(self.cfg.slice_steps)
    }

    /// Serves the pool while streaming the updates: every update is one
    /// reader-free `publish`, timed per call; batches opt forward
    /// afterwards (the advance is reader-side work, so it is deliberately
    /// *outside* the timed update call).
    pub fn serve_versioned(&self) -> MixedRun {
        let store = VersionedStore::from_entries(self.entries.iter().cloned());
        let requests: Vec<BatchRequest<'_>> = self
            .batches
            .iter()
            .map(|batch| BatchRequest::new(batch, &Sse))
            .collect();
        let server = BatchServer::new(self.serve_config());
        let started = Instant::now();
        let (results, latencies) = server.serve_versioned_with(&store, &requests, |session| {
            let latencies: Vec<f64> = self
                .update_stream
                .iter()
                .map(|delta| {
                    let started = Instant::now();
                    session.update(delta, || ());
                    let elapsed = started.elapsed().as_secs_f64();
                    std::thread::yield_now();
                    elapsed
                })
                .collect();
            for i in 0..session.batches() {
                session.advance_batch(i);
            }
            latencies
        });
        let retrieved: u64 = results
            .iter()
            .inspect(|r| {
                assert_eq!(
                    r.status,
                    BatchStatus::Exact,
                    "versioned run must finish exact"
                );
                assert!(r.pinned_version.is_some(), "versioned runs pin every batch");
            })
            .map(|r| r.retrieved_entries.len() as u64)
            .sum();
        let elapsed_secs = started.elapsed().as_secs_f64();
        let updates = latencies.len() as u64;
        MixedRun {
            elapsed_secs,
            update_mean_s: latencies.iter().sum::<f64>() / updates.max(1) as f64,
            update_max_s: latencies.iter().copied().fold(0.0, f64::max),
            updates,
            retrieved,
            throughput: retrieved as f64 / elapsed_secs.max(1e-9),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_fixture_smoke() {
        let cfg = MixedConfig {
            batches: 3,
            queries_per_batch: 4,
            records: 2_000,
            workers: 2,
            slice_steps: 8,
            updates: 4,
            points_per_update: 2,
        };
        let fixture = MixedFixture::build(cfg);
        let run = fixture.serve_versioned();
        assert_eq!(run.updates, 4);
        assert!(run.retrieved > 0);
        assert!(run.update_max_s >= run.update_mean_s);
    }
}

//! Workload definitions and set-up: dataset, view, store stack, statements.
//!
//! Everything here derives from `--seed`: the clustered dataset, every
//! wave's SQL text, and the live workload's insert stream. Wave `w`'s
//! inputs depend on `(seed, w)` only, never on how many waves ran before,
//! so two runs of different length agree on every wave they both reach.

use std::sync::Arc;

use batchbb_core::BatchQueries;
use batchbb_query::{LinearStrategy, WaveletStrategy};
use batchbb_relation::{synth, FrequencyDistribution};
use batchbb_serve::ServeConfig;
use batchbb_storage::{
    shard_of, AsyncFetchStore, CoefficientStore, HedgeConfig, LatencyStore, MemoryStore,
    ShardClient, ShardRouter, ShardStats, VersionedStore,
};
use batchbb_tensor::{CoeffKey, Tensor};
use batchbb_wavelet::Wavelet;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::recorder::Recorder;
use crate::timed_store::{TimedHandle, TimedStore};

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Whole text→answer path over a free in-memory store.
    DashMem,
    /// Prepared statements over a versioned store with concurrent inserts.
    LivePrepared,
    /// Four latency-charged shards behind the scatter-gather router.
    RemoteShards,
    /// Drill-down over one window through the bounded shared cache.
    DrillCached,
}

impl Kind {
    /// Every workload, in suite order.
    pub const ALL: [Kind; 4] = [
        Kind::DashMem,
        Kind::LivePrepared,
        Kind::RemoteShards,
        Kind::DrillCached,
    ];

    /// The workload's name in `BENCHMARK.json` and on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::DashMem => "dash_mem",
            Kind::LivePrepared => "live_prepared",
            Kind::RemoteShards => "remote_shards",
            Kind::DrillCached => "drill_cached",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The view's filter: Db4 where statements carry `SUM(a1)` (degree 1),
    /// Haar where they are COUNT-only.
    pub fn wavelet(self) -> Wavelet {
        match self {
            Kind::DashMem | Kind::LivePrepared => Wavelet::Db4,
            Kind::RemoteShards | Kind::DrillCached => Wavelet::Haar,
        }
    }

    /// Statements per wave.
    pub fn statements_per_wave(self) -> usize {
        match self {
            Kind::DashMem => 4,
            _ => 8,
        }
    }
}

/// GROUP BY grids of one `drill_cached` wave, coarse to fine and back: the
/// finer grids re-read most of what the coarser ones fetched.
const DRILL_GRIDS: [(usize, usize); 8] = [
    (2, 2),
    (4, 2),
    (4, 4),
    (8, 4),
    (8, 8),
    (16, 8),
    (4, 4),
    (8, 4),
];

/// `remote_shards`: per-RPC and per-key charge of each shard's mock network.
const SHARD_LATENCY_NS: (u64, u64) = (200_000, 20_000);
/// `remote_shards`: shard count.
pub const SHARDS: usize = 4;
/// `drill_cached`: per-call and per-key charge of the slow store. Nominal:
/// with the host's sleep granularity a call takes ≈ 95 µs. At a nominal
/// 100 µs a wave took 0.85 s and a run held too few for a steady median.
const DRILL_LATENCY_NS: (u64, u64) = (20_000, 2_000);
/// `live_prepared`: waves served before the prepared statements are
/// replaced by a fresh set (un-timed, between waves). One set for the whole
/// run would make every timing a property of that set's luck with dyadic
/// alignment (±5 % between seeds); a large standing pool would not fit the
/// CPU cache the way eight statements do.
pub const LIVE_REFRESH_WAVES: usize = 8;
/// `live_prepared`: publishes per wave.
pub const PUBLISHES_PER_WAVE: usize = 8;
/// `live_prepared`: point inserts per publish.
pub const POINTS_PER_PUBLISH: usize = 4;

/// Problem sizes: the design point, or the `--smoke` miniature.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Bits per axis: the domain is `2^bits × 2^bits`.
    pub bits: u32,
    /// Records in the clustered dataset.
    pub records: usize,
    /// Times set-up (dataset load, then view build) is timed for
    /// `setup_s`; the medians are reported. At least 1.
    pub setups: usize,
    /// Whether the workload-premise guards are fatal. They describe the
    /// design point; the miniature is too small to meet them.
    pub enforce_guards: bool,
}

impl Sizes {
    /// The design point: 2^20 cells, 1M records.
    pub fn full() -> Self {
        Sizes {
            bits: 10,
            records: 1_000_000,
            setups: 5,
            enforce_guards: true,
        }
    }

    /// The miniature behind `--smoke` and the crate's tests.
    pub fn smoke() -> Self {
        Sizes {
            bits: 7,
            records: 20_000,
            setups: 2,
            enforce_guards: false,
        }
    }
}

/// `min(nproc, cap)`: every pool the harness sizes stays within the host.
pub fn threads_capped(cap: usize) -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(cap)
}

/// The loaded relation: the DFD doubles as the oracle's mirror tensor.
pub struct Base {
    /// The data frequency distribution of the seeded dataset.
    pub dfd: FrequencyDistribution,
}

impl Base {
    /// Generates the dataset and bins it (`relation.load`).
    pub fn load(seed: u64, sizes: &Sizes, rec: &mut Recorder) -> Base {
        let open = rec.begin("relation.load");
        let dataset = synth::clustered(2, sizes.bits, sizes.records, 8, seed);
        let dfd = dataset.to_frequency_distribution();
        rec.end(open);
        Base { dfd }
    }

    /// The mirror tensor `Δ`.
    pub fn tensor(&self) -> &Tensor {
        self.dfd.tensor()
    }
}

/// A per-wave generator: the same `(seed, stream, wave)` always yields the
/// same draws.
pub fn wave_rng(seed: u64, stream: u64, wave: usize) -> SmallRng {
    SmallRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ stream.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
            ^ (wave as u64).wrapping_mul(0x1656_67B1_9E37_79F9),
    )
}

/// A random window covering 20–50 % of each axis, as a WHERE clause in raw
/// attribute values (both attributes span `[0, 1)`).
fn window_clause(rng: &mut SmallRng) -> String {
    let mut axis = || {
        let width: f64 = rng.gen_range(0.20..0.50);
        let lo: f64 = rng.gen_range(0.0..1.0 - width);
        (lo, lo + width)
    };
    let (lo0, hi0) = axis();
    let (lo1, hi1) = axis();
    format!("a0 BETWEEN {lo0:.6} AND {hi0:.6} AND a1 BETWEEN {lo1:.6} AND {hi1:.6}")
}

/// Wave `wave`'s SQL statements for `kind`. `live_prepared` passes the
/// index of its prepared set (`wave / LIVE_REFRESH_WAVES`) instead.
pub fn statements(kind: Kind, seed: u64, wave: usize) -> Vec<String> {
    let mut rng = wave_rng(seed, 1, wave);
    match kind {
        Kind::DashMem | Kind::LivePrepared => (0..kind.statements_per_wave())
            .map(|_| {
                format!(
                    "SELECT COUNT(*), SUM(a1) FROM cube WHERE {} GROUP BY a0(8), a1(4)",
                    window_clause(&mut rng)
                )
            })
            .collect(),
        Kind::RemoteShards => (0..kind.statements_per_wave())
            .map(|_| {
                format!(
                    "SELECT COUNT(*) FROM cube WHERE {} GROUP BY a0(4), a1(4)",
                    window_clause(&mut rng)
                )
            })
            .collect(),
        Kind::DrillCached => {
            let window = window_clause(&mut rng);
            DRILL_GRIDS
                .iter()
                .map(|(g0, g1)| {
                    format!("SELECT COUNT(*) FROM cube WHERE {window} GROUP BY a0({g0}), a1({g1})")
                })
                .collect()
        }
    }
}

/// One publish worth of binned point inserts for `live_prepared`.
pub type Points = Vec<(Vec<usize>, f64)>;

/// Wave `wave`'s insert stream: [`PUBLISHES_PER_WAVE`] groups of
/// [`POINTS_PER_PUBLISH`] uniformly placed points with weights 1–5.
pub fn publishes(seed: u64, wave: usize, bins: usize) -> Vec<Points> {
    let mut rng = wave_rng(seed, 2, wave);
    (0..PUBLISHES_PER_WAVE)
        .map(|_| {
            (0..POINTS_PER_PUBLISH)
                .map(|_| {
                    let coords = vec![rng.gen_range(0..bins), rng.gen_range(0..bins)];
                    (coords, f64::from(rng.gen_range(1..6u32)))
                })
                .collect()
        })
        .collect()
}

/// The store a workload's serve call reads.
pub enum Store {
    /// Anything `BatchServer::serve` accepts.
    Plain(Arc<dyn CoefficientStore>),
    /// `live_prepared`'s store, which `serve_versioned*` needs by type.
    Versioned(VersionedStore),
}

/// The store stack one workload serves from.
pub struct Stack {
    /// The top of the stack.
    pub store: Store,
    /// Handles onto the `TimedStore`s in the stack; empty when untraced.
    pub timed: Vec<TimedHandle>,
    /// Per-shard counters (`remote_shards`).
    pub shard_stats: Option<ShardStatsFn>,
    /// The async engine's cross-batch dedup counter (`drill_cached`).
    pub dedup_hits: Option<DedupHitsFn>,
}

/// Puts `store` behind a `TimedStore` when `timed`, keeping its handle.
fn maybe_timed<S: CoefficientStore + 'static>(
    store: S,
    timed: bool,
    handles: &mut Vec<TimedHandle>,
) -> Arc<dyn CoefficientStore> {
    if timed {
        let store = TimedStore::new(store);
        handles.push(store.handle());
        Arc::new(store)
    } else {
        Arc::new(store)
    }
}

/// Per-shard counters of a router, readable after it moved into the stack.
pub type ShardStatsFn = Box<dyn Fn() -> Vec<ShardStats>>;
/// The async engine's dedup counter, likewise.
pub type DedupHitsFn = Box<dyn Fn() -> u64>;

/// `AsyncFetchStore` is generic over what it owns, so the timed and bare
/// stacks are two instantiations of this.
fn async_engine<S: CoefficientStore + 'static>(inner: S) -> (Store, DedupHitsFn) {
    let engine = Arc::new(AsyncFetchStore::new(inner, threads_capped(2)));
    let dedup = Arc::clone(&engine);
    (Store::Plain(engine), Box::new(move || dedup.dedup_hits()))
}

impl Stack {
    fn build(kind: Kind, entries: Vec<(CoeffKey, f64)>, timed: bool) -> Stack {
        let mut handles = Vec::new();
        let (mut shard_stats, mut dedup_hits) = (None, None);
        let store = match kind {
            Kind::DashMem => Store::Plain(maybe_timed(
                MemoryStore::from_entries(entries),
                timed,
                &mut handles,
            )),
            // The pool pins its own views, so there is no seam for a
            // `TimedStore` here; the serial replay wraps a pinned view.
            Kind::LivePrepared => Store::Versioned(VersionedStore::from_entries(entries)),
            Kind::RemoteShards => {
                let mut parts: Vec<Vec<(CoeffKey, f64)>> = vec![Vec::new(); SHARDS];
                for (key, value) in entries {
                    parts[shard_of(&key, SHARDS)].push((key, value));
                }
                let clients = parts
                    .into_iter()
                    .map(|part| {
                        let (base, per_key) = SHARD_LATENCY_NS;
                        let remote =
                            LatencyStore::new(MemoryStore::from_entries(part), base, per_key);
                        ShardClient::new(maybe_timed(remote, timed, &mut handles))
                    })
                    .collect();
                let router = Arc::new(ShardRouter::new(clients, HedgeConfig::default()));
                let stats = Arc::clone(&router);
                shard_stats = Some(Box::new(move || stats.shard_stats()) as ShardStatsFn);
                Store::Plain(router)
            }
            Kind::DrillCached => {
                let (base, per_key) = DRILL_LATENCY_NS;
                let slow = LatencyStore::new(MemoryStore::from_entries(entries), base, per_key);
                let (store, dedup) = if timed {
                    let slow = TimedStore::new(slow);
                    handles.push(slow.handle());
                    async_engine(slow)
                } else {
                    async_engine(slow)
                };
                dedup_hits = Some(dedup);
                store
            }
        };
        Stack {
            store,
            timed: handles,
            shard_stats,
            dedup_hits,
        }
    }
}

/// A statement after the front end: its rewritten batch plus the two
/// numbers the harness derives from the coefficient lists.
pub struct Prepared {
    /// The rewritten batch.
    pub batch: BatchQueries,
    /// `max_ξ Σ_i q̂_i[ξ]²`: the SSE importance of the heaviest master key.
    pub max_importance: f64,
    /// Distinct coefficient keys across the batch.
    pub master_keys: usize,
}

impl Prepared {
    /// Profiles a rewritten batch. Sums run in query order, as the
    /// executor's own importance scoring does, so `1e-3 · K² · max_importance`
    /// is the same float as 0.1 % of a fresh executor's Theorem-1 bound.
    pub fn profile(batch: BatchQueries) -> Prepared {
        let mut importance: std::collections::HashMap<CoeffKey, f64> =
            std::collections::HashMap::new();
        for coeffs in batch.coefficients() {
            for &(key, value) in coeffs.entries() {
                *importance.entry(key).or_insert(0.0) += value * value;
            }
        }
        Prepared {
            max_importance: importance.values().copied().fold(0.0, f64::max),
            master_keys: importance.len(),
            batch,
        }
    }

    /// The batch's ε target under coefficient norm `k`: 0.1 % of its
    /// initial Theorem-1 bound.
    pub fn epsilon(&self, k: f64) -> f64 {
        1e-3 * (k.powf(2.0) * self.max_importance)
    }
}

/// One workload, set up: view, store stack, serve configuration.
pub struct Fixture<'b> {
    /// Which workload this is.
    pub kind: Kind,
    /// The run's seed (statement and insert streams derive from it).
    pub seed: u64,
    /// The loaded relation.
    pub base: &'b Base,
    /// The view's strategy.
    pub strategy: WaveletStrategy,
    /// `K`: the view's coefficient ℓ¹ norm at build time.
    pub k: f64,
    /// Nonzero coefficients in the view.
    pub view_nnz: usize,
    /// The store stack.
    pub stack: Stack,
    /// The serial replay's store (traced, unversioned workloads).
    pub replay: Option<TimedStore<MemoryStore>>,
    /// The oracle's mirror of `live_prepared`'s data.
    pub mirror: Option<crate::oracle::LiveMirror>,
    /// `live_prepared`'s current prepared statements and the index of the
    /// set they are.
    pub prepared: (usize, Vec<Prepared>),
    /// Pool size: `min(nproc, 4)`.
    pub workers: usize,
    /// Keys fetched per shard over the fixed prefix (`remote_shards`).
    pub shard_keys: Vec<u64>,
}

impl<'b> Fixture<'b> {
    /// Builds the view (`query.transform_data`) and the store stack
    /// (`storage.build`); together they are one `setup.view_build` sample.
    /// `timed` puts `TimedStore`s into the stack and keeps a replay store.
    pub fn build(kind: Kind, seed: u64, base: &'b Base, timed: bool, rec: &mut Recorder) -> Self {
        let strategy = WaveletStrategy::new(kind.wavelet());
        let whole = rec.begin("setup.view_build");
        let open = rec.begin("query.transform_data");
        let entries = strategy.transform_data(base.tensor());
        rec.end(open);
        let k: f64 = entries.iter().map(|(_, v)| v.abs()).sum();
        let view_nnz = entries.len();
        let replay_entries = (timed && kind != Kind::LivePrepared).then(|| entries.clone());
        let open = rec.begin("storage.build");
        let stack = Stack::build(kind, entries, timed);
        rec.end(open);
        rec.end(whole);

        Fixture {
            kind,
            seed,
            base,
            strategy,
            k,
            view_nnz,
            stack,
            replay: replay_entries.map(|e| TimedStore::new(MemoryStore::from_entries(e))),
            mirror: (kind == Kind::LivePrepared)
                .then(|| crate::oracle::LiveMirror::new(base.tensor().clone())),
            prepared: (usize::MAX, Vec::new()),
            workers: threads_capped(4),
            shard_keys: vec![0; SHARDS],
        }
    }

    /// Makes sure `live_prepared`'s prepared statements are the set wave
    /// `wave` serves, planning and rewriting a fresh set if not. Called
    /// between waves, outside every timed bracket: the waves' front-end
    /// samples stay empty, which is this workload's point.
    pub fn prepare_for(&mut self, wave: usize) {
        let set = wave / LIVE_REFRESH_WAVES;
        if self.prepared.0 != set {
            let mut setup_only = Recorder::new(false);
            let statements = statements(self.kind, self.seed, set)
                .iter()
                .map(|sql| Prepared::profile(self.front_end(sql, &mut setup_only).0))
                .collect();
            self.prepared = (set, statements);
        }
    }

    /// The serve configuration for coefficient norm `k`.
    pub fn serve_config(&self, k: f64) -> ServeConfig {
        let config = ServeConfig::new(self.base.tensor().shape().len(), k)
            .workers(self.workers)
            .slice_steps(256);
        match self.kind {
            Kind::DashMem | Kind::LivePrepared => config,
            Kind::RemoteShards => config.prefetch_window(32).share_cache(false),
            Kind::DrillCached => config
                .share_cache(true)
                .cache_capacity(2048)
                .prefetch_window(16),
        }
    }

    /// SQL text → plan → rewritten batch, each step bracketed; returns the
    /// batch and the seconds the two calls took.
    pub fn front_end(&self, sql: &str, rec: &mut Recorder) -> (BatchQueries, f64) {
        let open = rec.begin("sqlish.plan");
        let plan = batchbb_sqlish::plan(sql, self.base.dfd.schema())
            .unwrap_or_else(|e| panic!("generated statement must plan: {e}: {sql}"));
        let plan_s = rec.end(open);
        rec.observe("sqlish.queries", plan.queries().len() as f64);
        let open = rec.begin("query.rewrite");
        let batch = BatchQueries::rewrite(
            &self.strategy,
            plan.queries().to_vec(),
            self.base.tensor().shape(),
        )
        .expect("planned queries fit the domain and the filter's degree");
        let rewrite_s = rec.end(open);
        (batch, plan_s + rewrite_s)
    }
}

//! Counters, gauges, and log-bucketed histograms behind a registry.
//!
//! Updates are plain relaxed atomics — cheap enough for per-retrieval hot
//! paths — and handles are `Arc`-backed so components can keep them across
//! calls without re-hashing the metric name.  Snapshots are taken through
//! the registry and are *monotone* for counters and histograms: a later
//! snapshot never reports a smaller count than an earlier one.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::event::{Event, EventSink};

/// A monotonically increasing counter.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed gauge for instantaneous levels (heap size, queue depth).
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the level.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds (possibly negative) `d`.
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket 0 holds exactly the value 0, bucket
/// `b >= 1` holds values in `[2^(b-1), 2^b - 1]`, so 65 buckets cover all
/// of `u64`.
pub const HISTOGRAM_BUCKETS: usize = 65;

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        HistogramCore {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A histogram over `u64` samples (latencies in ns, sizes, tick counts)
/// with logarithmic base-2 buckets.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// The bucket index a value lands in.
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Inclusive `[lower, upper]` value range of bucket `index`.
    ///
    /// # Panics
    /// If `index >= HISTOGRAM_BUCKETS`.
    pub fn bucket_bounds(index: usize) -> (u64, u64) {
        assert!(index < HISTOGRAM_BUCKETS, "bucket {index} out of range");
        if index == 0 {
            (0, 0)
        } else if index == HISTOGRAM_BUCKETS - 1 {
            (1u64 << 63, u64::MAX)
        } else {
            (1u64 << (index - 1), (1u64 << index) - 1)
        }
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        let c = &self.0;
        c.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(value, Ordering::Relaxed);
        c.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of samples recorded so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples recorded so far (wraps only after `u64::MAX`
    /// total).
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Conservative quantile estimate over the live buckets: the upper
    /// bound of the smallest bucket prefix holding at least `q · count`
    /// samples (see [`HistogramSnapshot::quantile_upper_bound`]).
    /// Returns 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        self.snapshot().quantile_upper_bound(q)
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let c = &self.0;
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| c.buckets[i].load(Ordering::Relaxed)),
            count: c.count.load(Ordering::Relaxed),
            sum: c.sum.load(Ordering::Relaxed),
            max: c.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of one histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`Histogram::bucket_bounds`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples (wraps only after `u64::MAX` total).
    pub sum: u64,
    /// Largest sample seen (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Mean sample value, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the smallest bucket prefix holding at least
    /// `q · count` samples — a conservative quantile estimate (`q` in
    /// `[0, 1]`).  Returns 0 when empty.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Histogram::bucket_bounds(i).1;
            }
        }
        Histogram::bucket_bounds(HISTOGRAM_BUCKETS - 1).1
    }

    /// The (p50, p95, p99) bucket upper bounds in one call — the trio the
    /// snapshot exporter and the benches report.
    pub fn p50_p95_p99(&self) -> (u64, u64, u64) {
        (
            self.quantile_upper_bound(0.50),
            self.quantile_upper_bound(0.95),
            self.quantile_upper_bound(0.99),
        )
    }
}

/// A point-in-time copy of every metric in a registry.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter value by name, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Gauge level by name, if registered.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// Histogram snapshot by name, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// The snapshot as `metrics.*` trace events, in a stable sorted order
    /// (counters, then gauges, then histograms, each alphabetical).
    ///
    /// Histogram events carry the derived p50/p95/p99 bucket upper bounds
    /// alongside count/sum/max/mean, so a dumped trace needs no bucket
    /// arithmetic to replot latency percentiles.  Emitting these into the
    /// same sink as the `exec.*` stream puts metrics and events in one
    /// trace file; replay tooling distinguishes them by the `metrics.`
    /// event-name prefix.
    pub fn to_events(&self) -> Vec<Event> {
        let mut out =
            Vec::with_capacity(self.counters.len() + self.gauges.len() + self.histograms.len());
        for (name, value) in &self.counters {
            out.push(
                Event::new("metrics.counter")
                    .str("name", name.clone())
                    .u64("value", *value),
            );
        }
        for (name, value) in &self.gauges {
            out.push(
                Event::new("metrics.gauge")
                    .str("name", name.clone())
                    .i64("value", *value),
            );
        }
        for (name, h) in &self.histograms {
            let (p50, p95, p99) = h.p50_p95_p99();
            out.push(
                Event::new("metrics.histogram")
                    .str("name", name.clone())
                    .u64("count", h.count)
                    .u64("sum", h.sum)
                    .u64("max", h.max)
                    .f64("mean", h.mean())
                    .u64("p50", p50)
                    .u64("p95", p95)
                    .u64("p99", p99),
            );
        }
        out
    }

    /// Serializes the snapshot as JSONL lines (one `metrics.*` event per
    /// line, stable order — identical snapshots dump identical bytes).
    pub fn to_jsonl_lines(&self) -> Vec<String> {
        self.to_events().iter().map(Event::to_jsonl).collect()
    }

    /// Emits every `metrics.*` event into `sink`.
    pub fn emit(&self, sink: &dyn EventSink) {
        if !sink.enabled() {
            return;
        }
        for event in self.to_events() {
            sink.emit(&event);
        }
    }
}

/// A named collection of metrics shared across components.
///
/// Registration is idempotent: asking twice for the same name returns
/// handles backed by the same storage, so independently instrumented
/// components aggregate into one number when given the same registry.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Returns (registering if needed) the counter called `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.counters.lock().expect("metrics lock poisoned");
        map.entry(name.to_string())
            .or_insert_with(|| Counter(Arc::new(AtomicU64::new(0))))
            .clone()
    }

    /// Returns (registering if needed) the gauge called `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.gauges.lock().expect("metrics lock poisoned");
        map.entry(name.to_string())
            .or_insert_with(|| Gauge(Arc::new(AtomicI64::new(0))))
            .clone()
    }

    /// Returns (registering if needed) the histogram called `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.histograms.lock().expect("metrics lock poisoned");
        map.entry(name.to_string())
            .or_insert_with(|| Histogram(Arc::new(HistogramCore::new())))
            .clone()
    }

    /// Snapshots every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .expect("metrics lock poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .expect("metrics lock poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .expect("metrics lock poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_and_is_shared_by_name() {
        let r = MetricsRegistry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        assert_eq!(r.snapshot().counter("x"), Some(5));
    }

    #[test]
    fn gauge_sets_and_adds() {
        let r = MetricsRegistry::new();
        let g = r.gauge("depth");
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
        assert_eq!(r.snapshot().gauge("depth"), Some(7));
    }

    #[test]
    fn histogram_bucket_edges() {
        // Exhaustive check of the boundary values of every bucket.
        for b in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(b);
            assert_eq!(Histogram::bucket_index(lo), b, "lower bound of {b}");
            assert_eq!(Histogram::bucket_index(hi), b, "upper bound of {b}");
            if lo > 0 {
                assert_eq!(Histogram::bucket_index(lo - 1), b - 1);
            }
            if hi < u64::MAX {
                assert_eq!(Histogram::bucket_index(hi + 1), b + 1);
            }
        }
    }

    #[test]
    fn histogram_counts_sum_and_max() {
        let r = MetricsRegistry::new();
        let h = r.histogram("ns");
        for v in [0u64, 1, 2, 3, 1000, u64::MAX] {
            h.record(v);
        }
        let s = r.snapshot();
        let hs = s.histogram("ns").unwrap();
        assert_eq!(hs.count, 6);
        assert_eq!(hs.max, u64::MAX);
        assert_eq!(hs.buckets.iter().sum::<u64>(), hs.count);
        assert_eq!(hs.buckets[0], 1); // the 0 sample
        assert_eq!(hs.buckets[1], 1); // the 1 sample
        assert_eq!(hs.buckets[2], 2); // 2 and 3
        assert_eq!(hs.buckets[HISTOGRAM_BUCKETS - 1], 1); // u64::MAX
    }

    #[test]
    fn quantile_upper_bound_is_conservative() {
        let r = MetricsRegistry::new();
        let h = r.histogram("q");
        for v in 1..=100u64 {
            h.record(v);
        }
        let hs = r.snapshot();
        let hs = hs.histogram("q").unwrap();
        let p50 = hs.quantile_upper_bound(0.5);
        let p100 = hs.quantile_upper_bound(1.0);
        assert!(p50 >= 50, "upper bound must not undershoot the quantile");
        assert!(p100 >= 100);
        assert_eq!(hs.quantile_upper_bound(0.0), 0, "q=0 needs no samples");
        assert!((hs.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_snapshot() {
        let r = MetricsRegistry::new();
        let _ = r.histogram("empty");
        let s = r.snapshot();
        let hs = s.histogram("empty").unwrap();
        assert_eq!(hs.count, 0);
        assert_eq!(hs.mean(), 0.0);
        assert_eq!(hs.quantile_upper_bound(0.99), 0);
    }

    #[test]
    fn percentile_of_empty_histogram_is_zero() {
        let r = MetricsRegistry::new();
        let h = r.histogram("empty");
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.percentile(0.99), 0);
        let (p50, p95, p99) = r.snapshot().histogram("empty").unwrap().p50_p95_p99();
        assert_eq!((p50, p95, p99), (0, 0, 0));
    }

    #[test]
    fn percentile_of_single_bucket_histogram() {
        let r = MetricsRegistry::new();
        let h = r.histogram("one_bucket");
        // All samples land in bucket 7 = [64, 127]; every percentile
        // reports that bucket's upper bound.
        for v in [64u64, 100, 127, 64, 127] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 64 + 100 + 127 + 64 + 127);
        for q in [0.01, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.percentile(q), 127, "q={q}");
        }
    }

    #[test]
    fn percentile_of_saturating_inputs() {
        let r = MetricsRegistry::new();
        let h = r.histogram("sat");
        // u64::MAX lives in the open-topped last bucket; the sum also
        // wraps (documented) without disturbing count or percentiles.
        h.record(u64::MAX);
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.percentile(0.01), 0, "the zero sample is the p1");
        assert_eq!(h.percentile(0.99), u64::MAX);
        assert_eq!(h.percentile(1.0), u64::MAX);
        let hs = r.snapshot();
        let hs = hs.histogram("sat").unwrap();
        assert_eq!(hs.max, u64::MAX);
        assert_eq!(hs.quantile_upper_bound(0.99), u64::MAX);
    }

    #[test]
    fn percentiles_are_distributed_across_buckets() {
        let r = MetricsRegistry::new();
        let h = r.histogram("spread");
        for v in 1..=1000u64 {
            h.record(v);
        }
        let (p50, p95, p99) = r.snapshot().histogram("spread").unwrap().p50_p95_p99();
        // Bucket upper bounds are conservative: each percentile is >= the
        // true quantile but within one power of two of it.
        assert!((500..=1023).contains(&p50), "p50 = {p50}");
        assert!((950..=1023).contains(&p95), "p95 = {p95}");
        assert!((990..=1023).contains(&p99), "p99 = {p99}");
        assert!(p50 <= p95 && p95 <= p99);
    }

    #[test]
    fn snapshot_exports_stable_sorted_jsonl() {
        let r = MetricsRegistry::new();
        r.counter("b.count").add(2);
        r.counter("a.count").add(1);
        r.gauge("depth").set(-3);
        r.histogram("ns").record(100);
        let snap = r.snapshot();
        let lines = snap.to_jsonl_lines();
        assert_eq!(lines.len(), 4);
        // Counters first (alphabetical), then gauges, then histograms.
        assert!(lines[0].contains("\"a.count\""));
        assert!(lines[1].contains("\"b.count\""));
        assert!(lines[2].contains("\"depth\"") && lines[2].contains("-3"));
        assert!(lines[3].contains("\"ns\"") && lines[3].contains("\"p99\""));
        // Identical snapshots dump identical bytes.
        assert_eq!(lines, r.snapshot().to_jsonl_lines());
        // Every line parses back through the workspace's own reader.
        for line in &lines {
            let parsed = crate::jsonl::parse_line(line).unwrap();
            assert!(parsed.name().starts_with("metrics."));
            assert!(parsed.str("name").is_some());
        }
    }

    #[test]
    fn snapshot_emit_respects_disabled_sinks() {
        use crate::event::{EventSink, MemorySink, NullSink};
        let r = MetricsRegistry::new();
        r.counter("x").inc();
        let snap = r.snapshot();
        let mem = MemorySink::new();
        snap.emit(&mem);
        assert_eq!(mem.len(), 1);
        // A disabled sink gets nothing (and no events are built).
        snap.emit(&NullSink);
        assert!(!NullSink.enabled());
    }
}

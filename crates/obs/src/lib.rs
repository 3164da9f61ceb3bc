//! Zero-dependency observability for the progressive pipeline.
//!
//! The paper's value proposition is *progressive* behaviour — a penalty
//! bound after every retrieval (Theorems 1–2) — which means the interesting
//! output of a run is not just the final estimates but the whole
//! *trajectory*: how fast the bound shrinks, how much I/O each step costs,
//! how often retries and deferrals interrupt the progression.  This crate
//! provides the uniform vocabulary the rest of the workspace uses to expose
//! that trajectory:
//!
//! * [`MetricsRegistry`] — named [`Counter`]s, [`Gauge`]s, and log-bucketed
//!   latency [`Histogram`]s, all lock-free to update and cheap enough for
//!   per-retrieval hot paths;
//! * [`SpanTimer`] — lightweight wall-clock span timing in nanoseconds;
//! * [`Event`] / [`EventSink`] — structured trace events with a JSONL sink
//!   ([`JsonlSink`]), an in-memory sink for tests and replay
//!   ([`MemorySink`]), a no-op default ([`NullSink`]) that keeps the
//!   instrumented paths bit-for-bit identical to uninstrumented ones, and
//!   a non-blocking bounded-queue adapter ([`BoundedSink`])
//!   whose background flusher keeps slow trace I/O off the hot path
//!   (overflow drops-and-counts, never blocks);
//! * [`Tracer`] / [`LifecycleRecorder`] — causal spans (`span.start` /
//!   `span.end` on one monotone clock) and the per-batch [`Phase`]
//!   lifecycle whose intervals exactly partition a served batch's wall
//!   time, so SLO misses can be attributed to queueing vs store wait vs
//!   parking vs repair;
//! * [`jsonl`] — a minimal flat-JSON parser so traces can be replayed
//!   (e.g. by the `progress_report` harness in `batchbb-bench`) without an
//!   external JSON dependency.
//!
//! The crate deliberately depends on nothing but std, so any layer of the
//! workspace — including `batchbb-storage`'s retrieval hot path — can emit
//! metrics and events without a dependency cycle or a new external crate.
//!
//! # Example
//!
//! ```
//! use batchbb_obs::{Event, EventSink, MemorySink, MetricsRegistry, SpanTimer};
//! use std::sync::Arc;
//!
//! let registry = MetricsRegistry::new();
//! let steps = registry.counter("exec.steps");
//! let latency = registry.histogram("exec.step_ns");
//!
//! let sink = Arc::new(MemorySink::new());
//! let timer = SpanTimer::start();
//! steps.inc();
//! latency.record(timer.elapsed_ns());
//! sink.emit(&Event::new("exec.step").u64("step", 1).f64("importance", 2.5));
//!
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("exec.steps"), Some(1));
//! let line = sink.lines().pop().unwrap();
//! let parsed = batchbb_obs::jsonl::parse_line(&line).unwrap();
//! assert_eq!(parsed.name(), "exec.step");
//! assert_eq!(parsed.num("importance"), Some(2.5));
//! ```

#![warn(missing_docs)]

mod bounded;
mod event;
pub mod jsonl;
mod metrics;
mod span;
mod trace;

pub use bounded::{BoundedSink, BoundedSinkBuilder, BoundedSinkStats, DEFAULT_QUEUE_CAPACITY};
pub use event::{Event, EventSink, FieldValue, JsonlSink, MemorySink, NullSink};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use span::SpanTimer;
pub use trace::{span_end_event, span_start_event, LifecycleRecorder, Phase, TraceContext, Tracer};

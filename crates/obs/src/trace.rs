//! Causal batch-lifecycle tracing: spans, the phase taxonomy, and the
//! per-batch [`LifecycleRecorder`].
//!
//! A served batch's wall time now crosses five subsystems — admission,
//! the slice scheduler, the executor, the (possibly asynchronous) store,
//! and version repair — and the `exec.*`/`slo.*` counters cannot say
//! *where* a degraded batch spent its time. This module adds the causal
//! layer: a run-wide [`Tracer`] hands out span ids on one monotone clock,
//! `span.start`/`span.end` events mark intervals, and every batch carries
//! a [`LifecycleRecorder`] that accumulates [`Phase`] intervals and
//! flushes them into the trace at finalize (like the serve-pool metrics
//! snapshot: buffered per batch, written once).
//!
//! # Accounting identity
//!
//! A recorder stores *transitions*, not intervals: entering a phase at
//! `t` ends the previous phase at exactly `t`. Flushing therefore emits
//! intervals that **partition** the batch's admitted-to-finalized wall
//! time by construction — consecutive intervals share their boundary
//! timestamp (u64 equality, no float slack), the first starts at the
//! batch's root-span start and the last ends at its root-span end. The
//! `progress_report attribute` replay verifies this identity on every
//! trace and exits nonzero if any batch's phases fail to telescope.
//!
//! # Cost contract
//!
//! Tracing is strictly opt-in and adds **no locks to the untraced hot
//! path**: every instrumented site guards on an `Option` that is `None`
//! unless a tracer was configured, exactly like `ExecObserver`. A
//! recorder has one writer and no lock of its own: the serve pool keeps
//! it beside the batch's executor, under the batch's slice lock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::event::{Event, EventSink};

/// The causal coordinates of one span: which trace it belongs to, its own
/// id, and its parent (if nested).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The run-wide trace the span belongs to.
    pub trace_id: u64,
    /// This span's id, unique within the trace.
    pub span_id: u64,
    /// The enclosing span, or `None` for a root span.
    pub parent_span_id: Option<u64>,
}

/// The batch-lifecycle phase taxonomy. Every nanosecond of a traced
/// batch's wall time belongs to exactly one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Admission control is pricing the contract (serial, on the caller
    /// thread).
    Admitted,
    /// Runnable but not on a worker: waiting in the slice queue.
    Queued,
    /// A worker is advancing the executor inside a slice.
    Executing,
    /// Blocked on the coefficient store: a synchronous retrieval, a
    /// prefetch submit, or an async completion wait. Recorded as the
    /// trailing interval of each slice (see
    /// [`LifecycleRecorder::transition_after`]).
    StoreWait,
    /// Shelved on an outstanding async prefetch; the pool is advancing
    /// other batches.
    Parked,
    /// Estimates and certified bounds are being repaired against a live
    /// update (stop-the-world barrier) or a version advance.
    Repair,
    /// Terminal bookkeeping: outcome classification, result publication,
    /// trace flush.
    Finalize,
}

impl Phase {
    /// Every phase, in canonical (declaration) order.
    pub const ALL: [Phase; 7] = [
        Phase::Admitted,
        Phase::Queued,
        Phase::Executing,
        Phase::StoreWait,
        Phase::Parked,
        Phase::Repair,
        Phase::Finalize,
    ];

    /// Stable snake_case label, used as the `phase` field of span events.
    pub fn label(&self) -> &'static str {
        match self {
            Phase::Admitted => "admitted",
            Phase::Queued => "queued",
            Phase::Executing => "executing",
            Phase::StoreWait => "store_wait",
            Phase::Parked => "parked",
            Phase::Repair => "repair",
            Phase::Finalize => "finalize",
        }
    }

    /// One-letter code for compact waterfall rendering.
    pub fn letter(&self) -> char {
        match self {
            Phase::Admitted => 'A',
            Phase::Queued => 'Q',
            Phase::Executing => 'E',
            Phase::StoreWait => 'S',
            Phase::Parked => 'P',
            Phase::Repair => 'R',
            Phase::Finalize => 'F',
        }
    }

    /// Parses a [`Phase::label`] back; `None` for unknown labels.
    pub fn from_label(label: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.label() == label)
    }
}

struct TracerInner {
    origin: Instant,
    trace_id: u64,
    next_span: AtomicU64,
}

/// The run-wide span authority: one monotone clock plus a span-id
/// allocator, shared (cheaply cloned) by every component of a traced run
/// so their spans land on a single comparable timeline.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("trace_id", &self.inner.trace_id)
            .finish_non_exhaustive()
    }
}

impl Tracer {
    /// A fresh tracer for one run. `trace_id` names the run; spans from
    /// tracers with different origins are not time-comparable, so wire
    /// **one** tracer through every component of a run.
    pub fn new(trace_id: u64) -> Self {
        Tracer {
            inner: Arc::new(TracerInner {
                origin: Instant::now(),
                trace_id,
                next_span: AtomicU64::new(0),
            }),
        }
    }

    /// The run's trace id.
    pub fn trace_id(&self) -> u64 {
        self.inner.trace_id
    }

    /// Nanoseconds since the tracer was created (monotone; saturates at
    /// `u64::MAX`, ~584 years).
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.inner.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Allocates the next span id (unique within this trace, starting
    /// at 1 so 0 never names a span).
    pub fn next_span_id(&self) -> u64 {
        self.inner.next_span.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// A root [`TraceContext`] with a freshly allocated span id.
    pub fn root_context(&self) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id(),
            span_id: self.next_span_id(),
            parent_span_id: None,
        }
    }

    /// A child [`TraceContext`] under `parent`.
    pub fn child_context(&self, parent: u64) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id(),
            span_id: self.next_span_id(),
            parent_span_id: Some(parent),
        }
    }
}

/// Builds the `span.start` event for `ctx` at `ts_ns`. Callers may append
/// extra fields before emitting.
pub fn span_start_event(name: &'static str, ctx: TraceContext, ts_ns: u64) -> Event {
    let event = Event::new("span.start")
        .str("name", name)
        .u64("trace", ctx.trace_id)
        .u64("span", ctx.span_id)
        .u64("ts_ns", ts_ns);
    match ctx.parent_span_id {
        Some(parent) => event.u64("parent", parent),
        None => event,
    }
}

/// Builds the matching `span.end` event for span `span_id` at `ts_ns`.
pub fn span_end_event(ctx: TraceContext, ts_ns: u64) -> Event {
    Event::new("span.end")
        .u64("trace", ctx.trace_id)
        .u64("span", ctx.span_id)
        .u64("ts_ns", ts_ns)
}

/// Accumulates one batch's phase intervals and flushes them as spans at
/// finalize.
///
/// The recorder never emits mid-flight: `transition` appends one
/// `(phase, timestamp)` pair to a vector (amortized O(1), no I/O), and
/// [`flush`](LifecycleRecorder::flush) turns the transition list into the
/// batch root span plus one child span per phase interval. Same-phase
/// transitions are absorbed and zero-length intervals are dropped at
/// flush, neither of which can break the partition identity: dropped
/// intervals are empty and neighbours share their boundary timestamp.
pub struct LifecycleRecorder {
    tracer: Tracer,
    sink: Arc<dyn EventSink>,
    batch: u64,
    root: u64,
    transitions: Vec<(Phase, u64)>,
    flushed: bool,
}

impl std::fmt::Debug for LifecycleRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LifecycleRecorder")
            .field("batch", &self.batch)
            .field("root", &self.root)
            .field("transitions", &self.transitions)
            .field("flushed", &self.flushed)
            .finish_non_exhaustive()
    }
}

impl LifecycleRecorder {
    /// Starts a batch lifecycle in [`Phase::Admitted`] now, allocating
    /// the batch's root span.
    pub fn begin(tracer: Tracer, sink: Arc<dyn EventSink>, batch: u64) -> Self {
        let root = tracer.next_span_id();
        let now = tracer.now_ns();
        LifecycleRecorder {
            tracer,
            sink,
            batch,
            root,
            transitions: vec![(Phase::Admitted, now)],
            flushed: false,
        }
    }

    /// The batch index this recorder traces.
    pub fn batch(&self) -> u64 {
        self.batch
    }

    /// The phase the batch is in right now.
    pub fn phase(&self) -> Phase {
        self.transitions
            .last()
            .map(|(p, _)| *p)
            .unwrap_or(Phase::Admitted)
    }

    /// Enters `phase` now, ending the current phase at the same instant.
    /// A same-phase transition is a no-op, and transitions after
    /// [`flush`](LifecycleRecorder::flush) are ignored.
    pub fn transition(&mut self, phase: Phase) {
        if self.flushed || self.phase() == phase {
            return;
        }
        let now = self.tracer.now_ns();
        self.transitions.push((phase, now));
    }

    /// Enters `phase` now, like [`transition`](LifecycleRecorder::transition),
    /// after handing the last `trailing_ns` of the open interval to
    /// `trailing`: the open phase ends `trailing_ns` before now and
    /// `trailing` runs until now. A `trailing_ns` longer than the open
    /// interval is clamped to it, and 0 ns records no trailing interval.
    /// The serve pool records each slice's store wait this way, so its
    /// total is exact while its position inside the slice means nothing.
    pub fn transition_after(&mut self, trailing: Phase, trailing_ns: u64, phase: Phase) {
        if self.flushed {
            return;
        }
        let now = self.tracer.now_ns();
        if trailing_ns > 0 && self.phase() != trailing {
            let open = self.transitions.last().map_or(now, |&(_, t)| t);
            let start = now.saturating_sub(trailing_ns).max(open);
            self.transitions.push((trailing, start));
        }
        if self.phase() != phase {
            self.transitions.push((phase, now));
        }
    }

    /// Ends the lifecycle now and emits the batch root span plus one
    /// child span per phase interval. Idempotent; called once at
    /// finalize.
    pub fn flush(&mut self) {
        if self.flushed {
            return;
        }
        self.flushed = true;
        if !self.sink.enabled() {
            return;
        }
        let end = self.tracer.now_ns();
        let start = self.transitions.first().map(|(_, t)| *t).unwrap_or(end);
        let root_ctx = TraceContext {
            trace_id: self.tracer.trace_id(),
            span_id: self.root,
            parent_span_id: None,
        };
        self.sink.emit(
            &span_start_event("batch", root_ctx, start)
                .u64("batch", self.batch)
                .u64("phases", self.transitions.len() as u64),
        );
        for (i, &(phase, t0)) in self.transitions.iter().enumerate() {
            let t1 = self.transitions.get(i + 1).map(|&(_, t)| t).unwrap_or(end);
            if t1 == t0 {
                continue; // empty interval; neighbours share the boundary
            }
            let ctx = self.tracer.child_context(self.root);
            self.sink.emit(
                &span_start_event("phase", ctx, t0)
                    .str("phase", phase.label())
                    .u64("batch", self.batch),
            );
            self.sink.emit(&span_end_event(ctx, t1));
        }
        self.sink
            .emit(&span_end_event(root_ctx, end).u64("batch", self.batch));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonl;
    use crate::MemorySink;

    fn parsed(sink: &MemorySink) -> Vec<jsonl::ParsedEvent> {
        sink.lines()
            .iter()
            .map(|l| jsonl::parse_line(l).unwrap())
            .collect()
    }

    #[test]
    fn phase_labels_round_trip() {
        for phase in Phase::ALL {
            assert_eq!(Phase::from_label(phase.label()), Some(phase));
        }
        assert_eq!(Phase::from_label("bogus"), None);
        let letters: Vec<char> = Phase::ALL.iter().map(|p| p.letter()).collect();
        let mut unique = letters.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), letters.len(), "letters must be distinct");
    }

    #[test]
    fn span_ids_are_unique_and_nonzero() {
        let tracer = Tracer::new(7);
        let a = tracer.root_context();
        let b = tracer.child_context(a.span_id);
        assert_ne!(a.span_id, 0);
        assert_ne!(a.span_id, b.span_id);
        assert_eq!(b.parent_span_id, Some(a.span_id));
        assert_eq!(a.trace_id, 7);
    }

    #[test]
    fn clock_is_monotone() {
        let tracer = Tracer::new(0);
        let a = tracer.now_ns();
        let b = tracer.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn lifecycle_phases_partition_wall_time() {
        let sink = std::sync::Arc::new(MemorySink::new());
        let tracer = Tracer::new(1);
        let mut recorder = LifecycleRecorder::begin(tracer, sink.clone(), 3);
        recorder.transition(Phase::Queued);
        recorder.transition(Phase::Executing);
        recorder.transition(Phase::Executing); // absorbed
        recorder.transition(Phase::StoreWait);
        recorder.transition(Phase::Executing);
        recorder.transition(Phase::Finalize);
        recorder.flush();
        recorder.flush(); // idempotent
        let events = parsed(&sink);
        let root_start = events
            .iter()
            .find(|e| e.name() == "span.start" && e.str("name") == Some("batch"))
            .unwrap();
        assert_eq!(root_start.u64("batch"), Some(3));
        let root_id = root_start.u64("span").unwrap();
        let root_t0 = root_start.u64("ts_ns").unwrap();
        let root_t1 = events
            .iter()
            .find(|e| e.name() == "span.end" && e.u64("span") == Some(root_id))
            .unwrap()
            .u64("ts_ns")
            .unwrap();
        // Collect phase intervals (start, end) in emission order.
        let mut intervals: Vec<(u64, u64)> = Vec::new();
        for event in &events {
            if event.name() == "span.start" && event.str("name") == Some("phase") {
                assert_eq!(event.u64("parent"), Some(root_id));
                let id = event.u64("span").unwrap();
                let t0 = event.u64("ts_ns").unwrap();
                let t1 = events
                    .iter()
                    .find(|e| e.name() == "span.end" && e.u64("span") == Some(id))
                    .unwrap()
                    .u64("ts_ns")
                    .unwrap();
                intervals.push((t0, t1));
            }
        }
        assert!(!intervals.is_empty());
        // Exact telescoping partition of the root interval.
        assert_eq!(intervals.first().unwrap().0, root_t0);
        assert_eq!(intervals.last().unwrap().1, root_t1);
        for w in intervals.windows(2) {
            assert_eq!(w[0].1, w[1].0, "intervals must share boundaries");
        }
        let total: u64 = intervals.iter().map(|(a, b)| b - a).sum();
        assert_eq!(total, root_t1 - root_t0);
    }

    /// The flushed lifecycle's non-empty `(phase, start, end)` intervals
    /// in time order, after checking that they partition the root span.
    fn partitioned_intervals(sink: &MemorySink) -> Vec<(String, u64, u64)> {
        let events = parsed(sink);
        let root_start = events
            .iter()
            .find(|e| e.name() == "span.start" && e.str("name") == Some("batch"))
            .unwrap();
        let root_id = root_start.u64("span").unwrap();
        let root_t0 = root_start.u64("ts_ns").unwrap();
        let end_of = |id: u64| {
            events
                .iter()
                .find(|e| e.name() == "span.end" && e.u64("span") == Some(id))
                .unwrap()
                .u64("ts_ns")
                .unwrap()
        };
        let root_t1 = end_of(root_id);
        // Collect phase intervals in emission order.
        let mut intervals = Vec::new();
        for event in &events {
            if event.name() == "span.start" && event.str("name") == Some("phase") {
                assert_eq!(event.u64("parent"), Some(root_id));
                let t0 = event.u64("ts_ns").unwrap();
                let t1 = end_of(event.u64("span").unwrap());
                intervals.push((event.str("phase").unwrap().to_string(), t0, t1));
            }
        }
        assert!(!intervals.is_empty());
        // Exact telescoping partition of the root interval.
        assert_eq!(intervals.first().unwrap().1, root_t0);
        assert_eq!(intervals.last().unwrap().2, root_t1);
        for w in intervals.windows(2) {
            assert_eq!(w[0].2, w[1].1, "intervals must share boundaries");
        }
        let total: u64 = intervals.iter().map(|(_, a, b)| b - a).sum();
        assert_eq!(total, root_t1 - root_t0);
        intervals
    }

    #[test]
    fn trailing_intervals_partition_clamp_and_skip_zero() {
        let pause = || std::thread::sleep(std::time::Duration::from_millis(2));
        let sink = std::sync::Arc::new(MemorySink::new());
        let mut recorder = LifecycleRecorder::begin(Tracer::new(6), sink.clone(), 0);
        recorder.transition(Phase::Executing);
        pause();
        recorder.transition_after(Phase::StoreWait, 1_000_000, Phase::Queued);
        pause();
        recorder.transition(Phase::Executing);
        pause();
        // Longer than the open interval: the whole slice is store wait.
        recorder.transition_after(Phase::StoreWait, u64::MAX, Phase::Parked);
        pause();
        // 0 ns: a plain transition.
        recorder.transition_after(Phase::StoreWait, 0, Phase::Finalize);
        recorder.flush();
        let intervals = partitioned_intervals(&sink);
        let labels: Vec<&str> = intervals
            .iter()
            .map(|(phase, _, _)| phase.as_str())
            .filter(|&phase| phase != "admitted" && phase != "finalize")
            .collect();
        assert_eq!(
            labels,
            ["executing", "store_wait", "queued", "store_wait", "parked"]
        );
        let first_wait = intervals
            .iter()
            .find(|(p, _, _)| p == "store_wait")
            .unwrap();
        assert_eq!(first_wait.2 - first_wait.1, 1_000_000, "the total is exact");
    }

    #[test]
    fn transitions_after_flush_are_ignored() {
        let sink = std::sync::Arc::new(MemorySink::new());
        let tracer = Tracer::new(4);
        let mut recorder = LifecycleRecorder::begin(tracer, sink.clone(), 1);
        recorder.transition(Phase::Finalize);
        recorder.flush();
        let lines = sink.lines().len();
        recorder.transition(Phase::Queued);
        recorder.flush();
        assert_eq!(recorder.phase(), Phase::Finalize);
        assert_eq!(sink.lines().len(), lines);
    }

    #[test]
    fn disabled_sink_flushes_to_nothing() {
        let sink = std::sync::Arc::new(crate::NullSink);
        let tracer = Tracer::new(5);
        let mut recorder = LifecycleRecorder::begin(tracer, sink, 0);
        recorder.transition(Phase::Finalize);
        recorder.flush(); // must not panic, must not emit
    }
}

//! A non-blocking, bounded-queue event sink with a background flusher.
//!
//! The serving pool shares one trace sink across every worker thread; a
//! blocking writer there (e.g. [`crate::JsonlSink`] over a slow disk)
//! would serialize the very workload the trace is supposed to observe.
//! [`BoundedSink`] decouples the two: `emit` enqueues into a bounded
//! in-memory queue under a short-held lock and returns immediately, while
//! a dedicated flusher thread drains the queue into the inner sink.
//!
//! Overflow is **drop-newest and count** — production telemetry
//! discipline: when the queue is full the incoming event is discarded and
//! `obs.dropped_events` is incremented, so the emitting thread never waits
//! for I/O and every missing trace line is accounted for
//! (`emitted = written + dropped` holds exactly once the sink is closed).
//!
//! [`BoundedSink::close`] (also invoked on drop) marks the queue closed,
//! joins the flusher, and guarantees every queued event has reached the
//! inner sink — conclusive shutdown, no tail loss.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::event::{Event, EventSink};
use crate::metrics::{Counter, MetricsRegistry};

/// Default queue capacity: deep enough to absorb bursts from a full
/// worker pool, small enough that a stalled writer bounds memory.
pub const DEFAULT_QUEUE_CAPACITY: usize = 4096;

/// Cumulative accounting of one [`BoundedSink`]'s lifetime.
///
/// After [`BoundedSink::close`] the identity
/// `emitted == written + dropped` holds exactly; while the
/// flusher is still running, `written` lags `emitted` by the queue depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundedSinkStats {
    /// Events handed to [`EventSink::emit`].
    pub emitted: u64,
    /// Events delivered to the inner sink by the flusher.
    pub written: u64,
    /// Events discarded because the queue was full (or the sink closed).
    pub dropped: u64,
}

struct Queue {
    events: VecDeque<Event>,
    closed: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    ready: Condvar,
    capacity: usize,
    emitted: Counter,
    written: Counter,
    dropped: Counter,
}

/// Configures and builds a [`BoundedSink`] (the flusher thread starts at
/// [`build`](BoundedSinkBuilder::build), so both knobs must be set first).
#[derive(Default)]
pub struct BoundedSinkBuilder {
    capacity: Option<usize>,
    registry: Option<Arc<MetricsRegistry>>,
}

impl BoundedSinkBuilder {
    /// Sets the queue capacity (values below 1 become 1; default
    /// [`DEFAULT_QUEUE_CAPACITY`]).
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.capacity = Some(capacity.max(1));
        self
    }

    /// Counts `obs.*` accounting into `registry` (shared with other
    /// components) instead of a private one.
    pub fn registry(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Builds the sink around `inner` and starts the flusher thread.
    pub fn build(self, inner: Arc<dyn EventSink>) -> BoundedSink {
        let registry = self
            .registry
            .unwrap_or_else(|| Arc::new(MetricsRegistry::new()));
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                events: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: self.capacity.unwrap_or(DEFAULT_QUEUE_CAPACITY),
            emitted: registry.counter("obs.emitted_events"),
            written: registry.counter("obs.written_events"),
            dropped: registry.counter("obs.dropped_events"),
        });
        let flusher = {
            let shared = Arc::clone(&shared);
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || flusher_loop(&shared, &*inner))
        };
        BoundedSink {
            shared,
            inner,
            flusher: Mutex::new(Some(flusher)),
            registry,
        }
    }
}

/// The flusher: swap the whole queue out under the lock, deliver it to the
/// inner sink unlocked (so emitters never wait on inner-sink I/O), repeat
/// until closed *and* empty.
fn flusher_loop(shared: &Shared, inner: &dyn EventSink) {
    loop {
        let batch = {
            let mut queue = shared.queue.lock().expect("bounded sink lock poisoned");
            while queue.events.is_empty() && !queue.closed {
                queue = shared
                    .ready
                    .wait(queue)
                    .expect("bounded sink lock poisoned");
            }
            if queue.events.is_empty() {
                return; // closed and fully drained: conclusive shutdown
            }
            std::mem::take(&mut queue.events)
        };
        for event in &batch {
            inner.emit(event);
        }
        shared.written.add(batch.len() as u64);
    }
}

/// A bounded, non-blocking [`EventSink`] adapter: `emit` enqueues and
/// returns; a background thread drains to the inner sink; overflow drops
/// the newest event and counts it (`obs.dropped_events`).
///
/// See DESIGN.md §8 for the full overflow and shutdown contract, and
/// [`BoundedSinkBuilder`] for the capacity and registry knobs.
pub struct BoundedSink {
    shared: Arc<Shared>,
    inner: Arc<dyn EventSink>,
    flusher: Mutex<Option<JoinHandle<()>>>,
    registry: Arc<MetricsRegistry>,
}

impl BoundedSink {
    /// Wraps `inner` with default capacity and a private accounting
    /// registry.
    pub fn new(inner: Arc<dyn EventSink>) -> Self {
        Self::builder().build(inner)
    }

    /// A builder for capacity / shared-registry configuration.
    pub fn builder() -> BoundedSinkBuilder {
        BoundedSinkBuilder::default()
    }

    /// The queue capacity events wait in before overflow drops them.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// The registry holding the `obs.*` accounting counters.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Current cumulative accounting (see [`BoundedSinkStats`]).
    pub fn stats(&self) -> BoundedSinkStats {
        BoundedSinkStats {
            emitted: self.shared.emitted.get(),
            written: self.shared.written.get(),
            dropped: self.shared.dropped.get(),
        }
    }

    /// Closes the queue and joins the flusher, guaranteeing every queued
    /// event has reached the inner sink. Idempotent; emits after close
    /// are counted as dropped. Also runs on drop.
    pub fn close(&self) {
        {
            let mut queue = self
                .shared
                .queue
                .lock()
                .expect("bounded sink lock poisoned");
            queue.closed = true;
        }
        self.shared.ready.notify_all();
        let handle = self
            .flusher
            .lock()
            .expect("bounded sink lock poisoned")
            .take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

impl EventSink for BoundedSink {
    fn emit(&self, event: &Event) {
        self.shared.emitted.inc();
        let mut queue = self
            .shared
            .queue
            .lock()
            .expect("bounded sink lock poisoned");
        if queue.closed || queue.events.len() >= self.shared.capacity {
            drop(queue);
            self.shared.dropped.inc();
            return;
        }
        queue.events.push_back(event.clone());
        drop(queue);
        self.shared.ready.notify_one();
    }

    fn enabled(&self) -> bool {
        self.inner.enabled()
    }
}

impl Drop for BoundedSink {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use super::*;
    use crate::event::{MemorySink, NullSink};

    /// An inner sink that sleeps per event — a stand-in for slow trace
    /// I/O — while recording what it received.
    struct SlowSink {
        inner: MemorySink,
        delay: Duration,
    }

    impl EventSink for SlowSink {
        fn emit(&self, event: &Event) {
            std::thread::sleep(self.delay);
            self.inner.emit(event);
        }
    }

    #[test]
    fn accounting_is_exact_after_close() {
        let mem = Arc::new(MemorySink::new());
        let sink = BoundedSink::builder().capacity(8).build(mem.clone());
        for i in 0..100u64 {
            sink.emit(&Event::new("t").u64("i", i));
        }
        sink.close();
        let stats = sink.stats();
        assert_eq!(stats.emitted, 100);
        assert_eq!(
            stats.emitted,
            stats.written + stats.dropped,
            "every event is written or counted as dropped"
        );
        assert_eq!(mem.len() as u64, stats.written, "inner sink agrees");
    }

    #[test]
    fn emitter_never_waits_for_a_slow_inner_sink() {
        let slow = Arc::new(SlowSink {
            inner: MemorySink::new(),
            delay: Duration::from_millis(5),
        });
        let sink = BoundedSink::builder().capacity(4).build(slow.clone());
        let events = 2_000u64; // serially through the sink: >= 10 seconds
        let start = Instant::now();
        for i in 0..events {
            sink.emit(&Event::new("t").u64("i", i));
        }
        let emit_elapsed = start.elapsed();
        sink.close();
        assert!(
            emit_elapsed < Duration::from_secs(2),
            "emit loop took {emit_elapsed:?}, the sink must not block on I/O"
        );
        let stats = sink.stats();
        assert!(stats.dropped > 0, "a 4-slot queue must overflow");
        assert_eq!(stats.emitted, events);
        assert_eq!(stats.emitted, stats.written + stats.dropped);
        assert_eq!(slow.inner.len() as u64, stats.written);
    }

    #[test]
    fn nothing_is_dropped_below_capacity() {
        let mem = Arc::new(MemorySink::new());
        let sink = BoundedSink::builder().capacity(64).build(mem.clone());
        for i in 0..32u64 {
            sink.emit(&Event::new("t").u64("i", i));
            // Pace emission so the flusher keeps the queue shallow.
            if i % 8 == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        sink.close();
        let stats = sink.stats();
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.written, 32);
        // Order is preserved end to end.
        let lines = mem.lines();
        assert_eq!(lines.len(), 32);
        for (i, line) in lines.iter().enumerate() {
            let parsed = crate::jsonl::parse_line(line).unwrap();
            assert_eq!(parsed.u64("i"), Some(i as u64));
        }
    }

    #[test]
    fn close_is_idempotent_and_late_emits_drop() {
        let mem = Arc::new(MemorySink::new());
        let sink = BoundedSink::new(mem.clone());
        sink.emit(&Event::new("t"));
        sink.close();
        sink.close();
        sink.emit(&Event::new("late"));
        let stats = sink.stats();
        assert_eq!(stats.written, 1);
        assert_eq!(stats.dropped, 1, "post-close emits are counted drops");
        assert_eq!(mem.len(), 1);
    }

    #[test]
    fn drop_flushes_conclusively() {
        let mem = Arc::new(MemorySink::new());
        {
            let sink = BoundedSink::new(mem.clone());
            for i in 0..16u64 {
                sink.emit(&Event::new("t").u64("i", i));
            }
        } // dropped here, not explicitly closed
        assert_eq!(mem.len(), 16, "drop must drain the queue");
    }

    #[test]
    fn accounting_lands_in_a_shared_registry() {
        let registry = Arc::new(MetricsRegistry::new());
        let sink = BoundedSink::builder()
            .capacity(2)
            .registry(registry.clone())
            .build(Arc::new(SlowSink {
                inner: MemorySink::new(),
                delay: Duration::from_millis(20),
            }));
        for _ in 0..64 {
            sink.emit(&Event::new("t"));
        }
        sink.close();
        let snap = registry.snapshot();
        let emitted = snap.counter("obs.emitted_events").unwrap();
        let written = snap.counter("obs.written_events").unwrap();
        let dropped = snap.counter("obs.dropped_events").unwrap();
        assert_eq!(emitted, 64);
        assert!(dropped > 0);
        assert_eq!(emitted, written + dropped);
    }

    #[test]
    fn concurrent_emitters_account_exactly() {
        let mem = Arc::new(MemorySink::new());
        let sink = Arc::new(BoundedSink::builder().capacity(32).build(mem.clone()));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let sink = Arc::clone(&sink);
                scope.spawn(move || {
                    for i in 0..250u64 {
                        sink.emit(&Event::new("t").u64("n", t * 1000 + i));
                    }
                });
            }
        });
        sink.close();
        let stats = sink.stats();
        assert_eq!(stats.emitted, 1000);
        assert_eq!(stats.emitted, stats.written + stats.dropped);
        assert_eq!(mem.len() as u64, stats.written);
    }

    #[test]
    fn enabled_inherits_from_inner() {
        let null = BoundedSink::new(Arc::new(NullSink));
        assert!(!null.enabled());
        let mem = BoundedSink::new(Arc::new(MemorySink::new()));
        assert!(mem.enabled());
    }
}

//! Slice scheduling for the worker pool.
//!
//! Scheduling decides only *interleaving*, never *content* (each batch
//! walks its own importance order regardless of when its slices run), so
//! the queue is free to optimize fleet-level progress: every runnable
//! batch is ranked by marginal value — the certified worst-case bound
//! still outstanding, averaged over the retrievals left to spend it
//! (`bound / (remaining + deferred)`), weighted by `priority + 1` — and
//! workers always pop the top of one shared heap. The batch whose next
//! slice buys the most certified-error reduction per retrieval — scaled by
//! how much the caller cares — runs first; a batch deep in diminishing
//! returns yields to fresher work. Ties break toward fewer slices
//! consumed, then lower admission index, keeping the order deterministic.

use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::sync::Mutex;

/// One runnable batch in the marginal-value heap.
#[derive(Debug)]
struct Rank {
    score: f64,
    slices: usize,
    index: usize,
}

impl PartialEq for Rank {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == CmpOrdering::Equal
    }
}

impl Eq for Rank {}

impl PartialOrd for Rank {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rank {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Max-heap: higher score first, then fewer slices, then lower
        // admission index.
        self.score
            .total_cmp(&other.score)
            .then_with(|| other.slices.cmp(&self.slices))
            .then_with(|| other.index.cmp(&self.index))
    }
}

/// The pool's runnable-batch queue.
pub(crate) struct SliceQueue(Mutex<BinaryHeap<Rank>>);

impl SliceQueue {
    /// Builds the queue and seeds it with `(index, initial_score)` pairs
    /// in admission order.
    pub(crate) fn new(seeds: impl Iterator<Item = (usize, f64)>) -> Self {
        let heap = seeds
            .map(|(index, score)| Rank {
                score,
                slices: 0,
                index,
            })
            .collect();
        SliceQueue(Mutex::new(heap))
    }

    /// Takes the highest-ranked runnable batch.
    pub(crate) fn pop(&self) -> Option<usize> {
        let mut heap = self.0.lock().unwrap_or_else(|e| e.into_inner());
        heap.pop().map(|rank| rank.index)
    }

    /// Re-enqueues a batch after an inconclusive slice with its refreshed
    /// score.
    pub(crate) fn push(&self, index: usize, score: f64, slices: usize) {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).push(Rank {
            score,
            slices,
            index,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_pops_by_score_then_slices_then_index() {
        let q = SliceQueue::new([(0, 1.0), (1, 3.0), (2, 3.0)].into_iter());
        assert_eq!(q.pop(), Some(1), "equal scores: lower index wins");
        q.push(1, 3.0, 1);
        assert_eq!(q.pop(), Some(2), "fewer slices beats re-queued peer");
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(0), "lowest score drains last");
        assert_eq!(q.pop(), None);
    }
}
